//! The 2-FeFET TCAM cell (state-of-the-art FeFET baseline).
//!
//! Two FeFETs in parallel pull the match line down; the stored digit is the
//! pair of polarization states:
//!
//! ```text
//!        ML ──┬─[Fe1 g=SL]──── rail
//!             └─[Fe2 g=SL̄]──── rail      (rail = GND, or a gated footer)
//! ```
//!
//! Encoding: store `1` → `Fe1` high-V_th, `Fe2` low-V_th; store `0` →
//! mirrored; store `X` → both high-V_th. A mismatch drives the gate of the
//! low-V_th FeFET high, discharging the ML; a match only ever raises the
//! gate of a high-V_th device, which stays off. Search is non-destructive
//! because read voltages sit far below the switching threshold (see
//! `ftcam-devices::ferro`).

use ftcam_circuit::{Circuit, DeviceId, Name};
use ftcam_devices::{FeFet, TechCard};
use ftcam_workloads::Ternary;

use crate::design::{CellDesign, CellHandle, CellSite, DesignKind, DeviceCount};
use crate::geometry::Geometry;

/// The 2-FeFET TCAM cell design.
#[derive(Debug, Clone, Default)]
pub struct FeFet2T {
    _private: (),
}

impl FeFet2T {
    /// Creates the design.
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalised polarizations `(p1, p2)` encoding a stored digit
    /// (`+1` = low V_th / conducting, `−1` = high V_th / blocking).
    pub(crate) fn polarizations(bit: Ternary) -> (f64, f64) {
        match bit {
            Ternary::One => (-1.0, 1.0),
            Ternary::Zero => (1.0, -1.0),
            Ternary::X => (-1.0, -1.0),
        }
    }

    /// Shared cell builder reused by the energy-aware variants: the two
    /// FeFETs are labelled `{labels[0]}{i}` and `{labels[1]}{i}` at site
    /// `i`.
    pub(crate) fn build_pair(
        ckt: &mut Circuit,
        card: &TechCard,
        site: &CellSite,
        labels: [&'static str; 2],
    ) -> (DeviceId, DeviceId) {
        let i = site.index;
        let fe1 = ckt.add_labeled(
            Name::indexed(labels[0], i),
            FeFet::new(card.fefet.clone(), site.ml, site.sl, site.source_rail),
        );
        let fe2 = ckt.add_labeled(
            Name::indexed(labels[1], i),
            FeFet::new(card.fefet.clone(), site.ml, site.slb, site.source_rail),
        );
        (fe1, fe2)
    }

    /// Shared programming routine reused by the energy-aware variants.
    pub(crate) fn program_pair(ckt: &mut Circuit, handle: &CellHandle, bit: Ternary) {
        let (p1, p2) = Self::polarizations(bit);
        ckt.device_mut::<FeFet>(handle.devices[0])
            .expect("handle holds a FeFET")
            .set_polarization(p1);
        ckt.device_mut::<FeFet>(handle.devices[1])
            .expect("handle holds a FeFET")
            .set_polarization(p2);
    }
}

impl CellDesign for FeFet2T {
    fn kind(&self) -> DesignKind {
        DesignKind::FeFet2T
    }

    fn name(&self) -> &str {
        "2-FeFET"
    }

    fn device_count(&self) -> DeviceCount {
        DeviceCount {
            fefet: 2.0,
            ..DeviceCount::default()
        }
    }

    fn area_f2(&self) -> f64 {
        260.0
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let (fe1, fe2) = Self::build_pair(ckt, card, site, ["f2t.fe1.", "f2t.fe2."]);
        CellHandle {
            devices: vec![fe1, fe2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        Self::program_pair(ckt, handle, bit);
    }

    fn supports_transient_write(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_turns_on_the_mismatch_device() {
        // Stored 1, searched 0: SLB goes high → Fe2 must be low-V_th.
        let (p1, p2) = FeFet2T::polarizations(Ternary::One);
        assert_eq!(p1, -1.0);
        assert_eq!(p2, 1.0);
        // Stored X never conducts.
        let (x1, x2) = FeFet2T::polarizations(Ternary::X);
        assert_eq!((x1, x2), (-1.0, -1.0));
    }

    #[test]
    fn two_devices_no_pins() {
        let d = FeFet2T::new();
        assert_eq!(d.device_count().total(), 2.0);
        assert!(d.supports_transient_write());
    }
}
