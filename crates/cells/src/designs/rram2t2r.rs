//! The 2T-2R resistive TCAM cell (emerging-NVM baseline).
//!
//! Two access transistors gated by the search lines select one of two
//! programmed resistors. The resistor sits on the ML side and the
//! transistor's source is grounded so it gets the full gate drive — with
//! the resistor below, the access device would be source-degenerated and
//! the LRS discharge throttled to ~10 µA:
//!
//! ```text
//!        ML ──┬─[R1]──(mid1)──[T1 g=SL]── GND
//!             └─[R2]──(mid2)──[T2 g=SL̄]── GND
//! ```
//!
//! Encoding (mismatch = low-resistance discharge path): store `1` →
//! `R1 = HRS, R2 = LRS`; store `0` → `R1 = LRS, R2 = HRS`; store `X` →
//! both HRS. Sensing is ratio-based: a mismatching row discharges through
//! an LRS within ~0.2 ns while a matching row sags through its HRS paths
//! three orders of magnitude more slowly.

use ftcam_circuit::{Circuit, Name};
use ftcam_devices::{Mosfet, Reram, ReramState, TechCard};
use ftcam_workloads::Ternary;

use crate::design::{CellDesign, CellHandle, CellSite, DesignKind, DeviceCount};
use crate::geometry::Geometry;

/// The 2T-2R resistive TCAM cell design.
#[derive(Debug, Clone, Default)]
pub struct Rram2T2R {
    _private: (),
}

impl Rram2T2R {
    /// Creates the design.
    pub fn new() -> Self {
        Self::default()
    }

    fn states(bit: Ternary) -> (ReramState, ReramState) {
        match bit {
            Ternary::One => (ReramState::HighResistance, ReramState::LowResistance),
            Ternary::Zero => (ReramState::LowResistance, ReramState::HighResistance),
            Ternary::X => (ReramState::HighResistance, ReramState::HighResistance),
        }
    }
}

impl CellDesign for Rram2T2R {
    fn kind(&self) -> DesignKind {
        DesignKind::Rram2T2R
    }

    fn name(&self) -> &str {
        "2T-2R ReRAM"
    }

    fn device_count(&self) -> DeviceCount {
        DeviceCount {
            nmos: 2.0,
            pmos: 0.0,
            fefet: 0.0,
            reram: 2.0,
        }
    }

    fn area_f2(&self) -> f64 {
        // Resistors stack above the transistors; access devices dominate.
        300.0
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let i = site.index;
        let mid1 = ckt.fresh_node(Name::indexed("r2.mid1.", i));
        let mid2 = ckt.fresh_node(Name::indexed("r2.mid2.", i));
        let n = card.nmos.clone();
        ckt.add_labeled(
            Name::indexed("r2.t1.", i),
            Mosfet::new(n.clone(), site.ml, site.sl, mid1),
        );
        let r1 = ckt.add_labeled(
            Name::indexed("r2.r1.", i),
            Reram::new(
                card.reram.clone(),
                mid1,
                site.source_rail,
                ReramState::HighResistance,
            ),
        );
        ckt.add_labeled(
            Name::indexed("r2.t2.", i),
            Mosfet::new(n, site.ml, site.slb, mid2),
        );
        let r2 = ckt.add_labeled(
            Name::indexed("r2.r2.", i),
            Reram::new(
                card.reram.clone(),
                mid2,
                site.source_rail,
                ReramState::HighResistance,
            ),
        );
        CellHandle {
            devices: vec![r1, r2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        let (s1, s2) = Self::states(bit);
        ckt.device_mut::<Reram>(handle.devices[0])
            .expect("handle holds a ReRAM")
            .set_state(s1);
        ckt.device_mut::<Reram>(handle.devices[1])
            .expect("handle holds a ReRAM")
            .set_state(s2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_places_lrs_on_mismatch_path() {
        let (r1, r2) = Rram2T2R::states(Ternary::One);
        // Searching 0 turns on T2 → R2 must be LRS for the mismatch.
        assert_eq!(r1, ReramState::HighResistance);
        assert_eq!(r2, ReramState::LowResistance);
        let (x1, x2) = Rram2T2R::states(Ternary::X);
        assert_eq!(x1, ReramState::HighResistance);
        assert_eq!(x2, ReramState::HighResistance);
    }

    #[test]
    fn inventory() {
        let d = Rram2T2R::new();
        assert_eq!(d.device_count().nmos, 2.0);
        assert_eq!(d.device_count().reram, 2.0);
    }
}
