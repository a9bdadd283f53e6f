//! The energy-aware FeFET TCAM designs proposed by the paper.
//!
//! All four share the 2-FeFET storage cell and differ in how the match-line
//! and search-line energy is spent:
//!
//! * [`EaLowSwing`] — precharge the ML to `V_pre = α·V_DD` instead of
//!   `V_DD`. ML energy per (dis)charge drops from `C·V_DD²` to `C·V_pre²`
//!   (quadratic in α) at the cost of a smaller sense margin and a slightly
//!   earlier/skewed sense. An NMOS precharge device with a boosted clock
//!   sets the low rail without a threshold drop.
//! * [`EaSlGated`] — the "2.25T" cell: four adjacent cells share one footer
//!   NMOS gated by a search-enable. With the discharge path gated, search
//!   lines no longer need to return to zero every cycle; SL energy becomes
//!   proportional to the *query toggle rate* instead of the query width
//!   (measured by `ftcam_workloads::ToggleStats`).
//! * [`EaMlSegmented`] — the ML is split into `k` segments evaluated
//!   hierarchically; a mismatch in an early segment terminates the search
//!   for that row, so the common case (almost every row mismatches almost
//!   every query) never spends energy on later segments.
//! * [`EaFull`] — low-swing + SL-gating combined (the headline design).

use ftcam_circuit::Circuit;
use ftcam_devices::TechCard;
use ftcam_workloads::Ternary;

use crate::design::{
    CellDesign, CellHandle, CellSite, DesignKind, DeviceCount, FooterStyle, RowFeatures,
};
use crate::designs::fefet2t::FeFet2T;
use crate::geometry::Geometry;

/// Low-swing match-line 2-FeFET design.
#[derive(Debug, Clone)]
pub struct EaLowSwing {
    alpha: f64,
}

impl EaLowSwing {
    /// Creates the design with precharge fraction `alpha` (`V_pre = α·V_DD`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.2 ≤ alpha ≤ 1.0`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.2..=1.0).contains(&alpha), "alpha out of range: {alpha}");
        Self { alpha }
    }

    /// The precharge fraction α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CellDesign for EaLowSwing {
    fn kind(&self) -> DesignKind {
        DesignKind::EaLowSwing
    }

    fn name(&self) -> &str {
        "EA-LS (low-swing ML)"
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
        let (fe1, fe2) = FeFet2T::build_pair(ckt, card, site, ["eals.fe1.", "eals.fe2."]);
        CellHandle {
            devices: vec![fe1, fe2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        FeFet2T::program_pair(ckt, handle, bit);
    }

    fn ml_precharge_voltage(&self, card: &TechCard) -> f64 {
        self.alpha * card.vdd
    }

    fn supports_transient_write(&self) -> bool {
        true
    }
}

/// Search-line-gated "2.25T" 2-FeFET design.
#[derive(Debug, Clone, Default)]
pub struct EaSlGated {
    _private: (),
}

impl EaSlGated {
    /// Creates the design.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CellDesign for EaSlGated {
    fn kind(&self) -> DesignKind {
        DesignKind::EaSlGated
    }

    fn name(&self) -> &str {
        "EA-SLG (SL-gated 2.25T)"
    }

    fn device_count(&self) -> DeviceCount {
        DeviceCount {
            fefet: 2.0,
            nmos: 0.25, // footer shared between four cells
            ..DeviceCount::default()
        }
    }

    fn area_f2(&self) -> f64 {
        285.0
    }

    fn features(&self) -> RowFeatures {
        RowFeatures {
            footer: FooterStyle::SharedPerGroup(4),
            segments: 1,
            sl_return_to_zero: false,
        }
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let (fe1, fe2) = FeFet2T::build_pair(ckt, card, site, ["easlg.fe1.", "easlg.fe2."]);
        CellHandle {
            devices: vec![fe1, fe2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        FeFet2T::program_pair(ckt, handle, bit);
    }

    fn supports_transient_write(&self) -> bool {
        true
    }
}

/// Segmented-match-line 2-FeFET design with early termination.
#[derive(Debug, Clone)]
pub struct EaMlSegmented {
    segments: usize,
}

impl EaMlSegmented {
    /// Creates the design with `segments` hierarchical ML segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        assert!(segments >= 1, "need at least one segment");
        Self { segments }
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segments
    }
}

impl CellDesign for EaMlSegmented {
    fn kind(&self) -> DesignKind {
        DesignKind::EaMlSegmented
    }

    fn name(&self) -> &str {
        "EA-MLS (segmented ML)"
    }

    fn device_count(&self) -> DeviceCount {
        DeviceCount {
            fefet: 2.0,
            // Per-segment precharge/sense overhead amortised per cell.
            pmos: 0.1,
            ..DeviceCount::default()
        }
    }

    fn area_f2(&self) -> f64 {
        280.0
    }

    fn features(&self) -> RowFeatures {
        RowFeatures {
            footer: FooterStyle::None,
            segments: self.segments,
            sl_return_to_zero: true,
        }
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let (fe1, fe2) = FeFet2T::build_pair(ckt, card, site, ["eamls.fe1.", "eamls.fe2."]);
        CellHandle {
            devices: vec![fe1, fe2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        FeFet2T::program_pair(ckt, handle, bit);
    }

    fn supports_transient_write(&self) -> bool {
        true
    }
}

/// The combined low-swing + SL-gated design (the paper's headline).
#[derive(Debug, Clone)]
pub struct EaFull {
    alpha: f64,
}

impl EaFull {
    /// Creates the design with precharge fraction `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.2 ≤ alpha ≤ 1.0`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.2..=1.0).contains(&alpha), "alpha out of range: {alpha}");
        Self { alpha }
    }

    /// The precharge fraction α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CellDesign for EaFull {
    fn kind(&self) -> DesignKind {
        DesignKind::EaFull
    }

    fn name(&self) -> &str {
        "EA-Full (low-swing + SL-gated)"
    }

    fn device_count(&self) -> DeviceCount {
        DeviceCount {
            fefet: 2.0,
            nmos: 0.25,
            ..DeviceCount::default()
        }
    }

    fn area_f2(&self) -> f64 {
        285.0
    }

    fn features(&self) -> RowFeatures {
        RowFeatures {
            footer: FooterStyle::SharedPerGroup(4),
            segments: 1,
            sl_return_to_zero: false,
        }
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let (fe1, fe2) = FeFet2T::build_pair(ckt, card, site, ["eafull.fe1.", "eafull.fe2."]);
        CellHandle {
            devices: vec![fe1, fe2],
            pins: Vec::new(),
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, _card: &TechCard, bit: Ternary) {
        FeFet2T::program_pair(ckt, handle, bit);
    }

    fn ml_precharge_voltage(&self, card: &TechCard) -> f64 {
        self.alpha * card.vdd
    }

    fn supports_transient_write(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_swing_scales_precharge_voltage() {
        let card = TechCard::hp45();
        let d = EaLowSwing::new(0.5);
        assert!((d.ml_precharge_voltage(&card) - 0.4).abs() < 1e-12);
        assert!((d.sense_threshold(&card) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn low_swing_rejects_tiny_alpha() {
        let _ = EaLowSwing::new(0.1);
    }

    #[test]
    fn slg_features_gate_search_lines() {
        let f = EaSlGated::new().features();
        assert_eq!(f.footer, FooterStyle::SharedPerGroup(4));
        assert!(!f.sl_return_to_zero);
    }

    #[test]
    fn segmented_reports_segments() {
        let d = EaMlSegmented::new(4);
        assert_eq!(d.features().segments, 4);
        assert_eq!(d.segments(), 4);
    }

    #[test]
    fn full_combines_both_techniques() {
        let card = TechCard::hp45();
        let d = EaFull::new(0.5);
        assert!(d.ml_precharge_voltage(&card) < card.vdd);
        assert!(!d.features().sl_return_to_zero);
    }
}
