//! The [`CellDesign`] abstraction every TCAM cell implements.

use ftcam_circuit::{Circuit, DeviceId, NodeId, PinId};
use ftcam_devices::TechCard;
use ftcam_workloads::Ternary;

use crate::designs::{Cmos16T, EaFull, EaLowSwing, EaMlSegmented, EaSlGated, FeFet2T, Rram2T2R};
use crate::geometry::Geometry;

/// The nodes a cell connects to, handed to [`CellDesign::build_cell`].
#[derive(Debug, Clone, Copy)]
pub struct CellSite {
    /// Column index within the row.
    pub index: usize,
    /// The match-line segment this cell discharges.
    pub ml: NodeId,
    /// Search line (true side).
    pub sl: NodeId,
    /// Complement search line.
    pub slb: NodeId,
    /// The rail the cell's pull-down path returns to: ground for flat
    /// designs, a shared gated footer node for SL-gated designs.
    pub source_rail: NodeId,
}

/// Handles to the state-bearing parts of one built cell, used by
/// [`CellDesign::program_cell`].
#[derive(Debug, Clone, Default)]
pub struct CellHandle {
    /// State devices (FeFETs, ReRAMs) in design-defined order.
    pub devices: Vec<DeviceId>,
    /// Pinned internal nodes (SRAM true/complement) in design-defined order.
    pub pins: Vec<PinId>,
}

/// Device inventory of one cell; fractional counts express sharing (a footer
/// shared between four cells contributes 0.25).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceCount {
    /// NMOS transistors.
    pub nmos: f64,
    /// PMOS transistors.
    pub pmos: f64,
    /// FeFETs.
    pub fefet: f64,
    /// ReRAM elements.
    pub reram: f64,
}

impl DeviceCount {
    /// Total devices per cell.
    pub fn total(&self) -> f64 {
        self.nmos + self.pmos + self.fefet + self.reram
    }
}

/// How the row testbench should build pull-down return rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FooterStyle {
    /// Cells pull down directly to ground.
    None,
    /// Groups of `n` adjacent cells share one enable-gated footer NMOS
    /// (`n = 4` gives the "2.25T" arrangement of the SL-gated design; the
    /// group size trades enable-clock energy against discharge-path
    /// crowding).
    SharedPerGroup(usize),
}

/// Row-level behaviours a design requires from the testbench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowFeatures {
    /// Pull-down return rail construction.
    pub footer: FooterStyle,
    /// Number of match-line segments evaluated hierarchically (1 = flat).
    pub segments: usize,
    /// `true` when search lines return to zero between searches
    /// (conventional); `false` when they stay at the query levels
    /// (SL-gated designs, whose SL energy is workload-dependent).
    pub sl_return_to_zero: bool,
}

impl Default for RowFeatures {
    fn default() -> Self {
        Self {
            footer: FooterStyle::None,
            segments: 1,
            sl_return_to_zero: true,
        }
    }
}

/// A TCAM cell design: how to instantiate one cell, program it, and drive
/// its search lines. Implementations are stateless recipe objects; all
/// state lives in the built circuit.
pub trait CellDesign: std::fmt::Debug + Send + Sync {
    /// The design's identity.
    fn kind(&self) -> DesignKind;

    /// Short human-readable name (`"2-FeFET"`, `"EA-LS"`...).
    fn name(&self) -> &str;

    /// Per-cell device inventory.
    fn device_count(&self) -> DeviceCount;

    /// Estimated cell area in F² (layout-rule units).
    fn area_f2(&self) -> f64;

    /// Row-level behaviours the testbench must provide.
    fn features(&self) -> RowFeatures {
        RowFeatures::default()
    }

    /// Instantiates one cell into `ckt` at `site`.
    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle;

    /// Programs a built cell to store `bit` (ideal instant write).
    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, card: &TechCard, bit: Ternary);

    /// Search-line drive levels `(v_sl, v_slb)` encoding a query digit.
    fn sl_levels(&self, query: Ternary, card: &TechCard) -> (f64, f64) {
        let v = card.vdd;
        match query {
            Ternary::One => (v, 0.0),
            Ternary::Zero => (0.0, v),
            Ternary::X => (0.0, 0.0),
        }
    }

    /// Match-line precharge voltage (the low-swing knob).
    fn ml_precharge_voltage(&self, card: &TechCard) -> f64 {
        card.vdd
    }

    /// Sense-amplifier decision threshold on the match line.
    fn sense_threshold(&self, card: &TechCard) -> f64 {
        0.5 * self.ml_precharge_voltage(card)
    }

    /// `true` if the design stores state in non-volatile devices and
    /// supports transient write simulation.
    fn supports_transient_write(&self) -> bool {
        false
    }
}

/// Identifier for every design shipped with the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// 16T CMOS SRAM-based TCAM (baseline).
    Cmos16T,
    /// 2-transistor/2-resistor resistive TCAM (baseline).
    Rram2T2R,
    /// 2-FeFET TCAM (state-of-the-art baseline).
    FeFet2T,
    /// Proposed: low-swing match line.
    EaLowSwing,
    /// Proposed: search-line-gated "2.25T".
    EaSlGated,
    /// Proposed: segmented match line with early termination.
    EaMlSegmented,
    /// Proposed: low-swing + SL-gating combined.
    EaFull,
}

impl DesignKind {
    /// All designs in canonical report order.
    pub const ALL: [DesignKind; 7] = [
        DesignKind::Cmos16T,
        DesignKind::Rram2T2R,
        DesignKind::FeFet2T,
        DesignKind::EaLowSwing,
        DesignKind::EaSlGated,
        DesignKind::EaMlSegmented,
        DesignKind::EaFull,
    ];

    /// The stable key used in reports and on the command line.
    pub fn key(self) -> &'static str {
        match self {
            DesignKind::Cmos16T => "cmos16t",
            DesignKind::Rram2T2R => "rram2t2r",
            DesignKind::FeFet2T => "fefet2t",
            DesignKind::EaLowSwing => "ea-ls",
            DesignKind::EaSlGated => "ea-slg",
            DesignKind::EaMlSegmented => "ea-mls",
            DesignKind::EaFull => "ea-full",
        }
    }

    /// Parses a key produced by [`DesignKind::key`].
    pub fn from_key(key: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.key() == key)
    }

    /// Instantiates the design with its default parameters.
    pub fn instantiate(self) -> Box<dyn CellDesign> {
        match self {
            DesignKind::Cmos16T => Box::new(Cmos16T::new()),
            DesignKind::Rram2T2R => Box::new(Rram2T2R::new()),
            DesignKind::FeFet2T => Box::new(FeFet2T::new()),
            DesignKind::EaLowSwing => Box::new(EaLowSwing::new(0.5)),
            DesignKind::EaSlGated => Box::new(EaSlGated::new()),
            DesignKind::EaMlSegmented => Box::new(EaMlSegmented::new(4)),
            DesignKind::EaFull => Box::new(EaFull::new(0.5)),
        }
    }

    /// `true` for the designs proposed by the paper (as opposed to
    /// baselines).
    pub fn is_proposed(self) -> bool {
        matches!(
            self,
            DesignKind::EaLowSwing
                | DesignKind::EaSlGated
                | DesignKind::EaMlSegmented
                | DesignKind::EaFull
        )
    }
}

impl std::fmt::Display for DesignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for kind in DesignKind::ALL {
            assert_eq!(DesignKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(DesignKind::from_key("nope"), None);
    }

    #[test]
    fn instantiation_matches_kind() {
        for kind in DesignKind::ALL {
            let d = kind.instantiate();
            assert_eq!(d.kind(), kind);
            assert!(d.device_count().total() > 0.0);
            assert!(d.area_f2() > 0.0);
        }
    }

    #[test]
    fn proposed_designs_are_flagged() {
        assert!(!DesignKind::Cmos16T.is_proposed());
        assert!(!DesignKind::FeFet2T.is_proposed());
        assert!(DesignKind::EaFull.is_proposed());
    }

    #[test]
    fn default_sl_levels_encode_query() {
        let card = TechCard::hp45();
        let d = DesignKind::FeFet2T.instantiate();
        assert_eq!(d.sl_levels(Ternary::One, &card), (card.vdd, 0.0));
        assert_eq!(d.sl_levels(Ternary::Zero, &card), (0.0, card.vdd));
        assert_eq!(d.sl_levels(Ternary::X, &card), (0.0, 0.0));
    }
}
