//! The 16T CMOS SRAM-based TCAM cell (industry baseline).
//!
//! Two 6T SRAM cells hold the ternary code `(D, D̄)`; a 4-transistor
//! NOR-style compare stack discharges the match line when the stored digit
//! mismatches the query:
//!
//! ```text
//!        ML ──┬─[M1 g=D̄]──(mid1)──[M2 g=SL]── GND
//!             └─[M3 g=D]──(mid2)──[M4 g=SL̄]── GND
//! ```
//!
//! Encoding: store `1` → `D=1, D̄=0`; store `0` → `D=0, D̄=1`; store `X` →
//! `D=D̄=0` (no pull-down path can activate).
//!
//! The *data* transistors sit on the ML side (statically driven gates next
//! to the match line): the intermediate node behind an enabled data
//! transistor precharges together with the ML, so a matching cell never
//! charge-shares the ML into a discharged stack — the standard ordering in
//! NOR-TCAM layouts. (With the search-line transistor on top, every match
//! would dump ~0.2 fF per cell of ML charge into the stack at evaluate
//! time, collapsing the sense margin of wide words.)
//!
//! Only the compare stack is instantiated transistor-level; the SRAM
//! internals are pinned rails (a bistable SRAM holds its nodes at the rails
//! with negligible search-mode energy), which is the standard testbench
//! simplification and keeps the dynamics identical. The 12 SRAM transistors
//! still count toward area and device inventory.

use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, Name};
use ftcam_devices::{Mosfet, TechCard};
use ftcam_workloads::Ternary;

use crate::design::{CellDesign, CellHandle, CellSite, DesignKind, DeviceCount};
use crate::geometry::Geometry;

/// The 16T CMOS TCAM cell design.
#[derive(Debug, Clone, Default)]
pub struct Cmos16T {
    _private: (),
}

impl Cmos16T {
    /// Creates the design.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(v_d, v_db)` rail levels encoding a stored digit.
    fn store_levels(bit: Ternary, vdd: f64) -> (f64, f64) {
        match bit {
            Ternary::One => (vdd, 0.0),
            Ternary::Zero => (0.0, vdd),
            Ternary::X => (0.0, 0.0),
        }
    }
}

impl CellDesign for Cmos16T {
    fn kind(&self) -> DesignKind {
        DesignKind::Cmos16T
    }

    fn name(&self) -> &str {
        "CMOS 16T"
    }

    fn device_count(&self) -> DeviceCount {
        DeviceCount {
            nmos: 12.0, // 8 SRAM + 4 compare
            pmos: 4.0,  // SRAM pull-ups
            fefet: 0.0,
            reram: 0.0,
        }
    }

    fn area_f2(&self) -> f64 {
        1600.0
    }

    fn build_cell(
        &self,
        ckt: &mut Circuit,
        card: &TechCard,
        _geometry: &Geometry,
        site: &CellSite,
    ) -> CellHandle {
        let i = site.index;
        let d = ckt.add_node(Name::indexed("d", i));
        let db = ckt.add_node(Name::indexed("db", i));
        let pin_d = ckt
            .pin(d, Name::indexed("D", i), Waveform::dc(0.0))
            .expect("fresh SRAM node");
        let pin_db = ckt
            .pin(db, Name::indexed("DB", i), Waveform::dc(0.0))
            .expect("fresh SRAM node");
        let mid1 = ckt.fresh_node(Name::indexed("c16.mid1.", i));
        let mid2 = ckt.fresh_node(Name::indexed("c16.mid2.", i));
        // Compare-stack devices are upsized: two series transistors at a
        // 0.8 V supply have little overdrive (the top device source-follows
        // to ~V_DD/2), so real 16T layouts use ~2-3x-width pulldowns —
        // which also raises SL/ML loading, part of the CMOS baseline's
        // energy cost.
        let n = card.nmos.scaled(2.5);
        ckt.add_labeled(
            Name::indexed("c16.m1.", i),
            Mosfet::new(n.clone(), site.ml, db, mid1),
        );
        ckt.add_labeled(
            Name::indexed("c16.m2.", i),
            Mosfet::new(n.clone(), mid1, site.sl, site.source_rail),
        );
        ckt.add_labeled(
            Name::indexed("c16.m3.", i),
            Mosfet::new(n.clone(), site.ml, d, mid2),
        );
        ckt.add_labeled(
            Name::indexed("c16.m4.", i),
            Mosfet::new(n, mid2, site.slb, site.source_rail),
        );
        CellHandle {
            devices: Vec::new(),
            pins: vec![pin_d, pin_db],
        }
    }

    fn program_cell(&self, ckt: &mut Circuit, handle: &CellHandle, card: &TechCard, bit: Ternary) {
        let (vd, vdb) = Self::store_levels(bit, card.vdd);
        ckt.set_pin_waveform(handle.pins[0], Waveform::dc(vd));
        ckt.set_pin_waveform(handle.pins[1], Waveform::dc(vdb));
    }

    fn sense_threshold(&self, card: &TechCard) -> f64 {
        // NOR-ML sensing is skewed high: a matching ML sits at V_DD and any
        // discharge means mismatch, so the reference sits just below the
        // rail. This compensates the slow 2-series stack discharge at wide
        // words (standard practice for SRAM-based NOR TCAM sense amps).
        0.7 * card.vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_levels_encode_ternary() {
        assert_eq!(Cmos16T::store_levels(Ternary::One, 0.8), (0.8, 0.0));
        assert_eq!(Cmos16T::store_levels(Ternary::Zero, 0.8), (0.0, 0.8));
        assert_eq!(Cmos16T::store_levels(Ternary::X, 0.8), (0.0, 0.0));
    }

    #[test]
    fn inventory_is_sixteen_transistors() {
        let d = Cmos16T::new();
        assert_eq!(d.device_count().total(), 16.0);
        assert!(d.area_f2() > 1000.0);
    }
}
