//! Quickstart: build one TCAM word at transistor level, program a ternary
//! pattern, and run match / mismatch searches with full energy breakdown.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ftcam::cells::{DesignKind, RowTestbench, SearchTiming};
use ftcam::devices::TechCard;
use ftcam::workloads::TernaryWord;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 16;
    let stored: TernaryWord = "10X1011010X10110".parse()?;
    let hit: TernaryWord = "1011011010110110".parse()?;
    let miss = hit.with_spread_mismatches(3);

    println!("stored word : {stored}");
    println!("hit query   : {hit}");
    println!("miss query  : {miss}\n");

    let timing = SearchTiming::default();
    for kind in [DesignKind::Cmos16T, DesignKind::FeFet2T, DesignKind::EaFull] {
        let mut row = RowTestbench::new(
            kind.instantiate(),
            TechCard::hp45(),
            Default::default(),
            width,
        )?;
        row.program_word(&stored)?;

        let h = row.search(&hit, &timing)?;
        let m = row.search(&miss, &timing)?;
        assert_eq!(h.matched, row.golden_matches(&hit));
        assert_eq!(m.matched, row.golden_matches(&miss));

        println!("== {} ({}) ==", row.design().name(), kind.key());
        println!(
            "  match    : decided {:>5}, latency {:.1} ps, energy {:.2} fJ",
            h.matched,
            h.latency * 1e12,
            h.energy_total * 1e15,
        );
        println!(
            "  mismatch : decided {:>5}, latency {:.1} ps, energy {:.2} fJ",
            m.matched,
            m.latency * 1e12,
            m.energy_total * 1e15,
        );
        println!(
            "  breakdown (mismatch): ML {:.2} fJ, SL {:.2} fJ, ctrl {:.2} fJ\n",
            m.energy_ml * 1e15,
            m.energy_sl * 1e15,
            m.energy_ctrl * 1e15,
        );
    }
    Ok(())
}
