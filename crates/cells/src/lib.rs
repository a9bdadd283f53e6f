//! TCAM cell designs and match-line row testbenches.
//!
//! This crate implements the *subject* of the paper: transistor-level TCAM
//! cell designs built on the `ftcam-circuit` simulator and the
//! `ftcam-devices` compact models, together with the testbench that
//! measures what the paper's evaluation reports — search delay, search
//! energy (broken down by match line, search lines and control), write
//! energy, and sense margin.
//!
//! # Designs
//!
//! | key | design | role |
//! |-----|--------|------|
//! | `cmos16t`  | 16T SRAM-based TCAM              | CMOS baseline |
//! | `rram2t2r` | 2-transistor / 2-resistor TCAM   | resistive-NVM baseline |
//! | `fefet2t`  | 2-FeFET TCAM                     | FeFET state of the art |
//! | `ea-ls`    | low-swing match line (proposed)  | quadratic ML-energy saving |
//! | `ea-slg`   | search-line-gated "2.5T" (proposed) | amortises SL energy |
//! | `ea-mls`   | segmented ML (proposed)          | early termination on mismatch |
//! | `ea-full`  | low-swing + SL-gating (proposed) | the headline design |
//!
//! All are NOR-type: the match line is precharged and any mismatching cell
//! discharges it.
//!
//! # Example
//!
//! ```no_run
//! use ftcam_cells::{DesignKind, RowTestbench, SearchTiming};
//! use ftcam_devices::TechCard;
//!
//! # fn main() -> Result<(), ftcam_cells::CellError> {
//! let mut row = RowTestbench::new(
//!     DesignKind::FeFet2T.instantiate(),
//!     TechCard::hp45(),
//!     Default::default(),
//!     16,
//! )?;
//! row.program_word(&"1010XX1010101010".parse().unwrap())?;
//! let hit = row.search(&"1010111010101010".parse().unwrap(), &SearchTiming::default())?;
//! assert!(hit.matched);
//! println!("search energy: {:.1} fJ", hit.energy_total * 1e15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arraytb;
mod design;
mod designs;
mod error;
mod fold;
mod geometry;
mod mcam;
mod row;
mod search;
mod testbench;
mod write;

pub use arraytb::{ArraySearchOutcome, ArrayTestbench};
pub use design::{
    CellDesign, CellHandle, CellSite, DesignKind, DeviceCount, FooterStyle, RowFeatures,
};
pub use designs::{Cmos16T, EaFull, EaLowSwing, EaMlSegmented, EaSlGated, FeFet2T, Rram2T2R};
pub use error::CellError;
pub use geometry::Geometry;
pub use mcam::{pack_word, LevelRange, McamEncoder, McamRow};
pub use row::{MlTrace, RowTestbench};
pub use search::{SearchOutcome, SearchTiming, StageOutcome};
pub use write::{WriteOutcome, WriteTiming};

// Solver knobs and statistics, re-exported so downstream crates can
// configure the solver without depending on `ftcam-circuit` directly.
pub use ftcam_circuit::{
    HotPath, NewtonSettings, RecoveryStats, SolverPerf, StepControl, StepStats,
};

// Fault-injection surface for chaos tests (see `ftcam_circuit::fault`).
#[cfg(feature = "fault-injection")]
pub use ftcam_circuit::fault::{FaultMode, FaultPlan};
