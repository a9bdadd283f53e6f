//! # ftcam — energy-aware ferroelectric TCAM designs
//!
//! A from-scratch Rust reproduction of *"Energy-Aware Designs of
//! Ferroelectric Ternary Content Addressable Memory"* (DATE 2021),
//! including the entire analog substrate the evaluation needs: an MNA
//! transient circuit simulator, FeFET/MOSFET/ReRAM compact models,
//! transistor-level TCAM cell designs, array-level projection models,
//! workload generators, and the experiment harness that regenerates every
//! table and figure.
//!
//! This facade crate re-exports the workspace layers under stable paths:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`circuit`]   | `ftcam-circuit`   | the MNA simulator |
//! | [`devices`]   | `ftcam-devices`   | MOSFET / FeFET / ReRAM models |
//! | [`cells`]     | `ftcam-cells`     | TCAM cell designs + row testbench |
//! | [`array`](mod@array) | `ftcam-array` | array models + Monte Carlo |
//! | [`workloads`] | `ftcam-workloads` | ternary data + workload generators |
//! | [`core`]      | `ftcam-core`      | evaluator + experiment drivers |
//! | [`engine`](mod@engine) | `ftcam-engine` | calibrated bit-parallel search engine |
//!
//! # Quickstart
//!
//! ```
//! use ftcam::cells::{DesignKind, RowTestbench, SearchTiming};
//! use ftcam::devices::TechCard;
//!
//! # fn main() -> Result<(), ftcam::cells::CellError> {
//! // Build an 8-bit 2-FeFET TCAM word, store a ternary pattern, search it.
//! let mut row = RowTestbench::new(
//!     DesignKind::FeFet2T.instantiate(),
//!     TechCard::hp45(),
//!     Default::default(),
//!     8,
//! )?;
//! row.program_word(&"10X1011X".parse().unwrap())?;
//! let outcome = row.search(&"1011011X".parse().unwrap(), &SearchTiming::fast())?;
//! assert!(outcome.matched);
//! println!("search energy: {:.2} fJ", outcome.energy_total * 1e15);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftcam_array as array;
pub use ftcam_cells as cells;
pub use ftcam_circuit as circuit;
pub use ftcam_core as core;
pub use ftcam_devices as devices;
pub use ftcam_engine as engine;
pub use ftcam_workloads as workloads;
