//! `ftcam-engine` — a calibrated bit-parallel TCAM search engine for
//! workload-scale replay.
//!
//! The golden model in `ftcam-workloads` answers one query by walking every
//! row digit-by-digit — perfect for correctness, hopeless for replaying
//! millions of queries against hundred-thousand-row tables. This crate
//! stores ternary words in a bit-plane layout ([`BitPlaneTable`]: two `u64`
//! planes per 64 rows per column) so priority match, longest-prefix match,
//! match counting, mismatch histograms and nearest-Hamming queries run as
//! branch-free column sweeps, optionally accelerated by a prefix-stride
//! bucket index ([`PrefixIndex`]).
//!
//! Every replayed query is metered by a [`CostModel`] exported from the
//! same circuit calibration the array-level experiments use
//! (`ftcam_array::CalibrationCache` → [`CostModel::from_calibration`]), so
//! engine fJ/query agrees with the fig. 6 row-energy curves and fig. 9
//! workload numbers — the agreement is tested, not assumed
//! (`tests/calibration_agreement.rs`).
//!
//! Replay runs serially through [`TcamEngine::session`] or sharded through
//! [`pipeline::replay`], which fans per-shard scans out over the
//! `ftcam-core` executor while keeping the accumulated [`EngineStats`]
//! bit-identical for every thread count.
//!
//! # Example
//!
//! ```no_run
//! use ftcam_core::Evaluator;
//! use ftcam_engine::{EngineConfig, WorkloadReplay};
//! use ftcam_workloads::IpRoutingWorkloadParams;
//!
//! # fn main() -> Result<(), ftcam_cells::CellError> {
//! let eval = Evaluator::quick();
//! let replay = WorkloadReplay::ip_routing(&IpRoutingWorkloadParams::default());
//! let engine = replay
//!     .engine(EngineConfig::default())
//!     .with_design(&eval.calibrations().get(ftcam_cells::DesignKind::EaFull, 32)?);
//! let mut session = engine.session();
//! session.replay(&replay.queries(0..256));
//! let stats = session.finish();
//! println!(
//!     "{:.2} pJ/query",
//!     stats.pj_per_query(ftcam_cells::DesignKind::EaFull).unwrap_or(f64::NAN)
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod engine;
pub mod experiments;
mod index;
pub mod pipeline;
mod query;
mod replay;
mod table;

pub use cost::{CostModel, Metering};
pub use engine::{
    DesignStats, EngineConfig, EngineStats, ReplaySession, TcamEngine, MATCH_HIST_BUCKETS,
};
pub use index::{PrefixIndex, MAX_EXPAND_BITS};
pub use replay::{AnySource, WorkloadReplay};
pub use table::{BitPlaneTable, BLOCK_ROWS};
