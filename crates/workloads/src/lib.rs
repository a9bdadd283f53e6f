//! Ternary data types, a functional TCAM golden model, and workload
//! generators for the `ftcam` evaluation.
//!
//! This crate is deliberately free of circuit-level dependencies: it models
//! *what* a TCAM computes (ternary matching, priority resolution,
//! longest-prefix match) and generates the query/content statistics the
//! energy evaluation needs (mismatch-count distributions, search-line toggle
//! rates), while the electrical behaviour lives in `ftcam-cells` and
//! `ftcam-array`.
//!
//! A [`TernaryWord`] stores each digit as two bits, like a TCAM cell:
//! digit `j` (most significant first) is bit `j % 64` of the `[care,
//! pattern]` mask word `j / 64` ([`TernaryWord::masks`]), `care` set where
//! the digit is definite and `pattern` where it is `1`. Up to 64 digits
//! fit inline with no heap allocation. The golden model and the
//! statistics are mask arithmetic, and `ftcam-engine` reads the same masks.
//!
//! # Example
//!
//! ```
//! use ftcam_workloads::{TcamTable, TernaryWord};
//!
//! let mut table = TcamTable::new(8);
//! table.push("1010XXXX".parse()?);
//! table.push("10100000".parse()?);
//! let hit = table.search(&TernaryWord::from_bits(0b1010_0000, 8));
//! assert_eq!(hit, Some(0)); // lowest index wins (priority order)
//! # Ok::<(), ftcam_workloads::ParseTernaryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hdc;
mod ip_routing;
mod model;
mod packet;
mod stats;
pub mod stream;
mod ternary;

pub use hdc::{HdcQuerySource, HdcWorkload, HdcWorkloadParams};
pub use ip_routing::{IpRoutingQuerySource, IpRoutingWorkload, IpRoutingWorkloadParams};
pub use model::TcamTable;
pub use packet::{PacketClassifierParams, PacketClassifierWorkload, PacketQuerySource};
pub use stats::{MismatchHistogram, ToggleStats};
pub use stream::{derive_seed, QuerySource, QueryStream};
pub use ternary::{Digits, ParseTernaryError, Ternary, TernaryWord};

/// A generated workload: table content plus a query stream.
///
/// All generators produce this shape so the evaluation framework can treat
/// them uniformly.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable workload name (appears in reports).
    pub name: String,
    /// The TCAM content.
    pub table: TcamTable,
    /// The query stream, in arrival order.
    pub queries: Vec<TernaryWord>,
}

impl Workload {
    /// Mismatch histogram over every (query, row) pair — the statistic the
    /// match-line energy model consumes.
    pub fn mismatch_histogram(&self) -> MismatchHistogram {
        let mut h = MismatchHistogram::new(self.table.width());
        for q in &self.queries {
            for row in self.table.rows() {
                h.record(row.mismatch_count(q));
            }
        }
        h
    }

    /// Search-line toggle statistics over the query stream — the statistic
    /// the SL-gating energy model consumes.
    pub fn toggle_stats(&self) -> ToggleStats {
        ToggleStats::from_queries(&self.queries)
    }
}
