//! A modified-nodal-analysis (MNA) nonlinear transient circuit simulator.
//!
//! This crate is the SPICE substitute for the `ftcam` project: the original
//! paper evaluates ferroelectric TCAM designs with proprietary SPICE decks
//! and foundry device models, neither of which exist in the Rust ecosystem,
//! so the analog substrate is built here from scratch.
//!
//! # Capabilities
//!
//! * **Netlist construction** — named nodes, two-terminal and multi-terminal
//!   devices implementing the [`Device`] trait, and *pinned* ideal sources
//!   (supply rails, drivers) whose nodes are eliminated from the unknown
//!   vector for speed and robustness.
//! * **DC operating point** — Newton–Raphson with `gmin` stepping.
//! * **Transient analysis** — backward-Euler (default) or trapezoidal
//!   integration with breakpoint alignment on source edges and a recovery
//!   ladder (escalated `gmin`, damped Newton, step halving) when Newton
//!   fails to converge. Stepping is fixed-step by
//!   default or truncation-error controlled
//!   ([`analysis::StepControl::Adaptive`]), which grows the step across
//!   flat waveform regions and shrinks it on fast edges.
//! * **Measurement** — voltage probes on any node and energy accounting
//!   (∫V·I dt per supply, over the whole run or a time window), which is
//!   the core observable of the TCAM evaluation.
//!
//! # Example: RC discharge
//!
//! ```
//! use ftcam_circuit::{Circuit, analysis::{Transient, TransientOpts}};
//! use ftcam_circuit::elements::{Resistor, Capacitor};
//!
//! # fn main() -> Result<(), ftcam_circuit::CircuitError> {
//! let mut ckt = Circuit::new();
//! let n1 = ckt.node("cap_top");
//! ckt.add(Resistor::new(n1, ckt.ground(), 1e3));          // 1 kΩ to ground
//! ckt.add(Capacitor::with_initial_voltage(n1, ckt.ground(), 1e-12, 1.0));
//! let opts = TransientOpts::new(1e-11, 5e-9).use_initial_conditions();
//! let result = Transient::new(opts).run(&mut ckt)?;
//! let v_end = result.trace("cap_top")?.last_value();
//! // After 5τ (τ = RC = 1 ns) the cap has discharged to ~0.7% of 1 V.
//! assert!(v_end < 0.02);
//! # Ok(())
//! # }
//! ```
//!
//! # Design notes
//!
//! TCAM testbenches pin all drivers and supplies, leaving at most a few
//! hundred unknowns, with about four nonzeros per matrix row. Every
//! system, whatever its size, stamps sparse slots factored by a no-pivot
//! sparse LU with one-time symbolic factorisation. Its ordering eliminates
//! voltage-source branch rows after their nodes, so with a `gmin` shunt
//! on every node no pivot is zero unless the sources form a loop; a
//! rejected pivot is a [`CircuitError::SingularMatrix`] for the analysis's
//! recovery ([`linalg::SystemMatrix`]). The Newton loop stamps
//! each time point's fixed part once and restamps only what moves with
//! the iterate ([`HotPath`], [`Device::stamp_companions`]); at an
//! unchanged `(dt, method, gmin)` it restores the fixed part's matrix and
//! stamps only its right-hand side. After each accepted step only the
//! devices with a terminal on a pinned source are evaluated again, to
//! meter the sources ([`Device::terminals`]); the KCL figure is the
//! residual of the last Newton load. See `DESIGN.md` §5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod circuit;
mod device;
pub mod elements;
mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod linalg;
mod node;
mod probe;
mod spice;
mod stamp;
pub mod waveform;

pub use analysis::{HotPath, NewtonSettings, StepControl};
pub use circuit::{Circuit, PinId};
pub use device::{Device, DeviceId, StampClass};
pub use error::CircuitError;
pub use node::NodeId;
pub use probe::{
    global_recovery_stats, global_solver_stats, global_step_stats, Edge, RecoveryStats, SolverPerf,
    StepStats, Trace, TransientResult,
};
pub(crate) use spice::spice_waveform;
pub use spice::{export_spice, format_spice_number};
pub use stamp::{CommitCtx, IntegrationMethod, StampCtx};
