//! Error type for netlist construction and analysis.

use crate::node::NodeId;

/// Errors returned by netlist construction and circuit analyses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A node id did not belong to this circuit.
    UnknownNode(NodeId),
    /// A node name was not found when looking up a probe or pin.
    UnknownNodeName(String),
    /// The node is already driven by a pinned source.
    NodeAlreadyPinned(NodeId),
    /// Attempted to pin the ground node to a non-zero waveform.
    CannotPinGround,
    /// Newton–Raphson failed to converge.
    NewtonDiverged {
        /// Simulation time at which convergence failed (seconds); `0.0` for DC.
        time: f64,
        /// Number of iterations attempted.
        iterations: usize,
    },
    /// The linear system was singular (a floating node or a loop of
    /// voltage sources), or a pivot was too small for the no-pivot LU.
    SingularMatrix {
        /// Row/column index at which elimination broke down.
        pivot: usize,
    },
    /// The Newton update produced a NaN or infinite entry (poisoned device
    /// stamp, overflowing exponential, ...). Detected structurally so the
    /// iteration fails fast instead of churning on garbage to `max_iters`.
    NonFiniteSolution {
        /// Simulation time at which the update went non-finite (seconds);
        /// `0.0` for DC.
        time: f64,
        /// Newton iteration index at which the non-finite entry appeared.
        iteration: usize,
    },
    /// The transient step size under-flowed while trying to recover from a
    /// Newton failure.
    StepSizeUnderflow {
        /// Simulation time at which the step collapsed (seconds).
        time: f64,
        /// The step size that was rejected (seconds).
        dt: f64,
    },
    /// An analysis option was invalid (non-positive step, empty window, ...).
    InvalidOption(String),
    /// A requested trace was never probed.
    UnknownTrace(String),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownNode(n) => write!(f, "node {n:?} does not belong to this circuit"),
            Self::UnknownNodeName(name) => write!(f, "no node named `{name}`"),
            Self::NodeAlreadyPinned(n) => write!(f, "node {n:?} is already pinned to a source"),
            Self::CannotPinGround => write!(f, "the ground node cannot be pinned"),
            Self::NewtonDiverged { time, iterations } => write!(
                f,
                "newton iteration failed to converge at t = {time:.3e} s after {iterations} iterations"
            ),
            Self::SingularMatrix { pivot } => write!(
                f,
                "singular MNA matrix at pivot {pivot} (floating node or disconnected subcircuit)"
            ),
            Self::NonFiniteSolution { time, iteration } => write!(
                f,
                "non-finite newton update at t = {time:.3e} s (iteration {iteration})"
            ),
            Self::StepSizeUnderflow { time, dt } => write!(
                f,
                "transient step size underflow at t = {time:.3e} s (dt = {dt:.3e} s)"
            ),
            Self::InvalidOption(msg) => write!(f, "invalid analysis option: {msg}"),
            Self::UnknownTrace(name) => write!(f, "no probed trace named `{name}`"),
        }
    }
}

impl std::error::Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = CircuitError::NewtonDiverged {
            time: 1e-9,
            iterations: 50,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("newton"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
