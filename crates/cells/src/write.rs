//! Write-operation timing and measurement types.

use ftcam_circuit::StepControl;

/// Pulse scheme for a transient FeFET word write.
///
/// The scheme is erase-before-program: one erase pulse of `−V_prog` on every
/// search line drives all FeFETs to the high-V_th state, then a program
/// pulse of `+V_prog` on the selected line of each cell sets the low-V_th
/// device (none for a stored `X`). Match lines are clamped to ground by the
/// write-enable device during both phases.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteTiming {
    /// Erase pulse width (seconds).
    pub erase_width: f64,
    /// Program pulse width (seconds).
    pub program_width: f64,
    /// Pulse edge time (seconds).
    pub edge: f64,
    /// Quiet gap between the phases (seconds).
    pub gap: f64,
    /// Simulation step (seconds).
    pub dt: f64,
    /// Pulse amplitude override; `None` uses the card's `vprog`.
    pub amplitude: Option<f64>,
    /// Transient step-control policy (see [`SearchTiming::step`]).
    ///
    /// [`SearchTiming::step`]: crate::SearchTiming::step
    pub step: StepControl,
}

impl Default for WriteTiming {
    fn default() -> Self {
        Self {
            erase_width: 30e-9,
            program_width: 30e-9,
            edge: 0.5e-9,
            gap: 2e-9,
            dt: 0.25e-9,
            amplitude: None,
            step: StepControl::Fixed,
        }
    }
}

impl WriteTiming {
    /// Total write latency: erase + gap + program (+ settle edges).
    pub fn latency(&self) -> f64 {
        self.erase_width + self.gap + self.program_width + 4.0 * self.edge
    }

    /// Sets the transient step-control policy used by the testbenches.
    #[must_use]
    pub fn with_step_control(mut self, step: StepControl) -> Self {
        self.step = step;
        self
    }
}

/// Result of one transient word write.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOutcome {
    /// Total energy drawn from all drivers during the write (joules).
    pub energy_total: f64,
    /// Portion attributable to ferroelectric switching charge (joules).
    pub energy_switching: f64,
    /// Write latency (seconds).
    pub latency: f64,
    /// `true` if every FeFET reached the polarization sign its target state
    /// requires (|p| > 0.8 with the right sign).
    pub programmed_ok: bool,
    /// Final normalised polarization of every FeFET, in cell order
    /// (2 per cell).
    pub polarizations: Vec<f64>,
}

impl WriteOutcome {
    /// Energy per written bit (joules).
    pub fn energy_per_bit(&self, width: usize) -> f64 {
        self.energy_total / width as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sums_phases() {
        let t = WriteTiming::default();
        assert!((t.latency() - 64e-9).abs() < 1e-12);
    }
}
