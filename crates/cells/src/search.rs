//! Search-operation timing and measurement types.

use ftcam_circuit::StepControl;

/// Clocking of one search cycle.
///
/// A cycle is `[precharge | evaluate]`; the testbench simulates **two**
/// consecutive cycles with the same query and reports the second, so the
/// precharge energy reflects the steady-state ML condition (a matching row's
/// ML is still high and recharges almost for free; a mismatching row pays
/// the full `C·V_pre²`).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTiming {
    /// Precharge phase duration (seconds).
    pub t_precharge: f64,
    /// Evaluate phase duration (seconds).
    pub t_eval: f64,
    /// Driver edge time (seconds).
    pub edge: f64,
    /// Base simulation step (seconds).
    pub dt: f64,
    /// Sense instant, measured from the start of the evaluate phase.
    pub sense_offset: f64,
    /// Transient step-control policy. [`StepControl::Fixed`] reproduces the
    /// historical fixed-`dt` behaviour; [`StepControl::Adaptive`] lets the
    /// solver grow the step across flat waveform regions under truncation
    /// error control, with `dt` as the base (and post-breakpoint) step.
    pub step: StepControl,
}

impl Default for SearchTiming {
    fn default() -> Self {
        Self {
            t_precharge: 0.6e-9,
            t_eval: 1.4e-9,
            edge: 40e-12,
            dt: 20e-12,
            sense_offset: 0.6e-9,
            step: StepControl::Fixed,
        }
    }
}

impl SearchTiming {
    /// One full cycle duration.
    pub fn cycle(&self) -> f64 {
        self.t_precharge + self.t_eval
    }

    /// A faster clock for quick functional checks (coarser step).
    pub fn fast() -> Self {
        Self {
            t_precharge: 0.5e-9,
            t_eval: 1.0e-9,
            edge: 50e-12,
            dt: 25e-12,
            sense_offset: 0.4e-9,
            step: StepControl::Fixed,
        }
    }

    /// A slow clock for near-threshold operation (the analog multi-level
    /// CAM extension, whose mismatch overdrives are tens of millivolts and
    /// discharge currents microamps).
    pub fn relaxed() -> Self {
        Self {
            t_precharge: 0.8e-9,
            t_eval: 5.0e-9,
            edge: 60e-12,
            dt: 40e-12,
            sense_offset: 4.0e-9,
            step: StepControl::Fixed,
        }
    }

    /// Sets the transient step-control policy used by the testbenches.
    #[must_use]
    pub fn with_step_control(mut self, step: StepControl) -> Self {
        self.step = step;
        self
    }
}

/// Measurement of one evaluated match-line segment (stage).
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome {
    /// Segment index.
    pub segment: usize,
    /// Whether this segment matched.
    pub matched: bool,
    /// ML voltage at the sense instant (volts).
    pub ml_at_sense: f64,
    /// Stage latency: precharge + (threshold crossing for a mismatch, or
    /// the clocked sense offset for a match), seconds.
    pub latency: f64,
    /// Total supply energy of this stage (joules, steady-state cycle).
    pub energy: f64,
}

/// Result of one row search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Whether every evaluated segment matched (the row match result).
    pub matched: bool,
    /// Total search latency across the evaluated stages (seconds).
    pub latency: f64,
    /// Total supply energy (joules).
    pub energy_total: f64,
    /// Match-line energy: precharge rail(s) (joules).
    pub energy_ml: f64,
    /// Search-line driver energy (joules).
    pub energy_sl: f64,
    /// Control energy: precharge clocks, enables, clamps (joules).
    pub energy_ctrl: f64,
    /// The sense threshold used (volts).
    pub sense_threshold: f64,
    /// Sense margin: distance of the ML from the threshold at the sense
    /// instant, signed so that positive = correct decision with room to
    /// spare (minimum across evaluated stages).
    pub sense_margin: f64,
    /// Per-stage details (one entry for flat designs).
    pub stages: Vec<StageOutcome>,
}

impl SearchOutcome {
    /// Energy per bit per search (joules), the paper's headline metric.
    pub fn energy_per_bit(&self, width: usize) -> f64 {
        self.energy_total / width as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_sums_phases() {
        let t = SearchTiming::default();
        assert!((t.cycle() - 2.0e-9).abs() < 1e-15);
    }

    #[test]
    fn energy_per_bit_divides() {
        let o = SearchOutcome {
            matched: true,
            latency: 1e-9,
            energy_total: 64e-15,
            energy_ml: 0.0,
            energy_sl: 0.0,
            energy_ctrl: 0.0,
            sense_threshold: 0.4,
            sense_margin: 0.1,
            stages: Vec::new(),
        };
        assert!((o.energy_per_bit(64) - 1e-15).abs() < 1e-24);
    }
}
