//! Variation Monte Carlo on the transistor-level row testbench.
//!
//! FeFET threshold voltage varies strongly device-to-device (domain
//! granularity dominates; published σ(V_th) is 40–80 mV at this device
//! size). Each sample rebuilds the row, programs a reference word, applies
//! independent Gaussian V_th shifts to every FeFET, then measures the sense
//! margin of a full match and of a single-bit mismatch — the worst-case
//! pair that brackets a search failure.
//!
//! # Partial results
//!
//! Extreme σ(V_th) sweeps deliberately push the solver into regimes where
//! some samples diverge. A diverging (or even panicking) sample must not
//! cost the other N−1, so every sample is its own call of
//! [`VariationPoint::sample`]: the caller runs them (the `ftcam-core` fig7
//! driver makes each one an executor job, which confines a panic to its
//! sample) and [`McResult::from_outcomes`] reports failures per sample in
//! [`McResult::solver_failures`], *distinct* from decision failures (a
//! converged sample whose search decided wrongly). Margin vectors hold the
//! surviving samples only, in sample order, so results stay bit-identical
//! however the samples were scheduled.

use ftcam_cells::{CellError, DesignKind, Geometry, NewtonSettings, RowTestbench, SearchTiming};
use ftcam_devices::TechCard;
use ftcam_workloads::{Ternary, TernaryWord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationParams {
    /// Standard deviation of the per-FeFET threshold shift (volts).
    pub sigma_vth: f64,
    /// Number of samples.
    pub samples: usize,
    /// RNG seed (deterministic across runs and thread counts).
    pub seed: u64,
}

impl Default for VariationParams {
    fn default() -> Self {
        Self {
            sigma_vth: 0.05,
            samples: 200,
            seed: 0x5eed_f00d,
        }
    }
}

/// A sample that produced no decision: the transistor-level solve failed
/// (divergence, step underflow) or the sample panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McSolverFailure {
    /// Zero-based sample index (stable across thread counts).
    pub sample: usize,
    /// The rendered error or panic message.
    pub error: String,
}

/// Monte-Carlo outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    /// Sense margins of the full-match searches (volts), surviving samples
    /// only, in sample order.
    pub match_margins: Vec<f64>,
    /// Sense margins of the 1-bit-mismatch searches (volts), aligned with
    /// `match_margins`.
    pub mismatch_margins: Vec<f64>,
    /// Surviving samples where either search decision was wrong.
    pub failures: usize,
    /// Total samples attempted (survivors + solver failures).
    pub samples: usize,
    /// Samples lost to solver failures or panics, by index.
    pub solver_failures: Vec<McSolverFailure>,
}

impl McResult {
    /// Assembles per-sample outcomes, given in sample order: a sample's
    /// rendered error (solver failure or panic) becomes an indexed
    /// [`McSolverFailure`], and every other sample contributes its margin
    /// pair.
    pub fn from_outcomes(outcomes: impl IntoIterator<Item = Result<McSample, String>>) -> Self {
        let mut r = Self {
            match_margins: Vec::new(),
            mismatch_margins: Vec::new(),
            failures: 0,
            samples: 0,
            solver_failures: Vec::new(),
        };
        for (sample, outcome) in outcomes.into_iter().enumerate() {
            r.samples += 1;
            match outcome {
                Ok(m) => {
                    r.match_margins.push(m.match_margin);
                    r.mismatch_margins.push(m.mismatch_margin);
                    r.failures += usize::from(m.decision_failed);
                }
                Err(error) => r.solver_failures.push(McSolverFailure { sample, error }),
            }
        }
        r
    }

    /// Samples that produced a decision (attempted minus solver failures).
    pub fn evaluated(&self) -> usize {
        self.samples - self.solver_failures.len()
    }

    /// Search failure rate among evaluated samples, in `[0, 1]`; 0 when
    /// none was evaluated, so callers check [`McResult::evaluated`] first.
    pub fn failure_rate(&self) -> f64 {
        if self.evaluated() == 0 {
            return 0.0;
        }
        self.failures as f64 / self.evaluated() as f64
    }

    /// Mean of the worst (minimum) per-sample margin over evaluated
    /// samples; 0 when none was evaluated.
    pub fn mean_worst_margin(&self) -> f64 {
        if self.evaluated() == 0 {
            return 0.0;
        }
        self.match_margins
            .iter()
            .zip(&self.mismatch_margins)
            .map(|(a, b)| a.min(*b))
            .sum::<f64>()
            / self.evaluated() as f64
    }

    /// Mean and standard deviation of the match margins.
    pub fn match_margin_stats(&self) -> (f64, f64) {
        mean_std(&self.match_margins)
    }

    /// Mean and standard deviation of the mismatch margins.
    pub fn mismatch_margin_stats(&self) -> (f64, f64) {
        mean_std(&self.mismatch_margins)
    }
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Standard-normal sample via Box–Muller (avoids a `rand_distr` dependency).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// One evaluated sample: the sense margins of its full-match and
/// 1-bit-mismatch searches (volts, negative when that search decided
/// wrongly) and whether either decision was wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSample {
    /// Sense margin of the full-match search.
    pub match_margin: f64,
    /// Sense margin of the 1-bit-mismatch search.
    pub mismatch_margin: f64,
    /// Either search decided wrongly.
    pub decision_failed: bool,
}

/// One Monte-Carlo point: a FeFET design at one σ(V_th), with the stored
/// word and its 1-bit-mismatch query built once for every sample.
///
/// Samples are independent calls of [`VariationPoint::sample`], so the
/// caller decides how to schedule them; [`McResult::from_outcomes`]
/// assembles the outcomes in sample order.
#[derive(Debug, Clone)]
pub struct VariationPoint {
    kind: DesignKind,
    card: TechCard,
    geometry: Geometry,
    timing: SearchTiming,
    params: VariationParams,
    stored: TernaryWord,
    miss: TernaryWord,
}

impl VariationPoint {
    /// Checks the design and builds the point's search words.
    ///
    /// # Errors
    ///
    /// * [`CellError::UnsupportedOperation`] for designs without FeFET
    ///   threshold knobs (the volatile baselines);
    /// * [`CellError::InvalidParameter`] for a zero width.
    pub fn new(
        kind: DesignKind,
        card: &TechCard,
        geometry: &Geometry,
        timing: &SearchTiming,
        width: usize,
        params: VariationParams,
    ) -> Result<Self, CellError> {
        if !kind.instantiate().supports_transient_write() {
            return Err(CellError::UnsupportedOperation(format!(
                "variation MC needs FeFET threshold knobs; {} has none",
                kind.key()
            )));
        }
        if width == 0 {
            return Err(CellError::InvalidParameter("width must be positive".into()));
        }
        let stored: TernaryWord = (0..width)
            .map(|i| {
                if i % 2 == 0 {
                    Ternary::One
                } else {
                    Ternary::Zero
                }
            })
            .collect();
        let miss = {
            // Flip the last digit so segmented designs exercise their final
            // (worst-margin) stage too.
            let mut q = stored.clone();
            q.set(width - 1, q.get(width - 1).complement());
            q
        };
        Ok(Self {
            kind,
            card: card.clone(),
            geometry: geometry.clone(),
            timing: timing.clone(),
            params,
            stored,
            miss,
        })
    }

    /// Number of samples the point's parameters ask for.
    pub fn samples(&self) -> usize {
        self.params.samples
    }

    /// Runs sample `s`: rebuilds the row, programs the stored word, shifts
    /// every FeFET threshold by its Gaussian draw and searches the stored
    /// word and the 1-bit miss. Sample `s` draws from its own RNG stream,
    /// so its outcome does not depend on which other samples ran.
    ///
    /// # Errors
    ///
    /// Propagates row construction and simulation failures.
    pub fn sample(&self, s: usize, newton: NewtonSettings) -> Result<McSample, CellError> {
        let width = self.stored.width();
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.params.seed ^ (s as u64).wrapping_mul(0x9e37_79b9));
        let mut row = RowTestbench::new(
            self.kind.instantiate(),
            self.card.clone(),
            self.geometry.clone(),
            width,
        )?;
        row.set_newton_settings(newton);
        row.program_word(&self.stored)?;
        let deltas: Vec<f64> = (0..2 * width)
            .map(|_| self.params.sigma_vth * gaussian(&mut rng))
            .collect();
        row.apply_fefet_vth_shift(&deltas);

        let hit = row.search(&self.stored, &self.timing)?;
        let missr = row.search(&self.miss, &self.timing)?;
        Ok(McSample {
            match_margin: if hit.matched {
                hit.sense_margin
            } else {
                -hit.sense_margin
            },
            mismatch_margin: if missr.matched {
                -missr.sense_margin
            } else {
                missr.sense_margin
            },
            decision_failed: !hit.matched || missr.matched,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every sample of one point serially, in sample order.
    fn run(kind: DesignKind, width: usize, params: VariationParams) -> Result<McResult, CellError> {
        let point = VariationPoint::new(
            kind,
            &TechCard::hp45(),
            &Geometry::default(),
            &SearchTiming::fast(),
            width,
            params,
        )?;
        Ok(McResult::from_outcomes((0..point.samples()).map(|s| {
            point
                .sample(s, NewtonSettings::default())
                .map_err(|e| e.to_string())
        })))
    }

    #[test]
    fn gaussian_has_zero_mean_unit_std() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let (mean, std) = mean_std(&xs);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((std - 1.0).abs() < 0.02, "std {std}");
    }

    #[test]
    fn zero_sigma_never_fails() {
        let params = VariationParams {
            sigma_vth: 0.0,
            samples: 3,
            seed: 1,
        };
        let r = run(DesignKind::FeFet2T, 8, params).unwrap();
        assert_eq!(r.samples, 3);
        assert_eq!(r.evaluated(), 3);
        assert_eq!(r.failures, 0);
        assert!(r.solver_failures.is_empty());
        assert!(r.mean_worst_margin() > 0.0);
        // All samples identical at σ = 0.
        let (_, std) = r.match_margin_stats();
        assert!(std < 1e-12, "std {std}");
    }

    #[test]
    fn variation_widens_margin_distribution() {
        let base = VariationParams {
            sigma_vth: 0.0,
            samples: 4,
            seed: 2,
        };
        let noisy = VariationParams {
            sigma_vth: 0.08,
            ..base.clone()
        };
        let r0 = run(DesignKind::FeFet2T, 8, base).unwrap();
        let r1 = run(DesignKind::FeFet2T, 8, noisy).unwrap();
        let (_, s0) = r1.mismatch_margin_stats();
        let (_, s_base) = r0.mismatch_margin_stats();
        assert!(s0 > s_base, "noisy std {s0} vs base {s_base}");
    }

    #[test]
    fn volatile_designs_are_rejected() {
        let err = run(DesignKind::Cmos16T, 4, VariationParams::default());
        assert!(matches!(err, Err(CellError::UnsupportedOperation(_))));
    }

    #[test]
    fn zero_width_is_rejected() {
        let err = run(DesignKind::FeFet2T, 0, VariationParams::default());
        assert!(matches!(err, Err(CellError::InvalidParameter(_))));
    }
}
