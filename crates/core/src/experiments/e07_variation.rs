//! E7 / Fig. 7 — threshold-variation Monte Carlo: search failure rate and
//! worst-case sense margin vs σ(V_th).

use ftcam_array::{McResult, VariationParams, VariationPoint};
use ftcam_cells::{CellError, DesignKind, NewtonSettings};

use crate::exec::Executor;
use crate::report::{Artifact, Figure};
use crate::Evaluator;

/// Parameters for the variation study.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// σ(V_th) values to sweep (volts).
    pub sigmas: Vec<f64>,
    /// Word width per sample.
    pub width: usize,
    /// Monte-Carlo samples per point.
    pub samples: usize,
    /// FeFET designs to include (volatile designs have no V_th knob here).
    pub designs: Vec<DesignKind>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            sigmas: vec![0.05, 0.15, 0.25],
            width: 8,
            samples: 8,
            designs: vec![
                DesignKind::FeFet2T,
                DesignKind::EaLowSwing,
                DesignKind::EaFull,
            ],
            seed: 0x7a11,
        }
    }
}

impl Params {
    /// Paper-scale preset.
    pub fn full() -> Self {
        Self {
            sigmas: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30],
            width: 32,
            samples: 200,
            ..Self::default()
        }
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(eval: &Evaluator, params: &Params) -> Result<Artifact, CellError> {
    let mut fig = Figure::new(
        "fig7",
        "Variation Monte Carlo: search failure rate and worst-case sense margin vs σ(V_th)",
        "σ(V_th) (V)",
        "failure rate (–) / margin (V)",
        params.sigmas.clone(),
    );
    let points: Vec<(DesignKind, f64)> = params
        .designs
        .iter()
        .flat_map(|&kind| params.sigmas.iter().map(move |&sigma| (kind, sigma)))
        .collect();
    // One Monte-Carlo point per (design, σ), each sample of each point one
    // executor job: samples draw from their own seeded streams, so they
    // are independent of each other and of the schedule.
    let built: Vec<Result<VariationPoint, CellError>> = points
        .iter()
        .map(|&(kind, sigma)| {
            VariationPoint::new(
                kind,
                eval.card(),
                eval.geometry(),
                eval.timing(),
                params.width,
                VariationParams {
                    sigma_vth: sigma,
                    samples: params.samples,
                    seed: params.seed,
                },
            )
        })
        .collect();
    let runnable: Vec<&VariationPoint> = built.iter().filter_map(|p| p.as_ref().ok()).collect();
    let mut results =
        run_samples(&eval.executor(), &runnable, |_| NewtonSettings::default()).into_iter();
    // Partial-results semantics: a point that cannot run, or whose every
    // sample was lost, becomes a NaN cell plus a note instead of discarding
    // the rest of the sweep. Samples lost inside a surviving point are
    // summed and reported alongside.
    let mut solver_failures = 0usize;
    let mut point_failures: Vec<String> = Vec::new();
    let stats: Vec<(f64, f64)> = built
        .iter()
        .zip(&points)
        .map(|(point, &(kind, sigma))| {
            let cells = match point {
                Err(e) => Err(e.to_string()),
                Ok(_) => {
                    let mc = results.next().expect("one result per runnable point");
                    solver_failures += mc.solver_failures.len();
                    if mc.evaluated() > 0 {
                        Ok((mc.failure_rate(), mc.mean_worst_margin()))
                    } else {
                        let first = mc
                            .solver_failures
                            .first()
                            .map_or("none was run", |f| f.error.as_str());
                        Err(format!("all {} sample(s) lost; first: {first}", mc.samples))
                    }
                }
            };
            cells.unwrap_or_else(|cause| {
                point_failures.push(format!("{} at σ = {sigma} V: {cause}", kind.key()));
                (f64::NAN, f64::NAN)
            })
        })
        .collect();
    for (di, &kind) in params.designs.iter().enumerate() {
        let per_sigma = &stats[di * params.sigmas.len()..(di + 1) * params.sigmas.len()];
        let fail = per_sigma.iter().map(|&(f, _)| f).collect();
        let margin = per_sigma.iter().map(|&(_, m)| m).collect();
        fig.push_series(format!("{} failure rate", kind.key()), fail);
        fig.push_series(format!("{} worst margin (V)", kind.key()), margin);
    }
    if solver_failures > 0 {
        fig.note(format!(
            "solver_failures: {solver_failures} Monte-Carlo sample(s) lost to solver \
             divergence across the sweep; rates and margins average the survivors"
        ));
    }
    for failure in &point_failures {
        fig.note(format!("failed point: {failure}"));
    }
    fig.note(format!(
        "{} samples per point, {}-bit words; the large FeFET memory window keeps the \
         nominal design failure-free below σ ≈ 100 mV (a known robustness claim), while \
         the low-swing designs' halved margin brings their failure onset markedly earlier",
        params.samples, params.width
    ));
    Ok(Artifact::Figure(fig))
}

/// Runs every sample of every point as one [`Executor::run_partial`] job
/// and assembles each point's [`McResult`] in sample order, points in the
/// order given. `newton(s)` gives sample `s`'s solver settings in every
/// point (chaos tests inject faults through it). A failed or panicking job
/// costs only its own sample: it becomes that sample's
/// [`ftcam_array::McSolverFailure`].
pub fn run_samples(
    exec: &Executor,
    points: &[&VariationPoint],
    newton: impl Fn(usize) -> NewtonSettings + Sync,
) -> Vec<McResult> {
    let jobs: Vec<(usize, usize)> = points
        .iter()
        .enumerate()
        .flat_map(|(p, point)| (0..point.samples()).map(move |s| (p, s)))
        .collect();
    let mut outcomes = exec
        .run_partial(&jobs, |_, &(p, s)| points[p].sample(s, newton(s)))
        .into_iter();
    points
        .iter()
        .map(|point| {
            McResult::from_outcomes(
                outcomes
                    .by_ref()
                    .take(point.samples())
                    .map(|o| o.map_err(|e| e.to_string())),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_swing_margin_is_smaller_than_baseline() {
        let eval = Evaluator::quick();
        let params = Params {
            sigmas: vec![0.05],
            width: 8,
            samples: 2,
            designs: vec![DesignKind::FeFet2T, DesignKind::EaLowSwing],
            seed: 1,
        };
        let Artifact::Figure(fig) = run(&eval, &params).unwrap() else {
            panic!("expected figure")
        };
        let margin = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.name.starts_with(name) && s.name.contains("margin"))
                .expect("margin series")
                .y[0]
        };
        assert!(
            margin("ea-ls") < margin("fefet2t"),
            "low-swing margin must be smaller"
        );
    }

    #[test]
    fn a_point_that_loses_every_sample_reads_as_nan_with_its_first_error() {
        // A zero time step fails every sample's search, not the point.
        let eval = Evaluator::new(
            ftcam_devices::TechCard::hp45(),
            ftcam_cells::Geometry::default(),
            ftcam_cells::SearchTiming {
                dt: 0.0,
                ..ftcam_cells::SearchTiming::fast()
            },
        );
        let params = Params {
            sigmas: vec![0.05],
            width: 4,
            samples: 2,
            designs: vec![DesignKind::FeFet2T],
            ..Params::default()
        };
        let Artifact::Figure(fig) = run(&eval, &params).unwrap() else {
            panic!("expected figure")
        };
        for series in &fig.series {
            assert!(series.y[0].is_nan(), "{} should be NaN", series.name);
        }
        assert!(
            fig.notes.iter().any(
                |n| n.starts_with("failed point: fefet2t") && n.contains("dt must be positive")
            ),
            "the lost point must quote its first sample error: {:?}",
            fig.notes
        );
    }

    #[test]
    fn samples_are_identical_for_any_executor_width() {
        let eval = Evaluator::quick();
        let point = |sigma_vth| {
            VariationPoint::new(
                DesignKind::FeFet2T,
                eval.card(),
                eval.geometry(),
                eval.timing(),
                8,
                VariationParams {
                    sigma_vth,
                    samples: 4,
                    seed: 7,
                },
            )
            .unwrap()
        };
        let (low, high) = (point(0.05), point(0.15));
        let run_on = |threads| {
            run_samples(&Executor::new(threads), &[&low, &high], |_| {
                NewtonSettings::default()
            })
        };
        let (a, b) = (run_on(1), run_on(4));
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
        assert_eq!(a[0].samples, 4);
    }
}
