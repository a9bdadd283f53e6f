//! `suite-quick`: the 17 quick-preset artefacts in the `experiments`
//! binary's order, each suite on a fresh single-threaded `Evaluator` so the
//! calibration cache starts cold, as it does on every `experiments` run.
//!
//! The quick suite has no inputs to draw, so the seed is not used.
//!
//! * unit of work: one suite; operation: one artefact driver call;
//! * `setup_s`: constructing the `Evaluator`;
//! * check: every numeric cell of every artefact against the reference
//!   (≤2.2e-4 relative, NaN in the same places); notes and `exec` are
//!   excluded, because they carry wall-clock figures.

use std::collections::BTreeMap;
use std::time::Instant;

use ftcam_core::{experiments, Artifact, CacheStats, Evaluator};

use crate::check::{as_f64s, compare_series, field, json_f64s, parse_reference, SIM_RTOL};
use crate::circuit::Counters;
use crate::report::{guarded, is_traced, repeat_units, secs, Report, UnitTimes};
use crate::stats::median;
use crate::RunOpts;

const REFERENCE: &str = include_str!("../reference/suite_quick.json");

/// Suites run even when `--seconds` has passed sooner.
const MIN_SUITES: usize = 3;

/// Set-ups timed per suite, the suite's own included: a set-up takes
/// microseconds, and its time drifts with the machine over a run.
const SETUPS_PER_SUITE: usize = 200;

type Series = Vec<(String, Vec<f64>)>;

/// The artefact ids in the `experiments` binary's order.
fn ids() -> impl Iterator<Item = &'static str> {
    experiments::ALL_IDS.into_iter().chain(["e17"])
}

fn run_artifact(eval: &Evaluator, id: &str) -> Result<Artifact, String> {
    guarded(|| {
        if id == "e17" {
            ftcam_engine::experiments::run_instrumented(eval, false)
        } else {
            experiments::run_by_id(eval, id, false)
        }
        .map_err(|e| format!("{id}: {e}"))
    })
}

/// The numeric content of an artefact as labelled series: the table rows,
/// or the figure's x axis followed by each series.
fn cells(artifact: &Artifact) -> Series {
    match artifact {
        Artifact::Table(t) => t
            .rows
            .iter()
            .map(|r| (r.label.clone(), r.values.clone()))
            .collect(),
        Artifact::Figure(f) => std::iter::once(("x".to_string(), f.x.clone()))
            .chain(f.series.iter().map(|s| (s.name.clone(), s.y.clone())))
            .collect(),
    }
}

fn load_reference() -> BTreeMap<String, Series> {
    let root = parse_reference(REFERENCE);
    ids()
        .map(|id| {
            let series = field(&root, id)
                .as_seq()
                .unwrap_or_default()
                .iter()
                .map(|pair| {
                    let pair = pair.as_seq().unwrap_or_default();
                    let label = pair.first().and_then(|v| v.as_str()).unwrap_or_default();
                    let values = pair.get(1).map(as_f64s).unwrap_or_default();
                    (label.to_string(), values)
                })
                .collect();
            (id.to_string(), series)
        })
        .collect()
}

/// Runs one suite and renders the reference file.
pub fn record() -> String {
    let eval = Evaluator::standard().with_threads(1);
    let entries: Vec<String> = ids()
        .map(|id| {
            let artifact = run_artifact(&eval, id).unwrap_or_else(|e| panic!("{e}"));
            let series: Vec<String> = cells(&artifact)
                .iter()
                .map(|(label, values)| format!("[{label:?}, {}]", json_f64s(values)))
                .collect();
            format!("\"{id}\": [\n    {}\n  ]", series.join(",\n    "))
        })
        .collect();
    format!("{{\n  {}\n}}\n", entries.join(",\n  "))
}

/// Per-layer sums over the traced suites.
#[derive(Default)]
struct Layers {
    suites: u32,
    counters: Option<Counters>,
    artifact_s: BTreeMap<&'static str, f64>,
    cache: CacheStats,
    exec_jobs: u64,
    exec_run_nanos: u64,
    exec_assemble_nanos: u64,
}

/// Runs the workload.
pub fn run(opts: &RunOpts, report: &mut Report) {
    let reference = load_reference();
    let mut units = UnitTimes::default();
    let mut setup_s = Vec::new();
    let mut layers = Layers::default();

    repeat_units(opts.seconds, MIN_SUITES, |i| {
        let traced = is_traced(opts.trace, i);
        for _ in 1..SETUPS_PER_SUITE {
            let started = Instant::now();
            let eval = Evaluator::standard().with_threads(1);
            setup_s.push(secs(started));
            drop(eval);
        }
        let started = Instant::now();
        let eval = Evaluator::standard().with_threads(1);
        setup_s.push(secs(started));

        let mut counters = Counters::default();
        let mut artifact_s = Vec::new();
        for id in ids() {
            let started = Instant::now();
            let outcome = run_artifact(&eval, id);
            let dt = secs(started);
            artifact_s.push(dt);
            if traced {
                *layers.artifact_s.entry(id).or_default() += dt;
                if let Some(exec) = outcome.as_ref().ok().and_then(Artifact::exec) {
                    counters += Counters::of_exec(exec);
                    layers.exec_jobs += exec.jobs;
                    layers.exec_run_nanos += exec.run_nanos;
                    layers.exec_assemble_nanos += exec.assemble_nanos;
                }
            }
            report.op(outcome.and_then(|a| {
                compare_series(&cells(&a), &reference[id], SIM_RTOL)
                    .map_err(|e| format!("{id}: {e}"))
            }));
        }
        if traced {
            layers.counters.get_or_insert(counters);
            let cache = eval.calibrations().stats();
            layers.cache.hits += cache.hits;
            layers.cache.misses += cache.misses;
            layers.cache.calibrations += cache.calibrations;
            layers.cache.calibrate_nanos += cache.calibrate_nanos;
            layers.suites += 1;
        }
        units.push(traced, artifact_s);
    });

    units.report(opts.trace, report);
    if !opts.trace {
        report.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        return;
    }
    let per_suite = f64::from(layers.suites.max(1));
    if let Some(counters) = &layers.counters {
        counters.report(report);
    }
    for (id, s) in &layers.artifact_s {
        report.metric(&format!("core.{id}_s"), s / per_suite, "s");
    }
    report.metric(
        "core.exec_jobs",
        layers.exec_jobs as f64 / per_suite,
        "count",
    );
    report.metric(
        "core.exec_run_s",
        layers.exec_run_nanos as f64 * 1e-9 / per_suite,
        "s",
    );
    report.metric(
        "core.exec_assemble_s",
        layers.exec_assemble_nanos as f64 * 1e-9 / per_suite,
        "s",
    );
    let cache = &layers.cache;
    report.metric(
        "array.calibrate_s",
        cache.calibrate_nanos as f64 * 1e-9 / per_suite,
        "s",
    );
    report.metric(
        "array.calibrations",
        cache.calibrations as f64 / per_suite,
        "count",
    );
    report.metric(
        "array.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
}
