//! `engine-replay`: the IPv4 routing table at 65,536 rows, width 32, with
//! queries from its seeded `QuerySource`, in two phases per pass:
//!
//! * (a) a metered replay through `pipeline::replay` with 8 shards,
//!   `Metering::Sampled { period: 31 }`, batch 256 and a 2-thread
//!   executor, pricing fefet2t, ea-slg, ea-mls and ea-full (e17's `--full`
//!   configuration);
//! * (b) an unmetered `TcamEngine::search` lookup stream on an engine with
//!   `EngineConfig::default()`.
//!
//! Circuit work happens only in set-up (the four calibrations). The run
//! seed selects workload seed `seed % WORKLOAD_SEEDS`, which is passed as
//! `IpRoutingWorkloadParams::seed`.
//!
//! * unit of work: one pass, (a) then (b); operation: one 256-query batch
//!   of lookups;
//! * `setup_s`: table and query generation, the four calibrations on a
//!   cold cache, and the engine, index and cost-model build; the median of
//!   [`SETUPS`] set-ups;
//! * checks: the calibrations match the reference to ≤2.2e-4 relative; the
//!   replay's `EngineStats` counts are exact and its pJ/query within 1e-9
//!   relative; the lookups' hit count and row-id checksum are exact.

use std::time::Instant;

use ftcam_array::{CacheStats, RowCalibration};
use ftcam_cells::DesignKind;
use ftcam_core::{Evaluator, ExecSnapshot};
use ftcam_engine::{pipeline, EngineConfig, EngineStats, Metering, TcamEngine, WorkloadReplay};
use ftcam_workloads::{IpRoutingWorkloadParams, TernaryWord};

use crate::check::{
    as_f64s, as_u64, close, field, json_f64s, parse_reference, ENGINE_RTOL, SIM_RTOL,
};
use crate::circuit::Counters;
use crate::report::{guarded, is_traced, repeat_units, secs, Report, UnitTimes};
use crate::stats::median;
use crate::RunOpts;

const REFERENCE: &str = include_str!("../reference/engine_replay.json");

/// Workload seeds recorded in the reference.
const WORKLOAD_SEEDS: u64 = 16;

const ROWS: usize = 65_536;
const WIDTH: usize = 32;
const REPLAY_QUERIES: u64 = 4096;
const LOOKUP_QUERIES: u64 = 131_072;
const SHARDS: usize = 8;
const METER_PERIOD: u64 = 31;
const BATCH: usize = 256;
const THREADS: usize = 2;
const DESIGNS: [DesignKind; 4] = [
    DesignKind::FeFet2T,
    DesignKind::EaSlGated,
    DesignKind::EaMlSegmented,
    DesignKind::EaFull,
];

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 5;

/// Passes run even when `--seconds` has passed sooner.
const MIN_PASSES: usize = 5;

/// Everything the measured passes use.
struct Bench {
    eval: Evaluator,
    calibrations: Vec<RowCalibration>,
    metered: TcamEngine,
    lookup: TcamEngine,
    replay_queries: Vec<TernaryWord>,
    lookup_queries: Vec<TernaryWord>,
}

/// Host time of each set-up phase (seconds) and the layer counters.
#[derive(Default)]
struct SetupTimes {
    gen_s: f64,
    calibrate_s: f64,
    build_s: f64,
    cost_model_s: f64,
    counters: Counters,
    cache: CacheStats,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.gen_s + self.calibrate_s + self.build_s + self.cost_model_s
    }
}

fn set_up(seed: u64) -> Result<(Bench, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let started = Instant::now();
    let replay = WorkloadReplay::ip_routing(&IpRoutingWorkloadParams {
        entries: ROWS,
        queries: REPLAY_QUERIES as usize,
        width: WIDTH,
        seed,
        ..IpRoutingWorkloadParams::default()
    });
    let replay_queries = replay.queries(0..REPLAY_QUERIES);
    let lookup_queries = replay.queries(REPLAY_QUERIES..REPLAY_QUERIES + LOOKUP_QUERIES);
    t.gen_s = secs(started);

    let before = Counters::now();
    let started = Instant::now();
    let eval = Evaluator::standard().with_threads(THREADS);
    let calibrations = DESIGNS
        .iter()
        .map(|&kind| eval.calibrations().get(kind, WIDTH))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("calibration: {e}"))?;
    t.calibrate_s = secs(started);
    t.counters = Counters::now().since(&before);
    t.cache = eval.calibrations().stats();

    let started = Instant::now();
    let metered = replay.engine(EngineConfig {
        shards: SHARDS,
        metering: Metering::Sampled {
            period: METER_PERIOD,
        },
        ..EngineConfig::default()
    });
    let lookup = replay.engine(EngineConfig::default());
    t.build_s = secs(started);

    let started = Instant::now();
    let metered = calibrations
        .iter()
        .fold(metered, |engine, c| engine.with_design(c));
    t.cost_model_s = secs(started);

    let bench = Bench {
        eval,
        calibrations,
        metered,
        lookup,
        replay_queries,
        lookup_queries,
    };
    Ok((bench, t))
}

/// Phase (a): the metered replay, with the executor's counter delta.
fn replay(bench: &Bench) -> (EngineStats, ExecSnapshot) {
    let before = bench.eval.exec_counters().snapshot();
    let stats = pipeline::replay(
        &bench.metered,
        &bench.replay_queries,
        &bench.eval.executor(),
        BATCH,
    );
    (stats, bench.eval.exec_counters().snapshot().since(&before))
}

/// The outcome of phase (b).
#[derive(Debug, Default, PartialEq, Eq)]
struct Lookups {
    hits: u64,
    /// FNV-1a over the matched row ids (`id + 1`, 0 for a miss).
    checksum: u64,
}

/// Phase (b): the lookup stream, with the host time of each batch.
fn lookups(bench: &Bench) -> (Lookups, Vec<f64>) {
    let mut batch_s = Vec::new();
    let mut out = Lookups {
        hits: 0,
        checksum: 0xcbf2_9ce4_8422_2325,
    };
    for chunk in bench.lookup_queries.chunks(BATCH) {
        let started = Instant::now();
        for q in chunk {
            let id = bench.lookup.search(q);
            out.hits += u64::from(id.is_some());
            let v = id.map_or(0, |i| u64::from(i) + 1);
            out.checksum = (out.checksum ^ v).wrapping_mul(0x0100_0000_01b3);
        }
        batch_s.push(secs(started));
    }
    (out, batch_s)
}

/// The exact counts of a replay, in reference order.
fn replay_counts(stats: &EngineStats) -> Vec<u64> {
    [
        stats.queries,
        stats.hits,
        stats.total_matches,
        stats.metered_queries,
        stats.sl_toggles,
    ]
    .into_iter()
    .chain(stats.match_hist)
    .collect()
}

fn pj_per_query(stats: &EngineStats) -> Vec<f64> {
    DESIGNS
        .iter()
        .map(|&k| stats.pj_per_query(k).unwrap_or(f64::NAN))
        .collect()
}

/// The calibration figures the engine prices with.
fn calibration_values(c: &RowCalibration) -> Vec<f64> {
    c.energy_vs_mismatches
        .iter()
        .map(|&(_, e)| e)
        .chain([c.t_match, c.e_sl_per_definite_bit])
        .collect()
}

fn check_calibrations(bench: &Bench, reference: &serde::Value) -> Result<(), String> {
    for (kind, c) in DESIGNS.iter().zip(&bench.calibrations) {
        let want = as_f64s(field(field(reference, "calibrations"), kind.key()));
        let got = calibration_values(c);
        if got.len() != want.len() || got.iter().zip(&want).any(|(&g, &w)| !close(g, w, SIM_RTOL)) {
            return Err(format!("{kind} calibration {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}

fn check_replay(stats: &EngineStats, reference: &serde::Value) -> Result<(), String> {
    let want: Vec<Option<u64>> = field(reference, "counts")
        .as_seq()
        .unwrap_or_default()
        .iter()
        .map(as_u64)
        .collect();
    let got: Vec<Option<u64>> = replay_counts(stats).into_iter().map(Some).collect();
    if got != want {
        return Err(format!("replay counts {got:?}, reference {want:?}"));
    }
    let want = as_f64s(field(reference, "pj_per_query"));
    let got = pj_per_query(stats);
    if got.len() != want.len()
        || got
            .iter()
            .zip(&want)
            .any(|(&g, &w)| !close(g, w, ENGINE_RTOL))
    {
        return Err(format!("pJ/query {got:?}, reference {want:?}"));
    }
    Ok(())
}

fn check_lookups(got: &Lookups, reference: &serde::Value) -> Result<(), String> {
    let want = Lookups {
        hits: as_u64(field(reference, "lookup_hits")).unwrap_or(u64::MAX),
        checksum: field(reference, "lookup_checksum")
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or(0),
    };
    if *got != want {
        return Err(format!("lookups {got:?}, reference {want:?}"));
    }
    Ok(())
}

/// Runs every workload seed once and renders the reference file.
pub fn record() -> String {
    let mut entries = Vec::new();
    for seed in 0..WORKLOAD_SEEDS {
        let (bench, _) = set_up(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        if seed == 0 {
            let calibrations: Vec<String> = DESIGNS
                .iter()
                .zip(&bench.calibrations)
                .map(|(k, c)| format!("\"{}\": {}", k.key(), json_f64s(&calibration_values(c))))
                .collect();
            entries.push(format!(
                "\"calibrations\": {{\n    {}\n  }}",
                calibrations.join(",\n    ")
            ));
        }
        let (stats, _) = replay(&bench);
        let (looked_up, _) = lookups(&bench);
        let counts: Vec<String> = replay_counts(&stats).iter().map(u64::to_string).collect();
        entries.push(format!(
            "\"{seed}\": {{\"counts\": [{}], \"pj_per_query\": {}, \"lookup_hits\": {}, \
             \"lookup_checksum\": \"{:016x}\"}}",
            counts.join(", "),
            json_f64s(&pj_per_query(&stats)),
            looked_up.hits,
            looked_up.checksum
        ));
    }
    format!("{{\n  {}\n}}\n", entries.join(",\n  "))
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Layers {
    passes: u32,
    replay_s: f64,
    lookup_s: f64,
    exec: ExecSnapshot,
    stats: Option<EngineStats>,
}

/// Runs the workload.
pub fn run(opts: &RunOpts, report: &mut Report) {
    let seed = opts.seed % WORKLOAD_SEEDS;
    let root = parse_reference(REFERENCE);
    let reference = field(&root, &seed.to_string());

    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        match guarded(|| set_up(seed)) {
            Ok((b, times)) => {
                report.op(guarded(|| check_calibrations(&b, &root)));
                bench = Some(b);
                setups.push(times);
            }
            Err(e) => report.op(Err(e)),
        }
    }
    let Some(bench) = bench else {
        return;
    };

    let mut units = UnitTimes::default();
    let mut layers = Layers::default();
    repeat_units(opts.seconds, MIN_PASSES, |i| {
        let traced = is_traced(opts.trace, i);
        let started = Instant::now();
        let replayed = guarded(|| Ok(replay(&bench)));
        let replay_s = secs(started);
        let started = Instant::now();
        let looked_up = guarded(|| Ok(lookups(&bench)));
        let lookup_s = secs(started);
        let batch_s = looked_up.as_ref().map(|l| l.1.clone()).unwrap_or_default();
        units.push(traced, std::iter::once(replay_s).chain(batch_s).collect());

        if traced {
            layers.passes += 1;
            layers.replay_s += replay_s;
            layers.lookup_s += lookup_s;
            if let Ok((stats, exec)) = &replayed {
                layers.exec.jobs += exec.jobs;
                layers.exec.run_nanos += exec.run_nanos;
                layers.exec.assemble_nanos += exec.assemble_nanos;
                layers.stats.get_or_insert_with(|| stats.clone());
            }
        }
        report.op(replayed.and_then(|(stats, _)| check_replay(&stats, reference)));
        report.op(looked_up.and_then(|(l, _)| check_lookups(&l, reference)));
    });

    units.report(opts.trace, report);
    let setup_median = |f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    if !opts.trace {
        report.metric("setup_s", setup_median(SetupTimes::total), "s");
        return;
    }
    if let Some(first) = setups.first() {
        first.counters.report(report);
        report.metric(
            "array.calibrations",
            first.cache.calibrations as f64,
            "count",
        );
        report.metric(
            "array.cache_hit_ratio",
            first.cache.hits as f64 / (first.cache.hits + first.cache.misses).max(1) as f64,
            "ratio",
        );
    }
    report.metric("workloads.gen_s", setup_median(|t| t.gen_s), "s");
    report.metric("array.calibrate_s", setup_median(|t| t.calibrate_s), "s");
    report.metric("engine.build_s", setup_median(|t| t.build_s), "s");
    report.metric("engine.cost_model_s", setup_median(|t| t.cost_model_s), "s");

    let passes = f64::from(layers.passes.max(1));
    let replay_s = layers.replay_s / passes;
    let lookup_s = layers.lookup_s / passes;
    report.metric("engine.replay_s", replay_s, "s");
    report.metric("engine.lookup_s", lookup_s, "s");
    report.metric("engine.replay_qps", REPLAY_QUERIES as f64 / replay_s, "1/s");
    report.metric("engine.lookup_qps", LOOKUP_QUERIES as f64 / lookup_s, "1/s");
    let exec_run_s = layers.exec.run_nanos as f64 * 1e-9 / passes;
    report.metric("engine.exec_run_s", exec_run_s, "s");
    report.metric("core.exec_run_s", exec_run_s, "s");
    report.metric("core.exec_jobs", layers.exec.jobs as f64 / passes, "count");
    report.metric(
        "core.exec_assemble_s",
        layers.exec.assemble_nanos as f64 * 1e-9 / passes,
        "s",
    );
    if let Some(stats) = &layers.stats {
        report.metric(
            "engine.metered_queries",
            stats.metered_queries as f64,
            "count",
        );
        report.metric("engine.hits", stats.hits as f64, "count");
        report.metric("engine.total_matches", stats.total_matches as f64, "count");
    }
}
