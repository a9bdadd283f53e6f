//! `row-ops`: a seeded stream of searches and writes through the
//! `RowTestbench` API, with no cache and no executor in between.
//!
//! There is one testbench per design in `DesignKind::ALL` at each width in
//! [`WIDTHS`]: FeFET-family rows have fewer than `SPARSE_THRESHOLD`
//! unknowns at width 16 (dense LU) and more at width 64 (sparse LU). Each
//! testbench is programmed with a seeded word, then runs eight searches:
//! two at Hamming distance 0, two at 1 and four uniform in `2..=width`, in
//! seeded order. On designs with transient writes, a `write_word` to a
//! seeded target follows the 2nd, 4th and 6th search, and later searches
//! are drawn against the new word.
//!
//! Device state carries from one operation to the next, so the recorded
//! reference is per stream: the run seed selects stream `seed % STREAMS`.
//!
//! * unit of work: one pass over the stream on freshly built testbenches;
//!   operation: one search or write;
//! * `setup_s`: generating the stream, building and programming the
//!   testbenches;
//! * checks: every search decision equals `golden_matches` for the stored
//!   word the testbench reports; every write lands its target; energies
//!   and latencies match the reference to ≤2.2e-4 relative.

use std::collections::BTreeMap;
use std::time::Instant;

use ftcam_cells::{DesignKind, Geometry, RowTestbench, SearchTiming, WriteTiming};
use ftcam_circuit::linalg::SPARSE_THRESHOLD;
use ftcam_devices::TechCard;
use ftcam_workloads::{derive_seed, Ternary, TernaryWord};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::check::{as_f64s, close, field, json_f64s, parse_reference, SIM_RTOL};
use crate::circuit::Counters;
use crate::report::{guarded, is_traced, repeat_units, secs, Report, UnitTimes};
use crate::stats::{highest_percentile, median, percentile};
use crate::RunOpts;

const REFERENCE: &str = include_str!("../reference/row_ops.json");

/// Streams recorded in the reference.
const STREAMS: u64 = 16;

/// Row widths: below and above the sparse-solver threshold.
const WIDTHS: [usize; 2] = [16, 64];

/// Hamming distances per testbench: `None` draws from `2..=width`.
const DISTANCES: [Option<usize>; 8] = [Some(0), Some(0), Some(1), Some(1), None, None, None, None];

/// A write follows these searches (0-based) on designs with transient
/// writes.
const WRITE_AFTER: [usize; 3] = [1, 3, 5];

/// Passes run even when `--seconds` has passed sooner: enough writes for
/// a supported 90th percentile.
const MIN_PASSES: usize = 4;

/// Set-ups timed per pass, the pass's own included: a set-up takes
/// milliseconds, and its time drifts with the machine over a run.
const SETUPS_PER_PASS: usize = 20;

/// Domain separator for stream seeds.
const STREAM_DOMAIN: u64 = 0x0072_6f77_5f6f_7073;

#[derive(Debug, Clone)]
enum Op {
    Search(TernaryWord),
    Write(TernaryWord),
}

#[derive(Debug, Clone)]
struct Bench {
    kind: DesignKind,
    width: usize,
    word: TernaryWord,
    ops: Vec<Op>,
}

fn random_word(rng: &mut ChaCha8Rng, width: usize) -> TernaryWord {
    (0..width)
        .map(|_| Ternary::from_bit(rng.gen_bool(0.5)))
        .collect()
}

/// `word` with `k` distinct, randomly chosen positions complemented.
fn with_mismatches(word: &TernaryWord, k: usize, rng: &mut ChaCha8Rng) -> TernaryWord {
    let mut positions: Vec<usize> = (0..word.width()).collect();
    let mut out = word.clone();
    for i in 0..k {
        let j = rng.gen_range(i..positions.len());
        positions.swap(i, j);
        out.set(positions[i], word.get(positions[i]).complement());
    }
    out
}

/// The operation stream of one seed.
fn generate(stream: u64) -> Vec<Bench> {
    let mut benches = Vec::new();
    for width in WIDTHS {
        for kind in DesignKind::ALL {
            let index = benches.len() as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(stream, STREAM_DOMAIN, index));
            let word = random_word(&mut rng, width);
            let mut distances: Vec<usize> = DISTANCES
                .iter()
                .map(|d| d.unwrap_or_else(|| rng.gen_range(2..=width)))
                .collect();
            for i in (1..distances.len()).rev() {
                distances.swap(i, rng.gen_range(0..=i));
            }
            let writable = kind.instantiate().supports_transient_write();
            let mut stored = word.clone();
            let mut ops = Vec::new();
            for (i, k) in distances.into_iter().enumerate() {
                ops.push(Op::Search(with_mismatches(&stored, k, &mut rng)));
                if writable && WRITE_AFTER.contains(&i) {
                    stored = random_word(&mut rng, width);
                    ops.push(Op::Write(stored.clone()));
                }
            }
            benches.push(Bench {
                kind,
                width,
                word,
                ops,
            });
        }
    }
    benches
}

/// The measured outcome of one operation.
struct OpResult {
    kind: DesignKind,
    write: bool,
    matched: bool,
    /// Host time of the call (seconds).
    host_s: f64,
    /// Accepted transient steps the call took.
    steps: u64,
    sparse: bool,
    /// Simulated energy (J) and latency (s); NaN when the call failed.
    energy: f64,
    latency: f64,
    /// Why the functional check failed, if it did.
    error: Option<String>,
}

/// Builds and programs the testbenches: `(testbench or error, build s,
/// program s)` per bench.
fn set_up(benches: &[Bench]) -> Vec<(Result<RowTestbench, String>, f64, f64)> {
    let card = TechCard::hp45();
    let geometry = Geometry::default();
    benches
        .iter()
        .map(|b| {
            let started = Instant::now();
            let built = guarded(|| {
                RowTestbench::new(
                    b.kind.instantiate(),
                    card.clone(),
                    geometry.clone(),
                    b.width,
                )
                .map_err(|e| e.to_string())
            });
            let build_s = secs(started);
            let started = Instant::now();
            let programmed = built.and_then(|mut tb| {
                tb.program_word(&b.word).map_err(|e| e.to_string())?;
                Ok(tb)
            });
            (programmed, build_s, secs(started))
        })
        .collect()
}

/// Runs every operation of the stream in order on its testbench.
fn run_ops(benches: &[Bench], testbenches: &mut [Result<RowTestbench, String>]) -> Vec<OpResult> {
    let search_timing = SearchTiming::default();
    let write_timing = WriteTiming::default();
    let mut results = Vec::new();
    for (bench, tb) in benches.iter().zip(testbenches.iter_mut()) {
        for op in &bench.ops {
            let mut r = OpResult {
                kind: bench.kind,
                write: matches!(op, Op::Write(_)),
                matched: false,
                host_s: 0.0,
                steps: 0,
                sparse: false,
                energy: f64::NAN,
                latency: f64::NAN,
                error: None,
            };
            let tb = match tb {
                Ok(tb) => tb,
                Err(e) => {
                    r.error = Some(format!(
                        "{} w={}: setup failed: {e}",
                        bench.kind, bench.width
                    ));
                    results.push(r);
                    continue;
                }
            };
            r.sparse = tb.node_count() >= SPARSE_THRESHOLD;
            let steps_before = tb.step_stats().accepted;
            let started = Instant::now();
            let outcome = match op {
                Op::Search(query) => guarded(|| {
                    tb.search(query, &search_timing)
                        .map_err(|e| e.to_string())
                        .map(|o| (o.energy_total, o.latency, o.matched))
                }),
                Op::Write(target) => guarded(|| {
                    tb.write_word(target, &write_timing)
                        .map_err(|e| e.to_string())
                        .map(|o| (o.energy_total, o.latency, o.programmed_ok))
                }),
            };
            r.host_s = secs(started);
            r.steps = tb.step_stats().accepted - steps_before;
            let label = format!("{} w={}", bench.kind, bench.width);
            match (op, outcome) {
                (_, Err(e)) => r.error = Some(format!("{label}: {e}")),
                (Op::Search(query), Ok((energy, latency, matched))) => {
                    r.energy = energy;
                    r.latency = latency;
                    r.matched = matched;
                    if matched != tb.golden_matches(query) {
                        r.error = Some(format!(
                            "{label}: search decided {matched}, golden model disagrees"
                        ));
                    }
                }
                (Op::Write(target), Ok((energy, latency, programmed_ok))) => {
                    r.energy = energy;
                    r.latency = latency;
                    if !programmed_ok || tb.stored_word() != target {
                        r.error = Some(format!("{label}: write did not store its target"));
                    }
                }
            }
            results.push(r);
        }
    }
    results
}

fn load_reference(stream: u64) -> Vec<f64> {
    as_f64s(field(&parse_reference(REFERENCE), &stream.to_string()))
}

/// Runs every stream once and renders the reference file: per stream,
/// `[energy, latency]` of each operation in order, flattened.
pub fn record() -> String {
    let entries: Vec<String> = (0..STREAMS)
        .map(|stream| {
            let benches = generate(stream);
            let mut testbenches: Vec<_> = set_up(&benches).into_iter().map(|t| t.0).collect();
            let values: Vec<f64> = run_ops(&benches, &mut testbenches)
                .iter()
                .flat_map(|r| {
                    if let Some(e) = &r.error {
                        panic!("stream {stream}: {e}");
                    }
                    [r.energy, r.latency]
                })
                .collect();
            format!("\"{stream}\": {}", json_f64s(&values))
        })
        .collect();
    format!("{{\n  {}\n}}\n", entries.join(",\n  "))
}

fn check(r: &OpResult, i: usize, reference: &[f64]) -> Result<(), String> {
    if let Some(e) = &r.error {
        return Err(e.clone());
    }
    let (Some(&energy), Some(&latency)) = (reference.get(2 * i), reference.get(2 * i + 1)) else {
        return Err(format!("op {i}: not in the reference"));
    };
    if !close(r.energy, energy, SIM_RTOL) || !close(r.latency, latency, SIM_RTOL) {
        return Err(format!(
            "op {i} ({}): energy {} J / latency {} s, reference {energy} J / {latency} s",
            r.kind, r.energy, r.latency
        ));
    }
    Ok(())
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Layers {
    counters: Option<Counters>,
    build_s: Vec<f64>,
    program_s: Vec<f64>,
    search_ms: BTreeMap<&'static str, Vec<f64>>,
    write_ms: BTreeMap<&'static str, Vec<f64>>,
    match_ms: Vec<f64>,
    mismatch_ms: Vec<f64>,
    /// `(host seconds, accepted steps)` for dense and sparse rows.
    dense: (f64, u64),
    sparse: (f64, u64),
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs the workload.
pub fn run(opts: &RunOpts, report: &mut Report) {
    let stream = opts.seed % STREAMS;
    let reference = load_reference(stream);
    let mut units = UnitTimes::default();
    let mut setup_s = Vec::new();
    let mut search_ms = Vec::new();
    let mut write_ms = Vec::new();
    let mut layers = Layers::default();

    repeat_units(opts.seconds, MIN_PASSES, |i| {
        let traced = is_traced(opts.trace, i);
        for _ in 1..SETUPS_PER_PASS {
            let started = Instant::now();
            let built = set_up(&generate(stream));
            setup_s.push(secs(started));
            drop(built);
        }
        let started = Instant::now();
        let benches = generate(stream);
        let built = set_up(&benches);
        setup_s.push(secs(started));
        let mut testbenches = Vec::with_capacity(built.len());
        for (tb, build_s, program_s) in built {
            if traced {
                layers.build_s.push(build_s);
                layers.program_s.push(program_s);
            }
            testbenches.push(tb);
        }

        let results = run_ops(&benches, &mut testbenches);
        if traced && layers.counters.is_none() {
            let mut pass = Counters::default();
            for tb in testbenches.iter().flatten() {
                pass += Counters::of_testbench(tb);
            }
            layers.counters = Some(pass);
        }
        for (i, r) in results.iter().enumerate() {
            let ms = r.host_s * 1e3;
            if r.write {
                &mut write_ms
            } else {
                &mut search_ms
            }
            .push(ms);
            if traced && r.error.is_none() {
                let by_design = if r.write {
                    &mut layers.write_ms
                } else {
                    &mut layers.search_ms
                };
                by_design.entry(r.kind.key()).or_default().push(ms);
                if !r.write {
                    if r.matched {
                        &mut layers.match_ms
                    } else {
                        &mut layers.mismatch_ms
                    }
                    .push(ms);
                }
                let backend = if r.sparse {
                    &mut layers.sparse
                } else {
                    &mut layers.dense
                };
                backend.0 += r.host_s;
                backend.1 += r.steps;
            }
            report.op(check(r, i, &reference));
        }
        units.push(traced, results.iter().map(|r| r.host_s).collect());
    });

    units.report(opts.trace, report);
    if !opts.trace {
        report.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        return;
    }
    if let Some(counters) = &layers.counters {
        counters.report(report);
    }
    let us_per_step = |(s, steps): (f64, u64)| s * 1e6 / steps.max(1) as f64;
    report.metric("circuit.us_per_step.dense", us_per_step(layers.dense), "us");
    report.metric(
        "circuit.us_per_step.sparse",
        us_per_step(layers.sparse),
        "us",
    );
    report.metric("cells.build_ms", mean(&layers.build_s) * 1e3, "ms");
    report.metric("cells.program_us", mean(&layers.program_s) * 1e6, "us");
    for (design, ms) in &layers.search_ms {
        report.metric(&format!("cells.search_ms.{design}"), mean(ms), "ms");
    }
    for (design, ms) in &layers.write_ms {
        report.metric(&format!("cells.write_ms.{design}"), mean(ms), "ms");
    }
    report.metric("cells.search_ms.match", mean(&layers.match_ms), "ms");
    report.metric("cells.search_ms.mismatch", mean(&layers.mismatch_ms), "ms");
    // Percentiles over every pass: the per-call timer is the same traced
    // or not, and a 90th percentile needs ten samples beyond it.
    for (name, samples) in [("search", &search_ms), ("write", &write_ms)] {
        report.metric(
            &format!("cells.{name}_ms_p50"),
            median(samples).unwrap_or(f64::NAN),
            "ms",
        );
        let p90 = highest_percentile(samples.len())
            .filter(|&p| p >= 90.0)
            .and_then(|_| percentile(samples, 90.0));
        report.metric(
            &format!("cells.{name}_ms_p90"),
            p90.unwrap_or(f64::NAN),
            "ms",
        );
    }
}
