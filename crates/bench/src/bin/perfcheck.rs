//! CI perf-smoke gate: compares a fresh `--bench-json` report against the
//! checked-in baseline and fails on hot-path regressions.
//!
//! ```text
//! perfcheck <bench.json> <baseline.json>
//! ```
//!
//! Four classes of regression are caught:
//!
//! * the hot path silently disabling itself — the fresh report must show
//!   nonzero tape replays and baseline reuses (a refactor that stops the
//!   tapes from validating would otherwise only show up as wall-clock);
//! * step-count regressions — accepted transient steps growing more than
//!   [`TOLERANCE`] over the baseline means stepping or recovery changed;
//! * factorisation regressions — LU factorisation counts growing more
//!   than [`TOLERANCE`] means the reuse/chord guards got weaker;
//! * Newton-iteration regressions — iterations growing more than
//!   [`TOLERANCE`] means convergence got slower at the same steps.
//!
//! Wall-clock is deliberately *not* gated: CI machines are too noisy.
//! The counters are deterministic, so a 20% margin only absorbs genuine
//! algorithmic drift (preset changes, new experiments), not noise.

use std::path::Path;
use std::process::ExitCode;

use ftcam_bench::{load_bench_report, BenchReport};

/// Allowed relative growth of deterministic counters over the baseline.
const TOLERANCE: f64 = 0.20;

/// Checks `current <= baseline * (1 + TOLERANCE)`, printing a verdict line.
fn check_growth(label: &str, current: u64, baseline: u64) -> bool {
    let limit = (baseline as f64 * (1.0 + TOLERANCE)).ceil() as u64;
    let ok = current <= limit;
    println!(
        "{} {label}: {current} vs baseline {baseline} (limit {limit})",
        if ok { "ok  " } else { "FAIL" },
    );
    ok
}

/// Checks a counter that proves the hot path is alive at all.
fn check_nonzero(label: &str, current: u64) -> bool {
    let ok = current > 0;
    println!(
        "{} {label}: {current} (must be nonzero)",
        if ok { "ok  " } else { "FAIL" },
    );
    ok
}

fn run(current: &BenchReport, baseline: &BenchReport) -> bool {
    if current.preset != baseline.preset || current.stepping != baseline.stepping {
        println!(
            "FAIL preset/stepping mismatch: current {}/{} vs baseline {}/{}",
            current.preset, current.stepping, baseline.preset, baseline.stepping,
        );
        return false;
    }
    let (cur_steps, base_steps) = (current.total_steps(), baseline.total_steps());
    let (cur_solver, base_solver) = (current.total_solver(), baseline.total_solver());
    let mut ok = true;
    ok &= check_nonzero("tape replays", cur_solver.tape_replays);
    ok &= check_nonzero("baseline reuses", cur_solver.baseline_reuses);
    ok &= check_growth("accepted steps", cur_steps.accepted, base_steps.accepted);
    ok &= check_growth(
        "LU factorisations",
        cur_solver.factorizations,
        base_solver.factorizations,
    );
    ok &= check_growth(
        "Newton iterations",
        cur_steps.newton_iters,
        base_steps.newton_iters,
    );
    println!(
        "info wall-clock (not gated): {:.2} s vs baseline {:.2} s",
        current.total_wall_nanos() as f64 / 1e9,
        baseline.total_wall_nanos() as f64 / 1e9,
    );
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [bench_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: perfcheck <bench.json> <baseline.json>");
        return ExitCode::FAILURE;
    };
    let current = match load_bench_report(Path::new(bench_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to load {bench_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match load_bench_report(Path::new(baseline_path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to load {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run(&current, &baseline) {
        println!("perfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("perfcheck FAILED");
        ExitCode::FAILURE
    }
}
