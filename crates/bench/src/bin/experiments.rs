//! The experiment harness: regenerates every table and figure of the
//! (reconstructed) evaluation and prints/serialises them.
//!
//! ```text
//! experiments [--full] [--adaptive] [--threads N] [--out DIR]
//!             [--bench-json PATH] [ID ...]
//!
//!   --full       paper-scale presets (slow; use a release build)
//!   --adaptive   truncation-error-controlled time stepping (fewer,
//!                larger transient steps; energies/delays agree with the
//!                fixed-step reference to within 1%)
//!   --threads N  worker threads for sweep execution (default: one per
//!                core; 1 forces the serial path — output is identical
//!                for any N)
//!   --out DIR    artefact directory (default target/experiments)
//!   --bench-json PATH
//!                write a per-experiment perf report (wall-clock, step,
//!                recovery and solver hot-path counters) as JSON — the
//!                input of the CI perf-smoke gate (`perfcheck`)
//!   ID           experiment ids (default: all)
//!                fig2 fig3 table1 fig4 fig5 fig6 fig7 fig8 table2 fig9
//!                fig10 table3
//! ```
//!
//! Execution is fault tolerant: a failing or panicking experiment never
//! costs the artifacts of the others. Every survivor is printed and saved,
//! then failures are enumerated on a machine-readable `_failures:` line
//! and the process exits nonzero.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ftcam_bench::{save_artifact, save_bench_report, BenchRecord, BenchReport, DEFAULT_OUT_DIR};
use ftcam_cells::StepControl;
use ftcam_core::{experiments, plot_figure, Artifact, Evaluator};

/// Renders a panic payload the way the panic hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn main() -> ExitCode {
    let mut full = false;
    let mut adaptive = false;
    let mut threads: Option<usize> = None;
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let mut bench_json: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--adaptive" => adaptive = true,
            "--threads" => match args.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--bench-json" => match args.next() {
                Some(path) => bench_json = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--bench-json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--full] [--adaptive] [--threads N] [--out DIR] \
                     [--bench-json PATH] [ID ...]\nids: {} e17",
                    experiments::ALL_IDS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids = experiments::ALL_IDS.iter().map(|s| s.to_string()).collect();
        ids.push("e17".to_string());
    }

    let mut eval = Evaluator::standard();
    if let Some(n) = threads {
        eval = eval.with_threads(n);
    }
    if adaptive {
        eval = eval.with_step_control(StepControl::adaptive());
    }
    println!(
        "# ftcam experiments ({} preset, {} stepping, {} thread(s)) — {} experiment(s)\n",
        if full { "full" } else { "quick" },
        if adaptive { "adaptive" } else { "fixed" },
        eval.threads(),
        ids.len()
    );
    // Partial-results semantics: one failing (or even panicking)
    // experiment never costs the artifacts of the others. Failures are
    // collected and enumerated in a machine-readable summary at the end.
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut bench_records: Vec<BenchRecord> = Vec::new();
    for id in &ids {
        let started = Instant::now();
        // `e17` lives in the engine crate (a layer above `ftcam-core`'s
        // dispatch table), so it is routed here.
        let outcome: Result<Artifact, String> = catch_unwind(AssertUnwindSafe(|| {
            if id == "e17" {
                ftcam_engine::experiments::run_instrumented(&eval, full)
            } else {
                experiments::run_by_id(&eval, id, full)
            }
        }))
        .map_err(|payload| format!("panicked: {}", panic_message(&*payload)))
        .and_then(|r| r.map_err(|e| e.to_string()));
        match outcome {
            Ok(artifact) => {
                println!("{}", artifact.to_markdown());
                if let Artifact::Figure(fig) = &artifact {
                    println!("{}", plot_figure(fig, 64, 14));
                }
                if let Some(s) = artifact.exec() {
                    println!(
                        "_exec: {} job(s) on {} thread(s); cache {} hit(s) / {} miss(es) / \
                         {} dedup wait(s), {} calibration(s) taking {:.1} ms_",
                        s.jobs,
                        s.threads,
                        s.cache.hits,
                        s.cache.misses,
                        s.cache.dedup_waits,
                        s.cache.calibrations,
                        s.cache.calibrate_nanos as f64 / 1e6,
                    );
                    println!(
                        "_steps: {} accepted / {} rejected / {} halving(s), \
                         {} Newton iteration(s); solver {} factorisation(s) / \
                         {} substitution(s) ({:.0}% LU bypass), {} baseline reuse(s), \
                         {} tape replay(s)_",
                        s.steps.accepted,
                        s.steps.rejected,
                        s.steps.halvings,
                        s.steps.newton_iters,
                        s.solver.factorizations,
                        s.solver.substitutions,
                        s.solver.bypass_rate() * 100.0,
                        s.solver.baseline_reuses,
                        s.solver.tape_replays,
                    );
                    if !s.recovery.is_clean() {
                        println!(
                            "_recovery: {} gmin retry(ies) / {} damped retry(ies) / \
                             {} non-finite rejection(s); {} step(s) recovered; \
                             {} rejected pivot(s)_",
                            s.recovery.gmin_retries,
                            s.recovery.damped_retries,
                            s.recovery.nonfinite,
                            s.recovery.recovered_steps,
                            s.recovery.dense_demotions,
                        );
                    }
                    bench_records.push(BenchRecord {
                        id: id.clone(),
                        wall_nanos: s.wall_nanos,
                        steps: s.steps,
                        recovery: s.recovery,
                        solver: s.solver,
                    });
                }
                match save_artifact(&out_dir, &artifact) {
                    Ok(path) => println!(
                        "_saved to {} in {:.1} s_\n",
                        path.display(),
                        started.elapsed().as_secs_f64()
                    ),
                    Err(e) => {
                        eprintln!("failed to save {id}: {e}");
                        failures.push((id.clone(), format!("save failed: {e}")));
                    }
                }
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failures.push((id.clone(), e));
            }
        }
    }
    if let Some(path) = &bench_json {
        let report = BenchReport {
            preset: if full { "full" } else { "quick" }.to_string(),
            stepping: if adaptive { "adaptive" } else { "fixed" }.to_string(),
            threads: eval.threads(),
            records: bench_records,
        };
        match save_bench_report(path, &report) {
            Ok(()) => {
                let solver = report.total_solver();
                println!(
                    "_bench: {} written — {:.2} s wall, {} factorisation(s), \
                     {} LU bypass(es), {} tape replay(s)_",
                    path.display(),
                    report.total_wall_nanos() as f64 / 1e9,
                    solver.factorizations,
                    solver.lu_bypasses,
                    solver.tape_replays,
                );
            }
            Err(e) => {
                eprintln!("failed to write bench report {}: {e}", path.display());
                failures.push(("bench-json".to_string(), e.to_string()));
            }
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        // Machine-readable summary: one `_failures:` line listing every
        // experiment that produced no artifact, after all survivors have
        // been printed and saved.
        let summary: Vec<String> = failures
            .iter()
            .map(|(id, e)| format!("{id}={:?}", e))
            .collect();
        println!(
            "_failures: {} of {} experiment(s) failed: {}_",
            failures.len(),
            ids.len(),
            summary.join(" ")
        );
        ExitCode::FAILURE
    }
}
