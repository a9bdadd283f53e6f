//! The ftcam benchmark: three named workloads, output checks against
//! recorded references, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-quick|row-ops|engine-replay --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload W --record-reference FILE
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! nonzero when any output check failed. See `perfbench/README.md`.

mod check;
mod circuit;
mod engine_replay;
mod report;
mod row_ops;
mod stats;
mod suite_quick;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Options of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed (inputs are a pure function of it).
    pub seed: u64,
    /// Measured-phase duration (seconds).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: ftcam-perfbench --workload {} --seed N --seconds S --trace 0|1\n       \
         ftcam-perfbench --workload W --record-reference FILE",
        WORKLOADS.join("|")
    )
}

const WORKLOADS: [&str; 3] = ["suite-quick", "row-ops", "engine-replay"];

fn parse_args() -> Result<(String, RunOpts, Option<PathBuf>), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut record = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--record-reference" => record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((workload, opts, record))
}

fn main() -> ExitCode {
    let (workload, opts, record) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = record {
        let json = match workload.as_str() {
            "suite-quick" => suite_quick::record(),
            "row-ops" => row_ops::record(),
            _ => engine_replay::record(),
        };
        return match std::fs::write(&path, json) {
            Ok(()) => {
                eprintln!("reference written to {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    let mut report = Report::new(opts.trace);
    match workload.as_str() {
        "suite-quick" => suite_quick::run(&opts, &mut report),
        "row-ops" => row_ops::run(&opts, &mut report),
        _ => engine_replay::run(&opts, &mut report),
    }
    if !opts.trace {
        report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    let correct = report.print();
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
