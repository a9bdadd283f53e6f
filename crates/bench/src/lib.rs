//! Shared plumbing for the `experiments` and `perfcheck` binaries: artefact
//! and bench-report files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::{Path, PathBuf};

use ftcam_cells::{RecoveryStats, SolverPerf, StepStats};
use ftcam_core::Artifact;
use serde::{Deserialize, Serialize};

/// Where experiment artefacts are written by default.
pub const DEFAULT_OUT_DIR: &str = "target/experiments";

/// One experiment's wall-clock and solver counters inside a
/// [`BenchReport`] (the `experiments --bench-json` output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Experiment id (`fig4`, `table1`, `e17`, ...).
    pub id: String,
    /// Wall-clock nanoseconds for the experiment (excluding artefact
    /// serialisation).
    pub wall_nanos: u64,
    /// Transient step statistics for the experiment.
    pub steps: StepStats,
    /// Recovery-ladder activity (including rejected pivots).
    pub recovery: RecoveryStats,
    /// Solver hot-path counters (factorisations, LU bypasses, baseline
    /// reuse, tape replays).
    pub solver: SolverPerf,
}

/// The `experiments --bench-json` report: one record per experiment plus
/// the run configuration, for before/after perf comparisons and the CI
/// perf-smoke regression gate (see `perfcheck`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// `"quick"` or `"full"`.
    pub preset: String,
    /// `"fixed"` or `"adaptive"`.
    pub stepping: String,
    /// Worker threads the evaluator was configured with.
    pub threads: usize,
    /// Per-experiment records, in execution order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Total wall-clock nanoseconds across all records.
    pub fn total_wall_nanos(&self) -> u64 {
        self.records.iter().map(|r| r.wall_nanos).sum()
    }

    /// Summed step statistics across all records.
    pub fn total_steps(&self) -> StepStats {
        self.records.iter().map(|r| r.steps).sum()
    }

    /// Summed solver counters across all records.
    pub fn total_solver(&self) -> SolverPerf {
        self.records.iter().map(|r| r.solver).sum()
    }

    /// Summed recovery-ladder counters across all records.
    pub fn total_recovery(&self) -> RecoveryStats {
        self.records.iter().map(|r| r.recovery).sum()
    }
}

/// Writes a [`BenchReport`] as pretty-printed JSON, creating parent
/// directories as needed.
///
/// # Errors
///
/// Returns I/O errors from directory creation or the file write.
pub fn save_bench_report(path: &Path, report: &BenchReport) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(report).expect("bench reports serialise");
    fs::write(path, json)
}

/// Reads a [`BenchReport`] back from JSON (the CI regression gate's view
/// of the checked-in baseline).
///
/// # Errors
///
/// Returns I/O errors, or `InvalidData` for unparseable JSON.
pub fn load_bench_report(path: &Path) -> std::io::Result<BenchReport> {
    let json = fs::read_to_string(path)?;
    serde_json::from_str(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Serialises an artefact as JSON (always) and CSV (figures) under `dir`.
///
/// Returns the JSON path.
///
/// # Errors
///
/// Returns I/O errors from directory creation or file writes.
pub fn save_artifact(dir: &Path, artifact: &Artifact) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{}.json", artifact.id()));
    let json = serde_json::to_string_pretty(artifact).expect("artifacts serialise");
    fs::write(&json_path, json)?;
    if let Artifact::Figure(fig) = artifact {
        fs::write(dir.join(format!("{}.csv", fig.id)), fig.to_csv())?;
    }
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_core::Table;

    #[test]
    fn save_writes_json() {
        let dir = std::env::temp_dir().join("ftcam-bench-test");
        let t = Table::new("t0", "demo", vec!["a".into()]);
        let path = save_artifact(&dir, &Artifact::Table(t)).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checked-in perf baseline survives a load/re-serialise round
    /// trip unchanged: the counter structs keep their wire format.
    #[test]
    fn solver_baseline_round_trips() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/solver_baseline.json");
        let report = load_bench_report(&path).unwrap();
        let on_disk: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(serde_json::to_value(&report).unwrap(), on_disk);
    }
}
