//! Metric collection, failure accounting and the result line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::check::json_f64;
use crate::stats::median;

/// End-to-end metrics, printed by every untraced run. Every workload
/// reports each of them, so they are the ones its workloads share: the
/// time of one unit of work, set-up time and memory.
pub const END_TO_END: [(&str, &str); 3] =
    [("work_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not call reads 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("circuit.accepted_steps", "count"),
    ("circuit.newton_iters", "count"),
    ("circuit.newton_per_step", "ratio"),
    ("circuit.factorizations", "count"),
    ("circuit.lu_bypass_ratio", "ratio"),
    ("circuit.tape_replays", "count"),
    ("circuit.tape_mismatches", "count"),
    ("circuit.recovered_steps", "count"),
    ("circuit.dense_demotions", "count"),
    ("circuit.us_per_step.dense", "us"),
    ("circuit.us_per_step.sparse", "us"),
    ("cells.build_ms", "ms"),
    ("cells.program_us", "us"),
    ("cells.search_ms.cmos16t", "ms"),
    ("cells.search_ms.rram2t2r", "ms"),
    ("cells.search_ms.fefet2t", "ms"),
    ("cells.search_ms.ea-ls", "ms"),
    ("cells.search_ms.ea-slg", "ms"),
    ("cells.search_ms.ea-mls", "ms"),
    ("cells.search_ms.ea-full", "ms"),
    ("cells.search_ms.match", "ms"),
    ("cells.search_ms.mismatch", "ms"),
    ("cells.write_ms.fefet2t", "ms"),
    ("cells.write_ms.ea-ls", "ms"),
    ("cells.write_ms.ea-slg", "ms"),
    ("cells.write_ms.ea-mls", "ms"),
    ("cells.write_ms.ea-full", "ms"),
    ("cells.search_ms_p50", "ms"),
    ("cells.search_ms_p90", "ms"),
    ("cells.write_ms_p50", "ms"),
    ("cells.write_ms_p90", "ms"),
    ("array.calibrate_s", "s"),
    ("array.calibrations", "count"),
    ("array.cache_hit_ratio", "ratio"),
    ("core.fig2_s", "s"),
    ("core.fig3_s", "s"),
    ("core.table1_s", "s"),
    ("core.fig4_s", "s"),
    ("core.fig5_s", "s"),
    ("core.fig6_s", "s"),
    ("core.fig7_s", "s"),
    ("core.fig8_s", "s"),
    ("core.table2_s", "s"),
    ("core.fig9_s", "s"),
    ("core.fig10_s", "s"),
    ("core.table3_s", "s"),
    ("core.table4_s", "s"),
    ("core.fig11_s", "s"),
    ("core.fig12_s", "s"),
    ("core.fig13_s", "s"),
    ("core.e17_s", "s"),
    ("core.exec_jobs", "count"),
    ("core.exec_run_s", "s"),
    ("core.exec_assemble_s", "s"),
    ("workloads.gen_s", "s"),
    ("engine.build_s", "s"),
    ("engine.cost_model_s", "s"),
    ("engine.replay_s", "s"),
    ("engine.exec_run_s", "s"),
    ("engine.lookup_s", "s"),
    ("engine.metered_queries", "count"),
    ("engine.hits", "count"),
    ("engine.total_matches", "count"),
    ("engine.replay_qps", "1/s"),
    ("engine.lookup_qps", "1/s"),
    ("trace.work_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Failure messages echoed to standard error (the rest are only counted).
const MAX_ECHOED_FAILURES: usize = 10;

/// Accumulates the outcome of one run.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// An empty report for an untraced (`trace = false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records one checked operation: `Err` carries why it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_ECHOED_FAILURES {
                self.failures.push(why);
            }
        }
    }

    /// Sets metric `name`. The unit is the one declared in [`END_TO_END`]
    /// or [`PER_LAYER`]; `unit` documents it at the call site.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert_eq!(Some(unit), declared_unit(name), "metric {name}");
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Prints every metric of this run's kind with its unit, then the
    /// JSON result line. Returns whether every check passed.
    pub fn print(&self) -> bool {
        let declared: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut entries = Vec::with_capacity(declared.len());
        let mut complete = true;
        for &(name, unit) in declared {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if self.trace => 0.0,
                None => {
                    eprintln!("metric {name} was not measured");
                    complete = false;
                    f64::NAN
                }
            };
            if !value.is_finite() {
                complete = false;
            }
            println!("{name} = {} {unit}", json_f64(value));
            entries.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(if value.is_finite() { value } else { 0.0 })
            ));
        }
        for why in &self.failures {
            eprintln!("check failed: {why}");
        }
        let correct = complete && self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        );
        correct
    }
}

fn declared_unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// Runs `f`, turning a panic into an `Err` like a returned failure.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Runs `unit(i)` for `i = 0, 1, …` until `seconds` have passed and at
/// least `min_units` units ran. Returns the number of units.
pub fn repeat_units(seconds: f64, min_units: usize, mut unit: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut i = 0;
    while i < min_units || started.elapsed().as_secs_f64() < seconds {
        unit(i);
        i += 1;
    }
    i
}

/// Whether unit `i` of a run is traced: a traced run alternates untraced
/// and traced units so the tracing overhead is measured in one process.
pub fn is_traced(trace: bool, i: usize) -> bool {
    trace && i % 2 == 1
}

/// Host time of each operation of each unit of work, split by whether the
/// unit was traced. Every unit runs the same operations in the same order.
#[derive(Debug, Default)]
pub struct UnitTimes {
    plain: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
}

impl UnitTimes {
    /// Records the operation times (seconds) of one unit.
    pub fn push(&mut self, traced: bool, op_secs: Vec<f64>) {
        let n = self.plain.len() + self.traced.len();
        let total: f64 = op_secs.iter().sum();
        eprintln!(
            "unit {n}{}: {total:.4} s",
            if traced { " (traced)" } else { "" }
        );
        if traced {
            self.traced.push(op_secs);
        } else {
            self.plain.push(op_secs);
        }
    }

    /// Reports `work_s` (untraced run) or `trace.work_s` and
    /// `trace.overhead_pct` (traced run).
    pub fn report(&self, trace: bool, report: &mut Report) {
        let plain = median_unit(&self.plain);
        if trace {
            let traced = median_unit(&self.traced);
            report.metric("trace.work_s", traced, "s");
            report.metric("trace.overhead_pct", 100.0 * (traced / plain - 1.0), "%");
        } else {
            report.metric("work_s", plain, "s");
        }
    }
}

/// The time of a typical unit: the sum over operations of each
/// operation's median across units, so a burst of machine noise during
/// one operation does not move the total. NaN without units.
pub fn median_unit(units: &[Vec<f64>]) -> f64 {
    let ops = units.iter().map(Vec::len).min().unwrap_or(0);
    if ops == 0 {
        return f64::NAN;
    }
    (0..ops)
        .map(|j| median(&units.iter().map(|u| u[j]).collect::<Vec<_>>()).unwrap_or(f64::NAN))
        .sum()
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let mut r = Report::new(false);
        r.op(Ok(()));
        r.op(guarded(|| -> Result<(), String> { panic!("boom") }));
        r.op(Err("mismatch".into()));
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert!(r.failures[0].contains("boom"));
    }

    #[test]
    fn a_typical_unit_sums_per_operation_medians() {
        let units = vec![vec![1.0, 10.0], vec![9.0, 11.0], vec![2.0, 30.0]];
        assert_eq!(median_unit(&units), 2.0 + 11.0);
        assert!(median_unit(&[]).is_nan());
    }

    #[test]
    fn repeat_honours_the_minimum_unit_count() {
        let mut seen = Vec::new();
        assert_eq!(repeat_units(0.0, 3, |i| seen.push(i)), 3);
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
