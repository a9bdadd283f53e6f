//! The [`Evaluator`]: shared configuration + calibration cache.

use std::sync::{Arc, OnceLock};

use ftcam_array::CalibrationCache;
use ftcam_cells::{CellDesign, CellError, DesignKind, Geometry, RowTestbench, SearchTiming};
use ftcam_devices::TechCard;

use crate::exec::{ExecCounters, Executor};

/// Shared context for all experiments: technology card, layout constants,
/// search clocking, a calibration cache and the parallel sweep executor.
///
/// Two presets exist: [`Evaluator::standard`] uses the clocking the paper
/// reports; [`Evaluator::quick`] uses a coarser step for unit tests and
/// smoke runs. Both default to one worker thread per available core; use
/// [`Evaluator::with_threads`] to pin the count (1 forces the serial
/// path). Artifacts are identical for any thread count.
#[derive(Debug)]
pub struct Evaluator {
    card: TechCard,
    geometry: Geometry,
    timing: SearchTiming,
    cache: CalibrationCache,
    threads: usize,
    exec_counters: Arc<ExecCounters>,
    #[cfg(feature = "fault-injection")]
    poison_item: Option<usize>,
}

impl Evaluator {
    /// Creates an evaluator from explicit configuration.
    pub fn new(card: TechCard, geometry: Geometry, timing: SearchTiming) -> Self {
        let cache = CalibrationCache::new(card.clone(), geometry.clone(), timing.clone());
        Self {
            card,
            geometry,
            timing,
            cache,
            threads: default_threads(),
            exec_counters: Arc::new(ExecCounters::new()),
            #[cfg(feature = "fault-injection")]
            poison_item: None,
        }
    }

    /// Poisons one executor work item index for every sweep this evaluator
    /// drives: that item panics instead of running (builder style, chaos
    /// tests only).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_poisoned_executor_item(mut self, item: usize) -> Self {
        self.poison_item = Some(item);
        self
    }

    /// Sets the worker-thread count for sweep execution (builder style).
    ///
    /// `1` forces the serial path; `0` is treated as `1`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the transient step-control policy for every simulation this
    /// evaluator drives (builder style).
    ///
    /// The calibration cache bakes the timing in at construction, so the
    /// cache is rebuilt (empty) with the updated policy; call this before
    /// running experiments, not between them.
    ///
    /// ```
    /// use ftcam_core::Evaluator;
    /// use ftcam_cells::StepControl;
    ///
    /// let eval = Evaluator::quick().with_step_control(StepControl::adaptive());
    /// assert!(eval.timing().step.is_adaptive());
    /// ```
    #[must_use]
    pub fn with_step_control(mut self, step: ftcam_cells::StepControl) -> Self {
        self.timing.step = step;
        self.cache = CalibrationCache::new(
            self.card.clone(),
            self.geometry.clone(),
            self.timing.clone(),
        );
        self
    }

    /// The evaluation-default configuration (hp45 card, default clocking).
    pub fn standard() -> Self {
        Self::new(
            TechCard::hp45(),
            Geometry::default(),
            SearchTiming::default(),
        )
    }

    /// A coarse, fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self::new(TechCard::hp45(), Geometry::default(), SearchTiming::fast())
    }

    /// The technology card.
    pub fn card(&self) -> &TechCard {
        &self.card
    }

    /// The layout constants.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The search clocking.
    pub fn timing(&self) -> &SearchTiming {
        &self.timing
    }

    /// The calibration cache (shared across experiments).
    pub fn calibrations(&self) -> &CalibrationCache {
        &self.cache
    }

    /// The configured worker-thread count for sweep execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared executor counters (accumulated across all experiments
    /// run through this evaluator).
    pub fn exec_counters(&self) -> &Arc<ExecCounters> {
        &self.exec_counters
    }

    /// A sweep executor bound to this evaluator's thread count and
    /// counters. Cheap to call; drivers request one per sweep.
    pub fn executor(&self) -> Executor {
        let exec = Executor::with_counters(self.threads, Arc::clone(&self.exec_counters));
        #[cfg(feature = "fault-injection")]
        let exec = match self.poison_item {
            Some(item) => exec.with_poisoned_item(item),
            None => exec,
        };
        exec
    }

    /// Builds a row testbench for a standard design.
    ///
    /// # Errors
    ///
    /// Propagates construction failures as [`CellError`].
    pub fn testbench(&self, kind: DesignKind, width: usize) -> Result<RowTestbench, CellError> {
        RowTestbench::new(
            kind.instantiate(),
            self.card.clone(),
            self.geometry.clone(),
            width,
        )
    }

    /// Builds a row testbench for a custom design instance (parameter
    /// sweeps over α, segment counts, ...).
    ///
    /// # Errors
    ///
    /// Propagates construction failures as [`CellError`].
    pub fn testbench_with(
        &self,
        design: Box<dyn CellDesign>,
        width: usize,
    ) -> Result<RowTestbench, CellError> {
        RowTestbench::new(design, self.card.clone(), self.geometry.clone(), width)
    }
}

/// One worker per available core, falling back to 1 when the parallelism
/// query fails (e.g. restricted sandboxes). The query reads cgroup and
/// sysfs files, so it runs once per process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_clocking() {
        let std = Evaluator::standard();
        let quick = Evaluator::quick();
        assert!(quick.timing().dt >= std.timing().dt);
        assert_eq!(std.card().vdd, 0.8);
    }

    #[test]
    fn testbench_builds_for_all_designs() {
        let eval = Evaluator::quick();
        for kind in DesignKind::ALL {
            let tb = eval.testbench(kind, 4).unwrap();
            assert_eq!(tb.width(), 4);
        }
    }

    #[test]
    fn with_threads_pins_executor_width_and_floors_at_one() {
        let eval = Evaluator::quick().with_threads(3);
        assert_eq!(eval.threads(), 3);
        assert_eq!(eval.executor().threads(), 3);
        assert_eq!(Evaluator::quick().with_threads(0).threads(), 1);
        assert!(Evaluator::quick().threads() >= 1);
    }

    #[test]
    fn explicit_thread_count_wins_over_the_default() {
        let parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(Evaluator::quick().threads(), parallelism);
        assert_eq!(Evaluator::standard().threads(), parallelism);
        let explicit = parallelism + 5;
        assert_eq!(
            Evaluator::standard().with_threads(explicit).threads(),
            explicit
        );
        assert_eq!(Evaluator::standard().with_threads(1).threads(), 1);
    }

    #[test]
    fn executors_share_the_evaluator_counters() {
        let eval = Evaluator::quick().with_threads(2);
        eval.executor()
            .run(&[1u32, 2, 3], |_, &x| Ok::<_, ()>(x))
            .unwrap();
        eval.executor()
            .run(&[4u32], |_, &x| Ok::<_, ()>(x))
            .unwrap();
        assert_eq!(eval.exec_counters().snapshot().jobs, 4);
    }
}
