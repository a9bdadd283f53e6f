//! Row calibration: distill transistor-level measurements into the numbers
//! the array model scales.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ftcam_cells::{CellError, DesignKind, Geometry, RowTestbench, SearchTiming};
use ftcam_devices::TechCard;
use ftcam_workloads::{Ternary, TernaryWord};

/// Per-stage (segment) energies for hierarchically evaluated designs.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCalibration {
    /// Columns in this segment.
    pub width: usize,
    /// Stage energy when the segment matches (joules).
    pub e_match: f64,
    /// Stage energy when the segment mismatches (joules).
    pub e_mismatch: f64,
    /// Stage latency when the segment matches (seconds).
    pub t_match: f64,
    /// Stage latency on a single-bit mismatch (seconds).
    pub t_mismatch: f64,
}

/// Calibrated behaviour of one row of a given design at a given width.
///
/// Produced by [`calibrate_row`] from transistor-level simulation; consumed
/// by [`crate::ArrayModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowCalibration {
    /// The design this calibration belongs to.
    pub kind: DesignKind,
    /// Row width in cells.
    pub width: usize,
    /// Measured `(mismatch_count, row_energy)` points, ascending in count.
    pub energy_vs_mismatches: Vec<(usize, f64)>,
    /// Full-match row latency (clocked sense), seconds.
    pub t_match: f64,
    /// Single-bit-mismatch detection latency (worst case), seconds.
    pub t_mismatch_1: f64,
    /// Sense margin on a full match (volts).
    pub margin_match: f64,
    /// Sense margin on a single-bit mismatch (volts).
    pub margin_mismatch_1: f64,
    /// Search-line energy per definite query digit per search (joules) for
    /// return-to-zero designs; per *toggled* digit for SL-gated designs.
    pub e_sl_per_definite_bit: f64,
    /// `true` if SL energy scales with query toggles instead of width.
    pub sl_gated: bool,
    /// Per-stage data for segmented designs (one entry for flat designs).
    pub stages: Vec<StageCalibration>,
    /// Word write energy per bit (joules), for NVM designs.
    pub e_write_per_bit: Option<f64>,
}

impl RowCalibration {
    /// Row search energy at `k` mismatching cells, by linear interpolation
    /// of the measured points (flat component; early termination is applied
    /// by the array model).
    pub fn row_energy(&self, k: usize) -> f64 {
        let pts = &self.energy_vs_mismatches;
        if pts.is_empty() {
            return 0.0;
        }
        if k <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (k0, e0) = w[0];
            let (k1, e1) = w[1];
            if k <= k1 {
                let f = (k - k0) as f64 / (k1 - k0) as f64;
                return e0 + (e1 - e0) * f;
            }
        }
        pts[pts.len() - 1].1
    }
}

/// Builds the fixed calibration word: a definite alternating pattern.
fn calibration_word(width: usize) -> TernaryWord {
    (0..width)
        .map(|i| {
            if i % 2 == 0 {
                Ternary::One
            } else {
                Ternary::Zero
            }
        })
        .collect()
}

/// Runs the transistor-level calibration for one `(design, width)` pair.
///
/// # Errors
///
/// Propagates simulation failures as [`CellError`].
pub fn calibrate_row(
    kind: DesignKind,
    card: &TechCard,
    geometry: &Geometry,
    timing: &SearchTiming,
    width: usize,
) -> Result<RowCalibration, CellError> {
    let design = kind.instantiate();
    let sl_gated = !design.features().sl_return_to_zero;
    let mut row = RowTestbench::new(design, card.clone(), geometry.clone(), width)?;
    let stored = calibration_word(width);
    row.program_word(&stored)?;

    // Energy vs mismatch count at a few representative points.
    let mut ks: Vec<usize> = vec![0, 1];
    for k in [2, width / 4, width / 2, width] {
        if k > 1 && k <= width && !ks.contains(&k) {
            ks.push(k);
        }
    }
    ks.sort_unstable();
    let mut energy_vs_mismatches = Vec::with_capacity(ks.len());
    let mut t_match = 0.0;
    let mut t_mismatch_1 = 0.0;
    let mut margin_match = 0.0;
    let mut margin_mismatch_1 = 0.0;
    let mut energy_sl_match = 0.0;
    let mut stages_match: Vec<ftcam_cells::StageOutcome> = Vec::new();
    let mut stages_miss: Vec<ftcam_cells::StageOutcome> = Vec::new();
    for &k in &ks {
        let query = stored.with_spread_mismatches(k);
        // Warm the state once so the first measured search is steady-state
        // too (the testbench already double-cycles internally).
        let outcome = row.search(&query, timing)?;
        if outcome.matched != (k == 0) {
            return Err(CellError::CalibrationDecisionError {
                design: kind.key().to_string(),
                width,
                mismatches: k,
            });
        }
        energy_vs_mismatches.push((k, outcome.energy_total));
        if k == 0 {
            t_match = outcome.latency;
            margin_match = outcome.sense_margin;
            energy_sl_match = outcome.energy_sl;
            stages_match = outcome.stages.clone();
        }
        if k == 1 {
            t_mismatch_1 = outcome.latency;
            margin_mismatch_1 = outcome.sense_margin;
            stages_miss = outcome.stages.clone();
        }
    }

    // SL energy per definite digit: from the sweep's k = 0 search of a RZ
    // design the SL component divides by the number of definite digits. A
    // gated design's steady-state window sees settled SL levels, so the cost
    // of toggling a line is the RZ-equivalent line energy.
    let e_sl_per_definite_bit = if sl_gated {
        estimate_line_energy(card, geometry, row.design().area_f2())
    } else {
        energy_sl_match / width as f64
    };

    // Per-stage calibration (trivial single entry for flat designs).
    let stages = build_stage_calibration(width, &stages_match, &stages_miss, timing);

    // Write energy for NVM designs. The write follows the search phase's
    // step-control policy so adaptive runs speed up calibration too.
    let e_write_per_bit = if row.design().supports_transient_write() {
        let write_timing = ftcam_cells::WriteTiming::default().with_step_control(timing.step);
        let out = row.write_word(&stored, &write_timing)?;
        Some(out.energy_total / width as f64)
    } else {
        None
    };

    Ok(RowCalibration {
        kind,
        width,
        energy_vs_mismatches,
        t_match,
        t_mismatch_1,
        margin_match,
        margin_mismatch_1,
        e_sl_per_definite_bit,
        sl_gated,
        stages,
        e_write_per_bit,
    })
}

/// One toggled search-line's charge energy `C_line·V_DD²` from first
/// principles (wire share + two FeFET gate loads + driver).
fn estimate_line_energy(card: &TechCard, geometry: &Geometry, area_f2: f64) -> f64 {
    let c_line = geometry.sl_wire_cap_per_cell(area_f2) + card.fefet.mosfet.cgs() * 2.0;
    c_line * card.vdd * card.vdd
}

fn build_stage_calibration(
    width: usize,
    stages_match: &[ftcam_cells::StageOutcome],
    stages_miss: &[ftcam_cells::StageOutcome],
    timing: &SearchTiming,
) -> Vec<StageCalibration> {
    if stages_match.is_empty() {
        return Vec::new();
    }
    let n = stages_match.len();
    let seg_width = width.div_ceil(n);
    stages_match
        .iter()
        .enumerate()
        .map(|(s, m)| {
            let miss = stages_miss.iter().find(|st| st.segment == s);
            StageCalibration {
                width: seg_width.min(width - s * seg_width),
                e_match: m.energy,
                e_mismatch: miss.map_or(m.energy, |st| st.energy),
                t_match: m.latency,
                t_mismatch: miss.map_or(timing.t_precharge, |st| st.latency),
            }
        })
        .collect()
}

/// Number of lock shards in [`CalibrationCache`]; a small power of two is
/// plenty since there are at most designs × widths distinct keys.
const CACHE_SHARDS: usize = 16;

type Slot = Arc<OnceLock<Result<RowCalibration, CellError>>>;

ftcam_circuit::counters! {
    /// A point-in-time snapshot of [`CalibrationCache`] activity counters.
    pub struct CacheStats, ledger CacheCounters {
        /// Lookups answered from an already-initialised slot.
        hits,
        /// Lookups that found no initialised slot for their key.
        misses,
        /// Misses that blocked on a calibration already in flight on another
        /// thread instead of starting their own.
        dedup_waits,
        /// Calibrations actually executed (exactly once per cold key).
        calibrations,
        /// Wall-clock nanoseconds spent inside `calibrate_row`.
        calibrate_nanos,
    }
}

/// A concurrency-safe cache of row calibrations keyed by `(design, width)`.
///
/// The card, geometry and timing are fixed at construction; calibrations
/// are computed lazily on first access and shared afterwards.
///
/// Internally the key space is split across `CACHE_SHARDS` mutex-guarded
/// shards so concurrent lookups of different keys rarely contend, and each
/// key maps to an `Arc<OnceLock<..>>` slot so concurrent lookups of the
/// *same* cold key block on one in-flight calibration instead of running
/// it redundantly. Errors are cached too: a `(design, width)` pair that
/// fails calibration fails identically on every later lookup without
/// re-simulating.
#[derive(Debug)]
pub struct CalibrationCache {
    card: TechCard,
    geometry: Geometry,
    timing: SearchTiming,
    shards: [Mutex<HashMap<(DesignKind, usize), Slot>>; CACHE_SHARDS],
    counters: CacheCounters,
}

impl CalibrationCache {
    /// Creates an empty cache bound to the given technology and timing.
    pub fn new(card: TechCard, geometry: Geometry, timing: SearchTiming) -> Self {
        Self {
            card,
            geometry,
            timing,
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            counters: CacheCounters::new(),
        }
    }

    /// The technology card the cache calibrates against.
    pub fn card(&self) -> &TechCard {
        &self.card
    }

    /// The search timing used for calibration.
    pub fn timing(&self) -> &SearchTiming {
        &self.timing
    }

    /// A snapshot of the activity counters.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    fn shard(&self, key: &(DesignKind, usize)) -> &Mutex<HashMap<(DesignKind, usize), Slot>> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[hasher.finish() as usize % CACHE_SHARDS]
    }

    /// Returns (computing if necessary) the calibration for a design/width.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures as [`CellError`]. Failures are
    /// cached, so repeated lookups of a failing key return the original
    /// error without re-running the simulation.
    pub fn get(&self, kind: DesignKind, width: usize) -> Result<RowCalibration, CellError> {
        let key = (kind, width);
        let (slot, owner) = {
            // A panic inside a calibration poisons only that shard's lock;
            // the map it guards is still structurally sound (the panicking
            // holder at most inserted an unfinished slot, and unfinished
            // slots are re-initialised below), so recover instead of
            // wedging every later lookup that hashes here.
            let mut shard = self
                .shard(&key)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match shard.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot: Slot = Arc::new(OnceLock::new());
                    shard.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        // The shard lock is already released: a long calibration never
        // blocks lookups of other keys, only of this slot.
        if let Some(done) = slot.get() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return done.clone();
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        if !owner {
            self.counters.dedup_waits.fetch_add(1, Ordering::Relaxed);
        }
        slot.get_or_init(|| {
            // `get_or_init` guarantees exactly one closure run per slot;
            // every other thread blocks here until it finishes.
            self.counters.calibrations.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let result = calibrate_row(kind, &self.card, &self.geometry, &self.timing, width);
            self.counters
                .calibrate_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            result
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_mismatches_controls_count_without_front_bias() {
        let w = calibration_word(16);
        for k in [1usize, 2, 4, 8] {
            let q = w.with_spread_mismatches(k);
            assert_eq!(w.mismatch_count(&q), k, "k = {k}");
        }
        // k = 1 does not flip position 0 (the front-bias check).
        let q1 = w.with_spread_mismatches(1);
        assert_eq!(q1.get(0), w.get(0));
    }

    #[test]
    fn interpolation_between_measured_points() {
        let calib = RowCalibration {
            kind: DesignKind::FeFet2T,
            width: 8,
            energy_vs_mismatches: vec![(0, 1.0), (1, 3.0), (4, 6.0)],
            t_match: 1e-9,
            t_mismatch_1: 0.5e-9,
            margin_match: 0.2,
            margin_mismatch_1: 0.2,
            e_sl_per_definite_bit: 0.1,
            sl_gated: false,
            stages: Vec::new(),
            e_write_per_bit: None,
        };
        assert_eq!(calib.row_energy(0), 1.0);
        assert_eq!(calib.row_energy(1), 3.0);
        assert_eq!(calib.row_energy(2), 4.0);
        assert_eq!(calib.row_energy(4), 6.0);
        assert_eq!(calib.row_energy(99), 6.0);
    }

    #[test]
    fn calibrate_small_fefet_row() {
        let calib = calibrate_row(
            DesignKind::FeFet2T,
            &TechCard::hp45(),
            &Geometry::default(),
            &SearchTiming::fast(),
            8,
        )
        .unwrap();
        assert_eq!(calib.width, 8);
        assert!(calib.row_energy(1) > calib.row_energy(0));
        assert!(calib.margin_match > 0.0, "margin {}", calib.margin_match);
        assert!(calib.margin_mismatch_1 > 0.0);
        assert!(calib.t_mismatch_1 < calib.t_match);
        assert!(calib.e_write_per_bit.unwrap() > 0.0);
        assert!(!calib.sl_gated);
    }

    #[test]
    fn cache_returns_identical_calibrations() {
        let cache =
            CalibrationCache::new(TechCard::hp45(), Geometry::default(), SearchTiming::fast());
        let a = cache.get(DesignKind::FeFet2T, 4).unwrap();
        let b = cache.get(DesignKind::FeFet2T, 4).unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.calibrations, 1);
        assert_eq!(stats.dedup_waits, 0);
        assert!(stats.calibrate_nanos > 0);
    }

    #[test]
    fn concurrent_cold_key_calibrates_exactly_once() {
        // The in-flight dedup contract: N threads racing on one cold key
        // must run ONE calibration; everyone else blocks on that slot.
        const THREADS: usize = 8;
        let cache =
            CalibrationCache::new(TechCard::hp45(), Geometry::default(), SearchTiming::fast());
        let barrier = std::sync::Barrier::new(THREADS);
        let results: Vec<RowCalibration> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get(DesignKind::FeFet2T, 4).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
        let stats = cache.stats();
        assert_eq!(stats.calibrations, 1, "exactly one calibration ran");
        assert_eq!(stats.hits + stats.misses, THREADS as u64);
        // Every thread that missed beyond the slot owner waited on the
        // in-flight calibration instead of starting its own.
        assert_eq!(stats.dedup_waits, stats.misses - 1);
    }

    #[test]
    fn failed_calibrations_are_cached_and_counted_once() {
        // Width 0 fails in calibrate_row; the error must be cached like a
        // success (one calibration, later lookups are hits).
        let cache =
            CalibrationCache::new(TechCard::hp45(), Geometry::default(), SearchTiming::fast());
        let first = cache.get(DesignKind::FeFet2T, 0).unwrap_err();
        let second = cache.get(DesignKind::FeFet2T, 0).unwrap_err();
        assert_eq!(format!("{first}"), format!("{second}"));
        let stats = cache.stats();
        assert_eq!(stats.calibrations, 1);
        assert_eq!(stats.hits, 1);
    }
}
