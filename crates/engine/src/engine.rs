//! The calibrated TCAM engine: sharded bit-plane storage, query answering
//! and the serial metered replay session.

use ftcam_array::RowCalibration;
use ftcam_cells::DesignKind;
use ftcam_workloads::{TcamTable, TernaryWord};

use crate::cost::{CostModel, Metering};
use crate::index::PrefixIndex;
use crate::table::BitPlaneTable;

/// Number of match-count buckets in [`EngineStats::match_hist`]; the last
/// bucket collects queries with `>= MATCH_HIST_BUCKETS - 1` matches.
pub const MATCH_HIST_BUCKETS: usize = 9;

/// Engine construction options.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of contiguous row shards (parallel replay fan-out width).
    /// A fixed parameter — never derived from the thread count — so stats
    /// are identical however many threads execute the shards.
    pub shards: usize,
    /// Energy metering mode for replay sessions.
    pub metering: Metering,
    /// Build a prefix-stride index for shards with at least this many rows.
    pub index_min_rows: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            metering: Metering::Exact,
            index_min_rows: 4096,
        }
    }
}

/// One contiguous row shard: bit-plane storage plus an optional index.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub(crate) table: BitPlaneTable,
    pub(crate) index: Option<PrefixIndex>,
}

/// Merged (or per-shard) outcome of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct QueryOutcome {
    /// Lowest matching global row id.
    pub(crate) first: Option<u32>,
    /// Number of matching rows.
    pub(crate) matches: u64,
    /// Per-row mismatch histogram (metered queries only).
    pub(crate) hist: Option<Vec<u64>>,
}

impl QueryOutcome {
    /// Folds another shard's outcome into this one. Shards must be folded
    /// in ascending shard order so floating-point-free counts and the
    /// histograms merge deterministically.
    pub(crate) fn merge(&mut self, other: &QueryOutcome) {
        self.first = [self.first, other.first].into_iter().flatten().min();
        self.matches += other.matches;
        if let Some(o) = &other.hist {
            match &mut self.hist {
                Some(h) => {
                    for (a, b) in h.iter_mut().zip(o) {
                        *a += b;
                    }
                }
                None => self.hist = Some(o.clone()),
            }
        }
    }
}

impl Shard {
    /// Priority match within this shard.
    pub(crate) fn first_match(&self, q: &TernaryWord) -> Option<u32> {
        self.index
            .as_ref()
            .and_then(|idx| idx.first_match(q))
            .unwrap_or_else(|| self.table.first_match(q, 0))
    }

    /// Priority match and match count within this shard, from one scan.
    fn first_and_count(&self, q: &TernaryWord) -> (Option<u32>, u64) {
        self.index
            .as_ref()
            .and_then(|idx| idx.first_and_count(q))
            .unwrap_or_else(|| self.table.first_and_count(q, 0))
    }

    pub(crate) fn lpm(&self, q: &TernaryWord) -> Option<(u32, u16)> {
        self.index
            .as_ref()
            .and_then(|idx| idx.lpm(q))
            .unwrap_or_else(|| self.table.lpm(q, 0))
    }

    /// Evaluates one query; a metered query also gets its mismatch
    /// histogram.
    pub(crate) fn outcome(&self, q: &TernaryWord, metered: bool) -> QueryOutcome {
        if metered {
            let mut hist = vec![0u64; self.table.width() + 1];
            self.table.histogram_into(q, &mut hist);
            QueryOutcome {
                first: self.first_match(q),
                matches: hist.first().copied().unwrap_or(0),
                hist: Some(hist),
            }
        } else {
            let (first, matches) = self.first_and_count(q);
            QueryOutcome {
                first,
                matches,
                hist: None,
            }
        }
    }
}

/// Per-design replay statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignStats {
    /// The design.
    pub kind: DesignKind,
    /// Total metered energy over the metered queries (J).
    pub energy: f64,
    /// Modelled per-search latency of the array (s).
    pub latency: f64,
}

/// Statistics of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Queries replayed.
    pub queries: u64,
    /// Queries with at least one matching row.
    pub hits: u64,
    /// Total matching rows over all queries.
    pub total_matches: u64,
    /// Histogram of per-query match counts; the last bucket collects
    /// queries with `>= 8` matches.
    pub match_hist: [u64; MATCH_HIST_BUCKETS],
    /// Queries the energy model actually metered (equals `queries` except
    /// under [`Metering::Sampled`]).
    pub metered_queries: u64,
    /// Total search-line pair transitions over the stream.
    pub sl_toggles: u64,
    /// Per-design energy/latency, one entry per registered design.
    pub per_design: Vec<DesignStats>,
    /// Wall-clock nanoseconds of the replay (scheduling-dependent; every
    /// other field is thread-count-invariant).
    pub wall_nanos: u64,
}

impl EngineStats {
    pub(crate) fn new(designs: &[CostModel]) -> Self {
        Self {
            queries: 0,
            hits: 0,
            total_matches: 0,
            match_hist: [0; MATCH_HIST_BUCKETS],
            metered_queries: 0,
            sl_toggles: 0,
            per_design: designs
                .iter()
                .map(|d| DesignStats {
                    kind: d.kind(),
                    energy: 0.0,
                    latency: d.search_latency(),
                })
                .collect(),
            wall_nanos: 0,
        }
    }

    /// Replay throughput from the recorded wall clock.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.queries as f64 / (self.wall_nanos as f64 * 1e-9)
    }

    /// Mean metered energy per query (J) for one design, if registered.
    /// Under sampled metering this is the mean over the metered sample —
    /// the estimator for the full stream.
    pub fn energy_per_query(&self, kind: DesignKind) -> Option<f64> {
        let d = self.per_design.iter().find(|d| d.kind == kind)?;
        if self.metered_queries == 0 {
            return None;
        }
        Some(d.energy / self.metered_queries as f64)
    }

    /// Mean metered energy per query in picojoules.
    pub fn pj_per_query(&self, kind: DesignKind) -> Option<f64> {
        self.energy_per_query(kind).map(|e| e * 1e12)
    }

    /// Folds one merged query outcome into the stats. Must be called in
    /// query order with shard-order-merged outcomes so the floating-point
    /// energy accumulation is identical for every execution schedule.
    ///
    /// An outcome without a histogram (a skipped query of a
    /// [`Metering::Sampled`] stream) updates the match statistics only.
    pub(crate) fn record(
        &mut self,
        outcome: &QueryOutcome,
        definite: usize,
        toggles: usize,
        designs: &[CostModel],
    ) {
        self.queries += 1;
        self.sl_toggles += toggles as u64;
        if outcome.first.is_some() {
            self.hits += 1;
        }
        self.total_matches += outcome.matches;
        let bucket = (outcome.matches as usize).min(MATCH_HIST_BUCKETS - 1);
        self.match_hist[bucket] += 1;
        let Some(hist) = &outcome.hist else {
            return;
        };
        self.metered_queries += 1;
        for (model, d) in designs.iter().zip(&mut self.per_design) {
            d.energy += model.energy_from_hist(hist, definite, toggles);
        }
    }
}

/// A calibrated, sharded, bit-parallel TCAM search engine.
///
/// Build one from a [`TcamTable`], register designs via
/// [`TcamEngine::with_design`], then answer ad-hoc queries or replay a
/// stream through a [`ReplaySession`] (serial) or
/// [`crate::pipeline::replay`] (sharded, executor fan-out).
#[derive(Debug, Clone)]
pub struct TcamEngine {
    width: usize,
    rows: usize,
    config: EngineConfig,
    shards: Vec<Shard>,
    designs: Vec<CostModel>,
}

impl TcamEngine {
    /// Packs `table` into `config.shards` contiguous bit-plane shards.
    pub fn new(table: &TcamTable, config: EngineConfig) -> Self {
        let rows = table.len();
        let n = config.shards.max(1);
        let shards = (0..n)
            .map(|s| {
                let lo = s * rows / n;
                let hi = (s + 1) * rows / n;
                let bp = BitPlaneTable::from_rows(table, lo..hi);
                let index = if bp.len() >= config.index_min_rows {
                    PrefixIndex::build(table, bp.row_ids())
                } else {
                    None
                };
                Shard { table: bp, index }
            })
            .collect();
        Self {
            width: table.width(),
            rows,
            config,
            shards,
            designs: Vec::new(),
        }
    }

    /// Registers a design's cost model, calibrated for this table's shape.
    ///
    /// # Panics
    ///
    /// Panics if the calibration width differs from the table width.
    #[must_use]
    pub fn with_design(mut self, calibration: &RowCalibration) -> Self {
        assert_eq!(
            calibration.width, self.width,
            "calibration width {} != table width {}",
            calibration.width, self.width
        );
        self.designs.push(CostModel::from_calibration(
            calibration.kind,
            calibration,
            self.rows,
        ));
        self
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stored row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Registered cost models, in registration order.
    pub fn designs(&self) -> &[CostModel] {
        &self.designs
    }

    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// `true` if any shard carries a prefix index.
    pub fn is_indexed(&self) -> bool {
        self.shards.iter().any(|s| s.index.is_some())
    }

    /// Unmetered priority search (lowest matching row index).
    pub fn search(&self, query: &TernaryWord) -> Option<u32> {
        self.shards
            .iter()
            .filter_map(|s| s.first_match(query))
            .min()
    }

    /// Unmetered longest-prefix match (fewest wildcards, ties to lowest
    /// row index).
    pub fn lpm(&self, query: &TernaryWord) -> Option<u32> {
        self.shards
            .iter()
            .filter_map(|s| s.lpm(query))
            .min_by_key(|&(gid, wc)| (wc, gid))
            .map(|(gid, _)| gid)
    }

    /// Number of rows matching `query`.
    pub fn match_count(&self, query: &TernaryWord) -> u64 {
        self.shards.iter().map(|s| s.first_and_count(query).1).sum()
    }

    /// Row with the fewest mismatches against `query` (nearest-Hamming).
    pub fn nearest(&self, query: &TernaryWord) -> Option<(u32, u32)> {
        self.shards
            .iter()
            .filter_map(|s| s.table.nearest(query))
            .min_by_key(|&(gid, k)| (k, gid))
    }

    /// Whether query number `index` of a stream is metered (gets a
    /// mismatch histogram and contributes to the energy estimate).
    pub(crate) fn is_metered(&self, index: u64) -> bool {
        match self.config.metering {
            Metering::Exact => true,
            Metering::Sampled { period } => index.is_multiple_of(period.max(1)),
        }
    }

    /// Evaluates one query across all shards, merged in shard order.
    pub(crate) fn evaluate(&self, q: &TernaryWord, index: u64) -> QueryOutcome {
        let metered = self.is_metered(index);
        let mut merged = QueryOutcome::default();
        for s in &self.shards {
            merged.merge(&s.outcome(q, metered));
        }
        merged
    }

    /// Starts a serial metered replay session.
    pub fn session(&self) -> ReplaySession<'_> {
        ReplaySession {
            engine: self,
            prev: None,
            index: 0,
            stats: EngineStats::new(&self.designs),
            started: std::time::Instant::now(),
        }
    }
}

/// A serial metered replay: feed queries in stream order, read the
/// accumulated [`EngineStats`] at the end. The parallel pipeline
/// ([`crate::pipeline::replay`]) produces bit-identical stats (except
/// `wall_nanos`) for any shard/thread configuration.
#[derive(Debug)]
pub struct ReplaySession<'a> {
    engine: &'a TcamEngine,
    prev: Option<TernaryWord>,
    index: u64,
    stats: EngineStats,
    started: std::time::Instant,
}

impl ReplaySession<'_> {
    /// Replays one query; returns the priority-match row id.
    pub fn query(&mut self, word: &TernaryWord) -> Option<u32> {
        let toggles = word.sl_toggles(self.prev.as_ref());
        let outcome = self.engine.evaluate(word, self.index);
        self.stats.record(
            &outcome,
            word.definite_count(),
            toggles,
            &self.engine.designs,
        );
        self.prev = Some(word.clone());
        self.index += 1;
        outcome.first
    }

    /// Replays every query of an iterator.
    pub fn replay<'w>(&mut self, words: impl IntoIterator<Item = &'w TernaryWord>) {
        for w in words {
            self.query(w);
        }
    }

    /// Finishes the session, stamping the wall clock.
    pub fn finish(mut self) -> EngineStats {
        self.stats.wall_nanos = self.started.elapsed().as_nanos() as u64;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[&str]) -> TcamTable {
        let mut t = TcamTable::new(rows[0].len());
        for r in rows {
            t.push(r.parse().unwrap());
        }
        t
    }

    #[test]
    fn engine_agrees_with_golden_model_across_shard_counts() {
        let t = table(&["1010", "10XX", "XXXX", "0101", "111X", "0000"]);
        for shards in [1, 2, 3, 4] {
            let engine = TcamEngine::new(
                &t,
                EngineConfig {
                    shards,
                    ..EngineConfig::default()
                },
            );
            for q in ["1010", "1011", "0101", "0000", "1111", "XXXX"] {
                let word: TernaryWord = q.parse().unwrap();
                assert_eq!(
                    engine.search(&word),
                    t.search(&word).map(|i| i as u32),
                    "search {q} with {shards} shards"
                );
                assert_eq!(
                    engine.lpm(&word),
                    t.longest_prefix_match(&word).map(|i| i as u32),
                    "lpm {q} with {shards} shards"
                );
                assert_eq!(
                    engine.match_count(&word),
                    t.search_all(&word).len() as u64,
                    "count {q} with {shards} shards"
                );
            }
        }
    }

    #[test]
    fn empty_table_answers_nothing() {
        let engine = TcamEngine::new(&TcamTable::new(8), EngineConfig::default());
        let q: TernaryWord = "00000000".parse().unwrap();
        assert_eq!(engine.search(&q), None);
        assert_eq!(engine.lpm(&q), None);
        assert_eq!(engine.match_count(&q), 0);
        assert_eq!(engine.nearest(&q), None);
    }

    #[test]
    fn session_counts_hits_and_matches() {
        let t = table(&["1010", "10XX", "XXXX"]);
        let engine = TcamEngine::new(&t, EngineConfig::default());
        let mut session = engine.session();
        assert_eq!(session.query(&"1010".parse().unwrap()), Some(0));
        assert_eq!(session.query(&"0111".parse().unwrap()), Some(2));
        let stats = session.finish();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.total_matches, 4);
        assert_eq!(stats.match_hist[3], 1);
        assert_eq!(stats.match_hist[1], 1);
        // No designs registered: still metered (histograms computed).
        assert_eq!(stats.metered_queries, 2);
    }
}
