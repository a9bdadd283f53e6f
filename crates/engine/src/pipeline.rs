//! Batched, sharded replay through the `ftcam-core` executor.
//!
//! The stream is processed in batches. Per batch, search-line toggle
//! tracking runs serially (toggles are a stream property — they chain
//! across batch boundaries through the previous query). The per-shard table
//! scans — the `O(rows)` part — fan out through
//! [`Executor`], one job per shard, and the per-query
//! partial outcomes are merged **in shard order** and recorded **in query
//! order**, so the accumulated [`EngineStats`] are bit-identical to a
//! serial [`crate::ReplaySession`] for every thread count; only
//! `wall_nanos` differs.

use std::convert::Infallible;
use std::time::Instant;

use ftcam_core::Executor;
use ftcam_workloads::TernaryWord;

use crate::engine::{EngineStats, QueryOutcome, TcamEngine};

/// Default queries per batch.
pub const DEFAULT_BATCH: usize = 256;

/// Replays `queries` against `engine`, fanning per-shard scans out over
/// `exec`. Returns stats identical (modulo `wall_nanos`) to feeding the
/// same stream through [`TcamEngine::session`].
pub fn replay(
    engine: &TcamEngine,
    queries: &[TernaryWord],
    exec: &Executor,
    batch: usize,
) -> EngineStats {
    let started = Instant::now();
    let batch = batch.max(1);
    let shards = engine.shards();
    let shard_ids: Vec<usize> = (0..shards.len()).collect();
    let mut stats = EngineStats::new(engine.designs());
    let mut prev: Option<&TernaryWord> = None;
    let mut base = 0u64;
    for chunk in queries.chunks(batch) {
        // Serial prologue: chain toggles through the batch, starting from
        // the last query of the previous batch.
        let previous = std::iter::once(prev).chain(chunk.iter().map(Some));
        let toggles: Vec<usize> = chunk
            .iter()
            .zip(previous)
            .map(|(q, p)| q.sl_toggles(p))
            .collect();
        // Fan out: one job per shard, each scanning the whole batch.
        let result: Result<Vec<Vec<QueryOutcome>>, Infallible> = exec.run(&shard_ids, |_, &s| {
            let shard = &shards[s];
            Ok(chunk
                .iter()
                .enumerate()
                .map(|(j, q)| shard.outcome(q, engine.is_metered(base + j as u64)))
                .collect())
        });
        let parts = match result {
            Ok(parts) => parts,
            Err(never) => match never {},
        };
        // Merge shard partials per query (shard order), record (query
        // order) — the same fold order as the serial session.
        for (j, q) in chunk.iter().enumerate() {
            let mut merged = QueryOutcome::default();
            for shard_part in &parts {
                merged.merge(&shard_part[j]);
            }
            stats.record(&merged, q.definite_count(), toggles[j], engine.designs());
        }
        base += chunk.len() as u64;
        prev = chunk.last();
    }
    stats.wall_nanos = started.elapsed().as_nanos() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Metering;
    use crate::engine::EngineConfig;
    use ftcam_workloads::TcamTable;

    fn strip_wall(mut s: EngineStats) -> EngineStats {
        s.wall_nanos = 0;
        s
    }

    #[test]
    fn pipeline_equals_session_for_any_thread_and_shard_count() {
        let mut table = TcamTable::new(12);
        for i in 0..500u64 {
            table.push(TernaryWord::prefix(i, 4 + (i % 9) as usize, 12));
        }
        let queries: Vec<TernaryWord> = (0..300u64)
            .map(|i| TernaryWord::from_bits(i.wrapping_mul(2654435761) % 4096, 12))
            .collect();
        for metering in [Metering::Exact, Metering::Sampled { period: 7 }] {
            for shard_count in [1, 3] {
                let engine = TcamEngine::new(
                    &table,
                    EngineConfig {
                        shards: shard_count,
                        metering,
                        index_min_rows: 64,
                    },
                );
                let mut session = engine.session();
                session.replay(&queries);
                let serial = strip_wall(session.finish());
                for threads in [1, 2, 4] {
                    let exec = Executor::new(threads);
                    let piped = strip_wall(replay(&engine, &queries, &exec, 64));
                    assert_eq!(
                        piped, serial,
                        "metering {metering:?}, {shard_count} shards, {threads} threads"
                    );
                }
            }
        }
    }

    /// Metering changes only the energy estimate: the match statistics
    /// come from the histogram on metered queries and from the match
    /// count on skipped ones, and both must give the same answers, with
    /// and without the prefix index.
    #[test]
    fn functional_stats_are_equal_across_metering_modes() {
        // Rows sit in the lower half of the key space, so queries with a
        // leading 1 miss. Every hundredth row is the one-digit prefix `0`,
        // too wildcarded for the unsharded index's buckets, so it lands in
        // the index's shared sub-table.
        let mut table = TcamTable::new(12);
        for i in 0..2100u64 {
            let len = if i % 100 == 0 {
                1
            } else {
                4 + (i % 9) as usize
            };
            table.push(TernaryWord::prefix(i * 2 % 2048, len, 12));
        }
        // Every fifth query has an X in its top digits, which the prefix
        // index cannot bucket, so the full scan answers it.
        let queries: Vec<TernaryWord> = (0..300u64)
            .map(|i| {
                let bits = format!("{:012b}", i.wrapping_mul(2654435761) % 4096);
                let word = if i % 5 == 0 {
                    format!("X{}", &bits[1..])
                } else {
                    bits
                };
                word.parse().unwrap()
            })
            .collect();
        let exec = Executor::new(2);
        let mut reference: Option<EngineStats> = None;
        for index_min_rows in [64, usize::MAX] {
            for shards in [1, 3] {
                for metering in [Metering::Exact, Metering::Sampled { period: 3 }] {
                    let engine = TcamEngine::new(
                        &table,
                        EngineConfig {
                            shards,
                            metering,
                            index_min_rows,
                        },
                    );
                    assert_eq!(engine.is_indexed(), index_min_rows == 64);
                    let stats = replay(&engine, &queries, &exec, 64);
                    let expected_metered = match metering {
                        Metering::Exact => 300,
                        Metering::Sampled { .. } => 100,
                    };
                    assert_eq!(stats.metered_queries, expected_metered);
                    let reference = reference.get_or_insert_with(|| stats.clone());
                    let case = format!("{metering:?}, {shards} shards, index {index_min_rows}");
                    assert_eq!(stats.queries, reference.queries, "{case}");
                    assert_eq!(stats.hits, reference.hits, "{case}");
                    assert_eq!(stats.total_matches, reference.total_matches, "{case}");
                    assert_eq!(stats.match_hist, reference.match_hist, "{case}");
                    assert_eq!(stats.sl_toggles, reference.sl_toggles, "{case}");
                }
            }
        }
        let reference = reference.unwrap();
        assert!(reference.hits > 0 && reference.hits < reference.queries);
        assert!(
            reference.total_matches > reference.hits,
            "some queries match several rows"
        );
    }
}
