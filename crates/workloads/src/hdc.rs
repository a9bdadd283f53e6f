//! Hyperdimensional-computing-style approximate-search workload.
//!
//! FeFET TCAM papers motivate a second application class beyond exact
//! networking lookups: associative memories for hyperdimensional computing
//! and few-shot learning, where queries are *noisy copies* of stored vectors
//! and the interesting statistic is the Hamming distance to the nearest
//! entry. This generator stores random binary class vectors and produces
//! queries by flipping each bit of a stored vector with probability
//! `noise`.
//!
//! Queries obey the seed contract of [`crate::stream`]: the stored vectors
//! are a pure function of the parameters, and query `i` (source class and
//! noise pattern) is a pure function of the parameters and `i`.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::model::TcamTable;
use crate::stream::{derive_seed, QuerySource, QUERY_DOMAIN};
use crate::ternary::{Ternary, TernaryWord};
use crate::Workload;

/// Parameters for [`HdcWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct HdcWorkloadParams {
    /// Number of stored class vectors (rows).
    pub classes: usize,
    /// Vector width in bits.
    pub width: usize,
    /// Number of queries.
    pub queries: usize,
    /// Per-bit flip probability applied to the source vector of each query.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HdcWorkloadParams {
    fn default() -> Self {
        Self {
            classes: 32,
            width: 64,
            queries: 256,
            noise: 0.05,
            seed: 0x4dc0,
        }
    }
}

/// Generator for noisy nearest-neighbour workloads.
#[derive(Debug, Clone)]
pub struct HdcWorkload {
    params: HdcWorkloadParams,
}

impl HdcWorkload {
    /// Creates a generator with the given parameters.
    pub fn new(params: HdcWorkloadParams) -> Self {
        Self { params }
    }

    /// Builds the stored class vectors and a seed-stable query source.
    ///
    /// The vectors are a pure function of the parameters; the returned
    /// source derives query `i` (source class and noise pattern) purely
    /// from `(params, i)` per the [`crate::stream`] seed contract.
    pub fn build(&self) -> (TcamTable, HdcQuerySource) {
        let p = &self.params;
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
        let mut table = TcamTable::new(p.width);
        let mut vectors: Vec<TernaryWord> = Vec::with_capacity(p.classes);
        for _ in 0..p.classes {
            let v: TernaryWord = (0..p.width).map(|_| Ternary::from_bit(rng.gen())).collect();
            vectors.push(v.clone());
            table.push(v);
        }
        let source = HdcQuerySource {
            width: p.width,
            noise: p.noise.clamp(0.0, 1.0),
            seed: p.seed,
            vectors,
        };
        (table, source)
    }

    /// Generates stored class vectors and noisy queries.
    pub fn generate(&self) -> Workload {
        let p = self.params.clone();
        let (table, source) = self.build();
        let queries = source.stream(0..p.queries as u64).collect();
        Workload {
            name: format!("hdc/{}x{} p={}", p.classes, p.width, p.noise),
            table,
            queries,
        }
    }
}

/// Seed-stable noisy-query source for an [`HdcWorkload`].
///
/// Each query picks a stored class vector and flips each bit with the
/// configured noise probability, all derived per index.
#[derive(Debug, Clone)]
pub struct HdcQuerySource {
    width: usize,
    noise: f64,
    seed: u64,
    vectors: Vec<TernaryWord>,
}

impl QuerySource for HdcQuerySource {
    fn width(&self) -> usize {
        self.width
    }

    fn query_at(&self, index: u64) -> TernaryWord {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(self.seed, QUERY_DOMAIN, index));
        let src = &self.vectors[rng.gen_range(0..self.vectors.len())];
        src.iter()
            .map(|d| {
                if rng.gen_bool(self.noise) {
                    d.complement()
                } else {
                    d
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HdcWorkloadParams {
        HdcWorkloadParams {
            classes: 16,
            width: 32,
            queries: 64,
            noise: 0.1,
            seed: 7,
        }
    }

    #[test]
    fn queries_are_near_some_stored_vector() {
        let w = HdcWorkload::new(params()).generate();
        for q in &w.queries {
            let min_dist = w
                .table
                .rows()
                .iter()
                .map(|r| r.mismatch_count(q))
                .min()
                .unwrap();
            // With p = 0.1 over 32 bits, distance to the source class stays
            // well below half the width (≈ random distance).
            assert!(min_dist <= 10, "nearest distance {min_dist}");
        }
    }

    #[test]
    fn zero_noise_queries_match_exactly() {
        let mut p = params();
        p.noise = 0.0;
        let w = HdcWorkload::new(p).generate();
        assert!(w.queries.iter().all(|q| w.table.search(q).is_some()));
    }

    #[test]
    fn histogram_shows_near_and_far_mass() {
        let w = HdcWorkload::new(params()).generate();
        let h = w.mismatch_histogram();
        // Mean over all (query, row) pairs is dominated by non-source rows
        // at ≈ width/2.
        assert!(h.mean() > 8.0, "mean {}", h.mean());
        // But there is mass near zero from the source rows.
        let near: f64 = (0..=6).map(|k| h.fraction(k)).sum();
        assert!(near > 0.02, "near-mass {near}");
    }
}
