//! Synthetic IPv4 longest-prefix-match workload.
//!
//! The original paper motivates TCAMs with network routers; real routing
//! tables (RouteViews dumps) are not redistributable here, so this generator
//! synthesises tables with the well-documented shape of public BGP
//! snapshots: prefix lengths concentrated at /24 (~55%), /16–/23 (~35%),
//! with short prefixes rare. Queries are a mix of addresses covered by
//! table entries (hits) and uniform random addresses (mostly misses).
//!
//! Queries obey the seed contract of [`crate::stream`]: the table is a pure
//! function of the parameters, and query `i` is a pure function of the
//! parameters and `i`, so chunked or multi-threaded replay reproduces the
//! serial stream exactly.

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::model::TcamTable;
use crate::stream::{derive_seed, QuerySource, QUERY_DOMAIN};
use crate::ternary::TernaryWord;
use crate::Workload;

/// Parameters for [`IpRoutingWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct IpRoutingWorkloadParams {
    /// Number of routing-table entries.
    pub entries: usize,
    /// Number of lookup queries to generate.
    pub queries: usize,
    /// Fraction of queries guaranteed to hit some entry.
    pub hit_fraction: f64,
    /// Word width (32 for IPv4; other widths scale the prefix mix).
    pub width: usize,
    /// RNG seed (deterministic generation).
    pub seed: u64,
}

impl Default for IpRoutingWorkloadParams {
    fn default() -> Self {
        Self {
            entries: 64,
            queries: 256,
            hit_fraction: 0.7,
            width: 32,
            seed: 0x0520_0731,
        }
    }
}

/// Generator for synthetic longest-prefix-match workloads.
#[derive(Debug, Clone)]
pub struct IpRoutingWorkload {
    params: IpRoutingWorkloadParams,
}

impl IpRoutingWorkload {
    /// Creates a generator with the given parameters.
    pub fn new(params: IpRoutingWorkloadParams) -> Self {
        Self { params }
    }

    /// Builds the routing table and a seed-stable query source for it.
    ///
    /// The table is generated longest-prefix-first (priority search
    /// implements LPM); the returned source derives query `i` purely from
    /// `(params, i)` per the [`crate::stream`] seed contract.
    pub fn build(&self) -> (TcamTable, IpRoutingQuerySource) {
        let p = &self.params;
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
        // Prefix-length buckets modelled on public BGP snapshots, rescaled
        // to the configured width.
        let lengths: Vec<usize> = vec![8, 12, 16, 20, 22, 24, 28, 32]
            .into_iter()
            .map(|l| (l * p.width).div_ceil(32).min(p.width))
            .collect();
        let weights = [2.0, 3.0, 12.0, 10.0, 13.0, 55.0, 3.0, 2.0];
        let dist = WeightedIndex::new(weights).expect("static weights are valid");

        let entry_values: Vec<(u64, usize)> = (0..p.entries)
            .map(|_| {
                let len = lengths[dist.sample(&mut rng)];
                (rng.gen::<u64>() & width_mask(p.width), len)
            })
            .collect();
        // Rows go longest-prefix-first so priority search implements LPM;
        // the stable sort keeps generation order among equal lengths.
        let mut rows: Vec<(usize, u64, usize)> = entry_values
            .iter()
            .map(|&(value, len)| (p.width - len, value, len))
            .collect();
        rows.sort_by_key(|&(wildcards, ..)| wildcards);
        let mut table = TcamTable::new(p.width);
        table.extend(
            rows.into_iter()
                .map(|(_, value, len)| TernaryWord::prefix(value, len, p.width)),
        );

        let source = IpRoutingQuerySource {
            width: p.width,
            hit_fraction: p.hit_fraction.clamp(0.0, 1.0),
            seed: p.seed,
            entry_values,
        };
        (table, source)
    }

    /// Generates the table and query stream.
    pub fn generate(&self) -> Workload {
        let p = self.params.clone();
        let (table, source) = self.build();
        let queries = source.stream(0..p.queries as u64).collect();
        Workload {
            name: format!("ip-routing/{}x{}", p.entries, p.width),
            table,
            queries,
        }
    }
}

/// Seed-stable lookup-address source for an [`IpRoutingWorkload`] table.
///
/// Addresses are a mix of covered addresses (an entry's prefix with random
/// host bits) and uniform random addresses, decided per index.
#[derive(Debug, Clone)]
pub struct IpRoutingQuerySource {
    width: usize,
    hit_fraction: f64,
    seed: u64,
    entry_values: Vec<(u64, usize)>,
}

impl QuerySource for IpRoutingQuerySource {
    fn width(&self) -> usize {
        self.width
    }

    fn query_at(&self, index: u64) -> TernaryWord {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(self.seed, QUERY_DOMAIN, index));
        let addr = if !self.entry_values.is_empty() && rng.gen_bool(self.hit_fraction) {
            // Pick an entry and randomise the bits below its prefix.
            let (value, len) = self.entry_values[rng.gen_range(0..self.entry_values.len())];
            let noise: u64 = rng.gen::<u64>() & width_mask(self.width - len);
            let kept = value & !width_mask(self.width - len);
            kept | noise
        } else {
            rng.gen::<u64>() & width_mask(self.width)
        };
        TernaryWord::from_bits(addr, self.width)
    }
}

fn width_mask(bits: usize) -> u64 {
    if bits == 0 {
        0
    } else if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> IpRoutingWorkloadParams {
        IpRoutingWorkloadParams {
            entries: 32,
            queries: 128,
            hit_fraction: 0.8,
            width: 32,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = IpRoutingWorkload::new(params()).generate();
        let b = IpRoutingWorkload::new(params()).generate();
        assert_eq!(a.table, b.table);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn table_is_sorted_longest_prefix_first() {
        let w = IpRoutingWorkload::new(params()).generate();
        let wc: Vec<usize> = w.table.rows().iter().map(|r| r.wildcard_count()).collect();
        assert!(wc.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn hit_fraction_is_roughly_respected() {
        let w = IpRoutingWorkload::new(params()).generate();
        let hits = w
            .queries
            .iter()
            .filter(|q| w.table.search(q).is_some())
            .count();
        let frac = hits as f64 / w.queries.len() as f64;
        // Random misses can also hit short prefixes, so only a lower bound
        // is meaningful.
        assert!(frac >= 0.7, "hit fraction {frac}");
    }

    #[test]
    fn queries_are_definite_words() {
        let w = IpRoutingWorkload::new(params()).generate();
        assert!(w.queries.iter().all(|q| q.wildcard_count() == 0));
    }

    #[test]
    fn narrow_width_scales_prefixes() {
        let mut p = params();
        p.width = 16;
        let w = IpRoutingWorkload::new(p).generate();
        assert!(w.table.rows().iter().all(|r| r.width() == 16));
    }
}
