//! Synthetic packet-classification (ACL) workload.
//!
//! Rules are 5-tuple-style: source prefix, destination prefix, source port,
//! destination port and protocol, concatenated into one ternary word. Field
//! wildcarding follows the shape of published ClassBench-style rule sets:
//! ports are usually wildcarded or exact, protocols mostly TCP/UDP/any.
//!
//! Headers obey the seed contract of [`crate::stream`]: the rule table is a
//! pure function of the parameters, and header `i` is a pure function of
//! the parameters and `i`, so chunked or multi-threaded replay reproduces
//! the serial stream exactly.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::model::TcamTable;
use crate::stream::{derive_seed, QuerySource, QUERY_DOMAIN};
use crate::ternary::{Ternary, TernaryWord};
use crate::Workload;

/// Parameters for [`PacketClassifierWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct PacketClassifierParams {
    /// Number of classifier rules.
    pub rules: usize,
    /// Number of packet headers to classify.
    pub queries: usize,
    /// Bits per IP-address field (scaled-down headers keep testbenches
    /// tractable; 8–32).
    pub addr_bits: usize,
    /// Bits per port field.
    pub port_bits: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PacketClassifierParams {
    fn default() -> Self {
        Self {
            rules: 64,
            queries: 256,
            addr_bits: 16,
            port_bits: 8,
            seed: 0xAC1_F00D,
        }
    }
}

impl PacketClassifierParams {
    /// Total word width: two addresses, two ports, 4-bit protocol tag.
    pub fn width(&self) -> usize {
        2 * self.addr_bits + 2 * self.port_bits + 4
    }
}

/// Generator for synthetic ACL workloads.
#[derive(Debug, Clone)]
pub struct PacketClassifierWorkload {
    params: PacketClassifierParams,
}

impl PacketClassifierWorkload {
    /// Creates a generator with the given parameters.
    pub fn new(params: PacketClassifierParams) -> Self {
        Self { params }
    }

    /// Builds the rule table and a seed-stable header source for it.
    ///
    /// The table is a pure function of the parameters; the returned source
    /// derives header `i` purely from `(params, i)` per the
    /// [`crate::stream`] seed contract.
    pub fn build(&self) -> (TcamTable, PacketQuerySource) {
        let p = &self.params;
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
        let mut table = TcamTable::new(p.width());
        for _ in 0..p.rules {
            let mut digits = Vec::with_capacity(p.width());
            // Source/destination prefixes: length biased to medium/long.
            for _ in 0..2 {
                let len = rng.gen_range(p.addr_bits / 2..=p.addr_bits);
                let val: u64 = rng.gen();
                push_prefix(&mut digits, val, len, p.addr_bits);
            }
            // Ports: 60% wildcard, else exact.
            for _ in 0..2 {
                if rng.gen_bool(0.6) {
                    push_prefix(&mut digits, 0, 0, p.port_bits);
                } else {
                    let val: u64 = rng.gen();
                    push_prefix(&mut digits, val, p.port_bits, p.port_bits);
                }
            }
            // Protocol tag: any (X), TCP (0110) or UDP (1011).
            let proto = match rng.gen_range(0..3) {
                0 => vec![Ternary::X; 4],
                1 => bits(0b0110, 4),
                _ => bits(0b1011, 4),
            };
            digits.extend(proto);
            table.push(digits.into_iter().collect());
        }

        let source = PacketQuerySource {
            addr_bits: p.addr_bits,
            port_bits: p.port_bits,
            seed: p.seed,
        };
        (table, source)
    }

    /// Generates the rule table and header stream.
    pub fn generate(&self) -> Workload {
        let p = self.params.clone();
        let (table, source) = self.build();
        let queries = source.stream(0..p.queries as u64).collect();
        Workload {
            name: format!("packet-classification/{}x{}", p.rules, p.width()),
            table,
            queries,
        }
    }
}

/// Seed-stable packet-header source for a [`PacketClassifierWorkload`].
///
/// Headers are fully definite 5-tuples (random addresses and ports, TCP or
/// UDP protocol tag), derived per index.
#[derive(Debug, Clone)]
pub struct PacketQuerySource {
    addr_bits: usize,
    port_bits: usize,
    seed: u64,
}

impl QuerySource for PacketQuerySource {
    fn width(&self) -> usize {
        2 * self.addr_bits + 2 * self.port_bits + 4
    }

    fn query_at(&self, index: u64) -> TernaryWord {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(self.seed, QUERY_DOMAIN, index));
        let mut digits = Vec::with_capacity(self.width());
        for _ in 0..2 {
            let val: u64 = rng.gen();
            push_prefix(&mut digits, val, self.addr_bits, self.addr_bits);
        }
        for _ in 0..2 {
            let val: u64 = rng.gen();
            push_prefix(&mut digits, val, self.port_bits, self.port_bits);
        }
        let proto = if rng.gen_bool(0.5) {
            bits(0b0110, 4)
        } else {
            bits(0b1011, 4)
        };
        digits.extend(proto);
        digits.into_iter().collect()
    }
}

fn push_prefix(digits: &mut Vec<Ternary>, value: u64, len: usize, width: usize) {
    for i in 0..width {
        if i < len {
            digits.push(Ternary::from_bit(value >> (width - 1 - i) & 1 == 1));
        } else {
            digits.push(Ternary::X);
        }
    }
}

fn bits(value: u64, width: usize) -> Vec<Ternary> {
    (0..width)
        .rev()
        .map(|i| Ternary::from_bit(value >> i & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_combines_fields() {
        let p = PacketClassifierParams::default();
        assert_eq!(p.width(), 2 * 16 + 2 * 8 + 4);
    }

    #[test]
    fn rules_contain_wildcards_queries_do_not() {
        let w = PacketClassifierWorkload::new(PacketClassifierParams::default()).generate();
        assert!(w.table.rows().iter().any(|r| r.wildcard_count() > 0));
        assert!(w.queries.iter().all(|q| q.wildcard_count() == 0));
        assert_eq!(w.table.len(), 64);
        assert_eq!(w.queries.len(), 256);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PacketClassifierWorkload::new(PacketClassifierParams::default()).generate();
        let b = PacketClassifierWorkload::new(PacketClassifierParams::default()).generate();
        assert_eq!(a.table, b.table);
        let c = PacketClassifierWorkload::new(PacketClassifierParams {
            seed: 1,
            ..PacketClassifierParams::default()
        })
        .generate();
        assert_ne!(a.table, c.table);
    }
}
