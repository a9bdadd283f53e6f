//! Prefix-stride bucket index over a bit-plane table.
//!
//! Routing and classifier tables are overwhelmingly prefix-shaped: the top
//! digits of almost every row are definite. The index buckets rows by the
//! value of their top `K` digits (`2^K` buckets). A row with up to
//! [`MAX_EXPAND_BITS`] wildcard digits inside the top `K` is replicated into
//! every bucket it can match; rows more wildcarded than that go into a small
//! shared sub-table consulted on every lookup. A query whose top `K` digits
//! are all definite then only scans `bucket ∪ shared` — typically a couple
//! of 64-row blocks — instead of the whole table. Queries with an `X` in
//! the top `K` fall back to the caller's full scan.
//!
//! Buckets store *global* row ids in ascending order, so priority and LPM
//! semantics are identical to the full scan.

use ftcam_workloads::{TcamTable, Ternary};

use crate::query::PackedQuery;
use crate::table::BitPlaneTable;

/// Maximum number of wildcard digits in the top `K` a row may have and
/// still be replicated into buckets (replication factor `2^bits`).
pub const MAX_EXPAND_BITS: usize = 4;

/// Hard cap on the stride, bounding the bucket directory at `2^14` entries.
const MAX_STRIDE: usize = 14;

/// Rows-per-bucket target used to size the stride.
const TARGET_BUCKET_ROWS: usize = 64;

/// A `2^K`-bucket prefix index over one table shard.
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    stride: usize,
    buckets: Vec<BitPlaneTable>,
    /// Rows too wildcarded in the top `K` to replicate; scanned on every
    /// indexed lookup.
    shared: BitPlaneTable,
}

impl PrefixIndex {
    /// Stride that targets ~`TARGET_BUCKET_ROWS` rows per bucket.
    pub fn stride_for(rows: usize, width: usize) -> usize {
        let mut k = 0usize;
        while k < MAX_STRIDE && k < width && (rows >> k) > TARGET_BUCKET_ROWS {
            k += 1;
        }
        k
    }

    /// Builds an index over the rows of `table` with ids in `ids`
    /// (ascending). Returns `None` when the stride degenerates to zero
    /// (table too small to be worth indexing).
    pub fn build(table: &TcamTable, ids: &[u32]) -> Option<Self> {
        let stride = Self::stride_for(ids.len(), table.width());
        if stride == 0 {
            return None;
        }
        let rows = table.rows();
        let mut bucket_ids: Vec<Vec<u32>> = vec![Vec::new(); 1 << stride];
        let mut shared_ids: Vec<u32> = Vec::new();
        for &gid in ids {
            let digits = rows[gid as usize].digits();
            // Wildcard positions within the top `stride` digits.
            let xs: Vec<usize> = (0..stride).filter(|&j| digits[j] == Ternary::X).collect();
            if xs.len() > MAX_EXPAND_BITS {
                shared_ids.push(gid);
                continue;
            }
            let mut base = 0usize;
            for &d in digits.iter().take(stride) {
                base = (base << 1) | usize::from(d == Ternary::One);
            }
            // Enumerate every assignment of the wildcard digits.
            for combo in 0..(1usize << xs.len()) {
                let mut key = base;
                for (b, &pos) in xs.iter().enumerate() {
                    if combo >> b & 1 == 1 {
                        key |= 1 << (stride - 1 - pos);
                    }
                }
                bucket_ids[key].push(gid);
            }
        }
        let buckets = bucket_ids
            .into_iter()
            .map(|ids| BitPlaneTable::from_row_ids(table, ids))
            .collect();
        Some(Self {
            stride,
            buckets,
            shared: BitPlaneTable::from_row_ids(table, shared_ids),
        })
    }

    /// The index stride `K`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The bucket + shared sub-tables covering `q`, or `None` when the
    /// query has a wildcard in the top `K` digits (caller must full-scan).
    #[inline]
    fn route(&self, q: &PackedQuery) -> Option<&BitPlaneTable> {
        q.top_value(self.stride).map(|key| &self.buckets[key])
    }

    /// Indexed priority search; `None` means "not routable, full-scan".
    pub fn first_match(&self, q: &PackedQuery) -> Option<Option<u32>> {
        let bucket = self.route(q)?;
        let a = bucket.first_match(q);
        let b = self.shared.first_match(q);
        Some(match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        })
    }

    /// Indexed match count; `None` means "not routable, full-scan".
    pub fn match_count(&self, q: &PackedQuery) -> Option<u64> {
        let bucket = self.route(q)?;
        Some(bucket.match_count(q) + self.shared.match_count(q))
    }

    /// Indexed LPM; `None` means "not routable, full-scan".
    pub fn lpm(&self, q: &PackedQuery) -> Option<Option<(u32, u16)>> {
        let bucket = self.route(q)?;
        let a = bucket.lpm(q);
        let b = self.shared.lpm(q);
        Some(match (a, b) {
            (Some((ga, wa)), Some((gb, wb))) => {
                if (wa, ga) <= (wb, gb) {
                    Some((ga, wa))
                } else {
                    Some((gb, wb))
                }
            }
            (x, y) => x.or(y),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_workloads::TernaryWord;

    fn prefix_table(rows: usize, width: usize) -> TcamTable {
        let mut t = TcamTable::new(width);
        for i in 0..rows {
            // Prefixes of varying length so some rows overlap.
            let len = 4 + (i % (width - 4));
            t.push(TernaryWord::prefix(i as u64, len, width));
        }
        t
    }

    #[test]
    fn indexed_lookups_agree_with_full_scan() {
        let t = prefix_table(600, 16);
        let full = BitPlaneTable::from_table(&t);
        let idx = PrefixIndex::build(&t, full.row_ids()).expect("stride > 0");
        assert!(idx.stride() > 0);
        for v in (0..1u64 << 16).step_by(97) {
            let q = PackedQuery::from_word(&TernaryWord::from_bits(v, 16));
            assert_eq!(idx.first_match(&q), Some(full.first_match(&q)), "v={v}");
            assert_eq!(idx.match_count(&q), Some(full.match_count(&q)), "v={v}");
            assert_eq!(idx.lpm(&q), Some(full.lpm(&q)), "v={v}");
        }
    }

    #[test]
    fn wildcard_top_bits_are_not_routable() {
        let t = prefix_table(600, 16);
        let full = BitPlaneTable::from_table(&t);
        let idx = PrefixIndex::build(&t, full.row_ids()).expect("stride > 0");
        let q = PackedQuery::from_word(&"XXXXXXXXXXXXXXXX".parse().unwrap());
        assert_eq!(idx.first_match(&q), None);
        assert_eq!(idx.lpm(&q), None);
    }

    #[test]
    fn heavily_wildcarded_rows_land_in_shared_subtable() {
        let mut t = TcamTable::new(16);
        // One catch-all row plus enough definite rows to force a stride.
        t.push(TernaryWord::all_x(16));
        for i in 0..500u64 {
            t.push(TernaryWord::from_bits(i, 16));
        }
        let full = BitPlaneTable::from_table(&t);
        let idx = PrefixIndex::build(&t, full.row_ids()).expect("stride > 0");
        // The catch-all must win priority for every query it matches.
        let q = PackedQuery::from_word(&TernaryWord::from_bits(42, 16));
        assert_eq!(idx.first_match(&q), Some(Some(0)));
        // But LPM prefers the exact row.
        assert_eq!(idx.lpm(&q), Some(Some((43, 0))));
    }

    #[test]
    fn tiny_tables_skip_indexing() {
        let t = prefix_table(10, 16);
        let full = BitPlaneTable::from_table(&t);
        assert!(PrefixIndex::build(&t, full.row_ids()).is_none());
    }
}
