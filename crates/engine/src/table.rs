//! Bit-plane TCAM storage and the branch-free column kernels.
//!
//! Rows are grouped into blocks of 64. For each block the table stores, per
//! digit column, two `u64` planes: `care` (bit set where the stored digit is
//! definite) and `pattern` (bit set where it is `1`). Bit `r` of the plane
//! word addresses row `block * 64 + r` of this table.
//!
//! A column mismatches a row exactly when both sides are definite and their
//! bits differ, so one `u64` of per-column work resolves 64 rows at once:
//!
//! ```text
//! miss = care_plane & (pattern_plane ^ q_pattern)
//! ```
//!
//! for each definite query column, where `q_pattern` is the query's pattern
//! bit broadcast to all-zeros or all-ones; `X` query columns are never
//! visited. Searches keep an `alive` mask per block and stop scanning
//! columns as soon as it empties, which mirrors the dominant-case early
//! termination of a real match-line: most rows die within a few digits.
//! A scan may start past column 0 when the caller knows every row matches
//! the columns before it (a prefix-index bucket).
//!
//! Metered queries need every row's mismatch count, not just a match
//! mask. The same miss masks feed a bit-sliced counter per block: a tree
//! of carry-save adders sums eight columns at a time into the ones, twos
//! and fours planes and carries the eights into the planes above. The
//! histogram transposes the low eight planes into one count byte per row
//! through a 256-entry bit-spreading table and increments interleaved
//! sub-histograms; the nearest-Hamming query splits the row mask on the
//! planes, lowest count first.

use ftcam_workloads::{TcamTable, TernaryWord};

use crate::query::definite_from;

/// Rows per storage block (one `u64` plane word).
pub const BLOCK_ROWS: usize = 64;

/// A TCAM (sub-)table in bit-plane layout.
///
/// Row handles returned by the kernels are *global* ids: the table keeps the
/// original `TcamTable` index of every stored row, so sub-tables built from
/// a row subset (shards, index buckets) report ids in the parent table's
/// priority order.
#[derive(Debug, Clone)]
pub struct BitPlaneTable {
    width: usize,
    /// Global row ids, ascending — priority order is preserved.
    row_ids: Vec<u32>,
    /// Per-row wildcard counts (for LPM), parallel to `row_ids`.
    wildcards: Vec<u16>,
    /// `care[blk * width + col]`: definite-digit plane.
    care: Vec<u64>,
    /// `pattern[blk * width + col]`: stored-one plane.
    pattern: Vec<u64>,
}

impl BitPlaneTable {
    /// Packs every row of `table`.
    pub fn from_table(table: &TcamTable) -> Self {
        Self::from_rows(table, 0..table.len())
    }

    /// Packs the rows of `table` whose indices fall in `range` (ascending).
    pub fn from_rows(table: &TcamTable, range: std::ops::Range<usize>) -> Self {
        Self::from_row_ids(table, range.map(|i| i as u32))
    }

    /// Packs an arbitrary ascending row-id selection from `table`.
    pub fn from_row_ids(table: &TcamTable, ids: impl IntoIterator<Item = u32>) -> Self {
        let width = table.width();
        let row_ids: Vec<u32> = ids.into_iter().collect();
        debug_assert!(row_ids.windows(2).all(|w| w[0] < w[1]));
        let blocks = row_ids.len().div_ceil(BLOCK_ROWS);
        let mut t = Self {
            width,
            wildcards: Vec::with_capacity(row_ids.len()),
            care: vec![0; blocks * width],
            pattern: vec![0; blocks * width],
            row_ids,
        };
        let rows = table.rows();
        for (slot, &gid) in t.row_ids.iter().enumerate() {
            let word = &rows[gid as usize];
            let (blk, row_bit) = (slot / BLOCK_ROWS, 1u64 << (slot % BLOCK_ROWS));
            let base = blk * width;
            for (col, pattern) in definite_from(word.masks(), 0) {
                t.care[base + col] |= row_bit;
                t.pattern[base + col] |= row_bit & pattern;
            }
            t.wildcards.push(word.wildcard_count() as u16);
        }
        t
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// `true` if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Global row ids in storage (priority) order.
    pub fn row_ids(&self) -> &[u32] {
        &self.row_ids
    }

    /// Valid-row mask for block `blk` (handles the partial last block).
    #[inline]
    fn block_mask(&self, blk: usize) -> u64 {
        let remaining = self.len() - blk * BLOCK_ROWS;
        if remaining >= BLOCK_ROWS {
            !0
        } else {
            (1u64 << remaining) - 1
        }
    }

    /// Number of storage blocks.
    #[inline]
    fn blocks(&self) -> usize {
        self.row_ids.len().div_ceil(BLOCK_ROWS)
    }

    /// Mask of matching rows within block `blk`, comparing columns
    /// `from..width` only.
    #[inline]
    fn match_block(&self, q: &[[u64; 2]], blk: usize, from: usize) -> u64 {
        let base = blk * self.width;
        let mut alive = self.block_mask(blk);
        for (col, qp) in definite_from(q, from) {
            alive &= !(self.care[base + col] & (self.pattern[base + col] ^ qp));
            if alive == 0 {
                break;
            }
        }
        alive
    }

    /// Lowest-priority-index matching row (global id), if any.
    ///
    /// The scan compares columns `from..width`: the caller guarantees that
    /// every stored row matches `q` on the columns before `from` (0 for a
    /// full scan). The same holds for [`Self::first_and_count`] and
    /// [`Self::lpm`].
    pub fn first_match(&self, q: &TernaryWord, from: usize) -> Option<u32> {
        let q = q.masks();
        (0..self.blocks()).find_map(|blk| {
            let alive = self.match_block(q, blk, from);
            (alive != 0).then(|| self.row_ids[blk * BLOCK_ROWS + alive.trailing_zeros() as usize])
        })
    }

    /// Lowest matching row (global id) and the number of matching rows,
    /// from one scan.
    pub fn first_and_count(&self, q: &TernaryWord, from: usize) -> (Option<u32>, u64) {
        let q = q.masks();
        let mut first = None;
        let mut count = 0u64;
        for blk in 0..self.blocks() {
            let alive = self.match_block(q, blk, from);
            if first.is_none() && alive != 0 {
                first = Some(self.row_ids[blk * BLOCK_ROWS + alive.trailing_zeros() as usize]);
            }
            count += u64::from(alive.count_ones());
        }
        (first, count)
    }

    /// Longest-prefix match: among matching rows, the one with the fewest
    /// wildcard digits, ties broken by lowest global id. Returns
    /// `(global_id, wildcard_count)`.
    pub fn lpm(&self, q: &TernaryWord, from: usize) -> Option<(u32, u16)> {
        let q = q.masks();
        let mut best: Option<(u16, u32)> = None;
        for blk in 0..self.blocks() {
            let mut alive = self.match_block(q, blk, from);
            while alive != 0 {
                let bit = alive.trailing_zeros() as usize;
                alive &= alive - 1;
                let slot = blk * BLOCK_ROWS + bit;
                let key = (self.wildcards[slot], self.row_ids[slot]);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(wc, gid)| (gid, wc))
    }

    /// Number of counter planes that hold up to `width` mismatches.
    #[inline]
    fn counter_planes(&self) -> usize {
        (usize::BITS - self.width.leading_zeros()) as usize
    }

    /// Per-row mismatch counts of block `blk` over the definite query
    /// columns `cols`, bit-sliced (vertical): bit `r` of `planes[i]` is bit
    /// `i` of row `r`'s count, so one column's miss mask is 64 row
    /// increments at once. Eight columns at a time go through a tree of
    /// seven carry-save adders into the ones, twos and fours planes, and
    /// only the tree's eights carry ripples into the planes above; the
    /// last `cols.len() % 8` columns ripple in one by one. Planes from
    /// `max(counter_planes, 3)` up are not written, so they stay zero.
    #[inline]
    fn count_block(&self, cols: &[(usize, u64)], blk: usize, planes: &mut [u64; MAX_PLANES]) {
        let used = self.counter_planes().max(3);
        let base = blk * self.width;
        let care = &self.care[base..base + self.width];
        let pattern = &self.pattern[base..base + self.width];
        let miss = |&(col, qp): &(usize, u64)| care[col] & (pattern[col] ^ qp);
        planes[3..used].fill(0);
        let [mut ones, mut twos, mut fours] = [0u64; 3];
        let mut octets = cols.chunks_exact(8);
        for c in &mut octets {
            let (o, twos_a) = csa(ones, miss(&c[0]), miss(&c[1]));
            let (o, twos_b) = csa(o, miss(&c[2]), miss(&c[3]));
            let (t, fours_a) = csa(twos, twos_a, twos_b);
            let (o, twos_a) = csa(o, miss(&c[4]), miss(&c[5]));
            let (o, twos_b) = csa(o, miss(&c[6]), miss(&c[7]));
            let (t, fours_b) = csa(t, twos_a, twos_b);
            let (f, eights) = csa(fours, fours_a, fours_b);
            [ones, twos, fours] = [o, t, f];
            ripple(&mut planes[3..used], eights);
        }
        planes[..3].copy_from_slice(&[ones, twos, fours]);
        for c in octets.remainder() {
            ripple(&mut planes[..used], miss(c));
        }
    }

    /// Accumulates the per-row mismatch-count histogram for this query into
    /// `hist` (indexed by mismatch count, length `width + 1`).
    ///
    /// Each block's low eight counter planes are transposed into one count
    /// byte per row; planes above the eighth (widths of 256 and more) first
    /// split the rows by the count's high bits. Rows increment four
    /// interleaved 256-bin sub-histograms per high value, so runs of rows
    /// with equal counts do not wait on one another's stores. Every visit
    /// makes the same 64 increments, and a row outside the visited mask
    /// adds zero.
    pub fn histogram_into(&self, q: &TernaryWord, hist: &mut [u64]) {
        debug_assert!(hist.len() > self.width);
        let cols: Vec<(usize, u64)> = definite_from(q.masks(), 0).collect();
        let used = self.counter_planes();
        let mut bins = vec![[0u64; 256]; SUB_HISTS * ((self.width >> BYTE_PLANES) + 1)];
        let mut planes = [0u64; MAX_PLANES];
        for blk in 0..self.blocks() {
            self.count_block(&cols, blk, &mut planes);
            let (low, high) = planes[..used.max(BYTE_PLANES)].split_at(BYTE_PLANES);
            let counts = byte_counts(low.try_into().expect("eight low planes"));
            split_counts(high, self.block_mask(blk), 0, &mut |k, rows| {
                let bins: &mut [[u64; 256]; SUB_HISTS] = (&mut bins[k * SUB_HISTS..][..SUB_HISTS])
                    .try_into()
                    .expect("one set of sub-histograms per high count");
                for (j, word) in counts.iter().enumerate() {
                    let rows = rows >> (8 * j);
                    for i in 0..8 {
                        let count = (word >> (8 * i)) as u8;
                        bins[i % SUB_HISTS][usize::from(count)] += (rows >> i) & 1;
                    }
                }
                true
            });
        }
        for (k, h) in hist.iter_mut().take(self.width + 1).enumerate() {
            let set = &bins[(k >> BYTE_PLANES) * SUB_HISTS..][..SUB_HISTS];
            *h += set.iter().map(|b| b[k & 0xff]).sum::<u64>();
        }
    }

    /// Row with the fewest mismatches against `q` (nearest-Hamming query
    /// over the definite digits), ties broken by lowest global id. Returns
    /// `(global_id, mismatch_count)`; `None` only for an empty table.
    pub fn nearest(&self, q: &TernaryWord) -> Option<(u32, u32)> {
        let cols: Vec<(usize, u64)> = definite_from(q.masks(), 0).collect();
        let used = self.counter_planes();
        let mut best: Option<(u32, u32)> = None;
        let mut planes = [0u64; MAX_PLANES];
        for blk in 0..self.blocks() {
            self.count_block(&cols, blk, &mut planes);
            // The first count visited is the block's minimum; its lowest
            // row is the block's best, and earlier blocks win ties.
            split_counts(&planes[..used], self.block_mask(blk), 0, &mut |k, rows| {
                let slot = blk * BLOCK_ROWS + rows.trailing_zeros() as usize;
                if best.is_none_or(|(b, _)| (k as u32) < b) {
                    best = Some((k as u32, self.row_ids[slot]));
                }
                false
            });
        }
        best.map(|(k, gid)| (gid, k))
    }
}

/// Counter planes of a block count: enough for any width.
const MAX_PLANES: usize = usize::BITS as usize;

/// Low counter planes the histogram transposes into per-row count bytes.
const BYTE_PLANES: usize = 8;

/// Interleaved sub-histograms [`BitPlaneTable::histogram_into`] spreads
/// its increments over.
const SUB_HISTS: usize = 4;

/// `SPREAD[b]` holds bit `i` of `b` in bit 0 of byte `i`.
static SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

/// Carry-save (full) adder over 64 lanes: the sum and carry masks of
/// `a + b + c`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// Adds the row increments `carry` to the bit-sliced counter `planes`,
/// rippling through every plane.
#[inline(always)]
fn ripple(planes: &mut [u64], mut carry: u64) {
    for p in planes {
        let sum = *p ^ carry;
        carry &= *p;
        *p = sum;
    }
}

/// Transposes eight bit-sliced counter planes into per-row counts: row
/// `8 * j + i`'s count is byte `i` of word `j`.
#[inline]
fn byte_counts(planes: &[u64; BYTE_PLANES]) -> [u64; 8] {
    let mut words = [0u64; 8];
    for (k, &plane) in planes.iter().enumerate() {
        for (j, word) in words.iter_mut().enumerate() {
            *word |= SPREAD[(plane >> (8 * j)) as usize & 0xff] << k;
        }
    }
    words
}

/// Splits the row mask `rows` by the bit-sliced counts in `planes`, top
/// plane first, and calls `visit(count, rows_with_that_count)` for each
/// count present, in ascending count order, until it returns `false`.
/// Empty masks are pruned, so a block costs one visit per distinct count
/// rather than one bit gather per row and plane.
fn split_counts(
    planes: &[u64],
    rows: u64,
    count: usize,
    visit: &mut impl FnMut(usize, u64) -> bool,
) -> bool {
    let Some((&top, rest)) = planes.split_last() else {
        return visit(count, rows);
    };
    let (low, high) = (rows & !top, rows & top);
    (low == 0 || split_counts(rest, low, count, visit))
        && (high == 0 || split_counts(rest, high, count | (1 << rest.len()), visit))
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

    fn pq(s: &str) -> TernaryWord {
        s.parse().unwrap()
    }

    #[test]
    fn first_match_agrees_with_golden_model() {
        let t = table(&["1010", "10XX", "XXXX", "0101"]);
        let bp = BitPlaneTable::from_table(&t);
        for q in ["1010", "1011", "0101", "0000", "XXXX", "10XX"] {
            let word: TernaryWord = q.parse().unwrap();
            assert_eq!(
                bp.first_match(&pq(q), 0),
                t.search(&word).map(|i| i as u32),
                "query {q}"
            );
        }
    }

    #[test]
    fn lpm_prefers_fewest_wildcards_then_lowest_id() {
        let t = table(&["10XX", "1010", "XXXX", "10XX"]);
        let bp = BitPlaneTable::from_table(&t);
        assert_eq!(bp.lpm(&pq("1010"), 0), Some((1, 0)));
        assert_eq!(bp.lpm(&pq("1011"), 0), Some((0, 2)));
        assert_eq!(bp.lpm(&pq("0000"), 0), Some((2, 4)));
    }

    #[test]
    fn histogram_agrees_with_mismatch_profile() {
        let t = table(&["1010", "10XX", "XXXX", "0101", "1111"]);
        let bp = BitPlaneTable::from_table(&t);
        for q in ["1010", "0101", "1X00", "XXXX"] {
            let word: TernaryWord = q.parse().unwrap();
            let mut expect = vec![0u64; t.width() + 1];
            for k in t.mismatch_profile(&word) {
                expect[k] += 1;
            }
            let mut hist = vec![0u64; t.width() + 1];
            bp.histogram_into(&pq(q), &mut hist);
            assert_eq!(hist, expect, "query {q}");
            assert_eq!(bp.first_and_count(&pq(q), 0).1, hist[0], "query {q}");
        }
    }

    #[test]
    fn nearest_finds_min_mismatch_row() {
        let t = table(&["1010", "0101", "111X"]);
        let bp = BitPlaneTable::from_table(&t);
        assert_eq!(bp.nearest(&pq("1110")), Some((2, 0)));
        // Tie at k = 1 between rows 0 and 2: lowest id wins.
        assert_eq!(bp.nearest(&pq("1011")), Some((0, 1)));
        assert_eq!(bp.nearest(&pq("0101")), Some((1, 0)));
        assert_eq!(bp.nearest(&pq("XXXX")), Some((0, 0)));
        assert!(BitPlaneTable::from_table(&TcamTable::new(4))
            .nearest(&pq("0000"))
            .is_none());
    }

    #[test]
    fn partial_blocks_and_sub_tables_report_global_ids() {
        let mut t = TcamTable::new(8);
        for i in 0..100u32 {
            t.push(TernaryWord::from_bits(u64::from(i), 8));
        }
        let shard = BitPlaneTable::from_rows(&t, 70..100);
        let q = TernaryWord::from_bits(85, 8);
        assert_eq!(shard.first_match(&q, 0), Some(85));
        assert_eq!(shard.first_and_count(&q, 0), (Some(85), 1));
        assert_eq!(shard.len(), 30);
    }
}
