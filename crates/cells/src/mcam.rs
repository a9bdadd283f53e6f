//! Multi-level (analog) CAM extension: range matching on the 2-FeFET cell.
//!
//! The same 2-FeFET cell that stores one ternary digit can store an
//! **interval** `[lo, hi]` by programming *intermediate* polarizations
//! (the FeCAM idea from the 2-FeFET TCAM research line): searching applies
//! an analog level to the cell and the match line stays high iff the level
//! falls inside every cell's interval.
//!
//! Electrically, with `Fe1`'s gate on SL and `Fe2`'s gate on SLB:
//!
//! * `Fe1` is programmed to `V_th = V(hi) + δ`, so it conducts — and
//!   discharges the ML — exactly when the applied `V(level)` exceeds the
//!   upper bound;
//! * `Fe2` is programmed to `V_th = V(1 − lo) + δ` and its gate is driven
//!   with the *complement* level `V(1 − level)`, so it conducts exactly
//!   when the level falls below the lower bound.
//!
//! A `b`-bit cell stores the interval that brackets one of `2^b` quantised
//! levels, multiplying TCAM capacity per cell while keeping the cell at
//! two devices — the capacity/energy trade this module's experiment
//! quantifies.

use ftcam_workloads::TernaryWord;

use crate::design::DesignKind;
use crate::error::CellError;
use crate::row::RowTestbench;
use crate::search::{SearchOutcome, SearchTiming};
use ftcam_devices::TechCard;

/// A stored interval in normalised level space (`0.0 ..= 1.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl LevelRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi ≤ 1`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi,
            "invalid range [{lo}, {hi}]"
        );
        Self { lo, hi }
    }

    /// The full don't-care range.
    pub fn any() -> Self {
        Self { lo: 0.0, hi: 1.0 }
    }

    /// The half-step bracket around quantised level `k` of `2^bits`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `bits == 0`.
    pub fn around_level(k: usize, bits: u32) -> Self {
        let n = 1usize << bits;
        assert!(k < n, "level {k} out of range for {bits} bits");
        let step = 1.0 / (n - 1).max(1) as f64;
        let x = k as f64 * step;
        Self {
            lo: (x - 0.45 * step).max(0.0),
            hi: (x + 0.45 * step).min(1.0),
        }
    }

    /// Golden-model membership test.
    pub fn contains(&self, level: f64) -> bool {
        (self.lo..=self.hi).contains(&level)
    }
}

/// Maps normalised levels to gate voltages and ranges to polarizations.
#[derive(Debug, Clone, PartialEq)]
pub struct McamEncoder {
    /// Gate voltage at level 0 (volts).
    pub v_min: f64,
    /// Gate voltage at level 1 (volts).
    pub v_max: f64,
    /// Threshold offset above the bound voltage (volts) — half the
    /// conduction deadband.
    pub delta: f64,
    /// FeFET mid-window threshold (from the card).
    vth0: f64,
    /// FeFET memory window (from the card).
    memory_window: f64,
}

impl McamEncoder {
    /// Builds the encoder for a technology card.
    pub fn new(card: &TechCard) -> Self {
        Self {
            // The ladder spans 0.65 V (slightly boosted drivers): the
            // deadband δ must clear ≳ 1 decade of subthreshold slope
            // (~80 mV/dec) so in-range cells leak negligibly, while the
            // worst mismatch overdrive (0.55·step − δ) must stay positive —
            // together these set the bits/cell ceiling fig12 measures.
            v_min: 0.2,
            v_max: 0.2 + 0.65 * card.vdd / 0.8,
            delta: 0.09,
            vth0: card.fefet.mosfet.vth,
            memory_window: card.fefet.memory_window,
        }
    }

    /// Gate voltage for a normalised level.
    pub fn level_voltage(&self, level: f64) -> f64 {
        self.v_min + (self.v_max - self.v_min) * level.clamp(0.0, 1.0)
    }

    /// Polarization that sets the FeFET threshold to `vth`.
    ///
    /// # Panics
    ///
    /// Panics if `vth` is outside the programmable window.
    pub fn polarization_for_vth(&self, vth: f64) -> f64 {
        let p = 2.0 * (self.vth0 - vth) / self.memory_window;
        assert!(
            (-1.0..=1.0).contains(&p),
            "threshold {vth} V outside the memory window"
        );
        p
    }

    /// The `(p_fe1, p_fe2)` pair encoding a stored range.
    pub fn polarizations_for_range(&self, range: LevelRange) -> (f64, f64) {
        // Fe1 trips above the upper bound; Fe2 (complement-driven) below
        // the lower bound.
        let vth1 = self.level_voltage(range.hi) + self.delta;
        let vth2 = self.level_voltage(1.0 - range.lo) + self.delta;
        (
            self.polarization_for_vth(vth1),
            self.polarization_for_vth(vth2),
        )
    }
}

/// A multi-level CAM word: one 2-FeFET row searched with analog levels.
///
/// # Examples
///
/// ```no_run
/// use ftcam_cells::{LevelRange, McamRow, SearchTiming};
/// use ftcam_devices::TechCard;
///
/// # fn main() -> Result<(), ftcam_cells::CellError> {
/// let mut row = McamRow::new(TechCard::hp45(), Default::default(), 4)?;
/// row.program(&[
///     LevelRange::new(0.2, 0.6),
///     LevelRange::any(),
///     LevelRange::new(0.0, 0.3),
///     LevelRange::new(0.7, 1.0),
/// ])?;
/// let hit = row.search(&[0.4, 0.9, 0.1, 0.8], &SearchTiming::relaxed())?;
/// assert!(hit.matched);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct McamRow {
    row: RowTestbench,
    encoder: McamEncoder,
    ranges: Vec<LevelRange>,
}

impl McamRow {
    /// Builds a multi-level CAM row of `width` cells.
    ///
    /// # Errors
    ///
    /// Propagates testbench construction failures.
    pub fn new(card: TechCard, geometry: crate::Geometry, width: usize) -> Result<Self, CellError> {
        let encoder = McamEncoder::new(&card);
        let row = RowTestbench::new(DesignKind::FeFet2T.instantiate(), card, geometry, width)?;
        Ok(Self {
            row,
            encoder,
            ranges: vec![LevelRange::any(); width],
        })
    }

    /// Word width in cells.
    pub fn width(&self) -> usize {
        self.row.width()
    }

    /// The encoder in use.
    pub fn encoder(&self) -> &McamEncoder {
        &self.encoder
    }

    /// The stored ranges.
    pub fn ranges(&self) -> &[LevelRange] {
        &self.ranges
    }

    /// Programs one range per cell (ideal write).
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] if the count differs from the
    /// width.
    pub fn program(&mut self, ranges: &[LevelRange]) -> Result<(), CellError> {
        if ranges.len() != self.width() {
            return Err(CellError::WidthMismatch {
                expected: self.width(),
                got: ranges.len(),
            });
        }
        let mut ps = Vec::with_capacity(2 * ranges.len());
        for &r in ranges {
            let (p1, p2) = self.encoder.polarizations_for_range(r);
            ps.push(p1);
            ps.push(p2);
        }
        self.row.set_fefet_polarizations(&ps)?;
        self.ranges = ranges.to_vec();
        Ok(())
    }

    /// Golden-model decision for a level query.
    ///
    /// # Panics
    ///
    /// Panics if the query width differs.
    pub fn golden_matches(&self, levels: &[f64]) -> bool {
        assert_eq!(levels.len(), self.width(), "query width mismatch");
        self.ranges.iter().zip(levels).all(|(r, &x)| r.contains(x))
    }

    /// Runs one analog search; levels are normalised to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn search(
        &mut self,
        levels: &[f64],
        timing: &SearchTiming,
    ) -> Result<SearchOutcome, CellError> {
        let v_sl: Vec<f64> = levels
            .iter()
            .map(|&x| self.encoder.level_voltage(x))
            .collect();
        let v_slb: Vec<f64> = levels
            .iter()
            .map(|&x| self.encoder.level_voltage(1.0 - x))
            .collect();
        self.row.search_analog(&v_sl, &v_slb, timing)
    }

    /// Capacity in equivalent binary bits when levels are quantised to
    /// `bits` per cell.
    pub fn equivalent_bits(&self, bits: u32) -> usize {
        self.width() * bits as usize
    }

    /// Convenience: program the row to exact-match a quantised word (one
    /// `bits`-wide digit per cell).
    ///
    /// # Errors
    ///
    /// Same as [`McamRow::program`].
    ///
    /// # Panics
    ///
    /// Panics if any digit exceeds `2^bits − 1`.
    pub fn program_quantized(&mut self, digits: &[usize], bits: u32) -> Result<(), CellError> {
        let ranges: Vec<LevelRange> = digits
            .iter()
            .map(|&k| LevelRange::around_level(k, bits))
            .collect();
        self.program(&ranges)
    }

    /// Convenience: quantised level query (one digit per cell).
    pub fn quantized_levels(digits: &[usize], bits: u32) -> Vec<f64> {
        let n = (1usize << bits) - 1;
        digits.iter().map(|&k| k as f64 / n.max(1) as f64).collect()
    }
}

/// A binary word interpreted as base-2^bits digits, MSB first (helper for
/// capacity comparisons against plain TCAM rows).
pub fn pack_word(word: &TernaryWord, bits: u32) -> Option<Vec<usize>> {
    if !word.width().is_multiple_of(bits as usize) {
        return None;
    }
    let mut out = Vec::with_capacity(word.width() / bits as usize);
    let mut acc = 0usize;
    for (i, d) in word.iter().enumerate() {
        let bit = match d {
            ftcam_workloads::Ternary::One => 1usize,
            ftcam_workloads::Ternary::Zero => 0,
            ftcam_workloads::Ternary::X => return None,
        };
        acc = (acc << 1) | bit;
        if (i + 1) % bits as usize == 0 {
            out.push(acc);
            acc = 0;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> McamEncoder {
        McamEncoder::new(&TechCard::hp45())
    }

    #[test]
    fn level_voltage_is_monotone_affine() {
        let e = encoder();
        assert!((e.level_voltage(0.0) - e.v_min).abs() < 1e-12);
        assert!((e.level_voltage(1.0) - e.v_max).abs() < 1e-12);
        assert!(e.level_voltage(0.3) < e.level_voltage(0.7));
    }

    #[test]
    fn polarizations_stay_in_window_for_all_ranges() {
        let e = encoder();
        for lo in [0.0, 0.25, 0.5] {
            for hi in [0.5, 0.75, 1.0] {
                if lo <= hi {
                    let (p1, p2) = e.polarizations_for_range(LevelRange::new(lo, hi));
                    assert!((-1.0..=1.0).contains(&p1));
                    assert!((-1.0..=1.0).contains(&p2));
                }
            }
        }
    }

    #[test]
    fn around_level_brackets_are_disjoint() {
        let bits = 2;
        for k in 0..3usize {
            let a = LevelRange::around_level(k, bits);
            let b = LevelRange::around_level(k + 1, bits);
            assert!(a.hi < b.lo, "brackets overlap: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn golden_range_semantics() {
        let r = LevelRange::new(0.25, 0.75);
        assert!(r.contains(0.5));
        assert!(!r.contains(0.1));
        assert!(LevelRange::any().contains(0.0));
        assert!(LevelRange::any().contains(1.0));
    }

    #[test]
    fn pack_word_groups_bits() {
        let w: TernaryWord = "10110100".parse().unwrap();
        assert_eq!(pack_word(&w, 2), Some(vec![2, 3, 1, 0]));
        assert_eq!(pack_word(&w, 4), Some(vec![0b1011, 0b0100]));
        let x: TernaryWord = "1X".parse().unwrap();
        assert_eq!(pack_word(&x, 1), None);
        let odd: TernaryWord = "101".parse().unwrap();
        assert_eq!(pack_word(&odd, 2), None);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_inverted_ranges() {
        let _ = LevelRange::new(0.8, 0.2);
    }
}
