//! Energy/latency cost model exported from circuit calibration.
//!
//! A [`CostModel`] is a flattened, query-rate-friendly view of one
//! `(design, width, rows)` array: per-mismatch-count row-energy and
//! expected-stage lookup tables baked from the same
//! [`RowCalibration`]/[`ArrayModel`] pipeline the circuit-level experiments
//! use, so metering a replayed query stream lands on exactly the numbers
//! fig. 6 (row energy vs mismatches) and fig. 9 (workload energy) report.
//!
//! Every term of [`ArrayModel::average_search_energy`] is linear in the
//! per-(query, row) statistics — mismatch histogram fractions, SL toggle
//! counts, definite-digit counts — so metering each query with
//! [`CostModel::energy_from_hist`] and averaging reproduces the
//! whole-workload number exactly (up to floating-point summation order).

use ftcam_array::{ArrayModel, ArrayParams, PeripheralModel, RowCalibration};
use ftcam_cells::DesignKind;
use ftcam_workloads::TernaryWord;

/// How the replay pipeline meters energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metering {
    /// Full per-row mismatch histogram on every query — exact, `O(rows)`
    /// counting work per query.
    Exact,
    /// Exact metering on every `period`-th query; energy per query is the
    /// mean over the metered sample.
    Sampled {
        /// Meter every `period`-th query (≥ 1).
        period: u64,
    },
}

/// Calibrated per-query cost model for one `(design, width, rows)` array.
#[derive(Debug, Clone)]
pub struct CostModel {
    kind: DesignKind,
    width: usize,
    rows: usize,
    /// `row_lut[k]`: expected row energy at `k` mismatches (J), early
    /// termination included for segmented designs.
    row_lut: Vec<f64>,
    /// `stages_lut[k]`: expected evaluated segments at `k` mismatches.
    stages_lut: Vec<f64>,
    /// Segment widths, MSB-first (len > 1 only for segmented designs).
    seg_widths: Vec<usize>,
    /// Per-segment clean-evaluation energy (J).
    seg_e_match: Vec<f64>,
    /// Measured `(m, delta)` points: the extra energy (over `e_match`) of
    /// evaluating a segment containing `m` mismatching cells, derived by
    /// replaying the calibration's spread-mismatch measurements against
    /// the segment map (see [`CostModel::positional_row_energy`]).
    seg_delta: Vec<(f64, f64)>,
    /// Row energy not attributed to any stage (measured clean-row energy
    /// minus the stage sum): SL drive and other per-search overheads.
    seg_overhead: f64,
    e_sl_per_definite_bit: f64,
    sl_gated: bool,
    periph: PeripheralModel,
    t_search: f64,
}

impl CostModel {
    /// Bakes the cost model from a row calibration, using the same
    /// [`ArrayModel`] scaling the circuit-level experiments use.
    ///
    /// # Panics
    ///
    /// Panics if `kind` disagrees with the calibration's design.
    pub fn from_calibration(kind: DesignKind, calibration: &RowCalibration, rows: usize) -> Self {
        let width = calibration.width;
        let model = ArrayModel::new(ArrayParams::new(kind, rows, width), calibration.clone());
        let row_lut: Vec<f64> = (0..=width).map(|k| model.row_energy(k)).collect();
        let stages_lut: Vec<f64> = (0..=width).map(|k| model.expected_stages(k)).collect();
        let seg_widths: Vec<usize> = calibration.stages.iter().map(|s| s.width).collect();
        let seg_e_match: Vec<f64> = calibration.stages.iter().map(|s| s.e_match).collect();
        let seg_overhead = if seg_widths.len() > 1 {
            calibration.row_energy(0) - seg_e_match.iter().sum::<f64>()
        } else {
            0.0
        };
        let seg_delta = if seg_widths.len() > 1 {
            derive_seg_delta(calibration, &seg_widths, &seg_e_match, seg_overhead)
        } else {
            Vec::new()
        };
        Self {
            kind,
            width,
            rows,
            row_lut,
            stages_lut,
            seg_widths,
            seg_e_match,
            seg_delta,
            seg_overhead,
            e_sl_per_definite_bit: calibration.e_sl_per_definite_bit,
            sl_gated: calibration.sl_gated,
            periph: PeripheralModel::default(),
            t_search: model.search_delay(),
        }
    }

    /// The design this model is calibrated for.
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    /// Array row count the peripheral terms scale with.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Expected row energy at `k` mismatches (J).
    pub fn row_energy(&self, k: usize) -> f64 {
        self.row_lut[k.min(self.width)]
    }

    /// Worst-case search latency of the array (s).
    pub fn search_latency(&self) -> f64 {
        self.t_search
    }

    /// Exact energy of one query (J) from its per-row mismatch histogram.
    ///
    /// `hist[k]` counts rows with `k` mismatches (summing to the array row
    /// count); `definite` and `toggles` are the query's definite-digit and
    /// SL-pair-transition counts.
    pub fn energy_from_hist(&self, hist: &[u64], definite: usize, toggles: usize) -> f64 {
        let mut rows_energy = 0.0;
        let mut stages_total = 0.0;
        for (k, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let c = count as f64;
            rows_energy += c * self.row_lut[k.min(self.width)];
            stages_total += c * self.stages_lut[k.min(self.width)];
        }
        let rows = self.rows as f64;
        let stages_avg = stages_total / rows.max(1.0);
        let toggled_lines = if self.sl_gated {
            rows_energy += toggles as f64 * self.e_sl_per_definite_bit * rows;
            toggles as f64
        } else {
            definite as f64
        };
        rows_energy
            + self
                .periph
                .search_energy(self.rows, toggled_lines, stages_avg)
    }

    /// Position-aware row energy (J) for one stored word against one query.
    ///
    /// Flat designs reduce to [`CostModel::row_energy`]. Segmented designs
    /// walk the segments in evaluation order and stop at the first one
    /// containing a definite-definite mismatch, exactly like the circuit
    /// does — this is the path the fig. 6 agreement test exercises, where
    /// the hypergeometric average over uniform mismatch placement would
    /// misstate a specific placement. The terminating segment's energy is
    /// its clean energy plus a mismatch delta interpolated (on the local
    /// mismatch count) from the calibration's measured spread-mismatch
    /// sweep — the per-stage `e_mismatch` probes only cover the segment
    /// the calibration's single mismatch landed in, while the sweep pins
    /// down how the delta shrinks as more cells in one segment discharge
    /// the match line together.
    pub fn positional_row_energy(&self, stored: &TernaryWord, query: &TernaryWord) -> f64 {
        if self.seg_widths.len() <= 1 {
            return self.row_energy(stored.mismatch_count(query));
        }
        let mut energy = self.seg_overhead;
        let mut start = 0usize;
        for (s, &w) in self.seg_widths.iter().enumerate() {
            let m = stored.mismatch_count_in(query, start..start + w);
            if m > 0 {
                return energy + self.seg_e_match[s] + self.miss_delta(m);
            }
            energy += self.seg_e_match[s];
            start += w;
        }
        energy
    }

    /// Mismatch-energy delta for a segment with `m` mismatching cells:
    /// piecewise-linear interpolation over the measured `seg_delta` points,
    /// clamped at both ends.
    fn miss_delta(&self, m: usize) -> f64 {
        let pts = &self.seg_delta;
        let Some(&(first_m, first_d)) = pts.first() else {
            return 0.0;
        };
        let x = m as f64;
        if x <= first_m {
            return first_d;
        }
        for pair in pts.windows(2) {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            if x <= x1 {
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            }
        }
        pts.last().map_or(0.0, |&(_, d)| d)
    }
}

/// Replays the calibration's spread-mismatch energy sweep against the
/// segment map to extract `(m, delta)` points: for each measured `(k, e)`
/// with `k ≥ 1`, the mismatch positions of `with_spread_mismatches(k)`
/// locate the first dirty segment and its local mismatch count `m`; the
/// delta is whatever energy the measurement carries beyond the clean
/// prefix. Points sharing an `m` (e.g. `k = 1` and `k = 2` both landing a
/// single mismatch in their first dirty segment) are averaged.
fn derive_seg_delta(
    calibration: &RowCalibration,
    seg_widths: &[usize],
    seg_e_match: &[f64],
    seg_overhead: f64,
) -> Vec<(f64, f64)> {
    let width = calibration.width;
    let mut points: Vec<(usize, f64, u32)> = Vec::new();
    for &(k, e) in &calibration.energy_vs_mismatches {
        if k == 0 || k > width {
            continue;
        }
        // Mismatch positions of the calibration's spread pattern (matches
        // `TernaryWord::with_spread_mismatches` on a fully definite word).
        let positions: Vec<usize> = (0..k)
            .map(|j| (j * width / k + width / (2 * k)).min(width - 1))
            .collect();
        let mut start = 0usize;
        for (s, &w) in seg_widths.iter().enumerate() {
            let m = positions
                .iter()
                .filter(|&&p| p >= start && p < start + w)
                .count();
            if m > 0 {
                let prefix: f64 = seg_e_match[..s].iter().sum();
                let delta = e - seg_overhead - prefix - seg_e_match[s];
                match points.iter_mut().find(|p| p.0 == m) {
                    Some(p) => {
                        p.1 += delta;
                        p.2 += 1;
                    }
                    None => points.push((m, delta, 1)),
                }
                break;
            }
            start += w;
        }
    }
    points.sort_unstable_by_key(|p| p.0);
    if points.is_empty() {
        // No mismatch sweep (degenerate calibration): fall back to the
        // largest per-stage measured delta.
        let max_delta = calibration
            .stages
            .iter()
            .map(|s| s.e_mismatch - s.e_match)
            .fold(0.0f64, f64::max);
        return vec![(1.0, max_delta)];
    }
    points
        .into_iter()
        .map(|(m, sum, n)| (m as f64, sum / f64::from(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_array::StageCalibration;

    fn flat_calibration(width: usize) -> RowCalibration {
        RowCalibration {
            kind: DesignKind::FeFet2T,
            width,
            energy_vs_mismatches: vec![(0, 1e-15), (1, 3e-15), (width, 4e-15)],
            t_match: 1e-9,
            t_mismatch_1: 0.6e-9,
            margin_match: 0.2,
            margin_mismatch_1: 0.25,
            e_sl_per_definite_bit: 0.1e-15,
            sl_gated: false,
            stages: Vec::new(),
            e_write_per_bit: None,
        }
    }

    fn segmented_calibration(width: usize) -> RowCalibration {
        let seg = width / 4;
        let stage = |e_mismatch: f64| StageCalibration {
            width: seg,
            e_match: 0.5e-15,
            e_mismatch,
            t_match: 0.8e-9,
            t_mismatch: 0.5e-9,
        };
        RowCalibration {
            kind: DesignKind::EaMlSegmented,
            width,
            energy_vs_mismatches: vec![(0, 2e-15), (1, 2.6e-15), (width, 1.6e-15)],
            sl_gated: true,
            // Only stage 2 carries a measured mismatch energy, like the
            // real calibration (k = 1 spread mismatch lands mid-word).
            stages: vec![
                stage(0.5e-15),
                stage(0.5e-15),
                stage(1.4e-15),
                stage(0.5e-15),
            ],
            ..flat_calibration(width)
        }
    }

    #[test]
    fn exact_hist_matches_array_model_average() {
        use ftcam_workloads::MismatchHistogram;
        let calib = flat_calibration(8);
        let rows = 16usize;
        let cost = CostModel::from_calibration(DesignKind::FeFet2T, &calib, rows);
        let model = ArrayModel::new(ArrayParams::new(DesignKind::FeFet2T, rows, 8), calib);
        // One query's histogram: 1 match, the rest spread over k.
        let mut hist = vec![0u64; 9];
        hist[0] = 1;
        hist[3] = 10;
        hist[8] = 5;
        let mut golden_hist = MismatchHistogram::new(8);
        for (k, &c) in hist.iter().enumerate() {
            for _ in 0..c {
                golden_hist.record(k);
            }
        }
        let golden = model.average_search_energy(&golden_hist, None);
        // Non-gated: ArrayModel with `None` toggles charges full width.
        let engine = cost.energy_from_hist(&hist, 8, 8);
        assert!(
            (engine - golden).abs() < 1e-24,
            "engine {engine:.6e} vs golden {golden:.6e}"
        );
    }

    #[test]
    fn positional_energy_stops_at_first_dirty_segment() {
        let calib = segmented_calibration(16);
        let cost = CostModel::from_calibration(DesignKind::EaMlSegmented, &calib, 64);
        let stored: TernaryWord = "1010101010101010".parse().unwrap();
        // Clean row: all four segments at match energy (= measured k = 0).
        assert!((cost.positional_row_energy(&stored, &stored) - 2e-15).abs() < 1e-22);
        // Single-mismatch delta replayed from the sweep: the measured
        // k = 1 point (2.6 fJ) puts its mismatch in segment 2 after a
        // 1.0 fJ clean prefix and a 0.5 fJ dirty-segment clean term, so
        // delta(1) = 1.1 fJ regardless of which segment the query hits.
        let delta = 2.6e-15 - 2.0 * 0.5e-15 - 0.5e-15;
        let q0: TernaryWord = "0010101010101010".parse().unwrap();
        let e0 = cost.positional_row_energy(&stored, &q0);
        assert!((e0 - (0.5e-15 + delta)).abs() < 1e-22, "e0 = {e0:.3e}");
        // Mismatch only in segment 2: reproduces the measured k = 1 sweep
        // point exactly.
        let q2: TernaryWord = "1010101000101010".parse().unwrap();
        let e2 = cost.positional_row_energy(&stored, &q2);
        assert!((e2 - 2.6e-15).abs() < 1e-22, "e2 = {e2:.3e}");
        // Fully mismatching query reproduces the measured k = width point.
        let q_full = stored.with_spread_mismatches(16);
        let e_full = cost.positional_row_energy(&stored, &q_full);
        assert!((e_full - 1.6e-15).abs() < 1e-22, "e_full = {e_full:.3e}");
    }
}
