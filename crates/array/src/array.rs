//! The array-level energy/delay/area model.

use ftcam_cells::{DesignKind, Geometry};
use ftcam_workloads::{MismatchHistogram, ToggleStats};

use crate::calibrate::RowCalibration;
use crate::periph::PeripheralModel;

/// Shape and design of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayParams {
    /// Cell design.
    pub kind: DesignKind,
    /// Number of rows (words).
    pub rows: usize,
    /// Word width in cells.
    pub width: usize,
}

impl ArrayParams {
    /// Creates array parameters.
    pub fn new(kind: DesignKind, rows: usize, width: usize) -> Self {
        Self { kind, rows, width }
    }

    /// Capacity in ternary bits.
    pub fn bits(&self) -> usize {
        self.rows * self.width
    }
}

/// An `R × W` TCAM array model built on a [`RowCalibration`].
///
/// Scaling assumptions (all standard for array projections from SPICE row
/// measurements, see `DESIGN.md` §5):
///
/// * Rows are electrically independent; the calibrated row already includes
///   its share of the search-line loading, so summing per-row energies
///   covers the shared SL wires exactly once per row crossing.
/// * Mismatch statistics come from the workload's
///   [`MismatchHistogram`]; in the absence of a workload the typical
///   search (one matching row, the rest mismatching heavily) is used.
/// * For segmented designs, early termination is applied analytically with
///   hypergeometric reach probabilities over the mismatch count.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayModel {
    params: ArrayParams,
    calibration: RowCalibration,
    peripherals: PeripheralModel,
}

impl ArrayModel {
    /// Builds the model from a calibration (must match design and width).
    ///
    /// # Panics
    ///
    /// Panics if the calibration's design or width disagree with `params`.
    pub fn new(params: ArrayParams, calibration: RowCalibration) -> Self {
        assert_eq!(params.kind, calibration.kind, "calibration design mismatch");
        assert_eq!(
            params.width, calibration.width,
            "calibration width mismatch"
        );
        Self {
            params,
            calibration,
            peripherals: PeripheralModel::default(),
        }
    }

    /// The array shape/design.
    pub fn params(&self) -> &ArrayParams {
        &self.params
    }

    /// The row calibration in use.
    pub fn calibration(&self) -> &RowCalibration {
        &self.calibration
    }

    /// Expected energy of one row seeing `k` mismatching cells (joules),
    /// with early termination applied for segmented designs.
    pub fn row_energy(&self, k: usize) -> f64 {
        let stages = &self.calibration.stages;
        if stages.len() <= 1 {
            return self.calibration.row_energy(k);
        }
        // Hypergeometric early-termination model: mismatch positions are
        // uniform; P(first s segments clean) shrinks fast with k.
        let w = self.params.width;
        let mut energy = 0.0;
        let mut p_reach = 1.0;
        let mut cells_before = 0usize;
        for stage in stages {
            if p_reach < 1e-12 {
                break;
            }
            let p_stage_clean = probability_segment_clean(w, cells_before, stage.width, k);
            energy += p_reach
                * (p_stage_clean * stage.e_match + (1.0 - p_stage_clean) * stage.e_mismatch);
            p_reach *= p_stage_clean;
            cells_before += stage.width;
        }
        energy
    }

    /// Expected number of evaluated segments for a row with `k` mismatches.
    pub fn expected_stages(&self, k: usize) -> f64 {
        let stages = &self.calibration.stages;
        if stages.len() <= 1 {
            return 1.0;
        }
        let w = self.params.width;
        let mut expected = 0.0;
        let mut p_reach = 1.0;
        let mut cells_before = 0usize;
        for stage in stages {
            expected += p_reach;
            p_reach *= probability_segment_clean(w, cells_before, stage.width, k);
            cells_before += stage.width;
        }
        expected
    }

    /// Array search energy for one query given the per-row mismatch counts
    /// (e.g. from [`ftcam_workloads::TcamTable::mismatch_profile`]).
    pub fn search_energy_for_profile(&self, mismatches_per_row: &[usize]) -> f64 {
        let rows_energy: f64 = mismatches_per_row.iter().map(|&k| self.row_energy(k)).sum();
        let toggled = if self.calibration.sl_gated {
            // Unknown stream context: assume a fully changed query.
            self.params.width as f64
        } else {
            self.params.width as f64
        };
        let avg_segments = if self.calibration.stages.len() <= 1 {
            1.0
        } else {
            let n = mismatches_per_row.len().max(1) as f64;
            mismatches_per_row
                .iter()
                .map(|&k| self.expected_stages(k))
                .sum::<f64>()
                / n
        };
        rows_energy
            + self
                .peripherals
                .search_energy(self.params.rows, toggled, avg_segments)
    }

    /// Average search energy under a workload described by its mismatch
    /// histogram and (for SL-gated designs) toggle statistics.
    pub fn average_search_energy(
        &self,
        histogram: &MismatchHistogram,
        toggles: Option<&ToggleStats>,
    ) -> f64 {
        let total = histogram.total().max(1) as f64;
        // Expected per-(query,row) energy, scaled to the array's row count.
        let mut e_row_avg = 0.0;
        let mut stages_avg = 0.0;
        for (k, &count) in histogram.counts().iter().enumerate() {
            if count == 0 {
                continue;
            }
            let f = count as f64 / total;
            e_row_avg += f * self.row_energy(k);
            stages_avg += f * self.expected_stages(k);
        }
        let mut rows_energy = e_row_avg * self.params.rows as f64;
        // SL-gated correction: replace the per-search full-width SL cost the
        // calibration measured with the workload's toggle activity.
        let toggled_lines = if self.calibration.sl_gated {
            let per_search =
                toggles.map_or(self.params.width as f64, |t| t.transitions_per_search());
            // Charge one line energy per toggle (amortised over all rows:
            // the per-row calibration carries one row's share, so scale by
            // rows to recover the column total).
            rows_energy +=
                per_search * self.calibration.e_sl_per_definite_bit * self.params.rows as f64;
            per_search
        } else {
            toggles.map_or(self.params.width as f64, |t| t.definite_digits_per_search())
        };
        rows_energy
            + self
                .peripherals
                .search_energy(self.params.rows, toggled_lines, stages_avg)
    }

    /// Energy of the "typical" search the cell-comparison tables quote: one
    /// row matches, every other row mismatches at about half its cells.
    pub fn typical_search_energy(&self) -> f64 {
        let mut profile = vec![self.params.width / 2; self.params.rows];
        if self.params.rows > 0 {
            profile[0] = 0;
        }
        self.search_energy_for_profile(&profile)
    }

    /// Typical search energy divided by capacity — the fJ/bit/search number
    /// papers headline.
    pub fn typical_energy_per_bit(&self) -> f64 {
        self.typical_search_energy() / self.params.bits() as f64
    }

    /// Worst-case search delay: slowest row decision plus peripherals.
    pub fn search_delay(&self) -> f64 {
        let row = if self.calibration.stages.len() <= 1 {
            self.calibration.t_match.max(self.calibration.t_mismatch_1)
        } else {
            // All segments evaluated sequentially on the matching row.
            self.calibration.stages.iter().map(|s| s.t_match).sum()
        };
        row + self.peripherals.search_delay(self.params.rows)
    }

    /// Word write energy (joules), for NVM designs.
    pub fn write_energy_word(&self) -> Option<f64> {
        self.calibration
            .e_write_per_bit
            .map(|e| e * self.params.width as f64)
    }

    /// Macro area in mm² (cells only, peripheral overhead factored in).
    pub fn area_mm2(&self, geometry: &Geometry, area_f2: f64) -> f64 {
        let cell_um2 = geometry.cell_area_um2(area_f2);
        let periph_overhead = 1.25;
        cell_um2 * self.params.bits() as f64 * periph_overhead * 1e-6
    }
}

/// P(a segment of `seg` cells is mismatch-free | `k` mismatches uniformly
/// placed in `w` cells, `before` cells already known clean).
fn probability_segment_clean(w: usize, before: usize, seg: usize, k: usize) -> f64 {
    let remaining = w - before;
    if k == 0 {
        return 1.0;
    }
    if k > remaining.saturating_sub(seg) {
        return 0.0;
    }
    // Product form of C(remaining-seg, k) / C(remaining, k).
    let mut p = 1.0;
    for j in 0..seg {
        let denom = (remaining - j) as f64;
        p *= (remaining - k - j) as f64 / denom;
    }
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::StageCalibration;

    fn flat_calibration() -> RowCalibration {
        RowCalibration {
            kind: DesignKind::FeFet2T,
            width: 8,
            energy_vs_mismatches: vec![(0, 1e-15), (1, 3e-15), (8, 4e-15)],
            t_match: 1e-9,
            t_mismatch_1: 0.6e-9,
            margin_match: 0.2,
            margin_mismatch_1: 0.25,
            e_sl_per_definite_bit: 0.1e-15,
            sl_gated: false,
            stages: Vec::new(),
            e_write_per_bit: Some(10e-15),
        }
    }

    fn segmented_calibration() -> RowCalibration {
        let stage = StageCalibration {
            width: 4,
            e_match: 0.5e-15,
            e_mismatch: 1.5e-15,
            t_match: 0.8e-9,
            t_mismatch: 0.5e-9,
        };
        RowCalibration {
            kind: DesignKind::EaMlSegmented,
            width: 8,
            energy_vs_mismatches: vec![(0, 1e-15), (1, 2e-15), (8, 3e-15)],
            stages: vec![stage.clone(), stage],
            ..flat_calibration()
        }
    }

    #[test]
    fn probability_segment_clean_basics() {
        // No mismatches: always clean.
        assert_eq!(probability_segment_clean(8, 0, 4, 0), 1.0);
        // All cells mismatch: never clean.
        assert_eq!(probability_segment_clean(8, 0, 4, 8), 0.0);
        // 1 mismatch in 8 cells, first 4 clean with probability 1/2.
        let p = probability_segment_clean(8, 0, 4, 1);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flat_row_energy_interpolates() {
        let m = ArrayModel::new(
            ArrayParams::new(DesignKind::FeFet2T, 16, 8),
            flat_calibration(),
        );
        assert_eq!(m.row_energy(0), 1e-15);
        assert!(m.row_energy(4) > 3e-15 && m.row_energy(4) < 4e-15);
        assert_eq!(m.expected_stages(5), 1.0);
    }

    #[test]
    fn segmented_row_energy_terminates_early() {
        let m = ArrayModel::new(
            ArrayParams::new(DesignKind::EaMlSegmented, 16, 8),
            segmented_calibration(),
        );
        // k = 0: both stages at match energy.
        assert!((m.row_energy(0) - 1e-15).abs() < 1e-20);
        // Heavy mismatch: stage 0 almost surely mismatches → ≈ 1.5 fJ
        // (second stage almost never runs).
        let e8 = m.row_energy(8);
        assert!((e8 - 1.5e-15).abs() < 1e-17, "e8 = {e8:.3e}");
        assert!((m.expected_stages(8) - 1.0).abs() < 1e-9);
        // k = 1: expected stages = 1.5.
        assert!((m.expected_stages(1) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn typical_energy_per_bit_is_reasonable() {
        let m = ArrayModel::new(
            ArrayParams::new(DesignKind::FeFet2T, 64, 8),
            flat_calibration(),
        );
        let e = m.typical_energy_per_bit();
        // Row energy ≈ 3.9 fJ for heavy mismatch rows / 8 bits ≈ 0.5 fJ/bit
        // plus peripherals.
        assert!(e > 0.1e-15 && e < 2e-15, "e = {e:.3e}");
    }

    #[test]
    fn average_energy_uses_histogram() {
        let m = ArrayModel::new(
            ArrayParams::new(DesignKind::FeFet2T, 4, 8),
            flat_calibration(),
        );
        let mut all_match = MismatchHistogram::new(8);
        all_match.record(0);
        let mut all_miss = MismatchHistogram::new(8);
        all_miss.record(8);
        let e_match = m.average_search_energy(&all_match, None);
        let e_miss = m.average_search_energy(&all_miss, None);
        assert!(e_miss > e_match);
    }

    #[test]
    fn delay_includes_peripherals() {
        let m = ArrayModel::new(
            ArrayParams::new(DesignKind::FeFet2T, 256, 8),
            flat_calibration(),
        );
        assert!(m.search_delay() > 1e-9);
    }

    #[test]
    fn write_energy_scales_with_width() {
        let m = ArrayModel::new(
            ArrayParams::new(DesignKind::FeFet2T, 4, 8),
            flat_calibration(),
        );
        assert!((m.write_energy_word().unwrap() - 80e-15).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_mismatched_calibration() {
        let _ = ArrayModel::new(
            ArrayParams::new(DesignKind::FeFet2T, 4, 16),
            flat_calibration(),
        );
    }
}
