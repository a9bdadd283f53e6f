//! A full multi-row array testbench: several match lines sharing one set
//! of search-line drivers.
//!
//! The array projections in `ftcam-array` scale a calibrated single row
//! linearly, on the assumption that rows are electrically independent
//! (they share only the search lines, which are driven rails). This
//! testbench builds an actual `R × W` transistor-level array so that
//! assumption can be *checked* rather than believed: every row's decision
//! must match the golden model, and total search energy must track
//! `R ×` the single-row measurement.
//!
//! Array sizes here are kept small (≤ ~16×32) — the point is validation,
//! not capacity; larger arrays belong to the analytical model.

use ftcam_devices::TechCard;
use ftcam_workloads::{TcamTable, TernaryWord};

use crate::design::CellDesign;
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::search::SearchTiming;
use crate::testbench::Testbench;

/// Result of one array search.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySearchOutcome {
    /// Per-row match decisions, in row order.
    pub row_matches: Vec<bool>,
    /// Highest-priority (lowest-index) matching row, if any.
    pub first_match: Option<usize>,
    /// Total supply energy of the steady-state cycle (joules).
    pub energy_total: f64,
    /// Search-line driver energy (joules) — shared across all rows.
    pub energy_sl: f64,
    /// Match-line (precharge rail) energy summed over rows (joules).
    pub energy_ml: f64,
}

/// A transistor-level `rows × width` TCAM array.
///
/// Restricted to flat (single-segment) designs; hierarchical designs are
/// validated at row level and composed analytically.
#[derive(Debug)]
pub struct ArrayTestbench {
    tb: Testbench,
    rows: usize,
    stored: TcamTable,
}

impl ArrayTestbench {
    /// Builds the array testbench: the row testbench's netlist repeated
    /// over `rows` match lines that share the search lines.
    ///
    /// # Errors
    ///
    /// * [`CellError::InvalidParameter`] for zero dimensions or a
    ///   hierarchical (multi-segment) design.
    pub fn new(
        design: Box<dyn CellDesign>,
        card: TechCard,
        geometry: Geometry,
        rows: usize,
        width: usize,
    ) -> Result<Self, CellError> {
        if rows == 0 || width == 0 {
            return Err(CellError::InvalidParameter(
                "array dimensions must be positive".into(),
            ));
        }
        if design.features().segments > 1 {
            return Err(CellError::InvalidParameter(
                "array testbench supports flat designs only".into(),
            ));
        }
        Ok(Self {
            tb: Testbench::build(design, card, geometry, rows, width)?,
            rows,
            stored: TcamTable::new(width),
        })
    }

    /// The stored content as a golden-model table.
    pub fn stored_table(&self) -> &TcamTable {
        &self.stored
    }

    /// Programs the whole array (ideal write), row 0 first.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] if shapes disagree.
    pub fn program(&mut self, words: &[TernaryWord]) -> Result<(), CellError> {
        if words.len() != self.rows {
            return Err(CellError::WidthMismatch {
                expected: self.rows,
                got: words.len(),
            });
        }
        let mut table = TcamTable::new(self.tb.width);
        for (r, word) in words.iter().enumerate() {
            if word.width() != self.tb.width {
                return Err(CellError::WidthMismatch {
                    expected: self.tb.width,
                    got: word.width(),
                });
            }
            self.tb.program_row(r, word);
            table.push(word.clone());
        }
        self.stored = table;
        Ok(())
    }

    /// Runs one array search (two cycles, steady-state measurement).
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width query or a
    /// wrapped simulation failure.
    pub fn search(
        &mut self,
        query: &TernaryWord,
        timing: &SearchTiming,
    ) -> Result<ArraySearchOutcome, CellError> {
        let levels = self.tb.query_levels(query)?;
        let rtz = self.tb.design.features().sl_return_to_zero;
        let run = self.tb.run_search_cycles(0, &levels, rtz, timing)?;
        let result = &run.result;

        let threshold = self.tb.design.sense_threshold(&self.tb.card);
        let t_cycle = timing.cycle();
        let t_sense = t_cycle + timing.t_precharge + timing.sense_offset;
        let mut row_matches = Vec::with_capacity(self.rows);
        for &node in &self.tb.net.ml_nodes {
            let ml = result.node_trace(node).map_err(CellError::from)?;
            row_matches.push(ml.value_at(t_sense) > threshold);
        }
        let first_match = row_matches.iter().position(|&m| m);
        let (energy_ml, energy_sl) = self.tb.line_energies(&run, t_cycle, 2.0 * t_cycle);
        Ok(ArraySearchOutcome {
            row_matches,
            first_match,
            energy_total: result.total_supply_energy_in(t_cycle, 2.0 * t_cycle),
            energy_sl,
            energy_ml,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;

    #[test]
    fn rejects_segmented_designs_and_bad_shapes() {
        let err = ArrayTestbench::new(
            DesignKind::EaMlSegmented.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            2,
            8,
        );
        assert!(matches!(err, Err(CellError::InvalidParameter(_))));
        let err = ArrayTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            0,
            8,
        );
        assert!(err.is_err());
    }

    #[test]
    fn program_checks_shapes() {
        let mut arr = ArrayTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            2,
            4,
        )
        .unwrap();
        assert!(arr.program(&["1010".parse().unwrap()]).is_err());
        assert!(arr
            .program(&["1010".parse().unwrap(), "01X1".parse().unwrap()])
            .is_ok());
        assert_eq!(arr.stored_table().len(), 2);
    }
}
