//! Peripheral-circuit energy/delay model.
//!
//! The row testbench covers the cell array proper (cells, match line,
//! search-line loading, drivers' output stage). Everything else a real
//! TCAM macro needs is modelled analytically here with synthetic but
//! node-plausible constants: sense amplifiers, the priority encoder, clock
//! distribution and the driver pre-stages. The constants are deliberately
//! conservative so the array projections do not flatter any design —
//! peripherals are charged identically per row/column regardless of the
//! cell design.

/// Analytical peripheral model.
#[derive(Debug, Clone, PartialEq)]
pub struct PeripheralModel {
    /// Sense-amplifier energy per row per search (joules).
    pub e_sense_amp: f64,
    /// Priority-encoder energy per row per search (joules).
    pub e_priority_per_row: f64,
    /// Clock/control distribution energy per search per segment (joules).
    pub e_clock_per_segment: f64,
    /// Search-line driver pre-stage energy per toggled line (joules) —
    /// the inverter chain behind the output stage the testbench models.
    pub e_driver_prestage: f64,
    /// Sense-amplifier resolve delay (seconds).
    pub t_sense_amp: f64,
    /// Priority-encoder delay per log₂(rows) stage (seconds).
    pub t_priority_stage: f64,
}

impl Default for PeripheralModel {
    fn default() -> Self {
        Self {
            e_sense_amp: 0.15e-15,
            e_priority_per_row: 0.05e-15,
            e_clock_per_segment: 0.3e-15,
            e_driver_prestage: 0.05e-15,
            t_sense_amp: 60e-12,
            t_priority_stage: 35e-12,
        }
    }
}

impl PeripheralModel {
    /// Peripheral energy for one search of an `rows × width` array with the
    /// given number of toggled search lines and active segments per row.
    pub fn search_energy(&self, rows: usize, toggled_lines: f64, active_segments: f64) -> f64 {
        rows as f64 * (self.e_sense_amp + self.e_priority_per_row)
            + self.e_clock_per_segment * active_segments * rows as f64
            + self.e_driver_prestage * toggled_lines
    }

    /// Peripheral delay appended to the worst-case row decision.
    pub fn search_delay(&self, rows: usize) -> f64 {
        let stages = (rows.max(2) as f64).log2().ceil();
        self.t_sense_amp + stages * self.t_priority_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_rows() {
        let p = PeripheralModel::default();
        let e1 = p.search_energy(64, 64.0, 1.0);
        let e2 = p.search_energy(128, 64.0, 1.0);
        assert!(e2 > 1.8 * e1);
    }

    #[test]
    fn delay_grows_logarithmically() {
        let p = PeripheralModel::default();
        let d64 = p.search_delay(64);
        let d4096 = p.search_delay(4096);
        assert!(d4096 > d64);
        assert!(d4096 < 2.5 * d64);
    }
}
