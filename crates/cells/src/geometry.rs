//! Layout-derived parasitics and area factors.

/// Wire parasitics and layout constants shared by all testbenches.
///
/// Values are synthetic but sized for a 45 nm metal stack (≈ 0.2 fF/µm wire
/// capacitance, ~1 µm cell pitch), matching the assumptions FeFET-TCAM
/// papers state for their array-level extrapolations.
///
/// Wire capacitance is **pitch-dependent**: the match line and search lines
/// of a design with a larger cell run proportionally longer per cell, so
/// dense FeFET cells get shorter (cheaper) wires than the 16T CMOS
/// baseline. Cells are modelled as square, `pitch = √area`.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry {
    /// Feature size F (meters).
    pub feature_size: f64,
    /// Wire capacitance per micrometre of routed length (farads/µm).
    pub wire_cap_per_um: f64,
    /// Output resistance of a search-line driver (ohms).
    pub sl_driver_resistance: f64,
    /// Width multiplier of the match-line precharge device relative to the
    /// card's minimum device.
    pub precharge_width_mult: f64,
    /// Width multiplier of footer/clamp NMOS devices.
    pub footer_width_mult: f64,
}

impl Default for Geometry {
    fn default() -> Self {
        Self {
            feature_size: 45e-9,
            wire_cap_per_um: 0.20e-15,
            sl_driver_resistance: 1.5e3,
            precharge_width_mult: 6.0,
            footer_width_mult: 2.0,
        }
    }
}

impl Geometry {
    /// Cell area in µm² given a design's area in F².
    pub fn cell_area_um2(&self, area_f2: f64) -> f64 {
        let f_um = self.feature_size * 1e6;
        area_f2 * f_um * f_um
    }

    /// Cell pitch in µm (square-cell model).
    pub fn cell_pitch_um(&self, area_f2: f64) -> f64 {
        self.cell_area_um2(area_f2).sqrt()
    }

    /// Match-line wire capacitance contributed per cell of a design with
    /// the given area (farads).
    pub fn ml_wire_cap_per_cell(&self, area_f2: f64) -> f64 {
        self.wire_cap_per_um * self.cell_pitch_um(area_f2)
    }

    /// One row's share of the search-line wire capacitance per cell
    /// crossing (farads). Square cells ⇒ same pitch vertically.
    pub fn sl_wire_cap_per_cell(&self, area_f2: f64) -> f64 {
        self.wire_cap_per_um * self.cell_pitch_um(area_f2)
    }

    /// Match-line wire capacitance for a segment of `cells` cells.
    pub fn ml_wire_cap(&self, area_f2: f64, cells: usize) -> f64 {
        self.ml_wire_cap_per_cell(area_f2) * cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_scales_with_f_squared() {
        let g = Geometry::default();
        // 1600 F² at 45 nm ≈ 3.24 µm².
        let a = g.cell_area_um2(1600.0);
        assert!((a - 3.24).abs() < 0.01, "area {a}");
    }

    #[test]
    fn bigger_cells_pay_more_wire() {
        let g = Geometry::default();
        let c_cmos = g.ml_wire_cap_per_cell(1600.0);
        let c_fefet = g.ml_wire_cap_per_cell(260.0);
        assert!(
            c_cmos / c_fefet > 2.0,
            "16T wire {c_cmos:.3e} vs FeFET {c_fefet:.3e}"
        );
        // Absolute scale: fractions of a femtofarad per cell.
        assert!(c_fefet > 0.05e-15 && c_fefet < 0.5e-15);
    }

    #[test]
    fn ml_cap_is_linear_in_cells() {
        let g = Geometry::default();
        let per_cell = g.ml_wire_cap_per_cell(260.0);
        assert!((g.ml_wire_cap(260.0, 64) - 64.0 * per_cell).abs() < 1e-21);
    }
}
