//! E14 / Fig. 11 (extension) — search energy and sense margin across
//! temperature.
//!
//! Temperature moves three things at once: subthreshold leakage (up,
//! exponentially), on-current (down, through mobility), and threshold
//! voltage (down). The figure tracks how each design's search energy and
//! worst-case margin respond from cold to hot corner.

use ftcam_array::calibrate_row;
use ftcam_cells::{CellError, DesignKind};

use crate::report::{Artifact, Figure};
use crate::Evaluator;

/// Parameters for the temperature sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Temperatures to evaluate (°C).
    pub temperatures: Vec<f64>,
    /// Word width.
    pub width: usize,
    /// Designs to include.
    pub designs: Vec<DesignKind>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            temperatures: vec![-25.0, 27.0, 85.0],
            width: 8,
            designs: vec![DesignKind::Cmos16T, DesignKind::FeFet2T, DesignKind::EaFull],
        }
    }
}

impl Params {
    /// Paper-scale preset.
    pub fn full() -> Self {
        Self {
            temperatures: vec![-40.0, -25.0, 0.0, 27.0, 55.0, 85.0, 125.0],
            width: 32,
            ..Self::default()
        }
    }
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(eval: &Evaluator, params: &Params) -> Result<Artifact, CellError> {
    let mut fig = Figure::new(
        "fig11",
        "Temperature dependence of search energy and sense margin (extension experiment)",
        "temperature (°C)",
        "energy (fJ/bit) / margin (V)",
        params.temperatures.clone(),
    );
    // One job per (design, temperature) corner. Each corner derives its
    // own temperature-scaled card and calls `calibrate_row` directly —
    // the cache is keyed on the nominal card, so it is bypassed here.
    let corners: Vec<(DesignKind, f64)> = params
        .designs
        .iter()
        .flat_map(|&kind| params.temperatures.iter().map(move |&t| (kind, t)))
        .collect();
    let cells = eval.executor().run(&corners, |_, &(kind, t)| {
        let card = eval.card().at_temperature(t);
        match calibrate_row(kind, &card, eval.geometry(), eval.timing(), params.width) {
            Ok(calib) => Ok(Some((
                calib.row_energy(params.width / 2) / params.width as f64 * 1e15,
                calib.margin_match.min(calib.margin_mismatch_1),
            ))),
            // Margin collapse at a temperature corner is itself the
            // result: record the failed corner as a gap.
            Err(CellError::CalibrationDecisionError { .. }) => Ok(None),
            Err(err) => Err(err),
        }
    })?;
    let mut failed_corners: Vec<String> = Vec::new();
    for (di, &kind) in params.designs.iter().enumerate() {
        let mut e = Vec::with_capacity(params.temperatures.len());
        let mut m = Vec::with_capacity(params.temperatures.len());
        for (ti, &t) in params.temperatures.iter().enumerate() {
            match cells[di * params.temperatures.len() + ti] {
                Some((energy, margin)) => {
                    e.push(energy);
                    m.push(margin);
                }
                None => {
                    failed_corners.push(format!("{} @ {t} °C", kind.key()));
                    e.push(f64::NAN);
                    m.push(f64::NAN);
                }
            }
        }
        fig.push_series(format!("{} energy (fJ/bit)", kind.key()), e);
        fig.push_series(format!("{} margin (V)", kind.key()), m);
    }
    if !failed_corners.is_empty() {
        fig.note(format!(
            "functional failure at corner (no point plotted): {} — reduced-margin \
             designs lose their hot-corner headroom first",
            failed_corners.join(", ")
        ));
    }
    fig.note(
        "first-order card scaling: V_T = kT/q, V_th −1 mV/K, mobility (T/T₀)^−1.5; \
         the FeFET memory window is treated as temperature-stable (HZO windows \
         drift little below 125 °C in published measurements)",
    );
    Ok(Artifact::Figure(fig))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_stay_positive_across_corners() {
        let eval = Evaluator::quick();
        let params = Params {
            temperatures: vec![-25.0, 85.0],
            width: 4,
            designs: vec![DesignKind::FeFet2T],
        };
        let Artifact::Figure(fig) = run(&eval, &params).unwrap() else {
            panic!("expected figure")
        };
        let margins = &fig.series[1].y;
        assert!(margins.iter().all(|&m| m > 0.0), "margins {margins:?}");
    }
}
