//! DC operating-point analysis.

use std::sync::Arc;

use crate::analysis::newton::{self, NewtonSettings, NewtonWorkspace};
use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::name::Names;
use crate::node::NodeId;
use crate::probe::{self, RecoveryStats};
use crate::stamp::{CommitCtx, IntegrationMethod, VarMap};

/// Solved DC operating point.
#[derive(Debug, Clone)]
pub struct DcResult {
    voltages: Vec<f64>,
    /// The circuit's node and pin names, shared for the lookups by name.
    names: Arc<Names>,
    /// Current delivered by each pinned source (amps).
    pin_currents: Vec<f64>,
    iterations: usize,
}

impl DcResult {
    /// Voltage of a node by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNodeName`] for unknown names.
    pub fn voltage(&self, node: &str) -> Result<f64, CircuitError> {
        self.names
            .nodes
            .iter()
            .rposition(|n| *n == *node)
            .map(|i| self.voltages[i])
            .ok_or_else(|| CircuitError::UnknownNodeName(node.to_string()))
    }

    /// Current delivered by the pinned source with the given label.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] for unknown labels.
    pub fn pin_current(&self, label: &str) -> Result<f64, CircuitError> {
        self.names
            .pins
            .iter()
            .position(|l| *l == *label)
            .map(|i| self.pin_currents[i])
            .ok_or_else(|| CircuitError::UnknownTrace(label.to_string()))
    }

    /// Newton iterations used (summed over `gmin` steps).
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// The DC operating-point analysis.
///
/// Solves the nonlinear resistive network with all capacitors open. If the
/// plain Newton iteration fails, a `gmin`-stepping homotopy retries from a
/// heavily shunted (easy) system and progressively removes the shunt.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::{Circuit, elements::Resistor, waveform::Waveform};
/// use ftcam_circuit::analysis::DcOperatingPoint;
///
/// # fn main() -> Result<(), ftcam_circuit::CircuitError> {
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let mid = ckt.node("mid");
/// ckt.pin(vdd, "VDD", Waveform::dc(1.0))?;
/// ckt.add(Resistor::new(vdd, mid, 1e3));
/// ckt.add(Resistor::new(mid, ckt.ground(), 3e3));
/// let op = DcOperatingPoint::new().run(&mut ckt)?;
/// assert!((op.voltage("mid")? - 0.75).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DcOperatingPoint {
    settings: NewtonSettings,
}

impl DcOperatingPoint {
    /// Creates the analysis with default tolerances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the full Newton settings (tolerances, iteration cap,
    /// damping and `gmin`).
    ///
    /// ```
    /// use ftcam_circuit::analysis::{DcOperatingPoint, NewtonSettings};
    ///
    /// let op = DcOperatingPoint::new()
    ///     .with_newton(NewtonSettings::new().with_tolerances(1e-6, 1e-8, 1e-14));
    /// # let _ = op;
    /// ```
    pub fn with_newton(mut self, settings: NewtonSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NewtonDiverged`] if even the `gmin` homotopy
    /// fails, or [`CircuitError::SingularMatrix`] for broken topologies.
    pub fn run(&self, circuit: &mut Circuit) -> Result<DcResult, CircuitError> {
        let vars = circuit.build_var_map();
        let (x, iterations) = solve_dc(circuit, &vars, &self.settings)?;
        Ok(package(circuit, &vars, &x, iterations))
    }
}

/// Solves the DC system, with `gmin` stepping on failure.
pub(crate) fn solve_dc(
    circuit: &Circuit,
    vars: &VarMap,
    settings: &NewtonSettings,
) -> Result<(Vec<f64>, usize), CircuitError> {
    let mut ws = NewtonWorkspace::new(vars.n_unknowns());
    let result = homotopy(circuit, vars, settings, &mut ws);
    // The one exit: the solver work and any rejected pivot of this
    // operating point reach the process-wide totals exactly once.
    probe::SOLVER.add(ws.perf);
    probe::RECOVERY.add(RecoveryStats {
        dense_demotions: u64::from(ws.matrix.rejected_pivot()),
        ..RecoveryStats::default()
    });
    result
}

/// A plain Newton solve, then a `gmin` homotopy if that fails.
fn homotopy(
    circuit: &Circuit,
    vars: &VarMap,
    settings: &NewtonSettings,
    ws: &mut NewtonWorkspace,
) -> Result<(Vec<f64>, usize), CircuitError> {
    let mut pinned = Vec::new();
    circuit.pinned_values_at(0.0, &mut pinned);

    let mut x = vec![0.0; vars.n_unknowns()];
    match newton::solve(
        circuit,
        vars,
        &mut x,
        &pinned,
        0.0,
        None,
        IntegrationMethod::BackwardEuler,
        settings,
        ws,
    ) {
        Ok(iters) => return Ok((x, iters)),
        Err(CircuitError::NewtonDiverged { .. })
        | Err(CircuitError::SingularMatrix { .. })
        | Err(CircuitError::NonFiniteSolution { .. }) => {}
        Err(e) => return Err(e),
    }

    // gmin homotopy: start with a strong shunt and relax it.
    let mut total_iters = 0usize;
    x.fill(0.0);
    let mut gmin = 1e-2;
    loop {
        let stepped = NewtonSettings { gmin, ..*settings };
        total_iters += newton::solve(
            circuit,
            vars,
            &mut x,
            &pinned,
            0.0,
            None,
            IntegrationMethod::BackwardEuler,
            &stepped,
            ws,
        )?;
        if gmin <= settings.gmin {
            return Ok((x, total_iters));
        }
        gmin = (gmin * 1e-2).max(settings.gmin);
    }
}

fn package(circuit: &Circuit, vars: &VarMap, x: &[f64], iterations: usize) -> DcResult {
    let mut pinned = Vec::new();
    circuit.pinned_values_at(0.0, &mut pinned);
    let ctx = CommitCtx {
        vars,
        x,
        pinned: &pinned,
        time: 0.0,
        dt: None,
        method: IntegrationMethod::BackwardEuler,
    };
    let voltages: Vec<f64> = (0..circuit.node_count())
        .map(|i| ctx.v(NodeId(i as u32)))
        .collect();

    let mut current_out = vec![0.0; circuit.node_count()];
    newton::measure_currents(
        circuit,
        &circuit.measured_devices(vars),
        vars,
        x,
        &pinned,
        0.0,
        None,
        IntegrationMethod::BackwardEuler,
        &mut current_out,
    );
    let pin_currents = circuit
        .pins
        .iter()
        .map(|p| current_out[p.node.index()])
        .collect();

    DcResult {
        voltages,
        names: Arc::clone(circuit.names()),
        pin_currents,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{CurrentSource, Diode, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let mid = ckt.node("mid");
        ckt.pin(vdd, "VDD", Waveform::dc(1.2)).unwrap();
        ckt.add(Resistor::new(vdd, mid, 2e3));
        ckt.add(Resistor::new(mid, ckt.ground(), 2e3));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        assert!((op.voltage("mid").unwrap() - 0.6).abs() < 1e-9);
        // Supply current: 1.2 V across 4 kΩ = 0.3 mA.
        assert!((op.pin_current("VDD").unwrap() - 0.3e-3).abs() < 1e-9);
    }

    #[test]
    fn branch_voltage_source_and_current_measurement() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let vid = ckt.add(VoltageSource::dc(a, ckt.ground(), 2.0));
        ckt.add(Resistor::new(a, ckt.ground(), 1e3));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        assert!((op.voltage("a").unwrap() - 2.0).abs() < 1e-9);
        // Re-run transient style check: branch current is not committed in
        // DC packaging, but node voltage proves the branch equation held.
        let _ = vid;
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // 1 mA pulled from ground into node a.
        ckt.add(CurrentSource::dc(ckt.ground(), a, 1e-3));
        ckt.add(Resistor::new(a, ckt.ground(), 1e3));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        assert!((op.voltage("a").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diode_resistor_bias_point() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        ckt.pin(vdd, "VDD", Waveform::dc(1.0)).unwrap();
        ckt.add(Resistor::new(vdd, a, 1e3));
        ckt.add(Diode::new(a, ckt.ground(), 1e-15));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        let va = op.voltage("a").unwrap();
        // Forward drop of a silicon-ish diode at ~0.4 mA.
        assert!(va > 0.55 && va < 0.75, "va = {va}");
        // KCL: resistor current equals diode current.
        let ir = (1.0 - va) / 1e3;
        let d = Diode::new(NodeId(2), NodeId::GROUND, 1e-15);
        let (id, _) = d.current_and_conductance(va);
        assert!((ir - id).abs() < 1e-8, "ir {ir} vs id {id}");
    }

    #[test]
    fn floating_node_held_by_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("float");
        ckt.add(crate::elements::Capacitor::new(a, ckt.ground(), 1e-15));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        assert!((op.voltage("float").unwrap()).abs() < 1e-6);
    }

    #[test]
    fn unknown_node_name_is_reported() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Resistor::new(a, ckt.ground(), 1e3));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        assert!(matches!(
            op.voltage("missing"),
            Err(CircuitError::UnknownNodeName(_))
        ));
    }
}
