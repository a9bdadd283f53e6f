//! Internal linear-capacitor companion state shared by MOSFET and FeFET.

use ftcam_circuit::{IntegrationMethod, NodeId, StampCtx};

/// One linear capacitance folded into a multi-terminal device.
#[derive(Debug, Clone)]
pub(crate) struct CapState {
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

impl CapState {
    pub fn new(c: f64) -> Self {
        Self {
            c,
            v_prev: 0.0,
            i_prev: 0.0,
        }
    }

    fn companion(&self, dt: f64, method: IntegrationMethod) -> (f64, f64) {
        match method {
            IntegrationMethod::BackwardEuler => {
                let g = self.c / dt;
                (g, -g * self.v_prev)
            }
            IntegrationMethod::Trapezoidal => {
                let g = 2.0 * self.c / dt;
                (g, -g * self.v_prev - self.i_prev)
            }
        }
    }

    pub fn stamp(&self, ctx: &mut StampCtx<'_>, a: NodeId, b: NodeId) {
        if self.c <= 0.0 {
            return;
        }
        let Some(dt) = ctx.dt() else { return };
        let (g, ieq) = self.companion(dt, ctx.method());
        ctx.stamp_norton(a, b, g, ieq);
    }

    /// Commits the voltage `v` across the capacitance at the step `dt`
    /// just accepted (`None` right after DC).
    pub fn commit_v(&mut self, v: f64, dt: Option<f64>, method: IntegrationMethod) {
        // Only the trapezoidal companion reads `i_prev`; under backward
        // Euler it stays at the zero `init_v` gave it.
        match dt {
            Some(dt) if method == IntegrationMethod::Trapezoidal => {
                let (g, ieq) = self.companion(dt, method);
                self.i_prev = g * v + ieq;
            }
            Some(_) => {}
            None => self.i_prev = 0.0,
        }
        self.v_prev = v;
    }

    /// Starts the history at voltage `v` with no current.
    pub fn init_v(&mut self, v: f64) {
        self.v_prev = v;
        self.i_prev = 0.0;
    }
}

/// The four capacitances of a transistor: gate–source, gate–drain, and
/// the drain and source junctions to the implicit grounded bulk.
#[derive(Debug, Clone)]
pub(crate) struct TerminalCaps {
    cgs: CapState,
    cgd: CapState,
    cdb: CapState,
    csb: CapState,
}

impl TerminalCaps {
    /// Gate capacitances `c_gate` each and junctions `c_junction` each.
    pub fn new(c_gate: f64, c_junction: f64) -> Self {
        Self {
            cgs: CapState::new(c_gate),
            cgd: CapState::new(c_gate),
            cdb: CapState::new(c_junction),
            csb: CapState::new(c_junction),
        }
    }

    pub fn stamp(&self, ctx: &mut StampCtx<'_>, d: NodeId, g: NodeId, s: NodeId) {
        self.cgs.stamp(ctx, g, s);
        self.cgd.stamp(ctx, g, d);
        self.cdb.stamp(ctx, d, NodeId::GROUND);
        self.csb.stamp(ctx, s, NodeId::GROUND);
    }

    /// Commits the terminal voltages `(v_d, v_g, v_s)`, each read once
    /// by the caller.
    pub fn commit_v(&mut self, [vd, vg, vs]: [f64; 3], dt: Option<f64>, method: IntegrationMethod) {
        self.cgs.commit_v(vg - vs, dt, method);
        self.cgd.commit_v(vg - vd, dt, method);
        self.cdb.commit_v(vd, dt, method);
        self.csb.commit_v(vs, dt, method);
    }

    /// Starts every history at the terminal voltages `(v_d, v_g, v_s)`.
    pub fn init_v(&mut self, [vd, vg, vs]: [f64; 3]) {
        self.cgs.init_v(vg - vs);
        self.cgd.init_v(vg - vd);
        self.cdb.init_v(vd);
        self.csb.init_v(vs);
    }
}
