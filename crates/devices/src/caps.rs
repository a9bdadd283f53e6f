//! Internal linear-capacitor companion state shared by MOSFET and FeFET.

use ftcam_circuit::{CommitCtx, IntegrationMethod, NodeId, StampCtx};

/// One linear capacitance folded into a multi-terminal device.
#[derive(Debug, Clone)]
pub(crate) struct CapState {
    pub c: f64,
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
        ctx.stamp_conductance(a, b, g);
        ctx.stamp_current(a, b, ieq);
    }

    pub fn commit(&mut self, ctx: &CommitCtx<'_>, a: NodeId, b: NodeId) {
        let v = ctx.v(a) - ctx.v(b);
        // Only the trapezoidal companion reads `i_prev`; under backward
        // Euler it stays at the zero `init` gave it.
        match ctx.dt() {
            Some(dt) if ctx.method() == IntegrationMethod::Trapezoidal => {
                let (g, ieq) = self.companion(dt, ctx.method());
                self.i_prev = g * v + ieq;
            }
            Some(_) => {}
            None => self.i_prev = 0.0,
        }
        self.v_prev = v;
    }

    pub fn init(&mut self, ctx: &CommitCtx<'_>, a: NodeId, b: NodeId) {
        self.v_prev = ctx.v(a) - ctx.v(b);
        self.i_prev = 0.0;
    }
}
