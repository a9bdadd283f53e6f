//! Stamping and commit contexts passed to devices.
//!
//! The same [`StampCtx`] serves two modes:
//!
//! * **Assemble** — build the Newton-linearised MNA system `A·x = z`, or
//!   only its right-hand side `z` when the matrix values were restored from
//!   a cached baseline.
//! * **Measure** — after convergence, re-run the stamps of the devices
//!   touching a pinned node to accumulate the exact current each ideal
//!   source delivers, which feeds the energy meter. Free-node entries are
//!   partial sums and are not read: the KCL check is the residual `z − A·x`
//!   of the last Newton load (see `analysis::newton`).

use serde::{Deserialize, Serialize};

use crate::linalg::SystemMatrix;
use crate::node::NodeId;

/// Numerical integration method for reactive companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IntegrationMethod {
    /// First-order, L-stable. Damps the stiff precharge edges of TCAM
    /// testbenches without ringing; the project default.
    #[default]
    BackwardEuler,
    /// Second-order, A-stable. More accurate for smooth waveforms; used in
    /// cross-checking tests.
    Trapezoidal,
}

/// Classification of each node in the unknown map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarKind {
    /// The global reference; voltage is identically zero.
    Ground,
    /// Driven by an ideal pinned source; voltage known at every instant.
    Pinned(usize),
    /// A free node with an unknown voltage at column `usize`.
    Free(usize),
}

/// Mapping from circuit nodes to MNA unknowns.
#[derive(Debug, Clone)]
pub(crate) struct VarMap {
    pub kinds: Vec<VarKind>,
    pub n_free: usize,
    pub n_branches: usize,
    /// Multiplicity of each free node, by column: scales its `gmin` shunt.
    pub free_mult: Vec<f64>,
}

impl VarMap {
    pub fn n_unknowns(&self) -> usize {
        self.n_free + self.n_branches
    }

    pub fn branch_col(&self, branch: usize) -> usize {
        self.n_free + branch
    }
}

/// Voltage of `node` given the unknown map, candidate `x` and pinned values.
#[inline]
fn node_v(vars: &VarMap, x: &[f64], pinned: &[f64], node: NodeId) -> f64 {
    match vars.kinds[node.index()] {
        VarKind::Ground => 0.0,
        VarKind::Pinned(p) => pinned[p],
        VarKind::Free(col) => x[col],
    }
}

pub(crate) enum StampMode<'a> {
    Assemble {
        /// `None` stamps the right-hand side only: the matrix values were
        /// restored from a baseline taken at the same `(dt, method, gmin)`.
        matrix: Option<&'a mut SystemMatrix>,
        rhs: &'a mut [f64],
    },
    Measure {
        /// Net current flowing out of each node into devices, indexed by
        /// node index (length = node count).
        current_out: &'a mut [f64],
    },
}

/// The view a [`crate::Device`] gets of the system being assembled.
///
/// All stamping primitives follow the convention that a positive current
/// flows *from* the first node *to* the second node **through the device**.
///
/// Every primitive scales what it stamps by the multiplicity of the device
/// being stamped (see [`crate::Circuit::set_multiplicity`]): conductances,
/// transconductances and currents, in both modes.
pub struct StampCtx<'a> {
    pub(crate) mode: StampMode<'a>,
    pub(crate) vars: &'a VarMap,
    /// Candidate solution (free node voltages then branch currents).
    pub(crate) x: &'a [f64],
    /// Voltages of pinned nodes at the current time.
    pub(crate) pinned: &'a [f64],
    pub(crate) time: f64,
    /// `None` during DC analysis.
    pub(crate) dt: Option<f64>,
    pub(crate) method: IntegrationMethod,
    /// Multiplicity of the device being stamped.
    pub(crate) mult: f64,
}

impl<'a> StampCtx<'a> {
    /// Candidate voltage of `node` at this Newton iteration.
    #[inline]
    pub fn v(&self, node: NodeId) -> f64 {
        node_v(self.vars, self.x, self.pinned, node)
    }

    /// Candidate current of branch unknown `branch`.
    #[inline]
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.x[self.vars.branch_col(branch)]
    }

    /// Absolute simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Current step size; `None` during DC analysis.
    pub fn dt(&self) -> Option<f64> {
        self.dt
    }

    /// `true` while solving the DC operating point.
    pub fn is_dc(&self) -> bool {
        self.dt.is_none()
    }

    /// Active integration method.
    pub fn method(&self) -> IntegrationMethod {
        self.method
    }

    /// Stamps a conductance `g` between `a` and `b` (current `g·(v_a − v_b)`
    /// flows from `a` to `b` through the device).
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        self.stamp_transconductance(a, b, a, b, g);
    }

    /// Stamps a transconductance: current `g·(v_cp − v_cm)` flows from
    /// `out_from` to `out_to` through the device.
    pub fn stamp_transconductance(
        &mut self,
        out_from: NodeId,
        out_to: NodeId,
        ctrl_plus: NodeId,
        ctrl_minus: NodeId,
        g: f64,
    ) {
        let g = g * self.mult;
        let vars = self.vars;
        let (x, pinned) = (self.x, self.pinned);
        match &mut self.mode {
            StampMode::Measure { current_out } => {
                let vc = node_v(vars, x, pinned, ctrl_plus) - node_v(vars, x, pinned, ctrl_minus);
                let i = g * vc;
                current_out[out_from.index()] += i;
                current_out[out_to.index()] -= i;
            }
            StampMode::Assemble { matrix, rhs } => {
                // Row contributions: F[out_from] += g·(v_cp − v_cm);
                //                    F[out_to]   −= g·(v_cp − v_cm).
                let rows = [(out_from, 1.0), (out_to, -1.0)];
                let ctrls = [(ctrl_plus, 1.0), (ctrl_minus, -1.0)];
                for (rn, rs) in rows {
                    let row = match vars.kinds[rn.index()] {
                        VarKind::Free(col) => col,
                        _ => continue,
                    };
                    for (cn, cs) in ctrls {
                        let coeff = rs * cs * g;
                        match vars.kinds[cn.index()] {
                            VarKind::Free(col) => {
                                if let Some(m) = matrix {
                                    m.add(row, col, coeff);
                                }
                            }
                            VarKind::Ground => {}
                            VarKind::Pinned(p) => rhs[row] -= coeff * pinned[p],
                        }
                    }
                }
            }
        }
    }

    /// Stamps an independent current `i` flowing from `from` to `to` through
    /// the device (the Norton/companion-model source term).
    pub fn stamp_current(&mut self, from: NodeId, to: NodeId, i: f64) {
        let i = i * self.mult;
        let vars = self.vars;
        match &mut self.mode {
            StampMode::Measure { current_out } => {
                current_out[from.index()] += i;
                current_out[to.index()] -= i;
            }
            StampMode::Assemble { rhs, .. } => {
                if let VarKind::Free(row) = vars.kinds[from.index()] {
                    rhs[row] -= i;
                }
                if let VarKind::Free(row) = vars.kinds[to.index()] {
                    rhs[row] += i;
                }
            }
        }
    }

    /// Stamps an ideal voltage source of value `v` between `plus` and
    /// `minus` through branch unknown `branch`.
    pub fn stamp_branch_voltage(&mut self, branch: usize, plus: NodeId, minus: NodeId, v: f64) {
        let vars = self.vars;
        let (x, pinned) = (self.x, self.pinned);
        let bcol = vars.branch_col(branch);
        // The branch unknown is the current of one copy; the KCL rows see
        // all `m` of them. The branch row itself is not scaled.
        let m = self.mult;
        match &mut self.mode {
            StampMode::Measure { current_out } => {
                let i = x[bcol] * m;
                current_out[plus.index()] += i;
                current_out[minus.index()] -= i;
            }
            StampMode::Assemble { matrix, rhs } => {
                // Branch row: v_plus − v_minus = v.
                let brow = bcol;
                rhs[brow] += v;
                for (node, sign) in [(plus, 1.0), (minus, -1.0)] {
                    if let VarKind::Pinned(p) = vars.kinds[node.index()] {
                        rhs[brow] -= sign * pinned[p];
                    }
                }
                let Some(matrix) = matrix else { return };
                // KCL rows: branch current leaves `plus`, enters `minus`.
                if let VarKind::Free(row) = vars.kinds[plus.index()] {
                    matrix.add(row, bcol, m);
                }
                if let VarKind::Free(row) = vars.kinds[minus.index()] {
                    matrix.add(row, bcol, -m);
                }
                for (node, sign) in [(plus, 1.0), (minus, -1.0)] {
                    if let VarKind::Free(col) = vars.kinds[node.index()] {
                        matrix.add(brow, col, sign);
                    }
                }
            }
        }
    }
}

/// Read-only view of the committed solution handed to [`crate::Device::commit`].
pub struct CommitCtx<'a> {
    pub(crate) vars: &'a VarMap,
    pub(crate) x: &'a [f64],
    pub(crate) pinned: &'a [f64],
    pub(crate) time: f64,
    pub(crate) dt: Option<f64>,
    pub(crate) method: IntegrationMethod,
}

impl<'a> CommitCtx<'a> {
    /// Committed voltage of `node`.
    #[inline]
    pub fn v(&self, node: NodeId) -> f64 {
        node_v(self.vars, self.x, self.pinned, node)
    }

    /// Committed current of branch unknown `branch`.
    #[inline]
    pub fn branch_current(&self, branch: usize) -> f64 {
        self.x[self.vars.branch_col(branch)]
    }

    /// Absolute simulation time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The step that was just accepted; `None` right after DC.
    pub fn dt(&self) -> Option<f64> {
        self.dt
    }

    /// Active integration method.
    pub fn method(&self) -> IntegrationMethod {
        self.method
    }
}
