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

use crate::linalg::SystemMatrix;
use crate::node::NodeId;

/// Numerical integration method for reactive companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Voltage of a resolved unknown given the candidate `x` and pinned values.
#[inline]
fn kind_v(kind: VarKind, x: &[f64], pinned: &[f64]) -> f64 {
    match kind {
        VarKind::Ground => 0.0,
        VarKind::Pinned(p) => pinned[p],
        VarKind::Free(col) => x[col],
    }
}

/// Voltage of `node` given the unknown map, candidate `x` and pinned values.
#[inline]
fn node_v(vars: &VarMap, x: &[f64], pinned: &[f64], node: NodeId) -> f64 {
    kind_v(vars.kinds[node.index()], x, pinned)
}

/// Assembles the (already scaled) transconductance `g`: current
/// `g·(v_cp − v_cm)` flows from `rows[0]` to `rows[1]`, with the nodes
/// resolved to unknowns. Free controls land in the matrix, pinned ones on
/// the right-hand side. With no matrix only a pinned control stamps, so
/// it returns early unless one is pinned. Always inlined, like the
/// two helpers below: left to the compiler it stayed a call, which cost
/// about 15% of dynamic assembly in a timed comparison.
#[inline(always)]
fn assemble_transconductance(
    matrix: &mut Option<&mut SystemMatrix>,
    rhs: &mut [f64],
    pinned: &[f64],
    rows: [VarKind; 2],
    ctrls: [VarKind; 2],
    g: f64,
) {
    if matrix.is_none() && !ctrls.iter().any(|k| matches!(k, VarKind::Pinned(_))) {
        return;
    }
    // Row contributions: F[rows[0]] += g·(v_cp − v_cm);
    //                    F[rows[1]] −= g·(v_cp − v_cm).
    for (rk, rs) in [(rows[0], 1.0), (rows[1], -1.0)] {
        let VarKind::Free(row) = rk else { continue };
        for (ck, cs) in [(ctrls[0], 1.0), (ctrls[1], -1.0)] {
            let coeff = rs * cs * g;
            match ck {
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

/// Assembles the (already scaled) independent current `i` flowing from
/// `from` to `to`, resolved to unknowns.
#[inline(always)]
fn assemble_current(rhs: &mut [f64], from: VarKind, to: VarKind, i: f64) {
    if let VarKind::Free(row) = from {
        rhs[row] -= i;
    }
    if let VarKind::Free(row) = to {
        rhs[row] += i;
    }
}

/// Measures current `i` leaving `from` and entering `to`.
#[inline(always)]
fn measure_flow(current_out: &mut [f64], from: NodeId, to: NodeId, i: f64) {
    current_out[from.index()] += i;
    current_out[to.index()] -= i;
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
///
/// Each device class stamps through one primitive per branch, which
/// resolves its nodes to unknowns once:
///
/// * MOSFET and FeFET channels: [`StampCtx::stamp_channel`];
/// * capacitors, the transistors' companion capacitances and diodes:
///   [`StampCtx::stamp_norton`];
/// * resistors, switches and ReRAM cells: [`StampCtx::stamp_conductance`];
/// * current sources and the FeFET's lagged displacement current:
///   [`StampCtx::stamp_current`];
/// * voltage sources: [`StampCtx::stamp_branch_voltage`].
///
/// In a right-hand-side-only pass a conductance stamps nothing unless one
/// of its nodes is pinned, so it returns before touching the right-hand
/// side.
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

    #[inline]
    fn kind(&self, node: NodeId) -> VarKind {
        self.vars.kinds[node.index()]
    }

    /// Stamps a conductance `g` between `a` and `b` (current `g·(v_a − v_b)`
    /// flows from `a` to `b` through the device).
    #[inline]
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let (ka, kb) = (self.kind(a), self.kind(b));
        let g = g * self.mult;
        let (x, pinned) = (self.x, self.pinned);
        match &mut self.mode {
            StampMode::Measure { current_out } => {
                let i = g * (kind_v(ka, x, pinned) - kind_v(kb, x, pinned));
                measure_flow(current_out, a, b, i);
            }
            StampMode::Assemble { matrix, rhs } => {
                assemble_transconductance(matrix, rhs, pinned, [ka, kb], [ka, kb], g);
            }
        }
    }

    /// Stamps an independent current `i` flowing from `from` to `to` through
    /// the device (the Norton/companion-model source term).
    #[inline]
    pub fn stamp_current(&mut self, from: NodeId, to: NodeId, i: f64) {
        let i = i * self.mult;
        let vars = self.vars;
        match &mut self.mode {
            StampMode::Measure { current_out } => measure_flow(current_out, from, to, i),
            StampMode::Assemble { rhs, .. } => {
                assemble_current(rhs, vars.kinds[from.index()], vars.kinds[to.index()], i);
            }
        }
    }

    /// Stamps a Norton branch between `a` and `b`: current `g·(v_a − v_b) + i`
    /// flows from `a` to `b` through the device. Equal, bit for bit, to
    /// [`StampCtx::stamp_conductance`] then [`StampCtx::stamp_current`],
    /// with each node resolved once.
    #[inline]
    pub fn stamp_norton(&mut self, a: NodeId, b: NodeId, g: f64, i: f64) {
        let (ka, kb) = (self.kind(a), self.kind(b));
        let (g, i) = (g * self.mult, i * self.mult);
        let (x, pinned) = (self.x, self.pinned);
        match &mut self.mode {
            StampMode::Measure { current_out } => {
                let ig = g * (kind_v(ka, x, pinned) - kind_v(kb, x, pinned));
                measure_flow(current_out, a, b, ig);
                measure_flow(current_out, a, b, i);
            }
            StampMode::Assemble { matrix, rhs } => {
                assemble_transconductance(matrix, rhs, pinned, [ka, kb], [ka, kb], g);
                assemble_current(rhs, ka, kb, i);
            }
        }
    }

    /// Stamps a linearised transistor channel: current
    /// `gm·(v_g − v_s) + gds·(v_d − v_s) + ieq` flows from drain `d` to
    /// source `s` through the device. Equal, bit for bit, to the
    /// transconductance `gm` (drain to source, controlled by gate minus
    /// source), then [`StampCtx::stamp_conductance`] of `gds` and
    /// [`StampCtx::stamp_current`] of `ieq`, with each node resolved once.
    #[inline]
    pub fn stamp_channel(&mut self, d: NodeId, g: NodeId, s: NodeId, gm: f64, gds: f64, ieq: f64) {
        let (kd, kg, ks) = (self.kind(d), self.kind(g), self.kind(s));
        let m = self.mult;
        let (gm, gds, ieq) = (gm * m, gds * m, ieq * m);
        let (x, pinned) = (self.x, self.pinned);
        match &mut self.mode {
            StampMode::Measure { current_out } => {
                let (vd, vg, vs) = (
                    kind_v(kd, x, pinned),
                    kind_v(kg, x, pinned),
                    kind_v(ks, x, pinned),
                );
                measure_flow(current_out, d, s, gm * (vg - vs));
                measure_flow(current_out, d, s, gds * (vd - vs));
                measure_flow(current_out, d, s, ieq);
            }
            StampMode::Assemble { matrix, rhs } => {
                assemble_transconductance(matrix, rhs, pinned, [kd, ks], [kg, ks], gm);
                assemble_transconductance(matrix, rhs, pinned, [kd, ks], [kd, ks], gds);
                assemble_current(rhs, kd, ks, ieq);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::StampTape;

    /// The generic transconductance the node-resolved primitives replace,
    /// kept verbatim as the reference: every node is looked up where it is
    /// used.
    fn generic_transconductance(
        ctx: &mut StampCtx<'_>,
        out_from: NodeId,
        out_to: NodeId,
        ctrl_plus: NodeId,
        ctrl_minus: NodeId,
        g: f64,
    ) {
        let g = g * ctx.mult;
        let vars = ctx.vars;
        let (x, pinned) = (ctx.x, ctx.pinned);
        match &mut ctx.mode {
            StampMode::Measure { current_out } => {
                let vc = node_v(vars, x, pinned, ctrl_plus) - node_v(vars, x, pinned, ctrl_minus);
                let i = g * vc;
                current_out[out_from.index()] += i;
                current_out[out_to.index()] -= i;
            }
            StampMode::Assemble { matrix, rhs } => {
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

    /// The generic current source, verbatim as the reference.
    fn generic_current(ctx: &mut StampCtx<'_>, from: NodeId, to: NodeId, i: f64) {
        let i = i * ctx.mult;
        let vars = ctx.vars;
        match &mut ctx.mode {
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

    #[derive(Debug, Clone, Copy)]
    enum Role {
        Free,
        Pinned,
        Ground,
    }

    const ROLES: [Role; 3] = [Role::Free, Role::Pinned, Role::Ground];

    /// An unknown map in which terminal `k` is its own node with role
    /// `roles[k]`, or the ground node; plus a candidate point and pinned
    /// values with full mantissas, so any reordered sum shows in the bits.
    struct Fixture {
        vars: VarMap,
        nodes: Vec<NodeId>,
        x: Vec<f64>,
        pinned: Vec<f64>,
    }

    impl Fixture {
        fn new(roles: &[Role]) -> Self {
            let mut kinds = vec![VarKind::Ground];
            let (mut n_free, mut n_pinned) = (0, 0);
            let nodes = roles
                .iter()
                .map(|role| {
                    let kind = match role {
                        Role::Ground => return NodeId::GROUND,
                        Role::Free => {
                            n_free += 1;
                            VarKind::Free(n_free - 1)
                        }
                        Role::Pinned => {
                            n_pinned += 1;
                            VarKind::Pinned(n_pinned - 1)
                        }
                    };
                    kinds.push(kind);
                    NodeId(kinds.len() as u32 - 1)
                })
                .collect();
            Self {
                vars: VarMap {
                    kinds,
                    n_free,
                    n_branches: 0,
                    free_mult: vec![1.0; n_free],
                },
                nodes,
                x: (0..n_free).map(|c| 0.31 + 0.123_456_7 * c as f64).collect(),
                pinned: (0..n_pinned)
                    .map(|p| 0.8 - 0.271_828_1 * p as f64)
                    .collect(),
            }
        }

        fn ctx<'a>(&'a self, mode: StampMode<'a>, mult: f64) -> StampCtx<'a> {
            StampCtx {
                mode,
                vars: &self.vars,
                x: &self.x,
                pinned: &self.pinned,
                time: 0.0,
                dt: Some(1e-12),
                method: IntegrationMethod::BackwardEuler,
                mult,
            }
        }

        /// A right-hand side (or measured current) that is not zero, so
        /// the order of what a stamp adds to it matters.
        fn prefilled(len: usize) -> Vec<f64> {
            (0..len).map(|k| 1e-6 * (1.0 + 0.1 * k as f64)).collect()
        }

        /// Asserts that `fused` equals `generic` bit for bit in tape
        /// record, tape replay, rhs-only assembly and measure mode.
        fn assert_same(
            &self,
            what: &str,
            mult: f64,
            generic: &dyn Fn(&mut StampCtx<'_>),
            fused: &dyn Fn(&mut StampCtx<'_>),
        ) {
            let n = self.vars.n_unknowns();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            // Record: same values in the same slot order, same rhs.
            let record = |stamp: &dyn Fn(&mut StampCtx<'_>)| {
                let mut m = SystemMatrix::new(n);
                m.begin_tape(StampTape::new());
                let mut rhs = Self::prefilled(n);
                let matrix = Some(&mut m);
                stamp(&mut self.ctx(
                    StampMode::Assemble {
                        matrix,
                        rhs: &mut rhs,
                    },
                    mult,
                ));
                let tape = m.end_tape();
                (m, tape, rhs)
            };
            let (mut m_gen, tape, rhs_gen) = record(generic);
            let (m_fused, tape_fused, rhs_fused) = record(fused);
            assert_eq!(
                bits(m_gen.values()),
                bits(m_fused.values()),
                "{what}: record values"
            );
            assert_eq!(bits(&rhs_gen), bits(&rhs_fused), "{what}: record rhs");
            assert_eq!(tape.len(), tape_fused.len(), "{what}: tape length");
            // Replay the generic tape: the fused adds must follow it write
            // for write, landing the same values.
            let mut replay = |stamp: &dyn Fn(&mut StampCtx<'_>), tape: StampTape| {
                m_gen.clear();
                assert!(m_gen.begin_tape(tape), "{what}: the tape replays");
                let mut rhs = Self::prefilled(n);
                let matrix = Some(&mut m_gen);
                stamp(&mut self.ctx(
                    StampMode::Assemble {
                        matrix,
                        rhs: &mut rhs,
                    },
                    mult,
                ));
                let tape = m_gen.end_tape();
                assert!(tape.is_valid(), "{what}: replay follows the tape");
                (bits(m_gen.values()), tape)
            };
            let (vals_gen, tape) = replay(generic, tape);
            let (vals_fused, _) = replay(fused, tape);
            assert_eq!(vals_gen, vals_fused, "{what}: replay values");
            // Right-hand side only.
            let rhs_only = |stamp: &dyn Fn(&mut StampCtx<'_>)| {
                let mut rhs = Self::prefilled(n);
                let mode = StampMode::Assemble {
                    matrix: None,
                    rhs: &mut rhs,
                };
                stamp(&mut self.ctx(mode, mult));
                bits(&rhs)
            };
            assert_eq!(rhs_only(generic), rhs_only(fused), "{what}: rhs-only");
            // Measure.
            let measure = |stamp: &dyn Fn(&mut StampCtx<'_>)| {
                let mut current_out = Self::prefilled(self.vars.kinds.len());
                let mode = StampMode::Measure {
                    current_out: &mut current_out,
                };
                stamp(&mut self.ctx(mode, mult));
                bits(&current_out)
            };
            assert_eq!(measure(generic), measure(fused), "{what}: measure");
        }
    }

    const MULTS: [f64; 2] = [1.0, 3.0];

    #[test]
    fn channel_stamp_equals_the_generic_sequence() {
        let (gm, gds, ieq) = (1.234_567_8e-4, 3.217_654e-6, -7.771_234e-7);
        let mut cases = 0;
        for rd in ROLES {
            for rg in ROLES {
                for rs in ROLES {
                    let f = Fixture::new(&[rd, rg, rs]);
                    let [d, g, s] = [f.nodes[0], f.nodes[1], f.nodes[2]];
                    for mult in MULTS {
                        f.assert_same(
                            &format!("channel d={rd:?} g={rg:?} s={rs:?} m={mult}"),
                            mult,
                            &|ctx| {
                                generic_transconductance(ctx, d, s, g, s, gm);
                                generic_transconductance(ctx, d, s, d, s, gds);
                                generic_current(ctx, d, s, ieq);
                            },
                            &|ctx| ctx.stamp_channel(d, g, s, gm, gds, ieq),
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 27 * MULTS.len());
        // A diode-connected transistor shares its gate and drain node.
        for rd in ROLES {
            for rs in ROLES {
                let f = Fixture::new(&[rd, rs]);
                let [d, s] = [f.nodes[0], f.nodes[1]];
                f.assert_same(
                    &format!("diode-connected d=g={rd:?} s={rs:?}"),
                    3.0,
                    &|ctx| {
                        generic_transconductance(ctx, d, s, d, s, gm);
                        generic_transconductance(ctx, d, s, d, s, gds);
                        generic_current(ctx, d, s, ieq);
                    },
                    &|ctx| ctx.stamp_channel(d, d, s, gm, gds, ieq),
                );
            }
        }
    }

    #[test]
    fn norton_and_conductance_stamps_equal_the_generic_sequence() {
        let (g, i) = (2.718_281_8e-3, -1.414_213_5e-6);
        let mut cases = 0;
        for ra in ROLES {
            for rb in ROLES {
                let f = Fixture::new(&[ra, rb]);
                let [a, b] = [f.nodes[0], f.nodes[1]];
                for mult in MULTS {
                    f.assert_same(
                        &format!("norton a={ra:?} b={rb:?} m={mult}"),
                        mult,
                        &|ctx| {
                            generic_transconductance(ctx, a, b, a, b, g);
                            generic_current(ctx, a, b, i);
                        },
                        &|ctx| ctx.stamp_norton(a, b, g, i),
                    );
                    f.assert_same(
                        &format!("conductance a={ra:?} b={rb:?} m={mult}"),
                        mult,
                        &|ctx| generic_transconductance(ctx, a, b, a, b, g),
                        &|ctx| ctx.stamp_conductance(a, b, g),
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 9 * MULTS.len());
    }
}
