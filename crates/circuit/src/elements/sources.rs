//! Independent two-terminal sources (non-pinned).
//!
//! Most testbenches should prefer [`crate::Circuit::pin`], which eliminates
//! the driven node from the unknown vector. The devices here exist for the
//! cases pinning cannot express: floating sources, series current
//! measurement, and current injection.

use crate::device::{Device, StampClass};
use crate::node::NodeId;
use crate::stamp::{CommitCtx, StampCtx};
use crate::waveform::Waveform;

/// An ideal voltage source between two arbitrary nodes, solved through an
/// MNA branch-current unknown.
///
/// The branch current (positive flowing from `plus` through the source to
/// `minus`) is available after each commit via [`VoltageSource::current`],
/// which makes the source double as an ammeter.
#[derive(Debug, Clone)]
pub struct VoltageSource {
    plus: NodeId,
    minus: NodeId,
    wave: Waveform,
    branch: usize,
    committed_current: f64,
}

impl VoltageSource {
    /// Creates a voltage source `v(plus) − v(minus) = wave(t)`.
    pub fn new(plus: NodeId, minus: NodeId, wave: Waveform) -> Self {
        Self {
            plus,
            minus,
            wave,
            branch: usize::MAX,
            committed_current: 0.0,
        }
    }

    /// DC voltage source.
    pub fn dc(plus: NodeId, minus: NodeId, volts: f64) -> Self {
        Self::new(plus, minus, Waveform::dc(volts))
    }

    /// Branch current at the last committed step (amps, plus → minus).
    pub fn current(&self) -> f64 {
        self.committed_current
    }
}

impl Device for VoltageSource {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        Some(format!(
            "V{label} {} {} {}",
            names(self.plus),
            names(self.minus),
            crate::spice_waveform(&self.wave)
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        let v = self.wave.value(ctx.time());
        ctx.stamp_branch_voltage(self.branch, self.plus, self.minus, v);
    }

    // The matrix stamp is the constant ±1 KCL/branch pattern; only the
    // rhs carries v(t).
    fn stamp_class(&self) -> StampClass {
        StampClass::Linear
    }

    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.plus, self.minus])
    }

    fn branch_count(&self) -> usize {
        1
    }

    fn assign_branches(&mut self, first: usize) {
        self.branch = first;
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        self.committed_current = ctx.branch_current(self.branch);
    }

    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        self.wave.breakpoints(t_stop)
    }
}

/// An ideal current source driving `wave(t)` amps from `from` to `to`
/// through itself (i.e. it pulls current out of `from` and pushes it into
/// `to`).
#[derive(Debug, Clone)]
pub struct CurrentSource {
    from: NodeId,
    to: NodeId,
    wave: Waveform,
}

impl CurrentSource {
    /// Creates a current source of `wave(t)` amps flowing `from → to`.
    pub fn new(from: NodeId, to: NodeId, wave: Waveform) -> Self {
        Self { from, to, wave }
    }

    /// DC current source.
    pub fn dc(from: NodeId, to: NodeId, amps: f64) -> Self {
        Self::new(from, to, Waveform::dc(amps))
    }
}

impl Device for CurrentSource {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        Some(format!(
            "I{label} {} {} {}",
            names(self.from),
            names(self.to),
            crate::spice_waveform(&self.wave)
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        let i = self.wave.value(ctx.time());
        ctx.stamp_current(self.from, self.to, i);
    }

    // Pure rhs contribution; no matrix stamp at all.
    fn stamp_class(&self) -> StampClass {
        StampClass::Linear
    }

    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.from, self.to])
    }

    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        self.wave.breakpoints(t_stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_source_declares_one_branch() {
        let v = VoltageSource::dc(NodeId(1), NodeId::GROUND, 1.0);
        assert_eq!(v.branch_count(), 1);
    }

    #[test]
    fn sources_expose_waveform_breakpoints() {
        let v = VoltageSource::new(
            NodeId(1),
            NodeId::GROUND,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9),
        );
        assert_eq!(v.breakpoints(10e-9).len(), 4);
        let i = CurrentSource::new(NodeId(1), NodeId::GROUND, Waveform::dc(1e-6));
        assert!(i.breakpoints(10e-9).is_empty());
    }
}
