//! Time-scheduled ideal switch.

use crate::device::{Device, StampClass};
use crate::node::NodeId;
use crate::stamp::StampCtx;

/// A resistive switch whose state follows a fixed time schedule.
///
/// Used for idealised control circuitry (e.g. a precharge enable) when the
/// transistor-level implementation is not the object of study. The switch is
/// a resistor of `r_on` when closed and `r_off` when open; transitions are
/// instantaneous at the scheduled instants, which are also reported as
/// breakpoints so the transient engine lands a step exactly on them.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::{Circuit, elements::TimedSwitch};
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// // Closed from t = 0, opens at 1 ns.
/// ckt.add(TimedSwitch::new(a, ckt.ground(), 100.0, 1e12, true, vec![(1e-9, false)]));
/// ```
#[derive(Debug, Clone)]
pub struct TimedSwitch {
    a: NodeId,
    b: NodeId,
    g_on: f64,
    g_off: f64,
    initial_closed: bool,
    /// Sorted `(time, closed)` transitions.
    schedule: Vec<(f64, bool)>,
}

impl TimedSwitch {
    /// Creates a switch between `a` and `b`.
    ///
    /// `schedule` lists `(time, closed)` transitions and must be sorted by
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `r_on` or `r_off` is not strictly positive, or if the
    /// schedule is not sorted.
    pub fn new(
        a: NodeId,
        b: NodeId,
        r_on: f64,
        r_off: f64,
        initially_closed: bool,
        schedule: Vec<(f64, bool)>,
    ) -> Self {
        assert!(
            r_on > 0.0 && r_off > 0.0,
            "switch resistances must be positive"
        );
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "switch schedule must be sorted by time"
        );
        Self {
            a,
            b,
            g_on: 1.0 / r_on,
            g_off: 1.0 / r_off,
            initial_closed: initially_closed,
            schedule,
        }
    }

    /// Whether the switch is closed at time `t`.
    pub fn is_closed_at(&self, t: f64) -> bool {
        let mut state = self.initial_closed;
        for &(time, closed) in &self.schedule {
            if t >= time {
                state = closed;
            } else {
                break;
            }
        }
        state
    }

    fn conductance_at(&self, t: f64) -> f64 {
        if self.is_closed_at(t) {
            self.g_on
        } else {
            self.g_off
        }
    }
}

impl Device for TimedSwitch {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        Some(format!(
            "* S{label} {} {} time-scheduled switch (r_on={}, r_off={}, {} transition(s))",
            names(self.a),
            names(self.b),
            crate::format_spice_number(1.0 / self.g_on),
            crate::format_spice_number(1.0 / self.g_off),
            self.schedule.len()
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        ctx.stamp_conductance(self.a, self.b, self.conductance_at(ctx.time()));
    }

    // g(t) moves with time but never with the candidate solution.
    fn stamp_class(&self) -> StampClass {
        StampClass::TimeVarying
    }

    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.a, self.b])
    }

    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        self.schedule
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t <= t_stop)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_transitions_apply_in_order() {
        let sw = TimedSwitch::new(
            NodeId(1),
            NodeId(2),
            100.0,
            1e12,
            true,
            vec![(1e-9, false), (3e-9, true)],
        );
        assert!(sw.is_closed_at(0.0));
        assert!(!sw.is_closed_at(2e-9));
        assert!(sw.is_closed_at(4e-9));
    }

    #[test]
    fn breakpoints_match_schedule() {
        let sw = TimedSwitch::new(NodeId(1), NodeId(2), 100.0, 1e12, false, vec![(1e-9, true)]);
        assert_eq!(sw.breakpoints(2e-9), vec![1e-9]);
        assert!(sw.breakpoints(0.5e-9).is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn rejects_unsorted_schedule() {
        let _ = TimedSwitch::new(
            NodeId(1),
            NodeId(2),
            100.0,
            1e12,
            false,
            vec![(2e-9, true), (1e-9, false)],
        );
    }
}
