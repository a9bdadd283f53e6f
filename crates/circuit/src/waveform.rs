//! Time-domain source waveforms (DC, pulse, piecewise-linear, sine).

/// A deterministic voltage/current waveform, evaluated at absolute time.
///
/// Waveforms drive pinned nodes, [`crate::elements::VoltageSource`]s and
/// [`crate::elements::CurrentSource`]s. They also expose their *breakpoints*
/// (instants of slope discontinuity) so the transient engine can align time
/// steps with sharp edges instead of stepping over them.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::waveform::Waveform;
/// // 0 → 1 V pulse: 1 ns delay, 50 ps edges, 2 ns width.
/// let w = Waveform::pulse(0.0, 1.0, 1e-9, 50e-12, 50e-12, 2e-9);
/// assert_eq!(w.value(0.0), 0.0);
/// assert_eq!(w.value(2e-9), 1.0);
/// assert!(w.value(1.025e-9) > 0.4 && w.value(1.025e-9) < 0.6); // mid-rise
/// assert_eq!(w.value(4e-9), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Single (optionally repeating) trapezoidal pulse.
    Pulse {
        /// Initial (resting) value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first rising edge, in seconds.
        delay: f64,
        /// Rise time (0 → allowed; treated as a 1 fs edge), seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Time spent at `v1` between edges, seconds.
        width: f64,
        /// Repetition period; `None` for a single pulse.
        period: Option<f64>,
    },
    /// Piecewise-linear waveform through `(time, value)` points.
    ///
    /// Before the first point the first value holds; after the last point the
    /// last value holds. Points must be sorted by time.
    Pwl(Vec<(f64, f64)>),
    /// Sinusoid `offset + amplitude·sin(2π·freq·(t − delay))` for `t ≥ delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
    },
}

/// Minimum edge duration substituted for a zero rise/fall time.
const MIN_EDGE: f64 = 1e-15;

impl Waveform {
    /// Constant waveform.
    pub fn dc(value: f64) -> Self {
        Waveform::Dc(value)
    }

    /// Single trapezoidal pulse (non-repeating).
    pub fn pulse(v0: f64, v1: f64, delay: f64, rise: f64, fall: f64, width: f64) -> Self {
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period: None,
        }
    }

    /// Repeating trapezoidal pulse with the given period.
    pub fn pulse_train(
        v0: f64,
        v1: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Self {
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period: Some(period),
        }
    }

    /// Piecewise-linear waveform; points must be sorted by time.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or times are not non-decreasing.
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "pwl waveform needs at least one point");
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "pwl points must be sorted by time"
        );
        Waveform::Pwl(points)
    }

    /// A step from `v0` to `v1` at time `at` with the given edge duration.
    pub fn step(v0: f64, v1: f64, at: f64, edge: f64) -> Self {
        Waveform::pwl(vec![(at, v0), (at + edge.max(MIN_EDGE), v1)])
    }

    /// Evaluates the waveform at absolute time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                let mut local = t - delay;
                if let Some(p) = period {
                    if local >= 0.0 {
                        local %= p;
                    }
                }
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                if local < 0.0 {
                    *v0
                } else if local < rise {
                    v0 + (v1 - v0) * (local / rise)
                } else if local < rise + width {
                    *v1
                } else if local < rise + width + fall {
                    v1 + (v0 - v1) * ((local - rise - width) / fall)
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => {
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                // Linear search is fine: PWL sources in this project have a
                // handful of points.
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t >= t0 && t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points[points.len() - 1].1
            }
            Waveform::Sine {
                offset,
                amplitude,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + amplitude * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }

    /// Collects slope-discontinuity instants within `[0, t_stop]`.
    ///
    /// The transient engine forces a step boundary at each breakpoint so
    /// sharp edges are never straddled.
    pub fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut out = Vec::new();
        match self {
            Waveform::Dc(_) => {}
            Waveform::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let single = [
                    *delay,
                    delay + rise,
                    delay + rise + width,
                    delay + rise + width + fall,
                ];
                match period {
                    None => out.extend(single.iter().copied().filter(|&t| t <= t_stop)),
                    Some(p) => {
                        let mut base = 0.0;
                        while base <= t_stop {
                            for &t in &single {
                                let shifted = t + base;
                                if shifted <= t_stop {
                                    out.push(shifted);
                                }
                            }
                            base += p;
                        }
                    }
                }
            }
            Waveform::Pwl(points) => {
                out.extend(points.iter().map(|&(t, _)| t).filter(|&t| t <= t_stop));
            }
            Waveform::Sine { delay, .. } => {
                if *delay <= t_stop {
                    out.push(*delay);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(0.8);
        assert_eq!(w.value(0.0), 0.8);
        assert_eq!(w.value(1.0), 0.8);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn pulse_edges_interpolate() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 100e-12, 200e-12, 1e-9);
        assert_eq!(w.value(0.5e-9), 0.0);
        assert!((w.value(1.05e-9) - 0.5).abs() < 1e-9); // mid rise
        assert_eq!(w.value(1.5e-9), 1.0);
        let mid_fall = 1e-9 + 100e-12 + 1e-9 + 100e-12;
        assert!((w.value(mid_fall) - 0.5).abs() < 1e-9);
        assert_eq!(w.value(5e-9), 0.0);
    }

    #[test]
    fn pulse_train_repeats() {
        let w = Waveform::pulse_train(0.0, 1.0, 0.0, 1e-12, 1e-12, 1e-9, 4e-9);
        assert_eq!(w.value(0.5e-9), 1.0);
        assert_eq!(w.value(2.0e-9), 0.0);
        assert_eq!(w.value(4.5e-9), 1.0);
        assert_eq!(w.value(6.0e-9), 0.0);
    }

    #[test]
    fn zero_rise_time_does_not_divide_by_zero() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9);
        assert!(w.value(1e-12).is_finite());
        assert_eq!(w.value(0.5e-9), 1.0);
    }

    #[test]
    fn pwl_holds_endpoints() {
        let w = Waveform::pwl(vec![(1.0, 0.0), (2.0, 2.0)]);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(1.5), 1.0);
        assert_eq!(w.value(3.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn pwl_rejects_unsorted_points() {
        let _ = Waveform::pwl(vec![(2.0, 0.0), (1.0, 1.0)]);
    }

    #[test]
    fn step_constructor() {
        let w = Waveform::step(0.0, 1.0, 1e-9, 10e-12);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(2e-9), 1.0);
    }

    #[test]
    fn pulse_breakpoints_cover_all_edges() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9);
        let bps = w.breakpoints(10e-9);
        assert_eq!(bps.len(), 4);
        assert!((bps[0] - 1e-9).abs() < 1e-18);
        assert!((bps[3] - 2.2e-9).abs() < 1e-18);
    }

    #[test]
    fn train_breakpoints_repeat() {
        let w = Waveform::pulse_train(0.0, 1.0, 0.0, 1e-12, 1e-12, 1e-9, 2e-9);
        let bps = w.breakpoints(4e-9);
        assert!(bps.len() >= 8);
    }

    #[test]
    fn sine_starts_after_delay() {
        let w = Waveform::Sine {
            offset: 0.5,
            amplitude: 0.5,
            freq: 1e9,
            delay: 1e-9,
        };
        assert_eq!(w.value(0.5e-9), 0.5);
        assert!((w.value(1e-9 + 0.25e-9) - 1.0).abs() < 1e-9);
    }
}
