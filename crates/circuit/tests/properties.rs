//! Property-based tests of simulator invariants.

use ftcam_circuit::analysis::{DcOperatingPoint, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::Circuit;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Voltage dividers interpolate monotonically for any resistor pair.
    #[test]
    fn divider_voltage_between_rails(
        r1 in 1e2..1e6f64,
        r2 in 1e2..1e6f64,
        vdd in 0.1..2.0f64,
    ) {
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.pin(top, "VDD", Waveform::dc(vdd)).unwrap();
        ckt.add(Resistor::new(top, mid, r1));
        ckt.add(Resistor::new(mid, ckt.ground(), r2));
        let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
        let v = op.voltage("mid").unwrap();
        let expect = vdd * r2 / (r1 + r2);
        prop_assert!((v - expect).abs() < 1e-6 * vdd.max(1.0), "v {v} vs {expect}");
    }

    /// Charging a capacitor from an ideal rail through any resistor draws
    /// C·V² from the supply once fully settled (energy conservation).
    #[test]
    fn supply_energy_is_cv_squared(
        r in 1e3..5e4f64,
        c_ff in 1.0..50.0f64,
        vdd in 0.4..1.2f64,
    ) {
        let c = c_ff * 1e-15;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let rail = ckt.node("rail");
        let top = ckt.node("top");
        ckt.pin(rail, "VDD", Waveform::dc(vdd)).unwrap();
        ckt.add(Resistor::new(rail, top, r));
        let cap = ckt.add(Capacitor::new(top, ckt.ground(), c));
        let opts = TransientOpts::new(tau / 40.0, 20.0 * tau).use_initial_conditions();
        let res = Transient::new(opts).run(&mut ckt).unwrap();
        let e = res.supply_energy("VDD").unwrap();
        let expect = c * vdd * vdd;
        prop_assert!(
            (e - expect).abs() < 0.03 * expect,
            "supply {e:.3e} vs CV² {expect:.3e} (r {r:.0}, c {c_ff:.1} fF)"
        );
        // Half of it is stored in the capacitor, so the other half was
        // dissipated in the resistor.
        let stored = ckt.device_ref::<Capacitor>(cap).unwrap().stored_energy();
        prop_assert!((e - stored - 0.5 * expect).abs() < 0.03 * expect);
    }

    /// RC discharge never undershoots and is monotone non-increasing.
    #[test]
    fn rc_discharge_is_monotone(
        r in 1e3..1e5f64,
        c_ff in 1.0..20.0f64,
        v0 in 0.2..1.5f64,
    ) {
        let c = c_ff * 1e-15;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.add(Resistor::new(top, ckt.ground(), r));
        ckt.add(Capacitor::with_initial_voltage(top, ckt.ground(), c, v0));
        // Seed the node voltage too, so the t = 0 sample starts at v0
        // instead of the solver's zero guess.
        let opts = TransientOpts::new(tau / 50.0, 5.0 * tau)
            .with_initial_voltages([(top, v0)]);
        let res = Transient::new(opts).run(&mut ckt).unwrap();
        let tr = res.trace("top").unwrap();
        let values = tr.values();
        prop_assert!(values.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        prop_assert!(tr.min() >= -1e-9);
    }

    /// Waveform evaluation is bounded by its level set for any pulse.
    #[test]
    fn pulse_stays_within_levels(
        v0 in -2.0..2.0f64,
        v1 in -2.0..2.0f64,
        delay in 0.0..1e-9f64,
        rise in 1e-12..1e-10f64,
        width in 1e-11..1e-9f64,
        t in 0.0..5e-9f64,
    ) {
        let w = Waveform::pulse(v0, v1, delay, rise, rise, width);
        let v = w.value(t);
        let (lo, hi) = (v0.min(v1), v0.max(v1));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "v = {v} outside [{lo}, {hi}]");
    }

    /// Breakpoints always fall inside the simulated window.
    #[test]
    fn breakpoints_within_window(
        delay in 0.0..2e-9f64,
        width in 1e-12..2e-9f64,
        t_stop in 1e-10..4e-9f64,
    ) {
        let w = Waveform::pulse(0.0, 1.0, delay, 10e-12, 10e-12, width);
        for bp in w.breakpoints(t_stop) {
            prop_assert!(bp > 0.0 && bp < t_stop);
        }
    }
}
