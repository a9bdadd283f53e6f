//! Property-based tests of simulator invariants.

use ftcam_circuit::analysis::{DcOperatingPoint, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::linalg::SystemMatrix;
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::Circuit;
use proptest::prelude::*;

/// Largest system the sparse-vs-dense property draws; crosses
/// `linalg::SPARSE_THRESHOLD` (90) on purpose.
const MAX_UNKNOWNS: usize = 120;

/// Stamps a random MNA-like system on `n` free nodes into `m` and returns
/// its right-hand side. Index `n` is ground and is never stamped. Node `i`
/// hangs off a random earlier node or ground through `tree[i]`, so every
/// node sees a conductance path to ground; each `extra` entry
/// `(kind, a, b, c, log10 g, frac)` adds a conductance, a MOSFET-like
/// channel (`g_ds` drain `a` to source `b`, `g_m = frac · g_ds` driven by
/// gate `c`) or a current into `a`. Every free node carries a `gmin`
/// shunt, as in the analyses.
fn stamp_random_mna(
    m: &mut SystemMatrix,
    n: usize,
    tree: &[(f64, f64)],
    extra: &[(f64, f64, f64, f64, f64, f64)],
) -> Vec<f64> {
    let add = |m: &mut SystemMatrix, r: usize, c: usize, v: f64| {
        if r < n && c < n {
            m.add(r, c, v);
        }
    };
    let conductance = |m: &mut SystemMatrix, a: usize, b: usize, g: f64| {
        add(m, a, a, g);
        add(m, b, b, g);
        add(m, a, b, -g);
        add(m, b, a, -g);
    };
    let node = |u: f64| ((u * (n + 1) as f64) as usize).min(n);
    for (i, &(u, lg)) in tree.iter().take(n).enumerate() {
        let parent = ((u * (i + 1) as f64) as usize).min(i);
        let parent = if parent == i { n } else { parent };
        conductance(m, i, parent, 10f64.powf(lg));
    }
    let mut rhs = vec![0.0; n];
    for &(kind, a, b, c, lg, frac) in extra {
        let (a, b, c, g) = (node(a), node(b), node(c), 10f64.powf(lg));
        if kind < 0.4 {
            conductance(m, a, b, g);
        } else if kind < 0.8 {
            let gm = frac * g;
            conductance(m, a, b, g);
            add(m, a, c, gm);
            add(m, a, b, -gm);
            add(m, b, c, -gm);
            add(m, b, b, gm);
        } else if a < n {
            rhs[a] += 1e3 * g * (frac - 0.5);
        }
    }
    for i in 0..n {
        add(m, i, i, 1e-12);
    }
    rhs
}

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The sparse no-pivot LU every analysis starts on solves random MNA
    /// systems on both sides of 90 unknowns as the dense partial-pivot LU
    /// does, without demoting.
    #[test]
    fn sparse_matches_dense_on_random_mna(
        n in 1..=MAX_UNKNOWNS,
        tree in proptest::collection::vec((0.0..1.0f64, -5.0..-3.0f64), MAX_UNKNOWNS),
        extra in proptest::collection::vec(
            (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, -5.0..-3.0f64, 0.0..1.0f64),
            0..3 * MAX_UNKNOWNS,
        ),
    ) {
        let mut dense = SystemMatrix::dense(n);
        let mut sparse = SystemMatrix::sparse(n);
        let mut xd = stamp_random_mna(&mut dense, n, &tree, &extra);
        let mut xs = stamp_random_mna(&mut sparse, n, &tree, &extra);
        dense.solve_in_place(&mut xd).unwrap();
        sparse.solve_in_place(&mut xs).unwrap();
        prop_assert_eq!(sparse.demotions(), 0);
        let scale = xd.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        for (i, (s, d)) in xs.iter().zip(&xd).enumerate() {
            prop_assert!(
                (s - d).abs() <= 1e-10 * scale,
                "n = {n}, x[{i}]: sparse {s} vs dense {d} (scale {scale})"
            );
        }
    }
}
