//! Equivalence properties of the incremental-assembly Newton hot path.
//!
//! The hot path (static/dynamic partition + stamp tapes + LU reuse) must
//! be *numerically equivalent* to the reference full-restamp loop for any
//! device mix:
//!
//! * tape on vs. tape off is **bit-identical** — a verified tape replay
//!   performs the same additions in the same order as the hash path;
//! * incremental vs. legacy agree within Newton's own convergence
//!   tolerance — the only differences are ulp-level stamp reordering and
//!   chord iterations that converge to the same fixed point.

use ftcam_circuit::analysis::{DcOperatingPoint, Transient, TransientOpts};
use ftcam_circuit::elements::{
    Capacitor, CurrentSource, Diode, Resistor, TimedSwitch, VoltageSource,
};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, HotPath, NewtonSettings, NodeId, TransientResult};
use proptest::prelude::*;

/// Parameters of one randomized ladder circuit mixing every stamp class.
#[derive(Debug, Clone)]
struct LadderParams {
    stages: usize,
    r: f64,
    c: f64,
    vdd: f64,
    with_diode: bool,
    with_switch: bool,
    with_isource: bool,
}

fn ladder_params() -> impl Strategy<Value = LadderParams> {
    (
        2usize..6,
        1e3..1e5f64,
        1.0..20.0f64,
        0.4..1.2f64,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(stages, r, c_ff, vdd, with_diode, with_switch, with_isource)| LadderParams {
                stages,
                r,
                c: c_ff * 1e-15,
                vdd,
                with_diode,
                with_switch,
                with_isource,
            },
        )
}

/// Builds the ladder: a pulsed rail driving `stages` RC sections, with an
/// optional diode (Dynamic), timed switch (TimeVarying) and current
/// source (Linear, rhs-only) so every stamp class is exercised.
fn build_ladder(p: &LadderParams) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let rail = ckt.node("rail");
    let wave = Waveform::pulse(0.0, p.vdd, 50e-12, 50e-12, 50e-12, 600e-12);
    ckt.pin(rail, "VDD", wave).expect("pin rail");
    let mut nodes = Vec::new();
    let mut prev = rail;
    for i in 0..p.stages {
        let n = ckt.node(&format!("s{i}"));
        ckt.add(Resistor::new(prev, n, p.r));
        ckt.add(Capacitor::new(n, ckt.ground(), p.c));
        nodes.push(n);
        prev = n;
    }
    if p.with_diode {
        ckt.add(Diode::new(nodes[0], ckt.ground(), 1e-15));
    }
    if p.with_switch {
        let last = *nodes.last().expect("at least one stage");
        ckt.add(TimedSwitch::new(
            last,
            ckt.ground(),
            1e3,
            1e12,
            false,
            vec![(400e-12, true), (900e-12, false)],
        ));
    }
    if p.with_isource {
        ckt.add(CurrentSource::dc(ckt.ground(), nodes[0], 1e-6));
    }
    (ckt, nodes)
}

/// Runs the ladder transient under the given hot-path configuration and
/// returns the per-node traces plus the supply energy.
fn run_with(p: &LadderParams, hot_path: HotPath) -> (Vec<Vec<f64>>, f64) {
    let (mut ckt, nodes) = build_ladder(p);
    let opts = TransientOpts::new(10e-12, 1.2e-9)
        .with_newton(NewtonSettings::new().with_hot_path(hot_path));
    let result = Transient::new(opts).run(&mut ckt).expect("transient runs");
    let traces = nodes
        .iter()
        .enumerate()
        .map(|(i, _)| {
            result
                .trace(&format!("s{i}"))
                .expect("trace recorded")
                .values()
                .to_vec()
        })
        .collect();
    let energy = result.supply_energy("VDD").expect("supply energy");
    (traces, energy)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Tape replay performs the same slot additions in the same order as
    /// hash-path assembly, so enabling the tape changes nothing — down to
    /// the last bit.
    #[test]
    fn tape_assembly_is_bit_identical(p in ladder_params()) {
        let taped = run_with(&p, HotPath::default());
        let untaped = run_with(&p, HotPath { tape: false, ..HotPath::default() });
        prop_assert_eq!(taped.0, untaped.0, "traces must be bit-identical");
        prop_assert_eq!(taped.1.to_bits(), untaped.1.to_bits(), "energy must be bit-identical");
    }

    /// Incremental assembly (baseline snapshot + dynamic restamp + LU
    /// reuse) converges to the same solution as the legacy full-restamp
    /// loop for any mix of Linear / TimeVarying / Dynamic devices.
    #[test]
    fn incremental_matches_full_restamp(p in ladder_params()) {
        let hot = run_with(&p, HotPath::default());
        let legacy = run_with(&p, HotPath::legacy());
        for (h, l) in hot.0.iter().zip(legacy.0.iter()) {
            prop_assert_eq!(h.len(), l.len());
            for (a, b) in h.iter().zip(l.iter()) {
                prop_assert!(
                    (a - b).abs() < 1e-3,
                    "trace diverged: hot {a} vs legacy {b}"
                );
            }
        }
        let (eh, el) = (hot.1, legacy.1);
        prop_assert!(
            (eh - el).abs() <= 0.01 * el.abs().max(1e-18),
            "supply energy diverged: hot {eh:.3e} vs legacy {el:.3e}"
        );
    }

    /// Disabling only the chord/LU-reuse layer (keeping incremental
    /// assembly and tapes) also stays within tolerance — isolates the
    /// chord iteration as the only source of sub-tolerance drift.
    #[test]
    fn lu_reuse_stays_within_tolerance(p in ladder_params()) {
        let reused = run_with(&p, HotPath::default());
        let refactored = run_with(&p, HotPath { lu_reuse: false, ..HotPath::default() });
        for (h, l) in reused.0.iter().zip(refactored.0.iter()) {
            for (a, b) in h.iter().zip(l.iter()) {
                prop_assert!((a - b).abs() < 1e-3, "trace diverged: {a} vs {b}");
            }
        }
    }
}

/// Resistance of every resistor in [`fallback_netlist`] (ohms).
const R_FALLBACK: f64 = 1e3;

/// A netlist the no-pivot sparse LU cannot factor: a 0.2 V source between
/// the free nodes `a` and `b`, each with three free neighbours
/// (`vdd → cᵢ → a` and `b → dᵢ → gnd`), plus `a → gnd`, `vdd → b`, and a
/// capacitor and a diode on `a`. The degree ordering puts the source's
/// branch row, whose diagonal is zero, ahead of both its nodes, so the
/// first pivot of that row is zero and the analysis falls back to the
/// dense LU. The rail steps from 0.5 V to 1 V at 50 ps.
fn fallback_netlist() -> (Circuit, Diode) {
    let mut ckt = Circuit::new();
    let gnd = ckt.ground();
    let vdd = ckt.node("vdd");
    let rail = Waveform::pulse(0.5, 1.0, 50e-12, 50e-12, 50e-12, 2e-9);
    ckt.pin(vdd, "VDD", rail).expect("pin rail");
    let a = ckt.node("a");
    let b = ckt.node("b");
    for i in 0..3 {
        let c = ckt.node(&format!("c{i}"));
        ckt.add(Resistor::new(vdd, c, R_FALLBACK));
        ckt.add(Resistor::new(c, a, R_FALLBACK));
        let d = ckt.node(&format!("d{i}"));
        ckt.add(Resistor::new(b, d, R_FALLBACK));
        ckt.add(Resistor::new(d, gnd, R_FALLBACK));
    }
    ckt.add(Resistor::new(a, gnd, R_FALLBACK));
    ckt.add(Resistor::new(vdd, b, R_FALLBACK));
    ckt.add(Capacitor::new(a, gnd, 10e-15));
    let diode = Diode::new(a, gnd, 1e-15);
    ckt.add(diode.clone());
    ckt.add(VoltageSource::dc(a, b, 0.2));
    (ckt, diode)
}

/// Worst KCL residual (amps) of a settled [`fallback_netlist`] solution
/// `v` at rail voltage `vdd`: every `cᵢ` and `dᵢ` and the `{a, b}`
/// supernode. Settled, the capacitor carries no current; the `gmin`
/// shunts are far below the tolerance.
fn fallback_kcl(v: impl Fn(&str) -> f64, vdd: f64, diode: &Diode) -> f64 {
    let i = |from: f64, to: f64| (from - to) / R_FALLBACK;
    let (va, vb) = (v("a"), v("b"));
    let mut supernode = i(vdd, vb) - i(va, 0.0) - diode.current_and_conductance(va).0;
    let mut worst: f64 = 0.0;
    for k in 0..3 {
        let (c, d) = (v(&format!("c{k}")), v(&format!("d{k}")));
        worst = worst.max((i(vdd, c) - i(c, va)).abs());
        worst = worst.max((i(vb, d) - i(d, 0.0)).abs());
        supernode += i(c, va) - i(vb, d);
    }
    worst.max(supernode.abs())
}

/// The dense fallback swaps only the factoriser: on a real netlist that
/// falls back, DC and transient still satisfy KCL, the run counts one
/// demotion, the hot path keeps replaying tapes and reusing baselines on
/// the dense factors, and the traces match the legacy loop.
#[test]
fn hot_path_runs_on_the_dense_fallback() {
    let (mut ckt, diode) = fallback_netlist();
    let dc = DcOperatingPoint::new().run(&mut ckt).expect("dc solves");
    let v = |node: &str| dc.voltage(node).expect("node exists");
    assert!((v("a") - v("b") - 0.2).abs() < 1e-9, "dc source voltage");
    let residual = fallback_kcl(v, 0.5, &diode);
    assert!(residual < 1e-9, "dc KCL residual {residual:e} A");

    let run = |hot_path: HotPath| {
        let (mut ckt, _) = fallback_netlist();
        let opts = TransientOpts::new(10e-12, 1e-9)
            .with_newton(NewtonSettings::new().with_hot_path(hot_path));
        Transient::new(opts).run(&mut ckt).expect("transient runs")
    };
    let hot = run(HotPath::default());
    let legacy = run(HotPath::legacy());
    assert_eq!(hot.recovery_stats().dense_demotions, 1);
    assert_eq!(legacy.recovery_stats().dense_demotions, 1);
    let perf = hot.solver_perf();
    assert!(perf.tape_replays > 0, "tapes must replay: {perf:?}");
    assert_eq!(perf.tape_mismatches, 0, "pattern is stable: {perf:?}");
    assert!(
        perf.baseline_reuses > 0,
        "baselines must be reused: {perf:?}"
    );

    let last = |node: &str| hot.trace(node).expect("trace recorded").last_value();
    assert!((last("a") - last("b") - 0.2).abs() < 1e-9, "source voltage");
    let residual = fallback_kcl(last, 1.0, &diode);
    assert!(residual < 1e-9, "settled KCL residual {residual:e} A");
    for node in ["a", "b", "c0", "d0"] {
        let h = hot.trace(node).expect("trace recorded").values();
        let l = legacy.trace(node).expect("trace recorded").values();
        assert_eq!(h.len(), l.len());
        for (x, y) in h.iter().zip(l) {
            assert!((x - y).abs() < 1e-3, "{node}: hot {x} vs legacy {y}");
        }
    }
}

/// An inverter driving a FeFET's drain while a write pulse on the FeFET's
/// gate switches its polarization: every device class the baseline cache
/// holds, companions and lagged displacement current included. With
/// `switch`, a timed switch from ground to ground, which stamps nothing,
/// keeps the Newton loop from caching the baseline.
fn inverter_fefet(switch: bool) -> Circuit {
    use ftcam_devices::{FeFet, Mosfet, TechCard};
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let input = ckt.node("in");
    let out = ckt.node("out");
    let wl = ckt.node("wl");
    let gate = ckt.node("gate");
    ckt.pin(vdd, "VDD", Waveform::dc(card.vdd)).expect("pin");
    ckt.pin(
        input,
        "VIN",
        Waveform::pulse(0.0, card.vdd, 5e-12, 1e-12, 1e-12, 10e-12),
    )
    .expect("pin");
    ckt.pin(
        wl,
        "VWL",
        Waveform::pulse(0.0, card.vprog, 4e-12, 2e-12, 2e-12, 12e-12),
    )
    .expect("pin");
    ckt.add(Mosfet::new(card.pmos.clone(), out, input, vdd));
    ckt.add(Mosfet::new(card.nmos.clone(), out, input, ckt.ground()));
    ckt.add(Capacitor::new(out, ckt.ground(), 1e-15));
    ckt.add(Resistor::new(wl, gate, 1e3));
    ckt.add(FeFet::new(card.fefet.clone(), out, gate, ckt.ground()));
    if switch {
        let gnd = ckt.ground();
        ckt.add(TimedSwitch::new(gnd, gnd, 1.0, 1e9, false, Vec::new()));
    }
    ckt
}

/// The baseline matrix cached across time points is exactly a full
/// restamp: the switch-free run restores it at most time points and
/// restamps only the right-hand side, the run with the switch restamps
/// everything at every one, and every voltage sample and supply energy
/// agrees to the bit, over a run whose write edge halves the step.
/// (Debug builds also compare each cached matrix and right-hand side with
/// a full restamp in the Newton loop itself.)
#[test]
fn cached_baseline_equals_a_full_restamp() {
    // Four iterations are too few for the write edge: the step halves.
    let opts =
        TransientOpts::new(1e-12, 30e-12).with_newton(NewtonSettings::default().with_max_iters(4));
    let run = |switch: bool| {
        let mut ckt = inverter_fefet(switch);
        Transient::new(opts.clone())
            .run(&mut ckt)
            .expect("transient")
    };
    let (cached, full) = (run(false), run(true));
    let steps = cached.step_stats();
    assert_eq!(steps, full.step_stats());
    assert!(steps.accepted >= 20 && steps.halvings > 0, "{steps:?}");
    // Every solve of the switch run snapshots a fresh baseline; the cache
    // serves some of the other run's.
    let snapshots = |r: &TransientResult| r.solver_perf().baseline_snapshots;
    assert!(snapshots(&full) >= steps.accepted);
    assert!(
        snapshots(&cached) < snapshots(&full),
        "{:?}",
        cached.solver_perf()
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(cached.times()), bits(full.times()));
    for node in ["in", "out", "wl", "gate", "vdd"] {
        let (a, b) = (cached.trace(node).unwrap(), full.trace(node).unwrap());
        assert_eq!(bits(a.values()), bits(b.values()), "node {node}");
    }
    for pin in ["VDD", "VIN", "VWL"] {
        let (a, b) = (cached.supply_energy(pin), full.supply_energy(pin));
        assert_eq!(a.unwrap().to_bits(), b.unwrap().to_bits(), "pin {pin}");
    }
}

/// A timed switch moves the static matrix between time points, so a
/// netlist with one never takes the cached baseline: every Newton call
/// stamps a fresh one.
#[test]
fn timed_switch_netlists_never_take_the_cache() {
    let p = LadderParams {
        stages: 3,
        r: 1e4,
        c: 5e-15,
        vdd: 1.0,
        with_diode: true,
        with_switch: true,
        with_isource: false,
    };
    let (mut ckt, _) = build_ladder(&p);
    let res = Transient::new(TransientOpts::new(10e-12, 2e-9))
        .run(&mut ckt)
        .expect("transient");
    let (steps, perf) = (res.step_stats(), res.solver_perf());
    assert_eq!(steps.rejected + steps.halvings, 0);
    // One Newton call per accepted step, each with a fresh baseline.
    assert_eq!(perf.baseline_snapshots, steps.accepted, "{perf:?}");
}
