//! Integration tests for the transient engine against closed-form physics.

use ftcam_circuit::analysis::{DcOperatingPoint, RecordMode, Transient, TransientOpts};
use ftcam_circuit::elements::{
    Capacitor, CurrentSource, Diode, Resistor, TimedSwitch, VoltageSource,
};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, CircuitError, Edge, IntegrationMethod};

/// RC discharge from 1 V through 1 kΩ, τ = 1 ns, checked against e^(−t/τ).
#[test]
fn rc_discharge_matches_closed_form() {
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    ckt.add(Resistor::new(top, ckt.ground(), 1e3));
    ckt.add(Capacitor::with_initial_voltage(
        top,
        ckt.ground(),
        1e-12,
        1.0,
    ));
    let opts = TransientOpts::new(2e-12, 4e-9)
        .use_initial_conditions()
        .with_method(IntegrationMethod::Trapezoidal);
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    let tr = res.trace("top").unwrap();
    for &t in &[0.5e-9, 1e-9, 2e-9, 3e-9] {
        let expect = (-t / 1e-9_f64).exp();
        let got = tr.value_at(t);
        assert!(
            (got - expect).abs() < 2e-3,
            "t = {t:.2e}: got {got}, expected {expect}"
        );
    }
}

/// Backward Euler is less accurate but must stay within a few percent at τ.
#[test]
fn rc_discharge_backward_euler_accuracy() {
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    ckt.add(Resistor::new(top, ckt.ground(), 1e3));
    ckt.add(Capacitor::with_initial_voltage(
        top,
        ckt.ground(),
        1e-12,
        1.0,
    ));
    let opts = TransientOpts::new(1e-12, 3e-9).use_initial_conditions();
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    let got = res.trace("top").unwrap().value_at(1e-9);
    let expect = (-1.0_f64).exp();
    assert!((got - expect).abs() < 0.01, "got {got}, expected {expect}");
}

/// Charging a capacitor through a resistor from an ideal supply draws C·V²
/// from the supply and leaves ½C·V² stored; the rest is dissipated in the
/// resistor.
#[test]
fn capacitor_charging_energy_balance() {
    let vdd = 0.8;
    let c = 10e-15;
    let mut ckt = Circuit::new();
    let supply = ckt.node("vdd");
    let top = ckt.node("top");
    ckt.pin(supply, "VDD", Waveform::dc(vdd)).unwrap();
    ckt.add(Resistor::new(supply, top, 10e3));
    let cap = ckt.add_labeled("c_load", Capacitor::new(top, ckt.ground(), c));
    // τ = 100 ps; run 20τ so charging completes.
    let opts = TransientOpts::new(0.2e-12, 2e-9).use_initial_conditions();
    let res = Transient::new(opts).run(&mut ckt).unwrap();

    let e_supply = res.supply_energy("VDD").unwrap();
    let e_expected = c * vdd * vdd;
    assert!(
        (e_supply - e_expected).abs() / e_expected < 0.01,
        "supply energy {e_supply:.3e} vs CV² {e_expected:.3e}"
    );
    // The capacitor stores ½CV².
    let cap_ref: &Capacitor = ckt.device_ref(cap).unwrap();
    assert!((cap_ref.stored_energy() - 0.5 * e_expected).abs() / e_expected < 0.01);
    // Final node voltage reached the rail.
    assert!((res.trace("top").unwrap().last_value() - vdd).abs() < 1e-3);
}

/// A pulse source driving an RC shows the correct delay at the 50% crossing.
#[test]
fn pulse_drive_crossing_time() {
    let mut ckt = Circuit::new();
    let drv = ckt.node("drv");
    let out = ckt.node("out");
    // 1 V pulse with 10 ps edge at t = 1 ns.
    ckt.pin(
        drv,
        "DRV",
        Waveform::pulse(0.0, 1.0, 1e-9, 10e-12, 10e-12, 5e-9),
    )
    .unwrap();
    ckt.add(Resistor::new(drv, out, 1e3));
    ckt.add(Capacitor::new(out, ckt.ground(), 1e-12));
    let res = Transient::new(TransientOpts::new(5e-12, 4e-9))
        .run(&mut ckt)
        .unwrap();
    let t50 = res
        .trace("out")
        .unwrap()
        .cross(0.5, Edge::Rising)
        .expect("output must cross 50%");
    // Ideal step: t50 = delay + ln(2)·τ = 1 ns + 0.693 ns.
    let expect = 1e-9 + 0.693e-9;
    assert!(
        (t50 - expect).abs() < 0.05e-9,
        "t50 = {t50:.3e}, expected ≈ {expect:.3e}"
    );
}

/// Branch voltage source: series ammeter behaviour in a transient.
#[test]
fn branch_source_measures_current() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.pin(a, "VIN", Waveform::dc(1.0)).unwrap();
    // 0 V source as ammeter between b and ground, in series with 1 kΩ.
    ckt.add(Resistor::new(a, b, 1e3));
    let amm = ckt.add(VoltageSource::dc(b, ckt.ground(), 0.0));
    let res = Transient::new(TransientOpts::new(1e-12, 1e-10)).run(&mut ckt);
    res.unwrap();
    let v: &VoltageSource = ckt.device_ref(amm).unwrap();
    assert!((v.current() - 1e-3).abs() < 1e-8, "i = {}", v.current());
}

/// KCL residual stays tiny across a nonlinear transient.
#[test]
fn kcl_residual_is_small() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let a = ckt.node("a");
    ckt.pin(
        vdd,
        "VDD",
        Waveform::pulse(0.0, 1.0, 0.1e-9, 50e-12, 50e-12, 2e-9),
    )
    .unwrap();
    ckt.add(Resistor::new(vdd, a, 1e3));
    ckt.add(Diode::new(a, ckt.ground(), 1e-15));
    ckt.add(Capacitor::new(a, ckt.ground(), 0.1e-12));
    let res = Transient::new(TransientOpts::new(2e-12, 3e-9))
        .run(&mut ckt)
        .unwrap();
    assert!(
        res.max_kcl_residual() < 1e-6,
        "kcl residual {:.3e}",
        res.max_kcl_residual()
    );
}

/// Current source charging a capacitor: linear ramp dV/dt = I/C.
#[test]
fn current_source_linear_ramp() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(CurrentSource::dc(ckt.ground(), a, 1e-6)); // 1 µA into node a
    ckt.add(Capacitor::new(a, ckt.ground(), 1e-15));
    let opts = TransientOpts::new(1e-12, 1e-9).use_initial_conditions();
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    let v_end = res.trace("a").unwrap().last_value();
    // Q = I·t = 1 µA × 1 ns = 1 fC; V = Q/C = 1 fC / 1 fF = 1 V.
    assert!((v_end - 1.0).abs() < 1e-3, "v_end = {v_end}");
}

/// A timed switch disconnects a discharge path mid-run.
#[test]
fn timed_switch_freezes_discharge() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Capacitor::with_initial_voltage(a, ckt.ground(), 1e-12, 1.0));
    // Discharge via 1 kΩ, switch opens at 0.5 ns.
    ckt.add(TimedSwitch::new(
        a,
        ckt.ground(),
        1e3,
        1e15,
        true,
        vec![(0.5e-9, false)],
    ));
    let opts = TransientOpts::new(2e-12, 3e-9).use_initial_conditions();
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    let tr = res.trace("a").unwrap();
    let v_at_open = tr.value_at(0.5e-9);
    let v_end = tr.last_value();
    assert!(v_at_open < 0.75, "discharging before the switch opens");
    assert!(
        (v_end - v_at_open).abs() < 1e-3,
        "frozen after opening: {v_end} vs {v_at_open}"
    );
}

/// Two transients compose: device state carries over between runs.
#[test]
fn consecutive_transients_compose() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let drv = ckt.node("drv");
    let pin = ckt.pin(drv, "DRV", Waveform::dc(1.0)).unwrap();
    ckt.add(Resistor::new(drv, a, 1e3));
    ckt.add(Capacitor::new(a, ckt.ground(), 1e-12));
    // Run 1: charge fully from the DC op (already charged at op).
    let res1 = Transient::new(TransientOpts::new(5e-12, 1e-9))
        .run(&mut ckt)
        .unwrap();
    assert!((res1.trace("a").unwrap().last_value() - 1.0).abs() < 1e-6);
    // Run 2: driver drops to 0; capacitor starts from the carried-over 1 V.
    ckt.set_pin_waveform(pin, Waveform::dc(0.0));
    let opts = TransientOpts::new(5e-12, 1e-9).use_initial_conditions();
    let res2 = Transient::new(opts).run(&mut ckt).unwrap();
    let tr = res2.trace("a").unwrap();
    // The t = 0 sample shows the solver guess (0 V); by the first accepted
    // step the carried capacitor charge pulls the node back to ≈ 1 V.
    assert!(tr.values()[1] > 0.9, "carried-over initial charge");
    let expect = (-1.0_f64).exp();
    assert!((tr.value_at(1e-9) - expect).abs() < 0.02);
}

/// Trapezoidal and backward Euler agree on a smooth waveform.
#[test]
fn integration_methods_agree() {
    let run = |method: IntegrationMethod| {
        let mut ckt = Circuit::new();
        let drv = ckt.node("drv");
        let out = ckt.node("out");
        ckt.pin(
            drv,
            "DRV",
            Waveform::Sine {
                offset: 0.5,
                amplitude: 0.4,
                freq: 0.5e9,
                delay: 0.0,
            },
        )
        .unwrap();
        ckt.add(Resistor::new(drv, out, 1e3));
        ckt.add(Capacitor::new(out, ckt.ground(), 0.2e-12));
        let opts = TransientOpts::new(1e-12, 4e-9).with_method(method);
        Transient::new(opts).run(&mut ckt).unwrap()
    };
    let be = run(IntegrationMethod::BackwardEuler);
    let tr = run(IntegrationMethod::Trapezoidal);
    for &t in &[1e-9, 2e-9, 3e-9] {
        let a = be.trace("out").unwrap().value_at(t);
        let b = tr.trace("out").unwrap().value_at(t);
        assert!((a - b).abs() < 5e-3, "t = {t:.1e}: BE {a} vs TR {b}");
    }
}

/// RecordMode::None still accumulates supply energy.
#[test]
fn record_none_keeps_energy_accounting() {
    let mut ckt = Circuit::new();
    let supply = ckt.node("vdd");
    let top = ckt.node("top");
    ckt.pin(supply, "VDD", Waveform::dc(1.0)).unwrap();
    ckt.add(Resistor::new(supply, top, 1e3));
    ckt.add(Capacitor::new(top, ckt.ground(), 1e-12));
    let opts = TransientOpts::new(1e-12, 10e-9)
        .use_initial_conditions()
        .with_record(RecordMode::None);
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    assert!(res.trace("top").is_err());
    let e = res.supply_energy("VDD").unwrap();
    assert!((e - 1e-12).abs() / 1e-12 < 0.02, "e = {e:.3e}");
}

/// DC operating point feeds the transient initial state.
#[test]
fn dc_init_starts_settled() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let mid = ckt.node("mid");
    ckt.pin(vdd, "VDD", Waveform::dc(1.0)).unwrap();
    ckt.add(Resistor::new(vdd, mid, 1e3));
    ckt.add(Resistor::new(mid, ckt.ground(), 1e3));
    ckt.add(Capacitor::new(mid, ckt.ground(), 1e-12));
    let op = DcOperatingPoint::new().run(&mut ckt).unwrap();
    assert!((op.voltage("mid").unwrap() - 0.5).abs() < 1e-9);
    let res = Transient::new(TransientOpts::new(1e-12, 1e-10))
        .run(&mut ckt)
        .unwrap();
    let tr = res.trace("mid").unwrap();
    // Settled the whole time: no transient from a mis-initialised cap.
    assert!((tr.max() - 0.5).abs() < 1e-6);
    assert!((tr.min() - 0.5).abs() < 1e-6);
}

/// Invalid options are rejected up front.
#[test]
fn invalid_options_rejected() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add(Resistor::new(a, ckt.ground(), 1e3));
    let err = Transient::new(TransientOpts::new(-1.0, 1e-9)).run(&mut ckt);
    assert!(err.is_err());
    let err = Transient::new(TransientOpts::new(1e-12, 0.0)).run(&mut ckt);
    assert!(err.is_err());
}

/// Two DC sources of different values in parallel on one node form a
/// source loop: no voltage satisfies both, and the matrix is singular.
/// DC and transient, with or without the DC start, each report it as a
/// typed error.
#[test]
fn source_loop_is_a_singular_matrix_error() {
    let source_loop = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Resistor::new(a, ckt.ground(), 1e3));
        ckt.add(VoltageSource::dc(a, ckt.ground(), 1.0));
        ckt.add(VoltageSource::dc(a, ckt.ground(), 2.0));
        ckt
    };
    let dc = DcOperatingPoint::new().run(&mut source_loop());
    assert!(
        matches!(dc, Err(CircuitError::SingularMatrix { .. })),
        "dc: {dc:?}"
    );
    let tran = Transient::new(TransientOpts::new(1e-12, 1e-10)).run(&mut source_loop());
    assert!(
        matches!(tran, Err(CircuitError::SingularMatrix { .. })),
        "transient: {:?}",
        tran.err()
    );
    // Without the DC start the singularity first shows in a step, and the
    // step must not be halved down to an underflow.
    let tran = Transient::new(TransientOpts::new(1e-12, 1e-10).use_initial_conditions())
        .run(&mut source_loop());
    assert!(
        matches!(tran, Err(CircuitError::SingularMatrix { .. })),
        "transient from initial conditions: {:?}",
        tran.err()
    );
}

/// A source whose node has no conductance but `gmin`: a 1 V source
/// driving only a 1 fF capacitor solves in DC and, from that operating
/// point, in transient, with no rejected pivot.
#[test]
fn source_driving_only_a_capacitor_solves() {
    let netlist = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(VoltageSource::dc(a, ckt.ground(), 1.0));
        ckt.add(Capacitor::new(a, ckt.ground(), 1e-15));
        ckt
    };
    let dc = DcOperatingPoint::new()
        .run(&mut netlist())
        .expect("dc solves");
    let va = dc.voltage("a").unwrap();
    assert!((va - 1.0).abs() < 1e-9, "dc V(a) = {va}");
    let tran = Transient::new(TransientOpts::new(1e-12, 1e-10))
        .run(&mut netlist())
        .expect("transient runs");
    assert_eq!(tran.recovery_stats().dense_demotions, 0);
    for &v in tran.trace("a").unwrap().values() {
        assert!((v - 1.0).abs() < 1e-9, "transient V(a) = {v}");
    }
}

/// A 1 V source into a 1 TΩ / 1 TΩ divider, where every conductance is
/// `gmin`-sized: the mid node reads 1/3 V (the divider plus the `gmin`
/// shunt on it) in DC and in transient, with no rejected pivot.
#[test]
fn source_into_a_teraohm_divider_solves() {
    let netlist = || {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        ckt.add(VoltageSource::dc(a, ckt.ground(), 1.0));
        ckt.add(Resistor::new(a, mid, 1e12));
        ckt.add(Resistor::new(mid, ckt.ground(), 1e12));
        ckt
    };
    let dc = DcOperatingPoint::new()
        .run(&mut netlist())
        .expect("dc solves");
    let (va, vmid) = (dc.voltage("a").unwrap(), dc.voltage("mid").unwrap());
    assert!((va - 1.0).abs() < 1e-9, "dc V(a) = {va}");
    assert!((vmid - 1.0 / 3.0).abs() < 1e-6, "dc V(mid) = {vmid}");
    let tran = Transient::new(TransientOpts::new(1e-12, 1e-10))
        .run(&mut netlist())
        .expect("transient runs");
    assert_eq!(tran.recovery_stats().dense_demotions, 0);
    let last = tran.trace("mid").unwrap().last_value();
    assert!((last - 1.0 / 3.0).abs() < 1e-6, "transient V(mid) = {last}");
}

/// Energy is measured per time window (precharge vs evaluate phases).
#[test]
fn windowed_supply_energy() {
    let mut ckt = Circuit::new();
    let drv = ckt.node("drv");
    let out = ckt.node("out");
    // Drive high at 0, low at 2 ns: two CV² events visible in windows.
    ckt.pin(
        drv,
        "DRV",
        Waveform::pulse(0.0, 1.0, 0.1e-9, 10e-12, 10e-12, 2e-9),
    )
    .unwrap();
    ckt.add(Resistor::new(drv, out, 100.0)); // τ = 0.1 ns ≪ pulse width
    ckt.add(Capacitor::new(out, ckt.ground(), 1e-12));
    let res = Transient::new(TransientOpts::new(2e-12, 4e-9))
        .run(&mut ckt)
        .unwrap();
    let e_charge = res.supply_energy_in("DRV", 0.0, 2e-9).unwrap();
    let e_discharge = res.supply_energy_in("DRV", 2e-9, 4e-9).unwrap();
    // Charging draws ≈ CV²; discharge phase draws ≈ 0 from the source.
    assert!((e_charge - 1e-12).abs() / 1e-12 < 0.05, "{e_charge:.3e}");
    assert!(e_discharge.abs() < 0.05e-12, "{e_discharge:.3e}");
    // The run total is the window over the whole run, to the bit.
    let whole = res.supply_energy_in("DRV", 0.0, f64::INFINITY).unwrap();
    assert_eq!(res.supply_energy("DRV").unwrap().to_bits(), whole.to_bits());
    let total_whole = res.total_supply_energy_in(0.0, f64::INFINITY);
    assert_eq!(res.total_supply_energy().to_bits(), total_whole.to_bits());
}
