//! Transient-level validation of the FeFET model: programming pulses switch
//! the state, reads do not disturb it, and write energy is fJ-scale.

use ftcam_circuit::analysis::{Transient, TransientOpts};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::Circuit;
use ftcam_devices::{FeFet, Mosfet, TechCard};

/// Builds a single FeFET with gate driven by a pinned source, drain pulled
/// up through a resistor (read path), source grounded.
fn fefet_fixture() -> (Circuit, ftcam_circuit::DeviceId, ftcam_circuit::PinId) {
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let gate = ckt.node("gate");
    let drain = ckt.node("drain");
    let vdd = ckt.node("vdd");
    let pin = ckt.pin(gate, "GATE", Waveform::dc(0.0)).unwrap();
    ckt.pin(vdd, "VDD", Waveform::dc(card.vdd)).unwrap();
    ckt.add(ftcam_circuit::elements::Resistor::new(vdd, drain, 50e3));
    let dev = ckt.add_labeled(
        "fefet",
        FeFet::new(card.fefet.clone(), drain, gate, ckt.ground()),
    );
    (ckt, dev, pin)
}

#[test]
fn program_pulse_switches_polarization() {
    let (mut ckt, dev, pin) = fefet_fixture();
    // Erase first: −4 V, 30 ns.
    ckt.set_pin_waveform(pin, Waveform::pulse(0.0, -4.0, 1e-9, 0.5e-9, 0.5e-9, 30e-9));
    Transient::new(TransientOpts::new(0.2e-9, 35e-9))
        .run(&mut ckt)
        .unwrap();
    let p_erased = ckt.device_ref::<FeFet>(dev).unwrap().polarization();
    assert!(p_erased < -0.9, "erase left p = {p_erased}");

    // Program: +4 V, 30 ns.
    ckt.set_pin_waveform(pin, Waveform::pulse(0.0, 4.0, 1e-9, 0.5e-9, 0.5e-9, 30e-9));
    Transient::new(TransientOpts::new(0.2e-9, 35e-9))
        .run(&mut ckt)
        .unwrap();
    let p_prog = ckt.device_ref::<FeFet>(dev).unwrap().polarization();
    assert!(p_prog > 0.9, "program left p = {p_prog}");
}

#[test]
fn read_pulses_do_not_disturb_state() {
    let (mut ckt, dev, pin) = fefet_fixture();
    ckt.device_mut::<FeFet>(dev).unwrap().program_bit(true);
    // 100 read pulses at VDD.
    ckt.set_pin_waveform(
        pin,
        Waveform::pulse_train(0.0, 0.8, 0.2e-9, 50e-12, 50e-12, 1e-9, 2e-9),
    );
    Transient::new(TransientOpts::new(50e-12, 200e-9))
        .run(&mut ckt)
        .unwrap();
    let p = ckt.device_ref::<FeFet>(dev).unwrap().polarization();
    assert!(p > 0.99, "read disturb: p = {p}");
}

#[test]
fn write_energy_is_femto_joule_scale() {
    let (mut ckt, dev, pin) = fefet_fixture();
    ckt.device_mut::<FeFet>(dev).unwrap().program_bit(false);
    ckt.set_pin_waveform(pin, Waveform::pulse(0.0, 4.0, 1e-9, 0.5e-9, 0.5e-9, 30e-9));
    let res = Transient::new(TransientOpts::new(0.1e-9, 35e-9))
        .run(&mut ckt)
        .unwrap();
    let fefet = ckt.device_ref::<FeFet>(dev).unwrap();
    assert!(fefet.polarization() > 0.9);
    // Switching energy ≈ Q_sw · V_prog = 2·P_r·A·4 V ≈ 9.6 fJ for the card.
    let e_sw = fefet.switching_energy();
    assert!(
        e_sw > 1e-15 && e_sw < 50e-15,
        "switching energy {e_sw:.3e} J"
    );
    // The gate driver supplied at least the switching energy.
    let e_gate = res.supply_energy("GATE").unwrap();
    assert!(
        e_gate > 0.8 * e_sw,
        "gate energy {e_gate:.3e} vs switching {e_sw:.3e}"
    );
}

#[test]
fn read_current_separates_states_in_circuit() {
    let card = TechCard::hp45();
    let run_state = |low_vth: bool| {
        let (mut ckt, dev, pin) = fefet_fixture();
        ckt.device_mut::<FeFet>(dev).unwrap().program_bit(low_vth);
        ckt.set_pin_waveform(pin, Waveform::dc(card.vdd));
        let res = Transient::new(TransientOpts::new(20e-12, 5e-9))
            .run(&mut ckt)
            .unwrap();
        res.trace("drain").unwrap().last_value()
    };
    let v_low_vth = run_state(true); // conducts: drain pulled low
    let v_high_vth = run_state(false); // blocks: drain stays high
    assert!(v_low_vth < 0.1, "on-state drain = {v_low_vth}");
    assert!(v_high_vth > 0.7, "off-state drain = {v_high_vth}");
}

#[test]
fn mosfet_inverter_switches_rail_to_rail() {
    // Sanity of the MOSFET pair as used by the CMOS baseline: a static
    // inverter must regenerate levels.
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let vin = ckt.node("vin");
    let vout = ckt.node("vout");
    let vdd = ckt.node("vdd");
    ckt.pin(vdd, "VDD", Waveform::dc(card.vdd)).unwrap();
    ckt.pin(
        vin,
        "VIN",
        Waveform::pulse(0.0, card.vdd, 1e-9, 50e-12, 50e-12, 2e-9),
    )
    .unwrap();
    ckt.add(Mosfet::new(card.pmos.clone(), vout, vin, vdd));
    ckt.add(Mosfet::new(card.nmos.clone(), vout, vin, ckt.ground()));
    ckt.add(ftcam_circuit::elements::Capacitor::new(
        vout,
        ckt.ground(),
        1e-15,
    ));
    let res = Transient::new(TransientOpts::new(10e-12, 5e-9))
        .run(&mut ckt)
        .unwrap();
    let out = res.trace("vout").unwrap();
    assert!(out.value_at(0.9e-9) > 0.75, "high output before the pulse");
    assert!(out.value_at(2.5e-9) < 0.05, "low output during the pulse");
    assert!(out.value_at(4.5e-9) > 0.75, "recovers after the pulse");
}

#[test]
fn adaptive_write_matches_fixed_energy_within_one_percent() {
    use ftcam_circuit::analysis::StepControl;
    let run_write = |step: StepControl| {
        let (mut ckt, dev, pin) = fefet_fixture();
        ckt.device_mut::<FeFet>(dev).unwrap().program_bit(false);
        ckt.set_pin_waveform(pin, Waveform::pulse(0.0, 4.0, 1e-9, 0.5e-9, 0.5e-9, 30e-9));
        let res = Transient::new(TransientOpts::new(0.1e-9, 35e-9).with_step_control(step))
            .run(&mut ckt)
            .unwrap();
        let fefet = ckt.device_ref::<FeFet>(dev).unwrap();
        (
            fefet.polarization(),
            fefet.switching_energy(),
            res.supply_energy("GATE").unwrap(),
            res.step_stats().accepted,
        )
    };
    let (pf, swf, gf, nf) = run_write(StepControl::Fixed);
    let (pa, swa, ga, na) = run_write(StepControl::adaptive());
    assert!(pa > 0.9, "adaptive write failed to program: p = {pa}");
    assert!((pf - pa).abs() < 0.01, "polarization: {pf} vs {pa}");
    assert!(
        (swf - swa).abs() / swf < 0.01,
        "switching energy: fixed {swf:e} vs adaptive {swa:e}"
    );
    assert!(
        (gf - ga).abs() / gf < 0.01,
        "gate energy: fixed {gf:e} vs adaptive {ga:e}"
    );
    // The FeFET's max_timestep hint throttles growth while the polarization
    // moves, but the long settled tail still wins well over 2×.
    assert!(na * 2 <= nf, "adaptive {na} vs fixed {nf} accepted steps");
}
