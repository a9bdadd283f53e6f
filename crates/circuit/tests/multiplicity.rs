//! Instance multiplicity (`Circuit::set_multiplicity`, SPICE's `M=`): one
//! device of multiplicity `m` must behave as `m` explicit parallel copies,
//! and multiplicity 1 must change nothing at all.

use ftcam_circuit::analysis::{DcOperatingPoint, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{export_spice, Circuit, TransientResult};
use ftcam_devices::{FeFet, Mosfet, TechCard};

/// Agreement demanded of folded against explicit copies.
const REL: f64 = 1e-12;

#[derive(Debug, Clone, Copy)]
enum Branch {
    Rc,
    Mosfet,
    FeFet,
}

const BRANCHES: [Branch; 3] = [Branch::Rc, Branch::Mosfet, Branch::FeFet];

/// A driven bus with `copies` branches hung off it, each with its own
/// internal node `x{i}`. The branches are created at multiplicity `mult`;
/// `None` never calls `set_multiplicity`.
fn build(branch: Branch, copies: usize, mult: Option<f64>) -> Circuit {
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let gnd = ckt.ground();
    let vdd = ckt.node("vdd");
    ckt.pin(
        vdd,
        "VDD",
        Waveform::pulse(0.2, 0.8, 0.2e-9, 50e-12, 50e-12, 1.5e-9),
    )
    .unwrap();
    // The gate starts on, so the DC currents are not bare leakage, then
    // pulses low (MOSFET) or high enough to switch a FeFET.
    let gate_pulse = if matches!(branch, Branch::FeFet) {
        4.0
    } else {
        0.2
    };
    let gate = ckt.node("gate");
    ckt.pin(
        gate,
        "G",
        Waveform::pulse(0.8, gate_pulse, 0.5e-9, 0.1e-9, 0.1e-9, 2e-9),
    )
    .unwrap();
    let bus = ckt.node("bus");
    ckt.add_labeled("r_bus", Resistor::new(vdd, bus, 2e3));
    ckt.add_labeled("c_bus", Capacitor::new(bus, gnd, 5e-15));
    if let Some(m) = mult {
        ckt.set_multiplicity(m);
    }
    for i in 0..copies {
        let x = ckt.node(&format!("x{i}"));
        match branch {
            Branch::Rc => {
                ckt.add_labeled(format!("r{i}"), Resistor::new(bus, x, 10e3));
                ckt.add_labeled(format!("c{i}"), Capacitor::new(x, gnd, 1e-15));
                ckt.add_labeled(format!("rl{i}"), Resistor::new(x, gnd, 20e3));
            }
            Branch::Mosfet => {
                ckt.add_labeled(
                    format!("m{i}"),
                    Mosfet::new(card.nmos.clone(), bus, gate, x),
                );
                ckt.add_labeled(format!("rs{i}"), Resistor::new(x, gnd, 5e3));
            }
            Branch::FeFet => {
                ckt.add_labeled(
                    format!("f{i}"),
                    FeFet::new(card.fefet.clone(), bus, gate, x),
                );
                ckt.add_labeled(format!("rs{i}"), Resistor::new(x, gnd, 5e3));
            }
        }
    }
    if mult.is_some() {
        ckt.set_multiplicity(1.0);
    }
    ckt
}

fn transient(ckt: &mut Circuit) -> TransientResult {
    Transient::new(TransientOpts::new(5e-12, 4e-9))
        .run(ckt)
        .expect("transient converges")
}

fn close(what: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= REL * a.abs().max(b.abs()),
        "{what}: multiplicity {a:e} vs copies {b:e}"
    );
}

#[test]
fn multiplicity_matches_parallel_copies_in_dc() {
    for branch in BRANCHES {
        for m in [2usize, 5] {
            let mut folded = build(branch, 1, Some(m as f64));
            let mut copies = build(branch, m, None);
            let f = DcOperatingPoint::new().run(&mut folded).unwrap();
            let c = DcOperatingPoint::new().run(&mut copies).unwrap();
            let ctx = format!("{branch:?} m={m}");
            for node in ["bus", "x0"] {
                let (a, b) = (f.voltage(node).unwrap(), c.voltage(node).unwrap());
                close(&format!("{ctx} v({node})"), a, b);
            }
            for pin in ["VDD", "G"] {
                let (a, b) = (f.pin_current(pin).unwrap(), c.pin_current(pin).unwrap());
                close(&format!("{ctx} i({pin})"), a, b);
            }
        }
    }
}

#[test]
fn multiplicity_matches_parallel_copies_in_transient() {
    for branch in BRANCHES {
        for m in [2usize, 5] {
            let f = transient(&mut build(branch, 1, Some(m as f64)));
            let c = transient(&mut build(branch, m, None));
            let ctx = format!("{branch:?} m={m}");
            assert_eq!(f.times(), c.times(), "{ctx}: fixed steps");
            for node in ["bus", "x0"] {
                let (a, b) = (f.trace(node).unwrap(), c.trace(node).unwrap());
                for (t, (va, vb)) in a.values().iter().zip(b.values()).enumerate() {
                    close(&format!("{ctx} v({node}) sample {t}"), *va, *vb);
                }
            }
            for pin in ["VDD", "G"] {
                let (a, b) = (f.supply_energy(pin).unwrap(), c.supply_energy(pin).unwrap());
                close(&format!("{ctx} E({pin})"), a, b);
            }
            if let Branch::FeFet = branch {
                assert!(f.supply_energy("G").unwrap() > 0.0, "{ctx}: gate switched");
            }
        }
    }
}

/// Multiplicity 1 multiplies by `1.0`, so a netlist built with it is the
/// netlist built without it, bit for bit.
#[test]
fn multiplicity_one_is_bit_identical() {
    for branch in BRANCHES {
        let mut scoped = build(branch, 3, Some(1.0));
        let mut plain = build(branch, 3, None);
        assert_eq!(export_spice(&scoped, "t"), export_spice(&plain, "t"));
        let (a, b) = (transient(&mut scoped), transient(&mut plain));
        for node in ["bus", "x0", "x2"] {
            let bits = |r: &TransientResult| -> Vec<u64> {
                let trace = r.trace(node).unwrap();
                trace.values().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "{branch:?} v({node})");
        }
        for pin in ["VDD", "G"] {
            let (ea, eb) = (a.supply_energy(pin).unwrap(), b.supply_energy(pin).unwrap());
            assert_eq!(ea.to_bits(), eb.to_bits(), "{branch:?} E({pin})");
        }
    }
}

#[test]
fn export_marks_multiplicity() {
    let ckt = build(Branch::Rc, 1, Some(4.0));
    let deck = export_spice(&ckt, "folded");
    assert!(deck.contains("Rr0 bus x0 10000 M=4"), "{deck}");
    assert!(!deck.contains("Rr_bus vdd bus 2000 M="), "{deck}");
}
