//! The `Device::terminals` contract: a device passes current only through
//! the nodes it lists, so the measure pass may skip every device with no
//! listed node on a pinned source.
//!
//! Each device is built with its nodes pinned to seeded random waveforms,
//! next to one pinned bystander node it is not connected to. The measure
//! pass then reads the current each source delivers: a source on a node
//! the device does not list must read exactly zero, in DC and over a
//! transient, at multiplicity 1 and 3.

use ftcam_circuit::analysis::{DcOperatingPoint, Transient, TransientOpts};
use ftcam_circuit::elements::{
    Capacitor, CurrentSource, Diode, Resistor, TimedSwitch, VoltageSource,
};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, Device, NodeId, StampCtx};
use ftcam_devices::{FeFet, Mosfet, Reram, ReramParams, ReramState, TechCard};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DT: f64 = 1e-12;
const T_STOP: f64 = 20e-12;

/// Adds one device on `nodes` and returns the terminals it lists.
type Build = fn(&mut Circuit, &[NodeId]) -> Option<Vec<NodeId>>;

fn add<D: Device>(ckt: &mut Circuit, device: D) -> Option<Vec<NodeId>> {
    let listed = device.terminals();
    ckt.add(device);
    listed
}

/// The nine device types, each with its node count.
fn devices() -> Vec<(&'static str, usize, Build)> {
    vec![
        ("resistor", 2, |c, n| add(c, Resistor::new(n[0], n[1], 5e3))),
        ("capacitor", 2, |c, n| {
            add(c, Capacitor::new(n[0], n[1], 2e-15))
        }),
        ("diode", 2, |c, n| add(c, Diode::new(n[0], n[1], 1e-15))),
        ("voltage source", 2, |c, n| {
            add(c, VoltageSource::dc(n[0], n[1], 0.3))
        }),
        ("current source", 2, |c, n| {
            add(c, CurrentSource::dc(n[0], n[1], 2e-6))
        }),
        ("timed switch", 2, |c, n| {
            let schedule = vec![(T_STOP / 2.0, true)];
            add(c, TimedSwitch::new(n[0], n[1], 1e3, 1e9, false, schedule))
        }),
        ("mosfet", 3, |c, n| {
            add(c, Mosfet::new(TechCard::hp45().nmos, n[0], n[1], n[2]))
        }),
        ("fefet", 3, |c, n| {
            add(c, FeFet::new(TechCard::hp45().fefet, n[0], n[1], n[2]))
        }),
        ("reram", 2, |c, n| {
            let state = ReramState::LowResistance;
            add(c, Reram::new(ReramParams::default(), n[0], n[1], state))
        }),
    ]
}

/// A circuit with `device` on `count` nodes plus a bystander, every one
/// pinned to a random ramp except that the voltage source's minus node is
/// left free with a load, so its branch equation stays solvable. Returns
/// each pin's label with whether the device lists its node.
fn build(
    build: Build,
    count: usize,
    mult: f64,
    rng: &mut ChaCha8Rng,
    free_last: bool,
) -> (Circuit, Vec<(String, bool)>) {
    let mut ckt = Circuit::new();
    ckt.set_multiplicity(mult);
    let nodes: Vec<NodeId> = (0..count).map(|k| ckt.node(&format!("n{k}"))).collect();
    let bystander = ckt.node("bystander");
    let listed = build(&mut ckt, &nodes).expect("every built-in device lists its terminals");
    let mut pins = Vec::new();
    for (k, &node) in nodes.iter().chain([&bystander]).enumerate() {
        if free_last && k == count - 1 {
            ckt.add(Resistor::new(node, ckt.ground(), 20e3));
            continue;
        }
        let (v0, v1) = (rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
        let label = format!("P{k}");
        ckt.pin(
            node,
            label.clone(),
            Waveform::pwl(vec![(0.0, v0), (T_STOP, v1)]),
        )
        .expect("fresh node");
        pins.push((label, listed.contains(&node)));
    }
    (ckt, pins)
}

/// Asserts that `reading(label)` is exactly zero on every unlisted pin and
/// nonzero on some listed one (when `expect_current`).
fn check(what: &str, pins: &[(String, bool)], expect_current: bool, reading: impl Fn(&str) -> f64) {
    let mut seen = false;
    for (label, listed) in pins {
        let r = reading(label);
        if *listed {
            seen |= r != 0.0;
        } else {
            assert_eq!(r, 0.0, "{what}: current on unlisted pin {label}");
        }
    }
    assert!(
        !expect_current || seen,
        "{what}: no current on any listed pin"
    );
}

#[test]
fn devices_pass_current_only_through_their_terminals() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e41);
    for (name, count, make) in devices() {
        for mult in [1.0, 3.0] {
            let free_last = name == "voltage source";
            let what = format!("{name} m={mult}");
            let (mut ckt, pins) = build(make, count, mult, &mut rng, free_last);
            let op = DcOperatingPoint::new().run(&mut ckt).expect("DC solves");
            // A capacitor is open in DC.
            let dc_current = name != "capacitor";
            check(&format!("{what} DC"), &pins, dc_current, |l| {
                op.pin_current(l).expect("pin")
            });
            let res = Transient::new(TransientOpts::new(DT, T_STOP))
                .run(&mut ckt)
                .expect("transient solves");
            check(&format!("{what} transient"), &pins, true, |l| {
                res.supply_energy(l).expect("pin")
            });
        }
    }
}

/// A current source that keeps the default `terminals()`: unknown.
#[derive(Debug)]
struct Unlisted {
    into: NodeId,
}

impl Device for Unlisted {
    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        ctx.stamp_current(NodeId::GROUND, self.into, 1e-6);
    }
}

#[test]
fn devices_without_a_terminal_list_are_always_measured() {
    let mut ckt = Circuit::new();
    let rail = ckt.node("rail");
    ckt.pin(rail, "VR", Waveform::dc(0.5)).expect("fresh node");
    let unlisted = Unlisted { into: rail };
    assert_eq!(unlisted.terminals(), None);
    ckt.add(unlisted);
    // The device pulls 1 µA out of ground into the rail, so the source
    // sinks it.
    let op = DcOperatingPoint::new().run(&mut ckt).expect("DC solves");
    assert_eq!(op.pin_current("VR").expect("pin"), -1e-6);
    let res = Transient::new(TransientOpts::new(DT, T_STOP))
        .run(&mut ckt)
        .expect("transient solves");
    let energy = res.supply_energy("VR").expect("pin");
    assert!(
        (energy + 0.5e-6 * T_STOP).abs() < 1e-24,
        "energy {energy:e}"
    );
}
