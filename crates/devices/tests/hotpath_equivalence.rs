//! Hot-path equivalence on the real compact models.
//!
//! `Mosfet` and `FeFet` split their stamp: the channel is restamped every
//! Newton iteration, while the companion capacitors (and the FeFET's
//! lagged displacement current) go into the once-per-time-point baseline.
//! On each circuit below the default hot path must agree with the
//! full-restamp reference ([`HotPath::legacy`]) within the bounds the
//! circuit crate's ladder tests use (1e-3 V per trace sample, 1% per supply
//! energy), and tape replay must change nothing down to the last bit.

use ftcam_circuit::analysis::{Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::linalg::SPARSE_THRESHOLD;
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, HotPath, NewtonSettings};
use ftcam_devices::{FeFet, Mosfet, TechCard};

/// One transient's node traces and supply energies, in a fixed order.
struct Run {
    traces: Vec<Vec<f64>>,
    energies: Vec<f64>,
}

/// A circuit builder plus the nodes and supplies to compare.
struct Fixture {
    build: fn() -> Circuit,
    nodes: Vec<String>,
    supplies: &'static [&'static str],
    dt: f64,
    t_stop: f64,
}

impl Fixture {
    fn run(&self, hot_path: HotPath) -> Run {
        let mut ckt = (self.build)();
        let opts = TransientOpts::new(self.dt, self.t_stop)
            .with_newton(NewtonSettings::new().with_hot_path(hot_path));
        let res = Transient::new(opts).run(&mut ckt).expect("transient runs");
        Run {
            traces: self
                .nodes
                .iter()
                .map(|n| res.trace(n).expect("trace").values().to_vec())
                .collect(),
            energies: self
                .supplies
                .iter()
                .map(|s| res.supply_energy(s).expect("supply"))
                .collect(),
        }
    }

    /// Asserts the equivalences and returns the default hot path's run.
    fn check(&self, name: &str) -> Run {
        let hot = self.run(HotPath::default());
        let legacy = self.run(HotPath::legacy());
        for (node, (h, l)) in self.nodes.iter().zip(hot.traces.iter().zip(&legacy.traces)) {
            assert_eq!(h.len(), l.len(), "{name}/{node}: sample count");
            for (i, (a, b)) in h.iter().zip(l).enumerate() {
                assert!(
                    (a - b).abs() < 1e-3,
                    "{name}/{node} sample {i}: hot {a} vs legacy {b}"
                );
            }
        }
        let energies = hot.energies.iter().zip(&legacy.energies);
        for (s, (eh, el)) in self.supplies.iter().zip(energies) {
            assert!(
                (eh - el).abs() <= 0.01 * el.abs().max(1e-18),
                "{name}/{s}: hot {eh:.4e} J vs legacy {el:.4e} J"
            );
        }
        let untaped = self.run(HotPath {
            tape: false,
            ..HotPath::default()
        });
        let bits = |r: &Run| -> Vec<u64> {
            r.traces
                .iter()
                .flatten()
                .chain(&r.energies)
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&hot), bits(&untaped), "{name}: tape on vs off");
        hot
    }
}

/// A static CMOS inverter driven by one input pulse, 1 fF load.
fn inverter() -> Circuit {
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let (vin, vout, vdd) = (ckt.node("vin"), ckt.node("vout"), ckt.node("vdd"));
    ckt.pin(vdd, "VDD", Waveform::dc(card.vdd)).expect("pin");
    let wave = Waveform::pulse(0.0, card.vdd, 1e-9, 50e-12, 50e-12, 2e-9);
    ckt.pin(vin, "VIN", wave).expect("pin");
    ckt.add(Mosfet::new(card.pmos.clone(), vout, vin, vdd));
    ckt.add(Mosfet::new(card.nmos.clone(), vout, vin, ckt.ground()));
    ckt.add(Capacitor::new(vout, ckt.ground(), 1e-15));
    ckt
}

/// An erased FeFET programmed by a +4 V gate pulse, then read at VDD
/// through a 50 kΩ drain pull-up.
fn fefet_program_read() -> Circuit {
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let (gate, drain, vdd) = (ckt.node("gate"), ckt.node("drain"), ckt.node("vdd"));
    let gate_wave = Waveform::pwl(vec![
        (0.0, 0.0),
        (1e-9, 0.0),
        (1.5e-9, 4.0),
        (20e-9, 4.0),
        (20.5e-9, 0.0),
        (22e-9, 0.0),
        (22.2e-9, card.vdd),
    ]);
    ckt.pin(gate, "GATE", gate_wave).expect("pin");
    ckt.pin(vdd, "VDD", Waveform::dc(card.vdd)).expect("pin");
    ckt.add(Resistor::new(vdd, drain, 50e3));
    let mut fefet = FeFet::new(card.fefet.clone(), drain, gate, ckt.ground());
    fefet.program_bit(false);
    ckt.add(fefet);
    ckt
}

/// An inverter chain with one free node per stage and as many stages as
/// the sparse threshold, so the system runs on the sparse backend.
fn inverter_chain() -> Circuit {
    let card = TechCard::hp45();
    let mut ckt = Circuit::new();
    let (vin, vdd) = (ckt.node("vin"), ckt.node("vdd"));
    ckt.pin(vdd, "VDD", Waveform::dc(card.vdd)).expect("pin");
    let wave = Waveform::pulse(0.0, card.vdd, 0.2e-9, 50e-12, 50e-12, 1e-9);
    ckt.pin(vin, "VIN", wave).expect("pin");
    let mut prev = vin;
    for i in 0..SPARSE_THRESHOLD {
        let out = ckt.node(&format!("s{i}"));
        ckt.add(Mosfet::new(card.pmos.clone(), out, prev, vdd));
        ckt.add(Mosfet::new(card.nmos.clone(), out, prev, ckt.ground()));
        prev = out;
    }
    ckt
}

#[test]
fn mosfet_inverter_matches_full_restamp() {
    Fixture {
        build: inverter,
        nodes: vec!["vout".into()],
        supplies: &["VDD", "VIN"],
        dt: 10e-12,
        t_stop: 5e-9,
    }
    .check("inverter");
}

#[test]
fn fefet_program_then_read_matches_full_restamp() {
    let hot = Fixture {
        build: fefet_program_read,
        nodes: vec!["drain".into()],
        supplies: &["GATE", "VDD"],
        dt: 0.1e-9,
        t_stop: 30e-9,
    }
    .check("fefet");
    // The pulse programmed the low-V_th state: the read pulls the drain low.
    let drain = hot.traces[0].last().copied().expect("samples");
    assert!(drain < 0.1, "read after program: drain at {drain} V");
}

#[test]
fn sparse_inverter_chain_matches_full_restamp() {
    Fixture {
        build: inverter_chain,
        nodes: (0..SPARSE_THRESHOLD).map(|i| format!("s{i}")).collect(),
        supplies: &["VDD", "VIN"],
        dt: 10e-12,
        t_stop: 2e-9,
    }
    .check("chain");
}
