//! SPICE netlist export.
//!
//! Every `ftcam` testbench can be dumped as a human-readable SPICE deck for
//! inspection or for cross-checking individual nodes in an external
//! simulator. Elements with exact SPICE primitives (R, C, V, I, D) map
//! directly; compact models with internal state (MOSFET, FeFET) emit
//! subcircuit calls with their parameters as comments, since their
//! behaviour is defined by this crate's models rather than by a foundry
//! deck.

use crate::circuit::Circuit;
use crate::node::NodeId;

/// Renders the circuit as a SPICE-style netlist.
///
/// Pinned sources become ideal voltage sources `Vpin_<label>`; devices are
/// emitted in insertion order via [`crate::Device::spice_lines`], falling
/// back to a comment for devices that opt out. A device with a
/// multiplicity other than 1 gets an `M=` suffix.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::{Circuit, export_spice, elements::Resistor, waveform::Waveform};
///
/// # fn main() -> Result<(), ftcam_circuit::CircuitError> {
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// let out = ckt.node("out");
/// ckt.pin(vdd, "VDD", Waveform::dc(0.8))?;
/// ckt.add_labeled("r_load", Resistor::new(vdd, out, 1e3));
/// let deck = export_spice(&ckt, "divider");
/// assert!(deck.contains("Rr_load vdd out 1000"));
/// assert!(deck.contains(".end"));
/// # Ok(())
/// # }
/// ```
pub fn export_spice(circuit: &Circuit, title: &str) -> String {
    let names = |node: NodeId| -> String {
        if node.is_ground() {
            "0".to_string()
        } else {
            sanitize(&circuit.node_name(node))
        }
    };
    let mut out = format!("* {title}\n* exported by ftcam-circuit\n");
    for p in 0..circuit.pin_count() {
        let pin = crate::circuit::PinId(p as u32);
        let node = circuit.pin_node(pin);
        let label = sanitize(&circuit.pin_label(pin));
        let wave = spice_waveform(&circuit.pins[p].wave);
        out.push_str(&format!("Vpin_{label} {} 0 {wave}\n", names(node)));
    }
    for d in 0..circuit.device_count() {
        let id = crate::device::DeviceId(d as u32);
        let label = sanitize(&circuit.device_label(id));
        match circuit.devices[d].spice_lines(&names, &label) {
            Some(mut lines) => {
                let m = circuit.device_mult[d];
                if m != 1.0 {
                    lines = format!("{} M={}", lines.trim_end(), crate::format_spice_number(m));
                }
                out.push_str(&lines);
                if !lines.ends_with('\n') {
                    out.push('\n');
                }
            }
            None => out.push_str(&format!("* (device `{label}` has no SPICE mapping)\n")),
        }
    }
    out.push_str(".end\n");
    out
}

/// Renders a waveform as a SPICE source specification.
pub(crate) fn spice_waveform(wave: &crate::waveform::Waveform) -> String {
    use crate::waveform::Waveform;
    match wave {
        Waveform::Dc(v) => format!("DC {v:.6}"),
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            let per = period.map_or(String::new(), |p| format!(" {p:.4e}"));
            format!("PULSE({v0:.4} {v1:.4} {delay:.4e} {rise:.4e} {fall:.4e} {width:.4e}{per})")
        }
        Waveform::Pwl(points) => {
            let body: Vec<String> = points
                .iter()
                .map(|(t, v)| format!("{t:.4e} {v:.4}"))
                .collect();
            format!("PWL({})", body.join(" "))
        }
        Waveform::Sine {
            offset,
            amplitude,
            freq,
            delay,
        } => format!("SIN({offset:.4} {amplitude:.4} {freq:.4e} {delay:.4e})"),
    }
}

/// Formats a number the way SPICE decks conventionally read: plain decimal
/// in a comfortable range, exponent notation outside it.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::format_spice_number;
/// assert_eq!(format_spice_number(4700.0), "4700");
/// assert_eq!(format_spice_number(1e-14), "1e-14");
/// assert_eq!(format_spice_number(0.0), "0");
/// ```
pub fn format_spice_number(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let mag = value.abs();
    if (1e-3..1e6).contains(&mag) {
        let s = format!("{value:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{value:e}")
    }
}

/// SPICE identifiers: conservative character set.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Capacitor, CurrentSource, Diode, Resistor, VoltageSource};
    use crate::waveform::Waveform;

    #[test]
    fn exports_primitives_and_pins() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b.mid"); // dot must sanitise
        ckt.pin(a, "VDD", Waveform::dc(1.0)).unwrap();
        ckt.add_labeled("r1", Resistor::new(a, b, 4.7e3));
        ckt.add_labeled("c1", Capacitor::new(b, ckt.ground(), 10e-15));
        ckt.add_labeled("d1", Diode::new(b, ckt.ground(), 1e-15));
        ckt.add_labeled("i1", CurrentSource::dc(ckt.ground(), b, 1e-6));
        ckt.add_labeled(
            "v1",
            VoltageSource::new(a, b, Waveform::pulse(0.0, 1.0, 1e-9, 1e-11, 1e-11, 1e-9)),
        );
        let deck = export_spice(&ckt, "unit");
        assert!(deck.starts_with("* unit\n"));
        assert!(deck.contains("Vpin_VDD a 0 DC 1.000000"));
        assert!(deck.contains("Rr1 a b_mid 4700"));
        assert!(deck.contains("Cc1 b_mid 0 1e-14"));
        assert!(deck.contains("Dd1 b_mid 0"));
        assert!(deck.contains("Ii1 0 b_mid DC"));
        assert!(deck.contains("Vv1 a b_mid PULSE(0.0000 1.0000"));
        assert!(deck.trim_end().ends_with(".end"));
    }

    #[test]
    fn pwl_waveform_renders() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0)]);
        let s = spice_waveform(&w);
        assert!(s.starts_with("PWL(0.0000e0 0.0000"));
    }
}
