//! Exact row folding: one simulated column group per class of identical
//! groups.
//!
//! Two column groups follow bit-identical trajectories through a transient
//! when they sit on the same match line, are driven by the same waveforms
//! and start from the same state: their wire caps' voltages, FeFETs'
//! polarizations and ReRAMs' states. Everything else is re-initialised
//! when a transient starts. A class of `m` such groups is simulated as one
//! representative whose lines, footer and cells carry multiplicity `m`
//! (see `Circuit::set_multiplicity`), so every stamp is exactly `m` times
//! one copy's and each driver pin delivers the class total.
//!
//! The record netlist keeps the row's state between transients. A folded
//! run copies this run's waveforms and the representatives' state into a
//! freshly built netlist, simulates it, and copies each representative's
//! final state back to every member of its class.

use ftcam_circuit::analysis::Transient;
use ftcam_circuit::elements::Capacitor;
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, DeviceId, PinId};
use ftcam_devices::{FeFet, Reram};

use crate::error::CellError;
use crate::testbench::{Netlist, Run, Testbench};

/// Column groups split into classes of identical groups.
#[derive(Debug)]
pub(crate) struct Partition {
    /// Class of each group.
    class_of: Vec<usize>,
    /// First group of each class, its representative.
    reps: Vec<usize>,
}

/// What a group brings into a transient, compared bit for bit.
#[derive(PartialEq)]
struct GroupKey<'a> {
    waves: Vec<&'a Waveform>,
    bits: Vec<u64>,
}

/// The pins and state devices of a part of `net`. `Some(k)` is built
/// column `k`: its SL and SLB drivers and wire caps, then its cell in every
/// row. `None` is what the columns share: the precharge clocks, the enable
/// pins and the match-line wire caps.
fn parts(net: &Netlist, part: Option<usize>, rows: usize) -> (Vec<PinId>, Vec<DeviceId>) {
    let Some(k) = part else {
        let mut pins = net.pre_pins.clone();
        pins.extend(net.en_pin.iter().chain(&net.wen_pin));
        return (pins, net.ml_caps.clone());
    };
    let (sl, slb) = net.sl_pins[k];
    let (c_sl, c_slb) = net.sl_caps[k];
    let (mut pins, mut devices) = (vec![sl, slb], vec![c_sl, c_slb]);
    for r in 0..rows {
        let cell = &net.cells[r * net.columns.len() + k];
        pins.extend(&cell.pins);
        devices.extend(&cell.devices);
    }
    (pins, devices)
}

/// The bits of the state `id` carries into the next transient.
fn state_bits(ckt: &Circuit, id: DeviceId) -> u64 {
    if let Some(c) = ckt.device_ref::<Capacitor>(id) {
        c.voltage().to_bits()
    } else if let Some(f) = ckt.device_ref::<FeFet>(id) {
        f.polarization().to_bits()
    } else if let Some(r) = ckt.device_ref::<Reram>(id) {
        r.state() as u64
    } else {
        0
    }
}

/// Copies the waveforms and carried state of part `src` of `from` onto
/// part `dst` of `to` (see [`parts`]). `write_back` also adds each FeFET's
/// switching energy, which in a freshly built folded netlist is the
/// increment of the run.
fn carry(
    (from, src): (&Netlist, Option<usize>),
    (to, dst): (&mut Netlist, Option<usize>),
    rows: usize,
    write_back: bool,
) {
    const SAME: &str = "folded and record netlists share their structure";
    let ((src_pins, src_devices), (dst_pins, dst_devices)) =
        (parts(from, src, rows), parts(to, dst, rows));
    for (s, d) in src_pins.into_iter().zip(dst_pins) {
        to.ckt.set_pin_waveform(d, from.ckt.pin_waveform(s).clone());
    }
    for (s, d) in src_devices.into_iter().zip(dst_devices) {
        if let Some(c) = from.ckt.device_ref::<Capacitor>(s) {
            let v = c.voltage();
            to.ckt
                .device_mut::<Capacitor>(d)
                .expect(SAME)
                .set_voltage(v);
        } else if let Some(f) = from.ckt.device_ref::<FeFet>(s) {
            let (p, e) = (f.polarization(), f.switching_energy());
            let fefet = to.ckt.device_mut::<FeFet>(d).expect(SAME);
            fefet.set_polarization(p);
            if write_back {
                fefet.add_switching_energy(e);
            }
        } else if let Some(r) = from.ckt.device_ref::<Reram>(s) {
            let state = r.state();
            to.ckt.device_mut::<Reram>(d).expect(SAME).set_state(state);
        }
    }
}

impl Testbench {
    /// Splits the column groups into classes by segment, waveforms and
    /// carried state; `None` when no two groups are alike.
    pub(crate) fn partition(&self) -> Option<Partition> {
        let ckt = &self.net.ckt;
        let keys: Vec<GroupKey<'_>> = self
            .groups
            .iter()
            .map(|group| {
                let mut key = GroupKey {
                    waves: Vec::new(),
                    bits: Vec::new(),
                };
                for &c in group {
                    let (pins, devices) = parts(&self.net, Some(c), self.rows);
                    key.bits.push(self.segment_of_column[c] as u64);
                    key.bits.extend(devices.iter().map(|&d| state_bits(ckt, d)));
                    key.waves.extend(pins.iter().map(|&p| ckt.pin_waveform(p)));
                }
                key
            })
            .collect();
        let mut reps: Vec<usize> = Vec::new();
        let mut class_of = Vec::with_capacity(keys.len());
        for (g, key) in keys.iter().enumerate() {
            let class = reps.iter().position(|&r| keys[r] == *key);
            class_of.push(class.unwrap_or_else(|| {
                reps.push(g);
                reps.len() - 1
            }));
        }
        (reps.len() < keys.len()).then_some(Partition { class_of, reps })
    }

    /// Runs `transient` on a netlist folded by `partition` and writes the
    /// final state back to the record netlist.
    pub(crate) fn run_folded(
        &mut self,
        transient: &Transient,
        partition: &Partition,
    ) -> Result<Run, CellError> {
        let mut sizes = vec![0usize; partition.reps.len()];
        for &class in &partition.class_of {
            sizes[class] += 1;
        }
        let units: Vec<(usize, f64)> = partition
            .reps
            .iter()
            .zip(&sizes)
            .map(|(&g, &n)| (g, n as f64))
            .collect();
        let mut folded = self.netlist(&units)?;
        // Recorded nodes and precharge rails are read by the record
        // netlist's ids; built first, they have the same ids in both.
        debug_assert_eq!(folded.ml_nodes, self.net.ml_nodes);
        debug_assert_eq!(folded.rail_pins, self.net.rail_pins);
        // The built column standing for each column: the same position in
        // its class's representative group.
        let mut start = Vec::with_capacity(units.len());
        let mut next = 0;
        for &g in &partition.reps {
            start.push(next);
            next += self.groups[g].len();
        }
        let mut built_of = vec![0usize; self.width];
        for (g, group) in self.groups.iter().enumerate() {
            for (j, &c) in group.iter().enumerate() {
                built_of[c] = start[partition.class_of[g]] + j;
            }
        }

        let rows = self.rows;
        carry((&self.net, None), (&mut folded, None), rows, false);
        for k in 0..folded.columns.len() {
            let c = folded.columns[k];
            carry((&self.net, Some(c)), (&mut folded, Some(k)), rows, false);
        }
        let result = transient.run(&mut folded.ckt).map_err(CellError::from)?;
        carry((&folded, None), (&mut self.net, None), rows, true);
        for (c, &k) in built_of.iter().enumerate() {
            carry((&folded, Some(k)), (&mut self.net, Some(c)), rows, true);
        }
        Ok(Run {
            result,
            sl_pins: folded.sl_pins,
        })
    }
}

#[cfg(test)]
mod tests {
    use ftcam_devices::TechCard;
    use ftcam_workloads::{Ternary, TernaryWord};

    use crate::design::DesignKind;
    use crate::geometry::Geometry;
    use crate::row::RowTestbench;
    use crate::search::{SearchOutcome, SearchTiming};
    use crate::write::WriteTiming;

    /// Relative agreement demanded of folded against unfolded numbers.
    const REL: f64 = 1e-9;

    fn close(what: &str, a: f64, b: f64) {
        close_at(what, a, b, 0.0);
    }

    /// Relative agreement, with `floor` as the smallest scale (for
    /// voltages that settle near 0 V).
    fn close_at(what: &str, a: f64, b: f64, floor: f64) {
        assert!(
            (a - b).abs() <= REL * a.abs().max(b.abs()).max(floor),
            "{what}: folded {a:e} vs unfolded {b:e}"
        );
    }

    fn same_search(ctx: &str, f: &SearchOutcome, u: &SearchOutcome) {
        assert_eq!(f.matched, u.matched, "{ctx}: decision");
        assert_eq!(f.stages.len(), u.stages.len(), "{ctx}: stages");
        close(&format!("{ctx}: latency"), f.latency, u.latency);
        close(
            &format!("{ctx}: sense_margin"),
            f.sense_margin,
            u.sense_margin,
        );
        close(
            &format!("{ctx}: energy_total"),
            f.energy_total,
            u.energy_total,
        );
        // The parts of the energy are held to the search's total: a part
        // that is itself a tiny leak (an all-X match's ML energy) carries
        // the rounding of the larger currents it is the difference of.
        let total = u.energy_total;
        for (what, a, b) in [
            ("energy_ml", f.energy_ml, u.energy_ml),
            ("energy_sl", f.energy_sl, u.energy_sl),
            ("energy_ctrl", f.energy_ctrl, u.energy_ctrl),
        ] {
            close_at(&format!("{ctx}: {what}"), a, b, total);
        }
        for (fs, us) in f.stages.iter().zip(&u.stages) {
            assert_eq!(fs.matched, us.matched, "{ctx}: stage decision");
            let ml = format!("{ctx}: stage ml");
            close_at(&ml, fs.ml_at_sense, us.ml_at_sense, f.sense_threshold);
            close_at(&format!("{ctx}: stage energy"), fs.energy, us.energy, total);
        }
    }

    fn widths() -> Vec<usize> {
        if cfg!(debug_assertions) {
            vec![8, 64]
        } else {
            vec![8, 64, 128]
        }
    }

    /// Folded rows reproduce unfolded rows: every design, searches at
    /// k = 0, 1 and w/2 mismatches, a write where supported and a search
    /// after it. Decisions and accepted steps are equal; energies,
    /// latencies and margins agree within 1e-9 relative.
    #[test]
    fn folded_rows_match_unfolded_rows() {
        let timing = SearchTiming::default();
        let write_timing = WriteTiming::default();
        for width in widths() {
            for kind in DesignKind::ALL {
                let build = || {
                    RowTestbench::new(
                        kind.instantiate(),
                        TechCard::hp45(),
                        Geometry::default(),
                        width,
                    )
                    .expect("row builds")
                };
                let (mut folded, mut unfolded) = (build(), build().unfolded());
                let word: TernaryWord = (0..width)
                    .map(|i| {
                        if i % 2 == 0 {
                            Ternary::One
                        } else {
                            Ternary::Zero
                        }
                    })
                    .collect();
                folded.program_word(&word).unwrap();
                unfolded.program_word(&word).unwrap();
                if width >= 64 {
                    assert!(folded.would_fold(), "{kind} w={width}: the row must fold");
                }
                let mut queries: Vec<TernaryWord> = [0, 1, width / 2]
                    .map(|k| word.with_spread_mismatches(k))
                    .into();
                queries.push(TernaryWord::all_x(width));
                for (n, query) in queries.iter().enumerate() {
                    let ctx = format!("{kind} w={width} query {n}");
                    let f = folded.search(query, &timing).unwrap();
                    let u = unfolded.search(query, &timing).unwrap();
                    same_search(&ctx, &f, &u);
                }
                if kind.instantiate().supports_transient_write() {
                    let target = word.with_spread_mismatches(width / 2);
                    let ctx = format!("{kind} w={width} write");
                    let f = folded.write_word(&target, &write_timing).unwrap();
                    let u = unfolded.write_word(&target, &write_timing).unwrap();
                    assert_eq!(f.programmed_ok, u.programmed_ok, "{ctx}");
                    close(&format!("{ctx}: energy"), f.energy_total, u.energy_total);
                    close(
                        &format!("{ctx}: switching"),
                        f.energy_switching,
                        u.energy_switching,
                    );
                    for (a, b) in f.polarizations.iter().zip(&u.polarizations) {
                        close(&format!("{ctx}: polarization"), *a, *b);
                    }
                    let f = folded.search(&target, &timing).unwrap();
                    let u = unfolded.search(&target, &timing).unwrap();
                    same_search(&format!("{ctx} then search"), &f, &u);
                    assert!(f.matched, "{ctx}: written word must match");
                }
                assert_eq!(
                    folded.step_stats().accepted,
                    unfolded.step_stats().accepted,
                    "{kind} w={width}: accepted steps"
                );
            }
        }
    }
}
