//! The netlist and solver state shared by the row and array testbenches.
//!
//! A row is the `rows = 1` case of an array: both are built here by one
//! builder, run their transients through one helper that accumulates the
//! solver statistics, and drive their search cycles through one routine.

use ftcam_circuit::analysis::{Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{
    Circuit, DeviceId, Name, NewtonSettings, NodeId, PinId, RecoveryStats, SolverPerf, StepStats,
    TransientResult,
};
use ftcam_devices::{Mosfet, MosfetParams, Polarity, TechCard};
use ftcam_workloads::TernaryWord;

use crate::design::{CellDesign, CellHandle, CellSite, FooterStyle};
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::search::SearchTiming;

/// Gate boost applied to an NMOS precharge clock so a low-swing rail is
/// passed without a threshold drop (a standard boosted-clock technique).
const NMOS_PRECHARGE_BOOST: f64 = 0.4;

/// How a match line is precharged.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PrechargeKind {
    /// PMOS device, clock active-low.
    Pmos,
    /// NMOS device with a boosted active-high clock (low-swing rails).
    Nmos,
}

impl PrechargeKind {
    fn on_level(self, vdd: f64) -> f64 {
        match self {
            PrechargeKind::Pmos => 0.0,
            PrechargeKind::Nmos => vdd + NMOS_PRECHARGE_BOOST,
        }
    }

    pub(crate) fn off_level(self, vdd: f64) -> f64 {
        match self {
            PrechargeKind::Pmos => vdd,
            PrechargeKind::Nmos => 0.0,
        }
    }
}

/// One built circuit with handles to its parts.
///
/// The record netlist builds every column. A folded netlist builds one
/// representative column group per class, each standing for the whole
/// class (see `crate::fold`).
#[derive(Debug, Default)]
pub(crate) struct Netlist {
    pub ckt: Circuit,
    /// The columns built, in build order: every column, in order, for the
    /// record netlist.
    pub columns: Vec<usize>,
    /// Cell handles in site order: row-major over `columns`.
    pub cells: Vec<CellHandle>,
    /// SL and SLB driver pins of each built column.
    pub sl_pins: Vec<(PinId, PinId)>,
    /// SL and SLB wire capacitors of each built column.
    pub sl_caps: Vec<(DeviceId, DeviceId)>,
    pub ml_nodes: Vec<NodeId>,
    /// Wire capacitor of each match line.
    pub ml_caps: Vec<DeviceId>,
    /// Precharge rail of each match line.
    pub rail_pins: Vec<PinId>,
    /// Precharge clock of each match line.
    pub pre_pins: Vec<PinId>,
    pub en_pin: Option<PinId>,
    pub wen_pin: Option<PinId>,
}

/// A finished transient with the SL and SLB driver pins of the netlist it
/// ran on: the record netlist's, or a folded netlist's, whose ids differ.
#[derive(Debug)]
pub(crate) struct Run {
    pub result: TransientResult,
    pub sl_pins: Vec<(PinId, PinId)>,
}

/// A transistor-level `rows × width` TCAM testbench with its solver state.
///
/// Every row has `segments` match lines; match line `m` belongs to row
/// `m / segments` and segment `m % segments`. Cell sites are numbered
/// row-major, `r · width + column`. The search lines are shared by every
/// row.
#[derive(Debug)]
pub(crate) struct Testbench {
    /// The unfolded netlist: the state of record between transients and
    /// the description of the row.
    pub net: Netlist,
    pub design: Box<dyn CellDesign>,
    pub card: TechCard,
    pub geometry: Geometry,
    pub rows: usize,
    pub width: usize,
    pub precharge: PrechargeKind,
    pub segment_of_column: Vec<usize>,
    pub segment_columns: Vec<Vec<usize>>,
    /// The units of folding, in column order: one footer group each for
    /// shared-footer designs, one column each otherwise.
    pub groups: Vec<Vec<usize>>,
    /// `false` runs every transient on the record netlist, unfolded.
    pub fold: bool,
    pub step_stats: StepStats,
    pub recovery_stats: RecoveryStats,
    pub solver_perf: SolverPerf,
    pub newton: NewtonSettings,
}

impl Testbench {
    /// Builds the testbench for `rows × width` cells of the given design,
    /// each row split into the design's match-line segments.
    pub fn build(
        design: Box<dyn CellDesign>,
        card: TechCard,
        geometry: Geometry,
        rows: usize,
        width: usize,
    ) -> Result<Self, CellError> {
        let features = design.features();
        let segments = features.segments.clamp(1, width);
        let precharge = if design.ml_precharge_voltage(&card) >= 0.7 * card.vdd {
            PrechargeKind::Pmos
        } else {
            PrechargeKind::Nmos
        };

        // Segment partition: balanced, first segments take the remainder.
        let mut segment_columns: Vec<Vec<usize>> = vec![Vec::new(); segments];
        let mut segment_of_column = vec![0usize; width];
        {
            let base = width / segments;
            let rem = width % segments;
            let mut col = 0usize;
            for (s, columns) in segment_columns.iter_mut().enumerate() {
                let size = base + usize::from(s < rem);
                for _ in 0..size {
                    segment_of_column[col] = s;
                    columns.push(col);
                    col += 1;
                }
            }
        }
        // Footer groups: adjacent columns within a segment.
        let groups = match features.footer {
            FooterStyle::None => (0..width).map(|c| vec![c]).collect(),
            FooterStyle::SharedPerGroup(group) => segment_columns
                .iter()
                .flat_map(|columns| columns.chunks(group.max(1)).map(<[usize]>::to_vec))
                .collect(),
        };

        let mut tb = Self {
            net: Netlist::default(),
            design,
            card,
            geometry,
            rows,
            width,
            precharge,
            segment_of_column,
            segment_columns,
            groups,
            fold: true,
            step_stats: StepStats::default(),
            recovery_stats: RecoveryStats::default(),
            solver_perf: SolverPerf::default(),
            newton: NewtonSettings::default(),
        };
        let every_group: Vec<(usize, f64)> = (0..tb.groups.len()).map(|g| (g, 1.0)).collect();
        tb.net = tb.netlist(&every_group)?;
        Ok(tb)
    }

    /// Builds a netlist holding the column groups `units`, given as
    /// `(group, multiplicity)`: each group's search lines, footers and
    /// cells stand for `multiplicity` identical groups.
    ///
    /// Creation order: write-enable pin, match lines (wire cap, precharge
    /// rail, clock, device, write clamp), search-enable pin, search lines,
    /// footers, cells.
    pub fn netlist(&self, units: &[(usize, f64)]) -> Result<Netlist, CellError> {
        let (design, card, geometry) = (self.design.as_ref(), &self.card, &self.geometry);
        let (rows, segments) = (self.rows, self.segment_columns.len());
        let precharge = self.precharge;
        let v_pre = design.ml_precharge_voltage(card);
        let mut ckt = Circuit::new();
        let area_f2 = design.area_f2();

        // Per match line: wire cap, precharge device, write clamp.
        let n_ml = rows * segments;
        let mut ml_nodes = Vec::with_capacity(n_ml);
        let mut ml_caps = Vec::with_capacity(n_ml);
        let mut rail_pins = Vec::with_capacity(n_ml);
        let mut pre_pins = Vec::with_capacity(n_ml);
        let wen = design.supports_transient_write().then(|| {
            let wen_node = ckt.add_node("wen");
            let pin = ckt
                .pin(wen_node, "WEN", Waveform::dc(0.0))
                .expect("fresh node");
            (wen_node, pin)
        });
        for m in 0..n_ml {
            let ml = ckt.add_node(Name::indexed("ml", m));
            ml_nodes.push(ml);
            ml_caps.push(ckt.add_labeled(
                Name::indexed("c_ml_wire", m),
                Capacitor::new(
                    ml,
                    ckt.ground(),
                    geometry.ml_wire_cap(area_f2, self.segment_columns[m % segments].len()),
                ),
            ));
            // Precharge rail + device + clock pin.
            let rail = ckt.add_node(Name::indexed("vpre", m));
            rail_pins.push(
                ckt.pin(rail, Name::indexed("VPRE", m), Waveform::dc(v_pre))
                    .map_err(CellError::from)?,
            );
            let clk = ckt.add_node(Name::indexed("preb", m));
            let pre_pin = ckt
                .pin(
                    clk,
                    Name::indexed("PREB", m),
                    Waveform::dc(precharge.off_level(card.vdd)),
                )
                .map_err(CellError::from)?;
            pre_pins.push(pre_pin);
            let pre_params = match precharge {
                PrechargeKind::Pmos => card.pmos.scaled(geometry.precharge_width_mult),
                PrechargeKind::Nmos => card.nmos.scaled(geometry.precharge_width_mult),
            };
            // Drain on the rail, source on the ML for the PMOS orientation;
            // the EKV model is source/drain symmetric so the distinction
            // only matters for readability.
            ckt.add_labeled(
                Name::indexed("m_pre", m),
                Mosfet::new(pre_params, rail, clk, ml),
            );
            if let Some((wen_node, _)) = wen {
                let clamp = clamp_params(card, geometry);
                ckt.add_labeled(
                    Name::indexed("m_wclamp", m),
                    Mosfet::new(clamp, ml, wen_node, ckt.ground()),
                );
            }
        }

        // Search-enable rail for gated-footer designs.
        let footer = design.features().footer;
        let en = match footer {
            FooterStyle::None => None,
            FooterStyle::SharedPerGroup(_) => {
                let en_node = ckt.add_node("en");
                let pin = ckt
                    .pin(en_node, "EN", Waveform::dc(0.0))
                    .map_err(CellError::from)?;
                Some((en_node, pin))
            }
        };

        // The built columns, each with its unit's multiplicity.
        let (columns, mults): (Vec<usize>, Vec<f64>) = units
            .iter()
            .flat_map(|&(g, m)| self.groups[g].iter().map(move |&c| (c, m)))
            .unzip();
        let nb = columns.len();

        // Columns: SL driver pin → driver resistance → SL node. The wire
        // crosses every row, each contributing its share of capacitance.
        let sl_wire_cap = geometry.sl_wire_cap_per_cell(area_f2) * rows as f64;
        let mut sl_pins = Vec::with_capacity(nb);
        let mut sl_caps = Vec::with_capacity(nb);
        let mut sl_nodes = Vec::with_capacity(nb);
        for (&i, &m) in columns.iter().zip(&mults) {
            ckt.set_multiplicity(m);
            // Each name is followed by the column: driver node, line node,
            // driver pin, driver resistor, wire capacitor.
            let mut make_line = |[driver, wire, label, resistor, wire_cap]: [&'static str; 5]| {
                let drv = ckt.add_node(Name::indexed(driver, i));
                let line = ckt.add_node(Name::indexed(wire, i));
                let pin = ckt
                    .pin(drv, Name::indexed(label, i), Waveform::dc(0.0))
                    .map_err(CellError::from)?;
                ckt.add_labeled(
                    Name::indexed(resistor, i),
                    Resistor::new(drv, line, geometry.sl_driver_resistance),
                );
                let cap = ckt.add_labeled(
                    Name::indexed(wire_cap, i),
                    Capacitor::new(line, NodeId::GROUND, sl_wire_cap),
                );
                Ok::<_, CellError>((pin, cap, line))
            };
            let (sl_pin, sl_cap, sl_node) = make_line(["sldrv", "sl", "SL", "r_sl", "c_slwire"])?;
            let (slb_pin, slb_cap, slb_node) =
                make_line(["slbdrv", "slb", "SLB", "r_slb", "c_slbwire"])?;
            sl_pins.push((sl_pin, slb_pin));
            sl_caps.push((sl_cap, slb_cap));
            sl_nodes.push((sl_node, slb_node));
        }

        // Footers (one per group and row), labelled by the site of the
        // group's first cell.
        let mut source_rails = vec![NodeId::GROUND; rows * nb];
        if let Some((en_node, _)) = en {
            for r in 0..rows {
                let mut k = r * nb;
                for &(g, m) in units {
                    ckt.set_multiplicity(m);
                    let group = &self.groups[g];
                    let rail = ckt.fresh_node("footer_rail");
                    let footer = card.nmos.scaled(geometry.footer_width_mult);
                    ckt.add_labeled(
                        Name::indexed("m_footer", r * self.width + group[0]),
                        Mosfet::new(footer, rail, en_node, ckt.ground()),
                    );
                    source_rails[k..k + group.len()].fill(rail);
                    k += group.len();
                }
            }
        }

        // Cells.
        let mut cells = Vec::with_capacity(rows * nb);
        for r in 0..rows {
            for (k, (&i, &m)) in columns.iter().zip(&mults).enumerate() {
                ckt.set_multiplicity(m);
                let site = CellSite {
                    index: r * self.width + i,
                    ml: ml_nodes[r * segments + self.segment_of_column[i]],
                    sl: sl_nodes[k].0,
                    slb: sl_nodes[k].1,
                    source_rail: source_rails[r * nb + k],
                };
                cells.push(design.build_cell(&mut ckt, card, geometry, &site));
            }
        }
        ckt.set_multiplicity(1.0);

        Ok(Netlist {
            ckt,
            columns,
            cells,
            sl_pins,
            sl_caps,
            ml_nodes,
            ml_caps,
            rail_pins,
            pre_pins,
            en_pin: en.map(|(_, pin)| pin),
            wen_pin: wen.map(|(_, pin)| pin),
        })
    }

    /// Programs row `r` to `word` (ideal write).
    pub fn program_row(&mut self, r: usize, word: &TernaryWord) {
        let cells = &self.net.cells[r * self.width..(r + 1) * self.width];
        for (i, handle) in cells.iter().enumerate() {
            self.design
                .program_cell(&mut self.net.ckt, handle, &self.card, word.get(i));
        }
    }

    /// Runs a transient with this testbench's Newton settings and adds its
    /// solver statistics to the running totals.
    ///
    /// Column groups that must follow identical trajectories are folded
    /// into one representative each (see `crate::fold`); with no two alike
    /// the record netlist runs as it is.
    pub fn run(&mut self, opts: TransientOpts) -> Result<Run, CellError> {
        let transient = Transient::new(opts.with_newton(self.newton));
        let run = match self.fold.then(|| self.partition()).flatten() {
            Some(partition) => self.run_folded(&transient, &partition)?,
            None => Run {
                result: transient.run(&mut self.net.ckt).map_err(CellError::from)?,
                sl_pins: self.net.sl_pins.clone(),
            },
        };
        self.step_stats += run.result.step_stats();
        self.recovery_stats += run.result.recovery_stats();
        self.solver_perf += run.result.solver_perf();
        Ok(run)
    }

    /// The (SL, SLB) drive levels of each column for `query`.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width query.
    pub fn query_levels(&self, query: &TernaryWord) -> Result<Vec<(f64, f64)>, CellError> {
        if query.width() != self.width {
            return Err(CellError::WidthMismatch {
                expected: self.width,
                got: query.width(),
            });
        }
        Ok((0..self.width)
            .map(|i| self.design.sl_levels(query.get(i), &self.card))
            .collect())
    }

    /// Simulates two search cycles evaluating segment `seg` of every row.
    ///
    /// Column `i` of the segment is driven to `levels[i]` = (SL, SLB)
    /// volts, returning to zero during precharge when `rtz` is set; the
    /// other columns and the other segments' precharge clocks stay idle.
    /// The evaluated match lines are recorded.
    pub fn run_search_cycles(
        &mut self,
        seg: usize,
        levels: &[(f64, f64)],
        rtz: bool,
        timing: &SearchTiming,
    ) -> Result<Run, CellError> {
        let vdd = self.card.vdd;
        let segments = self.segment_columns.len();
        let (on, off) = (self.precharge.on_level(vdd), self.precharge.off_level(vdd));
        for (m, &pin) in self.net.pre_pins.iter().enumerate() {
            let wave = if m % segments == seg {
                two_cycle_pwl([on, off, on, off], timing)
            } else {
                Waveform::dc(off)
            };
            self.net.ckt.set_pin_waveform(pin, wave);
        }
        for (i, &(v_sl, v_slb)) in levels.iter().enumerate() {
            let (sl_wave, slb_wave) = if self.segment_of_column[i] != seg {
                (Waveform::dc(0.0), Waveform::dc(0.0))
            } else if rtz {
                (
                    two_cycle_pwl([0.0, v_sl, 0.0, v_sl], timing),
                    two_cycle_pwl([0.0, v_slb, 0.0, v_slb], timing),
                )
            } else {
                (Waveform::dc(v_sl), Waveform::dc(v_slb))
            };
            self.net
                .ckt
                .set_pin_waveform(self.net.sl_pins[i].0, sl_wave);
            self.net
                .ckt
                .set_pin_waveform(self.net.sl_pins[i].1, slb_wave);
        }
        if let Some(en) = self.net.en_pin {
            self.net
                .ckt
                .set_pin_waveform(en, two_cycle_pwl([0.0, vdd, 0.0, vdd], timing));
        }
        if let Some(wen) = self.net.wen_pin {
            self.net.ckt.set_pin_waveform(wen, Waveform::dc(0.0));
        }
        let evaluated = self.net.ml_nodes[seg..].iter().step_by(segments).copied();
        let opts = TransientOpts::new(timing.dt, 2.0 * timing.cycle())
            .use_initial_conditions()
            .with_step_control(timing.step)
            .record_nodes(evaluated);
        self.run(opts)
    }

    /// Energy drawn over `[t0, t1]` in `run` by the precharge rails of
    /// every match line and by the SL and SLB drivers of every column, as
    /// `(ml, sl)`.
    ///
    /// A folded run has driver pins for its representative columns only,
    /// each carrying its class's total, so the sum is over the pins that
    /// ran. The rails, built before the columns, have the same ids in
    /// every netlist of this testbench.
    pub fn line_energies(&self, run: &Run, t0: f64, t1: f64) -> (f64, f64) {
        let energy = |pin: PinId| run.result.pin_energy_in(pin, t0, t1);
        let e_ml = self.net.rail_pins.iter().map(|&pin| energy(pin)).sum();
        let e_sl = run
            .sl_pins
            .iter()
            .map(|&(sl, slb)| energy(sl) + energy(slb))
            .sum();
        (e_ml, e_sl)
    }
}

fn clamp_params(card: &TechCard, geometry: &Geometry) -> MosfetParams {
    let mut p = card.nmos.scaled(geometry.footer_width_mult);
    debug_assert_eq!(p.polarity, Polarity::Nmos);
    // Slightly longer channel keeps clamp leakage negligible during search.
    p.length *= 1.2;
    p
}

/// Builds a two-cycle piecewise-linear waveform over the four phases
/// `[precharge₁, evaluate₁, precharge₂, evaluate₂]`.
fn two_cycle_pwl(levels: [f64; 4], timing: &SearchTiming) -> Waveform {
    let tp = timing.t_precharge;
    let tc = timing.cycle();
    let e = timing.edge;
    let boundaries = [0.0, tp, tc, tc + tp];
    let mut pts = Vec::with_capacity(9);
    pts.push((0.0, levels[0]));
    for k in 1..4 {
        pts.push((boundaries[k], levels[k - 1]));
        pts.push((boundaries[k] + e, levels[k]));
    }
    pts.push((2.0 * tc, levels[3]));
    Waveform::pwl(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cycle_pwl_levels() {
        let t = SearchTiming::default();
        let w = two_cycle_pwl([0.0, 1.0, 0.0, 1.0], &t);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(t.t_precharge + 0.2e-9), 1.0);
        assert_eq!(w.value(t.cycle() + 0.2e-9), 0.0);
        assert_eq!(w.value(t.cycle() + t.t_precharge + 0.2e-9), 1.0);
        assert_eq!(w.value(2.0 * t.cycle()), 1.0);
    }
}
