//! The match-line row testbench: one TCAM word under test.

use ftcam_circuit::analysis::{RecordMode, TransientOpts};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Edge, NewtonSettings, RecoveryStats, SolverPerf, StepStats};
use ftcam_devices::{FeFet, TechCard};
use ftcam_workloads::{Ternary, TernaryWord};

use crate::design::CellDesign;
use crate::error::CellError;
use crate::geometry::Geometry;
use crate::search::{SearchOutcome, SearchTiming, StageOutcome};
use crate::testbench::Testbench;
use crate::write::{WriteOutcome, WriteTiming};

/// Recorded match-line waveform of one stage (for the waveform figures).
#[derive(Debug, Clone, PartialEq)]
pub struct MlTrace {
    /// Segment index.
    pub segment: usize,
    /// Sample instants (seconds).
    pub times: Vec<f64>,
    /// ML voltage samples (volts).
    pub volts: Vec<f64>,
}

/// One evaluated search stage: its outcome, sense margin and energy
/// split.
struct Stage {
    outcome: StageOutcome,
    margin: f64,
    energy_ml: f64,
    energy_sl: f64,
}

/// A transistor-level testbench for one TCAM row (word).
///
/// Construction instantiates the full netlist — cells, search-line drivers
/// with realistic output resistance and wire loading, per-segment precharge
/// devices, optional gated footers and write clamps. The testbench then
/// supports repeated [`RowTestbench::program_word`] /
/// [`RowTestbench::search`] cycles; device state (ferroelectric
/// polarization, ML charge) carries across operations exactly as it would
/// on silicon.
#[derive(Debug)]
pub struct RowTestbench {
    tb: Testbench,
    stored: TernaryWord,
}

impl RowTestbench {
    /// Builds the testbench for `width` cells of the given design.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::InvalidParameter`] for a zero width.
    pub fn new(
        design: Box<dyn CellDesign>,
        card: TechCard,
        geometry: Geometry,
        width: usize,
    ) -> Result<Self, CellError> {
        if width == 0 {
            return Err(CellError::InvalidParameter("width must be positive".into()));
        }
        Ok(Self {
            tb: Testbench::build(design, card, geometry, 1, width)?,
            stored: TernaryWord::all_x(width),
        })
    }

    /// Word width.
    pub fn width(&self) -> usize {
        self.tb.width
    }

    /// Cumulative transient step statistics over every operation this
    /// testbench has run (searches, writes, calibration sweeps).
    pub fn step_stats(&self) -> StepStats {
        self.tb.step_stats
    }

    /// Cumulative recovery-ladder statistics over every operation this
    /// testbench has run (all-zero unless the solver needed the ladder).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.tb.recovery_stats
    }

    /// Cumulative solver hot-path counters (factorisations, LU bypasses,
    /// tape replays, ...) over every operation this testbench has run.
    pub fn solver_perf(&self) -> SolverPerf {
        self.tb.solver_perf
    }

    /// Overrides the Newton solver settings (tolerances, damping, `gmin`,
    /// and — under the `fault-injection` feature — an injected fault plan)
    /// for every subsequent operation.
    pub fn set_newton_settings(&mut self, newton: NewtonSettings) {
        self.tb.newton = newton;
    }

    /// The design under test.
    pub fn design(&self) -> &dyn CellDesign {
        self.tb.design.as_ref()
    }

    /// The technology card in use.
    pub fn card(&self) -> &TechCard {
        &self.tb.card
    }

    /// The currently stored word.
    pub fn stored_word(&self) -> &TernaryWord {
        &self.stored
    }

    /// The layout/parasitic constants in use.
    pub fn geometry(&self) -> &Geometry {
        &self.tb.geometry
    }

    /// Functional (golden-model) match result for a query.
    ///
    /// # Panics
    ///
    /// Panics if the query width differs from the testbench width.
    pub fn golden_matches(&self, query: &TernaryWord) -> bool {
        self.stored.matches(query)
    }

    /// Number of free unknowns in the underlying netlist (diagnostics).
    pub fn node_count(&self) -> usize {
        self.tb.net.ckt.node_count()
    }

    /// Programs the stored word instantly (ideal write).
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width word.
    pub fn program_word(&mut self, word: &TernaryWord) -> Result<(), CellError> {
        if word.width() != self.tb.width {
            return Err(CellError::WidthMismatch {
                expected: self.tb.width,
                got: word.width(),
            });
        }
        self.tb.program_row(0, word);
        self.stored = word.clone();
        Ok(())
    }

    /// Runs one search and returns the measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] for a wrong-width query or a
    /// wrapped [`CellError::Circuit`] if the simulation fails.
    pub fn search(
        &mut self,
        query: &TernaryWord,
        timing: &SearchTiming,
    ) -> Result<SearchOutcome, CellError> {
        let levels = self.tb.query_levels(query)?;
        let rtz = self.tb.design.features().sl_return_to_zero;
        self.search_levels(&levels, rtz, timing, None)
    }

    /// Runs one search, also returning the match-line waveforms of every
    /// evaluated stage (for the transient figures).
    ///
    /// # Errors
    ///
    /// Same as [`RowTestbench::search`].
    pub fn search_traced(
        &mut self,
        query: &TernaryWord,
        timing: &SearchTiming,
    ) -> Result<(SearchOutcome, Vec<MlTrace>), CellError> {
        let levels = self.tb.query_levels(query)?;
        let rtz = self.tb.design.features().sl_return_to_zero;
        let mut traces = Vec::new();
        let outcome = self.search_levels(&levels, rtz, timing, Some(&mut traces))?;
        Ok((outcome, traces))
    }

    /// Searches segment by segment with the given per-column (SL, SLB)
    /// levels, stopping at the first mismatching segment. Each evaluated
    /// stage's match-line waveform is copied into `traces` when given.
    fn search_levels(
        &mut self,
        levels: &[(f64, f64)],
        rtz: bool,
        timing: &SearchTiming,
        mut traces: Option<&mut Vec<MlTrace>>,
    ) -> Result<SearchOutcome, CellError> {
        let segments = self.tb.net.ml_nodes.len();
        let mut stages = Vec::with_capacity(segments);
        let mut energy_ml = 0.0;
        let mut energy_sl = 0.0;
        let mut energy_ctrl = 0.0;
        let mut latency = 0.0;
        let mut sense_margin = f64::INFINITY;
        let mut matched = true;

        for seg in 0..segments {
            let stage = self.search_stage(seg, levels, rtz, timing, traces.as_deref_mut())?;
            energy_ml += stage.energy_ml;
            energy_sl += stage.energy_sl;
            energy_ctrl += stage.outcome.energy - stage.energy_ml - stage.energy_sl;
            latency += stage.outcome.latency;
            sense_margin = sense_margin.min(stage.margin);
            let seg_matched = stage.outcome.matched;
            stages.push(stage.outcome);
            if !seg_matched {
                matched = false;
                break;
            }
        }

        let energy_total = energy_ml + energy_sl + energy_ctrl;
        Ok(SearchOutcome {
            matched,
            latency,
            energy_total,
            energy_ml,
            energy_sl,
            energy_ctrl,
            sense_threshold: self.tb.design.sense_threshold(&self.tb.card),
            sense_margin,
            stages,
        })
    }

    /// Evaluates segment `seg` over two cycles and measures the second:
    /// the ML at the sense instant, the latency, the margin and the split
    /// of the cycle's supply energy. The ML waveform is pushed onto
    /// `traces` when given.
    fn search_stage(
        &mut self,
        seg: usize,
        levels: &[(f64, f64)],
        rtz: bool,
        timing: &SearchTiming,
        traces: Option<&mut Vec<MlTrace>>,
    ) -> Result<Stage, CellError> {
        let threshold = self.tb.design.sense_threshold(&self.tb.card);
        let t_cycle = timing.cycle();
        let t_total = 2.0 * t_cycle;
        let run = self.tb.run_search_cycles(seg, levels, rtz, timing)?;
        let result = &run.result;

        let ml = result
            .node_trace(self.tb.net.ml_nodes[seg])
            .map_err(CellError::from)?;
        let eval_start = t_cycle + timing.t_precharge;
        let t_sense = eval_start + timing.sense_offset;
        let ml_at_sense = ml.value_at(t_sense);
        let matched = ml_at_sense > threshold;
        let latency = if matched {
            timing.t_precharge + timing.sense_offset
        } else {
            let cross = ml
                .cross_after(threshold, Edge::Falling, eval_start)
                .unwrap_or(t_sense);
            timing.t_precharge + (cross - eval_start).max(0.0)
        };
        let margin = if matched {
            ml_at_sense - threshold
        } else {
            threshold - ml_at_sense
        };
        let (energy_ml, energy_sl) = self.tb.line_energies(&run, t_cycle, t_total);
        if let Some(traces) = traces {
            traces.push(MlTrace {
                segment: seg,
                times: ml.times().to_vec(),
                volts: ml.values().to_vec(),
            });
        }
        Ok(Stage {
            outcome: StageOutcome {
                segment: seg,
                matched,
                ml_at_sense,
                latency,
                energy: result.total_supply_energy_in(t_cycle, t_total),
            },
            margin,
            energy_ml,
            energy_sl,
        })
    }

    /// Performs a transient word write (FeFET designs only).
    ///
    /// # Errors
    ///
    /// * [`CellError::UnsupportedOperation`] for volatile designs.
    /// * [`CellError::WidthMismatch`] for a wrong-width word.
    /// * Wrapped [`CellError::Circuit`] on simulation failure.
    pub fn write_word(
        &mut self,
        word: &TernaryWord,
        timing: &WriteTiming,
    ) -> Result<WriteOutcome, CellError> {
        if !self.tb.design.supports_transient_write() {
            return Err(CellError::UnsupportedOperation(format!(
                "{} does not support transient writes",
                self.tb.design.name()
            )));
        }
        if word.width() != self.tb.width {
            return Err(CellError::WidthMismatch {
                expected: self.tb.width,
                got: word.width(),
            });
        }
        let opts = self.drive_write(word, timing);

        // Snapshot switching energy before the write.
        let e_sw_before: f64 = self
            .fefet_devices()
            .iter()
            .map(|&d| {
                self.tb
                    .net
                    .ckt
                    .device_ref::<FeFet>(d)
                    .expect("fefet design")
                    .switching_energy()
            })
            .sum();

        let result = self.tb.run(opts)?.result;

        // Collect outcomes.
        let mut polarizations = Vec::with_capacity(2 * self.tb.width);
        let mut programmed_ok = true;
        for (i, handle) in self.tb.net.cells.iter().enumerate() {
            let (want1, want2) = crate::designs::FeFet2T::polarizations(word.get(i));
            for (slot, want) in [(0usize, want1), (1, want2)] {
                let p = self
                    .tb
                    .net
                    .ckt
                    .device_ref::<FeFet>(handle.devices[slot])
                    .expect("fefet design")
                    .polarization();
                polarizations.push(p);
                if p.abs() < 0.8 || p.signum() != want.signum() {
                    programmed_ok = false;
                }
            }
        }
        let e_sw_after: f64 = self
            .fefet_devices()
            .iter()
            .map(|&d| {
                self.tb
                    .net
                    .ckt
                    .device_ref::<FeFet>(d)
                    .expect("fefet design")
                    .switching_energy()
            })
            .sum();
        if programmed_ok {
            self.stored = word.clone();
        }
        Ok(WriteOutcome {
            energy_total: result.total_supply_energy(),
            energy_switching: e_sw_after - e_sw_before,
            latency: timing.latency(),
            programmed_ok,
            polarizations,
        })
    }

    /// Drives the erase-then-program pulse scheme for `word` onto the
    /// record netlist (MLs clamped, footers enabled, precharge idle) and
    /// returns the options of the write transient.
    fn drive_write(&mut self, word: &TernaryWord, timing: &WriteTiming) -> TransientOpts {
        let amplitude = timing.amplitude.unwrap_or(self.tb.card.vprog);
        let t0 = 1e-9;
        let t_erase_end = t0 + timing.erase_width;
        let t_prog = t_erase_end + timing.gap;
        let t_prog_end = t_prog + timing.program_width;
        let t_total = t_prog_end + 2e-9;
        let e = timing.edge;

        // Clamp MLs, enable footers, idle precharge.
        if let Some(wen) = self.tb.net.wen_pin {
            self.tb
                .net
                .ckt
                .set_pin_waveform(wen, Waveform::dc(self.tb.card.vdd));
        }
        if let Some(en) = self.tb.net.en_pin {
            self.tb
                .net
                .ckt
                .set_pin_waveform(en, Waveform::dc(self.tb.card.vdd));
        }
        for pin in &self.tb.net.pre_pins {
            self.tb.net.ckt.set_pin_waveform(
                *pin,
                Waveform::dc(self.tb.precharge.off_level(self.tb.card.vdd)),
            );
        }

        // Drive the pulse scheme.
        for i in 0..self.tb.width {
            let bit = word.get(i);
            let program_sl = bit == Ternary::Zero;
            let program_slb = bit == Ternary::One;
            let make = |programmed: bool| -> Waveform {
                let mut pts = vec![
                    (0.0, 0.0),
                    (t0, 0.0),
                    (t0 + e, -amplitude),
                    (t_erase_end, -amplitude),
                    (t_erase_end + e, 0.0),
                ];
                if programmed {
                    pts.extend([
                        (t_prog, 0.0),
                        (t_prog + e, amplitude),
                        (t_prog_end, amplitude),
                        (t_prog_end + e, 0.0),
                    ]);
                }
                Waveform::pwl(pts)
            };
            self.tb
                .net
                .ckt
                .set_pin_waveform(self.tb.net.sl_pins[i].0, make(program_sl));
            self.tb
                .net
                .ckt
                .set_pin_waveform(self.tb.net.sl_pins[i].1, make(program_slb));
        }

        TransientOpts::new(timing.dt, t_total)
            .use_initial_conditions()
            .with_step_control(timing.step)
            .with_record(RecordMode::None)
    }

    /// Applies a threshold-voltage perturbation to every FeFET, for Monte
    /// Carlo variation studies: `delta[j]` volts is added to device `j`'s
    /// effective threshold by nudging its polarization.
    ///
    /// Only meaningful for FeFET designs; volatile designs ignore it.
    pub fn apply_fefet_vth_shift(&mut self, deltas: &[f64]) {
        let devices = self.fefet_devices();
        for (j, &dev) in devices.iter().enumerate() {
            let delta = deltas.get(j).copied().unwrap_or(0.0);
            if let Some(fefet) = self.tb.net.ckt.device_mut::<FeFet>(dev) {
                // ΔV_th = −Δp·MW/2 → Δp = −2·ΔV_th/MW.
                let mw = fefet.params().memory_window;
                let p = fefet.polarization();
                let p_new = (p - 2.0 * delta / mw).clamp(-1.0, 1.0);
                fefet.set_polarization(p_new);
            }
        }
    }

    /// Device ids of all FeFETs in cell order (2 per cell), empty for
    /// non-FeFET designs.
    pub fn fefet_devices(&self) -> Vec<ftcam_circuit::DeviceId> {
        if !self.tb.design.supports_transient_write() {
            return Vec::new();
        }
        self.tb
            .net
            .cells
            .iter()
            .flat_map(|h| h.devices.iter().copied())
            .collect()
    }

    /// The columns of each match-line segment.
    pub fn segment_columns(&self) -> &[Vec<usize>] {
        &self.tb.segment_columns
    }

    /// Sets every FeFET's polarization directly, in cell order (two values
    /// per cell: `[fe1, fe2]`). The foundation of the multi-level (analog
    /// CAM) extension, where intermediate polarizations encode analog
    /// thresholds rather than binary states.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::UnsupportedOperation`] for non-FeFET designs
    /// and [`CellError::WidthMismatch`] if the slice length differs from
    /// `2 × width`.
    ///
    /// # Panics
    ///
    /// Panics if any polarization is outside `[-1, 1]`.
    pub fn set_fefet_polarizations(&mut self, polarizations: &[f64]) -> Result<(), CellError> {
        let devices = self.fefet_devices();
        if devices.is_empty() {
            return Err(CellError::UnsupportedOperation(format!(
                "{} has no FeFETs to program",
                self.tb.design.name()
            )));
        }
        if polarizations.len() != devices.len() {
            return Err(CellError::WidthMismatch {
                expected: devices.len(),
                got: polarizations.len(),
            });
        }
        for (&dev, &p) in devices.iter().zip(polarizations) {
            self.tb
                .net
                .ckt
                .device_mut::<FeFet>(dev)
                .expect("fefet design")
                .set_polarization(p);
        }
        Ok(())
    }

    /// Runs one search with *analog* search-line levels instead of ternary
    /// encodings: column `i`'s SL is driven to `v_sl[i]` volts and its SLB
    /// to `v_slb[i]` volts during the evaluate phase (return-to-zero).
    ///
    /// Used by the multi-level CAM extension; the search cycle and the
    /// match decision are those of [`RowTestbench::search`].
    ///
    /// # Errors
    ///
    /// Returns [`CellError::WidthMismatch`] if the level slices differ
    /// from the width, or a wrapped simulation failure.
    pub fn search_analog(
        &mut self,
        v_sl: &[f64],
        v_slb: &[f64],
        timing: &SearchTiming,
    ) -> Result<SearchOutcome, CellError> {
        if v_sl.len() != self.tb.width || v_slb.len() != self.tb.width {
            return Err(CellError::WidthMismatch {
                expected: self.tb.width,
                got: v_sl.len().min(v_slb.len()),
            });
        }
        let levels: Vec<(f64, f64)> = v_sl.iter().copied().zip(v_slb.iter().copied()).collect();
        self.search_levels(&levels, true, timing, None)
    }

    /// The same row with folding off: every transient runs on the
    /// unfolded record netlist (the reference folded runs are tested
    /// against).
    #[cfg(test)]
    pub(crate) fn unfolded(mut self) -> Self {
        self.tb.fold = false;
        self
    }

    /// `true` when the next transient, with the waveforms as they stand,
    /// would run folded.
    #[cfg(test)]
    pub(crate) fn would_fold(&self) -> bool {
        self.tb.partition().is_some()
    }

    /// Exports the full testbench netlist as a SPICE deck (for inspection
    /// or cross-checking in an external simulator).
    pub fn to_spice(&self) -> String {
        ftcam_circuit::export_spice(
            &self.tb.net.ckt,
            &format!(
                "{} TCAM row, {} cells",
                self.tb.design.name(),
                self.tb.width
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;
    use crate::search::SearchTiming;
    use crate::testbench::Run;
    use crate::write::WriteTiming;

    #[test]
    fn zero_width_is_rejected() {
        let err = RowTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            0,
        );
        assert!(matches!(err, Err(CellError::InvalidParameter(_))));
    }

    #[test]
    fn segment_partition_is_balanced() {
        let row = RowTestbench::new(
            Box::new(crate::designs::EaMlSegmented::new(3)),
            TechCard::hp45(),
            Geometry::default(),
            8,
        )
        .unwrap();
        let sizes: Vec<usize> = row.segment_columns().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The testbench's pins on the netlist that ran, read by id and by
    /// label over `[t0, t1]`, are equal bit for bit, and so are the total
    /// over all pins and the sum of the reads by label.
    fn pin_reads_agree(ctx: &str, tb: &Testbench, run: &Run, (t0, t1): (f64, f64)) {
        let result = &run.result;
        let labels = result.pin_labels();
        let net = &tb.net;
        let sl_pins = run.sl_pins.iter().flat_map(|&(sl, slb)| [sl, slb]);
        let pins = net.rail_pins.iter().chain(&net.pre_pins).chain(&net.en_pin);
        for pin in pins.chain(&net.wen_pin).copied().chain(sl_pins) {
            let label = &labels[pin.index()];
            assert_eq!(
                result.pin_energy_in(pin, t0, t1).to_bits(),
                result.supply_energy_in(label, t0, t1).unwrap().to_bits(),
                "{ctx}: pin {label}"
            );
        }
        let by_label: f64 = labels
            .iter()
            .map(|l| result.supply_energy_in(l, t0, t1).unwrap())
            .sum();
        let total = result.total_supply_energy_in(t0, t1);
        assert_eq!(total.to_bits(), by_label.to_bits(), "{ctx}: total");
    }

    /// The row testbench reads match lines by `NodeId` and pin energies by
    /// `PinId`. On a FeFET and a CMOS row, folded and unfolded, those reads
    /// equal the reads by name — `trace("ml0")` and `supply_energy_in` of
    /// `VPRE{m}`, `SL{i}` and `SLB{i}` — bit for bit, over a search and a
    /// write (a transient write on the FeFET row, an ideal one followed
    /// by a second search on the CMOS row).
    #[test]
    fn id_reads_equal_label_reads() {
        let timing = SearchTiming::default();
        let (t0, t1) = (timing.cycle(), 2.0 * timing.cycle());
        let width = 8;
        for kind in [DesignKind::FeFet2T, DesignKind::Cmos16T] {
            for fold in [true, false] {
                let mut row = RowTestbench::new(
                    kind.instantiate(),
                    TechCard::hp45(),
                    Geometry::default(),
                    width,
                )
                .unwrap();
                row.tb.fold = fold;
                let word: TernaryWord = "10X110X0".parse().unwrap();
                let target: TernaryWord = "0110X011".parse().unwrap();
                row.program_word(&word).unwrap();
                for (n, query) in [word.with_spread_mismatches(1), target.clone()]
                    .iter()
                    .enumerate()
                {
                    let ctx = format!("{kind} fold={fold} search {n}");
                    let levels = row.tb.query_levels(query).unwrap();
                    let run = row.tb.run_search_cycles(0, &levels, true, &timing).unwrap();
                    let result = &run.result;
                    let ml = row.tb.net.ml_nodes[0];
                    let (by_id, by_name) =
                        (result.node_trace(ml).unwrap(), result.trace("ml0").unwrap());
                    assert_eq!(bits(by_id.values()), bits(by_name.values()), "{ctx}");
                    assert_eq!(bits(by_id.times()), bits(by_name.times()), "{ctx}");
                    assert_eq!(by_id.name(), "ml0");

                    let energy = |label: String| result.supply_energy_in(&label, t0, t1).ok();
                    let e_ml: f64 = energy("VPRE0".to_string()).into_iter().sum();
                    let e_sl: f64 = (0..width)
                        .filter_map(|i| {
                            Some(energy(format!("SL{i}"))? + energy(format!("SLB{i}"))?)
                        })
                        .sum();
                    let (ml_id, sl_id) = row.tb.line_energies(&run, t0, t1);
                    assert_eq!(ml_id.to_bits(), e_ml.to_bits(), "{ctx}: ML energy");
                    assert_eq!(sl_id.to_bits(), e_sl.to_bits(), "{ctx}: SL energy");
                    pin_reads_agree(&ctx, &row.tb, &run, (t0, t1));

                    if n == 0 {
                        if row.design().supports_transient_write() {
                            let opts = row.drive_write(&target, &WriteTiming::default());
                            let run = row.tb.run(opts).unwrap();
                            let ctx = format!("{kind} fold={fold} write");
                            pin_reads_agree(&ctx, &row.tb, &run, (0.0, f64::INFINITY));
                        } else {
                            row.program_word(&target).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn width_mismatch_is_reported() {
        let mut row = RowTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Geometry::default(),
            4,
        )
        .unwrap();
        let err = row.program_word(&TernaryWord::all_x(5));
        assert!(matches!(err, Err(CellError::WidthMismatch { .. })));
    }
}
