//! Linear algebra for MNA systems: the [`SystemMatrix`] every analysis
//! stamps into, with slot-resolved stamp tapes for zero-hash reassembly.
//! Its values live in sparse slots and are factored by a no-pivot sparse
//! LU with reusable symbolic factorisation; on a bad pivot it factors the
//! same values with the dense partial-pivot LU ([`DenseMatrix`]), which
//! is also the reference the tests compare against.

mod dense;
mod sparse;

pub use dense::DenseMatrix;
use sparse::SparseMatrix;

use crate::error::CircuitError;

/// Unknown count that splits the benchmark's `circuit.us_per_step.dense`
/// and `.sparse` buckets. The solver does not read it: every system is
/// factored by the sparse LU, whatever its size.
pub const SPARSE_THRESHOLD: usize = 90;

/// One recorded matrix write: coordinates (for replay verification) plus
/// the resolved value slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapeEntry {
    row: u32,
    col: u32,
    slot: u32,
}

/// A replayable record of the matrix writes of one assembly pass.
///
/// After the first assembly freezes the MNA pattern, replaying a tape
/// turns every `add(row, col, v)` — a hash lookup — into a verified
/// `values[slot] += v` array write. A tape is only replayable against the
/// matrix *epoch* it was recorded at: structural growth bumps the epoch
/// and forces a re-record. The dense fallback leaves slots, and so tapes,
/// untouched. Tapes are owned by the caller (the Newton workspace) and
/// passed in and out of [`SystemMatrix::begin_tape`] /
/// [`SystemMatrix::end_tape`], so no allocation happens in steady state.
#[derive(Debug, Clone, Default)]
pub struct StampTape {
    entries: Vec<TapeEntry>,
    /// Matrix epoch the entries were recorded at.
    epoch: u64,
    /// Cleared when a replay hits a mismatch or short consumption.
    valid: bool,
}

impl StampTape {
    /// Creates an empty (non-replayable) tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded matrix writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no writes are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when the tape finished a record pass and has not been
    /// invalidated by a replay mismatch since.
    pub fn is_valid(&self) -> bool {
        self.valid
    }
}

/// Tape state of the matrix during an assembly pass.
#[derive(Debug, Clone, Default)]
enum TapeMode {
    /// Adds go straight to the slots (hash path).
    #[default]
    Off,
    /// Adds go to the slots and their resolved slots are recorded.
    Record(StampTape),
    /// Adds are verified against the tape and applied by slot; on the
    /// first mismatch `live` drops and the pass degrades to hash adds
    /// (the already-replayed prefix was verified identical, so the matrix
    /// stays correct either way).
    Replay {
        tape: StampTape,
        pos: usize,
        live: bool,
    },
}

/// The MNA system matrix behind an analysis.
///
/// Stamping code only needs [`SystemMatrix::add`] / [`SystemMatrix::clear`]
/// / [`SystemMatrix::factor`] + [`SystemMatrix::substitute`] (or the
/// combined [`SystemMatrix::solve_in_place`]). The values live in sparse
/// slots for the whole analysis and are factored by the no-pivot sparse
/// LU. If that LU ever hits a bad pivot, the matrix switches factorisation
/// to the dense LU of the same values for the rest of the analysis; slots,
/// tapes and baselines are untouched, so correctness never depends on the
/// no-pivot path. The switch is counted once ([`SystemMatrix::demotions`],
/// surfaced through `RecoveryStats::dense_demotions`).
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    sparse: SparseMatrix,
    /// The dense partial-pivot LU, set on the first bad sparse pivot; from
    /// then on it factors the sparse slots' values.
    fallback: Option<DenseMatrix>,
    /// Bumped on structural growth only; tapes and cached factorisations
    /// are only valid within one epoch.
    epoch: u64,
    tape: TapeMode,
}

impl SystemMatrix {
    /// Creates an `n × n` all-zero system.
    pub fn new(n: usize) -> Self {
        Self {
            sparse: SparseMatrix::zeros(n),
            fallback: None,
            epoch: 0,
            tape: TapeMode::Off,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.sparse.dim()
    }

    /// Structural generation: bumped whenever a new `(row, col)` slot is
    /// created, so a slot layout recorded earlier stops being complete.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `1` once factorisation has fallen back to the dense LU, else `0` —
    /// the one source of `RecoveryStats::dense_demotions`, read by the
    /// owning analysis at its exit.
    pub fn demotions(&self) -> u64 {
        u64::from(self.fallback.is_some())
    }

    /// Zeroes all values, keeping structure, factors, and tape state.
    pub fn clear(&mut self) {
        self.sparse.clear();
    }

    /// The backing value storage: one entry per structural nonzero, in
    /// insertion order. Together with [`SystemMatrix::restore_values`]
    /// this supports baseline snapshots of a partially assembled system.
    pub fn values(&self) -> &[f64] {
        self.sparse.values()
    }

    /// Restores a value snapshot taken with [`SystemMatrix::values`].
    /// Slots created after the snapshot are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is longer than the current value storage
    /// (impossible — slots are append-only).
    pub fn restore_values(&mut self, baseline: &[f64]) {
        let vals = self.sparse.values_mut();
        vals[..baseline.len()].copy_from_slice(baseline);
        vals[baseline.len()..].fill(0.0);
    }

    /// Hands a tape to the matrix for the next assembly pass.
    ///
    /// Returns `true` when the tape is replayable (valid and recorded at
    /// the current epoch): subsequent [`SystemMatrix::add`] calls are
    /// verified slot writes. Otherwise the tape is cleared and re-recorded
    /// during the pass, and `false` is returned. Either way the pass must
    /// be closed with [`SystemMatrix::end_tape`].
    pub fn begin_tape(&mut self, mut tape: StampTape) -> bool {
        debug_assert!(
            matches!(self.tape, TapeMode::Off),
            "nested tape passes are not supported"
        );
        if tape.valid && tape.epoch == self.epoch {
            self.tape = TapeMode::Replay {
                tape,
                pos: 0,
                live: true,
            };
            true
        } else {
            tape.entries.clear();
            tape.valid = false;
            self.tape = TapeMode::Record(tape);
            false
        }
    }

    /// Closes the tape pass opened by [`SystemMatrix::begin_tape`] and
    /// returns the tape. A recorded tape comes back valid at the current
    /// epoch; a replayed tape comes back invalidated if the pass
    /// mismatched or consumed fewer writes than recorded.
    pub fn end_tape(&mut self) -> StampTape {
        match std::mem::take(&mut self.tape) {
            TapeMode::Record(mut tape) => {
                tape.epoch = self.epoch;
                tape.valid = true;
                tape
            }
            TapeMode::Replay {
                mut tape,
                pos,
                live,
            } => {
                if !live || pos != tape.entries.len() {
                    tape.valid = false;
                }
                tape
            }
            TapeMode::Off => StampTape::new(),
        }
    }

    /// Adds `value` at `(row, col)` — the stamping primitive.
    ///
    /// Inside a replay pass this is a verified `values[slot] += value`
    /// array write; inside a record pass the resolved slot is captured for
    /// future replays; otherwise it is a plain hash-path add.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        if let TapeMode::Replay {
            tape,
            pos,
            live: true,
        } = &mut self.tape
        {
            if let Some(e) = tape.entries.get(*pos) {
                if e.row == row as u32 && e.col == col as u32 {
                    *pos += 1;
                    self.sparse.add_slot(e.slot, value);
                    return;
                }
            }
        }
        self.add_unreplayed(row, col, value);
    }

    /// The out-of-line rest of [`SystemMatrix::add`]: a replay mismatch, a
    /// record pass or no tape at all.
    #[inline(never)]
    fn add_unreplayed(&mut self, row: usize, col: usize, value: f64) {
        if let TapeMode::Replay { live, .. } = &mut self.tape {
            // Mismatch (or tape exhausted early): the replayed prefix was
            // verified against the recorded coordinates, so the matrix is
            // still correct — degrade this and the remaining adds of the
            // pass to the hash path and drop the tape.
            *live = false;
        }
        let (slot, grew) = self.sparse.add(row, col, value);
        if grew {
            self.epoch += 1;
        }
        if let TapeMode::Record(tape) = &mut self.tape {
            tape.entries.push(TapeEntry {
                row: row as u32,
                col: col as u32,
                slot,
            });
        }
    }

    /// `true` when a valid numeric factorisation is stored.
    pub fn is_factored(&self) -> bool {
        match &self.fallback {
            Some(dense) => dense.is_factored(),
            None => self.sparse.is_factored(),
        }
    }

    /// Factorises the current values, keeping them intact, and stores the
    /// factors for [`SystemMatrix::substitute`]. On the sparse LU's first
    /// bad pivot this and every later factorisation use the dense LU of
    /// the same values instead (counted in [`SystemMatrix::demotions`]).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] only when the dense
    /// partial-pivot factorisation itself fails (a genuinely singular
    /// system: floating node or broken topology).
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        if self.fallback.is_none() {
            match self.sparse.factor() {
                Err(CircuitError::SingularMatrix { .. }) => {}
                other => return other,
            }
        }
        // Values are intact after a failed sparse factor.
        let n = self.dim();
        let dense = self.fallback.get_or_insert_with(|| DenseMatrix::zeros(n));
        self.sparse.copy_into(dense);
        dense.factor()
    }

    /// Solves `A·x = b` against the *stored* factors, overwriting `b`.
    /// The factors may be older than the current values — that is the
    /// point: chord Newton and per-step LU reuse substitute against a
    /// frozen Jacobian.
    ///
    /// # Panics
    ///
    /// Panics if no factorisation is stored.
    pub fn substitute(&mut self, b: &mut [f64]) {
        match &self.fallback {
            Some(dense) => dense.substitute(b),
            None => self.sparse.substitute(b),
        }
    }

    /// Computes `y = A·x` from the current values (not the factors).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.sparse.mul_vec_into(x, y);
    }

    /// Factorises and solves `A·x = b` in place (see
    /// [`SystemMatrix::factor`] for the dense fallback). Values survive;
    /// the factorisation stays stored.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] only when the dense
    /// partial-pivot factorisation itself fails (a genuinely singular
    /// system: floating node or broken topology).
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), CircuitError> {
        self.factor()?;
        self.substitute(b);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_falls_back_to_dense_on_bad_pivot() {
        // A permutation matrix defeats no-pivot LU but is trivially
        // solvable with partial pivoting.
        let mut m = SystemMatrix::new(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).expect("fallback solves");
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
        assert_eq!(m.demotions(), 1);
        // Later factorisations stay on the dense LU and are not recounted.
        let mut x = vec![1.0, 2.0];
        m.solve_in_place(&mut x).expect("fallback solves again");
        assert_eq!(x, vec![2.0, 1.0]);
        assert_eq!(m.demotions(), 1);
    }

    #[test]
    fn sparse_demotes_on_a_pivot_tiny_relative_to_its_row() {
        // No-pivot LU on this matrix divides by 1e-20 and loses the
        // answer to cancellation; partial pivoting solves it.
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 1e-20);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 1.0);
        let mut x = vec![1.0, 2.0];
        m.solve_in_place(&mut x).expect("fallback solves");
        assert!((x[0] - 1.0).abs() < 1e-12, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-12, "x1 = {}", x[1]);
        assert_eq!(m.demotions(), 1);
    }

    #[test]
    fn tape_replay_is_bit_identical_to_hash_assembly() {
        let mut m = SystemMatrix::new(4);
        let stamp = |m: &mut SystemMatrix| {
            m.add(0, 0, 2.0);
            m.add(1, 1, 3.0);
            m.add(0, 1, -0.5);
            m.add(2, 2, 1.5);
            m.add(3, 3, 4.0);
            m.add(0, 0, 0.25); // duplicate coordinate, same slot
        };
        // Record pass.
        let recorded = m.begin_tape(StampTape::new());
        assert!(!recorded, "first pass records");
        stamp(&mut m);
        let tape = m.end_tape();
        assert!(tape.is_valid());
        assert_eq!(tape.len(), 6);
        let reference = m.values().to_vec();
        // Replay pass.
        m.clear();
        let replaying = m.begin_tape(tape);
        assert!(replaying, "second pass replays");
        stamp(&mut m);
        let tape = m.end_tape();
        assert!(tape.is_valid(), "clean replay keeps the tape");
        assert_eq!(m.values(), &reference[..], "bit-identical values");
    }

    #[test]
    fn tape_mismatch_degrades_gracefully() {
        let mut m = SystemMatrix::new(3);
        m.begin_tape(StampTape::new());
        m.add(0, 0, 1.0);
        m.add(1, 1, 2.0);
        let tape = m.end_tape();
        // Replay a *different* pattern: first add matches, second doesn't.
        m.clear();
        assert!(m.begin_tape(tape));
        m.add(0, 0, 1.0);
        m.add(2, 2, 5.0); // mismatch → degrade to hash path
        m.add(1, 1, 2.0);
        let tape = m.end_tape();
        assert!(!tape.is_valid(), "mismatched tape is dropped");
        // The matrix itself is still correct.
        let mut want = SystemMatrix::new(3);
        want.add(0, 0, 1.0);
        want.add(2, 2, 5.0);
        want.add(1, 1, 2.0);
        let mut xa = vec![1.0, 2.0, 5.0];
        let mut xb = xa.clone();
        m.solve_in_place(&mut xa).unwrap();
        want.solve_in_place(&mut xb).unwrap();
        assert_eq!(xa, xb);
    }

    #[test]
    fn epoch_guard_rejects_stale_tapes() {
        let mut m = SystemMatrix::new(3);
        m.begin_tape(StampTape::new());
        m.add(0, 0, 1.0);
        let tape = m.end_tape();
        assert!(tape.is_valid());
        // Structural growth outside the tape bumps the epoch.
        m.add(1, 1, 1.0);
        m.clear();
        assert!(
            !m.begin_tape(tape),
            "stale tape re-records instead of replaying"
        );
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        let tape = m.end_tape();
        assert!(tape.is_valid());
        assert_eq!(tape.len(), 2);
    }

    /// The dense fallback swaps only the factoriser: the epoch, the slot
    /// layout and a tape recorded before the bad pivot all survive it.
    #[test]
    fn fallback_keeps_epoch_slots_and_tapes() {
        let stamp = |m: &mut SystemMatrix| {
            m.add(0, 1, 1.0);
            m.add(1, 0, 1.0);
            m.add(1, 1, 0.5);
        };
        let mut m = SystemMatrix::new(2);
        m.begin_tape(StampTape::new());
        stamp(&mut m);
        let tape = m.end_tape();
        assert!(tape.is_valid());
        let epoch = m.epoch();
        let layout = m.values().to_vec();
        // Zero leading pivot → dense fallback.
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).unwrap();
        assert_eq!(m.demotions(), 1);
        assert_eq!(m.epoch(), epoch, "the fallback is not structural");
        assert_eq!(m.values(), &layout[..], "same slots, same order");
        // The pre-fallback tape still replays.
        m.clear();
        assert!(m.begin_tape(tape), "tape survives the fallback");
        stamp(&mut m);
        assert!(m.end_tape().is_valid());
        assert_eq!(m.values(), &layout[..]);
        // And the solve matches the dense LU stamped directly.
        let mut reference = DenseMatrix::zeros(2);
        reference.add(0, 1, 1.0);
        reference.add(1, 0, 1.0);
        reference.add(1, 1, 0.5);
        let mut want = vec![7.0, 9.0];
        reference.solve_in_place(&mut want).unwrap();
        let mut got = vec![7.0, 9.0];
        m.solve_in_place(&mut got).unwrap();
        assert_eq!(got, want);
        assert_eq!(x, want);
    }

    #[test]
    fn baseline_snapshot_restore_round_trips() {
        let mut m = SystemMatrix::new(3);
        m.add(0, 0, 1.0);
        m.add(1, 1, 2.0);
        let baseline = m.values().to_vec();
        m.add(1, 1, 5.0); // dynamic restamp on an existing slot
        m.add(2, 2, 7.0); // dynamic restamp growing a new slot
        m.restore_values(&baseline);
        assert_eq!(m.values(), &[1.0, 2.0, 0.0]);
    }

    #[test]
    fn substitute_reuses_factors_across_restamps() {
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 2.0);
        m.add(1, 1, 4.0);
        m.factor().unwrap();
        // Restamp different values; substitution still uses the frozen
        // factors (that is the chord-Newton contract).
        m.clear();
        m.add(0, 0, 1000.0);
        m.add(1, 1, 1000.0);
        let mut x = vec![2.0, 4.0];
        m.substitute(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // And mul_vec sees the *current* values.
        let mut y = vec![0.0, 0.0];
        m.mul_vec_into(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![1000.0, 1000.0]);
    }
}
