//! Linear algebra for MNA systems: sparse no-pivot LU with reusable
//! symbolic factorisation (every analysis starts on it), dense
//! partial-pivot LU (the bad-pivot fallback and the reference tests
//! compare against), and the [`SystemMatrix`] dispatcher that demotes
//! from one to the other, counts the demotions, and records/replays
//! slot-resolved stamp tapes for zero-hash reassembly.

mod dense;
mod sparse;

pub use dense::DenseMatrix;
pub use sparse::SparseMatrix;

use crate::error::CircuitError;

/// Unknown count that splits the benchmark's `circuit.us_per_step.dense`
/// and `.sparse` buckets. The solver no longer reads it: every system
/// starts on the sparse backend, whatever its size.
pub const SPARSE_THRESHOLD: usize = 90;

/// One recorded matrix write: coordinates (for replay verification) plus
/// the resolved value slot in the active backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapeEntry {
    row: u32,
    col: u32,
    slot: u32,
}

/// A replayable record of the matrix writes of one assembly pass.
///
/// After the first assembly freezes the MNA pattern, replaying a tape
/// turns every `add(row, col, v)` — a hash lookup on the sparse backend —
/// into a verified `values[slot] += v` array write. A tape is only
/// replayable against the matrix *epoch* it was recorded at: structural
/// growth or a sparse→dense demotion bumps the epoch and forces a
/// re-record. Tapes are owned by the caller (the Newton workspace) and
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

    /// Explicitly invalidates the tape, forcing the next pass to
    /// re-record.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }
}

/// Tape state of the matrix during an assembly pass.
#[derive(Debug, Clone, Default)]
enum TapeMode {
    /// Adds go straight to the backend (hash path on sparse).
    #[default]
    Off,
    /// Adds go to the backend and their resolved slots are recorded.
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

/// Backend storage behind a [`SystemMatrix`].
///
/// The size asymmetry between the variants is deliberate: an analysis
/// owns exactly one long-lived `SystemMatrix`, so boxing the sparse
/// variant would buy nothing and cost an indirection on the hot path.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Backend {
    Dense(DenseMatrix),
    Sparse(SparseMatrix),
}

/// The MNA system matrix behind an analysis, dense or sparse.
///
/// Stamping code only needs [`SystemMatrix::add`] / [`SystemMatrix::clear`]
/// / [`SystemMatrix::factor`] + [`SystemMatrix::substitute`] (or the
/// combined [`SystemMatrix::solve_in_place`]). Analyses start on the
/// sparse backend at every size. If the no-pivot sparse factorisation
/// ever hits a bad pivot, the matrix is
/// demoted to dense partial-pivot LU for that and all subsequent steps —
/// correctness never depends on the sparse path. Demotions are counted
/// here (surfaced through `RecoveryStats::dense_demotions`) and bump the
/// *epoch*, which also invalidates any recorded stamp tapes.
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    backend: Backend,
    /// Bumped on structural growth and on demotion; tapes and cached
    /// factorisations are only valid within one epoch.
    epoch: u64,
    /// Sparse→dense fallback count for this matrix.
    demotions: u64,
    tape: TapeMode,
}

impl SystemMatrix {
    /// The dense backend: the reference tests compare against.
    pub fn dense(n: usize) -> Self {
        Self {
            backend: Backend::Dense(DenseMatrix::zeros(n)),
            epoch: 0,
            demotions: 0,
            tape: TapeMode::Off,
        }
    }

    /// The sparse backend, which every analysis starts on.
    pub fn sparse(n: usize) -> Self {
        Self {
            backend: Backend::Sparse(SparseMatrix::zeros(n)),
            epoch: 0,
            demotions: 0,
            tape: TapeMode::Off,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        match &self.backend {
            Backend::Dense(m) => m.dim(),
            Backend::Sparse(m) => m.dim(),
        }
    }

    /// `true` when the sparse backend is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse(_))
    }

    /// Structural/backing-store generation. Bumped whenever a value slot
    /// recorded earlier could stop being meaningful: sparse structural
    /// growth and sparse→dense demotion.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of sparse→dense demotions this matrix has performed — the
    /// one source of `RecoveryStats::dense_demotions`, read by the owning
    /// analysis at its exit.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Zeroes all values, keeping structure, factors, and tape state.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Dense(m) => m.clear(),
            Backend::Sparse(m) => m.clear(),
        }
    }

    /// The backing value storage. Dense: row-major `n × n`; sparse: one
    /// entry per structural nonzero in insertion order. Together with
    /// [`SystemMatrix::restore_values`] this supports baseline snapshots
    /// of a partially assembled system.
    pub fn values(&self) -> &[f64] {
        match &self.backend {
            Backend::Dense(m) => m.values(),
            Backend::Sparse(m) => m.values(),
        }
    }

    /// Restores a value snapshot taken with [`SystemMatrix::values`].
    /// Slots created after the snapshot (sparse growth) are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` is longer than the current value storage
    /// (impossible within one epoch — slots are append-only).
    pub fn restore_values(&mut self, baseline: &[f64]) {
        let vals = match &mut self.backend {
            Backend::Dense(m) => m.values_mut(),
            Backend::Sparse(m) => m.values_mut(),
        };
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
    /// future replays; otherwise it is a plain backend add.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        if let TapeMode::Replay { tape, pos, live } = &mut self.tape {
            if *live {
                if let Some(e) = tape.entries.get(*pos) {
                    if e.row == row as u32 && e.col == col as u32 {
                        let slot = e.slot;
                        *pos += 1;
                        match &mut self.backend {
                            Backend::Dense(m) => m.add_slot(slot, value),
                            Backend::Sparse(m) => m.add_slot(slot, value),
                        }
                        return;
                    }
                }
                // Mismatch (or tape exhausted early): the replayed prefix
                // was verified against the recorded coordinates, so the
                // matrix is still correct — degrade this and the remaining
                // adds of the pass to the hash path and drop the tape.
                *live = false;
            }
        }
        let (slot, grew) = match &mut self.backend {
            Backend::Dense(m) => (m.add(row, col, value), false),
            Backend::Sparse(m) => m.add(row, col, value),
        };
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
        match &self.backend {
            Backend::Dense(m) => m.is_factored(),
            Backend::Sparse(m) => m.is_factored(),
        }
    }

    /// Factorises the current values, keeping them intact, and stores the
    /// factors for [`SystemMatrix::substitute`]. Falls back from sparse to
    /// dense on a bad pivot (permanently — the demotion is counted in
    /// [`SystemMatrix::demotions`] and the epoch bumps).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] only when the dense
    /// partial-pivot factorisation itself fails (a genuinely singular
    /// system: floating node or broken topology).
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        match &mut self.backend {
            Backend::Dense(m) => m.factor(),
            Backend::Sparse(m) => match m.factor() {
                Ok(()) => Ok(()),
                Err(CircuitError::SingularMatrix { .. }) => {
                    // Values are intact after a failed sparse factor;
                    // permanently demote to the robust dense path.
                    let mut dense = m.to_dense();
                    let result = dense.factor();
                    self.backend = Backend::Dense(dense);
                    self.epoch += 1;
                    self.demotions += 1;
                    result
                }
                Err(e) => Err(e),
            },
        }
    }

    /// Test hook: demotes a sparse backend to dense exactly as a failed
    /// sparse factorisation would (values preserved, epoch bump, demotion
    /// counted), without needing a matrix the no-pivot LU actually
    /// rejects. Lets equivalence tests exercise the mid-run demotion path
    /// — tape invalidation and baseline rebuild against the new slot
    /// scheme. No-op on a dense backend.
    #[cfg(test)]
    pub(crate) fn force_demote(&mut self) {
        if let Backend::Sparse(m) = &mut self.backend {
            let dense = m.to_dense();
            self.backend = Backend::Dense(dense);
            self.epoch += 1;
            self.demotions += 1;
        }
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
        match &mut self.backend {
            Backend::Dense(m) => m.substitute(b),
            Backend::Sparse(m) => m.substitute(b),
        }
    }

    /// Computes `y = A·x` from the current values (not the factors).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.backend {
            Backend::Dense(m) => m.mul_vec_into(x, y),
            Backend::Sparse(m) => m.mul_vec_into(x, y),
        }
    }

    /// Factorises and solves `A·x = b` in place, falling back from sparse
    /// to dense on a bad pivot (and staying dense afterwards). Values
    /// survive; the factorisation stays stored.
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
        let mut m = SystemMatrix::sparse(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).expect("fallback solves");
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
        assert!(!m.is_sparse(), "demoted to dense after fallback");
        assert_eq!(m.demotions(), 1);
    }

    #[test]
    fn sparse_demotes_on_a_pivot_tiny_relative_to_its_row() {
        // No-pivot LU on this matrix divides by 1e-20 and loses the
        // answer to cancellation; partial pivoting solves it.
        let mut m = SystemMatrix::sparse(2);
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
    fn dense_and_sparse_agree_through_the_dispatcher() {
        let stamp = |m: &mut SystemMatrix| {
            m.add(0, 0, 3.0);
            m.add(1, 1, 4.0);
            m.add(0, 1, -1.0);
            m.add(1, 0, -2.0);
        };
        let mut d = SystemMatrix::dense(2);
        let mut s = SystemMatrix::sparse(2);
        stamp(&mut d);
        stamp(&mut s);
        let mut xd = vec![1.0, 2.0];
        let mut xs = vec![1.0, 2.0];
        d.solve_in_place(&mut xd).unwrap();
        s.solve_in_place(&mut xs).unwrap();
        assert!((xd[0] - xs[0]).abs() < 1e-12);
        assert!((xd[1] - xs[1]).abs() < 1e-12);
    }

    #[test]
    fn tape_replay_is_bit_identical_to_hash_assembly() {
        for mut m in [SystemMatrix::sparse(4), SystemMatrix::dense(4)] {
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
    }

    #[test]
    fn tape_mismatch_degrades_gracefully() {
        let mut m = SystemMatrix::sparse(3);
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
        let mut want = SystemMatrix::sparse(3);
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
        let mut m = SystemMatrix::sparse(3);
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

    #[test]
    fn demotion_invalidates_tapes_via_epoch() {
        let mut m = SystemMatrix::sparse(2);
        m.begin_tape(StampTape::new());
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let tape = m.end_tape();
        assert!(tape.is_valid());
        // Bad pivot → demotion to dense; slots now mean something else.
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).unwrap();
        assert!(!m.is_sparse());
        m.clear();
        assert!(!m.begin_tape(tape), "post-demotion tape must re-record");
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let tape = m.end_tape();
        // The re-recorded tape replays fine against the dense backend.
        let reference = m.values().to_vec();
        m.clear();
        assert!(m.begin_tape(tape));
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        assert!(m.end_tape().is_valid());
        assert_eq!(m.values(), &reference[..]);
    }

    #[test]
    fn baseline_snapshot_restore_round_trips() {
        let mut m = SystemMatrix::sparse(3);
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
        let mut m = SystemMatrix::dense(2);
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
