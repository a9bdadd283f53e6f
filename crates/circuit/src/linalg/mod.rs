//! Linear algebra for MNA systems: the [`SystemMatrix`] every analysis
//! stamps into, with slot-resolved stamp tapes for zero-hash reassembly.
//! Its values live in sparse slots and are factored by a no-pivot sparse
//! LU with reusable symbolic factorisation, which orders MNA branch rows
//! after their nodes. A dense partial-pivot LU exists only in the tests,
//! as the reference the sparse LU is compared against.

#[cfg(test)]
mod dense;
mod sparse;

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
/// and forces a re-record; factorisation never does. Tapes are owned by
/// the caller (the Newton workspace) and passed in and out of
/// [`SystemMatrix::begin_tape`] / [`SystemMatrix::end_tape`], so no
/// allocation happens in steady state.
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
/// LU. A pivot that LU rejects is a [`CircuitError::SingularMatrix`] for
/// the analysis's recovery to handle; whether any was rejected is kept
/// ([`SystemMatrix::rejected_pivot`], surfaced through
/// `RecoveryStats::dense_demotions`).
#[derive(Debug, Clone)]
pub struct SystemMatrix {
    sparse: SparseMatrix,
    /// Set on the first factorisation that rejects a pivot.
    rejected_pivot: bool,
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
            rejected_pivot: false,
            epoch: 0,
            tape: TapeMode::Off,
        }
    }

    /// Structural generation: bumped whenever a new `(row, col)` slot is
    /// created, so a slot layout recorded earlier stops being complete.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `true` once any factorisation has rejected a pivot — the one
    /// source of `RecoveryStats::dense_demotions`, read by the owning
    /// analysis at its exit.
    pub fn rejected_pivot(&self) -> bool {
        self.rejected_pivot
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
        self.sparse.is_factored()
    }

    /// Factorises the current values, keeping them intact, and stores the
    /// factors for [`SystemMatrix::substitute`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when the no-pivot LU
    /// rejects a pivot: a singular system (a floating node or a loop of
    /// voltage sources) or one too ill-conditioned to factor without
    /// pivoting. It sets [`SystemMatrix::rejected_pivot`].
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        let result = self.sparse.factor();
        self.rejected_pivot |= result.is_err();
        result
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
        self.sparse.substitute(b);
    }

    /// Computes `y = A·x` from the current values (not the factors).
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.sparse.mul_vec_into(x, y);
    }

    /// Factorises and solves `A·x = b` in place. Values survive; the
    /// factorisation stays stored.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] as
    /// [`SystemMatrix::factor`] does, leaving `b` untouched.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), CircuitError> {
        self.factor()?;
        self.substitute(b);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::DenseMatrix;
    use proptest::prelude::*;

    /// Solves `m` for `b` and asserts the rejected pivot: a typed error,
    /// `b` untouched, and the flag set.
    fn assert_rejects(m: &mut SystemMatrix, b: [f64; 2]) {
        let mut x = b.to_vec();
        let err = m.solve_in_place(&mut x).unwrap_err();
        assert!(matches!(err, CircuitError::SingularMatrix { .. }), "{err}");
        assert_eq!(x, b, "no solution is returned");
        assert!(m.rejected_pivot());
        assert!(!m.is_factored());
    }

    #[test]
    fn bad_pivot_is_a_typed_error_counted_once() {
        // A permutation matrix defeats no-pivot LU: neither index has a
        // structural diagonal, so the first pivot is zero.
        let mut m = SystemMatrix::new(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        assert_rejects(&mut m, [7.0, 9.0]);
        // A second factorisation rejects again and sets the same flag.
        assert_rejects(&mut m, [1.0, 2.0]);
    }

    #[test]
    fn a_pivot_tiny_relative_to_its_row_is_rejected() {
        // No-pivot LU on this matrix divides by 1e-20 and loses the
        // answer to cancellation (it would return [0, 1], not [1, 1]).
        let mut m = SystemMatrix::new(2);
        m.add(0, 0, 1e-20);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 1.0);
        assert_rejects(&mut m, [1.0, 2.0]);
        assert_rejects(&mut m, [1.0, 2.0]);
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

    /// Index 0 is shaped like an MNA branch row: no diagonal, a `1` to
    /// its node. Ordered after that node, it factors without a rejected
    /// pivot, and factoring leaves the epoch, the slots and the tape as
    /// they were.
    #[test]
    fn branch_shaped_zero_diagonal_factors_and_replays() {
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
        let mut x = vec![7.0, 9.0];
        m.solve_in_place(&mut x).expect("sparse LU factors it");
        assert!(!m.rejected_pivot());
        assert_eq!(m.epoch(), epoch, "factoring is not structural");
        assert_eq!(m.values(), &layout[..], "same slots, same order");
        m.clear();
        assert!(m.begin_tape(tape), "the tape still replays");
        stamp(&mut m);
        assert!(m.end_tape().is_valid());
        assert_eq!(m.values(), &layout[..]);
        // The solve matches the dense reference stamped directly.
        let mut reference = DenseMatrix::zeros(2);
        reference.add(0, 1, 1.0);
        reference.add(1, 0, 1.0);
        reference.add(1, 1, 0.5);
        let mut want = vec![7.0, 9.0];
        reference.solve_in_place(&mut want).unwrap();
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

    /// Largest system the sparse-vs-dense property draws; crosses
    /// [`SPARSE_THRESHOLD`] (90) on purpose.
    const MAX_UNKNOWNS: usize = 120;

    /// Stands for ground in [`stamp_random_mna`]; never stamped.
    const GROUND: usize = usize::MAX;

    /// Stamps a random MNA-like system of `n` unknowns through `m` (one
    /// `(row, col, value)` add per call) and returns its right-hand side.
    ///
    /// The first `n − k` unknowns are free nodes, where `k` is the number
    /// of `sources` kept (at most `n / 3`). Node `i` hangs off a random
    /// earlier node or ground through `tree[i]`, so every node sees a
    /// conductance path to ground; each `extra` entry
    /// `(kind, a, b, c, log10 g, frac)` adds a conductance, a MOSFET-like
    /// channel (`g_ds` drain `a` to source `b`, `g_m = frac · g_ds` driven
    /// by gate `c`) or a current into `a`. Every free node carries a
    /// `gmin` shunt, as in the analyses. Source `j`, `(u, w, volts)`, is
    /// an ideal voltage source stamped as MNA branch row `n − k + j`, with
    /// no diagonal: its plus node is drawn by `u` among the nodes no
    /// earlier source touches, so the sources form no loop, and its minus
    /// node by `w` among the other nodes and ground.
    fn stamp_random_mna(
        m: &mut dyn FnMut(usize, usize, f64),
        n: usize,
        tree: &[(f64, f64)],
        extra: &[(f64, f64, f64, f64, f64, f64)],
        sources: &[(f64, f64, f64)],
    ) -> Vec<f64> {
        let k = sources.len().min(n / 3);
        let nodes = n - k;
        let add = |m: &mut dyn FnMut(usize, usize, f64), r: usize, c: usize, v: f64| {
            if r != GROUND && c != GROUND {
                m(r, c, v);
            }
        };
        let conductance = |m: &mut dyn FnMut(usize, usize, f64), a: usize, b: usize, g: f64| {
            add(m, a, a, g);
            add(m, b, b, g);
            add(m, a, b, -g);
            add(m, b, a, -g);
        };
        let node = |u: f64| {
            let i = (u * (nodes + 1) as f64) as usize;
            if i < nodes {
                i
            } else {
                GROUND
            }
        };
        for (i, &(u, lg)) in tree.iter().take(nodes).enumerate() {
            let parent = ((u * (i + 1) as f64) as usize).min(i);
            let parent = if parent == i { GROUND } else { parent };
            conductance(m, i, parent, 10f64.powf(lg));
        }
        let mut rhs = vec![0.0; n];
        for &(kind, a, b, c, lg, frac) in extra {
            let (a, b, c, g) = (node(a), node(b), node(c), 10f64.powf(lg));
            if kind < 0.4 {
                conductance(m, a, b, g);
            } else if kind < 0.8 {
                let gm = frac * g;
                conductance(m, a, b, g);
                add(m, a, c, gm);
                add(m, a, b, -gm);
                add(m, b, c, -gm);
                add(m, b, b, gm);
            } else if a != GROUND {
                rhs[a] += 1e3 * g * (frac - 0.5);
            }
        }
        for i in 0..nodes {
            add(m, i, i, 1e-12);
        }
        let mut touched = vec![false; nodes];
        for (j, &(u, w, volts)) in sources.iter().take(k).enumerate() {
            // At most 2j < nodes nodes are touched, so one is fresh.
            let fresh: Vec<usize> = (0..nodes).filter(|&i| !touched[i]).collect();
            let plus = fresh[((u * fresh.len() as f64) as usize).min(fresh.len() - 1)];
            let minus = match node(w) {
                i if i == plus => GROUND,
                i => i,
            };
            let branch = nodes + j;
            for (t, sign) in [(plus, 1.0), (minus, -1.0)] {
                add(m, t, branch, sign);
                add(m, branch, t, sign);
                if t != GROUND {
                    touched[t] = true;
                }
            }
            rhs[branch] = volts;
        }
        rhs
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The sparse no-pivot LU every analysis factors with solves
        /// random MNA systems on both sides of 90 unknowns, voltage-source
        /// branch rows included, as the dense partial-pivot LU does,
        /// without rejecting a pivot.
        #[test]
        fn sparse_matches_dense_on_random_mna(
            n in 1..=MAX_UNKNOWNS,
            tree in proptest::collection::vec((0.0..1.0f64, -5.0..-3.0f64), MAX_UNKNOWNS),
            extra in proptest::collection::vec(
                (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, -5.0..-3.0f64, 0.0..1.0f64),
                0..3 * MAX_UNKNOWNS,
            ),
            sources in proptest::collection::vec((0.0..1.0f64, 0.0..1.0f64, -1.0..1.0f64), 0..=4),
        ) {
            let mut dense = DenseMatrix::zeros(n);
            let mut sparse = SystemMatrix::new(n);
            let mut xd =
                stamp_random_mna(&mut |r, c, v| dense.add(r, c, v), n, &tree, &extra, &sources);
            let mut xs =
                stamp_random_mna(&mut |r, c, v| sparse.add(r, c, v), n, &tree, &extra, &sources);
            dense.solve_in_place(&mut xd).unwrap();
            prop_assert!(sparse.solve_in_place(&mut xs).is_ok(), "n = {n}: pivot rejected");
            prop_assert!(!sparse.rejected_pivot());
            let scale = xd.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            for (i, (s, d)) in xs.iter().zip(&xd).enumerate() {
                prop_assert!(
                    (s - d).abs() <= 1e-10 * scale,
                    "n = {n}, x[{i}]: sparse {s} vs dense {d} (scale {scale})"
                );
            }
        }
    }
}
