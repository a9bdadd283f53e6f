//! Sparse LU solver for MNA systems of every size.
//!
//! The row testbenches pin every driver, so their MNA matrices are
//! diagonally dominated conductance matrices with a handful of nonzeros per
//! row (each node couples only to its neighbours plus a global match line).
//! Dense LU costs O(n³) to factor and O(n²) to substitute; this one costs
//! O(nnz + fill), which wins from a few tens of unknowns up (the folded
//! rows) to the hundreds of unfolded Monte Carlo rows. This module
//! implements the classic **up-looking row LU without pivoting**:
//!
//! 1. a one-time *symbolic* pass computes the union pattern of every row of
//!    `L`/`U` including fill-in, plus flat offsets into persistent factor
//!    storage;
//! 2. each *numeric* pass ([`SparseMatrix::factor`]) scatters a row into a
//!    dense workspace, eliminates against the already-factorised rows
//!    following the precomputed pattern, and gathers the results into the
//!    flat `L`/`U` value arrays — no per-solve allocation;
//! 3. [`SparseMatrix::substitute`] applies the stored factors to a
//!    right-hand side, so one factorisation can serve many solves (chord
//!    Newton, repeated linear steps).
//!
//! Because the sparsity pattern of an MNA system is fixed across Newton
//! iterations and time steps, the symbolic pass is paid once per analysis.
//!
//! No-pivot LU is safe here because every free node carries a positive
//! `gmin` diagonal and device stamps only add non-negative diagonal
//! conductance. If a pivot nevertheless collapses to below `1e-10` of its
//! row's largest stamped entry (e.g. exotic branch-source topologies), the
//! caller falls back to the dense solver; see
//! [`crate::linalg::SystemMatrix`].

use std::collections::HashMap;

use super::DenseMatrix;
use crate::error::CircuitError;

/// Threshold below which a pivot is treated as numerically singular.
const PIVOT_TOL: f64 = 1e-300;

/// A pivot smaller than this fraction of the largest `|a_ij|` in its row
/// of the stamped matrix is rejected: eliminating with it would amplify
/// rounding by more than the factor's precision can absorb.
const PIVOT_REL_TOL: f64 = 1e-10;

/// A sparse square matrix with a reusable no-pivot LU factorisation.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    n: usize,
    /// Slot lookup: (row, col) → index into `values`.
    slots: HashMap<(u32, u32), u32>,
    /// Coordinates per slot, in insertion order.
    coords: Vec<(u32, u32)>,
    /// Current numeric values per slot.
    values: Vec<f64>,
    /// Symbolic factorisation, built lazily on first factor.
    symbolic: Option<Symbolic>,
    /// Flat `L` factor values (layout given by `Symbolic::l_off`).
    l_vals: Vec<f64>,
    /// Flat `U` factor values (layout given by `Symbolic::u_off`;
    /// `u_vals[u_off[i]]` is the diagonal of permuted row `i`).
    u_vals: Vec<f64>,
    /// Dense scatter workspace for the numeric pass.
    work: Vec<f64>,
    /// Permuted-rhs scratch for substitution.
    pb: Vec<f64>,
    /// Whether `l_vals`/`u_vals` hold a valid decomposition.
    factored: bool,
}

/// Precomputed elimination patterns (in permuted index space).
#[derive(Debug, Clone)]
struct Symbolic {
    /// Symmetric fill-reducing permutation: `perm[new] = old`. Hubs (the
    /// match line couples to every cell) are ordered last, where they
    /// cause no fill; static degree ordering captures this exactly for
    /// the star-shaped MNA graphs testbenches produce.
    perm: Vec<u32>,
    /// For each permuted row `i`: the strictly-lower column indices
    /// (ascending) — the pivots row `i` eliminates against, including fill.
    lower: Vec<Vec<u32>>,
    /// For each permuted row `i`: the upper column indices `≥ i`
    /// (ascending), including fill. `upper[i][0] == i` (the diagonal).
    upper: Vec<Vec<u32>>,
    /// For each permuted row `i`: `(permuted column, value-slot)` pairs of
    /// the structural nonzeros of `A` (scatter list for the numeric pass).
    row_slots: Vec<Vec<(u32, u32)>>,
    /// Prefix offsets of each permuted row into the flat `L` value array
    /// (`len == n + 1`).
    l_off: Vec<u32>,
    /// Prefix offsets of each permuted row into the flat `U` value array
    /// (`len == n + 1`).
    u_off: Vec<u32>,
}

impl SparseMatrix {
    /// Creates an `n × n` all-zero sparse matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            slots: HashMap::new(),
            coords: Vec::new(),
            values: Vec::new(),
            symbolic: None,
            l_vals: Vec::new(),
            u_vals: Vec::new(),
            work: Vec::new(),
            pb: Vec::new(),
            factored: false,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Zeroes all values, keeping the structure, the symbolic
    /// factorisation, and any stored numeric factors (chord Newton
    /// reassembles values while substituting against frozen factors).
    pub fn clear(&mut self) {
        self.values.fill(0.0);
    }

    /// The backing value storage, indexed by slot (insertion order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the backing value storage.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Adds `value` at `(row, col)` — the MNA stamping primitive.
    ///
    /// The first add at a new coordinate extends the structure and
    /// invalidates the symbolic and numeric factorisations; subsequent adds
    /// are O(1) hash lookups. Stamp patterns are fixed in MNA, so steady
    /// state is reached after the first assembly. Returns the value slot
    /// and whether the structure grew, so callers can record a replayable
    /// stamp tape.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) -> (u32, bool) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        let key = (row as u32, col as u32);
        match self.slots.get(&key) {
            Some(&slot) => {
                self.values[slot as usize] += value;
                (slot, false)
            }
            None => {
                let slot = self.values.len() as u32;
                self.slots.insert(key, slot);
                self.coords.push(key);
                self.values.push(value);
                self.symbolic = None;
                self.factored = false;
                (slot, true)
            }
        }
    }

    /// Adds `value` at a slot previously returned by [`SparseMatrix::add`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    #[inline]
    pub fn add_slot(&mut self, slot: u32, value: f64) {
        self.values[slot as usize] += value;
    }

    /// Overwrites `dense` with the current values (the fallback factoriser
    /// of [`crate::linalg::SystemMatrix`] reads them this way).
    pub fn copy_into(&self, dense: &mut DenseMatrix) {
        dense.clear();
        for (&(r, c), &v) in self.coords.iter().zip(&self.values) {
            dense.add(r as usize, c as usize, v);
        }
    }

    /// Computes `y = A·x` from the stamped values (not the factors).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` does not have length `n`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (slot, &(r, c)) in self.coords.iter().enumerate() {
            y[r as usize] += self.values[slot] * x[c as usize];
        }
    }

    /// Builds (or reuses) the symbolic factorisation.
    fn ensure_symbolic(&mut self) {
        if self.symbolic.is_some() {
            return;
        }
        let n = self.n;
        // Static fill-reducing ordering: sort indices by structural degree
        // (off-diagonal nonzeros, symmetrised), lowest first. Leaves come
        // first, hubs last — optimal for the star/arrowhead graphs MNA
        // produces and never worse than natural order by more than the
        // degree tie-breaking.
        let mut degree = vec![0u32; n];
        for &(r, c) in &self.coords {
            if r != c {
                degree[r as usize] += 1;
                degree[c as usize] += 1;
            }
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| (degree[i as usize], i));
        let mut inv = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        // Row-wise structural pattern of P·A·Pᵀ, plus the scatter lists.
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut row_slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (slot, &(r, c)) in self.coords.iter().enumerate() {
            let (pr, pc) = (inv[r as usize], inv[c as usize]);
            rows[pr as usize].push(pc);
            row_slots[pr as usize].push((pc, slot as u32));
        }
        for r in rows.iter_mut() {
            r.sort_unstable();
            r.dedup();
        }
        let mut lower: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut upper: Vec<Vec<u32>> = Vec::with_capacity(n);
        // Boolean workspace + sorted-merge scratch.
        let mut mark = vec![false; n];
        let mut pattern: Vec<u32> = Vec::new();
        for (i, row_cols) in rows.iter().enumerate() {
            pattern.clear();
            for &c in row_cols {
                if !mark[c as usize] {
                    mark[c as usize] = true;
                    pattern.push(c);
                }
            }
            // Process strictly-lower indices in ascending order, merging in
            // the fill each elimination introduces.
            let mut lo: Vec<u32> = Vec::new();
            loop {
                // Smallest unprocessed index < i.
                let next = pattern
                    .iter()
                    .copied()
                    .filter(|&c| (c as usize) < i && !lo.contains(&c))
                    .min();
                let Some(k) = next else { break };
                lo.push(k);
                for &j in &upper[k as usize][1..] {
                    if !mark[j as usize] {
                        mark[j as usize] = true;
                        pattern.push(j);
                    }
                }
            }
            lo.sort_unstable();
            let mut up: Vec<u32> = pattern
                .iter()
                .copied()
                .filter(|&c| c as usize >= i)
                .collect();
            up.sort_unstable();
            if up.first() != Some(&(i as u32)) {
                // Ensure a diagonal slot exists structurally.
                up.insert(0, i as u32);
            }
            for &c in &pattern {
                mark[c as usize] = false;
            }
            lower.push(lo);
            upper.push(up);
        }
        // Flat offsets into the persistent factor-value arrays.
        let mut l_off = Vec::with_capacity(n + 1);
        let mut u_off = Vec::with_capacity(n + 1);
        let (mut la, mut ua) = (0u32, 0u32);
        l_off.push(0);
        u_off.push(0);
        for i in 0..n {
            la += lower[i].len() as u32;
            ua += upper[i].len() as u32;
            l_off.push(la);
            u_off.push(ua);
        }
        self.symbolic = Some(Symbolic {
            perm,
            lower,
            upper,
            row_slots,
            l_off,
            u_off,
        });
    }

    /// `true` when a valid factorisation is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Factorises the current values into the persistent flat `L`/`U`
    /// arrays; the stamped values are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when a pivot falls below
    /// the absolute or the row-relative tolerance — the caller should fall
    /// back to dense partial-pivot LU. A failed factorisation invalidates
    /// any previously stored factors.
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        self.ensure_symbolic();
        let symbolic = self.symbolic.as_ref().expect("just ensured");
        let n = self.n;
        self.factored = false;
        let l_len = symbolic.l_off[n] as usize;
        let u_len = symbolic.u_off[n] as usize;
        self.l_vals.clear();
        self.l_vals.resize(l_len, 0.0);
        self.u_vals.clear();
        self.u_vals.resize(u_len, 0.0);
        self.work.clear();
        self.work.resize(n, 0.0);

        for i in 0..n {
            // Scatter A[i, *].
            let mut row_max: f64 = 0.0;
            for &(c, slot) in &symbolic.row_slots[i] {
                let v = self.values[slot as usize];
                self.work[c as usize] += v;
                row_max = row_max.max(v.abs());
            }
            // Eliminate against prior rows in ascending pivot order.
            let l_base = symbolic.l_off[i] as usize;
            for (idx, &k) in symbolic.lower[i].iter().enumerate() {
                let k = k as usize;
                let uk_base = symbolic.u_off[k] as usize;
                let ukk = self.u_vals[uk_base];
                let factor = self.work[k] / ukk;
                self.work[k] = 0.0;
                self.l_vals[l_base + idx] = factor;
                if factor != 0.0 {
                    let up_k = &symbolic.upper[k];
                    for (u_idx, &j) in up_k.iter().enumerate().skip(1) {
                        self.work[j as usize] -= factor * self.u_vals[uk_base + u_idx];
                    }
                }
            }
            // Gather U[i, *].
            let u_base = symbolic.u_off[i] as usize;
            for (u_idx, &j) in symbolic.upper[i].iter().enumerate() {
                self.u_vals[u_base + u_idx] = self.work[j as usize];
                self.work[j as usize] = 0.0;
            }
            let diag = self.u_vals[u_base];
            if diag.abs() < PIVOT_TOL.max(PIVOT_REL_TOL * row_max) || !diag.is_finite() {
                return Err(CircuitError::SingularMatrix { pivot: i });
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors, overwriting `b` with the
    /// solution. The factors stay valid for further substitutions.
    ///
    /// # Panics
    ///
    /// Panics if no factorisation is stored or `b.len()` differs from the
    /// dimension.
    pub fn substitute(&mut self, b: &mut [f64]) {
        assert!(self.factored, "substitute without a factorisation");
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let symbolic = self.symbolic.as_ref().expect("factored implies symbolic");
        let n = self.n;
        // Permute the right-hand side into elimination order.
        self.pb.clear();
        self.pb
            .extend(symbolic.perm.iter().map(|&old| b[old as usize]));
        // Forward substitution: L·y = P·b (L unit-diagonal).
        for i in 0..n {
            let l_base = symbolic.l_off[i] as usize;
            let mut acc = self.pb[i];
            for (idx, &k) in symbolic.lower[i].iter().enumerate() {
                acc -= self.l_vals[l_base + idx] * self.pb[k as usize];
            }
            self.pb[i] = acc;
        }
        // Back substitution: U·(P·x) = y.
        for i in (0..n).rev() {
            let u_base = symbolic.u_off[i] as usize;
            let mut acc = self.pb[i];
            for (idx, &j) in symbolic.upper[i].iter().enumerate().skip(1) {
                acc -= self.u_vals[u_base + idx] * self.pb[j as usize];
            }
            self.pb[i] = acc / self.u_vals[u_base];
        }
        // Un-permute the solution.
        for (new, &old) in symbolic.perm.iter().enumerate() {
            b[old as usize] = self.pb[new];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(m: &mut SparseMatrix, b: &mut [f64]) -> Result<(), CircuitError> {
        m.factor()?;
        m.substitute(b);
        Ok(())
    }

    fn solve_both(entries: &[(usize, usize, f64)], n: usize, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut sparse = SparseMatrix::zeros(n);
        let mut dense = DenseMatrix::zeros(n);
        for &(r, c, v) in entries {
            sparse.add(r, c, v);
            dense.add(r, c, v);
        }
        let mut xs = b.to_vec();
        solve(&mut sparse, &mut xs).expect("sparse solves");
        let mut xd = b.to_vec();
        dense.solve_in_place(&mut xd).expect("dense solves");
        (xs, xd)
    }

    #[test]
    fn matches_dense_on_tridiagonal() {
        let n = 12;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 4.0));
            if i + 1 < n {
                entries.push((i, i + 1, -1.0));
                entries.push((i + 1, i, -1.0));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let (xs, xd) = solve_both(&entries, n, &b);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_dense_with_fill_in() {
        // Arrowhead: last row/col dense — maximal fill for no-pivot LU.
        let n = 10;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 3.0 + i as f64));
            if i + 1 < n {
                entries.push((i, n - 1, 0.5));
                entries.push((n - 1, i, 0.25));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let (xs, xd) = solve_both(&entries, n, &b);
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn random_mna_like_systems_match_dense() {
        // Diagonally dominant random sparse systems (the MNA regime).
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [5usize, 23, 61] {
            let mut entries = Vec::new();
            for i in 0..n {
                entries.push((i, i, 2.0 + 3.0 * next()));
                for _ in 0..3 {
                    let j = (next() * n as f64) as usize % n;
                    if j != i {
                        let v = 0.3 * (next() - 0.5);
                        entries.push((i, j, v));
                        // Keep dominance.
                        entries.push((i, i, v.abs()));
                    }
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();
            let (xs, xd) = solve_both(&entries, n, &b);
            for (a, b) in xs.iter().zip(&xd) {
                assert!((a - b).abs() < 1e-9, "n = {n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn repeated_solves_reuse_structure() {
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 2.0);
        m.add(1, 1, 2.0);
        m.add(2, 2, 2.0);
        m.add(0, 1, 1.0);
        let mut x = vec![3.0, 2.0, 4.0];
        solve(&mut m, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        let nnz = m.values().len();
        // Re-stamp the same pattern: no structural growth, same answer.
        m.clear();
        m.add(0, 0, 2.0);
        m.add(1, 1, 2.0);
        m.add(2, 2, 2.0);
        m.add(0, 1, 1.0);
        assert_eq!(m.values().len(), nnz);
        let mut x = vec![3.0, 2.0, 4.0];
        solve(&mut m, &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_pivot_is_reported_not_panicking() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        // Diagonals are structurally absent → first pivot is zero.
        let mut x = vec![1.0, 1.0];
        let err = solve(&mut m, &mut x).unwrap_err();
        assert!(matches!(err, CircuitError::SingularMatrix { .. }));
    }

    #[test]
    fn values_survive_failed_solve() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        let mut x = vec![1.0, 1.0];
        let _ = solve(&mut m, &mut x);
        // The dense fallback can still read the original values.
        let mut dense = DenseMatrix::zeros(2);
        m.copy_into(&mut dense);
        assert_eq!(dense.get(0, 1), 1.0);
        assert_eq!(dense.get(1, 0), 1.0);
    }

    #[test]
    fn substitute_is_bit_identical_to_solve() {
        // Chord/LU-reuse soundness: a substitution against stored factors
        // must reproduce the direct solve exactly.
        let n = 8;
        let mut m = SparseMatrix::zeros(n);
        for i in 0..n {
            m.add(i, i, 3.0 + i as f64);
            if i + 1 < n {
                m.add(i, i + 1, -0.5);
                m.add(i + 1, i, -0.25);
            }
        }
        m.factor().unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let mut x1 = b.clone();
        m.substitute(&mut x1);
        let mut x2 = b.clone();
        solve(&mut m, &mut x2).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn growth_invalidates_factors() {
        let mut m = SparseMatrix::zeros(2);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        m.factor().unwrap();
        assert!(m.is_factored());
        let (_, grew) = m.add(0, 1, 0.5);
        assert!(grew);
        assert!(!m.is_factored(), "structural growth drops stale factors");
    }

    #[test]
    fn mul_vec_matches_dense() {
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 2.0);
        m.add(0, 2, 1.0);
        m.add(1, 1, -3.0);
        m.add(2, 0, 0.5);
        m.add(2, 2, 4.0);
        m.add(2, 2, 0.25); // duplicate add accumulates into one slot
        let x = vec![1.0, 2.0, -1.0];
        let mut y = vec![0.0; 3];
        m.mul_vec_into(&x, &mut y);
        let mut dense = DenseMatrix::zeros(3);
        m.copy_into(&mut dense);
        assert_eq!(y, dense.mul_vec(&x));
    }
}
