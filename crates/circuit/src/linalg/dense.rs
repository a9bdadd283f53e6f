//! Dense LU with partial pivoting — the factoriser a
//! [`crate::linalg::SystemMatrix`] falls back to when the no-pivot sparse
//! LU hits a bad pivot, and the reference the sparse LU is tested against.

use crate::error::CircuitError;

/// A dense row-major square matrix with a reusable LU factorisation.
///
/// [`DenseMatrix::factor`] copies the values into a separate factor buffer
/// and LU-decomposes that copy, so the stamped values survive both
/// successful and failed factorisations; [`DenseMatrix::substitute`]
/// applies the stored factors to a right-hand side. Reusing a
/// factorisation across several substitutions is what makes chord Newton
/// and per-step LU reuse cheap.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::linalg::DenseMatrix;
/// let mut a = DenseMatrix::zeros(2);
/// a.set(0, 0, 2.0);
/// a.set(0, 1, 1.0);
/// a.set(1, 0, 1.0);
/// a.set(1, 1, 3.0);
/// let mut x = vec![3.0, 4.0]; // rhs
/// a.solve_in_place(&mut x)?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// // The values survive: a second rhs reuses the same factors.
/// let mut y = vec![2.0, 1.0];
/// a.substitute(&mut y);
/// assert!((a.get(0, 0) - 2.0).abs() < 1e-15);
/// # Ok::<(), ftcam_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
    /// LU factors of a previous [`DenseMatrix::factor`] call (row-major,
    /// multipliers in the strict lower triangle, `U` on and above the
    /// diagonal). Kept separate from `data` so stamped values survive.
    factors: Vec<f64>,
    /// Pivot permutation recorded by the last factorisation.
    pivots: Vec<usize>,
    /// Whether `factors`/`pivots` hold a valid decomposition.
    factored: bool,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
            factors: Vec::new(),
            pivots: vec![0; n],
            factored: false,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero, keeping the allocation (and any stored
    /// factorisation — chord Newton reassembles values while substituting
    /// against frozen factors).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// The backing value storage (row-major).
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Returns entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Sets entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to entry `(row, col)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Computes `y = A·x` from the stamped values (not the factors).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have length `n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Computes `y = A·x` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` does not have length `n`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (row, y_row) in y.iter_mut().enumerate() {
            let r = &self.data[row * self.n..(row + 1) * self.n];
            *y_row = r.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `true` when a valid factorisation is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Factorises the current values (LU with partial pivoting) into the
    /// separate factor buffer; the stamped values are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when no usable pivot
    /// exists, which for MNA systems means a floating node or a
    /// disconnected subcircuit. A failed factorisation invalidates any
    /// previously stored factors.
    pub fn factor(&mut self) -> Result<(), CircuitError> {
        let n = self.n;
        self.factored = false;
        self.factors.clear();
        self.factors.extend_from_slice(&self.data);
        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut pivot_mag = self.factors[k * n + k].abs();
            for row in (k + 1)..n {
                let mag = self.factors[row * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(CircuitError::SingularMatrix { pivot: k });
            }
            self.pivots[k] = pivot_row;
            if pivot_row != k {
                for col in 0..n {
                    self.factors.swap(k * n + col, pivot_row * n + col);
                }
            }
            let inv_pivot = 1.0 / self.factors[k * n + k];
            for row in (k + 1)..n {
                let factor = self.factors[row * n + k] * inv_pivot;
                if factor == 0.0 {
                    continue;
                }
                self.factors[row * n + k] = factor;
                // Row update: row_r -= factor * row_k (columns k+1..n).
                let (head, tail) = self.factors.split_at_mut(row * n);
                let row_k = &head[k * n + k + 1..k * n + n];
                let row_r = &mut tail[k + 1..n];
                for (r, &kv) in row_r.iter_mut().zip(row_k) {
                    *r -= factor * kv;
                }
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
    /// Panics if no factorisation is stored or `b.len() != n`.
    pub fn substitute(&self, b: &mut [f64]) {
        assert!(self.factored, "substitute without a factorisation");
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Apply the pivot permutation in factorisation order.
        for (k, &p) in self.pivots.iter().enumerate() {
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward substitution: L·y = P·b (L unit-diagonal).
        for k in 0..n {
            let bk = b[k];
            if bk == 0.0 {
                continue;
            }
            for (row, b_row) in b.iter_mut().enumerate().skip(k + 1) {
                *b_row -= self.factors[row * n + k] * bk;
            }
        }
        // Back substitution: U·x = y.
        for row in (0..n).rev() {
            let mut acc = b[row];
            for (col, &b_col) in b.iter().enumerate().skip(row + 1) {
                acc -= self.factors[row * n + col] * b_col;
            }
            b[row] = acc / self.factors[row * n + row];
        }
    }

    /// Factorises and solves `A·x = b`, overwriting `b` with the solution.
    ///
    /// The stamped values survive (the factors live in a separate buffer),
    /// and the factorisation stays stored for later
    /// [`DenseMatrix::substitute`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when no usable pivot exists,
    /// which for MNA systems means a floating node or a disconnected
    /// subcircuit.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), CircuitError> {
        assert_eq!(b.len(), self.n);
        self.factor()?;
        self.substitute(b);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(a_rows: &[&[f64]], b: &[f64]) -> Result<Vec<f64>, CircuitError> {
        let n = b.len();
        let mut a = DenseMatrix::zeros(n);
        for (i, row) in a_rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                a.set(i, j, v);
            }
        }
        let mut x = b.to_vec();
        a.solve_in_place(&mut x)?;
        Ok(x)
    }

    #[test]
    fn identity_solve() {
        let x = solve(&[&[1.0, 0.0], &[0.0, 1.0]], &[2.5, -3.0]).unwrap();
        assert_eq!(x, vec![2.5, -3.0]);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let x = solve(&[&[0.0, 1.0], &[1.0, 0.0]], &[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reports_pivot() {
        let err = solve(&[&[1.0, 2.0], &[2.0, 4.0]], &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, CircuitError::SingularMatrix { pivot: 1 }));
    }

    #[test]
    fn random_systems_round_trip() {
        // Build well-conditioned random-ish systems and verify A·x = b.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 3, 7, 20, 51] {
            let mut a = DenseMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    let v = next();
                    a.set(i, j, if i == j { v + 4.0 } else { v });
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut x = b.clone();
            a.solve_in_place(&mut x).unwrap();
            let bx = a.mul_vec(&x);
            for (lhs, rhs) in bx.iter().zip(&b) {
                assert!((lhs - rhs).abs() < 1e-9, "n = {n}: {lhs} vs {rhs}");
            }
        }
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut a = DenseMatrix::zeros(3);
        a.set(1, 2, 5.0);
        a.clear();
        assert_eq!(a.dim(), 3);
        assert_eq!(a.get(1, 2), 0.0);
    }

    #[test]
    fn mna_like_resistive_divider() {
        // Two resistors: 1 V source node eliminated, middle node unknown.
        // G-matrix: (1/r1 + 1/r2) v = 1/r1 * 1.0
        let g1 = 1e-3;
        let g2 = 3e-3;
        let x = solve(&[&[g1 + g2]], &[g1]).unwrap();
        assert!((x[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn values_survive_solve_and_factors_are_reusable() {
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let before = a.values().to_vec();
        let mut x = vec![3.0, 4.0];
        a.solve_in_place(&mut x).unwrap();
        assert_eq!(a.values(), &before[..], "stamped values untouched");
        // A second rhs through substitute alone matches a fresh solve.
        let mut y = vec![5.0, -1.0];
        a.substitute(&mut y);
        let mut y_ref = vec![5.0, -1.0];
        a.clone().solve_in_place(&mut y_ref).unwrap();
        assert_eq!(y, y_ref);
    }

    #[test]
    fn substitute_is_bit_identical_to_solve() {
        // Chord/LU-reuse soundness: a substitution against stored factors
        // must reproduce the direct solve exactly, pivoting included.
        let mut a = DenseMatrix::zeros(3);
        let vals = [[0.0, 2.0, 1.0], [4.0, 1.0, -1.0], [1.0, 0.5, 3.0]];
        for (i, row) in vals.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                a.set(i, j, v);
            }
        }
        a.factor().unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let mut x1 = b.clone();
        a.substitute(&mut x1);
        let mut x2 = b.clone();
        a.clone().solve_in_place(&mut x2).unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn failed_factor_invalidates_previous_factors() {
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        a.factor().unwrap();
        assert!(a.is_factored());
        a.clear();
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        assert!(a.factor().is_err());
        assert!(!a.is_factored());
    }
}
