//! Dense LU with partial pivoting — the reference the sparse LU is tested
//! against. It is compiled only for tests.

use crate::error::CircuitError;

/// A dense row-major square matrix, solved by LU with partial pivoting.
#[derive(Debug)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Adds `value` to entry `(row, col)` — the MNA stamping primitive.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    /// Computes `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have length `n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|row| {
                let r = &self.data[row * self.n..(row + 1) * self.n];
                r.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// Solves `A·x = b` by LU with partial pivoting on a copy of the
    /// values, overwriting `b` with the solution.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when no usable pivot
    /// exists, which for MNA systems means a floating node or a
    /// disconnected subcircuit.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), CircuitError> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let mut lu = self.data.clone();
        for k in 0..n {
            // Find the pivot row; swap it, and its rhs entry, into place.
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].abs();
            for row in (k + 1)..n {
                let mag = lu[row * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(CircuitError::SingularMatrix { pivot: k });
            }
            if pivot_row != k {
                for col in 0..n {
                    lu.swap(k * n + col, pivot_row * n + col);
                }
                b.swap(k, pivot_row);
            }
            // Eliminate below the pivot, forward-substituting `b` alongside.
            let inv_pivot = 1.0 / lu[k * n + k];
            for row in (k + 1)..n {
                let factor = lu[row * n + k] * inv_pivot;
                if factor == 0.0 {
                    continue;
                }
                let (head, tail) = lu.split_at_mut(row * n);
                let row_k = &head[k * n + k + 1..k * n + n];
                for (r, &kv) in tail[k + 1..n].iter_mut().zip(row_k) {
                    *r -= factor * kv;
                }
                b[row] -= factor * b[k];
            }
        }
        // Back substitution: U·x = y.
        for row in (0..n).rev() {
            let mut acc = b[row];
            for (col, &b_col) in b.iter().enumerate().skip(row + 1) {
                acc -= lu[row * n + col] * b_col;
            }
            b[row] = acc / lu[row * n + row];
        }
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
                a.add(i, j, v);
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
                    a.add(i, j, if i == j { v + 4.0 } else { v });
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
    fn mna_like_resistive_divider() {
        // Two resistors: 1 V source node eliminated, middle node unknown.
        // G-matrix: (1/r1 + 1/r2) v = 1/r1 * 1.0
        let g1 = 1e-3;
        let g2 = 3e-3;
        let x = solve(&[&[g1 + g2]], &[g1]).unwrap();
        assert!((x[0] - 0.25).abs() < 1e-12);
    }
}
