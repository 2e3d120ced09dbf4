//! LU decomposition with partial pivoting.
//!
//! Used throughout the workspace to solve the dense linear systems that
//! appear in Riccati iterations (`(R + BᵀPB)⁻¹`), Kalman gain computation,
//! and ARX least-squares normal equations.

use crate::{LinalgError, Matrix, Result, Vector};

/// Threshold below which a pivot is considered numerically zero, relative to
/// the largest entry of the original matrix.
const PIVOT_RTOL: f64 = 1e-13;

/// A partial-pivoting LU factorization `P * A = L * U`.
///
/// # Example
///
/// ```
/// use mimo_linalg::{lu::LuDecomposition, Matrix};
///
/// # fn main() -> Result<(), mimo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuDecomposition::new(&a)?;
/// assert!((lu.determinant() - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index now in row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used for the determinant.
    perm_sign: f64,
    /// Scale used for the singularity test.
    scale: f64,
}

impl LuDecomposition {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input,
    /// [`LinalgError::EmptyInput`] for a 0x0 matrix, and
    /// [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::EmptyInput);
        }
        let scale = a.max_abs().max(f64::MIN_POSITIVE);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax <= PIVOT_RTOL * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                perm_sign = -perm_sign;
            }
            // Eliminate below the pivot.
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let v = lu[(k, j)];
                        lu[(i, j)] -= m * v;
                    }
                }
            }
        }

        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
            scale,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Solves `A * X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        let mut x = Matrix::zeros(n, m);
        // Apply permutation to b.
        for i in 0..n {
            for j in 0..m {
                x[(i, j)] = b[(self.perm[i], j)];
            }
        }
        // Forward substitution (L has implicit unit diagonal).
        for k in 0..n {
            for i in (k + 1)..n {
                let l = self.lu[(i, k)];
                if l != 0.0 {
                    for j in 0..m {
                        let v = x[(k, j)];
                        x[(i, j)] -= l * v;
                    }
                }
            }
        }
        // Backward substitution.
        for k in (0..n).rev() {
            let pivot = self.lu[(k, k)];
            for j in 0..m {
                x[(k, j)] /= pivot;
            }
            for i in 0..k {
                let u = self.lu[(i, k)];
                if u != 0.0 {
                    for j in 0..m {
                        let v = x[(k, j)];
                        x[(i, j)] -= u * v;
                    }
                }
            }
        }
        Ok(x)
    }

    /// Solves `A * x = b` for a vector right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let b = b.as_slice();
        let mut x = Vector::from_fn(n, |i| b[self.perm[i]]);
        self.substitute_in_place(x.as_mut_slice());
        Ok(x)
    }

    /// Row permutation `P` of `P * A = L * U`: `perm()[i]` is the original
    /// row index now in row `i`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Single-column forward and backward substitution, in place.
    ///
    /// On entry `x` holds the permuted right-hand side `P * b` (entry `i`
    /// is `b[perm()[i]]`); on return it holds the solution of `A * x = b`.
    /// The operation sequence is exactly [`LuDecomposition::solve`]'s for
    /// one column, so the two agree bit for bit, and nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn substitute_in_place(&self, x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "lu_substitute: rhs length");
        // Forward substitution (L has implicit unit diagonal).
        for k in 0..n {
            let v = x[k];
            for (i, xi) in x.iter_mut().enumerate().skip(k + 1) {
                let l = self.lu[(i, k)];
                if l != 0.0 {
                    *xi -= l * v;
                }
            }
        }
        // Backward substitution.
        for k in (0..n).rev() {
            x[k] /= self.lu[(k, k)];
            let v = x[k];
            for (i, xi) in x.iter_mut().enumerate().take(k) {
                let u = self.lu[(i, k)];
                if u != 0.0 {
                    *xi -= u * v;
                }
            }
        }
    }

    /// Computes the inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LuDecomposition::solve`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve(&Matrix::identity(self.dim()))
    }

    /// Reciprocal condition estimate `1 / (‖A‖∞ · ‖A⁻¹‖∞)`.
    ///
    /// A small value (≲ 1e-12) signals an ill-conditioned model — the design
    /// flow uses this to reject degenerate identification results.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LuDecomposition::inverse`].
    pub fn rcond_estimate(&self, a: &Matrix) -> Result<f64> {
        let inv = self.inverse()?;
        let denom = a.norm_inf() * inv.norm_inf();
        if denom == 0.0 {
            return Ok(0.0);
        }
        Ok(1.0 / denom)
    }

    /// Largest-magnitude entry of the original matrix, retained for scaling.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
        (&(a * x) - b).max_abs()
    }

    #[test]
    fn solves_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let b = Matrix::col(&[4.0, 5.0, 6.0]);
        let x = a.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
        // Known solution: x = [6, 15, -23]
        assert!((x[(0, 0)] - 6.0).abs() < 1e-10);
        assert!((x[(1, 0)] - 15.0).abs() < 1e-10);
        assert!((x[(2, 0)] + 23.0).abs() < 1e-10);
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_of_permutation_has_correct_sign() {
        // Swapping two rows of I gives determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(LuDecomposition::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(
            LuDecomposition::new(&a).unwrap_err(),
            LinalgError::EmptyInput
        );
    }

    #[test]
    fn inverse_of_diagonal() {
        let a = Matrix::diag(&[2.0, 4.0, 8.0]);
        let inv = a.inverse().unwrap();
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-14);
        assert!((inv[(1, 1)] - 0.25).abs() < 1e-14);
        assert!((inv[(2, 2)] - 0.125).abs() < 1e-14);
    }

    #[test]
    fn solve_vec_round_trip() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = Vector::from_slice(&[9.0, 8.0]);
        let x = lu.solve_vec(&b).unwrap();
        let back = a.mul_vec(&x).unwrap();
        assert!((&back - &b).norm_inf() < 1e-12);
    }

    #[test]
    fn solve_vec_matches_single_column_solve_bit_for_bit() {
        // Zero leading entry and a small second pivot: the factorization
        // must swap rows, so the permuted right-hand side is exercised.
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, -1.0, 0.5],
            &[1e-3, 0.3, 4.0, -2.0],
            &[3.0, -1.0, 0.7, 1.1],
            &[-2.5, 0.9, 0.0, 6.0],
        ]);
        let lu = LuDecomposition::new(&a).unwrap();
        assert_ne!(lu.perm(), &[0, 1, 2, 3], "matrix must need pivoting");
        for seed in 0..16 {
            let b = Vector::from_fn(4, |i| ((seed * 7 + i * 13) % 11) as f64 / 3.0 - 1.7);
            let col = lu.solve(&b.to_col_matrix()).unwrap();
            let x = lu.solve_vec(&b).unwrap();
            for i in 0..4 {
                assert_eq!(x[i].to_bits(), col[(i, 0)].to_bits(), "seed {seed} row {i}");
            }
        }
        assert!(matches!(
            lu.solve_vec(&Vector::zeros(3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solve_shape_mismatch() {
        let a = Matrix::identity(2);
        let lu = LuDecomposition::new(&a).unwrap();
        let b = Matrix::zeros(3, 1);
        assert!(matches!(
            lu.solve(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rcond_small_for_near_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + 1e-10]]);
        let lu = LuDecomposition::new(&a).unwrap();
        let rc = lu.rcond_estimate(&a).unwrap();
        assert!(rc < 1e-8, "rcond = {rc}");
        let well = Matrix::identity(2);
        let rc2 = LuDecomposition::new(&well)
            .unwrap()
            .rcond_estimate(&well)
            .unwrap();
        assert!(rc2 > 0.5);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Matrix::col(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random well-conditioned matrix.
        let n = 20;
        let a = Matrix::from_fn(n, n, |i, j| {
            let base = ((i * 31 + j * 17 + 7) % 97) as f64 / 97.0;
            if i == j {
                base + (n as f64)
            } else {
                base
            }
        });
        let xtrue = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 / 3.0);
        let b = &a * &xtrue;
        let x = a.solve(&b).unwrap();
        assert!((&x - &xtrue).max_abs() < 1e-9);
    }
}
