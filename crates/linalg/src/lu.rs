//! LU factorization with partial pivoting.
//!
//! Used once per simulation setup to pre-factor the implicit collision
//! operator: `cmat(ic, itor) = (I − Δt/2·C)⁻¹ (I + Δt/2·C)` is formed by one
//! LU factorization of `(I − Δt/2·C)` followed by one multi-RHS triangular
//! solve against `(I + Δt/2·C)`. This trades setup compute for a dense
//! constant tensor — exactly the memory/compute trade the paper describes
//! for CGYRO's collision step.
//!
//! Both passes work on contiguous rows of row-major buffers: the factor
//! updates each trailing row as `row_i[k+1..] -= m·row_k[k+1..]`, and the
//! substitution updates a whole right-hand-side row at a time,
//! `Y[i,:] -= L[i,j]·Y[j,:]` for ascending `j`.
//!
//! # Bitwise determinism contract
//!
//! Every output element goes through the textbook column-by-column
//! sequence of operations: in the factor, `a[i,j] ← a[i,j] − m_ik·a[k,j]`
//! once per step `k`; in the solve, for each column `c` of the right-hand
//! side,
//!
//! ```text
//! acc ← y[i,c];  for j ascending:  acc ← acc − t[i,j]·y[j,c];  (back: acc ← acc / u[i,i])
//! ```
//!
//! Each term is a separate IEEE multiply and subtract — Rust never
//! contracts them into a fused multiply-add — and no sum is reassociated.
//! Vectorization runs only across right-hand-side columns and across the
//! trailing elements of a row, never along the summation index `j`, so the
//! bodies instantiated for the [`SimdLevel`]s (under `#[target_feature]`,
//! dispatched on [`crate::simd::selected_level`] and thus on
//! [`crate::SIMD_ENV`]) all produce bit-identical factors and solutions.
//! The tests pin every level against the column-by-column reference; the
//! SIMD panel apply states its own (FMA-based) contract in
//! [`crate::simd`].

use crate::matrix::RealMatrix;
use crate::simd::{effective, selected_level, SimdLevel};

/// Error type for singular or near-singular factorizations.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularMatrix {
    /// Pivot column at which factorization broke down.
    pub at_column: usize,
    /// Magnitude of the best available pivot.
    pub pivot_magnitude: f64,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular to working precision at column {} (pivot {:.3e})",
            self.at_column, self.pivot_magnitude
        )
    }
}

impl std::error::Error for SingularMatrix {}

/// LU factorization `P·A = L·U` of a square matrix, stored compactly
/// (strictly-lower `L` with implicit unit diagonal, upper `U`).
#[derive(Clone, Debug)]
pub struct LuFactors {
    lu: RealMatrix,
    /// Row interchanges: at step `k`, row `k` was swapped with row
    /// `piv[k] ≥ k`.
    piv: Vec<usize>,
}

impl LuFactors {
    /// Factorize `a` (consumed) with partial pivoting.
    pub fn factorize(a: RealMatrix) -> Result<Self, SingularMatrix> {
        Self::factorize_at(selected_level(), a)
    }

    fn factorize_at(level: SimdLevel, mut a: RealMatrix) -> Result<Self, SingularMatrix> {
        assert!(a.is_square(), "LU factorization needs a square matrix");
        let n = a.rows();
        let mut piv = vec![0; n];
        let buf = a.as_mut_slice();
        match effective(level) {
            SimdLevel::Scalar => factor_body(buf, n, &mut piv),
            // SAFETY: `effective` clamps to the levels this CPU executes.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::factor_avx2(buf, n, &mut piv) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { x86::factor_avx512(buf, n, &mut piv) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => factor_body(buf, n, &mut piv),
        }?;
        Ok(Self { lu: a, piv })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Hand back the factor storage (the `n × n` buffer `factorize`
    /// consumed) so a caller factoring many matrices can reuse it.
    pub fn into_matrix(self) -> RealMatrix {
        self.lu
    }

    /// Solve `A·X = B` in place for a row-major `n × ncols` right-hand
    /// side `b`: it enters as `B` and leaves as `X`.
    pub fn solve_matrix_inplace(&self, b: &mut [f64], ncols: usize) {
        self.solve_matrix_inplace_at(selected_level(), b, ncols)
    }

    fn solve_matrix_inplace_at(&self, level: SimdLevel, b: &mut [f64], ncols: usize) {
        let (lu, n) = (self.lu.as_slice(), self.dim());
        assert_eq!(b.len(), n * ncols, "rhs length mismatch");
        match effective(level) {
            SimdLevel::Scalar => substitute_body(lu, n, &self.piv, b, ncols),
            // SAFETY: `effective` clamps to the levels this CPU executes.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::substitute_avx2(lu, n, &self.piv, b, ncols) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { x86::substitute_avx512(lu, n, &self.piv, b, ncols) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => substitute_body(lu, n, &self.piv, b, ncols),
        }
    }

    /// Solve `A·x = b` in place: `b` enters as the right-hand side and leaves
    /// as the solution.
    pub fn solve_inplace(&self, b: &mut [f64]) {
        self.solve_matrix_inplace(b, 1);
    }

    /// Solve `A·x = b` returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_inplace(&mut x);
        x
    }

    /// Solve against every column of `b` (multiple right-hand sides),
    /// returning `X` with `A·X = B`.
    pub fn solve_matrix(&self, b: &RealMatrix) -> RealMatrix {
        assert_eq!(b.rows(), self.dim(), "rhs row count mismatch");
        let mut x = b.clone();
        self.solve_matrix_inplace(x.as_mut_slice(), b.cols());
        x
    }

    /// Explicit inverse `A⁻¹` (only used in tests and diagnostics; the
    /// production path uses [`Self::solve_matrix_inplace`] directly).
    pub fn inverse(&self) -> RealMatrix {
        self.solve_matrix(&RealMatrix::identity(self.dim()))
    }

    /// Determinant, as `sign · Π diag(U)`.
    pub fn determinant(&self) -> f64 {
        let swaps = self.piv.iter().enumerate().filter(|&(k, &p)| p != k).count();
        let sign = if swaps.is_multiple_of(2) { 1.0 } else { -1.0 };
        (0..self.dim()).map(|i| self.lu[(i, i)]).product::<f64>() * sign
    }

    /// An estimate of the reciprocal condition number based on pivot
    /// magnitudes (cheap; adequate for sanity checks on collision matrices,
    /// which are well conditioned by construction).
    pub fn rcond_estimate(&self) -> f64 {
        let mut dmin = f64::INFINITY;
        let mut dmax = 0.0_f64;
        for i in 0..self.dim() {
            let d = self.lu[(i, i)].abs();
            dmin = dmin.min(d);
            dmax = dmax.max(d);
        }
        if dmax == 0.0 {
            0.0
        } else {
            dmin / dmax
        }
    }
}

/// Convenience: `A⁻¹·B` via a single factorization of `A`.
pub fn solve_into(a: RealMatrix, b: &RealMatrix) -> Result<RealMatrix, SingularMatrix> {
    Ok(LuFactors::factorize(a)?.solve_matrix(b))
}

/// Row-oriented partial-pivoting LU of the row-major `n × n` buffer `a`,
/// recording the interchange of step `k` in `piv[k]`.
#[inline(always)]
fn factor_body(a: &mut [f64], n: usize, piv: &mut [usize]) -> Result<(), SingularMatrix> {
    for k in 0..n {
        // Pivot search in column k, rows k..n.
        let mut p = k;
        let mut pmax = a[k * n + k].abs();
        for i in (k + 1)..n {
            let v = a[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax < f64::MIN_POSITIVE * 1e4 {
            return Err(SingularMatrix { at_column: k, pivot_magnitude: pmax });
        }
        piv[k] = p;
        if p != k {
            let (upper, lower) = a.split_at_mut(p * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
        }
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let urow = &upper[k * n..];
        let pivot = urow[k];
        for row in lower.chunks_exact_mut(n) {
            let m = row[k] / pivot;
            row[k] = m;
            if m != 0.0 {
                for (x, &u) in row[k + 1..].iter_mut().zip(&urow[k + 1..]) {
                    *x -= m * u;
                }
            }
        }
    }
    Ok(())
}

/// Forward and back substitution against the row-major `n × m` right-hand
/// side `y` (overwritten with the solution), reading the factor `lu`.
#[inline(always)]
fn substitute_body(lu: &[f64], n: usize, piv: &[usize], y: &mut [f64], m: usize) {
    // P·B: replay the factor's row interchanges in order.
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            let (upper, lower) = y.split_at_mut(p * m);
            upper[k * m..(k + 1) * m].swap_with_slice(&mut lower[..m]);
        }
    }
    // Forward substitution L·Z = P·B (unit diagonal).
    for i in 1..n {
        let (done, rest) = y.split_at_mut(i * m);
        sub_rows(&mut rest[..m], &lu[i * n..i * n + i], done, m);
    }
    // Back substitution U·X = Z.
    for i in (0..n).rev() {
        let (head, solved) = y.split_at_mut((i + 1) * m);
        let (yi, urow) = (&mut head[i * m..], &lu[i * n..(i + 1) * n]);
        sub_rows(yi, &urow[i + 1..], solved, m);
        let d = urow[i];
        for x in yi {
            *x /= d;
        }
    }
}

/// `yi[c] -= coeffs[j]·src[j·m + c]` for ascending `j`, every column `c`
/// of the row. Columns are processed in register-resident blocks so each
/// output element is loaded and stored once; the per-element sequence of
/// operations is unchanged.
#[inline(always)]
fn sub_rows(yi: &mut [f64], coeffs: &[f64], src: &[f64], m: usize) {
    let mut c = 0;
    while c + 16 <= m {
        sub_block::<16>(&mut yi[c..c + 16], coeffs, src, m, c);
        c += 16;
    }
    if c + 8 <= m {
        sub_block::<8>(&mut yi[c..c + 8], coeffs, src, m, c);
        c += 8;
    }
    while c < m {
        sub_block::<1>(&mut yi[c..c + 1], coeffs, src, m, c);
        c += 1;
    }
}

#[inline(always)]
fn sub_block<const W: usize>(out: &mut [f64], coeffs: &[f64], src: &[f64], m: usize, c: usize) {
    let mut acc = [0.0; W];
    acc.copy_from_slice(out);
    for (j, &t) in coeffs.iter().enumerate() {
        let s = &src[j * m + c..j * m + c + W];
        for w in 0..W {
            acc[w] -= t * s[w];
        }
    }
    out.copy_from_slice(&acc);
}

/// The factor and substitution bodies instantiated for wider vectors. No
/// `fma` feature is enabled; the arithmetic is the scalar body's.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{factor_body, substitute_body, SingularMatrix};

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn factor_avx2(
        a: &mut [f64],
        n: usize,
        piv: &mut [usize],
    ) -> Result<(), SingularMatrix> {
        factor_body(a, n, piv)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn factor_avx512(
        a: &mut [f64],
        n: usize,
        piv: &mut [usize],
    ) -> Result<(), SingularMatrix> {
        factor_body(a, n, piv)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn substitute_avx2(
        lu: &[f64],
        n: usize,
        piv: &[usize],
        y: &mut [f64],
        m: usize,
    ) {
        substitute_body(lu, n, piv, y, m)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn substitute_avx512(
        lu: &[f64],
        n: usize,
        piv: &[usize],
        y: &mut [f64],
        m: usize,
    ) {
        substitute_body(lu, n, piv, y, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matvec};
    use proptest::prelude::*;

    /// The column-by-column reference: bounds-checked element updates in
    /// the factor, and one permuted-copy / dot-product substitution per
    /// right-hand-side column. The production bodies must match it bit for
    /// bit at every SIMD level.
    fn reference_factorize(mut a: RealMatrix) -> Result<(RealMatrix, Vec<usize>), SingularMatrix> {
        let n = a.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut pmax = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < f64::MIN_POSITIVE * 1e4 {
                return Err(SingularMatrix { at_column: k, pivot_magnitude: pmax });
            }
            if p != k {
                perm.swap(k, p);
                for j in 0..n {
                    let t = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = t;
                }
            }
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let m = a[(i, k)] / pivot;
                a[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let u = a[(k, j)];
                        a[(i, j)] -= m * u;
                    }
                }
            }
        }
        Ok((a, perm))
    }

    fn reference_solve_matrix(lu: &RealMatrix, perm: &[usize], b: &RealMatrix) -> RealMatrix {
        let n = lu.rows();
        let mut x = RealMatrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let mut y: Vec<f64> = (0..n).map(|i| b[(perm[i], c)]).collect();
            for i in 1..n {
                let row = lu.row(i);
                let mut acc = y[i];
                for (j, yj) in y.iter().enumerate().take(i) {
                    acc -= row[j] * yj;
                }
                y[i] = acc;
            }
            for i in (0..n).rev() {
                let row = lu.row(i);
                let mut acc = y[i];
                for (j, yj) in y.iter().enumerate().skip(i + 1) {
                    acc -= row[j] * yj;
                }
                y[i] = acc / row[i];
            }
            for (i, yi) in y.into_iter().enumerate() {
                x[(i, c)] = yi;
            }
        }
        x
    }

    /// Deterministic pseudo-random entries in `[-1, 1)`, with roughly one
    /// in `zero_every` set to exactly zero (exercising the `m == 0` skip
    /// and the pivot search's ties). Not diagonally dominant, so rows
    /// really get interchanged.
    fn seeded(rows: usize, cols: usize, seed: u64, zero_every: u64) -> RealMatrix {
        let mut s = seed;
        RealMatrix::from_fn(rows, cols, |_, _| {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            if z.is_multiple_of(zero_every) {
                0.0
            } else {
                (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            }
        })
    }

    fn bits(m: &RealMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn row_oriented_lu_matches_reference_bitwise(
            ncols in 1usize..80,
            seed in 0u64..,
            zero_every in 3u64..40,
        ) {
            for n in [1usize, 2, 7, 24, 72] {
                let a = seeded(n, n, seed, zero_every);
                let b = seeded(n, ncols, seed ^ 0x5555, zero_every);
                let reference = reference_factorize(a.clone());
                for level in crate::simd::available_levels() {
                    let got = LuFactors::factorize_at(level, a.clone());
                    let (f, (lu_ref, perm)) = match (got, &reference) {
                        (Ok(f), Ok(r)) => (f, r),
                        (Err(e), Err(want)) => {
                            prop_assert_eq!(&e, want, "n {} level {}", n, level);
                            continue;
                        }
                        (got, _) => {
                            return Err(TestCaseError::fail(format!(
                                "n {n} level {level}: ok={} disagrees with the reference",
                                got.is_ok()
                            )));
                        }
                    };
                    prop_assert_eq!(bits(&f.lu), bits(lu_ref), "factor, n {} level {}", n, level);
                    let want = reference_solve_matrix(lu_ref, perm, &b);
                    let mut x = b.clone();
                    f.solve_matrix_inplace_at(level, x.as_mut_slice(), ncols);
                    prop_assert_eq!(bits(&x), bits(&want), "solve, n {} level {}", n, level);
                }
            }
        }
    }

    fn residual(a: &RealMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        matvec(a, x, &mut ax);
        ax.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn solve_small_hand_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let a = RealMatrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let f = LuFactors::factorize(a).unwrap();
        let x = f.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = RealMatrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = LuFactors::factorize(a.clone()).unwrap();
        let x = f.solve(&[7.0, 9.0]);
        assert!(residual(&a, &x, &[7.0, 9.0]) < 1e-14);
        assert_eq!(f.determinant(), -1.0);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = RealMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let err = LuFactors::factorize(a).unwrap_err();
        assert_eq!(err.at_column, 1);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let n = 12;
        // Diagonally dominant -> well conditioned.
        let a = RealMatrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                ((i * 7 + j * 3) as f64).sin() * 0.5
            }
        });
        let f = LuFactors::factorize(a.clone()).unwrap();
        let inv = f.inverse();
        let prod = matmul(&a, &inv);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (prod[(i, j)] - expect).abs() < 1e-10,
                    "({i},{j}) = {}",
                    prod[(i, j)]
                );
            }
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise_solves() {
        let n = 6;
        let a = RealMatrix::from_fn(n, n, |i, j| {
            if i == j { 5.0 } else { 1.0 / (1.0 + (i as f64 - j as f64).abs()) }
        });
        let b = RealMatrix::from_fn(n, 3, |i, j| (i + j) as f64);
        let f = LuFactors::factorize(a).unwrap();
        let x = f.solve_matrix(&b);
        for j in 0..3 {
            let bj = b.col(j);
            let xj = f.solve(&bj);
            for i in 0..n {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn determinant_of_triangular() {
        let a = RealMatrix::from_vec(3, 3, vec![2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0]);
        let f = LuFactors::factorize(a).unwrap();
        assert!((f.determinant() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn rcond_identity_is_one() {
        let f = LuFactors::factorize(RealMatrix::identity(5)).unwrap();
        assert_eq!(f.rcond_estimate(), 1.0);
    }

    #[test]
    fn solve_into_convenience() {
        let a = RealMatrix::from_vec(2, 2, vec![4.0, 0.0, 0.0, 2.0]);
        let b = RealMatrix::identity(2);
        let x = solve_into(a, &b).unwrap();
        assert!((x[(0, 0)] - 0.25).abs() < 1e-15);
        assert!((x[(1, 1)] - 0.5).abs() < 1e-15);
    }
}
