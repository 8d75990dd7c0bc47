use crate::{Precision, Result, TensorError};

/// A dense row-major matrix.
///
/// `Matrix<i32>` is the working representation for quantized tensors (the
/// precision mode decides how many of the low bits are meaningful);
/// `Matrix<f32>` is used by the NeRF reference pipeline.
///
/// # Example
///
/// ```
/// use fnr_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1, 2], &[3, 4]]);
/// let b = Matrix::from_rows(&[&[5, 6], &[7, 8]]);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c.get(0, 0), 19);
/// assert_eq!(c.get(1, 1), 50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a `rows`×`cols` matrix filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![T::default(); rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices (all must share one length).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Copies the tile starting at `(row0, col0)` with shape
    /// `tile_rows`×`tile_cols`, zero-padding past the matrix edge.
    pub fn tile(&self, row0: usize, col0: usize, tile_rows: usize, tile_cols: usize) -> Self {
        let mut out = Matrix::zeros(tile_rows, tile_cols);
        for r in 0..tile_rows {
            for c in 0..tile_cols {
                if row0 + r < self.rows && col0 + c < self.cols {
                    out.set(r, c, self.get(row0 + r, col0 + c));
                }
            }
        }
        out
    }

    /// Applies `f` element-wise, producing a new matrix (possibly of another
    /// element type).
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }
}

/// Scalar glue for the shared matmul kernel: each element type brings its
/// own zero test and its own accumulate rule (`i32` saturates through a
/// 64-bit accumulator like the MAC array, `f32` adds in IEEE order).
///
/// Having one generic kernel keeps the i32 and f32 paths — previously two
/// near-identical triple loops — from drifting apart.
pub trait MacScalar: Copy + Default {
    /// Whether this element contributes nothing to a product.
    fn is_zero(self) -> bool;
    /// One multiply-accumulate step: `acc ⊕ a·b` under the type's rule.
    fn mac(acc: Self, a: Self, b: Self) -> Self;

    /// Slice-wide multiply-accumulate, `out[j] = mac(out[j], a, b[j])` in
    /// ascending `j` — the axpy stripe under both dense blocked GEMM and
    /// the CSR Gustavson kernel. The default walks the scalar rule;
    /// element types with vector kernels override it (the override must
    /// stay bit-identical to this loop — see [`crate::simd`]).
    ///
    /// # Panics
    ///
    /// May panic if the slices differ in length.
    #[inline]
    fn mac_slice(out: &mut [Self], a: Self, b: &[Self]) {
        for (o, &bv) in out.iter_mut().zip(b) {
            *o = Self::mac(*o, a, bv);
        }
    }
}

impl MacScalar for i32 {
    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline(always)]
    fn mac(acc: Self, a: Self, b: Self) -> Self {
        (acc as i64 + a as i64 * b as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }
}

impl MacScalar for f32 {
    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0.0
    }

    #[inline(always)]
    fn mac(acc: Self, a: Self, b: Self) -> Self {
        acc + a * b
    }

    #[inline]
    fn mac_slice(out: &mut [Self], a: Self, b: &[Self]) {
        crate::simd::axpy(out, a, b);
    }
}

/// Column-block width of the blocked kernel: 256 × 4-byte elements = one
/// 1 KiB output stripe that stays resident in L1 across the k loop.
const BLOCK_COLS: usize = 256;
/// Inner-dimension block depth: bounds the `B` tile touched per stripe to
/// `BLOCK_K × BLOCK_COLS` elements (64 KiB) so it survives in L1/L2.
const BLOCK_K: usize = 64;

/// Cache-blocked, slice-based matmul shared by the `i32` and `f32` paths.
///
/// For every output element the inner dimension is walked in ascending
/// order (blocks ascend, indices within a block ascend), so the result is
/// bit-identical to the naive triple loop for both the saturating integer
/// rule and IEEE float addition — only the traversal over *different*
/// outputs is reordered for locality. Zero `A` elements are skipped, which
/// is the software mirror of the accelerator never scheduling zero operands
/// onto MAC lanes.
fn matmul_blocked<T: MacScalar>(lhs: &Matrix<T>, rhs: &Matrix<T>) -> Matrix<T> {
    let (m, inner, n) = (lhs.rows, lhs.cols, rhs.cols);
    let mut out = Matrix::zeros(m, n);
    let a = &lhs.data;
    let b = &rhs.data;
    for col0 in (0..n).step_by(BLOCK_COLS) {
        let col1 = (col0 + BLOCK_COLS).min(n);
        for k0 in (0..inner).step_by(BLOCK_K) {
            let k1 = (k0 + BLOCK_K).min(inner);
            for i in 0..m {
                let a_row = &a[i * inner..(i + 1) * inner];
                let out_row = &mut out.data[i * n + col0..i * n + col1];
                for k in k0..k1 {
                    let av = a_row[k];
                    if av.is_zero() {
                        continue;
                    }
                    let b_row = &b[k * n + col0..k * n + col1];
                    T::mac_slice(out_row, av, b_row);
                }
            }
        }
    }
    out
}

/// The original get/set triple loop, kept as the oracle the property suite
/// checks the blocked and CSR kernels against.
#[cfg(test)]
fn matmul_naive<T: MacScalar>(lhs: &Matrix<T>, rhs: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(lhs.rows, rhs.cols);
    for i in 0..lhs.rows {
        for k in 0..lhs.cols {
            let a = lhs.get(i, k);
            if a.is_zero() {
                continue;
            }
            for j in 0..rhs.cols {
                out.set(i, j, T::mac(out.get(i, j), a, rhs.get(k, j)));
            }
        }
    }
    out
}

impl<T: MacScalar> Matrix<T> {
    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| !v.is_zero()).count()
    }

    /// Fraction of elements that are exactly zero, in `[0, 1]` — ReLU
    /// sparsity for `f32` activations, pruning sparsity for `i32` weights.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / self.data.len() as f64
    }

    /// The shared shape-checked product through the cache-blocked dense
    /// kernel, which skips zero `A` operands.
    fn matmul_checked(&self, rhs: &Matrix<T>) -> Result<Matrix<T>> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                expected: format!("rhs with {} rows", self.cols),
                actual: format!("rhs with {} rows", rhs.rows),
            });
        }
        Ok(matmul_blocked(self, rhs))
    }
}

impl Matrix<i32> {
    /// Checks that every element fits in `precision`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ValueOutOfRange`] on the first offending value.
    pub fn check_precision(&self, precision: Precision) -> Result<()> {
        for &v in &self.data {
            if !precision.contains(v) {
                return Err(TensorError::ValueOutOfRange { value: v, precision });
            }
        }
        Ok(())
    }

    /// Integer matrix product `self × rhs` with 64-bit accumulation,
    /// saturated back to `i32` (reference model for the MAC array, whose
    /// accumulators are wide enough in every supported mode), through the
    /// cache-blocked dense kernel at any sparsity.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix<i32>) -> Result<Matrix<i32>> {
        self.matmul_checked(rhs)
    }

    /// Iterator over `(row, col, value)` of the non-zero elements, row-major.
    pub fn iter_nonzeros(&self) -> impl Iterator<Item = (usize, usize, i32)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }
}

impl Matrix<f32> {
    /// Floating-point matrix product (reference model for GPU math),
    /// through the cache-blocked dense kernel at any sparsity. Per output
    /// element the additions happen in ascending-k order, skipping zero
    /// `A` operands, so results are bit-identical to the naive triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix<f32>) -> Result<Matrix<f32>> {
        self.matmul_checked(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::<i32>::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        m.set(2, 3, 7);
        assert_eq!(m.get(2, 3), 7);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_vec_rejects_bad_shapes() {
        assert!(Matrix::from_vec(2, 2, vec![1, 2, 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        let b = Matrix::from_rows(&[&[7, 8], &[9, 10], &[11, 12]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 58);
        assert_eq!(c.get(0, 1), 64);
        assert_eq!(c.get(1, 0), 139);
        assert_eq!(c.get(1, 1), 154);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::<i32>::zeros(2, 3);
        let b = Matrix::<i32>::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn tile_zero_pads() {
        let a = Matrix::from_rows(&[&[1, 2], &[3, 4]]);
        let t = a.tile(1, 1, 2, 2);
        assert_eq!(t.get(0, 0), 4);
        assert_eq!(t.get(1, 1), 0);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let a = Matrix::from_rows(&[&[0, 2], &[0, 0]]);
        assert_eq!(a.nnz(), 1);
        assert!((a.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iter_nonzeros_row_major() {
        let a = Matrix::from_rows(&[&[0, 5], &[7, 0]]);
        let v: Vec<_> = a.iter_nonzeros().collect();
        assert_eq!(v, vec![(0, 1, 5), (1, 0, 7)]);
    }

    #[test]
    fn precision_check() {
        let a = Matrix::from_rows(&[&[7, -8]]);
        assert!(a.check_precision(Precision::Int4).is_ok());
        let b = Matrix::from_rows(&[&[8]]);
        assert!(b.check_precision(Precision::Int4).is_err());
    }

    #[test]
    fn f32_matmul() {
        let a = Matrix::from_rows(&[&[1.0f32, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0f32], &[4.0]]);
        let c = a.matmul(&b).unwrap();
        assert!((c.get(0, 0) - 11.0).abs() < 1e-6);
    }

    fn random_f32(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            // ~30 % exact zeros so the zero-skip path is exercised too.
            *v = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-2.0f32..=2.0) };
        }
        m
    }

    #[test]
    fn blocked_kernel_saturates_like_naive() {
        // Extreme magnitudes drive the i64 accumulator past i32 in both
        // directions; the blocked kernel must clamp update-by-update
        // exactly as the naive oracle does.
        let big = i32::MAX - 3;
        let a = Matrix::from_rows(&[&[big, big, -big], &[-big, 2, big]]);
        let b = Matrix::from_rows(&[&[big, -1], &[big, big], &[3, -big]]);
        assert_eq!(a.matmul(&b).unwrap(), matmul_naive(&a, &b));
    }

    #[test]
    fn blocked_kernel_crosses_block_boundaries() {
        // Dims straddling BLOCK_K/BLOCK_COLS so multi-block traversal runs.
        let a = crate::gen::random_sparse_i32(5, BLOCK_K + 9, 0.4, Precision::Int16, 11);
        let b = crate::gen::random_sparse_i32(BLOCK_K + 9, BLOCK_COLS + 17, 0.5, Precision::Int16, 12);
        assert_eq!(matmul_blocked(&a, &b), matmul_naive(&a, &b));
    }

    #[test]
    fn sparse_dispatch_matches_dense_path() {
        // A large 95 %-sparse operand against the naive oracle.
        let a = crate::gen::random_sparse_i32(96, 96, 0.95, Precision::Int8, 21);
        let b = crate::gen::random_sparse_i32(96, 64, 0.3, Precision::Int8, 22);
        assert_eq!(a.matmul(&b).unwrap(), matmul_naive(&a, &b));
    }

    #[test]
    fn f32_sparse_dispatch_matches_dense_path() {
        // Post-ReLU-style operand: large and ≥75 % exact zeros; the f32
        // matmul must stay bit-identical to the naive oracle.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut a = Matrix::<f32>::zeros(96, 96);
        for v in a.as_mut_slice() {
            *v = if rng.gen_bool(0.92) { 0.0 } else { rng.gen_range(-2.0f32..=2.0) };
        }
        let b = random_f32(96, 64, 34);
        assert_eq!(a.matmul(&b).unwrap(), matmul_naive(&a, &b));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_blocked_i32_matches_naive_oracle(
                m in 1usize..24,
                k in 1usize..80,
                n in 1usize..300,
                sparsity in 0.0f64..1.0,
                seed in 0u64..1000,
            ) {
                let a = crate::gen::random_sparse_i32(m, k, sparsity, Precision::Int16, seed);
                let b = crate::gen::random_sparse_i32(k, n, 0.3, Precision::Int16, seed + 7);
                prop_assert_eq!(matmul_blocked(&a, &b), matmul_naive(&a, &b));
            }

            #[test]
            fn prop_blocked_f32_is_bit_identical_to_naive(
                m in 1usize..16,
                k in 1usize..80,
                n in 1usize..300,
                seed in 0u64..1000,
            ) {
                let a = random_f32(m, k, seed);
                let b = random_f32(k, n, seed + 13);
                let blocked = matmul_blocked(&a, &b);
                let naive = matmul_naive(&a, &b);
                // PartialEq on f32 is exact equality — bit-identical sums.
                prop_assert_eq!(blocked, naive);
            }

            #[test]
            fn prop_csr_gustavson_matches_naive_oracle(
                m in 1usize..24,
                k in 1usize..40,
                n in 1usize..40,
                sparsity in 0.0f64..1.0,
                seed in 0u64..1000,
            ) {
                use crate::sparse::{CsrLayout, CsrMatrix};
                let a = crate::gen::random_sparse_i32(m, k, sparsity, Precision::Int16, seed);
                let b = crate::gen::random_sparse_i32(k, n, 0.4, Precision::Int16, seed + 3);
                let expect = matmul_naive(&a, &b);
                for layout in [CsrLayout::RowMajor, CsrLayout::ColMajor] {
                    let sp = CsrMatrix::from_dense(&a, layout, Precision::Int16);
                    prop_assert_eq!(sp.matmul_dense(&b).unwrap(), expect.clone());
                }
            }
        }
    }
}
