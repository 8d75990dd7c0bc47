//! Seeded generators for sparse workloads.
//!
//! Every generator takes an explicit seed so experiments are reproducible
//! bit-for-bit; the bench harness fixes seeds per figure.

use crate::{Matrix, Precision};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random integer matrix with *exactly* `round(len · sparsity)` zeros,
/// non-zero values drawn uniformly from the precision's non-zero range.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]`.
pub fn random_sparse_i32(
    rows: usize,
    cols: usize,
    sparsity: f64,
    precision: Precision,
    seed: u64,
) -> Matrix<i32> {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity {sparsity} outside [0,1]");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rows * cols;
    let nnz = ((n as f64) * (1.0 - sparsity)).round() as usize;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    let mut m = Matrix::zeros(rows, cols);
    let (lo, hi) = precision.range();
    for &i in idx.iter().take(nnz) {
        let mut v = 0;
        while v == 0 {
            v = rng.gen_range(lo..=hi);
        }
        m.as_mut_slice()[i] = v;
    }
    m
}

/// Random dense f32 matrix with entries in `[-scale, scale]`.
pub fn random_f32(rows: usize, cols: usize, scale: f32, seed: u64) -> Matrix<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-scale..=scale);
    }
    m
}

/// Applies *structured pruning* to a dense integer matrix: whole rows are
/// zeroed until the target fraction of rows is pruned (the x-axis of the
/// paper's Fig. 19, "numbers in parentheses indicate the pruning ratio").
///
/// Rows are ranked by L1 magnitude, smallest pruned first — the standard
/// magnitude-based structured-pruning criterion.
pub fn structured_prune_rows(m: &Matrix<i32>, prune_ratio: f64) -> Matrix<i32> {
    assert!((0.0..=1.0).contains(&prune_ratio), "prune ratio {prune_ratio} outside [0,1]");
    let n_prune = ((m.rows() as f64) * prune_ratio).round() as usize;
    let mut mags: Vec<(usize, i64)> = (0..m.rows())
        .map(|r| (r, m.row(r).iter().map(|&v| (v as i64).abs()).sum()))
        .collect();
    mags.sort_by_key(|&(_, mag)| mag);
    let mut out = m.clone();
    for &(r, _) in mags.iter().take(n_prune) {
        for c in 0..m.cols() {
            out.set(r, c, 0);
        }
    }
    out
}

/// Per-row sparsity profile typical of post-ReLU activations: each row gets
/// an independent sparsity drawn from `base ± jitter`, clamped to `[0, 0.99]`.
pub fn relu_activation_like(
    rows: usize,
    cols: usize,
    base_sparsity: f64,
    jitter: f64,
    seed: u64,
) -> Matrix<i32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let s = (base_sparsity + rng.gen_range(-jitter..=jitter)).clamp(0.0, 0.99);
        let nnz = ((cols as f64) * (1.0 - s)).round() as usize;
        let mut idx: Vec<usize> = (0..cols).collect();
        idx.shuffle(&mut rng);
        for &c in idx.iter().take(nnz) {
            // ReLU outputs are non-negative.
            m.set(r, c, rng.gen_range(1..=127));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sparsity() {
        for s in [0.0, 0.3, 0.5, 0.9, 0.999, 1.0] {
            let m = random_sparse_i32(64, 64, s, Precision::Int16, 9);
            let expected_nnz = ((64.0 * 64.0) * (1.0 - s)).round() as usize;
            assert_eq!(m.nnz(), expected_nnz, "sparsity {s}");
        }
    }

    #[test]
    fn values_fit_precision() {
        for p in Precision::INT_MODES {
            let m = random_sparse_i32(32, 32, 0.5, p, 3);
            assert!(m.check_precision(p).is_ok());
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_sparse_i32(16, 16, 0.4, Precision::Int8, 42);
        let b = random_sparse_i32(16, 16, 0.4, Precision::Int8, 42);
        assert_eq!(a, b);
        let c = random_sparse_i32(16, 16, 0.4, Precision::Int8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn structured_prune_zeroes_whole_rows() {
        let m = random_sparse_i32(10, 8, 0.0, Precision::Int8, 5);
        let p = structured_prune_rows(&m, 0.3);
        let zero_rows = (0..10).filter(|&r| p.row(r).iter().all(|&v| v == 0)).count();
        assert_eq!(zero_rows, 3);
        assert!((p.sparsity() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn prune_removes_smallest_rows_first() {
        let mut m = Matrix::<i32>::zeros(3, 2);
        m.set(0, 0, 100);
        m.set(1, 0, 1);
        m.set(2, 0, 50);
        let p = structured_prune_rows(&m, 0.34);
        assert_eq!(p.get(1, 0), 0, "smallest-magnitude row pruned");
        assert_eq!(p.get(0, 0), 100);
        assert_eq!(p.get(2, 0), 50);
    }

    #[test]
    fn relu_like_is_nonnegative_and_near_target() {
        let m = relu_activation_like(128, 64, 0.5, 0.1, 11);
        assert!(m.as_slice().iter().all(|&v| v >= 0));
        assert!((m.sparsity() - 0.5).abs() < 0.08);
    }
}
