use crate::Matrix;

/// Online sparsity-ratio calculator — Eq. (4) of the paper.
///
/// The hardware fetches tiles, popcounts their presence bitmaps with a
/// Brent–Kung adder tree, and accumulates:
///
/// ```text
/// SR(%) = (1 − Σ popcount(tile_i) / (N_fetch · N_data_per_fetch)) · 100
/// ```
///
/// `N_data_per_fetch` grows fourfold when precision is halved because the
/// fetch size doubles while elements shrink to half width.
///
/// # Example
///
/// ```
/// use fnr_tensor::SrCalculator;
///
/// let mut sr = SrCalculator::new(64);
/// sr.feed_word(0x0000_0000_0000_00FF, 64); // 8 of 64 elements present
/// assert!((sr.sparsity_ratio() - 0.875).abs() < 1e-9);
/// assert!((sr.sparsity_pct() - 87.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SrCalculator {
    elems_per_fetch: usize,
    fetches: u64,
    popcount_total: u64,
    elems_total: u64,
}

impl SrCalculator {
    /// Creates a calculator for fetches carrying `elems_per_fetch` elements.
    pub fn new(elems_per_fetch: usize) -> Self {
        SrCalculator { elems_per_fetch, ..SrCalculator::default() }
    }

    /// Feeds one fetched presence word covering `valid_elems` elements
    /// (the final fetch of a tile may be partial).
    pub fn feed_word(&mut self, word: u64, valid_elems: usize) {
        debug_assert!(valid_elems <= 64);
        let mask = if valid_elems == 64 { u64::MAX } else { (1u64 << valid_elems) - 1 };
        self.popcount_total += (word & mask).count_ones() as u64;
        self.elems_total += valid_elems as u64;
        self.fetches += 1;
    }

    /// Feeds a whole matrix, fetch by fetch, as the memory controller would.
    pub fn feed_matrix(&mut self, m: &Matrix<i32>) {
        let mut word = 0u64;
        let mut filled = 0usize;
        for &v in m.as_slice() {
            if v != 0 {
                word |= 1 << filled;
            }
            filled += 1;
            if filled == 64 {
                self.feed_word(word, 64);
                word = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            self.feed_word(word, filled);
        }
    }

    /// Number of fetches observed so far.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Total elements observed so far.
    pub fn elems_total(&self) -> u64 {
        self.elems_total
    }

    /// Measured sparsity ratio in `[0, 1]` (0 before any data arrives).
    pub fn sparsity_ratio(&self) -> f64 {
        if self.elems_total == 0 {
            return 0.0;
        }
        1.0 - self.popcount_total as f64 / self.elems_total as f64
    }

    /// Measured sparsity ratio in percent — the value Eq. (4) produces.
    pub fn sparsity_pct(&self) -> f64 {
        self.sparsity_ratio() * 100.0
    }

    /// Resets the accumulators for the next tensor.
    pub fn reset(&mut self) {
        self.fetches = 0;
        self.popcount_total = 0;
        self.elems_total = 0;
    }

    /// Elements carried per fetch (set at construction).
    pub fn elems_per_fetch(&self) -> usize {
        self.elems_per_fetch
    }
}

/// Sparsity statistics of one tensor at one pipeline stage — the data behind
/// the paper's Fig. 13(a).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationStats {
    /// Human-readable stage label (e.g. "Input (Ray-marching)").
    pub stage: String,
    /// Measured sparsity ratio in percent.
    pub sparsity_pct: f64,
    /// Tensor shape.
    pub shape: (usize, usize),
}

impl ActivationStats {
    /// Measures a stage tensor.
    pub fn measure(stage: impl Into<String>, m: &Matrix<f32>) -> Self {
        ActivationStats {
            stage: stage.into(),
            sparsity_pct: m.sparsity() * 100.0,
            shape: (m.rows(), m.cols()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Precision};

    #[test]
    fn matches_matrix_sparsity_exactly() {
        let m = gen::random_sparse_i32(100, 77, 0.63, Precision::Int8, 21);
        let mut sr = SrCalculator::new(64);
        sr.feed_matrix(&m);
        assert!((sr.sparsity_ratio() - m.sparsity()).abs() < 1e-12);
        assert_eq!(sr.elems_total(), 7700);
    }

    #[test]
    fn partial_final_fetch_is_masked() {
        let mut sr = SrCalculator::new(64);
        // Word with garbage above the valid range must not count.
        sr.feed_word(u64::MAX, 4);
        assert_eq!(sr.elems_total(), 4);
        assert!((sr.sparsity_ratio() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut sr = SrCalculator::new(64);
        sr.feed_word(0, 64);
        assert!((sr.sparsity_pct() - 100.0).abs() < 1e-12);
        sr.reset();
        assert_eq!(sr.fetches(), 0);
        assert_eq!(sr.sparsity_ratio(), 0.0);
    }

    #[test]
    fn empty_calculator_reports_zero() {
        let sr = SrCalculator::new(64);
        assert_eq!(sr.sparsity_ratio(), 0.0);
    }

    #[test]
    fn activation_stats_capture_shape_and_sparsity() {
        let m = Matrix::from_rows(&[&[0.0f32, 1.0], &[0.0, 0.0]]);
        let s = ActivationStats::measure("ReLU 1 output", &m);
        assert_eq!(s.shape, (2, 2));
        assert!((s.sparsity_pct - 75.0).abs() < 1e-9);
        assert_eq!(s.stage, "ReLU 1 output");
    }
}
