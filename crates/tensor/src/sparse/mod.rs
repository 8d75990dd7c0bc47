//! Concrete sparse-matrix representations with real encoders and decoders.
//!
//! Unlike [`crate::SparsityFormat::footprint_bits`], which is the *analytic*
//! model used by the online format selector, these types actually hold the
//! compressed data, support round-trip conversion with [`crate::Matrix`], and
//! report their measured footprint — the two must agree, which is checked by
//! tests and by the Fig. 7 bench (measured vs analytic).

mod bitmap;
mod coo;
mod csr;

pub use bitmap::BitmapMatrix;
pub use coo::CooMatrix;
pub use csr::{CsrLayout, CsrMatrix};

use crate::{Matrix, Precision, SparsityFormat};

/// A matrix encoded in any of the four formats of the paper.
///
/// This is the value produced by the flexible format encoder: the variant is
/// chosen per tile from the measured sparsity ratio and the precision mode.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedMatrix {
    /// Uncompressed dense storage.
    Dense(Matrix<i32>),
    /// Coordinate-list encoding.
    Coo(CooMatrix),
    /// Compressed sparse row/column encoding.
    CscCsr(CsrMatrix),
    /// Bitmap encoding.
    Bitmap(BitmapMatrix),
}

impl EncodedMatrix {
    /// Encodes `m` in the requested format at the given precision.
    pub fn encode(m: &Matrix<i32>, format: SparsityFormat, precision: Precision) -> Self {
        match format {
            SparsityFormat::None => EncodedMatrix::Dense(m.clone()),
            SparsityFormat::Coo => EncodedMatrix::Coo(CooMatrix::from_dense(m, precision)),
            SparsityFormat::CscCsr => {
                EncodedMatrix::CscCsr(CsrMatrix::from_dense(m, CsrLayout::RowMajor, precision))
            }
            SparsityFormat::Bitmap => {
                EncodedMatrix::Bitmap(BitmapMatrix::from_dense(m, precision))
            }
        }
    }

    /// Encodes `m` in the footprint-optimal format for its measured sparsity.
    pub fn encode_optimal(m: &Matrix<i32>, precision: Precision) -> Self {
        let format =
            SparsityFormat::optimal_for_tile(m.rows(), m.cols(), m.sparsity(), precision);
        Self::encode(m, format, precision)
    }

    /// The format tag of this encoding.
    pub fn format(&self) -> SparsityFormat {
        match self {
            EncodedMatrix::Dense(_) => SparsityFormat::None,
            EncodedMatrix::Coo(_) => SparsityFormat::Coo,
            EncodedMatrix::CscCsr(_) => SparsityFormat::CscCsr,
            EncodedMatrix::Bitmap(_) => SparsityFormat::Bitmap,
        }
    }

    /// Decodes back to dense form.
    pub fn to_dense(&self) -> Matrix<i32> {
        match self {
            EncodedMatrix::Dense(m) => m.clone(),
            EncodedMatrix::Coo(m) => m.to_dense(),
            EncodedMatrix::CscCsr(m) => m.to_dense(),
            EncodedMatrix::Bitmap(m) => m.to_dense(),
        }
    }

    /// Measured storage footprint in bits (data + metadata, exactly what the
    /// hardware would store).
    pub fn footprint_bits(&self) -> u64 {
        match self {
            EncodedMatrix::Dense(m) => {
                // Dense stores every element at the encoding precision; the
                // precision travels with the compressed types, dense infers
                // from shape only when asked through `SparsityFormat`.
                // Dense footprint is shape × bits; use i32 matrix shape with
                // 16-bit default is ambiguous, so EncodedMatrix::Dense keeps
                // no precision — callers should use `footprint_bits_at`.
                (m.len() as u64) * 32
            }
            EncodedMatrix::Coo(m) => m.footprint_bits(),
            EncodedMatrix::CscCsr(m) => m.footprint_bits(),
            EncodedMatrix::Bitmap(m) => m.footprint_bits(),
        }
    }

    /// Measured footprint in bits with an explicit element precision for the
    /// dense case (compressed variants already know their precision).
    pub fn footprint_bits_at(&self, precision: Precision) -> u64 {
        match self {
            EncodedMatrix::Dense(m) => (m.len() as u64) * precision.bits() as u64,
            other => other.footprint_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> Matrix<i32> {
        gen::random_sparse_i32(16, 16, 0.7, Precision::Int8, 7)
    }

    #[test]
    fn every_format_roundtrips() {
        let m = sample();
        for f in SparsityFormat::ALL {
            let enc = EncodedMatrix::encode(&m, f, Precision::Int8);
            assert_eq!(enc.format(), f);
            assert_eq!(enc.to_dense(), m, "format {f} must round-trip");
        }
    }

    #[test]
    fn optimal_encoding_matches_selector() {
        let m = sample();
        let enc = EncodedMatrix::encode_optimal(&m, Precision::Int8);
        let expected =
            SparsityFormat::optimal_for_tile(m.rows(), m.cols(), m.sparsity(), Precision::Int8);
        assert_eq!(enc.format(), expected);
    }

    #[test]
    fn measured_footprint_matches_analytic_model() {
        let m = sample();
        for f in SparsityFormat::ALL {
            let enc = EncodedMatrix::encode(&m, f, Precision::Int8);
            let analytic = f.footprint_bits(m.rows(), m.cols(), m.nnz(), Precision::Int8);
            assert_eq!(
                enc.footprint_bits_at(Precision::Int8),
                analytic,
                "measured footprint must equal the analytic model for {f}"
            );
        }
    }
}
