//! Quantized tensors.

use crate::calibrate::QuantParams;
use crate::errors::QuantError;
use tr_tensor::{Shape, Tensor};

/// A tensor of integer codes with its quantizer parameters.
///
/// Codes are stored as `i32` for arithmetic convenience; their magnitudes
/// always fit the configured bit width. Note that, as the paper stresses
/// (§II-A), Term Revealing never changes this storage format — weights
/// stay 8-bit fixed-point; TR only restricts which *terms* of these codes
/// participate in computation.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    values: Vec<i32>,
    params: QuantParams,
    shape: Shape,
}

impl QTensor {
    /// Build from raw codes.
    ///
    /// # Panics
    /// If the element count mismatches or any code exceeds the bit width.
    /// Use [`QTensor::try_from_codes`] to get a `Result` instead.
    pub fn from_codes(values: Vec<i32>, params: QuantParams, shape: Shape) -> QTensor {
        match QTensor::try_from_codes(values, params, shape) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`QTensor::from_codes`]: rejects a count/shape mismatch
    /// or an out-of-range code instead of panicking.
    pub fn try_from_codes(
        values: Vec<i32>,
        params: QuantParams,
        shape: Shape,
    ) -> Result<QTensor, QuantError> {
        if values.len() != shape.numel() {
            return Err(QuantError::CodeCountMismatch {
                codes: values.len(),
                expected: shape.numel(),
            });
        }
        let qmax = params.qmax();
        if let Some(&bad) = values.iter().find(|v| v.abs() > qmax) {
            return Err(QuantError::CodeOutOfRange { code: bad, bits: params.bits });
        }
        Ok(QTensor { values, params, shape })
    }

    /// The integer codes.
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Mutable access to the codes (used by term truncation).
    pub fn values_mut(&mut self) -> &mut [i32] {
        &mut self.values
    }

    /// The quantizer parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.values.len()
    }

    /// Map back to real values.
    pub fn dequantize(&self) -> Tensor {
        let data = self.values.iter().map(|&v| self.params.real(v)).collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Matrix view `(rows, cols)` with leading dims folded into rows.
    pub fn as_matrix(&self) -> (usize, usize) {
        self.shape.as_matrix()
    }

    /// Borrow row `r` of the matrix view.
    pub fn row(&self, r: usize) -> &[i32] {
        let (rows, cols) = self.as_matrix();
        assert!(r < rows, "row {r} out of range ({rows} rows)");
        &self.values[r * cols..(r + 1) * cols]
    }

    /// Integer matmul: `self (M,K) @ other (K,N)`, returning exact `i64`
    /// accumulators. This is the reference semantics that both the TR
    /// kernel and the hardware simulator must reproduce when no terms are
    /// pruned.
    pub fn matmul_i64(&self, other: &QTensor) -> Vec<i64> {
        match self.try_matmul_i64(other) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`QTensor::matmul_i64`]: rejects disagreeing reduction
    /// dimensions instead of panicking.
    pub fn try_matmul_i64(&self, other: &QTensor) -> Result<Vec<i64>, QuantError> {
        let (m, k) = self.as_matrix();
        let (k2, n) = other.as_matrix();
        if k != k2 {
            return Err(QuantError::DimMismatch { left: k, right: k2 });
        }
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            let arow = &self.values[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in arow.iter().enumerate() {
                if a != 0 {
                    let brow = &other.values[kk * n..(kk + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += a as i64 * b as i64;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Quantize a float tensor with the given parameters.
pub fn quantize(t: &Tensor, params: QuantParams) -> QTensor {
    let mut values = vec![0; t.numel()];
    params.code_into(t.data(), &mut values);
    QTensor { values, params, shape: t.shape().clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate_max_abs;
    use tr_tensor::Rng;

    #[test]
    fn quantize_dequantize_round_trip() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Tensor::randn(Shape::d2(16, 16), 0.5, &mut rng);
        let q = quantize(&t, calibrate_max_abs(&t, 8));
        let back = q.dequantize();
        assert!(t.rel_l2(&back) < 0.01, "rel err {}", t.rel_l2(&back));
    }

    #[test]
    fn lower_bits_mean_higher_error() {
        let mut rng = Rng::seed_from_u64(2);
        let t = Tensor::randn(Shape::d2(32, 32), 0.5, &mut rng);
        let mut prev = f32::INFINITY;
        for bits in [4u8, 6, 8] {
            let q = quantize(&t, calibrate_max_abs(&t, bits));
            let err = t.rel_l2(&q.dequantize());
            assert!(err < prev, "error not decreasing at {bits} bits");
            prev = err;
        }
    }

    #[test]
    fn integer_matmul_matches_float_path() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::randn(Shape::d2(4, 8), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(8, 5), 1.0, &mut rng);
        let qa = quantize(&a, calibrate_max_abs(&a, 8));
        let qb = quantize(&b, calibrate_max_abs(&b, 8));
        let out = qa.matmul_i64(&qb);
        let scale = qa.params().scale * qb.params().scale;
        let fl = qa.dequantize().matmul(&qb.dequantize());
        for (o, f) in out.iter().zip(fl.data()) {
            assert!((*o as f32 * scale - f).abs() < 1e-3, "{o} vs {f}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 8-bit range")]
    fn from_codes_validates_range() {
        QTensor::from_codes(vec![128], QuantParams { scale: 1.0, bits: 8 }, Shape::d1(1));
    }

    #[test]
    fn try_from_codes_reports_errors() {
        use crate::errors::QuantError;
        let p = QuantParams { scale: 1.0, bits: 8 };
        let bad_range = QTensor::try_from_codes(vec![128], p, Shape::d1(1));
        assert_eq!(bad_range.unwrap_err(), QuantError::CodeOutOfRange { code: 128, bits: 8 });
        let bad_count = QTensor::try_from_codes(vec![1, 2], p, Shape::d1(3));
        assert_eq!(bad_count.unwrap_err(), QuantError::CodeCountMismatch { codes: 2, expected: 3 });
        assert!(QTensor::try_from_codes(vec![1, 2, 3], p, Shape::d1(3)).is_ok());
    }

    #[test]
    fn try_matmul_rejects_dim_mismatch() {
        let p = QuantParams { scale: 1.0, bits: 8 };
        let a = QTensor::from_codes(vec![1, 2], p, Shape::d2(1, 2));
        let b = QTensor::from_codes(vec![1, 2, 3], p, Shape::d2(3, 1));
        assert!(a.try_matmul_i64(&b).is_err());
    }

    #[test]
    fn row_access() {
        let q = QTensor::from_codes(
            vec![1, 2, 3, 4, 5, 6],
            QuantParams { scale: 1.0, bits: 8 },
            Shape::d2(2, 3),
        );
        assert_eq!(q.row(1), &[4, 5, 6]);
    }
}
