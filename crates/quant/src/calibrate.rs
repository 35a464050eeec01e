//! Calibration: choosing the fixed-point scale for a tensor.

use crate::errors::QuantError;
use tr_tensor::Tensor;

/// Parameters of a symmetric uniform quantizer.
///
/// A float `x` maps to the integer code `round(x / scale)` clamped to
/// `[-qmax, qmax]` with `qmax = 2^(bits-1) - 1`. Symmetric (zero-point-free)
/// quantization is what the paper assumes: codes are sign-magnitude values
/// whose magnitudes have at most `bits - 1` binary terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value of one integer step.
    pub scale: f32,
    /// Total bit width, including the sign bit (4–8 in the paper).
    pub bits: u8,
}

impl QuantParams {
    /// Largest representable code magnitude (`2^(bits-1) - 1`).
    pub fn qmax(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Maximum number of magnitude terms under plain binary encoding
    /// (`bits - 1`; 7 for the paper's 8-bit setting).
    pub fn max_terms(&self) -> usize {
        self.bits as usize - 1
    }

    /// Quantize one value to its integer code.
    #[inline]
    pub fn code(&self, x: f32) -> i32 {
        if self.scale == 0.0 {
            return 0;
        }
        // `(x / scale).round()` (half away from zero) clamped to ±qmax,
        // without the `roundf` library call that dominated the
        // per-element cost. The saturating cast truncates toward zero
        // (NaN to 0, ±inf to the i32 extremes, as `round() as i64` does
        // before its clamp); the remainder `y - t` is exact (Sterbenz
        // for 1 ≤ |y| < 2^31, `y` itself below 1, 0 once `y` is an
        // integer), so comparing it with ±0.5 takes the rounding step
        // exactly, and the saturating step keeps the extremes in range.
        let qmax = self.qmax();
        let y = x / self.scale;
        #[allow(clippy::cast_possible_truncation)]
        let t = y as i32;
        let rem = y - t as f32;
        t.saturating_add(i32::from(rem >= 0.5))
            .saturating_sub(i32::from(rem <= -0.5))
            .clamp(-qmax, qmax)
    }

    /// Real value of an integer code.
    #[inline]
    pub fn real(&self, code: i32) -> f32 {
        code as f32 * self.scale
    }
}

/// Max-abs calibration: the scale that maps the largest-magnitude element
/// to the largest code. This is the layerwise post-training procedure the
/// paper applies before TR (§VI, citing Lee et al. 2018).
///
/// # Panics
/// If `bits` is not in `2..=16`. Use [`try_calibrate_max_abs`] to get a
/// `Result` instead.
pub fn calibrate_max_abs(t: &Tensor, bits: u8) -> QuantParams {
    match try_calibrate_max_abs(t, bits) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`calibrate_max_abs`]: rejects an unsupported bit width
/// instead of panicking.
pub fn try_calibrate_max_abs(t: &Tensor, bits: u8) -> Result<QuantParams, QuantError> {
    if !(2..=16).contains(&bits) {
        return Err(QuantError::UnsupportedBitWidth(bits));
    }
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let max_abs = t.max_abs();
    let scale = if max_abs == 0.0 { 0.0 } else { max_abs / qmax };
    Ok(QuantParams { scale, bits })
}

/// Percentile calibration: clip the top `(1 - pct)` fraction of magnitudes
/// before computing the scale. Useful for activation tensors with heavy
/// tails; `pct = 1.0` degenerates to max-abs.
///
/// # Panics
/// If `pct` is not in `(0, 1]` or `bits` is out of range. Use
/// [`try_calibrate_percentile`] to get a `Result` instead.
pub fn calibrate_percentile(t: &Tensor, bits: u8, pct: f64) -> QuantParams {
    match try_calibrate_percentile(t, bits, pct) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`calibrate_percentile`]: rejects an unsupported bit width
/// or out-of-range percentile instead of panicking.
pub fn try_calibrate_percentile(t: &Tensor, bits: u8, pct: f64) -> Result<QuantParams, QuantError> {
    if !(2..=16).contains(&bits) {
        return Err(QuantError::UnsupportedBitWidth(bits));
    }
    if !(pct > 0.0 && pct <= 1.0) {
        #[allow(clippy::cast_possible_truncation)] // ppm of a small float
        return Err(QuantError::InvalidPercentile((pct * 1e6) as i64));
    }
    if t.numel() == 0 {
        return Ok(QuantParams { scale: 0.0, bits });
    }
    let mut mags: Vec<f32> = t.data().iter().map(|x| x.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // pct ∈ (0, 1] was checked above, so the product is a small positive
    // float and the clamp pins the index into range.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = ((pct * mags.len() as f64).ceil() as usize).clamp(1, mags.len()) - 1;
    let clip = mags[idx];
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let scale = if clip == 0.0 { 0.0 } else { clip / qmax };
    Ok(QuantParams { scale, bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_tensor::Shape;

    #[test]
    fn qmax_per_bitwidth() {
        assert_eq!(QuantParams { scale: 1.0, bits: 8 }.qmax(), 127);
        assert_eq!(QuantParams { scale: 1.0, bits: 4 }.qmax(), 7);
        assert_eq!(QuantParams { scale: 1.0, bits: 8 }.max_terms(), 7);
    }

    #[test]
    fn max_abs_maps_extreme_to_qmax() {
        let t = Tensor::from_vec(vec![0.1, -2.0, 1.0], Shape::d1(3));
        let p = calibrate_max_abs(&t, 8);
        assert_eq!(p.code(-2.0), -127);
        assert_eq!(p.code(2.0), 127);
        assert!((p.real(p.code(1.0)) - 1.0).abs() < 2.0 * p.scale);
    }

    #[test]
    fn code_clamps_out_of_range() {
        let p = QuantParams { scale: 0.01, bits: 8 };
        assert_eq!(p.code(100.0), 127);
        assert_eq!(p.code(-100.0), -127);
    }

    /// The library-call-free rounding in `code` is exactly
    /// `(x / scale).round()` saturated to ±qmax: every half-step around
    /// every code, both saturation edges, non-finite inputs, and a
    /// stride through all f32 bit patterns.
    #[test]
    #[allow(clippy::cast_possible_truncation)]
    fn code_matches_round_then_clamp_exactly() {
        let reference = |p: &QuantParams, x: f32| -> i32 {
            let q = (x / p.scale).round() as i64;
            q.clamp(-i64::from(p.qmax()), i64::from(p.qmax())) as i32
        };
        let mut xs: Vec<f32> = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        for bits in [2u8, 4, 8, 12, 16] {
            for scale in [1.0f32, 0.37, 1.0 / 127.0, 3e-5, 7.5e3] {
                let p = QuantParams { scale, bits };
                let edge = p.qmax() + 2;
                let mut local = Vec::new();
                for h in -2 * edge..=2 * edge {
                    let x = h as f32 * 0.5 * scale;
                    local.extend([x, f32::from_bits(x.to_bits() + 1), f32::from_bits(x.to_bits().max(1) - 1)]);
                }
                for &x in xs.iter().chain(&local) {
                    assert_eq!(p.code(x), reference(&p, x), "bits {bits} scale {scale} x {x:e}");
                }
            }
        }
    }

    #[test]
    fn zero_tensor_gets_zero_scale() {
        let t = Tensor::zeros(Shape::d1(4));
        let p = calibrate_max_abs(&t, 8);
        assert_eq!(p.scale, 0.0);
        assert_eq!(p.code(5.0), 0);
    }

    #[test]
    fn percentile_clips_tail() {
        let mut data = vec![0.1f32; 99];
        data.push(100.0);
        let t = Tensor::from_vec(data, Shape::d1(100));
        let clipped = calibrate_percentile(&t, 8, 0.99);
        let full = calibrate_max_abs(&t, 8);
        assert!(clipped.scale < full.scale / 100.0);
        // pct = 1.0 degenerates to max-abs.
        let p1 = calibrate_percentile(&t, 8, 1.0);
        assert_eq!(p1.scale, full.scale);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let t = Tensor::from_vec(vec![0.33, -0.77, 0.5, 0.01], Shape::d1(4));
        let p = calibrate_max_abs(&t, 8);
        for &x in t.data() {
            let err = (p.real(p.code(x)) - x).abs();
            assert!(err <= p.scale / 2.0 + 1e-6, "err {err} for {x}");
        }
    }
}
