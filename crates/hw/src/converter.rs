//! Binary stream converter and bit-serial ReLU (§V-C).
//!
//! The converter reduces a coefficient vector to a two's-complement
//! bit-serial stream (LSB first); the ReLU block buffers the stream until
//! the sign (MSB) arrives, then either forwards the buffered bits or
//! replaces them with zeros.

use crate::coeff::CoefficientVector;
use tr_obs::Counter;

/// Bit-serial streams emitted by the converter.
static STREAMS: Counter = Counter::new("hw.converter.streams");
/// Nonzero bits across emitted streams (the wire activity proxy).
static STREAM_BITS_SET: Counter = Counter::new("hw.converter.bits_set");
/// Streams zeroed by the bit-serial ReLU (negative results).
static RELU_ZEROED: Counter = Counter::new("hw.converter.relu_zeroed");

/// Width of the output stream in bits: enough for the reduced coefficient
/// vector of a 4096-length dot product (15 exponents × 12-bit counts →
/// values below 2^27), plus sign.
pub const STREAM_BITS: usize = 28;

/// Converts coefficient vectors into two's-complement bit streams.
#[derive(Debug, Clone, Default)]
pub struct BinaryStreamConverter;

impl BinaryStreamConverter {
    /// A new converter.
    pub fn new() -> BinaryStreamConverter {
        BinaryStreamConverter
    }

    /// Serialize the reduced value LSB-first as `STREAM_BITS` bits of
    /// two's complement.
    ///
    /// # Panics
    /// If the value does not fit the stream width (impossible for
    /// correctly sized schedules; the assert documents the envelope).
    pub fn convert(&self, cv: &CoefficientVector) -> Vec<bool> {
        let v = cv.reduce();
        let limit = 1i64 << (STREAM_BITS - 1);
        assert!(
            -limit <= v && v < limit,
            "value {v} exceeds the {STREAM_BITS}-bit stream envelope"
        );
        // The sign-loss cast is the modeled hardware behavior: the wire
        // carries the raw two's-complement bit pattern of the value.
        #[allow(clippy::cast_sign_loss)]
        let u = (v as u64) & ((1u64 << STREAM_BITS) - 1);
        STREAMS.inc();
        STREAM_BITS_SET.add(u64::from(u.count_ones()));
        (0..STREAM_BITS).map(|i| (u >> i) & 1 == 1).collect()
    }

    /// Decode a stream back to a signed value (test/verification helper).
    pub fn decode(stream: &[bool]) -> i64 {
        assert_eq!(stream.len(), STREAM_BITS);
        let mut u = 0u64;
        for (i, &b) in stream.iter().enumerate() {
            if b {
                u |= 1 << i;
            }
        }
        // Sign-extend.
        if stream[STREAM_BITS - 1] {
            (u | !((1u64 << STREAM_BITS) - 1)) as i64
        } else {
            u as i64
        }
    }
}

/// The bit-serial ReLU block: buffers all lower bits until the MSB (sign)
/// arrives, then outputs either the original stream or zeros.
#[derive(Debug, Clone, Default)]
pub struct ReluUnit {
    buffer: Vec<bool>,
}

impl ReluUnit {
    /// A new ReLU unit.
    pub fn new() -> ReluUnit {
        ReluUnit::default()
    }

    /// Push one bit; returns the rectified stream once the MSB arrives.
    pub fn push_bit(&mut self, bit: bool) -> Option<Vec<bool>> {
        self.buffer.push(bit);
        if self.buffer.len() == STREAM_BITS {
            let negative = self.buffer[STREAM_BITS - 1];
            if negative {
                RELU_ZEROED.inc();
            }
            let out = if negative { vec![false; STREAM_BITS] } else { std::mem::take(&mut self.buffer) };
            self.buffer.clear();
            Some(out)
        } else {
            None
        }
    }

    /// Convenience: rectify a whole stream at once.
    pub fn rectify(&mut self, stream: &[bool]) -> Vec<bool> {
        assert_eq!(stream.len(), STREAM_BITS);
        let mut out = None;
        for &b in stream {
            out = self.push_bit(b);
        }
        out.expect("full stream must produce output")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::COEFF_LEN;
    use tr_tensor::Rng;

    fn cv_of(value: i64) -> CoefficientVector {
        // Build a coefficient vector whose reduction equals `value` by
        // spreading the magnitude over exponents (stays within 12-bit
        // coefficients for the ranges used in tests).
        let mut cv = CoefficientVector::new();
        let mut mag = value.unsigned_abs();
        let neg = value < 0;
        #[allow(clippy::cast_possible_truncation)] // COEFF_LEN is 15
        let mut exp = (COEFF_LEN - 1) as u8;
        while mag > 0 {
            let unit = 1u64 << exp;
            while mag >= unit {
                cv.add_term(exp, neg);
                mag -= unit;
            }
            if exp == 0 {
                break;
            }
            exp -= 1;
        }
        cv
    }

    #[test]
    fn round_trip_positive_and_negative() {
        let conv = BinaryStreamConverter::new();
        for v in [0i64, 1, 81, -81, 12345, -12345, 16000] {
            let stream = conv.convert(&cv_of(v));
            assert_eq!(BinaryStreamConverter::decode(&stream), v, "value {v}");
        }
    }

    #[test]
    fn random_round_trips() {
        let conv = BinaryStreamConverter::new();
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            #[allow(clippy::cast_possible_truncation)] // ±~1e5 fits i64
            let v = (rng.normal() * 20000.0) as i64;
            let stream = conv.convert(&cv_of(v));
            assert_eq!(BinaryStreamConverter::decode(&stream), v);
        }
    }

    #[test]
    fn relu_zeroes_negatives() {
        let conv = BinaryStreamConverter::new();
        let mut relu = ReluUnit::new();
        let neg = conv.convert(&cv_of(-500));
        let out = relu.rectify(&neg);
        assert_eq!(BinaryStreamConverter::decode(&out), 0);
        let pos = conv.convert(&cv_of(500));
        let out = relu.rectify(&pos);
        assert_eq!(BinaryStreamConverter::decode(&out), 500);
    }

    #[test]
    fn relu_is_streaming() {
        let conv = BinaryStreamConverter::new();
        let mut relu = ReluUnit::new();
        let stream = conv.convert(&cv_of(77));
        // No output until the final (sign) bit.
        for &b in &stream[..STREAM_BITS - 1] {
            assert!(relu.push_bit(b).is_none());
        }
        let out = relu.push_bit(stream[STREAM_BITS - 1]).unwrap();
        assert_eq!(BinaryStreamConverter::decode(&out), 77);
    }
}
