//! The bit-serial HESE encoder unit (§V-D).
//!
//! Consumes the binary stream produced by the ReLU block one bit per
//! cycle (LSB first, with one bit of lookahead as in the Fig. 8b FSM) and
//! emits two parallel output streams: term magnitudes and term signs.
//! Functionally it must agree with the reference software encoder in
//! `tr_encoding::hese`, which the tests enforce.



/// FSM state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    NotInRun,
    InRun,
}

/// A streaming HESE encoder over a fixed input width.
#[derive(Debug, Clone)]
pub struct HeseEncoderUnit {
    width: usize,
    mode: Mode,
    /// Bits received so far (the unit needs one bit of lookahead, so it
    /// emits with one cycle of delay).
    pending: Option<bool>,
    consumed: usize,
    magnitude: Vec<bool>,
    sign: Vec<bool>,
}

impl HeseEncoderUnit {
    /// An encoder for `width`-bit inputs.
    pub fn new(width: usize) -> HeseEncoderUnit {
        HeseEncoderUnit {
            width,
            mode: Mode::NotInRun,
            pending: None,
            consumed: 0,
            magnitude: Vec::with_capacity(width + 1),
            sign: Vec::with_capacity(width + 1),
        }
    }

    /// Reset for a new value.
    pub fn reset(&mut self) {
        self.mode = Mode::NotInRun;
        self.pending = None;
        self.consumed = 0;
        self.magnitude.clear();
        self.sign.clear();
    }

    fn step(&mut self, cur: bool, next: bool) {
        let (mag, sg) = match self.mode {
            Mode::NotInRun => {
                if cur && next {
                    self.mode = Mode::InRun;
                    (true, true) // -1: run opens with a negative term
                } else if cur {
                    (true, false) // isolated +1
                } else {
                    (false, false)
                }
            }
            Mode::InRun => {
                if !cur && !next {
                    self.mode = Mode::NotInRun;
                    (true, false) // +1 closes the run
                } else if !cur && next {
                    (true, true) // isolated 0 inside the run: -1
                } else {
                    (false, false)
                }
            }
        };
        self.magnitude.push(mag);
        self.sign.push(sg);
    }

    /// Feed one input bit (LSB first). Call [`Self::finish`] after the
    /// last bit to flush the lookahead.
    pub fn push_bit(&mut self, bit: bool) {
        assert!(self.consumed < self.width, "more bits than the configured width");
        if let Some(prev) = self.pending.replace(bit) {
            self.step(prev, bit);
        }
        self.consumed += 1;
    }

    /// Flush: processes the final bit (lookahead 0) and the one-past-MSB
    /// position, returning the `(magnitude, sign)` streams of length
    /// `width + 1`.
    pub fn finish(mut self) -> (Vec<bool>, Vec<bool>) {
        assert_eq!(self.consumed, self.width, "finish before all bits consumed");
        if let Some(prev) = self.pending.take() {
            self.step(prev, false);
        }
        // Position `width` (cur = 0, next = 0): closes any open run.
        self.step(false, false);
        (self.magnitude, self.sign)
    }

    /// Encode a whole value at once (convenience wrapper over the
    /// bit-serial interface).
    pub fn encode(width: usize, value: u32) -> (Vec<bool>, Vec<bool>) {
        let mut unit = HeseEncoderUnit::new(width);
        for i in 0..width {
            unit.push_bit((value >> i) & 1 == 1);
        }
        unit.finish()
    }
}

/// Decode magnitude/sign streams back into a signed value (verification).
pub fn decode_streams(magnitude: &[bool], sign: &[bool]) -> i64 {
    magnitude
        .iter()
        .zip(sign)
        .enumerate()
        .map(|(i, (&m, &s))| {
            if !m {
                0
            } else if s {
                -(1i64 << i)
            } else {
                1i64 << i
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_encoding::hese::hese_width;

    #[test]
    fn matches_reference_encoder_exhaustively() {
        for v in 0u32..=255 {
            let (mag, sign) = HeseEncoderUnit::encode(8, v);
            assert_eq!(decode_streams(&mag, &sign), v as i64, "value {v}");
            let reference = hese_width(v, 8);
            let weight = mag.iter().filter(|&&b| b).count();
            assert_eq!(weight, reference.weight(), "weight mismatch for {v}");
        }
    }

    #[test]
    fn paper_example_31() {
        // §V-D: 31 -> 2^5 - 2^0.
        let (mag, sign) = HeseEncoderUnit::encode(8, 31);
        assert_eq!(decode_streams(&mag, &sign), 31);
        assert!(mag[5] && !sign[5]);
        assert!(mag[0] && sign[0]);
        assert_eq!(mag.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn one_output_digit_per_cycle() {
        // width + 1 output positions for width input bits.
        let (mag, sign) = HeseEncoderUnit::encode(8, 170);
        assert_eq!(mag.len(), 9);
        assert_eq!(sign.len(), 9);
    }

    #[test]
    #[should_panic(expected = "more bits")]
    fn rejects_extra_bits() {
        let mut unit = HeseEncoderUnit::new(2);
        unit.push_bit(true);
        unit.push_bit(false);
        unit.push_bit(true);
    }
}
