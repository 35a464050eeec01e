//! # tr-encoding
//!
//! Power-of-two **term** encodings of fixed-point values, as used by Term
//! Revealing (Kung, McDanel & Zhang, SC 2020).
//!
//! The paper defines a *term* as a nonzero signed power-of-two in the
//! expansion of a quantized value: the 8-bit value `5 = 0b101` has two
//! terms, `2^2 + 2^0`. Everything TR does — ranking terms in a group,
//! pruning below a waterline, counting term-pair multiplications — happens
//! on these expansions, so this crate is the vocabulary of the whole
//! workspace. It provides:
//!
//! * [`Term`] / [`TermExpr`] — a signed power-of-two and a value's term list;
//! * [`Sdr`] — a signed-digit representation with digits in `{-1, 0, 1}`;
//! * [`binary_terms`] — the plain binary expansion (nonnegative terms only);
//! * [`booth_radix4`] — classic Booth radix-4 recoding (§IV-A);
//! * [`naf`] — the non-adjacent form, the textbook *minimal-weight* SDR,
//!   used as the ground truth that HESE achieves the theoretical minimum
//!   number of terms;
//! * [`hese`] — **HESE** (Hybrid Encoding for Shortened Expressions), the
//!   paper's one-pass, two-bit-window FSM (§IV-B, Fig. 8a/8b);
//! * [`hese::hese_streams`] — the bit-serial (magnitude, sign) stream pair
//!   produced by the hardware HESE encoder (§V-D);
//! * [`stats`] — term-count distributions and CDFs (Fig. 8c);
//! * [`TermTable`] — every 8-bit code's terms under one encoding, built
//!   once and read on the hot paths instead of re-encoding per value.
//!
//! ```
//! use tr_encoding::{hese, naf, Encoding};
//!
//! // 27 = 0b11011. Booth needs 4 terms; HESE finds the 3-term minimum
//! // 2^5 - 2^2 - 2^0 (the paper's §IV-A example).
//! let e = hese(27);
//! assert_eq!(e.value(), 27);
//! assert_eq!(e.weight(), 3);
//! assert_eq!(e.weight(), naf(27).weight());
//! assert_eq!(Encoding::Hese.terms_of(27).len(), 3);
//! ```

pub mod arith;
pub mod binary;
pub mod booth;
pub mod hese;
pub mod naf;
pub mod sdr;
pub mod stats;
pub mod table;
pub mod term;

pub use binary::binary_terms;
pub use booth::booth_radix4;
pub use hese::{hese, hese_width, minimize_sdr, minimize_sdr_rewrite};
pub use naf::naf;
pub use sdr::Sdr;
pub use stats::{term_count_histogram, TermCdf};
pub use table::{CodeTerms, TermTable, TABLE_MAX_TERMS, TABLE_RANGE};
pub use term::{Term, TermExpr};

/// The encodings compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Plain binary: every set bit of the magnitude is a term.
    Binary,
    /// Booth radix-4 recoding.
    BoothRadix4,
    /// Non-adjacent form (minimal-weight reference).
    Naf,
    /// The paper's HESE encoder (minimal weight, one pass).
    Hese,
}

impl Encoding {
    /// All four encodings, in the order the paper plots them.
    pub const ALL: [Encoding; 4] =
        [Encoding::Binary, Encoding::BoothRadix4, Encoding::Naf, Encoding::Hese];

    /// Encode a signed value and return its terms, most-significant first.
    pub fn terms_of(self, value: i32) -> TermExpr {
        let mag = value.unsigned_abs();
        let expr = match self {
            Encoding::Binary => binary_terms(mag),
            Encoding::BoothRadix4 => booth_radix4(mag).to_terms(),
            Encoding::Naf => naf(mag).to_terms(),
            Encoding::Hese => hese(mag).to_terms(),
        };
        if value < 0 {
            expr.negated()
        } else {
            expr
        }
    }

    /// Number of terms used to encode `value`.
    pub fn weight_of(self, value: i32) -> usize {
        let mag = value.unsigned_abs();
        match self {
            Encoding::Binary => mag.count_ones() as usize,
            Encoding::BoothRadix4 => booth_radix4(mag).weight(),
            Encoding::Naf => naf(mag).weight(),
            Encoding::Hese => hese(mag).weight(),
        }
    }

    /// Short display name used by the experiment harness.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Binary => "binary",
            Encoding::BoothRadix4 => "booth-r4",
            Encoding::Naf => "naf",
            Encoding::Hese => "hese",
        }
    }
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_reconstruct_signed_values() {
        for v in -300i32..=300 {
            for enc in Encoding::ALL {
                let terms = enc.terms_of(v);
                assert_eq!(terms.value(), v as i64, "{enc} failed on {v}");
            }
        }
    }

    #[test]
    fn weight_matches_terms_len() {
        for v in -300i32..=300 {
            for enc in Encoding::ALL {
                assert_eq!(enc.weight_of(v), enc.terms_of(v).len(), "{enc} on {v}");
            }
        }
    }

    #[test]
    fn paper_example_27() {
        // §IV-A: Booth (radix-2 recoding, the paper's worked example)
        // turns 27 into 4 terms; the minimum-length encoding has 3.
        // HESE and NAF both achieve it.
        assert_eq!(Encoding::Binary.weight_of(27), 4);
        assert_eq!(booth::booth_radix2(27).weight(), 4);
        assert_eq!(Encoding::Naf.weight_of(27), 3);
        assert_eq!(Encoding::Hese.weight_of(27), 3);
    }

    #[test]
    fn paper_example_30() {
        // §IV-A: 30 = 2^4+2^3+2^2+2^1 in binary, but 2^5 - 2^1 signed.
        assert_eq!(Encoding::Binary.weight_of(30), 4);
        assert_eq!(Encoding::Hese.weight_of(30), 2);
    }
}
