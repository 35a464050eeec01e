//! The code-term table: every small code's terms, encoded once.
//!
//! The hardware HESE encoder of §V-D turns each data value into its terms
//! on the fly in a few gates. In software the per-value encoder builds a
//! [`TermExpr`](crate::TermExpr) on the heap, which on the activation
//! path — one encode per element of every layer input — costs far more
//! than the arithmetic it feeds. Yet an 8-bit quantizer emits at most 255
//! distinct magnitudes, so the encoding of every code the activation path
//! can see fits in a small table: [`TermTable`] holds, for each code `v`
//! with `|v| ≤ 255`, the terms of [`Encoding::terms_of`]`(v)` in the same
//! most-significant-first order. That range covers all 8-bit codes
//! (`±127`) plus `±128`, the value HESE truncation rounds
//! `127 = 2^7 - 2^0` up to, with room for 9-bit codes as well. Codes
//! beyond it (wider QT operands) go through the encoder as before.
//!
//! Each entry is stored in the form the packed term planes use — an
//! exponent array and a sign mask — next to the running sums of its
//! leading terms, so packing a code is a fixed-size copy and a top-`k`
//! truncation is a single load.
//!
//! The table is built lazily, once per encoding, by calling the encoder
//! itself, and lives inline in a `static` — no heap allocation on build
//! or lookup. Because every entry *is* the encoder's output, reading the
//! table instead of encoding is bit-identical by construction; the
//! workspace's equivalence tests (`tests/packed_equivalence.rs`, tr-quant's
//! property tests) check it exhaustively anyway.

use crate::term::Term;
use crate::Encoding;
use std::sync::OnceLock;

/// Largest code magnitude the table covers.
pub const TABLE_RANGE: i32 = 255;

/// Most terms any encoding uses for a code within [`TABLE_RANGE`]
/// (binary `255 = 2^7 + … + 2^0`).
pub const TABLE_MAX_TERMS: usize = 8;

/// Number of table slots, one per code in `-TABLE_RANGE..=TABLE_RANGE`.
#[allow(clippy::cast_sign_loss)] // a positive constant
const SLOTS: usize = 2 * TABLE_RANGE as usize + 1;

/// One code's terms in plane form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeTerms {
    /// Exponents, most significant first; slots past `len` are 0.
    pub exps: [u8; TABLE_MAX_TERMS],
    /// Bit `j` set = term `j` is negative; bits past `len` are clear.
    pub signs: u8,
    /// Number of terms.
    pub len: u8,
}

impl CodeTerms {
    /// The terms as [`Term`]s, most significant first.
    pub fn iter(self) -> impl Iterator<Item = Term> {
        (0..usize::from(self.len))
            .map(move |j| Term { exp: self.exps[j], neg: (self.signs >> j) & 1 == 1 })
    }
}

/// The terms of every code in `-TABLE_RANGE..=TABLE_RANGE` under one
/// encoding, with the running sums of each code's leading terms. Obtain
/// the shared instance with [`Encoding::table`].
#[derive(Debug)]
pub struct TermTable {
    encoding: Encoding,
    entries: [CodeTerms; SLOTS],
    /// `sums[slot][j]` is the value of the slot's top `j` terms (the
    /// whole value once `j` reaches the term count), so a top-`k`
    /// truncation is one load instead of a loop whose trip count changes
    /// from value to value.
    sums: [[i16; TABLE_MAX_TERMS + 1]; SLOTS],
}

impl TermTable {
    fn build(encoding: Encoding) -> TermTable {
        let empty = CodeTerms { exps: [0; TABLE_MAX_TERMS], signs: 0, len: 0 };
        let mut table =
            TermTable { encoding, entries: [empty; SLOTS], sums: [[0; TABLE_MAX_TERMS + 1]; SLOTS] };
        for (slot, code) in (-TABLE_RANGE..=TABLE_RANGE).enumerate() {
            let expr = encoding.terms_of(code);
            assert!(expr.len() <= TABLE_MAX_TERMS, "{encoding} uses {} terms for {code}", expr.len());
            let (entry, sums) = (&mut table.entries[slot], &mut table.sums[slot]);
            let mut acc = 0i64;
            for (j, t) in expr.iter().enumerate() {
                entry.exps[j] = t.exp;
                entry.signs |= u8::from(t.neg) << j;
                entry.len += 1;
                acc += t.value();
                // Leading-term sums of a code in ±255 stay within ±511.
                sums[j + 1] = i16::try_from(acc).unwrap_or(i16::MAX);
            }
            let whole = sums[expr.len()];
            sums[expr.len()..].fill(whole);
        }
        table
    }

    /// The table slot of `code`, or `None` beyond [`TABLE_RANGE`].
    #[inline]
    fn slot(code: i32) -> Option<usize> {
        // Wrapping keeps huge magnitudes out of range instead of panicking.
        usize::try_from(code.wrapping_add(TABLE_RANGE)).ok().filter(|&s| s < SLOTS)
    }

    /// The encoding the table was built with.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The terms of `code`, most significant first, exactly as
    /// [`Encoding::terms_of`] returns them; `None` when `|code|` exceeds
    /// [`TABLE_RANGE`].
    #[inline]
    pub fn get(&self, code: i32) -> Option<CodeTerms> {
        Some(self.entries[Self::slot(code)?])
    }

    /// The value of `code`'s top `k` terms (per-value truncation); `None`
    /// when `|code|` exceeds [`TABLE_RANGE`].
    #[inline]
    pub fn truncated(&self, code: i32, k: usize) -> Option<i32> {
        let slot = Self::slot(code)?;
        Some(i32::from(self.sums[slot][k.min(TABLE_MAX_TERMS)]))
    }
}

static TABLES: [OnceLock<TermTable>; 4] =
    [OnceLock::new(), OnceLock::new(), OnceLock::new(), OnceLock::new()];

impl Encoding {
    /// The shared code-term table of this encoding, built on first use.
    ///
    /// Hot loops should fetch it once and index it per element: the
    /// lookup itself is an array access, the first-use check is not free.
    pub fn table(self) -> &'static TermTable {
        let i = match self {
            Encoding::Binary => 0,
            Encoding::BoothRadix4 => 1,
            Encoding::Naf => 2,
            Encoding::Hese => 3,
        };
        TABLES[i].get_or_init(|| TermTable::build(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_canonical_and_extremes_fall_outside() {
        let t = Encoding::Hese.table();
        assert_eq!(t.get(0), Some(CodeTerms { exps: [0; TABLE_MAX_TERMS], signs: 0, len: 0 }));
        // 127 = 2^7 - 2^0 under HESE: padding stays zero.
        let e = t.get(127).unwrap();
        assert_eq!((e.exps, e.signs, e.len), ([7, 0, 0, 0, 0, 0, 0, 0], 0b10, 2));
        assert_eq!(t.get(i32::MAX), None);
        assert_eq!(t.get(i32::MIN), None);
        assert_eq!(t.truncated(-128, 1), Some(-128));
        assert_eq!(t.truncated(127, 1), Some(128));
        assert_eq!(t.truncated(127, 99), Some(127));
    }

    #[test]
    fn one_table_per_encoding() {
        for enc in Encoding::ALL {
            assert!(std::ptr::eq(enc.table(), enc.table()));
        }
        assert!(!std::ptr::eq(Encoding::Binary.table(), Encoding::Hese.table()));
    }
}
