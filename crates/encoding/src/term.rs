//! Signed power-of-two terms and term expressions.

/// A single signed power-of-two term `±2^exp`.
///
/// Exponents in this workspace stay below 32 (8-bit quantization uses
/// exponents 0–6; term-pair products reach 2·6+2 < 16), so `u8` is ample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Term {
    /// The power of two.
    pub exp: u8,
    /// True for a `-2^exp` term.
    pub neg: bool,
}

impl Term {
    /// A positive term `+2^exp`.
    pub fn pos(exp: u8) -> Term {
        Term { exp, neg: false }
    }

    /// A negative term `-2^exp`.
    pub fn neg(exp: u8) -> Term {
        Term { exp, neg: true }
    }

    /// The term's numeric value.
    #[inline]
    pub fn value(self) -> i64 {
        let v = 1i64 << self.exp;
        if self.neg {
            -v
        } else {
            v
        }
    }

    /// The product of two terms is itself a term: exponents add, signs
    /// multiply. This is the "term pair multiplication" of §III-B — a 3-bit
    /// exponent addition in the tMAC hardware.
    #[allow(clippy::should_implement_trait)] // also provided as std::ops::Mul below
    pub fn mul(self, other: Term) -> Term {
        Term { exp: self.exp + other.exp, neg: self.neg != other.neg }
    }
}

impl std::ops::Mul for Term {
    type Output = Term;

    fn mul(self, other: Term) -> Term {
        Term::mul(self, other)
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}2^{}", if self.neg { "-" } else { "+" }, self.exp)
    }
}

/// A value expressed as a sum of signed power-of-two terms, kept sorted by
/// descending exponent (the order the receding-water algorithm scans).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TermExpr {
    terms: Vec<Term>,
}

impl TermExpr {
    /// An empty expression (value 0).
    pub fn empty() -> TermExpr {
        TermExpr::default()
    }

    /// Build from a term list, normalizing the order to descending exponent.
    pub fn from_terms(mut terms: Vec<Term>) -> TermExpr {
        terms.sort_by_key(|t| std::cmp::Reverse(t.exp));
        TermExpr { terms }
    }

    /// The terms, most significant first.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms (the "weight" of the encoding).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True for the zero value.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Reconstruct the numeric value.
    pub fn value(&self) -> i64 {
        self.terms.iter().map(|t| t.value()).sum()
    }

    /// Flip the sign of every term.
    pub fn negated(&self) -> TermExpr {
        TermExpr {
            terms: self.terms.iter().map(|t| Term { exp: t.exp, neg: !t.neg }).collect(),
        }
    }

    /// Keep only the `k` largest-exponent terms (per-value truncation — the
    /// group-free baseline that Fig. 17 labels "QT"/"HESE" without TR).
    pub fn truncate_top(&self, k: usize) -> TermExpr {
        TermExpr { terms: self.terms.iter().take(k).copied().collect() }
    }

    /// Largest exponent present, if any.
    pub fn max_exp(&self) -> Option<u8> {
        self.terms.first().map(|t| t.exp)
    }

    /// Iterate over the terms.
    pub fn iter(&self) -> std::slice::Iter<'_, Term> {
        self.terms.iter()
    }
}

impl FromIterator<Term> for TermExpr {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        TermExpr::from_terms(iter.into_iter().collect())
    }
}

impl std::fmt::Display for TermExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_values() {
        assert_eq!(Term::pos(0).value(), 1);
        assert_eq!(Term::pos(6).value(), 64);
        assert_eq!(Term::neg(3).value(), -8);
    }

    #[test]
    fn term_product_adds_exponents() {
        // The paper's §III-B example: 2^3 * 2^1 = 2^4.
        let p = Term::pos(3).mul(Term::pos(1));
        assert_eq!(p, Term::pos(4));
        // Mixed signs multiply.
        assert_eq!(Term::neg(2).mul(Term::pos(2)), Term::neg(4));
        assert_eq!(Term::neg(2).mul(Term::neg(2)), Term::pos(4));
    }

    #[test]
    fn expr_value_and_order() {
        let e = TermExpr::from_terms(vec![Term::pos(0), Term::neg(2), Term::pos(5)]);
        assert_eq!(e.value(), 32 - 4 + 1);
        let exps: Vec<u8> = e.iter().map(|t| t.exp).collect();
        assert_eq!(exps, vec![5, 2, 0]);
        assert_eq!(e.max_exp(), Some(5));
    }

    #[test]
    fn truncate_top_keeps_largest() {
        let e = TermExpr::from_terms(vec![Term::pos(0), Term::pos(2), Term::pos(5)]);
        let t = e.truncate_top(2);
        assert_eq!(t.value(), 32 + 4);
        assert_eq!(e.truncate_top(0).value(), 0);
        assert_eq!(e.truncate_top(10).value(), e.value());
    }

    #[test]
    fn negation_flips_value() {
        let e = TermExpr::from_terms(vec![Term::pos(4), Term::neg(1)]);
        assert_eq!(e.negated().value(), -e.value());
    }

    #[test]
    fn display_is_readable() {
        let e = TermExpr::from_terms(vec![Term::pos(2), Term::neg(0)]);
        assert_eq!(e.to_string(), "+2^2 -2^0");
        assert_eq!(TermExpr::empty().to_string(), "0");
    }
}
