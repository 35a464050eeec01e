//! The term MAC (§V-B, Figs. 11–12).
//!
//! A tMAC processes one group of `g` weight/data value pairs by walking
//! every (weight term, data term) pair: the exponent duplicator replays
//! each data exponent once per weight term of the paired value, the 3-bit
//! adder sums the exponents, and a coefficient accumulator applies `±1` to
//! the addressed coefficient. One pair per cycle; a group with `p` pairs
//! takes `p` cycles, bounded by `k × s` under TR.

use crate::coeff::CoefficientVector;
use crate::fault::{accumulate_mitigated, FaultInjector};
use tr_core::PackedTermMatrix;
use tr_encoding::TermExpr;

/// One group's processing outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmacGroupReport {
    /// Cycles consumed (= term pairs processed).
    pub cycles: u64,
    /// Exponent additions performed (same as cycles; kept for the work
    /// model's readability).
    pub exponent_adds: u64,
}

/// A term MAC cell with its coefficient vector.
#[derive(Debug, Clone, Default)]
pub struct Tmac {
    acc: CoefficientVector,
    total_cycles: u64,
}

impl Tmac {
    /// A fresh cell.
    pub fn new() -> Tmac {
        Tmac::default()
    }

    /// The accumulated coefficient vector.
    pub fn accumulator(&self) -> &CoefficientVector {
        &self.acc
    }

    /// Total cycles consumed since the last [`Tmac::reset`].
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Clear the accumulator and cycle counter.
    pub fn reset(&mut self) {
        self.acc.clear();
        self.total_cycles = 0;
    }

    /// Take the neighbour's coefficient vector (the `sec_acc` path).
    pub fn take_accumulator(&mut self, from: &CoefficientVector) {
        self.acc = from.clone();
    }

    /// Process one group of paired weight/data values.
    ///
    /// # Panics
    /// If the slices differ in length.
    pub fn process_group(&mut self, weights: &[TermExpr], data: &[TermExpr]) -> TmacGroupReport {
        assert_eq!(weights.len(), data.len(), "group operands must align");
        let mut cycles = 0u64;
        for (w, x) in weights.iter().zip(data) {
            // Exponent duplicator: each data term is replayed for every
            // weight term of the paired value.
            for wt in w.iter() {
                for xt in x.iter() {
                    let product = wt.mul(*xt);
                    self.acc.add_term(product.exp, product.neg);
                    cycles += 1;
                }
            }
        }
        self.total_cycles += cycles;
        TmacGroupReport { cycles, exponent_adds: cycles }
    }

    /// Process the group spanning elements `c0..c1` of packed row `wr`
    /// against the aligned range of packed row `xr` — the flat-plane
    /// counterpart of [`Tmac::process_group`]: identical accumulator
    /// updates in identical order, without materializing `TermExpr`s.
    ///
    /// # Panics
    /// If the element range is out of bounds for either operand.
    pub fn process_group_packed(
        &mut self,
        weights: &PackedTermMatrix,
        wr: usize,
        data: &PackedTermMatrix,
        xr: usize,
        c0: usize,
        c1: usize,
    ) -> TmacGroupReport {
        let mut cycles = 0u64;
        for c in c0..c1 {
            for wt in weights.element_terms(wr, c) {
                for xt in data.element_terms(xr, c) {
                    let product = wt.mul(xt);
                    self.acc.add_term(product.exp, product.neg);
                    cycles += 1;
                }
            }
        }
        self.total_cycles += cycles;
        TmacGroupReport { cycles, exponent_adds: cycles }
    }

    /// Process one group through the fault-tolerant datapath: with the
    /// injector's saturate mitigation on, coefficient accumulation
    /// saturates at its rails and drops illegal exponent addresses
    /// (tallied as detected corruptions); with it off, the raw wrapping
    /// hardware behaviour applies silently. On fault-free operands this
    /// is bit-identical to [`Tmac::process_group`].
    ///
    /// # Panics
    /// If the slices differ in length.
    pub fn process_group_mitigated(
        &mut self,
        weights: &[TermExpr],
        data: &[TermExpr],
        inj: &mut FaultInjector,
    ) -> TmacGroupReport {
        assert_eq!(weights.len(), data.len(), "group operands must align");
        let mut cycles = 0u64;
        for (w, x) in weights.iter().zip(data) {
            for wt in w.iter() {
                for xt in x.iter() {
                    let product = wt.mul(*xt);
                    accumulate_mitigated(&mut self.acc, product.exp, product.neg, inj);
                    cycles += 1;
                }
            }
        }
        self.total_cycles += cycles;
        TmacGroupReport { cycles, exponent_adds: cycles }
    }

    /// Current dot-product value (what the binary stream converter will
    /// serialize).
    pub fn value(&self) -> i64 {
        self.acc.reduce()
    }
}

#[cfg(test)]
// Synthetic operand generators clamp to the i8 code band before casting.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use tr_core::{reveal_group, TrConfig};
    use tr_encoding::Encoding;
    use tr_quant::truncate::truncate_value;
    use tr_tensor::Rng;

    fn exprs(vals: &[i32], enc: Encoding) -> Vec<TermExpr> {
        vals.iter().map(|&v| enc.terms_of(v)).collect()
    }

    #[test]
    fn paper_fig10_group_of_three() {
        // Fig. 10(b): g = 3, k = 6 weight terms, s = 2 data terms,
        // 8 term pairs < 6 x 2 = 12.
        let w = exprs(&[12, -3, 5], Encoding::Binary); // 2 + 2 + 2 = 6 terms
        let x = exprs(&[2, 6, 1], Encoding::Binary); // 1 + 2 + 1 terms
        let mut tmac = Tmac::new();
        let report = tmac.process_group(&w, &x);
        #[allow(clippy::identity_op)] // spelled per-value: terms(w_i) * terms(x_i)
        let expected_cycles = 2 * 1 + 2 * 2 + 2 * 1;
        assert_eq!(report.cycles, expected_cycles);
        assert!(report.cycles <= 12);
        #[allow(clippy::identity_op)] // spelled as the w.x products
        let expected = (12 * 2 - 3 * 6 + 5 * 1) as i64;
        assert_eq!(tmac.value(), expected);
    }

    #[test]
    fn matches_term_dot_for_random_groups() {
        // A cell's value is the exact dot product of the codes its terms
        // encode: Σ w·x over the group.
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..50 {
            // Codes stay in the 8-bit range the datapath is sized for.
            let w: Vec<i32> =
                (0..8).map(|_| (rng.normal() * 40.0).clamp(-127.0, 127.0) as i32).collect();
            let x: Vec<i32> =
                (0..8).map(|_| (rng.normal().abs() * 40.0).min(127.0) as i32).collect();
            let we = exprs(&w, Encoding::Hese);
            let xe = exprs(&x, Encoding::Hese);
            let mut tmac = Tmac::new();
            tmac.process_group(&we, &xe);
            let dot: i64 = w.iter().zip(&x).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
            assert_eq!(tmac.value(), dot);
        }
    }

    #[test]
    fn tr_bound_holds_per_group() {
        let mut rng = Rng::seed_from_u64(2);
        let cfg = TrConfig::new(8, 12);
        let s = 3usize;
        for _ in 0..50 {
            // Codes stay in the 8-bit range the datapath is sized for.
            let w: Vec<i32> =
                (0..8).map(|_| (rng.normal() * 50.0).clamp(-127.0, 127.0) as i32).collect();
            let x: Vec<i32> =
                (0..8).map(|_| (rng.normal().abs() * 50.0).min(127.0) as i32).collect();
            let we: Vec<TermExpr> = exprs(&w, Encoding::Hese);
            let revealed = reveal_group(&we, cfg.group_budget).revealed;
            let xe: Vec<TermExpr> = x
                .iter()
                .map(|&v| Encoding::Hese.terms_of(truncate_value(Encoding::Hese, v, s)))
                .collect();
            let mut tmac = Tmac::new();
            let report = tmac.process_group(&revealed, &xe);
            assert!(report.cycles <= (cfg.group_budget * s) as u64, "cycles {}", report.cycles);
        }
    }

    #[test]
    fn packed_group_matches_legacy_group() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..20 {
            let w: Vec<i32> =
                (0..8).map(|_| (rng.normal() * 40.0).clamp(-127.0, 127.0) as i32).collect();
            let x: Vec<i32> =
                (0..8).map(|_| (rng.normal().abs() * 40.0).min(127.0) as i32).collect();
            let we = exprs(&w, Encoding::Hese);
            let xe = exprs(&x, Encoding::Hese);
            let mut legacy = Tmac::new();
            let r1 = legacy.process_group(&we, &xe);
            let pw = PackedTermMatrix::from_vector(&w, Encoding::Hese);
            let px = PackedTermMatrix::from_vector(&x, Encoding::Hese);
            let mut packed = Tmac::new();
            let r2 = packed.process_group_packed(&pw, 0, &px, 0, 0, 8);
            assert_eq!(r1, r2);
            assert_eq!(legacy.accumulator(), packed.accumulator());
            assert_eq!(legacy.value(), packed.value());
        }
    }

    #[test]
    fn accumulates_across_groups() {
        // A dot product split into two groups accumulates into one vector.
        let w = exprs(&[3, 7, 2, 9], Encoding::Binary);
        let x = exprs(&[5, 1, 4, 2], Encoding::Binary);
        let mut tmac = Tmac::new();
        tmac.process_group(&w[..2], &x[..2]);
        tmac.process_group(&w[2..], &x[2..]);
        assert_eq!(tmac.value(), 3 * 5 + 7 + 2 * 4 + 9 * 2);
        assert!(tmac.total_cycles() > 0);
        tmac.reset();
        assert_eq!(tmac.value(), 0);
    }

    #[test]
    fn mitigated_path_matches_exact_on_clean_operands() {
        use crate::fault::FaultConfig;
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..20 {
            let w: Vec<i32> =
                (0..8).map(|_| (rng.normal() * 40.0).clamp(-127.0, 127.0) as i32).collect();
            let x: Vec<i32> =
                (0..8).map(|_| (rng.normal().abs() * 40.0).min(127.0) as i32).collect();
            let we = exprs(&w, Encoding::Hese);
            let xe = exprs(&x, Encoding::Hese);
            let mut exact = Tmac::new();
            let r1 = exact.process_group(&we, &xe);
            let mut inj = FaultInjector::new(FaultConfig::none(0)).unwrap();
            let mut mitigated = Tmac::new();
            let r2 = mitigated.process_group_mitigated(&we, &xe, &mut inj);
            assert_eq!(r1, r2);
            assert_eq!(exact.accumulator(), mitigated.accumulator());
            assert_eq!(inj.report().detected, 0);
        }
    }

    #[test]
    fn neighbour_accumulator_transfer() {
        let w = exprs(&[10], Encoding::Binary);
        let x = exprs(&[3], Encoding::Binary);
        let mut a = Tmac::new();
        a.process_group(&w, &x);
        let mut b = Tmac::new();
        b.take_accumulator(a.accumulator());
        assert_eq!(b.value(), 30);
    }
}
