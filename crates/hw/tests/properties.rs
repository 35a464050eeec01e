//! Property-based tests of the hardware model's functional blocks.

use proptest::prelude::*;
use tr_core::reveal_group;
use tr_encoding::{Encoding, TermExpr};
use tr_hw::comparator::streams_to_terms;
use tr_hw::hese_unit::decode_streams;
use tr_hw::{
    BinaryStreamConverter, CoefficientVector, HeseEncoderUnit, ReluUnit, TermComparator, Tmac,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hese_unit_reconstructs_and_is_minimal(v in 0u32..256) {
        let (mag, sign) = HeseEncoderUnit::encode(8, v);
        prop_assert_eq!(decode_streams(&mag, &sign), v as i64);
        let weight = mag.iter().filter(|&&b| b).count();
        prop_assert_eq!(weight, tr_encoding::naf::minimal_weight(v));
    }

    #[test]
    fn comparator_equals_receding_water(
        values in proptest::collection::vec(0u32..256, 1..=8),
        k in 1usize..=20,
    ) {
        let g = values.len();
        let streams: Vec<_> = values.iter().map(|&v| HeseEncoderUnit::encode(8, v)).collect();
        let out = TermComparator::new(g, k).process_group(&streams);
        let exprs: Vec<TermExpr> =
            values.iter().map(|&v| Encoding::Hese.terms_of(v as i32)).collect();
        let reference = reveal_group(&exprs, k);
        for i in 0..g {
            let hw = streams_to_terms(&out.magnitude[i], &out.sign[i]);
            prop_assert_eq!(hw.value(), reference.revealed[i].value(), "value {}", i);
        }
        prop_assert_eq!(out.kept + out.pruned, exprs.iter().map(TermExpr::len).sum::<usize>());
    }

    #[test]
    fn tmac_equals_term_dot(
        w in proptest::collection::vec(-127i32..=127, 1..=8),
        x in proptest::collection::vec(0i32..=127, 1..=8),
    ) {
        prop_assume!(w.len() == x.len());
        let we: Vec<TermExpr> = w.iter().map(|&v| Encoding::Hese.terms_of(v)).collect();
        let xe: Vec<TermExpr> = x.iter().map(|&v| Encoding::Hese.terms_of(v)).collect();
        let mut tmac = Tmac::new();
        let report = tmac.process_group(&we, &xe);
        // Exact: the cell's value is the dot product of the codes.
        let dot: i64 = we.iter().zip(&xe).map(|(a, b)| a.value() * b.value()).sum();
        prop_assert_eq!(tmac.value(), dot);
        let pairs: u64 = we.iter().zip(&xe).map(|(a, b)| (a.len() * b.len()) as u64).sum();
        prop_assert_eq!(report.cycles, pairs);
    }

    #[test]
    fn converter_relu_round_trip(v in -(1i64 << 24)..(1i64 << 24)) {
        // Build a coefficient vector representing v, convert, rectify.
        // (Range capped at 2^24 so the greedy construction stays within
        // the 12-bit per-coefficient budget: 2^24 / 2^14 = 1024 < 2048.)
        let mut cv = CoefficientVector::new();
        let neg = v < 0;
        let mut mag = v.unsigned_abs();
        let mut exp = 14u8;
        loop {
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
        prop_assert_eq!(cv.reduce(), v);
        let stream = BinaryStreamConverter::new().convert(&cv);
        prop_assert_eq!(BinaryStreamConverter::decode(&stream), v);
        let out = ReluUnit::new().rectify(&stream);
        prop_assert_eq!(BinaryStreamConverter::decode(&out), v.max(0));
    }

    #[test]
    fn coefficient_vector_merge_is_additive(
        a in proptest::collection::vec((0u8..15, any::<bool>()), 0..64),
        b in proptest::collection::vec((0u8..15, any::<bool>()), 0..64),
    ) {
        let mut va = CoefficientVector::new();
        for &(e, n) in &a {
            va.add_term(e, n);
        }
        let mut vb = CoefficientVector::new();
        for &(e, n) in &b {
            vb.add_term(e, n);
        }
        let (ra, rb) = (va.reduce(), vb.reduce());
        va.merge(&vb);
        prop_assert_eq!(va.reduce(), ra + rb);
    }
}
