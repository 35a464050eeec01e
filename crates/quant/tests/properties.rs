//! Property-based tests of the quantization pipeline.

use proptest::prelude::*;
use tr_encoding::Encoding;
use tr_quant::truncate::truncate_value;
use tr_quant::{calibrate_max_abs, quantize, PerChannelQTensor, QuantParams};
use tr_tensor::{Rng, Shape, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_error_bounded_by_half_step(
        seed in any::<u64>(),
        bits in 3u8..=8,
        scale_mag in 0.01f32..10.0,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d2(4, 16), scale_mag, &mut rng);
        let params = calibrate_max_abs(&t, bits);
        let q = quantize(&t, params);
        let back = q.dequantize();
        for (&x, &y) in t.data().iter().zip(back.data()) {
            prop_assert!((x - y).abs() <= params.scale / 2.0 + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn codes_respect_bit_range(seed in any::<u64>(), bits in 2u8..=8) {
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d1(64), 1.0, &mut rng);
        let params = calibrate_max_abs(&t, bits);
        let q = quantize(&t, params);
        let qmax = params.qmax();
        prop_assert!(q.values().iter().all(|&v| v.abs() <= qmax));
        // The extreme element always maps to +-qmax.
        prop_assert!(q.values().iter().any(|&v| v.abs() == qmax));
    }

    #[test]
    fn quantization_is_monotone(a in -100.0f32..100.0, b in -100.0f32..100.0) {
        let params = QuantParams { scale: 0.7, bits: 8 };
        if a <= b {
            prop_assert!(params.code(a) <= params.code(b));
        } else {
            prop_assert!(params.code(a) >= params.code(b));
        }
    }

    #[test]
    fn truncation_never_overshoots_double(code in -127i32..=127, k in 0usize..=8) {
        for enc in Encoding::ALL {
            let t = truncate_value(enc, code, k);
            // Signed truncation may round up, but never past the next
            // power of two of the magnitude.
            prop_assert!(t.abs() <= 2 * code.abs().max(1), "{enc}: {code} -> {t}");
            if k >= 8 {
                prop_assert_eq!(t, code);
            }
        }
    }

    #[test]
    fn per_channel_never_much_worse_than_per_layer(seed in any::<u64>()) {
        // Per-channel wins in expectation; pointwise, rounding luck can
        // favor either scale on homogeneous rows, so allow a 15% slack.
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d2(6, 32), 0.5, &mut rng);
        let per_layer = quantize(&t, calibrate_max_abs(&t, 8)).dequantize();
        let per_channel = PerChannelQTensor::quantize(&t, 8).dequantize();
        prop_assert!(t.rel_l2(&per_channel) <= t.rel_l2(&per_layer) * 1.15 + 1e-6);
    }

    #[test]
    fn integer_matmul_tracks_float(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(3, 8), 0.5, &mut rng);
        let b = Tensor::randn(Shape::d2(8, 3), 0.5, &mut rng);
        let qa = quantize(&a, calibrate_max_abs(&a, 8));
        let qb = quantize(&b, calibrate_max_abs(&b, 8));
        let scale = qa.params().scale * qb.params().scale;
        let int = qa.matmul_i64(&qb);
        let fl = qa.dequantize().matmul(&qb.dequantize());
        for (i, f) in int.iter().zip(fl.data()) {
            prop_assert!((*i as f32 * scale - f).abs() < 1e-3, "{i} vs {f}");
        }
    }
}

/// The table-driven truncation is the `TermExpr` path, exhaustively: all
/// four encodings, every code in ±1024 (across the table's ±255 edge into
/// the encoder fallback), every budget up to twice the widest expansion.
#[test]
fn table_truncation_matches_the_term_expr_path_exhaustively() {
    for enc in Encoding::ALL {
        for code in -1024i32..=1024 {
            let expr = enc.terms_of(code);
            for k in 0usize..=16 {
                let expect = expr.truncate_top(k).value();
                assert_eq!(i64::from(truncate_value(enc, code, k)), expect, "{enc} {code} k={k}");
            }
        }
    }
}
