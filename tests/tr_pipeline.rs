//! Cross-crate integration: the full Fig. 1 pipeline from float weights
//! through quantization, term decomposition, receding water, and the
//! term-pair matmul, checked against reference semantics at every stage.

use tr_core::{packed_term_matmul_i64, reveal_group, PackedTermMatrix, TrConfig};
use tr_encoding::{Encoding, TermExpr};
use tr_quant::{calibrate_max_abs, quantize};
use tr_tensor::{Rng, Shape, Tensor};

fn random_quantized(rows: usize, cols: usize, seed: u64) -> tr_quant::QTensor {
    let mut rng = Rng::seed_from_u64(seed);
    let t = Tensor::randn(Shape::d2(rows, cols), 0.3, &mut rng);
    quantize(&t, calibrate_max_abs(&t, 8))
}

#[test]
fn unpruned_pipeline_is_exact_for_every_encoding() {
    let qw = random_quantized(8, 48, 1);
    let qx = random_quantized(48, 6, 2);
    let reference = qw.matmul_i64(&qx);
    for enc in Encoding::ALL {
        let w = PackedTermMatrix::from_weights(&qw, enc);
        let x = PackedTermMatrix::from_data_transposed(&qx, enc);
        assert_eq!(packed_term_matmul_i64(&w, &x), reference, "{enc}");
    }
}

#[test]
fn tr_matmul_equals_matmul_of_revealed_codes() {
    // TR changes operands, never arithmetic: the term-pair product over
    // revealed terms must equal an integer matmul over the reconstructed
    // codes.
    let qw = random_quantized(6, 64, 3);
    let qx = random_quantized(64, 4, 4);
    let cfg = TrConfig::new(8, 10).with_data_terms(2);
    let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
    let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(2);
    let got = packed_term_matmul_i64(&w, &x);

    let wc = w.reconstruct_codes();
    let xc = x.reconstruct_codes();
    let (m, k, n) = (6, 64, 4);
    for i in 0..m {
        for j in 0..n {
            let expect: i64 = (0..k).map(|kk| wc[i * k + kk] * xc[j * k + kk]).sum();
            assert_eq!(got[i * n + j], expect, "({i},{j})");
        }
    }
}

#[test]
fn tr_error_shrinks_as_budget_grows() {
    let qw = random_quantized(8, 128, 5);
    let qx = random_quantized(128, 8, 6);
    let exact = qw.matmul_i64(&qx);
    let norm: f64 = exact.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
    let mut prev = f64::INFINITY;
    for k in [4usize, 8, 12, 16, 24] {
        let cfg = TrConfig::new(8, k);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese);
        let approx = packed_term_matmul_i64(&w, &x);
        let err: f64 = exact
            .iter()
            .zip(&approx)
            .map(|(&e, &a)| ((e - a) as f64).powi(2))
            .sum::<f64>()
            .sqrt()
            / norm.max(1.0);
        assert!(err <= prev + 1e-9, "error not monotone at k={k}: {err} > {prev}");
        prev = err;
    }
    // Generous budget is lossless (7 terms max per value, 8 values).
    let cfg = TrConfig::new(8, 56);
    let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
    let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese);
    assert_eq!(packed_term_matmul_i64(&w, &x), exact);
}

#[test]
fn group_budget_invariant_holds_after_reveal() {
    let qw = random_quantized(16, 256, 7);
    for (g, k) in [(2usize, 3usize), (4, 6), (8, 12), (8, 24)] {
        let cfg = TrConfig::new(g, k);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        assert!(w.max_group_terms_for(g) <= k, "budget violated at g={g}, k={k}");
    }
}

#[test]
fn reveal_group_never_increases_term_count_per_value() {
    let mut rng = Rng::seed_from_u64(8);
    for _ in 0..100 {
        #[allow(clippy::cast_possible_truncation)] // ±~300 fits i32 easily
        let vals: Vec<i32> = (0..8).map(|_| (rng.normal() * 60.0) as i32).collect();
        let exprs: Vec<TermExpr> = vals.iter().map(|&v| Encoding::Hese.terms_of(v)).collect();
        let out = reveal_group(&exprs, 10);
        for (orig, kept) in exprs.iter().zip(&out.revealed) {
            assert!(kept.len() <= orig.len());
        }
        assert_eq!(
            out.kept_terms + out.pruned_terms,
            exprs.iter().map(TermExpr::len).sum::<usize>()
        );
    }
}

#[test]
fn systolic_outputs_lie_within_statically_proven_ranges() {
    // End-to-end cross-check of the tr-analysis width proof against the
    // cycle-level simulator: every output of a full systolic run stays
    // inside the interval predicted for the output accumulator, and the
    // per-group partial values fit the converter-stream bound.
    use tr_analysis::{analyze, Envelope, ImplementedWidths, Stage};
    use tr_hw::{ControlRegisters, SystolicArray, Tmac};

    let reduction = 64usize;
    let qw = random_quantized(6, reduction, 11);
    let qx = random_quantized(reduction, 4, 12);
    for (g, k, s) in [(8usize, 16usize, 3usize), (4, 6, 2), (8, 24, 6), (2, 3, 1)] {
        let cfg = TrConfig::new(g, k).with_data_terms(s);
        let regs = ControlRegisters::for_tr(&cfg);
        let env = Envelope {
            merge_groups: (reduction / g) as u64,
            max_dot_len: reduction as u64,
        };
        let proof = analyze(&regs, &env, &ImplementedWidths::from_hw()).unwrap();
        assert!(proof.ok(), "g={g} k={k}: {:?}", proof.violations());

        let wm = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let xm = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(s);

        let array = SystolicArray { rows: 2, cols: 2 };
        let (out, _cycles) = array.execute(&wm, &xm, g).unwrap();
        let out_bound = proof.bound(Stage::OutputAccumulator);
        for &v in &out {
            assert!(
                out_bound.range.contains(v),
                "g={g} k={k}: output {v} outside {}",
                out_bound.range
            );
        }

        // Per-dot coefficient-vector check: accumulate every group of one
        // row/column pair in a single tMAC (the merge span of the proof)
        // and compare against the coefficient/stream bounds.
        let coeff_bound = proof.bound(Stage::CoefficientCounter);
        let stream_bound = proof.bound(Stage::ConverterStream);
        for wr in 0..wm.rows() {
            for xr in 0..xm.rows() {
                let mut tmac = Tmac::new();
                for c0 in (0..reduction).step_by(g) {
                    tmac.process_group_packed(&wm, wr, &xm, xr, c0, (c0 + g).min(reduction));
                }
                for &c in tmac.accumulator().coeffs() {
                    assert!(
                        coeff_bound.range.contains(c as i64),
                        "g={g} k={k}: coefficient {c} outside {}",
                        coeff_bound.range
                    );
                }
                assert!(
                    stream_bound.range.contains(tmac.value()),
                    "g={g} k={k}: reduced value {} outside {}",
                    tmac.value(),
                    stream_bound.range
                );
            }
        }
    }
}
