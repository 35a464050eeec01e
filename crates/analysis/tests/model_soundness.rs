//! Soundness fuzz for the whole-model range prover: run the *concrete*
//! integer pipeline — quantize → encode/reveal/cap → `try_packed_term_matmul_i64`
//! → bias — on random shapes, configs, and values, and require every
//! observed accumulator to lie inside the interval
//! [`analyze_model`](tr_analysis::analyze_model) predicted for that
//! layer. The negative direction is checked too: narrowing any proven
//! width by a single bit must report a violation.

// Test-only arithmetic on generator-bounded values; the clippy.toml test
// exemption covers unwraps but not the cast lints, so allow them here.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use proptest::prelude::*;
use tr_analysis::{analyze_model, LayerSpec, ModelSpec};
use tr_core::{try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_nn::lstm::LstmLm;
use tr_nn::models::mlp::build_mlp;
use tr_nn::models::mobilenet::build_mobilenet;
use tr_nn::Precision;
use tr_quant::{calibrate_max_abs, quantize, QTensor};
use tr_tensor::{Rng, Shape, Tensor};

/// Max-abs quantization of a value slice into a `(rows, cols)` matrix.
fn quantized(vals: &[f32], rows: usize, cols: usize, bits: u8) -> QTensor {
    let t = Tensor::from_vec(vals[..rows * cols].to_vec(), Shape::d2(rows, cols));
    quantize(&t, calibrate_max_abs(&t, bits))
}

/// A single-site spec matching the fuzzed dot-product shape.
fn spec_for(rows: usize, reduction: usize) -> ModelSpec {
    ModelSpec::new(
        "fuzz",
        vec![LayerSpec { name: "dot".into(), rows: rows as u64, reduction: reduction as u64 }],
    )
    .expect("single-site spec is valid")
}

const MAX_ROWS: usize = 4;
const MAX_COLS: usize = 6;
const MAX_RED: usize = 48;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TR rungs: receding-water reveal on the weights, per-value HESE cap
    /// on the data. Every concrete accumulator (plus one in-band bias
    /// addend, as in the conv/linear kernels) sits inside `acc_range`.
    #[test]
    fn tr_forward_values_lie_inside_the_proved_intervals(
        rows in 1..=MAX_ROWS,
        cols in 1..=MAX_COLS,
        reduction in 1..=MAX_RED,
        g_idx in 0usize..4,
        k in 1usize..=24,
        s in 1usize..=4,
        wvals in proptest::collection::vec(-1.0f32..1.0, MAX_ROWS * MAX_RED),
        xvals in proptest::collection::vec(-1.0f32..1.0, MAX_RED * MAX_COLS),
        bias in -127i64..=127,
    ) {
        let g = [2usize, 4, 8, 16][g_idx];
        let cfg = TrConfig::new(g, k).with_data_terms(s);
        let proof = analyze_model(&spec_for(rows, reduction), &Precision::Tr(cfg))
            .expect("valid config analyzes");
        let layer = &proof.layers[0];

        let qw = quantized(&wvals, rows, reduction, 8);
        let qx = quantized(&xvals, reduction, cols, 8);
        let wm = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
        let xm = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(s);

        for &c in &wm.reconstruct_codes() {
            prop_assert!(
                layer.weight_range.contains(c),
                "revealed weight {c} outside {}", layer.weight_range
            );
        }
        for &c in &xm.reconstruct_codes() {
            prop_assert!(
                layer.data_range.contains(c),
                "capped data {c} outside {}", layer.data_range
            );
        }
        for &acc in &try_packed_term_matmul_i64(&wm, &xm).unwrap() {
            prop_assert!(
                layer.acc_range.contains(acc + bias),
                "accumulator {acc} + bias {bias} outside {} (g={g} k={k} s={s} red={reduction})",
                layer.acc_range
            );
            prop_assert!(
                layer.witness_abs <= layer.acc_range.hi(),
                "witness exceeds envelope"
            );
        }
    }

    /// QT rungs: plain binary codes at the rung's widths, no reveal, no
    /// cap — the envelope is the code band itself.
    #[test]
    fn qt_forward_values_lie_inside_the_proved_intervals(
        rows in 1..=MAX_ROWS,
        cols in 1..=MAX_COLS,
        reduction in 1..=MAX_RED,
        weight_bits in 3u8..=8,
        act_bits in 3u8..=8,
        wvals in proptest::collection::vec(-1.0f32..1.0, MAX_ROWS * MAX_RED),
        xvals in proptest::collection::vec(-1.0f32..1.0, MAX_RED * MAX_COLS),
        bias in -127i64..=127,
    ) {
        let precision = Precision::Qt { weight_bits, act_bits };
        let proof = analyze_model(&spec_for(rows, reduction), &precision)
            .expect("qt rung analyzes");
        let layer = &proof.layers[0];

        let qw = quantized(&wvals, rows, reduction, weight_bits);
        let qx = quantized(&xvals, reduction, cols, act_bits);
        let wm = PackedTermMatrix::from_weights(&qw, tr_encoding::Encoding::Binary);
        let xm = PackedTermMatrix::from_data_transposed(&qx, tr_encoding::Encoding::Binary);

        for &acc in &try_packed_term_matmul_i64(&wm, &xm).unwrap() {
            prop_assert!(
                layer.acc_range.contains(acc + bias),
                "accumulator {acc} + bias {bias} outside {} (w{weight_bits} a{act_bits})",
                layer.acc_range
            );
        }
    }
}

/// The default serve-ladder rungs, spelled out the way
/// `LadderConfig::default_tr_ladder` builds them (tr-analysis cannot
/// depend on tr-serve — the dependency runs the other way).
fn default_rungs() -> Vec<Precision> {
    vec![
        Precision::Tr(TrConfig::new(8, 24).with_data_terms(3)),
        Precision::Tr(TrConfig::new(8, 16).with_data_terms(3)),
        Precision::Tr(TrConfig::new(8, 12).with_data_terms(3)),
        Precision::Tr(TrConfig::new(8, 8).with_data_terms(2)),
        Precision::Qt { weight_bits: 8, act_bits: 8 },
    ]
}

/// The three zoo architectures, spec'd from fresh fixed-seed builds.
fn zoo_specs() -> Vec<ModelSpec> {
    let mut rng = Rng::seed_from_u64(7);
    let mut mlp = build_mlp(10, &mut rng);
    let mut cnn = build_mobilenet(10, &mut rng);
    let mut lstm = LstmLm::new(40, 64, 0.0, &mut rng);
    vec![
        ModelSpec::from_sites("mlp", &mut mlp).expect("mlp spec"),
        ModelSpec::from_sites("mobilenet-v2", &mut cnn).expect("cnn spec"),
        ModelSpec::from_sites("lstm-lm", &mut lstm).expect("lstm spec"),
    ]
}

/// Negative direction: for every zoo model at every default rung, the
/// proof verifies at its own required width, and narrowing that width by
/// one bit reports a violation naming a layer.
#[test]
fn narrowing_any_zoo_proof_by_one_bit_is_a_violation() {
    for spec in zoo_specs() {
        for rung in default_rungs() {
            let proof = analyze_model(&spec, &rung).expect("default rung analyzes");
            let required = proof.required_bits();
            proof.verify_width(required).expect("proof holds at its own width");
            let err = proof
                .verify_width(required - 1)
                .expect_err("one bit narrower must violate some layer");
            let msg = err.to_string();
            assert!(
                msg.contains(&spec.name) && msg.contains("insufficient"),
                "violation report should name the model and the width: {msg}"
            );
        }
    }
}

/// A narrowed accumulator is caught *by the prover*, never by wraparound:
/// build a worst-case dot that exactly attains the proved envelope, show
/// that an engine emulating one bit less would have silently wrapped it,
/// and show `verify_width`/`violations_at` reject that width up front —
/// before any kernel runs.
#[test]
fn narrowed_width_is_caught_by_the_prover_not_by_wraparound() {
    let reduction = 48usize;
    let precision = Precision::Qt { weight_bits: 8, act_bits: 8 };
    let proof = analyze_model(&spec_for(1, reduction), &precision).expect("qt rung analyzes");
    let layer = &proof.layers[0];
    let required = proof.required_bits();
    let narrow = required - 1;

    // The prover rejects the narrowed width and names the site.
    let bad = proof.violations_at(narrow);
    assert_eq!(bad.len(), 1, "exactly the one site violates");
    assert_eq!(bad[0].name, "dot");
    let msg = proof.verify_width(narrow).expect_err("one bit short must fail").to_string();
    assert!(msg.contains("insufficient") && msg.contains("dot"), "{msg}");

    // Concrete worst case: sign-aligned max-magnitude codes, so every
    // product is +127·127 and the accumulator lands exactly on the
    // proved ceiling minus the one in-band bias addend (127).
    let alt: Vec<f32> =
        (0..reduction).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let qw = quantized(&alt, 1, reduction, 8);
    let qx = quantized(&alt, reduction, 1, 8);
    let wm = PackedTermMatrix::from_weights(&qw, tr_encoding::Encoding::Binary);
    let xm = PackedTermMatrix::from_data_transposed(&qx, tr_encoding::Encoding::Binary);
    let acc = try_packed_term_matmul_i64(&wm, &xm).unwrap()[0];
    assert_eq!(acc, reduction as i64 * 127 * 127);
    assert_eq!(acc + 127, layer.acc_range.hi(), "witness + bias headroom attains the envelope");

    // Had the engine trusted `narrow` bits, two's-complement wraparound
    // would have corrupted this value silently. The proof gate is what
    // stands between the kernel and that outcome.
    let modulus = 1i128 << narrow;
    let mut wrapped = i128::from(acc).rem_euclid(modulus);
    if wrapped >= modulus / 2 {
        wrapped -= modulus;
    }
    assert_ne!(wrapped, i128::from(acc), "a {narrow}-bit accumulator would wrap");
}

/// Deterministic end-to-end check on a real layer shape: the MLP's first
/// linear site (512×784) under the tightest default TR rung, concrete
/// random weights, every output inside the proved interval.
#[test]
fn mlp_first_layer_concrete_pass_respects_the_proof() {
    let cfg = TrConfig::new(8, 8).with_data_terms(2);
    let spec = &zoo_specs()[0];
    let proof = analyze_model(spec, &Precision::Tr(cfg)).expect("mlp analyzes");
    let layer = &proof.layers[0];
    assert_eq!(layer.reduction, 784, "first MLP site is the 784-wide input layer");

    let mut rng = Rng::seed_from_u64(41);
    let w = Tensor::randn(Shape::d2(512, 784), 0.5, &mut rng);
    let x = Tensor::randn(Shape::d2(784, 3), 0.5, &mut rng);
    let qw = quantize(&w, calibrate_max_abs(&w, 8));
    let qx = quantize(&x, calibrate_max_abs(&x, 8));
    let wm = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
    let xm = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(2);
    for &acc in &try_packed_term_matmul_i64(&wm, &xm).unwrap() {
        assert!(layer.acc_range.contains(acc), "accumulator {acc} outside {}", layer.acc_range);
    }
}
