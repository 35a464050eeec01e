//! The one-pass TR weight preparation against the chain it replaced.
//!
//! `PackedTermMatrix::try_reveal_codes` builds the revealed term planes and
//! the kept codes in one table-driven, row-parallel pass. The oracle is the
//! two-step chain it stands in for — `from_weights` → `reveal` →
//! `reconstruct_codes` — and every comparison here is exact: planes, f32
//! bit patterns, seals and `core.reveal.*` counter deltas. The zoo test
//! also runs the prepared weights: an integer `Linear` forward must be
//! the term-pair walk over its operands, rescaled.

use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tr_bench::zoo::test_zoo;
use tr_core::{try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_nn::layers::Linear;
use tr_nn::lstm::LstmLm;
use tr_nn::models::{mlp::build_mlp, CnnKind};
use tr_nn::{prepare_weights, ForwardCtx, Layer, Precision, PreparedWeights, QuantSite};
use tr_obs::recorder;
use tr_quant::truncate::truncate_value;
use tr_quant::{calibrate_max_abs, quantize, QTensor, QuantParams};
use tr_serve::LadderConfig;
use tr_tensor::{Rng, Shape, Tensor};

/// Every test here reveals, and the counter test reads process-wide
/// counters, so the tests of this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Row-major codes of a `(rows, len)` matrix: 8-bit quantized normal
/// weights, or (`wide`) uniform codes in ±300, past the code-term table's
/// ±255, which take the encoder path.
fn codes(rows: usize, len: usize, seed: u64, wide: bool) -> Vec<i32> {
    let mut rng = Rng::seed_from_u64(seed);
    if wide {
        return (0..rows * len)
            .map(|_| i32::try_from(rng.below(601)).unwrap_or(0) - 300)
            .collect();
    }
    let t = Tensor::randn(Shape::d2(rows.max(1), len.max(1)), 0.25, &mut rng);
    let q = quantize(&t, calibrate_max_abs(&t, 8));
    q.values()[..rows * len].to_vec()
}

/// The chain: encode, reveal, reconstruct.
fn chain(codes: &[i32], rows: usize, len: usize, cfg: &TrConfig) -> (PackedTermMatrix, Vec<i64>) {
    let tm = PackedTermMatrix::from_codes(codes, rows, len, cfg.weight_encoding).reveal(cfg);
    let kept = tm.reconstruct_codes();
    (tm, kept)
}

/// Planes, seal and kept codes.
fn assert_one_pass_matches(codes: &[i32], rows: usize, len: usize, cfg: &TrConfig) {
    let what = format!(
        "{rows}x{len} {} g{} k{} s{:?}",
        cfg.weight_encoding, cfg.group_size, cfg.group_budget, cfg.data_terms
    );
    let (want, want_kept) = chain(codes, rows, len, cfg);
    let (got, got_kept) = PackedTermMatrix::try_reveal_codes(codes.to_vec(), rows, len, cfg)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(got, want, "{what}: planes");
    assert_eq!(got.checksum(), want.checksum(), "{what}: seal");
    got.verify_integrity()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let got_kept: Vec<i64> = got_kept.into_iter().map(i64::from).collect();
    assert_eq!(got_kept, want_kept, "{what}: kept codes");
}

/// The `Precision::Tr` arm of `prepare_weights` as it was built from the
/// chain.
fn oracle_prepare(w: &Tensor, cfg: &TrConfig) -> PreparedWeights {
    let params = calibrate_max_abs(w, 8);
    let q = quantize(w, params);
    let tm = PackedTermMatrix::from_weights(&q, cfg.weight_encoding).reveal(cfg);
    let codes = tm.reconstruct_codes();
    let data: Vec<f32> = codes.iter().map(|&c| c as f32 * params.scale).collect();
    PreparedWeights {
        qweight: Some(Arc::new(Tensor::from_vec(data, w.shape().clone()))),
        weight_params: Some(params),
        weight_terms: Some(Arc::new(tm)),
        weight_term_bound: cfg.group_budget,
        data_term_bound: cfg.data_terms.unwrap_or(7),
        tr_config: Some(*cfg),
        checksum: 0,
    }
    .seal()
}

/// `prepare_weights` and the oracle agree field by field and seal alike.
fn assert_prepared_matches(w: &Tensor, cfg: &TrConfig, what: &str) {
    let want = oracle_prepare(w, cfg);
    let got = prepare_weights(w, &Precision::Tr(*cfg));
    let bits = |p: &PreparedWeights| -> Vec<u32> {
        p.qweight
            .as_ref()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default()
    };
    assert_eq!(bits(&got), bits(&want), "{what}: qweight bits");
    assert_eq!(got.weight_terms, want.weight_terms, "{what}: weight planes");
    assert_eq!(got.checksum, want.checksum, "{what}: PreparedWeights seal");
    got.verify_integrity()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

/// Shapes: aligned and ragged rows, a single row, both empty forms, and
/// matrices large enough to split into several row tiles (the stitch).
const SHAPES: [(usize, usize); 8] = [
    (6, 64),
    (5, 37),
    (1, 50),
    (0, 16),
    (3, 0),
    (1, 1),
    (48, 1000),
    (97, 781),
];

/// (g, k, s): the ladder's rungs, budgets below and above a group's
/// typical term count, g = 1, a group wider than some rows, and a group
/// past the summed histogram's 127-value lanes.
const CONFIGS: [(usize, usize, usize); 10] = [
    (8, 24, 3),
    (8, 16, 3),
    (8, 12, 3),
    (8, 8, 2),
    (8, 4, 1),
    (1, 1, 1),
    (3, 5, 2),
    (16, 7, 3),
    (64, 24, 2),
    (200, 50, 3),
];

#[test]
fn one_pass_reveal_matches_the_chain_for_every_encoding_and_shape() {
    let _serial = serial();
    for enc in Encoding::ALL {
        for (i, &(rows, len)) in SHAPES.iter().enumerate() {
            for &(g, k, s) in &CONFIGS {
                let cfg = TrConfig::new(g, k)
                    .with_data_terms(s)
                    .with_weight_encoding(enc);
                let seed = u64::try_from(i).unwrap_or(0);
                assert_one_pass_matches(&codes(rows, len, seed, false), rows, len, &cfg);
            }
        }
        // Codes past the table fall back to the chain, whole.
        let cfg = TrConfig::new(8, 6).with_weight_encoding(enc);
        assert_one_pass_matches(&codes(9, 40, 77, true), 9, 40, &cfg);
    }
}

#[test]
fn prepared_weights_seal_identically_to_the_chain() {
    let _serial = serial();
    for enc in Encoding::ALL {
        for (i, &(rows, len)) in SHAPES.iter().enumerate() {
            if rows * len == 0 {
                continue; // a weight tensor has at least one element
            }
            let w = Tensor::randn(
                Shape::d2(rows, len),
                0.1,
                &mut Rng::seed_from_u64(40 + i as u64),
            );
            for &(g, k, s) in &CONFIGS {
                let cfg = TrConfig::new(g, k)
                    .with_data_terms(s)
                    .with_weight_encoding(enc);
                assert_prepared_matches(&w, &cfg, &format!("{enc} {rows}x{len} g{g} k{k} s{s}"));
            }
        }
    }
}

#[test]
fn reveal_counters_move_exactly_as_the_chain_moves_them() {
    let _serial = serial();
    let was = tr_obs::enabled();
    tr_obs::set_enabled(true);
    let names = [
        "core.reveal.groups",
        "core.reveal.groups_pruned",
        "core.reveal.terms_kept",
        "core.reveal.terms_pruned",
    ];
    let read = || {
        let snap = recorder().snapshot();
        names.map(|n| snap.counter(n))
    };
    let delta = |f: &dyn Fn()| {
        let before = read();
        f();
        let after = read();
        std::array::from_fn::<u64, 4, _>(|i| after[i] - before[i])
    };
    for &(rows, len) in &SHAPES {
        for &(g, k, s) in &CONFIGS {
            let cfg = TrConfig::new(g, k).with_data_terms(s);
            let c = codes(rows, len, 5, false);
            let want = delta(&|| drop(chain(&c, rows, len, &cfg)));
            let got = delta(&|| {
                drop(PackedTermMatrix::try_reveal_codes(
                    c.clone(),
                    rows,
                    len,
                    &cfg,
                ))
            });
            assert_eq!(
                got, want,
                "{rows}x{len} g{g} k{k}: counter deltas {names:?}"
            );
        }
    }
    tr_obs::set_enabled(was);
}

/// A quant-site visitor that records each site's name and weight.
fn record_sites(out: &mut Vec<(String, Tensor)>) -> impl FnMut(QuantSite<'_>) + '_ {
    |site| out.push((site.name.clone(), site.weight.value.clone()))
}

#[test]
fn every_zoo_model_and_ladder_rung_seals_identically() {
    let _serial = serial();
    // The trained zoo MLP, and every zoo architecture built from a fixed
    // seed: the prepared weights depend on the weights alone.
    let mut models: Vec<(String, Vec<(String, Tensor)>)> = Vec::new();
    let mut sites = Vec::new();
    test_zoo()
        .mlp()
        .0
        .visit_quant_sites(&mut record_sites(&mut sites));
    models.push(("mlp (trained)".into(), sites));
    let mut rng = Rng::seed_from_u64(7);
    let mut sites = Vec::new();
    build_mlp(10, &mut rng).visit_quant_sites(&mut record_sites(&mut sites));
    models.push(("mlp".into(), sites));
    for kind in CnnKind::ALL {
        let mut sites = Vec::new();
        kind.build(10, &mut rng)
            .visit_quant_sites(&mut record_sites(&mut sites));
        models.push((kind.name().into(), sites));
    }
    let mut sites = Vec::new();
    let mut lstm = LstmLm::new(40, 64, 0.0, &mut rng);
    tr_nn::QuantSites::visit_quant_sites(&mut lstm, &mut record_sites(&mut sites));
    models.push(("lstm".into(), sites));
    let ladder = LadderConfig::default_tr_ladder();
    for (model, sites) in &models {
        for rung in &ladder.rungs {
            let Precision::Tr(cfg) = rung.precision else {
                continue; // only the TR arm changed
            };
            for (site, w) in sites {
                assert_prepared_matches(
                    w,
                    &cfg,
                    &format!("{model} {site} {}", rung.precision.label()),
                );
            }
        }
    }
    // The trained MLP's and the VGG's `Linear`s run integer at g8 k4 s1,
    // where their weights keep the fewest terms.
    let vgg = CnnKind::Vgg.name();
    for (model, sites) in models.iter().filter(|(m, _)| m == "mlp (trained)" || m == vgg) {
        for (site, w) in sites.iter().filter(|(s, _)| s.ends_with("linear")) {
            assert_integer_linear_is_the_pair_walk(w, &format!("{model} {site}"));
        }
    }
    // A drained operand at K = 16384, the deep-reduction case.
    let w = PackedTermMatrix::from_codes(&codes(16, 16384, 40, false), 16, 16384, Encoding::Hese)
        .reveal(&TrConfig::new(8, 1));
    let x = PackedTermMatrix::from_codes(&codes(16, 16384, 41, false), 16, 16384, Encoding::Hese)
        .reveal(&TrConfig::new(8, 4))
        .cap_terms(1);
    assert_eq!(try_packed_term_matmul_i64(&w, &x).unwrap(), pair_walk(&w, &x), "K 16384");
}

/// `W (M,K) @ X (K,N)`, with `x` given as its `N` rows, one term pair at
/// a time (§III-B).
fn pair_walk(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
    let mut out = Vec::with_capacity(w.rows() * x.rows());
    for i in 0..w.rows() {
        for j in 0..x.rows() {
            let mut acc = 0i64;
            for c in 0..w.len() {
                for wt in w.element_terms(i, c) {
                    for xt in x.element_terms(j, c) {
                        acc += wt.mul(xt).value();
                    }
                }
            }
            out.push(acc);
        }
    }
    out
}

/// A `Linear` whose quant site is prepared from `w` (`(out, in)`) at g8
/// k4 s1 and run integer at batch 1, 8 and 32 returns the pair walk over
/// its capped activation codes and its weight terms, rescaled.
fn assert_integer_linear_is_the_pair_walk(w: &Tensor, what: &str) {
    let (outs, ins) = w.shape().as_matrix();
    let mut rng = Rng::seed_from_u64(27);
    let mut layer = Linear::new(ins, outs, &mut rng);
    let k4 = Precision::Tr(TrConfig::new(8, 4).with_data_terms(1));
    layer.fq.install(&prepare_weights(w, &k4), &k4);
    let act = QuantParams { scale: 1.0 / 127.0, bits: 8 };
    layer.fq.act_params = Some(act);
    layer.fq.exec_integer = true;
    let (enc, s) = layer.fq.act_cap.expect("the rung caps activations");
    let wt = layer.fq.weight_terms.clone().expect("a TR rung packs its weight terms");
    let scale = act.scale * layer.fq.weight_params.expect("a TR rung quantizes").scale;
    for batch in [1, 8, 32] {
        let x = Tensor::randn(Shape::d2(batch, ins), 0.5, &mut rng).map(f32::abs);
        let y = layer.forward(&x, &mut ForwardCtx::eval(&mut rng));
        let codes: Vec<i32> =
            x.data().iter().map(|&v| truncate_value(enc, act.code(v), s)).collect();
        let data = PackedTermMatrix::from_codes(&codes, batch, ins, enc);
        // Zero bias: the forward adds 0.0 to each rescaled sum.
        let want: Vec<f32> = pair_walk(&data, &wt).iter().map(|&v| v as f32 * scale).collect();
        assert_eq!(y.data(), want.as_slice(), "{what} batch {batch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_reveal_matches_the_chain_on_random_codes(
        seed in any::<u64>(),
        rows in 0usize..40,
        len in 0usize..1200,
        g in 1usize..20,
        k in 1usize..30,
        enc in 0usize..Encoding::ALL.len(),
        bits in 2u8..=8,
    ) {
        let _serial = serial();
        // Full-range codes at `bits`: more term-rich groups than trained
        // weights, so the waterline path runs on most groups.
        let mut rng = Rng::seed_from_u64(seed);
        let qmax = QuantParams { scale: 1.0, bits }.qmax();
        let span = usize::try_from(2 * qmax + 1).unwrap_or(1);
        let c: Vec<i32> =
            (0..rows * len).map(|_| i32::try_from(rng.below(span)).unwrap_or(0) - qmax).collect();
        let q = QTensor::from_codes(c, QuantParams { scale: 1.0, bits }, Shape::d2(rows, len));
        let cfg = TrConfig::new(g, k).with_weight_encoding(Encoding::ALL[enc]);
        assert_one_pass_matches(q.values(), rows, len, &cfg);
    }
}
