//! The one-pass TR weight preparation against the chain it replaced.
//!
//! `PackedTermMatrix::try_reveal_codes` builds the revealed term planes and
//! the kept codes in one table-driven, row-parallel pass. The oracle is the
//! two-step chain it stands in for — `from_weights` → `reveal` →
//! `reconstruct_codes`, then `MatmulPlanner::for_weights` and, where the
//! planner can route to a bit-plane kernel, `BitPlaneMatrix::from_packed`
//! — and every comparison here is exact: planes, f32 bit patterns, seals
//! and `core.reveal.*` counter deltas. The last test pins that rule: how
//! many decompositions a prepare and an integer forward build.

use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tr_bench::zoo::test_zoo;
use tr_core::matmul::{MatmulPlan, MatmulPlanner};
use tr_core::{BitPlaneMatrix, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_nn::layers::Linear;
use tr_nn::lstm::LstmLm;
use tr_nn::models::{mlp::build_mlp, CnnKind};
use tr_nn::{prepare_weights, ForwardCtx, Layer, Precision, PreparedWeights, QuantSite};
use tr_obs::recorder;
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

/// Planes, seal, kept codes, and everything built from the planes.
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
    let (bp_got, bp_want) = (
        BitPlaneMatrix::from_packed(&got),
        BitPlaneMatrix::from_packed(&want),
    );
    assert_eq!(
        bp_got.checksum(),
        bp_want.checksum(),
        "{what}: bit-plane seal"
    );
    let bound = cfg.data_terms.unwrap_or(7);
    let (pl_got, pl_want) = (
        MatmulPlanner::for_weights(&got, bound),
        MatmulPlanner::for_weights(&want, bound),
    );
    assert_eq!(
        pl_got.checksum(),
        pl_want.checksum(),
        "{what}: planner seal"
    );
}

/// The `Precision::Tr` arm of `prepare_weights` as it was built from the
/// chain.
fn oracle_prepare(w: &Tensor, cfg: &TrConfig) -> PreparedWeights {
    let params = calibrate_max_abs(w, 8);
    let q = quantize(w, params);
    let tm = PackedTermMatrix::from_weights(&q, cfg.weight_encoding).reveal(cfg);
    let codes = tm.reconstruct_codes();
    let data: Vec<f32> = codes.iter().map(|&c| c as f32 * params.scale).collect();
    let data_term_bound = cfg.data_terms.unwrap_or(7);
    let planner = MatmulPlanner::for_weights(&tm, data_term_bound);
    let planes = planner
        .routes_bitplane()
        .then(|| Arc::new(BitPlaneMatrix::from_packed(&tm)));
    PreparedWeights {
        qweight: Some(Arc::new(Tensor::from_vec(data, w.shape().clone()))),
        weight_params: Some(params),
        weight_terms: Some(Arc::new(tm)),
        weight_planes: planes,
        planner: Some(Arc::new(planner)),
        weight_term_bound: cfg.group_budget,
        data_term_bound,
        tr_config: Some(*cfg),
        checksum: 0,
    }
    .seal()
}

/// `prepare_weights` and the oracle agree field by field and seal alike.
/// Returns whether they hold bit-planes.
fn assert_prepared_matches(w: &Tensor, cfg: &TrConfig, what: &str) -> bool {
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
    let seal = |p: &PreparedWeights| p.weight_planes.as_ref().map(|b| b.checksum());
    assert_eq!(seal(&got), seal(&want), "{what}: bit-plane seal");
    let seal = |p: &PreparedWeights| p.planner.as_ref().map(|b| b.checksum());
    assert_eq!(seal(&got), seal(&want), "{what}: planner seal");
    assert_eq!(got.checksum, want.checksum, "{what}: PreparedWeights seal");
    got.verify_integrity()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    got.weight_planes.is_some()
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
    // The configs whose prepares held bit-planes somewhere.
    let mut with_planes = Vec::new();
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
                if assert_prepared_matches(&w, &cfg, &format!("{enc} {rows}x{len} g{g} k{k} s{s}")) {
                    with_planes.push((g, k, s));
                }
            }
        }
    }
    // Both branches stay covered: g8 k4 s1 builds planes on the large
    // shapes, and the ladder's top rung builds none.
    assert!(with_planes.contains(&(8, 4, 1)), "g8 k4 s1 built no planes");
    assert!(!with_planes.contains(&(8, 24, 3)), "g8 k24 s3 built planes");
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
    LstmLm::new(40, 64, 0.0, &mut rng).visit_quant_sites(&mut record_sites(&mut sites));
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
}

/// Bit-plane decompositions built so far (`BitPlaneMatrix::from_packed`
/// calls; the recorder must be on).
fn decompositions() -> u64 {
    recorder().snapshot().counter("core.bitplane.builds")
}

/// The plane rule: `prepare_weights` decomposes a site's weights into
/// bit-planes exactly where its planner can route some batch size to a
/// bit-plane kernel. On the MLP and VGG weights that is no site at any
/// default-ladder rung, and at g8 k4 s1 the sites the planner names. A
/// `Linear` prepared there reuses its planes: each integer forward
/// decomposes only its activations.
#[test]
fn weight_planes_are_built_exactly_where_a_bit_plane_route_can_run() {
    let _serial = serial();
    let was = tr_obs::enabled();
    tr_obs::set_enabled(true);
    let mut rng = Rng::seed_from_u64(26);
    let mut sites = Vec::new();
    build_mlp(10, &mut rng).visit_quant_sites(&mut record_sites(&mut sites));
    CnnKind::Vgg
        .build(10, &mut rng)
        .visit_quant_sites(&mut record_sites(&mut sites));
    let prepare = |w: &Tensor, precision: &Precision| {
        let before = decompositions();
        let p = prepare_weights(w, precision);
        (decompositions() - before, p)
    };
    for rung in &LadderConfig::default_tr_ladder().rungs {
        for (site, w) in &sites {
            let (built, p) = prepare(w, &rung.precision);
            let what = format!("{site} {}", rung.precision.label());
            assert!(p.weight_planes.is_none(), "{what}: planes cached");
            assert_eq!(built, 0, "{what}: decompositions");
        }
    }
    let k4 = Precision::Tr(TrConfig::new(8, 4).with_data_terms(1));
    let mut routable = 0;
    for (site, w) in &sites {
        let (built, p) = prepare(w, &k4);
        let planner = p.planner.as_deref().expect("a TR rung has a planner");
        let want = planner.routes_bitplane();
        assert_eq!(p.weight_planes.is_some(), want, "{site}: planes cached");
        assert_eq!(built, u64::from(want), "{site}: decompositions");
        routable += usize::from(want);
    }
    assert!(routable > 0, "no site is routable at g8 k4 s1");

    let mut layer = Linear::new(784, 512, &mut rng);
    layer.fq.install_weights(&layer.weight().value.clone(), &k4);
    layer.fq.install_act_cap(&k4);
    layer.fq.act_params = Some(QuantParams { scale: 1.0 / 127.0, bits: 8 });
    layer.fq.exec_integer = true;
    let planner = layer.fq.planner.clone().expect("a TR rung has a planner");
    assert!(
        matches!(planner.plan_for(8), MatmulPlan::BitPlane | MatmulPlan::BitPlaneBlocked),
        "batch 8 no longer takes a bit-plane route"
    );
    assert!(layer.fq.weight_planes.is_some());
    let x = Tensor::randn(Shape::d2(8, 784), 0.5, &mut rng).map(f32::abs);
    let before = decompositions();
    for _ in 0..3 {
        layer.forward(&x, &mut ForwardCtx::eval(&mut rng));
    }
    assert_eq!(decompositions() - before, 3, "one activation-side decomposition per forward");
    tr_obs::set_enabled(was);
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
