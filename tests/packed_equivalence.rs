//! Property-based equivalence of the packed term planes against a
//! reference built from the algorithm's definitions (DESIGN.md §11): one
//! encoder-built `TermExpr` per element, Term Revealing by `reveal_row`,
//! the data cap by `TermExpr::truncate_top`, and dot products and pair
//! counts by walking every term pair. The packed kernels are only allowed
//! into the datapath because they are bit-identical: every test here
//! compares exact integer or f32 bit patterns, never tolerances.

use proptest::prelude::*;
use tr_core::reveal::reveal_row;
use tr_core::{
    group_pair_histogram, term_pairs_total_packed, try_code_matmul_i64, try_packed_term_matmul_i64,
    PackedTermMatrix, TrConfig,
};
use tr_encoding::{Encoding, TermExpr};
use tr_nn::exec::{
    apply_precision, apply_precision_prepared, calibrate_model, forward_logits,
    prepare_model_precision,
};
use tr_nn::layers::Linear;
use tr_nn::{Precision, Sequential};
use tr_quant::{calibrate_max_abs, quantize, QTensor};
use tr_tensor::stats::CountHistogram;
use tr_tensor::{Rng, Shape, Tensor};

fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
    let mut rng = Rng::seed_from_u64(seed);
    let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
    quantize(&t, calibrate_max_abs(&t, 8))
}

fn encoding() -> impl Strategy<Value = Encoding> {
    (0..Encoding::ALL.len()).prop_map(|i| Encoding::ALL[i])
}

fn tr_config() -> impl Strategy<Value = TrConfig> {
    (1usize..12, 1usize..8, 1usize..6)
        .prop_map(|(g, k, s)| TrConfig::new(g, k).with_data_terms(s))
}

/// The reference operand: dot-product vectors (weight rows or transposed
/// data columns) of one `TermExpr` per element.
#[derive(Debug, Clone, PartialEq)]
struct Oracle {
    rows: Vec<Vec<TermExpr>>,
}

impl Oracle {
    /// Row-major codes `(rows, len)`, each encoded on its own.
    fn from_codes(codes: &[i32], rows: usize, len: usize, enc: Encoding) -> Oracle {
        let row = |r: usize| codes[r * len..][..len].iter().map(|&v| enc.terms_of(v)).collect();
        Oracle { rows: (0..rows).map(row).collect() }
    }

    fn weights(q: &QTensor, enc: Encoding) -> Oracle {
        let (rows, len) = q.as_matrix();
        Oracle::from_codes(q.values(), rows, len, enc)
    }

    /// Data `(K, N)` transposed: row `n` is data column `n`.
    fn data_transposed(q: &QTensor, enc: Encoding) -> Oracle {
        let (k, n) = q.as_matrix();
        let vals = q.values();
        let rows = (0..n).map(|c| (0..k).map(|r| enc.terms_of(vals[r * n + c])).collect());
        Oracle { rows: rows.collect() }
    }

    /// The packed matrix read back element by element.
    fn read(p: &PackedTermMatrix) -> Oracle {
        let element = |r, c| TermExpr::from_terms(p.element_terms(r, c).collect());
        let rows = (0..p.rows()).map(|r| (0..p.len()).map(|c| element(r, c)).collect());
        Oracle { rows: rows.collect() }
    }

    fn reveal(mut self, cfg: &TrConfig) -> Oracle {
        for row in &mut self.rows {
            reveal_row(row, cfg.group_size, cfg.group_budget);
        }
        self
    }

    fn cap_terms(mut self, s: usize) -> Oracle {
        for e in self.rows.iter_mut().flatten() {
            *e = e.truncate_top(s);
        }
        self
    }

    fn codes(&self) -> Vec<i64> {
        self.rows.iter().flatten().map(TermExpr::value).collect()
    }
}

/// The §III-B dot product: every (weight term, data term) pair adds
/// `Term::mul().value()`.
fn pair_walk_dot(w: &[TermExpr], x: &[TermExpr]) -> i64 {
    let mut acc = 0i64;
    for (we, xe) in w.iter().zip(x) {
        for wt in we.iter() {
            for xt in xe.iter() {
                acc += wt.mul(*xt).value();
            }
        }
    }
    acc
}

fn pair_walk_matmul(w: &Oracle, x: &Oracle) -> Vec<i64> {
    w.rows.iter().flat_map(|wr| x.rows.iter().map(move |xr| pair_walk_dot(wr, xr))).collect()
}

/// Every group's pair count across the matmul, plus the total: a group
/// pair costs `Σ terms(w_i) · terms(x_i)`.
fn pair_histogram(w: &Oracle, x: &Oracle, g: usize) -> (CountHistogram, u64) {
    let mut hist = CountHistogram::new();
    let mut total = 0u64;
    for wr in &w.rows {
        for xr in &x.rows {
            for (wg, xg) in wr.chunks(g).zip(xr.chunks(g)) {
                let pairs = wg.iter().zip(xg).map(|(a, b)| a.len() * b.len()).sum();
                hist.record(pairs);
                total += pairs as u64;
            }
        }
    }
    (hist, total)
}

/// Batches the code operand is checked at: none, one row, rows off the
/// kernel's 4-row block, and `mlp_int_k8`'s 32.
const CODE_BATCHES: [usize; 4] = [0, 1, 3, 32];
/// Reduction lengths: one code, either side of the 32-code padding step,
/// and the MLP's 784.
const CODE_LENS: [usize; 5] = [1, 31, 32, 33, 784];

/// `n` activation codes in ±255 (the code-term table's edge), a quarter
/// of them drawn from the 8-bit edges ±127, ±128 (a cap rounding 127
/// up) and ±255.
fn edge_codes(n: usize, seed: u64) -> Vec<i32> {
    const EDGES: [i32; 6] = [127, -127, 128, -128, 255, -255];
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len())],
            _ => i32::try_from(rng.below(511)).expect("fits") - 255,
        })
        .collect()
}

/// Runs `f` with the recorder on and returns how many matmuls took the
/// narrow and the wide kernel meanwhile. Other tests may run matmuls of
/// their own, so callers assert lower bounds only.
fn kernel_calls(f: impl FnOnce()) -> (u64, u64) {
    static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _serial = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let count = || {
        let snap = tr_obs::recorder().snapshot();
        let get = |kernel: &str| snap.counter(&format!("core.matmul.codeplane.{kernel}"));
        (get("narrow"), get("wide"))
    };
    let was = tr_obs::enabled();
    tr_obs::set_enabled(true);
    let before = count();
    f();
    let after = count();
    tr_obs::set_enabled(was);
    (after.0 - before.0, after.1 - before.1)
}

/// `codes` (`batch` rows) against `w` three ways — the code operand, the
/// same codes packed as term planes, and the oracle's pair walk — which
/// must agree bit for bit; returns the product.
fn race_code_operand(codes: &[i32], batch: usize, w: &PackedTermMatrix, w_oracle: &Oracle) -> Vec<i64> {
    let k = w.len();
    let by_codes = try_code_matmul_i64(codes, batch, w).expect("codes fill the batch");
    for enc in Encoding::ALL {
        let terms = PackedTermMatrix::from_codes(codes, batch, k, enc);
        let by_terms = try_packed_term_matmul_i64(&terms, w).expect("shapes agree");
        assert_eq!(by_codes, by_terms, "{enc}: code operand vs term operand");
        let walk = pair_walk_matmul(&Oracle::from_codes(codes, batch, k, enc), w_oracle);
        assert_eq!(by_codes, walk, "{enc}: code operand vs pair walk");
    }
    by_codes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_round_trips_through_term_matrix(
        vals in proptest::collection::vec(-512i32..=512, 0..64),
        enc in encoding(),
    ) {
        // Codes → packed planes → per-element `TermExpr`s: the same
        // exponents, signs and within-element order the encoder gives.
        let oracle = Oracle::from_codes(&vals, 1, vals.len(), enc);
        let packed = PackedTermMatrix::from_vector(&vals, enc);
        prop_assert_eq!(Oracle::read(&packed), oracle.clone());
        prop_assert_eq!(oracle.codes(), packed.reconstruct_codes());
    }

    #[test]
    fn one_pass_build_matches_convert_then_pack(
        (m, k, seed) in (1usize..5, 1usize..24, any::<u64>()),
        enc in encoding(),
    ) {
        let q = quantized(m, k, seed);
        let direct = PackedTermMatrix::from_weights(&q, enc);
        prop_assert_eq!(Oracle::read(&direct), Oracle::weights(&q, enc));
        let dt = PackedTermMatrix::from_data_transposed(&q, enc);
        prop_assert_eq!(Oracle::read(&dt), Oracle::data_transposed(&q, enc));
    }

    #[test]
    fn packed_reveal_and_cap_match_legacy_bitwise(
        (m, k, seed) in (1usize..5, 1usize..24, any::<u64>()),
        enc in encoding(),
        cfg in tr_config(),
        cap in 1usize..6,
    ) {
        // Reveal parity includes the deterministic waterline tiebreak:
        // element equality fails if the packed path ever keeps a
        // different term than the reference receding water.
        let q = quantized(m, k, seed);
        let revealed = PackedTermMatrix::from_weights(&q, enc).reveal(&cfg);
        prop_assert_eq!(Oracle::read(&revealed), Oracle::weights(&q, enc).reveal(&cfg));
        let capped = PackedTermMatrix::from_weights(&q, enc).cap_terms(cap);
        prop_assert_eq!(Oracle::read(&capped), Oracle::weights(&q, enc).cap_terms(cap));
    }

    #[test]
    fn packed_matmul_and_dot_match_legacy(
        (m, k, n, seed) in (1usize..5, 1usize..24, 1usize..5, any::<u64>()),
        enc in encoding(),
        cfg in tr_config(),
        cap in 1usize..6,
    ) {
        let qw = quantized(m, k, seed);
        let qx = quantized(k, n, seed.wrapping_add(1));
        let w = Oracle::weights(&qw, enc).reveal(&cfg);
        let x = Oracle::data_transposed(&qx, enc).cap_terms(cap);
        let pw = PackedTermMatrix::from_weights(&qw, enc).reveal(&cfg);
        let px = PackedTermMatrix::from_data_transposed(&qx, enc).cap_terms(cap);
        // Every cell is one dot product, so the matmul's output equals
        // the oracle's per-cell pair walk.
        let got = try_packed_term_matmul_i64(&pw, &px).expect("shapes agree");
        prop_assert_eq!(got, pair_walk_matmul(&w, &x));
    }

    #[test]
    fn code_operand_matches_the_term_operand_and_the_pair_walk(
        (batch, k) in (0..CODE_BATCHES.len(), 0..CODE_LENS.len())
            .prop_map(|(b, k)| (CODE_BATCHES[b], CODE_LENS[k])),
        (n, seed) in (1usize..4, any::<u64>()),
        enc in encoding(),
        cfg in tr_config(),
    ) {
        // `Linear`'s integer forward: capped activation codes straight
        // into the kernel against revealed weights, versus the codes
        // packed in every encoding, versus the §III-B pair walk.
        let codes = edge_codes(batch * k, seed);
        let qw = quantized(n, k, seed.wrapping_add(1));
        let w = PackedTermMatrix::from_weights(&qw, enc).reveal(&cfg);
        let got = race_code_operand(&codes, batch, &w, &Oracle::weights(&qw, enc).reveal(&cfg));
        prop_assert_eq!(got.len(), batch * n);
    }

    #[test]
    fn group_pair_histogram_matches_the_oracle(
        (m, k, n, seed) in (1usize..5, 1usize..40, 1usize..5, any::<u64>()),
        enc in encoding(),
        cfg in tr_config(),
        cap in 1usize..6,
    ) {
        // Per-group pair counts (the Fig. 5 histogram, its max and p99)
        // and the matmul's total, raw and after TR plus the data cap.
        let qw = quantized(m, k, seed);
        let qx = quantized(k, n, seed.wrapping_add(1));
        let raw = (
            (Oracle::weights(&qw, enc), Oracle::data_transposed(&qx, enc)),
            (
                PackedTermMatrix::from_weights(&qw, enc),
                PackedTermMatrix::from_data_transposed(&qx, enc),
            ),
        );
        let tr = (
            (raw.0 .0.clone().reveal(&cfg), raw.0 .1.clone().cap_terms(cap)),
            (raw.1 .0.clone().reveal(&cfg), raw.1 .1.clone().cap_terms(cap)),
        );
        for ((w, x), (pw, px)) in [raw, tr] {
            let g = cfg.group_size;
            let (want, total) = pair_histogram(&w, &x, g);
            let got = group_pair_histogram(&pw, &px, g);
            prop_assert_eq!(got.histogram.counts(), want.counts());
            prop_assert_eq!(got.max, want.max());
            prop_assert_eq!(got.p99, want.quantile(0.99));
            prop_assert_eq!(term_pairs_total_packed(&pw, &px), total);
        }
    }

    #[test]
    fn prepared_precision_swap_matches_fresh_encode_bitwise(
        seed in any::<u64>(),
        g in 1usize..8,
        k in 1usize..6,
        s in 1usize..4,
        bits in 4u8..=8,
    ) {
        // The serve-layer rung cache installs PreparedWeights built once
        // per precision; logits must match a model that re-encodes on
        // every switch, bit for bit.
        let build = || {
            let mut rng = Rng::seed_from_u64(seed);
            let mut model = Sequential::new()
                .push(Linear::new(6, 5, &mut rng))
                .push(Linear::new(5, 3, &mut rng));
            let calib = Tensor::randn(Shape::d2(8, 6), 1.0, &mut rng);
            calibrate_model(&mut model, &calib, 8, &mut rng);
            model
        };
        let mut fresh = build();
        let mut cached = build();
        let x = Tensor::randn(Shape::d2(3, 6), 1.0, &mut Rng::seed_from_u64(seed ^ 0xabcd));
        let rungs = [
            Precision::Tr(TrConfig::new(g, k).with_data_terms(s)),
            Precision::Qt { weight_bits: bits, act_bits: 8 },
            Precision::Float,
            Precision::Tr(TrConfig::new(g, k).with_data_terms(s)),
        ];
        for p in &rungs {
            apply_precision(&mut fresh, p);
            let prepared = prepare_model_precision(&mut cached, p);
            apply_precision_prepared(&mut cached, p, &prepared);
            let want = forward_logits(&mut fresh, &x, &mut Rng::seed_from_u64(7));
            let got = forward_logits(&mut cached, &x, &mut Rng::seed_from_u64(7));
            prop_assert_eq!(want.data(), got.data(), "{}", p.label());
        }
    }
}

/// Every code in ±1024 — across the code-term table's ±255 edge into the
/// encoder fallback — for all four encodings.
fn exhaustive_codes() -> Vec<i32> {
    (-1024..=1024).collect()
}

#[test]
fn code_term_table_matches_the_encoder_exhaustively() {
    for enc in Encoding::ALL {
        let table = enc.table();
        for code in exhaustive_codes() {
            let expect = enc.terms_of(code);
            match table.get(code) {
                Some(t) => assert_eq!(t.iter().collect::<Vec<_>>(), expect.terms(), "{enc} {code}"),
                None => assert!(code.abs() > tr_encoding::TABLE_RANGE, "{enc} {code} missing"),
            }
        }
    }
}

#[test]
fn table_built_planes_match_the_legacy_conversion_exhaustively() {
    let codes = exhaustive_codes();
    // 2049 = 3 x 683; 16-bit codes so every value is in range.
    let q = QTensor::from_codes(
        codes.clone(),
        tr_quant::QuantParams { scale: 1.0, bits: 16 },
        Shape::d2(3, 683),
    );
    for enc in Encoding::ALL {
        let pairs = [
            (
                PackedTermMatrix::from_vector(&codes, enc),
                Oracle::from_codes(&codes, 1, codes.len(), enc),
            ),
            (PackedTermMatrix::from_weights(&q, enc), Oracle::weights(&q, enc)),
            (PackedTermMatrix::from_data_transposed(&q, enc), Oracle::data_transposed(&q, enc)),
            (
                PackedTermMatrix::from_codes(&codes, 683, 3, enc),
                Oracle::from_codes(&codes, 683, 3, enc),
            ),
        ];
        for (i, (table_built, oracle)) in pairs.iter().enumerate() {
            assert_eq!(Oracle::read(table_built), *oracle, "{enc} #{i}");
            // A term-at-a-time rebuild (an uncapping cap) lays down the
            // same planes, padding sign bits and seal included.
            assert_eq!(table_built.clone().cap_terms(usize::MAX), *table_built, "{enc} #{i}");
        }
    }
}

/// The table-capped activation transform emits exactly the f32 bits of
/// `real(truncate_value(code(v)))` — the `TermExpr` path — at every
/// activation width, cap encoding and budget, over inputs that reach
/// every code and saturate past `±qmax`.
#[test]
fn activation_transform_matches_the_term_expr_path_bitwise() {
    use tr_encoding::Term;
    use tr_nn::FakeQuant;
    use tr_quant::QuantParams;
    for bits in 2u8..=8 {
        let params = QuantParams { scale: 0.37, bits };
        let qmax = params.qmax();
        let xs: Vec<f32> =
            (-(qmax + 3) * 4..=(qmax + 3) * 4).map(|i| i as f32 * params.scale * 0.25).collect();
        let x = Tensor::from_vec(xs.clone(), Shape::d2(1, xs.len()));
        let caps = std::iter::once(None)
            .chain(Encoding::ALL.iter().flat_map(|&e| (0..=8).map(move |s| Some((e, s)))));
        for cap in caps {
            let mut fq = FakeQuant { act_params: Some(params), act_cap: cap, ..FakeQuant::default() };
            let y = fq.transform_input(&x);
            let (y2, codes) = fq.transform_input_codes(&x);
            let codes = codes.expect("an active quantizer yields codes");
            for (i, &v) in xs.iter().enumerate() {
                let code = params.code(v);
                let capped = match cap {
                    None => code,
                    Some((enc, s)) => {
                        let kept: Vec<Term> = enc.terms_of(code).terms().iter().take(s).copied().collect();
                        i32::try_from(kept.iter().map(|t| t.value()).sum::<i64>()).unwrap()
                    }
                };
                let expect = params.real(capped).to_bits();
                assert_eq!(y.data()[i].to_bits(), expect, "bits {bits} cap {cap:?} x {v}");
                assert_eq!(y2.data()[i].to_bits(), expect, "bits {bits} cap {cap:?} x {v}");
                assert_eq!(codes[i], capped, "bits {bits} cap {cap:?} x {v}");
            }
        }
    }
}

/// The code operand takes the `i64` loop exactly where the term operand
/// does: at a code no `i16` holds (+32768, and -32768, whose square
/// would wrap a pair sum) and at a pair whose bound reaches exactly
/// `2³¹`, with the pair one below it still narrow; a code row of the
/// wrong width is refused.
#[test]
fn code_operand_goes_wide_where_the_bound_refuses() {
    let weights = |rows: usize, k: usize, v: i32| {
        let w = PackedTermMatrix::from_codes(&vec![v; rows * k], rows, k, Encoding::Hese);
        let oracle = Oracle::from_codes(&vec![v; rows * k], rows, k, Encoding::Hese);
        (w, oracle)
    };
    let (w, oracle) = weights(4, 40, 3);
    for big in [32768, -32768] {
        let mut codes = edge_codes(2 * 40, 29);
        codes[41] = big;
        let (_, wide) = kernel_calls(|| {
            race_code_operand(&codes, 2, &w, &oracle);
        });
        assert!(wide >= 5, "code {big}: the code and term operands must all run wide");
    }
    // 2¹³ · 2¹³ · 32 = 2³¹: every dot is exactly 2³¹, one past i32::MAX.
    // K = 31 pads to the same 32 codes, so the bound refuses it too.
    for k in [32, 31] {
        let (w, oracle) = weights(1, k, 8192);
        let codes = vec![8192; 3 * k];
        let (_, wide) = kernel_calls(|| {
            let want = i64::from(8192 * 8192) * i64::try_from(k).expect("small");
            assert_eq!(race_code_operand(&codes, 3, &w, &oracle), vec![want; 3]);
        });
        assert!(wide >= 5, "k {k}: a 2^31 bound must run wide");
    }
    let (w, oracle) = weights(1, 32, 8191);
    let (narrow, _) = kernel_calls(|| {
        race_code_operand(&[8192; 3 * 32], 3, &w, &oracle);
    });
    assert!(narrow >= 5, "a bound one pair below 2^31 runs narrow");
    let err = try_code_matmul_i64(&[1; 4 * 33], 4, &w).expect_err("33 codes a row against 32");
    assert!(err.to_string().contains("33 vs 32"), "{err}");
    assert!(try_code_matmul_i64(&[1; 5], 2, &w).is_err(), "5 codes fill no 2 rows");
}
