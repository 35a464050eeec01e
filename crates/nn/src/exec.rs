//! Quantized / Term-Revealing inference orchestration.
//!
//! The evaluation workflow of §VI, as an API:
//!
//! 1. train (or load) a float model;
//! 2. [`calibrate_model`] (or [`calibrate_lstm`]) — one forward pass over
//!    calibration data records per-site activation ranges and freezes the
//!    activation quantizers;
//! 3. [`apply_precision`] — install the weight transform (QT, per-value
//!    truncation, or TR) and activation caps at every site;
//! 4. evaluate accuracy and, with [`enable_pair_counting`], collect the
//!    term-pair-multiplication counts of Figs. 15–17.
//!
//! Putting a precision on a site is one operation,
//! [`FakeQuant::install`](crate::fake_quant::FakeQuant::install) of a
//! [`PreparedWeights`]: [`apply_precision`] is [`prepare_model_precision`]
//! then [`apply_precision_prepared`], and [`apply_precision_per_site`]
//! prepares and installs site by site. Every function that walks sites
//! takes any [`QuantSites`]: a [`Layer`] model or the LSTM.

use crate::data::Dataset;
use crate::fake_quant::{prepare_weights, PairCounts, Precision, PreparedWeights};
use crate::layer::{ForwardCtx, Layer, QuantSites};
use crate::lstm::LstmLm;
use crate::train::eval_accuracy_on;
use tr_core::TrError;
use tr_tensor::{Rng, Tensor};

/// Put every site into calibration mode: the next forward records its
/// activation ranges. A calibrating site's activation transform is the
/// identity whatever quantizer it holds, and [`finish_calibration`]
/// replaces that quantizer.
fn begin_calibration(model: &mut (impl QuantSites + ?Sized)) {
    model.visit_quant_sites(&mut |site| {
        site.fq.calibrating = true;
        site.fq.observed_max = 0.0;
    });
}

/// Freeze every site's activation quantizer at `act_bits`.
fn finish_calibration(model: &mut (impl QuantSites + ?Sized), act_bits: u8) {
    model.visit_quant_sites(&mut |site| site.fq.finish_calibration(act_bits));
}

/// Put every site into calibration mode, run the batch, then freeze the
/// activation quantizers at `act_bits`.
pub fn calibrate_model(model: &mut dyn Layer, calib: &Tensor, act_bits: u8, rng: &mut Rng) {
    begin_calibration(model);
    let mut ctx = ForwardCtx::eval(rng);
    let _ = model.forward(calib, &mut ctx);
    finish_calibration(model, act_bits);
}

/// [`calibrate_model`] for the LSTM: the calibration pass runs a token
/// stream.
pub fn calibrate_lstm(lm: &mut LstmLm, tokens: &[usize], act_bits: u8, rng: &mut Rng) {
    begin_calibration(lm);
    let _ = lm.forward(tokens, false, rng);
    finish_calibration(lm, act_bits);
}

/// Install `precision` at every quantization site of an already-calibrated
/// model. `Precision::Float` removes all transforms.
pub fn apply_precision(model: &mut (impl QuantSites + ?Sized), precision: &Precision) {
    let prepared = prepare_model_precision(model, precision);
    apply_precision_prepared(model, precision, &prepared);
}

/// Build the per-site weight transforms for `precision` without touching
/// the model: one [`PreparedWeights`] per quantization site, in visit
/// order. This is the expensive half of [`apply_precision`]; pair it
/// with [`apply_precision_prepared`] to actually flip the model.
pub fn prepare_model_precision(
    model: &mut (impl QuantSites + ?Sized),
    precision: &Precision,
) -> Vec<PreparedWeights> {
    let mut prepared = Vec::new();
    model.visit_quant_sites(&mut |site| {
        prepared.push(prepare_weights(&site.weight.value, precision));
    });
    prepared
}

/// [`apply_precision`] from already-built transforms: installs
/// `prepared[i]` at quantization site `i` (visit order) along with the
/// activation cap. Each site's install is a few `Arc` clones, so a
/// cached precision switch costs microseconds instead of a re-encode —
/// the software mirror of the paper's <100 ns control-register write.
///
/// # Panics
/// If `prepared` does not hold exactly one entry per site.
pub fn apply_precision_prepared(
    model: &mut (impl QuantSites + ?Sized),
    precision: &Precision,
    prepared: &[PreparedWeights],
) {
    let mut i = 0usize;
    model.visit_quant_sites(&mut |site| {
        site.fq.install(&prepared[i], precision);
        i += 1;
    });
    assert_eq!(i, prepared.len(), "prepared transforms do not match the model's site count");
}

/// Install a possibly different precision at every site (§V-G's dynamic
/// reconfiguration: the registers can change group size and budget per
/// layer at run time with negligible delay). `choose` maps a site name to
/// the precision it should run at.
pub fn apply_precision_per_site(
    model: &mut (impl QuantSites + ?Sized),
    choose: &mut dyn FnMut(&str) -> Precision,
) {
    model.visit_quant_sites(&mut |site| {
        let precision = choose(&site.name);
        site.fq.install(&prepare_weights(&site.weight.value, &precision), &precision);
    });
}

/// Enable or disable term-pair counting at every site.
pub fn enable_pair_counting(model: &mut (impl QuantSites + ?Sized), on: bool) {
    model.visit_quant_sites(&mut |site| site.fq.count_pairs = on);
}

/// Toggle bit-true integer execution at every site: layers with an
/// integer kernel (currently `Linear`) run their forward over the packed
/// term planes instead of the float-simulated
/// reconstruction. Sites without the needed state (float precision, not
/// yet calibrated) fall back to the float path silently, and precision
/// switches via [`apply_precision_prepared`] leave the flag untouched —
/// so a serving engine can set it once and flip rungs freely.
pub fn set_integer_exec(model: &mut (impl QuantSites + ?Sized), on: bool) {
    model.visit_quant_sites(&mut |site| site.fq.exec_integer = on);
}

/// Zero the accumulated pair counts.
pub fn reset_pair_counting(model: &mut (impl QuantSites + ?Sized)) {
    model.visit_quant_sites(&mut |site| site.fq.pairs = PairCounts::default());
}

/// Sum pair counts across sites.
pub fn collect_pair_counts(model: &mut (impl QuantSites + ?Sized)) -> PairCounts {
    let mut total = PairCounts::default();
    let mut max_samples = 0u64;
    model.visit_quant_sites(&mut |site| {
        total.actual += site.fq.pairs.actual;
        total.bound += site.fq.pairs.bound;
        total.macs += site.fq.pairs.macs;
        max_samples = max_samples.max(site.fq.pairs.samples);
    });
    // Sites see the same samples; use the max rather than the sum.
    total.samples = max_samples;
    total
}

/// Shape of one quantization site's weight, as the static analyzer sees
/// it: `rows` output vectors each reducing over `reduction` elements.
///
/// Every site stores its weight as an `(out, in)` matrix — conv and
/// depthwise included, via their im2col layout `(out_channels,
/// in_channels·kh·kw)` — so `reduction` is exactly the dot-product length
/// of the tr-core matmul executor and of the conv GEMM
/// (`tr_tensor::conv2d_into`) at that site. This is the only model fact
/// the tr-analysis whole-model range prover needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteShape {
    /// Site name as [`QuantSites::visit_quant_sites`] reports it (e.g.
    /// `"0.linear"`).
    pub name: String,
    /// Number of output vectors (rows of the weight matrix).
    pub rows: usize,
    /// Reduction length of each dot product (columns).
    pub reduction: usize,
}

/// Enumerate the weight shapes of every quantization site, in visit
/// order (the order `prepare_model_precision` builds cache entries in).
pub fn quant_site_shapes(model: &mut (impl QuantSites + ?Sized)) -> Vec<SiteShape> {
    let mut out = Vec::new();
    model.visit_quant_sites(&mut |site| {
        let dims = site.weight.value.shape().dims();
        let reduction = dims.last().copied().unwrap_or(0);
        let rows = dims.iter().rev().skip(1).product();
        out.push(SiteShape { name: site.name, rows, reduction });
    });
    out
}

/// Evaluate accuracy under the currently installed precision.
pub fn evaluate_accuracy(model: &mut dyn Layer, dataset: &Dataset, rng: &mut Rng) -> f64 {
    eval_accuracy_on(model, &dataset.test.x, &dataset.test.y, 64, rng)
}

/// Forward one batch in inference mode under the currently installed
/// precision and return the raw logits. This is the entry point serving
/// layers build on (`tr-serve`): no training state, no pair counting —
/// just the quantized/term-revealed forward pass.
pub fn forward_logits(model: &mut dyn Layer, x: &Tensor, rng: &mut Rng) -> Tensor {
    match try_forward_logits(model, x, rng) {
        Ok(logits) => logits,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`forward_logits`]: a malformed batch (wrong rank, channel
/// count, or spatial dims the geometry rejects) comes back as a
/// [`TrError`] instead of a panic.
pub fn try_forward_logits(
    model: &mut dyn Layer,
    x: &Tensor,
    rng: &mut Rng,
) -> Result<Tensor, TrError> {
    let _span = tr_obs::span("nn.forward");
    let mut ctx = ForwardCtx::eval(rng);
    model.try_forward(x, &mut ctx)
}

/// Classify one batch: argmax over [`forward_logits`], one predicted
/// class per row of `x`.
pub fn classify_batch(model: &mut dyn Layer, x: &Tensor, rng: &mut Rng) -> Vec<usize> {
    match try_classify_batch(model, x, rng) {
        Ok(preds) => preds,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`classify_batch`].
pub fn try_classify_batch(
    model: &mut dyn Layer,
    x: &Tensor,
    rng: &mut Rng,
) -> Result<Vec<usize>, TrError> {
    let logits = try_forward_logits(model, x, rng)?;
    let rows = logits.shape().dims().first().copied().unwrap_or(0);
    Ok((0..rows).map(|r| logits.argmax_row(r)).collect())
}

/// One-call sweep step: calibrate (if needed), apply a precision, and
/// report `(accuracy, pair_counts)` measured over `count_samples` test
/// inputs.
pub fn evaluate_precision(
    model: &mut dyn Layer,
    dataset: &Dataset,
    precision: &Precision,
    count_samples: usize,
    rng: &mut Rng,
) -> (f64, PairCounts) {
    apply_precision(model, precision);
    let accuracy = evaluate_accuracy(model, dataset, rng);
    // Pair counting on a subset (it is much more expensive than inference).
    reset_pair_counting(model);
    enable_pair_counting(model, true);
    let n = count_samples.min(dataset.test.len()).max(1);
    let x = dataset.test.x.slice_batch(0, n);
    let mut ctx = ForwardCtx::eval(rng);
    let _ = model.forward(&x, &mut ctx);
    enable_pair_counting(model, false);
    let mut counts = collect_pair_counts(model);
    // Conv sites count one representative image per forward; normalize all
    // sites to per-sample by recording the batch size here.
    counts.samples = counts.samples.max(1);
    (accuracy, counts)
}

/// [`evaluate_precision`] for the LSTM: perplexity plus term-pair counts
/// per token.
pub fn evaluate_precision_lstm(
    lm: &mut LstmLm,
    valid: &[usize],
    precision: &Precision,
    count_tokens: usize,
    rng: &mut Rng,
) -> (f64, PairCounts) {
    apply_precision(lm, precision);
    let ppl = crate::train::eval_lstm_perplexity(lm, valid, rng);
    reset_pair_counting(lm);
    enable_pair_counting(lm, true);
    let n = count_tokens.min(valid.len().saturating_sub(1)).max(2);
    let _ = lm.forward(&valid[..n], false, rng);
    enable_pair_counting(lm, false);
    let mut counts = collect_pair_counts(lm);
    // LSTM sites record per-token work with samples = 0; normalize to
    // "per token processed".
    counts.samples = n as u64;
    (ppl, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synth_digits;
    use crate::models::mlp::build_mlp;
    use crate::optim::Sgd;
    use crate::train::{train_classifier, TrainConfig};
    use tr_core::TrConfig;

    fn trained_mlp(rng: &mut Rng) -> (crate::Sequential, Dataset) {
        let ds = synth_digits(600, 200, 31);
        let mut model = build_mlp(10, rng);
        let mut opt = Sgd::new(0.1, 0.9, 1e-4);
        let cfg = TrainConfig { epochs: 3, batch: 32, lr_drop_at: Some(2), verbose: false };
        train_classifier(&mut model, &ds, &mut opt, &cfg, rng);
        (model, ds)
    }

    #[test]
    fn qt8_preserves_accuracy_and_qt4_degrades() {
        let mut rng = Rng::seed_from_u64(1);
        let (mut model, ds) = trained_mlp(&mut rng);
        let float_acc = evaluate_accuracy(&mut model, &ds, &mut rng);
        let calib = ds.train.x.slice_batch(0, 64);
        calibrate_model(&mut model, &calib, 8, &mut rng);

        apply_precision(&mut model, &Precision::Qt { weight_bits: 8, act_bits: 8 });
        let q8 = evaluate_accuracy(&mut model, &ds, &mut rng);
        assert!(float_acc - q8 < 0.02, "8-bit QT lost too much: {float_acc} -> {q8}");

        // Small eval sets allow a couple of points of noise in either
        // direction, but 3-bit should not systematically beat 8-bit, and
        // 2-bit (ternary weights) should visibly degrade.
        apply_precision(&mut model, &Precision::Qt { weight_bits: 3, act_bits: 8 });
        let q3 = evaluate_accuracy(&mut model, &ds, &mut rng);
        assert!(q3 <= q8 + 0.03, "3-bit should not beat 8-bit: {q3} vs {q8}");
        apply_precision(&mut model, &Precision::Qt { weight_bits: 2, act_bits: 8 });
        let q2 = evaluate_accuracy(&mut model, &ds, &mut rng);
        assert!(q2 < q8, "2-bit should degrade: {q2} vs {q8}");
    }

    #[test]
    fn tr_preserves_accuracy_with_small_budget() {
        let mut rng = Rng::seed_from_u64(2);
        let (mut model, ds) = trained_mlp(&mut rng);
        let calib = ds.train.x.slice_batch(0, 64);
        calibrate_model(&mut model, &calib, 8, &mut rng);
        apply_precision(&mut model, &Precision::Qt { weight_bits: 8, act_bits: 8 });
        let q8 = evaluate_accuracy(&mut model, &ds, &mut rng);
        let cfg = TrConfig::new(8, 12).with_data_terms(3);
        apply_precision(&mut model, &Precision::Tr(cfg));
        let tr = evaluate_accuracy(&mut model, &ds, &mut rng);
        assert!(q8 - tr < 0.03, "TR(g8,k12,s3) lost too much: {q8} -> {tr}");
    }

    #[test]
    fn tr_reduces_term_pairs_vs_qt8() {
        let mut rng = Rng::seed_from_u64(3);
        let (mut model, ds) = trained_mlp(&mut rng);
        let calib = ds.train.x.slice_batch(0, 64);
        calibrate_model(&mut model, &calib, 8, &mut rng);
        let (_, qt_counts) = evaluate_precision(
            &mut model,
            &ds,
            &Precision::Qt { weight_bits: 8, act_bits: 8 },
            16,
            &mut rng,
        );
        let cfg = TrConfig::new(8, 12).with_data_terms(3);
        let (_, tr_counts) =
            evaluate_precision(&mut model, &ds, &Precision::Tr(cfg), 16, &mut rng);
        assert!(qt_counts.actual > 0 && tr_counts.actual > 0);
        let reduction = qt_counts.bound_per_sample() / tr_counts.bound_per_sample();
        assert!(reduction > 2.0, "TR bound reduction only {reduction:.2}x");
        assert!(tr_counts.actual_per_sample() < qt_counts.bound_per_sample());
    }

    #[test]
    fn per_site_precision_mixes_budgets() {
        // Run the first linear layer at an aggressive budget and the
        // classifier head conservatively — the §V-G mixed-configuration
        // mode. Accuracy should sit between the uniform settings.
        let mut rng = Rng::seed_from_u64(5);
        let (mut model, ds) = trained_mlp(&mut rng);
        let calib = ds.train.x.slice_batch(0, 64);
        calibrate_model(&mut model, &calib, 8, &mut rng);

        apply_precision(&mut model, &Precision::Tr(TrConfig::new(8, 8)));
        let uniform_tight = evaluate_accuracy(&mut model, &ds, &mut rng);
        apply_precision(&mut model, &Precision::Tr(TrConfig::new(8, 24)));
        let uniform_loose = evaluate_accuracy(&mut model, &ds, &mut rng);

        let mut first = true;
        crate::exec::apply_precision_per_site(&mut model, &mut |_| {
            let cfg = if first { TrConfig::new(8, 8) } else { TrConfig::new(8, 24) };
            first = false;
            Precision::Tr(cfg)
        });
        let mixed = evaluate_accuracy(&mut model, &ds, &mut rng);
        assert!(
            mixed + 1e-9 >= uniform_tight.min(uniform_loose) - 0.02,
            "mixed {mixed} below both uniform settings ({uniform_tight}, {uniform_loose})"
        );
    }

    #[test]
    fn classify_batch_matches_accuracy_eval() {
        let mut rng = Rng::seed_from_u64(6);
        let (mut model, ds) = trained_mlp(&mut rng);
        let calib = ds.train.x.slice_batch(0, 64);
        calibrate_model(&mut model, &calib, 8, &mut rng);
        apply_precision(&mut model, &Precision::Tr(TrConfig::new(8, 12).with_data_terms(3)));
        let n = 64.min(ds.test.len());
        let x = ds.test.x.slice_batch(0, n);
        let preds = classify_batch(&mut model, &x, &mut rng);
        assert_eq!(preds.len(), n);
        let correct = preds.iter().zip(&ds.test.y[..n]).filter(|(p, y)| p == y).count();
        let acc_here = correct as f64 / n as f64;
        let acc_full = eval_accuracy_on(&mut model, &x, &ds.test.y[..n], 64, &mut rng);
        assert!((acc_here - acc_full).abs() < 1e-9, "{acc_here} vs {acc_full}");
    }

    #[test]
    fn integer_exec_matches_float_simulation_end_to_end() {
        let mut rng = Rng::seed_from_u64(7);
        let (mut model, ds) = trained_mlp(&mut rng);
        let calib = ds.train.x.slice_batch(0, 64);
        calibrate_model(&mut model, &calib, 8, &mut rng);
        let cfg = TrConfig::new(8, 4).with_data_terms(2);
        apply_precision(&mut model, &Precision::Tr(cfg));
        let x = ds.test.x.slice_batch(0, 16);
        let sim = forward_logits(&mut model, &x, &mut rng);
        set_integer_exec(&mut model, true);
        let bit_true = forward_logits(&mut model, &x, &mut rng);
        // Same real-valued product, different rounding points: the
        // integer path rounds once per output, the simulation per f32 op.
        assert!(sim.rel_l2(&bit_true) < 1e-4, "rel {}", sim.rel_l2(&bit_true));
        // Precision flips leave the flag alone (the serve rung-switch
        // contract): prepared installs don't touch exec_integer.
        let prepared = prepare_model_precision(&mut model, &Precision::Tr(cfg));
        apply_precision_prepared(&mut model, &Precision::Tr(cfg), &prepared);
        let mut still_on = false;
        QuantSites::visit_quant_sites(&mut model, &mut |site| still_on |= site.fq.exec_integer);
        assert!(still_on);
        set_integer_exec(&mut model, false);
        let off = forward_logits(&mut model, &x, &mut rng);
        assert_eq!(off, sim);
    }

    #[test]
    fn float_precision_clears_transforms() {
        let mut rng = Rng::seed_from_u64(4);
        let (mut model, ds) = trained_mlp(&mut rng);
        let before = evaluate_accuracy(&mut model, &ds, &mut rng);
        let calib = ds.train.x.slice_batch(0, 32);
        calibrate_model(&mut model, &calib, 8, &mut rng);
        apply_precision(&mut model, &Precision::Qt { weight_bits: 4, act_bits: 8 });
        apply_precision(&mut model, &Precision::Float);
        let after = evaluate_accuracy(&mut model, &ds, &mut rng);
        assert_eq!(before, after);
    }
}
