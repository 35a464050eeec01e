//! Fake quantization: simulating QT / TR inference inside the float engine.
//!
//! The paper evaluates accuracy with a CUDA kernel that *simulates* TR on
//! a pretrained model. We do the same: each compute layer carries a
//! [`FakeQuant`] state that can (a) observe activation ranges during a
//! calibration pass, (b) replace the layer's weights with their
//! quantized/term-revealed reconstruction, (c) quantize-and-truncate the
//! layer's input activations at run time, and (d) count the term-pair
//! multiplications the equivalent term hardware would perform.
//!
//! Numerically, a dot product over reconstructed codes is exactly what the
//! tMAC computes over kept terms (`tr_core::matmul` proves the identity),
//! so fake quantization yields the same accuracy as bit-true execution
//! while keeping inference fast enough for parameter sweeps.
//!
//! The activation transform (c) is the software form of the paper's
//! on-the-fly HESE encoder: each element is quantized, capped to its top
//! `s` terms, and dequantized. The cap reads the encoding's shared
//! code-term table ([`tr_encoding::TermTable`], built once per process),
//! where a code's top-`s` value is a single load — no per-value encoding
//! and no allocation, and the same f32 bits the encoder-based cap gave.
//! [`FakeQuant::transform_input_codes`] also returns the capped codes,
//! so integer consumers pack exactly what the cap produced (including
//! the `2^(bits-1)` a cap can round up to) instead of re-quantizing the
//! dequantized floats.
//!
//! The transform is vectorized and equal to the per-element path bit for
//! bit. Codes come from [`QuantParams::code_into`], a branch-free
//! restatement of [`QuantParams::code`] compiled for AVX2 and for the
//! baseline ISA that returns `code`'s value on every f32 (tr-quant's
//! `slice` module gives the case split: NaN, in range, past the clamp).
//! For codes of at most 8 bits, the rest of an element's work —
//! `truncate_with` under the cap, then `real` or the identity — depends
//! only on the code, so it is tabulated once per call over the
//! `2·qmax + 1` codes, from the same `truncate_with` and `real` calls the
//! per-element path makes, and each element costs one load. Wider codes
//! and `scale == 0` run the per-element path. The tests race both
//! against `code` and `truncate_with` at every rounding threshold.

use std::convert::Infallible;
use std::sync::Arc;
use tr_core::seal::{fnv1a_word, mix, FNV_OFFSET};
use tr_core::{term_pairs_total_packed, MatmulPlanner, PackedTermMatrix, TrConfig};
use tr_encoding::{Encoding, TermTable};
use tr_quant::truncate::truncate_with;
use tr_quant::{calibrate_max_abs, truncate_values, QuantParams};
use tr_tensor::Tensor;

/// The precision modes of the evaluation (Figs. 15–17, Table III).
///
/// `Eq + Hash` (no float payloads) lets `tr-serve` key its per-rung
/// encoded-weight cache directly on the precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full float (the pretrained baseline).
    Float,
    /// Conventional uniform quantization: `weight_bits` weights,
    /// `act_bits` activations.
    Qt {
        /// Weight bit width (4–8 in Fig. 15).
        weight_bits: u8,
        /// Activation bit width (8 throughout the paper).
        act_bits: u8,
    },
    /// Per-value term truncation without grouping (Fig. 17's "QT"/"HESE"
    /// curves): weights are 8-bit quantized, then each weight keeps its
    /// top `weight_terms` terms under `encoding`; activations are 8-bit
    /// with an optional top-`s` cap.
    PerValue {
        /// Encoding used for the weight-side truncation.
        encoding: Encoding,
        /// Terms kept per weight value.
        weight_terms: usize,
        /// Terms kept per activation value (HESE), if capped.
        data_terms: Option<usize>,
    },
    /// Term Revealing on 8-bit quantized weights, with HESE-capped
    /// activations (the paper's full system).
    Tr(TrConfig),
}

impl Precision {
    /// Activation bit width in effect (8 except where QT overrides it).
    pub fn act_bits(&self) -> u8 {
        match self {
            Precision::Qt { act_bits, .. } => *act_bits,
            _ => 8,
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            Precision::Float => "float32".to_string(),
            Precision::Qt { weight_bits, act_bits } => format!("qt-w{weight_bits}a{act_bits}"),
            Precision::PerValue { encoding, weight_terms, data_terms } => match data_terms {
                Some(s) => format!("{}-k{weight_terms}-s{s}", encoding.name()),
                None => format!("{}-k{weight_terms}", encoding.name()),
            },
            Precision::Tr(cfg) => match cfg.data_terms {
                Some(s) => format!("tr-g{}k{}s{s}", cfg.group_size, cfg.group_budget),
                None => format!("tr-g{}k{}", cfg.group_size, cfg.group_budget),
            },
        }
    }
}

/// Term-pair accounting for one quantization site (§III-B cost proxy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Term pairs actually required by the data that flowed through
    /// (the Fig. 15 x-axis, summed over samples).
    pub actual: u64,
    /// The synchronized processing bound the hardware must provision:
    /// `k·s` per group under TR, `(w_terms)·(a_terms)` per value under QT.
    pub bound: u64,
    /// Multiply-accumulates at this site (for ops-based normalization).
    pub macs: u64,
    /// Inference samples that contributed.
    pub samples: u64,
}

impl PairCounts {
    /// Merge another count into this one.
    pub fn merge(&mut self, other: &PairCounts) {
        self.actual += other.actual;
        self.bound += other.bound;
        self.macs += other.macs;
        self.samples += other.samples;
    }

    /// Actual term pairs per sample.
    pub fn actual_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.actual as f64 / self.samples as f64
        }
    }

    /// Bound term pairs per sample.
    pub fn bound_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.bound as f64 / self.samples as f64
        }
    }
}

/// A site's activation quantizer resolved for one call: the quantizer
/// and, when capped, the cap encoding's code-term table and budget `s`.
#[derive(Clone, Copy)]
struct ActQuantizer {
    params: QuantParams,
    cap: Option<(&'static TermTable, usize)>,
}

/// Inputs quantized per pass of [`ActQuantizer::map_codes`]: its codes
/// stay in a stack buffer between the vector pass and the table pass.
const CODE_CHUNK: usize = 256;

impl ActQuantizer {
    /// The capped code of an already-quantized `code`.
    fn cap(&self, code: i32) -> i32 {
        match self.cap {
            None => code,
            Some((table, s)) => truncate_with(table, code, s),
        }
    }

    /// `out[i] = of(cap(code(xs[i])))` for every element. For codes of
    /// at most 8 bits (and a non-zero scale) the codes come from the
    /// vectorized [`QuantParams::code_into`] and `of ∘ cap` from a table
    /// of its `2·qmax + 1` values built per call, so each element costs
    /// a share of a vector quantize and one load. Wider codes and
    /// `scale == 0` take the per-element path.
    fn map_codes<T: Copy>(&self, xs: &[f32], out: &mut [T], of: impl Fn(i32) -> T) {
        let p = self.params;
        if p.bits > 8 || p.scale == 0.0 {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = of(self.cap(p.code(x)));
            }
            return;
        }
        let qmax = p.qmax();
        let table: Vec<T> = (-qmax..=qmax).map(|c| of(self.cap(c))).collect();
        let mut codes = [0i32; CODE_CHUNK];
        for (xs, out) in xs.chunks(CODE_CHUNK).zip(out.chunks_mut(CODE_CHUNK)) {
            let codes = &mut codes[..xs.len()];
            p.code_into(xs, codes);
            for (o, &c) in out.iter_mut().zip(codes.iter()) {
                // `code_into` keeps `c` within ±qmax: the slot is in 0..2·qmax.
                #[allow(clippy::cast_sign_loss)]
                let slot = (c + qmax) as usize;
                *o = table[slot];
            }
        }
    }
}

/// Per-site fake-quantization state (one per weight matrix).
#[derive(Debug, Clone, Default)]
pub struct FakeQuant {
    /// When true, `observe` records activation ranges.
    pub calibrating: bool,
    /// Largest input magnitude seen during calibration.
    pub observed_max: f32,
    /// Activation quantizer (set once calibration finishes).
    pub act_params: Option<QuantParams>,
    /// Per-value activation term cap `(encoding, s)`.
    pub act_cap: Option<(Encoding, usize)>,
    /// Replacement weight tensor (dequantized reconstruction), if any.
    /// Shared so precision caches can swap it in without copying.
    pub qweight: Option<Arc<Tensor>>,
    /// The weight quantizer used to build `qweight`.
    pub weight_params: Option<QuantParams>,
    /// Packed weight term planes (post-TR): the integer forward's weight
    /// operand, also read for pair counting.
    pub weight_terms: Option<Arc<PackedTermMatrix>>,
    /// Always `None`. Kept only because the end-to-end benchmark reads
    /// it; ROADMAP item 1(b) deletes it.
    pub weight_planes: Option<Arc<Infallible>>,
    /// `Some` exactly where `weight_terms` is. Kept only because the
    /// end-to-end benchmark reads it; ROADMAP item 1(b) deletes it.
    pub planner: Option<Arc<MatmulPlanner>>,
    /// Per-value weight term bound (for the QT bound accounting).
    pub weight_term_bound: usize,
    /// Per-value data term bound.
    pub data_term_bound: usize,
    /// TR config in effect, if mode is TR (for group bounds).
    pub tr_config: Option<TrConfig>,
    /// When true, layers with an integer kernel (currently `Linear`)
    /// execute bit-true over the packed terms instead of the
    /// float-simulated reconstruction. Orthogonal to the installed
    /// precision: rung switches via [`FakeQuant::install`] leave it alone.
    pub exec_integer: bool,
    /// When true, forwards accumulate into `pairs`.
    pub count_pairs: bool,
    /// Accumulated pair counts.
    pub pairs: PairCounts,
}

impl FakeQuant {
    /// Record an activation range observation during calibration.
    pub fn observe(&mut self, x: &Tensor) {
        if self.calibrating {
            self.observed_max = self.observed_max.max(x.max_abs());
        }
    }

    /// Finish calibration: freeze the activation quantizer at `bits`.
    pub fn finish_calibration(&mut self, bits: u8) {
        self.calibrating = false;
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let scale = if self.observed_max == 0.0 { 0.0 } else { self.observed_max / qmax };
        self.act_params = Some(QuantParams { scale, bits });
    }

    /// Apply the activation transform (quantize → optional term cap →
    /// dequantize). Identity while inactive or calibrating.
    pub fn transform_input(&mut self, x: &Tensor) -> Tensor {
        self.observe(x);
        let mut out = Vec::new();
        self.transform_slice_into(x.data(), &mut out);
        Tensor::from_vec(out, x.shape().clone())
    }

    /// [`FakeQuant::transform_input`] that also hands back the capped
    /// integer codes behind its output (`None` while inactive or
    /// calibrating). Element `i` of the tensor is `real(codes[i])`, so
    /// integer consumers — the packed matmul, pair counting — read the
    /// codes the cap produced instead of re-quantizing the floats, which
    /// would clamp a cap that rounded up to `2^(bits-1)` (HESE at `s = 1`
    /// turns `127 = 2^7 - 2^0` into 128) back to `qmax`.
    pub fn transform_input_codes(&mut self, x: &Tensor) -> (Tensor, Option<Vec<i32>>) {
        self.observe(x);
        let (Some(codes), Some(params)) = (self.capped_codes(x.data()), self.act_params) else {
            return (x.clone(), None);
        };
        let real = codes.iter().map(|&c| params.real(c)).collect();
        (Tensor::from_vec(real, x.shape().clone()), Some(codes))
    }

    /// The transform of part of a batch that [`FakeQuant::observe`] has
    /// already seen, written into `out` (resized to `xs`): layers that
    /// stream a batch image by image transform each image into one
    /// reused buffer. The transform is element-wise, so this gives the
    /// bits [`FakeQuant::transform_input`] gives those elements.
    pub(crate) fn transform_slice_into(&self, xs: &[f32], out: &mut Vec<f32>) {
        out.resize(xs.len(), 0.0);
        match self.act_quantizer() {
            None => out.copy_from_slice(xs),
            Some(q) => q.map_codes(xs, out, |c| q.params.real(c)),
        }
    }

    /// The capped codes of `xs`, as [`FakeQuant::transform_input_codes`]
    /// returns them (`None` while inactive or calibrating).
    pub(crate) fn capped_codes(&self, xs: &[f32]) -> Option<Vec<i32>> {
        let q = self.act_quantizer()?;
        let mut codes = vec![0; xs.len()];
        q.map_codes(xs, &mut codes, |c| c);
        Some(codes)
    }

    /// The activation quantizer and cap in effect, with the cap's
    /// code-term table fetched once for the whole tensor. `None` while
    /// inactive or calibrating.
    fn act_quantizer(&self) -> Option<ActQuantizer> {
        if self.calibrating {
            return None;
        }
        Some(ActQuantizer {
            params: self.act_params?,
            cap: self.act_cap.map(|(enc, s)| (enc.table(), s)),
        })
    }

    /// The weight tensor inference should use.
    pub fn effective_weight<'a>(&'a self, w: &'a Tensor) -> &'a Tensor {
        self.qweight.as_deref().unwrap_or(w)
    }

    /// True when [`FakeQuant::transform_input`] would return `x`
    /// unchanged *and* observe nothing — lets hot eval paths borrow the
    /// input instead of cloning a tensor per forward.
    #[must_use]
    pub fn input_passthrough(&self) -> bool {
        !self.calibrating && self.act_params.is_none()
    }

    /// Put `precision` on this site: swap in its already-built weight
    /// transform `p` (from [`prepare_weights`] for the same precision)
    /// and the activation cap `precision` implies. `Precision::Float`
    /// also drops the activation quantizer, so the site runs plain float;
    /// the quantizer scale itself comes from calibration. This is a
    /// handful of `Arc` clones and field copies: the cheap half that
    /// precision ladders call per step, against one [`prepare_weights`]
    /// per rung. `exec_integer` is left alone.
    pub fn install(&mut self, p: &PreparedWeights, precision: &Precision) {
        self.qweight = p.qweight.clone();
        self.weight_params = p.weight_params;
        self.planner = p.weight_terms.as_ref().map(|_| Arc::new(MatmulPlanner));
        self.weight_terms = p.weight_terms.clone();
        self.weight_term_bound = p.weight_term_bound;
        self.data_term_bound = p.data_term_bound;
        self.tr_config = p.tr_config;
        self.act_cap = match precision {
            Precision::PerValue { data_terms: Some(s), .. } => Some((Encoding::Hese, *s)),
            Precision::Tr(cfg) => cfg.data_terms.map(|s| (cfg.data_encoding, s)),
            _ => None,
        };
        if matches!(precision, Precision::Float) {
            self.act_params = None;
        }
    }

    /// Count term pairs for a dot-product batch: `data` is the quantized
    /// data operand as packed term planes aligned with the cached weight
    /// terms, `samples` the number of inference samples it covers.
    pub fn count_matmul(&mut self, data: &PackedTermMatrix, samples: u64) {
        if !self.count_pairs {
            return;
        }
        let Some(wt) = &self.weight_terms else { return };
        let macs = (wt.rows() * wt.len() * data.rows()) as u64;
        let actual = term_pairs_total_packed(wt, data);
        let bound = match self.tr_config {
            Some(cfg) => {
                // k·s per group, groups per dot product = ceil(K / g).
                let groups = wt.len().div_ceil(cfg.group_size) as u64;
                let per_dot = groups * cfg.pair_bound(self.data_term_bound) as u64;
                per_dot * (wt.rows() * data.rows()) as u64
            }
            None => macs * (self.weight_term_bound * self.data_term_bound) as u64,
        };
        self.pairs.merge(&PairCounts { actual, bound, macs, samples });
    }
}

/// The weight-side transform for one `(weight, precision)` pair, built
/// once and installable many times.
///
/// Building one ([`prepare_weights`]) is the expensive step: quantize,
/// then encode the kept codes into term planes. Installing
/// ([`FakeQuant::install`]) is a couple of `Arc` clones, which is what
/// lets `tr-serve` cache one of these per precision rung and flip a
/// model's operating point at run time without re-encoding anything.
#[derive(Debug, Clone, Default)]
pub struct PreparedWeights {
    /// Dequantized reconstruction inference should use (`None` = float).
    pub qweight: Option<Arc<Tensor>>,
    /// The weight quantizer behind `qweight`.
    pub weight_params: Option<QuantParams>,
    /// Packed weight term planes (post-TR): the integer forward's weight
    /// operand, also read for pair counting.
    pub weight_terms: Option<Arc<PackedTermMatrix>>,
    /// Per-value weight term bound (for the QT bound accounting).
    pub weight_term_bound: usize,
    /// Per-value data term bound.
    pub data_term_bound: usize,
    /// TR config in effect, if the precision is TR.
    pub tr_config: Option<TrConfig>,
    /// Content checksum sealed by [`prepare_weights`]. Because the
    /// transform is pure and bit-exact, a stale checksum always means
    /// post-build corruption, never legitimate drift — which is what
    /// makes detect-and-re-encode a sound repair.
    pub checksum: u64,
}

impl PreparedWeights {
    /// Recompute the content checksum: FNV-1a over the reconstruction
    /// tensor bits, the quantizer, the packed-plane seal, the bounds,
    /// and the TR config. Pure function of content. The dominant plane
    /// (the reconstruction tensor) is folded two f32s per multiply so
    /// the on-every-hit verify stays far below one batch of matmul.
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat_word = |w: u64| {
            h = fnv1a_word(h, w);
        };
        if let Some(w) = &self.qweight {
            for d in w.shape().dims() {
                eat_word(*d as u64);
            }
            let mut pairs = w.data().chunks_exact(2);
            for p in &mut pairs {
                eat_word(u64::from(p[0].to_bits()) | (u64::from(p[1].to_bits()) << 32));
            }
            for v in pairs.remainder() {
                eat_word(u64::from(v.to_bits()));
            }
        }
        if let Some(p) = &self.weight_params {
            eat_word(u64::from(p.scale.to_bits()));
            eat_word(u64::from(p.bits));
        }
        if let Some(t) = &self.weight_terms {
            eat_word(t.checksum());
        }
        eat_word(self.weight_term_bound as u64);
        eat_word(self.data_term_bound as u64);
        if let Some(cfg) = &self.tr_config {
            eat_word(cfg.group_size as u64);
            eat_word(cfg.group_budget as u64);
            eat_word(cfg.data_terms.map_or(u64::MAX, |s| s as u64));
            for name in [cfg.weight_encoding.name(), cfg.data_encoding.name()] {
                for &b in name.as_bytes() {
                    eat_word(u64::from(b));
                }
            }
        }
        h
    }

    /// Freeze the checksum over the current content.
    #[must_use]
    pub fn seal(mut self) -> PreparedWeights {
        self.checksum = self.content_checksum();
        self
    }

    /// Verify the entry against its seal, including the packed planes'
    /// own seal. Cheap relative to one batch through the weights.
    ///
    /// # Errors
    /// [`TrError`](tr_core::TrError) `Integrity` naming the corrupted
    /// part.
    pub fn verify_integrity(&self) -> Result<(), tr_core::TrError> {
        if let Some(t) = &self.weight_terms {
            t.verify_integrity()?;
        }
        let actual = self.content_checksum();
        if actual == self.checksum {
            Ok(())
        } else {
            Err(tr_core::TrError::Integrity(format!(
                "prepared weights checksum {actual:#018x} != sealed {:#018x}",
                self.checksum
            )))
        }
    }

    /// Deterministic corruption hook: flip one mantissa bit of the
    /// reconstruction tensor or one bit inside the packed term planes,
    /// chosen by `salt`. Leaves the seal stale — the injected fault is
    /// silent until [`PreparedWeights::verify_integrity`] runs. Returns
    /// `false` when there is nothing to corrupt (float entries).
    pub fn tamper(&mut self, salt: u64) -> bool {
        let h = mix(salt ^ self.checksum);
        // Prefer the reconstruction tensor — it is what inference reads,
        // so corrupting it is the accuracy-affecting fault.
        if h & 3 != 3 {
            if let Some(w) = &mut self.qweight {
                let w = Arc::make_mut(w);
                let n = w.numel();
                if n > 0 {
                    let i = usize::try_from(mix(h ^ 5) % n as u64).unwrap_or(0);
                    let bit = u32::try_from(mix(h ^ 9) % 20).unwrap_or(0);
                    let data = w.data_mut();
                    data[i] = f32::from_bits(data[i].to_bits() ^ (1u32 << bit));
                    return true;
                }
            }
        }
        if let Some(t) = &mut self.weight_terms {
            return Arc::make_mut(t).tamper(h);
        }
        false
    }
}

/// Build the weight-side transform for `precision` on weight `w` (an
/// `(out, in)` matrix). Pure: same inputs, same transform — which is the
/// property the serve-layer rung cache relies on.
///
/// Every precision but `Float` runs one codes-first pipeline: quantize
/// `w` into codes ([`QuantParams::code_into`]), apply the precision's
/// step to the codes (none for QT, per-value truncation, or TR's
/// one-pass reveal, [`PackedTermMatrix::try_reveal_codes`], which also
/// builds the term planes), decompose the kept codes into term planes,
/// and collect the reconstruction from the same codes.
pub fn prepare_weights(w: &Tensor, precision: &Precision) -> PreparedWeights {
    let (params, weight_term_bound, data_term_bound, tr_config) = match *precision {
        Precision::Float => return PreparedWeights::default().seal(),
        Precision::Qt { weight_bits, act_bits } => {
            let params = calibrate_max_abs(w, weight_bits);
            (params, params.max_terms(), usize::from(act_bits) - 1, None)
        }
        Precision::PerValue { weight_terms, data_terms, .. } => {
            (calibrate_max_abs(w, 8), weight_terms, data_terms.unwrap_or(7), None)
        }
        Precision::Tr(cfg) => {
            cfg.check();
            // The weight bound is per group: see `FakeQuant::count_matmul`.
            (calibrate_max_abs(w, 8), cfg.group_budget, cfg.data_terms.unwrap_or(7), Some(cfg))
        }
    };
    let (rows, len) = w.shape().as_matrix();
    let mut codes = vec![0; w.numel()];
    params.code_into(w.data(), &mut codes);
    let (tm, codes) = match precision {
        Precision::Tr(cfg) => PackedTermMatrix::try_reveal_codes(codes, rows, len, cfg)
            .unwrap_or_else(|e| panic!("{e}")),
        Precision::PerValue { encoding, weight_terms, .. } => {
            truncate_values(*encoding, &mut codes, *weight_terms);
            (PackedTermMatrix::from_codes(&codes, rows, len, *encoding), codes)
        }
        _ => (PackedTermMatrix::from_codes(&codes, rows, len, Encoding::Binary), codes), // QT
    };
    // Collected in place: the kept codes' buffer becomes the
    // reconstruction's.
    let data: Vec<f32> = codes.into_iter().map(|c| params.real(c)).collect();
    PreparedWeights {
        qweight: Some(Arc::new(Tensor::from_vec(data, w.shape().clone()))),
        weight_params: Some(params),
        weight_terms: Some(Arc::new(tm)),
        weight_term_bound,
        data_term_bound,
        tr_config,
        checksum: 0,
    }
    .seal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_tensor::{Rng, Shape};

    fn weight(seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::randn(Shape::d2(8, 32), 0.3, &mut rng)
    }

    #[test]
    fn float_mode_is_identity() {
        let w = weight(1);
        let mut fq = FakeQuant::default();
        fq.install(&prepare_weights(&w, &Precision::Float), &Precision::Float);
        assert!(std::ptr::eq(fq.effective_weight(&w), &w));
        let x = weight(2);
        assert_eq!(fq.transform_input(&x), x);
    }

    #[test]
    fn qt_replaces_weights_with_reconstruction() {
        let w = weight(3);
        let mut fq = FakeQuant::default();
        let qt8 = Precision::Qt { weight_bits: 8, act_bits: 8 };
        fq.install(&prepare_weights(&w, &qt8), &qt8);
        let eff = fq.effective_weight(&w);
        assert!(w.rel_l2(eff) < 0.01);
        // 4-bit is coarser.
        let mut fq4 = FakeQuant::default();
        let qt4 = Precision::Qt { weight_bits: 4, act_bits: 8 };
        fq4.install(&prepare_weights(&w, &qt4), &qt4);
        assert!(w.rel_l2(fq4.effective_weight(&w)) > w.rel_l2(eff));
    }

    #[test]
    fn tr_mode_bounds_group_terms() {
        let w = weight(4);
        let cfg = TrConfig::new(8, 12).with_data_terms(3);
        let mut fq = FakeQuant::default();
        fq.install(&prepare_weights(&w, &Precision::Tr(cfg)), &Precision::Tr(cfg));
        let tm = fq.weight_terms.as_ref().unwrap();
        assert!(tm.max_group_terms_for(8) <= 12);
        assert_eq!(fq.act_cap, Some((Encoding::Hese, 3)));
    }

    #[test]
    fn calibration_then_transform_quantizes_input() {
        let mut fq = FakeQuant { calibrating: true, ..FakeQuant::default() };
        let x = Tensor::from_vec(vec![0.5, -2.0, 1.0, 0.1], Shape::d1(4));
        // While calibrating, identity + range recording.
        let y = fq.transform_input(&x);
        assert_eq!(y, x);
        assert_eq!(fq.observed_max, 2.0);
        fq.finish_calibration(8);
        let y = fq.transform_input(&x);
        assert!(x.rel_l2(&y) < 0.01);
        assert_ne!(y, x); // actually quantized now
    }

    #[test]
    fn act_cap_truncates_terms() {
        let mut fq = FakeQuant {
            act_params: Some(QuantParams { scale: 1.0, bits: 8 }),
            act_cap: Some((Encoding::Binary, 1)),
            ..FakeQuant::default()
        };
        let x = Tensor::from_vec(vec![87.0], Shape::d1(1));
        let y = fq.transform_input(&x);
        assert_eq!(y.data()[0], 64.0); // top binary term only
    }

    #[test]
    fn pair_counting_accumulates() {
        let w = weight(5);
        let cfg = TrConfig::new(8, 12).with_data_terms(3);
        let mut fq = FakeQuant::default();
        fq.install(&prepare_weights(&w, &Precision::Tr(cfg)), &Precision::Tr(cfg));
        fq.count_pairs = true;
        let data = PackedTermMatrix::from_vector(&[3; 32], Encoding::Hese);
        fq.count_matmul(&data, 1);
        assert!(fq.pairs.actual > 0);
        assert!(fq.pairs.bound >= fq.pairs.actual);
        assert_eq!(fq.pairs.samples, 1);
        let before = fq.pairs;
        fq.count_matmul(&data, 1);
        assert_eq!(fq.pairs.actual, 2 * before.actual);
    }

    #[test]
    fn prepared_weights_install_like_the_direct_path() {
        let w = weight(6);
        for precision in [
            Precision::Float,
            Precision::Qt { weight_bits: 6, act_bits: 8 },
            Precision::PerValue { encoding: Encoding::Hese, weight_terms: 2, data_terms: Some(3) },
            Precision::Tr(TrConfig::new(8, 12).with_data_terms(3)),
        ] {
            let mut direct = FakeQuant::default();
            direct.install(&prepare_weights(&w, &precision), &precision);
            let prepared = prepare_weights(&w, &precision);
            let mut cached = FakeQuant::default();
            cached.install(&prepared, &precision);
            assert_eq!(direct.qweight, cached.qweight, "{}", precision.label());
            assert_eq!(direct.weight_terms, cached.weight_terms, "{}", precision.label());
            assert_eq!(direct.weight_params, cached.weight_params);
            assert_eq!(direct.weight_term_bound, cached.weight_term_bound);
            assert_eq!(direct.data_term_bound, cached.data_term_bound);
            assert_eq!(direct.tr_config, cached.tr_config);
            // Installing shares, not copies: the same allocation backs both.
            if let (Some(a), Some(b)) = (&prepared.qweight, &cached.qweight) {
                assert!(Arc::ptr_eq(a, b));
            }
        }
    }

    #[test]
    fn prepared_weights_seal_and_verify() {
        let w = weight(7);
        for precision in [
            Precision::Float,
            Precision::Qt { weight_bits: 8, act_bits: 8 },
            Precision::PerValue { encoding: Encoding::Hese, weight_terms: 2, data_terms: Some(3) },
            Precision::Tr(TrConfig::new(8, 12).with_data_terms(3)),
        ] {
            let p = prepare_weights(&w, &precision);
            p.verify_integrity().unwrap_or_else(|e| panic!("{}: {e}", precision.label()));
            // The seal is a pure function of content: rebuild, same seal.
            assert_eq!(p.checksum, prepare_weights(&w, &precision).checksum);
        }
    }

    #[test]
    fn tampered_prepared_weights_are_detected() {
        let w = weight(8);
        let pristine = prepare_weights(&w, &Precision::Tr(TrConfig::new(8, 12).with_data_terms(3)));
        for salt in 0..16u64 {
            let mut p = pristine.clone();
            assert!(p.tamper(salt), "salt {salt}");
            assert!(p.verify_integrity().is_err(), "salt {salt} went undetected");
            // Same salt twice: identical corruption (campaign replay).
            let mut q = pristine.clone();
            q.tamper(salt);
            assert_eq!(p.content_checksum(), q.content_checksum(), "salt {salt}");
        }
        // Float entries carry no planes or reconstruction: nothing to hit.
        let mut float = prepare_weights(&w, &Precision::Float);
        assert!(!float.tamper(3));
        float.verify_integrity().unwrap();
    }

    #[test]
    fn tamper_reaches_the_reconstruction_inference_reads() {
        // At least one salt must corrupt qweight itself (the tensor the
        // forward actually multiplies by), not just the counting planes.
        let w = weight(9);
        let pristine = prepare_weights(&w, &Precision::Qt { weight_bits: 8, act_bits: 8 });
        let hit = (0..8u64).any(|salt| {
            let mut p = pristine.clone();
            p.tamper(salt);
            p.qweight != pristine.qweight
        });
        assert!(hit, "no salt corrupted the reconstruction tensor");
    }

    /// The per-element path the vector transform must reproduce:
    /// `code`, then `truncate_with` under the cap.
    fn scalar_codes(p: QuantParams, cap: Option<(Encoding, usize)>, xs: &[f32]) -> Vec<i32> {
        xs.iter()
            .map(|&x| match cap {
                None => p.code(x),
                Some((enc, s)) => truncate_with(enc.table(), p.code(x), s),
            })
            .collect()
    }

    fn bit_patterns(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `transform_input` and `transform_input_codes` against the scalar
    /// path, codes and output bits.
    fn assert_matches_scalar(p: QuantParams, cap: Option<(Encoding, usize)>, xs: &[f32]) {
        let mut fq = FakeQuant { act_params: Some(p), act_cap: cap, ..FakeQuant::default() };
        let x = Tensor::from_vec(xs.to_vec(), Shape::d1(xs.len()));
        let want = scalar_codes(p, cap, xs);
        let want_real: Vec<f32> = want.iter().map(|&c| p.real(c)).collect();
        let (t, codes) = fq.transform_input_codes(&x);
        assert!(codes.as_ref() == Some(&want), "codes differ: {p:?} cap {cap:?}");
        assert!(bit_patterns(t.data()) == bit_patterns(&want_real), "reals differ: {p:?} cap {cap:?}");
        let t = fq.transform_input(&x);
        assert!(bit_patterns(t.data()) == bit_patterns(&want_real), "transform differs: {p:?} cap {cap:?}");
    }

    /// No cap, and every encoding at every budget `s` from 1 to 7.
    fn caps() -> Vec<Option<(Encoding, usize)>> {
        let capped = Encoding::ALL.into_iter().flat_map(|e| (1..=7).map(move |s| Some((e, s))));
        std::iter::once(None).chain(capped).collect()
    }

    /// Two ulps either side of every code's value and rounding
    /// thresholds (and past the clamp), plus the specials.
    fn threshold_sweep(p: QuantParams) -> Vec<f32> {
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MAX, f32::MIN];
        xs.extend([f32::MIN_POSITIVE, f32::from_bits(1), -f32::from_bits(1)]);
        for c in -(p.qmax() + 2)..=p.qmax() + 2 {
            let c = c as f32;
            for v in [c * p.scale, (c - 0.5) * p.scale, (c + 0.5) * p.scale] {
                let (mut up, mut down) = (v, v);
                xs.push(v);
                for _ in 0..2 {
                    up = up.next_up();
                    down = down.next_down();
                    xs.extend([up, down]);
                }
            }
        }
        xs
    }

    /// The vector transform (slice quantizer plus per-call code table)
    /// equals the scalar path bit for bit: bits 2 to 8 and a wider width
    /// (the per-element path), scales from a subnormal up and zero,
    /// every cap, ±2 ulps around every threshold.
    #[test]
    fn vector_transform_matches_the_scalar_path_bitwise() {
        for bits in (2..=8u8).chain([12]) {
            for scale in [1.0e-40, 4.2e-4, 0.031, 1.0, 0.0] {
                let p = QuantParams { scale, bits };
                let xs = threshold_sweep(QuantParams { scale: if scale == 0.0 { 1.0 } else { scale }, bits });
                for cap in caps() {
                    assert_matches_scalar(p, cap, &xs);
                }
            }
        }
        // HESE at s = 1 rounds 127 = 2^7 - 2^0 up to 128, past qmax.
        let p = QuantParams { scale: 1.0 / 127.0, bits: 8 };
        let mut fq = FakeQuant { act_params: Some(p), act_cap: Some((Encoding::Hese, 1)), ..FakeQuant::default() };
        let (t, codes) = fq.transform_input_codes(&Tensor::from_vec(vec![1.0, -1.0], Shape::d1(2)));
        assert_eq!(codes, Some(vec![128, -128]));
        assert_eq!(t.data(), &[p.real(128), p.real(-128)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn vector_transform_matches_the_scalar_path_on_random_tensors(
            len in 0usize..700,
            bits in 2u8..=8,
            scale in 1.0e-3f32..0.5,
            cap_pick in 0usize..29,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let xs: Vec<f32> = (0..len).map(|_| rng.normal() * 2.0).collect();
            assert_matches_scalar(QuantParams { scale, bits }, caps()[cap_pick], &xs);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Precision::Float.label(),
            Precision::Qt { weight_bits: 8, act_bits: 8 }.label(),
            Precision::Qt { weight_bits: 4, act_bits: 8 }.label(),
            Precision::Tr(TrConfig::new(8, 12)).label(),
            Precision::PerValue {
                encoding: Encoding::Hese,
                weight_terms: 3,
                data_terms: Some(3),
            }
            .label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
