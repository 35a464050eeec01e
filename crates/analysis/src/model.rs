//! Whole-model static range analysis.
//!
//! [`datapath`](crate::datapath) proves the §V hardware registers wide
//! enough for *one* configurable stage; this module lifts the same
//! interval domain to whole models: for every quantization site of a
//! model, it propagates [`ValueRange`]s through
//!
//! 1. **quantize** — codes land in the symmetric `±(2^(b−1) − 1)` band;
//! 2. **encode + term cap** — HESE or binary expansion with the α/k cap
//!    modeled as *abstract truncation*: a value that keeps its top `t`
//!    terms ranges over the largest magnitude any in-band code reaches
//!    after keeping `t` terms (computed exactly by enumerating the code
//!    band, which also yields a reachable witness code);
//! 3. **packed matmul** — the per-group receding-water budget bounds the
//!    magnitude sum of each weight group by `min(k·2^e_max, g·E)`, and
//!    the accumulator absorbs `⌈K/g⌉` groups over reduction length `K`;
//! 4. **bias/activation** — one code-band bias addend widens the result;
//!    ReLU/pool/clamp only shrink intervals, and the next site
//!    re-quantizes its input to the 8-bit band, so ranges do not
//!    compound across layers.
//!
//! Every interval is a sound over-approximation; alongside it the
//! analyzer carries a *reachable witness* (a concrete code assignment
//! attaining that magnitude), which is what lets [`prune_unsound`] split
//! a sweep into proven-sound / proven-unsound / undecided without ever
//! running the simulator.

use crate::range::ValueRange;
use tr_core::seal::{fnv1a_bytes, fnv1a_word, FNV_OFFSET};
use tr_core::{TrConfig, TrError, ACCUMULATOR_BITS};
use tr_encoding::Encoding;
use tr_nn::{quant_site_shapes, Precision, QuantSites, SiteShape};

/// Quantizer bit width of every weight/activation stream the fake-quant
/// engine feeds the integer kernels (QT weight rungs override it).
const QUANT_BITS: u32 = 8;

/// One dot-product site of a model, as the analyzer sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Site name (e.g. `"3.conv"`, `"lstm.w_hh"`).
    pub name: String,
    /// Output vectors (weight rows).
    pub rows: u64,
    /// Reduction length of each dot product — for conv and depthwise
    /// sites this is the im2col patch `C_in·kh·kw`, which is exactly the
    /// accumulation length of the conv GEMM.
    pub reduction: u64,
}

/// The shape skeleton of one model: everything the range prover needs,
/// and nothing it does not (weights' *values* never matter — the proof
/// quantifies over every code the quantizer can emit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model name (e.g. `"mlp"`, `"mobilenet-v2"`, `"lstm-lm"`).
    pub name: String,
    /// Sites in visit order.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Build a spec from explicit layers.
    ///
    /// # Errors
    /// [`TrError::InvalidConfig`] when `layers` is empty or any site has
    /// a zero dimension (a zero reduction has no dot product to prove).
    pub fn new(name: &str, layers: Vec<LayerSpec>) -> Result<ModelSpec, TrError> {
        if layers.is_empty() {
            return Err(TrError::InvalidConfig(format!("model {name} has no quant sites")));
        }
        for l in &layers {
            if l.rows == 0 || l.reduction == 0 {
                return Err(TrError::InvalidConfig(format!(
                    "model {name} site {} has a zero dimension ({} x {})",
                    l.name, l.rows, l.reduction
                )));
            }
        }
        Ok(ModelSpec { name: name.to_string(), layers })
    }

    /// Extract the spec of any model whose quantization sites can be
    /// walked: a [`tr_nn::Layer`] model (MLP, the CNNs) or the LSTM
    /// language model.
    ///
    /// # Errors
    /// [`TrError::InvalidConfig`] when the model exposes no valid sites.
    pub fn from_sites(
        name: &str,
        model: &mut (impl QuantSites + ?Sized),
    ) -> Result<ModelSpec, TrError> {
        Self::new(name, quant_site_shapes(model).into_iter().map(Into::into).collect())
    }

    /// Content fingerprint: FNV-1a over the model name and every site's
    /// name and dimensions. Two models certify interchangeably iff they
    /// have the same shape skeleton — weight values are irrelevant to
    /// the proof, so they are (deliberately) not part of the identity.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a_bytes(FNV_OFFSET, self.name.as_bytes());
        h = fnv1a_word(h, self.layers.len() as u64);
        for l in &self.layers {
            h = fnv1a_bytes(h, l.name.as_bytes());
            h = fnv1a_word(h, l.rows);
            h = fnv1a_word(h, l.reduction);
        }
        h
    }

    /// The longest dot product in the model.
    #[must_use]
    pub fn max_reduction(&self) -> u64 {
        self.layers.iter().map(|l| l.reduction).max().unwrap_or(0)
    }
}

impl From<SiteShape> for LayerSpec {
    fn from(s: SiteShape) -> LayerSpec {
        LayerSpec { name: s.name, rows: s.rows as u64, reduction: s.reduction as u64 }
    }
}

/// Exact static facts about one operand stream after quantize → encode →
/// keep-top-`cap`-terms, computed by enumerating the whole code band.
///
/// Because every code in the band is reachable (the quantizer clamps but
/// does not skip codes), `range` is simultaneously a sound envelope and
/// a *reachable* bound: `witness_code` attains `range.hi()` after the
/// cap. Note the capped envelope can exceed the code band — 8-bit HESE
/// encodes 127 as `2^7 − 2^0`, and a cap of 1 keeps `2^7 = 128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandEnvelope {
    /// Signed value interval after the cap (symmetric).
    pub range: ValueRange,
    /// An in-band code whose capped reconstruction attains `range.hi()`
    /// in magnitude.
    pub witness_code: i32,
    /// Largest exponent any kept term carries.
    pub max_exp: u32,
    /// Most terms one value keeps under the cap.
    pub max_terms: u64,
}

/// Enumerate the `bits`-wide code band under `encoding`, keeping each
/// value's top `cap` terms (`None` = keep all).
#[must_use]
pub fn operand_envelope(encoding: Encoding, bits: u32, cap: Option<usize>) -> OperandEnvelope {
    let band = (1i64 << (bits - 1)) - 1;
    let mut best = 0i64;
    let mut witness_code = 0i32;
    let mut max_exp = 0u32;
    let mut max_terms = 0u64;
    for c in -band..=band {
        let code = i32::try_from(c).expect("code band fits i32 for bits <= 32");
        let expr = encoding.terms_of(code);
        let kept = cap.map_or(expr.len(), |t| t.min(expr.len()));
        max_terms = max_terms.max(kept as u64);
        let mut v = 0i64;
        for t in expr.iter().take(kept) {
            max_exp = max_exp.max(u32::from(t.exp));
            v += t.value();
        }
        if v.abs() > best {
            best = v.abs();
            witness_code = code;
        }
    }
    OperandEnvelope { range: ValueRange::symmetric(best), witness_code, max_exp, max_terms }
}

/// Envelope under *variable* truncation. The receding-water reveal may
/// keep anywhere from 0 to `cap` terms of one value (the group shares
/// the budget), and keeping *fewer* terms can increase magnitude — 8-bit
/// HESE encodes 127 as `2^7 − 2^0`, and a waterline that drops the
/// `−2^0` term leaves 128. So the sound per-value envelope is the
/// pointwise max of the fixed-cap envelope over every kept count.
fn variable_cap_envelope(encoding: Encoding, bits: u32, cap: usize) -> OperandEnvelope {
    let mut out = operand_envelope(encoding, bits, Some(1));
    for t in 2..=cap.max(1) {
        let env = operand_envelope(encoding, bits, Some(t));
        if env.range.hi() > out.range.hi() {
            out.range = env.range;
            out.witness_code = env.witness_code;
        }
        out.max_exp = out.max_exp.max(env.max_exp);
        out.max_terms = out.max_terms.max(env.max_terms);
        // Term counts are monotone in the cap: once the cap stops
        // binding, larger caps change nothing.
        if env.max_terms < t as u64 {
            break;
        }
    }
    out
}

/// The operand-stream semantics one [`Precision`] induces at every site.
#[derive(Debug, Clone, Copy)]
struct SitePolicy {
    /// Weight stream after quantize → encode → per-value cap.
    weight: OperandEnvelope,
    /// Data stream after quantize → encode → per-value cap.
    data: OperandEnvelope,
    /// Weight encoding (for the group witness search).
    weight_encoding: Encoding,
    /// Weight bit width.
    weight_bits: u32,
    /// Receding-water grouping `(g, k)`, when the precision is TR.
    group: Option<(u64, u64)>,
}

fn policy_for(precision: &Precision) -> Result<Option<SitePolicy>, TrError> {
    match precision {
        // Float rungs run no integer kernel: there is nothing to bound.
        Precision::Float => Ok(None),
        Precision::Qt { weight_bits, act_bits } => Ok(Some(SitePolicy {
            weight: operand_envelope(Encoding::Binary, u32::from(*weight_bits), None),
            data: operand_envelope(Encoding::Binary, u32::from(*act_bits), None),
            weight_encoding: Encoding::Binary,
            weight_bits: u32::from(*weight_bits),
            group: None,
        })),
        Precision::PerValue { encoding, weight_terms, data_terms } => Ok(Some(SitePolicy {
            weight: operand_envelope(*encoding, QUANT_BITS, Some(*weight_terms)),
            // `FakeQuant::install` always caps activations with HESE here.
            data: operand_envelope(Encoding::Hese, QUANT_BITS, *data_terms),
            weight_encoding: *encoding,
            weight_bits: QUANT_BITS,
            group: None,
        })),
        Precision::Tr(cfg) => {
            cfg.validate()?;
            Ok(Some(SitePolicy {
                // The group budget caps any single value at k terms, but
                // the shared waterline may keep fewer — take the max
                // envelope over every kept count.
                weight: variable_cap_envelope(cfg.weight_encoding, QUANT_BITS, cfg.group_budget),
                data: operand_envelope(cfg.data_encoding, QUANT_BITS, cfg.data_terms),
                weight_encoding: cfg.weight_encoding,
                weight_bits: QUANT_BITS,
                group: Some((cfg.group_size as u64, cfg.group_budget as u64)),
            }))
        }
    }
}

/// Sound upper bound on `Σ|w_i|` over one `n`-value group that keeps at
/// most `k` terms: `k` terms of at most `2^e_max` each, and `n` values of
/// at most the per-value envelope each — both sound, take the tighter.
fn group_sum_bound(n: u64, k: u64, env: &OperandEnvelope) -> i64 {
    let by_terms = (k as i128) << env.max_exp;
    let by_values = (n as i128) * i128::from(env.range.hi());
    i64::try_from(by_terms.min(by_values)).unwrap_or(i64::MAX)
}

/// Largest *reachable* `Σ|w_i|` over one `n`-value group under budget
/// `k`: for each per-value term count `t`, set `m = min(n, ⌊k/t⌋)`
/// values to the best cap-`t` witness code (total `m·t ≤ k` terms, so
/// receding water keeps them all), spend any leftover budget on one more
/// value, and take the best `t`.
fn group_sum_witness(n: u64, k: u64, per_cap: &[OperandEnvelope]) -> i64 {
    let mut best = 0i64;
    for (i, env) in per_cap.iter().enumerate() {
        let t = (i + 1) as u64;
        if t > k {
            break;
        }
        let m = n.min(k / t);
        let mut sum = i64::try_from(m).unwrap_or(i64::MAX).saturating_mul(env.range.hi());
        let leftover = k - m * t;
        if m < n && leftover >= 1 {
            let extra = per_cap[usize::try_from(leftover.min(per_cap.len() as u64)).unwrap_or(1) - 1];
            sum = sum.saturating_add(extra.range.hi());
        }
        best = best.max(sum);
    }
    best
}

/// The proved ranges of one site under one precision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerProof {
    /// Site name.
    pub name: String,
    /// Output vectors.
    pub rows: u64,
    /// Dot-product length.
    pub reduction: u64,
    /// One weight value after quantize → encode → cap.
    pub weight_range: ValueRange,
    /// One data value after quantize → encode → cap.
    pub data_range: ValueRange,
    /// One term-pair product `w·x`.
    pub pair_range: ValueRange,
    /// The full dot-product accumulator (the tr-core matmul executor /
    /// conv GEMM sum), including one code-band bias addend.
    pub acc_range: ValueRange,
    /// Minimal signed accumulator width holding `acc_range`.
    pub required_bits: u32,
    /// A *reachable* accumulator magnitude (concrete witness codes), so
    /// `witness_bits ≤ required_bits` brackets the true worst case.
    pub witness_abs: i64,
}

impl LayerProof {
    /// Minimal signed width the witness alone already forces.
    #[must_use]
    pub fn witness_bits(&self) -> u32 {
        ValueRange::symmetric(self.witness_abs).signed_width()
    }
}

/// A whole-model proof for one (model, precision) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelProof {
    /// Model name from the spec.
    pub model: String,
    /// Spec fingerprint the proof is about.
    pub fingerprint: u64,
    /// Rung label ([`Precision::label`]).
    pub rung: String,
    /// The accumulator width proved against.
    pub accumulator_bits: u32,
    /// Per-site proofs in visit order.
    pub layers: Vec<LayerProof>,
}

impl ModelProof {
    /// Largest per-layer requirement — the minimal sound accumulator
    /// width for the whole model at this rung.
    #[must_use]
    pub fn required_bits(&self) -> u32 {
        self.layers.iter().map(|l| l.required_bits).max().unwrap_or(1)
    }

    /// Layers whose requirement exceeds `bits`.
    #[must_use]
    pub fn violations_at(&self, bits: u32) -> Vec<&LayerProof> {
        self.layers.iter().filter(|l| l.required_bits > bits).collect()
    }

    /// Whether every layer fits the proved accumulator width.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.required_bits() <= self.accumulator_bits
    }

    /// Loud check against an arbitrary width (the negative tests narrow
    /// the proven width by one bit and expect this to fail).
    ///
    /// # Errors
    /// [`TrError::OutOfRange`] naming every layer that does not fit.
    pub fn verify_width(&self, bits: u32) -> Result<(), TrError> {
        let bad = self.violations_at(bits);
        if bad.is_empty() {
            return Ok(());
        }
        let list: Vec<String> = bad
            .iter()
            .map(|l| format!("{} needs {} bits (range {})", l.name, l.required_bits, l.acc_range))
            .collect();
        Err(TrError::OutOfRange(format!(
            "model {} rung {}: accumulator width {bits} insufficient: {}",
            self.model,
            self.rung,
            list.join("; ")
        )))
    }

    /// [`ModelProof::verify_width`] at the proof's own width.
    ///
    /// # Errors
    /// [`TrError::OutOfRange`] naming every layer that does not fit.
    pub fn verify(&self) -> Result<(), TrError> {
        self.verify_width(self.accumulator_bits)
    }
}

/// Run the whole-model abstract interpretation for one precision,
/// proving against the shipping [`ACCUMULATOR_BITS`]-bit kernels.
///
/// # Errors
/// [`TrError::InvalidConfig`] for an invalid TR config and
/// [`TrError::OutOfRange`] if the interval arithmetic itself overflows
/// the analysis domain (a model far beyond any the workspace builds).
pub fn analyze_model(spec: &ModelSpec, precision: &Precision) -> Result<ModelProof, TrError> {
    analyze_model_width(spec, precision, ACCUMULATOR_BITS)
}

/// [`analyze_model`] against an explicit accumulator width.
///
/// # Errors
/// As [`analyze_model`].
pub fn analyze_model_width(
    spec: &ModelSpec,
    precision: &Precision,
    accumulator_bits: u32,
) -> Result<ModelProof, TrError> {
    let policy = policy_for(precision)?;
    let mut layers = Vec::with_capacity(spec.layers.len());
    // Per-value envelopes for every cap 1..=max_terms, shared by the
    // group witness search across layers.
    let per_cap: Vec<OperandEnvelope> = match &policy {
        Some(p) => (1..=p.weight.max_terms.max(1))
            .map(|t| {
                operand_envelope(
                    p.weight_encoding,
                    p.weight_bits,
                    Some(usize::try_from(t).unwrap_or(usize::MAX)),
                )
            })
            .collect(),
        None => Vec::new(),
    };
    for l in &spec.layers {
        let proof = match &policy {
            None => LayerProof {
                name: l.name.clone(),
                rows: l.rows,
                reduction: l.reduction,
                weight_range: ValueRange::zero(),
                data_range: ValueRange::zero(),
                pair_range: ValueRange::zero(),
                acc_range: ValueRange::zero(),
                required_bits: ValueRange::zero().signed_width(),
                witness_abs: 0,
            },
            Some(p) => {
                let pair = p.weight.range.mul(&p.data.range)?;
                let (acc, witness) = match p.group {
                    None => {
                        // No grouping: every element is free, so the
                        // envelope is itself reachable (witness codes at
                        // every position, signs aligned).
                        let acc = pair.accumulate(l.reduction)?;
                        (acc, acc.hi())
                    }
                    Some((g, k)) => {
                        let full = l.reduction / g;
                        let rem = l.reduction % g;
                        let mut acc = ValueRange::symmetric(group_sum_bound(g, k, &p.weight))
                            .mul(&p.data.range)?
                            .accumulate(full)?;
                        let mut wit = group_sum_witness(g, k, &per_cap)
                            .saturating_mul(full.try_into().unwrap_or(i64::MAX));
                        if rem > 0 {
                            acc = acc.add(
                                &ValueRange::symmetric(group_sum_bound(rem, k, &p.weight))
                                    .mul(&p.data.range)?,
                            )?;
                            wit = wit.saturating_add(group_sum_witness(rem, k, &per_cap));
                        }
                        (acc, wit.saturating_mul(p.data.range.hi()))
                    }
                };
                // One bias addend rides on the accumulator before the
                // activation; activations and pooling only shrink.
                let bias = ValueRange::symmetric((1i64 << (QUANT_BITS - 1)) - 1);
                let out = acc.add(&bias)?;
                LayerProof {
                    name: l.name.clone(),
                    rows: l.rows,
                    reduction: l.reduction,
                    weight_range: p.weight.range,
                    data_range: p.data.range,
                    pair_range: pair,
                    acc_range: out,
                    required_bits: out.signed_width(),
                    witness_abs: witness,
                }
            }
        };
        layers.push(proof);
    }
    Ok(ModelProof {
        model: spec.name.clone(),
        fingerprint: spec.fingerprint(),
        rung: precision.label(),
        accumulator_bits,
        layers,
    })
}

/// One (α, k, g, s, width) design point of the DSE sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepPoint {
    /// TR group size `g`.
    pub group_size: usize,
    /// TR group budget `k` (α = k/g).
    pub group_budget: usize,
    /// Data term cap `s`.
    pub data_terms: usize,
    /// Candidate accumulator width to certify against.
    pub accumulator_bits: u32,
}

impl SweepPoint {
    /// The α = k/g ratio of the point.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.group_budget as f64 / self.group_size as f64
    }

    /// The TR config of the point (width handled separately).
    #[must_use]
    pub fn config(&self) -> TrConfig {
        TrConfig::new(self.group_size, self.group_budget).with_data_terms(self.data_terms)
    }

    /// Stable display label, e.g. `g8k16s3@w64`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "g{}k{}s{}@w{}",
            self.group_size, self.group_budget, self.data_terms, self.accumulator_bits
        )
    }
}

/// The three-way verdict of the static prover on one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Soundness {
    /// The over-approximated accumulator interval fits the width: no
    /// execution can overflow.
    ProvenSound,
    /// A concrete, reachable code assignment already exceeds the width:
    /// the point is unsound and no simulation is needed to reject it.
    ProvenUnsound,
    /// The width falls between the witness and the envelope; static
    /// analysis alone cannot decide.
    Undecided,
}

impl Soundness {
    /// Short stable name for report tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Soundness::ProvenSound => "sound",
            Soundness::ProvenUnsound => "unsound",
            Soundness::Undecided => "undecided",
        }
    }
}

/// One adjudicated sweep point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedPoint {
    /// The design point.
    pub point: SweepPoint,
    /// The static verdict.
    pub verdict: Soundness,
    /// Width the envelope requires (sound upper bracket).
    pub required_bits: u32,
    /// Width a reachable witness already forces (lower bracket).
    pub witness_bits: u32,
}

/// Partition {α, k, g, s, width} design points for `spec` into
/// proven-sound / proven-unsound / undecided — the static pre-filter the
/// DSE harness runs *before* spending simulator time. Invalid TR configs
/// are rejected as errors rather than silently marked unsound.
///
/// # Errors
/// [`TrError::InvalidConfig`] when a point's (g, k, s) is not a valid TR
/// config; [`TrError::OutOfRange`] on analysis-domain overflow.
pub fn prune_unsound(
    spec: &ModelSpec,
    points: &[SweepPoint],
) -> Result<Vec<PrunedPoint>, TrError> {
    let mut out = Vec::with_capacity(points.len());
    for pt in points {
        let proof =
            analyze_model_width(spec, &Precision::Tr(pt.config()), pt.accumulator_bits)?;
        let required = proof.required_bits();
        let witness = proof.layers.iter().map(LayerProof::witness_bits).max().unwrap_or(1);
        debug_assert!(witness <= required, "witness must not exceed the envelope");
        let verdict = if required <= pt.accumulator_bits {
            Soundness::ProvenSound
        } else if witness > pt.accumulator_bits {
            Soundness::ProvenUnsound
        } else {
            Soundness::Undecided
        };
        out.push(PrunedPoint { point: *pt, verdict, required_bits: required, witness_bits: witness });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_nn::lstm::LstmLm;
    use tr_tensor::Rng;

    fn mlp_spec() -> ModelSpec {
        let mut rng = Rng::seed_from_u64(0);
        let mut m = tr_nn::models::mlp::build_mlp(10, &mut rng);
        ModelSpec::from_sites("mlp", &mut m).unwrap()
    }

    #[test]
    fn envelope_matches_hand_values() {
        // Uncapped 8-bit binary: the plain code band.
        let b = operand_envelope(Encoding::Binary, 8, None);
        assert_eq!(b.range.hi(), 127);
        assert_eq!(b.max_exp, 6);
        // Uncapped HESE reconstructs codes exactly: band again, but the
        // exponent reaches one past the magnitude MSB.
        let h = operand_envelope(Encoding::Hese, 8, None);
        assert_eq!(h.range.hi(), 127);
        assert_eq!(h.max_exp, 7);
        assert!(h.max_terms <= 4);
        // Cap 1 on HESE exceeds the band: 127 = 2^7 - 2^0 keeps 2^7.
        let h1 = operand_envelope(Encoding::Hese, 8, Some(1));
        assert_eq!(h1.range.hi(), 128);
        assert_eq!(h1.witness_code.unsigned_abs(), 127);
        // Binary caps keep a prefix of same-signed powers: top-2 is 96.
        let b2 = operand_envelope(Encoding::Binary, 8, Some(2));
        assert_eq!(b2.range.hi(), 96);
    }

    #[test]
    fn envelope_is_symmetric_in_sign() {
        for cap in [None, Some(1), Some(2), Some(3)] {
            for enc in [Encoding::Hese, Encoding::Binary] {
                let e = operand_envelope(enc, 8, cap);
                assert_eq!(e.range.lo(), -e.range.hi(), "{enc} cap {cap:?}");
            }
        }
    }

    #[test]
    fn spec_extraction_sees_every_site() {
        let spec = mlp_spec();
        assert!(spec.layers.len() >= 2);
        assert!(spec.layers.iter().all(|l| l.rows > 0 && l.reduction > 0));
        // Fingerprints are shape-derived and deterministic.
        assert_eq!(spec.fingerprint(), mlp_spec().fingerprint());
        let mut other = spec.clone();
        other.layers[0].reduction += 1;
        assert_ne!(spec.fingerprint(), other.fingerprint());
    }

    #[test]
    fn lstm_spec_covers_the_three_matmuls() {
        let mut rng = Rng::seed_from_u64(1);
        let mut lm = LstmLm::new(40, 32, 0.0, &mut rng);
        let spec = ModelSpec::from_sites("lstm-lm", &mut lm).unwrap();
        let names: Vec<&str> = spec.layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["lstm.w_ih", "lstm.w_hh", "lstm.w_out"]);
        assert!(spec.layers.iter().all(|l| l.reduction >= 32));
    }

    #[test]
    fn default_rungs_are_provably_sound_at_64_bits() {
        let spec = mlp_spec();
        for precision in [
            Precision::Tr(TrConfig::new(8, 24).with_data_terms(3)),
            Precision::Tr(TrConfig::new(8, 8).with_data_terms(2)),
            Precision::Qt { weight_bits: 8, act_bits: 8 },
        ] {
            let proof = analyze_model(&spec, &precision).unwrap();
            assert!(proof.ok(), "{}: needs {}", precision.label(), proof.required_bits());
            proof.verify().unwrap();
            // The derived widths are far under 64 but nontrivial.
            assert!(proof.required_bits() > 16);
            assert!(proof.required_bits() < 48);
        }
    }

    #[test]
    fn narrowing_any_proven_width_by_one_bit_reports_a_violation() {
        let spec = mlp_spec();
        let proof =
            analyze_model(&spec, &Precision::Tr(TrConfig::new(8, 16).with_data_terms(3))).unwrap();
        for layer in &proof.layers {
            let err = proof.verify_width(layer.required_bits - 1);
            // Some other layer may require even more; the narrowed check
            // must fail whenever this layer is the (or a) maximum.
            if layer.required_bits == proof.required_bits() {
                let err = err.unwrap_err();
                assert!(err.to_string().contains(&layer.name), "{err}");
            }
        }
        assert!(proof.verify_width(proof.required_bits()).is_ok());
        assert!(proof.verify_width(proof.required_bits() - 1).is_err());
    }

    #[test]
    fn float_rung_is_vacuously_certified() {
        let proof = analyze_model(&mlp_spec(), &Precision::Float).unwrap();
        assert!(proof.ok());
        assert_eq!(proof.required_bits(), 1);
    }

    #[test]
    fn group_budget_tightens_the_accumulator() {
        // The k-terms-per-group bound only binds when k is small against
        // g × (per-value envelope): at g = 8, k = 2 caps a group's
        // magnitude sum at 2·2^7 = 256 < 8·127.
        let spec = mlp_spec();
        let tight =
            analyze_model(&spec, &Precision::Tr(TrConfig::new(8, 2).with_data_terms(3))).unwrap();
        let loose =
            analyze_model(&spec, &Precision::Tr(TrConfig::new(8, 24).with_data_terms(3))).unwrap();
        assert!(
            tight.layers[0].acc_range.hi() < loose.layers[0].acc_range.hi(),
            "k=2 {} !< k=24 {}",
            tight.layers[0].acc_range,
            loose.layers[0].acc_range
        );
        // And at k ≥ g·max_terms the budget is slack: per-value envelopes
        // dominate, so k = 24 equals the per-value-only bound.
        let slack =
            analyze_model(&spec, &Precision::Tr(TrConfig::new(8, 32).with_data_terms(3)));
        if let Ok(slack) = slack {
            assert_eq!(slack.layers[0].acc_range, loose.layers[0].acc_range);
        }
    }

    #[test]
    fn witness_never_exceeds_envelope_and_brackets_are_tight_ungrouped() {
        let spec = mlp_spec();
        for (g, k, s) in [(8, 24, 3), (8, 12, 3), (4, 6, 2), (16, 16, 4)] {
            let proof =
                analyze_model(&spec, &Precision::Tr(TrConfig::new(g, k).with_data_terms(s)))
                    .unwrap();
            for l in &proof.layers {
                assert!(l.witness_bits() <= l.required_bits, "{} g{g}k{k}", l.name);
                assert!(l.witness_abs > 0);
            }
        }
        // Ungrouped rungs have no witness/envelope gap (modulo the bias
        // addend folded into the envelope only).
        let qt = analyze_model(&spec, &Precision::Qt { weight_bits: 8, act_bits: 8 }).unwrap();
        for l in &qt.layers {
            assert!(l.required_bits - l.witness_bits() <= 1, "{}", l.name);
        }
    }

    #[test]
    fn prune_partitions_without_simulating() {
        let spec = mlp_spec();
        let points = [
            // Comfortably sound at the shipping width.
            SweepPoint { group_size: 8, group_budget: 16, data_terms: 3, accumulator_bits: 64 },
            // Deliberately unsound: a 16-bit accumulator cannot absorb a
            // 784-long dot product of 8-bit operands.
            SweepPoint { group_size: 8, group_budget: 16, data_terms: 3, accumulator_bits: 16 },
        ];
        let verdicts = prune_unsound(&spec, &points).unwrap();
        assert_eq!(verdicts[0].verdict, Soundness::ProvenSound);
        assert_eq!(verdicts[1].verdict, Soundness::ProvenUnsound);
        // The rejection used the witness bracket, not a simulation.
        assert!(verdicts[1].witness_bits > 16);
        // Exactly at the required width: sound by construction.
        let exact = SweepPoint {
            accumulator_bits: verdicts[0].required_bits,
            ..points[0]
        };
        assert_eq!(prune_unsound(&spec, &[exact]).unwrap()[0].verdict, Soundness::ProvenSound);
    }

    #[test]
    fn invalid_sweep_points_are_errors_not_verdicts() {
        let spec = mlp_spec();
        let bad = SweepPoint { group_size: 0, group_budget: 8, data_terms: 3, accumulator_bits: 64 };
        assert!(prune_unsound(&spec, &[bad]).is_err());
    }

    #[test]
    fn analysis_is_deterministic() {
        let spec = mlp_spec();
        let p = Precision::Tr(TrConfig::new(8, 16).with_data_terms(3));
        assert_eq!(analyze_model(&spec, &p).unwrap(), analyze_model(&spec, &p).unwrap());
    }
}
