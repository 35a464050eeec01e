//! The inference engine a worker drives.
//!
//! Each worker owns a private engine replica created by an
//! [`EngineFactory`]; engines never cross threads, so model state needs
//! no synchronization, and a panicked engine is simply thrown away and
//! rebuilt from the factory — that is what "worker restart" means at the
//! model level.

use crate::ladder::per_value_pair_bound;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tr_analysis::CertificateTable;
use tr_core::TrError;
use tr_nn::exec::{apply_precision_prepared, prepare_model_precision, try_classify_batch};
use tr_nn::layer::Layer;
use tr_nn::{Precision, PreparedWeights, Sequential};
use tr_obs::Counter;
use tr_tensor::{Rng, Shape, Tensor};

/// Ladder rung switches served from the per-precision encoded-weight
/// cache (an `Arc` swap per site, no re-encoding).
static RUNG_CACHE_HITS: Counter = Counter::new("serve.rung_cache.hits");
/// Rung switches that had to build the encoding (first visit per rung).
static RUNG_CACHE_MISSES: Counter = Counter::new("serve.rung_cache.misses");
/// Cached rung entries whose content checksum no longer matched — silent
/// corruption caught before the weights could serve a batch.
static CACHE_INTEGRITY_VIOLATIONS: Counter = Counter::new("serve.cache.integrity_violations");
/// Corrupt cache entries discarded and rebuilt from the model weights.
/// `prepare_weights` is a pure function of (weights, precision), so the
/// rebuilt entry is bit-identical to the original — repair is lossless.
static CACHE_REPAIRS: Counter = Counter::new("serve.cache.repairs");
/// Soundness-certificate lookups performed by rung switches on engines
/// with enforcement armed.
static ENGINE_CERT_CHECKS: Counter = Counter::new("serve.engine.certificate.checks");
/// Rung switches refused because the certificate was missing or failed
/// its seal check.
static ENGINE_CERT_REFUSALS: Counter = Counter::new("serve.engine.certificate.refusals");
/// Bit-true integer execution toggles (either direction).
static ENGINE_INTEGER_EXEC_TOGGLES: Counter =
    Counter::new("serve.engine.integer_exec.toggles");

/// How an engine call failed without panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A failure worth retrying (momentary resource pressure, an
    /// injected chaos transient). The worker retries with backoff.
    Transient(String),
    /// A failure retries cannot fix. The worker treats it like a panic:
    /// quarantine hunt, breaker bookkeeping, engine rebuild.
    Fatal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Transient(m) => write!(f, "transient engine error: {m}"),
            EngineError::Fatal(m) => write!(f, "fatal engine error: {m}"),
        }
    }
}

/// A classification engine serving one worker.
///
/// Implementations may panic on malformed ("poison") inputs — the
/// service catches the unwind, quarantines the offending request, and
/// rebuilds the engine. `set_precision` is the software mirror of the
/// paper's <100 ns control-register write: it must be cheap relative to
/// a batch and must leave the engine fully consistent.
pub trait Engine {
    /// Install the precision for the current ladder rung.
    /// `cost_factor` is the rung's relative service cost (1.0 = rung 0).
    fn set_precision(&mut self, precision: &Precision, cost_factor: f64);

    /// Classify a batch of feature vectors, one predicted class per row.
    fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize>;

    /// Fallible classification: the retry-aware entry point the workers
    /// call. The default delegates to [`Engine::infer`] (which may still
    /// panic on poison); engines that can fail recoverably — or chaos
    /// wrappers injecting such failures — override this to surface
    /// [`EngineError::Transient`] instead of unwinding.
    fn try_infer(&mut self, inputs: &[&[f32]]) -> Result<Vec<usize>, EngineError> {
        Ok(self.infer(inputs))
    }

    /// `(violations, repairs)` of this engine's weight-cache integrity
    /// machinery since construction. Engines without a cache report
    /// zeros.
    fn integrity_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Builds a fresh engine — called once per worker at startup and again
/// after every panic-triggered restart. Must be cheap enough to call
/// repeatedly (load a checkpoint, not train a model).
pub type EngineFactory = Arc<dyn Fn() -> Box<dyn Engine> + Send + Sync>;

/// The production engine: a calibrated `tr-nn` model executing under the
/// installed QT/TR precision, with service time paced by the term-pair
/// cost model.
///
/// The functional simulator computes TR numerics in float at a speed
/// unrelated to the accelerator's, so wall-clock alone would not show
/// the ladder shedding load. `pace_per_sample` fixes that: after each
/// batch the engine sleeps `pace_per_sample × cost_factor` per sample,
/// making throughput track the §III-B term-pair bound exactly as the
/// hardware's would. Set it to zero to disable pacing.
pub struct NnEngine {
    model: Sequential,
    rng: Rng,
    input_dim: usize,
    pace_per_sample: Duration,
    cost_factor: f64,
    /// When true (the default), a non-finite feature panics the engine.
    /// This models a request that crashes the worker and doubles as the
    /// deterministic poison-injection hook used by the soak tests.
    pub panic_on_non_finite: bool,
    /// Per-rung encoded-weight cache: one entry per precision visited,
    /// holding the per-site prepared transforms. Weights are fixed for
    /// the engine's lifetime, so entries never invalidate.
    rung_cache: HashMap<Precision, Vec<PreparedWeights>>,
    cache_hits: u64,
    cache_misses: u64,
    integrity_violations: u64,
    integrity_repairs: u64,
    /// When armed, every rung switch must present a valid soundness
    /// certificate for `(fingerprint, rung label)` before the cache is
    /// even consulted — an uncertified precision never touches weights.
    certificates: Option<(Arc<CertificateTable>, u64)>,
}

/// What `set_precision` found in the rung cache.
enum CacheState {
    Miss,
    Hit,
    /// At least one site's checksum failed — the whole entry is
    /// discarded and re-encoded from the (authoritative) model weights.
    Corrupt,
}

impl NnEngine {
    /// Wrap an already-calibrated model expecting `input_dim` features.
    #[must_use]
    pub fn new(model: Sequential, input_dim: usize, pace_per_sample: Duration, seed: u64) -> NnEngine {
        NnEngine {
            model,
            rng: Rng::seed_from_u64(seed),
            input_dim,
            pace_per_sample,
            cost_factor: 1.0,
            panic_on_non_finite: true,
            rung_cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            integrity_violations: 0,
            integrity_repairs: 0,
            certificates: None,
        }
    }

    /// Arm certificate enforcement: from now on every precision switch
    /// is checked against `table` under the model's `fingerprint` and
    /// refused with [`TrError::Uncertified`] when no valid certificate
    /// covers the rung. Use [`NnEngine::try_set_precision`] to observe
    /// the refusal; the infallible [`Engine::set_precision`] panics on
    /// it, routing the misconfiguration into the worker's restart
    /// machinery like any other poison.
    pub fn enforce_certificates(&mut self, table: Arc<CertificateTable>, fingerprint: u64) {
        self.certificates = Some((table, fingerprint));
    }

    /// Fallible rung switch: certificate check (when armed) then the
    /// cached install of [`Engine::set_precision`].
    ///
    /// # Errors
    /// [`TrError::Uncertified`] when enforcement is armed and the rung
    /// has no valid certificate; the engine's precision is unchanged.
    pub fn try_set_precision(
        &mut self,
        precision: &Precision,
        cost_factor: f64,
    ) -> Result<(), TrError> {
        if let Some((table, fingerprint)) = &self.certificates {
            ENGINE_CERT_CHECKS.inc();
            if let Err(e) = table.check(*fingerprint, &precision.label()) {
                ENGINE_CERT_REFUSALS.inc();
                return Err(e);
            }
        }
        self.install_precision(precision, cost_factor);
        Ok(())
    }

    /// `(hits, misses)` of the rung cache since construction. A ladder
    /// that revisits precisions should show `misses == distinct rungs`
    /// and everything else as hits.
    #[must_use]
    pub fn rung_cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Switch the wrapped model between float-simulated and bit-true
    /// integer execution (the packed-term / bit-plane popcount kernels).
    /// The flag survives rung switches: `install_precision` swaps the
    /// per-site weight transforms but never touches the execution mode,
    /// so an operator can arm integer execution once and run the whole
    /// precision ladder on it. A rung's [`PreparedWeights`] carries
    /// cached `weight_planes` only at sites whose planner can route to a
    /// bit-plane kernel (none on the default ladder); every other site
    /// runs the code-plane kernels, which read no planes.
    pub fn set_integer_exec(&mut self, on: bool) {
        ENGINE_INTEGER_EXEC_TOGGLES.inc();
        tr_nn::exec::set_integer_exec(&mut self.model, on);
    }

    /// Flip one bit inside the cached entry for `precision` (chaos
    /// hook). The corruption is silent — nothing is recomputed — so the
    /// next `set_precision` hit on that rung must *detect* it via the
    /// content checksums and repair by re-encoding. Returns `false` when
    /// the rung is not cached or holds nothing tamperable.
    pub fn tamper_cached(&mut self, precision: &Precision, salt: u64) -> bool {
        let Some(entry) = self.rung_cache.get_mut(precision) else {
            return false;
        };
        if entry.is_empty() {
            return false;
        }
        let site = usize::try_from(salt % entry.len() as u64).unwrap_or(0);
        entry[site].tamper(salt)
    }
}

impl NnEngine {
    /// The cache-aware precision install shared by the fallible and
    /// infallible switch paths. Certificate checks happen *before* this.
    fn install_precision(&mut self, precision: &Precision, cost_factor: f64) {
        let state = match self.rung_cache.get(precision) {
            None => CacheState::Miss,
            Some(entry) => {
                if entry.iter().all(|p| p.verify_integrity().is_ok()) {
                    CacheState::Hit
                } else {
                    CacheState::Corrupt
                }
            }
        };
        match state {
            CacheState::Hit => {
                // Cache hit: swap the per-site Arcs; nothing is re-encoded.
                let prepared = &self.rung_cache[precision];
                apply_precision_prepared(&mut self.model, precision, prepared);
                self.cache_hits += 1;
                RUNG_CACHE_HITS.inc();
            }
            CacheState::Miss | CacheState::Corrupt => {
                if matches!(state, CacheState::Corrupt) {
                    // Detect-and-re-encode: the model weights are the
                    // authority, so dropping the entry loses nothing.
                    self.rung_cache.remove(precision);
                    self.integrity_violations += 1;
                    CACHE_INTEGRITY_VIOLATIONS.inc();
                }
                let prepared = prepare_model_precision(&mut self.model, precision);
                apply_precision_prepared(&mut self.model, precision, &prepared);
                self.rung_cache.insert(*precision, prepared);
                if matches!(state, CacheState::Corrupt) {
                    self.integrity_repairs += 1;
                    CACHE_REPAIRS.inc();
                } else {
                    self.cache_misses += 1;
                    RUNG_CACHE_MISSES.inc();
                }
            }
        }
        self.cost_factor = cost_factor;
    }
}

impl Engine for NnEngine {
    fn set_precision(&mut self, precision: &Precision, cost_factor: f64) {
        // An uncertified rung reaching the infallible path is a service
        // misconfiguration, and like every other poison it panics so the
        // worker quarantines and rebuilds rather than serving unsound math.
        if let Err(e) = self.try_set_precision(precision, cost_factor) {
            panic!("refusing rung {}: {e}", precision.label());
        }
    }

    fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let n = inputs.len();
        let mut data = Vec::with_capacity(n * self.input_dim);
        for row in inputs {
            assert_eq!(
                row.len(),
                self.input_dim,
                "poison input: {} features, model expects {}",
                row.len(),
                self.input_dim
            );
            if self.panic_on_non_finite {
                assert!(
                    row.iter().all(|v| v.is_finite()),
                    "poison input: non-finite feature"
                );
            }
            data.extend_from_slice(row);
        }
        let x = Tensor::from_vec(data, Shape::d2(n, self.input_dim));
        // The forward reports malformed batches as TrError; a batch that
        // passed the input guards above yet fails here is poison, and the
        // panic routes it into the worker's quarantine machinery.
        let preds = match try_classify_batch(&mut self.model, &x, &mut self.rng) {
            Ok(preds) => preds,
            Err(e) => panic!("poison batch: {e}"),
        };
        if !self.pace_per_sample.is_zero() {
            let per_sample = self.pace_per_sample.mul_f64(self.cost_factor.max(0.0));
            std::thread::sleep(per_sample * u32::try_from(n).unwrap_or(u32::MAX));
        }
        preds
    }

    fn integrity_stats(&self) -> (u64, u64) {
        (self.integrity_violations, self.integrity_repairs)
    }
}

/// Convenience: an [`EngineFactory`] closing over a model builder.
/// `build` is invoked per engine construction and must return a fresh
/// calibrated model (typically loaded from a checkpoint zoo).
pub fn nn_engine_factory(
    build: impl Fn() -> Sequential + Send + Sync + 'static,
    input_dim: usize,
    pace_per_sample: Duration,
    seed: u64,
) -> EngineFactory {
    Arc::new(move || Box::new(NnEngine::new(build(), input_dim, pace_per_sample, seed)))
}

/// The rung-0 cost baseline used when translating a precision into a
/// pacing factor outside a ladder (e.g. single-precision deployments):
/// `per_value_pair_bound(p) / per_value_pair_bound(reference)`.
#[must_use]
pub fn cost_factor_vs(p: &Precision, reference: &Precision) -> f64 {
    per_value_pair_bound(p) / per_value_pair_bound(reference).max(f64::MIN_POSITIVE)
}

/// Visit the model's quantization sites to recover the input feature
/// count expected by the first compute layer (`(out, in)` weight
/// layout). Returns `None` for models without quantization sites.
#[must_use]
pub fn model_input_dim(model: &mut Sequential) -> Option<usize> {
    let mut dim = None;
    model.visit_quant_sites(&mut |site| {
        if dim.is_none() {
            dim = site.weight.value.shape().dims().last().copied();
        }
    });
    dim
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use tr_core::TrConfig;
    use tr_nn::layers::Linear;

    fn tiny_engine() -> NnEngine {
        let mut rng = Rng::seed_from_u64(1);
        let model = Sequential::new().push(Linear::new(4, 3, &mut rng));
        NnEngine::new(model, 4, Duration::ZERO, 7)
    }

    #[test]
    fn infer_returns_one_class_per_row() {
        let mut e = tiny_engine();
        let a = [0.1f32, 0.2, 0.3, 0.4];
        let b = [1.0f32, -1.0, 0.5, 0.0];
        let preds = e.infer(&[&a, &b]);
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().all(|&c| c < 3));
        assert!(e.infer(&[]).is_empty());
    }

    #[test]
    fn poison_inputs_panic_and_are_catchable() {
        let mut e = tiny_engine();
        let poison = [f32::NAN, 0.0, 0.0, 0.0];
        let r = catch_unwind(AssertUnwindSafe(|| e.infer(&[&poison])));
        assert!(r.is_err(), "non-finite input must panic");
        let short = [0.0f32; 3];
        let r = catch_unwind(AssertUnwindSafe(|| e.infer(&[&short])));
        assert!(r.is_err(), "wrong input dim must panic");
        // The engine is rebuilt after a panic in production; here just
        // check a healthy call still works on the same instance.
        let ok = [0.0f32; 4];
        assert_eq!(e.infer(&[&ok]).len(), 1);
    }

    #[test]
    fn set_precision_switches_the_model_at_run_time() {
        let mut e = tiny_engine();
        let ok = [0.3f32, -0.2, 0.9, 0.1];
        let float_pred = e.infer(&[&ok]);
        e.set_precision(&Precision::Tr(TrConfig::new(2, 3).with_data_terms(2)), 0.5);
        let tr_pred = e.infer(&[&ok]);
        assert_eq!(tr_pred.len(), float_pred.len());
        e.set_precision(&Precision::Float, 1.0);
        assert_eq!(e.infer(&[&ok]), float_pred);
    }

    #[test]
    fn rung_cache_hits_on_revisited_precisions() {
        let mut cached = tiny_engine();
        let mut fresh = tiny_engine();
        let x = [0.3f32, -0.2, 0.9, 0.1];
        let rungs = [
            Precision::Tr(TrConfig::new(2, 3).with_data_terms(2)),
            Precision::Qt { weight_bits: 8, act_bits: 8 },
            Precision::Tr(TrConfig::new(2, 2).with_data_terms(2)),
        ];
        // First pass populates the cache (all misses), second pass rides it.
        let mut first = Vec::new();
        for p in &rungs {
            cached.set_precision(p, 1.0);
            first.push(cached.infer(&[&x]));
        }
        assert_eq!(cached.rung_cache_stats(), (0, rungs.len() as u64));
        for (p, expect) in rungs.iter().zip(&first) {
            cached.set_precision(p, 1.0);
            assert_eq!(&cached.infer(&[&x]), expect, "{}", p.label());
        }
        assert_eq!(cached.rung_cache_stats(), (rungs.len() as u64, rungs.len() as u64));
        // Cached switches predict exactly like an engine that has never
        // seen the rung before.
        for (p, expect) in rungs.iter().zip(&first) {
            fresh.set_precision(p, 1.0);
            assert_eq!(&fresh.infer(&[&x]), expect, "{}", p.label());
        }
    }

    #[test]
    fn integer_exec_serves_across_the_rung_ladder() {
        let mut rng = Rng::seed_from_u64(2);
        let mut model = Sequential::new().push(Linear::new(4, 3, &mut rng));
        let calib = Tensor::from_vec(
            vec![0.5, -1.0, 0.25, 0.8, -0.3, 0.1, 0.9, -0.7],
            Shape::d2(2, 4),
        );
        tr_nn::exec::calibrate_model(&mut model, &calib, 8, &mut rng);
        let mut e = NnEngine::new(model, 4, Duration::ZERO, 7);
        let x = [0.3f32, -0.2, 0.9, 0.1];
        let rungs = [
            Precision::Tr(TrConfig::new(2, 3).with_data_terms(2)),
            Precision::Tr(TrConfig::new(2, 2).with_data_terms(2)),
            Precision::Qt { weight_bits: 8, act_bits: 8 },
        ];
        let mut sim = Vec::new();
        for p in &rungs {
            e.set_precision(p, 1.0);
            sim.push(e.infer(&[&x]));
        }
        // Bit-true integer execution classifies identically at every rung
        // (same real-valued product, rounding differences far below the
        // argmax margin), riding the cached entries installed above.
        e.set_integer_exec(true);
        for (p, expect) in rungs.iter().zip(&sim) {
            e.set_precision(p, 1.0);
            assert_eq!(&e.infer(&[&x]), expect, "{}", p.label());
        }
        e.set_integer_exec(false);
        assert_eq!(&e.infer(&[&x]), sim.last().unwrap());
    }

    #[test]
    fn integer_exec_rides_the_prepared_plan_cache() {
        // The rung cache's PreparedWeights carry a MatmulPlanner, so the
        // integer path resolves its route from the memo: repeated
        // batches of one shape tick `core.tune.plan_hits` and a
        // `core.matmul.route.*` counter, without per-forward plan scans.
        tr_obs::set_enabled(true);
        let mut rng = Rng::seed_from_u64(3);
        let mut model = Sequential::new().push(Linear::new(4, 3, &mut rng));
        let calib = Tensor::from_vec(
            vec![0.5, -1.0, 0.25, 0.8, -0.3, 0.1, 0.9, -0.7],
            Shape::d2(2, 4),
        );
        tr_nn::exec::calibrate_model(&mut model, &calib, 8, &mut rng);
        let mut e = NnEngine::new(model, 4, Duration::ZERO, 7);
        e.set_integer_exec(true);
        e.set_precision(&Precision::Tr(TrConfig::new(2, 3).with_data_terms(2)), 1.0);
        let x = [0.3f32, -0.2, 0.9, 0.1];
        let snap = |name: &str| tr_obs::recorder().snapshot().counter(name);
        let routes = [
            "core.matmul.route.serial",
            "core.matmul.route.parallel",
            "core.matmul.route.bitplane",
            "core.matmul.route.bitplane_blocked",
        ];
        let routes_before: u64 = routes.iter().map(|r| snap(r)).sum();
        let hits_before = snap("core.tune.plan_hits");
        e.infer(&[&x]);
        for _ in 0..3 {
            e.infer(&[&x]);
        }
        let routes_after: u64 = routes.iter().map(|r| snap(r)).sum();
        assert!(
            routes_after >= routes_before + 4,
            "route counters did not tick: {routes_before} -> {routes_after}"
        );
        assert!(
            snap("core.tune.plan_hits") >= hits_before + 3,
            "repeated same-shape batches must hit the plan memo"
        );
    }

    #[test]
    fn cost_factor_orders_precisions() {
        let tr24 = Precision::Tr(TrConfig::new(8, 24).with_data_terms(3));
        let tr8 = Precision::Tr(TrConfig::new(8, 8).with_data_terms(2));
        let qt8 = Precision::Qt { weight_bits: 8, act_bits: 8 };
        assert!(cost_factor_vs(&tr8, &tr24) < 1.0);
        assert!(cost_factor_vs(&qt8, &tr24) > 1.0);
        assert_eq!(cost_factor_vs(&tr24, &tr24), 1.0);
    }

    #[test]
    fn tampered_cache_entry_is_detected_and_repaired() {
        let mut e = tiny_engine();
        let x = [0.3f32, -0.2, 0.9, 0.1];
        let tr = Precision::Tr(TrConfig::new(2, 3).with_data_terms(2));
        e.set_precision(&tr, 1.0);
        let clean = e.infer(&[&x]);
        assert_eq!(e.integrity_stats(), (0, 0));
        assert!(e.tamper_cached(&tr, 0xBAD), "cached rung must be tamperable");
        // Next switch to the rung detects the corruption and re-encodes
        // from the model weights — not a hit, not a plain miss.
        let (hits, misses) = e.rung_cache_stats();
        e.set_precision(&tr, 1.0);
        assert_eq!(e.integrity_stats(), (1, 1));
        assert_eq!(e.rung_cache_stats(), (hits, misses), "repair is neither hit nor miss");
        assert_eq!(e.infer(&[&x]), clean, "repair restores bit-identical service");
        // The repaired entry serves as a normal hit afterwards.
        e.set_precision(&tr, 1.0);
        assert_eq!(e.rung_cache_stats(), (hits + 1, misses));
    }

    #[test]
    fn repaired_rung_matches_a_fresh_engine_exactly() {
        // Re-entry into a corrupted rung must be indistinguishable from
        // a first visit: same predictions as an engine that never saw
        // the corruption.
        let mut hurt = tiny_engine();
        let mut fresh = tiny_engine();
        let x = [0.7f32, 0.4, -0.6, 0.2];
        let rungs = [
            Precision::Tr(TrConfig::new(2, 3).with_data_terms(2)),
            Precision::Qt { weight_bits: 8, act_bits: 8 },
        ];
        for p in &rungs {
            hurt.set_precision(p, 1.0);
            hurt.infer(&[&x]);
        }
        for (i, p) in rungs.iter().enumerate() {
            assert!(hurt.tamper_cached(p, 0x5EED + i as u64));
        }
        for p in &rungs {
            hurt.set_precision(p, 1.0);
            let repaired = hurt.infer(&[&x]);
            fresh.set_precision(p, 1.0);
            assert_eq!(repaired, fresh.infer(&[&x]), "{}", p.label());
        }
        assert_eq!(hurt.integrity_stats(), (2, 2));
    }

    #[test]
    fn tamper_cached_reports_untouchable_rungs() {
        let mut e = tiny_engine();
        let tr = Precision::Tr(TrConfig::new(2, 3).with_data_terms(2));
        assert!(!e.tamper_cached(&tr, 1), "uncached rung cannot be tampered");
    }

    #[test]
    fn try_infer_default_delegates_to_infer() {
        let mut e = tiny_engine();
        let x = [0.1f32, 0.2, 0.3, 0.4];
        let via_try = e.try_infer(&[&x]).expect("healthy batch");
        assert_eq!(via_try, e.infer(&[&x]));
    }

    #[test]
    fn model_input_dim_reads_first_site() {
        let mut rng = Rng::seed_from_u64(2);
        let mut model = Sequential::new().push(Linear::new(9, 5, &mut rng));
        assert_eq!(model_input_dim(&mut model), Some(9));
    }

    /// The spec of `tiny_engine`'s architecture — shapes only, so a
    /// freshly built twin fingerprints identically to the served model.
    fn tiny_spec() -> tr_analysis::ModelSpec {
        let mut rng = Rng::seed_from_u64(99);
        let mut twin = Sequential::new().push(Linear::new(4, 3, &mut rng));
        tr_analysis::ModelSpec::from_layer("tiny", &mut twin).unwrap()
    }

    #[test]
    fn armed_engine_refuses_uncertified_rungs_and_serves_certified_ones() {
        let mut e = tiny_engine();
        let x = [0.3f32, -0.2, 0.9, 0.1];
        let spec = tiny_spec();
        let tr = Precision::Tr(TrConfig::new(2, 3).with_data_terms(2));
        let qt = Precision::Qt { weight_bits: 8, act_bits: 8 };
        // Certify only the TR rung; QT stays unproven.
        let table = tr_analysis::CertificateTable::certify(&spec, &[tr]).unwrap();
        e.enforce_certificates(Arc::new(table), spec.fingerprint());

        e.try_set_precision(&tr, 1.0).expect("certified rung must install");
        let certified_pred = e.infer(&[&x]);

        let err = e.try_set_precision(&qt, 1.0).unwrap_err();
        assert!(matches!(err, TrError::Uncertified(_)), "{err}");
        // The refusal left the engine on the certified rung, still serving.
        assert_eq!(e.infer(&[&x]), certified_pred);

        // The infallible trait path treats the refusal as poison.
        let r = catch_unwind(AssertUnwindSafe(|| e.set_precision(&qt, 1.0)));
        assert!(r.is_err(), "uncertified rung through set_precision must panic");
    }

    #[test]
    fn tampered_certificate_is_refused_by_the_engine() {
        let mut e = tiny_engine();
        let spec = tiny_spec();
        let tr = Precision::Tr(TrConfig::new(2, 3).with_data_terms(2));
        let mut table = tr_analysis::CertificateTable::certify(&spec, &[tr]).unwrap();
        let fp = spec.fingerprint();
        assert!(table.get_mut(fp, &tr.label()).unwrap().tamper(0x5EED));
        e.enforce_certificates(Arc::new(table), fp);
        let err = e.try_set_precision(&tr, 1.0).unwrap_err();
        assert!(matches!(err, TrError::Uncertified(_)), "{err}");
    }

    #[test]
    fn unarmed_engine_switches_without_certificates() {
        // Enforcement is opt-in: engines outside a certified deployment
        // keep the PR-6 behaviour bit-for-bit.
        let mut e = tiny_engine();
        let qt = Precision::Qt { weight_bits: 8, act_bits: 8 };
        e.try_set_precision(&qt, 1.0).expect("unarmed engine must not require certificates");
    }
}
