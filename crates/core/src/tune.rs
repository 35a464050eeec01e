//! Seeded micro-autotuning for the integer matmul kernels.
//!
//! PR 9 shipped the bit-plane popcount GEMM with dispatch constants
//! measured on one AVX512-VPOPCNTDQ host (`BITPLANE_PAIR_BUDGET`,
//! `PAR_MIN_PAIR_WORDS`, …). Those crossovers are *properties of the
//! host*: a scalar-popcnt machine breaks even at far fewer plane pairs,
//! a one-core container should never pay a scoped-thread spawn, and the
//! profitable L2 panel size tracks the cache hierarchy. This module
//! replaces the constants with a [`TuneTable`] — one row of measured
//! crossovers per (ISA, shape-class) — produced by [`autotune`], sealed
//! with the workspace FNV discipline, and installed process-wide for
//! [`matmul_plan`](crate::matmul::matmul_plan) to consult.
//!
//! Determinism contract: the *measurement* is timing-based and may vary
//! between runs, but a **committed** table replays exactly — same sealed
//! table, same plans, same kernel routes, and (because every route is
//! bit-identical) the same outputs. CI measures once (`repro tune`),
//! commits the artifact, and every later run verifies the seal and
//! replays. A tampered table fails [`TuneTable::verify_integrity`] with
//! [`TrError::Integrity`] and is refused at install, so a corrupted
//! artifact can degrade nothing silently: the built-in defaults (the PR 9
//! constants) remain in force.

use crate::config::TrConfig;
use crate::error::TrError;
use crate::packed::PackedTermMatrix;
use crate::seal::{fnv1a_bytes, fnv1a_word, mix, FNV_OFFSET};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use tr_obs::{as_u64, Counter, JsonValue};
use tr_quant::{calibrate_max_abs, quantize};
use tr_tensor::{Rng, Shape, Tensor};

/// Schema tag folded into the seal and written to the JSON artifact.
pub const TUNE_SCHEMA: &str = "tr-tune/v1";

/// Tables installed process-wide.
static TUNE_INSTALLS: Counter = Counter::new("core.tune.installs");
/// Install attempts refused because the seal did not verify.
static TUNE_REJECTS: Counter = Counter::new("core.tune.install_rejects");
/// Autotune sweeps run.
static TUNE_RUNS: Counter = Counter::new("core.tune.autotunes");
/// Per-shape plan cache hits (planner resolved a memoized route).
pub(crate) static PLAN_HITS: Counter = Counter::new("core.tune.plan_hits");
/// Per-shape plan cache misses (planner computed and memoized a route).
pub(crate) static PLAN_MISSES: Counter = Counter::new("core.tune.plan_misses");

/// The popcount row-kernel ISA tiers the dispatcher knows, widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// AVX512F + AVX512-VPOPCNTDQ: 512-bit lanes, hardware `VPOPCNTQ`.
    Avx512Vpopcnt,
    /// AVX2 with the `vpshufb` nibble-LUT popcount (Mula/Harley–Seal):
    /// 256-bit lanes on pre-Ice-Lake hosts.
    Avx2Lut,
    /// Scalar 64-bit `popcnt` (SSE4.2-era).
    Popcnt,
    /// Portable fallback — the compiler's bit-hack `count_ones`.
    Portable,
}

impl Isa {
    /// Every tier, widest first — the probe order of [`Isa::detect`].
    pub const ALL: [Isa; 4] = [Isa::Avx512Vpopcnt, Isa::Avx2Lut, Isa::Popcnt, Isa::Portable];

    /// The widest tier this host supports. `is_x86_feature_detected!`
    /// caches its CPUID probe, so this is a few relaxed loads.
    #[must_use]
    pub fn detect() -> Isa {
        #[allow(clippy::needless_return)] // cfg-dependent tail
        {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                {
                    return Isa::Avx512Vpopcnt;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Isa::Avx2Lut;
                }
                if std::arch::is_x86_feature_detected!("popcnt") {
                    return Isa::Popcnt;
                }
            }
            Isa::Portable
        }
    }

    /// Whether this host can execute the tier's kernel.
    #[must_use]
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                Isa::Avx512Vpopcnt => {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                }
                Isa::Avx2Lut => std::arch::is_x86_feature_detected!("avx2"),
                Isa::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
                Isa::Portable => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Isa::Portable
        }
    }

    /// Stable label for tables, counters, and the JSON artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512Vpopcnt => "avx512vpopcnt",
            Isa::Avx2Lut => "avx2lut",
            Isa::Popcnt => "popcnt",
            Isa::Portable => "portable",
        }
    }

    /// Inverse of [`Isa::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Isa> {
        Isa::ALL.into_iter().find(|i| i.name() == name)
    }
}

/// Measured dispatch crossovers for one host class, sealed.
///
/// Every threshold the matmul planner consults lives here; the built-in
/// defaults ([`TuneTable::default_for`]) are exactly the PR 9 constants,
/// so an uninstalled process behaves as before. All fields are `u64` so
/// the seal and the JSON round-trip are trivially exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneTable {
    /// The ISA tier the crossovers were measured on.
    pub isa: Isa,
    /// Seed of the autotune sweep that produced the table (0 = defaults).
    pub seed: u64,
    /// Live plane-pair budget per output cell: the bit-plane route is
    /// taken when the mean pair product per cell is at most this.
    pub bitplane_pair_budget: u64,
    /// Minimum reduction length for the bit-plane route.
    pub bitplane_min_k: u64,
    /// Minimum raw MACs for the bit-plane route (decomposition amortization).
    pub bitplane_min_macs: u64,
    /// Minimum `plane pairs × words` before the popcount kernel fans out
    /// to the thread pool.
    pub par_min_pair_words: u64,
    /// Minimum raw MACs before the code-plane kernel fans out.
    pub par_min_macs: u64,
    /// The dense MAC body must exceed the serial reconstruction prefix by
    /// this factor before fan-out pays (the PR 8 small-host lesson).
    pub par_prep_factor: u64,
    /// Output-column tile (x-side rows) of the blocked deep-K kernel.
    pub block_cols: u64,
    /// K-panel size in 64-bit words of the blocked kernel (multiple of 8).
    pub block_words: u64,
    /// Plane width (words per row) at or above which the bit-plane route
    /// runs blocked. `u64::MAX` = never profitable on this host.
    pub blocked_min_words: u64,
    /// FNV-1a seal over schema + every field above.
    pub checksum: u64,
}

impl TuneTable {
    /// The untuned table for `isa`: the PR 9 constants, which every host
    /// class ran before this module existed. Sealed.
    #[must_use]
    pub fn default_for(isa: Isa) -> TuneTable {
        TuneTable {
            isa,
            seed: 0,
            bitplane_pair_budget: 96,
            bitplane_min_k: 128,
            bitplane_min_macs: 1 << 20,
            par_min_pair_words: 1 << 17,
            par_min_macs: 1 << 16,
            par_prep_factor: 4,
            block_cols: 16,
            block_words: 512,
            // 64 words = 4096 reduction elements: the ROADMAP's "≫ 4k"
            // line, refined per host by the autotuner.
            blocked_min_words: 256,
            checksum: 0,
        }
        .seal()
    }

    /// FNV-1a over the schema tag, the ISA name, and every threshold —
    /// a pure function of content, so equal tables hash equal.
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_bytes(h, TUNE_SCHEMA.as_bytes());
        h = fnv1a_bytes(h, self.isa.name().as_bytes());
        for w in [
            self.seed,
            self.bitplane_pair_budget,
            self.bitplane_min_k,
            self.bitplane_min_macs,
            self.par_min_pair_words,
            self.par_min_macs,
            self.par_prep_factor,
            self.block_cols,
            self.block_words,
            self.blocked_min_words,
        ] {
            h = fnv1a_word(h, w);
        }
        h
    }

    /// Freeze the seal over the current content.
    #[must_use]
    pub fn seal(mut self) -> TuneTable {
        self.checksum = self.content_checksum();
        self
    }

    /// Verify the table against its seal.
    ///
    /// # Errors
    /// [`TrError::Integrity`] when the thresholds no longer match the
    /// seal — the table must be re-measured, never trusted.
    pub fn verify_integrity(&self) -> Result<(), TrError> {
        let actual = self.content_checksum();
        if actual == self.checksum {
            Ok(())
        } else {
            Err(TrError::Integrity(format!(
                "tune table checksum {actual:#018x} != sealed {:#018x} (isa {}, seed {})",
                self.checksum,
                self.isa.name(),
                self.seed
            )))
        }
    }

    /// Deterministic corruption hook for integrity tests: perturb one
    /// threshold chosen by `salt`, leaving the seal stale.
    pub fn tamper(&mut self, salt: u64) {
        let h = mix(salt ^ self.checksum);
        match h % 5 {
            0 => self.bitplane_pair_budget ^= 1 << (h % 7),
            1 => self.par_min_pair_words ^= 1 << (h % 11),
            2 => self.block_words = self.block_words.wrapping_add(8),
            3 => self.blocked_min_words ^= 1 << (h % 13),
            _ => self.par_prep_factor = self.par_prep_factor.wrapping_add(1),
        }
    }

    /// The table as a JSON object (the `TUNE_PR10.json` artifact body).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("schema".into(), JsonValue::str(TUNE_SCHEMA)),
            ("isa".into(), JsonValue::str(self.isa.name())),
            ("seed".into(), JsonValue::UInt(self.seed)),
            ("bitplane_pair_budget".into(), JsonValue::UInt(self.bitplane_pair_budget)),
            ("bitplane_min_k".into(), JsonValue::UInt(self.bitplane_min_k)),
            ("bitplane_min_macs".into(), JsonValue::UInt(self.bitplane_min_macs)),
            ("par_min_pair_words".into(), JsonValue::UInt(self.par_min_pair_words)),
            ("par_min_macs".into(), JsonValue::UInt(self.par_min_macs)),
            ("par_prep_factor".into(), JsonValue::UInt(self.par_prep_factor)),
            ("block_cols".into(), JsonValue::UInt(self.block_cols)),
            ("block_words".into(), JsonValue::UInt(self.block_words)),
            ("blocked_min_words".into(), JsonValue::UInt(self.blocked_min_words)),
            ("checksum".into(), JsonValue::UInt(self.checksum)),
        ])
    }

    /// Parse a table from JSON text and verify its seal.
    ///
    /// # Errors
    /// [`TrError::Integrity`] when the text is not a sealed tune table or
    /// the seal does not verify — a truncated, hand-edited, or corrupted
    /// artifact is refused whole.
    pub fn from_json_str(text: &str) -> Result<TuneTable, TrError> {
        let v = JsonValue::parse(text)
            .map_err(|e| TrError::Integrity(format!("tune table parse error: {e}")))?;
        let field = |k: &str| -> Result<u64, TrError> {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| TrError::Integrity(format!("tune table missing field {k}")))
        };
        let isa = match v.get("isa") {
            Some(JsonValue::Str(s)) => Isa::from_name(s)
                .ok_or_else(|| TrError::Integrity(format!("tune table unknown isa {s}")))?,
            _ => return Err(TrError::Integrity("tune table missing field isa".into())),
        };
        match v.get("schema") {
            Some(JsonValue::Str(s)) if s == TUNE_SCHEMA => {}
            _ => {
                return Err(TrError::Integrity(format!(
                    "tune table schema is not {TUNE_SCHEMA}"
                )))
            }
        }
        let table = TuneTable {
            isa,
            seed: field("seed")?,
            bitplane_pair_budget: field("bitplane_pair_budget")?,
            bitplane_min_k: field("bitplane_min_k")?,
            bitplane_min_macs: field("bitplane_min_macs")?,
            par_min_pair_words: field("par_min_pair_words")?,
            par_min_macs: field("par_min_macs")?,
            par_prep_factor: field("par_prep_factor")?,
            block_cols: field("block_cols")?,
            block_words: field("block_words")?,
            blocked_min_words: field("blocked_min_words")?,
            checksum: field("checksum")?,
        };
        table.verify_integrity()?;
        Ok(table)
    }
}

/// The installed table, if any. `None` resolves to the sealed defaults
/// for the detected ISA.
static ACTIVE: RwLock<Option<Arc<TuneTable>>> = RwLock::new(None);

/// Serializes unit tests that install a table or assert plans decided
/// under the defaults — the table is process-wide, so without this the
/// parallel test runner would let one test's install leak into another's
/// plan assertion.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Install `table` process-wide after verifying its seal. Every
/// subsequent [`matmul_plan`](crate::matmul::matmul_plan) and bit-plane
/// kernel threshold reads it.
///
/// # Errors
/// [`TrError::Integrity`] (and the previous table stays in force) when
/// the seal does not verify.
pub fn install(table: TuneTable) -> Result<(), TrError> {
    if let Err(e) = table.verify_integrity() {
        TUNE_REJECTS.inc();
        return Err(e);
    }
    let mut guard = ACTIVE.write().expect("tune table lock poisoned");
    *guard = Some(Arc::new(table));
    TUNE_INSTALLS.inc();
    Ok(())
}

/// Drop any installed table, restoring the built-in defaults.
pub fn reset() {
    let mut guard = ACTIVE.write().expect("tune table lock poisoned");
    *guard = None;
}

/// The table in force: the installed one, or the sealed defaults for the
/// detected ISA.
#[must_use]
pub fn active() -> Arc<TuneTable> {
    if let Some(t) = ACTIVE.read().expect("tune table lock poisoned").as_ref() {
        return Arc::clone(t);
    }
    Arc::new(TuneTable::default_for(Isa::detect()))
}

/// Wall-seconds of the best of `reps` runs of `f` (best-of filters
/// scheduler noise the same way the bench harness does).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Seeded operand pair at `(m, k, n)` under TR rung `(budget, s)` —
/// weight side revealed, data side HESE-capped, mirroring how the serve
/// hot path builds its operands.
fn probe_operands(
    m: usize,
    k: usize,
    n: usize,
    budget: usize,
    s: usize,
    seed: u64,
) -> (PackedTermMatrix, PackedTermMatrix) {
    let mut rng = Rng::seed_from_u64(seed);
    let wt = Tensor::randn(Shape::d2(m, k), 0.25, &mut rng);
    let xt = Tensor::randn(Shape::d2(k, n), 0.25, &mut rng);
    let cfg = TrConfig::new(8, budget).with_data_terms(s);
    let qw = quantize(&wt, calibrate_max_abs(&wt, 8));
    let qx = quantize(&xt, calibrate_max_abs(&xt, 8));
    let w = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
    let x = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(s);
    (w, x)
}

/// Measure this host's dispatch crossovers and return the sealed table.
///
/// Seeded and shape-classed, not statistically rigorous: each probe is a
/// best-of-N wall-clock race between two routes whose outputs are
/// bit-identical, so a mis-measured crossover costs performance, never
/// correctness. `quick` shrinks shapes and reps to keep CI under a
/// couple of seconds.
#[must_use]
pub fn autotune(seed: u64, quick: bool) -> TuneTable {
    let _span = tr_obs::span("core.tune.autotune");
    TUNE_RUNS.inc();
    let isa = Isa::detect();
    let mut table = TuneTable::default_for(isa);
    table.seed = seed;
    let reps = if quick { 2 } else { 3 };

    // --- bit-plane pair budget: race the popcount kernel against the
    // code-plane kernel across the TR rung ladder and take the largest
    // pairs-per-cell that still wins, derated by 25%.
    let (m, k, n) = if quick { (96, 1152, 96) } else { (192, 1152, 192) };
    let mut crossover: Option<u128> = None;
    for (budget, s) in [(16usize, 3usize), (8, 3), (4, 2), (2, 1), (1, 1)] {
        let (w, x) = probe_operands(m, k, n, budget, s, mix(seed ^ as_u64(budget)));
        let bw = crate::bitplane::BitPlaneMatrix::from_packed(&w);
        let bx = crate::bitplane::BitPlaneMatrix::from_packed(&x);
        let pairs = u128::from(as_u64(bw.total_planes())) * u128::from(as_u64(bx.total_planes()));
        let pairs_per_cell = pairs / (u128::from(as_u64(m)) * u128::from(as_u64(n)));
        let code = best_of(reps, || {
            let out = crate::matmul::try_packed_term_matmul_i64_planned_cached(
                &w,
                None,
                &x,
                None,
                crate::matmul::MatmulPlan::SerialCodePlane,
            );
            std::hint::black_box(&out);
        });
        let bit = best_of(reps, || {
            let out = crate::bitplane::try_bitplane_matmul_i64(&bw, &bx);
            std::hint::black_box(&out);
        });
        if bit < code {
            crossover = Some(crossover.map_or(pairs_per_cell, |c| c.max(pairs_per_cell)));
        }
    }
    if let Some(c) = crossover {
        let derated = (c * 3 / 4).max(16);
        table.bitplane_pair_budget = u64::try_from(derated.min(512)).expect("budget <= 512");
    }

    // --- parallel fan-out threshold: race the flat kernel serial vs
    // parallel at a shape whose pair-words sit near the PR 9 threshold.
    {
        let (w, x) = probe_operands(64, 2048, 64, 2, 1, mix(seed ^ 0xA11E));
        let bw = crate::bitplane::BitPlaneMatrix::from_packed(&w);
        let bx = crate::bitplane::BitPlaneMatrix::from_packed(&x);
        let pair_words = as_u64(bw.total_planes())
            .saturating_mul(as_u64(bx.total_planes()))
            .saturating_mul(as_u64(bw.words_per_row()));
        let serial = best_of(reps, || {
            let out = crate::bitplane::bitplane_matmul_flat(&bw, &bx, false, isa);
            std::hint::black_box(&out);
        });
        let parallel = best_of(reps, || {
            let out = crate::bitplane::bitplane_matmul_flat(&bw, &bx, true, isa);
            std::hint::black_box(&out);
        });
        if parallel < serial * 0.95 {
            // Fan-out pays at this size; keep the threshold at or below it.
            table.par_min_pair_words = table.par_min_pair_words.min(pair_words / 2);
        } else {
            // Spawn overhead still dominates here (the one-core container
            // case): push the threshold well past the probe.
            table.par_min_pair_words = table.par_min_pair_words.max(pair_words.saturating_mul(4));
        }
    }

    // --- deep-K blocking: race panel tilings against the flat walk at
    // the gate's own shape class (K = 32768, the drained single-term
    // rung) and keep the best, then decide the engagement width. The
    // data-side plane set must outgrow L2 for blocking to have anything
    // to win — the full 196-column data side is ~9 MB of panels at this
    // depth — so the probe keeps that and scales only the batch
    // dimension down in quick mode. The tile optimum shifts with depth
    // (wider K-panels amortize per-pair setup once the slab no longer
    // fits), which is why the probe depth must match the shape class it
    // steers.
    {
        let (m2, n2) = if quick { (48, 196) } else { (96, 196) };
        let (w, x) = probe_operands(m2, 32768, n2, 1, 1, mix(seed ^ 0xB10C));
        let bw = crate::bitplane::BitPlaneMatrix::from_packed(&w);
        let bx = crate::bitplane::BitPlaneMatrix::from_packed(&x);
        let flat = best_of(reps, || {
            let out = crate::bitplane::bitplane_matmul_flat(&bw, &bx, false, isa);
            std::hint::black_box(&out);
        });
        let mut best = (f64::INFINITY, table.block_cols, table.block_words);
        for (cols, words) in [(12u64, 256u64), (16, 256), (16, 512), (24, 256), (32, 512)] {
            let t = best_of(reps, || {
                let out = crate::bitplane::try_bitplane_matmul_i64_blocked(
                    &bw,
                    &bx,
                    usize::try_from(cols).expect("tile fits usize"),
                    usize::try_from(words).expect("panel fits usize"),
                );
                std::hint::black_box(&out);
            });
            if t < best.0 {
                best = (t, cols, words);
            }
        }
        if best.0 < flat {
            table.block_cols = best.1;
            table.block_words = best.2;
            // Engage at 8k reductions (128-word planes) if blocking also
            // wins there, otherwise only at the probe depth and beyond.
            let (w4, x4) = probe_operands(m2, 8192, n2, 2, 1, mix(seed ^ 0xB40C));
            let bw4 = crate::bitplane::BitPlaneMatrix::from_packed(&w4);
            let bx4 = crate::bitplane::BitPlaneMatrix::from_packed(&x4);
            let flat4 = best_of(reps, || {
                let out = crate::bitplane::bitplane_matmul_flat(&bw4, &bx4, false, isa);
                std::hint::black_box(&out);
            });
            let blocked4 = best_of(reps, || {
                let out = crate::bitplane::try_bitplane_matmul_i64_blocked(
                    &bw4,
                    &bx4,
                    usize::try_from(best.1).expect("tile fits usize"),
                    usize::try_from(best.2).expect("panel fits usize"),
                );
                std::hint::black_box(&out);
            });
            table.blocked_min_words = if blocked4 < flat4 { 128 } else { 256 };
        } else {
            table.blocked_min_words = u64::MAX;
        }
    }

    table.seal()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_returns_an_available_tier() {
        let isa = Isa::detect();
        assert!(isa.available(), "{}", isa.name());
        // Portable is always available; names round-trip.
        for i in Isa::ALL {
            assert_eq!(Isa::from_name(i.name()), Some(i));
        }
        assert_eq!(Isa::from_name("sse9"), None);
    }

    #[test]
    fn defaults_are_sealed_and_verify() {
        for isa in Isa::ALL {
            let t = TuneTable::default_for(isa);
            t.verify_integrity().unwrap_or_else(|e| panic!("{}: {e}", isa.name()));
            // Seal is a pure function of content: rebuild, same seal.
            assert_eq!(t.checksum, TuneTable::default_for(isa).checksum);
        }
        // Different ISAs seal differently (the ISA is content).
        assert_ne!(
            TuneTable::default_for(Isa::Avx2Lut).checksum,
            TuneTable::default_for(Isa::Popcnt).checksum
        );
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut t = TuneTable::default_for(Isa::Avx2Lut);
        t.seed = 0xBE9C;
        t.bitplane_pair_budget = 123;
        t.blocked_min_words = u64::MAX;
        let t = t.seal();
        let text = t.to_json().to_pretty_string();
        let back = TuneTable::from_json_str(&text).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn tampered_tables_are_refused() {
        for salt in 0..16u64 {
            let mut t = TuneTable::default_for(Isa::Popcnt);
            t.seed = salt;
            let mut t = t.seal();
            t.tamper(salt);
            assert!(t.verify_integrity().is_err(), "salt {salt} went undetected");
            assert!(install(t.clone()).is_err(), "salt {salt} installed");
            // The JSON path refuses the same corruption.
            let text = t.to_json().to_string();
            assert!(TuneTable::from_json_str(&text).is_err(), "salt {salt} parsed");
        }
        // Truncated / schema-less artifacts are Integrity errors too.
        assert!(matches!(TuneTable::from_json_str("{"), Err(TrError::Integrity(_))));
        assert!(matches!(TuneTable::from_json_str("{\"isa\":\"popcnt\"}"), Err(TrError::Integrity(_))));
    }

    #[test]
    fn install_and_reset_flip_the_active_table() {
        let _serial = test_guard();
        reset();
        let before = active();
        let mut t = TuneTable::default_for(Isa::detect());
        t.seed = 777;
        t.bitplane_pair_budget = 111;
        install(t.seal()).expect("sealed table installs");
        let now = active();
        assert_eq!(now.seed, 777);
        assert_eq!(now.bitplane_pair_budget, 111);
        reset();
        assert_eq!(active().seed, before.seed);
    }

    #[test]
    fn quick_autotune_produces_a_sealed_plausible_table() {
        let t = autotune(42, true);
        t.verify_integrity().expect("autotuned table is sealed");
        assert_eq!(t.isa, Isa::detect());
        assert_eq!(t.seed, 42);
        assert!(t.bitplane_pair_budget >= 16);
        assert!(t.block_words.is_multiple_of(8));
        assert!(t.block_cols >= 1);
    }
}
