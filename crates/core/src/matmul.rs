//! Exact term-pair matrix multiplication.
//!
//! Computes dot products the way the tMAC hardware does (§V-B): every
//! (weight term, data term) pair is one exponent addition, accumulated
//! into the result. The output is numerically identical to an integer
//! matmul over the *reconstructed* (post-TR) codes, which is the property
//! the hardware simulator and the paper-claims tests verify.

use crate::bitplane::{
    live_plane_sum, try_bitplane_matmul_i64, try_bitplane_matmul_i64_blocked, BitPlaneMatrix,
};
use crate::error::TrError;
use crate::packed::{off_usize, PackedTermMatrix};
use crate::seal::{fnv1a_word, FNV_OFFSET};
use crate::tune::{self, TuneTable};
use rayon::prelude::*;
use std::sync::Mutex;
use tr_obs::{as_u64, Counter};

/// Signed width of the accumulator every integer kernel in this module
/// carries (`i64`). The tr-analysis whole-model prover certifies each
/// (model, rung) pair against this constant; narrowing it is how the
/// negative tests manufacture overflow reports.
pub const ACCUMULATOR_BITS: u32 = 64;

/// Accumulator addition with the overflow contract spelled out: debug
/// builds panic with an `ACCUMULATOR_BITS` message the moment a sum
/// leaves `i64` (an operand tr-analysis should have rejected), release
/// builds wrap explicitly — never the silent wrap of an unchecked `+`,
/// and exactly the modulo-2⁶⁴ semantics under which every kernel in this
/// module is bit-identical to every other regardless of summation order.
#[inline]
pub(crate) fn acc_add(acc: i64, v: i64) -> i64 {
    #[cfg(debug_assertions)]
    {
        acc.checked_add(v).unwrap_or_else(|| {
            panic!(
                "i64 accumulator overflow: {acc} + {v} exceeds ACCUMULATOR_BITS = \
                 {ACCUMULATOR_BITS} (tr-analysis must reject such a rung before it runs)"
            )
        })
    }
    #[cfg(not(debug_assertions))]
    {
        acc.wrapping_add(v)
    }
}

/// Code-plane product under the same contract as [`acc_add`]: checked in
/// debug, explicitly wrapping in release.
#[inline]
pub(crate) fn acc_mul(a: i64, b: i64) -> i64 {
    #[cfg(debug_assertions)]
    {
        a.checked_mul(b).unwrap_or_else(|| {
            panic!(
                "i64 product overflow: {a} * {b} exceeds ACCUMULATOR_BITS = \
                 {ACCUMULATOR_BITS} (tr-analysis must reject such a rung before it runs)"
            )
        })
    }
    #[cfg(not(debug_assertions))]
    {
        a.wrapping_mul(b)
    }
}

/// Shift `v` left by a term exponent. Debug builds assert the shifted
/// value survives (`checked_mul` by the power of two); release builds use
/// `wrapping_shl` — the exponent masked modulo 64, matching what the `<<`
/// the pair walk historically used compiles to.
#[inline]
pub(crate) fn shl_exp(v: i64, exp: u8) -> i64 {
    #[cfg(debug_assertions)]
    {
        assert!(exp < 63, "term exponent {exp} shifts past ACCUMULATOR_BITS = {ACCUMULATOR_BITS}");
        v.checked_mul(1i64 << exp).unwrap_or_else(|| {
            panic!("i64 shift overflow: {v} << {exp} exceeds ACCUMULATOR_BITS = {ACCUMULATOR_BITS}")
        })
    }
    #[cfg(not(debug_assertions))]
    {
        v.wrapping_shl(u32::from(exp))
    }
}

/// Term-pair matmul invocations.
static MATMUL_CALLS: Counter = Counter::new("core.matmul.calls");
/// Output rows computed across invocations.
static MATMUL_ROWS: Counter = Counter::new("core.matmul.rows");
/// Output cells (dot products) computed across invocations.
static MATMUL_CELLS: Counter = Counter::new("core.matmul.cells");
/// Matmuls executed over the serial code-plane route.
static ROUTE_SERIAL: Counter = Counter::new("core.matmul.route.serial");
/// Matmuls executed over the parallel code-plane route.
static ROUTE_PARALLEL: Counter = Counter::new("core.matmul.route.parallel");
/// Matmuls executed over the flat bit-plane popcount route.
static ROUTE_BITPLANE: Counter = Counter::new("core.matmul.route.bitplane");
/// Matmuls executed over the L2-blocked deep-K bit-plane route.
static ROUTE_BITPLANE_BLOCKED: Counter = Counter::new("core.matmul.route.bitplane_blocked");

/// Output-row tile of the blocked packed kernel: enough rows to amortize
/// the per-task overhead of the thread pool without starving it.
///
/// Every dispatch *threshold* (`par_min_macs`, `par_prep_factor`, the
/// bit-plane pair budget, the deep-K blocking cut) lives in the active
/// [`TuneTable`] — measured per host by `tr_core::tune`, defaulting to
/// the PR 9 constants when no table is installed.
const ROW_TILE: usize = 4;

/// How [`try_packed_term_matmul_i64`] will execute a given operand pair.
///
/// Public so callers with cost models of their own (benches, tests, the
/// serve capacity planner) can interrogate — or force, via
/// [`try_packed_term_matmul_i64_planned`] — the dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulPlan {
    /// Reconstruct code planes, dense matmul, single thread.
    SerialCodePlane,
    /// Reconstruct code planes, dense matmul, rayon row tiles.
    ParallelCodePlane,
    /// Decompose into sign-split exponent bit-planes and run the
    /// popcount kernel (which parallelizes internally by the same
    /// pair-words threshold).
    BitPlane,
    /// The popcount kernel with the plane loop tiled over output columns
    /// and K-word panels — the deep-reduction (`K ≫ 4k`) variant whose
    /// panels stream through L2 once per output tile. Bit-identical to
    /// [`MatmulPlan::BitPlane`] (wrapping addition is associative).
    BitPlaneBlocked,
}

impl MatmulPlan {
    /// Stable label for tables and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MatmulPlan::SerialCodePlane => "serial",
            MatmulPlan::ParallelCodePlane => "parallel",
            MatmulPlan::BitPlane => "bitplane",
            MatmulPlan::BitPlaneBlocked => "bitplane_blocked",
        }
    }
}

/// The dispatch decision from operand statistics — the one cost model
/// both [`matmul_plan`] (exact stats, one scan per operand) and
/// [`MatmulPlanner`] (cached weight-side stats, estimated data side)
/// evaluate, so the plan cache can never diverge from the direct path's
/// *logic*, only from its input estimates.
///
/// `planes` and `terms` are lazy: the plane scan only runs when the
/// shape gates pass.
fn decide_plan(
    m: usize,
    n: usize,
    k: usize,
    planes: impl FnOnce() -> (u64, u64),
    terms: impl FnOnce() -> u64,
    t: &TuneTable,
) -> MatmulPlan {
    let macs = as_u64(m).saturating_mul(as_u64(n)).saturating_mul(as_u64(k));
    if m == 0 || n == 0 || k == 0 {
        return MatmulPlan::SerialCodePlane;
    }
    if as_u64(k) >= t.bitplane_min_k && macs >= t.bitplane_min_macs {
        let (pw, px) = planes();
        // Σ_i Σ_j p_w(i)·p_x(j) = (Σ p_w)(Σ p_x); average per output cell
        // against the budget, kept in integers via cross-multiplication.
        let pair_sum = u128::from(pw) * u128::from(px);
        let cells = u128::from(as_u64(m)) * u128::from(as_u64(n));
        if pair_sum <= u128::from(t.bitplane_pair_budget) * cells {
            let wpr = k.div_ceil(64).next_multiple_of(8);
            return if as_u64(wpr) >= t.blocked_min_words {
                MatmulPlan::BitPlaneBlocked
            } else {
                MatmulPlan::BitPlane
            };
        }
    }
    let prep = terms();
    if macs > t.par_min_macs
        && macs >= t.par_prep_factor.saturating_mul(prep)
        && m >= 2 * ROW_TILE
    {
        MatmulPlan::ParallelCodePlane
    } else {
        MatmulPlan::SerialCodePlane
    }
}

/// Choose the kernel for `W @ X` from shape *and* live plane count.
///
/// Three decisions, all cost-model driven against the active
/// [`TuneTable`]:
///
/// * **bit-plane vs code-plane** — the popcount kernel's cost is the live
///   plane-pair product per output (measured exactly by a cheap
///   `O(total terms)` scan), the dense kernel's is the reduction length;
///   bit-planes win only when TR has actually drained the planes, which
///   is the α/k-aggressiveness knob of the paper.
/// * **flat vs blocked bit-planes** — at reductions past the table's
///   `blocked_min_words`, the plane loop tiles over K-word panels so the
///   data-side working set stays in L2.
/// * **parallel vs serial** — raw MACs must clear `par_min_macs` *and*
///   dominate the serial reconstruction prefix by `par_prep_factor`, and
///   there must be at least two row tiles to hand out.
#[must_use]
pub fn matmul_plan(w: &PackedTermMatrix, x: &PackedTermMatrix) -> MatmulPlan {
    let t = tune::active();
    decide_plan(
        w.rows(),
        x.rows(),
        w.len(),
        || (live_plane_sum(w), live_plane_sum(x)),
        || as_u64(w.total_terms()).saturating_add(as_u64(x.total_terms())),
        &t,
    )
}

/// Term-pair dot product of elements `c0..c1` of packed rows `wr` / `xr`.
///
/// Walks the flat exponent/sign planes directly: exponents of a term pair
/// add and signs multiply, so each pair contributes `±2^(e_w + e_x)` — a
/// shift-and-accumulate, never a multiply.
#[inline]
fn packed_dot_range(
    w: &PackedTermMatrix,
    wr: usize,
    x: &PackedTermMatrix,
    xr: usize,
    c0: usize,
    c1: usize,
) -> i64 {
    let wo = &w.offsets()[wr * w.len()..];
    let xo = &x.offsets()[xr * x.len()..];
    let wexps = w.exps();
    let xexps = x.exps();
    let mut acc = 0i64;
    let mut ws = off_usize(wo[c0]);
    let mut xs = off_usize(xo[c0]);
    for c in c0..c1 {
        let we = off_usize(wo[c + 1]);
        let xe = off_usize(xo[c + 1]);
        for (dw, &wexp) in wexps[ws..we].iter().enumerate() {
            // ±2^exp of the weight term; shifting it by the data exponent
            // and conditionally negating reproduces `Term::mul().value()`.
            let wv = shl_exp(if w.sign(ws + dw) { -1i64 } else { 1i64 }, wexp);
            for (dx, &xexp) in xexps[xs..xe].iter().enumerate() {
                let p = shl_exp(wv, xexp);
                acc = acc_add(acc, if x.sign(xs + dx) { p.wrapping_neg() } else { p });
            }
        }
        ws = we;
        xs = xe;
    }
    acc
}

/// Dot product of packed row `wr` of `w` with packed row `xr` of `x` by
/// enumerating every term pair, the way a tMAC cell does (§III-B).
pub fn term_dot_packed(w: &PackedTermMatrix, wr: usize, x: &PackedTermMatrix, xr: usize) -> i64 {
    debug_assert_eq!(w.len(), x.len());
    packed_dot_range(w, wr, x, xr, 0, w.len())
}

/// `W (M,K) @ X (K,N)` over packed term matrices, producing exact `i64`
/// accumulators in row-major `(M, N)` order (span `core.matmul`,
/// `core.matmul.*` counters).
///
/// The speed comes from distributivity: an element's term-pair sum
/// `Σ_w Σ_x ±2^(e_w+e_x)` factors exactly into
/// `(Σ_w ±2^(e_w)) · (Σ_x ±2^(e_x))` — the product of the codes the kept
/// terms reconstruct. So the kernel makes one flat pass over each
/// operand's exponent/sign planes to rebuild the signed codes (a shift
/// and add per term), then runs a dense `i64` matmul over the contiguous
/// code rows. Integer arithmetic is exact, so the result is bit-identical
/// to enumerating every pair the way [`term_dot_packed`] does — the enumeration
/// cost `O(t_w · t_x)` per element drops to one multiply.
///
/// # Panics
/// If the reduction dimensions differ. Use [`try_packed_term_matmul_i64`]
/// to get a `Result` instead.
pub fn packed_term_matmul_i64(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
    match try_packed_term_matmul_i64(w, x) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`packed_term_matmul_i64`]: plans with [`matmul_plan`] and
/// executes.
pub fn try_packed_term_matmul_i64(
    w: &PackedTermMatrix,
    x: &PackedTermMatrix,
) -> Result<Vec<i64>, TrError> {
    try_packed_term_matmul_i64_cached(w, None, x, None)
}

/// [`try_packed_term_matmul_i64`] with optional pre-built bit-plane
/// decompositions. When the plan lands on the popcount kernel, a provided
/// decomposition is used as-is and only the missing side is built — this
/// is how the serve `PreparedWeights` cache amortizes the weight-side
/// decomposition across every batch of a rung. A provided decomposition
/// **must** have been built (by [`BitPlaneMatrix::from_packed`]) from the
/// matching packed operand; the prepared-weights content seal upholds
/// that invariant for cached entries.
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ.
pub fn try_packed_term_matmul_i64_cached(
    w: &PackedTermMatrix,
    w_planes: Option<&BitPlaneMatrix>,
    x: &PackedTermMatrix,
    x_planes: Option<&BitPlaneMatrix>,
) -> Result<Vec<i64>, TrError> {
    let plan = matmul_plan(w, x);
    try_packed_term_matmul_i64_planned_cached(w, w_planes, x, x_planes, plan)
}

/// [`try_packed_term_matmul_i64`] with the dispatch decision forced —
/// the harness the benches and parity tests use to pit the kernels
/// against each other on identical operands. Production callers should
/// let [`matmul_plan`] (or a [`MatmulPlanner`]) decide.
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ.
pub fn try_packed_term_matmul_i64_planned(
    w: &PackedTermMatrix,
    x: &PackedTermMatrix,
    plan: MatmulPlan,
) -> Result<Vec<i64>, TrError> {
    try_packed_term_matmul_i64_planned_cached(w, None, x, None, plan)
}

/// The one execution path every matmul entry point funnels through: a
/// forced [`MatmulPlan`] plus optional pre-built bit-plane
/// decompositions. This is what the serve rung cache calls after
/// resolving the plan once at prepare time via [`MatmulPlanner`].
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ;
/// [`TrError::InvalidConfig`] if the active tune table carries a zero
/// blocking tile (a corrupt table is refused at install, so this only
/// fires on a hand-built table).
pub fn try_packed_term_matmul_i64_planned_cached(
    w: &PackedTermMatrix,
    w_planes: Option<&BitPlaneMatrix>,
    x: &PackedTermMatrix,
    x_planes: Option<&BitPlaneMatrix>,
    plan: MatmulPlan,
) -> Result<Vec<i64>, TrError> {
    if w.len() != x.len() {
        return Err(TrError::ShapeMismatch(format!(
            "reduction dims differ: {} vs {}",
            w.len(),
            x.len()
        )));
    }
    let (m, n, k) = (w.rows(), x.rows(), w.len());
    record_matmul(m, n);
    record_route(plan);
    if matches!(plan, MatmulPlan::BitPlane | MatmulPlan::BitPlaneBlocked) {
        let built_w;
        let wp = match w_planes {
            Some(p) => p,
            None => {
                built_w = BitPlaneMatrix::from_packed(w);
                &built_w
            }
        };
        let built_x;
        let xp = match x_planes {
            Some(p) => p,
            None => {
                built_x = BitPlaneMatrix::from_packed(x);
                &built_x
            }
        };
        if let MatmulPlan::BitPlaneBlocked = plan {
            let t = tune::active();
            let cols = usize::try_from(t.block_cols)
                .expect("block_cols fits usize")
                .max(1);
            let words = usize::try_from(t.block_words)
                .expect("block_words fits usize")
                .max(1);
            return try_bitplane_matmul_i64_blocked(wp, xp, cols, words);
        }
        return try_bitplane_matmul_i64(wp, xp);
    }
    let _span = tr_obs::span("core.matmul");
    let mut out = vec![0i64; m * n];
    if m * n == 0 || k == 0 {
        return Ok(out);
    }
    // One flat pass per operand: ±2^exp shift-accumulated into the code
    // plane each dense row below reads contiguously.
    let wcodes = w.reconstruct_codes();
    let xcodes = x.reconstruct_codes();
    if let MatmulPlan::ParallelCodePlane = plan {
        out.par_chunks_mut(ROW_TILE * n).enumerate().for_each(|(t, block)| {
            for (r, orow) in block.chunks_mut(n).enumerate() {
                code_row(&wcodes, &xcodes, t * ROW_TILE + r, orow, k);
            }
        });
    } else {
        for (i, orow) in out.chunks_mut(n).enumerate() {
            code_row(&wcodes, &xcodes, i, orow, k);
        }
    }
    Ok(out)
}

#[inline]
fn record_route(plan: MatmulPlan) {
    match plan {
        MatmulPlan::SerialCodePlane => ROUTE_SERIAL.inc(),
        MatmulPlan::ParallelCodePlane => ROUTE_PARALLEL.inc(),
        MatmulPlan::BitPlane => ROUTE_BITPLANE.inc(),
        MatmulPlan::BitPlaneBlocked => ROUTE_BITPLANE_BLOCKED.inc(),
    }
}

/// Per-shape plan cache for a fixed packed operand — the "x"/weight side
/// of `Linear::integer_forward`, whose statistics never change between
/// forwards. Route selection then costs one memo lookup per batch shape
/// instead of two `O(total terms)` operand scans per forward.
///
/// The streamed/activation side is *estimated* from the peer's term
/// bound (calibrated against the BENCH_PR9 activation statistics:
/// roughly `5·s + 4` live planes and `min(s, 3)` terms per value at
/// 8-bit activations), so a planner plan can differ from the exact
/// [`matmul_plan`] only near a crossover — where both routes cost the
/// same by construction, and every route is bit-identical anyway.
///
/// Memoized plans are tagged with the [`TuneTable`] checksum they were
/// decided under; installing a new table invalidates the memo on the
/// next lookup. The planner itself carries an FNV seal over its cached
/// statistics, folded into the prepared-weights content seal upstream.
#[derive(Debug)]
pub struct MatmulPlanner {
    rows: usize,
    k: usize,
    planes: u64,
    terms: u64,
    peer_term_bound: usize,
    plans: Mutex<(u64, Vec<(usize, MatmulPlan)>)>,
    checksum: u64,
}

/// Upper bound on memoized batch shapes per planner: serve traffic
/// clusters on a handful of batch sizes, and past this the lookup walk
/// would cost more than the scan it saves.
const PLANNER_MEMO_CAP: usize = 32;

impl MatmulPlanner {
    /// Scan the fixed operand once and freeze its statistics.
    /// `peer_term_bound` is the term budget the *streamed* operand will
    /// be quantized under (`data_term_bound` in the nn layer) — 0 means
    /// unbounded and is estimated as the 8-bit worst case.
    #[must_use]
    pub fn for_weights(x: &PackedTermMatrix, peer_term_bound: usize) -> Self {
        let rows = x.rows();
        let k = x.len();
        let planes = live_plane_sum(x);
        let terms = as_u64(x.total_terms());
        let mut h = FNV_OFFSET;
        for v in [as_u64(rows), as_u64(k), planes, terms, as_u64(peer_term_bound)] {
            h = fnv1a_word(h, v);
        }
        MatmulPlanner {
            rows,
            k,
            planes,
            terms,
            peer_term_bound,
            plans: Mutex::new((0, Vec::new())),
            checksum: h,
        }
    }

    /// Resolve the plan for a batch of `m` streamed rows against the
    /// fixed operand. Memoized per batch size; the memo is cleared when
    /// the active [`TuneTable`] changes.
    #[must_use]
    pub fn plan_for(&self, m: usize) -> MatmulPlan {
        let t = tune::active();
        let mut memo = self.plans.lock().expect("planner memo lock poisoned");
        if memo.0 != t.checksum {
            memo.0 = t.checksum;
            memo.1.clear();
        }
        if let Some(&(_, plan)) = memo.1.iter().find(|&&(mm, _)| mm == m) {
            tune::PLAN_HITS.inc();
            return plan;
        }
        tune::PLAN_MISSES.inc();
        // Streamed-side estimates from the peer term bound: live planes
        // per row ≈ 5·s + 4 (sign-split exponent planes at 8-bit codes,
        // capped at the 16 possible), terms per value ≈ min(s, 3).
        let s_eff = if self.peer_term_bound == 0 { 7 } else { self.peer_term_bound };
        let planes_per_row = as_u64((5 * s_eff + 4).min(16));
        let est_planes = as_u64(m).saturating_mul(planes_per_row);
        let est_terms =
            as_u64(m).saturating_mul(as_u64(self.k)).saturating_mul(as_u64(s_eff.min(3)));
        let plan = decide_plan(
            m,
            self.rows,
            self.k,
            || (est_planes, self.planes),
            || est_terms.saturating_add(self.terms),
            &t,
        );
        if memo.1.len() < PLANNER_MEMO_CAP {
            memo.1.push((m, plan));
        }
        plan
    }

    /// FNV seal over the frozen operand statistics.
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for v in [
            as_u64(self.rows),
            as_u64(self.k),
            self.planes,
            self.terms,
            as_u64(self.peer_term_bound),
        ] {
            h = fnv1a_word(h, v);
        }
        h
    }

    /// The seal captured at construction.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recompute the seal and compare against the captured one.
    ///
    /// # Errors
    /// [`TrError::Integrity`] when the statistics have been altered since
    /// construction.
    pub fn verify_integrity(&self) -> Result<(), TrError> {
        if self.content_checksum() == self.checksum {
            Ok(())
        } else {
            Err(TrError::Integrity(
                "matmul planner statistics do not match their seal".to_string(),
            ))
        }
    }
}

#[inline]
fn record_matmul(m: usize, n: usize) {
    MATMUL_CALLS.inc();
    MATMUL_ROWS.add(as_u64(m));
    MATMUL_CELLS.add(as_u64(m).saturating_mul(as_u64(n)));
}

/// One output row of the dense code-plane matmul: both operands are
/// walked as contiguous `k`-length rows, so the inner loop vectorizes.
#[inline]
fn code_row(wcodes: &[i64], xcodes: &[i64], i: usize, orow: &mut [i64], k: usize) {
    let wrow = &wcodes[i * k..(i + 1) * k];
    for (j, o) in orow.iter_mut().enumerate() {
        let xrow = &xcodes[j * k..(j + 1) * k];
        *o = wrow.iter().zip(xrow).fold(0i64, |acc, (&a, &b)| acc_add(acc, acc_mul(a, b)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrConfig;
    use tr_encoding::Encoding;
    use tr_quant::{calibrate_max_abs, quantize, QTensor};
    use tr_tensor::{Rng, Shape, Tensor};

    fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
        quantize(&t, calibrate_max_abs(&t, 8))
    }

    /// The §III-B definition, element by element: every (weight term,
    /// data term) pair contributes `Term::mul().value()`.
    fn pair_walk_matmul(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
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

    #[test]
    fn paper_example_12_times_2() {
        // §III-B: 12 = 2^3 + 2^2 times 2 = 2^1 is 2^4 + 2^3 = 24 via two
        // term-pair multiplications.
        let w = PackedTermMatrix::from_vector(&[12], Encoding::Binary);
        let x = PackedTermMatrix::from_vector(&[2], Encoding::Binary);
        assert_eq!(term_dot_packed(&w, 0, &x, 0), 24);
    }

    #[test]
    fn matches_integer_matmul_without_pruning() {
        // With no TR applied, the term-pair kernel must agree exactly with
        // the reference integer matmul, for every encoding.
        let qw = quantized(6, 32, 10);
        let qx = quantized(32, 5, 11);
        let reference = qw.matmul_i64(&qx);
        for enc in Encoding::ALL {
            let w = PackedTermMatrix::from_weights(&qw, enc);
            let x = PackedTermMatrix::from_data_transposed(&qx, enc);
            let got_t = packed_term_matmul_i64(&w, &x);
            // Transpose (N-major j within row i) is already row-major (M,N).
            assert_eq!(got_t, reference, "{enc} disagrees with integer matmul");
        }
    }

    #[test]
    fn matches_truncated_integer_matmul_with_tr() {
        // After TR, the kernel must equal an integer matmul over the
        // reconstructed (pruned) codes — TR changes the operands, not the
        // arithmetic.
        let qw = quantized(4, 64, 12);
        let qx = quantized(64, 6, 13);
        let cfg = TrConfig::new(8, 12);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
        let got = packed_term_matmul_i64(&w, &x);

        let wc = w.reconstruct_codes();
        let xc = x.reconstruct_codes();
        let (m, k, n) = (4usize, 64usize, 6usize);
        let mut expect = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for kk in 0..k {
                    acc += wc[i * k + kk] * xc[j * k + kk];
                }
                expect[i * n + j] = acc;
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn tr_output_error_is_small() {
        // The quantization-error story of §III-F: TR-pruned dot products
        // stay close to the unpruned ones.
        let qw = quantized(8, 128, 14);
        let qx = quantized(128, 8, 15);
        let exact = qw.matmul_i64(&qx);
        let cfg = TrConfig::new(8, 16);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese);
        let approx = packed_term_matmul_i64(&w, &x);
        let num: f64 = exact
            .iter()
            .zip(&approx)
            .map(|(&e, &a)| ((e - a) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        let den: f64 = exact.iter().map(|&e| (e as f64).powi(2)).sum::<f64>().sqrt();
        let rel = num / den.max(1.0);
        assert!(rel < 0.05, "relative output error {rel}");
    }

    #[test]
    fn packed_dot_matches_legacy_dot() {
        // The plane-walking dot against the per-element pair enumeration.
        let qw = quantized(1, 48, 20);
        let qx = quantized(48, 1, 21);
        for enc in Encoding::ALL {
            let w = PackedTermMatrix::from_weights(&qw, enc);
            let x = PackedTermMatrix::from_data_transposed(&qx, enc);
            assert_eq!(vec![term_dot_packed(&w, 0, &x, 0)], pair_walk_matmul(&w, &x), "{enc}");
        }
    }

    #[test]
    fn packed_matmul_matches_legacy_serial_path() {
        // 6 * 5 * 32 MACs is far under PAR_MIN_MACS.
        let qw = quantized(6, 32, 22);
        let qx = quantized(32, 5, 23);
        for enc in Encoding::ALL {
            let w = PackedTermMatrix::from_weights(&qw, enc);
            let x = PackedTermMatrix::from_data_transposed(&qx, enc);
            assert_eq!(packed_term_matmul_i64(&w, &x), pair_walk_matmul(&w, &x), "{enc}");
        }
    }

    #[test]
    fn packed_matmul_matches_legacy_parallel_path() {
        // 24 * 24 * 300 MACs crosses PAR_MIN_MACS and exercises partial
        // row tiles plus more than one K_TILE.
        let qw = quantized(24, 300, 24);
        let qx = quantized(300, 24, 25);
        let cfg = TrConfig::new(8, 12);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
        assert_eq!(packed_term_matmul_i64(&w, &x), pair_walk_matmul(&w, &x));
    }

    #[test]
    fn serve_quick_shapes_stay_serial() {
        // Regression for the PR 8 small-host lesson: the quick-mode serve
        // MLP issues batch-4 matmuls like (out 256, in 128) x (batch 4) —
        // 131072 raw MACs, over the old `PAR_MIN_MACS` bar, yet the dense
        // body is only ~2x the serial reconstruction prefix. Fanning that
        // out pays a scoped-thread spawn per call for no win; the plan
        // must keep it serial now that prep cost is folded in.
        let _serial = tune::test_guard();
        let qw = quantized(256, 128, 30);
        let qx = quantized(128, 4, 31);
        let cfg = TrConfig::new(8, 12).with_data_terms(3);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
        let macs = (w.rows() * x.rows() * w.len()) as u64;
        assert!(
            macs > tune::active().par_min_macs,
            "shape no longer covers the regression"
        );
        assert_eq!(matmul_plan(&w, &x), MatmulPlan::SerialCodePlane);
        // A batch wide enough for the MAC body to dominate prep again
        // goes (or stays) non-serial.
        let qx_big = quantized(128, 96, 32);
        let x_big = PackedTermMatrix::from_data_transposed(&qx_big, Encoding::Hese).cap_terms(3);
        assert_ne!(matmul_plan(&w, &x_big), MatmulPlan::SerialCodePlane);
    }

    #[test]
    fn plan_picks_bitplane_only_when_planes_are_drained() {
        // Paper-sized reduction. At a generous budget the live plane-pair
        // product is far over budget (bit-planes would lose); an
        // aggressive rung drains the planes and flips the plan.
        let _serial = tune::test_guard();
        let qw = quantized(64, 1152, 33);
        let qx = quantized(1152, 32, 34);
        let loose = TrConfig::new(8, 16).with_data_terms(3);
        let wl = PackedTermMatrix::from_weights(&qw, loose.weight_encoding).reveal(&loose);
        let xl = PackedTermMatrix::from_data_transposed(&qx, loose.data_encoding).cap_terms(3);
        assert_eq!(matmul_plan(&wl, &xl), MatmulPlan::ParallelCodePlane);
        let tight = TrConfig::new(8, 2).with_data_terms(1);
        let wt = PackedTermMatrix::from_weights(&qw, tight.weight_encoding).reveal(&tight);
        let xt = PackedTermMatrix::from_data_transposed(&qx, tight.data_encoding)
            .reveal(&TrConfig::new(8, 4))
            .cap_terms(1);
        assert_eq!(matmul_plan(&wt, &xt), MatmulPlan::BitPlane);
        // Whatever the plan, all four kernels agree bit-for-bit.
        let auto = packed_term_matmul_i64(&wt, &xt);
        for plan in [
            MatmulPlan::SerialCodePlane,
            MatmulPlan::ParallelCodePlane,
            MatmulPlan::BitPlane,
            MatmulPlan::BitPlaneBlocked,
        ] {
            let forced = try_packed_term_matmul_i64_planned(&wt, &xt, plan).unwrap();
            assert_eq!(forced, auto, "{}", plan.name());
        }
    }

    #[test]
    fn deep_reductions_take_the_blocked_route() {
        // K = 16384 → 256 words per plane row, at the default
        // blocked_min_words = 256 the drained rung must block; the memo
        // planner must agree with the direct plan and the output must
        // stay bit-identical either way.
        let _serial = tune::test_guard();
        let qw = quantized(16, 16384, 40);
        let qx = quantized(16384, 16, 41);
        let tight = TrConfig::new(8, 1).with_data_terms(1);
        let w = PackedTermMatrix::from_weights(&qw, tight.weight_encoding).reveal(&tight);
        let x = PackedTermMatrix::from_data_transposed(&qx, tight.data_encoding)
            .reveal(&TrConfig::new(8, 4))
            .cap_terms(1);
        assert_eq!(matmul_plan(&w, &x), MatmulPlan::BitPlaneBlocked);
        let blocked = packed_term_matmul_i64(&w, &x);
        let flat = try_packed_term_matmul_i64_planned(&w, &x, MatmulPlan::BitPlane).unwrap();
        assert_eq!(blocked, flat);
    }

    #[test]
    fn planner_memoizes_and_tracks_the_tune_table() {
        let _serial = tune::test_guard();
        let qw = quantized(128, 256, 42);
        let cfg = TrConfig::new(8, 2).with_data_terms(1);
        let weights =
            PackedTermMatrix::from_data_transposed(&qw, cfg.data_encoding).cap_terms(1);
        let planner = MatmulPlanner::for_weights(&weights, 1);
        planner.verify_integrity().unwrap();
        let first = planner.plan_for(4);
        assert_eq!(planner.plan_for(4), first, "memoized plan must be stable");
        // Installing a table with an impossible pair budget flips every
        // shape to a code-plane route — the memo must notice the change.
        let mut strict = TuneTable::default_for(tune::Isa::detect());
        strict.bitplane_pair_budget = 0;
        strict.blocked_min_words = u64::MAX;
        tune::install(strict.seal()).unwrap();
        let after = planner.plan_for(4);
        tune::reset();
        assert!(
            !matches!(after, MatmulPlan::BitPlane | MatmulPlan::BitPlaneBlocked),
            "zero pair budget must forbid bit-plane routes, got {}",
            after.name()
        );
    }

    #[test]
    fn planner_plans_agree_with_exact_plans_on_serve_shapes() {
        let _serial = tune::test_guard();
        // The planner estimates the streamed side; on the serve MLP
        // shapes the estimate must land on the same side of every
        // crossover as the exact scan.
        let qw = quantized(256, 128, 43);
        let cfg = TrConfig::new(8, 12).with_data_terms(3);
        let weights = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let planner = MatmulPlanner::for_weights(&weights, 3);
        for batch in [1usize, 4, 32, 96] {
            let qx = quantized(128, batch, 44 + batch as u64);
            let x =
                PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
            // Operand order in integer_forward: activations first.
            assert_eq!(
                planner.plan_for(batch),
                matmul_plan(&x, &weights),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn cached_planes_match_freshly_built_ones() {
        let qw = quantized(48, 256, 35);
        let qx = quantized(256, 48, 36);
        let cfg = TrConfig::new(8, 2).with_data_terms(1);
        let w = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(1);
        let wp = crate::bitplane::BitPlaneMatrix::from_packed(&w);
        let cached = try_packed_term_matmul_i64_cached(&w, Some(&wp), &x, None).unwrap();
        assert_eq!(cached, try_packed_term_matmul_i64(&w, &x).unwrap());
    }

    #[test]
    fn packed_matmul_rejects_mismatched_reduction_dims() {
        let w = PackedTermMatrix::from_vector(&[1, 2], Encoding::Binary);
        let x = PackedTermMatrix::from_vector(&[1, 2, 3], Encoding::Binary);
        assert!(try_packed_term_matmul_i64(&w, &x).is_err());
    }

    #[test]
    fn packed_matmul_handles_degenerate_shapes() {
        let empty = PackedTermMatrix::from_vector(&[], Encoding::Binary);
        let out = packed_term_matmul_i64(&empty, &empty);
        assert_eq!(out, vec![0i64]); // 1x0 @ 0x1 -> one empty dot
    }
}
