//! Exact term-pair matrix multiplication.
//!
//! Computes dot products the way the tMAC hardware does (§V-B): every
//! (weight term, data term) pair is one exponent addition, accumulated
//! into the result. The output is numerically identical to an integer
//! matmul over the *reconstructed* (post-TR) codes, which is the property
//! the hardware simulator and the paper-claims tests verify.
//!
//! One body computes it, behind [`try_packed_term_matmul_i64`] (both
//! operands term planes) and [`try_code_matmul_i64`] (the left operand
//! plain codes): the narrow `i16`/`i32` kernel when a per-call overflow
//! bound admits the operands, the `i64` loop otherwise.

use crate::error::TrError;
use crate::narrow::{self, NarrowCodes};
use crate::packed::PackedTermMatrix;
use std::convert::Infallible;
use tr_obs::{as_u64, Counter};

/// Signed width of the accumulator every integer kernel in this module
/// carries (`i64`). The tr-analysis whole-model prover certifies each
/// (model, rung) pair against this constant; narrowing it is how the
/// negative tests manufacture overflow reports. The narrow code-plane
/// kernel's `i32` lanes run only under a per-call bound that keeps every
/// sum below `2³¹`, where they equal the `i64` sums.
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
/// Matmuls that ran the narrow `i16`/`i32` kernel.
static CODEPLANE_NARROW: Counter = Counter::new("core.matmul.codeplane.narrow");
/// Matmuls whose codes or overflow bound sent them to the `i64` loop.
static CODEPLANE_WIDE: Counter = Counter::new("core.matmul.codeplane.wide");

/// `W (M,K) @ X (K,N)` over packed term matrices, producing exact `i64`
/// accumulators in row-major `(M, N)` order (span `core.matmul`,
/// `core.matmul.*` counters). With [`try_code_matmul_i64`], whose left
/// operand is codes, the one integer matmul: every caller runs one of
/// the two, single-threaded, through one body.
///
/// It rests on distributivity: an element's term-pair sum
/// `Σ_w Σ_x ±2^(e_w+e_x)` factors exactly into
/// `(Σ_w ±2^(e_w)) · (Σ_x ±2^(e_x))` — the product of the codes the kept
/// terms reconstruct. So the kernel makes one flat pass over each
/// operand's exponent/sign planes to rebuild the signed codes (a shift
/// and add per term), then runs a dense matmul over the contiguous code
/// rows, at one multiply per element instead of `t_w · t_x` shifts. The
/// pass writes `i16` rows zero-padded to a multiple of 32 codes and
/// tracks the largest `|code|`; when every code fits in ±32767 and
/// `max|w| · max|x| · K_pad < 2³¹`, no partial sum can reach `2³¹`, and
/// a vectorized kernel (one data row against four weight rows, `i32`
/// sums, the widest ISA tier the host has) runs
/// (`core.matmul.codeplane.narrow`). Otherwise the codes are rebuilt as
/// `i64` and a scalar `i64` loop runs (`core.matmul.codeplane.wide`),
/// keeping the [`ACCUMULATOR_BITS`] contract, debug overflow panics
/// included. Integer arithmetic is exact and neither kernel can wrap
/// where the other does not, so both equal enumerating every term pair.
///
/// TR's work reduction — fewer term pairs per group — is what the tMAC
/// hardware turns into fewer cycles; tr-hw's cycle model accounts for
/// it. On a CPU this kernel's cost is set by the code width and shape,
/// not by the term count.
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ.
pub fn try_packed_term_matmul_i64(
    w: &PackedTermMatrix,
    x: &PackedTermMatrix,
) -> Result<Vec<i64>, TrError> {
    if w.len() != x.len() {
        return Err(TrError::ShapeMismatch(format!(
            "reduction dims differ: {} vs {}",
            w.len(),
            x.len()
        )));
    }
    Ok(matmul(w.rows(), x, || NarrowCodes::of(w, x), || w.reconstruct_codes()))
}

/// `X (batch,K) @ Wᵀ` with `X` given as row-major integer codes and `W`
/// as packed term planes of `K`-long rows: exact `i64` accumulators in
/// row-major `(batch, W.rows())` order. The codes enter the kernel as
/// they are: narrowed straight into its zero-padded `i16` rows, or
/// widened to `i64`, never decomposed into terms. Everything else is
/// [`try_packed_term_matmul_i64`] with `X` packed in any encoding that
/// reconstructs its codes (all four do): the same bits, the same
/// admission bound and kernel choice, the same span and counters.
///
/// This is the integer `Linear` forward, whose capped activation codes
/// already are what the tMAC's encoder would hand the array (§V).
///
/// # Errors
/// [`TrError::ShapeMismatch`] when `x_codes` is not `batch` rows of
/// `W.len()` codes.
pub fn try_code_matmul_i64(
    x_codes: &[i32],
    batch: usize,
    w: &PackedTermMatrix,
) -> Result<Vec<i64>, TrError> {
    let k = w.len();
    if x_codes.len() != batch * k {
        return Err(TrError::ShapeMismatch(match x_codes.len().checked_div(batch) {
            Some(kx) if kx * batch == x_codes.len() => format!("reduction dims differ: {kx} vs {k}"),
            _ => format!("{} codes do not fill {batch} rows of {k}", x_codes.len()),
        }));
    }
    Ok(matmul(
        batch,
        w,
        || NarrowCodes::from_codes(x_codes, batch, w),
        || x_codes.iter().map(|&c| i64::from(c)).collect(),
    ))
}

/// The body both matmuls share: `m` left rows against `rhs`. Only the
/// kernel that runs builds its operands: `narrowed` gives both sides'
/// narrow rows (`None` when the bound refuses them), `widened` the left
/// side's `i64` codes.
fn matmul(
    m: usize,
    rhs: &PackedTermMatrix,
    narrowed: impl FnOnce() -> Option<NarrowCodes>,
    widened: impl FnOnce() -> Vec<i64>,
) -> Vec<i64> {
    let (n, k) = (rhs.rows(), rhs.len());
    MATMUL_CALLS.inc();
    MATMUL_ROWS.add(as_u64(m));
    MATMUL_CELLS.add(as_u64(m).saturating_mul(as_u64(n)));
    let _span = tr_obs::span("core.matmul");
    let mut out = vec![0i64; m * n];
    if m * n == 0 || k == 0 {
        return out;
    }
    if let Some(codes) = narrowed() {
        CODEPLANE_NARROW.inc();
        narrow::rows_with(narrow::Tier::detect(), &codes.w, &codes.x, codes.stride, &mut out);
    } else {
        CODEPLANE_WIDE.inc();
        let lcodes = widened();
        let rcodes = rhs.reconstruct_codes();
        for (i, orow) in out.chunks_mut(n).enumerate() {
            code_row(&lcodes, &rcodes, i, orow, k);
        }
    }
    out
}

/// The route a [`MatmulPlanner`] names: there is one.
///
/// Kept only because the end-to-end benchmark names it; ROADMAP item
/// 1(b) deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulPlan {
    /// [`try_packed_term_matmul_i64`].
    SerialCodePlane,
}

impl MatmulPlan {
    /// Stable label for tables and counters: `"serial"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        "serial"
    }
}

/// A site's route resolver, which always resolves
/// [`MatmulPlan::SerialCodePlane`].
///
/// Kept only because the end-to-end benchmark names it; ROADMAP item
/// 1(b) deletes it.
#[derive(Debug)]
pub struct MatmulPlanner;

impl MatmulPlanner {
    /// The plan for a batch of `_m` rows.
    #[must_use]
    pub fn plan_for(&self, _m: usize) -> MatmulPlan {
        MatmulPlan::SerialCodePlane
    }
}

/// [`try_packed_term_matmul_i64`] under its former signature, whose
/// plane arguments can only be `None`.
///
/// Kept only because the end-to-end benchmark calls it; ROADMAP item
/// 1(b) deletes it.
///
/// # Errors
/// As [`try_packed_term_matmul_i64`].
pub fn try_packed_term_matmul_i64_planned_cached(
    w: &PackedTermMatrix,
    _w_planes: Option<&Infallible>,
    x: &PackedTermMatrix,
    _x_planes: Option<&Infallible>,
    _plan: MatmulPlan,
) -> Result<Vec<i64>, TrError> {
    try_packed_term_matmul_i64(w, x)
}

/// One output row of the wide (`i64`) code-plane matmul: both operands
/// are walked as contiguous `k`-length rows.
#[inline]
pub(crate) fn code_row(wcodes: &[i64], xcodes: &[i64], i: usize, orow: &mut [i64], k: usize) {
    let wrow = &wcodes[i * k..(i + 1) * k];
    for (j, o) in orow.iter_mut().enumerate() {
        let xrow = &xcodes[j * k..(j + 1) * k];
        *o = wrow.iter().zip(xrow).fold(0i64, |acc, (&a, &b)| acc_add(acc, acc_mul(a, b)));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::TrConfig;
    use tr_encoding::Encoding;
    use tr_quant::{calibrate_max_abs, quantize, QTensor};
    use tr_tensor::{Rng, Shape, Tensor};

    /// The product, for operands whose dims agree.
    fn matmul(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
        try_packed_term_matmul_i64(w, x).expect("reduction dims agree")
    }

    fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
        quantize(&t, calibrate_max_abs(&t, 8))
    }

    /// The §III-B definition, element by element: every (weight term,
    /// data term) pair contributes `Term::mul().value()`.
    pub(crate) fn pair_walk_matmul(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
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
        assert_eq!(matmul(&w, &x), vec![24]);
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
            let got_t = matmul(&w, &x);
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
        let got = matmul(&w, &x);

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
        let approx = matmul(&w, &x);
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
        // A single dot product (a 1x1 output) against the per-element
        // pair enumeration.
        let qw = quantized(1, 48, 20);
        let qx = quantized(48, 1, 21);
        for enc in Encoding::ALL {
            let w = PackedTermMatrix::from_weights(&qw, enc);
            let x = PackedTermMatrix::from_data_transposed(&qx, enc);
            assert_eq!(matmul(&w, &x), pair_walk_matmul(&w, &x), "{enc}");
        }
    }

    #[test]
    fn packed_matmul_matches_legacy_serial_path() {
        // A small product, every encoding.
        let qw = quantized(6, 32, 22);
        let qx = quantized(32, 5, 23);
        for enc in Encoding::ALL {
            let w = PackedTermMatrix::from_weights(&qw, enc);
            let x = PackedTermMatrix::from_data_transposed(&qx, enc);
            assert_eq!(matmul(&w, &x), pair_walk_matmul(&w, &x), "{enc}");
        }
    }

    #[test]
    fn packed_matmul_matches_legacy_parallel_path() {
        // 24 * 24 * 300 MACs after TR: K off the 32-code padding step
        // and n off the kernel's 4-row block.
        let qw = quantized(24, 300, 24);
        let qx = quantized(300, 24, 25);
        let cfg = TrConfig::new(8, 12);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
        assert_eq!(matmul(&w, &x), pair_walk_matmul(&w, &x));
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
        let out = matmul(&empty, &empty);
        assert_eq!(out, vec![0i64]); // 1x0 @ 0x1 -> one empty dot
    }
}
