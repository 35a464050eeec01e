//! Matrix multiplication kernels.
//!
//! The DNN engine lowers every layer to matrix multiplies (fully connected
//! layers directly; convolutions via im2col), so this is the hot kernel of
//! the whole reproduction. [`matmul_into`] is a register-blocked kernel:
//! B is packed in column panels, and each `MR × NR` block of the output
//! stays in vector registers for the whole K loop. There are three
//! builds ([`Tier`]), with a block shape each: the portable tier is safe
//! code over a 4×16 block; the AVX2 (6×16) and AVX-512 (6×32) tiers
//! write their blocks in intrinsics, twelve accumulator registers each,
//! and compile the whole packing driver under their target feature. The
//! widest tier the host supports is picked at run time. Every tier
//! returns the bits of the zero-skipping scalar kernel (see
//! [`matmul_into`]): the intrinsics multiply, then add (`mul_ps`, then
//! `add_ps`, never a fused multiply-add), so each product is rounded to
//! f32 before its add, in ascending `kk` order, as in the scalar loop.
//! [`matmul_transb_into`] and [`Tensor::matmul_transa`] keep row kernels
//! with a rayon `par_chunks_mut` outer loop over output rows, which keeps
//! the parallel version bit-identical to the sequential one (each output
//! row is written by exactly one task).

use crate::shape::Shape;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Rows-per-task threshold below which we stay sequential: tiny matmuls
/// (e.g. LSTM gates on one timestep) are not worth the fork/join overhead.
const PAR_MIN_FLOPS: usize = 1 << 16;

impl Tensor {
    /// `self (M,K) @ other (K,N) -> (M,N)` through [`matmul_into`].
    ///
    /// # Panics
    /// If the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (k2, n) = other.shape().as_matrix();
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2} (shapes {} x {})", self.shape(), other.shape());
        let mut out = vec![0.0f32; m * n];
        matmul_into(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// `self (M,K) @ other^T (N,K) -> (M,N)`.
    ///
    /// Multiplying by a transposed right-hand side is the natural layout
    /// for weight matrices stored as `(out_features, in_features)` and for
    /// the backward pass; doing it directly avoids materializing the
    /// transpose.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_matrix();
        let (n, k2) = other.shape().as_matrix();
        assert_eq!(k, k2, "matmul_transb inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_transb_into(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_vec(out, Shape::d2(m, n))
    }

    /// `self^T (K,M) @ other (K,N) -> (M,N)` — used for weight gradients.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        let (k, m) = self.shape().as_matrix();
        let (k2, n) = other.shape().as_matrix();
        assert_eq!(k, k2, "matmul_transa inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        // Accumulate rank-1 updates row-by-row of the K dimension; this is
        // sequential but the M*N output writes dominate, so parallelize
        // over output rows by transposing the loop order.
        if m * n * k >= PAR_MIN_FLOPS {
            out.par_chunks_mut(n).enumerate().for_each(|(i, orow)| {
                for kk in 0..k {
                    let a = self.data()[kk * m + i];
                    if a != 0.0 {
                        let brow = &other.data()[kk * n..(kk + 1) * n];
                        for (o, &b) in orow.iter_mut().zip(brow) {
                            *o += a * b;
                        }
                    }
                }
            });
        } else {
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                for kk in 0..k {
                    let a = self.data()[kk * m + i];
                    if a != 0.0 {
                        let brow = &other.data()[kk * n..(kk + 1) * n];
                        for (o, &b) in orow.iter_mut().zip(brow) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, Shape::d2(m, n))
    }
}

/// The kernels behind [`matmul_into`]: the zero-skipping scalar row
/// kernel and the register-blocked kernel compiled for three instruction
/// sets. Every tier computes the same bits (see [`matmul_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One output row at a time, skipping zero A elements: the reference
    /// the blocked tiers are tested against, and the kernel for operands
    /// the blocked tiers cannot reproduce bit for bit.
    Scalar,
    /// The blocked kernel at the target's baseline instruction set.
    Portable,
    /// The blocked kernel in AVX2 intrinsics (256-bit lanes, 6×16 block).
    Avx2,
    /// The blocked kernel in AVX512F intrinsics (512-bit lanes, 6×32 block).
    Avx512,
}

impl Tier {
    /// Every tier, reference first.
    pub const ALL: [Tier; 4] = [Tier::Scalar, Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// The widest blocked tier this host supports, probed once.
    #[must_use]
    pub fn detect() -> Tier {
        static DETECTED: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            [Tier::Avx512, Tier::Avx2].into_iter().find(|t| t.available()).unwrap_or(Tier::Portable)
        })
    }

    /// Whether this host can execute the tier's kernel.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            Tier::Scalar | Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512 => false,
        }
    }

    /// Stable label for benches and test messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// `a (M,K) @ b (K,N)` into `out (M,N)`. `out` must be zeroed by the caller.
///
/// Each output element is its starting value plus `a[i,kk] * b[kk,j]`
/// added in ascending `kk` order, each product rounded to f32 before the
/// add (Rust never fuses a separate multiply and add). The blocked tiers
/// add every product; the scalar kernel skips zero `a[i,kk]`. Both give
/// the same bits: a zero times a finite `b` is ±0, and adding ±0 leaves
/// every accumulator unchanged except a `-0.0` one, and an accumulator
/// that starts at `+0.0` (or any value other than `-0.0`) never becomes
/// `-0.0` (a rounded sum is `-0.0` only when both addends are). So with
/// the zeroed `out` of the contract, only a column panel whose B values
/// are not all finite (where `0 * inf` is NaN) needs the scalar kernel,
/// and every call returns the scalar kernel's bits on every tier.
///
/// The tier is the widest one [`Tier::detect`] finds; the call runs on
/// the calling thread, and its packing buffers are reused per thread.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_into_with(Tier::detect(), a, b, out, m, k, n);
}

/// [`matmul_into`] with the tier forced: the seam benches and the
/// bit-equality tests use to race the tiers on identical operands.
///
/// # Panics
/// If the shapes disagree with the slice lengths, or this host cannot
/// execute `tier`.
pub fn matmul_into_with(tier: Tier, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    assert!(tier.available(), "matmul tier {} is not supported on this host", tier.name());
    match tier {
        Tier::Scalar => scalar(a, b, out, k, n, 0..n),
        Tier::Portable => blocked::<PORTABLE_MR, PORTABLE_NR>(a, b, out, m, k, n, block_portable),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX2.
        Tier::Avx2 => unsafe { blocked_avx2(a, b, out, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX512F.
        Tier::Avx512 => unsafe { blocked_avx512(a, b, out, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 | Tier::Avx512 => unreachable!("unavailable tiers were rejected above"),
    }
}

/// The zero-skipping row kernel over output columns `cols`: for each
/// row, each non-zero `a[i,kk]` adds its scaled B row segment into the
/// output row segment.
fn scalar(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, cols: Range<usize>) {
    for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let orow = &mut orow[cols.clone()];
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av != 0.0 {
                for (o, &bv) in orow.iter_mut().zip(&b[kk * n + cols.start..kk * n + cols.end]) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// The portable tier's register block: 4 rows of 16 columns, four SSE2
/// registers per row on x86-64.
const PORTABLE_MR: usize = 4;
const PORTABLE_NR: usize = 16;
/// The AVX2 tier's block: 6 rows of two 8-lane registers. Twelve
/// accumulators, two B loads and one broadcast fill fifteen of the
/// sixteen `ymm` registers.
#[cfg(target_arch = "x86_64")]
const AVX2_MR: usize = 6;
/// The AVX-512 tier's block: 6 rows of two 16-lane registers, the same
/// register plan as AVX2 at twice the width.
#[cfg(target_arch = "x86_64")]
const AVX512_MR: usize = 6;

/// The portable tier's block, in safe code. A function of its own so the
/// optimizer sees the block's K loop as the outermost loop: inlined into
/// the panel loops, it vectorizes the K loop with gathers instead.
/// Constant-bound index loops let it unroll the update and keep each
/// accumulator row in vector registers.
#[inline(never)]
fn block_portable(a: &[f32], packed: &[f32], out: &mut [f32], ldo: usize) {
    const MR: usize = PORTABLE_MR;
    const NR: usize = PORTABLE_NR;
    let k = a.len() / MR;
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[r * ldo..r * ldo + NR]);
    }
    for kk in 0..k {
        let brow: &[f32; NR] =
            packed[kk * NR..(kk + 1) * NR].try_into().expect("packed row holds NR columns");
        let av: [f32; MR] = std::array::from_fn(|r| a[r * k + kk]);
        for r in 0..MR {
            for c in 0..NR {
                acc[r][c] += av[r] * brow[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * ldo..r * ldo + NR].copy_from_slice(row);
    }
}

/// Generates one x86-64 tier: the [`blocked`] driver compiled for
/// `$feature` around a block kernel of `$mr` rows of two `$lanes`-wide
/// registers. The whole driver takes the target feature, so panel
/// packing and the finiteness check run at that width too. Each step of
/// the block multiplies, then adds (`mul_ps` and `add_ps`, never a fused
/// multiply-add), so every product is rounded to f32 before its add, as
/// in the scalar kernel.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_tier {
    ($name:ident, $feature:literal, $mr:expr, $lanes:expr,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident) => {
        /// [`blocked`] with this tier's block kernel.
        ///
        /// # Safety
        /// The host must support the target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $name(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
            use std::arch::x86_64::*;
            const MR: usize = $mr;
            const NR: usize = 2 * $lanes;
            // One block of `out` (row stride `ldo`): `MR` rows of `NR`
            // columns held in registers for the whole K loop, over the
            // block's `MR` rows of A and its `K × NR` B panel.
            blocked::<MR, NR>(a, b, out, m, k, n, |a, packed, out, ldo| {
                let k = a.len() / MR;
                assert!(a.len() == MR * k && packed.len() >= k * NR, "block operands are MR x K and K x NR");
                assert!(ldo >= NR && out.len() >= (MR - 1) * ldo + NR, "block output holds MR rows of NR");
                let (ap, bp, op) = (a.as_ptr(), packed.as_ptr(), out.as_mut_ptr());
                // SAFETY: the asserts above bound every offset: `r*k + kk
                // < MR*k = a.len()`, `kk*NR + NR <= packed.len()` and
                // `r*ldo + NR <= out.len()`; the loads and stores are
                // unaligned, and the caller guarantees the feature.
                unsafe {
                    let mut acc = [[$set1(0.0); 2]; MR];
                    for (r, row) in acc.iter_mut().enumerate() {
                        row[0] = $load(op.add(r * ldo));
                        row[1] = $load(op.add(r * ldo + $lanes));
                    }
                    for kk in 0..k {
                        let b0 = $load(bp.add(kk * NR));
                        let b1 = $load(bp.add(kk * NR + $lanes));
                        for (r, row) in acc.iter_mut().enumerate() {
                            let av = $set1(*ap.add(r * k + kk));
                            row[0] = $add(row[0], $mul(av, b0));
                            row[1] = $add(row[1], $mul(av, b1));
                        }
                    }
                    for (r, row) in acc.iter().enumerate() {
                        $store(op.add(r * ldo), row[0]);
                        $store(op.add(r * ldo + $lanes), row[1]);
                    }
                }
            });
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_tier!(
    blocked_avx2,
    "avx2",
    AVX2_MR,
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
#[cfg(target_arch = "x86_64")]
x86_tier!(
    blocked_avx512,
    "avx512f",
    AVX512_MR,
    16,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_mul_ps,
    _mm512_add_ps
);

thread_local! {
    /// `blocked`'s A-tail and packed-panel buffers, kept per thread so a
    /// steady stream of calls (a conv layer's images) allocates nothing.
    static PACK_BUFFERS: std::cell::RefCell<(Vec<f32>, Vec<f32>)> = const {
        std::cell::RefCell::new((Vec::new(), Vec::new()))
    };
}

/// The register-blocked GEMM driver. Columns are walked in `NR`-wide
/// panels; each B panel is first packed into a contiguous `k × NR`
/// buffer (the rows of a strided panel of a wide B map to the same few
/// L1 sets), then `kernel` computes the panel `MR` output rows at a time,
/// so each packed B row is loaded once per `MR` rows. Edge tiles (fewer
/// than `MR` rows or `NR` columns) run on zero-padded copies. Inlined
/// into each tier, so it compiles at that tier's instruction set.
#[inline(always)]
fn blocked<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kernel: impl Fn(&[f32], &[f32], &mut [f32], usize),
) {
    // Taken out of the thread-local and put back, not borrowed through
    // `with`: a closure passed to `with` would compile outside the
    // tier's target feature.
    let (mut a_tail, mut packed) = PACK_BUFFERS.take();
    let full_rows = m - m % MR;
    a_tail.clear();
    a_tail.extend_from_slice(&a[full_rows * k..]);
    a_tail.resize(MR * k, 0.0);
    packed.clear();
    packed.resize(k * NR, 0.0);
    let mut tile = [[0.0f32; NR]; MR];
    for j in (0..n).step_by(NR) {
        let width = NR.min(n - j);
        for (dst, src) in packed.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst[..width].copy_from_slice(&src[j..j + width]);
        }
        // The blocked sum equals the zero-skipping one unless this
        // panel of B holds a non-finite value (see `matmul_into`);
        // such a panel runs on the scalar kernel.
        if !packed.iter().fold(true, |ok, v| ok & v.is_finite()) {
            scalar(a, b, out, k, n, j..j + width);
            continue;
        }
        for i in (0..m).step_by(MR) {
            let height = MR.min(m - i);
            let a_rows = if height == MR { &a[i * k..(i + MR) * k] } else { &a_tail[..] };
            if height == MR && width == NR {
                kernel(a_rows, &packed, &mut out[i * n + j..], n);
            } else {
                let tile = tile.as_flattened_mut();
                for (dst, src) in tile.chunks_exact_mut(NR).zip(out[i * n + j..].chunks(n)).take(height) {
                    dst[..width].copy_from_slice(&src[..width]);
                }
                kernel(a_rows, &packed, tile, NR);
                for (src, dst) in tile.chunks_exact(NR).zip(out[i * n + j..].chunks_mut(n)).take(height) {
                    dst[..width].copy_from_slice(&src[..width]);
                }
            }
        }
    }
    PACK_BUFFERS.set((a_tail, packed));
}

/// `a (M,K) @ b^T (N,K)` into `out (M,N)`. `out` must be zeroed by the caller.
pub fn matmul_transb_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(out.len(), m * n);
    let row_kernel = |i: usize, orow: &mut [f32]| {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            // Dot product with 4-wide manual unrolling via chunks_exact.
            let mut ac = arow.chunks_exact(4);
            let mut bc = brow.chunks_exact(4);
            for (ca, cb) in (&mut ac).zip(&mut bc) {
                acc += ca[0] * cb[0] + ca[1] * cb[1] + ca[2] * cb[2] + ca[3] * cb[3];
            }
            for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
                acc += x * y;
            }
            *o += acc;
        }
    };
    if m * k * n >= PAR_MIN_FLOPS {
        out.par_chunks_mut(n).enumerate().for_each(|(i, orow)| row_kernel(i, orow));
    } else {
        for (i, orow) in out.chunks_mut(n).enumerate() {
            row_kernel(i, orow);
        }
    }
}

/// Reference (naive triple-loop) matmul used by tests to validate the
/// optimized kernels.
pub fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += (a[i * k + kk] as f64) * (b[kk * n + j] as f64);
            }
            // f64 accumulate, f32 deliver — matches the optimized kernels.
            #[allow(clippy::cast_possible_truncation)]
            {
                out[i * n + j] = acc as f32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + y.abs()))
    }

    #[test]
    fn matmul_matches_reference_small() {
        let mut rng = Rng::seed_from_u64(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8)] {
            let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
            let b = Tensor::randn(Shape::d2(k, n), 1.0, &mut rng);
            let c = a.matmul(&b);
            let r = matmul_reference(a.data(), b.data(), m, k, n);
            assert!(close(c.data(), &r, 1e-4), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_matches_reference_large_parallel() {
        let mut rng = Rng::seed_from_u64(2);
        let (m, k, n) = (64, 96, 48);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(k, n), 1.0, &mut rng);
        let c = a.matmul(&b);
        let r = matmul_reference(a.data(), b.data(), m, k, n);
        assert!(close(c.data(), &r, 1e-3));
    }

    #[test]
    fn transb_matches_plain() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::randn(Shape::d2(10, 20), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(20, 15), 1.0, &mut rng);
        let via_t = a.matmul_transb(&b.transpose2d());
        let plain = a.matmul(&b);
        assert!(close(via_t.data(), plain.data(), 1e-4));
    }

    #[test]
    fn transa_matches_plain() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Tensor::randn(Shape::d2(20, 10), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(20, 15), 1.0, &mut rng);
        let via_t = a.matmul_transa(&b);
        let plain = a.transpose2d().matmul(&b);
        assert!(close(via_t.data(), plain.data(), 1e-4));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Tensor::randn(Shape::d2(6, 6), 1.0, &mut rng);
        assert!(close(a.matmul(&Tensor::eye(6)).data(), a.data(), 1e-6));
        assert!(close(Tensor::eye(6).matmul(&a).data(), a.data(), 1e-6));
    }

    #[test]
    fn zero_weights_skip_what_they_meet_on_every_tier() {
        // Row 0 meets inf and NaN only through zero weights, so it stays
        // +0.0; row 1 meets them through a non-zero weight.
        let a = [0.0, -0.0, 2.0, 0.0];
        let b = [f32::INFINITY, f32::NAN, 1.5, 1.0];
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            let mut out = [0.0; 4];
            matmul_into_with(tier, &a, &b, &mut out, 2, 2, 2);
            assert_eq!(out[..2], [0.0, 0.0], "tier {}", tier.name());
            assert!(out[..2].iter().all(|v| v.is_sign_positive()), "tier {}", tier.name());
            assert!(out[2].is_infinite() && out[3].is_nan(), "tier {}", tier.name());
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn checks_inner_dims() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        let _ = a.matmul(&b);
    }
}
