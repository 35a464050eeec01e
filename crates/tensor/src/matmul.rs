//! Matrix multiplication kernels.
//!
//! The DNN engine lowers every layer to matrix multiplies (fully connected
//! layers directly; convolutions through their patch matrix), so this is
//! the hot kernel of the whole reproduction. [`matmul_into`] is a
//! register-blocked kernel: B is packed in column panels, and each `MR ×
//! NR` block of the output stays in vector registers for the whole K
//! loop. There are three builds ([`Tier`]), with a block shape each: the
//! portable tier is safe code over a 4×16 block; the AVX2 (6×16) and
//! AVX-512 (6×32) tiers write their blocks in intrinsics, twelve
//! accumulator registers each, and compile the whole packing driver
//! under their target feature. The widest tier the host supports is
//! picked at run time. Every tier returns the bits of the zero-skipping
//! scalar kernel (see [`matmul_into`]): the intrinsics multiply, then add
//! (`mul_ps`, then `add_ps`, never a fused multiply-add), so each product
//! is rounded to f32 before its add, in ascending `kk` order, as in the
//! scalar loop.
//!
//! Each tier has one block body, generic over where B row `kk` starts:
//! in a packed panel, or, for [`crate::conv::conv2d_into`], in a
//! zero-padded copy of a conv input at the tap's offset. There a
//! stride-1 panel whose register halves each lie in one output row is
//! read in place, and every other panel is packed from the padded image
//! rather than from a patch matrix. The B values the block meets, and
//! their order, are those of `matmul_into` over the patch matrix, so the
//! conv gets the same bits.
//!
//! [`matmul_transb_into`] and [`Tensor::matmul_transa`] keep row kernels
//! with a rayon `par_chunks_mut` outer loop over output rows, which keeps
//! the parallel version bit-identical to the sequential one (each output
//! row is written by exactly one task).

use crate::conv::Conv2dGeometry;
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
        Tier::Scalar => scalar(a, b, n, out, k, n, 0..n),
        // SAFETY: the portable block needs no target feature.
        Tier::Portable => unsafe { blocked::<Portable>(a, b, out, m, k, n) },
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

/// [`crate::conv::conv2d_into`] with the tier forced, for the tier race.
/// `Tier::Scalar` packs every panel from the padded image and runs it on
/// the zero-skipping scalar kernel.
///
/// # Panics
/// If the geometry is invalid, the shapes disagree with the slice
/// lengths, or this host cannot execute `tier`.
pub(crate) fn conv2d_into_with(
    tier: Tier,
    w: &[f32],
    image: &[f32],
    g: &Conv2dGeometry,
    out: &mut [f32],
    m: usize,
    padded: &mut Vec<f32>,
) {
    g.check();
    assert_eq!(image.len(), g.in_channels * g.in_h * g.in_w, "input length mismatch");
    assert_eq!(w.len(), m * g.patch_len());
    assert_eq!(out.len(), m * g.n_patches());
    assert!(tier.available(), "matmul tier {} is not supported on this host", tier.name());
    match tier {
        // SAFETY: the portable block needs no target feature.
        Tier::Scalar | Tier::Portable => unsafe {
            conv_blocked::<Portable>(w, image, g, out, m, padded, tier == Tier::Scalar)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX2.
        Tier::Avx2 => unsafe { conv_avx2(w, image, g, out, m, padded) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX512F.
        Tier::Avx512 => unsafe { conv_avx512(w, image, g, out, m, padded) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 | Tier::Avx512 => unreachable!("unavailable tiers were rejected above"),
    }
}

/// The zero-skipping row kernel over output columns `cols`: for each
/// row, each non-zero `a[i,kk]` adds its scaled B row segment,
/// `b[kk * ldb..]` (`cols.len()` long), into the output row segment.
fn scalar(a: &[f32], b: &[f32], ldb: usize, out: &mut [f32], k: usize, n: usize, cols: Range<usize>) {
    for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let orow = &mut orow[cols.clone()];
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av != 0.0 {
                for (o, &bv) in orow.iter_mut().zip(&b[kk * ldb..]) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Where each row of a block's B operand starts. For every `kk < k`,
/// `start(kk) <= max_start(k)`: the bound the x86 blocks assert before
/// their unchecked loads.
trait RowStarts: Copy {
    fn start(self, kk: usize) -> usize;
    fn max_start(self, k: usize) -> usize;
}

/// A packed panel: row `kk` at `kk * nr`.
#[derive(Clone, Copy)]
struct Packed(usize);

impl RowStarts for Packed {
    #[inline(always)]
    fn start(self, kk: usize) -> usize {
        kk * self.0
    }
    #[inline(always)]
    fn max_start(self, k: usize) -> usize {
        k.saturating_sub(1) * self.0
    }
}

/// Rows of a zero-padded image: patch row `kk`, tap `(c, kh, kw)`, starts
/// at `off[kk] = c·Hp·Wp + kh·Wp + kw`, and `max` is the largest offset.
#[derive(Clone, Copy)]
struct Taps<'a> {
    off: &'a [usize],
    max: usize,
}

impl RowStarts for Taps<'_> {
    #[inline(always)]
    fn start(self, kk: usize) -> usize {
        self.off[kk]
    }
    #[inline(always)]
    fn max_start(self, k: usize) -> usize {
        assert!(k <= self.off.len(), "a tap offset per patch row");
        self.max
    }
}

/// A block's B operand: row `kk` is the two `LANES`-wide halves at
/// `b[rows.start(kk) + halves[h]..]`. A packed panel has halves `[0,
/// LANES]`; the padded image has one half per output-row segment.
#[derive(Clone, Copy)]
struct BPanel<'a, R> {
    b: &'a [f32],
    rows: R,
    halves: [usize; 2],
}

/// A tier's register block: `MR` output rows of `NR = 2 * LANES`
/// columns, held in accumulators for the whole K loop.
trait Block {
    const MR: usize;
    const LANES: usize;
    const NR: usize = 2 * Self::LANES;

    /// Adds `a (MR,k) @ B (k,NR)` into `out` (row stride `ldo`), each
    /// product rounded to f32 before its add, in ascending `kk` order.
    ///
    /// # Safety
    /// The host must support the tier's target feature.
    unsafe fn block<R: RowStarts>(a: &[f32], b: BPanel<'_, R>, out: &mut [f32], ldo: usize);
}

/// The portable tier: 4 rows of 16 columns, four SSE2 registers per row
/// on x86-64.
struct Portable;

impl Block for Portable {
    const MR: usize = 4;
    const LANES: usize = 8;

    /// In safe code. A function of its own so the optimizer sees the
    /// block's K loop as the outermost loop: inlined into the panel
    /// loops, it vectorizes the K loop with gathers instead.
    /// Constant-bound index loops let it unroll the update and keep each
    /// accumulator row in vector registers.
    #[inline(never)]
    unsafe fn block<R: RowStarts>(a: &[f32], b: BPanel<'_, R>, out: &mut [f32], ldo: usize) {
        const MR: usize = Portable::MR;
        const L: usize = Portable::LANES;
        let k = a.len() / MR;
        let mut acc = [[0.0f32; 2 * L]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&out[r * ldo..r * ldo + 2 * L]);
        }
        for kk in 0..k {
            let row = b.rows.start(kk);
            let half = |h: usize| -> &[f32; L] {
                b.b[row + b.halves[h]..][..L].try_into().expect("a B half holds LANES columns")
            };
            let (lo, hi) = (half(0), half(1));
            let av: [f32; MR] = std::array::from_fn(|r| a[r * k + kk]);
            for r in 0..MR {
                for c in 0..L {
                    acc[r][c] += av[r] * lo[c];
                    acc[r][L + c] += av[r] * hi[c];
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            out[r * ldo..r * ldo + 2 * L].copy_from_slice(row);
        }
    }
}

/// Generates one x86-64 tier: a block of `$mr` rows of two
/// `$lanes`-wide registers in `$feature` intrinsics, and the
/// [`blocked`] and [`conv_blocked`] drivers compiled for that feature
/// (`$matmul`, `$conv`), so panel packing and the finiteness checks run
/// at that width too. Each step of the block multiplies, then adds
/// (`mul_ps` and `add_ps`, never a fused multiply-add), so every product
/// is rounded to f32 before its add, as in the scalar kernel.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_tier {
    ($(#[$doc:meta])* $tier:ident, $matmul:ident, $conv:ident, $feature:literal, $mr:expr, $lanes:expr,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident) => {
        $(#[$doc])*
        struct $tier;

        impl Block for $tier {
            const MR: usize = $mr;
            const LANES: usize = $lanes;

            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn block<R: RowStarts>(a: &[f32], b: BPanel<'_, R>, out: &mut [f32], ldo: usize) {
                use std::arch::x86_64::*;
                const MR: usize = $mr;
                const NR: usize = 2 * $lanes;
                let k = a.len() / MR;
                assert!(a.len() == MR * k, "block A is MR x K");
                let reach = b.rows.max_start(k) + b.halves[0].max(b.halves[1]) + $lanes;
                assert!(k == 0 || reach <= b.b.len(), "block B rows lie inside b");
                assert!(ldo >= NR && out.len() >= (MR - 1) * ldo + NR, "block output holds MR rows of NR");
                let (ap, bp, op) = (a.as_ptr(), b.b.as_ptr(), out.as_mut_ptr());
                // SAFETY: the asserts above bound every offset: `r*k + kk
                // < MR*k = a.len()`, `start(kk) + halves[h] + $lanes <=
                // reach <= b.len()` (`RowStarts`' contract) and `r*ldo +
                // NR <= out.len()`; the loads and stores are unaligned,
                // and the caller guarantees the feature.
                unsafe {
                    let mut acc = [[$set1(0.0); 2]; MR];
                    for (r, row) in acc.iter_mut().enumerate() {
                        row[0] = $load(op.add(r * ldo));
                        row[1] = $load(op.add(r * ldo + $lanes));
                    }
                    for kk in 0..k {
                        let brow = bp.add(b.rows.start(kk));
                        let b0 = $load(brow.add(b.halves[0]));
                        let b1 = $load(brow.add(b.halves[1]));
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
            }
        }

        /// [`blocked`] with this tier's block.
        ///
        /// # Safety
        /// The host must support the target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
            // SAFETY: this function's own target feature is the block's.
            unsafe { blocked::<$tier>(a, b, out, m, k, n) }
        }

        /// [`conv_blocked`] with this tier's block.
        ///
        /// # Safety
        /// The host must support the target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $conv(
            w: &[f32],
            image: &[f32],
            g: &Conv2dGeometry,
            out: &mut [f32],
            m: usize,
            padded: &mut Vec<f32>,
        ) {
            // SAFETY: this function's own target feature is the block's.
            unsafe { conv_blocked::<$tier>(w, image, g, out, m, padded, false) }
        }
    };
}

#[cfg(target_arch = "x86_64")]
x86_tier!(
    /// The AVX2 tier's block: 6 rows of two 8-lane registers. Twelve
    /// accumulators, two B loads and one broadcast fill fifteen of the
    /// sixteen `ymm` registers.
    Avx2,
    blocked_avx2,
    conv_avx2,
    "avx2",
    6,
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
#[cfg(target_arch = "x86_64")]
x86_tier!(
    /// The AVX-512 tier's block: 6 rows of two 16-lane registers, the same
    /// register plan as AVX2 at twice the width.
    Avx512,
    blocked_avx512,
    conv_avx512,
    "avx512f",
    6,
    16,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_set1_ps,
    _mm512_mul_ps,
    _mm512_add_ps
);

/// The drivers' per-thread buffers: the zero-padded last partial row
/// block of A, one packed `k × NR` B panel, one `MR × NR` edge tile and
/// the conv driver's tap offsets. Kept per thread so a steady stream of
/// calls (a conv layer's images) allocates nothing.
#[derive(Default)]
struct PackBuffers {
    a_tail: Vec<f32>,
    packed: Vec<f32>,
    tile: Vec<f32>,
    taps: Vec<usize>,
}

impl PackBuffers {
    /// Sizes the buffers for an `m × k` A against `T`'s block.
    #[inline(always)]
    fn prepare<T: Block>(&mut self, a: &[f32], m: usize, k: usize) {
        self.a_tail.clear();
        self.a_tail.extend_from_slice(&a[(m - m % T::MR) * k..]);
        self.a_tail.resize(T::MR * k, 0.0);
        self.packed.clear();
        self.packed.resize(k * T::NR, 0.0);
        self.tile.resize(T::MR * T::NR, 0.0);
    }
}

thread_local! {
    static PACK_BUFFERS: std::cell::RefCell<PackBuffers> = const {
        std::cell::RefCell::new(PackBuffers {
            a_tail: Vec::new(),
            packed: Vec::new(),
            tile: Vec::new(),
            taps: Vec::new(),
        })
    };
}

/// The A operand of a driver: `m` rows of `k`, and its last partial
/// `MR`-row block zero-padded to `MR` rows.
struct Lhs<'a> {
    a: &'a [f32],
    tail: &'a [f32],
    m: usize,
    k: usize,
}

/// Whether every value is finite: a branch-free fold, so it vectorizes.
#[inline(always)]
fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Output columns `cols` of every row: `T`'s block over `MR` rows at a
/// time; an edge tile (fewer than `MR` rows or `NR` columns) runs on a
/// copy in `tile`, whose extra rows and columns are discarded.
///
/// # Safety
/// The host must support `T`'s target feature.
#[inline(always)]
unsafe fn panel<T: Block, R: RowStarts>(
    lhs: &Lhs<'_>,
    tile: &mut [f32],
    out: &mut [f32],
    n: usize,
    cols: Range<usize>,
    b: BPanel<'_, R>,
) {
    let (mr, nr, k, width) = (T::MR, T::NR, lhs.k, cols.len());
    for i in (0..lhs.m).step_by(mr) {
        let height = mr.min(lhs.m - i);
        let a_rows = if height == mr { &lhs.a[i * k..(i + mr) * k] } else { lhs.tail };
        let out = &mut out[i * n + cols.start..];
        // SAFETY (both calls): the caller guarantees the feature.
        if height == mr && width == nr {
            unsafe { T::block(a_rows, b, out, n) };
        } else {
            for (dst, src) in tile.chunks_exact_mut(nr).zip(out.chunks(n)).take(height) {
                dst[..width].copy_from_slice(&src[..width]);
            }
            unsafe { T::block(a_rows, b, tile, nr) };
            for (src, dst) in tile.chunks_exact(nr).zip(out.chunks_mut(n)).take(height) {
                dst[..width].copy_from_slice(&src[..width]);
            }
        }
    }
}

/// The register-blocked GEMM driver. Columns are walked in `NR`-wide
/// panels; each B panel is first packed into a contiguous `k × NR`
/// buffer (the rows of a strided panel of a wide B map to the same few
/// L1 sets), then the block computes the panel `MR` output rows at a
/// time, so each packed B row is loaded once per `MR` rows. Inlined into
/// each tier, so it compiles at that tier's instruction set.
///
/// # Safety
/// The host must support `T`'s target feature.
#[inline(always)]
unsafe fn blocked<T: Block>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    // Taken out of the thread-local and put back, not borrowed through
    // `with`: a closure passed to `with` would compile outside the
    // tier's target feature.
    let mut bufs = PACK_BUFFERS.take();
    bufs.prepare::<T>(a, m, k);
    let lhs = Lhs { a, tail: &bufs.a_tail, m, k };
    for j in (0..n).step_by(T::NR) {
        let cols = j..n.min(j + T::NR);
        for (dst, src) in bufs.packed.chunks_exact_mut(T::NR).zip(b.chunks_exact(n)) {
            dst[..cols.len()].copy_from_slice(&src[cols.clone()]);
        }
        // The blocked sum equals the zero-skipping one unless this
        // panel of B holds a non-finite value (see `matmul_into`);
        // such a panel runs on the scalar kernel.
        if !all_finite(&bufs.packed) {
            scalar(a, &b[j..], n, out, k, n, cols);
            continue;
        }
        let panel_b = BPanel { b: &bufs.packed, rows: Packed(T::NR), halves: [0, T::LANES] };
        // SAFETY: the caller guarantees the feature.
        unsafe { panel::<T, _>(&lhs, &mut bufs.tile, out, n, cols, panel_b) };
    }
    PACK_BUFFERS.set(bufs);
}

/// [`crate::conv::conv2d_into`]'s driver: the GEMM of [`blocked`] with
/// B the image's patch matrix, read from a zero-padded copy of the image
/// instead of a lowered one. Patch row `kk` (tap `(c, kh, kw)`) is the
/// padded image shifted by `off[kk] = c·Hp·Wp + kh·Wp + kw`: column `p =
/// oy·ow + ox` of it sits at `off[kk] + oy·stride·Wp + ox·stride`. At
/// stride 1, a panel whose two register halves each lie in one output
/// row is read in place (each half of row `kk` is `LANES` consecutive
/// pixels); every other panel is packed from the padded image and runs
/// on the same block. A padded image that is all finite needs no
/// per-panel check; otherwise every panel is packed and checked, and a
/// non-finite one runs on the scalar kernel, as in [`blocked`]. With
/// `zero_skip`, every panel runs on the scalar kernel.
///
/// # Safety
/// The host must support `T`'s target feature.
#[inline(always)]
unsafe fn conv_blocked<T: Block>(
    w: &[f32],
    image: &[f32],
    g: &Conv2dGeometry,
    out: &mut [f32],
    m: usize,
    padded: &mut Vec<f32>,
    zero_skip: bool,
) {
    let (k, n, ow) = (g.patch_len(), g.n_patches(), g.out_w());
    let (hp, wp) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
    pad_image(image, g, padded);
    let finite = !zero_skip && all_finite(padded);
    let mut bufs = PACK_BUFFERS.take();
    bufs.prepare::<T>(w, m, k);
    bufs.taps.clear();
    for c in 0..g.in_channels {
        for kh in 0..g.k_h {
            bufs.taps.extend((0..g.k_w).map(|kw| c * hp * wp + kh * wp + kw));
        }
    }
    let taps = Taps { off: &bufs.taps, max: bufs.taps.iter().copied().max().unwrap_or(0) };
    let lhs = Lhs { a: w, tail: &bufs.a_tail, m, k };
    for j in (0..n).step_by(T::NR) {
        let cols = j..n.min(j + T::NR);
        let halves = [j, j + T::LANES].map(|p| (p / ow, p % ow));
        if finite && g.stride == 1 && cols.len() == T::NR && halves.iter().all(|&(_, ox)| ox + T::LANES <= ow) {
            let panel_b = BPanel { b: padded, rows: taps, halves: halves.map(|(oy, ox)| oy * wp + ox) };
            // SAFETY: the caller guarantees the feature.
            unsafe { panel::<T, _>(&lhs, &mut bufs.tile, out, n, cols, panel_b) };
            continue;
        }
        pack_panel(&mut bufs.packed, padded, &bufs.taps, g, T::NR, cols.clone());
        if !finite && (zero_skip || !all_finite(&bufs.packed)) {
            scalar(w, &bufs.packed, T::NR, out, k, n, cols);
            continue;
        }
        let panel_b = BPanel { b: &bufs.packed, rows: Packed(T::NR), halves: [0, T::LANES] };
        // SAFETY: the caller guarantees the feature.
        unsafe { panel::<T, _>(&lhs, &mut bufs.tile, out, n, cols, panel_b) };
    }
    PACK_BUFFERS.set(bufs);
}

/// Copies a CHW image into `padded`, resized to `C·Hp·Wp` with a zero
/// border `g.pad` wide on every side.
#[inline(always)]
fn pad_image(image: &[f32], g: &Conv2dGeometry, padded: &mut Vec<f32>) {
    let (hp, wp) = (g.in_h + 2 * g.pad, g.in_w + 2 * g.pad);
    padded.clear();
    padded.resize(g.in_channels * hp * wp, 0.0);
    if g.in_h * g.in_w == 0 {
        return;
    }
    for (dst, src) in padded.chunks_exact_mut(hp * wp).zip(image.chunks_exact(g.in_h * g.in_w)) {
        for (drow, srow) in dst[g.pad * wp..].chunks_exact_mut(wp).zip(src.chunks_exact(g.in_w)) {
            drow[g.pad..g.pad + g.in_w].copy_from_slice(srow);
        }
    }
}

/// The widest panel [`pack_panel`] cuts into runs: the AVX-512 `NR`.
const MAX_NR: usize = 32;

/// Packs patch-matrix columns `cols` into `packed` (row `kk` at `kk *
/// nr`), reading row `kk` from the padded image at `taps[kk]`. The
/// columns are cut into runs that stay in one output row, and each run
/// is one copy (a strided gather above stride 1).
#[inline(always)]
fn pack_panel(
    packed: &mut [f32],
    padded: &[f32],
    taps: &[usize],
    g: &Conv2dGeometry,
    nr: usize,
    cols: Range<usize>,
) {
    let (ow, s, wp) = (g.out_w(), g.stride, g.in_w + 2 * g.pad);
    assert!(nr <= MAX_NR, "a panel is at most {MAX_NR} columns");
    let mut runs = [(0usize, 0usize); MAX_NR];
    let mut count = 0;
    let mut p = cols.start;
    while p < cols.end {
        let (oy, ox) = (p / ow, p % ow);
        let len = (ow - ox).min(cols.end - p);
        runs[count] = (oy * s * wp + ox * s, len);
        count += 1;
        p += len;
    }
    let runs = &runs[..count];
    // Whole output rows of 4 or 8 pixels (`ow` divides `nr`, so every run
    // is one row): fixed-length copies are plain vector moves, where a
    // variable length calls `memcpy` per run.
    if s == 1 && cols.len() == nr && nr.is_multiple_of(ow) {
        match ow {
            4 => return copy_runs::<4>(packed, padded, taps, runs, nr),
            8 => return copy_runs::<8>(packed, padded, taps, runs, nr),
            _ => {}
        }
    }
    for (dst, &off) in packed.chunks_exact_mut(nr).zip(taps) {
        let mut d = 0;
        for &(src, len) in runs {
            let dst = &mut dst[d..d + len];
            let src = &padded[off + src..=off + src + (len - 1) * s];
            if s == 1 {
                dst.copy_from_slice(src);
            } else {
                for (x, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                    *x = v;
                }
            }
            d += len;
        }
    }
}

/// [`pack_panel`]'s fixed-length case: every run is `L` long at stride 1.
#[inline(always)]
fn copy_runs<const L: usize>(
    packed: &mut [f32],
    padded: &[f32],
    taps: &[usize],
    runs: &[(usize, usize)],
    nr: usize,
) {
    for (dst, &off) in packed.chunks_exact_mut(nr).zip(taps) {
        for (dst, &(src, _)) in dst.chunks_exact_mut(L).zip(runs) {
            dst.copy_from_slice(&padded[off + src..off + src + L]);
        }
    }
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
