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
//! [`matmul_transb_into`] runs the same three builds over a different
//! block: one output cell per vector lane. It packs a K-major panel of
//! `NR` B rows (B row `j` is output column `j`), and each vector holds
//! the running sums of that many cells of one output row, added in the
//! scalar row kernel's order. [`Tensor::matmul_transa`] keeps a row
//! kernel with a rayon `par_chunks_mut` outer loop over output rows,
//! which keeps the parallel version bit-identical to the sequential one
//! (each output row is written by exactly one task).

use crate::conv::Conv2dGeometry;
use crate::shape::Shape;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Size below which [`Tensor::matmul_transa`] stays sequential: tiny
/// weight gradients are not worth the fork/join overhead.
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

/// The kernels behind [`matmul_into`] and [`matmul_transb_into`]: a
/// scalar row kernel and the register-blocked kernel compiled for three
/// instruction sets. Every tier computes the same bits (see
/// [`matmul_into`] and [`matmul_transb_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One output row at a time (for [`matmul_into`], skipping zero A
    /// elements): the reference the blocked tiers are tested against,
    /// and the kernel for operands the blocked tiers cannot reproduce bit
    /// for bit.
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
            // The AVX-512 tier's `matmul_transb` pack runs AVX2 code.
            Tier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f") && std::arch::is_x86_feature_detected!("avx2")
            }
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
        const MR: usize = <Portable as Block>::MR;
        const L: usize = <Portable as Block>::LANES;
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

/// A tier's block for [`matmul_transb_into`]: `rows` output rows (`MR`,
/// or one for the rows left over) of `NR` cells, one cell per vector
/// lane, against a K-major panel of `NR` B rows (row `kk` at `kk * NR`).
trait Dots {
    /// Rows per full block.
    const MR: usize;
    /// Cells per block row: the B rows in a panel.
    const NR: usize;

    /// `out[r * ldo + c] += dot(a row r, panel column c)` for `rows`
    /// rows of `a` (each `k = a.len() / rows` long), each cell's sum
    /// formed as [`dots_scalar`] forms it: per 4-chunk
    /// `acc += ((a0·b0 + a1·b1) + a2·b2) + a3·b3` from `acc = +0.0`, then
    /// one `acc += a·b` per remainder term, then `out += acc`; every
    /// product is rounded before its add.
    ///
    /// # Safety
    /// The host must support the tier's target feature.
    unsafe fn dots(rows: usize, a: &[f32], panel: &[f32], out: &mut [f32], ldo: usize);

    /// [`pack_kmajor`] into a panel `NR` wide: the copy every call makes
    /// of all of B, so the x86 tiers transpose 8×8 blocks in registers.
    ///
    /// # Safety
    /// The host must support the tier's target feature.
    #[inline(always)]
    unsafe fn pack(packed: &mut [f32], rows: &[f32], k: usize) {
        pack_kmajor(packed, rows, k, Self::NR);
    }
}

impl Dots for Portable {
    const MR: usize = 2;
    const NR: usize = 16;

    /// In safe code, over fixed-size lane arrays the optimizer keeps in
    /// vector registers.
    #[inline(never)]
    unsafe fn dots(rows: usize, a: &[f32], panel: &[f32], out: &mut [f32], ldo: usize) {
        match rows {
            2 => portable_dots::<2>(a, panel, out, ldo),
            1 => portable_dots::<1>(a, panel, out, ldo),
            _ => unreachable!("a dots block is MR rows or one"),
        }
    }
}

/// [`Portable`]'s [`Dots`] body over `R` rows.
#[inline(always)]
fn portable_dots<const R: usize>(a: &[f32], panel: &[f32], out: &mut [f32], ldo: usize) {
    const NR: usize = <Portable as Dots>::NR;
    let k = a.len() / R;
    let brow = |kk: usize| -> &[f32; NR] { panel[kk * NR..][..NR].try_into().expect("a panel row holds NR cells") };
    let mut acc = [[0.0f32; NR]; R];
    let mut kk = 0;
    while kk + 4 <= k {
        let mut sum = [[0.0f32; NR]; R];
        for (r, row) in sum.iter_mut().enumerate() {
            let (av, b) = (a[r * k + kk], brow(kk));
            for l in 0..NR {
                row[l] = av * b[l];
            }
        }
        for q in 1..4 {
            let b = brow(kk + q);
            for (r, row) in sum.iter_mut().enumerate() {
                let av = a[r * k + kk + q];
                for l in 0..NR {
                    row[l] += av * b[l];
                }
            }
        }
        for (acc, sum) in acc.iter_mut().zip(&sum) {
            for l in 0..NR {
                acc[l] += sum[l];
            }
        }
        kk += 4;
    }
    for kk in kk..k {
        let b = brow(kk);
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = a[r * k + kk];
            for l in 0..NR {
                acc[l] += av * b[l];
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (o, &v) in out[r * ldo..r * ldo + NR].iter_mut().zip(acc) {
            *o += v;
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
    ($(#[$doc:meta])* $tier:ident, $matmul:ident, $conv:ident, $transb:ident, $feature:literal, $mr:expr,
     $lanes:expr, $dots_mr:expr, $dots_vecs:expr, $load:ident, $store:ident, $set1:ident, $mul:ident,
     $add:ident) => {
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

        impl Dots for $tier {
            const MR: usize = $dots_mr;
            const NR: usize = $dots_vecs * $lanes;

            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn dots(rows: usize, a: &[f32], panel: &[f32], out: &mut [f32], ldo: usize) {
                // SAFETY (both calls): the caller guarantees the feature.
                match rows {
                    $dots_mr => unsafe { $tier::dot_rows::<$dots_mr>(a, panel, out, ldo) },
                    1 => unsafe { $tier::dot_rows::<1>(a, panel, out, ldo) },
                    _ => unreachable!("a dots block is MR rows or one"),
                }
            }

            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn pack(packed: &mut [f32], rows: &[f32], k: usize) {
                // SAFETY: the caller guarantees the feature; both x86
                // tiers are available only on hosts with AVX2
                // (`Tier::available`).
                unsafe { pack_kmajor_avx2(packed, rows, k, <Self as Dots>::NR) }
            }
        }

        impl $tier {
            /// [`Dots::dots`] over `R` rows: `R` rows of `$dots_vecs`
            /// accumulators and as many 4-chunk sums, each step a
            /// multiply, then an add (never fused).
            ///
            /// # Safety
            /// The host must support the target feature.
            #[target_feature(enable = $feature)]
            #[inline]
            unsafe fn dot_rows<const R: usize>(a: &[f32], panel: &[f32], out: &mut [f32], ldo: usize) {
                use std::arch::x86_64::*;
                const V: usize = $dots_vecs;
                const L: usize = $lanes;
                const NR: usize = V * L;
                let k = a.len() / R;
                assert!(a.len() == R * k, "dots A is R x K");
                assert!(panel.len() >= k * NR, "the panel holds K rows of NR");
                assert!(ldo >= NR && out.len() >= (R - 1) * ldo + NR, "dots output holds R rows of NR");
                let (ap, bp, op) = (a.as_ptr(), panel.as_ptr(), out.as_mut_ptr());
                // SAFETY: the asserts above bound every offset: `r*k + kk
                // < R*k = a.len()`, `kk*NR + v*L + L <= k*NR <=
                // panel.len()` and `r*ldo + NR <= out.len()`; the loads
                // and stores are unaligned, and the caller guarantees the
                // feature.
                unsafe {
                    let mut acc = [[$set1(0.0); V]; R];
                    let mut kk = 0;
                    while kk + 4 <= k {
                        let mut sum = [[$set1(0.0); V]; R];
                        for q in 0..4 {
                            let mut b = [$set1(0.0); V];
                            for (v, bv) in b.iter_mut().enumerate() {
                                *bv = $load(bp.add((kk + q) * NR + v * L));
                            }
                            for (r, row) in sum.iter_mut().enumerate() {
                                let av = $set1(*ap.add(r * k + kk + q));
                                for (s, &bv) in row.iter_mut().zip(&b) {
                                    let p = $mul(av, bv);
                                    *s = if q == 0 { p } else { $add(*s, p) };
                                }
                            }
                        }
                        for (acc, sum) in acc.iter_mut().zip(&sum) {
                            for (a, &s) in acc.iter_mut().zip(sum) {
                                *a = $add(*a, s);
                            }
                        }
                        kk += 4;
                    }
                    for kk in kk..k {
                        for (r, acc) in acc.iter_mut().enumerate() {
                            let av = $set1(*ap.add(r * k + kk));
                            for (v, a) in acc.iter_mut().enumerate() {
                                *a = $add(*a, $mul(av, $load(bp.add(kk * NR + v * L))));
                            }
                        }
                    }
                    for (r, acc) in acc.iter().enumerate() {
                        for (v, &a) in acc.iter().enumerate() {
                            let o = op.add(r * ldo + v * L);
                            $store(o, $add($load(o), a));
                        }
                    }
                }
            }
        }

        /// [`transb_blocked`] with this tier's block.
        ///
        /// # Safety
        /// The host must support the target feature.
        #[target_feature(enable = $feature)]
        unsafe fn $transb(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
            // SAFETY: this function's own target feature is the block's.
            unsafe { transb_blocked::<$tier>(a, b, out, m, k, n) }
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
    /// sixteen `ymm` registers. Its dots block is 3 rows of 16 cells:
    /// six accumulators, six chunk sums, two B loads and a broadcast.
    Avx2,
    blocked_avx2,
    conv_avx2,
    transb_avx2,
    "avx2",
    6,
    8,
    3,
    2,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
#[cfg(target_arch = "x86_64")]
x86_tier!(
    /// The AVX-512 tier's block: 6 rows of two 16-lane registers, the same
    /// register plan as AVX2 at twice the width. Its dots block is 8 rows
    /// of 16 cells: eight accumulators, eight chunk sums, a B load and a
    /// broadcast, 18 of the 32 `zmm` registers.
    Avx512,
    blocked_avx512,
    conv_avx512,
    transb_avx512,
    "avx512f",
    6,
    16,
    8,
    1,
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
///
/// Cell `(i, j)` is the dot of A row `i` and B row `j`, summed as the
/// scalar row kernel does: from `acc = +0.0`, per 4-chunk
/// `acc += ((a0·b0 + a1·b1) + a2·b2) + a3·b3`, then one `acc += a·b` per
/// remainder term, then `out += acc`, every product rounded before its
/// add. The blocked tiers run each cell in its own vector lane through
/// those same operations, so a lane gets the scalar bits. Only a NaN
/// operand can tell the kernels apart: every NaN the arithmetic makes
/// from non-NaN operands (`inf - inf`, `0 · inf`) is the one default
/// NaN, but when a NaN of another payload meets it, which of the two a
/// sum keeps depends on operand order, which the compiler may commute.
/// So a call with a NaN in A or `out`, and a panel with a NaN in its B
/// rows, run on the scalar kernel, and every call returns the scalar
/// kernel's bits on every tier.
///
/// The tier is the widest one [`Tier::detect`] finds; the call runs on
/// the calling thread, and its panel buffer is reused per thread.
pub fn matmul_transb_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_transb_into_with(Tier::detect(), a, b, out, m, k, n);
}

/// [`matmul_transb_into`] with the tier forced: the seam benches and the
/// bit-equality tests use to race the tiers on identical operands.
///
/// # Panics
/// If the shapes disagree with the slice lengths, or this host cannot
/// execute `tier`.
pub fn matmul_transb_into_with(tier: Tier, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(out.len(), m * n);
    assert!(tier.available(), "matmul tier {} is not supported on this host", tier.name());
    match tier {
        Tier::Scalar => dots_scalar(a, b, out, k, n, 0..n),
        // SAFETY: the portable block needs no target feature.
        Tier::Portable => unsafe { transb_blocked::<Portable>(a, b, out, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX2.
        Tier::Avx2 => unsafe { transb_avx2(a, b, out, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX512F.
        Tier::Avx512 => unsafe { transb_avx512(a, b, out, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 | Tier::Avx512 => unreachable!("unavailable tiers were rejected above"),
    }
}

/// The scalar row kernel of [`matmul_transb_into`] over output columns
/// `cols`: one dot product per cell, A row against B row.
fn dots_scalar(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, cols: Range<usize>) {
    for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        for j in cols.clone() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            let mut ac = arow.chunks_exact(4);
            let mut bc = brow.chunks_exact(4);
            for (ca, cb) in (&mut ac).zip(&mut bc) {
                acc += ca[0] * cb[0] + ca[1] * cb[1] + ca[2] * cb[2] + ca[3] * cb[3];
            }
            for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
                acc += x * y;
            }
            orow[j] += acc;
        }
    }
}

/// Whether any value is NaN: a branch-free fold, so it vectorizes.
#[inline(always)]
fn any_nan(v: &[f32]) -> bool {
    v.iter().fold(false, |nan, x| nan | x.is_nan())
}

/// [`matmul_transb_into`]'s driver. B rows are walked in `NR`-row panels;
/// each is packed K-major (`packed[kk * NR + c] = b[j + c][kk]`, zero
/// lanes past the last B row), then the block computes the panel's cells
/// `MR` output rows at a time and the rows left over one at a time, so
/// each packed B row is loaded once per `MR` rows. A partial panel runs
/// on a copy in `tile`. Inlined into each tier, so it compiles at that
/// tier's instruction set.
///
/// # Safety
/// The host must support `T`'s target feature.
#[inline(always)]
unsafe fn transb_blocked<T: Dots>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if any_nan(a) || any_nan(out) {
        dots_scalar(a, b, out, k, n, 0..n);
        return;
    }
    // Taken out of the thread-local and put back, as in `blocked`.
    let mut bufs = PACK_BUFFERS.take();
    bufs.packed.clear();
    bufs.packed.resize(k * T::NR, 0.0);
    bufs.tile.resize(T::MR * T::NR, 0.0);
    for j in (0..n).step_by(T::NR) {
        let cols = j..n.min(j + T::NR);
        let width = cols.len();
        // SAFETY: the caller guarantees the feature.
        unsafe { T::pack(&mut bufs.packed, &b[j * k..cols.end * k], k) };
        if any_nan(&bufs.packed) {
            dots_scalar(a, b, out, k, n, cols);
            continue;
        }
        let mut i = 0;
        while i < m {
            let rows = if m - i >= T::MR { T::MR } else { 1 };
            let a_rows = &a[i * k..(i + rows) * k];
            let out = &mut out[i * n + j..];
            // SAFETY (both calls): the caller guarantees the feature.
            if width == T::NR {
                unsafe { T::dots(rows, a_rows, &bufs.packed, out, n) };
            } else {
                let tile = &mut bufs.tile[..rows * T::NR];
                for (dst, src) in tile.chunks_exact_mut(T::NR).zip(out.chunks(n)) {
                    dst[..width].copy_from_slice(&src[..width]);
                }
                unsafe { T::dots(rows, a_rows, &bufs.packed, tile, T::NR) };
                for (src, dst) in tile.chunks_exact(T::NR).zip(out.chunks_mut(n)) {
                    dst[..width].copy_from_slice(&src[..width]);
                }
            }
            i += rows;
        }
    }
    PACK_BUFFERS.set(bufs);
}

/// Packs `rows` (`width ≤ nr` rows of `k`) K-major into `packed` (`k ×
/// nr`): `packed[kk * nr + c] = rows[c * k + kk]`, and zero in lanes
/// `width..nr`.
#[inline(always)]
fn pack_kmajor(packed: &mut [f32], rows: &[f32], k: usize, nr: usize) {
    if k == 0 {
        return;
    }
    for (c, row) in rows.chunks_exact(k).enumerate() {
        for (dst, &v) in packed.chunks_exact_mut(nr).zip(row) {
            dst[c] = v;
        }
    }
    let width = rows.len() / k;
    if width < nr {
        for dst in packed.chunks_exact_mut(nr) {
            dst[width..].fill(0.0);
        }
    }
}


/// [`pack_kmajor`] for the x86 tiers: each `8 × 8` block of whole
/// groups of eight B rows is transposed in `ymm` registers (eight loads,
/// 24 shuffles, eight stores per 64 values); the K remainder of those
/// rows, and the rows past the last group, are copied one value at a
/// time.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pack_kmajor_avx2(packed: &mut [f32], rows: &[f32], k: usize, nr: usize) {
    use std::arch::x86_64::*;
    if k == 0 {
        return;
    }
    let width = rows.len() / k;
    let (k8, w8) = (k - k % 8, width - width % 8);
    assert!(width <= nr && packed.len() >= k * nr, "the panel holds K rows of NR");
    let (src, dst) = (rows.as_ptr(), packed.as_mut_ptr());
    for c0 in (0..w8).step_by(8) {
        for kk in (0..k8).step_by(8) {
            // SAFETY: rows `c0..c0 + 8 <= width` of `rows` hold `k` values
            // each and `kk + 8 <= k8 <= k`, so every load reads `rows`;
            // row `kk + i` of the panel holds `nr >= c0 + 8` values, so
            // every store lands in `packed` (asserted above). Loads and
            // stores are unaligned.
            unsafe {
                let r: [__m256; 8] = std::array::from_fn(|i| _mm256_loadu_ps(src.add((c0 + i) * k + kk)));
                let t0 = _mm256_unpacklo_ps(r[0], r[1]);
                let t1 = _mm256_unpackhi_ps(r[0], r[1]);
                let t2 = _mm256_unpacklo_ps(r[2], r[3]);
                let t3 = _mm256_unpackhi_ps(r[2], r[3]);
                let t4 = _mm256_unpacklo_ps(r[4], r[5]);
                let t5 = _mm256_unpackhi_ps(r[4], r[5]);
                let t6 = _mm256_unpacklo_ps(r[6], r[7]);
                let t7 = _mm256_unpackhi_ps(r[6], r[7]);
                let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
                let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
                let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
                let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
                let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
                let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
                let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
                let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
                let cols = [
                    _mm256_permute2f128_ps::<0x20>(u0, u4),
                    _mm256_permute2f128_ps::<0x20>(u1, u5),
                    _mm256_permute2f128_ps::<0x20>(u2, u6),
                    _mm256_permute2f128_ps::<0x20>(u3, u7),
                    _mm256_permute2f128_ps::<0x31>(u0, u4),
                    _mm256_permute2f128_ps::<0x31>(u1, u5),
                    _mm256_permute2f128_ps::<0x31>(u2, u6),
                    _mm256_permute2f128_ps::<0x31>(u3, u7),
                ];
                for (i, &col) in cols.iter().enumerate() {
                    _mm256_storeu_ps(dst.add((kk + i) * nr + c0), col);
                }
            }
        }
    }
    for (c, row) in rows.chunks_exact(k).enumerate() {
        let done = if c < w8 { k8 } else { 0 };
        for (kk, &v) in row.iter().enumerate().skip(done) {
            packed[kk * nr + c] = v;
        }
    }
    if width < nr {
        for dst in packed.chunks_exact_mut(nr) {
            dst[width..].fill(0.0);
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
