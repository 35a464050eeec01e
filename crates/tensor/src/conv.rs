//! Convolution lowering: im2col / col2im, and the im2col-free GEMM.
//!
//! Term Revealing operates on dot products, so the engine lowers every
//! convolution to a matrix multiply: the input is unrolled into a patch
//! matrix (`im2col`) and the kernel becomes a `(out_channels, C*kh*kw)`
//! weight matrix. The same lowering is reused by the quantized and
//! TR executors, which is what lets one TR kernel serve both `Linear` and
//! `Conv2d` layers. The float eval forward skips the patch matrix:
//! [`conv2d_into`] computes the same product, bit for bit, reading each
//! patch row from a zero-padded copy of the image.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Static geometry of a 2-D convolution (single image; batching is done by
/// the caller over the leading dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height after the convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Rows of the patch matrix: one per kernel element per channel.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Columns of the patch matrix: one per output spatial position.
    pub fn n_patches(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validate that the geometry is realizable.
    ///
    /// # Errors
    /// [`ConvGeometryError`] when the stride is zero or the kernel is
    /// larger than the padded input. `tr-core` converts this into its
    /// shared `TrError`, which is how the nn executors and the serve
    /// engine reject a bad geometry without panicking.
    pub fn try_check(&self) -> Result<(), ConvGeometryError> {
        if self.stride == 0 {
            return Err(ConvGeometryError("stride must be positive".to_string()));
        }
        if self.in_h + 2 * self.pad < self.k_h || self.in_w + 2 * self.pad < self.k_w {
            return Err(ConvGeometryError(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.k_h,
                self.k_w,
                self.in_h + 2 * self.pad,
                self.in_w + 2 * self.pad
            )));
        }
        Ok(())
    }

    /// Panicking wrapper over [`Conv2dGeometry::try_check`], kept for
    /// tests and internal callers that validated upstream.
    ///
    /// # Panics
    /// With the [`ConvGeometryError`] message when the geometry is
    /// invalid.
    pub fn check(&self) {
        if let Err(e) = self.try_check() {
            panic!("{e}");
        }
    }
}

/// An unrealizable [`Conv2dGeometry`] (zero stride, or a kernel larger
/// than the padded input).
///
/// `tr-tensor` sits below `tr-core` in the dependency graph, so it
/// cannot name the workspace's shared `TrError`; `tr-core` provides the
/// `From<ConvGeometryError> for TrError` conversion instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvGeometryError(pub String);

impl std::fmt::Display for ConvGeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid conv geometry: {}", self.0)
    }
}

impl std::error::Error for ConvGeometryError {}

/// Unroll one CHW image into a `(patch_len, n_patches)` matrix.
///
/// Column `p` holds the receptive field of output position `p` flattened
/// channel-major, so `weights (O, patch_len) @ cols (patch_len, n_patches)`
/// produces the `(O, out_h*out_w)` output feature map.
pub fn im2col(input: &[f32], g: &Conv2dGeometry) -> Tensor {
    let mut out = Vec::new();
    im2col_into(input, g, &mut out);
    Tensor::from_vec(out, Shape::d2(g.patch_len(), g.n_patches()))
}

/// Map a padded (possibly negative) input coordinate to an in-bounds
/// index: `Some(i)` iff `0 <= v < limit`.
#[inline]
fn in_bounds(v: isize, limit: usize) -> Option<usize> {
    usize::try_from(v).ok().filter(|&i| i < limit)
}

/// Output positions `lo..hi` (of `extent`) at which kernel tap `k`
/// reads a real pixel rather than padding: those with `o*stride + k`
/// inside the padded-coordinate band `[pad, limit + pad)`. The range is
/// empty (`lo == hi`) when the tap only ever meets padding.
#[must_use]
pub fn tap_span(extent: usize, limit: usize, stride: usize, k: usize, pad: usize) -> (usize, usize) {
    if k >= limit + pad {
        return (0, 0);
    }
    let lo = if k >= pad { 0 } else { (pad - k).div_ceil(stride) }.min(extent);
    let hi = ((limit + pad - 1 - k) / stride + 1).min(extent);
    (lo, hi.max(lo))
}

/// [`im2col`] into a caller-owned buffer, resized to `patch_len ×
/// n_patches`. Every slot (including padding zeros) is written, so a dirty
/// buffer reused across the images of a batch needs no clearing — this is
/// what lets the conv layers unroll a whole batch with one allocation.
/// Generic over the element so integer activation codes unroll the same
/// way (padding is `T::default()`, i.e. `0.0` or code 0).
///
/// Each patch row is one kernel tap `(c, kh, kw)`; its output rows that
/// read real pixels are a contiguous copy of an input row segment (a
/// strided gather when `stride > 1`), and the rest is padding.
pub fn im2col_into<T: Copy + Default>(input: &[T], g: &Conv2dGeometry, out: &mut Vec<T>) {
    g.check();
    assert_eq!(input.len(), g.in_channels * g.in_h * g.in_w, "input length mismatch");
    let (oh, ow) = (g.out_h(), g.out_w());
    let taps = g.k_h * g.k_w;
    out.resize(g.patch_len() * oh * ow, T::default());
    for (row, orow) in out.chunks_exact_mut(oh * ow).enumerate() {
        let (c, kh, kw) = (row / taps, row % taps / g.k_w, row % g.k_w);
        let chan = &input[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        let (oy_lo, oy_hi) = tap_span(oh, g.in_h, g.stride, kh, g.pad);
        let (ox_lo, ox_hi) = tap_span(ow, g.in_w, g.stride, kw, g.pad);
        orow[..oy_lo * ow].fill(T::default());
        orow[oy_hi * ow..].fill(T::default());
        for (oy, dst) in orow.chunks_exact_mut(ow).enumerate().take(oy_hi).skip(oy_lo) {
            dst[..ox_lo].fill(T::default());
            dst[ox_hi..].fill(T::default());
            if ox_lo == ox_hi {
                continue;
            }
            let iy = oy * g.stride + kh - g.pad;
            let src = &chan[iy * g.in_w + ox_lo * g.stride + kw - g.pad..(iy + 1) * g.in_w];
            let dst = &mut dst[ox_lo..ox_hi];
            if g.stride == 1 {
                dst.copy_from_slice(&src[..dst.len()]);
            } else {
                for (d, &s) in dst.iter_mut().zip(src.iter().step_by(g.stride)) {
                    *d = s;
                }
            }
        }
    }
}

/// `w (M, patch_len) @ im2col(image)` into `out (M, n_patches)`, with
/// the bits of [`im2col_into`] followed by
/// [`matmul_into`](crate::matmul::matmul_into), but without the patch
/// matrix. `out` must be zeroed by the caller, as for `matmul_into`.
///
/// The image is copied once into `padded` (resized to `C·(H+2p)·(W+2p)`,
/// zero-bordered), and the GEMM reads patch row `(c, kh, kw)` from it at
/// offset `c·Hp·Wp + kh·Wp + kw`: at stride 1 a register block loads its
/// B rows in place; other panels are packed from the padded image. Every
/// B value the GEMM meets is the value the patch matrix would hold, in
/// the same place, so the sums are the same (see `tr_tensor::matmul`).
/// `padded` may be dirty and is reused across calls; the other buffers
/// are per thread.
///
/// # Panics
/// If the geometry is invalid or the shapes disagree with the slice
/// lengths.
pub fn conv2d_into(
    w: &[f32],
    image: &[f32],
    g: &Conv2dGeometry,
    out: &mut [f32],
    m: usize,
    padded: &mut Vec<f32>,
) {
    crate::matmul::conv2d_into_with(crate::matmul::Tier::detect(), w, image, g, out, m, padded);
}

/// Scatter a `(patch_len, n_patches)` gradient matrix back onto a CHW
/// image, accumulating overlapping contributions (the adjoint of
/// [`im2col`]).
pub fn col2im(cols_mat: &Tensor, g: &Conv2dGeometry) -> Vec<f32> {
    g.check();
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    assert_eq!(cols_mat.shape().dims(), &[g.patch_len(), cols], "col matrix shape mismatch");
    let mut image = vec![0.0f32; g.in_channels * g.in_h * g.in_w];
    let data = cols_mat.data();
    let mut row = 0usize;
    for c in 0..g.in_channels {
        let chan = &mut image[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let crow = &data[row * cols..(row + 1) * cols];
                let mut p = 0usize;
                for oy in 0..oh {
                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        if let (Some(y), Some(x)) = (in_bounds(iy, g.in_h), in_bounds(ix, g.in_w)) {
                            chan[y * g.in_w + x] += crow[p];
                        }
                        p += 1;
                    }
                }
                row += 1;
            }
        }
    }
    image
}

/// Direct (no lowering) convolution used by tests as the ground truth for
/// the im2col path. One CHW image, `weights (O, C, kh, kw)` flattened.
pub fn conv2d_reference(
    input: &[f32],
    weights: &[f32],
    out_channels: usize,
    g: &Conv2dGeometry,
) -> Vec<f32> {
    g.check();
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = vec![0.0f32; out_channels * oh * ow];
    for o in 0..out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f64;
                for c in 0..g.in_channels {
                    for kh in 0..g.k_h {
                        for kw in 0..g.k_w {
                            let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            if let (Some(y), Some(x)) = (in_bounds(iy, g.in_h), in_bounds(ix, g.in_w)) {
                                let iv = input[c * g.in_h * g.in_w + y * g.in_w + x];
                                let wv = weights
                                    [((o * g.in_channels + c) * g.k_h + kh) * g.k_w + kw];
                                acc += (iv * wv) as f64;
                            }
                        }
                    }
                }
                // Accumulate in f64, deliver in f32: the narrowing is the
                // point (the reference matches the f32 kernels' contract).
                #[allow(clippy::cast_possible_truncation)]
                {
                    out[o * oh * ow + oy * ow + ox] = acc as f32;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Conv2dGeometry {
        Conv2dGeometry { in_channels: c, in_h: h, in_w: w, k_h: k, k_w: k, stride: s, pad: p }
    }

    #[test]
    fn output_dims() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = geom(3, 32, 32, 3, 2, 1);
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
    }

    #[test]
    fn im2col_matmul_matches_direct_conv() {
        let mut rng = Rng::seed_from_u64(10);
        for &(c, h, w, k, s, p, o) in
            &[(1, 5, 5, 3, 1, 0, 2), (3, 8, 8, 3, 1, 1, 4), (2, 7, 9, 3, 2, 1, 3), (4, 6, 6, 1, 1, 0, 5)]
        {
            let g = geom(c, h, w, k, s, p);
            let input = Tensor::randn(Shape::d3(c, h, w), 1.0, &mut rng);
            let weights = Tensor::randn(Shape::d2(o, g.patch_len()), 1.0, &mut rng);
            let cols = im2col(input.data(), &g);
            let lowered = weights.matmul(&cols);
            let direct = conv2d_reference(input.data(), weights.data(), o, &g);
            for (a, b) in lowered.data().iter().zip(&direct) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b} at ({c},{h},{w},{k},{s},{p},{o})");
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> characterizes the adjoint pair,
        // which is exactly what the conv backward pass relies on.
        let mut rng = Rng::seed_from_u64(11);
        let g = geom(2, 6, 6, 3, 1, 1);
        let x = Tensor::randn(Shape::d3(2, 6, 6), 1.0, &mut rng);
        let y = Tensor::randn(Shape::d2(g.patch_len(), g.n_patches()), 1.0, &mut rng);
        let lhs: f64 = im2col(x.data(), &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let back = col2im(&y, &g);
        let rhs: f64 = x.data().iter().zip(&back).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_into_overwrites_a_dirty_reused_buffer() {
        let mut rng = Rng::seed_from_u64(12);
        let g1 = geom(2, 6, 6, 3, 1, 1);
        let g2 = geom(1, 5, 5, 3, 2, 0);
        let x1 = Tensor::randn(Shape::d3(2, 6, 6), 1.0, &mut rng);
        let x2 = Tensor::randn(Shape::d3(1, 5, 5), 1.0, &mut rng);
        // Poison a shared buffer, then run two different geometries
        // through it; each result must match the allocating path exactly.
        let mut buf = vec![f32::NAN; 7];
        im2col_into(x1.data(), &g1, &mut buf);
        assert_eq!(buf, im2col(x1.data(), &g1).data());
        im2col_into(x2.data(), &g2, &mut buf);
        assert_eq!(buf, im2col(x2.data(), &g2).data());
    }

    /// The bit patterns of a slice, so `-0.0`, `+0.0` and every NaN
    /// payload compare as distinct values.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_tier_conv_matches_im2col_then_the_scalar_gemm() {
        use crate::matmul::{conv2d_into_with, matmul_into_with, Tier};
        // (in, out, h, w, kernel, stride, pad): the six VGG convs (at
        // W=8 an AVX-512 register half spans two output rows), stride 2,
        // 1x1 with and without stride, 5x5 at stride 3 and pad 2, and
        // channel counts and widths that leave ragged row blocks and
        // column panels, or runs that fit no fixed copy length; widths
        // 15 and 31 end an output row one lane short of a register half.
        let cases = [
            (3, 24, 32, 32, 3, 1, 1),
            (24, 24, 32, 32, 3, 1, 1),
            (24, 48, 16, 16, 3, 1, 1),
            (48, 48, 16, 16, 3, 1, 1),
            (48, 96, 8, 8, 3, 1, 1),
            (96, 96, 8, 8, 3, 1, 1),
            (16, 32, 32, 32, 3, 2, 1),
            (32, 64, 16, 16, 1, 2, 0),
            (16, 48, 32, 32, 1, 1, 0),
            (6, 9, 11, 10, 5, 3, 2),
            (5, 7, 9, 7, 3, 2, 1),
            (3, 13, 5, 6, 1, 1, 0),
            (2, 5, 3, 19, 3, 1, 1),
            (4, 11, 4, 4, 3, 1, 1),
            (3, 7, 6, 2, 3, 1, 1),
            (3, 5, 5, 15, 3, 1, 1),
            (3, 5, 4, 31, 3, 1, 1),
        ];
        let mut rng = Rng::seed_from_u64(25);
        // A normal draw or, a quarter of the time each, +0.0 or -0.0.
        let draw = |rng: &mut Rng| match rng.below(4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.normal(),
        };
        // One dirty buffer for every geometry, tier and variant.
        let mut padded = vec![f32::NAN; 3];
        for (c, o, h, w, k, stride, pad) in cases {
            let g = Conv2dGeometry { in_channels: c, in_h: h, in_w: w, k_h: k, k_w: k, stride, pad };
            let (kk, n) = (g.patch_len(), g.n_patches());
            let mut weights: Vec<f32> = (0..o * kk).map(|_| draw(&mut rng)).collect();
            // A zero row meets every pixel, inf and NaN included, only
            // through zero weights, so it stays +0.0.
            weights[(o / 2) * kk..(o / 2 + 1) * kk].fill(0.0);
            let clean: Vec<f32> = (0..c * h * w).map(|_| draw(&mut rng)).collect();
            let mut dirty = clean.clone();
            dirty[rng.below(c * h * w)] = f32::INFINITY;
            dirty[rng.below(c * h * w)] = f32::NAN;
            for image in [clean, dirty] {
                let mut cols = Vec::new();
                im2col_into(&image, &g, &mut cols);
                let mut expect = vec![0.0; o * n];
                matmul_into_with(Tier::Scalar, &weights, &cols, &mut expect, o, kk, n);
                for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                    let mut got = vec![0.0; o * n];
                    conv2d_into_with(tier, &weights, &image, &g, &mut got, o, &mut padded);
                    assert!(bits(&got) == bits(&expect), "tier {} differs at {g:?}, {o} outputs", tier.name());
                }
                let mut got = vec![0.0; o * n];
                conv2d_into(&weights, &image, &g, &mut got, o, &mut padded);
                assert!(bits(&got) == bits(&expect), "conv2d_into differs at {g:?}");
            }
        }
    }

    #[test]
    fn padding_produces_zero_border_patches() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&input, &g);
        // First column is the patch centered at (0,0); its top-left kernel
        // position falls entirely in padding.
        assert_eq!(cols.at(&[0, 0]), 0.0);
        // Center of that patch is input(0,0) = 1.0 at kernel row 1, col 1.
        assert_eq!(cols.at(&[4, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn rejects_impossible_geometry() {
        geom(1, 2, 2, 5, 1, 0).check();
    }

    #[test]
    fn try_check_reports_instead_of_panicking() {
        let big_kernel = geom(1, 2, 2, 5, 1, 0).try_check().unwrap_err();
        assert!(big_kernel.to_string().contains("larger than padded input"), "{big_kernel}");
        let zero_stride = geom(1, 4, 4, 3, 0, 1).try_check().unwrap_err();
        assert!(zero_stride.to_string().contains("stride"), "{zero_stride}");
        assert_eq!(geom(3, 32, 32, 3, 1, 1).try_check(), Ok(()));
        // Padding can rescue an otherwise-too-small input.
        assert_eq!(geom(1, 2, 2, 5, 1, 2).try_check(), Ok(()));
    }
}
