//! 2-D convolutions, lowered to matmul: through an owned im2col patch
//! matrix when training (the backward pass reuses it), and through
//! [`conv2d_into`], which reads the patches from a zero-padded copy of
//! the image, in eval.

use crate::fake_quant::FakeQuant;
use crate::layer::{ForwardCtx, Layer, QuantSite};
use crate::param::Param;
use tr_core::{PackedTermMatrix, TrError};
use tr_encoding::Encoding;
use tr_tensor::conv::tap_span;
use tr_tensor::matmul::matmul_into;
use tr_tensor::{col2im, conv2d_into, im2col, im2col_into, Conv2dGeometry, Rng, Shape, Tensor};

/// Standard convolution: input `(N, C, H, W)` → output `(N, O, H', W')`.
///
/// The kernel is stored as an `(O, C·kh·kw)` matrix, so each output
/// channel's weights form one dot-product row — the same layout
/// [`PackedTermMatrix::from_weights`] expects, which is how TR reaches
/// into convolutions unchanged.
pub struct Conv2d {
    out_channels: usize,
    geometry_proto: Conv2dGeometry,
    weight: Param,
    bias: Param,
    /// Quantization state for this layer's weight site.
    pub fq: FakeQuant,
    cached_cols: Vec<Tensor>,
    cached_geometry: Option<Conv2dGeometry>,
    /// Eval scratch, kept across images and batches so steady-state eval
    /// forwards allocate nothing per image: the transformed image, and
    /// the zero-padded copy `conv2d_into` reads its patches from. Both
    /// are rewritten in full per image.
    image: Vec<f32>,
    padded: Vec<f32>,
}

impl Conv2d {
    /// A `k×k` convolution. `in_h`/`in_w` of the geometry are filled at
    /// forward time from the actual input.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Conv2d {
        let patch = in_channels * kernel * kernel;
        let weight = Param::new(Tensor::kaiming(Shape::d2(out_channels, patch), patch, rng));
        let bias = Param::new_no_decay(Tensor::zeros(Shape::d1(out_channels)));
        Conv2d {
            out_channels,
            geometry_proto: Conv2dGeometry {
                in_channels,
                in_h: 0,
                in_w: 0,
                k_h: kernel,
                k_w: kernel,
                stride,
                pad,
            },
            weight,
            bias,
            fq: FakeQuant::default(),
            cached_cols: Vec::new(),
            cached_geometry: None,
            image: Vec::new(),
            padded: Vec::new(),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The `(O, C·kh·kw)` weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Resolve the forward geometry for a concrete input, rejecting rank,
    /// channel, and kernel-fit violations as [`TrError`]s.
    fn try_geometry_for(&self, x: &Tensor) -> Result<Conv2dGeometry, TrError> {
        if x.shape().rank() != 4 {
            return Err(TrError::ShapeMismatch(format!(
                "conv2d expects NCHW input, got rank {}",
                x.shape().rank()
            )));
        }
        if x.shape().dim(1) != self.geometry_proto.in_channels {
            return Err(TrError::ShapeMismatch(format!(
                "conv2d expects {} input channels, got {}",
                self.geometry_proto.in_channels,
                x.shape().dim(1)
            )));
        }
        let g =
            Conv2dGeometry { in_h: x.shape().dim(2), in_w: x.shape().dim(3), ..self.geometry_proto };
        g.try_check()?;
        Ok(g)
    }

    /// Count term pairs for a batch of `images` from the first one's
    /// capped activation codes (CHW, as the cap produced them), unrolled
    /// to the patch columns the weight rows meet in the matmul: that
    /// image's counts, `samples` included, times `images`.
    fn count_pairs(&mut self, image_codes: &[i32], g: &Conv2dGeometry, images: usize) {
        let enc = self.fq.act_cap.map_or(Encoding::Binary, |(e, _)| e);
        let mut cols = Vec::new();
        im2col_into(image_codes, g, &mut cols);
        // cols is (patch_len, n_patches): columns are the dot vectors.
        let (patch, np) = (g.patch_len(), g.n_patches());
        let cols = &cols;
        let dots: Vec<i32> = (0..np).flat_map(|n| (0..patch).map(move |k| cols[k * np + n])).collect();
        let dm = PackedTermMatrix::from_codes(&dots, np, patch, enc);
        if let Some(image) = self.fq.matmul_pair_counts(&dm, 1) {
            self.fq.pairs.merge(&image.times(images as u64));
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        match self.try_forward(x, ctx) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Result<Tensor, TrError> {
        let g = self.try_geometry_for(x)?;
        let (n, oh, ow) = (x.shape().dim(0), g.out_h(), g.out_w());
        let per_in = g.in_channels * g.in_h * g.in_w;
        // The transform runs image by image into one reused buffer, right
        // before that image's GEMM reads it: no batch-sized copy of the
        // input is made, and without an activation transform the input
        // is read in place.
        self.fq.observe(x);
        let passthrough = self.fq.input_passthrough();
        if !passthrough && self.fq.count_pairs && self.fq.weight_terms.is_some() && n > 0 {
            // Count pairs on the first image only (one representative
            // sample per batch keeps counting passes affordable), scaled
            // to the batch, so the site counts `n` samples as `Linear`
            // does.
            if let Some(codes) = self.fq.capped_codes(&x.data()[..per_in]) {
                self.count_pairs(&codes, &g, n);
            }
        }
        // Taken out of the layer for the loop, which also borrows `self`.
        let mut image = std::mem::take(&mut self.image);
        let mut padded = std::mem::take(&mut self.padded);
        // Borrowed, not cloned: the fields the loops below write are
        // disjoint from the quant site and the weight parameter.
        let w = self.fq.effective_weight(&self.weight.value);
        let mut out = Tensor::zeros(Shape::d4(n, self.out_channels, oh, ow));
        self.cached_cols.clear();
        let per_out = self.out_channels * oh * ow;
        for i in 0..n {
            let mut xq = &x.data()[i * per_in..(i + 1) * per_in];
            if !passthrough {
                self.fq.transform_slice_into(xq, &mut image);
                xq = &image;
            }
            let dst = &mut out.data_mut()[i * per_out..(i + 1) * per_out];
            // Both paths multiply straight into the output tensor, zeroed
            // above, and give the same bits.
            if ctx.train {
                // Training must keep an owned patch matrix per image for
                // the backward pass, so this path allocates it.
                let owned = im2col(xq, &g);
                matmul_into(w.data(), owned.data(), dst, self.out_channels, g.patch_len(), g.n_patches());
                self.cached_cols.push(owned);
            } else {
                // Eval builds no patch matrix: the GEMM reads the patches
                // from one layer-owned padded copy of the image.
                conv2d_into(w.data(), xq, &g, dst, self.out_channels, &mut padded);
            }
            for (c, chunk) in dst.chunks_mut(oh * ow).enumerate() {
                let b = self.bias.value.data()[c];
                for v in chunk {
                    *v += b;
                }
            }
        }
        if ctx.train {
            self.cached_geometry = Some(g);
        }
        self.padded = padded;
        self.image = image;
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.cached_geometry.take().expect("backward before forward");
        let n = grad_out.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let per_out = self.out_channels * oh * ow;
        let per_in = g.in_channels * g.in_h * g.in_w;
        let mut dx = Tensor::zeros(Shape::d4(n, g.in_channels, g.in_h, g.in_w));
        let cols_cache = std::mem::take(&mut self.cached_cols);
        assert_eq!(cols_cache.len(), n, "cache/batch mismatch");
        for (i, cols) in cols_cache.iter().enumerate() {
            let go = Tensor::from_vec(
                grad_out.data()[i * per_out..(i + 1) * per_out].to_vec(),
                Shape::d2(self.out_channels, oh * ow),
            );
            // dW += go @ cols^T
            let dw = go.matmul_transb(cols);
            self.weight.grad.axpy(1.0, &dw);
            // db += row sums of go
            for (c, bg) in self.bias.grad.data_mut().iter_mut().enumerate() {
                *bg += go.row(c).iter().sum::<f32>();
            }
            // dcols = W^T @ go, then scatter back to the image.
            let dcols = self.weight.value.matmul_transa(&go);
            let img = col2im(&dcols, &g);
            dx.data_mut()[i * per_in..(i + 1) * per_in].copy_from_slice(&img);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("weight", &mut self.weight);
        f("bias", &mut self.bias);
    }

    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>)) {
        f(QuantSite { name: "conv".to_string(), weight: &mut self.weight, fq: &mut self.fq });
    }

    fn name(&self) -> String {
        format!(
            "conv{}x{}k{}",
            self.out_channels, self.geometry_proto.in_channels, self.geometry_proto.k_h
        )
    }
}

/// Single-channel convolution applied directly to the input,
/// bit-identical to `im2col_into` + `matmul_into` over the same
/// geometry: each output element accumulates its taps in ascending
/// `kk` order, and zero-valued taps are skipped exactly as the scalar
/// kernel of `matmul_into` skips zero A-elements (its blocked tiers add
/// them, with the same bits as a result). Padding taps are elided
/// entirely — that is safe bitwise because the accumulator starts at
/// `+0.0` and IEEE-754 addition can never produce `-0.0` from a
/// `+0.0` starting point, so adding the column path's `wv * ±0.0`
/// never changes a bit. The surviving per-tap loop is a branch-free
/// contiguous sweep the compiler can vectorize, which is the entire
/// point of skipping the patch matrix.
fn dwconv_direct(w: &[f32], src: &[f32], dst: &mut [f32], g: &Conv2dGeometry) {
    let (oh, ow) = (g.out_h(), g.out_w());
    for (kk, &wv) in w.iter().enumerate() {
        if wv == 0.0 {
            continue;
        }
        let (ky, kx) = (kk / g.k_w, kk % g.k_w);
        let (oy_lo, oy_hi) = tap_span(oh, g.in_h, g.stride, ky, g.pad);
        let (ox_lo, ox_hi) = tap_span(ow, g.in_w, g.stride, kx, g.pad);
        if ox_lo >= ox_hi {
            continue;
        }
        let ix0 = ox_lo * g.stride + kx - g.pad;
        for oy in oy_lo..oy_hi {
            let iy = oy * g.stride + ky - g.pad;
            let srow = &src[iy * g.in_w..(iy + 1) * g.in_w];
            let drow = &mut dst[oy * ow + ox_lo..oy * ow + ox_hi];
            if g.stride == 1 {
                for (d, &s) in drow.iter_mut().zip(&srow[ix0..ix0 + (ox_hi - ox_lo)]) {
                    *d += wv * s;
                }
            } else {
                let mut ix = ix0;
                for d in drow.iter_mut() {
                    *d += wv * srow[ix];
                    ix += g.stride;
                }
            }
        }
    }
}

/// Depthwise convolution: each input channel is convolved with its own
/// `k×k` filter (the MobileNet/EfficientNet building block).
///
/// Weights are `(C, k·k)`; channel `c`'s filter is row `c`.
pub struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    /// Quantization state for this layer's weight site.
    pub fq: FakeQuant,
    cached_cols: Vec<Vec<Tensor>>,
    cached_geometry: Option<Conv2dGeometry>,
}

impl DepthwiseConv2d {
    /// A depthwise `k×k` convolution over `channels` channels.
    pub fn new(channels: usize, kernel: usize, stride: usize, pad: usize, rng: &mut Rng) -> Self {
        let patch = kernel * kernel;
        let weight = Param::new(Tensor::kaiming(Shape::d2(channels, patch), patch, rng));
        let bias = Param::new_no_decay(Tensor::zeros(Shape::d1(channels)));
        DepthwiseConv2d {
            channels,
            kernel,
            stride,
            pad,
            weight,
            bias,
            fq: FakeQuant::default(),
            cached_cols: Vec::new(),
            cached_geometry: None,
        }
    }

    fn chan_geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: h,
            in_w: w,
            k_h: self.kernel,
            k_w: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        match self.try_forward(x, ctx) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Result<Tensor, TrError> {
        if x.shape().rank() != 4 {
            return Err(TrError::ShapeMismatch(format!(
                "depthwise conv expects NCHW input, got rank {}",
                x.shape().rank()
            )));
        }
        if x.shape().dim(1) != self.channels {
            return Err(TrError::ShapeMismatch(format!(
                "depthwise conv expects {} channels, got {}",
                self.channels,
                x.shape().dim(1)
            )));
        }
        let (n, h, w) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
        let g = self.chan_geometry(h, w);
        g.try_check()?;
        let (oh, ow) = (g.out_h(), g.out_w());
        // Same borrow-don't-clone input handling as `Conv2d`.
        let xq_owned;
        let xq: &Tensor = if self.fq.input_passthrough() {
            x
        } else {
            xq_owned = self.fq.transform_input(x);
            &xq_owned
        };
        let mut out = Tensor::zeros(Shape::d4(n, self.channels, oh, ow));
        self.cached_cols.clear();
        let chan_in = h * w;
        let chan_out = oh * ow;
        let patch = g.patch_len();
        if ctx.train {
            let weight = self.fq.effective_weight(&self.weight.value).clone();
            // Training caches an owned patch matrix per (image, channel)
            // for the backward pass, so this path allocates as before.
            for i in 0..n {
                let mut per_image = Vec::new();
                for c in 0..self.channels {
                    let off = (i * self.channels + c) * chan_in;
                    let cols = im2col(&xq.data()[off..off + chan_in], &g);
                    let wrow = Tensor::from_vec(weight.row(c).to_vec(), Shape::d2(1, patch));
                    let y = wrow.matmul(&cols);
                    let dst_off = (i * self.channels + c) * chan_out;
                    let dst = &mut out.data_mut()[dst_off..dst_off + chan_out];
                    let b = self.bias.value.data()[c];
                    for (o, &v) in dst.iter_mut().zip(y.data()) {
                        *o = v + b;
                    }
                    per_image.push(cols);
                }
                self.cached_cols.push(per_image);
            }
            self.cached_geometry = Some(g);
        } else {
            // Eval needs no patch matrix at all: with one output row per
            // channel the im2col buffer would be written once and read
            // once, so the filter is applied directly to the (virtually
            // zero-padded) input — no per-channel allocation, no
            // weight-row copy, no weight-tensor clone, no patch traffic.
            let weight = self.fq.effective_weight(&self.weight.value);
            for i in 0..n {
                for c in 0..self.channels {
                    let off = (i * self.channels + c) * chan_in;
                    let src = &xq.data()[off..off + chan_in];
                    let dst_off = (i * self.channels + c) * chan_out;
                    let dst = &mut out.data_mut()[dst_off..dst_off + chan_out];
                    dwconv_direct(weight.row(c), src, dst, &g);
                    let b = self.bias.value.data()[c];
                    for v in dst.iter_mut() {
                        *v += b;
                    }
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.cached_geometry.take().expect("backward before forward");
        let n = grad_out.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let chan_out = oh * ow;
        let chan_in = g.in_h * g.in_w;
        let mut dx = Tensor::zeros(Shape::d4(n, self.channels, g.in_h, g.in_w));
        let cache = std::mem::take(&mut self.cached_cols);
        for (i, per_image) in cache.iter().enumerate() {
            for (c, cols) in per_image.iter().enumerate() {
                let off = (i * self.channels + c) * chan_out;
                let go =
                    Tensor::from_vec(grad_out.data()[off..off + chan_out].to_vec(), Shape::d2(1, chan_out));
                let dw = go.matmul_transb(cols);
                for (wg, &d) in self.weight.grad.row_mut(c).iter_mut().zip(dw.data()) {
                    *wg += d;
                }
                self.bias.grad.data_mut()[c] += go.data().iter().sum::<f32>();
                let wrow =
                    Tensor::from_vec(self.weight.value.row(c).to_vec(), Shape::d2(1, g.patch_len()));
                let dcols = wrow.matmul_transa(&go);
                let img = col2im(&dcols, &g);
                let dst = (i * self.channels + c) * chan_in;
                dx.data_mut()[dst..dst + chan_in].copy_from_slice(&img);
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("weight", &mut self.weight);
        f("bias", &mut self.bias);
    }

    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>)) {
        f(QuantSite { name: "dwconv".to_string(), weight: &mut self.weight, fq: &mut self.fq });
    }

    fn name(&self) -> String {
        format!("dwconv{}k{}", self.channels, self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_tensor::conv::conv2d_reference;

    #[test]
    fn conv_forward_matches_direct_convolution() {
        let mut rng = Rng::seed_from_u64(20);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        conv.bias.value.fill(0.0);
        let x = Tensor::randn(Shape::d4(2, 3, 6, 6), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = conv.forward(&x, &mut ctx);
        let g = conv.try_geometry_for(&x).unwrap();
        for i in 0..2 {
            let per_in = 3 * 36;
            let direct =
                conv2d_reference(&x.data()[i * per_in..(i + 1) * per_in], conv.weight.value.data(), 4, &g);
            let per_out = 4 * 36;
            for (a, b) in y.data()[i * per_out..(i + 1) * per_out].iter().zip(&direct) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(21);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 2, 4, 4), 1.0, &mut rng);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = conv.forward(&x, &mut ctx);
        let gx = conv.backward(&Tensor::ones(y.shape().clone()));
        let analytic_w = conv.weight.grad.clone();

        let eps = 1e-2;
        for i in (0..x.numel()).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let yp = conv.forward(&xp, &mut ctx).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let ym = conv.forward(&xm, &mut ctx).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 2e-2, "dx {i}: {fd} vs {}", gx.data()[i]);
        }
        for i in (0..conv.weight.numel()).step_by(7) {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let yp = conv.forward(&x, &mut ctx).sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let ym = conv.forward(&x, &mut ctx).sum();
            conv.weight.value.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!((fd - analytic_w.data()[i]).abs() < 2e-2, "dw {i}: {fd} vs {}", analytic_w.data()[i]);
        }
    }

    #[test]
    fn depthwise_keeps_channels_independent() {
        let mut rng = Rng::seed_from_u64(22);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        dw.bias.value.fill(0.0);
        // Zero the second channel's filter; its output must be zero even
        // with nonzero input in both channels.
        dw.weight.value.row_mut(1).fill(0.0);
        let x = Tensor::randn(Shape::d4(1, 2, 5, 5), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = dw.forward(&x, &mut ctx);
        let chan1 = &y.data()[25..50];
        assert!(chan1.iter().all(|&v| v == 0.0));
        let chan0 = &y.data()[..25];
        assert!(chan0.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn depthwise_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(23);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 2, 4, 4), 1.0, &mut rng);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = dw.forward(&x, &mut ctx);
        let gx = dw.backward(&Tensor::ones(y.shape().clone()));
        let eps = 1e-2;
        for i in (0..x.numel()).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let yp = dw.forward(&xp, &mut ctx).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let ym = dw.forward(&xm, &mut ctx).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 2e-2, "dx {i}: {fd} vs {}", gx.data()[i]);
        }
    }

    #[test]
    fn arena_eval_path_matches_allocating_train_path_bitwise() {
        // (in, out, kernel, stride, pad, h, w): conv geometries of every
        // zoo CNN at their real sizes (VGG; ResNet's strided 3x3 and 1x1
        // shortcuts; the MobileNet/EfficientNet 1x1 expand and project
        // convs), plus channel counts and spatial sizes that leave ragged
        // edges around the GEMM's register blocks.
        let geometries = [
            (3, 24, 3, 1, 1, 32, 32),
            (24, 48, 3, 1, 1, 16, 16),
            (96, 96, 3, 1, 1, 8, 8),
            (16, 32, 3, 2, 1, 32, 32),
            (32, 64, 1, 2, 0, 16, 16),
            (64, 64, 3, 1, 1, 8, 8),
            (16, 48, 1, 1, 0, 32, 32),
            (72, 40, 1, 1, 0, 8, 8),
            (120, 40, 1, 1, 0, 8, 8),
            (5, 7, 3, 2, 1, 9, 7),
            (3, 13, 1, 1, 0, 5, 6),
            (6, 9, 5, 3, 2, 11, 10),
        ];
        let mut rng = Rng::seed_from_u64(27);
        for (cin, cout, k, stride, pad, h, w) in geometries {
            let mut conv = Conv2d::new(cin, cout, k, stride, pad, &mut rng);
            // Post-ReLU activations, so the patch matrix holds zeros.
            let x = Tensor::randn(Shape::d4(2, cin, h, w), 1.0, &mut rng).map(|v| v.max(0.0));
            let mut ctx = ForwardCtx::train(&mut rng);
            let y_train = conv.forward(&x, &mut ctx);
            // Two eval passes: the second reuses the dirty padded buffer.
            for pass in 0..2 {
                let mut ctx = ForwardCtx::eval(&mut rng);
                let y_eval = conv.forward(&x, &mut ctx);
                let same = y_eval.data().iter().zip(y_train.data()).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "conv {cin}->{cout} k{k} s{stride} p{pad} {h}x{w} pass {pass}");
            }
            // The padded-image buffer stuck around for the next batch.
            assert!(conv.padded.capacity() > 0);
        }
        let mut dw = DepthwiseConv2d::new(3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(2, 3, 6, 6), 1.0, &mut rng);
        let mut ctx = ForwardCtx::train(&mut rng);
        let yd_train = dw.forward(&x, &mut ctx);
        for pass in 0..2 {
            let mut ctx = ForwardCtx::eval(&mut rng);
            assert_eq!(dw.forward(&x, &mut ctx).data(), yd_train.data(), "dwconv pass {pass}");
        }
    }

    #[test]
    fn try_forward_rejects_bad_batches_without_panicking() {
        let mut rng = Rng::seed_from_u64(25);
        let mut conv = Conv2d::new(3, 4, 3, 1, 0, &mut rng);
        let mut ctx_rng = Rng::seed_from_u64(26);

        // Wrong channel count.
        let bad_channels = Tensor::zeros(Shape::d4(1, 2, 6, 6));
        let mut ctx = ForwardCtx::eval(&mut ctx_rng);
        let err = conv.try_forward(&bad_channels, &mut ctx).unwrap_err();
        assert!(matches!(&err, tr_core::TrError::ShapeMismatch(m) if m.contains("channels")), "{err}");

        // Kernel larger than the (unpadded) input.
        let too_small = Tensor::zeros(Shape::d4(1, 3, 2, 2));
        let mut ctx = ForwardCtx::eval(&mut ctx_rng);
        let err = conv.try_forward(&too_small, &mut ctx).unwrap_err();
        assert!(
            matches!(&err, tr_core::TrError::InvalidGeometry(m) if m.contains("larger than padded")),
            "{err}"
        );

        // The layer still works on a good batch afterwards.
        let good = Tensor::zeros(Shape::d4(1, 3, 6, 6));
        let mut ctx = ForwardCtx::eval(&mut ctx_rng);
        assert!(conv.try_forward(&good, &mut ctx).is_ok());

        // Depthwise path reports the same way.
        let mut dw = DepthwiseConv2d::new(2, 5, 1, 0, &mut rng);
        let tiny = Tensor::zeros(Shape::d4(1, 2, 3, 3));
        let mut ctx = ForwardCtx::eval(&mut ctx_rng);
        let err = dw.try_forward(&tiny, &mut ctx).unwrap_err();
        assert!(matches!(err, tr_core::TrError::InvalidGeometry(_)), "{err}");
    }

    #[test]
    fn strided_conv_halves_spatial_dims() {
        let mut rng = Rng::seed_from_u64(24);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 3, 8, 8), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = conv.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[1, 8, 4, 4]);
    }
}
