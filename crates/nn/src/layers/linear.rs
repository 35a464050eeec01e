//! Fully connected layer.

use crate::fake_quant::FakeQuant;
use crate::layer::{ForwardCtx, Layer, QuantSite};
use crate::param::Param;
use tr_core::{PackedTermMatrix, TrError};
use tr_encoding::Encoding;
use tr_obs::Counter;
use tr_tensor::{Rng, Shape, Tensor};

/// Integer forwards refused by the packed kernel (the layer returned its
/// error instead of an output).
static INTEGER_REFUSALS: Counter = Counter::new("nn.linear.integer_refusals");

/// `y = x W^T + b` over a batch: `x (N, in) -> y (N, out)`.
///
/// The weight is stored `(out, in)` — each row is the weight vector of one
/// output neuron, which is exactly the dot-product vector Term Revealing
/// groups along.
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    /// Quantization state for this layer's single weight site.
    pub fq: FakeQuant,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-initialized layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Linear {
        let weight =
            Param::new(Tensor::kaiming(Shape::d2(out_features, in_features), in_features, rng));
        let bias = Param::new_no_decay(Tensor::zeros(Shape::d1(out_features)));
        Linear {
            in_features,
            out_features,
            weight,
            bias,
            fq: FakeQuant::default(),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The `(out, in)` weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Count term pairs for a batch of capped activation codes
    /// (`batch` rows of `in` codes each, as the cap produced them).
    fn count_pairs(&mut self, codes: &[i32], batch: usize) {
        if !self.fq.count_pairs || self.fq.weight_terms.is_none() {
            return;
        }
        let enc = self.fq.act_cap.map_or(Encoding::Binary, |(e, _)| e);
        // Rows are already dot-product vectors of length `in`.
        let dm = PackedTermMatrix::from_codes(codes, batch, self.in_features, enc);
        self.fq.count_matmul(&dm, batch as u64);
    }

    /// Bit-true integer forward: the layer's output, bias included.
    ///
    /// Multiplies the capped input codes `capped_codes` produced (`batch`
    /// rows of `in` codes) against the cached weight term planes with
    /// [`tr_core::try_code_matmul_i64`]: the codes go straight into the
    /// kernel, as the tMAC's encoder hands its terms straight to the
    /// array, with no term planes built for them. Each exact `i64` dot
    /// product is rescaled by the two quantizer scales and the bias
    /// added in the same pass, `v as f32 * scale + b`: one float multiply
    /// and one add per output, the same roundings as rescaling first and
    /// adding the bias after.
    ///
    /// `None` when the site lacks integer state (float mode, calibrating,
    /// no packed weights): the caller takes the float-simulated path.
    /// With the state present, a kernel error (weight terms of the wrong
    /// reduction width, say) is counted and returned, never replaced by
    /// float output.
    fn integer_forward(&self, codes: &[i32], batch: usize) -> Option<Result<Tensor, TrError>> {
        if !self.fq.exec_integer || self.fq.calibrating {
            return None;
        }
        let act = self.fq.act_params?;
        let wp = self.fq.weight_params?;
        let wt = self.fq.weight_terms.as_deref()?;
        let y = tr_core::try_code_matmul_i64(codes, batch, wt);
        let scale = act.scale.max(f32::MIN_POSITIVE) * wp.scale;
        let bias = self.bias.value.data();
        Some(y.inspect_err(|_| INTEGER_REFUSALS.inc()).map(|y| {
            let out = y.iter().zip(bias.iter().cycle()).map(|(&v, &b)| v as f32 * scale + b).collect();
            Tensor::from_vec(out, Shape::d2(batch, self.out_features))
        }))
    }

    /// The float-simulated input: `real` of the capped `codes` when the
    /// caller has them, else the activation transform of `x` (the
    /// identity while inactive or calibrating), as a `(batch, in)` matrix.
    fn float_input(&self, x: &Tensor, batch: usize, codes: Option<&[i32]>) -> Tensor {
        let data = match (codes, self.fq.act_params) {
            (Some(codes), Some(p)) => codes.iter().map(|&c| p.real(c)).collect(),
            _ => {
                let mut out = Vec::new();
                self.fq.transform_slice_into(x.data(), &mut out);
                out
            }
        };
        Tensor::from_vec(data, Shape::d2(batch, self.in_features))
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        match self.try_forward(x, ctx) {
            Ok(y) => y,
            Err(e) => panic!("{e}"),
        }
    }

    /// The forward, with a batch of the wrong width refused as
    /// [`TrError::ShapeMismatch`] and the integer kernel's error
    /// returned as it is.
    ///
    /// An input of any rank is read as the `(batch, in)` matrix
    /// `as_matrix` names, in place. The integer forward builds no float
    /// input: the f32 transform runs only for the float path or for
    /// training's cached input.
    fn try_forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Result<Tensor, TrError> {
        let (batch, features) = x.shape().as_matrix();
        if features != self.in_features {
            return Err(TrError::ShapeMismatch(format!(
                "linear expected {} input features, got {features}",
                self.in_features
            )));
        }
        self.fq.observe(x);
        // Only the integer consumers need the capped codes themselves.
        let codes = if self.fq.exec_integer || self.fq.count_pairs {
            self.fq.capped_codes(x.data())
        } else {
            None
        };
        if let Some(codes) = &codes {
            self.count_pairs(codes, batch);
        }
        let codes = codes.as_deref();
        if let Some(y) = codes.and_then(|c| self.integer_forward(c, batch)) {
            if ctx.train {
                self.cached_input = Some(self.float_input(x, batch, codes));
            }
            return y;
        }
        let xq = self.float_input(x, batch, codes);
        let mut y = xq.matmul_transb(self.fq.effective_weight(&self.weight.value));
        let b = self.bias.value.data();
        for row in 0..y.shape().dim(0) {
            for (o, &bv) in y.row_mut(row).iter_mut().zip(b) {
                *o += bv;
            }
        }
        if ctx.train {
            self.cached_input = Some(xq);
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("backward before forward");
        // dW = grad_out^T @ x ; dx = grad_out @ W ; db = column sums.
        let dw = grad_out.matmul_transa(&x);
        self.weight.grad.axpy(1.0, &dw);
        let n = grad_out.shape().dim(0);
        for row in 0..n {
            let g = grad_out.row(row);
            for (bg, &gv) in self.bias.grad.data_mut().iter_mut().zip(g) {
                *bg += gv;
            }
        }
        grad_out.matmul(&self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("weight", &mut self.weight);
        f("bias", &mut self.bias);
    }

    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>)) {
        f(QuantSite { name: "linear".to_string(), weight: &mut self.weight, fq: &mut self.fq });
    }

    fn name(&self) -> String {
        format!("linear{}x{}", self.out_features, self.in_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_quant::prepare_weights;
    use tr_quant::QuantParams;

    /// Finite-difference gradient check on a scalar loss `sum(y)`.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(7);
        let mut layer = Linear::new(5, 3, &mut rng);
        let x = Tensor::randn(Shape::d2(2, 5), 1.0, &mut rng);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = layer.forward(&x, &mut ctx);
        let gx = layer.backward(&Tensor::ones(y.shape().clone()));

        let eps = 1e-3;
        // Input gradient check.
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let yp = layer.forward(&xp, &mut ctx).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let ym = layer.forward(&xm, &mut ctx).sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2, "input grad {i}: {fd} vs {}", gx.data()[i]);
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from_u64(8);
        let mut layer = Linear::new(4, 2, &mut rng);
        let x = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = layer.forward(&x, &mut ctx);
        layer.backward(&Tensor::ones(y.shape().clone()));
        let analytic = layer.weight.grad.clone();

        let eps = 1e-3;
        for i in 0..layer.weight.numel() {
            let orig = layer.weight.value.data()[i];
            layer.weight.value.data_mut()[i] = orig + eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let yp = layer.forward(&x, &mut ctx).sum();
            layer.weight.value.data_mut()[i] = orig - eps;
            let mut ctx = ForwardCtx::train(&mut rng);
            let ym = layer.forward(&x, &mut ctx).sum();
            layer.weight.value.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[i]).abs() < 1e-2,
                "weight grad {i}: {fd} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn bias_is_added_per_output() {
        let mut rng = Rng::seed_from_u64(9);
        let mut layer = Linear::new(2, 2, &mut rng);
        layer.weight.value.fill(0.0);
        layer.bias.value.data_mut().copy_from_slice(&[1.5, -0.5]);
        let x = Tensor::zeros(Shape::d2(1, 2));
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = layer.forward(&x, &mut ctx);
        assert_eq!(y.data(), &[1.5, -0.5]);
    }

    /// The integer forward must be *exactly* the packed i64 matmul
    /// rescaled — same codes, same kernel, one float multiply at the end.
    #[test]
    fn integer_forward_is_the_scaled_packed_matmul() {
        let mut rng = Rng::seed_from_u64(11);
        let mut layer = Linear::new(32, 8, &mut rng);
        let cfg = tr_core::TrConfig::new(8, 4).with_data_terms(2);
        let precision = crate::fake_quant::Precision::Tr(cfg);
        layer.fq.install(&prepare_weights(&layer.weight.value, &precision), &precision);
        layer.fq.act_params = Some(QuantParams { scale: 0.05, bits: 8 });
        layer.fq.exec_integer = true;
        layer.bias.value.data_mut().iter_mut().enumerate().for_each(|(i, b)| *b = i as f32);

        let x = Tensor::randn(Shape::d2(4, 32), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = layer.forward(&x, &mut ctx);

        // Reference: quantize and cap the input independently, pack the
        // capped codes, multiply.
        let act = layer.fq.act_params.unwrap();
        let (enc, s) = layer.fq.act_cap.unwrap();
        let codes: Vec<i32> =
            x.data().iter().map(|&v| tr_quant::truncate::truncate_value(enc, act.code(v), s)).collect();
        let data = PackedTermMatrix::from_codes(&codes, 4, 32, enc);
        let wt = layer.fq.weight_terms.as_ref().unwrap();
        let exact = tr_core::try_packed_term_matmul_i64(&data, wt).unwrap();
        let scale = act.scale * layer.fq.weight_params.unwrap().scale;
        for (r, chunk) in exact.chunks(8).enumerate() {
            for (c, &v) in chunk.iter().enumerate() {
                let expect = v as f32 * scale + c as f32; // + bias
                assert_eq!(y.data()[r * 8 + c], expect, "cell ({r},{c})");
            }
        }
    }

    /// Flipping integer execution on must not change results beyond f32
    /// rounding: both paths compute the same real-valued product.
    #[test]
    fn integer_forward_tracks_the_float_simulation() {
        let mut rng = Rng::seed_from_u64(12);
        let mut layer = Linear::new(64, 16, &mut rng);
        let cfg = tr_core::TrConfig::new(8, 8).with_data_terms(3);
        let precision = crate::fake_quant::Precision::Tr(cfg);
        layer.fq.install(&prepare_weights(&layer.weight.value, &precision), &precision);
        layer.fq.act_params = Some(QuantParams { scale: 0.02, bits: 8 });
        let x = Tensor::randn(Shape::d2(5, 64), 1.0, &mut rng);

        let mut ctx = ForwardCtx::eval(&mut rng);
        let y_float = layer.forward(&x, &mut ctx);
        layer.fq.exec_integer = true;
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y_int = layer.forward(&x, &mut ctx);
        assert!(y_float.rel_l2(&y_int) < 1e-5, "rel {}", y_float.rel_l2(&y_int));
        // Float mode ignores the flag: identical output, no integer state.
        let mut plain = Linear::new(8, 4, &mut rng);
        plain.fq.exec_integer = true;
        let xs = Tensor::randn(Shape::d2(2, 8), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let a = plain.forward(&xs, &mut ctx);
        plain.fq.exec_integer = false;
        let mut ctx = ForwardCtx::eval(&mut rng);
        let b = plain.forward(&xs, &mut ctx);
        assert_eq!(a, b);
    }

    /// At `s = 1` the HESE cap rounds code 127 (`2^7 - 2^0`) up to 128,
    /// one past the 8-bit `qmax`. The integer path must multiply the
    /// capped 128, as the float simulation does, not a re-quantized 127.
    #[test]
    fn integer_forward_tracks_the_float_simulation_at_one_data_term() {
        let mut rng = Rng::seed_from_u64(13);
        let mut layer = Linear::new(8, 4, &mut rng);
        let cfg = tr_core::TrConfig::new(8, 8).with_data_terms(1);
        let precision = crate::fake_quant::Precision::Tr(cfg);
        layer.fq.install(&prepare_weights(&layer.weight.value, &precision), &precision);
        let act = QuantParams { scale: 1.0 / 127.0, bits: 8 };
        layer.fq.act_params = Some(act);
        let x = Tensor::from_vec(vec![1.0, 0.99, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0], Shape::d2(1, 8));
        let (_, codes) = layer.fq.clone().transform_input_codes(&x);
        assert_eq!(codes.unwrap()[0], 128, "the cap rounds 127 up");

        let mut ctx = ForwardCtx::eval(&mut rng);
        let y_float = layer.forward(&x, &mut ctx);
        layer.fq.exec_integer = true;
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y_int = layer.forward(&x, &mut ctx);
        assert!(y_float.rel_l2(&y_int) < 1e-5, "rel {}", y_float.rel_l2(&y_int));
    }

    /// With integer state installed, a kernel error is the layer's
    /// answer: weight terms of the wrong reduction width make
    /// `try_forward` return the kernel's `ShapeMismatch`, not the float
    /// simulation's output.
    #[test]
    fn integer_kernel_errors_are_returned_not_replaced_by_float() {
        let mut rng = Rng::seed_from_u64(14);
        let mut layer = Linear::new(32, 8, &mut rng);
        let cfg = tr_core::TrConfig::new(8, 4).with_data_terms(2);
        let precision = crate::fake_quant::Precision::Tr(cfg);
        layer.fq.install(&prepare_weights(&layer.weight.value, &precision), &precision);
        layer.fq.act_params = Some(QuantParams { scale: 0.05, bits: 8 });
        layer.fq.exec_integer = true;
        // The weight terms of another layer's 8x31 weights: one input
        // feature short of the 32 the activations carry.
        let other = Tensor::randn(Shape::d2(8, 31), 0.3, &mut rng);
        layer.fq.weight_terms = crate::fake_quant::prepare_weights(&other, &precision).weight_terms;
        let x = Tensor::randn(Shape::d2(4, 32), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let err = layer.try_forward(&x, &mut ctx).unwrap_err();
        assert!(matches!(&err, TrError::ShapeMismatch(m) if m.contains("32 vs 31")), "{err}");
        // Without integer execution the float simulation serves.
        layer.fq.exec_integer = false;
        assert!(layer.try_forward(&x, &mut ctx).is_ok());
        // A batch of the wrong width is refused the same way.
        let narrow = Tensor::zeros(Shape::d2(1, 31));
        let err = layer.try_forward(&narrow, &mut ctx).unwrap_err();
        assert!(matches!(&err, TrError::ShapeMismatch(m) if m.contains("32 input features")), "{err}");
    }

    /// The integer forward as the layer ran it before the code operand:
    /// a rank-2 copy of the input, the f32 transform with its codes, the
    /// codes packed into term planes for
    /// [`tr_core::try_packed_term_matmul_i64`], rescaled, and the bias
    /// added in a second pass. Runs on a copy of the quant site.
    fn pack_path_forward(layer: &Linear, x: &Tensor) -> Tensor {
        let mut fq = layer.fq.clone();
        let (rows, cols) = x.shape().as_matrix();
        let x2 = x.reshape(Shape::d2(rows, cols));
        let (xq, codes) = if fq.exec_integer || fq.count_pairs {
            fq.transform_input_codes(&x2)
        } else {
            (fq.transform_input(&x2), None)
        };
        let integer = codes.filter(|_| fq.exec_integer && !fq.calibrating).and_then(|codes| {
            let (act, wp) = (fq.act_params?, fq.weight_params?);
            let wt = fq.weight_terms.as_deref()?;
            let enc = fq.act_cap.map_or(Encoding::Hese, |(e, _)| e);
            let data = PackedTermMatrix::from_codes(&codes, rows, cols, enc);
            let y = tr_core::try_packed_term_matmul_i64(&data, wt).unwrap();
            let scale = act.scale.max(f32::MIN_POSITIVE) * wp.scale;
            let y = y.iter().map(|&v| v as f32 * scale).collect();
            Some(Tensor::from_vec(y, Shape::d2(rows, layer.out_features)))
        });
        let mut y = integer.unwrap_or_else(|| xq.matmul_transb(fq.effective_weight(&layer.weight.value)));
        for row in 0..rows {
            for (o, &b) in y.row_mut(row).iter_mut().zip(layer.bias.value.data()) {
                *o += b;
            }
        }
        y
    }

    /// At the integer `Linear` sites of the zoo MLP (784→512→10) and VGG
    /// head (1536→192→10), batches 1, 8 and 32, the forward gives the
    /// f32 bits of the pack path: integer TR and QT rungs, and the
    /// float fallbacks (calibrating, a float rung, integer execution
    /// off, pair counting on the float path), each ticking
    /// `core.matmul.calls` once per integer forward and none otherwise.
    #[test]
    fn forward_matches_the_pack_path_bitwise_at_the_zoo_sites() {
        use crate::fake_quant::Precision;
        let tr = |k, s| Precision::Tr(tr_core::TrConfig::new(8, k).with_data_terms(s));
        let qt8 = Precision::Qt { weight_bits: 8, act_bits: 8 };
        let calls = || tr_obs::recorder().snapshot().counter("core.matmul.calls");
        let was = tr_obs::enabled();
        tr_obs::set_enabled(true);
        let mut rng = Rng::seed_from_u64(16);
        for (fan_in, fan_out) in [(784, 512), (512, 10), (1536, 192), (192, 10)] {
            let mut layer = Linear::new(fan_in, fan_out, &mut rng);
            layer.bias.value.data_mut().iter_mut().for_each(|b| *b = rng.normal() * 0.1);
            for precision in [tr(24, 3), tr(8, 2), qt8, Precision::Float] {
                layer.fq.install(&prepare_weights(&layer.weight.value, &precision), &precision);
                for batch in [1, 8, 32] {
                    let x = Tensor::randn(Shape::d2(batch, fan_in), 1.0, &mut rng);
                    let max = x.max_abs();
                    // (integer, calibrating, counting): the integer forward,
                    // then the float paths around it.
                    let modes =
                        [(true, false, false), (true, true, false), (false, false, false), (false, false, true)];
                    for (integer, calibrating, counting) in modes {
                        if !matches!(precision, Precision::Float) {
                            layer.fq.act_params = Some(QuantParams { scale: max / 127.0, bits: 8 });
                        }
                        layer.fq.exec_integer = integer;
                        layer.fq.calibrating = calibrating;
                        layer.fq.count_pairs = counting;
                        let want = pack_path_forward(&layer, &x);
                        let before = calls();
                        let got = layer.forward(&x, &mut ForwardCtx::eval(&mut rng));
                        let ran_integer = calls() - before;
                        let site = format!("{fan_out}x{fan_in} {} b{batch}", precision.label());
                        let label = format!("{site} {integer}/{calibrating}/{counting}");
                        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(got.shape(), want.shape(), "{label}");
                        assert_eq!(bits(&got), bits(&want), "{label}");
                        let integer_ran = integer && !calibrating && !matches!(precision, Precision::Float);
                        // Other tests may run matmuls meanwhile: a lower bound.
                        assert!(ran_integer >= u64::from(integer_ran), "{label}: {ran_integer} calls");
                    }
                    layer.fq.calibrating = false;
                    layer.fq.count_pairs = false;
                }
            }
        }
        tr_obs::set_enabled(was);
    }

    #[test]
    #[should_panic(expected = "linear expected 5 input features, got 4")]
    fn forward_panics_with_the_shape_error() {
        let mut rng = Rng::seed_from_u64(15);
        let mut layer = Linear::new(5, 3, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        layer.forward(&Tensor::zeros(Shape::d2(2, 4)), &mut ctx);
    }

    #[test]
    fn quantized_forward_stays_close_to_float() {
        let mut rng = Rng::seed_from_u64(10);
        let mut layer = Linear::new(32, 8, &mut rng);
        let x = Tensor::randn(Shape::d2(4, 32), 1.0, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y_float = layer.forward(&x, &mut ctx);
        let qt8 = crate::fake_quant::Precision::Qt { weight_bits: 8, act_bits: 8 };
        layer.fq.install(&prepare_weights(&layer.weight.value, &qt8), &qt8);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y_q = layer.forward(&x, &mut ctx);
        assert!(y_float.rel_l2(&y_q) < 0.02, "rel {}", y_float.rel_l2(&y_q));
    }
}
