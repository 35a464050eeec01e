//! Batch normalization.
//!
//! Batch norm matters doubly here: it stabilizes training of the synthetic
//! model zoo, and (with weight decay) it is why trained DNN weights and
//! activations have the normal-like distributions Term Revealing exploits
//! (§III-A).

use crate::layer::{ForwardCtx, Layer};
use crate::param::Param;
use tr_tensor::{Shape, Tensor};

/// Per-channel batch normalization for NCHW tensors.
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Backward cache.
    cached: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    shape: Shape,
}

impl BatchNorm2d {
    /// Batch norm over `channels` with default eps/momentum.
    pub fn new(channels: usize) -> BatchNorm2d {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new_no_decay(Tensor::ones(Shape::d1(channels))),
            beta: Param::new_no_decay(Tensor::zeros(Shape::d1(channels))),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached: None,
        }
    }

    /// The running (inference-time) mean per channel.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running (inference-time) variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Fold this batch norm into a preceding convolution's weights and
    /// bias: `w' = w·γ/σ`, `b' = (b − μ)·γ/σ + β`. This is the standard
    /// deployment transform, and it is what lets the quantized/TR
    /// executors treat conv+BN as a single dot-product site, as the
    /// paper's FPGA system does.
    pub fn fold_into(&self, weight: &mut Tensor, bias: &mut Tensor) {
        let (out_ch, _) = weight.shape().as_matrix();
        assert_eq!(out_ch, self.channels, "fold channel mismatch");
        for c in 0..self.channels {
            let inv_std = 1.0 / (self.running_var[c] + self.eps).sqrt();
            let g = self.gamma.value.data()[c] * inv_std;
            for w in weight.row_mut(c) {
                *w *= g;
            }
            let b = bias.data()[c];
            bias.data_mut()[c] = (b - self.running_mean[c]) * g + self.beta.value.data()[c];
        }
    }

    /// The eval forward: `γ·((x − μ)·(1/σ)) + β` with the running
    /// statistics, the arithmetic of the train path, written straight
    /// into the output. It keeps nothing for a backward pass, so it
    /// neither copies `x` nor builds `x̂`.
    fn eval_forward(&self, x: &Tensor, n: usize, hw: usize) -> Tensor {
        let per_channel: Vec<[f32; 4]> = (0..self.channels)
            .map(|ch| {
                let inv_std = 1.0 / (self.running_var[ch] + self.eps).sqrt();
                [self.running_mean[ch], inv_std, self.gamma.value.data()[ch], self.beta.value.data()[ch]]
            })
            .collect();
        let mut out = Vec::with_capacity(x.numel());
        for ni in 0..n {
            for (ch, &[mean, inv_std, g, b]) in per_channel.iter().enumerate() {
                let off = (ni * self.channels + ch) * hw;
                out.extend(x.data()[off..off + hw].iter().map(|&v| g * ((v - mean) * inv_std) + b));
            }
        }
        Tensor::from_vec(out, x.shape().clone())
    }

    fn stats_dims(x: &Tensor) -> (usize, usize, usize) {
        assert_eq!(x.shape().rank(), 4, "batchnorm2d expects NCHW input");
        (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2) * x.shape().dim(3))
    }
}

impl Layer for BatchNorm2d {
    // f64 statistics, f32 parameters — the narrowing casts are the
    // layer's storage contract.
    #[allow(clippy::cast_possible_truncation)]
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        let (n, c, hw) = Self::stats_dims(x);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        if !ctx.train {
            return self.eval_forward(x, n, hw);
        }
        let count = (n * hw) as f32;
        let mut out = x.clone();
        let mut inv_stds = vec![0.0f32; c];
        let mut x_hat = Tensor::zeros(x.shape().clone());

        #[allow(clippy::needless_range_loop)] // ch also indexes the running stats
        for ch in 0..c {
            let mut sum = 0.0f64;
            let mut sq = 0.0f64;
            for ni in 0..n {
                let off = (ni * c + ch) * hw;
                for &v in &x.data()[off..off + hw] {
                    sum += v as f64;
                    sq += (v as f64) * (v as f64);
                }
            }
            let mean = (sum / count as f64) as f32;
            let var = ((sq / count as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
            self.running_mean[ch] = (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
            self.running_var[ch] = (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ch] = inv_std;
            let g = self.gamma.value.data()[ch];
            let b = self.beta.value.data()[ch];
            for ni in 0..n {
                let off = (ni * c + ch) * hw;
                for i in off..off + hw {
                    let xh = (x.data()[i] - mean) * inv_std;
                    x_hat.data_mut()[i] = xh;
                    out.data_mut()[i] = g * xh + b;
                }
            }
        }
        self.cached = Some(BnCache { x_hat, inv_std: inv_stds, shape: x.shape().clone() });
        out
    }

    #[allow(clippy::cast_possible_truncation)] // f64 grads → f32 params
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cached.take().expect("backward before forward");
        let (n, c, hw) = Self::stats_dims(grad_out);
        let count = (n * hw) as f32;
        let mut dx = Tensor::zeros(cache.shape.clone());
        for ch in 0..c {
            // Accumulate dgamma, dbeta, and the two reduction terms of the
            // standard BN backward.
            let mut dgamma = 0.0f64;
            let mut dbeta = 0.0f64;
            for ni in 0..n {
                let off = (ni * c + ch) * hw;
                for i in off..off + hw {
                    dgamma += (grad_out.data()[i] * cache.x_hat.data()[i]) as f64;
                    dbeta += grad_out.data()[i] as f64;
                }
            }
            self.gamma.grad.data_mut()[ch] += dgamma as f32;
            self.beta.grad.data_mut()[ch] += dbeta as f32;
            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            let mean_dy = dbeta as f32 / count;
            let mean_dy_xhat = dgamma as f32 / count;
            for ni in 0..n {
                let off = (ni * c + ch) * hw;
                for i in off..off + hw {
                    let dy = grad_out.data()[i];
                    let xh = cache.x_hat.data()[i];
                    dx.data_mut()[i] = g * inv_std * (dy - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("gamma", &mut self.gamma);
        f("beta", &mut self.beta);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Vec<f32>)) {
        f("running_mean", &mut self.running_mean);
        f("running_var", &mut self.running_var);
    }

    fn name(&self) -> String {
        format!("bn{}", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_tensor::Rng;

    #[test]
    fn train_forward_normalizes_channels() {
        let mut rng = Rng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(Shape::d4(8, 2, 4, 4), 3.0, &mut rng).map(|v| v + 5.0);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = bn.forward(&x, &mut ctx);
        // Per-channel output mean ~0, var ~1.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for ni in 0..8 {
                let off = (ni * 2 + ch) * 16;
                vals.extend_from_slice(&y.data()[off..off + 16]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        // Scale/shift so the loss is sensitive to normalization.
        bn.gamma.value.data_mut().copy_from_slice(&[1.5, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.1, -0.2]);
        let x = Tensor::randn(Shape::d4(2, 2, 2, 2), 1.0, &mut rng);
        // Loss: weighted sum to break symmetry.
        let w: Vec<f32> = (0..x.numel()).map(|i| ((i % 5) as f32) - 2.0).collect();
        let loss = |bn: &mut BatchNorm2d, x: &Tensor, rng: &mut Rng| -> f32 {
            let mut ctx = ForwardCtx::train(rng);
            let y = bn.forward(x, &mut ctx);
            y.data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = bn.forward(&x, &mut ctx);
        let grad_out = Tensor::from_vec(w.clone(), y.shape().clone());
        let gx = bn.backward(&grad_out);

        let eps = 1e-2;
        for i in 0..x.numel() {
            // Fresh BN copies so running stats don't drift into the check.
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = loss(&mut bn, &xp, &mut rng);
            let lm = loss(&mut bn, &xm, &mut rng);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 0.05, "dx {i}: fd {fd} vs {}", gx.data()[i]);
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(1);
        // Train on shifted data to move the running stats.
        for _ in 0..50 {
            let x = Tensor::randn(Shape::d4(16, 1, 2, 2), 2.0, &mut rng).map(|v| v + 10.0);
            let mut ctx = ForwardCtx::train(&mut rng);
            bn.forward(&x, &mut ctx);
        }
        assert!((bn.running_mean()[0] - 10.0).abs() < 0.5);
        // Eval on the same distribution: output should be ~standardized.
        let x = Tensor::randn(Shape::d4(64, 1, 2, 2), 2.0, &mut rng).map(|v| v + 10.0);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = bn.forward(&x, &mut ctx);
        assert!(y.mean().abs() < 0.2, "mean {}", y.mean());
    }

    #[test]
    fn folding_matches_bn_inference() {
        use crate::layers::conv::Conv2d;
        let mut rng = Rng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut bn = BatchNorm2d::new(3);
        // Push some training data through BN to give it nontrivial stats.
        for _ in 0..20 {
            let x = Tensor::randn(Shape::d4(4, 2, 6, 6), 1.0, &mut rng);
            let mut ctx = ForwardCtx::train(&mut rng);
            let h = conv.forward(&x, &mut ctx);
            bn.forward(&h, &mut ctx);
        }
        let x = Tensor::randn(Shape::d4(2, 2, 6, 6), 1.0, &mut rng);
        let mut folded_conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let unfused = {
            let h = conv.forward(&x, &mut ctx);
            bn.forward(&h, &mut ctx)
        };
        // Fold and rerun.
        let mut w = conv.weight().value.clone();
        let mut b = Tensor::zeros(Shape::d1(3));
        bn.fold_into(&mut w, &mut b);
        folded_conv.visit_params(&mut |name, p| {
            if name == "weight" {
                p.value = w.clone();
            } else {
                p.value = b.clone();
            }
        });
        let fused = folded_conv.forward(&x, &mut ctx);
        assert!(unfused.rel_l2(&fused) < 1e-4, "rel {}", unfused.rel_l2(&fused));
    }
}
