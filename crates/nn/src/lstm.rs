//! LSTM language model (the Wikitext-2 substitute of Fig. 15 right).
//!
//! A single-layer LSTM with an embedding table and a vocabulary
//! projection, trained with truncated BPTT. The model deliberately mirrors
//! the paper's PyTorch word-language-model recipe (one layer, tied
//! dimensionality, dropout) at synthetic-corpus scale.
//!
//! The LSTM is not a [`crate::layer::Layer`] (its input is token ids, not
//! a float tensor), so it carries its own forward/backward plumbing. It
//! walks its three weight matrices as quantization sites through
//! [`QuantSites`], the walk the [`crate::exec`] functions take.

use crate::fake_quant::FakeQuant;
use crate::layer::{QuantSite, QuantSites};
use crate::param::Param;
use tr_core::PackedTermMatrix;
use tr_tensor::{Rng, Shape, Tensor};

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// A single-layer LSTM language model.
pub struct LstmLm {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding and hidden width (tied, as in the paper's recipe).
    pub hidden: usize,
    embedding: Param,
    /// Input-to-gates weights `(4H, E)`, gate order `[i, f, g, o]`.
    w_ih: Param,
    /// Hidden-to-gates weights `(4H, H)`.
    w_hh: Param,
    /// Gate biases `(4H)`.
    bias: Param,
    /// Output projection `(V, H)`.
    w_out: Param,
    b_out: Param,
    /// Quantization site for the input-to-hidden weights.
    pub fq_ih: FakeQuant,
    /// Quantization site for the hidden-to-hidden weights.
    pub fq_hh: FakeQuant,
    /// Quantization site for the output projection.
    pub fq_out: FakeQuant,
    dropout: f32,
    cache: Option<BpttCache>,
}

struct BpttCache {
    tokens: Vec<usize>,
    embeds: Vec<Tensor>,
    // Per-timestep gate activations and states.
    i_g: Vec<Vec<f32>>,
    f_g: Vec<Vec<f32>>,
    g_g: Vec<Vec<f32>>,
    o_g: Vec<Vec<f32>>,
    c: Vec<Vec<f32>>,
    /// Pre-dropout hidden states (the recurrent path).
    h_pre: Vec<Vec<f32>>,
    /// Post-dropout hidden states (what the output head saw).
    h_post: Vec<Vec<f32>>,
    drop_mask: Option<Vec<Vec<f32>>>,
}

/// The quantization sites are the three weight matmuls.
impl QuantSites for LstmLm {
    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>)) {
        f(QuantSite { name: "lstm.w_ih".to_string(), weight: &mut self.w_ih, fq: &mut self.fq_ih });
        f(QuantSite { name: "lstm.w_hh".to_string(), weight: &mut self.w_hh, fq: &mut self.fq_hh });
        f(QuantSite { name: "lstm.w_out".to_string(), weight: &mut self.w_out, fq: &mut self.fq_out });
    }
}

impl LstmLm {
    /// A new model with the given vocabulary and hidden width.
    pub fn new(vocab: usize, hidden: usize, dropout: f32, rng: &mut Rng) -> LstmLm {
        let e = hidden;
        LstmLm {
            vocab,
            hidden,
            embedding: Param::new(Tensor::randn(Shape::d2(vocab, e), 0.1, rng)),
            w_ih: Param::new(Tensor::kaiming(Shape::d2(4 * hidden, e), e, rng)),
            w_hh: Param::new(Tensor::kaiming(Shape::d2(4 * hidden, hidden), hidden, rng)),
            bias: Param::new_no_decay(Tensor::zeros(Shape::d1(4 * hidden))),
            w_out: Param::new(Tensor::kaiming(Shape::d2(vocab, hidden), hidden, rng)),
            b_out: Param::new_no_decay(Tensor::zeros(Shape::d1(vocab))),
            fq_ih: FakeQuant::default(),
            fq_hh: FakeQuant::default(),
            fq_out: FakeQuant::default(),
            dropout,
            cache: None,
        }
    }

    /// Visit the learnable parameters (for the optimizer and IO).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("embedding", &mut self.embedding);
        f("w_ih", &mut self.w_ih);
        f("w_hh", &mut self.w_hh);
        f("bias", &mut self.bias);
        f("w_out", &mut self.w_out);
        f("b_out", &mut self.b_out);
    }

    fn gates(&mut self, x: &[f32], h: &[f32], count_pairs: bool) -> Vec<f32> {
        let hdim = self.hidden;
        let xt = Tensor::from_vec(x.to_vec(), Shape::d2(1, x.len()));
        let ht = Tensor::from_vec(h.to_vec(), Shape::d2(1, hdim));
        let xq = transform_and_count(&mut self.fq_ih, &xt, count_pairs);
        let hq = transform_and_count(&mut self.fq_hh, &ht, count_pairs);
        let wih = self.fq_ih.effective_weight(&self.w_ih.value);
        let whh = self.fq_hh.effective_weight(&self.w_hh.value);
        let zx = xq.matmul_transb(wih);
        let zh = hq.matmul_transb(whh);
        let mut z = vec![0.0f32; 4 * hdim];
        for (i, zv) in z.iter_mut().enumerate() {
            *zv = zx.data()[i] + zh.data()[i] + self.bias.value.data()[i];
        }
        z
    }

    /// Run a token sequence, returning per-step logits `(T, V)`.
    /// `train` enables dropout and caches activations for [`Self::backward`].
    pub fn forward(&mut self, tokens: &[usize], train: bool, rng: &mut Rng) -> Tensor {
        let t_len = tokens.len();
        let hdim = self.hidden;
        let mut h = vec![0.0f32; hdim];
        let mut c = vec![0.0f32; hdim];
        let mut logits = Tensor::zeros(Shape::d2(t_len, self.vocab));
        let mut cache = BpttCache {
            tokens: tokens.to_vec(),
            embeds: Vec::with_capacity(t_len),
            i_g: Vec::with_capacity(t_len),
            f_g: Vec::with_capacity(t_len),
            g_g: Vec::with_capacity(t_len),
            o_g: Vec::with_capacity(t_len),
            c: Vec::with_capacity(t_len),
            h_pre: Vec::with_capacity(t_len),
            h_post: Vec::with_capacity(t_len),
            drop_mask: if train && self.dropout > 0.0 { Some(Vec::with_capacity(t_len)) } else { None },
        };
        let count_pairs = self.fq_ih.count_pairs || self.fq_out.count_pairs;
        for (step, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab, "token {tok} out of vocabulary");
            let x = Tensor::from_vec(self.embedding.value.row(tok).to_vec(), Shape::d2(1, hdim));
            let z = self.gates(x.data(), &h, count_pairs);
            let (mut ig, mut fg, mut gg, mut og) =
                (vec![0.0; hdim], vec![0.0; hdim], vec![0.0; hdim], vec![0.0; hdim]);
            for j in 0..hdim {
                ig[j] = sigmoid(z[j]);
                fg[j] = sigmoid(z[hdim + j]);
                gg[j] = z[2 * hdim + j].tanh();
                og[j] = sigmoid(z[3 * hdim + j]);
            }
            for j in 0..hdim {
                c[j] = fg[j] * c[j] + ig[j] * gg[j];
                h[j] = og[j] * c[j].tanh();
            }
            // Dropout on the hidden state feeding the output head.
            let mut h_out = h.clone();
            if let Some(masks) = &mut cache.drop_mask {
                let keep = 1.0 - self.dropout;
                let mask: Vec<f32> = (0..hdim)
                    .map(|_| if rng.bernoulli(keep) { 1.0 / keep } else { 0.0 })
                    .collect();
                for (v, &m) in h_out.iter_mut().zip(&mask) {
                    *v *= m;
                }
                masks.push(mask);
            }
            let ht = Tensor::from_vec(h_out.clone(), Shape::d2(1, hdim));
            let hq = transform_and_count(&mut self.fq_out, &ht, count_pairs);
            let wout = self.fq_out.effective_weight(&self.w_out.value);
            let y = hq.matmul_transb(wout);
            for (v, (yv, bv)) in
                logits.row_mut(step).iter_mut().zip(y.data().iter().zip(self.b_out.value.data()))
            {
                *v = yv + bv;
            }
            cache.embeds.push(x);
            cache.i_g.push(ig);
            cache.f_g.push(fg);
            cache.g_g.push(gg);
            cache.o_g.push(og);
            cache.c.push(c.clone());
            cache.h_pre.push(h.clone());
            cache.h_post.push(h_out);
        }
        if train {
            self.cache = Some(cache);
        }
        logits
    }

    /// BPTT over the cached sequence given `(T, V)` logit gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let cache = self.cache.take().expect("backward before forward");
        let t_len = cache.tokens.len();
        let hdim = self.hidden;
        let mut dh = vec![0.0f32; hdim];
        let mut dc = vec![0.0f32; hdim];
        for step in (0..t_len).rev() {
            let gl = grad_logits.row(step);
            // Output head: dW_out += gl^T h_post ; head grad flows to the
            // pre-dropout h through the mask, *separately* from the
            // recurrent gradient already in `dh`.
            let h_out = &cache.h_post[step];
            let mut dh_head = vec![0.0f32; hdim];
            #[allow(clippy::needless_range_loop)] // v addresses gl, b_out and w_out rows
            for v in 0..self.vocab {
                let g = gl[v];
                if g != 0.0 {
                    self.b_out.grad.data_mut()[v] += g;
                    for j in 0..hdim {
                        self.w_out.grad.data_mut()[v * hdim + j] += g * h_out[j];
                        dh_head[j] += g * self.w_out.value.data()[v * hdim + j];
                    }
                }
            }
            if let Some(masks) = &cache.drop_mask {
                for (d, &m) in dh_head.iter_mut().zip(&masks[step]) {
                    *d *= m;
                }
            }
            for (d, &hd) in dh.iter_mut().zip(&dh_head) {
                *d += hd;
            }
            // LSTM cell backward.
            let (ig, fg, gg, og) =
                (&cache.i_g[step], &cache.f_g[step], &cache.g_g[step], &cache.o_g[step]);
            let c_t = &cache.c[step];
            let c_prev: Vec<f32> =
                if step == 0 { vec![0.0; hdim] } else { cache.c[step - 1].clone() };
            let mut dz = vec![0.0f32; 4 * hdim];
            let mut dc_next = vec![0.0f32; hdim];
            for j in 0..hdim {
                let tanh_c = c_t[j].tanh();
                let do_ = dh[j] * tanh_c;
                let dct = dh[j] * og[j] * (1.0 - tanh_c * tanh_c) + dc[j];
                let di = dct * gg[j];
                let df = dct * c_prev[j];
                let dg = dct * ig[j];
                dc_next[j] = dct * fg[j];
                dz[j] = di * ig[j] * (1.0 - ig[j]);
                dz[hdim + j] = df * fg[j] * (1.0 - fg[j]);
                dz[2 * hdim + j] = dg * (1.0 - gg[j] * gg[j]);
                dz[3 * hdim + j] = do_ * og[j] * (1.0 - og[j]);
            }
            // Weight grads: dW_ih += dz^T x ; dW_hh += dz^T h_{t-1}.
            let x = cache.embeds[step].data();
            let h_prev: Vec<f32> =
                if step == 0 { vec![0.0; hdim] } else { cache.h_pre[step - 1].clone() };
            let mut dh_prev = vec![0.0f32; hdim];
            let mut dx = vec![0.0f32; hdim];
            #[allow(clippy::needless_range_loop)] // r addresses dz, bias and both weight row slabs
            for r in 0..4 * hdim {
                let g = dz[r];
                if g != 0.0 {
                    self.bias.grad.data_mut()[r] += g;
                    let wih_row = &mut self.w_ih.grad.data_mut()[r * hdim..(r + 1) * hdim];
                    for (wg, &xv) in wih_row.iter_mut().zip(x) {
                        *wg += g * xv;
                    }
                    let whh_row = &mut self.w_hh.grad.data_mut()[r * hdim..(r + 1) * hdim];
                    for (wg, &hv) in whh_row.iter_mut().zip(&h_prev) {
                        *wg += g * hv;
                    }
                    for j in 0..hdim {
                        dx[j] += g * self.w_ih.value.data()[r * hdim + j];
                        dh_prev[j] += g * self.w_hh.value.data()[r * hdim + j];
                    }
                }
            }
            // Embedding grad.
            let tok = cache.tokens[step];
            for (eg, &d) in self.embedding.grad.row_mut(tok).iter_mut().zip(&dx) {
                *eg += d;
            }
            dh = dh_prev;
            dc = dc_next;
        }
    }
}

/// Apply a site's activation transform to one step's `1 × n` input and,
/// when counting, count its term pairs on the capped codes the transform
/// produced.
fn transform_and_count(fq: &mut FakeQuant, x: &Tensor, count_pairs: bool) -> Tensor {
    if !(count_pairs && fq.count_pairs && fq.weight_terms.is_some()) {
        return fq.transform_input(x);
    }
    let (xq, codes) = fq.transform_input_codes(x);
    if let Some(codes) = codes {
        let enc = fq.act_cap.map_or(tr_encoding::Encoding::Binary, |(e, _)| e);
        let dm = PackedTermMatrix::from_codes(&codes, 1, codes.len(), enc);
        // One timestep is a fraction of a sample; the caller normalizes
        // by token count, so record samples = 0 here and patch counts
        // upstream.
        fq.count_matmul(&dm, 0);
    }
    xq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed_from_u64(1);
        let mut lm = LstmLm::new(20, 16, 0.0, &mut rng);
        let logits = lm.forward(&[1, 2, 3, 4], false, &mut rng);
        assert_eq!(logits.shape().dims(), &[4, 20]);
    }

    #[test]
    fn gradcheck_spot_samples() {
        let mut rng = Rng::seed_from_u64(2);
        let mut lm = LstmLm::new(6, 5, 0.0, &mut rng);
        let tokens = [1usize, 3, 2, 0];
        let targets = [3usize, 2, 0, 5];
        let loss_of = |lm: &mut LstmLm, rng: &mut Rng| -> f32 {
            let logits = lm.forward(&tokens, true, rng);
            cross_entropy(&logits, &targets).0
        };
        let logits = lm.forward(&tokens, true, &mut rng);
        let (_, grad) = cross_entropy(&logits, &targets);
        lm.backward(&grad);
        // Spot-check a few parameters from each matrix.
        let eps = 1e-2;
        let checks: Vec<(&str, usize)> =
            vec![("w_ih", 3), ("w_hh", 7), ("w_out", 11), ("embedding", 9), ("bias", 2)];
        for (pname, idx) in checks {
            let mut analytic = 0.0;
            lm.visit_params(&mut |name, p| {
                if name == pname {
                    analytic = p.grad.data()[idx];
                }
            });
            let perturb = |lm: &mut LstmLm, delta: f32| {
                lm.visit_params(&mut |name, p| {
                    if name == pname {
                        p.value.data_mut()[idx] += delta;
                    }
                });
            };
            perturb(&mut lm, eps);
            let lp = loss_of(&mut lm, &mut rng);
            perturb(&mut lm, -2.0 * eps);
            let lm_ = loss_of(&mut lm, &mut rng);
            perturb(&mut lm, eps);
            let fd = (lp - lm_) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 2e-2,
                "{pname}[{idx}]: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn learns_a_deterministic_cycle() {
        // Sequence 0 -> 1 -> 2 -> 0 ... is perfectly predictable; a tiny
        // LSTM should reach near-zero loss.
        let mut rng = Rng::seed_from_u64(3);
        let mut lm = LstmLm::new(3, 12, 0.0, &mut rng);
        let seq: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let inputs = &seq[..59];
        let targets = &seq[1..];
        let mut opt_lr = 0.5f32;
        let mut final_loss = f32::INFINITY;
        for epoch in 0..150 {
            let logits = lm.forward(inputs, true, &mut rng);
            let (loss, grad) = cross_entropy(&logits, targets);
            lm.backward(&grad);
            lm.visit_params(&mut |_, p| {
                for (w, g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                    *w -= opt_lr * g.clamp(-1.0, 1.0);
                }
                p.zero_grad();
            });
            if epoch == 100 {
                opt_lr *= 0.2;
            }
            final_loss = loss;
        }
        assert!(final_loss < 0.1, "final loss {final_loss}");
    }

    #[test]
    fn quant_sites_exposed() {
        let mut rng = Rng::seed_from_u64(4);
        let mut lm = LstmLm::new(10, 8, 0.0, &mut rng);
        let mut names = Vec::new();
        lm.visit_quant_sites(&mut |s| names.push(s.name));
        assert_eq!(names, vec!["lstm.w_ih", "lstm.w_hh", "lstm.w_out"]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn rejects_bad_tokens() {
        let mut rng = Rng::seed_from_u64(5);
        let mut lm = LstmLm::new(4, 4, 0.0, &mut rng);
        lm.forward(&[9], false, &mut rng);
    }
}
