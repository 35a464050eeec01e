//! The layer abstraction and sequential composition.

use crate::fake_quant::FakeQuant;
use crate::param::Param;
use tr_core::TrError;
use tr_tensor::{Rng, Tensor};

/// Per-forward context: training mode and the RNG used by stochastic
/// layers (dropout).
pub struct ForwardCtx<'a> {
    /// True during training (enables dropout, batch-norm batch statistics).
    pub train: bool,
    /// Random source for stochastic layers.
    pub rng: &'a mut Rng,
}

impl<'a> ForwardCtx<'a> {
    /// A training-mode context.
    pub fn train(rng: &'a mut Rng) -> ForwardCtx<'a> {
        ForwardCtx { train: true, rng }
    }

    /// An inference-mode context.
    pub fn eval(rng: &'a mut Rng) -> ForwardCtx<'a> {
        ForwardCtx { train: false, rng }
    }
}

/// A quantization site: one weight matrix inside a compute layer together
/// with its fake-quantization state. The executor ([`crate::exec`]) visits
/// these to install QT / TR transforms and read back pair counts.
pub struct QuantSite<'a> {
    /// Human-readable site name, e.g. `"conv3"` or `"lstm.w_hh"`.
    pub name: String,
    /// The weight parameter at this site (`(out, in)` matrix layout).
    pub weight: &'a mut Param,
    /// The site's quantization state.
    pub fq: &'a mut FakeQuant,
}

/// A differentiable network layer operating on batched tensors.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// cache, accumulates parameter gradients, and returns the gradient with
/// respect to the layer input. Layers are stateful and single-threaded by
/// design (training is data-parallel *inside* kernels, not across layers),
/// which is the idiom the engine's simplicity rests on.
pub trait Layer {
    /// Compute the layer output for a batch.
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor;

    /// Fallible [`Layer::forward`]: layers whose geometry depends on the
    /// input (convolutions) override this to reject malformed batches with
    /// a [`TrError`] instead of panicking, so a serving process can refuse
    /// one request without dying. The default wraps `forward`, which is
    /// correct for shape-preserving layers that cannot fail.
    fn try_forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Result<Tensor, TrError> {
        Ok(self.forward(x, ctx))
    }

    /// Back-propagate: accumulate parameter grads, return input grad.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visit every learnable parameter (for optimizers and IO).
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param));

    /// Visit every quantization site (compute layers override).
    fn visit_quant_sites(&mut self, _f: &mut dyn FnMut(QuantSite<'_>)) {}

    /// Visit non-learnable state that checkpoints must carry (batch-norm
    /// running statistics).
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&str, &mut Vec<f32>)) {}

    /// Diagnostic name.
    fn name(&self) -> String;
}

/// A model whose quantization sites can be walked: every [`Layer`], and
/// the LSTM language model ([`crate::lstm::LstmLm`]), which is not a
/// `Layer` because it consumes token ids. The executor functions in
/// [`crate::exec`] take any `QuantSites`, so one install path serves
/// both. Where `Layer` and `QuantSites` are both in scope, a method call
/// on a concrete `Layer` type is ambiguous: name the trait
/// (`Layer::visit_quant_sites(&mut net, f)`).
pub trait QuantSites {
    /// Visit every quantization site, always in the same order.
    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>));
}

impl<L: Layer + ?Sized> QuantSites for L {
    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>)) {
        Layer::visit_quant_sites(self, f);
    }
}

/// A chain of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty chain.
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Consume the chain, yielding its layers (for flattening builders).
    pub fn into_layers(self) -> Vec<Box<dyn Layer>> {
        self.layers
    }

    /// Forward pass that also returns every intermediate output (index
    /// `i` = output of layer `i`). Used by distribution experiments that
    /// need the activations feeding a specific layer.
    pub fn forward_collect(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Vec<Tensor> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, ctx);
            outs.push(cur.clone());
        }
        outs
    }

    /// Total learnable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, p| n += p.numel());
        n
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        match self.try_forward(x, ctx) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Result<Tensor, TrError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let _span = tr_obs::span_lazy(|| format!("nn.layer.{}", layer.name()));
            cur = layer.try_forward(&cur, ctx)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let prefix = format!("{}.{}", i, layer.name());
            layer.visit_params(&mut |name, p| f(&format!("{prefix}.{name}"), p));
        }
    }

    fn visit_quant_sites(&mut self, f: &mut dyn FnMut(QuantSite<'_>)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_quant_sites(&mut |site| {
                f(QuantSite { name: format!("{}.{}", i, site.name), weight: site.weight, fq: site.fq })
            });
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Vec<f32>)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let prefix = format!("{}.{}", i, layer.name());
            layer.visit_buffers(&mut |name, b| f(&format!("{prefix}.{name}"), b));
        }
    }

    fn name(&self) -> String {
        "sequential".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::act::Relu;
    use crate::layers::linear::Linear;
    use tr_tensor::Shape;

    #[test]
    fn sequential_chains_forward_and_backward() {
        let mut rng = Rng::seed_from_u64(1);
        let mut net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut rng));
        let x = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = net.forward(&x, &mut ctx);
        assert_eq!(y.shape().dims(), &[3, 2]);
        let gx = net.backward(&Tensor::ones(Shape::d2(3, 2)));
        assert_eq!(gx.shape().dims(), &[3, 4]);
    }

    #[test]
    fn param_visitation_reaches_all_layers() {
        let mut rng = Rng::seed_from_u64(2);
        let mut net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Linear::new(8, 2, &mut rng));
        let mut names = Vec::new();
        net.visit_params(&mut |name, _| names.push(name.to_string()));
        assert_eq!(names.len(), 4); // two weights + two biases
        assert!(names[0].contains("linear"));
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn quant_sites_are_prefixed() {
        let mut rng = Rng::seed_from_u64(3);
        let mut net = Sequential::new()
            .push(Linear::new(4, 4, &mut rng))
            .push(Relu::new())
            .push(Linear::new(4, 4, &mut rng));
        let mut sites = Vec::new();
        Layer::visit_quant_sites(&mut net, &mut |s| sites.push(s.name));
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
    }
}
