//! Pooling layers.

use crate::layer::{ForwardCtx, Layer};
use crate::param::Param;
use tr_tensor::{Shape, Tensor};

/// Non-overlapping max pooling over `k×k` windows with stride `k`.
pub struct MaxPool2d {
    k: usize,
    argmax: Option<Vec<usize>>,
    in_shape: Option<Shape>,
}

impl MaxPool2d {
    /// A `k×k` max pool.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize) -> MaxPool2d {
        assert!(k > 0, "pool size must be positive");
        MaxPool2d { k, argmax: None, in_shape: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "maxpool expects NCHW input");
        let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
        assert!(h % self.k == 0 && w % self.k == 0, "input {h}x{w} not divisible by pool {0}", self.k);
        let (oh, ow) = (h / self.k, w / self.k);
        let mut out = Tensor::zeros(Shape::d4(n, c, oh, ow));
        // Only a backward pass reads the winners' positions.
        let mut argmax = if ctx.train { vec![0usize; out.numel()] } else { Vec::new() };
        let data = x.data();
        for nc in 0..n * c {
            let src = &data[nc * h * w..(nc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..self.k {
                        for dx in 0..self.k {
                            let iy = oy * self.k + dy;
                            let ix = ox * self.k + dx;
                            let v = src[iy * w + ix];
                            if v > best {
                                best = v;
                                best_idx = nc * h * w + iy * w + ix;
                            }
                        }
                    }
                    let o = nc * oh * ow + oy * ow + ox;
                    out.data_mut()[o] = best;
                    if ctx.train {
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        if ctx.train {
            self.argmax = Some(argmax);
            self.in_shape = Some(x.shape().clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.take().expect("backward before forward");
        let shape = self.in_shape.take().expect("backward before forward");
        let mut dx = Tensor::zeros(shape);
        for (o, &src_idx) in argmax.iter().enumerate() {
            dx.data_mut()[src_idx] += grad_out.data()[o];
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&str, &mut Param)) {}

    fn name(&self) -> String {
        format!("maxpool{}", self.k)
    }
}

/// Global average pooling: `(N, C, H, W)` → `(N, C)`.
#[derive(Default)]
pub struct GlobalAvgPool {
    in_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// A new global average pool.
    pub fn new() -> GlobalAvgPool {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, ctx: &mut ForwardCtx) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "global avg pool expects NCHW input");
        let (n, c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2), x.shape().dim(3));
        let hw = (h * w) as f32;
        let mut out = Tensor::zeros(Shape::d2(n, c));
        for nc in 0..n * c {
            let s: f32 = x.data()[nc * h * w..(nc + 1) * h * w].iter().sum();
            out.data_mut()[nc] = s / hw;
        }
        if ctx.train {
            self.in_shape = Some(x.shape().clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.in_shape.take().expect("backward before forward");
        let (h, w) = (shape.dim(2), shape.dim(3));
        let hw = (h * w) as f32;
        let mut dx = Tensor::zeros(shape);
        for (nc, &g) in grad_out.data().iter().enumerate() {
            let chunk = &mut dx.data_mut()[nc * h * w..(nc + 1) * h * w];
            chunk.fill(g / hw);
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&str, &mut Param)) {}

    fn name(&self) -> String {
        "gap".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_tensor::Rng;

    #[test]
    fn maxpool_picks_maxima() {
        let mut rng = Rng::seed_from_u64(1);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            Shape::d4(1, 1, 4, 4),
        );
        let mut pool = MaxPool2d::new(2);
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = pool.forward(&x, &mut ctx);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let g = pool.backward(&Tensor::ones(Shape::d4(1, 1, 2, 2)));
        // Gradient lands only on the maxima.
        assert_eq!(g.data()[5], 1.0);
        assert_eq!(g.data()[7], 1.0);
        assert_eq!(g.data()[0], 0.0);
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn gap_averages_and_distributes() {
        let mut rng = Rng::seed_from_u64(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], Shape::d4(1, 1, 2, 2));
        let mut pool = GlobalAvgPool::new();
        let mut ctx = ForwardCtx::train(&mut rng);
        let y = pool.forward(&x, &mut ctx);
        assert_eq!(y.data(), &[4.0]);
        let g = pool.backward(&Tensor::ones(Shape::d2(1, 1)));
        assert_eq!(g.data(), &[0.25; 4]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_ragged_input() {
        let mut rng = Rng::seed_from_u64(3);
        let x = Tensor::zeros(Shape::d4(1, 1, 5, 5));
        let mut ctx = ForwardCtx::eval(&mut rng);
        MaxPool2d::new(2).forward(&x, &mut ctx);
    }
}
