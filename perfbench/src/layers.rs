//! Per-layer timing for the traced run. Every span here is taken around
//! a call into a crate's public API from the benchmark's side: whole
//! layers through `Layer::try_forward` (tr-nn), the activation transform
//! through `FakeQuant::transform_input` (tr-nn, reaching the tr-quant /
//! tr-encoding term cap), the first `Linear`'s integer stages through
//! tr-quant and tr-core, and each convolution's im2col and matmul through
//! tr-tensor. Each replay is checked bit for bit against the layer's own
//! output, so a replay that drifted from what the model runs fails the
//! run instead of reporting a number for code that did not execute.

use crate::model::ms_since;
use crate::Metrics;
use std::time::Instant;
use tr_core::{
    term_pairs_total_packed, try_packed_term_matmul_i64_planned_cached, PackedTermMatrix,
};
use tr_nn::{ForwardCtx, Layer};
use tr_quant::{QTensor, QuantParams};
use tr_tensor::matmul::matmul_into;
use tr_tensor::{im2col_into, Conv2dGeometry, Rng, Shape, Tensor};

/// Metric name of layer `i`'s forward time.
pub fn layer_metric(i: usize, name: &str) -> String {
    format!("nn.{i:02}.{name}.ms")
}

/// Metric name of the activation transform at layer `i`'s quant site.
pub fn act_metric(i: usize, name: &str) -> String {
    format!("nn.act_transform.{i:02}.{name}.ms")
}

/// Wall time of each layer across layer-by-layer forwards.
pub struct LayerClock {
    names: Vec<String>,
    ms: Vec<Vec<f64>>,
}

impl LayerClock {
    /// A clock for `layers`, with no forwards recorded.
    pub fn new(layers: &[Box<dyn Layer>]) -> LayerClock {
        LayerClock {
            names: layers.iter().map(|l| l.name()).collect(),
            ms: vec![Vec::new(); layers.len()],
        }
    }

    /// Forward `x` through `layers` one `Layer::try_forward` call at a
    /// time, timing each. Returns the output and, when `keep_inputs`, the
    /// tensor each layer received followed by the final output.
    pub fn forward(
        &mut self,
        layers: &mut [Box<dyn Layer>],
        x: &Tensor,
        rng: &mut Rng,
        keep_inputs: bool,
    ) -> Result<(Tensor, Vec<Tensor>), String> {
        let mut ctx = ForwardCtx::eval(rng);
        let mut seen = Vec::new();
        let mut cur = x.clone();
        for (i, layer) in layers.iter_mut().enumerate() {
            let t = Instant::now();
            let next = layer
                .try_forward(&cur, &mut ctx)
                .map_err(|e| e.to_string())?;
            self.ms[i].push(ms_since(t));
            if keep_inputs {
                seen.push(cur);
            }
            cur = next;
        }
        if keep_inputs {
            seen.push(cur.clone());
        }
        Ok((cur, seen))
    }

    /// Median time of each layer.
    pub fn report(&self, out: &mut Metrics) {
        for (i, (name, ms)) in self.names.iter().zip(&self.ms).enumerate() {
            if let Some(m) = crate::stats::median(ms) {
                out.insert(layer_metric(i, name), (m, "ms"));
            }
        }
    }
}

/// Stage times gathered by [`replay`], one sample per replayed batch.
#[derive(Default)]
struct StageTimes {
    act: Vec<(String, Vec<f64>)>,
    pack: Vec<f64>,
    matmul: Vec<f64>,
    rescale: Vec<f64>,
    pairs_per_mac: Vec<f64>,
    im2col: Vec<f64>,
    conv_matmul: Vec<f64>,
}

fn push_named(series: &mut Vec<(String, Vec<f64>)>, name: String, v: f64) {
    match series.iter_mut().find(|(n, _)| *n == name) {
        Some((_, xs)) => xs.push(v),
        None => series.push((name, vec![v])),
    }
}

/// Replay the model's stages on each of `batches`: a timed layer-by-layer
/// forward (into `clock`), then on the tensors each layer received, the
/// activation transform of every quant site, the first `Linear`'s integer
/// pipeline and every convolution's im2col + matmul.
///
/// # Errors
/// When a forward fails or a replayed stage disagrees with the layer.
pub fn replay(
    layers: &mut [Box<dyn Layer>],
    batches: &[Tensor],
    clock: &mut LayerClock,
    rng: &mut Rng,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut st = StageTimes::default();
    for x in batches {
        let (_, seen) = clock.forward(layers, x, rng, true)?;
        let mut core_done = false;
        let (mut im2col_ms, mut conv_matmul_ms) = (0.0, 0.0);
        for (i, layer) in layers.iter_mut().enumerate() {
            let name = layer.name();
            let (input, output) = (&seen[i], &seen[i + 1]);
            let bias = bias_of(layer.as_mut());
            let mut result = Ok(());
            layer.visit_quant_sites(&mut |site| {
                let t = Instant::now();
                let xq = site.fq.transform_input(input);
                push_named(&mut st.act, act_metric(i, &name), ms_since(t));
                result = match site.name.as_str() {
                    "linear" if !core_done => {
                        core_done = true;
                        replay_linear(site.fq, &xq, &bias, output, &mut st)
                    }
                    "conv" => {
                        let w = site.fq.effective_weight(&site.weight.value);
                        replay_conv(w, &xq, &bias, output).map(|(a, b)| {
                            im2col_ms += a;
                            conv_matmul_ms += b;
                        })
                    }
                    _ => Ok(()),
                }
                .map_err(|e| format!("layer {i} ({name}): {e}"));
            });
            result?;
        }
        if im2col_ms > 0.0 {
            st.im2col.push(im2col_ms);
            st.conv_matmul.push(conv_matmul_ms);
        }
    }
    for (name, xs) in &st.act {
        put(out, name, xs, "ms");
    }
    put(out, "core.act_pack_ms", &st.pack, "ms");
    put(out, "core.matmul_ms", &st.matmul, "ms");
    put(out, "core.rescale_ms", &st.rescale, "ms");
    put(out, "core.term_pairs_per_mac", &st.pairs_per_mac, "pairs");
    put(out, "tensor.im2col_ms", &st.im2col, "ms");
    put(out, "tensor.matmul_ms", &st.conv_matmul, "ms");
    Ok(())
}

fn put(out: &mut Metrics, name: &str, xs: &[f64], unit: &'static str) {
    if let Some(m) = crate::stats::median(xs) {
        out.insert(name.to_string(), (m, unit));
    }
}

fn bias_of(layer: &mut dyn Layer) -> Vec<f32> {
    let mut bias = Vec::new();
    layer.visit_params(&mut |name, p| {
        if name == "bias" {
            bias = p.value.data().to_vec();
        }
    });
    bias
}

/// `Linear`'s integer forward, stage by stage: quantize and pack the
/// activations, plan and run the packed matmul, rescale, add the bias.
fn replay_linear(
    fq: &tr_nn::FakeQuant,
    xq: &Tensor,
    bias: &[f32],
    expect: &Tensor,
    st: &mut StageTimes,
) -> Result<(), String> {
    let (act, wp) = fq
        .act_params
        .zip(fq.weight_params)
        .ok_or("linear site is not calibrated")?;
    let wt = fq
        .weight_terms
        .as_deref()
        .ok_or("linear site has no packed weight terms")?;
    let planner = fq
        .planner
        .as_deref()
        .ok_or("linear site has no matmul planner")?;
    let (batch, features) = xq.shape().as_matrix();
    let outs = bias.len();
    let act = QuantParams {
        scale: act.scale.max(f32::MIN_POSITIVE),
        bits: act.bits,
    };
    let enc = fq.act_cap.map_or(tr_encoding::Encoding::Hese, |(e, _)| e);

    let t = Instant::now();
    let codes: Vec<i32> = xq.data().iter().map(|&v| act.code(v)).collect();
    let q = QTensor::from_codes(codes, act, Shape::d2(batch, features));
    let data = PackedTermMatrix::from_weights(&q, enc);
    st.pack.push(ms_since(t));

    let t = Instant::now();
    let y = try_packed_term_matmul_i64_planned_cached(
        &data,
        None,
        wt,
        fq.weight_planes.as_deref(),
        planner.plan_for(batch),
    )
    .map_err(|e| e.to_string())?;
    st.matmul.push(ms_since(t));

    let t = Instant::now();
    let scale = act.scale * wp.scale;
    let rescaled: Vec<f32> = y.iter().map(|&v| v as f32 * scale).collect();
    st.rescale.push(ms_since(t));

    let pairs = term_pairs_total_packed(&data, wt) as f64;
    st.pairs_per_mac
        .push(pairs / (batch * features * outs) as f64);

    let replayed = rescaled
        .iter()
        .enumerate()
        .map(|(j, &v)| v + bias[j % outs]);
    if !replayed.eq(expect.data().iter().copied()) {
        return Err("integer replay differs from the layer output".to_string());
    }
    Ok(())
}

/// `Conv2d`'s eval forward through tr-tensor: per image, im2col then the
/// weight matmul, then the bias. Returns the (im2col, matmul) ms.
fn replay_conv(
    w: &Tensor,
    xq: &Tensor,
    bias: &[f32],
    expect: &Tensor,
) -> Result<(f64, f64), String> {
    let &[n, c, h, wd] = xq.shape().dims() else {
        return Err("conv input is not NCHW".to_string());
    };
    let &[_, oc, oh, ow] = expect.shape().dims() else {
        return Err("conv output is not NCHW".to_string());
    };
    let g = conv_geometry(c, h, wd, w.shape().dims()[1], oh, ow)?;
    let (patch, np) = (g.patch_len(), g.n_patches());
    let (per_in, per_out) = (c * h * wd, oc * np);
    let mut cols = Vec::new();
    let mut y = vec![0.0f32; n * per_out];
    let (mut im2col_ms, mut matmul_ms) = (0.0, 0.0);
    for i in 0..n {
        let t = Instant::now();
        im2col_into(&xq.data()[i * per_in..(i + 1) * per_in], &g, &mut cols);
        im2col_ms += ms_since(t);
        let t = Instant::now();
        matmul_into(
            w.data(),
            &cols,
            &mut y[i * per_out..(i + 1) * per_out],
            oc,
            patch,
            np,
        );
        matmul_ms += ms_since(t);
    }
    for (j, v) in y.iter_mut().enumerate() {
        *v += bias[(j % per_out) / np];
    }
    if y != expect.data() {
        return Err("im2col + matmul replay differs from the layer output".to_string());
    }
    Ok((im2col_ms, matmul_ms))
}

/// The square-kernel geometry mapping a `c×h×w` input to `oh×ow` with a
/// `patch`-long im2col column; the smallest stride and padding that fit.
fn conv_geometry(
    c: usize,
    h: usize,
    w: usize,
    patch: usize,
    oh: usize,
    ow: usize,
) -> Result<Conv2dGeometry, String> {
    let k = (1..=patch)
        .find(|k| c * k * k == patch)
        .ok_or("weight is not a square kernel")?;
    for stride in 1..=k {
        for pad in 0..k {
            let g = Conv2dGeometry {
                in_channels: c,
                in_h: h,
                in_w: w,
                k_h: k,
                k_w: k,
                stride,
                pad,
            };
            if h + 2 * pad >= k && w + 2 * pad >= k && g.out_h() == oh && g.out_w() == ow {
                return Ok(g);
            }
        }
    }
    Err(format!(
        "no geometry maps {h}x{w} to {oh}x{ow} with a {k}x{k} kernel"
    ))
}
