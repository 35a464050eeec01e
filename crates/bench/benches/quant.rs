//! Quantization-kernel benchmarks (the Fig. 17 / Fig. 18 machinery):
//! calibration, quantize/dequantize round trips, per-value term
//! truncation, the run-time activation cap, term-plane packing, and the
//! error metrics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tr_core::PackedTermMatrix;
use tr_encoding::Encoding;
use tr_nn::FakeQuant;
use tr_quant::{calibrate_max_abs, dequant_error, quantize, truncate_terms, QuantParams};
use tr_tensor::{Rng, Shape, Tensor};

fn weight_tensor() -> Tensor {
    let mut rng = Rng::seed_from_u64(18);
    Tensor::randn(Shape::d2(128, 512), 0.3, &mut rng)
}

fn bench_quantize(c: &mut Criterion) {
    let w = weight_tensor();
    let mut group = c.benchmark_group("fig18/quantize_128x512");
    group.throughput(Throughput::Elements(w.numel() as u64));
    for bits in [4u8, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(format!("{bits}bit")), &bits, |b, &bits| {
            b.iter(|| {
                let params = calibrate_max_abs(black_box(&w), bits);
                quantize(&w, params)
            })
        });
    }
    group.finish();
}

fn bench_truncate(c: &mut Criterion) {
    let w = weight_tensor();
    let q = quantize(&w, calibrate_max_abs(&w, 8));
    let mut group = c.benchmark_group("fig17/truncate_top3_128x512");
    group.throughput(Throughput::Elements(q.numel() as u64));
    for enc in [Encoding::Binary, Encoding::Hese] {
        group.bench_with_input(BenchmarkId::from_parameter(enc.name()), &enc, |b, &enc| {
            b.iter(|| truncate_terms(enc, black_box(&q), 3))
        });
    }
    group.finish();
}

/// The data-side cap of Table III as inference runs it: quantize a
/// post-ReLU activation tensor (VGG's second conv input at batch 8),
/// keep its top `s` HESE terms per value, dequantize.
fn bench_act_cap(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(17);
    let x = Tensor::randn(Shape::d4(8, 24, 32, 32), 1.0, &mut rng).map(|v| v.max(0.0));
    let params = QuantParams { scale: x.max_abs() / 127.0, bits: 8 };
    let mut group = c.benchmark_group("fig17/act_cap");
    group.throughput(Throughput::Elements(x.numel() as u64));
    for s in [1usize, 2, 3] {
        let mut fq = FakeQuant {
            act_params: Some(params),
            act_cap: Some((Encoding::Hese, s)),
            ..FakeQuant::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(format!("s{s}")), &s, |b, _| {
            b.iter(|| fq.transform_input(black_box(&x)))
        });
    }
    group.finish();
}

/// Weight preparation's encode step: a `(128, 512)` 8-bit weight matrix
/// into packed term planes, per encoding.
fn bench_pack_weights(c: &mut Criterion) {
    let w = weight_tensor();
    let q = quantize(&w, calibrate_max_abs(&w, 8));
    let mut group = c.benchmark_group("packed/from_weights");
    group.throughput(Throughput::Elements(q.numel() as u64));
    for enc in Encoding::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(enc.name()), &enc, |b, &enc| {
            b.iter(|| PackedTermMatrix::from_weights(black_box(&q), enc))
        });
    }
    group.finish();
}

fn bench_error_metrics(c: &mut Criterion) {
    let w = weight_tensor();
    let q = quantize(&w, calibrate_max_abs(&w, 6));
    c.bench_function("fig18/dequant_error_128x512", |b| {
        b.iter(|| dequant_error(black_box(&q), black_box(&w)))
    });
}

fn quick() -> Criterion {
    // Single-core CI budget: fewer samples, shorter windows.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!{
    name = benches;
    config = quick();
    targets = bench_quantize, bench_truncate, bench_act_cap, bench_pack_weights, bench_error_metrics
}
criterion_main!(benches);
