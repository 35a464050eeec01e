//! Packed term kernels at the two shapes the models actually run: an MLP
//! hidden layer (batch × 256 → 128) and an im2col'd conv tile (C·k²
//! reduction over a feature-map of patches). Covers the term matmul and
//! the histogram reveal, so a regression in either is visible without
//! running the full `repro bench` experiment. `packed/serial` runs the
//! matmul at the integer `Linear` shapes of the perfbench workloads,
//! batch-major data planes against TR weights, and `packed/codes` the
//! same products with the data as capped codes, as `Linear`'s integer
//! forward passes them.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tr_core::{try_code_matmul_i64, try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_quant::{calibrate_max_abs, quantize, QTensor};
use tr_tensor::{Rng, Shape, Tensor};

/// (label, m, k, n): MLP hidden layer and a 3×3×16-channel conv tile
/// over an 8×8 output map.
const SHAPES: [(&str, usize, usize, usize); 2] =
    [("mlp_32x256x128", 32, 256, 128), ("conv_16x144x64", 16, 144, 64)];

fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
    let mut rng = Rng::seed_from_u64(seed);
    let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
    quantize(&t, calibrate_max_abs(&t, 8))
}

fn tr_operands(m: usize, k: usize, n: usize) -> (PackedTermMatrix, PackedTermMatrix) {
    let cfg = TrConfig::new(8, 12).with_data_terms(3);
    let w = PackedTermMatrix::from_weights(&quantized(m, k, 2), Encoding::Hese).reveal(&cfg);
    let x =
        PackedTermMatrix::from_data_transposed(&quantized(k, n, 3), Encoding::Hese).cap_terms(3);
    (w, x)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed/matmul");
    for (label, m, k, n) in SHAPES {
        group.throughput(Throughput::Elements((m * k * n) as u64));
        let (pw, px) = tr_operands(m, k, n);
        group.bench_function(BenchmarkId::new("packed", label), |b| {
            b.iter(|| {
                try_packed_term_matmul_i64(black_box(&pw), black_box(&px))
                    .expect("reduction dims agree")
            })
        });
    }
    group.finish();
}

/// (label, batch, in, out, g, k, s): `mlp_serve`'s first Linear at batch
/// 1, `mlp_int_k8`'s at batch 32, and `vgg_tr_k8`'s `linear192x1536` at
/// batch 8.
const LINEAR_SITES: [(&str, usize, usize, usize, usize, usize, usize); 3] = [
    ("1x784x512_g8k24s3", 1, 784, 512, 8, 24, 3),
    ("32x784x512_g8k8s2", 32, 784, 512, 8, 8, 2),
    ("8x1536x192_g8k8s2", 8, 1536, 192, 8, 8, 2),
];

fn bench_serial_code_plane(c: &mut Criterion) {
    for (label, batch, k, n, g, budget, s) in LINEAR_SITES {
        let cfg = TrConfig::new(g, budget).with_data_terms(s);
        let data = PackedTermMatrix::from_weights(&quantized(batch, k, 5), Encoding::Hese).cap_terms(s);
        let codes: Vec<i32> =
            data.reconstruct_codes().into_iter().map(|c| i32::try_from(c).expect("8-bit codes")).collect();
        let weights = PackedTermMatrix::from_weights(&quantized(n, k, 6), Encoding::Hese).reveal(&cfg);
        let elements = Throughput::Elements((batch * k * n) as u64);
        let mut group = c.benchmark_group("packed/serial");
        group.throughput(elements);
        group.bench_function(BenchmarkId::new("code_plane", label), |b| {
            b.iter(|| {
                try_packed_term_matmul_i64(black_box(&data), black_box(&weights))
                    .expect("reduction dims agree")
            })
        });
        group.finish();
        let mut group = c.benchmark_group("packed/codes");
        group.throughput(elements);
        group.bench_function(label, |b| {
            b.iter(|| {
                try_code_matmul_i64(black_box(&codes), batch, black_box(&weights))
                    .expect("reduction dims agree")
            })
        });
        group.finish();
    }
}

fn bench_reveal(c: &mut Criterion) {
    let cfg = TrConfig::new(8, 12);
    let mut group = c.benchmark_group("packed/reveal");
    for (label, m, k, _) in SHAPES {
        group.throughput(Throughput::Elements((m * k) as u64));
        let q = quantized(m, k, 4);
        group.bench_function(BenchmarkId::new("packed", label), |b| {
            b.iter(|| PackedTermMatrix::from_weights(black_box(&q), Encoding::Hese).reveal(&cfg))
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    // Single-core CI budget: fewer samples, shorter windows.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_matmul, bench_serial_code_plane, bench_reveal
}
criterion_main!(benches);
