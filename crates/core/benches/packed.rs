//! Packed term kernels at the two shapes the models actually run: an MLP
//! hidden layer (batch × 256 → 128) and an im2col'd conv tile (C·k²
//! reduction over a feature-map of patches). Covers the term matmul and
//! the histogram reveal, so a regression in either is visible without
//! running the full `repro bench` experiment.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tr_core::{try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
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
    targets = bench_matmul, bench_reveal
}
criterion_main!(benches);
