//! Term Revealing kernel benchmarks: the receding-water pass, the
//! term-pair counting behind Figs. 5/15, the per-group histogram, and a
//! cold TR weight prepare. Includes the DESIGN.md ablation of group size
//! vs reveal cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tr_core::{group_pair_histogram, term_pairs_total_packed, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_nn::{prepare_weights, Precision};
use tr_quant::{calibrate_max_abs, quantize, QTensor};
use tr_tensor::{Rng, Shape, Tensor};

fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
    let mut rng = Rng::seed_from_u64(seed);
    let t = Tensor::randn(Shape::d2(rows, cols), 0.3, &mut rng);
    quantize(&t, calibrate_max_abs(&t, 8))
}

fn bench_reveal(c: &mut Criterion) {
    let qw = quantized(64, 512, 1);
    let mut group = c.benchmark_group("fig16/reveal_64x512");
    group.throughput(Throughput::Elements(qw.numel() as u64));
    for g in [2usize, 8, 32] {
        let cfg = TrConfig::new(g, g + g / 2); // α = 1.5
        group.bench_with_input(BenchmarkId::from_parameter(format!("g{g}")), &cfg, |b, cfg| {
            b.iter(|| {
                PackedTermMatrix::from_weights(black_box(&qw), Encoding::Hese).reveal(cfg)
            })
        });
    }
    group.finish();
}

fn bench_pair_counting(c: &mut Criterion) {
    let qw = quantized(64, 256, 2);
    let qx = quantized(256, 32, 3);
    let wm = PackedTermMatrix::from_weights(&qw, Encoding::Binary);
    let xm = PackedTermMatrix::from_data_transposed(&qx, Encoding::Binary);
    c.bench_function("fig15/term_pairs_total_64x256x32", |b| {
        b.iter(|| term_pairs_total_packed(black_box(&wm), black_box(&xm)))
    });
    c.bench_function("fig5/group_pair_histogram_g16", |b| {
        b.iter(|| group_pair_histogram(black_box(&wm), black_box(&xm), 16))
    });
}

/// A cold `prepare_weights` of the MLP's 512x784 `Linear` at two
/// default-ladder rungs and at g8 k4 s1.
fn bench_prepare(c: &mut Criterion) {
    let w = Tensor::randn(Shape::d2(512, 784), 0.05, &mut Rng::seed_from_u64(3));
    let mut group = c.benchmark_group("prepare/tr/512x784");
    group.throughput(Throughput::Elements(w.numel() as u64));
    for (k, s) in [(24usize, 3usize), (8, 2), (4, 1)] {
        let precision = Precision::Tr(TrConfig::new(8, k).with_data_terms(s));
        group.bench_function(format!("g8k{k}s{s}"), |b| {
            b.iter(|| prepare_weights(black_box(&w), &precision))
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

criterion_group!{
    name = benches;
    config = quick();
    targets = bench_reveal, bench_pair_counting, bench_prepare
}
criterion_main!(benches);
