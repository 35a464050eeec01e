//! Matmul benchmarks across the three execution domains: float (training
//! substrate), integer (QT reference), and term-pair (what the tMAC
//! hardware does, through the planned packed kernel), with and without
//! TR.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tr_core::{try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_quant::{calibrate_max_abs, quantize, QTensor};
use tr_tensor::matmul::{matmul_into_with, matmul_transb_into_with, Tier};
use tr_tensor::{conv2d_into, im2col_into, Conv2dGeometry, Rng, Shape, Tensor};

const M: usize = 48;
const K: usize = 256;
const N: usize = 32;

fn float_pair() -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from_u64(10);
    (
        Tensor::randn(Shape::d2(M, K), 0.3, &mut rng),
        Tensor::randn(Shape::d2(K, N), 0.3, &mut rng),
    )
}

fn quantized_pair() -> (QTensor, QTensor) {
    let (a, b) = float_pair();
    (quantize(&a, calibrate_max_abs(&a, 8)), quantize(&b, calibrate_max_abs(&b, 8)))
}

fn bench_domains(c: &mut Criterion) {
    let (a, b) = float_pair();
    let (qa, qb) = quantized_pair();
    let mut group = c.benchmark_group("matmul/48x256x32");
    group.throughput(Throughput::Elements((M * K * N) as u64));
    group.bench_function("float32", |bch| bch.iter(|| black_box(&a).matmul(black_box(&b))));
    group.bench_function("int_qt8", |bch| {
        bch.iter(|| black_box(&qa).matmul_i64(black_box(&qb)))
    });
    let wm = PackedTermMatrix::from_weights(&qa, Encoding::Hese);
    let xm = PackedTermMatrix::from_data_transposed(&qb, Encoding::Hese);
    group.bench_function("term_pairs_raw", |bch| {
        bch.iter(|| {
            try_packed_term_matmul_i64(black_box(&wm), black_box(&xm))
                .expect("reduction dims agree")
        })
    });
    let cfg = TrConfig::new(8, 12).with_data_terms(3);
    let wm_tr = PackedTermMatrix::from_weights(&qa, Encoding::Hese).reveal(&cfg);
    let xm_tr = PackedTermMatrix::from_data_transposed(&qb, Encoding::Hese).cap_terms(3);
    group.bench_function("term_pairs_tr_g8k12s3", |bch| {
        bch.iter(|| {
            try_packed_term_matmul_i64(black_box(&wm_tr), black_box(&xm_tr))
                .expect("reduction dims agree")
        })
    });
    group.finish();
}

fn bench_transb(c: &mut Criterion) {
    let (a, b) = float_pair();
    let bt = b.transpose2d();
    c.bench_function("matmul/transb_48x256x32", |bch| {
        bch.iter(|| black_box(&a).matmul_transb(black_box(&bt)))
    });
    // The float `Linear` forwards of perfbench's MLP and VGG classifier
    // at batch 32 (`M×K×N`, activations times weights transposed), on
    // every tier this host runs.
    let mut rng = Rng::seed_from_u64(14);
    let mut group = c.benchmark_group("matmul/transb");
    for (m, k, n) in [(32usize, 784usize, 512usize), (32, 1536, 192)] {
        let x = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let w = Tensor::randn(Shape::d2(n, k), 0.05, &mut rng);
        let mut out = vec![0.0f32; m * n];
        group.throughput(Throughput::Elements((m * k * n) as u64));
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            group.bench_function(format!("{m}x{k}x{n}/{}", tier.name()), |bch| {
                bch.iter(|| {
                    out.fill(0.0);
                    matmul_transb_into_with(tier, black_box(x.data()), black_box(w.data()), &mut out, m, k, n);
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

/// VGG's six 3x3 convolutions as (in channels, out channels, side): the
/// float lowering perfbench's `vgg_tr_k8` runs once per image.
const VGG_CONVS: [(usize, usize, usize); 6] =
    [(3, 24, 32), (24, 24, 32), (24, 48, 16), (48, 48, 16), (48, 96, 8), (96, 96, 8)];

fn vgg_geometry(c: usize, side: usize) -> Conv2dGeometry {
    Conv2dGeometry { in_channels: c, in_h: side, in_w: side, k_h: 3, k_w: 3, stride: 1, pad: 1 }
}

/// A post-ReLU image: about half its pixels are zero, as in the network.
fn post_relu_image(c: usize, side: usize, rng: &mut Rng) -> Vec<f32> {
    Tensor::randn(Shape::d3(c, side, side), 1.0, rng).data().iter().map(|v| v.max(0.0)).collect()
}

/// The conv GEMM (weights `O×K` times patches `K×N`) at each VGG shape,
/// on every f32 tier this host runs.
fn bench_conv_f32(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(11);
    let mut group = c.benchmark_group("matmul/conv_f32");
    for (cin, cout, side) in VGG_CONVS {
        let g = vgg_geometry(cin, side);
        let (k, n) = (g.patch_len(), g.n_patches());
        let w = Tensor::randn(Shape::d2(cout, k), 0.3, &mut rng);
        let mut cols = Vec::new();
        im2col_into(&post_relu_image(cin, side, &mut rng), &g, &mut cols);
        let mut out = vec![0.0f32; cout * n];
        group.throughput(Throughput::Elements((cout * k * n) as u64));
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            group.bench_function(format!("{cout}x{k}x{n}/{}", tier.name()), |bch| {
                bch.iter(|| {
                    out.fill(0.0);
                    matmul_into_with(tier, black_box(w.data()), black_box(&cols), &mut out, cout, k, n);
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

/// The same convs as `matmul/conv_f32` through `conv2d_into`, the
/// `Conv2d` eval path: the GEMM reads its B rows from a zero-padded copy
/// of the image, so a row here replaces an `im2col` row plus a
/// `matmul/conv_f32` row. It runs on the host's detected tier (the
/// tier-forced conv entry is private to tr-tensor).
fn bench_conv_f32_direct(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(13);
    let mut group = c.benchmark_group("matmul/conv_f32_direct");
    let tier = Tier::detect();
    for (cin, cout, side) in VGG_CONVS {
        let g = vgg_geometry(cin, side);
        let (k, n) = (g.patch_len(), g.n_patches());
        let w = Tensor::randn(Shape::d2(cout, k), 0.3, &mut rng);
        let x = post_relu_image(cin, side, &mut rng);
        let mut out = vec![0.0f32; cout * n];
        let mut padded = Vec::new();
        group.throughput(Throughput::Elements((cout * k * n) as u64));
        group.bench_function(format!("{cout}x{k}x{n}/{}", tier.name()), |bch| {
            bch.iter(|| {
                out.fill(0.0);
                conv2d_into(black_box(w.data()), black_box(&x), &g, &mut out, cout, &mut padded);
                black_box(&out);
            })
        });
    }
    group.finish();
}

/// im2col of each VGG conv input.
fn bench_im2col(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(12);
    let mut group = c.benchmark_group("im2col");
    for (cin, _, side) in VGG_CONVS {
        let g = vgg_geometry(cin, side);
        let x = post_relu_image(cin, side, &mut rng);
        let mut cols = Vec::new();
        group.throughput(Throughput::Elements((g.patch_len() * g.n_patches()) as u64));
        group.bench_function(format!("{cin}x{side}x{side}"), |bch| {
            bch.iter(|| {
                im2col_into(black_box(&x), &g, &mut cols);
                black_box(&cols);
            })
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
    targets = bench_domains, bench_transb, bench_conv_f32, bench_conv_f32_direct, bench_im2col
}
criterion_main!(benches);
