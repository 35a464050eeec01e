//! Bit-plane popcount GEMM vs the code-plane pair walk at the paper's
//! LeNet-style shape (256×1152×196), across the rung ladder the serve
//! stack actually walks. The bit-plane kernel's advantage grows as the
//! term budget shrinks (fewer live planes → fewer AND+popcount passes),
//! so each rung is its own benchmark id: a regression in the crossover
//! shows up as the tight rungs losing their lead.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tr_core::tune::Isa;
use tr_core::{
    try_bitplane_matmul_i64_blocked, try_bitplane_matmul_i64_with,
    try_packed_term_matmul_i64_planned_cached, BitPlaneMatrix, MatmulPlan, PackedTermMatrix,
    TrConfig,
};
use tr_encoding::Encoding;
use tr_quant::{calibrate_max_abs, quantize, QTensor};
use tr_tensor::{Rng, Shape, Tensor};

/// Paper shape: 256 output channels, 1152 = 128·3·3 im2col reduction,
/// 196 = 14×14 output positions.
const M: usize = 256;
const K: usize = 1152;
const N: usize = 196;

/// (label, weight k, data terms s, data budget k or 0 for cap-only) —
/// the same ladder the `repro bench` bitplane section sweeps.
const RUNGS: [(&str, usize, usize, usize); 3] =
    [("k8_s3", 8, 3, 0), ("k4_s2", 4, 2, 8), ("k2_s1", 2, 1, 4)];

fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
    let mut rng = Rng::seed_from_u64(seed);
    let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
    quantize(&t, calibrate_max_abs(&t, 8))
}

fn operands(wk: usize, s: usize, data_k: usize) -> (PackedTermMatrix, PackedTermMatrix) {
    let wcfg = TrConfig::new(8, wk);
    let w = PackedTermMatrix::from_weights(&quantized(M, K, 2), Encoding::Hese).reveal(&wcfg);
    let mut x = PackedTermMatrix::from_data_transposed(&quantized(K, N, 3), Encoding::Hese);
    if data_k > 0 {
        x = x.reveal(&TrConfig::new(8, data_k));
    }
    (w, x.cap_terms(s))
}

/// The executor with `plan` forced; bit-plane routes get the prebuilt
/// decompositions, so only the kernel is timed.
fn run(
    w: &PackedTermMatrix,
    wp: &BitPlaneMatrix,
    x: &PackedTermMatrix,
    xp: &BitPlaneMatrix,
    plan: MatmulPlan,
) -> Vec<i64> {
    try_packed_term_matmul_i64_planned_cached(w, Some(wp), x, Some(xp), plan)
        .expect("reduction dims agree")
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitplane/matmul");
    group.throughput(Throughput::Elements((M * K * N) as u64));
    for (label, wk, s, data_k) in RUNGS {
        let (w, x) = operands(wk, s, data_k);
        let (bw, bx) = (BitPlaneMatrix::from_packed(&w), BitPlaneMatrix::from_packed(&x));
        group.bench_function(BenchmarkId::new("code_plane", label), |b| {
            b.iter(|| run(black_box(&w), &bw, black_box(&x), &bx, MatmulPlan::ParallelCodePlane))
        });
        group.bench_function(BenchmarkId::new("bit_plane", label), |b| {
            b.iter(|| run(&w, black_box(&bw), &x, black_box(&bx), MatmulPlan::BitPlane))
        });
    }
    group.finish();
}

fn bench_isa_rows(c: &mut Criterion) {
    // The same operands through every popcount row kernel the host can
    // run: AVX512-VPOPCNTDQ, the AVX2 vpshufb-LUT, scalar POPCNT, and
    // the portable software fold. This is the satellite table behind the
    // tune table's ISA tiers — the LUT kernel must beat scalar popcnt,
    // or the AVX2 dispatch tier is mistuned.
    let mut group = c.benchmark_group("bitplane/isa");
    group.throughput(Throughput::Elements((M * K * N) as u64));
    let (w, x) = operands(2, 1, 4);
    let (bw, bx) = (BitPlaneMatrix::from_packed(&w), BitPlaneMatrix::from_packed(&x));
    for isa in Isa::ALL {
        if !isa.available() {
            continue;
        }
        group.bench_function(BenchmarkId::new("rows", isa.name()), |b| {
            b.iter(|| {
                try_bitplane_matmul_i64_with(black_box(&bw), black_box(&bx), isa)
                    .expect("available ISA runs")
            })
        });
    }
    group.finish();
}

fn bench_deep_k(c: &mut Criterion) {
    // Deep-reduction shape (K = 32768 → 512 words per plane row, a
    // data-side plane set several times L2): the whole point of panel
    // blocking. Flat refetches the data-side planes per output row;
    // blocked holds one (column tile × K-panel) slab L2-resident while
    // every output row sweeps it.
    const DM: usize = 256;
    const DK: usize = 32768;
    const DN: usize = 196;
    let mut group = c.benchmark_group("bitplane/deep_k");
    group.sample_size(10);
    group.throughput(Throughput::Elements((DM * DK * DN) as u64));
    let wcfg = TrConfig::new(8, 1);
    let w = PackedTermMatrix::from_weights(&quantized(DM, DK, 4), Encoding::Hese).reveal(&wcfg);
    let x = PackedTermMatrix::from_data_transposed(&quantized(DK, DN, 5), Encoding::Hese)
        .reveal(&TrConfig::new(8, 4))
        .cap_terms(1);
    let (bw, bx) = (BitPlaneMatrix::from_packed(&w), BitPlaneMatrix::from_packed(&x));
    group.bench_function("flat", |b| {
        b.iter(|| run(&w, black_box(&bw), &x, black_box(&bx), MatmulPlan::BitPlane))
    });
    let t = tr_core::tune::active();
    let cols = usize::try_from(t.block_cols).unwrap_or(16).max(1);
    let words = usize::try_from(t.block_words).unwrap_or(512).max(1);
    group.bench_function("blocked", |b| {
        b.iter(|| {
            try_bitplane_matmul_i64_blocked(black_box(&bw), black_box(&bx), cols, words)
                .expect("tile sizes are nonzero")
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    // Plane construction is on the data path for activations (weights
    // are cached), so its cost must stay a small fraction of the matmul.
    let mut group = c.benchmark_group("bitplane/build");
    group.throughput(Throughput::Elements((K * N) as u64));
    let (_, x) = operands(4, 2, 8);
    group.bench_function("from_packed", |b| {
        b.iter(|| BitPlaneMatrix::from_packed(black_box(&x)))
    });
    group.finish();
}

fn quick() -> Criterion {
    // Single-core CI budget: fewer samples, shorter windows.
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_kernels, bench_isa_rows, bench_deep_k, bench_build
}
criterion_main!(benches);
