//! Hardware-model benchmarks (Fig. 19 / Tables I–IV machinery): tMAC and
//! pMAC group processing, the comparator front end, and whole-network
//! schedule evaluation. Includes the DESIGN.md ablation of synchronized
//! (bound) vs unsynchronized (straggler) scheduling.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tr_core::{PackedTermMatrix, TrConfig};
use tr_encoding::{Encoding, TermExpr};
use tr_hw::{ControlRegisters, HeseEncoderUnit, Pmac, SystolicArray, TermComparator, Tmac, TrSystem};
use tr_tensor::Rng;

#[allow(clippy::cast_possible_truncation)] // synthetic codes stay in the i8 band
fn group_operands(g: usize, seed: u64) -> (Vec<TermExpr>, Vec<TermExpr>, Vec<i32>, Vec<i32>) {
    let mut rng = Rng::seed_from_u64(seed);
    let w: Vec<i32> = (0..g).map(|_| (rng.normal() * 40.0) as i32).collect();
    let x: Vec<i32> = (0..g).map(|_| (rng.normal().abs() * 40.0).min(127.0) as i32).collect();
    let we = w.iter().map(|&v| Encoding::Hese.terms_of(v)).collect();
    let xe = x.iter().map(|&v| Encoding::Hese.terms_of(v)).collect();
    (we, xe, w, x)
}

fn bench_macs(c: &mut Criterion) {
    let (we, xe, w, x) = group_operands(8, 1);
    let mut group = c.benchmark_group("table3/mac_group_g8");
    group.bench_function("tmac", |b| {
        b.iter(|| {
            let mut cell = Tmac::new();
            cell.process_group(black_box(&we), black_box(&xe));
            cell.value()
        })
    });
    group.bench_function("pmac", |b| {
        b.iter(|| {
            let mut cell = Pmac::new();
            cell.process_group(black_box(&w), black_box(&x));
            cell.value()
        })
    });
    group.finish();
}

fn bench_comparator_front_end(c: &mut Criterion) {
    #[allow(clippy::cast_sign_loss)] // i*37%128 is non-negative
    let values: Vec<u32> = (0..8).map(|i| (i * 37 % 128) as u32).collect();
    let streams: Vec<_> = values.iter().map(|&v| HeseEncoderUnit::encode(8, v)).collect();
    let comparator = TermComparator::new(8, 12);
    c.bench_function("table1/comparator_group_g8k12", |b| {
        b.iter(|| comparator.process_group(black_box(&streams)))
    });
}

fn bench_network_schedules(c: &mut Criterion) {
    let sys = TrSystem::default();
    let mut group = c.benchmark_group("fig19/simulate_resnet18");
    let shapes = tr_hw::netlists::resnet18();
    for (label, regs) in [
        ("qt_w8", ControlRegisters::for_qt(8)),
        ("tr_g8k12s3", ControlRegisters::for_tr(&TrConfig::new(8, 12).with_data_terms(3))),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &regs, |b, regs| {
            b.iter(|| sys.simulate_network(black_box(&shapes), regs, None))
        });
    }
    group.finish();
}

fn bench_sync_vs_straggler(c: &mut Criterion) {
    // Ablation: functional array execution with TR (tight beats) vs raw
    // encodings (straggler-bound beats) on the same operands.
    let make = |cap: bool| -> (PackedTermMatrix, PackedTermMatrix) {
        let mut rng2 = Rng::seed_from_u64(3);
        #[allow(clippy::cast_possible_truncation)] // ±~200 fits i32
        let w: Vec<i32> = (0..8 * 64).map(|_| (rng2.normal() * 40.0) as i32).collect();
        #[allow(clippy::cast_possible_truncation)] // clamped to 127
        let x: Vec<i32> =
            (0..4 * 64).map(|_| (rng2.normal().abs() * 40.0).min(127.0) as i32).collect();
        let w = PackedTermMatrix::from_codes(&w, 8, 64, Encoding::Hese);
        let x = PackedTermMatrix::from_codes(&x, 4, 64, Encoding::Hese);
        (w, if cap { x.cap_terms(3) } else { x })
    };
    let array = SystolicArray { rows: 4, cols: 4 };
    let mut group = c.benchmark_group("ablation/sync_vs_straggler");
    let (w_raw, x_raw) = make(false);
    group.bench_function("straggler_raw_terms", |b| {
        b.iter(|| array.execute(black_box(&w_raw), black_box(&x_raw), 8))
    });
    let (w_tr, x_tr) = make(true);
    group.bench_function("tr_capped_terms", |b| {
        b.iter(|| array.execute(black_box(&w_tr), black_box(&x_tr), 8))
    });
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
    targets = bench_macs,
    bench_comparator_front_end,
    bench_network_schedules,
    bench_sync_vs_straggler
}
criterion_main!(benches);
