//! Hardware-model integration: the full Fig. 9 datapath — HESE encoder →
//! term comparator → tMAC → coefficient vector → binary stream converter
//! → ReLU — must compute exactly what the algorithmic reference computes,
//! and the system-level schedules must honor the paper's relative claims.

use tr_core::{packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_hw::comparator::streams_to_terms;
use tr_hw::{
    BinaryStreamConverter, ControlRegisters, HeseEncoderUnit, ReluUnit, SystolicArray,
    TermComparator, Tmac, TrSystem,
};
use tr_quant::{calibrate_max_abs, quantize};
use tr_tensor::{Rng, Shape, Tensor};

/// Push a batch of non-negative 8-bit values through the hardware front
/// end (HESE encoder + comparator) and return the revealed term
/// expressions.
fn hw_front_end(values: &[u32], g: usize, k: usize) -> Vec<tr_encoding::TermExpr> {
    let comparator = TermComparator::new(g, k);
    let mut out = Vec::with_capacity(values.len());
    for group in values.chunks(g) {
        let streams: Vec<_> = group.iter().map(|&v| HeseEncoderUnit::encode(8, v)).collect();
        let filtered = comparator.process_group(&streams);
        for i in 0..group.len() {
            out.push(streams_to_terms(&filtered.magnitude[i], &filtered.sign[i]));
        }
    }
    out
}

#[test]
fn full_datapath_matches_algorithmic_tr() {
    let mut rng = Rng::seed_from_u64(1);
    let (g, k, s) = (8usize, 12usize, 3usize);
    for _ in 0..20 {
        // Non-negative data (post-ReLU), signed weights.
        #[allow(clippy::cast_possible_truncation)] // below(128) < 128
        let data: Vec<u32> = (0..g).map(|_| rng.below(128) as u32).collect();
        #[allow(clippy::cast_possible_truncation)] // ±~200 fits i32
        let weights: Vec<i32> = (0..g).map(|_| (rng.normal() * 40.0) as i32).collect();

        // Hardware path, as in Fig. 9: the encoder + comparator apply
        // run-time TR to the data stream; weights were prepared offline
        // (here with a per-value s-term cap).
        let data_terms = hw_front_end(&data, g, k);
        let wexprs: Vec<_> = weights
            .iter()
            .map(|&w| {
                Encoding::Hese
                    .terms_of(tr_quant::truncate::truncate_value(Encoding::Hese, w, s))
            })
            .collect();
        let mut tmac = Tmac::new();
        tmac.process_group(&wexprs, &data_terms);

        // Algorithmic path.
        let dexprs: Vec<_> = data.iter().map(|&v| Encoding::Hese.terms_of(v as i32)).collect();
        let revealed = tr_core::reveal_group(&dexprs, k).revealed;
        let expected: i64 = wexprs.iter().zip(&revealed).map(|(w, x)| w.value() * x.value()).sum();
        assert_eq!(tmac.value(), expected, "weights {weights:?} data {data:?}");

        // Back end: converter + ReLU.
        let conv = BinaryStreamConverter::new();
        let stream = conv.convert(tmac.accumulator());
        let mut relu = ReluUnit::new();
        let rectified = BinaryStreamConverter::decode(&relu.rectify(&stream));
        assert_eq!(rectified, expected.max(0));
    }
}

#[test]
fn functional_array_agrees_with_reference_matmul_after_tr() {
    let mut rng = Rng::seed_from_u64(2);
    let w = Tensor::randn(Shape::d2(5, 32), 0.3, &mut rng);
    let x = Tensor::randn(Shape::d2(32, 3), 0.3, &mut rng).map(f32::abs);
    let qw = quantize(&w, calibrate_max_abs(&w, 8));
    let qx = quantize(&x, calibrate_max_abs(&x, 8));
    let cfg = TrConfig::new(8, 10).with_data_terms(3);
    let wm = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
    let xm = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
    let expect = packed_term_matmul_i64(&wm, &xm);

    let array = SystolicArray { rows: 2, cols: 3 };
    let (got, cycles) = array.execute(&wm, &xm, 8).unwrap();
    assert_eq!(got, expect);
    // Synchronized beats are bounded by k x s.
    let beats = (32usize / 8) * wm.rows().div_ceil(2) * xm.rows().div_ceil(3);
    assert!(cycles <= (beats * cfg.pair_bound(3)) as u64);
}

#[test]
fn register_switch_round_trips() {
    let qt = ControlRegisters::for_qt(8);
    let cfg = TrConfig::new(8, 16).with_data_terms(3);
    let tr = ControlRegisters::for_tr(&cfg);
    let there = qt.switch_cycles(&tr);
    let back = tr.switch_cycles(&qt);
    assert_eq!(there, back);
    assert!(there > 0 && there <= 6);
    // Switching must be far below even one layer's compute.
    let sys = TrSystem::default();
    let layer = tr_hw::LayerShape::conv(64, 576, 196);
    let report = sys.simulate_layer(layer, &tr, None);
    assert!(report.cycles > 100 * there);
}

#[test]
fn tr_latency_and_energy_beat_qt_at_network_scale() {
    let sys = TrSystem::default();
    let shapes = tr_hw::netlists::resnet18();
    let qt = ControlRegisters::for_qt(8);
    let tr = ControlRegisters::for_tr(&TrConfig::new(8, 12).with_data_terms(3));
    let r_qt = sys.simulate_network(&shapes, &qt, None);
    let r_tr = sys.simulate_network(&shapes, &tr, None);
    let lat = r_qt.latency_ms / r_tr.latency_ms;
    let eng = r_qt.energy_fa / r_tr.energy_fa;
    assert!(lat > 4.0 && lat < 20.0, "latency gain {lat}");
    assert!(eng > 2.0 && eng < 20.0, "energy gain {eng}");
    // DRAM traffic identical: TR does not change weight storage (§V-F).
    assert!(r_tr.dram_bytes <= r_qt.dram_bytes);
}

#[test]
fn comparator_matches_receding_water_on_signed_weight_style_groups() {
    // Cross-validation at a different (g, k) grid than the unit tests.
    let mut rng = Rng::seed_from_u64(3);
    for &(g, k) in &[(2usize, 3usize), (4, 5), (8, 16)] {
        for _ in 0..20 {
            #[allow(clippy::cast_possible_truncation)] // below(256) < 256
            let values: Vec<u32> = (0..g).map(|_| rng.below(256) as u32).collect();
            let streams: Vec<_> = values.iter().map(|&v| HeseEncoderUnit::encode(8, v)).collect();
            let out = TermComparator::new(g, k).process_group(&streams);
            let exprs: Vec<_> =
                values.iter().map(|&v| Encoding::Hese.terms_of(v as i32)).collect();
            let reference = tr_core::reveal_group(&exprs, k);
            for i in 0..g {
                let hw = streams_to_terms(&out.magnitude[i], &out.sign[i]);
                assert_eq!(hw.value(), reference.revealed[i].value());
            }
        }
    }
}
