//! Observation-only guarantee of the `tr-obs` layer.
//!
//! Instrumentation threaded through the numeric pipeline must never
//! change what the pipeline computes: every reveal scan, term matmul,
//! and systolic execution has to produce bit-identical outputs whether
//! the recorder is enabled or disabled. These tests run the same
//! seeded pipeline under both recorder states and compare the results
//! exactly, then bound the disabled-path cost with a smoke test so a
//! future "cheap" counter cannot quietly become a hot-loop hit.

use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Instant;
use tr_core::{packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_hw::SystolicArray;
use tr_obs::{recorder, set_enabled, Counter};
use tr_quant::{calibrate_max_abs, quantize};
use tr_tensor::{Rng, Shape, Tensor};

/// `set_enabled` is process-global, so every test that toggles it holds
/// this lock; parallel test threads must not interleave phases.
static RECORDER_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    RECORDER_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Everything the instrumented pipeline computes, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct PipelineOut {
    revealed: PackedTermMatrix,
    matmul: Vec<i64>,
    systolic: Vec<i64>,
    cycles: u64,
}

/// One full pass over the instrumented call sites: quantize, reveal
/// (core.reveal.* counters), term matmul (core.matmul.* counters +
/// span), and the functional systolic array (hw.systolic.* histogram,
/// converter counters).
fn run_pipeline(seed: u64) -> PipelineOut {
    let mut rng = Rng::seed_from_u64(seed);
    let w = Tensor::randn(Shape::d2(12, 32), 0.3, &mut rng);
    let x = Tensor::randn(Shape::d2(32, 6), 0.3, &mut rng);
    let qw = quantize(&w, calibrate_max_abs(&w, 8));
    let qx = quantize(&x, calibrate_max_abs(&x, 8));
    let cfg = TrConfig::new(8, 12).with_data_terms(3);
    let wm = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
    let xm = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(3);
    let matmul = packed_term_matmul_i64(&wm, &xm);
    let array = SystolicArray { rows: 4, cols: 4 };
    let (systolic, cycles) = array.execute(&wm, &xm, cfg.group_size).expect("valid operands");
    PipelineOut { revealed: wm, matmul, systolic, cycles }
}

proptest! {
    #[test]
    fn pipeline_is_bit_identical_with_recorder_on_and_off(seed in 0u64..1024) {
        let _g = gate();
        set_enabled(false);
        let off = run_pipeline(seed);
        set_enabled(true);
        recorder().reset();
        let on = run_pipeline(seed);
        let snap = recorder().snapshot();
        set_enabled(false);
        prop_assert_eq!(&off, &on);
        // The enabled pass must actually have observed the work — a
        // silently dead recorder would make this test vacuous.
        prop_assert!(snap.counter("core.reveal.groups") > 0);
        prop_assert!(snap.counter("core.matmul.cells") > 0);
        prop_assert!(snap.counter("hw.systolic.beats") > 0);
    }
}

#[test]
fn disabled_recorder_counts_nothing() {
    let _g = gate();
    set_enabled(true);
    recorder().reset();
    set_enabled(false);
    let before = recorder().snapshot();
    let _ = run_pipeline(42);
    let after = recorder().snapshot();
    assert_eq!(before.counter("core.reveal.groups"), after.counter("core.reveal.groups"));
    assert_eq!(before.counter("core.matmul.calls"), after.counter("core.matmul.calls"));
    assert_eq!(before.counter("hw.systolic.beats"), after.counter("hw.systolic.beats"));
    assert!(after.span("core.matmul").is_none() || {
        let b = before.span("core.matmul").map_or(0, |s| s.count);
        after.span("core.matmul").map_or(0, |s| s.count) == b
    });
}

#[test]
fn disabled_counter_overhead_smoke_bound() {
    let _g = gate();
    set_enabled(false);
    static SMOKE: Counter = Counter::new("test.obs.smoke");
    let t0 = Instant::now();
    for i in 0..1_000_000u64 {
        SMOKE.add(i & 1);
    }
    let elapsed = t0.elapsed();
    // A disabled counter is one relaxed atomic load; even an
    // unoptimized debug build does a million of those in well under
    // half a second. Catches an accidental lock or syscall, nothing
    // subtler.
    assert!(
        elapsed.as_millis() < 500,
        "1e6 disabled Counter::add took {elapsed:?} — disabled path is no longer cheap"
    );
    assert_eq!(SMOKE.get(), 0, "disabled counter must not accumulate");
}
