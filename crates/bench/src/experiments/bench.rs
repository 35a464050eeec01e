//! bench — the machine-readable kernel timings (`BENCH_PR10.json`).
//!
//! Not a paper figure: this experiment times the tr-core matmul under
//! the `tr-obs` recorder and writes one schema-stable JSON artifact of
//! kernel wall time and terms/MAC. Model, layer and serve timings live
//! in perfbench (`perfbench/run.py`), which warms up, runs whole
//! workloads and gates them under BENCHMARK.json's bounds; the hardware
//! cycle schedules are printed by the `ablation` and `table3`
//! experiments.
//!
//! Sections (all under the shared `tr-obs` recorder):
//!
//! * **core** — the packed term-pair matmul timed under QT-8 and TR
//!   operands, with the term pairs per MAC and the cost of a full
//!   checksum verification of the packed operands (the integrity pass
//!   the chaos-hardened cache pays on every rung revisit);
//! * **integrity_overhead** — the chaos-overhead gate: checksum
//!   verification must cost < 2% of the packed matmul it protects.
//!
//! The artifact goes to `BENCH_PR10.json` (override with `TR_BENCH_OUT`).

use crate::report::Table;
use crate::zoo::Zoo;
use std::time::{Duration, Instant};
use tr_core::{term_pairs_total_packed, try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_obs::{recorder, set_enabled, JsonValue, Snapshot};
use tr_quant::QTensor;
use tr_tensor::{Rng, Shape, Tensor};

/// Schema tag of the emitted artifact; bump only on breaking layout
/// changes.
pub const SCHEMA: &str = "tr-bench/v1";

/// Deterministic seed for every data synthesis in this experiment.
const SEED: u64 = 0xBE9C;

fn ms(elapsed: Duration) -> JsonValue {
    JsonValue::Num(elapsed.as_secs_f64() * 1e3)
}

fn uint(v: u64) -> JsonValue {
    JsonValue::UInt(v)
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Reveal/matmul counters of the snapshot as a JSON block.
fn core_counters(snap: &Snapshot) -> JsonValue {
    obj(vec![
        ("reveal_groups", uint(snap.counter("core.reveal.groups"))),
        ("reveal_groups_pruned", uint(snap.counter("core.reveal.groups_pruned"))),
        ("reveal_terms_kept", uint(snap.counter("core.reveal.terms_kept"))),
        ("reveal_terms_pruned", uint(snap.counter("core.reveal.terms_pruned"))),
        ("matmul_calls", uint(snap.counter("core.matmul.calls"))),
        ("matmul_cells", uint(snap.counter("core.matmul.cells"))),
    ])
}

/// Best-of-`reps` wall time of `f` after one untimed warmup call, with
/// the last result. Best-of keeps the tiny quick-mode kernels out of
/// scheduler noise without inventing statistics.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut out = f();
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed());
    }
    (out, best)
}

/// 8-bit weights `(m, k)` and data `(k, n)` drawn from one seeded stream.
fn operands(m: usize, k: usize, n: usize, seed: u64) -> (QTensor, QTensor) {
    let mut rng = Rng::seed_from_u64(seed);
    let wt = Tensor::randn(Shape::d2(m, k), 0.25, &mut rng);
    let xt = Tensor::randn(Shape::d2(k, n), 0.25, &mut rng);
    let q = |t: &Tensor| tr_quant::quantize(t, tr_quant::calibrate_max_abs(t, 8));
    (q(&wt), q(&xt))
}

/// Best-of-3 wall time of the matmul and of the chaos-overhead
/// probe — a full checksum verification of both packed operands, exactly
/// what the integrity-checked rung cache pays before trusting a cached
/// encoding — with the verify cost as a percentage of the matmul's.
fn verify_overhead(pw: &PackedTermMatrix, px: &PackedTermMatrix) -> (f64, Duration, Duration) {
    let (_, packed_wall) =
        best_of(3, || try_packed_term_matmul_i64(pw, px).expect("reduction dims agree"));
    let (ok, verify_wall) =
        best_of(3, || pw.verify_integrity().is_ok() && px.verify_integrity().is_ok());
    assert!(ok, "freshly packed operands must pass verification");
    let pct = verify_wall.as_secs_f64() / packed_wall.as_secs_f64().max(f64::MIN_POSITIVE) * 100.0;
    (pct, packed_wall, verify_wall)
}

/// The packed core kernel under one operand preparation.
///
/// The recorder reset happens before `prep` runs so the reveal/cap pass
/// that builds the operands lands in this row's `counters` block — that
/// pass runs once (offline for weights), which is exactly why it must be
/// counted here and not in the per-matmul numbers.
fn core_config(
    name: &str,
    macs: u64,
    table: &mut Table,
    prep: impl FnOnce() -> (PackedTermMatrix, PackedTermMatrix),
) -> (String, JsonValue) {
    recorder().reset();
    // Packing happens outside the timed region: weights are packed once
    // at install time, and the data plane's encode cost is benched
    // separately (criterion `packed` bench in tr-core).
    let (pw, px) = prep();
    let pairs = term_pairs_total_packed(&pw, &px);
    let (verify_overhead_pct, packed_wall, verify_wall) = verify_overhead(&pw, &px);
    let snap = recorder().snapshot();
    let terms_per_mac = pairs as f64 / macs.max(1) as f64;
    table.row(vec![
        format!("core/{name}"),
        format!("{:.2}ms packed", packed_wall.as_secs_f64() * 1e3),
        format!("{terms_per_mac:.2} pairs/MAC"),
        format!("verify {verify_overhead_pct:.2}%"),
    ]);
    (
        name.to_string(),
        obj(vec![
            ("packed_wall_ms", ms(packed_wall)),
            ("verify_wall_ms", ms(verify_wall)),
            ("verify_overhead_pct", JsonValue::Num(verify_overhead_pct)),
            ("term_pairs", uint(pairs)),
            ("macs", uint(macs)),
            ("terms_per_mac", JsonValue::Num(terms_per_mac)),
            ("counters", core_counters(&snap)),
        ]),
    )
}

fn core_section(zoo: &Zoo, table: &mut Table) -> JsonValue {
    let (m, k, n) = if zoo.quick { (16, 64, 8) } else { (64, 256, 32) };
    let (qw, qx) = operands(m, k, n, SEED);
    let macs = (m * k * n) as u64;

    let mut fields = Vec::new();
    fields.push(core_config("qt8", macs, table, || {
        (
            PackedTermMatrix::from_weights(&qw, Encoding::Binary),
            PackedTermMatrix::from_data_transposed(&qx, Encoding::Binary),
        )
    }));
    let cfg = TrConfig::new(8, 12).with_data_terms(3);
    fields.push(core_config("tr_g8_k12_s3", macs, table, || {
        (
            PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg),
            PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3),
        )
    }));
    JsonValue::object(fields.into_iter().collect())
}

/// The chaos-overhead gate: checksum verification of the packed operands
/// must cost < 2% of the packed matmul it protects.
///
/// Measured at one fixed paper-sized layer (a VGG conv-shaped 256x1152
/// weight plane against a 196-column im2col data plane) in quick and
/// full mode alike: the verify/matmul ratio scales as ~terms*(1/m+1/n),
/// so smoke-sized operands would overstate the cost by orders of
/// magnitude and say nothing about what the serve cache actually pays.
/// The core rows still report their own (shape-dependent, informational)
/// `verify_overhead_pct`; only this section gates.
fn integrity_overhead_section(table: &mut Table) -> JsonValue {
    const GATE_PCT: f64 = 2.0;
    let (m, k, n) = (256usize, 1152usize, 196usize);
    let (qw, qx) = operands(m, k, n, SEED ^ 0x1A7E);
    let (qt8, qt8_matmul, qt8_verify) = verify_overhead(
        &PackedTermMatrix::from_weights(&qw, Encoding::Binary),
        &PackedTermMatrix::from_data_transposed(&qx, Encoding::Binary),
    );
    let cfg = TrConfig::new(8, 12).with_data_terms(3);
    let (tr, tr_matmul, tr_verify) = verify_overhead(
        &PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg),
        &PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3),
    );
    let worst = qt8.max(tr);
    let pass = worst < GATE_PCT;
    table.row(vec![
        format!("integrity/verify @{m}x{k}x{n}"),
        format!("qt8 {qt8:.3}% / tr {tr:.3}%"),
        "checksum verify vs packed matmul".to_string(),
        format!("{} (< {GATE_PCT}% gate)", if pass { "PASS" } else { "WARN" }),
    ]);
    obj(vec![
        ("shape", JsonValue::str(&format!("{m}x{k}x{n}"))),
        ("qt8_pct", JsonValue::Num(qt8)),
        ("qt8_matmul_ms", ms(qt8_matmul)),
        ("qt8_verify_ms", ms(qt8_verify)),
        ("tr_pct", JsonValue::Num(tr)),
        ("tr_matmul_ms", ms(tr_matmul)),
        ("tr_verify_ms", ms(tr_verify)),
        ("worst_pct", JsonValue::Num(worst)),
        ("gate_pct", JsonValue::Num(GATE_PCT)),
        ("pass", JsonValue::Bool(pass)),
    ])
}

/// Run the experiment and write the JSON artifact.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    set_enabled(true);
    recorder().reset();

    let mut table = Table::new(
        "bench",
        "BENCH: kernel wall time, terms/MAC, integrity gate",
        &["section", "wall", "work", "outcome"],
    );
    let core = core_section(zoo, &mut table);
    set_enabled(false);
    let integrity = integrity_overhead_section(&mut table);

    let json = JsonValue::object(vec![
        ("schema".to_string(), JsonValue::str(SCHEMA)),
        ("pr".to_string(), JsonValue::UInt(10)),
        ("quick".to_string(), JsonValue::Bool(zoo.quick)),
        ("core".to_string(), core),
        ("integrity_overhead".to_string(), integrity),
    ]);
    let path = std::env::var("TR_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    match std::fs::write(&path, json.to_pretty_string() + "\n") {
        Ok(()) => table.note(format!("artifact written to {path}")),
        Err(e) => table.note(format!("could not write {path}: {e}")),
    }
    vec![table]
}
