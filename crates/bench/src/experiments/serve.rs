//! Serve — the resilient batched inference service exercising the
//! paper's run-time knob end to end. Not a paper figure: Table 1 shows
//! the QT↔TR switch is a <100 ns control-register write, and this
//! experiment turns that into an operational story — a deterministic
//! load ramp drives a `tr-serve` service through overload, and the
//! degradation ladder sheds load by stepping the TR budget α = k/g down
//! rung by rung, then recovers full precision when pressure subsides.
//!
//! Three tables:
//!
//! 1. **Ladder rungs** — offline accuracy of the zoo MLP at each rung's
//!    precision, with the §III-B term-pair cost bound and the relative
//!    throughput each step buys.
//! 2. **Load ramp** — per-phase service metrics (completed / rejected /
//!    expired / degraded, p50/p99/p99.9 latency, ladder rung and
//!    delivered accuracy): warm → overload → recover → fault-latch
//!    (a datapath canary trips the silent-corruption monitor, latching
//!    the QT fallback) → cleared.
//! 3. **Soak** — a poison-laced run proving panic isolation: injected
//!    panics are quarantined, workers restart, and the conservation law
//!    (every request exactly one terminal outcome) holds exactly.

use crate::experiments::faults::functional_point;
use crate::report::{count, pct, Table};
use crate::zoo::Zoo;
use std::collections::HashMap;
use std::time::Duration;
use tr_core::TrConfig;
use tr_hw::{FaultConfig, Mitigation};
use tr_nn::exec::{apply_precision, calibrate_model, evaluate_accuracy};
use tr_serve::{
    DeadlineClass, EngineFactory, LadderConfig, Outcome, RejectReason, RequestId, ShardedConfig,
    ShardedReport, ShardedService,
};
use tr_tensor::Rng;

/// Root seed of the load generator.
pub const SEED: u64 = 0x005E_127E;

/// Per-sample pacing at rung 0 — sets the simulated accelerator's
/// rung-0 throughput so the ramp's overload phase genuinely
/// oversubscribes a single worker.
const PACE: Duration = Duration::from_millis(1);

/// Request deadline used by every ramp phase.
const DEADLINE: Duration = Duration::from_millis(80);

fn ladder() -> LadderConfig {
    LadderConfig { patience: 2, cooldown: 3, ..LadderConfig::default_tr_ladder() }
}

fn service_config() -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        workers_per_shard: 1,
        shard_queue_capacity: 32,
        max_batch: 4,
        batch_linger: Duration::from_millis(2),
        service_estimate: Duration::from_millis(8),
        ladder: ladder(),
        ..ShardedConfig::default()
    }
}

/// Submit `input` as an interactive request of the single tenant the
/// serve experiments configure.
pub(crate) fn submit(
    svc: &ShardedService,
    input: Vec<f32>,
    deadline: Duration,
) -> Result<RequestId, RejectReason> {
    svc.submit(0, DeadlineClass::Interactive, input, Some(deadline))
}

/// Builder for a fully-assembled [`tr_serve::NnEngine`] backed by the
/// zoo MLP: each call reloads the cached checkpoint and recalibrates
/// from a captured calibration batch — cheap enough to pay on every
/// worker restart, and exactly what a production respawn would do (load
/// weights, never retrain). Returns the concrete engine type so chaos
/// wrappers can reach its cache-tamper hooks.
pub(crate) fn mlp_engine_builder(
    zoo: &Zoo,
    pace: Duration,
) -> impl Fn() -> tr_serve::NnEngine + Send + Sync + 'static {
    // Train-or-load once so the checkpoint definitely exists, and
    // capture everything a rebuild needs.
    let (_model, ds) = zoo.mlp();
    let classes = ds.classes;
    let input_dim = ds.test.x.shape().dims()[1];
    let calib = ds.train.x.slice_batch(0, 32.min(ds.train.len()));
    let ckpt = zoo.checkpoint_path("mlp");
    move || {
        let mut rng = Rng::seed_from_u64(SEED ^ 0xCA11);
        let mut model = tr_nn::models::mlp::build_mlp(classes, &mut rng);
        tr_nn::io::load_model(&ckpt, &mut model).expect("zoo checkpoint vanished mid-run");
        calibrate_model(&mut model, &calib, 8, &mut rng);
        tr_serve::NnEngine::new(model, input_dim, pace, SEED ^ 0xE47)
    }
}

/// Engine factory over [`mlp_engine_builder`] (type-erased for the
/// service).
pub(crate) fn mlp_factory(zoo: &Zoo, pace: Duration) -> EngineFactory {
    let build = mlp_engine_builder(zoo, pace);
    std::sync::Arc::new(move || Box::new(build()))
}

/// Offline accuracy of each ladder rung (plus the QT fallback): what
/// quality each load-shedding step delivers, and what it buys.
fn rung_table(zoo: &Zoo) -> Table {
    let mut t = Table::new(
        "serve-rungs",
        "Degradation ladder: accuracy and cost per rung (zoo MLP, g = 8)",
        &["rung", "precision", "pair bound", "rel. throughput", "accuracy"],
    );
    let cfg = ladder();
    let (mut model, ds) = zoo.mlp();
    let mut rng = Rng::seed_from_u64(SEED ^ 0xACC);
    let calib = ds.train.x.slice_batch(0, 32.min(ds.train.len()));
    calibrate_model(&mut model, &calib, 8, &mut rng);
    let base = cfg.rungs[0].pair_bound;
    for (i, rung) in cfg.rungs.iter().enumerate() {
        apply_precision(&mut model, &rung.precision);
        let acc = evaluate_accuracy(&mut model, &ds, &mut rng);
        let role = if Some(i) == cfg.fallback { " (fault fallback)" } else { "" };
        t.row(vec![
            format!("{i}{role}"),
            rung.label.clone(),
            format!("{:.1}", rung.pair_bound),
            format!("{:.2}x", base / rung.pair_bound.max(f64::MIN_POSITIVE)),
            pct(acc),
        ]);
    }
    t.note(
        "Stepping down a rung is a run-time register write (paper Table 1: <100 ns); \
         relative throughput follows the term-pair bound k*s/g.",
    );
    t
}

struct Phase {
    name: &'static str,
    requests: usize,
    interval: Duration,
}

/// Block until every submitted request has a terminal outcome (bounded
/// wait) — the engine factories load checkpoints lazily, so this also
/// serves as the post-start warmup barrier.
pub(crate) fn wait_settled(svc: &ShardedService, timeout: Duration) {
    let t0 = std::time::Instant::now();
    loop {
        let s = svc.metrics_snapshot();
        if s.terminal_total() >= s.submitted || t0.elapsed() >= timeout {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Submit one throwaway request and wait for it — plus for every worker
/// to finish its initial engine build and precision sync (each counts
/// one reconfiguration) — so the measured phases start on a ready
/// service.
fn warm_up(svc: &ShardedService, test_x: &tr_tensor::Tensor, workers: u64) {
    let _ = submit(svc, test_x.row(0).to_vec(), Duration::from_secs(10));
    let t0 = std::time::Instant::now();
    loop {
        let s = svc.metrics_snapshot();
        let ready = s.reconfigurations >= workers && s.terminal_total() >= s.submitted;
        if ready || t0.elapsed() >= Duration::from_secs(10) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Run `f` with panic messages suppressed: the soak *injects* panics by
/// design, and the default hook would spray backtraces over the report.
/// Assertions still fail normally — only the printing is quieted.
pub(crate) fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let old = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(old);
    out
}

struct PhaseRow {
    name: &'static str,
    snap: tr_serve::MetricsSnapshot,
    rung_after: usize,
    latched: bool,
}

/// Submit one phase of open-loop load, wait for the queue to drain, and
/// return the phase's metric delta. Labels of submitted requests are
/// recorded for delivered-accuracy accounting.
fn run_phase(
    svc: &ShardedService,
    phase: &Phase,
    test_x: &tr_tensor::Tensor,
    labels: &[usize],
    next_sample: &mut usize,
    submitted_labels: &mut HashMap<RequestId, usize>,
    before: &tr_serve::MetricsSnapshot,
) -> PhaseRow {
    for _ in 0..phase.requests {
        let i = *next_sample % labels.len();
        *next_sample += 1;
        let input = test_x.row(i).to_vec();
        if let Ok(id) = submit(svc, input, DEADLINE) {
            submitted_labels.insert(id, labels[i]);
        }
        std::thread::sleep(phase.interval);
    }
    // Let the phase's own work drain so its outcomes land in its row.
    let t0 = std::time::Instant::now();
    wait_settled(svc, Duration::from_secs(5));
    let s = svc.metrics_snapshot();
    eprintln!(
        "  [serve] {}: drained in {:?} (terminal {}/{} submitted, depth {})",
        phase.name,
        t0.elapsed(),
        s.terminal_total(),
        s.submitted,
        svc.queue_depths().iter().sum::<usize>()
    );
    PhaseRow {
        name: phase.name,
        snap: svc.metrics_snapshot().since(before),
        rung_after: svc.tenant_rung(0).expect("tenant 0 is configured"),
        latched: svc.fault_latched(),
    }
}

fn fmt_latency(snap: &tr_serve::MetricsSnapshot, per_mille: u64) -> String {
    snap.latency_percentile(per_mille)
        .map_or_else(|| "-".to_string(), |d| format!("{:.1}ms", d.as_secs_f64() * 1e3))
}

/// Delivered accuracy over a set of completions (completed ones only).
fn delivered_accuracy(
    completions: &[tr_serve::Completion],
    labels: &HashMap<RequestId, usize>,
) -> Option<f64> {
    let mut right = 0usize;
    let mut total = 0usize;
    for c in completions {
        if let Outcome::Completed { class, .. } = c.outcome {
            if let Some(&want) = labels.get(&c.id) {
                total += 1;
                right += usize::from(class == want);
            }
        }
    }
    (total > 0).then(|| right as f64 / total as f64)
}

/// The deterministic ramp: warm → overload → recover → fault → cleared.
fn ramp_table(zoo: &Zoo) -> (Table, ShardedReport) {
    let ds = zoo.digits();
    let labels = ds.test.y.clone();
    let scale = if zoo.quick { 3 } else { 1 };
    let phases = [
        Phase { name: "warm", requests: 120 / scale, interval: Duration::from_millis(6) },
        // ~3000 req/s against a rung-0 capacity of ~1000/s and a
        // deepest-rung capacity of ~4500/s: the queue fills before the
        // ladder reacts (backpressure), then the ladder sheds into it.
        Phase { name: "overload", requests: 600 / scale, interval: Duration::from_micros(330) },
        Phase { name: "recover", requests: 150 / scale, interval: Duration::from_millis(7) },
        // The QT fallback is *slower* than rung 0 (pair bound 49 vs 9):
        // the latch trades throughput for trusted numerics, so the fault
        // phase offers load the QT rung can actually sustain.
        Phase { name: "fault-latch", requests: 90 / scale, interval: Duration::from_millis(9) },
        Phase { name: "cleared", requests: 90 / scale, interval: Duration::from_millis(6) },
    ];
    let svc =
        ShardedService::start(service_config(), mlp_factory(zoo, PACE)).expect("valid config");
    warm_up(&svc, &ds.test.x, 1);
    let mut rows = Vec::new();
    let mut next_sample = 0usize;
    let mut submitted = HashMap::new();
    let mut phase_end_marks = Vec::new();
    for phase in &phases {
        if phase.name == "fault-latch" {
            // Datapath canary: run the functional fault campaign the PR 1
            // model provides and feed its report to the service monitor.
            // Unmitigated faults at this rate always leave silent
            // corruptions, so the monitor trips and the ladder latches
            // the QT fallback rung.
            let fcfg = FaultConfig::new(SEED ^ 0xFA17, 0.05)
                .expect("rate in [0,1]")
                .with_mitigation(Mitigation::none());
            let canary = functional_point(&TrConfig::new(8, 12).with_data_terms(3), &fcfg);
            let tripped = svc.record_fault_report(&canary.report);
            assert!(tripped, "unmitigated 5% campaign must leave silent corruption");
        } else if phase.name == "cleared" {
            svc.clear_fault_latch();
        }
        let before = svc.metrics_snapshot();
        let row =
            run_phase(&svc, phase, &ds.test.x, &labels, &mut next_sample, &mut submitted, &before);
        phase_end_marks.push(svc.metrics_snapshot().terminal_total());
        rows.push(row);
    }
    let report = svc.shutdown();
    report.verify_conservation().expect("ramp conserves every request");

    // Delivered accuracy per phase: slice the completion log at the
    // phase marks (completions append in terminal order).
    let mut t = Table::new(
        "serve-ramp",
        "Load ramp: backpressure, TR-knob shedding, fault latch (zoo MLP, 1 worker)",
        &[
            "phase", "offered", "completed", "rejected", "expired", "degraded", "p50", "p99",
            "p99.9", "rung after", "delivered acc",
        ],
    );
    let mut start = 0usize;
    for (row, &end) in rows.iter().zip(&phase_end_marks) {
        let end = usize::try_from(end).unwrap_or(usize::MAX).min(report.completions.len());
        let acc = delivered_accuracy(&report.completions[start..end], &submitted);
        start = end;
        let latch = if row.latched { " (latched QT)" } else { "" };
        t.row(vec![
            row.name.to_string(),
            count(row.snap.submitted),
            count(row.snap.completed),
            count(row.snap.rejected),
            count(row.snap.expired()),
            count(row.snap.degraded),
            fmt_latency(&row.snap, 500),
            fmt_latency(&row.snap, 990),
            fmt_latency(&row.snap, 999),
            format!("{}{latch}", row.rung_after),
            acc.map_or_else(|| "-".to_string(), pct),
        ]);
    }
    t.note(format!(
        "deepest rung {}; final rung {}; {} precision switches; conservation verified: {} submitted = {} outcomes",
        report.tenants[0].deepest_rung,
        report.tenants[0].final_rung,
        report.snapshot.reconfigurations,
        report.snapshot.submitted,
        report.completions.len(),
    ));
    t.note(
        "overload oversubscribes the paced rung-0 throughput, so the ladder sheds \
         precision; recover restores rung 0; the canary latches the QT fallback until cleared.",
    );

    // The acceptance gates: ladder engaged and recovered; overload
    // produced backpressure; completed latency stayed under the deadline.
    let overload = &rows[1];
    assert!(report.tenants[0].deepest_rung > 0, "overload must engage the ladder");
    assert!(
        overload.snap.rejected + overload.snap.expired() > 0,
        "overload must surface backpressure (rejections or expiries)"
    );
    assert_eq!(rows[4].rung_after, 0, "clearing the latch must restore rung 0");
    assert!(rows[3].latched, "the canary must latch the fault fallback");
    if let Some(p99) = report.snapshot.latency_percentile(990) {
        // The service expires any result past its deadline, so completed
        // ramp latencies are ≤ DEADLINE by construction; only the 10 s
        // warm-up request can exceed it. The histogram reports quantiles
        // as log2-bucket upper bounds clamped by the exact max (which
        // that warm-up sample can dominate), so the gate allows one
        // bucket of resolution: the p99 estimate must not escape the
        // bucket containing the deadline.
        let deadline_us = u64::try_from(DEADLINE.as_micros()).unwrap_or(u64::MAX);
        let cap = Duration::from_micros(tr_obs::bucket_upper_bound(tr_obs::bucket_of(deadline_us)));
        assert!(
            p99 <= cap,
            "completed p99 {p99:?} exceeds the deadline {DEADLINE:?} beyond histogram resolution (cap {cap:?})"
        );
    }
    (t, report)
}

/// Soak: poison-laced load proving panic isolation and exact
/// conservation.
fn soak_table(zoo: &Zoo) -> Table {
    let ds = zoo.digits();
    let n = if zoo.quick { 120 } else { 300 };
    // Full-budget models re-encode far more weights per engine rebuild,
    // so panic recovery costs proportionally more CPU; offer load at a
    // rate the recovery overhead still fits inside.
    let interval = Duration::from_millis(if zoo.quick { 10 } else { 30 });
    // Two workers and a queue deep enough for the *entire* offered load,
    // with deadlines far beyond any plausible stall: the soak proves
    // panic isolation and conservation, not backpressure (the ramp
    // covers that), so rejected and expired are asserted to be exactly
    // zero regardless of how loaded the host machine is.
    let cfg =
        ShardedConfig { workers_per_shard: 2, shard_queue_capacity: n + 8, ..service_config() };
    let svc = ShardedService::start(cfg, mlp_factory(zoo, Duration::from_micros(100)))
        .expect("valid config");
    warm_up(&svc, &ds.test.x, 2);
    let mut rng = Rng::seed_from_u64(SEED ^ 0x50AC);
    let mut poison_ids = Vec::new();
    let report = with_quiet_panics(|| {
        for i in 0..n {
            let sample = i % ds.test.len();
            let mut input = ds.test.x.row(sample).to_vec();
            let is_poison = rng.next_u64().is_multiple_of(12);
            if is_poison {
                input[0] = f32::NAN; // trips the engine's poison assertion
            }
            match submit(&svc, input, Duration::from_secs(60)) {
                Ok(id) if is_poison => poison_ids.push(id),
                _ => {}
            }
            // Well inside forward-pass throughput, and slow enough that
            // each panic's recovery cost (a quarantine-hunt engine plus
            // a respawned worker engine, each paying a full weight
            // re-encode) never overflows the queue — panics, not raw
            // overload, drive outcomes here.
            std::thread::sleep(interval);
        }
        wait_settled(&svc, Duration::from_secs(60));
        svc.shutdown()
    });
    report.verify_conservation().expect("soak conserves every request");
    let by_id: HashMap<RequestId, &Outcome> =
        report.completions.iter().map(|c| (c.id, &c.outcome)).collect();
    for id in &poison_ids {
        let outcome = by_id.get(id).expect("poison request has an outcome");
        assert!(
            matches!(outcome, Outcome::Quarantined),
            "poison request {id} ended {outcome:?}, expected quarantine"
        );
    }
    assert!(!poison_ids.is_empty(), "seeded poison rate must admit poison requests");
    assert!(report.snapshot.worker_panics > 0, "soak must inject panics");
    assert!(report.snapshot.quarantined > 0, "panicking requests must be quarantined");
    assert!(report.snapshot.completed > 0, "service must survive the panics");
    assert_eq!(report.snapshot.rejected, 0, "queue holds the whole soak: no rejects");
    assert_eq!(report.snapshot.expired(), 0, "deadlines are loose: nothing expires");

    let s = &report.snapshot;
    let mut t = Table::new(
        "serve-soak",
        "Soak: panic isolation and conservation under poison-laced load",
        &[
            "submitted", "completed", "quarantined", "expired", "rejected", "panics",
            "restarts", "lost", "duplicated",
        ],
    );
    t.row(vec![
        count(s.submitted),
        count(s.completed),
        count(s.quarantined),
        count(s.expired()),
        count(s.rejected),
        count(s.worker_panics),
        count(s.worker_restarts),
        "0".to_string(),
        "0".to_string(),
    ]);
    t.note(format!(
        "{} poison requests admitted; every one ended quarantined, never completed; \
         conservation verified exactly.",
        poison_ids.len()
    ));
    t
}

/// Run the experiment.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    // Train/load the MLP once up front so engine factories only ever hit
    // the checkpoint cache.
    let _ = zoo.mlp();
    let rungs = rung_table(zoo);
    let (ramp, _report) = ramp_table(zoo);
    let soak = soak_table(zoo);
    vec![rungs, ramp, soak]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::test_zoo;

    #[test]
    fn serve_experiment_smoke() {
        let _gate = crate::experiments::common::timing_gate();
        let zoo = test_zoo();
        let tables = run(&zoo);
        assert_eq!(tables.len(), 3);
        // The ramp table has one row per phase.
        assert_eq!(tables[1].rows.len(), 5);
    }
}
