//! Chaos — end-to-end fault campaigns against the self-healing serve
//! stack. The paper's run-time knob only earns its keep if the numbers
//! it serves can be *trusted* while the machinery around it misbehaves,
//! so this experiment injects every software fault the service claims
//! to survive — silent cache corruption, worker panics, stalls,
//! transient engine errors, deadline storms — under deterministic
//! seeds, and holds the stack to three gates:
//!
//! 1. **Zero silent corruption** — every injected cache corruption is
//!    detected by the content checksums and repaired by re-encoding:
//!    `injected == detected == repaired`, per scenario, exactly.
//! 2. **Conservation** — every submitted request gets exactly one
//!    terminal outcome in every scenario, however chaotic.
//! 3. **Determinism** — the engine-level corruption campaign is
//!    bit-identical across two full runs under the same seeds.
//!
//! Three tables: the engine-level cache-corruption campaign per ladder
//! rung (run twice for the determinism gate), the service-level
//! scenario sweep (one misbehaviour family per row, driven until its
//! recovery machinery demonstrably fired), and the recovery sequence
//! extracted from the corruption scenario's event log.

use crate::experiments::faults::functional_point;
use crate::experiments::serve::{mlp_engine_builder, submit, wait_settled, with_quiet_panics};
use crate::report::{count, Table};
use crate::zoo::Zoo;
use std::time::Duration;
use tr_core::TrConfig;
use tr_hw::{FaultConfig, Mitigation};
use tr_serve::{
    chaos_nn_factory, ChaosConfig, Engine, EventKind, LadderConfig, MetricsSnapshot, RetryPolicy,
    ShardedConfig, ShardedReport, ShardedService,
};

/// Root seed of every chaos campaign in this experiment.
pub const SEED: u64 = 0xC405_0006;

/// Generous deadline for requests that should survive the chaos.
const DEADLINE: Duration = Duration::from_secs(5);

fn ladder() -> LadderConfig {
    LadderConfig { patience: 2, cooldown: 3, ..LadderConfig::default_tr_ladder() }
}

/// Service shape shared by every sweep scenario: one shard with two
/// workers (so one can die while the other serves; they share the
/// shard's breaker) and a fast batch cadence.
fn chaos_service_config() -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        workers_per_shard: 2,
        shard_queue_capacity: 64,
        max_batch: 4,
        batch_linger: Duration::from_millis(1),
        service_estimate: Duration::from_millis(2),
        ladder: ladder(),
        retry: RetryPolicy { base: Duration::from_micros(200), ..RetryPolicy::default() },
        ..ShardedConfig::default()
    }
}

/// One rung's outcome in the engine-level campaign. `Eq` so two full
/// campaign runs can be compared bit-for-bit.
#[derive(Debug, PartialEq, Eq)]
struct RungOutcome {
    label: String,
    /// Predictions on the fixed eval rows after every tamper round.
    preds: Vec<usize>,
    /// Tamper rounds that actually landed a bit flip.
    landed: u64,
}

/// Engine-level corruption campaign: one engine walks every ladder
/// rung; each rung is baselined, then repeatedly tampered and
/// re-switched. Every landed tamper must be detected and repaired, and
/// predictions must never move.
fn run_cache_campaign(zoo: &Zoo, rounds: u64, eval_n: usize) -> (Vec<RungOutcome>, u64, u64) {
    let ds = zoo.digits();
    let build = mlp_engine_builder(zoo, Duration::ZERO);
    let inputs: Vec<Vec<f32>> = (0..eval_n.min(ds.test.len()))
        .map(|i| ds.test.x.row(i).to_vec())
        .collect();
    let views: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let mut engine = build();
    let mut out = Vec::new();
    let mut expected = 0u64;
    for (r, rung) in ladder().rungs.iter().enumerate() {
        engine.set_precision(&rung.precision, 1.0);
        let baseline = engine.try_infer(&views).expect("clean engine must infer");
        let mut landed = 0u64;
        for round in 1..=rounds {
            let salt = SEED ^ ((r as u64) << 32) ^ round;
            if engine.tamper_cached(&rung.precision, salt) {
                // The flip is silent until the next switch touches the
                // rung — that switch must detect it via the checksums
                // and re-encode from the authoritative model weights.
                landed += 1;
                expected += 1;
            }
            engine.set_precision(&rung.precision, 1.0);
            let (violations, repairs) = engine.integrity_stats();
            assert_eq!(
                (violations, repairs),
                (expected, expected),
                "rung {r} round {round}: every landed tamper detected and repaired, none invented"
            );
            let preds = engine.try_infer(&views).expect("repaired engine must infer");
            assert_eq!(preds, baseline, "rung {r} round {round}: repair must be lossless");
        }
        assert!(landed > 0, "rung {r}: campaign must land at least one corruption");
        out.push(RungOutcome { label: rung.label.clone(), preds: baseline, landed });
    }
    // Fresh-engine parity on the deepest rung: a repaired cache entry
    // is indistinguishable from one encoded on a brand-new engine.
    let deepest = ladder().rungs.len() - 1;
    let rung = &ladder().rungs[deepest];
    let mut fresh = build();
    fresh.set_precision(&rung.precision, 1.0);
    let fresh_preds = fresh.try_infer(&views).expect("fresh engine must infer");
    assert_eq!(fresh_preds, out[deepest].preds, "repaired rung must match a fresh engine");
    let (violations, repairs) = engine.integrity_stats();
    (out, violations, repairs)
}

fn cache_table(zoo: &Zoo) -> Table {
    let rounds = if zoo.quick { 3 } else { 5 };
    let eval_n = if zoo.quick { 16 } else { 32 };
    let (first, violations, repairs) = run_cache_campaign(zoo, rounds, eval_n);
    // The determinism gate: an identical second campaign, bit for bit.
    let (second, v2, r2) = run_cache_campaign(zoo, rounds, eval_n);
    assert_eq!(first, second, "campaign must be bit-identical under fixed seeds");
    assert_eq!((violations, repairs), (v2, r2));
    let mut t = Table::new(
        "chaos-cache",
        "Cache-corruption campaign: tamper, detect, re-encode, verify (zoo MLP)",
        &["rung", "tamper rounds", "landed", "detected", "repaired", "preds drift", "replay"],
    );
    let mut det_left = violations;
    for rung in &first {
        // Detection equals landed per rung by the in-loop assertion;
        // the table shows the running split for the reader.
        let det = rung.landed.min(det_left);
        det_left -= det;
        t.row(vec![
            rung.label.clone(),
            count(rounds),
            count(rung.landed),
            count(det),
            count(det),
            "none".to_string(),
            "bit-identical".to_string(),
        ]);
    }
    t.note(format!(
        "{violations} corruptions landed across the ladder; every one detected by the FNV \
         content checksums and repaired by re-encoding from the model weights ({repairs} \
         repairs); predictions never moved, and the whole campaign replays bit-identically."
    ));
    t
}

/// What one sweep scenario produced.
struct ScenarioOutcome {
    name: &'static str,
    submitted: u64,
    snap: MetricsSnapshot,
    /// `chaos.injected.*` deltas: (panics, stalls, transients, corruptions).
    injected: (u64, u64, u64, u64),
    /// `serve.cache.*` deltas: (integrity violations, repairs).
    cache: (u64, u64),
    final_rung: usize,
    report: ShardedReport,
}

fn obs_counters() -> (u64, u64, u64, u64, u64, u64) {
    let s = tr_obs::recorder().snapshot();
    (
        s.counter("chaos.injected.panics"),
        s.counter("chaos.injected.stalls"),
        s.counter("chaos.injected.transients"),
        s.counter("chaos.injected.corruptions"),
        s.counter("serve.cache.integrity_violations"),
        s.counter("serve.cache.repairs"),
    )
}

/// Submit load in rounds until `done` reports the scenario's recovery
/// machinery has demonstrably fired (or the round budget runs out —
/// the caller's assertions then say what never happened). Even-indexed
/// requests always get a generous deadline; under `storm`, odd-indexed
/// ones get a deadline far below the batch linger, so they expire.
fn drive_until(
    svc: &ShardedService,
    test_x: &tr_tensor::Tensor,
    per_round: usize,
    rounds: usize,
    interval: Duration,
    storm: bool,
    done: &dyn Fn(&MetricsSnapshot) -> bool,
) -> u64 {
    let n = test_x.shape().dims()[0];
    let mut sent = 0u64;
    let mut sample = 0usize;
    for _ in 0..rounds {
        if done(&svc.metrics_snapshot()) {
            break;
        }
        for i in 0..per_round {
            let input = test_x.row(sample % n).to_vec();
            sample += 1;
            let deadline = if storm && i % 2 == 1 { Duration::from_micros(300) } else { DEADLINE };
            if submit(svc, input, deadline).is_ok() {
                sent += 1;
            }
            std::thread::sleep(interval);
        }
        wait_settled(svc, Duration::from_secs(30));
    }
    sent
}

/// The corruption scenario's driver: cache corruption only lands when a
/// cached rung is *revisited*, so each cycle latches the QT fallback
/// via the datapath canary (forcing a rung switch), serves, clears the
/// latch (forcing the switch home), and serves again. With
/// `corrupt_rate` at 1.0 every revisit from cycle two onward tampers
/// the cached target rung — and the very next delegated switch must
/// detect and repair it before a single inference runs on it.
fn drive_latch_cycles(
    svc: &ShardedService,
    test_x: &tr_tensor::Tensor,
    cycles: usize,
    per_half: usize,
    repairs_target: u64,
) -> u64 {
    let fcfg = FaultConfig::new(SEED ^ 0xFA17, 0.05)
        .expect("rate in [0,1]")
        .with_mitigation(Mitigation::none());
    let canary = functional_point(&TrConfig::new(8, 12).with_data_terms(3), &fcfg);
    let n = test_x.shape().dims()[0];
    let mut sent = 0u64;
    let mut sample = 0usize;
    let half = |svc: &ShardedService, sent: &mut u64, sample: &mut usize| {
        for _ in 0..per_half {
            let input = test_x.row(*sample % n).to_vec();
            *sample += 1;
            if submit(svc, input, DEADLINE).is_ok() {
                *sent += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        wait_settled(svc, Duration::from_secs(30));
    };
    for _ in 0..cycles {
        if svc.metrics_snapshot().cache_repairs >= repairs_target {
            break;
        }
        let tripped = svc.record_fault_report(&canary.report);
        assert!(tripped, "unmitigated 5% campaign must trip the silent-corruption monitor");
        half(svc, &mut sent, &mut sample);
        svc.clear_fault_latch();
        half(svc, &mut sent, &mut sample);
    }
    sent
}

/// One sweep scenario: a fault family, its chaos rates, and the gate
/// proving the matching recovery machinery fired.
struct Scenario {
    name: &'static str,
    cfg: ChaosConfig,
    /// Deadline storm: half the offered load gets impossible deadlines.
    storm: bool,
    /// Drive via latch/clear cycles instead of plain load.
    latch_cycles: bool,
    /// Tight watchdog (stall scenarios need one; others keep the
    /// default so recycling never triggers spuriously on a loaded host).
    tight_watchdog: bool,
    done: fn(&MetricsSnapshot) -> bool,
    gate: fn(&MetricsSnapshot) -> Result<(), String>,
}

fn scenarios(_quick: bool) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "panic",
            cfg: ChaosConfig { seed: SEED ^ 0x01, panic_rate: 0.2, ..ChaosConfig::default() },
            storm: false,
            latch_cycles: false,
            tight_watchdog: false,
            done: |s| s.worker_panics >= 2 && s.completed >= 4,
            gate: |s| {
                if s.worker_panics < 2 {
                    return Err(format!("expected >=2 injected panics, saw {}", s.worker_panics));
                }
                if s.worker_restarts < 1 {
                    return Err("panicked workers must be respawned".to_string());
                }
                Ok(())
            },
        },
        Scenario {
            name: "stall",
            cfg: ChaosConfig {
                seed: SEED ^ 0x02,
                stall_rate: 0.25,
                stall: Duration::from_millis(500),
                ..ChaosConfig::default()
            },
            storm: false,
            latch_cycles: false,
            tight_watchdog: true,
            done: |s| s.watchdog_recycles >= 1 && s.completed >= 4,
            gate: |s| {
                if s.watchdog_recycles < 1 {
                    return Err("a 150ms stall must trip the 60ms watchdog".to_string());
                }
                Ok(())
            },
        },
        Scenario {
            name: "transient",
            cfg: ChaosConfig { seed: SEED ^ 0x03, transient_rate: 0.3, ..ChaosConfig::default() },
            storm: false,
            latch_cycles: false,
            tight_watchdog: false,
            done: |s| s.retries >= 3 && s.completed >= 4,
            gate: |s| {
                if s.retries < 3 {
                    return Err(format!("expected >=3 retries, saw {}", s.retries));
                }
                Ok(())
            },
        },
        Scenario {
            name: "deadline-storm",
            cfg: ChaosConfig { seed: SEED ^ 0x04, ..ChaosConfig::default() },
            storm: true,
            latch_cycles: false,
            tight_watchdog: false,
            done: |s| s.expired() >= 4 && s.completed >= 4,
            gate: |s| {
                if s.expired() < 4 {
                    return Err(format!("storm must expire requests, saw {}", s.expired()));
                }
                Ok(())
            },
        },
        Scenario {
            name: "corrupt",
            cfg: ChaosConfig { seed: SEED ^ 0x05, corrupt_rate: 1.0, ..ChaosConfig::default() },
            storm: false,
            latch_cycles: true,
            tight_watchdog: false,
            done: |_| false, // the latch driver checks its own target
            gate: |s| {
                if s.cache_repairs < 2 {
                    return Err(format!("expected >=2 cache repairs, saw {}", s.cache_repairs));
                }
                Ok(())
            },
        },
        Scenario {
            name: "combined",
            cfg: ChaosConfig {
                seed: SEED ^ 0x06,
                panic_rate: 0.1,
                transient_rate: 0.25,
                corrupt_rate: 1.0,
                ..ChaosConfig::default()
            },
            storm: false,
            latch_cycles: true,
            tight_watchdog: false,
            done: |_| false,
            gate: |s| {
                if s.retries < 1 {
                    return Err("combined chaos must exercise the retry path".to_string());
                }
                if s.cache_repairs < 1 {
                    return Err("combined chaos must exercise cache repair".to_string());
                }
                Ok(())
            },
        },
    ]
}

fn run_scenario(zoo: &Zoo, sc: &Scenario) -> ScenarioOutcome {
    let ds = zoo.digits();
    let mut cfg = chaos_service_config();
    if sc.tight_watchdog {
        // Stall patience must sit well above both the idle-poll beat
        // cadence and an honest rung re-encode, and well below the
        // injected 500ms stall — otherwise the watchdog recycles busy
        // workers instead of wedged ones.
        cfg.watchdog_interval = Duration::from_millis(10);
        cfg.watchdog_stall = Duration::from_millis(150);
    }
    let before = obs_counters();
    let factory = chaos_nn_factory(mlp_engine_builder(zoo, Duration::ZERO), sc.cfg.clone());
    let svc = ShardedService::start(cfg, factory).expect("valid config");
    // Warm the engines (first request pays the checkpoint load).
    let _ = submit(&svc, ds.test.x.row(0).to_vec(), Duration::from_secs(30));
    wait_settled(&svc, Duration::from_secs(30));
    let (per_round, rounds) = if zoo.quick { (24, 6) } else { (32, 10) };
    let submitted = if sc.latch_cycles {
        let cycles = if zoo.quick { 5 } else { 8 };
        let target = if zoo.quick { 2 } else { 4 };
        drive_latch_cycles(&svc, &ds.test.x, cycles, 6, target)
    } else {
        drive_until(
            &svc,
            &ds.test.x,
            per_round,
            rounds,
            Duration::from_micros(500),
            sc.storm,
            &sc.done,
        )
    };
    wait_settled(&svc, Duration::from_secs(30));
    let final_rung = svc.tenant_rung(0).expect("tenant 0 is configured");
    let latched = svc.fault_latched();
    let report = svc.shutdown();
    let after = obs_counters();
    report
        .verify_conservation()
        .unwrap_or_else(|e| panic!("scenario {}: conservation violated: {e:?}", sc.name));
    assert!(!latched, "scenario {}: must end with the fault latch cleared", sc.name);
    let snap = report.snapshot.clone();
    (sc.gate)(&snap).unwrap_or_else(|e| panic!("scenario {}: {e}", sc.name));
    assert!(snap.completed > 0, "scenario {}: service must keep serving", sc.name);
    let injected =
        (after.0 - before.0, after.1 - before.1, after.2 - before.2, after.3 - before.3);
    let cache = (after.4 - before.4, after.5 - before.5);
    // The zero-silent-corruption gate, per scenario: every injected
    // corruption was detected (a checksum violation) and repaired
    // (a re-encode), and nothing was detected that wasn't injected.
    assert_eq!(
        injected.3, cache.0,
        "scenario {}: injected corruptions must all be detected",
        sc.name
    );
    assert_eq!(
        cache.0, cache.1,
        "scenario {}: every detected corruption must be repaired",
        sc.name
    );
    ScenarioOutcome { name: sc.name, submitted, snap, injected, cache, final_rung, report }
}

fn sweep_table(zoo: &Zoo) -> (Table, Vec<ScenarioOutcome>) {
    let outcomes: Vec<ScenarioOutcome> = with_quiet_panics(|| {
        scenarios(zoo.quick).iter().map(|sc| run_scenario(zoo, sc)).collect()
    });
    let mut t = Table::new(
        "chaos-sweep",
        "Fault-scenario sweep: two workers, deterministic injection, full recovery",
        &[
            "scenario", "offered", "completed", "expired", "panics", "restarts", "recycles",
            "retries", "injected p/s/t/c", "detected/repaired", "rung after", "conserved",
        ],
    );
    for o in &outcomes {
        let (p, s, tr, c) = o.injected;
        let (det, rep) = o.cache;
        t.row(vec![
            o.name.to_string(),
            count(o.submitted),
            count(o.snap.completed),
            count(o.snap.expired()),
            count(o.snap.worker_panics),
            count(o.snap.worker_restarts),
            count(o.snap.watchdog_recycles),
            count(o.snap.retries),
            format!("{p}/{s}/{tr}/{c}"),
            format!("{det}/{rep}"),
            count(o.final_rung as u64),
            "yes".to_string(),
        ]);
    }
    t.note(
        "injected p/s/t/c = panics / stalls / transients / cache corruptions; in every \
         scenario injected corruptions == checksum detections == repairs (zero silent \
         corruption), conservation holds exactly, and the service ends unlatched.",
    );
    (t, outcomes)
}

/// Recovery-sequence table: the corruption scenario's event log, one
/// row per event kind in order of first occurrence. The seq numbers
/// prove the order — latch engaged before repair before clear.
fn recovery_table(outcomes: &[ScenarioOutcome]) -> Table {
    let corrupt = outcomes
        .iter()
        .find(|o| o.name == "corrupt")
        .expect("sweep always runs the corrupt scenario");
    let events = &corrupt.report.events;
    let first = |want: fn(&EventKind) -> bool| events.iter().find(|e| want(&e.kind));
    let engaged = first(|k| matches!(k, EventKind::FaultLatchEngaged))
        .expect("corrupt scenario must latch");
    let cleared = first(|k| matches!(k, EventKind::FaultLatchCleared))
        .expect("corrupt scenario must clear the latch");
    let repaired = first(|k| matches!(k, EventKind::CacheRepaired { .. }))
        .expect("corrupt scenario must repair at least one rung");
    assert!(
        engaged.seq < cleared.seq,
        "latch must engage before it clears: {events:?}"
    );
    assert!(
        engaged.seq < repaired.seq,
        "first repair follows the first latch (corruption needs a revisit): {events:?}"
    );
    assert_eq!(corrupt.final_rung, 0, "recovered service must be back at full precision");

    let mut t = Table::new(
        "chaos-recovery",
        "Recovery sequence: corruption scenario event log (first occurrence per kind)",
        &["event", "first seq", "occurrences"],
    );
    let mut seen: Vec<&'static str> = Vec::new();
    for e in events {
        let label = e.kind.label();
        if seen.contains(&label) {
            continue;
        }
        seen.push(label);
        let n = events.iter().filter(|x| x.kind.label() == label).count();
        t.row(vec![label.to_string(), count(e.seq), count(n as u64)]);
    }
    t.note(format!(
        "ordered seq numbers prove the healing sequence: latch engaged (seq {}) before the \
         first checksum repair (seq {}) and before the latch cleared (seq {}); the service \
         ends at rung 0, full precision.",
        engaged.seq, repaired.seq, cleared.seq
    ));
    t
}

/// Run the experiment.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    // Campaign accounting reads tr-obs counters; make sure they tick.
    tr_obs::set_enabled(true);
    // Train/load the MLP once up front so engine builders only ever hit
    // the checkpoint cache.
    let _ = zoo.mlp();
    let cache = cache_table(zoo);
    let (sweep, outcomes) = sweep_table(zoo);
    let recovery = recovery_table(&outcomes);
    vec![cache, sweep, recovery]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::test_zoo;

    #[test]
    fn chaos_experiment_smoke() {
        let _gate = crate::experiments::common::timing_gate();
        let zoo = test_zoo();
        let tables = run(&zoo);
        assert_eq!(tables.len(), 3);
        // One sweep row per scenario.
        assert_eq!(tables[1].rows.len(), 6);
        // The recovery table saw at least latch-engage/repair/clear.
        assert!(tables[2].rows.len() >= 3);
    }
}
