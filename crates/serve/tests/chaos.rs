//! Self-healing integration tests: retries, circuit breakers, the
//! heartbeat watchdog, and clock-injected determinism — each driven by
//! a purpose-built misbehaving engine, each ending in a
//! conservation-checked report and an assertable recovery sequence in
//! the event log.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tr_nn::Precision;
use tr_serve::{
    BreakerConfig, DeadlineClass, Engine, EngineError, EngineFactory, EventKind, MockClock,
    RejectReason, RequestId, RetryPolicy, ShardedConfig, ShardedService, SharedClock,
};

/// An engine whose first `budget` inference attempts fail the given
/// way, then behave. The budget is shared across replicas (factory
/// rebuilds included), so a scripted failure episode spans worker
/// restarts and quarantine hunts.
struct ScriptedEngine {
    budget: Arc<AtomicI64>,
    transient: bool,
}

impl Engine for ScriptedEngine {
    fn set_precision(&mut self, _p: &Precision, _cost: f64) {}

    fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize> {
        match self.try_infer(inputs) {
            Ok(preds) => preds,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_infer(&mut self, inputs: &[&[f32]]) -> Result<Vec<usize>, EngineError> {
        if self.budget.fetch_sub(1, Ordering::SeqCst) > 0 {
            if self.transient {
                return Err(EngineError::Transient("scripted".to_string()));
            }
            panic!("scripted failure");
        }
        Ok(vec![0; inputs.len()])
    }
}

fn scripted_factory(budget: &Arc<AtomicI64>, transient: bool) -> EngineFactory {
    let budget = Arc::clone(budget);
    Arc::new(move || Box::new(ScriptedEngine { budget: Arc::clone(&budget), transient }))
}

fn one_worker_cfg() -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        workers_per_shard: 1,
        shard_queue_capacity: 16,
        max_batch: 4,
        batch_linger: Duration::from_millis(1),
        service_estimate: Duration::from_millis(1),
        ..ShardedConfig::default()
    }
}

/// Submit `input` as an interactive request of the single tenant.
fn submit(
    svc: &ShardedService,
    input: Vec<f32>,
    deadline: Duration,
) -> Result<RequestId, RejectReason> {
    svc.submit(0, DeadlineClass::Interactive, input, Some(deadline))
}

/// Wait until the service has resolved `n` terminal outcomes.
fn wait_terminal(svc: &ShardedService, n: u64) {
    let t0 = Instant::now();
    while svc.metrics_snapshot().terminal_total() < n {
        assert!(t0.elapsed() < Duration::from_secs(10), "service never resolved {n} outcomes");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn transient_errors_are_retried_to_success() {
    // Two transient failures, then healthy: with 5 attempts the batch
    // must complete on the third try — no quarantine, no restart.
    let budget = Arc::new(AtomicI64::new(2));
    let cfg = ShardedConfig {
        retry: RetryPolicy { max_attempts: 5, ..RetryPolicy::default() },
        ..one_worker_cfg()
    };
    let svc = ShardedService::start(cfg, scripted_factory(&budget, true)).unwrap();
    let id = submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    wait_terminal(&svc, 1);
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    let outcome = report.completions.iter().find(|c| c.id == id).unwrap();
    assert!(
        matches!(outcome.outcome, tr_serve::Outcome::Completed { .. }),
        "retried request must complete: {:?}",
        outcome.outcome
    );
    assert_eq!(report.snapshot.retries, 2, "exactly the scripted transients retried");
    assert_eq!(report.snapshot.retry_exhausted, 0);
    assert_eq!(report.snapshot.worker_restarts, 0, "retries must not burn the worker");
    assert_eq!(report.snapshot.quarantined, 0);
}

#[test]
fn exhausted_retries_fail_the_batch_and_log_the_event() {
    // More transients than the retry budget: the batch fails, the event
    // log records the exhaustion, and the quarantine hunt still resolves
    // the request (budget runs out by then, so it completes solo).
    let budget = Arc::new(AtomicI64::new(3));
    let cfg = ShardedConfig {
        retry: RetryPolicy { max_attempts: 3, base: Duration::from_micros(100), ..RetryPolicy::default() },
        ..one_worker_cfg()
    };
    let svc = ShardedService::start(cfg, scripted_factory(&budget, true)).unwrap();
    submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    wait_terminal(&svc, 1);
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    assert_eq!(report.snapshot.retries, 2, "two retries before the budget died");
    assert_eq!(report.snapshot.retry_exhausted, 1);
    assert!(
        report.events.iter().any(|e| matches!(e.kind, EventKind::RetryExhausted { worker: 0 })),
        "exhaustion must be logged: {:?}",
        report.events
    );
    assert_eq!(report.snapshot.completed, 1, "hunt resolves the batch after the storm");
}

#[test]
fn breaker_opens_probes_half_open_and_closes_in_order() {
    // Scripted panics trip the shard-0 breaker (threshold 2), the
    // cooldown admits a half-open probe, the probe succeeds, the breaker
    // closes — and the event log proves that exact order.
    let budget = Arc::new(AtomicI64::new(3));
    let cfg = ShardedConfig {
        breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(40) },
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        ..one_worker_cfg()
    };
    let svc = ShardedService::start(cfg, scripted_factory(&budget, false)).unwrap();
    // Two submissions, resolved one at a time so each batch fails alone
    // and the failures are consecutive for the breaker.
    submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    wait_terminal(&svc, 1);
    submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    wait_terminal(&svc, 2);
    // Breaker is now open; this request must wait out the cooldown and
    // ride the half-open probe to completion.
    let healed = submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    wait_terminal(&svc, 3);
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    assert_eq!(report.snapshot.breaker_opens, 1, "one trip: {:?}", report.events);
    let seq_of = |want: EventKind| {
        report
            .events
            .iter()
            .find(|e| e.kind == want)
            .unwrap_or_else(|| panic!("missing {want:?} in {:?}", report.events))
            .seq
    };
    let opened = seq_of(EventKind::BreakerOpened { worker: 0 });
    let probed = seq_of(EventKind::BreakerHalfOpen { worker: 0 });
    let closed = seq_of(EventKind::BreakerClosed { worker: 0 });
    assert!(opened < probed && probed < closed, "recovery order: {:?}", report.events);
    let outcome = report.completions.iter().find(|c| c.id == healed).unwrap();
    assert!(matches!(outcome.outcome, tr_serve::Outcome::Completed { .. }));
}

/// An engine whose first inference (across all replicas) wedges for
/// `stall` of real time — long past the watchdog's patience.
struct StallOnceEngine {
    fired: Arc<AtomicBool>,
    stall: Duration,
}

impl Engine for StallOnceEngine {
    fn set_precision(&mut self, _p: &Precision, _cost: f64) {}
    fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize> {
        if !self.fired.swap(true, Ordering::SeqCst) {
            std::thread::sleep(self.stall);
        }
        vec![0; inputs.len()]
    }
}

#[test]
fn watchdog_recycles_a_stalled_worker_and_service_keeps_serving() {
    let fired = Arc::new(AtomicBool::new(false));
    let factory: EngineFactory = {
        let fired = Arc::clone(&fired);
        Arc::new(move || {
            Box::new(StallOnceEngine { fired: Arc::clone(&fired), stall: Duration::from_millis(400) })
        })
    };
    let cfg = ShardedConfig {
        watchdog_interval: Duration::from_millis(10),
        watchdog_stall: Duration::from_millis(60),
        ..one_worker_cfg()
    };
    let svc = ShardedService::start(cfg, factory).unwrap();
    let stalled = submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    // While worker 0 is wedged, the replacement must pick up new work.
    std::thread::sleep(Duration::from_millis(150));
    let fresh = submit(&svc, vec![0.0], Duration::from_secs(5)).unwrap();
    wait_terminal(&svc, 2);
    // Give the woken zombie time to notice its generation and exit.
    std::thread::sleep(Duration::from_millis(400));
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    assert!(report.snapshot.watchdog_recycles >= 1, "stall must trigger the watchdog");
    assert!(
        report.events.iter().any(|e| matches!(e.kind, EventKind::WatchdogRecycled { worker: 0 })),
        "recycle must be logged: {:?}",
        report.events
    );
    // Both requests resolved: the zombie finishes its held batch before
    // exiting; the replacement serves the fresh one.
    for id in [stalled, fresh] {
        let c = report.completions.iter().find(|c| c.id == id).unwrap();
        assert!(
            matches!(c.outcome, tr_serve::Outcome::Completed { .. }),
            "request {id}: {:?}",
            c.outcome
        );
    }
}

#[test]
fn mock_clock_makes_service_timing_deterministic() {
    // With a frozen MockClock injected, every latency the service
    // measures is exactly zero — timing decisions run on the injected
    // clock, not the machine's, which is what makes chaos campaigns
    // reproducible on loaded CI hosts.
    let clock = Arc::new(MockClock::new());
    let budget = Arc::new(AtomicI64::new(0));
    let cfg = ShardedConfig {
        clock: Arc::clone(&clock) as SharedClock,
        // Keep the watchdog's virtual patience irrelevant: the frozen
        // clock never ages heartbeats.
        ..one_worker_cfg()
    };
    let svc = ShardedService::start(cfg, scripted_factory(&budget, true)).unwrap();
    for _ in 0..8 {
        submit(&svc, vec![0.0], Duration::from_millis(50)).unwrap();
    }
    wait_terminal(&svc, 8);
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    assert_eq!(report.snapshot.completed, 8, "frozen deadlines never expire");
    assert_eq!(
        report.snapshot.latencies_us.max(),
        Some(0),
        "all latency must be measured on the frozen clock"
    );
    assert_eq!(report.snapshot.watchdog_recycles, 0);
}
