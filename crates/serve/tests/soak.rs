//! Multi-threaded soak test for the serving stack: hundreds of requests
//! from concurrent clients, deterministic seeded poison injection
//! (requests that panic the worker), tight deadlines that expire, and a
//! burst phase that overflows the bounded queue — all while the
//! conservation law must hold: every submitted request gets exactly one
//! terminal outcome, no request is lost, none is double-completed.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use tr_serve::{
    nn_engine_factory, DeadlineClass, LadderConfig, Outcome, RejectReason, RequestId,
    ShardedConfig, ShardedService,
};
use tr_tensor::Rng;

const INPUT_DIM: usize = 8;

fn factory(pace: Duration) -> tr_serve::EngineFactory {
    nn_engine_factory(
        || {
            let mut rng = Rng::seed_from_u64(0x50AC);
            tr_nn::Sequential::new().push(tr_nn::layers::Linear::new(INPUT_DIM, 4, &mut rng))
        },
        INPUT_DIM,
        pace,
        0xD1CE,
    )
}

fn soak_cfg() -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        workers_per_shard: 3,
        shard_queue_capacity: 32,
        max_batch: 4,
        batch_linger: Duration::from_millis(1),
        service_estimate: Duration::from_millis(2),
        ladder: LadderConfig::default_tr_ladder(),
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

/// One client thread's transcript of what it submitted.
struct ClientLog {
    poison: Vec<RequestId>,
    clean: Vec<RequestId>,
    rejected: u64,
}

fn run_client(svc: &ShardedService, seed: u64, requests: usize) -> ClientLog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut log = ClientLog { poison: Vec::new(), clean: Vec::new(), rejected: 0 };
    for _ in 0..requests {
        // ~6% of requests are poison (non-finite feature → engine panic).
        let is_poison = rng.next_u64().is_multiple_of(16);
        let mut input: Vec<f32> = (0..INPUT_DIM).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        if is_poison {
            input[0] = f32::NAN;
        }
        // Deadlines span generous (1s) down to tight (3ms): the tight
        // tail exercises queue expiry and late-completion discard.
        let deadline = match rng.next_u64() % 8 {
            0 => Duration::from_millis(3),
            1 => Duration::from_millis(20),
            _ => Duration::from_secs(1),
        };
        match submit(svc, input, deadline) {
            Ok(id) if is_poison => log.poison.push(id),
            Ok(id) => log.clean.push(id),
            Err(_) => log.rejected += 1,
        }
        // Occasional pause so the queue drains and batches vary in size.
        if rng.next_u64().is_multiple_of(8) {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    log
}

#[test]
fn soak_conserves_every_request_under_panics_deadlines_and_bursts() {
    let svc = Arc::new(ShardedService::start(soak_cfg(), factory(Duration::from_micros(200))).unwrap());
    let clients = 4;
    let per_client = 150;
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || run_client(&svc, 0xBEEF + c, per_client)));
    }
    let logs: Vec<ClientLog> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Let in-flight work settle before shutdown (shutdown also drains).
    std::thread::sleep(Duration::from_millis(50));
    let svc = Arc::try_unwrap(svc).unwrap_or_else(|_| panic!("clients still hold the service"));
    let report = svc.shutdown();

    // The conservation law: submitted == terminal outcomes, unique ids.
    report.verify_conservation().unwrap();
    let expected = clients * u64::try_from(per_client).unwrap();
    assert_eq!(report.snapshot.submitted, expected);

    // Client-side rejected counts agree with the service's.
    let client_rejected: u64 = logs.iter().map(|l| l.rejected).sum();
    assert_eq!(report.snapshot.rejected, client_rejected);

    // Poison requests never complete; clean requests are never
    // quarantined. (They may expire — that is a timing outcome — but a
    // poison classification must not leak through, and a healthy request
    // must never be blamed for a panic.)
    let by_id: std::collections::HashMap<RequestId, &Outcome> =
        report.completions.iter().map(|c| (c.id, &c.outcome)).collect();
    for log in &logs {
        for id in &log.poison {
            let outcome = by_id.get(id).expect("poison request has an outcome");
            assert!(
                !matches!(outcome, Outcome::Completed { .. }),
                "poison request {id} completed: {outcome:?}"
            );
        }
        for id in &log.clean {
            let outcome = by_id.get(id).expect("clean request has an outcome");
            assert!(
                !matches!(outcome, Outcome::Quarantined),
                "clean request {id} quarantined"
            );
        }
    }

    // Panics happened and were contained: workers were restarted and the
    // service kept completing requests afterwards.
    assert!(report.snapshot.worker_panics > 0, "soak must exercise panic isolation");
    assert!(report.snapshot.worker_restarts > 0, "panicked workers must be respawned");
    assert!(report.snapshot.completed > 0, "service must keep serving through panics");
    assert!(report.snapshot.quarantined > 0, "poison requests must be quarantined");

    // Ids are globally unique across clients too.
    let mut all: HashSet<RequestId> = HashSet::new();
    for log in &logs {
        for id in log.poison.iter().chain(&log.clean) {
            assert!(all.insert(*id), "duplicate id {id}");
        }
    }
}

#[test]
fn burst_overload_rejects_then_recovers() {
    // A single slow worker and a small queue: a synchronous burst must
    // overflow admission, and after the burst drains the service must
    // accept and complete new work.
    let cfg = ShardedConfig { shard_queue_capacity: 8, workers_per_shard: 1, ..soak_cfg() };
    let svc = ShardedService::start(cfg, factory(Duration::from_millis(2))).unwrap();
    let mut rng = Rng::seed_from_u64(0xFEED);
    let mut rejected = 0u64;
    for _ in 0..64 {
        let input: Vec<f32> = (0..INPUT_DIM).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        if submit(&svc, input, Duration::from_secs(2)).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "a 64-request burst into an 8-slot queue must reject");
    // Drain, then prove recovery.
    std::thread::sleep(Duration::from_millis(300));
    let input: Vec<f32> = (0..INPUT_DIM).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
    let late_id = submit(&svc, input, Duration::from_secs(2)).expect("service recovers after burst");
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    let late = report.completions.iter().find(|c| c.id == late_id).unwrap();
    assert!(matches!(late.outcome, Outcome::Completed { .. }), "post-burst request completes");
    assert_eq!(report.snapshot.rejected, rejected);
}

#[test]
fn ladder_sheds_load_under_sustained_pressure_and_recovers() {
    // Aggressive pacing + steady oversubmission keeps the queue near
    // capacity, which must walk the ladder down; once submissions stop
    // and the queue drains, observations below the low watermark must
    // walk it back to rung 0.
    let cfg = ShardedConfig {
        shard_queue_capacity: 16,
        max_batch: 2,
        workers_per_shard: 1,
        ladder: LadderConfig { patience: 2, cooldown: 2, ..LadderConfig::default_tr_ladder() },
        ..soak_cfg()
    };
    let svc = ShardedService::start(cfg, factory(Duration::from_millis(3))).unwrap();
    let mut rng = Rng::seed_from_u64(0xACE);
    for _ in 0..120 {
        let input: Vec<f32> = (0..INPUT_DIM).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let _ = submit(&svc, input, Duration::from_secs(10));
        std::thread::sleep(Duration::from_micros(300));
    }
    let mid_rung = svc.tenant_rung(0);
    // Stop offering load; let the queue drain fully, then give the
    // ladder enough relief observations to climb home.
    for _ in 0..200 {
        if svc.queue_depths().iter().sum::<usize>() == 0 && svc.tenant_rung(0) == Some(0) {
            break;
        }
        let input: Vec<f32> = (0..INPUT_DIM).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
        let _ = submit(&svc, input, Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(8));
    }
    let report = svc.shutdown();
    report.verify_conservation().unwrap();
    assert!(
        report.tenants[0].deepest_rung > 0,
        "sustained overload must engage the ladder (mid rung was {mid_rung:?}, tenant: {:?})",
        report.tenants[0]
    );
    assert_eq!(report.tenants[0].final_rung, 0, "relief must restore full precision");
    assert!(report.snapshot.reconfigurations >= 2, "down and back up");
}
