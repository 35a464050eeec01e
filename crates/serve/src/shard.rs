//! The batched inference service: N worker shards, replica-aware
//! dispatch, and per-tenant robustness policy. A single-tenant,
//! single-queue deployment is the 1×1 case (`shards: 1`, one tenant).
//!
//! ```text
//!            submit(tenant, class, input)
//!                      │
//!              tenant token bucket ──▶ TenantOverQuota
//!                      │
//!             hash(tenant) → home shard
//!                      │ class-graded admission
//!                      ▼
//!   shard 0 queue   shard 1 queue  …  shard N-1 queue
//!      │ lanes          │ lanes           │ lanes
//!      ▼                ▼                 ▼
//!   workers 0..W     workers 0..W      workers 0..W
//!      └──────── work stealing on imbalance ────────┘
//!                 (breaker- & probe-aware)
//! ```
//!
//! Robustness policy is *per tenant*:
//!
//! * **admission quotas** — each tenant owns a [`TokenBucket`]; an empty
//!   bucket rejects with [`RejectReason::TenantOverQuota`] before the
//!   request touches any queue;
//! * **deadline classes** — interactive/batch/best-effort carry their
//!   own default deadlines and class-graded queue limits, so best-effort
//!   floods shed before they crowd out interactive traffic;
//! * **per-tenant precision ladders** — every tenant rides its own
//!   [`Ladder`] (certificate-gated via [`Ladder::new_certified`] when a
//!   [`CertificatePolicy`] is configured); an SLO pin clamps how deep
//!   pressure may degrade that tenant, so pinned tenants hold their
//!   rung while unpinned tenants step down first. Batches are formed
//!   single-tenant ([`BoundedQueue::pop_batch_tenant`]) so each batch
//!   runs at exactly its tenant's rung.
//!
//! Work stealing respects shard circuit-breaker state: an idle shard
//! steals from the deepest queue that is either overloaded (depth ≥
//! `steal_threshold`) or *tripped open* — rescuing a broken shard's
//! queued work instead of letting it expire — but never from a shard
//! whose breaker is half-open, because the recovery probe needs that
//! work to validate the shard.
//!
//! Every worker runs its batches under `catch_unwind`: a panicking
//! batch is re-run request by request on a fresh replica (the
//! quarantine hunt), solo panickers end `Quarantined`, and the
//! supervisor respawns the worker. Every submitted request reaches
//! exactly one terminal [`Outcome`], checked by
//! [`ShardedReport::verify_conservation`].
//!
//! A datapath canary ([`ShardedService::record_fault_report`]) feeds a
//! silent-corruption monitor; when it trips, every tenant ladder latches
//! onto the QT fallback rung until [`ShardedService::clear_fault_latch`].
//!
//! Hot swap ([`ShardedService::hot_swap`]) publishes a new engine
//! factory under a bumped generation through the [`HotSwap`] cell.
//! Workers poll the generation between batches: in-flight batches
//! finish on the old generation, then the replica is rebuilt (its
//! per-rung `PreparedWeights` cache integrity-verified on first touch).
//! The supervisor recycles any slot still serving an old generation
//! past the configured grace window.

use crate::backoff::{mix, RetryPolicy};
use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::clock::{monotonic, SharedClock};
use crate::engine::{Engine, EngineError, EngineFactory};
use crate::events::{EventKind, EventLog, ServeEvent};
use crate::hotswap::{HotSwap, ModelGeneration};
use crate::ladder::{Ladder, LadderConfig};
use crate::metrics::{Metrics, MetricsSnapshot, TenantMetrics, TenantSnapshot};
use crate::queue::BoundedQueue;
use crate::request::{Completion, ExpiredAt, Outcome, RejectReason, Request, RequestId};
use crate::tenant::{DeadlineClass, TenantId, TenantPolicy, TokenBucket};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tr_analysis::CertificateTable;
use tr_core::TrError;
use tr_hw::{FaultMonitor, FaultReport};
use tr_obs::NamedCounter;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Datapath-canary reports the fault monitor's sliding window holds.
const MONITOR_WINDOW: usize = 8;
/// Silent corruptions within the window tolerated before the monitor
/// trips: any silent corruption latches the QT fallback.
const MONITOR_SILENT_THRESHOLD: u64 = 0;

/// Require a soundness certificate for every ladder rung, checked at
/// startup via [`Ladder::new_certified`]: an uncertified or tampered
/// rung refuses to come up instead of serving unproven precision.
#[derive(Clone)]
pub struct CertificatePolicy {
    /// The sealed certificate table produced by the tr-analysis prover.
    pub table: Arc<CertificateTable>,
    /// Fingerprint of the model the certificates were proved against.
    pub fingerprint: u64,
}

/// Tuning knobs for a [`ShardedService`].
#[derive(Clone)]
pub struct ShardedConfig {
    /// Number of worker shards (each owns a queue and a breaker).
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Per-shard queue capacity (interactive admission limit).
    pub shard_queue_capacity: usize,
    /// Largest batch handed to an engine.
    pub max_batch: usize,
    /// Longest a worker waits to fill a batch past the first request.
    pub batch_linger: Duration,
    /// Per-batch execution estimate for expiry-at-formation decisions.
    pub service_estimate: Duration,
    /// Ladder template; every tenant gets its own instance (plus its
    /// SLO pin, when configured).
    pub ladder: LadderConfig,
    /// The tenant table. A request's `tenant` id indexes this vector;
    /// out-of-range ids are rejected with `UnknownTenant`.
    pub tenants: Vec<TenantPolicy>,
    /// Time source for every deadline/quota/heartbeat/grace decision.
    pub clock: SharedClock,
    /// Per-*shard* circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// Retry policy for transient engine errors.
    pub retry: RetryPolicy,
    /// How often the supervisor scans heartbeats and swap laggards.
    pub watchdog_interval: Duration,
    /// Heartbeat age past which a worker slot is recycled.
    pub watchdog_stall: Duration,
    /// How long an idle worker blocks on its empty queue before waking
    /// to heartbeat and look for steals.
    pub worker_idle_poll: Duration,
    /// Minimum victim queue depth for *imbalance* stealing. Tripped
    /// (open-breaker) victims are stolen from at any depth.
    pub steal_threshold: usize,
    /// How long a worker may keep serving an old model generation after
    /// a hot swap before the supervisor recycles its slot.
    pub swap_grace: Duration,
    /// When set, every tenant ladder is built with
    /// [`Ladder::new_certified`] against this table.
    pub certificates: Option<CertificatePolicy>,
}

impl Default for ShardedConfig {
    fn default() -> ShardedConfig {
        ShardedConfig {
            shards: 4,
            workers_per_shard: 1,
            shard_queue_capacity: 64,
            max_batch: 8,
            batch_linger: Duration::from_millis(2),
            service_estimate: Duration::from_millis(10),
            ladder: LadderConfig::default_tr_ladder(),
            tenants: vec![TenantPolicy::new("default")],
            clock: monotonic(),
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            watchdog_interval: Duration::from_millis(25),
            watchdog_stall: Duration::from_secs(2),
            worker_idle_poll: Duration::from_millis(50),
            steal_threshold: 4,
            swap_grace: Duration::from_millis(500),
            certificates: None,
        }
    }
}

/// The `serve.tenant.<name>.*` obs counters for one tenant.
struct TenantCounters {
    admitted: NamedCounter,
    rejected: NamedCounter,
    expired: NamedCounter,
    degraded_rungs: NamedCounter,
    slo_violations: NamedCounter,
}

impl TenantCounters {
    fn new(name: &str) -> TenantCounters {
        let c = |suffix: &str| tr_obs::recorder().named_counter(&format!("serve.tenant.{name}.{suffix}"));
        TenantCounters {
            admitted: c("admitted"),
            rejected: c("rejected"),
            expired: c("expired"),
            degraded_rungs: c("degraded_rungs"),
            slo_violations: c("slo_violations"),
        }
    }
}

/// Everything the service tracks per tenant at run time.
struct TenantState {
    policy: TenantPolicy,
    /// This tenant's own degradation ladder (SLO pin applied).
    ladder: Mutex<Ladder>,
    /// Admission quota; `None` means unmetered.
    bucket: Option<Mutex<TokenBucket>>,
    metrics: TenantMetrics,
    counters: TenantCounters,
}

/// Everything workers, supervisor, and clients share.
struct ShardShared {
    cfg: ShardedConfig,
    /// One bounded queue per shard.
    queues: Vec<BoundedQueue>,
    tenants: Vec<TenantState>,
    hot: HotSwap,
    metrics: Metrics,
    completions: Mutex<Vec<Completion>>,
    /// Silent-corruption monitor over the shared datapath canary.
    monitor: Mutex<FaultMonitor>,
    events: EventLog,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// One breaker per *shard* — stealing decisions read victim state
    /// here, and it outlives worker respawns.
    shard_breakers: Vec<Mutex<CircuitBreaker>>,
    /// Per worker-slot heartbeat, µs on the service clock since `epoch`.
    heartbeats: Vec<AtomicU64>,
    /// Per-slot supervision generation (watchdog supersession).
    generations: Vec<AtomicU64>,
    /// Model generation each slot's engine replica was built from.
    engine_generations: Vec<AtomicU64>,
    /// Completions served per model generation (hot-swap audit: both
    /// sides of a swap must appear, nothing on a generation that never
    /// existed).
    served_by_generation: Mutex<BTreeMap<u64, u64>>,
    epoch: Instant,
}

impl ShardShared {
    fn now_us(&self) -> u64 {
        u64::try_from(self.cfg.clock.now().duration_since(self.epoch).as_micros())
            .unwrap_or(u64::MAX)
    }

    fn beat(&self, slot: usize) {
        self.heartbeats[slot].store(self.now_us(), Ordering::SeqCst);
    }

    fn slots(&self) -> usize {
        self.cfg.shards * self.cfg.workers_per_shard
    }

    fn tenant(&self, tenant: TenantId) -> Option<&TenantState> {
        self.tenants.get(usize::try_from(tenant).unwrap_or(usize::MAX))
    }

    /// A tenant's home shard: hash dispatch, stable across the run.
    fn home_shard(&self, tenant: TenantId) -> usize {
        let n = u64::try_from(self.queues.len().max(1)).unwrap_or(1);
        usize::try_from(mix(u64::from(tenant)) % n).unwrap_or(0)
    }

    /// Latch (or clear) the fault fallback on every tenant ladder.
    /// Returns whether any ladder changed state.
    fn set_fault_latch(&self, latched: bool) -> bool {
        let mut changed = false;
        for ts in &self.tenants {
            let mut ladder = lock(&ts.ladder);
            let was = ladder.fault_latched();
            if latched {
                ladder.latch_fault();
            } else {
                ladder.clear_fault();
            }
            changed |= ladder.fault_latched() != was;
        }
        changed
    }

    /// Resolve a request the engine classified as `class` at `now`:
    /// completed when it beat its deadline, otherwise expired after
    /// execution (a late result is discarded, so completed latency never
    /// exceeds the deadline).
    fn finish_executed(&self, r: &Request, class: usize, rung: usize, generation: u64, now: Instant) {
        let outcome = if now > r.deadline {
            Outcome::Expired(ExpiredAt::AfterExecution)
        } else {
            Outcome::Completed { class, latency: now.duration_since(r.submitted), rung, generation }
        };
        self.finish(r.id, r.tenant, r.class, outcome);
    }

    /// The single terminal-outcome funnel: global counters, per-tenant
    /// counters (+ obs mirrors), the generation audit, and the
    /// completion log all update here and nowhere else.
    fn finish(&self, id: RequestId, tenant: TenantId, class: DeadlineClass, outcome: Outcome) {
        match &outcome {
            Outcome::Completed { latency, rung, generation, .. } => {
                self.metrics.completed.fetch_add(1, Ordering::SeqCst);
                if *rung > 0 {
                    self.metrics.degraded.fetch_add(1, Ordering::SeqCst);
                }
                self.metrics.push_latency(*latency);
                *lock(&self.served_by_generation).entry(*generation).or_insert(0) += 1;
            }
            Outcome::Rejected(reason) => {
                self.metrics.rejected.fetch_add(1, Ordering::SeqCst);
                if matches!(reason, RejectReason::TenantOverQuota { .. }) {
                    self.metrics.quota_rejections.fetch_add(1, Ordering::SeqCst);
                }
            }
            Outcome::Expired(ExpiredAt::Queue) => {
                self.metrics.expired_queue.fetch_add(1, Ordering::SeqCst);
            }
            Outcome::Expired(ExpiredAt::AfterExecution) => {
                self.metrics.expired_late.fetch_add(1, Ordering::SeqCst);
            }
            Outcome::Quarantined => {
                self.metrics.quarantined.fetch_add(1, Ordering::SeqCst);
            }
        }
        if let Some(ts) = self.tenant(tenant) {
            let violated = ts.metrics.record_outcome(class, &outcome, ts.policy.slo_pin);
            if violated {
                self.metrics.slo_pin_violations.fetch_add(1, Ordering::SeqCst);
                ts.counters.slo_violations.inc();
            }
            match &outcome {
                Outcome::Completed { rung, .. } => {
                    if *rung > 0 {
                        ts.counters.degraded_rungs.inc();
                    }
                }
                Outcome::Rejected(_) => ts.counters.rejected.inc(),
                Outcome::Expired(_) => ts.counters.expired.inc(),
                Outcome::Quarantined => {}
            }
        }
        lock(&self.completions).push(Completion { id, tenant, class, outcome });
    }
}

enum WorkerExit {
    Clean,
    Panicked,
}

enum WorkerEvent {
    Exited { slot: usize, gen: u64, panicked: bool },
}

/// Per-tenant section of a [`ShardedReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's configured name.
    pub name: String,
    /// The tenant's SLO pin, if any.
    pub slo_pin: Option<usize>,
    /// Final per-tenant counters with per-class breakdown.
    pub snapshot: TenantSnapshot,
    /// Rung the tenant's ladder ended on.
    pub final_rung: usize,
    /// Deepest rung the tenant's ladder visited.
    pub deepest_rung: usize,
}

/// Final report produced by [`ShardedService::shutdown`].
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// Final global counter snapshot.
    pub snapshot: MetricsSnapshot,
    /// Every terminal outcome, in completion order, tenant-tagged.
    pub completions: Vec<Completion>,
    /// Per-tenant reports, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Ordered recovery events.
    pub events: Vec<ServeEvent>,
    /// Completions served per model generation.
    pub served_by_generation: BTreeMap<u64, u64>,
    /// Model generation current at shutdown.
    pub final_generation: u64,
}

impl ShardedReport {
    /// The conservation law, globally *and per tenant*: every submitted
    /// request has exactly one terminal outcome, ids are unique, global
    /// counters agree with the completion log, and each tenant's
    /// counters agree with the tenant-tagged completions.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let s = &self.snapshot;
        let outcomes = u64::try_from(self.completions.len()).unwrap_or(u64::MAX);
        if s.submitted != outcomes {
            return Err(format!(
                "lost/duplicated requests: {} submitted vs {} terminal outcomes",
                s.submitted,
                self.completions.len()
            ));
        }
        let mut ids: Vec<RequestId> = self.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.completions.len() {
            return Err(format!(
                "double-completed requests: {} unique ids over {} outcomes",
                ids.len(),
                self.completions.len()
            ));
        }
        if s.terminal_total() != s.submitted {
            return Err(format!(
                "counter mismatch: terminal total {} vs submitted {}",
                s.terminal_total(),
                s.submitted
            ));
        }
        if s.latencies_us.count() != s.completed {
            return Err(format!(
                "latency log mismatch: {} samples vs {} completed",
                s.latencies_us.count(),
                s.completed
            ));
        }
        // Per-tenant: counter-vs-log agreement and no leaks inside a
        // tenant either.
        let mut by_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        for c in &self.completions {
            *by_tenant.entry(c.tenant).or_insert(0) += 1;
        }
        for (i, tr) in self.tenants.iter().enumerate() {
            let tid = u32::try_from(i).unwrap_or(u32::MAX);
            let t = &tr.snapshot;
            if t.submitted != t.terminal_total() {
                return Err(format!(
                    "tenant '{}' leaked requests: {} submitted vs {} terminal",
                    tr.name,
                    t.submitted,
                    t.terminal_total()
                ));
            }
            let logged = by_tenant.get(&tid).copied().unwrap_or(0);
            if logged != t.terminal_total() {
                return Err(format!(
                    "tenant '{}' log mismatch: {} logged outcomes vs {} counted",
                    tr.name,
                    logged,
                    t.terminal_total()
                ));
            }
        }
        // Unknown-tenant submissions may only ever be rejected.
        let known = u32::try_from(self.tenants.len()).unwrap_or(u32::MAX);
        for c in &self.completions {
            if c.tenant >= known && !matches!(c.outcome, Outcome::Rejected(_)) {
                return Err(format!(
                    "unknown tenant {} reached a non-reject outcome {:?}",
                    c.tenant, c.outcome
                ));
            }
        }
        Ok(())
    }

    /// No pinned tenant was ever *served* below its SLO rung — checked
    /// from the counters and re-derived from the completion log.
    ///
    /// # Errors
    /// Names the first pinned tenant whose pin was violated.
    pub fn verify_slo_pins(&self) -> Result<(), String> {
        for tr in &self.tenants {
            if tr.snapshot.slo_violations > 0 {
                return Err(format!(
                    "tenant '{}' served below its SLO pin {:?} ({} violations)",
                    tr.name, tr.slo_pin, tr.snapshot.slo_violations
                ));
            }
        }
        for c in &self.completions {
            if let Outcome::Completed { rung, .. } = c.outcome {
                let pin = usize::try_from(c.tenant)
                    .ok()
                    .and_then(|i| self.tenants.get(i))
                    .and_then(|tr| tr.slo_pin);
                if pin.is_some_and(|p| rung > p) {
                    return Err(format!(
                        "completion {} of tenant {} ran at rung {rung} past its pin {pin:?}",
                        c.id, c.tenant
                    ));
                }
            }
        }
        Ok(())
    }

    /// Hot-swap audit: every completion's generation must be one that
    /// was actually published (0..=final), and when `expect_swap` the
    /// log must show completions on at least two generations.
    ///
    /// # Errors
    /// Describes the violation.
    pub fn verify_generations(&self, expect_swap: bool) -> Result<(), String> {
        for (generation, served) in &self.served_by_generation {
            if *generation > self.final_generation {
                return Err(format!(
                    "{served} completions on unpublished generation {generation} (final is {})",
                    self.final_generation
                ));
            }
        }
        if expect_swap && self.served_by_generation.len() < 2 {
            return Err(format!(
                "expected completions across a hot swap, saw generations {:?}",
                self.served_by_generation.keys().collect::<Vec<_>>()
            ));
        }
        Ok(())
    }
}

/// The running sharded service. Always [`ShardedService::shutdown`] for
/// a conservation-checked report.
pub struct ShardedService {
    shared: Arc<ShardShared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl ShardedService {
    /// Build the shared state without spawning any threads (tests drive
    /// worker logic deterministically on top of this).
    fn build_shared(cfg: ShardedConfig, factory: EngineFactory) -> Result<Arc<ShardShared>, TrError> {
        if cfg.shards == 0
            || cfg.workers_per_shard == 0
            || cfg.shard_queue_capacity == 0
            || cfg.max_batch == 0
        {
            return Err(TrError::InvalidConfig(
                "sharded service needs at least one shard, one worker, and a non-zero queue \
                 capacity and batch size"
                    .to_string(),
            ));
        }
        if cfg.tenants.is_empty() {
            return Err(TrError::InvalidConfig(
                "sharded service needs at least one tenant".to_string(),
            ));
        }
        let last = cfg.ladder.last_pressure_rung();
        let mut names: Vec<&str> = cfg.tenants.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != cfg.tenants.len() {
            return Err(TrError::InvalidTenantPolicy(
                "tenant names must be unique (they namespace obs counters)".to_string(),
            ));
        }
        let now = cfg.clock.now();
        let mut tenants = Vec::with_capacity(cfg.tenants.len());
        for policy in &cfg.tenants {
            policy.validate(last)?;
            let base = match &cfg.certificates {
                Some(cp) => Ladder::new_certified(cfg.ladder.clone(), &cp.table, cp.fingerprint)?,
                None => Ladder::new(cfg.ladder.clone())?,
            };
            let ladder = match policy.slo_pin {
                Some(pin) => base.with_slo_pin(pin)?,
                None => base,
            };
            tenants.push(TenantState {
                ladder: Mutex::new(ladder),
                bucket: policy.quota.as_ref().map(|q| Mutex::new(TokenBucket::new(q, now))),
                metrics: TenantMetrics::default(),
                counters: TenantCounters::new(&policy.name),
                policy: policy.clone(),
            });
        }
        let slots = cfg.shards * cfg.workers_per_shard;
        let epoch = cfg.clock.now();
        Ok(Arc::new(ShardShared {
            queues: (0..cfg.shards)
                .map(|_| BoundedQueue::with_clock(cfg.shard_queue_capacity, Arc::clone(&cfg.clock)))
                .collect(),
            tenants,
            hot: HotSwap::new(factory, Arc::clone(&cfg.clock)),
            metrics: Metrics::default(),
            completions: Mutex::new(Vec::new()),
            monitor: Mutex::new(FaultMonitor::new(MONITOR_WINDOW, MONITOR_SILENT_THRESHOLD)),
            events: EventLog::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            shard_breakers: (0..cfg.shards)
                .map(|_| Mutex::new(CircuitBreaker::new(cfg.breaker.clone())))
                .collect(),
            heartbeats: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            generations: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            engine_generations: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            served_by_generation: Mutex::new(BTreeMap::new()),
            epoch,
            cfg,
        }))
    }

    /// Start the service: `shards × workers_per_shard` workers plus the
    /// supervisor.
    ///
    /// # Errors
    /// [`TrError::InvalidConfig`] / [`TrError::InvalidTenantPolicy`] on
    /// a bad configuration, [`TrError::Uncertified`] when certificate
    /// gating is on and a rung has no valid certificate.
    pub fn start(cfg: ShardedConfig, factory: EngineFactory) -> Result<ShardedService, TrError> {
        let shared = ShardedService::build_shared(cfg, factory)?;
        let (tx, rx) = mpsc::channel::<WorkerEvent>();
        for slot in 0..shared.slots() {
            shared.beat(slot);
            spawn_shard_worker(Arc::clone(&shared), slot, 0, tx.clone());
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tr-shard-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, &rx, &tx))
                .expect("spawn supervisor thread")
        };
        Ok(ShardedService { shared, supervisor: Some(supervisor) })
    }

    /// Submit a request for `tenant` in `class`. `deadline_in` defaults
    /// to the class deadline. Every call consumes an id and is
    /// accounted for — a rejection is a terminal outcome, not a silent
    /// drop.
    ///
    /// # Errors
    /// [`RejectReason`] when the request was not admitted.
    pub fn submit(
        &self,
        tenant: TenantId,
        class: DeadlineClass,
        input: Vec<f32>,
        deadline_in: Option<Duration>,
    ) -> Result<RequestId, RejectReason> {
        let sh = &self.shared;
        let id = sh.next_id.fetch_add(1, Ordering::SeqCst);
        sh.metrics.submitted.fetch_add(1, Ordering::SeqCst);
        let Some(ts) = sh.tenant(tenant) else {
            let reason = RejectReason::UnknownTenant { tenant };
            sh.finish(id, tenant, class, Outcome::Rejected(reason));
            return Err(reason);
        };
        ts.metrics.submitted.fetch_add(1, Ordering::SeqCst);
        if sh.shutdown.load(Ordering::SeqCst) {
            let reason = RejectReason::ShuttingDown;
            sh.finish(id, tenant, class, Outcome::Rejected(reason));
            return Err(reason);
        }
        let now = sh.cfg.clock.now();
        if let Some(bucket) = &ts.bucket {
            if !lock(bucket).try_take(now) {
                let reason = RejectReason::TenantOverQuota { tenant };
                sh.events.record(EventKind::QuotaRejected { tenant });
                sh.finish(id, tenant, class, Outcome::Rejected(reason));
                return Err(reason);
            }
        }
        let deadline_in = deadline_in.unwrap_or_else(|| class.default_deadline());
        let req =
            Request { id, tenant, class, input, submitted: now, deadline: now + deadline_in };
        let shard = sh.home_shard(tenant);
        let limit = class.admission_limit(sh.cfg.shard_queue_capacity);
        match sh.queues[shard].try_push_bounded(req, limit) {
            Ok(_depth) => {
                ts.metrics.admitted.fetch_add(1, Ordering::SeqCst);
                ts.counters.admitted.inc();
                Ok(id)
            }
            Err(_back) => {
                let reason = RejectReason::QueueFull { capacity: sh.cfg.shard_queue_capacity };
                sh.finish(id, tenant, class, Outcome::Rejected(reason));
                Err(reason)
            }
        }
    }

    /// Publish `factory` as the next model generation. Returns the new
    /// generation number immediately — workers rebuild between batches,
    /// in-flight batches finish on the old generation, and the
    /// supervisor recycles stragglers after `swap_grace`.
    ///
    /// # Errors
    /// [`TrError::HotSwap`] when the service is shutting down.
    pub fn hot_swap(&self, factory: EngineFactory) -> Result<u64, TrError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(TrError::HotSwap("service is shutting down".to_string()));
        }
        let generation = self.shared.hot.swap(factory);
        self.shared.metrics.hot_swaps.fetch_add(1, Ordering::SeqCst);
        self.shared.events.record(EventKind::HotSwap { generation });
        // Wake idle workers so the rebuild isn't deferred until traffic.
        for q in &self.shared.queues {
            q.notify_all();
        }
        Ok(generation)
    }

    /// Feed a datapath-canary fault report into the monitor. The canary
    /// watches the datapath every tenant shares, so when the windowed
    /// silent-corruption count trips the monitor, every tenant ladder
    /// latches onto the QT fallback rung (logged once). Returns the
    /// trip state.
    pub fn record_fault_report(&self, report: &FaultReport) -> bool {
        let tripped = lock(&self.shared.monitor).record(report);
        if tripped && self.shared.set_fault_latch(true) {
            self.shared.events.record(EventKind::FaultLatchEngaged);
        }
        tripped
    }

    /// Clear the fault latch on every tenant ladder (after repair or
    /// re-verification) and reset the monitor window.
    pub fn clear_fault_latch(&self) {
        lock(&self.shared.monitor).reset();
        if self.shared.set_fault_latch(false) {
            self.shared.events.record(EventKind::FaultLatchCleared);
        }
    }

    /// Whether the fault latch is engaged.
    #[must_use]
    pub fn fault_latched(&self) -> bool {
        self.shared.tenants.iter().any(|ts| lock(&ts.ladder).fault_latched())
    }

    /// The model generation new batches will be served on.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.shared.hot.generation()
    }

    /// A tenant's home shard (hash dispatch; stable across the run).
    #[must_use]
    pub fn home_shard(&self, tenant: TenantId) -> usize {
        self.shared.home_shard(tenant)
    }

    /// Current per-shard queue depths.
    #[must_use]
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.queues.iter().map(BoundedQueue::len).collect()
    }

    /// A shard breaker's current state.
    #[must_use]
    pub fn breaker_state(&self, shard: usize) -> Option<BreakerState> {
        self.shared.shard_breakers.get(shard).map(|b| lock(b).state())
    }

    /// The rung `tenant`'s next batch would run at.
    #[must_use]
    pub fn tenant_rung(&self, tenant: TenantId) -> Option<usize> {
        self.shared.tenant(tenant).map(|ts| lock(&ts.ladder).current())
    }

    /// Live per-tenant counter snapshot.
    #[must_use]
    pub fn tenant_snapshot(&self, tenant: TenantId) -> Option<TenantSnapshot> {
        self.shared.tenant(tenant).map(|ts| ts.metrics.snapshot())
    }

    /// Live global counter snapshot.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Ordered copy of the recovery-event log so far.
    #[must_use]
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.events.snapshot()
    }

    /// Stop admissions, drain every shard, join all threads, and return
    /// the final report.
    #[must_use]
    pub fn shutdown(mut self) -> ShardedReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.notify_all();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        // Safety net: account for any leftovers so conservation holds
        // even if the drain was cut short by tail panics.
        for q in &self.shared.queues {
            for r in q.drain_all() {
                self.shared.finish(
                    r.id,
                    r.tenant,
                    r.class,
                    Outcome::Rejected(RejectReason::ShuttingDown),
                );
            }
        }
        let tenants = self
            .shared
            .tenants
            .iter()
            .map(|ts| {
                let ladder = lock(&ts.ladder);
                TenantReport {
                    name: ts.policy.name.clone(),
                    slo_pin: ts.policy.slo_pin,
                    snapshot: ts.metrics.snapshot(),
                    final_rung: ladder.current(),
                    deepest_rung: ladder.deepest(),
                }
            })
            .collect();
        ShardedReport {
            snapshot: self.shared.metrics.snapshot(),
            completions: lock(&self.shared.completions).clone(),
            tenants,
            events: self.shared.events.snapshot(),
            served_by_generation: lock(&self.shared.served_by_generation).clone(),
            final_generation: self.shared.hot.generation(),
        }
    }
}

fn spawn_shard_worker(
    shared: Arc<ShardShared>,
    slot: usize,
    gen: u64,
    events: mpsc::Sender<WorkerEvent>,
) {
    let spawned = std::thread::Builder::new()
        .name(format!("tr-shard-worker-{slot}"))
        .spawn(move || {
            let exit = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, slot, gen)));
            let panicked = !matches!(exit, Ok(WorkerExit::Clean));
            let _ = events.send(WorkerEvent::Exited { slot, gen, panicked });
        });
    spawned.expect("spawn shard worker thread");
}

fn supervisor_loop(
    shared: &Arc<ShardShared>,
    rx: &mpsc::Receiver<WorkerEvent>,
    tx: &mpsc::Sender<WorkerEvent>,
) {
    let mut alive = shared.slots();
    while alive > 0 {
        match rx.recv_timeout(shared.cfg.watchdog_interval) {
            Ok(WorkerEvent::Exited { slot, gen, panicked }) => {
                let shard = slot / shared.cfg.workers_per_shard;
                if gen != shared.generations[slot].load(Ordering::SeqCst) {
                    alive -= 1;
                } else if panicked
                    && (!shared.shutdown.load(Ordering::SeqCst)
                        || !shared.queues[shard].is_empty())
                {
                    shared.metrics.worker_restarts.fetch_add(1, Ordering::SeqCst);
                    shared.beat(slot);
                    spawn_shard_worker(Arc::clone(shared), slot, gen, tx.clone());
                } else {
                    alive -= 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    continue;
                }
                let now_us = shared.now_us();
                let stall_us =
                    u64::try_from(shared.cfg.watchdog_stall.as_micros()).unwrap_or(u64::MAX);
                for slot in 0..shared.slots() {
                    let beat = shared.heartbeats[slot].load(Ordering::SeqCst);
                    let stalled = now_us.saturating_sub(beat) > stall_us;
                    // A slot still serving an old model generation past
                    // the swap grace window is recycled exactly like a
                    // stall: the replacement builds from the current
                    // generation at startup.
                    let lagging = shared
                        .hot
                        .lagging(shared.engine_generations[slot].load(Ordering::SeqCst), shared.cfg.swap_grace);
                    if !stalled && !lagging {
                        continue;
                    }
                    let next_gen = shared.generations[slot].fetch_add(1, Ordering::SeqCst) + 1;
                    shared.beat(slot);
                    shared.metrics.watchdog_recycles.fetch_add(1, Ordering::SeqCst);
                    shared.events.record(EventKind::WatchdogRecycled { worker: slot });
                    alive += 1;
                    spawn_shard_worker(Arc::clone(shared), slot, next_gen, tx.clone());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Install `rung`'s precision (from `ladder`, the batch tenant's) on
/// the engine if it differs from what the engine currently runs.
fn sync_precision(
    shared: &ShardShared,
    ladder: &Mutex<Ladder>,
    engine: &mut Box<dyn Engine>,
    engine_rung: &mut Option<usize>,
    rung: usize,
) {
    if *engine_rung == Some(rung) {
        return;
    }
    let (precision, cost) = {
        let l = lock(ladder);
        (l.rung(rung).precision, l.cost_factor(rung))
    };
    engine.set_precision(&precision, cost);
    *engine_rung = Some(rung);
    shared.metrics.reconfigurations.fetch_add(1, Ordering::SeqCst);
}

/// Install tenant 0's current rung on a freshly built replica before it
/// accepts work: installing a precision can be expensive (it re-encodes
/// every weight), and paying it lazily on the first batch would stall
/// live requests right after a (re)start. The template ladder's rung set
/// is shared by every tenant, so tenant 0's ladder serves for all.
fn presync(shared: &ShardShared, engine: &mut Box<dyn Engine>, engine_rung: &mut Option<usize>) {
    let ladder = &shared.tenants[0].ladder;
    let rung = lock(ladder).current();
    sync_precision(shared, ladder, engine, engine_rung, rung);
}

fn harvest_repairs(shared: &ShardShared, engine: &dyn Engine, last_repairs: &mut u64, slot: usize) {
    let (_violations, repairs) = engine.integrity_stats();
    if repairs > *last_repairs {
        shared.metrics.cache_repairs.fetch_add(repairs - *last_repairs, Ordering::SeqCst);
        for _ in *last_repairs..repairs {
            shared.events.record(EventKind::CacheRepaired { worker: slot });
        }
        *last_repairs = repairs;
    }
}

/// Pick a steal victim for `thief` and pull a single-tenant batch from
/// it. Victim eligibility: non-empty, and either its breaker is *open*
/// (rescue a tripped shard's stranded work), or its depth is at least
/// `steal_threshold` (imbalance), or the service is draining. A
/// *half-open* victim is never stolen from — its recovery probe needs
/// the queued work. Deepest eligible queue wins.
fn try_steal(
    shared: &ShardShared,
    thief: usize,
) -> Option<(Vec<Request>, TenantId, usize, usize)> {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let mut victim: Option<(usize, usize)> = None;
    for (v, queue) in shared.queues.iter().enumerate() {
        if v == thief {
            continue;
        }
        let depth = queue.len();
        if depth == 0 {
            continue;
        }
        let state = lock(&shared.shard_breakers[v]).state();
        if state == BreakerState::HalfOpen {
            continue;
        }
        let eligible =
            state == BreakerState::Open || depth >= shared.cfg.steal_threshold || draining;
        if eligible && victim.is_none_or(|(_, d)| depth > d) {
            victim = Some((v, depth));
        }
    }
    let (v, _) = victim?;
    // Zero linger and zero idle: the steal never blocks — if the victim
    // queue was emptied in the meantime we just go around.
    let (pull, tenant) = shared.queues[v].pop_batch_tenant(
        shared.cfg.max_batch,
        Duration::ZERO,
        shared.cfg.service_estimate,
        Duration::ZERO,
        &shared.shutdown,
    );
    for r in pull.expired {
        shared.finish(r.id, r.tenant, r.class, Outcome::Expired(ExpiredAt::Queue));
    }
    if pull.batch.is_empty() {
        return None;
    }
    let tenant = tenant?;
    shared.metrics.steals.fetch_add(1, Ordering::SeqCst);
    shared
        .metrics
        .stolen_requests
        .fetch_add(u64::try_from(pull.batch.len()).unwrap_or(u64::MAX), Ordering::SeqCst);
    shared.events.record(EventKind::WorkStolen { from_shard: v, to_shard: thief });
    Some((pull.batch, tenant, v, pull.depth))
}

enum BatchAttempt {
    Done(Vec<usize>),
    Failed,
}

fn worker_loop(shared: &Arc<ShardShared>, slot: usize, gen: u64) -> WorkerExit {
    let shard = slot / shared.cfg.workers_per_shard;
    let clock = &shared.cfg.clock;
    let mut model: Arc<ModelGeneration> = shared.hot.current();
    let mut engine: Box<dyn Engine> = (model.factory)();
    let mut engine_rung: Option<usize> = None;
    let mut last_repairs = 0u64;
    shared.engine_generations[slot].store(model.generation, Ordering::SeqCst);
    presync(shared, &mut engine, &mut engine_rung);
    shared.beat(slot);
    loop {
        if shared.generations[slot].load(Ordering::SeqCst) != gen {
            return WorkerExit::Clean;
        }
        if shared.shutdown.load(Ordering::SeqCst) && shared.queues[shard].is_empty() {
            return WorkerExit::Clean;
        }
        shared.beat(slot);
        // Hot-swap poll between batches: rebuild the replica onto the
        // current generation before pulling more work.
        if shared.hot.generation() != model.generation {
            model = shared.hot.current();
            engine = (model.factory)();
            engine_rung = None;
            last_repairs = 0;
            shared.engine_generations[slot].store(model.generation, Ordering::SeqCst);
            shared.metrics.engine_rebuilds.fetch_add(1, Ordering::SeqCst);
            shared
                .events
                .record(EventKind::EngineRebuilt { worker: slot, generation: model.generation });
            presync(shared, &mut engine, &mut engine_rung);
            shared.beat(slot);
        }
        // Shard breaker gate before pulling (or stealing) work.
        let admitted = {
            let mut breaker = lock(&shared.shard_breakers[shard]);
            let (admit, transition) = breaker.admit(clock.now());
            if transition == Some(BreakerState::HalfOpen) {
                shared.events.record(EventKind::BreakerHalfOpen { worker: shard });
            }
            admit
        };
        if !admitted {
            clock.sleep(shared.cfg.breaker.cooldown.min(Duration::from_millis(5)));
            continue;
        }
        let (pull, tenant) = shared.queues[shard].pop_batch_tenant(
            shared.cfg.max_batch,
            shared.cfg.batch_linger,
            shared.cfg.service_estimate,
            shared.cfg.worker_idle_poll,
            &shared.shutdown,
        );
        shared.beat(slot);
        for r in pull.expired {
            shared.finish(r.id, r.tenant, r.class, Outcome::Expired(ExpiredAt::Queue));
        }
        let (batch, batch_tenant, depth) = if pull.batch.is_empty() {
            match try_steal(shared, shard) {
                Some((batch, t, _victim, depth)) => (batch, t, depth),
                None => {
                    lock(&shared.shard_breakers[shard]).release_probe();
                    continue;
                }
            }
        } else {
            (pull.batch, tenant.unwrap_or(0), pull.depth)
        };
        shared.metrics.batches.fetch_add(1, Ordering::SeqCst);
        let Some(ts) = shared.tenant(batch_tenant) else {
            // Unreachable: only known tenants are admitted. Fail safe by
            // expiring rather than dropping.
            for r in batch {
                shared.finish(r.id, r.tenant, r.class, Outcome::Expired(ExpiredAt::Queue));
            }
            continue;
        };
        // Pressure from the queue the batch came from; the *tenant's*
        // ladder decides its rung (SLO pin clamps step-down).
        #[allow(clippy::cast_precision_loss)]
        let pressure = depth as f64 / shared.cfg.shard_queue_capacity.max(1) as f64;
        let rung = lock(&ts.ladder).observe(pressure);
        sync_precision(shared, &ts.ladder, &mut engine, &mut engine_rung, rung);
        harvest_repairs(shared, engine.as_ref(), &mut last_repairs, slot);
        shared.beat(slot);
        let inputs: Vec<&[f32]> = batch.iter().map(|r| r.input.as_slice()).collect();
        let mut attempt = 0u32;
        let resolved = loop {
            attempt += 1;
            shared.beat(slot);
            let result = catch_unwind(AssertUnwindSafe(|| engine.try_infer(&inputs)));
            match result {
                Ok(Ok(preds)) if preds.len() == batch.len() => {
                    break BatchAttempt::Done(preds);
                }
                Ok(Err(EngineError::Transient(_))) if attempt < shared.cfg.retry.max_attempts => {
                    shared.metrics.retries.fetch_add(1, Ordering::SeqCst);
                    clock.sleep(
                        shared.cfg.retry.delay(attempt, u64::try_from(slot).unwrap_or(0)),
                    );
                }
                Ok(Err(EngineError::Transient(_))) => {
                    shared.metrics.retry_exhausted.fetch_add(1, Ordering::SeqCst);
                    shared.events.record(EventKind::RetryExhausted { worker: slot });
                    break BatchAttempt::Failed;
                }
                Ok(Ok(_)) | Ok(Err(EngineError::Fatal(_))) | Err(_) => {
                    shared.metrics.worker_panics.fetch_add(1, Ordering::SeqCst);
                    break BatchAttempt::Failed;
                }
            }
        };
        match resolved {
            BatchAttempt::Done(preds) => {
                {
                    let mut breaker = lock(&shared.shard_breakers[shard]);
                    if breaker.record_success() == Some(BreakerState::Closed) {
                        shared.events.record(EventKind::BreakerClosed { worker: shard });
                    }
                }
                let now = clock.now();
                for (r, class) in batch.iter().zip(preds) {
                    shared.finish_executed(r, class, rung, model.generation, now);
                }
            }
            BatchAttempt::Failed => {
                {
                    let mut breaker = lock(&shared.shard_breakers[shard]);
                    if breaker.record_failure(clock.now()) == Some(BreakerState::Open) {
                        shared.metrics.breaker_opens.fetch_add(1, Ordering::SeqCst);
                        shared.events.record(EventKind::BreakerOpened { worker: shard });
                    }
                }
                quarantine_hunt(shared, batch, &ts.ladder, rung, &model);
                return WorkerExit::Panicked;
            }
        }
    }
}

/// A batch panicked: resolve every request individually on fresh
/// replicas of the batch's model generation, quarantining solo
/// panickers. Runs on the dying worker thread.
fn quarantine_hunt(
    shared: &Arc<ShardShared>,
    batch: Vec<Request>,
    ladder: &Mutex<Ladder>,
    rung: usize,
    model: &ModelGeneration,
) {
    let clock = &shared.cfg.clock;
    let mut engine: Box<dyn Engine> = (model.factory)();
    let mut engine_rung: Option<usize> = None;
    sync_precision(shared, ladder, &mut engine, &mut engine_rung, rung);
    for r in batch {
        if clock.now() > r.deadline {
            shared.finish(r.id, r.tenant, r.class, Outcome::Expired(ExpiredAt::AfterExecution));
            continue;
        }
        let solo = catch_unwind(AssertUnwindSafe(|| engine.infer(&[r.input.as_slice()])));
        match solo {
            Ok(preds) if preds.len() == 1 => {
                shared.finish_executed(&r, preds[0], rung, model.generation, clock.now());
            }
            Ok(_) | Err(_) => {
                shared.finish(r.id, r.tenant, r.class, Outcome::Quarantined);
                // The engine may be corrupted by the unwind: rebuild
                // before touching the next request.
                engine = (model.factory)();
                engine_rung = None;
                sync_precision(shared, ladder, &mut engine, &mut engine_rung, rung);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, MockClock};
    use crate::engine::Engine;
    use tr_nn::Precision;

    /// Classifies by the second feature, panics on NaN first feature,
    /// and sleeps `work` per sample.
    struct TestEngine {
        tag: usize,
        work: Duration,
    }

    impl Engine for TestEngine {
        fn set_precision(&mut self, _p: &Precision, _c: f64) {}
        fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize> {
            let out = inputs
                .iter()
                .map(|row| {
                    assert!(!row[0].is_nan(), "poison input");
                    self.tag + row.get(1).map_or(0, |v| usize::from(*v >= 0.0))
                })
                .collect();
            std::thread::sleep(self.work * u32::try_from(inputs.len()).unwrap_or(1));
            out
        }
    }

    fn tagged_factory(tag: usize) -> EngineFactory {
        Arc::new(move || Box::new(TestEngine { tag, work: Duration::ZERO }))
    }

    fn paced_factory(work: Duration) -> EngineFactory {
        Arc::new(move || Box::new(TestEngine { tag: 0, work }))
    }

    /// One shard, one worker, one tenant: the single-queue deployment.
    fn solo_cfg() -> ShardedConfig {
        ShardedConfig {
            shards: 1,
            tenants: vec![TenantPolicy::new("solo")],
            ..quick_cfg()
        }
    }

    fn submit_solo(
        svc: &ShardedService,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<RequestId, RejectReason> {
        svc.submit(0, DeadlineClass::Interactive, input, Some(deadline))
    }

    fn quick_cfg() -> ShardedConfig {
        ShardedConfig {
            shards: 2,
            shard_queue_capacity: 16,
            max_batch: 4,
            batch_linger: Duration::from_millis(1),
            service_estimate: Duration::from_millis(1),
            steal_threshold: 2,
            tenants: vec![TenantPolicy::new("a"), TenantPolicy::new("b")],
            ..ShardedConfig::default()
        }
    }

    fn push(shared: &ShardShared, shard: usize, id: u64, tenant: TenantId) {
        let now = shared.cfg.clock.now();
        let req = Request {
            id,
            tenant,
            class: DeadlineClass::Interactive,
            input: vec![0.0, 1.0],
            submitted: now,
            deadline: now + Duration::from_secs(60),
        };
        shared.queues[shard].try_push(req).map(|_| ()).map_err(|r| r.id).expect("push");
    }

    #[test]
    fn config_validation_rejects_bad_shapes_and_duplicate_tenants() {
        let bad = ShardedConfig { shards: 0, ..quick_cfg() };
        assert!(ShardedService::build_shared(bad, tagged_factory(0)).is_err());
        let dup = ShardedConfig {
            tenants: vec![TenantPolicy::new("a"), TenantPolicy::new("a")],
            ..quick_cfg()
        };
        assert!(matches!(
            ShardedService::build_shared(dup, tagged_factory(0)),
            Err(TrError::InvalidTenantPolicy(_))
        ));
        let none = ShardedConfig { tenants: Vec::new(), ..quick_cfg() };
        assert!(ShardedService::build_shared(none, tagged_factory(0)).is_err());
        let no_room = ShardedConfig { shard_queue_capacity: 0, ..quick_cfg() };
        assert!(matches!(
            ShardedService::build_shared(no_room, tagged_factory(0)),
            Err(TrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn steal_rescues_open_victims_at_any_depth() {
        let shared = ShardedService::build_shared(quick_cfg(), tagged_factory(0)).unwrap();
        push(&shared, 0, 1, 0);
        // Depth 1 < steal_threshold 2 and breaker closed: no steal.
        assert!(try_steal(&shared, 1).is_none());
        // Trip shard 0's breaker open: its single queued request is now
        // stranded and must be rescued regardless of depth.
        let now = shared.cfg.clock.now();
        {
            let mut b = lock(&shared.shard_breakers[0]);
            for _ in 0..shared.cfg.breaker.failure_threshold {
                b.record_failure(now);
            }
            assert_eq!(b.state(), BreakerState::Open);
        }
        let (batch, tenant, victim, _depth) = try_steal(&shared, 1).expect("rescue steal");
        assert_eq!((batch.len(), tenant, victim), (1, 0, 0));
        assert!(shared.queues[0].is_empty(), "stolen, not copied");
        assert_eq!(shared.metrics.steals.load(Ordering::SeqCst), 1);
        assert!(shared
            .events
            .snapshot()
            .iter()
            .any(|e| e.kind == EventKind::WorkStolen { from_shard: 0, to_shard: 1 }));
    }

    #[test]
    fn steal_never_takes_a_half_open_probes_work() {
        let mock = Arc::new(MockClock::new());
        let cfg = ShardedConfig { clock: Arc::clone(&mock) as SharedClock, ..quick_cfg() };
        let cooldown = cfg.breaker.cooldown;
        let shared = ShardedService::build_shared(cfg, tagged_factory(0)).unwrap();
        for id in 0..4 {
            push(&shared, 0, id, 0);
        }
        let t0 = mock.now();
        {
            let mut b = lock(&shared.shard_breakers[0]);
            for _ in 0..shared.cfg.breaker.failure_threshold {
                b.record_failure(t0);
            }
        }
        mock.advance(cooldown + Duration::from_millis(1));
        // Cooldown elapsed: shard 0's own worker claims the probe.
        {
            let mut b = lock(&shared.shard_breakers[0]);
            assert_eq!(b.admit(mock.now()), (true, Some(BreakerState::HalfOpen)));
        }
        // Even though the queue is deep enough for imbalance stealing,
        // the half-open victim keeps its work for the probe.
        assert!(try_steal(&shared, 1).is_none());
        assert_eq!(shared.queues[0].len(), 4, "probe work untouched");
        // The probe succeeds and the breaker closes: depth ≥ threshold
        // makes the victim ordinarily stealable again.
        lock(&shared.shard_breakers[0]).record_success();
        let (batch, tenant, victim, _depth) = try_steal(&shared, 1).expect("imbalance steal");
        assert_eq!((batch.len(), tenant, victim), (4, 0, 0));
    }

    #[test]
    fn steals_prefer_the_deepest_eligible_victim() {
        let cfg = ShardedConfig { shards: 3, ..quick_cfg() };
        let shared = ShardedService::build_shared(cfg, tagged_factory(0)).unwrap();
        for id in 0..2 {
            push(&shared, 0, id, 0);
        }
        for id in 10..13 {
            push(&shared, 1, id, 1);
        }
        let (_batch, tenant, victim, _depth) = try_steal(&shared, 2).expect("steal");
        assert_eq!((tenant, victim), (1, 1), "deepest queue wins");
    }

    #[test]
    fn finish_funnel_tracks_generations_and_tenant_counters() {
        let shared = ShardedService::build_shared(quick_cfg(), tagged_factory(0)).unwrap();
        shared.finish(
            0,
            0,
            DeadlineClass::Interactive,
            Outcome::Completed {
                class: 1,
                latency: Duration::from_micros(100),
                rung: 0,
                generation: 0,
            },
        );
        shared.finish(
            1,
            1,
            DeadlineClass::Batch,
            Outcome::Completed {
                class: 1,
                latency: Duration::from_micros(100),
                rung: 1,
                generation: 2,
            },
        );
        shared.finish(2, 0, DeadlineClass::Interactive, Outcome::Rejected(RejectReason::TenantOverQuota { tenant: 0 }));
        let by_gen = lock(&shared.served_by_generation).clone();
        assert_eq!(by_gen.get(&0), Some(&1));
        assert_eq!(by_gen.get(&2), Some(&1));
        assert_eq!(shared.metrics.quota_rejections.load(Ordering::SeqCst), 1);
        let a = shared.tenants[0].metrics.snapshot();
        let b = shared.tenants[1].metrics.snapshot();
        assert_eq!((a.completed, a.rejected_quota), (1, 1));
        assert_eq!((b.completed, b.degraded), (1, 1));
    }

    #[test]
    fn end_to_end_multi_tenant_run_conserves_and_pins() {
        let cfg = ShardedConfig {
            shards: 2,
            tenants: vec![
                TenantPolicy::new("pinned").with_slo_pin(0),
                TenantPolicy::new("metered").with_quota(4, 0.0),
            ],
            ..quick_cfg()
        };
        let svc = ShardedService::start(cfg, tagged_factory(0)).unwrap();
        let mut quota_rejects = 0;
        for i in 0..40 {
            let _ = svc.submit(0, DeadlineClass::Interactive, vec![0.0, 1.0], Some(Duration::from_secs(5)));
            if i < 10 {
                if let Err(RejectReason::TenantOverQuota { tenant: 1 }) =
                    svc.submit(1, DeadlineClass::Batch, vec![0.0, 1.0], Some(Duration::from_secs(5)))
                {
                    quota_rejects += 1;
                }
            }
        }
        // Unknown tenants are rejected, never queued.
        assert!(matches!(
            svc.submit(9, DeadlineClass::Interactive, vec![0.0], None),
            Err(RejectReason::UnknownTenant { tenant: 9 })
        ));
        std::thread::sleep(Duration::from_millis(50));
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
        report.verify_slo_pins().unwrap();
        report.verify_generations(false).unwrap();
        assert_eq!(quota_rejects, 6, "burst 4 at zero refill admits exactly 4 of 10");
        assert_eq!(report.snapshot.quota_rejections, 6);
        assert!(report.tenants[0].snapshot.completed > 0);
        assert_eq!(report.tenants[1].snapshot.rejected_quota, 6);
    }

    #[test]
    fn hot_swap_serves_both_generations_without_losing_requests() {
        let cfg = ShardedConfig { shards: 2, ..quick_cfg() };
        let svc = ShardedService::start(cfg, tagged_factory(100)).unwrap();
        for _ in 0..30 {
            let _ = svc.submit(0, DeadlineClass::Interactive, vec![0.0, 1.0], Some(Duration::from_secs(5)));
        }
        std::thread::sleep(Duration::from_millis(40));
        let generation = svc.hot_swap(tagged_factory(200)).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(svc.generation(), 1);
        for _ in 0..30 {
            let _ = svc.submit(1, DeadlineClass::Interactive, vec![0.0, 1.0], Some(Duration::from_secs(5)));
        }
        std::thread::sleep(Duration::from_millis(60));
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
        report.verify_generations(true).unwrap();
        // Predictions witness the generation: tag 100/101 before, 200/201 after.
        let tags: Vec<(u64, usize)> = report
            .completions
            .iter()
            .filter_map(|c| match c.outcome {
                Outcome::Completed { class, generation, .. } => Some((generation, class)),
                _ => None,
            })
            .collect();
        assert!(tags.iter().all(|(g, t)| (*g == 0 && *t <= 101) || (*g == 1 && *t >= 200)));
        assert!(report.snapshot.engine_rebuilds > 0, "workers rebuilt onto generation 1");
        // The report records the generation current at shutdown.
        assert_eq!(report.final_generation, 1);
    }

    #[test]
    fn queue_full_rejects_with_reason() {
        // One slow worker, tiny queue: a burst must bounce.
        let cfg = ShardedConfig { shard_queue_capacity: 4, ..solo_cfg() };
        let svc = ShardedService::start(cfg, paced_factory(Duration::from_millis(50))).unwrap();
        let mut rejected = 0;
        for i in 0..32 {
            match submit_solo(&svc, vec![0.0, i as f32], Duration::from_secs(5)) {
                Ok(_) => {}
                Err(RejectReason::QueueFull { capacity }) => {
                    assert_eq!(capacity, 4);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected reject: {other}"),
            }
        }
        assert!(rejected > 0, "tiny queue under burst must reject");
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
        assert_eq!(report.snapshot.rejected, rejected);
    }

    #[test]
    fn poison_requests_are_quarantined_not_fatal() {
        let svc = ShardedService::start(solo_cfg(), tagged_factory(0)).unwrap();
        let mut poison_ids = Vec::new();
        for i in 0..40 {
            let input =
                if i % 10 == 3 { vec![f32::NAN, i as f32] } else { vec![0.0, i as f32] };
            match submit_solo(&svc, input, Duration::from_secs(5)) {
                Ok(id) if i % 10 == 3 => poison_ids.push(id),
                _ => {}
            }
        }
        // Let the service work through everything, then submit a clean
        // tail to prove it still serves after the panics.
        std::thread::sleep(Duration::from_millis(100));
        let tail = submit_solo(&svc, vec![0.0, 1.0], Duration::from_secs(5)).unwrap();
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
        // Every poison request that was admitted ended quarantined (they
        // had lavish deadlines).
        for id in &poison_ids {
            let c = report.completions.iter().find(|c| c.id == *id).unwrap();
            assert_eq!(c.outcome, Outcome::Quarantined, "poison id {id}");
        }
        assert_eq!(report.snapshot.quarantined, u64::try_from(poison_ids.len()).unwrap());
        assert!(report.snapshot.worker_panics > 0);
        // The clean tail request completed.
        let tail_outcome = report.completions.iter().find(|c| c.id == tail).unwrap();
        assert!(matches!(tail_outcome.outcome, Outcome::Completed { .. }));
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let svc = ShardedService::start(solo_cfg(), tagged_factory(0)).unwrap();
        svc.shared.shutdown.store(true, Ordering::SeqCst);
        let err = submit_solo(&svc, vec![0.0, 0.0], Duration::from_secs(1)).unwrap_err();
        assert_eq!(err, RejectReason::ShuttingDown);
        // A hot swap is refused once shutdown is flagged.
        assert!(matches!(svc.hot_swap(tagged_factory(1)), Err(TrError::HotSwap(_))));
        assert_eq!(svc.generation(), 0);
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
        assert_eq!(report.snapshot.rejected, 1);
        assert_eq!(report.snapshot.hot_swaps, 0);
    }

    #[test]
    fn fault_report_trips_qt_fallback_and_clears() {
        let cfg = solo_cfg();
        let fallback = cfg.ladder.fallback.unwrap();
        let svc = ShardedService::start(cfg, tagged_factory(0)).unwrap();
        let clean = FaultReport::default();
        assert!(!svc.record_fault_report(&clean));
        assert_eq!(svc.tenant_rung(0), Some(0));
        let dirty = FaultReport {
            injected: tr_hw::FaultCounts { exp_flips: 10, ..Default::default() },
            detected: 0,
            corrected: 0,
        };
        assert!(svc.record_fault_report(&dirty));
        assert!(svc.fault_latched());
        assert_eq!(svc.tenant_rung(0), Some(fallback));
        svc.clear_fault_latch();
        assert!(!svc.fault_latched());
        assert_eq!(svc.tenant_rung(0), Some(0));
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
    }

    #[test]
    fn fault_latch_covers_every_tenant_and_logs_once() {
        let svc = ShardedService::start(quick_cfg(), tagged_factory(0)).unwrap();
        let fallback = quick_cfg().ladder.fallback.unwrap();
        let dirty = FaultReport {
            injected: tr_hw::FaultCounts { exp_flips: 10, ..Default::default() },
            detected: 0,
            corrected: 0,
        };
        assert!(svc.record_fault_report(&dirty));
        assert!(svc.record_fault_report(&dirty), "the monitor stays tripped");
        assert_eq!((svc.tenant_rung(0), svc.tenant_rung(1)), (Some(fallback), Some(fallback)));
        svc.clear_fault_latch();
        svc.clear_fault_latch();
        assert_eq!((svc.tenant_rung(0), svc.tenant_rung(1)), (Some(0), Some(0)));
        let report = svc.shutdown();
        let count = |want: EventKind| report.events.iter().filter(|e| e.kind == want).count();
        assert_eq!(count(EventKind::FaultLatchEngaged), 1);
        assert_eq!(count(EventKind::FaultLatchCleared), 1);
    }

    #[test]
    fn tight_deadlines_expire_instead_of_completing_late() {
        let svc =
            ShardedService::start(solo_cfg(), paced_factory(Duration::from_millis(30))).unwrap();
        for i in 0..12 {
            let _ = submit_solo(&svc, vec![0.0, i as f32], Duration::from_millis(40));
        }
        let report = svc.shutdown();
        report.verify_conservation().unwrap();
        assert!(
            report.snapshot.expired() > 0,
            "a 30ms/sample worker cannot serve 12 requests in 40ms: {:?}",
            report.snapshot
        );
        // The deadline bound on completed latency (the histogram's max is
        // exact, not bucket-rounded).
        if let Some(max_us) = report.snapshot.latencies_us.max() {
            assert!(max_us <= 40_000, "completed latency {max_us}us exceeds the 40ms deadline");
        }
    }
}
