//! The serve event log: an ordered record of recovery actions.
//!
//! Metrics counters say *how many* faults were handled; the event log
//! says *in what order* — which is what chaos tests need to assert
//! exact recovery sequences ("latch engaged before latch cleared",
//! "breaker opened, probed half-open, then closed"). Every record also
//! bumps a per-kind `tr-obs` counter (`serve.events.*`) so campaigns
//! can diff totals without replaying the log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tr_obs::Counter;

static EV_LATCH_ENGAGED: Counter = Counter::new("serve.events.fault_latch_engaged");
static EV_LATCH_CLEARED: Counter = Counter::new("serve.events.fault_latch_cleared");
static EV_BREAKER_OPENED: Counter = Counter::new("serve.events.breaker_opened");
static EV_BREAKER_HALF_OPEN: Counter = Counter::new("serve.events.breaker_half_open");
static EV_BREAKER_CLOSED: Counter = Counter::new("serve.events.breaker_closed");
static EV_WATCHDOG_RECYCLED: Counter = Counter::new("serve.events.watchdog_recycled");
static EV_CACHE_REPAIRED: Counter = Counter::new("serve.events.cache_repaired");
static EV_RETRY_EXHAUSTED: Counter = Counter::new("serve.events.retry_exhausted");
static EV_QUOTA_REJECTED: Counter = Counter::new("serve.events.quota_rejected");
static EV_HOT_SWAP: Counter = Counter::new("serve.events.hot_swap");
static EV_ENGINE_REBUILT: Counter = Counter::new("serve.events.engine_rebuilt");
static EV_WORK_STOLEN: Counter = Counter::new("serve.events.work_stolen");

/// What happened. Breaker kinds carry the shard index; the other
/// worker-scoped kinds carry the worker slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The fault monitor tripped and the ladders latched to the fallback.
    FaultLatchEngaged,
    /// The operator cleared the latch; the ladders stepped home.
    FaultLatchCleared,
    /// A shard's breaker tripped open.
    BreakerOpened { worker: usize },
    /// A shard's breaker admitted a half-open probe.
    BreakerHalfOpen { worker: usize },
    /// A shard's breaker closed after a successful probe.
    BreakerClosed { worker: usize },
    /// The watchdog recycled a stalled worker slot.
    WatchdogRecycled { worker: usize },
    /// A worker detected a corrupt cached rung and re-encoded it.
    CacheRepaired { worker: usize },
    /// A worker exhausted its retry budget on transient errors.
    RetryExhausted { worker: usize },
    /// A submission was refused because its tenant's token bucket was
    /// empty (`RejectReason::TenantOverQuota`).
    QuotaRejected { tenant: u32 },
    /// A zero-downtime model hot-swap was published; workers rebuild
    /// onto `generation` between batches.
    HotSwap { generation: u64 },
    /// A worker rebuilt its engine replica onto a new model generation.
    EngineRebuilt { worker: usize, generation: u64 },
    /// An idle shard stole a batch from an overloaded (or tripped)
    /// shard's queue.
    WorkStolen { from_shard: usize, to_shard: usize },
}

impl EventKind {
    /// Stable snake_case label (matches the `serve.events.*` counters).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::FaultLatchEngaged => "fault_latch_engaged",
            EventKind::FaultLatchCleared => "fault_latch_cleared",
            EventKind::BreakerOpened { .. } => "breaker_opened",
            EventKind::BreakerHalfOpen { .. } => "breaker_half_open",
            EventKind::BreakerClosed { .. } => "breaker_closed",
            EventKind::WatchdogRecycled { .. } => "watchdog_recycled",
            EventKind::CacheRepaired { .. } => "cache_repaired",
            EventKind::RetryExhausted { .. } => "retry_exhausted",
            EventKind::QuotaRejected { .. } => "quota_rejected",
            EventKind::HotSwap { .. } => "hot_swap",
            EventKind::EngineRebuilt { .. } => "engine_rebuilt",
            EventKind::WorkStolen { .. } => "work_stolen",
        }
    }

    fn counter(&self) -> &'static Counter {
        match self {
            EventKind::FaultLatchEngaged => &EV_LATCH_ENGAGED,
            EventKind::FaultLatchCleared => &EV_LATCH_CLEARED,
            EventKind::BreakerOpened { .. } => &EV_BREAKER_OPENED,
            EventKind::BreakerHalfOpen { .. } => &EV_BREAKER_HALF_OPEN,
            EventKind::BreakerClosed { .. } => &EV_BREAKER_CLOSED,
            EventKind::WatchdogRecycled { .. } => &EV_WATCHDOG_RECYCLED,
            EventKind::CacheRepaired { .. } => &EV_CACHE_REPAIRED,
            EventKind::RetryExhausted { .. } => &EV_RETRY_EXHAUSTED,
            EventKind::QuotaRejected { .. } => &EV_QUOTA_REJECTED,
            EventKind::HotSwap { .. } => &EV_HOT_SWAP,
            EventKind::EngineRebuilt { .. } => &EV_ENGINE_REBUILT,
            EventKind::WorkStolen { .. } => &EV_WORK_STOLEN,
        }
    }
}

/// One logged event. `seq` is a process-order sequence number assigned
/// at record time; two events with `a.seq < b.seq` were recorded in
/// that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeEvent {
    pub seq: u64,
    pub kind: EventKind,
}

/// Append-only, mutex-guarded event log shared across service threads.
#[derive(Debug, Default)]
pub struct EventLog {
    seq: AtomicU64,
    entries: Mutex<Vec<ServeEvent>>,
}

impl EventLog {
    #[must_use]
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Append an event, bump its `serve.events.*` counter, and return
    /// the assigned sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        kind.counter().inc();
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let mut g = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.push(ServeEvent { seq, kind });
        seq
    }

    /// A copy of the log in record order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ServeEvent> {
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number of the first event matching `pred`, if any.
    pub fn first_seq(&self, pred: impl Fn(&EventKind) -> bool) -> Option<u64> {
        self.snapshot().iter().find(|e| pred(&e.kind)).map(|e| e.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotonic_seq() {
        let log = EventLog::new();
        log.record(EventKind::FaultLatchEngaged);
        log.record(EventKind::BreakerOpened { worker: 2 });
        log.record(EventKind::FaultLatchCleared);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        let engaged = log.first_seq(|k| *k == EventKind::FaultLatchEngaged).unwrap();
        let cleared = log.first_seq(|k| *k == EventKind::FaultLatchCleared).unwrap();
        assert!(engaged < cleared, "recovery order must be assertable");
    }

    #[test]
    fn labels_are_stable_and_worker_scoped_kinds_keep_their_slot() {
        let k = EventKind::WatchdogRecycled { worker: 7 };
        assert_eq!(k.label(), "watchdog_recycled");
        match k {
            EventKind::WatchdogRecycled { worker } => assert_eq!(worker, 7),
            _ => unreachable!(),
        }
        assert_eq!(EventKind::FaultLatchEngaged.label(), "fault_latch_engaged");
        assert_eq!(EventKind::QuotaRejected { tenant: 3 }.label(), "quota_rejected");
        assert_eq!(EventKind::HotSwap { generation: 2 }.label(), "hot_swap");
        assert_eq!(EventKind::EngineRebuilt { worker: 1, generation: 2 }.label(), "engine_rebuilt");
        assert_eq!(EventKind::WorkStolen { from_shard: 0, to_shard: 1 }.label(), "work_stolen");
    }

    #[test]
    fn record_bumps_obs_counters_when_enabled() {
        tr_obs::set_enabled(true);
        let before = tr_obs::recorder().snapshot().counter("serve.events.cache_repaired");
        let log = EventLog::new();
        log.record(EventKind::CacheRepaired { worker: 0 });
        let after = tr_obs::recorder().snapshot().counter("serve.events.cache_repaired");
        assert_eq!(after, before + 1);
    }
}
