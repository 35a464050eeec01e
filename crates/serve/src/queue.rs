//! The bounded request queue with explicit backpressure, per-tenant
//! FIFO lanes, and deadline-aware batch formation.
//!
//! Admission is all-or-nothing at a fixed capacity — the queue never
//! grows without bound; a full queue rejects with a reason instead of
//! absorbing load it cannot serve. Internally the queue keeps one FIFO
//! *lane per tenant*. Every batch is drawn from a single lane (so it can
//! run at its tenant's own precision rung), and successive batches pick
//! their lane round-robin, so a single flooding tenant cannot starve the
//! others: within each lane order is strict FIFO, across lanes service
//! alternates. (A single-tenant queue is exactly a global FIFO.)
//! Batch formation skips (and reports) requests whose deadline can no
//! longer be met given the configured service-time estimate, so dead
//! work is shed before it wastes compute.

use crate::clock::{monotonic, SharedClock};
use crate::request::Request;
use crate::tenant::TenantId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Recover a mutex even if a panicking thread poisoned it — the service
/// is designed to survive worker panics, so lock poisoning must never
/// cascade.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What one batch-formation pull produced.
#[derive(Debug, Default)]
pub struct Pull {
    /// The batch to execute (possibly empty on shutdown wake-up).
    pub batch: Vec<Request>,
    /// Requests dropped at formation because their deadline slack was
    /// already spent — the caller must record their terminal outcome.
    pub expired: Vec<Request>,
    /// Queue depth *after* the pull (the ladder's pressure signal).
    pub depth: usize,
}

/// The per-tenant FIFO lanes plus the fairness cursor. One mutex guards
/// the whole structure; the tenant count is small (a policy table, not
/// a user population).
#[derive(Debug, Default)]
struct Lanes {
    lanes: BTreeMap<TenantId, VecDeque<Request>>,
    /// Next tenant the round-robin scan starts from.
    cursor: TenantId,
    /// Total queued requests across lanes.
    len: usize,
}

impl Lanes {
    fn push(&mut self, req: Request) {
        self.lanes.entry(req.tenant).or_default().push_back(req);
        self.len += 1;
    }

    /// First tenant at or after `from` (wrapping) whose lane is
    /// non-empty.
    fn next_with_work(&self, from: TenantId) -> Option<TenantId> {
        self.lanes
            .range(from..)
            .chain(self.lanes.range(..from))
            .find(|(_, q)| !q.is_empty())
            .map(|(t, _)| *t)
    }

    /// Pop the next *viable* request from one lane, expiring hopeless
    /// fronts into `expired`. `None` when the lane has nothing viable.
    fn pop_viable(
        &mut self,
        tenant: TenantId,
        now: Instant,
        service_estimate: Duration,
        expired: &mut Vec<Request>,
    ) -> Option<Request> {
        let q = self.lanes.get_mut(&tenant)?;
        while let Some(front) = q.front() {
            let hopeless = front.deadline <= now + service_estimate;
            let r = q.pop_front()?;
            self.len -= 1;
            if hopeless {
                expired.push(r);
            } else {
                return Some(r);
            }
        }
        None
    }

    /// Pop the next viable request from any lane, serving lanes
    /// round-robin from the cursor and advancing it past the lane served.
    fn pop_fair(
        &mut self,
        now: Instant,
        service_estimate: Duration,
        expired: &mut Vec<Request>,
    ) -> Option<Request> {
        let mut from = self.cursor;
        // Each iteration either returns a request or empties the scanned
        // lane (all-hopeless), so this terminates.
        while let Some(t) = self.next_with_work(from) {
            if let Some(r) = self.pop_viable(t, now, service_estimate, expired) {
                self.cursor = t.wrapping_add(1);
                return Some(r);
            }
            from = t.wrapping_add(1);
        }
        None
    }
}

/// A fixed-capacity MPMC request queue with per-tenant FIFO lanes.
#[derive(Debug)]
pub struct BoundedQueue {
    inner: Mutex<Lanes>,
    capacity: usize,
    cv: Condvar,
    clock: SharedClock,
}

impl BoundedQueue {
    /// A queue holding at most `capacity` requests.
    ///
    /// # Panics
    /// If `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> BoundedQueue {
        BoundedQueue::with_clock(capacity, monotonic())
    }

    /// A queue whose deadline decisions read `clock` instead of the
    /// system clock (condvar waits still block in real time).
    ///
    /// # Panics
    /// If `capacity` is zero.
    #[must_use]
    pub fn with_clock(capacity: usize, clock: SharedClock) -> BoundedQueue {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue { inner: Mutex::new(Lanes::default()), capacity, cv: Condvar::new(), clock }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (sum across lanes).
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Try to admit a request. On a full queue the request is handed
    /// back — the caller records the rejection; nothing is dropped
    /// silently.
    ///
    /// # Errors
    /// Returns the request itself when the queue is at capacity.
    pub fn try_push(&self, req: Request) -> Result<usize, Request> {
        self.try_push_bounded(req, self.capacity)
    }

    /// [`BoundedQueue::try_push`] against a *lower* effective capacity:
    /// admission fails once the depth reaches `min(limit, capacity)`.
    /// This is how class-graded backpressure is enforced atomically —
    /// best-effort traffic is refused while interactive headroom
    /// remains.
    ///
    /// # Errors
    /// Returns the request itself when the depth is at the limit.
    pub fn try_push_bounded(&self, req: Request, limit: usize) -> Result<usize, Request> {
        let mut g = lock(&self.inner);
        if g.len >= limit.min(self.capacity) {
            return Err(req);
        }
        g.push(req);
        let depth = g.len;
        drop(g);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Wake every waiter (used at shutdown so idle workers re-check the
    /// shutdown flag).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }

    /// Remove and return everything still queued (shutdown sweep), lane
    /// order then FIFO.
    pub fn drain_all(&self) -> Vec<Request> {
        let mut g = lock(&self.inner);
        let mut out = Vec::with_capacity(g.len);
        for q in g.lanes.values_mut() {
            out.extend(q.drain(..));
        }
        g.len = 0;
        out
    }

    /// Deadline-aware, single-tenant batch formation.
    ///
    /// Blocks until at least one viable request arrives (or `shutdown`
    /// is observed). The first viable request is found round-robin across
    /// tenant lanes, so lane selection stays fair; it fixes the batch's
    /// tenant, and the fill phase draws only from that tenant's lane
    /// until either `max_batch` requests are gathered or the batch-close
    /// time is reached. The close time is the earlier of `linger` from
    /// the first pull and the moment the first request's remaining
    /// deadline slack equals `service_estimate` — waiting any longer
    /// would spend slack the execution itself needs. Requests whose
    /// deadline cannot be met (deadline ≤ now + `service_estimate`) are
    /// expired instead of batched.
    ///
    /// `max_idle` bounds how long an *empty* pull blocks: once that much
    /// clock time passes with no viable work, an empty [`Pull`] is
    /// returned so the caller can run its idle housekeeping (heartbeat
    /// the watchdog, re-check shutdown) and call again.
    ///
    /// Returns the batch's tenant alongside the pull (`None` on an empty
    /// pull).
    pub fn pop_batch_tenant(
        &self,
        max_batch: usize,
        linger: Duration,
        service_estimate: Duration,
        max_idle: Duration,
        shutdown: &AtomicBool,
    ) -> (Pull, Option<TenantId>) {
        let mut expired = Vec::new();
        let mut g = lock(&self.inner);
        // Phase 1: block for the first viable request (fair scan).
        let idle_from = self.clock.now();
        let first = loop {
            let now = self.clock.now();
            let found = g.pop_fair(now, service_estimate, &mut expired);
            if let Some(r) = found {
                break r;
            }
            // Hand back expiries immediately — holding them while
            // waiting for viable work would delay their terminal
            // outcome until the next request happened to arrive.
            if !expired.is_empty()
                || shutdown.load(Ordering::SeqCst)
                || now.duration_since(idle_from) >= max_idle
            {
                let depth = g.len;
                return (Pull { batch: Vec::new(), expired, depth }, None);
            }
            let (ng, _timeout) = self
                .cv
                .wait_timeout(g, Duration::from_millis(5))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g = ng;
        };
        // Pin the fill phase to the lane the fair scan landed on.
        let tenant = first.tenant;
        // Phase 2: fill the batch until close time or max_batch.
        let close = (self.clock.now() + linger).min(first.deadline - service_estimate);
        let mut batch = vec![first];
        while batch.len() < max_batch {
            let now = self.clock.now();
            match g.pop_viable(tenant, now, service_estimate, &mut expired) {
                Some(r) => batch.push(r),
                None => {
                    if now >= close || shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let (ng, timeout) = self
                        .cv
                        .wait_timeout(g, close.duration_since(now))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g = ng;
                    // A frozen test clock never reaches `close`; the
                    // real-time condvar timeout terminates the linger
                    // regardless.
                    if g.len == 0 && (timeout.timed_out() || self.clock.now() >= close) {
                        break;
                    }
                }
            }
        }
        let depth = g.len;
        drop(g);
        (Pull { batch, expired, depth }, Some(tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::DeadlineClass;
    use std::time::{Duration, Instant};

    /// Effectively-infinite idle bound for tests that predate it.
    const IDLE: Duration = Duration::from_secs(60);

    fn req(id: u64, deadline_in: Duration) -> Request {
        treq(id, 0, deadline_in)
    }

    fn treq(id: u64, tenant: TenantId, deadline_in: Duration) -> Request {
        let now = Instant::now();
        Request {
            id,
            tenant,
            class: DeadlineClass::Interactive,
            input: vec![0.0],
            submitted: now,
            deadline: now + deadline_in,
        }
    }

    #[test]
    fn rejects_when_full_and_reports_depth() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(req(1, Duration::from_secs(1))).unwrap(), 1);
        assert_eq!(q.try_push(req(2, Duration::from_secs(1))).unwrap(), 2);
        let back = q.try_push(req(3, Duration::from_secs(1))).unwrap_err();
        assert_eq!(back.id, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn bounded_push_enforces_the_class_limit_below_capacity() {
        let q = BoundedQueue::new(10);
        assert!(q.try_push_bounded(req(1, Duration::from_secs(1)), 2).is_ok());
        assert!(q.try_push_bounded(req(2, Duration::from_secs(1)), 2).is_ok());
        // The graded limit refuses while full-capacity admission remains.
        assert!(q.try_push_bounded(req(3, Duration::from_secs(1)), 2).is_err());
        assert!(q.try_push(req(4, Duration::from_secs(1))).is_ok());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn pop_batch_collects_up_to_max() {
        let q = BoundedQueue::new(8);
        for id in 0..5 {
            q.try_push(req(id, Duration::from_secs(5))).unwrap();
        }
        let shutdown = AtomicBool::new(false);
        let pull = q.pop_batch_tenant(3, Duration::from_millis(1), Duration::ZERO, IDLE, &shutdown).0;
        assert_eq!(pull.batch.len(), 3);
        assert_eq!(pull.batch[0].id, 0); // FIFO
        assert_eq!(pull.depth, 2);
        assert!(pull.expired.is_empty());
    }

    #[test]
    fn hopeless_requests_are_expired_not_batched() {
        let q = BoundedQueue::new(8);
        // Already past deadline.
        q.try_push(req(1, Duration::ZERO)).unwrap();
        // Viable.
        q.try_push(req(2, Duration::from_secs(5))).unwrap();
        // Deadline inside the service estimate: also hopeless.
        q.try_push(req(3, Duration::from_millis(1))).unwrap();
        let shutdown = AtomicBool::new(false);
        let (pull, _) =
            q.pop_batch_tenant(4, Duration::from_millis(1), Duration::from_millis(100), IDLE, &shutdown);
        assert_eq!(pull.batch.len(), 1);
        assert_eq!(pull.batch[0].id, 2);
        let expired: Vec<u64> = pull.expired.iter().map(|r| r.id).collect();
        assert_eq!(expired, vec![1, 3]);
    }

    #[test]
    fn all_hopeless_queue_returns_expiries_without_blocking() {
        let q = BoundedQueue::new(8);
        q.try_push(req(1, Duration::ZERO)).unwrap();
        q.try_push(req(2, Duration::from_millis(1))).unwrap();
        let shutdown = AtomicBool::new(false);
        let t0 = Instant::now();
        let (pull, _) =
            q.pop_batch_tenant(4, Duration::from_millis(1), Duration::from_millis(100), IDLE, &shutdown);
        // Must not sit waiting for viable work while holding the
        // expired requests hostage.
        assert!(t0.elapsed() < Duration::from_millis(500));
        assert!(pull.batch.is_empty());
        assert_eq!(pull.expired.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn shutdown_unblocks_empty_pop() {
        let q = BoundedQueue::new(2);
        let shutdown = AtomicBool::new(true);
        let pull = q.pop_batch_tenant(4, Duration::from_millis(1), Duration::ZERO, IDLE, &shutdown).0;
        assert!(pull.batch.is_empty());
        assert!(pull.expired.is_empty());
    }

    #[test]
    fn linger_window_closes_the_batch() {
        let q = BoundedQueue::new(8);
        q.try_push(req(1, Duration::from_secs(5))).unwrap();
        let shutdown = AtomicBool::new(false);
        let t0 = Instant::now();
        let pull = q.pop_batch_tenant(4, Duration::from_millis(20), Duration::ZERO, IDLE, &shutdown).0;
        assert_eq!(pull.batch.len(), 1);
        // Must have waited for the linger window, but not forever.
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn idle_pop_gives_up_after_max_idle() {
        let q = BoundedQueue::new(2);
        let shutdown = AtomicBool::new(false);
        let t0 = Instant::now();
        let (pull, _) =
            q.pop_batch_tenant(4, Duration::from_millis(1), Duration::ZERO, Duration::from_millis(30), &shutdown);
        assert!(pull.batch.is_empty() && pull.expired.is_empty());
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "gave up too early: {waited:?}");
        assert!(waited < Duration::from_secs(2), "never gave up: {waited:?}");
    }

    #[test]
    fn mock_clock_drives_deadline_expiry_without_real_waiting() {
        use crate::clock::{Clock, MockClock};
        use std::sync::Arc;
        let clock = Arc::new(MockClock::new());
        let q = BoundedQueue::with_clock(4, Arc::clone(&clock) as SharedClock);
        let now = clock.now();
        q.try_push(Request {
            id: 1,
            tenant: 0,
            class: DeadlineClass::Interactive,
            input: vec![0.0],
            submitted: now,
            deadline: now + Duration::from_millis(50),
        })
        .unwrap();
        // On the mock clock the deadline is an hour of *virtual* slack
        // away from hopeless; advancing past it expires the request with
        // no real sleeping.
        clock.advance(Duration::from_secs(3600));
        let shutdown = AtomicBool::new(false);
        let t0 = Instant::now();
        let pull = q.pop_batch_tenant(4, Duration::from_millis(1), Duration::ZERO, IDLE, &shutdown).0;
        assert!(pull.batch.is_empty());
        assert_eq!(pull.expired.len(), 1);
        assert!(t0.elapsed() < Duration::from_millis(500), "expiry must not wait in real time");
    }

    /// The fairness regression the multi-tenant queue exists for: a 10:1
    /// flood from one tenant must not push the minority tenant's
    /// requests behind the whole flood. Lanes take turns batch by batch,
    /// so the minority waits at most one batch per flooding tenant and
    /// every minority request surfaces within the first couple of
    /// batches.
    #[test]
    fn flooding_tenant_cannot_starve_the_minority_lane() {
        let q = BoundedQueue::new(64);
        // Tenant 0 floods 30 requests *first*, then tenant 1 trickles 3.
        for id in 0..30 {
            q.try_push(treq(id, 0, Duration::from_secs(30))).unwrap();
        }
        for id in 100..103 {
            q.try_push(treq(id, 1, Duration::from_secs(30))).unwrap();
        }
        let shutdown = AtomicBool::new(false);
        let mut seen_minority = Vec::new();
        for batch_no in 0..4 {
            let pull = q.pop_batch_tenant(4, Duration::ZERO, Duration::ZERO, IDLE, &shutdown).0;
            assert!(!pull.batch.is_empty());
            for r in &pull.batch {
                if r.tenant == 1 {
                    seen_minority.push((batch_no, r.id));
                }
            }
        }
        // All three minority requests served within the first 4 batches
        // (16 slots) despite 30 flood requests queued ahead of them; a
        // global FIFO would have served none of them before slot 30.
        assert_eq!(
            seen_minority.iter().map(|&(_, id)| id).collect::<Vec<_>>(),
            vec![100, 101, 102],
            "minority lane must be served round-robin, in FIFO order"
        );
        assert!(
            seen_minority.iter().all(|&(b, _)| b <= 2),
            "minority requests must surface within the first batches: {seen_minority:?}"
        );
    }

    /// Single-tenant pops pin the whole batch to one lane (so it can run
    /// at that tenant's rung) while successive pops still alternate
    /// lanes fairly.
    #[test]
    fn pop_batch_tenant_forms_single_tenant_batches_round_robin() {
        let q = BoundedQueue::new(32);
        for id in 0..6 {
            q.try_push(treq(id, 3, Duration::from_secs(30))).unwrap();
        }
        for id in 10..16 {
            q.try_push(treq(id, 7, Duration::from_secs(30))).unwrap();
        }
        let shutdown = AtomicBool::new(false);
        let mut served = Vec::new();
        for _ in 0..4 {
            let (pull, tenant) =
                q.pop_batch_tenant(3, Duration::ZERO, Duration::ZERO, IDLE, &shutdown);
            let t = tenant.unwrap();
            assert!(pull.batch.iter().all(|r| r.tenant == t), "batch must be single-tenant");
            served.push((t, pull.batch.len()));
        }
        assert_eq!(served, vec![(3, 3), (7, 3), (3, 3), (7, 3)]);
        assert!(q.is_empty());
    }
}
