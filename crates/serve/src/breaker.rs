//! Per-shard circuit breakers.
//!
//! A breaker sits between a shard's workers and their engines. While
//! *Closed* it admits every batch. After `failure_threshold` consecutive
//! failures it *Opens*: the shard's workers stop offering work to their
//! engines and let the cooldown elapse instead of hammering a broken
//! dependency. Once the cooldown passes, the next `admit` moves it to
//! *HalfOpen* and lets a single probe batch through; a success closes
//! the breaker, a failure re-opens it and restarts the cooldown.
//!
//! The breaker is a pure state machine over explicit `now: Instant`
//! values — it never reads a clock itself, so the service can drive it
//! from its injected [`Clock`](crate::clock::Clock) and tests can walk
//! it through transitions with hand-picked instants.

use std::time::{Duration, Instant};

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all work admitted.
    Closed,
    /// Tripped: no work admitted until the cooldown elapses.
    Open,
    /// Probing: exactly one batch admitted; its outcome decides.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label for logs and counters.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Tuning knobs for a [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(100) }
    }
}

/// A single shard's breaker. Not thread-safe by itself; the service
/// wraps each one in a mutex shared by the shard's workers.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// True while a half-open probe is in flight.
    probing: bool,
}

impl CircuitBreaker {
    #[must_use]
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            probing: false,
        }
    }

    /// Current state (for reporting; `admit` is the decision surface).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Should a batch be attempted right now? Returns the admission
    /// decision plus the state transition this call performed, if any
    /// (Open → HalfOpen happens here, when the cooldown has elapsed).
    pub fn admit(&mut self, now: Instant) -> (bool, Option<BreakerState>) {
        match self.state {
            BreakerState::Closed => (true, None),
            BreakerState::Open => {
                let due = self
                    .opened_at
                    .is_none_or(|t| now.duration_since(t) >= self.cfg.cooldown);
                if due {
                    self.state = BreakerState::HalfOpen;
                    self.probing = true;
                    (true, Some(BreakerState::HalfOpen))
                } else {
                    (false, None)
                }
            }
            BreakerState::HalfOpen => {
                // One probe at a time.
                if self.probing {
                    (false, None)
                } else {
                    self.probing = true;
                    (true, None)
                }
            }
        }
    }

    /// An admitted attempt never ran (the worker found no work) —
    /// release the probe slot without recording an outcome, so the next
    /// `admit` may hand the probe to whoever finds work first.
    pub fn release_probe(&mut self) {
        self.probing = false;
    }

    /// A batch admitted by this breaker succeeded.
    pub fn record_success(&mut self) -> Option<BreakerState> {
        self.consecutive_failures = 0;
        self.probing = false;
        if self.state == BreakerState::Closed {
            return None;
        }
        self.state = BreakerState::Closed;
        self.opened_at = None;
        Some(BreakerState::Closed)
    }

    /// A batch admitted by this breaker failed terminally (retries, if
    /// any, already exhausted).
    pub fn record_failure(&mut self, now: Instant) -> Option<BreakerState> {
        self.probing = false;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            // A failed probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.cfg.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at = Some(now);
            Some(BreakerState::Open)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(50) }
    }

    #[test]
    fn stays_closed_below_threshold_and_resets_on_success() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.record_failure(t0), None);
        assert_eq!(b.record_failure(t0), None);
        assert_eq!(b.record_success(), None, "closed stays closed");
        assert_eq!(b.record_failure(t0), None, "counter was reset");
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(t0).0);
    }

    #[test]
    fn opens_on_consecutive_failures_and_blocks_until_cooldown() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.record_failure(t0), Some(BreakerState::Open));
        assert_eq!(b.admit(t0 + Duration::from_millis(10)), (false, None));
        // Cooldown elapsed: half-open, exactly one probe admitted.
        let t1 = t0 + Duration::from_millis(60);
        assert_eq!(b.admit(t1), (true, Some(BreakerState::HalfOpen)));
        assert_eq!(b.admit(t1), (false, None), "second probe refused");
    }

    #[test]
    fn half_open_probe_outcome_decides() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let t1 = t0 + Duration::from_millis(60);
        assert!(b.admit(t1).0);
        // Failed probe re-opens and restarts the cooldown.
        assert_eq!(b.record_failure(t1), Some(BreakerState::Open));
        assert_eq!(b.admit(t1 + Duration::from_millis(10)), (false, None));
        // Next probe succeeds: closed again, threshold counter fresh.
        let t2 = t1 + Duration::from_millis(60);
        assert!(b.admit(t2).0);
        assert_eq!(b.record_success(), Some(BreakerState::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(t2).0);
    }
}
