//! Per-tenant serving policy: identity, deadline classes, admission
//! quotas, and SLO rung pins.
//!
//! The paper's run-time precision knob only becomes a QoS primitive when
//! the service can hold *different* tenants at *different* points on the
//! quality/throughput curve at the same time. This module is the policy
//! half of that story: who a request belongs to ([`TenantId`]), how
//! urgent it is ([`DeadlineClass`]), how much of the service a tenant
//! may consume ([`TokenBucket`] quotas), and how low its precision may
//! be degraded ([`TenantPolicy::slo_pin`]). The mechanism half — routing,
//! per-tenant ladders, stealing — lives in [`crate::shard`].
//!
//! All of it is pure state-machine logic over explicit [`Instant`]s fed
//! from the injectable service [`Clock`](crate::clock::Clock), so every
//! admission decision is unit-testable on a
//! [`MockClock`](crate::clock::MockClock) without real waiting.

use std::time::{Duration, Instant};
use tr_core::TrError;

/// Dense tenant index into the service's policy table (assigned at
/// configuration time, not a hash).
pub type TenantId = u32;

/// Urgency class of a request. Classes expire and degrade independently:
/// each carries its own default deadline, and under queue pressure the
/// lower classes are refused admission earlier (interactive work is shed
/// last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeadlineClass {
    /// Latency-sensitive traffic; shed last, tightest default deadline.
    #[default]
    Interactive,
    /// Throughput traffic with a relaxed deadline.
    Batch,
    /// Scavenger traffic: first to be shed, longest default deadline.
    BestEffort,
}

/// Number of deadline classes (array-index bound).
pub const CLASSES: usize = 3;

impl DeadlineClass {
    /// All classes, index order (matches [`DeadlineClass::index`]).
    pub const ALL: [DeadlineClass; CLASSES] =
        [DeadlineClass::Interactive, DeadlineClass::Batch, DeadlineClass::BestEffort];

    /// Stable table/artifact label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Batch => "batch",
            DeadlineClass::BestEffort => "best-effort",
        }
    }

    /// Dense index for per-class accounting arrays.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            DeadlineClass::Interactive => 0,
            DeadlineClass::Batch => 1,
            DeadlineClass::BestEffort => 2,
        }
    }

    /// Default relative deadline when the submitter does not pass one.
    #[must_use]
    pub fn default_deadline(&self) -> Duration {
        match self {
            DeadlineClass::Interactive => Duration::from_millis(250),
            DeadlineClass::Batch => Duration::from_secs(5),
            DeadlineClass::BestEffort => Duration::from_secs(30),
        }
    }

    /// Fraction of the shard queue this class may fill before its
    /// submissions are refused (class-graded backpressure): best-effort
    /// sheds first, interactive only at a genuinely full queue.
    #[must_use]
    pub fn admission_fraction(&self) -> f64 {
        match self {
            DeadlineClass::Interactive => 1.0,
            DeadlineClass::Batch => 0.85,
            DeadlineClass::BestEffort => 0.6,
        }
    }

    /// [`DeadlineClass::admission_fraction`] applied to a concrete queue
    /// capacity, in exact integer arithmetic (permille), never below 1
    /// so a non-empty queue always admits at least one request per
    /// class.
    #[must_use]
    pub fn admission_limit(&self, capacity: usize) -> usize {
        let permille: usize = match self {
            DeadlineClass::Interactive => 1000,
            DeadlineClass::Batch => 850,
            DeadlineClass::BestEffort => 600,
        };
        (capacity.saturating_mul(permille) / 1000).max(1)
    }
}

/// Token-bucket admission quota: `burst` tokens capacity, refilled at
/// `rate_per_sec`. Pure over explicit instants — time comes from the
/// service clock, never from `Instant::now()` directly.
#[derive(Debug, Clone)]
pub struct QuotaConfig {
    /// Bucket capacity (maximum burst admitted at once).
    pub burst: u32,
    /// Sustained admission rate, tokens per second.
    pub rate_per_sec: f64,
}

/// The runtime token bucket for one tenant.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    rate_per_sec: f64,
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A full bucket whose refill accounting starts at `now`.
    #[must_use]
    pub fn new(cfg: &QuotaConfig, now: Instant) -> TokenBucket {
        TokenBucket {
            capacity: f64::from(cfg.burst),
            rate_per_sec: cfg.rate_per_sec,
            tokens: f64::from(cfg.burst),
            last_refill: now,
        }
    }

    /// Refill by elapsed time, then try to take one token. `false`
    /// means the tenant is over quota *right now*.
    pub fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (for tests/reporting).
    #[must_use]
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Everything the service knows about one tenant at configuration time.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Stable name used for `serve.tenant.<name>.*` counter namespacing.
    pub name: String,
    /// Admission quota; `None` means unmetered.
    pub quota: Option<QuotaConfig>,
    /// SLO rung pin: the deepest (cheapest) ladder rung this tenant may
    /// ever be *served* at. `Some(0)` pins full quality; `None` lets the
    /// tenant ride the whole pressure range. Pinned tenants hold their
    /// rung while unpinned tenants step down first under pressure.
    pub slo_pin: Option<usize>,
}

impl TenantPolicy {
    /// An unmetered, unpinned tenant.
    #[must_use]
    pub fn new(name: &str) -> TenantPolicy {
        TenantPolicy { name: name.to_string(), quota: None, slo_pin: None }
    }

    /// Attach a token-bucket quota.
    #[must_use]
    pub fn with_quota(mut self, burst: u32, rate_per_sec: f64) -> TenantPolicy {
        self.quota = Some(QuotaConfig { burst, rate_per_sec });
        self
    }

    /// Pin the tenant's serving rung at `pin` or better.
    #[must_use]
    pub fn with_slo_pin(mut self, pin: usize) -> TenantPolicy {
        self.slo_pin = Some(pin);
        self
    }

    /// Validate against the ladder the tenant will be served on.
    ///
    /// # Errors
    /// [`TrError::InvalidTenantPolicy`] naming the violation.
    pub fn validate(&self, last_pressure_rung: usize) -> Result<(), TrError> {
        let bad = |msg: String| Err(TrError::InvalidTenantPolicy(msg));
        if self.name.is_empty() {
            return bad("tenant name must be non-empty".to_string());
        }
        if self.name.contains(['.', ' ']) {
            return bad(format!(
                "tenant name '{}' may not contain '.' or spaces (it namespaces obs counters)",
                self.name
            ));
        }
        if let Some(q) = &self.quota {
            if q.burst == 0 {
                return bad(format!("tenant '{}' quota burst must be non-zero", self.name));
            }
            if !(q.rate_per_sec.is_finite() && q.rate_per_sec >= 0.0) {
                return bad(format!(
                    "tenant '{}' quota rate must be finite and non-negative (got {})",
                    self.name, q.rate_per_sec
                ));
            }
        }
        if let Some(pin) = self.slo_pin {
            if pin > last_pressure_rung {
                return bad(format!(
                    "tenant '{}' SLO pin {pin} past last pressure rung {last_pressure_rung}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, MockClock};

    #[test]
    fn class_labels_indices_and_defaults_are_consistent() {
        for (i, c) in DeadlineClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: std::collections::HashSet<_> =
            DeadlineClass::ALL.iter().map(DeadlineClass::label).collect();
        assert_eq!(labels.len(), CLASSES);
        // Urgency ordering: interactive has the tightest deadline and the
        // most queue headroom.
        assert!(
            DeadlineClass::Interactive.default_deadline() < DeadlineClass::Batch.default_deadline()
        );
        assert!(
            DeadlineClass::Batch.default_deadline() < DeadlineClass::BestEffort.default_deadline()
        );
        assert!(
            DeadlineClass::Interactive.admission_fraction()
                > DeadlineClass::Batch.admission_fraction()
        );
        assert!(
            DeadlineClass::Batch.admission_fraction()
                > DeadlineClass::BestEffort.admission_fraction()
        );
    }

    #[test]
    fn token_bucket_spends_burst_then_refills_on_the_injected_clock() {
        let clock = MockClock::new();
        let cfg = QuotaConfig { burst: 3, rate_per_sec: 10.0 };
        let mut b = TokenBucket::new(&cfg, clock.now());
        assert!(b.try_take(clock.now()));
        assert!(b.try_take(clock.now()));
        assert!(b.try_take(clock.now()));
        assert!(!b.try_take(clock.now()), "burst spent, no refill yet");
        // 100ms at 10/s refills exactly one token — entirely virtual time.
        clock.advance(Duration::from_millis(100));
        assert!(b.try_take(clock.now()));
        assert!(!b.try_take(clock.now()));
        // Refill caps at the burst capacity.
        clock.advance(Duration::from_secs(3600));
        for _ in 0..3 {
            assert!(b.try_take(clock.now()));
        }
        assert!(!b.try_take(clock.now()), "an hour idle must not bank more than `burst`");
    }

    #[test]
    fn zero_rate_bucket_admits_exactly_the_burst_ever() {
        let clock = MockClock::new();
        let mut b = TokenBucket::new(&QuotaConfig { burst: 2, rate_per_sec: 0.0 }, clock.now());
        assert!(b.try_take(clock.now()));
        assert!(b.try_take(clock.now()));
        clock.advance(Duration::from_secs(1000));
        assert!(!b.try_take(clock.now()));
    }

    #[test]
    fn policy_validation_rejects_bad_configs() {
        assert!(TenantPolicy::new("ok").validate(3).is_ok());
        assert!(TenantPolicy::new("ok").with_slo_pin(3).validate(3).is_ok());
        let e = TenantPolicy::new("ok").with_slo_pin(4).validate(3).unwrap_err();
        assert!(matches!(e, TrError::InvalidTenantPolicy(_)), "{e}");
        assert!(TenantPolicy::new("").validate(3).is_err());
        assert!(TenantPolicy::new("dotted.name").validate(3).is_err());
        assert!(TenantPolicy::new("ok").with_quota(0, 1.0).validate(3).is_err());
        assert!(TenantPolicy::new("ok").with_quota(1, f64::NAN).validate(3).is_err());
        assert!(TenantPolicy::new("ok").with_quota(1, -1.0).validate(3).is_err());
    }
}
