//! Request/response types and the failure taxonomy.
//!
//! Every request submitted to [`crate::ShardedService::submit`] reaches
//! **exactly one** terminal outcome — that conservation law is the
//! backbone of the service's correctness story and is re-verified by
//! [`crate::ShardedReport::verify_conservation`] after every run.

use crate::tenant::{DeadlineClass, TenantId};
use std::time::{Duration, Instant};

/// Monotonically increasing request identifier, unique per service.
pub type RequestId = u64;

/// A queued inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Identifier assigned at submission.
    pub id: RequestId,
    /// Owning tenant (index into the service's policy table; a
    /// single-tenant deployment uses tenant 0 throughout).
    pub tenant: TenantId,
    /// Urgency class: drives the default deadline and class-graded
    /// admission.
    pub class: DeadlineClass,
    /// Flat feature vector (one model input row).
    pub input: Vec<f32>,
    /// Submission timestamp (latency is measured from here).
    pub submitted: Instant,
    /// Hard completion deadline; past it the result is worthless.
    pub deadline: Instant,
}

/// Why a submission was refused admission (explicit backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity (for this request's deadline
    /// class); the client should back off.
    QueueFull {
        /// The configured queue capacity at the time of rejection.
        capacity: usize,
    },
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// The tenant's token-bucket admission quota is exhausted right now;
    /// backing off for `1/rate` will earn the next token.
    TenantOverQuota {
        /// The over-quota tenant.
        tenant: TenantId,
    },
    /// The tenant id is not in the service's policy table.
    UnknownTenant {
        /// The unrecognised id.
        tenant: TenantId,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::ShuttingDown => write!(f, "service shutting down"),
            RejectReason::TenantOverQuota { tenant } => {
                write!(f, "tenant {tenant} over admission quota")
            }
            RejectReason::UnknownTenant { tenant } => {
                write!(f, "unknown tenant {tenant}")
            }
        }
    }
}

/// Where an expired request was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpiredAt {
    /// In the queue or at batch formation: the deadline could no longer
    /// be met, so the service skipped the compute entirely.
    Queue,
    /// After execution: the forward pass finished but the deadline had
    /// already passed, so the (stale) result was discarded. Completed
    /// latencies are therefore always bounded by the deadline.
    AfterExecution,
}

/// The exactly-one terminal outcome of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Classified in time.
    Completed {
        /// Predicted class index.
        class: usize,
        /// Submission-to-completion latency.
        latency: Duration,
        /// Degradation-ladder rung the request was served at
        /// (0 = full quality).
        rung: usize,
        /// Model generation that served the request (bumped by each
        /// zero-downtime hot-swap; 0 until the first swap).
        generation: u64,
    },
    /// Refused admission (backpressure, quota, or shutdown).
    Rejected(RejectReason),
    /// Deadline missed; no usable result.
    Expired(ExpiredAt),
    /// The request made a worker panic (solo, under `catch_unwind`) and
    /// was quarantined so it cannot poison further batches.
    Quarantined,
}

impl Outcome {
    /// Short label for tables and logs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Rejected(_) => "rejected",
            Outcome::Expired(ExpiredAt::Queue) => "expired-queue",
            Outcome::Expired(ExpiredAt::AfterExecution) => "expired-late",
            Outcome::Quarantined => "quarantined",
        }
    }
}

/// A request id paired with its terminal outcome, tagged with the
/// tenant and class it belonged to so conservation can be re-verified
/// *per tenant* as well as globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request this outcome belongs to.
    pub id: RequestId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Deadline class the request was submitted under.
    pub class: DeadlineClass,
    /// Its terminal outcome.
    pub outcome: Outcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels_are_distinct() {
        let outcomes = [
            Outcome::Completed { class: 0, latency: Duration::ZERO, rung: 0, generation: 0 },
            Outcome::Rejected(RejectReason::QueueFull { capacity: 1 }),
            Outcome::Expired(ExpiredAt::Queue),
            Outcome::Expired(ExpiredAt::AfterExecution),
            Outcome::Quarantined,
        ];
        let labels: std::collections::HashSet<_> = outcomes.iter().map(Outcome::label).collect();
        assert_eq!(labels.len(), outcomes.len());
    }

    #[test]
    fn reject_reason_displays() {
        let s = RejectReason::QueueFull { capacity: 64 }.to_string();
        assert!(s.contains("64"));
        assert!(RejectReason::ShuttingDown.to_string().contains("shutting down"));
        let q = RejectReason::TenantOverQuota { tenant: 7 }.to_string();
        assert!(q.contains('7') && q.contains("quota"), "{q}");
        assert!(RejectReason::UnknownTenant { tenant: 9 }.to_string().contains("unknown"));
    }
}
