//! `tr-serve` — a resilient batched inference service over `tr-nn`
//! models running under Term Revealing (TR) or uniform (QT)
//! quantization.
//!
//! The paper's key systems claim is that the TR datapath exposes a
//! *run-time* quality/throughput knob: switching the group budget `k`
//! (or falling back to QT) is a control-register write taking under
//! 100 ns (Table 1), so a serving system can trade accuracy for
//! throughput while a load spike is in flight. This crate turns that
//! knob into an operational policy:
//!
//! * [`queue::BoundedQueue`] — admission control: a fixed-capacity
//!   queue that rejects with a reason instead of growing without bound,
//!   and deadline-aware batch formation that sheds hopeless requests
//!   before they waste compute;
//! * [`ladder::Ladder`] — the graceful-degradation ladder: under
//!   sustained queue pressure the service steps the TR budget α = k/g
//!   down rung by rung (cheaper, slightly less accurate), and steps
//!   back up when pressure subsides; a tripped fault monitor latches
//!   the QT fallback rung instead;
//! * [`engine::Engine`] — each worker's model replica, whose precision
//!   is switched at run time, with service time paced by the §III-B
//!   term-pair cost bound so throughput tracks what the accelerator
//!   would deliver;
//! * [`shard::ShardedService`] — the service: per-shard queues and
//!   worker pools with tenant-hash dispatch and work stealing,
//!   per-tenant ladders and quotas, panic isolation (`catch_unwind` +
//!   quarantine hunt + supervisor respawn), a fault-monitor latch, hot
//!   swap, and a conservation law: every submitted request reaches
//!   exactly one terminal [`request::Outcome`]. A single-queue
//!   deployment is one shard serving one tenant.
//!
//! Everything is plain `std::thread` — no async runtime.

pub mod backoff;
pub mod breaker;
pub mod chaos;
pub mod clock;
pub mod engine;
pub mod events;
pub mod hotswap;
pub mod ladder;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod shard;
pub mod tenant;

pub use backoff::RetryPolicy;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{chaos_nn_factory, ChaosConfig, ChaosEngine};
pub use clock::{monotonic, Clock, MockClock, MonotonicClock, SharedClock};
pub use engine::{
    cost_factor_vs, model_input_dim, nn_engine_factory, Engine, EngineError, EngineFactory, NnEngine,
};
pub use events::{EventKind, EventLog, ServeEvent};
pub use hotswap::{HotSwap, ModelGeneration};
pub use ladder::{per_value_pair_bound, Ladder, LadderConfig, Rung, StepReason, Transition};
pub use metrics::{ClassSnapshot, Metrics, MetricsSnapshot, TenantMetrics, TenantSnapshot};
pub use queue::{BoundedQueue, Pull};
pub use request::{Completion, ExpiredAt, Outcome, RejectReason, Request, RequestId};
pub use shard::{CertificatePolicy, ShardedConfig, ShardedReport, ShardedService};
pub use tenant::{DeadlineClass, QuotaConfig, TenantId, TenantPolicy, TokenBucket, CLASSES};
