//! The global recorder: registry, enabled flag, snapshots.

use crate::hist::{HistSnapshot, Histogram, Log2Histogram};
use crate::json::JsonValue;
use crate::Counter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when instruments record. Off by default: the repo's default
/// posture is "instrumented but silent"; `repro bench` (and tests)
/// flip it on around measured regions.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Accumulated statistics of one named span scope.
#[derive(Debug, Default)]
pub(crate) struct SpanStats {
    /// Per-invocation total nanoseconds.
    pub(crate) hist: Log2Histogram,
    /// Sum of self time (total minus child spans) across invocations.
    pub(crate) self_ns: AtomicU64,
}

/// The process-wide instrument registry.
///
/// Counters and named histograms are `static`s that register themselves
/// on first use; span scopes are created on demand (their names can be
/// dynamic). Registration takes a mutex, but only once per instrument —
/// the steady-state hot path never touches it.
pub struct Recorder {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    spans: Mutex<BTreeMap<String, Arc<SpanStats>>>,
    named: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

/// The global [`Recorder`].
#[must_use]
pub fn recorder() -> &'static Recorder {
    static RECORDER: Recorder = Recorder {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(BTreeMap::new()),
        named: Mutex::new(BTreeMap::new()),
    };
    &RECORDER
}

/// A handle to a *dynamically named* counter — for names only known at
/// run time (per-tenant namespacing like `serve.tenant.paid.admitted`),
/// where the `static` [`Counter`] cannot be used. Handles to the same
/// name share one value; increments are recorder-gated exactly like the
/// static counters, so a disabled recorder makes them one relaxed load.
#[derive(Debug, Clone)]
pub struct NamedCounter {
    value: Arc<AtomicU64>,
}

impl NamedCounter {
    /// Add `n` when the recorder is enabled; no-op otherwise.
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one (gated like [`NamedCounter::add`]).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Recorder {
    pub(crate) fn register_counter(&self, c: &'static Counter) {
        lock(&self.counters).push(c);
    }

    /// Create (or look up) a dynamically named counter. Registration
    /// takes the registry mutex once per distinct name; the returned
    /// handle's increments are lock-free. Named counters appear in
    /// [`Recorder::snapshot`] alongside the static ones and are zeroed
    /// by [`Recorder::reset`].
    #[must_use]
    pub fn named_counter(&self, name: &str) -> NamedCounter {
        let mut named = lock(&self.named);
        let value = match named.get(name) {
            Some(v) => Arc::clone(v),
            None => {
                let v = Arc::new(AtomicU64::new(0));
                named.insert(name.to_string(), Arc::clone(&v));
                v
            }
        };
        NamedCounter { value }
    }

    pub(crate) fn register_histogram(&self, h: &'static Histogram) {
        lock(&self.histograms).push(h);
    }

    pub(crate) fn record_span(&self, name: &str, total_ns: u64, self_ns: u64) {
        let stats = {
            let mut spans = lock(&self.spans);
            match spans.get(name) {
                Some(s) => s.clone(),
                None => {
                    let s = Arc::new(SpanStats::default());
                    spans.insert(name.to_string(), s.clone());
                    s
                }
            }
        };
        stats.hist.record(total_ns);
        stats.self_ns.fetch_add(self_ns, Ordering::Relaxed);
    }

    /// A consistent-enough copy of every registered instrument, sorted
    /// by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<CounterSnapshot> = lock(&self.counters)
            .iter()
            .map(|c| CounterSnapshot { name: c.name().to_string(), value: c.get() })
            .collect();
        counters.extend(lock(&self.named).iter().map(|(name, v)| CounterSnapshot {
            name: name.clone(),
            value: v.load(Ordering::Relaxed),
        }));
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<(String, HistSnapshot)> = lock(&self.histograms)
            .iter()
            .map(|h| (h.name().to_string(), h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let spans: Vec<SpanSnapshot> = lock(&self.spans)
            .iter()
            .map(|(name, s)| {
                let hist = s.hist.snapshot();
                SpanSnapshot {
                    name: name.clone(),
                    count: hist.count(),
                    total_ns: hist.sum(),
                    self_ns: s.self_ns.load(Ordering::Relaxed),
                    hist,
                }
            })
            .collect();
        Snapshot { counters, histograms, spans }
    }

    /// Zero every registered instrument (for phase separation in
    /// benchmarks). Instruments stay registered.
    pub fn reset(&self) {
        for c in lock(&self.counters).iter() {
            c.reset();
        }
        for h in lock(&self.histograms).iter() {
            h.reset();
        }
        for s in lock(&self.spans).values() {
            s.hist.reset();
            s.self_ns.store(0, Ordering::Relaxed);
        }
        for v in lock(&self.named).values() {
            v.store(0, Ordering::Relaxed);
        }
    }
}

/// One counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registry name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One span scope's accumulated timing at snapshot time.
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Scope name.
    pub name: String,
    /// Invocations.
    pub count: u64,
    /// Total nanoseconds across invocations.
    pub total_ns: u64,
    /// Self (non-child) nanoseconds across invocations.
    pub self_ns: u64,
    /// Per-invocation total-time distribution.
    pub hist: HistSnapshot,
}

/// Everything the recorder knows, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// Registered named histograms.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Span scopes.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Value of a counter by name (0 when absent — an untouched counter
    /// never registered).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// All counters whose name starts with `prefix`, in registry (name)
    /// order. Useful for pulling a whole subsystem's counters (e.g.
    /// `core.reveal.`) into a report without naming each one.
    #[must_use]
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<&CounterSnapshot> {
        self.counters.iter().filter(|c| c.name.starts_with(prefix)).collect()
    }

    /// A named histogram's snapshot, if it was touched.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// A span scope by name, if recorded.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The snapshot as a JSON value (for embedding in BENCH reports).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let counters = JsonValue::object(
            self.counters.iter().map(|c| (c.name.clone(), JsonValue::UInt(c.value))).collect(),
        );
        let histograms = JsonValue::object(
            self.histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        JsonValue::object(vec![
                            ("count".to_string(), JsonValue::UInt(h.count())),
                            ("sum".to_string(), JsonValue::UInt(h.sum())),
                            ("min".to_string(), h.min().map_or(JsonValue::Null, JsonValue::UInt)),
                            ("max".to_string(), h.max().map_or(JsonValue::Null, JsonValue::UInt)),
                            (
                                "p50".to_string(),
                                h.quantile(500).map_or(JsonValue::Null, JsonValue::UInt),
                            ),
                            (
                                "p99".to_string(),
                                h.quantile(990).map_or(JsonValue::Null, JsonValue::UInt),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let spans = JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object(vec![
                        ("name".to_string(), JsonValue::Str(s.name.clone())),
                        ("count".to_string(), JsonValue::UInt(s.count)),
                        ("total_ns".to_string(), JsonValue::UInt(s.total_ns)),
                        ("self_ns".to_string(), JsonValue::UInt(s.self_ns)),
                        (
                            "p99_ns".to_string(),
                            s.hist.quantile(990).map_or(JsonValue::Null, JsonValue::UInt),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::object(vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
            ("spans".to_string(), spans),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lookup_helpers() {
        let snap = Snapshot {
            counters: vec![CounterSnapshot { name: "a.b".into(), value: 3 }],
            histograms: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(snap.counter("a.b"), 3);
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.histogram("missing").is_none());
        assert!(snap.span("missing").is_none());
        let j = snap.to_json().to_string();
        assert!(j.contains("\"a.b\":3"), "{j}");
    }

    #[test]
    fn prefix_filter_selects_a_subsystem() {
        let snap = Snapshot {
            counters: vec![
                CounterSnapshot { name: "core.reveal.groups".into(), value: 2 },
                CounterSnapshot { name: "core.reveal.terms_kept".into(), value: 9 },
                CounterSnapshot { name: "core.matmul.calls".into(), value: 1 },
            ],
            histograms: Vec::new(),
            spans: Vec::new(),
        };
        let hits = snap.counters_with_prefix("core.reveal.");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|c| c.name.starts_with("core.reveal.")));
        assert!(snap.counters_with_prefix("nope.").is_empty());
    }
}
