//! `mlp_serve`: the zoo MLP behind a one-shard, one-worker
//! `ShardedService` pinned to one rung, driven by one generator thread
//! through an open-loop Poisson phase and then a closed-loop phase.

use crate::host::HostProbe;
use crate::layers::{replay, LayerClock};
use crate::model::{count_routes, integer_gate, ms_since, setup_model, Bench};
use crate::stats::{mean, median, tail};
use crate::{Args, Metrics, Report};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tr_nn::Precision;
use tr_serve::{
    DeadlineClass, Engine, EngineError, EngineFactory, LadderConfig, NnEngine, Outcome, RequestId,
    Rung, ShardedConfig, ShardedReport, ShardedService, TenantPolicy,
};
use tr_tensor::{Rng, Tensor};

/// Largest batch the worker forms.
const MAX_BATCH: usize = 8;
/// Open-loop arrival rate. The worker is busy about a sixth of the time:
/// queueing amplifies a slow spell of the host into latency far beyond
/// its length, so the load stays well below the knee.
const RATE_PER_S: f64 = 20.0;
/// Share of the run spent in the open-loop phase; the rest is closed loop.
/// About 240 requests in a 25 s run, so the tail is the 96th percentile:
/// higher ones swing with the host's rare multi-millisecond stalls.
const OPEN_SHARE: f64 = 0.5;
/// Requests kept outstanding in the closed-loop phase: two full batches.
const OUTSTANDING: u64 = 16;
/// A request answered later than this after its due time misses the
/// limit.
const LIMIT: Duration = Duration::from_millis(40);
/// Service start-ups per run; `setup_s` reports their median.
const SETUPS: usize = 9;
/// Served batches replayed stage by stage in the traced run.
const REPLAYS: usize = 5;
/// How long before a request is due the open-loop generator stops
/// sleeping and starts to spin.
const SPIN_BEFORE_DUE: Duration = Duration::from_millis(3);
/// How often a drain re-reads the service's counters.
const DRAIN_POLL: Duration = Duration::from_micros(200);
/// How long the generator waits for a completion before it re-reads the
/// service's counters (a request that fails never reaches the engine).
const WAKE: Duration = Duration::from_millis(100);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a lock")
}

/// One engine call, as seen from the benchmark's engine wrapper.
struct Call {
    start: Instant,
    end: Instant,
    /// Addresses of the batch's input buffers: they identify requests.
    rows: Vec<usize>,
}

/// What the engine wrapper shares with the generator thread.
#[derive(Default)]
struct Probe {
    /// Rows the engine has classified.
    done: Mutex<u64>,
    wake: Condvar,
    /// Whether calls are timestamped (traced run only).
    trace: AtomicBool,
    calls: Mutex<Vec<Call>>,
    /// Factory and first rung install times, ms, per engine built.
    load_ms: Mutex<Vec<f64>>,
    calibrate_ms: Mutex<Vec<f64>>,
    prepare_ms: Mutex<Vec<f64>>,
    /// Every precision the service asked the engine to install.
    installed: Mutex<Vec<Precision>>,
    /// Host probe, sampled on the worker thread: the worker's vCPU is the
    /// one whose speed the served latency follows.
    host: Mutex<HostProbe>,
}

impl Probe {
    fn done(&self) -> u64 {
        *lock(&self.done)
    }

    /// Block until more than `seen` rows are done or [`WAKE`] passes.
    fn wait_past(&self, seen: u64) -> u64 {
        let g = lock(&self.done);
        let (g, _) = self
            .wake
            .wait_timeout_while(g, WAKE, |d| *d <= seen)
            .expect("a benchmark thread panicked while holding a lock");
        *g
    }
}

/// The benchmark-side engine: forwards to `NnEngine`, counts classified
/// rows for the closed loop and, when tracing, timestamps each call.
struct ProbedEngine {
    inner: NnEngine,
    probe: Arc<Probe>,
    /// Installed instead of what the service asks for, to show the gates
    /// catch a wrong rung.
    tamper: Option<Precision>,
}

impl Engine for ProbedEngine {
    fn set_precision(&mut self, precision: &Precision, cost_factor: f64) {
        lock(&self.probe.installed).push(*precision);
        let t = Instant::now();
        self.inner
            .set_precision(self.tamper.as_ref().unwrap_or(precision), cost_factor);
        lock(&self.probe.prepare_ms).push(ms_since(t));
    }

    fn infer(&mut self, inputs: &[&[f32]]) -> Vec<usize> {
        self.inner.infer(inputs)
    }

    fn try_infer(&mut self, inputs: &[&[f32]]) -> Result<Vec<usize>, EngineError> {
        // Before the call: in the open loop the worker has just woken from
        // idle, and the probe should see the vCPU in that state too.
        lock(&self.probe.host).tick();
        let start = Instant::now();
        let out = self.inner.try_infer(inputs);
        let end = Instant::now();
        if self.probe.trace.load(Ordering::SeqCst) {
            let rows = inputs.iter().map(|r| r.as_ptr() as usize).collect();
            lock(&self.probe.calls).push(Call { start, end, rows });
        }
        if out.is_ok() {
            *lock(&self.probe.done) += inputs.len() as u64;
            self.probe.wake.notify_all();
        }
        out
    }

    fn integrity_stats(&self) -> (u64, u64) {
        self.inner.integrity_stats()
    }
}

fn factory(bench: &Arc<Bench>, probe: &Arc<Probe>, tamper: Option<Precision>) -> EngineFactory {
    let (bench, probe) = (Arc::clone(bench), Arc::clone(probe));
    Arc::new(move || {
        let t = Instant::now();
        let mut model = bench
            .load()
            .expect("the checkpoint loaded before the service started");
        lock(&probe.load_ms).push(ms_since(t));
        let t = Instant::now();
        bench.calibrate(&mut model);
        lock(&probe.calibrate_ms).push(ms_since(t));
        let mut inner = NnEngine::new(model, bench.row_len(), Duration::ZERO, 0);
        inner.set_integer_exec(true);
        Box::new(ProbedEngine {
            inner,
            probe: Arc::clone(&probe),
            tamper,
        })
    })
}

fn config(rung: &Precision) -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        workers_per_shard: 1,
        max_batch: MAX_BATCH,
        ladder: LadderConfig {
            rungs: vec![Rung::from_precision(*rung)],
            fallback: None,
            ..LadderConfig::default_tr_ladder()
        },
        tenants: vec![TenantPolicy::new("bench")],
        ..ShardedConfig::default()
    }
}

/// A request the generator sent.
struct Sent {
    idx: usize,
    due: Instant,
    sent: Instant,
    row: usize,
}

struct Phase {
    sent: BTreeMap<RequestId, Sent>,
    attempted: u64,
    start: Instant,
    end: Instant,
    /// Time the worker spent in the host probe during the phase (closed
    /// loop only).
    probed: Duration,
    /// Rows the engine classified inside the phase window.
    rows_done: u64,
}

fn submit(svc: &ShardedService, bench: &Bench, idx: usize, due: Instant, phase: &mut Phase) {
    let input = bench.row(idx).to_vec();
    let row = input.as_ptr() as usize;
    let sent = Instant::now();
    phase.attempted += 1;
    if let Ok(id) = svc.submit(0, DeadlineClass::Interactive, input, None) {
        phase.sent.insert(
            id,
            Sent {
                idx,
                due,
                sent,
                row,
            },
        );
    }
}

/// Wait until the first `before` requests have a terminal outcome. The
/// service counts an outcome in its finish funnel after the engine has
/// returned, so no wake-up marks it: poll.
fn drain(svc: &ShardedService, before: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics_snapshot().terminal_total() < before && Instant::now() < deadline {
        std::thread::sleep(DRAIN_POLL);
    }
}

/// Poisson arrivals at [`RATE_PER_S`] for `dur`.
fn open_loop(
    svc: &ShardedService,
    bench: &Bench,
    probe: &Probe,
    rng: &mut Rng,
    dur: Duration,
) -> Phase {
    let start = Instant::now();
    let done0 = probe.done();
    let mut phase = Phase {
        sent: BTreeMap::new(),
        attempted: 0,
        start,
        end: start,
        probed: Duration::ZERO,
        rows_done: 0,
    };
    let mut due = start;
    loop {
        let gap = -f64::from(1.0 - rng.uniform()).max(f64::MIN_POSITIVE).ln() / RATE_PER_S;
        due += Duration::from_secs_f64(gap);
        if due >= start + dur {
            break;
        }
        let idx = rng.below(bench.len());
        // Sleep until shortly before the request is due, then spin,
        // yielding. A generator that sleeps to the due time wakes
        // milliseconds late under host load, and that lateness would read
        // as service latency; one that spins throughout keeps a vCPU busy
        // in `sched_yield` that the worker's vCPU shares the host with.
        if let Some(wake) = due.checked_sub(SPIN_BEFORE_DUE) {
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        submit(svc, bench, idx, due, &mut phase);
    }
    phase.end = Instant::now();
    phase.rows_done = probe.done() - done0;
    phase
}

/// [`OUTSTANDING`] requests in flight for `dur`; a completion releases
/// the next request.
fn closed_loop(
    svc: &ShardedService,
    bench: &Bench,
    probe: &Probe,
    rng: &mut Rng,
    dur: Duration,
) -> Phase {
    let start = Instant::now();
    let done0 = probe.done();
    let failed0 = failed_so_far(svc);
    let probed0 = lock(&probe.host).spent;
    let mut phase = Phase {
        sent: BTreeMap::new(),
        attempted: 0,
        start,
        end: start,
        probed: Duration::ZERO,
        rows_done: 0,
    };
    let mut seen = done0;
    while start.elapsed() < dur {
        let finished = (seen - done0) + (failed_so_far(svc) - failed0);
        while phase.attempted < finished + OUTSTANDING {
            let idx = rng.below(bench.len());
            submit(svc, bench, idx, Instant::now(), &mut phase);
        }
        seen = probe.wait_past(seen);
    }
    phase.end = Instant::now();
    phase.rows_done = probe.done() - done0;
    phase.probed = lock(&probe.host).spent - probed0;
    phase
}

fn failed_so_far(svc: &ShardedService) -> u64 {
    let s = svc.metrics_snapshot();
    s.terminal_total() - s.completed
}

/// Start the service and wait for one warm request to complete.
fn start(
    bench: &Arc<Bench>,
    probe: &Arc<Probe>,
    rung: &Precision,
    tamper: Option<Precision>,
) -> Result<(ShardedService, f64), String> {
    let t = Instant::now();
    let svc = ShardedService::start(config(rung), factory(bench, probe, tamper))
        .map_err(|e| e.to_string())?;
    let before = probe.done();
    // A deadline no set-up reaches, so a slow start cannot expire it.
    svc.submit(
        0,
        DeadlineClass::Interactive,
        bench.row(0).to_vec(),
        Some(Duration::from_secs(60)),
    )
    .map_err(|e| format!("warm-up request refused: {e}"))?;
    drain(&svc, svc.metrics_snapshot().submitted);
    if probe.done() <= before {
        return Err("warm-up request did not complete".to_string());
    }
    Ok((svc, t.elapsed().as_secs_f64()))
}

/// Run `mlp_serve` and report its metrics.
pub fn run(bench: Bench, rung: &Precision, args: &Args) -> Result<Report, String> {
    let bench = Arc::new(bench);
    let (mut reference_model, _) = setup_model(&bench, rung)?;
    let reference = bench.reference(&mut reference_model)?;

    let probe = Arc::new(Probe::default());
    let tamper = args.tamper_rung.then(crate::model::tampered_rung);
    let mut setup_s = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        if let Some(old) = svc.take() {
            let _ = ShardedService::shutdown(old);
        }
        let (s, secs) = start(&bench, &probe, rung, tamper)?;
        setup_s.push((secs, Instant::now()));
        svc = Some(s);
    }
    let svc = svc.ok_or("no set-up ran")?;
    let start_ms: Vec<f64> = setup_s.iter().map(|s| s.0 * 1e3).collect();

    let mut rng = Rng::seed_from_u64(args.seed);
    let total = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics::new();
    let mut phases = Vec::new();
    let mut throughput = Vec::new();
    // The traced run measures an untraced half first, so the closed-loop
    // throughput ratio of its two halves is the tracing overhead.
    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let share = 1.0 / halves.len() as f64;
    for &traced in halves {
        probe.trace.store(traced, Ordering::SeqCst);
        let open = open_loop(
            &svc,
            &bench,
            &probe,
            &mut rng,
            total.mul_f64(share * OPEN_SHARE),
        );
        drain(&svc, svc.metrics_snapshot().submitted);
        let closed = closed_loop(
            &svc,
            &bench,
            &probe,
            &mut rng,
            total.mul_f64(share * (1.0 - OPEN_SHARE)),
        );
        drain(&svc, svc.metrics_snapshot().submitted);
        let busy = (closed.end - closed.start).saturating_sub(closed.probed);
        throughput.push((
            closed.rows_done as f64 / busy.as_secs_f64(),
            lock(&probe.host).between(closed.start, closed.end),
        ));
        phases.push((traced, open, closed));
    }
    probe.trace.store(false, Ordering::SeqCst);
    let report = svc.shutdown();

    let mut failures = gate_service(&report, &probe, rung);
    let outcomes: HashMap<RequestId, Outcome> = report
        .completions
        .iter()
        .map(|c| (c.id, c.outcome))
        .collect();
    let mut attempted = 0;
    let mut ok = 0;
    let mut mismatches = 0;
    let mut open_latency = Vec::new();
    let mut open_good = 0u64;
    let mut open_sent = 0u64;
    let mut served = Vec::new();
    for (_, open, closed) in &phases {
        for (phase, is_open) in [(open, true), (closed, false)] {
            attempted += phase.attempted;
            if is_open {
                open_sent += phase.attempted;
            }
            for (id, s) in &phase.sent {
                let Some(Outcome::Completed { class, latency, .. }) = outcomes.get(id) else {
                    continue;
                };
                ok += 1;
                let class = if args.wrong_prediction && ok == 1 {
                    (class + 1) % bench.classes
                } else {
                    *class
                };
                if class != reference[s.idx] {
                    mismatches += 1;
                }
                served.push(s.idx);
                if is_open {
                    let from_due = (s.sent - s.due) + *latency;
                    open_latency.push(from_due.as_secs_f64() * 1e3);
                    if from_due <= LIMIT {
                        open_good += 1;
                    }
                }
            }
        }
    }
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} of {ok} served predictions differ from the reference"
        ));
    }
    let failed = attempted - ok;

    // Integer state and routes of the served model, checked on an
    // identically set-up replica (the served one lives inside the worker).
    let batch_sizes = (1..=MAX_BATCH).map(|size| (size, 1)).collect();
    let (routes, gate) = integer_gate(&mut reference_model, &batch_sizes);
    failures.extend(gate);

    // Every time at the nominal host speed: divided by the host index,
    // sampled on the worker thread. Open-loop latencies take the median
    // index of their phase: the worker samples it only when a request
    // comes, too rarely for a local index that would not add noise of
    // its own to the tail.
    let host = lock(&probe.host);
    let index = |t: Instant| host.at(t).ok_or("no host probe sample");
    let (_, open, _) = &phases[0];
    let open_index = host
        .between(open.start, open.end)
        .ok_or("no host probe sample")?;
    let norm_latency: Vec<f64> = open_latency.iter().map(|ms| ms / open_index).collect();
    let mut norm_setup = Vec::with_capacity(setup_s.len());
    for &(s, end) in &setup_s {
        norm_setup.push(s / index(end)?);
    }
    let (closed_rate, closed_index) = throughput[0];
    let closed_index = closed_index.ok_or("no host probe sample")?;
    let (tail_ms, tail_pct, tail_n) =
        tail(&norm_latency).ok_or("too few open-loop completions for a tail")?;
    let (host_index, probes) = host.summary();
    drop(host);
    let median_of = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let raw_setup: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
    let notes = vec![
        format!("tail = p{tail_pct:.2} of {tail_n} open-loop requests"),
        format!(
            "open loop {RATE_PER_S}/s, closed loop {OUTSTANDING} outstanding, limit {} ms",
            LIMIT.as_millis()
        ),
        format!("routes at batch 1..={MAX_BATCH}: {routes:?}"),
        format!(
            "host index {host_index:.4} over {probes} probes; wall clock: setup {:.4} s, \
             {closed_rate:.2} samples/s, p50 {:.3} ms, tail {:.3} ms",
            median_of(&raw_setup),
            median_of(&open_latency),
            tail(&open_latency).map_or(0.0, |t| t.0),
        ),
    ];
    if args.trace {
        let (_, open, _) = phases
            .iter()
            .find(|(t, _, _)| *t)
            .ok_or("no traced phase")?;
        let calls = std::mem::take(&mut *lock(&probe.calls));
        serve_layer_metrics(open, &calls, &outcomes, &mut metrics);
        metrics.insert(
            "trace.overhead_share".into(),
            (1.0 - throughput[1].0 / throughput[0].0, "share"),
        );
        let med = |m: &Mutex<Vec<f64>>| median(&lock(m)).unwrap_or(0.0);
        metrics.insert("setup.load_ms".into(), (med(&probe.load_ms), "ms"));
        metrics.insert(
            "setup.calibrate_ms".into(),
            (med(&probe.calibrate_ms), "ms"),
        );
        metrics.insert("setup.prepare_ms".into(), (med(&probe.prepare_ms), "ms"));
        metrics.insert(
            "setup.service_start_ms".into(),
            (median(&start_ms).unwrap_or(0.0), "ms"),
        );
        // Per-layer and per-stage replays of served inputs at full batch.
        for (name, n) in count_routes(&mut reference_model, &call_sizes(&calls)) {
            metrics.insert(format!("core.route.{name}"), (n as f64, "count"));
        }
        let batches: Vec<Tensor> = served
            .chunks_exact(MAX_BATCH)
            .take(REPLAYS)
            .map(|idx| bench.gather(idx))
            .collect();
        let mut layers = reference_model.into_layers();
        let mut clock = LayerClock::new(&layers);
        if let Err(e) = replay(
            &mut layers,
            &batches,
            &mut clock,
            &mut Rng::seed_from_u64(0),
            &mut metrics,
        ) {
            failures.push(format!("replay: {e}"));
        }
        clock.report(&mut metrics);
    } else {
        metrics.insert("setup_s".into(), (median_of(&norm_setup), "s"));
        metrics.insert(
            "throughput_sps".into(),
            (closed_rate * closed_index, "samples/s"),
        );
        metrics.insert("latency_p50_ms".into(), (median_of(&norm_latency), "ms"));
        metrics.insert("latency_tail_ms".into(), (tail_ms, "ms"));
        metrics.insert(
            "goodput_share".into(),
            (open_good as f64 / open_sent.max(1) as f64, "share"),
        );
        metrics.insert(
            "success_share".into(),
            (ok as f64 / attempted.max(1) as f64, "share"),
        );
        metrics.insert("accuracy".into(), (bench.accuracy(&reference), "share"));
    }
    Ok(Report {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
        failures,
    })
}

/// Served-batch sizes (size → calls) from the traced calls.
fn call_sizes(calls: &[Call]) -> BTreeMap<usize, u64> {
    let mut sizes = BTreeMap::new();
    for c in calls {
        *sizes.entry(c.rows.len()).or_insert(0) += 1;
    }
    sizes
}

/// The service-level gates: conservation, no rung transition, and only
/// the pinned rung ever installed.
fn gate_service(report: &ShardedReport, probe: &Probe, rung: &Precision) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(e) = report.verify_conservation() {
        failures.push(format!("conservation: {e}"));
    }
    let moved = report
        .tenants
        .iter()
        .any(|t| t.final_rung != 0 || t.deepest_rung != 0)
        || report
            .completions
            .iter()
            .any(|c| matches!(c.outcome, Outcome::Completed { rung, .. } if rung != 0));
    if moved || report.snapshot.reconfigurations != report.snapshot.engine_rebuilds + 1 {
        failures.push(format!(
            "ladder moved: {} reconfigurations over {} engine builds",
            report.snapshot.reconfigurations,
            report.snapshot.engine_rebuilds + 1
        ));
    }
    if lock(&probe.installed).iter().any(|p| p != rung) {
        failures.push("an engine installed a rung other than the pinned one".to_string());
    }
    failures
}

/// tr-serve per-layer figures of the traced open-loop phase, joining each
/// request to the engine call that carried its input buffer.
fn serve_layer_metrics(
    open: &Phase,
    calls: &[Call],
    outcomes: &HashMap<RequestId, Outcome>,
    out: &mut Metrics,
) {
    let mut by_row: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, c) in calls.iter().enumerate() {
        for &r in &c.rows {
            by_row.entry(r).or_default().push(i);
        }
    }
    let mut wait = Vec::new();
    let mut dispatch = Vec::new();
    let mut late = Vec::new();
    for (id, s) in &open.sent {
        late.push((s.sent - s.due).as_secs_f64() * 1e3);
        let Some(Outcome::Completed { latency, .. }) = outcomes.get(id) else {
            continue;
        };
        // The first call after submission that carried this buffer.
        let Some(call) = by_row
            .get(&s.row)
            .and_then(|ix| ix.iter().map(|&i| &calls[i]).find(|c| c.start >= s.sent))
        else {
            continue;
        };
        wait.push((call.start - s.sent).as_secs_f64() * 1e3);
        let finished = s.sent + *latency;
        dispatch.push(finished.saturating_duration_since(call.end).as_secs_f64() * 1e3);
    }
    let in_open: Vec<&Call> = calls
        .iter()
        .filter(|c| c.start >= open.start && c.end <= open.end)
        .collect();
    let call_ms: Vec<f64> = in_open
        .iter()
        .map(|c| (c.end - c.start).as_secs_f64() * 1e3)
        .collect();
    let sizes: Vec<f64> = in_open.iter().map(|c| c.rows.len() as f64).collect();
    let busy = call_ms.iter().sum::<f64>() / ((open.end - open.start).as_secs_f64() * 1e3);
    out.insert(
        "serve.queue_wait_ms.p50".into(),
        (median(&wait).unwrap_or(0.0), "ms"),
    );
    out.insert(
        "serve.queue_wait_ms.tail".into(),
        (tail(&wait).map_or(0.0, |t| t.0), "ms"),
    );
    out.insert(
        "serve.engine_call_ms.p50".into(),
        (median(&call_ms).unwrap_or(0.0), "ms"),
    );
    out.insert(
        "serve.batch_size.mean".into(),
        (mean(&sizes).unwrap_or(0.0), "rows"),
    );
    out.insert("serve.engine_busy_share".into(), (busy, "share"));
    out.insert(
        "serve.dispatch_ms.p50".into(),
        (median(&dispatch).unwrap_or(0.0), "ms"),
    );
    out.insert(
        "load.late_ms.max".into(),
        (late.iter().copied().fold(0.0, f64::max), "ms"),
    );
}
