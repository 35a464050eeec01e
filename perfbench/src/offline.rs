//! Offline closed-loop workloads: one thread classifies one seeded batch
//! after another, with no serving layer in between.

use crate::host::HostProbe;
use crate::layers::{replay, LayerClock};
use crate::model::{integer_gate, ms_since, setup_model, Bench, SetupTimes};
use crate::stats::{median, tail};
use crate::{Args, Metrics, Report};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tr_nn::exec::try_classify_batch;
use tr_nn::{Layer, Precision, Sequential};
use tr_tensor::{Rng, Tensor};

/// Batch size and latency limit of an offline workload.
pub struct Offline {
    /// Rows per forward.
    pub batch: usize,
    /// A forward slower than this misses the workload's latency limit.
    pub limit: Duration,
}

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 9;
/// Batches replayed stage by stage in the traced run.
const REPLAYS: usize = 5;
/// Host probe samples taken after each set-up.
const SETUP_PROBES: usize = 3;

/// One measured forward.
struct Forward {
    idx: Vec<usize>,
    preds: Vec<usize>,
    /// When the forward started.
    at: Instant,
    /// The forward alone, ms.
    ms: f64,
    /// Its loop iteration (input gather + forward), s.
    busy_s: f64,
}

/// Classify seeded batches until `dur` has passed, through the whole
/// model (`try_classify_batch`) or, with a clock, layer by layer, with
/// host probe samples between forwards.
fn closed_loop(
    bench: &Bench,
    spec: &Offline,
    model: &mut Sequential,
    layers: Option<(&mut Vec<Box<dyn Layer>>, &mut LayerClock)>,
    inputs: &mut Rng,
    probe: &mut HostProbe,
    dur: Duration,
) -> Result<Vec<Forward>, String> {
    let mut rng = Rng::seed_from_u64(0);
    let mut done = Vec::new();
    let start = Instant::now();
    let mut layers = layers;
    while start.elapsed() < dur {
        let begin = Instant::now();
        let idx: Vec<usize> = (0..spec.batch).map(|_| inputs.below(bench.len())).collect();
        let x = bench.gather(&idx);
        let t = Instant::now();
        let preds = match layers.as_mut() {
            None => try_classify_batch(model, &x, &mut rng).map_err(|e| e.to_string())?,
            Some((layers, clock)) => {
                let (y, _) = clock.forward(layers, &x, &mut rng, false)?;
                (0..spec.batch).map(|r| y.argmax_row(r)).collect()
            }
        };
        done.push(Forward {
            idx,
            preds,
            at: t,
            ms: ms_since(t),
            busy_s: begin.elapsed().as_secs_f64(),
        });
        probe.tick();
    }
    Ok(done)
}

/// Run an offline workload and report its metrics.
pub fn run(
    bench: &Bench,
    spec: &Offline,
    precision: &Precision,
    args: &Args,
) -> Result<Report, String> {
    let measured = if args.tamper_rung {
        crate::model::tampered_rung()
    } else {
        *precision
    };
    // Reference first, at the workload's true rung.
    let (mut reference_model, _) = setup_model(bench, precision)?;
    let reference = bench.reference(&mut reference_model)?;
    drop(reference_model);

    let mut probe = HostProbe::new(true);
    let mut setup_s = Vec::new();
    let mut stages: Vec<SetupTimes> = Vec::new();
    let mut model = None;
    let warm_idx: Vec<usize> = (0..spec.batch).map(|i| i % bench.len()).collect();
    let warm_x = bench.gather(&warm_idx);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (mut m, times) = setup_model(bench, &measured)?;
        try_classify_batch(&mut m, &warm_x, &mut Rng::seed_from_u64(0))
            .map_err(|e| e.to_string())?;
        setup_s.push((t.elapsed().as_secs_f64(), Instant::now()));
        stages.push(times);
        for _ in 0..SETUP_PROBES {
            probe.sample();
        }
        model = Some(m);
    }
    let mut model = model.ok_or("no set-up ran")?;

    let mut inputs = Rng::seed_from_u64(args.seed);
    let total = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics::new();
    let mut failures = Vec::new();
    let forwards = if args.trace {
        // Half untraced, half traced: the throughput ratio is the
        // tracing overhead.
        let plain = closed_loop(
            bench,
            spec,
            &mut model,
            None,
            &mut inputs,
            &mut probe,
            total / 2,
        )?;
        let mut layers = std::mem::take(&mut model).into_layers();
        let mut clock = LayerClock::new(&layers);
        let traced = closed_loop(
            bench,
            spec,
            &mut model,
            Some((&mut layers, &mut clock)),
            &mut inputs,
            &mut probe,
            total / 2,
        )?;
        let rate =
            |f: &[Forward]| (f.len() * spec.batch) as f64 / f.iter().map(|f| f.busy_s).sum::<f64>();
        metrics.insert(
            "trace.overhead_share".into(),
            (1.0 - rate(&traced) / rate(&plain), "share"),
        );
        let batches: Vec<Tensor> = traced
            .iter()
            .take(REPLAYS)
            .map(|f| bench.gather(&f.idx))
            .collect();
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
        for l in layers {
            model.push_boxed(l);
        }
        let mut all = plain;
        all.extend(traced);
        all
    } else {
        closed_loop(
            bench,
            spec,
            &mut model,
            None,
            &mut inputs,
            &mut probe,
            total,
        )?
    };

    let mut forwards = forwards;
    if args.wrong_prediction {
        if let Some(f) = forwards.first_mut() {
            f.preds[0] = (f.preds[0] + 1) % bench.classes;
        }
    }
    let rows = forwards.len() * spec.batch;
    let mismatches: usize = forwards
        .iter()
        .map(|f| {
            f.idx
                .iter()
                .zip(&f.preds)
                .filter(|(&i, &p)| reference[i] != p)
                .count()
        })
        .sum();
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} of {rows} predictions differ from the reference"
        ));
    }
    let (routes, gate) = integer_gate(
        &mut model,
        &BTreeMap::from([(spec.batch, forwards.len() as u64)]),
    );
    failures.extend(gate);

    let ms: Vec<f64> = forwards.iter().map(|f| f.ms).collect();
    let limit_ms = spec.limit.as_secs_f64() * 1e3;
    // Every time at the nominal host speed: divided by the host index
    // around it.
    let index = |t: Instant| probe.at(t).ok_or("no host probe sample");
    let mut norm_ms = Vec::with_capacity(forwards.len());
    let mut norm_busy = 0.0;
    for f in &forwards {
        let h = index(f.at)?;
        norm_ms.push(f.ms / h);
        norm_busy += f.busy_s / h;
    }
    let mut norm_setup = Vec::with_capacity(setup_s.len());
    for &(s, end) in &setup_s {
        norm_setup.push(s / index(end)?);
    }
    let (tail_ms, tail_pct, tail_n) =
        tail(&norm_ms).ok_or("too few forwards for a tail percentile")?;
    let (host, probes) = probe.summary();
    let median_of = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let raw_setup: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
    let raw_busy: f64 = forwards.iter().map(|f| f.busy_s).sum();

    if args.trace {
        for (name, n) in &routes {
            metrics.insert(format!("core.route.{name}"), (*n as f64, "count"));
        }
        let med = |f: fn(&SetupTimes) -> f64| {
            median(&stages.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        metrics.insert("setup.load_ms".into(), (med(|s| s.load_ms), "ms"));
        metrics.insert("setup.calibrate_ms".into(), (med(|s| s.calibrate_ms), "ms"));
        metrics.insert("setup.prepare_ms".into(), (med(|s| s.prepare_ms), "ms"));
    } else {
        metrics.insert("setup_s".into(), (median_of(&norm_setup), "s"));
        metrics.insert(
            "throughput_sps".into(),
            (rows as f64 / norm_busy, "samples/s"),
        );
        metrics.insert("latency_p50_ms".into(), (median_of(&norm_ms), "ms"));
        metrics.insert("latency_tail_ms".into(), (tail_ms, "ms"));
        let within = ms.iter().filter(|&&m| m <= limit_ms).count() * spec.batch;
        metrics.insert(
            "goodput_share".into(),
            (within as f64 / rows as f64, "share"),
        );
        metrics.insert("success_share".into(), (1.0, "share"));
        metrics.insert("accuracy".into(), (bench.accuracy(&reference), "share"));
    }
    Ok(Report {
        correct: failures.is_empty(),
        attempted: rows as u64,
        failed: 0,
        metrics,
        notes: vec![
            format!("tail = p{tail_pct:.2} of {tail_n} forwards"),
            format!(
                "batch {} at {}, latency limit {limit_ms} ms",
                spec.batch,
                measured.label()
            ),
            format!("routes {routes:?}"),
            format!(
                "host index {host:.4} over {probes} probes; wall clock: setup {:.4} s, \
                 {:.2} samples/s, p50 {:.3} ms, tail {:.3} ms",
                median_of(&raw_setup),
                rows as f64 / raw_busy,
                median_of(&ms),
                tail(&ms).map_or(0.0, |t| t.0),
            ),
        ],
        failures,
    })
}
