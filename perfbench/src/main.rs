//! End-to-end and per-layer benchmark of the term-revealing workspace.
//!
//! ```text
//! perfbench --workload <mlp_serve|mlp_int_k8|vgg_tr_k8> --seed <n> --seconds <s>
//!           --trace <0|1> --zoo <dir> [--inject <wrong-prediction|tampered-rung>]
//! perfbench --prepare --zoo <dir>      train any missing zoo model
//! perfbench --list-metrics             every metric name, unit and direction
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A run whose
//! correctness gates fail still prints it, with `correct: false`, and
//! exits 1. See `README.md` for the workloads and what each metric means.

mod host;
mod layers;
mod model;
mod offline;
mod serve;
mod stats;

use model::{Arch, Bench};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use tr_bench::zoo::Zoo;
use tr_nn::models::{mlp::build_mlp, vgg::build_vgg};
use tr_tensor::Rng;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Parsed command line.
pub struct Args {
    workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    zoo: Option<PathBuf>,
    /// Flip one measured prediction (gate self-test).
    pub wrong_prediction: bool,
    /// Measure a rung other than the reference's (gate self-test).
    pub tamper_rung: bool,
}

/// What one run found.
pub struct Report {
    /// Every gate held.
    pub correct: bool,
    /// Requests or rows attempted.
    pub attempted: u64,
    /// Of those, rejected, expired, quarantined or failed.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Metrics,
    /// Context printed to stderr: tail percentile, sample counts, routes.
    pub notes: Vec<String>,
    /// Gate failures, printed to stderr.
    pub failures: Vec<String>,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["mlp_serve", "mlp_int_k8", "vgg_tr_k8"];

/// End-to-end metrics: name, unit, better.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("throughput_sps", "samples/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("goodput_share", "share", "higher"),
    ("success_share", "share", "higher"),
    ("accuracy", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: name, unit, better. Layer and quant-site names come
/// from the zoo architectures themselves.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let ms = |n: &str| (n.to_string(), "ms", "lower");
    let mut out: Vec<_> = [
        "setup.load_ms",
        "setup.calibrate_ms",
        "setup.prepare_ms",
        "setup.service_start_ms",
        "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.tail",
        "serve.engine_call_ms.p50",
        "serve.dispatch_ms.p50",
        "load.late_ms.max",
        "core.act_pack_ms",
        "core.matmul_ms",
        "core.rescale_ms",
        "tensor.im2col_ms",
        "tensor.matmul_ms",
    ]
    .into_iter()
    .map(ms)
    .collect();
    out.push(("serve.batch_size.mean".into(), "rows", "higher"));
    out.push(("serve.engine_busy_share".into(), "share", "lower"));
    for route in ["serial", "parallel", "bitplane", "bitplane_blocked"] {
        out.push((format!("core.route.{route}"), "count", "higher"));
    }
    out.push(("core.term_pairs_per_mac".into(), "pairs", "lower"));
    out.push(("trace.overhead_share".into(), "share", "lower"));
    let mut rng = Rng::seed_from_u64(0);
    for model in [
        build_mlp(model::CLASSES, &mut rng),
        build_vgg(model::CLASSES, &mut rng),
    ] {
        for (i, mut layer) in model.into_layers().into_iter().enumerate() {
            let name = layer.name();
            out.push((layers::layer_metric(i, &name), "ms", "lower"));
            let mut sites = 0;
            layer.visit_quant_sites(&mut |_| sites += 1);
            if sites > 0 {
                out.push((layers::act_metric(i, &name), "ms", "lower"));
            }
        }
    }
    out
}

fn parse() -> Result<(Args, bool, bool), String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        zoo: None,
        wrong_prediction: false,
        tamper_rung: false,
    };
    let (mut prepare, mut list) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--zoo" => a.zoo = Some(PathBuf::from(value()?)),
            "--inject" => match value()?.as_str() {
                "wrong-prediction" => a.wrong_prediction = true,
                "tampered-rung" => a.tamper_rung = true,
                other => return Err(format!("unknown injection {other}")),
            },
            "--prepare" => prepare = true,
            "--list-metrics" => list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok((a, prepare, list))
}

fn zoo(args: &Args) -> Result<Zoo, String> {
    let dir = args.zoo.clone().ok_or("--zoo is required")?;
    Ok(Zoo::at(dir))
}

fn run(args: &Args) -> Result<Report, String> {
    let zoo = zoo(args)?;
    let mut report = match args.workload.as_str() {
        "mlp_serve" => serve::run(Bench::new(&zoo, Arch::Mlp)?, &model::serve_rung(), args)?,
        "mlp_int_k8" => {
            let spec = offline::Offline {
                batch: 32,
                limit: Duration::from_millis(100),
            };
            offline::run(&Bench::new(&zoo, Arch::Mlp)?, &spec, &model::tr_k8(), args)?
        }
        "vgg_tr_k8" => {
            let spec = offline::Offline {
                batch: 8,
                limit: Duration::from_millis(400),
            };
            offline::run(&Bench::new(&zoo, Arch::Vgg)?, &spec, &model::tr_k8(), args)?
        }
        other => return Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
    };
    if args.trace {
        // A layer this workload does not run reads 0.
        for (name, unit, _) in per_layer() {
            report.metrics.entry(name).or_insert((0.0, unit));
        }
    } else {
        let rss = stats::peak_rss_mb().ok_or("/proc/self/status has no VmHWM")?;
        report.metrics.insert("peak_rss_mb".into(), (rss, "MB"));
    }
    let expected: Vec<String> = if args.trace {
        per_layer().into_iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0.to_string()).collect()
    };
    if let Some((name, _)) = report.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let got: Vec<&String> = report.metrics.keys().collect();
    if got.len() != expected.len() || !expected.iter().all(|e| report.metrics.contains_key(e)) {
        return Err(format!("metric set drifted from the catalog: {got:?}"));
    }
    Ok(report)
}

fn json(report: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, (value, unit))) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn catalog() -> String {
    let mut s = String::new();
    for (n, u, b) in END_TO_END {
        let _ = writeln!(s, "end_to_end {n} {u} {b}");
    }
    for (n, u, b) in per_layer() {
        let _ = writeln!(s, "per_layer {n} {u} {b}");
    }
    s
}

fn main() {
    let (args, prepare, list) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if list {
        print!("{}", catalog());
        return;
    }
    if prepare {
        let result =
            zoo(&args).and_then(|z| Bench::new(&z, Arch::Mlp).and(Bench::new(&z, Arch::Vgg)));
        if let Err(e) = result {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    match run(&args) {
        Ok(report) => {
            for n in &report.notes {
                eprintln!("perfbench: {n}");
            }
            for f in &report.failures {
                eprintln!("perfbench: GATE FAILED: {f}");
            }
            println!("{}", json(&report));
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
