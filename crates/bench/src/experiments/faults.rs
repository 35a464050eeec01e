//! Faults — graceful degradation of TR inference under injected hardware
//! faults. Not a paper figure: this sweeps the `tr-hw` fault model
//! (term bit flips and drops, DRAM word errors, stuck tMAC cells)
//! over fault rate × TR configuration and reports the accuracy curve
//! together with the injected / detected / silent corruption accounting.
//!
//! Two tables:
//!
//! 1. **Degradation curve** — for each zoo model and TR config, accuracy
//!    with the stored weight terms and DRAM codes corrupted at each rate
//!    (the campaign that survives into inference), plus the weight-path
//!    fault counts. The rate-0 row is bit-identical to the fault-free
//!    model — checked at run time.
//! 2. **Mitigation accounting** — a functional systolic run per rate ×
//!    mitigation (none / saturate+guard / 3-way voting) with wrong-output
//!    counts against the fault-free reference.

use crate::report::{count, pct, Table};
use crate::zoo::Zoo;
use tr_core::{PackedTermMatrix, TrConfig};
use tr_encoding::TermExpr;
use tr_hw::{FaultConfig, FaultInjector, FaultReport, Mitigation, Operand, SystolicArray, TrSystem};
use tr_nn::exec::{apply_precision, calibrate_model, evaluate_accuracy};
use tr_nn::layer::Layer;
use tr_nn::models::CnnKind;
use tr_nn::Precision;
use tr_quant::{calibrate_max_abs, quantize};
use tr_tensor::{Rng, Shape, Tensor};

/// Per-site fault rates swept (0 is the fault-free baseline row).
pub const RATES: [f64; 5] = [0.0, 0.0005, 0.002, 0.01, 0.05];

/// `(g, k, s)` TR configurations swept.
pub const CONFIGS: [(usize, usize, usize); 2] = [(8, 12, 3), (8, 24, 3)];

/// Root seed of every campaign in this experiment.
pub const CAMPAIGN_SEED: u64 = 0xFA_0175;

fn tr_config(g: usize, k: usize, s: usize) -> TrConfig {
    TrConfig::new(g, k).with_data_terms(s)
}

/// Corrupt the weights a calibrated model actually runs on: re-derive
/// each site's post-TR term matrix, pass every term through the weight
/// fault streams and the reconstructed codes through the DRAM fault
/// stream, then install the faulted reconstruction as the effective
/// weight. At rate 0 the installed weights are bit-identical to what
/// [`apply_precision`] produced. Returns the campaign's report.
pub fn corrupt_installed_weights(
    model: &mut dyn Layer,
    fcfg: &FaultConfig,
) -> FaultReport {
    let mut inj = FaultInjector::new(*fcfg).expect("config validated by caller");
    let mut site_idx = 0u64;
    model.visit_quant_sites(&mut |site| {
        let idx = site_idx;
        site_idx += 1;
        let Some(params) = site.fq.weight_params else { return };
        let Some(tm) = site.fq.weight_terms.as_ref() else { return };
        // Give every site its own coordinate plane so campaigns across
        // sites are decorrelated but still order-independent.
        let row_base = idx << 24;
        let mut codes: Vec<i32> = Vec::with_capacity(tm.len());
        for r in 0..tm.rows() {
            for e in 0..tm.len() {
                let expr = TermExpr::from_terms(tm.element_terms(r, e).collect());
                let faulted = inj.corrupt_expr(&expr, Operand::Weight, row_base + r as u64, e as u64);
                let mut code = faulted.value();
                // Weight-buffer range guard: HESE terms of an 8-bit code
                // use exponents 0..=7, so any clean subset sum (post
                // reveal/truncate) stays within +/-255. A flipped exponent
                // escaping that band is a detected corruption, mirroring
                // the DRAM-side guard.
                if fcfg.mitigation.range_guard && code.abs() > 255 {
                    code = code.clamp(-255, 255);
                    inj.note_detected(1);
                }
                #[allow(clippy::cast_possible_truncation)] // clamped to ±255 above
                codes.push(code as i32);
            }
        }
        inj.corrupt_dram_codes(&mut codes, idx << 32);
        let scale = params.scale;
        let data: Vec<f32> = codes.iter().map(|&c| c as f32 * scale).collect();
        site.fq.qweight =
            Some(std::sync::Arc::new(Tensor::from_vec(data, site.weight.value.shape().clone())));
    });
    inj.report()
}

/// One row of the degradation table.
pub struct SweepRow {
    /// TR configuration label, e.g. `g8/k12/s3`.
    pub config: String,
    /// Per-site fault rate.
    pub rate: f64,
    /// Test accuracy with faulted weights installed.
    pub accuracy: f64,
    /// Accuracy of the same config at rate 0.
    pub clean_accuracy: f64,
    /// Weight-path campaign accounting.
    pub report: FaultReport,
}

/// Sweep one classifier across `CONFIGS` × `RATES`. Panics if the rate-0
/// row is not bit-identical to the fault-free transform (the acceptance
/// check of the fault subsystem).
pub fn sweep_model(
    model: &mut tr_nn::Sequential,
    ds: &tr_nn::data::Dataset,
    rng: &mut Rng,
) -> Vec<SweepRow> {
    let calib = ds.train.x.slice_batch(0, 32.min(ds.train.len()));
    calibrate_model(model, &calib, 8, rng);
    let mut rows = Vec::new();
    for (g, k, s) in CONFIGS {
        let cfg = tr_config(g, k, s);
        let label = format!("g{g}/k{k}/s{s}");
        apply_precision(model, &Precision::Tr(cfg));
        let clean_acc = evaluate_accuracy(model, ds, rng);
        let mut clean_weights: Vec<std::sync::Arc<Tensor>> = Vec::new();
        model.visit_quant_sites(&mut |site| {
            clean_weights.push(site.fq.qweight.clone().expect("TR installs qweight"));
        });
        for rate in RATES {
            // Reinstall the clean transform, then fault it.
            apply_precision(model, &Precision::Tr(cfg));
            let fcfg = FaultConfig::new(CAMPAIGN_SEED, rate).expect("rate in [0,1]");
            let report = corrupt_installed_weights(model, &fcfg);
            if rate == 0.0 {
                // Acceptance check: the rate-0 campaign is an exact no-op.
                let mut i = 0;
                model.visit_quant_sites(&mut |site| {
                    let w = site.fq.qweight.as_ref().expect("TR installs qweight");
                    assert_eq!(
                        w.data(),
                        clean_weights[i].data(),
                        "rate-0 weights must be bit-identical"
                    );
                    i += 1;
                });
                assert_eq!(report, FaultReport::default(), "rate 0 must inject nothing");
            }
            let accuracy = evaluate_accuracy(model, ds, rng);
            rows.push(SweepRow {
                config: label.clone(),
                rate,
                accuracy,
                clean_accuracy: clean_acc,
                report,
            });
        }
        // Leave the model clean for the next config / caller.
        apply_precision(model, &Precision::Tr(cfg));
    }
    rows
}

/// Outcome of one functional systolic run under a campaign.
pub struct FunctionalPoint {
    /// Campaign accounting.
    pub report: FaultReport,
    /// Outputs differing from the fault-free reference.
    pub wrong: usize,
    /// Total outputs.
    pub total: usize,
    /// Largest absolute output error.
    pub max_err: i64,
}

/// Run the functional array under `fcfg` on a fixed, deterministic
/// operand pair and compare against the fault-free reference.
pub fn functional_point(cfg: &TrConfig, fcfg: &FaultConfig) -> FunctionalPoint {
    let mut rng = Rng::seed_from_u64(0x5EED);
    let w = Tensor::randn(Shape::d2(16, 64), 0.3, &mut rng);
    let x = Tensor::randn(Shape::d2(64, 8), 0.3, &mut rng);
    let qw = quantize(&w, calibrate_max_abs(&w, 8));
    let qx = quantize(&x, calibrate_max_abs(&x, 8));
    let wm = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(cfg);
    let mut xm = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding);
    if let Some(s) = cfg.data_terms {
        xm = xm.cap_terms(s);
    }
    // A small array so stuck-cell faults land on cells that do work.
    let sys = TrSystem { array: SystolicArray { rows: 8, cols: 8 }, ..Default::default() };
    let (clean, _) = sys.array.execute(&wm, &xm, cfg.group_size).expect("valid operands");
    let run = sys.execute_with_faults(&wm, &xm, cfg.group_size, fcfg).expect("valid operands");
    if fcfg.rate == 0.0 {
        assert_eq!(run.outputs, clean, "rate-0 functional run must be bit-identical");
    }
    let wrong = run.outputs.iter().zip(&clean).filter(|(a, b)| a != b).count();
    let max_err = run.outputs.iter().zip(&clean).map(|(a, b)| (a - b).abs()).max().unwrap_or(0);
    FunctionalPoint { report: run.report, wrong, total: clean.len(), max_err }
}

/// Run the experiment.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    let mut rng = Rng::seed_from_u64(41);
    let mut t = Table::new(
        "faults",
        "Graceful degradation under injected weight/DRAM faults (seeded, deterministic)",
        &[
            "model", "config", "rate", "accuracy", "acc drop", "injected", "detected", "silent",
        ],
    );
    let mut sweeps: Vec<(&str, Vec<SweepRow>)> = Vec::new();
    {
        let (mut mlp, digits) = zoo.mlp();
        sweeps.push(("mlp", sweep_model(&mut mlp, &digits, &mut rng)));
    }
    {
        let (mut cnn, images) = zoo.cnn(CnnKind::ResNet);
        sweeps.push(("resnet-18", sweep_model(&mut cnn, &images, &mut rng)));
    }
    for (name, rows) in &sweeps {
        for row in rows {
            t.row(vec![
                name.to_string(),
                row.config.clone(),
                format!("{}", row.rate),
                pct(row.accuracy),
                pct(row.clean_accuracy - row.accuracy),
                count(row.report.injected.total()),
                count(row.report.detected),
                count(row.report.silent()),
            ]);
        }
    }
    t.note("rate-0 rows verified bit-identical to the fault-free transform at run time");
    t.note(format!(
        "all campaigns share seed {CAMPAIGN_SEED:#x}; rerunning reproduces every row exactly"
    ));

    let (g, k, s) = CONFIGS[0];
    let cfg = tr_config(g, k, s);
    let mut t2 = Table::new(
        "faults-mitigation",
        &format!("Functional 16x64x8 run on an 8x8 array (g{g}/k{k}/s{s}): mitigation accounting"),
        &[
            "rate", "mitigation", "injected", "detected", "corrected", "silent", "wrong outputs",
            "max abs err",
        ],
    );
    let mitigations: [(&str, Mitigation); 3] = [
        ("none", Mitigation::none()),
        ("saturate+guard", Mitigation::default()),
        ("vote x3", Mitigation::with_voting(3)),
    ];
    for rate in RATES {
        for (label, m) in mitigations {
            let fcfg = FaultConfig::new(CAMPAIGN_SEED, rate)
                .expect("rate in [0,1]")
                .with_mitigation(m);
            let p = functional_point(&cfg, &fcfg);
            t2.row(vec![
                format!("{rate}"),
                label.to_string(),
                count(p.report.injected.total()),
                count(p.report.detected),
                count(p.report.corrected),
                count(p.report.silent()),
                format!("{}/{}", p.wrong, p.total),
                p.max_err.to_string(),
            ]);
        }
    }
    t2.note("rate-0 outputs checked bit-identical to the fault-free array for every mitigation");
    t2.note("detected = range-guard clamps + voting disagreements; silent = injected - detected");
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_functional_run_is_bit_identical() {
        let cfg = tr_config(8, 12, 3);
        for m in [Mitigation::none(), Mitigation::default(), Mitigation::with_voting(3)] {
            let fcfg = FaultConfig::new(CAMPAIGN_SEED, 0.0).unwrap().with_mitigation(m);
            // functional_point asserts bit-identity internally at rate 0.
            let p = functional_point(&cfg, &fcfg);
            assert_eq!(p.wrong, 0);
            assert_eq!(p.report, FaultReport::default());
        }
    }

    #[test]
    fn injected_counts_grow_with_rate() {
        let cfg = tr_config(8, 12, 3);
        let mut last = 0u64;
        for rate in RATES {
            let fcfg = FaultConfig::new(CAMPAIGN_SEED, rate).unwrap();
            let p = functional_point(&cfg, &fcfg);
            // Strike sets are nested across rates (hash < rate), so
            // totals are monotone in the rate.
            assert!(
                p.report.injected.total() >= last,
                "injected not monotone at rate {rate}"
            );
            last = p.report.injected.total();
        }
        assert!(last > 0, "top rate must inject something");
    }

    #[test]
    fn mitigation_reduces_silent_corruption() {
        let cfg = tr_config(8, 12, 3);
        let rate = 0.05;
        let none = functional_point(
            &cfg,
            &FaultConfig::new(CAMPAIGN_SEED, rate).unwrap().with_mitigation(Mitigation::none()),
        );
        let voted = functional_point(
            &cfg,
            &FaultConfig::new(CAMPAIGN_SEED, rate)
                .unwrap()
                .with_mitigation(Mitigation::with_voting(3)),
        );
        assert_eq!(none.report.detected, 0, "unmitigated runs detect nothing");
        assert!(voted.report.detected > 0, "voting+guards should detect corruption");
        assert!(
            voted.wrong <= none.wrong,
            "voting should not increase wrong outputs ({} vs {})",
            voted.wrong,
            none.wrong
        );
    }

    #[test]
    fn mlp_sweep_degrades_gracefully_from_exact_baseline() {
        let zoo = crate::zoo::test_zoo();
        let mut rng = Rng::seed_from_u64(7);
        let (mut mlp, ds) = zoo.mlp();
        let rows = sweep_model(&mut mlp, &ds, &mut rng);
        assert_eq!(rows.len(), CONFIGS.len() * RATES.len());
        for chunk in rows.chunks(RATES.len()) {
            // sweep_model itself asserts rate-0 weight bit-identity; here
            // check the visible consequences.
            assert_eq!(chunk[0].rate, 0.0);
            assert_eq!(chunk[0].accuracy, chunk[0].clean_accuracy);
            assert_eq!(chunk[0].report, FaultReport::default());
            let mut last = 0u64;
            for row in chunk {
                assert!(row.report.injected.total() >= last);
                last = row.report.injected.total();
            }
            assert!(last > 0, "top rate must corrupt some weights");
        }
    }

    #[test]
    fn weight_corruption_is_deterministic() {
        let zoo = crate::zoo::test_zoo();
        let mut rng = Rng::seed_from_u64(9);
        let (mut mlp, ds) = zoo.mlp();
        let calib = ds.train.x.slice_batch(0, 32.min(ds.train.len()));
        calibrate_model(&mut mlp, &calib, 8, &mut rng);
        let cfg = tr_config(8, 12, 3);
        let fcfg = FaultConfig::new(123, 0.01).unwrap();
        let grab = |model: &mut tr_nn::Sequential| -> (Vec<Vec<f32>>, FaultReport) {
            apply_precision(model, &Precision::Tr(cfg));
            let report = corrupt_installed_weights(model, &fcfg);
            let mut weights = Vec::new();
            model.visit_quant_sites(&mut |site| {
                weights.push(site.fq.qweight.as_ref().unwrap().data().to_vec());
            });
            (weights, report)
        };
        let (w1, r1) = grab(&mut mlp);
        let (w2, r2) = grab(&mut mlp);
        assert_eq!(w1, w2);
        assert_eq!(r1, r2);
        assert!(r1.injected.total() > 0);
    }
}
