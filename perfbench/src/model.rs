//! The models under test: zoo checkpoints, the fixed set-up every workload
//! times, and the reference predictions the correctness gates compare with.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tr_bench::zoo::Zoo;
use tr_core::TrConfig;
use tr_nn::data::Split;
use tr_nn::exec::{
    apply_precision_prepared, calibrate_model, prepare_model_precision, set_integer_exec,
    try_classify_batch,
};
use tr_nn::io::load_model;
use tr_nn::models::{mlp::build_mlp, CnnKind};
use tr_nn::{Layer, Precision, Sequential};
use tr_serve::LadderConfig;
use tr_tensor::{Rng, Shape, Tensor};

/// Calibration batch: the first rows of the training split.
const CALIB_ROWS: usize = 32;
/// Batch size of the reference pass over the test split. It differs from
/// every measured batch size on purpose, so the gates also show that rows
/// are classified independently of the batch they travel in.
const REF_BATCH: usize = 50;
/// Classes of both zoo datasets; the per-layer metric names are derived
/// from models built with this many outputs.
pub const CLASSES: usize = 10;
/// Fixed seed of the throwaway initial weights that `load_model` replaces.
const INIT_SEED: u64 = 0x5E70B;

/// The zoo architecture a workload runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arch {
    /// The 784–512–10 MLP on synthetic digits.
    Mlp,
    /// The VGG-style CNN on synthetic 3×32×32 images.
    Vgg,
}

/// TR g8 k8 s2: the paper's VGG budget, and the default serve ladder's
/// deepest pressure rung.
pub fn tr_k8() -> Precision {
    Precision::Tr(TrConfig::new(8, 8).with_data_terms(2))
}

/// Rung 0 of the default serve ladder (TR g8 k24 s3).
pub fn serve_rung() -> Precision {
    LadderConfig::default_tr_ladder().rungs[0].precision
}

/// A far cheaper rung than any measured one, installed only when a run is
/// asked to tamper with its rung so the gates can be seen to fail.
pub fn tampered_rung() -> Precision {
    Precision::Tr(TrConfig::new(8, 4).with_data_terms(1))
}

/// Everything about a model that is fixed before timing starts: where its
/// checkpoint lives, its calibration batch and its held-out split.
pub struct Bench {
    /// Which zoo model.
    pub arch: Arch,
    /// Trained checkpoint.
    pub checkpoint: PathBuf,
    /// Output classes.
    pub classes: usize,
    /// Calibration batch.
    pub calib: Tensor,
    /// Held-out inputs every workload draws its requests from.
    pub test: Split,
}

impl Bench {
    /// Load (training first, when the zoo lacks it) the model's data.
    pub fn new(zoo: &Zoo, arch: Arch) -> Result<Bench, String> {
        let (_trained, ds, name) = match arch {
            Arch::Mlp => {
                let (m, ds) = zoo.mlp();
                (m, ds, "mlp")
            }
            Arch::Vgg => {
                let (m, ds) = zoo.cnn(CnnKind::Vgg);
                (m, ds, CnnKind::Vgg.name())
            }
        };
        if ds.classes != CLASSES || ds.test.is_empty() {
            return Err(format!(
                "{name}: expected {CLASSES} classes and a test split"
            ));
        }
        let calib = ds.train.x.slice_batch(0, CALIB_ROWS.min(ds.train.len()));
        Ok(Bench {
            arch,
            checkpoint: zoo.checkpoint_path(name),
            classes: ds.classes,
            calib,
            test: ds.test,
        })
    }

    /// Number of held-out inputs.
    pub fn len(&self) -> usize {
        self.test.len()
    }

    /// Features of one input row.
    pub fn row_len(&self) -> usize {
        self.test.x.numel() / self.len()
    }

    /// One held-out input as a flat feature vector.
    pub fn row(&self, idx: usize) -> &[f32] {
        let n = self.row_len();
        &self.test.x.data()[idx * n..(idx + 1) * n]
    }

    /// A batch of held-out inputs, in the model's input layout.
    pub fn gather(&self, idx: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(idx.len() * self.row_len());
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        let mut dims = self.test.x.shape().dims().to_vec();
        dims[0] = idx.len();
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// An untrained model of this architecture.
    fn blank_model(&self) -> Sequential {
        let mut rng = Rng::seed_from_u64(INIT_SEED);
        match self.arch {
            Arch::Mlp => build_mlp(CLASSES, &mut rng),
            Arch::Vgg => CnnKind::Vgg.build(CLASSES, &mut rng),
        }
    }

    /// The checkpoint loaded into a fresh model.
    pub fn load(&self) -> Result<Sequential, String> {
        let mut model = self.blank_model();
        load_model(&self.checkpoint, &mut model)
            .map_err(|e| format!("load {}: {e}", self.checkpoint.display()))?;
        Ok(model)
    }

    /// Freeze the activation quantizers on the calibration batch.
    pub fn calibrate(&self, model: &mut Sequential) {
        let mut rng = Rng::seed_from_u64(INIT_SEED);
        calibrate_model(model, &self.calib, 8, &mut rng);
    }

    /// Reference class of every held-out input, classified by `model` in
    /// batches of [`REF_BATCH`].
    pub fn reference(&self, model: &mut Sequential) -> Result<Vec<usize>, String> {
        let mut rng = Rng::seed_from_u64(INIT_SEED);
        let mut preds = Vec::with_capacity(self.len());
        for start in (0..self.len()).step_by(REF_BATCH) {
            let x = self
                .test
                .x
                .slice_batch(start, (start + REF_BATCH).min(self.len()));
            preds.extend(try_classify_batch(model, &x, &mut rng).map_err(|e| e.to_string())?);
        }
        Ok(preds)
    }

    /// Share of held-out inputs whose reference class is the label.
    pub fn accuracy(&self, reference: &[usize]) -> f64 {
        let hits = reference
            .iter()
            .zip(&self.test.y)
            .filter(|(p, y)| p == y)
            .count();
        hits as f64 / self.len() as f64
    }
}

/// Wall time of each set-up stage, in ms.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    /// Build the model and read its checkpoint.
    pub load_ms: f64,
    /// Calibrate the activation quantizers.
    pub calibrate_ms: f64,
    /// Build and install the per-site weight transforms of the rung.
    pub prepare_ms: f64,
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The fixed set-up an offline workload measures: load, calibrate, then
/// prepare and install `precision` with integer execution armed. The
/// model never passes through `Precision::Float`, which would drop the
/// calibrated activation quantizers.
pub fn setup_model(
    bench: &Bench,
    precision: &Precision,
) -> Result<(Sequential, SetupTimes), String> {
    let t = Instant::now();
    let mut model = bench.load()?;
    let load_ms = ms_since(t);
    let t = Instant::now();
    bench.calibrate(&mut model);
    let calibrate_ms = ms_since(t);
    let t = Instant::now();
    let prepared = prepare_model_precision(&mut model, precision);
    apply_precision_prepared(&mut model, precision, &prepared);
    set_integer_exec(&mut model, true);
    let prepare_ms = ms_since(t);
    Ok((
        model,
        SetupTimes {
            load_ms,
            calibrate_ms,
            prepare_ms,
        },
    ))
}

/// Whether a quant site (named `linear`, or `<index>.linear` inside a
/// `Sequential`) belongs to a `Linear` layer.
fn is_linear(site: &str) -> bool {
    site == "linear" || site.ends_with(".linear")
}

/// The integer-execution gate: every `Linear` site must hold the state its
/// kernel needs (otherwise its forward silently falls back to the float
/// simulation), and the sites' planners must resolve an integer route for
/// the given batch sizes (size → forwards). Returns the routes and the
/// gate's failures.
pub fn integer_gate(
    model: &mut dyn Layer,
    batches: &BTreeMap<usize, u64>,
) -> (BTreeMap<&'static str, u64>, Vec<String>) {
    let gaps = integer_gaps(model);
    let routes = count_routes(model, batches);
    let mut failures = Vec::new();
    if !gaps.is_empty() {
        failures.push(format!(
            "linear sites without integer state: {}",
            gaps.join(", ")
        ));
    }
    if routes.values().sum::<u64>() == 0 {
        failures.push("no integer matmul route was taken".to_string());
    }
    (routes, failures)
}

/// Quant sites with an integer kernel (`Linear`) that lack the state it
/// needs. Empty when every such site runs integer.
fn integer_gaps(model: &mut dyn Layer) -> Vec<String> {
    let mut gaps = Vec::new();
    let mut i = 0usize;
    model.visit_quant_sites(&mut |site| {
        let fq = &site.fq;
        let ready = fq.exec_integer
            && !fq.calibrating
            && fq.act_params.is_some()
            && fq.weight_params.is_some()
            && fq.weight_terms.is_some()
            && fq.planner.is_some();
        if is_linear(&site.name) && !ready {
            gaps.push(format!("site {i} ({})", site.name));
        }
        i += 1;
    });
    gaps
}

/// Integer matmul routes the `Linear` sites take for the given batch
/// sizes (size → forwards), as the sites' own planners resolve them.
pub fn count_routes(
    model: &mut dyn Layer,
    batches: &BTreeMap<usize, u64>,
) -> BTreeMap<&'static str, u64> {
    let mut routes = BTreeMap::new();
    model.visit_quant_sites(&mut |site| {
        if !is_linear(&site.name) || !site.fq.exec_integer {
            return;
        }
        if let Some(planner) = site.fq.planner.as_deref() {
            for (&m, &n) in batches {
                *routes.entry(planner.plan_for(m).name()).or_insert(0) += n;
            }
        }
    });
    routes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tr_k8_is_the_ladders_deepest_pressure_rung() {
        let ladder = LadderConfig::default_tr_ladder();
        assert_eq!(ladder.rungs[ladder.last_pressure_rung()].precision, tr_k8());
        assert_ne!(tampered_rung(), tr_k8());
        assert_ne!(tampered_rung(), serve_rung());
    }
}
