//! Fig. 18 — per-layer weight quantization error: 6/7/8-bit QT vs TR
//! (g = 8, k = 14).
//!
//! Paper: TR's error sits just above 8-bit QT (it is applied *on top of*
//! 8-bit QT) and well below 7- and 6-bit QT — the error-budget argument
//! for why run-time grouping beats static re-quantization.

use crate::experiments::common::site_weights;
use crate::report::{f, Table};
use crate::zoo::Zoo;
use tr_core::{PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_nn::models::CnnKind;
use tr_quant::{calibrate_max_abs, dequant_error, quantize};
use tr_tensor::Tensor;

/// The paper's TR setting for this figure.
pub const TR_CFG: (usize, usize) = (8, 14);

fn tr_error(w: &Tensor, g: usize, k: usize) -> f32 {
    let params = calibrate_max_abs(w, 8);
    let q = quantize(w, params);
    let cfg = TrConfig::new(g, k);
    let tm = PackedTermMatrix::from_weights(&q, Encoding::Hese).reveal(&cfg);
    let codes = tm.reconstruct_codes();
    let back = Tensor::from_vec(
        codes.iter().map(|&c| c as f32 * params.scale).collect(),
        w.shape().clone(),
    );
    back.rel_l2(w)
}

fn qt_error(w: &Tensor, bits: u8) -> f32 {
    let q = quantize(w, calibrate_max_abs(w, bits));
    dequant_error(&q, w).rel_l2
}

/// Run the experiment.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    let (mut model, _) = zoo.cnn(CnnKind::ResNet);
    let sites = site_weights(&mut model);
    let (g, k) = TR_CFG;
    let mut t = Table::new(
        "fig18",
        "Per-layer weight error (relative L2 vs float32): QT 6/7/8-bit and TR (g=8, k=14)",
        &["layer", "qt 8-bit", "qt 7-bit", "qt 6-bit", "tr g8 k14"],
    );
    let mut means = [0.0f64; 4];
    let conv_sites: Vec<_> = sites.iter().filter(|(n, _)| n.contains("conv")).collect();
    for (name, w) in &conv_sites {
        let vals = [
            qt_error(w, 8) as f64,
            qt_error(w, 7) as f64,
            qt_error(w, 6) as f64,
            tr_error(w, g, k) as f64,
        ];
        for (m, v) in means.iter_mut().zip(&vals) {
            *m += v;
        }
        t.row(vec![
            name.clone(),
            f(vals[0], 4),
            f(vals[1], 4),
            f(vals[2], 4),
            f(vals[3], 4),
        ]);
    }
    let n = conv_sites.len().max(1) as f64;
    for m in &mut means {
        *m /= n;
    }
    t.note(format!(
        "layer means: qt8 {:.4}, qt7 {:.4}, qt6 {:.4}, tr {:.4} — expected ordering \
         qt8 <= tr < qt7 < qt6 (paper Fig. 18)",
        means[0], means[1], means[2], means[3]
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tr_error_between_qt8_and_qt7() {
        let zoo = crate::zoo::test_zoo();
        let (mut model, _) = zoo.cnn(CnnKind::ResNet);
        let sites = site_weights(&mut model);
        let mut ok_layers = 0;
        for (name, w) in sites.iter().filter(|(n, _)| n.contains("conv")) {
            let q8 = qt_error(w, 8);
            let q7 = qt_error(w, 7);
            let q6 = qt_error(w, 6);
            let tr = tr_error(w, 8, 14);
            assert!(q8 <= q7 && q7 <= q6, "QT ordering broken at {name}");
            if tr >= q8 && tr < q6 {
                ok_layers += 1;
            }
        }
        // TR sits in the QT8..QT6 corridor for the bulk of layers.
        assert!(ok_layers >= sites.len() / 2, "only {ok_layers} layers in corridor");
    }
}
