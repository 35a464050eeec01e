//! Quickstart: Term Revealing on one dot product.
//!
//! Quantizes a weight/data vector pair to 8-bit, applies TR with a group
//! budget, and shows what the paper's Fig. 1 pipeline buys: the same dot
//! product to within a small relative error at a fraction of the
//! term-pair multiplications and with a tight per-group processing bound.
//!
//! ```text
//! cargo run --release -p tr-bench --example quickstart
//! ```

use tr_core::{term_pairs_total_packed, try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
use tr_encoding::Encoding;
use tr_quant::{calibrate_max_abs, quantize};
use tr_tensor::{Rng, Shape, Tensor};

fn main() {
    let mut rng = Rng::seed_from_u64(42);

    // A "trained-looking" weight matrix (normal, 16 neurons x 256 inputs)
    // against a batch of 8 half-normal activation vectors.
    let w = Tensor::randn(Shape::d2(16, 256), 0.3, &mut rng);
    let x = Tensor::randn(Shape::d2(256, 8), 0.3, &mut rng).map(f32::abs);

    // Stage 1 (conventional): 8-bit uniform quantization.
    let qw = quantize(&w, calibrate_max_abs(&w, 8));
    let qx = quantize(&x, calibrate_max_abs(&x, 8));
    let exact = qw.matmul_i64(&qx);

    // Stage 2 (this paper): term revealing at run time.
    let cfg = TrConfig::new(8, 16).with_data_terms(3);
    let wt = PackedTermMatrix::from_weights(&qw, Encoding::Hese);
    let xt = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese);
    let pairs_before = term_pairs_total_packed(&wt, &xt);

    let wt = wt.reveal(&cfg);
    let xt = xt.cap_terms(3);
    let pairs_after = term_pairs_total_packed(&wt, &xt);
    // The matmul output is (M, N) with data rows = columns of x.
    let approx = try_packed_term_matmul_i64(&wt, &xt).expect("reduction dims agree");

    let num: f64 = exact
        .iter()
        .zip(&approx)
        .map(|(&e, &a)| ((e - a) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = exact.iter().map(|&e| (e as f64).powi(2)).sum::<f64>().sqrt();

    println!("dot products computed     : {} (16 neurons x 8 inputs)", exact.len());
    println!("relative L2 output error  : {:.3}%", 100.0 * num / den.max(1.0));
    println!("term pairs before TR      : {pairs_before}");
    println!(
        "term pairs after TR       : {pairs_after} ({:.1}x fewer)",
        pairs_before as f64 / pairs_after.max(1) as f64
    );
    println!(
        "synchronized bound        : {} pairs/group (vs {} for 8-bit binary)",
        cfg.pair_bound(3),
        cfg.baseline_pair_bound(7)
    );
}
