//! Term-pair multiplication counting — the paper's computation-cost proxy.
//!
//! §III-B defines the cost of a dot product as the number of *term pair
//! multiplications*: multiplying values `w` (with `r_w` terms) and `x`
//! (with `r_x` terms) costs `r_w × r_x` exponent additions. §VI uses
//! "term pair multiplications per inference sample" as the x-axis of
//! Fig. 15, and Fig. 5 histograms the per-group counts that motivate the
//! tight TR bound.

use crate::packed::{off_usize, PackedTermMatrix};
use rayon::prelude::*;
use tr_obs::Counter;
use tr_tensor::stats::CountHistogram;

/// Term pairs tallied by the counting passes (the Fig. 15 x-axis).
static PAIRS_COUNTED: Counter = Counter::new("core.termpairs.counted");

/// Term count of every element of one packed operand, row-major.
fn element_term_counts(m: &PackedTermMatrix) -> Vec<usize> {
    m.offsets().windows(2).map(|w| off_usize(w[1]) - off_usize(w[0])).collect()
}

/// Per-element term counts of one packed operand, summed over rows:
/// `out[c] = Σ_r terms(m[r, c])`.
fn column_term_sums(m: &PackedTermMatrix) -> Vec<u64> {
    let mut sums = vec![0u64; m.len()];
    let offsets = m.offsets();
    for r in 0..m.rows() {
        let base = r * m.len();
        for (c, s) in sums.iter_mut().enumerate() {
            let t = off_usize(offsets[base + c + 1]) - off_usize(offsets[base + c]);
            *s += tr_obs::as_u64(t);
        }
    }
    sums
}

/// Total term-pair multiplications for the full matmul `W (M,K) @ X (K,N)`
/// given both operands as packed term matrices (`W` rows of length K, `X`
/// transposed columns of length K): `Σ_{m,n,c} t_w[m,c]·t_x[n,c]`, where
/// `t` is an element's term count. The sum is separable —
/// `Σ_c (Σ_m t_w[m,c])·(Σ_n t_x[n,c])` — so this runs in `O((M+N)·K)`
/// instead of `O(M·N·K)`.
pub fn term_pairs_total_packed(w: &PackedTermMatrix, x: &PackedTermMatrix) -> u64 {
    assert_eq!(w.len(), x.len(), "reduction dims differ: {} vs {}", w.len(), x.len());
    let _span = tr_obs::span("core.termpairs.total");
    let wsums = column_term_sums(w);
    let xsums = column_term_sums(x);
    let total: u64 = wsums.iter().zip(&xsums).map(|(&a, &b)| a * b).sum();
    PAIRS_COUNTED.add(total);
    total
}

/// Distribution statistics of per-group term-pair counts (Fig. 5) and the
/// straggler analysis of §II-B.
#[derive(Debug, Clone)]
pub struct GroupPairStats {
    /// Histogram over per-group term-pair counts.
    pub histogram: CountHistogram,
    /// Largest per-group count observed (the straggler).
    pub max: usize,
    /// Mean per-group count.
    pub mean: f64,
    /// 99th-percentile per-group count (the paper's "99% of groups need
    /// under 110 pairs" observation).
    pub p99: usize,
}

/// Histogram the term pairs of every `(group of g weights) × (aligned
/// group of g data values)` partial dot product across the whole matmul.
/// A group's count is `Σ_c t_w[m,c]·t_x[n,c]` over its `g` elements.
pub fn group_pair_histogram(
    w: &PackedTermMatrix,
    x: &PackedTermMatrix,
    g: usize,
) -> GroupPairStats {
    assert_eq!(w.len(), x.len(), "reduction dims differ");
    assert!(g > 0, "group size must be positive");
    let k = w.len();
    let wcounts = element_term_counts(w);
    let xcounts = element_term_counts(x);
    let per_row: Vec<CountHistogram> = (0..w.rows())
        .into_par_iter()
        .map(|m| {
            let wrow = &wcounts[m * k..(m + 1) * k];
            let mut hist = CountHistogram::new();
            for n in 0..x.rows() {
                let xrow = &xcounts[n * k..(n + 1) * k];
                for (wg, xg) in wrow.chunks(g).zip(xrow.chunks(g)) {
                    hist.record(wg.iter().zip(xg).map(|(a, b)| a * b).sum());
                }
            }
            hist
        })
        .collect();
    let mut histogram = CountHistogram::new();
    for h in &per_row {
        histogram.merge(h);
    }
    let max = histogram.max();
    let mean = histogram.mean();
    let p99 = histogram.quantile(0.99);
    GroupPairStats { histogram, max, mean, p99 }
}

/// Straggler factor: how much more work the worst group needs than the
/// average group (§II-B reports 2–3× for Bit-Pragmatic/Bit-Tactical-style
/// synchronization).
pub fn straggler_factor(stats: &GroupPairStats) -> f64 {
    if stats.mean == 0.0 {
        1.0
    } else {
        stats.max as f64 / stats.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrConfig;
    use tr_encoding::Encoding;
    use tr_quant::QTensor;
    use tr_tensor::{Rng, Shape};

    fn quantized(rows: usize, cols: usize, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from_u64(seed);
        let t = tr_tensor::Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
        tr_quant::quantize(&t, tr_quant::calibrate_max_abs(&t, 8))
    }

    fn vector(values: &[i32]) -> PackedTermMatrix {
        PackedTermMatrix::from_vector(values, Encoding::Binary)
    }

    /// The pair count straight from the definition: for every (weight
    /// row, data row, element) the product of the two term counts.
    fn pairs_by_definition(w: &PackedTermMatrix, x: &PackedTermMatrix) -> u64 {
        let mut total = 0u64;
        for m in 0..w.rows() {
            for n in 0..x.rows() {
                for c in 0..w.len() {
                    total += (w.element_len(m, c) * x.element_len(n, c)) as u64;
                }
            }
        }
        total
    }

    #[test]
    fn pair_count_is_product_of_term_counts() {
        let w = vector(&[12, 0]); // 2 terms, 0 terms
        let x = vector(&[2, 127]); // 1 term, 7 terms
        #[allow(clippy::identity_op, clippy::erasing_op)] // terms(w_i) * terms(x_i)
        let expected = 2 * 1 + 0 * 7;
        assert_eq!(term_pairs_total_packed(&w, &x), expected);
    }

    #[test]
    fn theoretical_max_for_8bit_group_of_16() {
        // §III-B: all-127 weights and data, g = 16 -> 16 x 7 x 7 = 784.
        let w = vector(&[127; 16]);
        let x = vector(&[127; 16]);
        assert_eq!(term_pairs_total_packed(&w, &x), 784);
        assert_eq!(group_pair_histogram(&w, &x, 16).max, 784);
    }

    #[test]
    fn total_matches_manual_sum() {
        let qw = quantized(4, 8, 1);
        let qx = quantized(8, 3, 2);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Binary);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Binary);
        assert_eq!(term_pairs_total_packed(&w, &x), pairs_by_definition(&w, &x));
    }

    #[test]
    fn tr_reduces_pairs_and_bounds_groups() {
        let qw = quantized(8, 64, 3);
        let qx = quantized(64, 8, 4);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
        let before = term_pairs_total_packed(&w, &x);
        let cfg = TrConfig::new(8, 12);
        let w_tr = w.reveal(&cfg);
        let after = term_pairs_total_packed(&w_tr, &x);
        assert!(after <= before);
        // Post-TR, every group holds <= k weight terms and each data value
        // <= 3 terms, so no group exceeds k x s = 36 pairs.
        let stats = group_pair_histogram(&w_tr, &x, 8);
        assert!(stats.max <= cfg.pair_bound(3), "max {} > bound", stats.max);
    }

    #[test]
    fn histogram_counts_every_group() {
        let qw = quantized(2, 16, 5);
        let qx = quantized(16, 3, 6);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Binary);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Binary);
        let stats = group_pair_histogram(&w, &x, 4);
        // 2 weight rows x 3 data columns x 4 groups per dot product.
        assert_eq!(stats.histogram.total(), 2 * 3 * 4);
        assert!(stats.p99 <= stats.max);
        assert!(straggler_factor(&stats) >= 1.0);
    }

    #[test]
    fn packed_total_matches_legacy_total() {
        // The separable O((M+N)·K) count against the O(M·N·K) definition.
        let qw = quantized(7, 40, 8);
        let qx = quantized(40, 5, 9);
        for enc in Encoding::ALL {
            let w = PackedTermMatrix::from_weights(&qw, enc);
            let x = PackedTermMatrix::from_data_transposed(&qx, enc);
            assert_eq!(term_pairs_total_packed(&w, &x), pairs_by_definition(&w, &x), "{enc}");
        }
        // And after TR transforms on both sides.
        let cfg = TrConfig::new(8, 12);
        let w = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
        let x = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese).cap_terms(3);
        assert_eq!(term_pairs_total_packed(&w, &x), pairs_by_definition(&w, &x));
    }

    #[test]
    fn empty_terms_cost_nothing() {
        let w = vector(&[0, 0, 0]);
        let x = vector(&[127, 127, 127]);
        assert_eq!(term_pairs_total_packed(&w, &x), 0);
    }
}
