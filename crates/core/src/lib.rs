//! # tr-core
//!
//! **Term Revealing (TR)** — the primary contribution of *"Term Revealing:
//! Furthering Quantization at Run Time on Quantized DNNs"* (Kung, McDanel
//! & Zhang, SC 2020).
//!
//! TR is a *group-based, run-time* quantization applied on top of a
//! conventionally quantized DNN. For each group of `g` values taking part
//! in a dot product, TR keeps only the `k` largest power-of-two terms
//! across the whole group (the **receding water** algorithm, §III-C) and
//! prunes the rest. Because trained DNN weights are approximately normal
//! and activations half-normal, most groups hold far fewer than `k` terms
//! and lose nothing, while the occasional term-rich group is trimmed —
//! giving every group the same tight processing bound of `k × s` term-pair
//! multiplications, which is what lets systolic cells stay in lockstep.
//!
//! The crate provides:
//!
//! * [`TrConfig`] — group size `g`, group budget `k`, encodings, data `s`;
//! * [`reveal::reveal_group`] — the receding-water algorithm on one group,
//!   the reference every faster reveal is checked against;
//! * [`PackedTermMatrix`] — a term-decomposed operand matrix (flat
//!   exponent/sign planes, the tMAC's register arrays) with TR applied;
//! * [`termpairs`] — the term-pair-multiplication cost proxy (§III-B,
//!   Figs. 5/15);
//! * [`matmul`] — the exact term-pair matmul (what the tMAC hardware
//!   computes), [`try_packed_term_matmul_i64`], and
//!   [`try_code_matmul_i64`] for a left operand that is plain codes;
//! * [`error_bound`] — the §III-F truncation-error bounds.
//!
//! **Which kernel runs.** Every integer matmul rebuilds its term
//! operands' codes and runs one of two kernels: the narrow kernel (`i16` codes,
//! `i32` sums, the widest of baseline/AVX2/AVX-512BW the host has) when
//! every code fits ±32767 and `max|w| · max|x| · K_pad < 2³¹`, and a
//! scalar `i64` loop otherwise. Both are exact, so the choice never
//! changes a bit. TR's work reduction — at most `k × s` term pairs per
//! group — is what the paper's tMAC turns into fewer cycles; tr-hw's
//! cycle model accounts for it. On a CPU the dense code kernel does the
//! same work at every rung, so the reduction is modelled, not realised.
//!
//! ```
//! use tr_core::{try_packed_term_matmul_i64, PackedTermMatrix, TrConfig};
//! use tr_encoding::Encoding;
//! use tr_quant::{quantize, calibrate_max_abs};
//! use tr_tensor::{Tensor, Shape, Rng};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let w = Tensor::randn(Shape::d2(8, 64), 0.3, &mut rng);
//! let x = Tensor::randn(Shape::d2(64, 4), 0.3, &mut rng);
//! let qw = quantize(&w, calibrate_max_abs(&w, 8));
//! let qx = quantize(&x, calibrate_max_abs(&x, 8));
//!
//! // Reveal the top k = 16 terms of every group of g = 8 weights.
//! let cfg = TrConfig::new(8, 16);
//! let tw = PackedTermMatrix::from_weights(&qw, Encoding::Hese).reveal(&cfg);
//! assert!(tw.max_group_terms_for(8) <= 16);
//!
//! // The term-pair matmul equals an integer matmul over the kept codes.
//! let tx = PackedTermMatrix::from_data_transposed(&qx, Encoding::Hese);
//! let out = try_packed_term_matmul_i64(&tw, &tx).unwrap();
//! let (wc, xc) = (tw.reconstruct_codes(), tx.reconstruct_codes());
//! let want: i64 = (0..64).map(|c| wc[c] * xc[c]).sum();
//! assert_eq!(out[0], want);
//! ```

pub mod config;
pub mod error;
pub mod error_bound;
pub mod matmul;
mod narrow;
pub mod packed;
pub mod reveal;
pub mod seal;
pub mod termpairs;

pub use config::TrConfig;
pub use error::TrError;
pub use error_bound::{dot_product_error_bound, value_sigma, waterline_sigma_bound};
pub use matmul::{
    try_code_matmul_i64, try_packed_term_matmul_i64, try_packed_term_matmul_i64_planned_cached, MatmulPlan,
    MatmulPlanner, ACCUMULATOR_BITS,
};
pub use packed::PackedTermMatrix;
pub use reveal::{
    reveal_group, reveal_group_with_tiebreak, try_reveal_group, try_reveal_group_with_tiebreak,
    try_reveal_row, RevealOutcome, TieBreak,
};
pub use seal::{fnv1a_bytes, fnv1a_bytes_wordwise, fnv1a_word, FNV_OFFSET};
pub use termpairs::{
    group_pair_histogram, straggler_factor, term_pairs_total_packed, GroupPairStats,
};
