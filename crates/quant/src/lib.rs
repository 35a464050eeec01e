//! # tr-quant
//!
//! Conventional post-training uniform quantization (QT) — the first stage
//! of the paper's Fig. 1 pipeline, and the baseline Term Revealing is
//! compared against throughout the evaluation.
//!
//! * [`QuantParams`] / [`quantize`] — symmetric fixed-point quantization at
//!   4–8 bits with layerwise max-abs calibration (the \[44\]-style procedure
//!   of §VI); [`QuantParams::code_into`] quantizes a whole slice with
//!   vector instructions, bit for bit as [`QuantParams::code`] does;
//! * [`QTensor`] — a quantized tensor: integer codes plus a scale;
//! * [`truncate`] — per-value top-`s` term truncation under any encoding
//!   (the "no grouping" baselines of Fig. 17 and the data-side `s`
//!   parameter of Table III);
//! * [`error`] — the quantization-error metrics plotted in Fig. 18.
//!
//! ```
//! use tr_quant::{calibrate_max_abs, quantize};
//! use tr_tensor::{Shape, Tensor};
//!
//! let w = Tensor::from_vec(vec![0.5, -1.0, 0.25, 0.75], Shape::d2(2, 2));
//! let params = calibrate_max_abs(&w, 8);
//! let q = quantize(&w, params);
//! assert_eq!(q.values()[1], -127); // -1.0 is the max-abs value
//! let back = q.dequantize();
//! assert!(w.rel_l2(&back) < 0.01);
//! ```

pub mod calibrate;
pub mod error;
pub mod errors;
pub mod per_channel;
pub mod qtensor;
mod slice;
pub mod truncate;

pub use calibrate::{
    calibrate_max_abs, calibrate_percentile, try_calibrate_max_abs, try_calibrate_percentile,
    QuantParams,
};
pub use error::{dequant_error, QuantErrorReport};
pub use errors::QuantError;
pub use per_channel::PerChannelQTensor;
pub use qtensor::{quantize, QTensor};
pub use truncate::{truncate_terms, truncate_values};
