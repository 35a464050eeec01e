//! # tr-tensor
//!
//! Dense tensor substrate for the Term Revealing reproduction.
//!
//! The paper's evaluation pipeline (training models, quantizing them, and
//! replaying inference under Term Revealing) needs a small but complete
//! tensor library: shape/stride bookkeeping, element-wise kernels, a
//! parallel matrix multiply, and the im2col lowering that turns
//! convolutions into the dot products that TR operates on.
//!
//! Everything here is `f32`-valued; quantized integer tensors live in
//! `tr-quant`, which builds on these shapes.
//!
//! ## Quick tour
//!
//! ```
//! use tr_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::d2(2, 2));
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod conv;
pub mod matmul;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use conv::{col2im, conv2d_into, im2col, im2col_into, Conv2dGeometry, ConvGeometryError};
pub use rng::Rng;
pub use shape::Shape;
pub use stats::{cdf_points, Histogram, Summary};
pub use tensor::Tensor;

/// Crate-wide error type.
///
/// The tensor layer is deliberately strict: shape mismatches are programmer
/// errors in this codebase, so most kernels panic with a descriptive
/// message instead of returning `Result`. `Error` is used by the few
/// fallible entry points (reshape with inferred dims, file-backed IO in
/// higher layers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Shapes were incompatible for the requested operation.
    ShapeMismatch(String),
    /// An index was out of bounds for the tensor's shape.
    OutOfBounds(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            Error::OutOfBounds(m) => write!(f, "out of bounds: {m}"),
        }
    }
}

impl std::error::Error for Error {}
