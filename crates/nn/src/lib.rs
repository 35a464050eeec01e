//! # tr-nn
//!
//! A self-contained DNN training and inference engine — the substrate the
//! Term Revealing evaluation runs on.
//!
//! The paper evaluates TR on pretrained PyTorch models (an MNIST MLP,
//! four ImageNet CNNs, a Wikitext-2 LSTM). Those artifacts are not
//! available to a from-scratch Rust reproduction, so this crate builds the
//! equivalent pipeline end to end:
//!
//! * **Layers with full backprop** — linear, conv2d (im2col), depthwise
//!   conv, batch norm, ReLU, pooling, dropout, residual blocks, LSTM,
//!   embedding ([`layers`], [`lstm`]);
//! * **Training** — softmax cross-entropy, SGD with momentum and weight
//!   decay, Adam ([`loss`], [`optim`], [`train`]);
//! * **A model zoo** mirroring the paper's architectures at synthetic-data
//!   scale ([`models`]): MLP, VGG-style, ResNet-style, MobileNet-style and
//!   EfficientNet-style CNNs, and an LSTM language model;
//! * **Synthetic datasets** with the statistical properties the paper
//!   relies on ([`data`]): class-structured digits and images, and a
//!   Markov text corpus with a measurable perplexity floor;
//! * **Post-training quantization executors** ([`fake_quant`], [`exec`]):
//!   uniform QT at 4–8 bits, per-value term truncation, and full Term
//!   Revealing, plus the term-pair accounting behind Figs. 15–17. Each
//!   precision's weights come from one codes-first [`prepare_weights`],
//!   a site takes a precision through one [`FakeQuant::install`], and the
//!   [`exec`] walks take any [`QuantSites`] model, the LSTM included;
//! * **Checkpoint IO** ([`io`]) so experiments train once and sweep many
//!   TR configurations.
//!
//! Weight decay is used throughout training deliberately: it produces the
//! normal-like weight distributions (§III-A) that make TR work.

pub mod data;
pub mod exec;
pub mod fake_quant;
pub mod io;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod models;
pub mod optim;
pub mod param;
pub mod qat;
pub mod train;

pub use exec::{
    apply_precision, calibrate_model, evaluate_accuracy, quant_site_shapes, reset_pair_counting,
    SiteShape,
};
pub use fake_quant::{prepare_weights, FakeQuant, PairCounts, Precision, PreparedWeights};
pub use layer::{ForwardCtx, Layer, QuantSite, QuantSites, Sequential};
pub use param::Param;
