//! # yoco-nn — DNN workload substrate
//!
//! Everything the paper's evaluation needs on the *model* side:
//!
//! * [`tensor`] — a minimal `f32` matrix with softmax/argmax helpers
//! * [`quantize`] — 8-bit quantization with the unsigned offset encoding the
//!   analog array physically computes
//! * [`layers`] / [`models`] — layer descriptors and the 10-model benchmark
//!   zoo of Fig 8 (AlexNet … LLaMA-7B), lowered to GEMM workloads
//! * [`attention`] — exact and streaming (online-softmax) attention, the
//!   algorithmic core of the §III-D pipeline
//! * [`inference`] — int8 inference through pluggable engines: bit-exact or
//!   analog (routed through `yoco-circuit`'s calibrated MAC error model)
//! * [`train`] / [`datasets`] / [`standins`] — seeded trainer, synthetic
//!   tasks, and the six stand-in benchmarks of the Fig 6(f) accuracy
//!   experiment
//!
//! ```
//! use yoco_nn::models;
//!
//! let zoo = models::fig8_benchmarks();
//! assert_eq!(zoo.len(), 10);
//! let gemms = zoo[0].workloads(); // AlexNet as M x K x N GEMMs
//! assert!(!gemms.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod datasets;
mod error;
pub mod inference;
pub mod layers;
pub mod models;
pub mod quantize;
pub mod standins;
pub mod tensor;
pub mod train;

pub use error::NnError;
pub use inference::{AnalogEngine, ExactEngine, MatvecEngine, Mlp};
pub use layers::LayerSpec;
pub use models::{Model, ModelClass};
pub use tensor::Matrix;
