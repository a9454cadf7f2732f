//! # sesemi-inference
//!
//! The model-inference substrate of the SeSeMI reproduction.  The paper runs
//! three image models (MobileNetV1, ResNet101, DenseNet121) under two
//! inference frameworks (Apache TVM and TensorFlow Lite Micro).  Neither
//! framework is available here, so this crate implements a small but real
//! neural-network engine with two backends that reproduce the *properties*
//! the paper's evaluation depends on:
//!
//! * **`Tvm`** (ahead-of-time style): `RUNTIME_INIT` materializes a
//!   transformed copy of every weight matrix, so the runtime buffer is larger
//!   than the model itself (Table I: 30/205/55 MB for models of 17/170/44
//!   MB), runtime initialization is expensive, and execution is fast.
//! * **`Tflm`** (interpreter style): the runtime allocates only an arena for
//!   intermediate activations (Table I: 5/24/12 MB), initialization is cheap,
//!   and execution is slower because every operation goes through interpreter
//!   dispatch.
//!
//! Both backends execute the same [`model::ModelGraph`]s and produce the same
//! predictions — only their memory and latency profiles differ — which gives
//! the higher layers a faithful stand-in for "two inference frameworks".
//!
//! The [`zoo`] module generates synthetic MBNET/RSNET/DSNET-shaped graphs at
//! any scale: unit tests and examples run scaled-down versions for real,
//! while the cluster simulator uses the calibrated full-size stage durations
//! in [`costs`] (taken from the paper's Figs. 17/18 and Table I).

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod backend;
pub mod costs;
pub mod error;
pub mod layers;
pub mod model;
pub mod tensor;
pub mod zoo;

pub use backend::{Framework, LoadedModel, ModelRuntime};
pub use costs::{ModelProfile, StageCosts};
pub use error::InferenceError;
pub use model::{ModelGraph, ModelId};
pub use zoo::ModelKind;
