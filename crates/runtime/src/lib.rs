//! # sesemi-runtime — SeMIRT
//!
//! SeMIRT is the enclave runtime SeSeMI deploys as the serverless container
//! image (paper §IV-B).  It reduces warm-invocation latency and per-request
//! enclave memory by reusing state across invocations and by serving multiple
//! concurrent requests inside a single enclave:
//!
//! * the **key cache** holds the decryption keys of the last ⟨user, model⟩
//!   pair, so repeated requests skip the mutual attestation with KeyService;
//! * the **model cache** holds one decrypted model in the enclave heap,
//!   shared by all worker threads, switched under a lock when a request for a
//!   different model arrives;
//! * each worker thread (bound to a TCS) keeps a **thread-local model
//!   runtime** and output buffer;
//! * the single ECALL `EC_MODEL_INF` implements Algorithm 2; `EC_GET_OUTPUT`
//!   copies the encrypted result out of the enclave.
//!
//! The module layout mirrors the paper:
//! * [`stages`] — the serving stages of Fig. 4 and the cold / warm / hot
//!   invocation paths.
//! * [`request`] — encrypted request / response envelopes.
//! * [`provider`] — the key-provisioning and model-fetching interfaces
//!   (KeyService over mutually-attested RA-TLS, cloud storage).
//! * [`semirt`] — the runtime itself (Algorithm 2), including the
//!   strong-isolation mode of §V.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod provider;
pub mod request;
pub mod semirt;
pub mod stages;

pub use error::RuntimeError;
pub use provider::{InMemoryModelStore, KeyProvider, KeyServiceProvider, ModelFetcher};
pub use request::{InferenceRequest, InferenceResponse};
pub use semirt::{SemirtConfig, SemirtInstance};
pub use stages::{InvocationPath, InvocationReport, ServingStage};
