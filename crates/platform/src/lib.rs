//! # sesemi-platform
//!
//! An OpenWhisk-like serverless substrate.  SeSeMI is built *on top of* an
//! unmodified serverless platform (the paper uses Apache OpenWhisk on
//! Kubernetes); this crate reproduces the platform behaviours the evaluation
//! depends on, as a deterministic state machine that the cluster simulator
//! drives with virtual time:
//!
//! * **Actions** — deployed functions with a container image, a memory budget
//!   (multiples of 128 MB, Table V) and a per-container concurrency limit
//!   (SeMIRT's TCS count).
//! * **Invoker nodes** — machines with a configurable invoker memory pool;
//!   the controller schedules containers onto them by memory, preferring
//!   nodes that already run containers of the same action (OpenWhisk's
//!   home-invoker affinity, which the paper exploits in §VI-C).  The pool is
//!   elastic at runtime: nodes can be added, drained (refusing new
//!   placements while in-flight work finishes) and removed, which is what
//!   the autoscaler in the `sesemi` core crate drives.
//! * **Sandboxes** — containers with cold-start latency, a keep-alive window
//!   (3 minutes by default, Table V) after which idle containers are
//!   reclaimed, and per-container concurrency slots.
//! * **Metering** — GB·second accounting used for the cost results (Fig. 14).
//!
//! The crate knows nothing about SGX or models; `sesemi-runtime` and the
//! top-level `sesemi` crate compose it with the enclave runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod config;
pub mod controller;
pub mod error;
pub mod metering;
pub mod sandbox;

pub use action::{ActionId, ActionName, ActionSpec, ActivationId, ActivationRecord};
pub use config::PlatformConfig;
pub use controller::{
    default_placement, Controller, IdleCandidate, NodeId, NodeSnapshot, NodeState, ScheduleOutcome,
    WarmCandidate,
};
pub use error::PlatformError;
pub use sandbox::{Sandbox, SandboxId, SandboxState};
