//! # sesemi-keyservice
//!
//! The KeyService is SeSeMI's trust-establishment component (paper §IV-A):
//! an always-on enclave that bridges model owners / model users and the
//! ephemeral serverless enclaves.  It stores four data sets:
//!
//! * `KS_I` — ⟨id, K_id⟩: registered owner/user identities and their
//!   long-term keys (`id = SHA-256(K_id)`).
//! * `KS_M` — ⟨M_oid, K_M⟩: model decryption keys added by model owners.
//! * `KS_R` — ⟨M_oid ∥ E_S ∥ uid, K_R⟩: request keys added by users, bound to
//!   a model and the enclave identity allowed to use them.
//! * `ACM` — ⟨M_oid ∥ E_S ∥ uid⟩: the owner's access-control grants.
//!
//! and implements the five operations of Algorithm 1
//! (`USER_REGISTRATION`, `ADD_MODEL_KEY`, `GRANT_ACCESS`, `ADD_REQ_KEY`,
//! `KEY_PROVISIONING`).  Keys are provisioned only to a SeMIRT enclave whose
//! attested measurement matches both the owner's grant and the user's request
//! key binding, over a mutually attested RA-TLS channel.
//!
//! Module layout:
//! * [`keystore`] — the in-enclave state and Algorithm 1 logic.
//! * [`messages`] — the encrypted request payloads exchanged with owners and
//!   users (sealed under their long-term identity keys).
//! * [`service`] — the connection-level service: RA-TLS endpoint, per-thread
//!   TCS accounting, resumption tickets for attested enclaves.
//! * [`client`] — owner-side and user-side helpers that build the encrypted
//!   payloads and drive the registration workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod keystore;
pub mod messages;
#[cfg(test)]
mod mutation;
pub mod service;

pub use client::{OwnerClient, UserClient};
pub use error::KeyServiceError;
pub use keystore::{KeyStore, PartyId};
pub use service::KeyService;
