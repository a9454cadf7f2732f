//! # sesemi-enclave
//!
//! A software substrate that reproduces the Intel SGX semantics and cost
//! profile the SeSeMI paper relies on, without SGX hardware.
//!
//! The paper's design depends on five SGX properties:
//!
//! 1. **Isolation** — code and data inside an enclave are invisible to the
//!    untrusted host.  Reproduced by construction: enclave state lives behind
//!    the [`enclave::Enclave`] boundary and is only reachable through the
//!    declared ECALL surface.
//! 2. **Measurement** — an enclave has a deterministic identity
//!    (`MRENCLAVE`) derived from its code and configuration, which remote
//!    parties can pin.  See [`measurement`].
//! 3. **Remote attestation** — an enclave can produce a *quote* binding its
//!    measurement and some report data to the platform, which a verifier can
//!    check.  See [`attest`], with EPID (SGX1) and ECDSA/DCAP (SGX2) variants
//!    whose latencies follow the paper's Appendix C.
//! 4. **Limited protected memory (EPC)** — enclave pages come from a limited
//!    Enclave Page Cache (128 MB on SGX1, up to 64 GB on SGX2); exceeding it
//!    causes expensive paging.  See [`epc`].
//! 5. **Threading via TCS** — threads enter the enclave through Thread
//!    Control Structures; the number of TCSs bounds in-enclave concurrency.
//!    See [`enclave::TcsToken`].
//!
//! Costs that are hardware-bound (enclave creation, quote generation, EPC
//! paging) are modelled by [`costs::EnclaveCostModel`], calibrated against
//! the measurements published in the paper (Figs. 15–17), so that the
//! simulated experiments reproduce the paper's latency shapes.
//!
//! The RA-TLS secure-channel protocol of the paper's Appendix A is
//! implemented in [`ratls`] on top of `sesemi-crypto` (X25519 + HKDF +
//! ChaCha20-Poly1305), with the attestation quote embedded in the handshake
//! exactly as RA-TLS embeds it in the certificate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod costs;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod measurement;
pub mod platform;
pub mod ratls;

pub use attest::{AttestationAuthority, Quote, QuoteVerifier};
pub use costs::EnclaveCostModel;
pub use enclave::{Enclave, EnclaveConfig, TcsToken};
pub use error::EnclaveError;
pub use measurement::{CodeIdentity, Measurement};
pub use platform::{SgxPlatform, SgxVersion};
