//! # sesemi-crypto
//!
//! From-scratch cryptographic primitives used throughout the SeSeMI
//! reproduction.  The paper (§V) encrypts models and requests with AES-GCM and
//! establishes RA-TLS channels between clients, the KeyService enclave and
//! SeMIRT enclaves.  This crate provides every primitive those protocols need
//! without any external cryptography dependency:
//!
//! * [`sha256`](mod@sha256) — SHA-256 hashing (used for owner/user identities and enclave
//!   measurement values, `MRENCLAVE`), on the SHA extensions where the CPU
//!   has them.
//! * [`hmac`] / [`hkdf`] — keyed MACs and key derivation for session keys.
//! * [`aes`] / [`gcm`] — AES-128 and AES-128-GCM authenticated encryption
//!   (the paper's choice for model and request encryption), on AES-NI +
//!   PCLMULQDQ where the CPU has them.
//! * [`chacha20`] / [`poly1305`] / [`chacha20poly1305`] — an alternative AEAD
//!   suite used for RA-TLS record protection; ChaCha20 also drives
//!   [`rng::SessionRng`], eight blocks at a time on AVX2 where the CPU has
//!   it.
//! * [`x25519`] — Diffie–Hellman key agreement for the RA-TLS handshake.
//! * [`aead`] — a common [`aead::Aead`] trait plus key / nonce types.
//! * [`ct`] — constant-time comparison helpers.
//!
//! ## Security disclaimer
//!
//! The implementations follow the published specifications (FIPS 180-4,
//! RFC 2104, RFC 5869, NIST SP 800-38D, RFC 8439, RFC 7748) and are validated
//! against the official test vectors in this crate's test-suite, but they have
//! not been audited.  They exist so the reproduction is fully self-contained,
//! exactly like the paper's use of the SGX SDK crypto library.
//!
//! AES-128-GCM has two backends with identical output.
//! [`gcm::Aes128Gcm::new`] picks the hardware one on x86_64 CPUs that have
//! AES-NI, PCLMULQDQ and SSSE3, and the portable one on every other CPU and
//! target.  The hardware backend has no table lookup or branch that depends
//! on the key or the data.  The portable backend has both: [`aes`] indexes
//! its S-box by key and data bytes, and its bit-serial GHASH branches on the
//! bits of the hash key and the data.
//! SHA-256's compression function likewise has two backends with identical
//! output: every compression runs on the x86 SHA extensions when
//! `is_x86_feature_detected!` finds sha, SSSE3 and SSE4.1, and portably on
//! every other CPU and target.  Neither has a secret-dependent table lookup
//! or branch.
//! [`chacha20::chacha20_batch`] has an AVX2 backend, picked when
//! `is_x86_feature_detected!` finds avx2, and a portable one of eight
//! [`chacha20::chacha20_block`] calls; ChaCha20 has no table lookup or
//! branch on its data in either.
//! Beyond that, the crate makes no claim about side-channel resistance except
//! for its constant-time tag comparisons.  Side channels are outside the
//! threat model, as in the paper (see `PAPER.md`).  The three x86 backends,
//! AES-GCM's, SHA-256's and ChaCha20's, are the crate's only `unsafe` code,
//! each in its own module under one contract: every `unsafe fn` has the one
//! safety condition that the CPU has the features it enables, and only a
//! safe method of a value built after detection calls them.
//!
//! ## Example
//!
//! ```
//! use sesemi_crypto::aead::{Aead, AeadKey, Nonce};
//! use sesemi_crypto::gcm::Aes128Gcm;
//!
//! let key = AeadKey::from_bytes([7u8; 16]);
//! let cipher = Aes128Gcm::new(&key);
//! let nonce = Nonce::from_bytes([1u8; 12]);
//! let ciphertext = cipher.seal(&nonce, b"model bytes", b"model-id");
//! let plaintext = cipher.open(&nonce, &ciphertext, b"model-id").unwrap();
//! assert_eq!(plaintext, b"model bytes");
//! ```

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
pub mod chacha20;
pub mod chacha20poly1305;
pub mod ct;
pub mod error;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod rng;
pub mod sha256;
pub mod x25519;

pub use aead::{Aead, AeadKey, Nonce};
pub use error::CryptoError;
pub use sha256::{sha256, Digest, Sha256};
