//! Error type for the enclave substrate.

use std::fmt;

/// Errors raised by the software SGX substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// The requested enclave memory exceeds what the platform's EPC can
    /// provide together with the currently committed enclaves.
    EpcExhausted {
        /// Bytes requested by the new enclave.
        requested: u64,
        /// Bytes still available in the EPC.
        available: u64,
    },
    /// All TCSs of the enclave are currently in use; another thread must exit
    /// before a new ECALL can enter.
    NoAvailableTcs {
        /// Number of TCSs the enclave was configured with.
        configured: usize,
    },
    /// The enclave has been destroyed; no further ECALLs are possible.
    EnclaveDestroyed,
    /// An allocation inside the enclave exceeded the configured heap size.
    HeapExhausted {
        /// Bytes requested by the allocation.
        requested: u64,
        /// Bytes remaining in the enclave heap.
        available: u64,
    },
    /// A quote failed verification (wrong authority, tampered contents, or a
    /// measurement that does not match the expected identity).
    QuoteVerificationFailed(String),
    /// A secure-channel (RA-TLS) handshake or record failed.
    ChannelError(String),
    /// Cryptographic failure surfaced from `sesemi-crypto`.
    Crypto(sesemi_crypto::CryptoError),
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::EpcExhausted {
                requested,
                available,
            } => write!(
                f,
                "EPC exhausted: requested {requested} bytes but only {available} available"
            ),
            EnclaveError::NoAvailableTcs { configured } => {
                write!(f, "all {configured} TCSs are busy")
            }
            EnclaveError::EnclaveDestroyed => write!(f, "enclave has been destroyed"),
            EnclaveError::HeapExhausted {
                requested,
                available,
            } => write!(
                f,
                "enclave heap exhausted: requested {requested} bytes, {available} available"
            ),
            EnclaveError::QuoteVerificationFailed(reason) => {
                write!(f, "quote verification failed: {reason}")
            }
            EnclaveError::ChannelError(reason) => write!(f, "secure channel error: {reason}"),
            EnclaveError::Crypto(err) => write!(f, "crypto error: {err}"),
        }
    }
}

impl std::error::Error for EnclaveError {}

impl From<sesemi_crypto::CryptoError> for EnclaveError {
    fn from(err: sesemi_crypto::CryptoError) -> Self {
        EnclaveError::Crypto(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_numbers() {
        let err = EnclaveError::EpcExhausted {
            requested: 1024,
            available: 512,
        };
        let text = err.to_string();
        assert!(text.contains("1024"));
        assert!(text.contains("512"));

        let err = EnclaveError::NoAvailableTcs { configured: 4 };
        assert!(err.to_string().contains('4'));
    }

    #[test]
    fn crypto_errors_convert() {
        let err: EnclaveError = sesemi_crypto::CryptoError::AuthenticationFailed.into();
        assert!(matches!(err, EnclaveError::Crypto(_)));
        assert!(err.to_string().contains("crypto"));
    }
}
