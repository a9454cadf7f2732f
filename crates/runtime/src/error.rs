//! Error type for the SeMIRT runtime.

use std::fmt;

/// Errors raised while serving an inference request inside SeMIRT.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The enclave substrate reported an error (TCS exhaustion, heap
    /// exhaustion, destroyed enclave, ...).
    Enclave(sesemi_enclave::EnclaveError),
    /// Key provisioning failed — the KeyService refused (not authorized) or
    /// the attested channel could not be established.
    KeyProvisioning(sesemi_keyservice::KeyServiceError),
    /// The encrypted model could not be fetched from storage.
    ModelFetch(String),
    /// The model blob failed authenticated decryption (wrong key or
    /// tampering).
    ModelDecryption,
    /// The decrypted model blob failed to parse or execute.
    Inference(sesemi_inference::InferenceError),
    /// The request payload failed authenticated decryption.
    RequestDecryption,
    /// The runtime is configured to serve a fixed model and the request
    /// targets a different one (part of the strong-isolation settings, §V).
    ModelNotServedHere {
        /// The model the request asked for.
        requested: String,
        /// The model this runtime is pinned to.
        pinned: String,
    },
    /// Concurrency is disabled (sequential mode) and another request is in
    /// flight.
    SequentialModeBusy,
    /// A multi-request batch was submitted to a configuration that refuses
    /// it: strong isolation (which never coalesces requests, §V), a batch
    /// wider than the configured window, or a batch mixing users or models.
    BatchRefused {
        /// Why the batch was refused.
        reason: String,
    },
    /// The dispatcher named a worker the instance does not have: every
    /// worker is bound to one of the enclave's TCSs.
    UnknownWorker {
        /// The worker the request named.
        worker_id: usize,
        /// The instance's TCS count, one above its highest worker id.
        tcs_count: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Enclave(err) => write!(f, "enclave error: {err}"),
            RuntimeError::KeyProvisioning(err) => write!(f, "key provisioning failed: {err}"),
            RuntimeError::ModelFetch(reason) => write!(f, "model fetch failed: {reason}"),
            RuntimeError::ModelDecryption => write!(f, "model decryption failed"),
            RuntimeError::Inference(err) => write!(f, "inference error: {err}"),
            RuntimeError::RequestDecryption => write!(f, "request decryption failed"),
            RuntimeError::ModelNotServedHere { requested, pinned } => write!(
                f,
                "this runtime is pinned to model {pinned}, cannot serve {requested}"
            ),
            RuntimeError::SequentialModeBusy => {
                write!(f, "sequential mode: another request is executing")
            }
            RuntimeError::BatchRefused { reason } => {
                write!(f, "batch refused: {reason}")
            }
            RuntimeError::UnknownWorker {
                worker_id,
                tcs_count,
            } => write!(
                f,
                "worker {worker_id} does not exist: the instance has {tcs_count} TCS-bound workers"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<sesemi_enclave::EnclaveError> for RuntimeError {
    fn from(err: sesemi_enclave::EnclaveError) -> Self {
        RuntimeError::Enclave(err)
    }
}

impl From<sesemi_keyservice::KeyServiceError> for RuntimeError {
    fn from(err: sesemi_keyservice::KeyServiceError) -> Self {
        RuntimeError::KeyProvisioning(err)
    }
}

impl From<sesemi_inference::InferenceError> for RuntimeError {
    fn from(err: sesemi_inference::InferenceError) -> Self {
        RuntimeError::Inference(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let err: RuntimeError = sesemi_enclave::EnclaveError::EnclaveDestroyed.into();
        assert!(err.to_string().contains("enclave"));
        let err: RuntimeError = sesemi_keyservice::KeyServiceError::NotAuthorized.into();
        assert!(err.to_string().contains("provisioning"));
        let err: RuntimeError = sesemi_inference::InferenceError::RuntimeModelMismatch.into();
        assert!(err.to_string().contains("inference"));
        let err = RuntimeError::ModelNotServedHere {
            requested: "a".into(),
            pinned: "b".into(),
        };
        assert!(err.to_string().contains('a') && err.to_string().contains('b'));
    }
}
