//! Serving stages (Fig. 4) and invocation paths (cold / warm / hot).
//!
//! SeMIRT's contribution is deciding which stages each request actually has
//! to pay for.  The runtime records which stages it performed in an
//! [`InvocationReport`]; the cluster simulator builds and prices its own
//! stage lists and classifies them with [`InvocationReport::classify`], and
//! unit tests assert the classification logic matches §IV-B.

/// The model-serving stages of a SeSeMI invocation (Fig. 4), excluding the
/// platform-level sandbox initialization which SeMIRT cannot influence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServingStage {
    /// Creating and initializing the SGX enclave.
    EnclaveInit,
    /// Mutual remote attestation with KeyService and key provisioning.
    KeyFetch,
    /// Downloading the encrypted model into untrusted memory and copying it
    /// into the enclave.
    ModelLoad,
    /// Decrypting the model inside the enclave.
    ModelDecrypt,
    /// Initializing the model runtime (framework-specific buffers).
    RuntimeInit,
    /// Decrypting the user request.
    RequestDecrypt,
    /// Executing the model.
    ModelExec,
    /// Encrypting the result with the request key.
    ResultEncrypt,
}

impl ServingStage {
    /// All stages in serving order.
    pub const ALL: [ServingStage; 8] = [
        ServingStage::EnclaveInit,
        ServingStage::KeyFetch,
        ServingStage::ModelLoad,
        ServingStage::ModelDecrypt,
        ServingStage::RuntimeInit,
        ServingStage::RequestDecrypt,
        ServingStage::ModelExec,
        ServingStage::ResultEncrypt,
    ];

    /// Short label used in experiment output (matches the paper's legends).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServingStage::EnclaveInit => "enclave init",
            ServingStage::KeyFetch => "key fetch",
            ServingStage::ModelLoad => "model load",
            ServingStage::ModelDecrypt => "model decrypt",
            ServingStage::RuntimeInit => "runtime init",
            ServingStage::RequestDecrypt => "request decrypt",
            ServingStage::ModelExec => "model execution",
            ServingStage::ResultEncrypt => "result encrypt",
        }
    }

    /// Whether the stage depends only on the serving model (and can thus be
    /// amortized across requests), per the paper's Fig. 4 classification.
    #[must_use]
    pub fn is_model_dependent(self) -> bool {
        matches!(
            self,
            ServingStage::KeyFetch
                | ServingStage::ModelLoad
                | ServingStage::ModelDecrypt
                | ServingStage::RuntimeInit
        )
    }

    /// Whether the stage depends on the individual request data and must run
    /// for every request.
    #[must_use]
    pub fn is_request_dependent(self) -> bool {
        matches!(
            self,
            ServingStage::RequestDecrypt | ServingStage::ModelExec | ServingStage::ResultEncrypt
        )
    }
}

/// How an invocation was served (paper §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InvocationPath {
    /// A new instance was started from scratch: all stages run.
    Cold,
    /// The enclave (and keys) were reused but the model had to be loaded and
    /// the runtime initialized.
    Warm,
    /// The enclave already held the model, runtime and keys: only the
    /// request-dependent stages run.
    Hot,
}

impl InvocationPath {
    /// Label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InvocationPath::Cold => "cold",
            InvocationPath::Warm => "warm",
            InvocationPath::Hot => "hot",
        }
    }
}

/// What one invocation actually did: the stages it executed and the path it
/// was classified as.
#[derive(Clone, Debug, PartialEq)]
pub struct InvocationReport {
    /// The invocation path.
    pub path: InvocationPath,
    /// The stages executed, in order.
    pub stages: Vec<ServingStage>,
    /// Whether the key cache was hit.
    pub key_cache_hit: bool,
    /// Whether the plaintext model cache was hit.
    pub model_cache_hit: bool,
    /// Whether the thread-local runtime was reused.
    pub runtime_reused: bool,
}

impl InvocationReport {
    /// Classifies the path from the performed stages, following §IV-B:
    /// hot = only request-dependent stages; cold = the enclave had to be
    /// initialized; warm = everything in between.
    #[must_use]
    pub fn classify(stages: &[ServingStage]) -> InvocationPath {
        if stages.contains(&ServingStage::EnclaveInit) {
            InvocationPath::Cold
        } else if stages.iter().all(|s| s.is_request_dependent()) {
            InvocationPath::Hot
        } else {
            InvocationPath::Warm
        }
    }

    /// Whether a stage was executed.
    #[must_use]
    pub fn performed(&self, stage: ServingStage) -> bool {
        self.stages.contains(&stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_classification_matches_fig4() {
        // Input-independent stages: enclave init (and sandbox init, which is
        // platform-level).  Model-dependent: key retrieval, model load,
        // model decrypt, runtime init.  Request-dependent: request decrypt,
        // execution, result encrypt.
        assert!(!ServingStage::EnclaveInit.is_model_dependent());
        assert!(!ServingStage::EnclaveInit.is_request_dependent());
        for stage in [
            ServingStage::KeyFetch,
            ServingStage::ModelLoad,
            ServingStage::ModelDecrypt,
            ServingStage::RuntimeInit,
        ] {
            assert!(stage.is_model_dependent(), "{stage:?}");
            assert!(!stage.is_request_dependent(), "{stage:?}");
        }
        for stage in [
            ServingStage::RequestDecrypt,
            ServingStage::ModelExec,
            ServingStage::ResultEncrypt,
        ] {
            assert!(stage.is_request_dependent(), "{stage:?}");
            assert!(!stage.is_model_dependent(), "{stage:?}");
        }
    }

    #[test]
    fn path_classification() {
        assert_eq!(
            InvocationReport::classify(&[
                ServingStage::RequestDecrypt,
                ServingStage::ModelExec,
                ServingStage::ResultEncrypt
            ]),
            InvocationPath::Hot
        );
        assert_eq!(
            InvocationReport::classify(&[
                ServingStage::ModelLoad,
                ServingStage::ModelDecrypt,
                ServingStage::RuntimeInit,
                ServingStage::RequestDecrypt,
                ServingStage::ModelExec,
                ServingStage::ResultEncrypt
            ]),
            InvocationPath::Warm
        );
        assert_eq!(
            InvocationReport::classify(&ServingStage::ALL),
            InvocationPath::Cold
        );
        // Key fetch alone (e.g. a new user on a loaded model) is still warm,
        // not hot.
        assert_eq!(
            InvocationReport::classify(&[
                ServingStage::KeyFetch,
                ServingStage::RequestDecrypt,
                ServingStage::ModelExec,
                ServingStage::ResultEncrypt
            ]),
            InvocationPath::Warm
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(InvocationPath::Cold.label(), "cold");
        assert_eq!(InvocationPath::Warm.label(), "warm");
        assert_eq!(InvocationPath::Hot.label(), "hot");
        assert_eq!(ServingStage::ModelExec.label(), "model execution");
        assert_eq!(ServingStage::ALL.len(), 8);
    }

    #[test]
    fn performed_reports_only_the_recorded_stages() {
        let report = InvocationReport {
            path: InvocationPath::Warm,
            stages: vec![ServingStage::ModelLoad, ServingStage::ModelExec],
            key_cache_hit: true,
            model_cache_hit: false,
            runtime_reused: false,
        };
        assert!(report.performed(ServingStage::ModelLoad));
        assert!(!report.performed(ServingStage::KeyFetch));
    }
}
