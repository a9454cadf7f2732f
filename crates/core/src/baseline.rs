//! The serving strategies the paper evaluates against each other.
//!
//! * **SeSeMI** — full SeMIRT state reuse: enclave, keys, decrypted model and
//!   model runtime survive across invocations of a warm sandbox.
//! * **Iso-reuse** — the S-FaaS / Clemmys design (paper §VI "Baselines"):
//!   warm invocations reuse the initialized enclave and the decryption keys,
//!   but reload the model and re-initialize the runtime from scratch for
//!   every request.
//! * **Native** — the out-of-the-box serverless behaviour: a warm sandbox
//!   only skips container start; every invocation launches a new enclave,
//!   re-attests, reloads and re-initializes.
//! * **Untrusted** — no TEE at all (Fig. 9/18's reference): no enclave, no
//!   attestation, no encryption.
//!
//! A strategy is a pure function from *what the sandbox already has* to *which
//! serving stages this invocation must run*; the cluster simulator prices the
//! stages with the calibrated [`sesemi_inference::StageCosts`].

use sesemi_runtime::ServingStage;
use std::ops::Deref;

/// What a (warm) sandbox currently holds, from the point of view of one
/// arriving request.
///
/// Users and models are named by the cluster simulator's dense user and
/// model indices.  A strategy only compares them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SandboxWarmth {
    /// The enclave has been created and initialized.
    pub enclave_ready: bool,
    /// The keys cached inside the enclave, if any (user, model).
    pub cached_keys: Option<(usize, usize)>,
    /// The decrypted model currently loaded in the enclave, if any.
    pub loaded_model: Option<usize>,
    /// Whether the execution slot assigned to this request already has a
    /// model runtime initialized for the target model.
    pub slot_runtime_ready: bool,
}

impl SandboxWarmth {
    /// A brand-new sandbox: nothing is ready.
    #[must_use]
    pub fn cold() -> Self {
        SandboxWarmth::default()
    }

    /// A fully hot sandbox for `(user, model)`.
    #[must_use]
    pub fn hot(user: usize, model: usize) -> Self {
        SandboxWarmth {
            enclave_ready: true,
            cached_keys: Some((user, model)),
            loaded_model: Some(model),
            slot_runtime_ready: true,
        }
    }
}

/// The stages one invocation runs, in order: at most eight (Native's full
/// list), held inline, so choosing an invocation's stages allocates
/// nothing.  Reads as a slice.
#[derive(Clone, Copy, Debug)]
pub struct StageList {
    stages: [ServingStage; StageList::CAPACITY],
    len: usize,
}

impl StageList {
    const CAPACITY: usize = 8;

    fn new() -> Self {
        StageList {
            // A filler past `len`, never read.
            stages: [ServingStage::ModelExec; StageList::CAPACITY],
            len: 0,
        }
    }

    fn push(&mut self, stage: ServingStage) {
        self.stages[self.len] = stage;
        self.len += 1;
    }

    fn extend(&mut self, stages: impl IntoIterator<Item = ServingStage>) {
        for stage in stages {
            self.push(stage);
        }
    }
}

impl Deref for StageList {
    type Target = [ServingStage];

    fn deref(&self) -> &[ServingStage] {
        &self.stages[..self.len]
    }
}

/// A serving strategy (SeSeMI or one of the baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServingStrategy {
    /// Full SeMIRT reuse (the paper's system).
    Sesemi,
    /// Enclave + key reuse only (S-FaaS / Clemmys).
    IsoReuse,
    /// No enclave reuse at all.
    Native,
    /// No TEE (insecure reference point).
    Untrusted,
}

impl ServingStrategy {
    /// The strategies compared in Figs. 12–13.
    pub const TEE_STRATEGIES: [ServingStrategy; 3] = [
        ServingStrategy::Sesemi,
        ServingStrategy::IsoReuse,
        ServingStrategy::Native,
    ];

    /// Label used in experiment output (matches the paper's legends).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServingStrategy::Sesemi => "SeSeMI",
            ServingStrategy::IsoReuse => "Iso-reuse",
            ServingStrategy::Native => "Native",
            ServingStrategy::Untrusted => "Untrusted",
        }
    }

    /// Which stages an invocation must execute, given what the sandbox
    /// already holds.
    #[must_use]
    pub fn stages_for(self, warmth: &SandboxWarmth, user: usize, model: usize) -> StageList {
        let keys_cached = warmth.cached_keys == Some((user, model));
        let mut stages = StageList::new();
        let request_stages = [
            ServingStage::RequestDecrypt,
            ServingStage::ModelExec,
            ServingStage::ResultEncrypt,
        ];
        match self {
            ServingStrategy::Untrusted => {
                // No enclave and no crypto; model load / runtime init only if
                // the process does not have the model yet.
                if warmth.loaded_model != Some(model) {
                    stages.push(ServingStage::ModelLoad);
                }
                if !warmth.slot_runtime_ready {
                    stages.push(ServingStage::RuntimeInit);
                }
                stages.push(ServingStage::ModelExec);
            }
            ServingStrategy::Native => {
                // Everything from enclave creation onward, every time.
                stages.extend([
                    ServingStage::EnclaveInit,
                    ServingStage::KeyFetch,
                    ServingStage::ModelLoad,
                    ServingStage::ModelDecrypt,
                    ServingStage::RuntimeInit,
                ]);
                stages.extend(request_stages);
            }
            ServingStrategy::IsoReuse => {
                if !warmth.enclave_ready {
                    stages.push(ServingStage::EnclaveInit);
                }
                if !keys_cached {
                    stages.push(ServingStage::KeyFetch);
                }
                // Iso-reuse never keeps the model or runtime.
                stages.extend([
                    ServingStage::ModelLoad,
                    ServingStage::ModelDecrypt,
                    ServingStage::RuntimeInit,
                ]);
                stages.extend(request_stages);
            }
            ServingStrategy::Sesemi => {
                if !warmth.enclave_ready {
                    stages.push(ServingStage::EnclaveInit);
                }
                if !keys_cached {
                    stages.push(ServingStage::KeyFetch);
                }
                if warmth.loaded_model != Some(model) {
                    stages.push(ServingStage::ModelLoad);
                    stages.push(ServingStage::ModelDecrypt);
                }
                if !warmth.slot_runtime_ready || warmth.loaded_model != Some(model) {
                    stages.push(ServingStage::RuntimeInit);
                }
                stages.extend(request_stages);
            }
        }
        stages
    }

    /// Whether this strategy keeps the enclave alive across invocations of a
    /// warm sandbox.
    #[must_use]
    pub fn reuses_enclave(self) -> bool {
        matches!(self, ServingStrategy::Sesemi | ServingStrategy::IsoReuse)
    }

    /// Whether this strategy keeps the decrypted model and runtime across
    /// invocations.
    #[must_use]
    pub fn reuses_model(self) -> bool {
        matches!(self, ServingStrategy::Sesemi | ServingStrategy::Untrusted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_runtime::InvocationPath;
    use sesemi_runtime::InvocationReport;

    const USER: usize = 0;
    const OTHER_USER: usize = 1;
    const MODEL: usize = 0;
    const OTHER_MODEL: usize = 1;

    #[test]
    fn sesemi_hot_sandbox_runs_only_request_stages() {
        let warmth = SandboxWarmth::hot(USER, MODEL);
        let stages = ServingStrategy::Sesemi.stages_for(&warmth, USER, MODEL);
        assert_eq!(
            stages[..],
            [
                ServingStage::RequestDecrypt,
                ServingStage::ModelExec,
                ServingStage::ResultEncrypt
            ]
        );
        assert_eq!(InvocationReport::classify(&stages), InvocationPath::Hot);
    }

    #[test]
    fn sesemi_cold_sandbox_runs_everything() {
        let stages = ServingStrategy::Sesemi.stages_for(&SandboxWarmth::cold(), USER, MODEL);
        assert!(stages.contains(&ServingStage::EnclaveInit));
        assert!(stages.contains(&ServingStage::KeyFetch));
        assert!(stages.contains(&ServingStage::ModelLoad));
        assert_eq!(InvocationReport::classify(&stages), InvocationPath::Cold);
    }

    #[test]
    fn sesemi_model_switch_reloads_model_but_not_enclave() {
        let warmth = SandboxWarmth {
            enclave_ready: true,
            cached_keys: Some((USER, OTHER_MODEL)),
            loaded_model: Some(OTHER_MODEL),
            slot_runtime_ready: true,
        };
        let stages = ServingStrategy::Sesemi.stages_for(&warmth, USER, MODEL);
        assert!(!stages.contains(&ServingStage::EnclaveInit));
        assert!(stages.contains(&ServingStage::KeyFetch));
        assert!(stages.contains(&ServingStage::ModelLoad));
        assert!(stages.contains(&ServingStage::RuntimeInit));
        assert_eq!(InvocationReport::classify(&stages), InvocationPath::Warm);
    }

    #[test]
    fn iso_reuse_always_reloads_model_and_runtime() {
        let warmth = SandboxWarmth::hot(USER, MODEL);
        let stages = ServingStrategy::IsoReuse.stages_for(&warmth, USER, MODEL);
        assert!(!stages.contains(&ServingStage::EnclaveInit));
        assert!(!stages.contains(&ServingStage::KeyFetch));
        assert!(stages.contains(&ServingStage::ModelLoad));
        assert!(stages.contains(&ServingStage::RuntimeInit));
    }

    #[test]
    fn native_never_reuses_the_enclave() {
        let warmth = SandboxWarmth::hot(USER, MODEL);
        let stages = ServingStrategy::Native.stages_for(&warmth, USER, MODEL);
        assert!(stages.contains(&ServingStage::EnclaveInit));
        assert!(stages.contains(&ServingStage::KeyFetch));
        assert_eq!(InvocationReport::classify(&stages), InvocationPath::Cold);
        assert!(!ServingStrategy::Native.reuses_enclave());
        assert!(ServingStrategy::Sesemi.reuses_enclave());
    }

    #[test]
    fn untrusted_has_no_enclave_or_crypto_stages() {
        let stages = ServingStrategy::Untrusted.stages_for(&SandboxWarmth::cold(), USER, MODEL);
        assert!(!stages.contains(&ServingStage::EnclaveInit));
        assert!(!stages.contains(&ServingStage::KeyFetch));
        assert!(!stages.contains(&ServingStage::RequestDecrypt));
        assert!(stages.contains(&ServingStage::ModelExec));
        // With the model cached it is execution only.
        let warmth = SandboxWarmth::hot(USER, MODEL);
        let stages = ServingStrategy::Untrusted.stages_for(&warmth, USER, MODEL);
        assert_eq!(stages[..], [ServingStage::ModelExec]);
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(ServingStrategy::Sesemi.label(), "SeSeMI");
        assert_eq!(ServingStrategy::IsoReuse.label(), "Iso-reuse");
        assert_eq!(ServingStrategy::Native.label(), "Native");
        assert_eq!(ServingStrategy::TEE_STRATEGIES.len(), 3);
    }

    #[test]
    fn key_cache_is_per_user_in_sesemi() {
        // A request from a *different* user on a hot sandbox must re-fetch
        // keys (the enclave caches only one (uid, Moid) pair).
        let warmth = SandboxWarmth::hot(USER, MODEL);
        let stages = ServingStrategy::Sesemi.stages_for(&warmth, OTHER_USER, MODEL);
        assert!(stages.contains(&ServingStage::KeyFetch));
        assert!(!stages.contains(&ServingStage::ModelLoad));
    }
}
