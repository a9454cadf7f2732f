//! An in-process end-to-end SeSeMI deployment.
//!
//! [`Deployment`] wires together every component with *real* cryptography,
//! the software enclave substrate and real (scaled-down) model inference, and
//! exposes the workflow of the paper's §III:
//!
//! 1. **Key setup** — owners and users attest KeyService and register their
//!    long-term identity keys.
//! 2. **Service deployment** — the owner encrypts and uploads the model,
//!    registers the model key, deploys SeMIRT functions, and grants access to
//!    users for a specific SeMIRT enclave identity.
//! 3. **Request serving** — users encrypt requests with their request key;
//!    SeMIRT enclaves fetch keys from KeyService over mutually attested
//!    channels, decrypt, execute and return encrypted predictions.
//!
//! The deployment is single-process and synchronous — it is the functional
//! heart of the reproduction and the substrate for the examples and
//! integration tests; cluster-scale behaviour is studied by
//! [`crate::cluster`].

use parking_lot::Mutex;
use rand::RngCore;
use sesemi_crypto::aead::AeadKey;
use sesemi_crypto::rng::SessionRng;
use sesemi_enclave::attest::{AttestationAuthority, AttestationScheme};
use sesemi_enclave::{
    CodeIdentity, Enclave, EnclaveConfig, Measurement, QuoteVerifier, SgxPlatform,
};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_keyservice::client::{OwnerClient, UserClient};
use sesemi_keyservice::service::KeyService;
use sesemi_keyservice::{KeyServiceError, PartyId};
use sesemi_runtime::provider::{
    encrypt_model, InMemoryModelStore, KeyProvider, KeyServiceProvider, ModelFetcher,
};
use sesemi_runtime::{
    InferenceRequest, InvocationReport, RuntimeError, SemirtConfig, SemirtInstance,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MB: u64 = 1024 * 1024;

/// Errors surfaced by the end-to-end deployment API.
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentError {
    /// A KeyService interaction failed.
    KeyService(KeyServiceError),
    /// A SeMIRT interaction failed.
    Runtime(RuntimeError),
    /// The referenced model has not been published.
    UnknownModel(String),
    /// The referenced function has not been deployed.
    UnknownFunction(usize),
    /// The user has not authorized this (model, function) pair and therefore
    /// holds no request key for it.
    NotAuthorized(String),
}

impl fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeploymentError::KeyService(err) => write!(f, "key service: {err}"),
            DeploymentError::Runtime(err) => write!(f, "runtime: {err}"),
            DeploymentError::UnknownModel(model) => write!(f, "unknown model: {model}"),
            DeploymentError::UnknownFunction(id) => write!(f, "unknown function: {id}"),
            DeploymentError::NotAuthorized(what) => write!(f, "not authorized: {what}"),
        }
    }
}

impl std::error::Error for DeploymentError {}

impl From<KeyServiceError> for DeploymentError {
    fn from(err: KeyServiceError) -> Self {
        DeploymentError::KeyService(err)
    }
}

impl From<RuntimeError> for DeploymentError {
    fn from(err: RuntimeError) -> Self {
        DeploymentError::Runtime(err)
    }
}

/// Builder for [`Deployment`].
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    seed: u64,
    function_enclave_bytes: u64,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        DeploymentBuilder {
            seed: 42,
            function_enclave_bytes: 256 * MB,
        }
    }
}

impl DeploymentBuilder {
    /// Sets the deterministic seed used for all key material.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the enclave memory committed per deployed function.
    #[must_use]
    pub fn function_enclave_bytes(mut self, bytes: u64) -> Self {
        self.function_enclave_bytes = bytes;
        self
    }

    /// Builds the deployment: SGX2 node, attestation authority, KeyService
    /// enclave and empty cloud storage.
    #[must_use]
    pub fn build(self) -> Deployment {
        let platform = SgxPlatform::paper_sgx2_node("node-0");
        let authority = AttestationAuthority::new(self.seed);
        authority.register_platform("node-0", AttestationScheme::EcdsaDcap);
        let verifier = authority.verifier();
        let ks_enclave = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("keyservice", b"sesemi keyservice v1".to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 16),
            1,
        )
        .expect("KeyService enclave fits on a fresh node")
        .0;
        let keyservice = Arc::new(KeyService::new(Arc::new(ks_enclave), verifier.clone()));
        let store = Arc::new(InMemoryModelStore::new());
        let provider = Arc::new(KeyServiceProvider::new(
            Arc::clone(&keyservice),
            verifier.clone(),
            keyservice.measurement(),
            self.seed ^ 0xBEEF,
        ));
        Deployment {
            platform,
            authority,
            verifier,
            keyservice,
            store,
            provider,
            rng: Mutex::new(SessionRng::from_seed(self.seed)),
            models: Mutex::new(HashMap::new()),
            functions: Mutex::new(HashMap::new()),
            next_function: AtomicUsize::new(0),
            function_enclave_bytes: self.function_enclave_bytes,
        }
    }
}

struct PublishedModel {
    kind: ModelKind,
    input_dim: usize,
}

struct DeployedFunction {
    instance: Arc<SemirtInstance>,
    next_worker: AtomicUsize,
    tcs_count: usize,
}

/// A reference to a deployed SeMIRT function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionHandle {
    /// Function identifier within the deployment.
    pub id: usize,
    /// The function's enclave measurement (`E_S`).
    pub measurement: Measurement,
    /// The inference framework the function was built with.
    pub framework: Framework,
}

/// The result of an end-to-end inference call.
#[derive(Clone, Debug, PartialEq)]
pub struct InferenceOutcome {
    /// The decrypted prediction vector (class probabilities).
    pub prediction: Vec<f32>,
    /// Which serving stages the enclave executed for this request.
    pub report: InvocationReport,
}

/// A model owner registered with the deployment.
pub struct OwnerHandle {
    /// Human-readable owner name.
    pub name: String,
    party: PartyId,
    client: OwnerClient,
    model_keys: HashMap<ModelId, AeadKey>,
    rng: SessionRng,
}

impl OwnerHandle {
    /// The owner's registered identity.
    #[must_use]
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Generates, encrypts and uploads a synthetic model of the given kind
    /// and scale, and registers its model key with KeyService.  Returns the
    /// model id.
    pub fn publish_model(
        &mut self,
        deployment: &Deployment,
        kind: ModelKind,
        scale: f64,
    ) -> Result<ModelId, DeploymentError> {
        let model_id = ModelId::new(format!("{}/{}", self.name, kind.default_id()));
        let graph = kind.generate(scale, &mut self.rng);
        let input_dim = graph.input_dim;
        let model_key = AeadKey::generate(&mut self.rng);
        self.client
            .add_model_key(&deployment.keyservice, &model_id, &model_key, &mut self.rng)?;
        let encrypted = encrypt_model(&model_id, &graph.to_bytes(), &model_key, &mut self.rng);
        deployment.store.put(model_id.clone(), encrypted);
        deployment
            .models
            .lock()
            .insert(model_id.clone(), PublishedModel { kind, input_dim });
        self.model_keys.insert(model_id.clone(), model_key);
        Ok(model_id)
    }

    /// Grants `user` access to `model` when served by `function`'s enclave
    /// identity.
    pub fn grant_access(
        &mut self,
        deployment: &Deployment,
        model: &ModelId,
        function: &FunctionHandle,
        user: PartyId,
    ) -> Result<(), DeploymentError> {
        self.client
            .grant_access(
                &deployment.keyservice,
                model,
                function.measurement,
                user,
                &mut self.rng,
            )
            .map_err(DeploymentError::from)
    }

    /// Revokes a previously granted `(model, function, user)` authorization;
    /// later key provisioning for the tuple is refused.
    pub fn revoke_access(
        &mut self,
        deployment: &Deployment,
        model: &ModelId,
        function: &FunctionHandle,
        user: PartyId,
    ) -> Result<(), DeploymentError> {
        self.client
            .revoke_access(
                &deployment.keyservice,
                model,
                function.measurement,
                user,
                &mut self.rng,
            )
            .map_err(DeploymentError::from)
    }
}

/// A model user registered with the deployment.
pub struct UserHandle {
    /// Human-readable user name.
    pub name: String,
    party: PartyId,
    client: UserClient,
    request_keys: HashMap<(ModelId, Measurement), AeadKey>,
    rng: SessionRng,
}

impl UserHandle {
    /// The user's registered identity.
    #[must_use]
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Generates a request key for `(model, function)` and registers it with
    /// KeyService (`ADD_REQ_KEY`).
    pub fn authorize(
        &mut self,
        deployment: &Deployment,
        model: &ModelId,
        function: &FunctionHandle,
    ) -> Result<(), DeploymentError> {
        let request_key = AeadKey::generate(&mut self.rng);
        self.client.add_request_key(
            &deployment.keyservice,
            model,
            function.measurement,
            &request_key,
            &mut self.rng,
        )?;
        self.request_keys
            .insert((model.clone(), function.measurement), request_key);
        Ok(())
    }

    /// The request key this user holds for `(model, function)`, if any.
    #[must_use]
    pub fn request_key(&self, model: &ModelId, function: &FunctionHandle) -> Option<&AeadKey> {
        self.request_keys
            .get(&(model.clone(), function.measurement))
    }

    fn rng(&mut self) -> &mut SessionRng {
        &mut self.rng
    }
}

/// The in-process SeSeMI deployment.
pub struct Deployment {
    platform: SgxPlatform,
    authority: Arc<AttestationAuthority>,
    verifier: QuoteVerifier,
    keyservice: Arc<KeyService>,
    store: Arc<InMemoryModelStore>,
    provider: Arc<KeyServiceProvider>,
    rng: Mutex<SessionRng>,
    models: Mutex<HashMap<ModelId, PublishedModel>>,
    functions: Mutex<HashMap<usize, DeployedFunction>>,
    next_function: AtomicUsize,
    function_enclave_bytes: u64,
}

impl Deployment {
    /// Starts building a deployment.
    #[must_use]
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// The KeyService measurement (`E_K`) owners and users pin.
    #[must_use]
    pub fn keyservice_measurement(&self) -> Measurement {
        self.keyservice.measurement()
    }

    /// Handle to the KeyService endpoint (the always-on enclave).  Exposed so
    /// tests and tools can drive the protocol directly, e.g. to demonstrate
    /// that forged requests are rejected.
    #[must_use]
    pub fn keyservice(&self) -> Arc<KeyService> {
        Arc::clone(&self.keyservice)
    }

    /// Handle to the (untrusted) cloud storage holding the encrypted models.
    /// The cloud provider controls this storage in the threat model, so the
    /// security tests use this handle to emulate storage-level attacks.
    #[must_use]
    pub fn storage(&self) -> Arc<InMemoryModelStore> {
        Arc::clone(&self.store)
    }

    /// Registers a model owner: attests KeyService and registers a fresh
    /// long-term identity key.
    pub fn register_owner(&mut self, name: &str) -> OwnerHandle {
        let mut rng = self.rng.lock();
        let identity_key = AeadKey::generate(&mut *rng);
        let handle_seed = rng.next_u64();
        let mut client = OwnerClient::connect(
            &self.keyservice,
            &self.verifier,
            &self.keyservice.measurement(),
            identity_key,
            &mut *rng,
        )
        .expect("KeyService accepts owner connections");
        let party = client
            .register(&self.keyservice)
            .expect("registration always succeeds");
        OwnerHandle {
            name: name.to_string(),
            party,
            client,
            model_keys: HashMap::new(),
            rng: SessionRng::from_seed(handle_seed),
        }
    }

    /// Registers a model user: attests KeyService and registers a fresh
    /// long-term identity key.
    pub fn register_user(&mut self, name: &str) -> UserHandle {
        let mut rng = self.rng.lock();
        let identity_key = AeadKey::generate(&mut *rng);
        let handle_seed = rng.next_u64();
        let mut client = UserClient::connect(
            &self.keyservice,
            &self.verifier,
            &self.keyservice.measurement(),
            identity_key,
            &mut *rng,
        )
        .expect("KeyService accepts user connections");
        let party = client
            .register(&self.keyservice)
            .expect("registration always succeeds");
        UserHandle {
            name: name.to_string(),
            party,
            client,
            request_keys: HashMap::new(),
            rng: SessionRng::from_seed(handle_seed),
        }
    }

    /// Deploys a SeMIRT function with the given framework and concurrency
    /// level (TCS count) and returns its handle.
    pub fn deploy_function(
        &mut self,
        framework: Framework,
        tcs_count: usize,
    ) -> Result<FunctionHandle, DeploymentError> {
        self.deploy_function_with_config(SemirtConfig::new(
            framework,
            self.function_enclave_bytes,
            tcs_count,
        ))
    }

    /// Deploys a SeMIRT function from an explicit configuration (used to test
    /// strong isolation and pinned-model images).
    pub fn deploy_function_with_config(
        &mut self,
        config: SemirtConfig,
    ) -> Result<FunctionHandle, DeploymentError> {
        let seed = self.rng.lock().next_u64();
        let framework = config.framework;
        let tcs_count = config.tcs_count;
        let (instance, _init_latency) = SemirtInstance::launch(
            &self.platform,
            &self.authority,
            config,
            Arc::clone(&self.provider) as Arc<dyn KeyProvider>,
            Arc::clone(&self.store) as Arc<dyn ModelFetcher>,
            1,
            seed,
        )?;
        let id = self.next_function.fetch_add(1, Ordering::SeqCst);
        let measurement = instance.measurement();
        self.functions.lock().insert(
            id,
            DeployedFunction {
                instance: Arc::new(instance),
                next_worker: AtomicUsize::new(0),
                tcs_count,
            },
        );
        Ok(FunctionHandle {
            id,
            measurement,
            framework,
        })
    }

    /// The input dimension of a published model.
    #[must_use]
    pub fn model_input_dim(&self, model: &ModelId) -> Option<usize> {
        self.models.lock().get(model).map(|m| m.input_dim)
    }

    /// The kind of a published model.
    #[must_use]
    pub fn model_kind(&self, model: &ModelId) -> Option<ModelKind> {
        self.models.lock().get(model).map(|m| m.kind)
    }

    /// Sends an encrypted inference request from `user` to `function` for
    /// `model`, and decrypts the response.
    pub fn infer(
        &self,
        user: &UserHandle,
        function: &FunctionHandle,
        model: &ModelId,
        features: &[f32],
    ) -> Result<InferenceOutcome, DeploymentError> {
        let (request, request_key) = self.seal_request(user, function, model, features)?;
        let functions = self.functions.lock();
        let deployed = functions
            .get(&function.id)
            .ok_or(DeploymentError::UnknownFunction(function.id))?;
        let instance = Arc::clone(&deployed.instance);
        let worker =
            deployed.next_worker.fetch_add(1, Ordering::SeqCst) % deployed.tcs_count.max(1);
        drop(functions);

        let (response, report) = instance.handle_request(worker, &request)?;
        let prediction = response
            .decrypt(&request_key)
            .map_err(DeploymentError::from)?;
        Ok(InferenceOutcome { prediction, report })
    }

    /// Seals `features` under `user`'s request key for `(model, function)`
    /// and returns the request with the key.  Each request seeds its nonce
    /// from the deployment's generator, so no two requests under one key
    /// share a nonce.
    fn seal_request(
        &self,
        user: &UserHandle,
        function: &FunctionHandle,
        model: &ModelId,
        features: &[f32],
    ) -> Result<(InferenceRequest, AeadKey), DeploymentError> {
        let request_key = user.request_key(model, function).cloned().ok_or_else(|| {
            DeploymentError::NotAuthorized(format!(
                "{} holds no request key for {model}",
                user.name
            ))
        })?;
        let mut rng = SessionRng::from_seed(self.rng.lock().next_u64());
        let request =
            InferenceRequest::encrypt(user.party, model.clone(), features, &request_key, &mut rng);
        Ok((request, request_key))
    }

    /// Low-level access to a deployed SeMIRT instance (used by tests and
    /// benchmarks that inspect enclave memory or statistics).
    #[must_use]
    pub fn instance(&self, function: &FunctionHandle) -> Option<Arc<SemirtInstance>> {
        self.functions
            .lock()
            .get(&function.id)
            .map(|f| Arc::clone(&f.instance))
    }

    /// Encrypts a request on behalf of `user` without executing it (used by
    /// benchmarks that want to measure the enclave-side cost in isolation).
    pub fn encrypt_request(
        &self,
        user: &mut UserHandle,
        function: &FunctionHandle,
        model: &ModelId,
        features: &[f32],
    ) -> Result<InferenceRequest, DeploymentError> {
        let request_key = user
            .request_keys
            .get(&(model.clone(), function.measurement))
            .cloned()
            .ok_or_else(|| DeploymentError::NotAuthorized("no request key".to_string()))?;
        Ok(InferenceRequest::encrypt(
            user.party,
            model.clone(),
            features,
            &request_key,
            user.rng(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_runtime::InvocationPath;

    fn setup() -> (Deployment, OwnerHandle, UserHandle, ModelId, FunctionHandle) {
        let mut deployment = Deployment::builder().seed(11).build();
        let mut owner = deployment.register_owner("hospital");
        let mut user = deployment.register_user("patient");
        let model = owner
            .publish_model(&deployment, ModelKind::MbNet, 0.01)
            .unwrap();
        let function = deployment.deploy_function(Framework::Tvm, 4).unwrap();
        owner
            .grant_access(&deployment, &model, &function, user.party())
            .unwrap();
        user.authorize(&deployment, &model, &function).unwrap();
        (deployment, owner, user, model, function)
    }

    #[test]
    fn requests_under_one_key_never_share_a_nonce() {
        let (deployment, _owner, user, model, function) = setup();
        let features = vec![0.3f32; deployment.model_input_dim(&model).unwrap()];
        let seal = || {
            deployment
                .seal_request(&user, &function, &model, &features)
                .unwrap()
                .0
        };
        let (first, second) = (seal(), seal());
        assert_eq!(first.payload.aad, second.payload.aad);
        assert_ne!(first.payload.nonce, second.payload.nonce);
    }

    #[test]
    fn end_to_end_inference_works_and_goes_hot() {
        let (deployment, _owner, user, model, function) = setup();
        let dim = deployment.model_input_dim(&model).unwrap();
        let features = vec![0.3f32; dim];

        let first = deployment
            .infer(&user, &function, &model, &features)
            .unwrap();
        assert_eq!(first.report.path, InvocationPath::Cold);
        assert!((first.prediction.iter().sum::<f32>() - 1.0).abs() < 1e-4);

        // Cycle through all four workers so every TCS has a runtime, then the
        // fifth request (worker 0 again) is hot.
        for _ in 0..3 {
            deployment
                .infer(&user, &function, &model, &features)
                .unwrap();
        }
        let fifth = deployment
            .infer(&user, &function, &model, &features)
            .unwrap();
        assert_eq!(fifth.report.path, InvocationPath::Hot);
        assert_eq!(fifth.prediction, first.prediction);
        assert_eq!(deployment.model_kind(&model), Some(ModelKind::MbNet));
    }

    #[test]
    fn users_without_authorization_cannot_infer() {
        let (mut deployment, _owner, _user, model, function) = setup();
        let stranger = deployment.register_user("stranger");
        let dim = deployment.model_input_dim(&model).unwrap();
        let err = deployment
            .infer(&stranger, &function, &model, &vec![0.0; dim])
            .unwrap_err();
        assert!(matches!(err, DeploymentError::NotAuthorized(_)));
    }

    #[test]
    fn authorized_key_for_wrong_function_is_refused_by_keyservice() {
        // The user authorizes function A's measurement, then sends the
        // request to function B (different enclave identity): provisioning
        // must fail inside KeyService.
        let (mut deployment, _owner, mut user, model, function_a) = setup();
        let function_b = deployment.deploy_function(Framework::Tflm, 2).unwrap();
        assert_ne!(function_a.measurement, function_b.measurement);
        // Grant access only for A (done in setup); craft a request key bound
        // to B without the owner's grant.
        user.authorize(&deployment, &model, &function_b).unwrap();
        let dim = deployment.model_input_dim(&model).unwrap();
        let err = deployment
            .infer(&user, &function_b, &model, &vec![0.1; dim])
            .unwrap_err();
        assert!(matches!(
            err,
            DeploymentError::Runtime(RuntimeError::KeyProvisioning(_))
        ));
    }

    #[test]
    fn unknown_function_and_unknown_model_are_reported() {
        let (deployment, _owner, user, model, function) = setup();
        let ghost_function = FunctionHandle {
            id: 999,
            measurement: function.measurement,
            framework: function.framework,
        };
        let dim = deployment.model_input_dim(&model).unwrap();
        // The user has a key for (model, function.measurement), so the lookup
        // succeeds but the function id does not exist.
        let err = deployment
            .infer(&user, &ghost_function, &model, &vec![0.0; dim])
            .unwrap_err();
        assert!(matches!(err, DeploymentError::UnknownFunction(999)));
        assert_eq!(deployment.model_input_dim(&ModelId::new("ghost")), None);
    }

    #[test]
    fn multiple_models_can_share_one_function() {
        let (deployment, mut owner, mut user, model_a, function) = setup();
        let model_b = owner
            .publish_model(&deployment, ModelKind::DsNet, 0.01)
            .unwrap();
        owner
            .grant_access(&deployment, &model_b, &function, user.party())
            .unwrap();
        user.authorize(&deployment, &model_b, &function).unwrap();

        let dim_a = deployment.model_input_dim(&model_a).unwrap();
        let dim_b = deployment.model_input_dim(&model_b).unwrap();
        let out_a = deployment
            .infer(&user, &function, &model_a, &vec![0.2; dim_a])
            .unwrap();
        let out_b = deployment
            .infer(&user, &function, &model_b, &vec![0.2; dim_b])
            .unwrap();
        // Different models produce different class counts (10 vs 12).
        assert_ne!(out_a.prediction.len(), out_b.prediction.len());
        // The second model's first request on this instance had to switch the
        // loaded model.
        assert!(out_b
            .report
            .performed(sesemi_runtime::ServingStage::ModelLoad));
    }

    #[test]
    fn deployment_error_display() {
        assert!(DeploymentError::UnknownModel("m".into())
            .to_string()
            .contains('m'));
        assert!(DeploymentError::UnknownFunction(3)
            .to_string()
            .contains('3'));
        let err: DeploymentError = KeyServiceError::NotAuthorized.into();
        assert!(err.to_string().contains("key service"));
    }
}
