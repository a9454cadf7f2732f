//! The SeMIRT runtime itself: Algorithm 2 plus the configuration options of
//! §V (concurrency level, strong isolation, pinned model).
//!
//! One [`SemirtInstance`] corresponds to one serverless sandbox running the
//! SeMIRT container image: it owns one enclave, a pool of worker slots bound
//! to TCSs, the shared key / model caches and the per-worker model runtimes.

use crate::error::RuntimeError;
use crate::provider::{decrypt_model, KeyProvider, ModelFetcher};
use crate::request::{InferenceRequest, InferenceResponse};
use crate::stages::{InvocationPath, InvocationReport, ServingStage};
use parking_lot::Mutex;
use sesemi_crypto::aead::AeadKey;
use sesemi_crypto::rng::SessionRng;
use sesemi_enclave::attest::AttestationAuthority;
use sesemi_enclave::enclave::HeapAllocation;
use sesemi_enclave::{CodeIdentity, Enclave, EnclaveConfig, Measurement, SgxPlatform};
use sesemi_inference::{Framework, LoadedModel, ModelId, ModelRuntime};
use sesemi_keyservice::PartyId;
use sesemi_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Build-time configuration of a SeMIRT image.
///
/// Every field here is part of the enclave identity (paper §V: the
/// concurrency level and the execution-restriction settings "are part of the
/// enclave codes"), so changing any of them changes the measurement that
/// KeyService's access-control list pins.
#[derive(Clone, Debug, PartialEq)]
pub struct SemirtConfig {
    /// The inference framework compiled into the image.
    pub framework: Framework,
    /// Enclave memory committed at launch.
    pub enclave_bytes: u64,
    /// Number of TCSs — the concurrency level (1–8 in the paper).
    pub tcs_count: usize,
    /// Strong-isolation mode (§V): sequential processing, no key cache, and
    /// the model runtime buffer is cleared after every request.
    pub strong_isolation: bool,
    /// Optionally pin the instance to a single model id ("SeMIRT can be
    /// configured to fix the model", §V).
    pub pinned_model: Option<ModelId>,
    /// Maximum number of compatible requests a worker may execute as one
    /// batch.  `1` (the default) disables batching entirely; like the
    /// concurrency level, the window is part of the measured configuration so
    /// owners and users grant access to a *batching* image knowingly.
    pub batch_window: usize,
    /// How long an open batching window may hold its first request while
    /// waiting for more to coalesce before it must flush.
    pub batch_max_wait: SimDuration,
    /// Version string of the SeMIRT code.
    pub version: String,
}

impl SemirtConfig {
    /// Creates a configuration with concurrency and caching enabled.
    #[must_use]
    pub fn new(framework: Framework, enclave_bytes: u64, tcs_count: usize) -> Self {
        SemirtConfig {
            framework,
            enclave_bytes,
            tcs_count,
            strong_isolation: false,
            pinned_model: None,
            batch_window: 1,
            batch_max_wait: SimDuration::ZERO,
            version: "1.0".to_string(),
        }
    }

    /// Enables the strong-isolation settings (forces TCS count to 1 and
    /// disables the batching window — strong isolation never coalesces
    /// requests, §V).
    #[must_use]
    pub fn with_strong_isolation(mut self) -> Self {
        self.strong_isolation = true;
        self.tcs_count = 1;
        self.batch_window = 1;
        self.batch_max_wait = SimDuration::ZERO;
        self
    }

    /// Enables the batching window: up to `window` compatible requests may
    /// execute as one batch, and an open window waits at most `max_wait` for
    /// peers before flushing.
    ///
    /// # Panics
    /// Panics if `window` is zero or if strong isolation is enabled (the two
    /// settings are contradictory by construction).
    #[must_use]
    pub fn with_batching(mut self, window: usize, max_wait: SimDuration) -> Self {
        assert!(
            window >= 1,
            "the batching window holds at least one request"
        );
        assert!(
            !self.strong_isolation || window == 1,
            "strong isolation refuses request coalescing (§V)"
        );
        self.batch_window = window;
        self.batch_max_wait = max_wait;
        self
    }

    /// Pins the instance to a single model.
    #[must_use]
    pub fn with_pinned_model(mut self, model: ModelId) -> Self {
        self.pinned_model = Some(model);
        self
    }

    /// The code identity of this configuration; hashing it yields the
    /// enclave measurement `E_S` that owners and users grant access to.
    #[must_use]
    pub fn code_identity(&self) -> CodeIdentity {
        let mut identity = CodeIdentity::new(
            format!("semirt-{}", self.framework.label().to_lowercase()),
            format!("semirt inference runtime ({})", self.framework.label()).into_bytes(),
            self.version.clone(),
        )
        .with_setting("tcs_count", self.tcs_count)
        .with_setting("strong_isolation", self.strong_isolation)
        .with_setting("framework", self.framework.label())
        .with_setting("batch_window", self.batch_window)
        .with_setting("batch_max_wait_ns", self.batch_max_wait.as_nanos());
        if let Some(model) = &self.pinned_model {
            identity = identity.with_setting("pinned_model", model.as_str());
        }
        identity
    }

    /// The measurement (`E_S`) owners and users derive independently from the
    /// published SeMIRT code and configuration.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.code_identity().measure()
    }
}

struct KeyCacheEntry {
    user: PartyId,
    model: ModelId,
    model_key: AeadKey,
    request_key: AeadKey,
}

struct CachedModel {
    model: Arc<LoadedModel>,
    _heap: HeapAllocation,
}

struct WorkerState {
    runtime: ModelRuntime,
    _heap: HeapAllocation,
}

/// Per-instance counters, reported by [`SemirtInstance::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Requests served on the cold path.
    pub cold: u64,
    /// Requests served on the warm path.
    pub warm: u64,
    /// Requests served on the hot path.
    pub hot: u64,
    /// Key-cache hits.
    pub key_cache_hits: u64,
    /// Plaintext-model-cache hits.
    pub model_cache_hits: u64,
}

impl InstanceStats {
    /// Total requests served.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cold + self.warm + self.hot
    }
}

/// One running SeMIRT sandbox: enclave + caches + worker runtimes.
pub struct SemirtInstance {
    config: SemirtConfig,
    enclave: Arc<Enclave>,
    key_provider: Arc<dyn KeyProvider>,
    model_fetcher: Arc<dyn ModelFetcher>,
    key_cache: Mutex<Option<KeyCacheEntry>>,
    model_cache: Mutex<Option<CachedModel>>,
    /// One slot per TCS-bound worker, each locked on its own so that
    /// workers execute concurrently (§IV-B).
    workers: Box<[Mutex<Option<WorkerState>>]>,
    sequential_guard: Mutex<()>,
    rng: Mutex<SessionRng>,
    served: AtomicU64,
    stats: Mutex<InstanceStats>,
    last_key_fetch_latency: Mutex<SimDuration>,
    last_model_fetch_latency: Mutex<SimDuration>,
}

impl SemirtInstance {
    /// Launches a SeMIRT sandbox: creates the enclave (paying the calibrated
    /// initialization cost) and wires up the key provider and model storage.
    pub fn launch(
        platform: &SgxPlatform,
        authority: &Arc<AttestationAuthority>,
        config: SemirtConfig,
        key_provider: Arc<dyn KeyProvider>,
        model_fetcher: Arc<dyn ModelFetcher>,
        concurrent_inits: usize,
        rng_seed: u64,
    ) -> Result<(Self, SimDuration), RuntimeError> {
        let enclave_config = EnclaveConfig::new(config.enclave_bytes, config.tcs_count);
        let workers = (0..config.tcs_count).map(|_| Mutex::new(None)).collect();
        let (enclave, init_latency) = Enclave::launch(
            platform,
            authority,
            config.code_identity(),
            enclave_config,
            concurrent_inits,
        )?;
        Ok((
            SemirtInstance {
                config,
                enclave: Arc::new(enclave),
                key_provider,
                model_fetcher,
                key_cache: Mutex::new(None),
                model_cache: Mutex::new(None),
                workers,
                sequential_guard: Mutex::new(()),
                rng: Mutex::new(SessionRng::from_seed(rng_seed)),
                served: AtomicU64::new(0),
                stats: Mutex::new(InstanceStats::default()),
                last_key_fetch_latency: Mutex::new(SimDuration::ZERO),
                last_model_fetch_latency: Mutex::new(SimDuration::ZERO),
            },
            init_latency,
        ))
    }

    /// This instance's configuration.
    #[must_use]
    pub fn config(&self) -> &SemirtConfig {
        &self.config
    }

    /// This instance's attested measurement (`E_S`).
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// The underlying enclave (for memory / TCS inspection).
    #[must_use]
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Bytes currently allocated from the enclave heap (decrypted model +
    /// per-worker runtime buffers).
    #[must_use]
    pub fn enclave_heap_used(&self) -> u64 {
        self.enclave.heap_used()
    }

    /// Counters by invocation path.
    #[must_use]
    pub fn stats(&self) -> InstanceStats {
        *self.stats.lock()
    }

    /// Simulated latency of the most recent key fetch (mutual attestation +
    /// provisioning); used by the experiment harness.
    #[must_use]
    pub fn last_key_fetch_latency(&self) -> SimDuration {
        *self.last_key_fetch_latency.lock()
    }

    /// Simulated latency of the most recent encrypted-model fetch.
    #[must_use]
    pub fn last_model_fetch_latency(&self) -> SimDuration {
        *self.last_model_fetch_latency.lock()
    }

    /// `EC_MODEL_INF` (Algorithm 2): serves one encrypted request on worker
    /// `worker_id` and returns the encrypted response together with a report
    /// of which serving stages were executed.
    ///
    /// The untrusted dispatcher picks `worker_id`; one at or above the TCS
    /// count is refused with [`RuntimeError::UnknownWorker`] before anything
    /// runs.
    pub fn handle_request(
        &self,
        worker_id: usize,
        request: &InferenceRequest,
    ) -> Result<(InferenceResponse, InvocationReport), RuntimeError> {
        let worker_slot = self
            .workers
            .get(worker_id)
            .ok_or(RuntimeError::UnknownWorker {
                worker_id,
                tcs_count: self.workers.len(),
            })?;

        // Pinned-model restriction (§V).
        if let Some(pinned) = &self.config.pinned_model {
            if pinned != &request.model {
                return Err(RuntimeError::ModelNotServedHere {
                    requested: request.model.as_str().to_string(),
                    pinned: pinned.as_str().to_string(),
                });
            }
        }

        // Strong isolation: enforce sequential processing.
        let _sequential = if self.config.strong_isolation {
            Some(
                self.sequential_guard
                    .try_lock()
                    .ok_or(RuntimeError::SequentialModeBusy)?,
            )
        } else {
            None
        };

        // Enter the enclave on a free TCS.
        let _tcs = self.enclave.enter()?;

        let mut stages = Vec::with_capacity(8);
        let first_request = self.served.fetch_add(1, Ordering::SeqCst) == 0;
        if first_request {
            // The enclave-initialization cost was paid when this instance was
            // launched to serve this very request.
            stages.push(ServingStage::EnclaveInit);
        }

        // --- Keys (Algorithm 2, lines 6-10) -------------------------------
        let mut key_cache_hit = false;
        let (model_key, request_key) = {
            let mut cache = self.key_cache.lock();
            let usable = !self.config.strong_isolation;
            match cache.as_ref() {
                Some(entry)
                    if usable && entry.user == request.user && entry.model == request.model =>
                {
                    key_cache_hit = true;
                    (entry.model_key.clone(), entry.request_key.clone())
                }
                _ => {
                    let (model_key, request_key, latency) = self.key_provider.fetch_keys(
                        &self.enclave,
                        request.user,
                        &request.model,
                    )?;
                    stages.push(ServingStage::KeyFetch);
                    *self.last_key_fetch_latency.lock() = latency;
                    if usable {
                        *cache = Some(KeyCacheEntry {
                            user: request.user,
                            model: request.model.clone(),
                            model_key: model_key.clone(),
                            request_key: request_key.clone(),
                        });
                    }
                    (model_key, request_key)
                }
            }
        };

        // --- Model (Algorithm 2, lines 11-13) ------------------------------
        let mut model_cache_hit = false;
        let model: Arc<LoadedModel> = {
            let mut cache = self.model_cache.lock();
            match cache.as_ref() {
                Some(cached) if cached.model.id() == &request.model => {
                    model_cache_hit = true;
                    Arc::clone(&cached.model)
                }
                _ => {
                    // OC_LOAD_MODEL: bring the encrypted blob into untrusted
                    // memory, copy it into the enclave, decrypt and
                    // deserialize it (MODEL_LOAD), replacing the previous
                    // model under the lock.
                    let (encrypted, fetch_latency) =
                        self.model_fetcher.fetch_encrypted_model(&request.model)?;
                    *self.last_model_fetch_latency.lock() = fetch_latency;
                    stages.push(ServingStage::ModelLoad);
                    let plaintext = decrypt_model(&request.model, &encrypted, &model_key)?;
                    stages.push(ServingStage::ModelDecrypt);
                    let loaded = self
                        .config
                        .framework
                        .model_load(&request.model, &plaintext)?;
                    // Drop the previous model's heap before allocating the
                    // new one so switching never double-counts.
                    *cache = None;
                    let heap = self.enclave.allocate(loaded.model_bytes())?;
                    let loaded = Arc::new(loaded);
                    *cache = Some(CachedModel {
                        model: Arc::clone(&loaded),
                        _heap: heap,
                    });
                    loaded
                }
            }
        };

        // --- Thread-local runtime (Algorithm 2, lines 14-15) ---------------
        let mut runtime_reused = false;
        let input;
        let output;
        {
            let mut slot = worker_slot.lock();
            let worker = match &mut *slot {
                Some(worker) if worker.runtime.matches(&model) => {
                    runtime_reused = true;
                    worker
                }
                _ => {
                    // Free the previous runtime's heap before allocating.
                    *slot = None;
                    let heap = self.enclave.allocate(model.runtime_buffer_bytes())?;
                    let runtime = self.config.framework.runtime_init(&model);
                    stages.push(ServingStage::RuntimeInit);
                    slot.insert(WorkerState {
                        runtime,
                        _heap: heap,
                    })
                }
            };

            // --- Request-dependent stages (Algorithm 2, lines 16-19) -------
            input = request.decrypt(&request_key)?;
            stages.push(ServingStage::RequestDecrypt);
            output = worker.runtime.model_exec(&model, &input)?;
            stages.push(ServingStage::ModelExec);

            if self.config.strong_isolation {
                // Clear the per-request state: runtime buffer and key cache.
                *slot = None;
            }
        }

        let serialized = {
            // PREPARE_OUTPUT uses a framework-independent serialization.
            let mut bytes = Vec::with_capacity(4 + output.len() * 4);
            bytes.extend_from_slice(&(output.len() as u32).to_le_bytes());
            for value in &output {
                bytes.extend_from_slice(&value.to_le_bytes());
            }
            bytes
        };
        let response = {
            let mut rng = self.rng.lock();
            InferenceResponse::encrypt(
                request.user,
                request.model.clone(),
                &serialized,
                &request_key,
                &mut *rng,
            )
        };
        stages.push(ServingStage::ResultEncrypt);

        if self.config.strong_isolation {
            *self.key_cache.lock() = None;
        }

        let path = InvocationReport::classify(&stages);
        {
            let mut stats = self.stats.lock();
            match path {
                InvocationPath::Cold => stats.cold += 1,
                InvocationPath::Warm => stats.warm += 1,
                InvocationPath::Hot => stats.hot += 1,
            }
            if key_cache_hit {
                stats.key_cache_hits += 1;
            }
            if model_cache_hit {
                stats.model_cache_hits += 1;
            }
        }

        Ok((
            response,
            InvocationReport {
                path,
                stages,
                key_cache_hit,
                model_cache_hit,
                runtime_reused,
            },
        ))
    }

    /// Serves a batch of compatible requests on one worker, amortizing the
    /// shared serving stages (key fetch, model load, runtime init) across the
    /// batch: only the first item can pay them, the rest ride the caches the
    /// first item filled.
    ///
    /// A batch is *refused* — [`RuntimeError::BatchRefused`], no item is
    /// served — when it is empty, wider than the configured
    /// [`SemirtConfig::batch_window`], mixes users or models, or when strong
    /// isolation is enabled and the batch holds more than one request
    /// (isolation never coalesces requests across trust boundaries, §V).
    pub fn handle_batch(
        &self,
        worker_id: usize,
        requests: &[InferenceRequest],
    ) -> Result<Vec<(InferenceResponse, InvocationReport)>, RuntimeError> {
        if requests.is_empty() {
            return Err(RuntimeError::BatchRefused {
                reason: "empty batch".to_string(),
            });
        }
        if self.config.strong_isolation && requests.len() > 1 {
            return Err(RuntimeError::BatchRefused {
                reason: "strong isolation never coalesces requests".to_string(),
            });
        }
        if requests.len() > self.config.batch_window {
            return Err(RuntimeError::BatchRefused {
                reason: format!(
                    "batch of {} exceeds the configured window of {}",
                    requests.len(),
                    self.config.batch_window
                ),
            });
        }
        let head = &requests[0];
        for request in &requests[1..] {
            if request.user != head.user {
                return Err(RuntimeError::BatchRefused {
                    reason: "batch mixes users".to_string(),
                });
            }
            if request.model != head.model {
                return Err(RuntimeError::BatchRefused {
                    reason: "batch mixes models".to_string(),
                });
            }
        }
        let mut results = Vec::with_capacity(requests.len());
        for request in requests {
            results.push(self.handle_request(worker_id, request)?);
        }
        Ok(results)
    }

    /// `EC_CLEAR_EXEC_CTX`: releases the worker's thread-local runtime buffer
    /// (the untrusted dispatcher calls this when it retires a worker thread).
    /// An id at or above the TCS count has nothing to release.
    pub fn clear_worker(&self, worker_id: usize) {
        if let Some(slot) = self.workers.get(worker_id) {
            *slot.lock() = None;
        }
    }

    /// Destroys the enclave; all subsequent requests fail.
    pub fn shutdown(&self) {
        self.enclave.destroy();
    }
}

/// The untrusted dispatcher's batching window: accumulates queued requests
/// that are *compatible* (same user, same model) and flushes a batch for
/// [`SemirtInstance::handle_batch`] when the window fills, an incompatible
/// request arrives, or the oldest queued request has waited
/// [`SemirtConfig::batch_max_wait`].
///
/// The window itself lives outside the enclave — it only ever sees
/// ciphertext plus the routing envelope (user, model) that the dispatcher
/// needs anyway — so coalescing adds no new information flow.
#[derive(Debug)]
pub struct BatchWindow {
    window: usize,
    max_wait: SimDuration,
    pending: Vec<InferenceRequest>,
    opened_at: Option<SimTime>,
}

impl BatchWindow {
    /// Creates a window sized from the instance configuration.
    #[must_use]
    pub fn new(config: &SemirtConfig) -> Self {
        BatchWindow {
            window: config.batch_window,
            max_wait: config.batch_max_wait,
            pending: Vec::new(),
            opened_at: None,
        }
    }

    /// Number of requests currently waiting in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no request is waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Offers a request to the window at time `now`.  Returns a flushed batch
    /// when the offer forces one out: either the incoming request is
    /// incompatible with the waiting batch (the old batch flushes and the new
    /// request opens a fresh window), or accepting it fills the window.
    pub fn offer(
        &mut self,
        now: SimTime,
        request: InferenceRequest,
    ) -> Option<Vec<InferenceRequest>> {
        let incompatible = self
            .pending
            .first()
            .is_some_and(|head| head.user != request.user || head.model != request.model);
        if incompatible {
            let flushed = self.flush();
            self.pending.push(request);
            self.opened_at = Some(now);
            return flushed;
        }
        if self.pending.is_empty() {
            self.opened_at = Some(now);
        }
        self.pending.push(request);
        if self.pending.len() >= self.window {
            return self.flush();
        }
        None
    }

    /// Flushes the window if the oldest queued request has waited `max_wait`
    /// or longer by `now`.
    pub fn flush_due(&mut self, now: SimTime) -> Option<Vec<InferenceRequest>> {
        let due = self
            .opened_at
            .is_some_and(|opened| now.duration_since(opened) >= self.max_wait);
        if due {
            self.flush()
        } else {
            None
        }
    }

    /// Unconditionally flushes whatever is waiting.
    pub fn flush(&mut self) -> Option<Vec<InferenceRequest>> {
        self.opened_at = None;
        if self.pending.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.pending))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{encrypt_model, InMemoryModelStore, KeyServiceProvider};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesemi_enclave::attest::AttestationScheme;
    use sesemi_enclave::QuoteVerifier;
    use sesemi_inference::ModelKind;
    use sesemi_keyservice::client::{OwnerClient, UserClient};
    use sesemi_keyservice::service::KeyService;
    use std::sync::mpsc;
    use std::time::Duration;

    const MB: u64 = 1024 * 1024;

    /// A complete in-process deployment: KeyService enclave, one registered
    /// owner and user, one encrypted scaled-down model in storage.  The
    /// `verifier`/`keyservice` handles are held to keep the services alive
    /// for the duration of a test even when it only exercises the provider.
    #[allow(dead_code)]
    struct World {
        platform: SgxPlatform,
        authority: Arc<AttestationAuthority>,
        verifier: QuoteVerifier,
        keyservice: Arc<KeyService>,
        store: Arc<InMemoryModelStore>,
        provider: Arc<KeyServiceProvider>,
        user: PartyId,
        request_key: AeadKey,
        model_id: ModelId,
        input_dim: usize,
        semirt_config: SemirtConfig,
    }

    fn build_world(
        framework: Framework,
        kind: ModelKind,
        config_mutator: impl FnOnce(SemirtConfig) -> SemirtConfig,
    ) -> World {
        let mut rng = SessionRng::from_seed(1234);
        let platform = SgxPlatform::paper_sgx2_node("node-1");
        let authority = AttestationAuthority::new(77);
        authority.register_platform("node-1", AttestationScheme::EcdsaDcap);
        let verifier = authority.verifier();

        // KeyService enclave.
        let ks_enclave = Enclave::launch(
            &platform,
            &authority,
            CodeIdentity::new("keyservice", b"keyservice code".to_vec(), "1.0"),
            EnclaveConfig::new(64 * MB, 8),
            1,
        )
        .unwrap()
        .0;
        let keyservice = Arc::new(KeyService::new(Arc::new(ks_enclave), verifier.clone()));

        // SeMIRT configuration and its published measurement.
        let semirt_config = config_mutator(SemirtConfig::new(framework, 256 * MB, 4));
        let semirt_measurement = semirt_config.measurement();

        // Owner and user register and set up keys / grants.
        let owner_identity = AeadKey::from_bytes([1u8; 16]);
        let user_identity = AeadKey::from_bytes([2u8; 16]);
        let mut owner = OwnerClient::connect(
            &keyservice,
            &verifier,
            &keyservice.measurement(),
            owner_identity,
            &mut rng,
        )
        .unwrap();
        let mut user = UserClient::connect(
            &keyservice,
            &verifier,
            &keyservice.measurement(),
            user_identity,
            &mut rng,
        )
        .unwrap();
        owner.register(&keyservice).unwrap();
        let user_id = user.register(&keyservice).unwrap();

        let model_id = kind.default_id();
        let model_key = AeadKey::generate(&mut rng);
        let request_key = AeadKey::generate(&mut rng);
        owner
            .add_model_key(&keyservice, &model_id, &model_key, &mut rng)
            .unwrap();
        owner
            .grant_access(
                &keyservice,
                &model_id,
                semirt_measurement,
                user_id,
                &mut rng,
            )
            .unwrap();
        user.add_request_key(
            &keyservice,
            &model_id,
            semirt_measurement,
            &request_key,
            &mut rng,
        )
        .unwrap();

        // Owner encrypts and uploads the (scaled-down) model.
        let graph = kind.generate(0.01, &mut StdRng::seed_from_u64(7));
        let input_dim = graph.input_dim;
        let encrypted = encrypt_model(&model_id, &graph.to_bytes(), &model_key, &mut rng);
        let store = Arc::new(InMemoryModelStore::new());
        store.put(model_id.clone(), encrypted);

        let provider = Arc::new(KeyServiceProvider::new(
            Arc::clone(&keyservice),
            verifier.clone(),
            keyservice.measurement(),
            555,
        ));

        owner.disconnect(&keyservice);
        user.disconnect(&keyservice);

        World {
            platform,
            authority,
            verifier,
            keyservice,
            store,
            provider,
            user: user_id,
            request_key,
            model_id,
            input_dim,
            semirt_config,
        }
    }

    fn launch(world: &World) -> SemirtInstance {
        SemirtInstance::launch(
            &world.platform,
            &world.authority,
            world.semirt_config.clone(),
            world.provider.clone() as Arc<dyn KeyProvider>,
            world.store.clone() as Arc<dyn ModelFetcher>,
            1,
            42,
        )
        .unwrap()
        .0
    }

    fn make_request(world: &World, seed: u64) -> InferenceRequest {
        let mut rng = SessionRng::from_seed(seed);
        let features: Vec<f32> = (0..world.input_dim)
            .map(|i| (i as f32 * 0.01).sin())
            .collect();
        InferenceRequest::encrypt(
            world.user,
            world.model_id.clone(),
            &features,
            &world.request_key,
            &mut rng,
        )
    }

    #[test]
    fn cold_then_warm_then_hot_invocation_paths() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);

        // First request: cold (enclave init + key fetch + model load + ...).
        let request = make_request(&world, 1);
        let (response, report) = instance.handle_request(0, &request).unwrap();
        assert_eq!(report.path, InvocationPath::Cold);
        assert!(report.performed(ServingStage::KeyFetch));
        assert!(report.performed(ServingStage::ModelLoad));
        assert!(report.performed(ServingStage::RuntimeInit));
        assert!(!report.key_cache_hit);
        let prediction = response.decrypt(&world.request_key).unwrap();
        assert!((prediction.iter().sum::<f32>() - 1.0).abs() < 1e-4);

        // Second request on the same worker: hot (everything cached).
        let (response, report) = instance
            .handle_request(0, &make_request(&world, 2))
            .unwrap();
        assert_eq!(report.path, InvocationPath::Hot);
        assert!(report.key_cache_hit && report.model_cache_hit && report.runtime_reused);
        assert_eq!(
            report.stages,
            vec![
                ServingStage::RequestDecrypt,
                ServingStage::ModelExec,
                ServingStage::ResultEncrypt
            ]
        );
        response.decrypt(&world.request_key).unwrap();

        // A different worker thread shares keys and model but needs its own
        // runtime: warm-ish (runtime init only).
        let (_, report) = instance
            .handle_request(1, &make_request(&world, 3))
            .unwrap();
        assert_eq!(report.path, InvocationPath::Warm);
        assert!(report.key_cache_hit && report.model_cache_hit && !report.runtime_reused);
        assert!(report.performed(ServingStage::RuntimeInit));
        assert!(!report.performed(ServingStage::ModelLoad));

        let stats = instance.stats();
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.cold, 1);
        assert_eq!(stats.warm, 1);
        assert_eq!(stats.hot, 1);
    }

    #[test]
    fn unauthorized_user_is_rejected_at_key_provisioning() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        // A different user who never registered a request key (and was never
        // granted access) sends a request encrypted with some key she made up.
        let mut rng = SessionRng::from_seed(9);
        let rogue_user = PartyId::from_identity_key(&AeadKey::from_bytes([9u8; 16]));
        let rogue_key = AeadKey::generate(&mut rng);
        let features = vec![0.0f32; world.input_dim];
        let request = InferenceRequest::encrypt(
            rogue_user,
            world.model_id.clone(),
            &features,
            &rogue_key,
            &mut rng,
        );
        let err = instance.handle_request(0, &request).unwrap_err();
        assert!(matches!(err, RuntimeError::KeyProvisioning(_)));
        assert_eq!(instance.stats().total(), 0);
    }

    #[test]
    fn differently_configured_enclave_cannot_get_keys() {
        // The user granted access to the *concurrent* SeMIRT configuration;
        // an instance built with strong isolation has a different measurement
        // and must be refused by KeyService.
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let isolated_config = world.semirt_config.clone().with_strong_isolation();
        assert_ne!(
            isolated_config.measurement(),
            world.semirt_config.measurement()
        );
        let instance = SemirtInstance::launch(
            &world.platform,
            &world.authority,
            isolated_config,
            world.provider.clone() as Arc<dyn KeyProvider>,
            world.store.clone() as Arc<dyn ModelFetcher>,
            1,
            43,
        )
        .unwrap()
        .0;
        let err = instance
            .handle_request(0, &make_request(&world, 1))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::KeyProvisioning(_)));
    }

    #[test]
    fn tampered_request_fails_decryption_but_leaves_instance_usable() {
        let world = build_world(Framework::Tflm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        let mut request = make_request(&world, 1);
        request.payload.ciphertext[0] ^= 1;
        let err = instance.handle_request(0, &request).unwrap_err();
        assert!(matches!(err, RuntimeError::RequestDecryption));
        // The instance still serves legitimate requests afterwards.
        let (_, report) = instance
            .handle_request(0, &make_request(&world, 2))
            .unwrap();
        assert!(report.model_cache_hit);
    }

    #[test]
    fn strong_isolation_disables_caches_and_reports_warm_paths() {
        let world = build_world(
            Framework::Tvm,
            ModelKind::MbNet,
            SemirtConfig::with_strong_isolation,
        );
        let instance = launch(&world);
        let (_, first) = instance
            .handle_request(0, &make_request(&world, 1))
            .unwrap();
        assert_eq!(first.path, InvocationPath::Cold);
        // Second request: model stays loaded, but keys and runtime are redone
        // every time (Table II's overhead).
        let (_, second) = instance
            .handle_request(0, &make_request(&world, 2))
            .unwrap();
        assert_eq!(second.path, InvocationPath::Warm);
        assert!(!second.key_cache_hit);
        assert!(second.model_cache_hit);
        assert!(!second.runtime_reused);
        assert!(second.performed(ServingStage::KeyFetch));
        assert!(second.performed(ServingStage::RuntimeInit));
        assert!(!second.performed(ServingStage::ModelLoad));
    }

    #[test]
    fn pinned_model_rejects_other_models() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| {
            c.with_pinned_model(ModelId::new("some-other-model"))
        });
        let instance = launch(&world);
        let err = instance
            .handle_request(0, &make_request(&world, 1))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ModelNotServedHere { .. }));
    }

    #[test]
    fn concurrency_is_bounded_by_tcs_count_and_memory_grows_per_worker() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        // Serve one request on each of the four workers.
        for worker in 0..4 {
            instance
                .handle_request(worker, &make_request(&world, worker as u64))
                .unwrap();
        }
        let heap_with_four_workers = instance.enclave_heap_used();
        // One shared model + four runtime buffers; clearing a worker frees
        // its buffer but not the model.
        instance.clear_worker(3);
        assert!(instance.enclave_heap_used() < heap_with_four_workers);
        assert!(instance.enclave_heap_used() > 0);
    }

    #[test]
    fn a_worker_executes_while_another_worker_holds_its_slot() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        let request = make_request(&world, 1);
        let (sender, receiver) = mpsc::channel();
        std::thread::scope(|scope| {
            // Worker 0 is mid-request: its slot stays locked until this
            // closure returns or unwinds.
            let _busy = instance.workers[0].lock();
            scope.spawn(|| {
                let served = instance.handle_request(1, &request).map(|(_, r)| r.path);
                sender.send(served).expect("the test awaits the result");
            });
            let served = receiver
                .recv_timeout(Duration::from_secs(60))
                .expect("worker 1 waited for worker 0's slot");
            assert_eq!(served, Ok(InvocationPath::Cold));
        });
        assert_eq!(instance.enclave().threads_inside(), 0);
    }

    #[test]
    fn a_worker_id_beyond_the_tcs_count_is_refused() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        let tcs_count = world.semirt_config.tcs_count;
        let heap = instance.enclave_heap_used();
        let err = instance
            .handle_request(tcs_count, &make_request(&world, 1))
            .unwrap_err();
        assert_eq!(
            err,
            RuntimeError::UnknownWorker {
                worker_id: tcs_count,
                tcs_count
            }
        );
        assert_eq!(instance.stats(), InstanceStats::default());
        assert_eq!(instance.enclave_heap_used(), heap);
        assert_eq!(instance.enclave().threads_inside(), 0);
        // Nothing to clear there either; the last worker still serves.
        instance.clear_worker(tcs_count);
        let (_, report) = instance
            .handle_request(tcs_count - 1, &make_request(&world, 2))
            .unwrap();
        assert_eq!(report.path, InvocationPath::Cold);
    }

    #[test]
    fn strong_isolation_stays_sequential() {
        let world = build_world(
            Framework::Tvm,
            ModelKind::MbNet,
            SemirtConfig::with_strong_isolation,
        );
        let instance = launch(&world);
        {
            // Another request is in flight.
            let _in_flight = instance.sequential_guard.lock();
            let err = instance
                .handle_request(0, &make_request(&world, 1))
                .unwrap_err();
            assert_eq!(err, RuntimeError::SequentialModeBusy);
        }
        assert_eq!(instance.stats(), InstanceStats::default());
        assert_eq!(instance.enclave().threads_inside(), 0);
        instance
            .handle_request(0, &make_request(&world, 2))
            .unwrap();
        assert_eq!(instance.stats().total(), 1);
    }

    #[test]
    fn shutdown_prevents_further_requests() {
        let world = build_world(Framework::Tflm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        instance
            .handle_request(0, &make_request(&world, 1))
            .unwrap();
        instance.shutdown();
        let err = instance
            .handle_request(0, &make_request(&world, 2))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Enclave(_)));
    }

    #[test]
    fn batch_of_compatible_requests_amortizes_shared_stages() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| {
            c.with_batching(8, SimDuration::from_millis(5))
        });
        let instance = launch(&world);
        let batch: Vec<InferenceRequest> = (0..4).map(|i| make_request(&world, i)).collect();
        let results = instance.handle_batch(0, &batch).unwrap();
        assert_eq!(results.len(), 4);
        // Only the head of the batch pays the shared stages; every other item
        // rides the caches it filled and runs hot.
        assert_eq!(results[0].1.path, InvocationPath::Cold);
        for (response, report) in &results[1..] {
            assert_eq!(report.path, InvocationPath::Hot);
            assert!(report.key_cache_hit && report.model_cache_hit && report.runtime_reused);
            response.decrypt(&world.request_key).unwrap();
        }
        assert_eq!(instance.stats().total(), 4);
    }

    #[test]
    fn strong_isolation_refuses_multi_request_batches() {
        let world = build_world(
            Framework::Tvm,
            ModelKind::MbNet,
            SemirtConfig::with_strong_isolation,
        );
        let instance = launch(&world);
        let batch = vec![make_request(&world, 1), make_request(&world, 2)];
        let err = instance.handle_batch(0, &batch).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::BatchRefused { reason } if reason.contains("isolation")),
            "unexpected error: {err}"
        );
        assert_eq!(
            instance.stats().total(),
            0,
            "no item of a refused batch runs"
        );
        // A single-request "batch" is just sequential mode and is served.
        let results = instance.handle_batch(0, &batch[..1]).unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn mixed_user_or_model_batches_are_refused() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| {
            c.with_batching(8, SimDuration::ZERO)
        });
        let instance = launch(&world);
        let mut rng = SessionRng::from_seed(77);
        let features = vec![0.0f32; world.input_dim];

        let other_user = PartyId::from_identity_key(&AeadKey::from_bytes([9u8; 16]));
        let foreign = InferenceRequest::encrypt(
            other_user,
            world.model_id.clone(),
            &features,
            &world.request_key,
            &mut rng,
        );
        let err = instance
            .handle_batch(0, &[make_request(&world, 1), foreign])
            .unwrap_err();
        assert!(
            matches!(&err, RuntimeError::BatchRefused { reason } if reason.contains("users")),
            "unexpected error: {err}"
        );

        let other_model = InferenceRequest::encrypt(
            world.user,
            ModelId::new("some-other-model"),
            &features,
            &world.request_key,
            &mut rng,
        );
        let err = instance
            .handle_batch(0, &[make_request(&world, 1), other_model])
            .unwrap_err();
        assert!(
            matches!(&err, RuntimeError::BatchRefused { reason } if reason.contains("models")),
            "unexpected error: {err}"
        );
        assert_eq!(instance.stats().total(), 0);
    }

    #[test]
    fn batch_wider_than_the_window_is_refused() {
        // The default configuration has a window of 1: batching off.
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| c);
        let instance = launch(&world);
        let batch = vec![make_request(&world, 1), make_request(&world, 2)];
        let err = instance.handle_batch(0, &batch).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::BatchRefused { reason } if reason.contains("window")),
            "unexpected error: {err}"
        );
        let err = instance.handle_batch(0, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::BatchRefused { .. }));
    }

    #[test]
    fn batching_window_is_part_of_the_measured_config() {
        let base = SemirtConfig::new(Framework::Tvm, 256 * MB, 4);
        let batching = base.clone().with_batching(8, SimDuration::from_millis(5));
        assert_ne!(base.measurement(), batching.measurement());
        // Same window, different max-wait: still a different image.
        let patient = base.clone().with_batching(8, SimDuration::from_millis(50));
        assert_ne!(batching.measurement(), patient.measurement());
        // Strong isolation forces the window shut again.
        let isolated = batching.with_strong_isolation();
        assert_eq!(isolated.batch_window, 1);
        assert_eq!(isolated.batch_max_wait, SimDuration::ZERO);
    }

    #[test]
    fn batch_window_coalesces_flushes_on_fill_incompatibility_and_max_wait() {
        let world = build_world(Framework::Tvm, ModelKind::MbNet, |c| {
            c.with_batching(3, SimDuration::from_millis(10))
        });
        let config = world.semirt_config.clone();
        let mut window = BatchWindow::new(&config);
        let t0 = SimTime::ZERO;

        // Fill to the window cap: the third offer flushes all three.
        assert!(window.offer(t0, make_request(&world, 1)).is_none());
        assert!(window.offer(t0, make_request(&world, 2)).is_none());
        let full = window.offer(t0, make_request(&world, 3)).unwrap();
        assert_eq!(full.len(), 3);
        assert!(window.is_empty());

        // An incompatible request flushes the waiting batch and opens a new
        // window for itself.
        let mut rng = SessionRng::from_seed(5);
        let features = vec![0.0f32; world.input_dim];
        let other_user = PartyId::from_identity_key(&AeadKey::from_bytes([9u8; 16]));
        let foreign = InferenceRequest::encrypt(
            other_user,
            world.model_id.clone(),
            &features,
            &world.request_key,
            &mut rng,
        );
        assert!(window.offer(t0, make_request(&world, 4)).is_none());
        let flushed = window.offer(t0, foreign).unwrap();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].user, world.user);
        assert_eq!(window.len(), 1, "the foreign request opened a new window");

        // Max-wait: not due before the deadline, due at it.
        assert!(window.flush_due(t0 + SimDuration::from_millis(9)).is_none());
        let timed_out = window.flush_due(t0 + SimDuration::from_millis(10)).unwrap();
        assert_eq!(timed_out.len(), 1);
        assert!(
            window.flush().is_none(),
            "empty window has nothing to flush"
        );
    }

    #[test]
    fn config_measurement_depends_on_framework_and_settings() {
        let base = SemirtConfig::new(Framework::Tvm, 256 * MB, 4);
        let tflm = SemirtConfig::new(Framework::Tflm, 256 * MB, 4);
        let more_threads = SemirtConfig::new(Framework::Tvm, 256 * MB, 8);
        assert_ne!(base.measurement(), tflm.measurement());
        assert_ne!(base.measurement(), more_threads.measurement());
        // The measurement is independent of the machine: two identically
        // configured instances have the same identity.
        assert_eq!(
            base.measurement(),
            SemirtConfig::new(Framework::Tvm, 256 * MB, 4).measurement()
        );
    }
}
