//! The cluster simulator: replays the paper's workloads against the real
//! scheduling, caching and routing logic with calibrated stage costs.
//!
//! The simulator combines:
//!
//! * the **platform controller** from `sesemi-platform` (memory-slot
//!   scheduling, warm-container reuse, keep-alive eviction),
//! * a pluggable **placement policy** from [`scheduler`] (least-loaded,
//!   round-robin, or consistent-hash model affinity) that decides which node
//!   hosts each new container,
//! * the **serving strategies** from [`crate::baseline`] (SeSeMI, Iso-reuse,
//!   Native, Untrusted) which decide which serving stages each invocation
//!   must run given the sandbox's cached state,
//! * the **routing strategies** from `sesemi-fnpacker` (One-to-one,
//!   All-in-one, FnPacker), consulted before placement,
//! * the **calibrated stage costs** from `sesemi-inference`
//!   ([`ModelProfile`]) plus the enclave cost model (concurrent-init and EPC
//!   penalties) from `sesemi-enclave`,
//! * an optional **elastic node pool** from [`autoscale`]: a periodic tick
//!   samples queue pressure and committed memory, provisions nodes under
//!   sustained saturation and drains them after idle windows, with the
//!   provisioned-capacity GB·s metered so fixed and autoscaled pools are
//!   cost-comparable (the elasticity half of Fig. 14),
//!
//! * **failure injection** from [`fault`]: a declarative [`FaultPlan`]
//!   compiles into simulator events that crash whole nodes
//!   (force-retirement, scheduler notification, immediate billing stop) or
//!   kill every container holding a model — the in-flight and parked
//!   requests of the victims are re-queued and retried on surviving
//!   capacity,
//!
//! and runs them in virtual time, so an 800-second MMPP experiment on an
//! 8-node cluster (Fig. 13) replays in well under a second of wall time while
//! exercising exactly the decision logic a real deployment would.
//!
//! The run's counters live in one place, the [`SimulationResult`] the
//! simulator updates in place and returns.  [`SimulationResult::check`]
//! tests the identities that tie them together — conservation (`admitted ==
//! completed + dropped`), the warm-hit and cold-start ledgers, and per-item
//! completion accounting — and the scenario layer calls it on every run in
//! release builds, so saturation can never silently lose work, and neither
//! can a crash: killed work is re-queued or counted `dropped`.

pub mod admission;
pub mod autoscale;
pub mod fault;
pub mod keyservice;
pub mod lifecycle;
pub mod scheduler;
mod state;

pub use admission::{
    AdmissionContext, AdmissionKind, AdmissionPolicy, AdmissionVerdict, AdmitAllAdmission,
    DeadlineAwareAdmission, QueueBoundAdmission, QueuedRequest,
};
pub use autoscale::{AutoscaleConfig, Autoscaler, ClusterSignals, ScaleDecision};
pub use fault::{Fault, FaultPlan};
pub use keyservice::KeyServiceConfig;
pub use lifecycle::{
    AgeOnlyLifecycle, DrainCandidate, DrainContext, DrainVerdict, EvictionCandidate,
    EvictionContext, EvictionReason, EvictionVerdict, LifecycleKind, LifecyclePolicy,
    WarmValueLifecycle,
};
pub use scheduler::{
    LeastLoadedScheduler, ModelAffinityScheduler, PlacementContext, RoundRobinScheduler, Scheduler,
    SchedulerKind,
};
pub use state::{LedgerViolation, SimulationResult};

use crate::baseline::{SandboxWarmth, ServingStrategy};
use keyservice::KeyServiceSim;
use sesemi_enclave::{EnclaveCostModel, SgxVersion};
use sesemi_fnpacker::{FnPool, Router, RoutingStrategy};
use sesemi_inference::{ModelId, ModelProfile};
use sesemi_keyservice::PartyId;
use sesemi_platform::{
    metering::Metering, ActionName, ActionSpec, ActivationId, ActivationRecord, Controller,
    PlatformConfig, PlatformError, SandboxId, ScheduleOutcome,
};
use sesemi_runtime::{InvocationReport, ServingStage};
use sesemi_sim::{EventQueue, FxHashMap, SimDuration, SimTime};
use sesemi_workload::{InteractiveSession, RequestArrival, Tier};
use state::{Event, Invocation, SandboxSimState, SimRequest, TraceBatch};
use std::collections::HashMap;
use std::collections::VecDeque;

const MB: u64 = 1024 * 1024;

/// Request-batching configuration for the dispatch pipeline.
///
/// With the default window of 1 batching is off and the simulator is
/// byte-identical to the unbatched engine — the `InvocationDone` batch tail
/// is an empty (never-allocating) vector and every dispatch carries exactly
/// one request.  With a window of `n > 1`, the dispatch layer may coalesce
/// up to `n` queued same-⟨user, model⟩ requests into one invocation on a
/// *ready* warm container: the batch occupies one execution slot, pays the
/// shared serving stages once, runs the model over the stacked inputs on the
/// sub-linear batched cost curve
/// ([`StageCosts::batched`](sesemi_inference::StageCosts::batched)), and
/// bills one activation — per-item crypto and per-item completion accounting
/// are preserved, so request conservation holds per item.
///
/// Batching is modeled in the simulator only: SeMIRT itself serves one
/// request per worker call (Algorithm 2).  Batches never mix users or
/// models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Maximum requests per batched dispatch; 1 disables batching.
    pub window: usize,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig { window: 1 }
    }
}

impl BatchingConfig {
    /// A batching window of up to `window` requests per dispatch.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    #[must_use]
    pub fn window(window: usize) -> Self {
        assert!(
            window >= 1,
            "the batching window holds at least one request"
        );
        BatchingConfig { window }
    }

    /// Whether batching can ever coalesce two requests.
    #[must_use]
    pub fn enabled(self) -> bool {
        self.window > 1
    }
}

/// Cluster-level configuration for one simulated experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of invoker nodes available for sandboxes (the paper uses 1 for
    /// §VI-B and 8 for §VI-C).
    pub nodes: usize,
    /// Physical cores per node (12 on the paper's SGX2 machines).
    pub cores_per_node: usize,
    /// SGX generation of the nodes.
    pub sgx: SgxVersion,
    /// Invoker memory available for containers on each node.
    pub invoker_memory_bytes: u64,
    /// EPC size per node (defaults to the generation's size).
    pub epc_bytes: u64,
    /// The serving strategy under test.
    pub strategy: ServingStrategy,
    /// TCS count / per-container concurrency.
    pub tcs_per_container: usize,
    /// Idle-container keep-alive window.
    pub keep_alive: SimDuration,
    /// Container cold-start latency (image start, before enclave creation).
    pub sandbox_cold_start: SimDuration,
    /// Multi-model routing strategy (One-to-one when every model has its own
    /// endpoint, which is also the right choice for single-model runs).
    pub routing: RoutingStrategy,
    /// Node-placement policy for new containers.
    pub scheduler: SchedulerKind,
    /// Container-lifecycle policy: which idle containers keep-alive reclaims
    /// and which node a scale-in drains.
    pub lifecycle: LifecycleKind,
    /// Admission-control policy, consulted for arrivals the cluster cannot
    /// serve immediately.  The default ([`AdmissionKind::AdmitAll`]) queues
    /// everything, byte-identical to the simulator before this layer.
    pub admission: AdmissionKind,
    /// Elastic node-pool autoscaling.  `None` (the default) keeps the pool
    /// fixed at `nodes`; `Some` starts the pool at `nodes` and lets the
    /// [`Autoscaler`] grow/shrink it within the configured bounds.
    pub autoscale: Option<AutoscaleConfig>,
    /// Request batching: coalesce compatible queued requests into one
    /// batched dispatch.  The default window of 1 disables batching and is
    /// byte-identical to the unbatched engine.
    pub batching: BatchingConfig,
    /// KeyService provisioning model: cold dispatches queue behind a pool
    /// of replicated, TCS-bound KeyService enclaves.  The default disables
    /// the model and is byte-identical to the pre-trust-plane engine.
    pub keyservice: KeyServiceConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            cores_per_node: 12,
            sgx: SgxVersion::Sgx2,
            invoker_memory_bytes: 64 * 1024 * MB,
            epc_bytes: SgxVersion::Sgx2.default_epc_bytes(),
            strategy: ServingStrategy::Sesemi,
            tcs_per_container: 1,
            keep_alive: SimDuration::from_secs(180),
            sandbox_cold_start: SimDuration::from_millis(650),
            routing: RoutingStrategy::OneToOne,
            scheduler: SchedulerKind::LeastLoaded,
            lifecycle: LifecycleKind::AgeOnly,
            admission: AdmissionKind::AdmitAll,
            autoscale: None,
            batching: BatchingConfig::default(),
            keyservice: KeyServiceConfig::default(),
            seed: 42,
        }
    }
}

impl ClusterConfig {
    /// The paper's single-node SGX2 setup (§VI-B).
    #[must_use]
    pub fn single_node_sgx2() -> Self {
        ClusterConfig::default()
    }

    /// The paper's 8-node SGX2 setup (§VI-C).
    #[must_use]
    pub fn multi_node_sgx2() -> Self {
        ClusterConfig {
            nodes: 8,
            ..ClusterConfig::default()
        }
    }

    /// An SGX1 node with a 128 MB EPC (§VI-B's EPC-bound experiments).
    #[must_use]
    pub fn single_node_sgx1() -> Self {
        ClusterConfig {
            sgx: SgxVersion::Sgx1,
            cores_per_node: 10,
            epc_bytes: SgxVersion::Sgx1.default_epc_bytes(),
            invoker_memory_bytes: (12.5 * 1024.0 * 1024.0 * 1024.0) as u64,
            ..ClusterConfig::default()
        }
    }
}

/// The cluster simulator.
pub struct ClusterSimulation {
    config: ClusterConfig,
    cost_model: EnclaveCostModel,
    profiles: FxHashMap<ModelId, ModelProfile>,
    router: Box<dyn Router>,
    scheduler: Box<dyn Scheduler>,
    lifecycle: Box<dyn LifecyclePolicy>,
    admission: Box<dyn AdmissionPolicy>,
    controller: Controller,
    action_models: HashMap<ActionName, Vec<ModelId>>,
    sandbox_state: FxHashMap<SandboxId, SandboxSimState>,
    queue: EventQueue<Event>,
    /// The open-loop trace, one batch per [`ClusterSimulation::add_arrivals`]
    /// call, held beside `queue` rather than in it.
    trace: Vec<TraceBatch>,
    /// Requests admitted but waiting for cluster capacity, with the action
    /// the router bound them to at admission.
    saturated: VecDeque<(ActionName, SimRequest)>,
    /// Per-action entry counts over `saturated`, maintained at every queue
    /// mutation (entries are removed at zero).  [`retry_saturated`]'s
    /// short-circuit reads them to learn how many queued requests a newly
    /// unplaceable action strands in O(1), instead of re-walking the
    /// (possibly thousands deep) queue once per failed action per pass.
    saturated_action_counts: FxHashMap<ActionName, usize>,
    sessions: Vec<InteractiveSession>,
    users: Vec<PartyId>,
    node_active_exec: Vec<usize>,
    node_enclave_bytes: Vec<u64>,
    node_enclave_inits: Vec<usize>,
    /// Execution slots per node (largest-action containers that fit ×
    /// per-container concurrency) — the autoscaler's capacity yardstick.
    slots_per_node: usize,
    /// Busy-time integral ∫ (cluster-wide active executions) dt, advanced
    /// just before every change to `node_active_exec`.  The autoscaler reads
    /// its per-tick mean: Poisson workloads make instantaneous occupancy far
    /// too noisy to hold a scale-in idle streak together.
    busy_exec_integral: f64,
    busy_accrued_at: SimTime,
    busy_integral_at_tick: f64,
    last_autoscale_tick: SimTime,
    autoscaler: Option<Autoscaler>,
    /// Scratch buffers reused across hot-path calls so per-event work stays
    /// allocation-free once the buffers reach steady-state capacity.
    retry_kept: VecDeque<(ActionName, SimRequest)>,
    retry_failed_actions: Vec<ActionName>,
    admission_queued_scratch: Vec<QueuedRequest>,
    warm_candidates_scratch: Vec<sesemi_platform::WarmCandidate>,
    node_snapshots_scratch: Vec<sesemi_platform::NodeSnapshot>,
    /// The simulated KeyService pool cold dispatches provision against.
    keyservice: KeyServiceSim,
    next_activation: u64,
    metering: Metering,
    /// The run's counters, updated in place as events fire; `run()` fills
    /// in the end-of-run figures and returns it.
    ledger: SimulationResult,
}

impl ClusterSimulation {
    /// Creates a simulator that serves `models` under the configured routing
    /// strategy (the pool spans all registered models).
    #[must_use]
    pub fn new(config: ClusterConfig, models: Vec<(ModelId, ModelProfile)>) -> Self {
        assert!(!models.is_empty(), "register at least one model");
        let cost_model = EnclaveCostModel::for_version(config.sgx);
        let platform_config = PlatformConfig {
            invoker_memory_bytes: config.invoker_memory_bytes,
            container_keep_alive: config.keep_alive,
            sandbox_cold_start: config.sandbox_cold_start,
            dispatch_overhead: SimDuration::from_millis(2),
        };
        let mut controller = Controller::new(platform_config, config.nodes);

        // Build the endpoint layout for the chosen routing strategy and
        // register the corresponding actions with the controller.
        let max_enclave_bytes = models
            .iter()
            .map(|(_, p)| p.enclave_bytes_for_concurrency(config.tcs_per_container))
            .max()
            .expect("at least one model");
        let pool = FnPool::new(
            "pool",
            models.iter().map(|(m, _)| m.clone()).collect(),
            max_enclave_bytes,
            config.nodes.max(2),
        );
        let router = config.routing.build(&pool);
        let mut action_models: HashMap<ActionName, Vec<ModelId>> = HashMap::new();
        match config.routing {
            RoutingStrategy::OneToOne => {
                // Each model's endpoint serves only that model, sized for it.
                for (model, profile) in &models {
                    let action = ActionName::new(format!("pool-{model}"));
                    let spec = ActionSpec::build(
                        action.clone(),
                        "sesemi/semirt".to_string(),
                        profile.enclave_bytes_for_concurrency(config.tcs_per_container),
                        config.tcs_per_container,
                    );
                    controller.register_action(spec).expect("fresh action");
                    action_models.insert(action, vec![model.clone()]);
                }
            }
            RoutingStrategy::AllInOne | RoutingStrategy::FnPacker => {
                for action in router.endpoints() {
                    let spec = ActionSpec::build(
                        action.clone(),
                        "sesemi/semirt".to_string(),
                        max_enclave_bytes,
                        config.tcs_per_container,
                    );
                    controller.register_action(spec).expect("fresh action");
                    action_models.insert(action, models.iter().map(|(m, _)| m.clone()).collect());
                }
            }
        }

        let nodes = config.nodes;
        let scheduler = config.scheduler.build(nodes);
        let lifecycle = config.lifecycle.build();
        let admission = config.admission.build();
        // Execution slots one node contributes: how many containers of the
        // largest registered action fit in its invoker memory, times the
        // per-container concurrency.  The autoscaler's utilization signal is
        // measured against this (in-flight work over slots), because
        // committed memory is dominated by keep-alive warm pools and says
        // nothing about load.  Admission policies read the same yardstick to
        // estimate queueing delay, so it is computed for every run.
        let slots_per_node = {
            let max_action_budget = action_models
                .keys()
                .map(|action| {
                    controller
                        .action(action)
                        .expect("registered above")
                        .memory_budget_bytes
                })
                .max()
                .expect("at least one action");
            (config.invoker_memory_bytes / max_action_budget) as usize * config.tcs_per_container
        };
        let autoscaler = config.autoscale.clone().map(|autoscale| {
            assert!(
                autoscale.min_nodes <= nodes && nodes <= autoscale.max_nodes,
                "the initial pool of {nodes} nodes must sit within the autoscale bounds {}..={}",
                autoscale.min_nodes,
                autoscale.max_nodes
            );
            Autoscaler::new(autoscale)
        });
        ClusterSimulation {
            cost_model,
            profiles: models.into_iter().collect(),
            router,
            scheduler,
            lifecycle,
            admission,
            controller,
            action_models,
            sandbox_state: FxHashMap::default(),
            queue: EventQueue::new(),
            trace: Vec::new(),
            saturated: VecDeque::new(),
            saturated_action_counts: FxHashMap::default(),
            sessions: Vec::new(),
            users: Vec::new(),
            node_active_exec: vec![0; nodes],
            node_enclave_bytes: vec![0; nodes],
            node_enclave_inits: vec![0; nodes],
            slots_per_node,
            busy_exec_integral: 0.0,
            busy_accrued_at: SimTime::ZERO,
            busy_integral_at_tick: 0.0,
            last_autoscale_tick: SimTime::ZERO,
            autoscaler,
            retry_kept: VecDeque::new(),
            retry_failed_actions: Vec::new(),
            admission_queued_scratch: Vec::new(),
            warm_candidates_scratch: Vec::new(),
            node_snapshots_scratch: Vec::new(),
            keyservice: KeyServiceSim::new(config.keyservice),
            next_activation: 0,
            metering: Metering::new(),
            ledger: SimulationResult {
                peak_nodes: nodes,
                ..SimulationResult::default()
            },
            config,
        }
    }

    fn user(&mut self, index: usize) -> PartyId {
        while self.users.len() <= index {
            let next = self.users.len() as u64;
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&next.to_le_bytes());
            key[8] = 0xA5;
            self.users.push(PartyId::from_identity_key(
                &sesemi_crypto::aead::AeadKey::from_bytes(key),
            ));
        }
        self.users[index]
    }

    /// Adds a pre-generated open-loop arrival trace.
    ///
    /// The trace does not enter the event queue.  It is kept as one batch,
    /// stable-sorted by time (a linear pass when it already is), under a
    /// block of insertion sequence numbers reserved now, and [`run`]
    /// delivers it beside the queue.  Each arrival is delivered exactly
    /// where pushing it here would have put it: after every event added
    /// before this call (faults, sessions, earlier batches) at the same
    /// instant, and before every event added after it.  Failure injection's
    /// `extract` calls never see the trace, and lose nothing by it: they
    /// match fault, completion and readiness events only, never an arrival.
    ///
    /// [`run`]: ClusterSimulation::run
    pub fn add_arrivals(&mut self, mut arrivals: Vec<RequestArrival>) {
        arrivals.sort_by_key(|arrival| arrival.at);
        let next_seq = self.queue.reserve(arrivals.len() as u64);
        self.trace.push(TraceBatch {
            next_seq,
            arrivals: arrivals.into(),
        });
    }

    /// Compiles a declarative [`FaultPlan`] into failure-injection events.
    /// Faults fire at their scheduled times, interleaved deterministically
    /// with the workload; a fault targeting a node that does not exist (or
    /// already retired) by then is a no-op, and faults scheduled past the
    /// run's measurement horizon are ignored (the post-horizon drain-down
    /// is not perturbed).
    pub fn add_fault_plan(&mut self, plan: &FaultPlan) {
        for fault in plan.faults() {
            match fault {
                Fault::NodeCrash { at, node } => {
                    self.queue.push(*at, Event::NodeCrash { node: *node });
                }
                Fault::ContainerKill { at, model } => {
                    self.queue.push(
                        *at,
                        Event::ContainerKill {
                            model: model.clone(),
                        },
                    );
                }
                Fault::KeyServiceCrash { at, replica } => {
                    self.queue
                        .push(*at, Event::KeyServiceCrash { replica: *replica });
                }
            }
        }
    }

    /// Adds a closed-loop interactive session.
    pub fn add_session(&mut self, session: InteractiveSession) {
        let index = self.sessions.len();
        let start = session.start;
        let first_model = session
            .next_model()
            .cloned()
            .expect("sessions have at least one model");
        let user_index = session.user_index;
        self.sessions.push(session);
        self.queue.push(
            start,
            Event::Arrival(SimRequest {
                model: first_model,
                user_index,
                submitted: start,
                session: Some(index),
                tier: Tier::default(),
                deadline: None,
                cold_start: false,
            }),
        );
    }

    /// Schedules one invocation of `action` for `model`: reuse a warm
    /// container chosen by the placement policy, otherwise ask the policy to
    /// place a new container on a node.
    fn schedule_request(
        &mut self,
        action: &ActionName,
        model: &ModelId,
        now: SimTime,
    ) -> Result<ScheduleOutcome, PlatformError> {
        // Both controller views are rebuilt into persistent scratch buffers
        // (the `retry_saturated` pattern): this runs on every dispatch and
        // every retry pass, so the two per-call Vec allocations it used to
        // make dominated the allocator traffic of saturated runs.
        let mut candidates = std::mem::take(&mut self.warm_candidates_scratch);
        self.controller
            .warm_candidates_into(action, &mut candidates);
        let selected = self.scheduler.select_warm(model, &candidates);
        candidates.clear();
        self.warm_candidates_scratch = candidates;
        if let Some(candidate) = selected {
            return self.controller.assign_warm(candidate, now);
        }
        let memory_bytes = self.controller.action(action)?.memory_budget_bytes;
        match self.place_cold(action, model, memory_bytes) {
            Some(node) => self.controller.schedule_on(action, node, now),
            None => Err(PlatformError::ClusterSaturated {
                required_bytes: memory_bytes,
            }),
        }
    }

    /// Asks the placement policy for a node to host a new container of
    /// `action` (budget `memory_bytes`) serving `model`; `None` when no
    /// node has room.
    fn place_cold(
        &mut self,
        action: &ActionName,
        model: &ModelId,
        memory_bytes: u64,
    ) -> Option<usize> {
        let mut snapshots = std::mem::take(&mut self.node_snapshots_scratch);
        self.controller.node_snapshots_into(action, &mut snapshots);
        let placed = self.scheduler.place(&PlacementContext {
            model,
            memory_bytes,
            nodes: &snapshots,
            node_enclave_bytes: &self.node_enclave_bytes,
        });
        snapshots.clear();
        self.node_snapshots_scratch = snapshots;
        placed
    }

    /// Pre-warms `count` hot sandboxes for `model` (used by the single-node
    /// throughput sweep, which warms up the system before measuring).
    pub fn prewarm(&mut self, model: &ModelId, user_index: usize, count: usize) {
        let user = self.user(user_index);
        let action = self.router.route(model, SimTime::ZERO);
        for _ in 0..count {
            let outcome = match self.schedule_request(&action, model, SimTime::ZERO) {
                Ok(outcome) => outcome,
                Err(_) => break,
            };
            if outcome.is_cold_start() {
                // Not request-driven: keeps the cold-start ledger closed
                // (cold_starts == cold_dispatches + auxiliary_cold_starts).
                self.ledger.auxiliary_cold_starts += 1;
            }
            let sandbox_id = outcome.sandbox();
            let spec_memory = self
                .controller
                .sandbox(sandbox_id)
                .expect("just scheduled")
                .memory_bytes;
            let node = self
                .controller
                .sandbox(sandbox_id)
                .expect("just scheduled")
                .node;
            self.controller.sandbox_ready(sandbox_id).expect("exists");
            self.controller
                .invocation_finished(sandbox_id, SimTime::ZERO)
                .expect("assigned at schedule time");
            let mut state = SandboxSimState::new(
                node,
                action.clone(),
                self.config.tcs_per_container,
                spec_memory,
            );
            state.ready = true;
            state.enclave_ready = self.config.strategy.reuses_enclave()
                || self.config.strategy == ServingStrategy::Untrusted;
            state.cached_keys = Some((user, model.clone()));
            state.loaded_model = Some(model.clone());
            for slot in state.slot_models.iter_mut() {
                *slot = Some(model.clone());
            }
            // A warm-reused iteration re-warms the container created by an
            // earlier one (with a free slot it is the MRU warm candidate):
            // its enclave bytes are already on the node's books, and
            // replacing its state must not count them again — phantom EPC
            // commitment would read as pressure to the warm-value lifecycle
            // policy and inflate the pricing model's pressure factor.
            if outcome.is_cold_start() {
                self.node_enclave_bytes[node] += state.enclave_bytes;
            }
            self.sandbox_state.insert(sandbox_id, state);
        }
        self.router
            .complete(model, &action, SimTime::ZERO, SimDuration::ZERO, "hot");
    }

    fn epc_pressure(&self, node: usize) -> f64 {
        let used = self.node_enclave_bytes[node] as f64;
        let capacity = self.config.epc_bytes as f64;
        if used <= capacity {
            1.0
        } else {
            // Linear penalty per overcommit ratio, capped at 4x: the paper's
            // SGX1 measurements (Fig. 11b) show heavy but bounded degradation
            // when the working set exceeds the 128 MB EPC.
            (1.0 + 2.0 * (used - capacity) / capacity).min(4.0)
        }
    }

    fn cpu_factor(&self, node: usize) -> f64 {
        let active = self.node_active_exec[node] as f64;
        let cores = self.config.cores_per_node as f64;
        (active / cores).max(1.0)
    }

    fn price_stage(&self, stage: ServingStage, profile: &ModelProfile, node: usize) -> SimDuration {
        let costs = if self.config.strategy == ServingStrategy::Untrusted {
            profile.untrusted
        } else {
            profile.sgx2
        };
        let epc = self.epc_pressure(node);
        match stage {
            ServingStage::EnclaveInit => {
                // Scale the calibrated per-model enclave-init time by the
                // concurrent-initialization penalty of Fig. 15 (measured up
                // to 16 concurrent launches; cap there).
                let concurrent = self.node_enclave_inits[node].clamp(1, 16);
                let penalty =
                    1.0 + self.cost_model.init_concurrency_penalty * (concurrent - 1) as f64;
                costs.enclave_init.mul_f64(penalty * epc)
            }
            ServingStage::KeyFetch => costs.key_fetch,
            ServingStage::ModelLoad => costs.model_load.mul_f64(epc),
            // Decryption is folded into the calibrated model-load figure.
            ServingStage::ModelDecrypt => SimDuration::ZERO,
            ServingStage::RuntimeInit => costs.runtime_init.mul_f64(epc),
            ServingStage::RequestDecrypt | ServingStage::ResultEncrypt => costs.request_crypto / 2,
            ServingStage::ModelExec => costs
                .model_exec
                .mul_f64(self.cpu_factor(node).max(1.0) * epc),
        }
    }

    /// Advances the busy-time integral to `now`.  Must run before any change
    /// to the `node_active_exec` counters so the integral charges the old
    /// occupancy level for the elapsed interval.
    fn accrue_busy_time(&mut self, now: SimTime) {
        let active: usize = self.node_active_exec.iter().sum();
        self.busy_exec_integral +=
            active as f64 * now.duration_since(self.busy_accrued_at).as_secs_f64();
        self.busy_accrued_at = now;
    }

    fn start_invocation(
        &mut self,
        sandbox_id: SandboxId,
        request: SimRequest,
        extras: Vec<SimRequest>,
        now: SimTime,
    ) {
        let profile = *self
            .profiles
            .get(&request.model)
            .expect("model registered with the simulation");
        let user = self.user(request.user_index);
        let action = self
            .controller
            .sandbox(sandbox_id)
            .expect("sandbox exists")
            .action
            .clone();
        let state = self
            .sandbox_state
            .get_mut(&sandbox_id)
            .expect("state tracked for every sandbox");
        let slot = state.free_slot().expect("controller enforces concurrency");
        let node = state.node;

        let warmth = SandboxWarmth {
            enclave_ready: state.enclave_ready,
            cached_keys: state.cached_keys.clone(),
            loaded_model: state.loaded_model.clone(),
            slot_runtime_ready: state.slot_models[slot].as_ref() == Some(&request.model),
        };
        let stages = self
            .config
            .strategy
            .stages_for(&warmth, user, &request.model);
        let path = InvocationReport::classify(&stages);
        let enclave_was_initialized = stages.contains(&ServingStage::EnclaveInit);

        // Update sandbox state to reflect what the invocation leaves behind.
        state.slot_busy[slot] = true;
        state.slot_models[slot] = Some(request.model.clone());
        if self.config.strategy.reuses_enclave()
            || self.config.strategy == ServingStrategy::Untrusted
        {
            state.enclave_ready = true;
        }
        state.cached_keys = Some((user, request.model.clone()));
        state.loaded_model = if self.config.strategy.reuses_model() {
            Some(request.model.clone())
        } else {
            None
        };

        // Node-level counters used by the pricing model.
        self.accrue_busy_time(now);
        self.node_active_exec[node] += 1;
        if enclave_was_initialized {
            self.node_enclave_inits[node] += 1;
        }

        let batch_size = 1 + extras.len();
        let duration: SimDuration = if batch_size == 1 {
            // The exact pre-batching fold: batching-off runs take this path
            // for every invocation, with no float round-trips to drift the
            // pinned goldens.
            stages.iter().fold(SimDuration::ZERO, |acc, stage| {
                acc + self.price_stage(*stage, &profile, node)
            })
        } else {
            debug_assert!(
                extras
                    .iter()
                    .all(|e| e.model == request.model && e.user_index == request.user_index),
                "batches never mix users or models"
            );
            self.ledger.batches_formed += 1;
            self.ledger.batched_requests += batch_size as u64;
            self.ledger.max_batch = self.ledger.max_batch.max(batch_size);
            // Shared stages are paid once for the whole batch; the per-item
            // stages scale: request crypto linearly, model execution on the
            // calibrated sub-linear batch curve (with the same CPU/EPC
            // contention factors a solo execution would see).
            let costs = if self.config.strategy == ServingStrategy::Untrusted {
                profile.untrusted
            } else {
                profile.sgx2
            };
            stages.iter().fold(SimDuration::ZERO, |acc, stage| {
                acc + match stage {
                    ServingStage::RequestDecrypt | ServingStage::ResultEncrypt => {
                        (costs.request_crypto / 2) * batch_size as u64
                    }
                    ServingStage::ModelExec => costs
                        .batched(batch_size)
                        .mul_f64(self.cpu_factor(node) * self.epc_pressure(node)),
                    other => self.price_stage(*other, &profile, node),
                }
            })
        };

        self.queue.push(
            now + duration,
            Event::InvocationDone(Invocation {
                sandbox: sandbox_id,
                slot,
                node,
                action,
                request,
                extra: extras,
                path,
                enclave_was_initialized,
                started: now,
            }),
        );
    }

    /// Hands a successfully scheduled request to its sandbox: cold starts
    /// and still-starting containers park it in the sandbox's waiting queue,
    /// ready containers start executing immediately.  `extras` are requests
    /// batched behind the head — callers only coalesce onto ready warm
    /// containers, so extras never reach the parking branches.
    fn dispatch(
        &mut self,
        outcome: &ScheduleOutcome,
        mut request: SimRequest,
        extras: Vec<SimRequest>,
        now: SimTime,
    ) {
        let sandbox_id = outcome.sandbox();
        let sandbox = self.controller.sandbox(sandbox_id).expect("scheduled");
        let node = sandbox.node;
        let action = sandbox.action.clone();
        let memory = sandbox.memory_bytes;
        let is_cold = outcome.is_cold_start();
        request.cold_start = is_cold;
        // Warm-hit ledger: every dispatch is exactly one of a warm hit or a
        // cold start, so Σ per-model warm hits + cold dispatches == dispatched
        // by construction (asserted corpus-wide).  Batched extras ride a warm
        // container by construction: they dispatch as warm hits, while only
        // the head can pay (and count) the cold start its container needed.
        self.ledger.dispatched += 1 + extras.len() as u64;
        if is_cold {
            debug_assert!(extras.is_empty(), "batches only form on warm dispatches");
            self.ledger.cold_dispatches += 1;
        } else {
            *self
                .ledger
                .per_model_warm_hits
                .entry(request.model.clone())
                .or_insert(0) += 1 + extras.len() as u64;
        }
        let entry = self.sandbox_state.entry(sandbox_id).or_insert_with(|| {
            SandboxSimState::new(node, action, self.config.tcs_per_container, memory)
        });
        if is_cold {
            self.node_enclave_bytes[node] += entry.enclave_bytes;
            let user_index = request.user_index;
            entry.waiting.push_back(request);
            let boot_done = now + self.config.sandbox_cold_start;
            if self.keyservice.enabled() {
                // The freshly booted enclave attests to the KeyService pool
                // and fetches its keys before serving: the sandbox is ready
                // only once its provision drains the user's home replica —
                // cold-path latency is now a function of KeyService load.
                // On a total trust-plane outage the sandbox never becomes
                // ready and its parked requests are counted `dropped` at the
                // horizon — conservation, not liveness.
                if let Some((provisioned, wait)) =
                    self.keyservice.provision(sandbox_id, user_index, boot_done)
                {
                    self.ledger.provisioned_keys += 1;
                    self.ledger.keyservice_wait += wait;
                    self.queue
                        .push(provisioned, Event::SandboxReady(sandbox_id));
                }
            } else {
                self.queue.push(boot_done, Event::SandboxReady(sandbox_id));
            }
        } else if !entry.ready {
            // Assigned to a container that is still starting.
            debug_assert!(extras.is_empty(), "batches only form on ready containers");
            entry.waiting.push_back(request);
        } else {
            self.start_invocation(sandbox_id, request, extras, now);
        }
    }

    fn handle_arrival(&mut self, request: SimRequest, now: SimTime) {
        // Route exactly once, at admission.  Routers are stateful (FnPacker
        // counts one pending response per routed request, balanced by the
        // one `complete()` a finished request fires — or by the `cancel()`
        // an admission rejection fires), so a queued request must carry its
        // routed action through retries instead of being routed again.
        let action = self.router.route(&request.model, now);
        debug_assert!(
            self.action_models
                .get(&action)
                .is_some_and(|models| models.contains(&request.model)),
            "router chose an endpoint that does not serve the model"
        );
        match self.schedule_request(&action, &request.model, now) {
            Ok(outcome) => {
                // A request the cluster can serve right now is admitted
                // without consulting the admission policy: no policy can
                // reject while a free warm slot (or room for a fresh
                // container) exists.
                self.ledger.admitted += 1;
                self.dispatch(&outcome, request, Vec::new(), now);
            }
            Err(_) => match self.admission_verdict(&request, now) {
                AdmissionVerdict::Admit => {
                    // Cluster saturated: queue and retry when capacity
                    // frees up (the pre-admission-control behavior).
                    self.ledger.admitted += 1;
                    *self
                        .saturated_action_counts
                        .entry(action.clone())
                        .or_insert(0) += 1;
                    self.saturated.push_back((action, request));
                }
                AdmissionVerdict::Reject => {
                    // Never admitted: unwind the router's pending slot and
                    // leave no other trace — no latency sample, no
                    // per-model totals, no GB·s.
                    self.ledger.rejected += 1;
                    self.router.cancel(&request.model, &action);
                }
                AdmissionVerdict::AdmitShedding { victim } => {
                    self.shed_queued(victim);
                    self.ledger.admitted += 1;
                    *self
                        .saturated_action_counts
                        .entry(action.clone())
                        .or_insert(0) += 1;
                    self.saturated.push_back((action, request));
                }
            },
        }
        self.record_cluster_state(now);
    }

    /// Consults the admission policy for one arrival the cluster cannot
    /// serve immediately, assembling the placement context it decides on.
    fn admission_verdict(&mut self, request: &SimRequest, now: SimTime) -> AdmissionVerdict {
        // Reuses a persistent scratch vector for the queue snapshot: the
        // consult runs once per arrival under saturation, and rebuilding the
        // snapshot in place keeps the allocator out of the admission path.
        let mut queued = std::mem::take(&mut self.admission_queued_scratch);
        queued.clear();
        if self.admission.wants_queue_snapshot() {
            queued.extend(self.saturated.iter().map(|(_, queued)| QueuedRequest {
                tier: queued.tier,
                deadline: queued.deadline,
                submitted: queued.submitted,
            }));
        }
        // Mean busy-slot time one request consumes, from the busy-time
        // integral (brought forward to `now` read-only — accruing here
        // would be harmless but this keeps the consult side-effect free).
        let busy_slots: usize = self.node_active_exec.iter().sum();
        let busy_integral_now = self.busy_exec_integral
            + busy_slots as f64 * now.duration_since(self.busy_accrued_at).as_secs_f64();
        let mean_service = if self.ledger.completed > 0 {
            SimDuration::from_secs_f64(busy_integral_now / self.ledger.completed as f64)
        } else {
            SimDuration::ZERO
        };
        let ctx = AdmissionContext {
            now,
            tier: request.tier,
            deadline: request.deadline,
            queued: &queued,
            busy_slots,
            execution_slots: self.controller.active_node_count() * self.slots_per_node,
            mean_service,
        };
        let verdict = self.admission.decide(&ctx);
        self.admission_queued_scratch = queued;
        verdict
    }

    /// Applies a shed verdict: drops the queued request at `victim` (an
    /// index into the saturated queue, oldest first).  The victim was
    /// admitted, so it counts as `dropped` — conservation holds — and its
    /// router pending slot is released without a completion record.
    fn shed_queued(&mut self, victim: usize) {
        let Some((action, request)) = self.saturated.remove(victim) else {
            debug_assert!(
                false,
                "admission policy shed a queue position that does not exist"
            );
            return;
        };
        Self::forget_saturated_entry(&mut self.saturated_action_counts, &action);
        self.ledger.dropped += 1;
        self.ledger.shed += 1;
        self.router.cancel(&request.model, &action);
    }

    /// Decrements the saturated-queue count of `action` (removing the entry
    /// at zero) after one of its requests left the queue.
    fn forget_saturated_entry(counts: &mut FxHashMap<ActionName, usize>, action: &ActionName) {
        let count = counts
            .get_mut(action)
            .expect("saturated-queue counts out of sync with the queue");
        *count -= 1;
        if *count == 0 {
            counts.remove(action);
        }
    }

    /// Drains the cluster-saturated queue into whatever capacity is free
    /// right now — called after *every* event that can free capacity
    /// (invocation completions, keep-alive evictions, drain reclaims, node
    /// provisioning).  One pass tries each queued request once, oldest
    /// first: requests that fit are dispatched, the rest keep their arrival
    /// order, so an unschedulable head (say, a model whose action cannot
    /// fit while another action's idle containers hold the memory) never
    /// blocks requests behind it and service under saturation stays FIFO.
    /// Requests keep the action they were routed to at admission — see
    /// [`ClusterSimulation::handle_arrival`].  For the shipped schedulers a
    /// placement failure depends only on the action's memory budget, so
    /// actions that already failed in this pass are skipped instead of
    /// re-tried, and the pass short-circuits once everything still pending
    /// targets a failed action — without that exit, a sustained burst
    /// would walk the whole (possibly thousands deep) queue on every
    /// single completion just to rediscover that nothing fits.
    fn retry_saturated(&mut self, now: SimTime) {
        // The pass runs after nearly every event, so its working buffers are
        // persistent scratch: `pending` drains into `kept`, `kept` becomes
        // the new saturated queue, and the drained deque is parked for the
        // next pass — steady state allocates nothing.
        let mut failed_actions = std::mem::take(&mut self.retry_failed_actions);
        failed_actions.clear();
        let mut pending = std::mem::take(&mut self.saturated);
        let mut counts = std::mem::take(&mut self.saturated_action_counts);
        let mut kept = std::mem::take(&mut self.retry_kept);
        kept.clear();
        debug_assert_eq!(
            counts.values().sum::<usize>(),
            pending.len(),
            "saturated-queue counts out of sync with the queue"
        );
        // Entries still in `pending` whose action has not failed this pass.
        // The old exit condition — "everything still pending targets a
        // failed action" — is exactly `unfailed_remaining == 0`, but the
        // counter costs O(1) per update where re-deriving it walked the
        // remaining queue once per newly failed action.  `counts` holds the
        // per-action totals to subtract when an action fails: `kept` only
        // ever receives failed-action entries, so at the moment an action
        // first fails its whole count (minus the popped head, which is
        // handled by the subtraction including it) is still in `pending`.
        let mut unfailed_remaining = pending.len();
        while unfailed_remaining > 0 {
            let Some((action, request)) = pending.pop_front() else {
                break;
            };
            if failed_actions.contains(&action) {
                kept.push_back((action, request));
                continue;
            }
            match self.schedule_request(&action, &request.model, now) {
                Ok(outcome) => {
                    // Batched execution (§V): a warm, ready container absorbs
                    // compatible queued peers — same action, model, and user —
                    // behind the head, up to the configured window.  Only here:
                    // the saturated queue is the one place compatible requests
                    // observably wait together, and a warm-ready head is the
                    // one dispatch that skips the controller queue, so extras
                    // piggyback without holding a controller slot.
                    let extras = if self.config.batching.enabled()
                        && !outcome.is_cold_start()
                        && self
                            .sandbox_state
                            .get(&outcome.sandbox())
                            .is_some_and(|state| state.ready)
                    {
                        Self::absorb_batch_peers(
                            &mut pending,
                            &action,
                            &request,
                            self.config.batching.window - 1,
                        )
                    } else {
                        Vec::new()
                    };
                    unfailed_remaining -= 1 + extras.len();
                    for _ in 0..=extras.len() {
                        Self::forget_saturated_entry(&mut counts, &action);
                    }
                    self.dispatch(&outcome, request, extras, now);
                }
                Err(_) => {
                    // The head and every still-pending request of this
                    // action stop counting; the entries themselves stay in
                    // the queue (and in `counts`) for the next pass.
                    unfailed_remaining -= counts.get(&action).copied().unwrap_or(0);
                    failed_actions.push(action.clone());
                    kept.push_back((action, request));
                }
            }
        }
        // Reassemble as kept-then-pending by *prepending* the kept entries:
        // `kept` holds only the popped failed-action entries (usually one —
        // the head that could not fit) while `pending` still holds the rest
        // of a possibly tens-of-thousands-deep queue, so prepending costs
        // O(popped) where `kept.append(&mut pending)` memmoved the whole
        // queue on every pass and kept saturated drains quadratic.
        while let Some(entry) = kept.pop_back() {
            pending.push_front(entry);
        }
        self.saturated = pending;
        self.saturated_action_counts = counts;
        self.retry_kept = kept;
        self.retry_failed_actions = failed_actions;
    }

    /// Pulls up to `limit` requests compatible with `head` — same routed
    /// action, same model, same user — out of the pending retry queue,
    /// preserving the relative order of everything left behind.  SeMIRT
    /// refuses cross-user and cross-model batches (§V), so compatibility is
    /// exact equality on the ⟨user, model⟩ pair; the action check keeps the
    /// batch on the endpoint the router already charged for each request.
    fn absorb_batch_peers(
        pending: &mut VecDeque<(ActionName, SimRequest)>,
        action: &ActionName,
        head: &SimRequest,
        limit: usize,
    ) -> Vec<SimRequest> {
        let mut extras = Vec::new();
        let mut index = 0;
        while extras.len() < limit && index < pending.len() {
            let (queued_action, queued) = &pending[index];
            if queued_action == action
                && queued.model == head.model
                && queued.user_index == head.user_index
            {
                let (_, request) = pending.remove(index).expect("index is in bounds");
                extras.push(request);
            } else {
                index += 1;
            }
        }
        extras
    }

    fn record_cluster_state(&mut self, now: SimTime) {
        self.ledger.peak_sandboxes = self
            .ledger
            .peak_sandboxes
            .max(self.controller.sandbox_count());
        self.metering.record_cluster_state(
            now,
            self.controller.committed_memory_bytes(),
            self.controller.sandbox_count(),
            self.controller.serving_sandbox_count(),
        );
    }

    fn handle_done(&mut self, done: Invocation, now: SimTime) {
        let node = done.node;
        let memory_budget_bytes = self
            .controller
            .sandbox(done.sandbox)
            .expect("invocation was started")
            .memory_bytes;
        self.controller
            .invocation_finished(done.sandbox, now)
            .expect("invocation was started");
        // Bill the activation: execution time × memory budget, the
        // per-action GB·s split of Fig. 14.
        let record = ActivationRecord {
            id: ActivationId(self.next_activation),
            action: done.action.clone(),
            submitted_at: done.request.submitted,
            started_at: done.started,
            completed_at: now,
            cold_start: done.request.cold_start,
            memory_budget_bytes,
        };
        self.next_activation += 1;
        self.metering.record_activation(&record);
        self.accrue_busy_time(now);
        self.node_active_exec[node] = self.node_active_exec[node].saturating_sub(1);
        if done.enclave_was_initialized {
            self.node_enclave_inits[node] = self.node_enclave_inits[node].saturating_sub(1);
        }
        if let Some(state) = self.sandbox_state.get_mut(&done.sandbox) {
            state.slot_busy[done.slot] = false;
            if !self.config.strategy.reuses_enclave()
                && self.config.strategy != ServingStrategy::Untrusted
            {
                state.enclave_ready = false;
                state.cached_keys = None;
                state.loaded_model = None;
                for slot_model in state.slot_models.iter_mut() {
                    *slot_model = None;
                }
            }
        }

        // Per-item completion accounting: a batch occupies one execution
        // slot and bills one activation (the amortization §V measures), but
        // every rider is still an independent request — its own latency
        // sample, path count, completed tick, router completion, and session
        // advance — so conservation and the latency ledgers hold per item.
        let (action, path) = (done.action, done.path);
        for request in std::iter::once(done.request).chain(done.extra) {
            let latency = now.duration_since(request.submitted);
            let ledger = &mut self.ledger;
            ledger.latency.record(latency);
            ledger
                .per_model_latency
                .entry(request.model.clone())
                .or_default()
                .record(latency);
            ledger.latency_series.record(now, latency.as_secs_f64());
            *ledger.path_counts.entry(path).or_insert(0) += 1;
            ledger.completed += 1;
            self.router
                .complete(&request.model, &action, now, latency, path.label());

            // Session bookkeeping: record the per-query latency and issue the
            // next query of the session immediately.
            if let Some(session_index) = request.session {
                let session = &mut self.sessions[session_index];
                ledger.session_latencies.push((
                    session.name.clone(),
                    request.model.clone(),
                    latency,
                ));
                session.advance();
                if let Some(next_model) = session.next_model().cloned() {
                    let user_index = session.user_index;
                    self.queue.push(
                        now,
                        Event::Arrival(SimRequest {
                            model: next_model,
                            user_index,
                            submitted: now,
                            session: Some(session_index),
                            tier: Tier::default(),
                            deadline: None,
                            cold_start: false,
                        }),
                    );
                }
            }
        }

        // Retry requests that were blocked on cluster capacity.  This must
        // drain as many as now fit — not just one — because this completion
        // may be the last one: any request still queued afterwards would
        // otherwise wait for a retry signal that never comes.
        self.retry_saturated(now);
        // A completion on a draining node may have been the node's last
        // in-flight work: run an eviction pass so the now-idle container is
        // reclaimed immediately and the node can retire.
        if self.controller.node_state(node) == Some(sesemi_platform::NodeState::Draining) {
            self.handle_eviction(now);
        }
        self.record_cluster_state(now);
    }

    fn handle_sandbox_ready(&mut self, sandbox_id: SandboxId, now: SimTime) {
        self.keyservice.complete(sandbox_id);
        if self.controller.sandbox_ready(sandbox_id).is_err() {
            return; // evicted before it became ready
        }
        if let Some(state) = self.sandbox_state.get_mut(&sandbox_id) {
            state.ready = true;
            let waiting: Vec<SimRequest> = state.waiting.drain(..).collect();
            for request in waiting {
                self.start_invocation(sandbox_id, request, Vec::new(), now);
            }
        }
    }

    /// Drops the simulator-side state of evicted sandboxes and returns any
    /// requests that were still parked in their waiting queues, rescued
    /// under their admission-time action (the caller re-queues them via
    /// [`ClusterSimulation::requeue_rescued`]).
    ///
    /// The waiting-queue rescue is cold on every fault-free run: parked
    /// requests hold a controller slot (assigned at schedule time), so a
    /// sandbox with waiting requests is never idle and both `reclaim_sandboxes`
    /// and `drain_node` reclaim only idle sandboxes.  Failure injection is
    /// what reaches it — `crash_node` / `kill_sandbox` reclaim sandboxes
    /// regardless of state, and their parked requests degrade to re-queued
    /// (later completed or counted `dropped`) instead of breaking the
    /// conservation invariant.  `requeued_waiting` counts the rescues so
    /// tests can prove the path ran (or stayed cold).
    fn cleanup_evicted(&mut self, evicted: &[SandboxId]) -> Vec<(ActionName, SimRequest)> {
        let mut rescued = Vec::new();
        for id in evicted {
            self.keyservice.complete(*id);
            if let Some(mut state) = self.sandbox_state.remove(id) {
                self.node_enclave_bytes[state.node] =
                    self.node_enclave_bytes[state.node].saturating_sub(state.enclave_bytes);
                while let Some(request) = state.waiting.pop_front() {
                    self.ledger.requeued_waiting += 1;
                    rescued.push((state.action.clone(), request));
                }
            }
        }
        rescued
    }

    /// Re-inserts rescued requests at the *front* of the saturated queue in
    /// admission order: a rescued request was admitted (and scheduled) no
    /// later than anything now parked behind the full cluster, so service
    /// under saturation stays FIFO across a crash.  (Stable sort: equal
    /// submission times keep the deterministic rescue order.)
    fn requeue_rescued(&mut self, mut rescued: Vec<(ActionName, SimRequest)>) {
        rescued.sort_by_key(|(_, request)| request.submitted);
        for entry in rescued.into_iter().rev() {
            *self
                .saturated_action_counts
                .entry(entry.0.clone())
                .or_insert(0) += 1;
            self.saturated.push_front(entry);
        }
    }

    /// Shared forced-kill accounting for failure injection: cancels the
    /// in-flight invocations of the killed sandboxes (their completion
    /// events are extracted from the queue and the requests re-queued onto
    /// the saturated queue under their admission-time action), reverses the
    /// per-node execution counters those invocations held, and re-queues
    /// any requests parked in the victims' waiting queues via
    /// [`ClusterSimulation::cleanup_evicted`].  The caller has already
    /// reclaimed the sandboxes in the controller.
    fn kill_sandboxes(&mut self, killed: &[SandboxId], now: SimTime) {
        if killed.is_empty() {
            return;
        }
        self.accrue_busy_time(now);
        let cancelled = self.queue.extract(|_, event| {
            matches!(event, Event::InvocationDone(done) if killed.contains(&done.sandbox))
        });
        let mut rescued: Vec<(ActionName, SimRequest)> = Vec::new();
        for (_, event) in cancelled {
            if let Event::InvocationDone(done) = event {
                let node = done.node;
                self.node_active_exec[node] = self.node_active_exec[node].saturating_sub(1);
                if done.enclave_was_initialized {
                    self.node_enclave_inits[node] = self.node_enclave_inits[node].saturating_sub(1);
                }
                // Every request riding the killed batch is rescued — head
                // and extras alike — so conservation survives the fault.
                for request in std::iter::once(done.request).chain(done.extra) {
                    self.ledger.requeued_inflight += 1;
                    rescued.push((done.action.clone(), request));
                }
            }
        }
        rescued.extend(self.cleanup_evicted(killed));
        self.requeue_rescued(rescued);
    }

    /// Failure injection: the node dies now.  Every container it hosts is
    /// reclaimed (busy or not), their in-flight and parked requests are
    /// re-queued, the node retires immediately (membership billing stops),
    /// the scheduler is told the membership changed, and the saturated
    /// queue is retried against the surviving capacity.  The controller is
    /// the single authority on whether the target can crash: absent and
    /// already-retired nodes are no-ops, because fault plans are data and
    /// may race with autoscaling.
    fn handle_node_crash(&mut self, node: usize, now: SimTime) {
        let Ok(killed) = self.controller.crash_node(node) else {
            return;
        };
        self.ledger.node_crashes += 1;
        self.kill_sandboxes(&killed, now);
        self.scheduler
            .on_membership_change(&self.controller.active_nodes());
        self.record_node_membership(now);
        // An elastic pool must never settle below its configured floor,
        // but the policy only scales out on sustained saturation — which
        // light traffic never produces.  Provision replacements for the
        // shortfall immediately (they arrive after the usual delay).
        // Draining nodes do not count toward the floor: they are already
        // committed to retiring, so a crash overlapping a scale-in drain
        // still leaves the pool at `min_nodes` once the drain completes.
        if let Some(mut scaler) = self.autoscaler.take() {
            let staying = self.controller.active_node_count() + scaler.pending_nodes();
            for _ in staying..scaler.config().min_nodes {
                self.ledger.scale_out_events += 1;
                scaler.node_requested();
                self.queue.push(
                    now + scaler.config().node_provision_delay,
                    Event::NodeProvisioned,
                );
            }
            self.autoscaler = Some(scaler);
        }
        self.retry_saturated(now);
        self.record_cluster_state(now);
    }

    /// Failure injection: every container currently holding `model`'s state
    /// is killed (the processes die; their nodes survive).  Victims are
    /// reclaimed in sandbox-id order for determinism; their requests are
    /// re-queued and immediately retried — typically cold-starting fresh
    /// containers on the same nodes.
    fn handle_container_kill(&mut self, model: &ModelId, now: SimTime) {
        let mut victims: Vec<SandboxId> = self
            .sandbox_state
            .iter()
            .filter(|(_, state)| state.hosts_model(model))
            .map(|(id, _)| *id)
            .collect();
        victims.sort_unstable();
        if victims.is_empty() {
            return;
        }
        self.ledger.containers_killed += victims.len() as u64;
        for id in &victims {
            self.controller
                .kill_sandbox(*id)
                .expect("simulator state tracks only live sandboxes");
        }
        self.kill_sandboxes(&victims, now);
        self.retry_saturated(now);
        self.record_cluster_state(now);
    }

    /// Failure injection: a KeyService replica dies.  Provisions the victim
    /// was still serving re-resolve against a surviving peer — the affected
    /// sandboxes' pending `SandboxReady` events are pulled from the queue
    /// and re-scheduled at the failover replica's completion time (queueing
    /// from scratch at `now`, so a crash is pure added latency, never lost
    /// work).  With no survivor the sandboxes never become ready and their
    /// parked requests drain into `dropped` at the horizon.  The
    /// [`KeyServiceSim`] is the single authority on whether the target can
    /// crash: out-of-range and already-dead replicas are no-ops, as is any
    /// crash while provisioning is un-modeled.
    fn handle_keyservice_crash(&mut self, replica: usize, now: SimTime) {
        let Some(victims) = self.keyservice.crash(replica, now) else {
            return;
        };
        self.ledger.keyservice_crashes += 1;
        if !victims.is_empty() {
            let _ = self.queue.extract(|_, event| {
                matches!(event, Event::SandboxReady(sandbox)
                    if victims.iter().any(|(victim, _)| victim == sandbox))
            });
            for (sandbox, user_index) in victims {
                if let Some((provisioned, wait)) =
                    self.keyservice.provision(sandbox, user_index, now)
                {
                    self.ledger.keyservice_failovers += 1;
                    self.ledger.keyservice_wait += wait;
                    self.queue.push(provisioned, Event::SandboxReady(sandbox));
                }
            }
        }
        self.record_cluster_state(now);
    }

    /// Records the current provisioned membership (capacity bytes + node
    /// count) with the meter.  The single place the billing view of a
    /// membership change is defined — every add/retire goes through here.
    fn record_node_membership(&mut self, now: SimTime) {
        self.metering.record_node_capacity(
            now,
            self.controller.provisioned_memory_bytes(),
            self.controller.provisioned_node_count(),
        );
    }

    /// Retires draining nodes that have finished emptying and tells the
    /// scheduler when the membership changed.
    fn retire_drained_nodes(&mut self, now: SimTime) {
        let drained = self.controller.drained_empty_nodes();
        if drained.is_empty() {
            return;
        }
        for node in drained {
            self.controller
                .remove_node(node)
                .expect("drained empty node is removable");
        }
        self.record_node_membership(now);
    }

    /// One keep-alive/pressure eviction pass, decided by the configured
    /// [`LifecyclePolicy`]: the controller exposes the idle-candidate view,
    /// the simulator annotates it with each container's model and the
    /// scheduler's [`Scheduler::warm_value`] locality score, the policy
    /// picks, and the controller applies the verdict.
    fn handle_eviction(&mut self, now: SimTime) {
        let candidates = self.controller.idle_candidates(now);
        let views: Vec<EvictionCandidate> = candidates
            .into_iter()
            .map(|candidate| {
                let state = self.sandbox_state.get(&candidate.sandbox);
                let model = state.and_then(|s| s.warm_model().cloned());
                let warm_value = model
                    .as_ref()
                    .map_or(0.5, |m| self.scheduler.warm_value(m, candidate.node));
                EvictionCandidate {
                    sandbox: candidate.sandbox,
                    node: candidate.node,
                    model,
                    last_used: candidate.last_used,
                    expired: candidate.expired,
                    node_draining: candidate.node_draining,
                    enclave_bytes: state.map_or(0, |s| s.enclave_bytes),
                    warm_value,
                }
            })
            .collect();
        let verdicts = {
            let ctx = EvictionContext {
                now,
                keep_alive: self.config.keep_alive,
                candidates: &views,
                node_enclave_bytes: &self.node_enclave_bytes,
                epc_bytes: self.config.epc_bytes,
            };
            let mut verdicts = self.lifecycle.select_evictions(&ctx);
            // Sorted and deduplicated by construction, so no policy can leak
            // iteration-order drift into the determinism guard.  The sort
            // key includes the reason: if a policy names one sandbox under
            // two reasons, the `EvictionReason` order picks the survivor
            // deterministically (not whatever the unstable sort left first).
            verdicts.sort_unstable_by_key(|verdict| (verdict.sandbox, verdict.reason));
            verdicts.dedup_by_key(|verdict| verdict.sandbox);
            verdicts
        };
        let mut evicted = Vec::with_capacity(verdicts.len());
        for verdict in &verdicts {
            match verdict.reason {
                EvictionReason::Expired => self.ledger.evictions_expired += 1,
                EvictionReason::Pressure => self.ledger.evictions_pressure += 1,
                EvictionReason::Drain => self.ledger.evictions_drain += 1,
            }
            evicted.push(verdict.sandbox);
        }
        self.controller
            .reclaim_sandboxes(&evicted)
            .expect("lifecycle policies evict only live idle candidates");
        let freed = !evicted.is_empty();
        let rescued = self.cleanup_evicted(&evicted);
        self.requeue_rescued(rescued);
        if self.autoscaler.is_some() {
            self.retire_drained_nodes(now);
        }
        if freed {
            // Capacity freed by eviction must retry the saturated queue just
            // like capacity freed by completion: a scale-in (or plain
            // keep-alive expiry) may be the only thing that ever frees
            // memory for requests queued behind a full cluster.
            self.retry_saturated(now);
        }
        self.record_cluster_state(now);
    }

    /// One autoscaler sampling tick: observe the cluster, apply the
    /// decision.
    fn handle_autoscale_tick(&mut self, now: SimTime) {
        let Some(mut scaler) = self.autoscaler.take() else {
            return;
        };
        // Mean concurrent executions since the previous tick, from the
        // busy-time integral (a zero-length window can only happen on a
        // duplicate tick and degenerates to the instantaneous count).
        self.accrue_busy_time(now);
        let window = now.duration_since(self.last_autoscale_tick).as_secs_f64();
        let mean_active_executions = if window > 0.0 {
            (self.busy_exec_integral - self.busy_integral_at_tick) / window
        } else {
            self.node_active_exec.iter().sum::<usize>() as f64
        };
        self.busy_integral_at_tick = self.busy_exec_integral;
        self.last_autoscale_tick = now;
        let schedulable_nodes = self.controller.active_node_count();
        let draining_nodes = self.controller.draining_node_count();
        let signals = ClusterSignals {
            queued: self.saturated.len(),
            mean_active_executions,
            execution_slots: (schedulable_nodes + draining_nodes) * self.slots_per_node,
            schedulable_nodes,
            draining_nodes,
        };
        match scaler.observe(&signals) {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleOut => {
                self.ledger.scale_out_events += 1;
                self.queue.push(
                    now + scaler.config().node_provision_delay,
                    Event::NodeProvisioned,
                );
            }
            ScaleDecision::ScaleIn => {
                self.ledger.scale_in_events += 1;
                self.drain_for_scale_in(now);
            }
        }
        self.autoscaler = Some(scaler);
        self.retire_drained_nodes(now);
        self.record_cluster_state(now);
    }

    /// Scale-in victim selection, decided by the configured
    /// [`LifecyclePolicy`] over per-node [`DrainCandidate`] views (load,
    /// sandboxes, and the warm-pool value the scheduler assigns to each
    /// node's idle containers).  The age-only default picks the least
    /// in-flight work; the warm-value policy retires the node whose warm
    /// pool the consistent-hash ring values least, and pre-migrates the
    /// victims' warm capacity onto surviving nodes before the drain evicts
    /// it.  The drained node's provisioned capacity stays billed until it
    /// retires.
    fn drain_for_scale_in(&mut self, now: SimTime) {
        let nodes = self.drain_candidates();
        let Some(verdict) = self
            .lifecycle
            .select_drain_victim(&DrainContext { nodes: &nodes })
        else {
            return;
        };
        let victim = verdict.victim;
        // Capture the victim's warm pool before the drain destroys it: one
        // (action, model) pair per distinct model its containers hold, in
        // model order for determinism.  Busy containers count too — they
        // finish their in-flight work and are then reclaimed by the drain,
        // so their warm state is just as forfeit as an idle container's.
        let migrations = if verdict.premigrate {
            self.victim_warm_models(victim)
        } else {
            Vec::new()
        };
        let evicted = self
            .controller
            .drain_node(victim)
            .expect("victim is active");
        self.ledger.evictions_drain += evicted.len() as u64;
        let rescued = self.cleanup_evicted(&evicted);
        self.requeue_rescued(rescued);
        self.scheduler
            .on_membership_change(&self.controller.active_nodes());
        // Pre-migration happens *after* the membership change so the ring
        // (and the snapshots' fits()) already exclude the draining victim.
        for (action, model) in migrations {
            self.premigrate(action, model, now);
        }
    }

    /// Per-node drain-candidate views for the lifecycle policy: load from
    /// the controller, warm-pool value from the scheduler's score of each
    /// container's model (summed in sandbox-id order).  Busy containers
    /// count toward the pool value — a drain forfeits their warm state too,
    /// as soon as their in-flight work finishes.
    fn drain_candidates(&self) -> Vec<DrainCandidate> {
        let memory_pressure = self.controller.node_memory_pressure();
        let mut nodes: Vec<DrainCandidate> = self
            .controller
            .active_node_loads()
            .into_iter()
            .map(|(node, sandboxes, active)| DrainCandidate {
                node,
                sandboxes,
                active_invocations: active,
                idle_containers: 0,
                warm_pool_value: 0.0,
                memory_pressure: memory_pressure.get(node).copied().unwrap_or(0.0),
            })
            .collect();
        let mut live: Vec<&sesemi_platform::Sandbox> = self.controller.sandboxes().collect();
        live.sort_unstable_by_key(|s| s.id);
        for sandbox in live {
            let Some(entry) = nodes.iter_mut().find(|n| n.node == sandbox.node) else {
                continue; // draining/retired host: not a drain candidate
            };
            if sandbox.is_idle() {
                entry.idle_containers += 1;
            }
            entry.warm_pool_value += self
                .sandbox_state
                .get(&sandbox.id)
                .and_then(|state| state.warm_model())
                .map_or(0.5, |model| self.scheduler.warm_value(model, sandbox.node));
        }
        nodes
    }

    /// The distinct `(action, model)` warm pairs a drain of `victim` would
    /// forfeit: one entry per model held by the victim's containers (busy
    /// ones included — their warm state dies when the drain reclaims them
    /// after their in-flight work), sorted by model id for determinism.
    fn victim_warm_models(&self, victim: usize) -> Vec<(ActionName, ModelId)> {
        let mut pairs: Vec<(ActionName, ModelId)> = self
            .controller
            .sandboxes()
            .filter(|s| s.node == victim)
            .filter_map(|s| {
                self.sandbox_state
                    .get(&s.id)
                    .and_then(|state| state.warm_model())
                    .map(|model| (s.action.clone(), model.clone()))
            })
            .collect();
        pairs.sort_unstable_by(|a, b| {
            (a.1.as_str(), a.0.as_str()).cmp(&(b.1.as_str(), b.0.as_str()))
        });
        pairs.dedup();
        pairs
    }

    /// Pre-migrates one container of warm capacity for `model`: the
    /// scheduler places a replacement on a surviving node, and the container
    /// is warmed proactively during its boot window — by the time it is
    /// ready, its enclave is launched and the model loaded (the strategies
    /// that reuse that state keep it; keys stay per-user and are fetched on
    /// first use).  Skipped silently when no surviving node has the memory —
    /// pre-migration is an optimisation, never a correctness requirement.
    fn premigrate(&mut self, action: ActionName, model: ModelId, now: SimTime) {
        let Ok(spec) = self.controller.action(&action) else {
            return;
        };
        let memory_bytes = spec.memory_budget_bytes;
        let Some(node) = self.place_cold(&action, &model, memory_bytes) else {
            return;
        };
        let Ok(outcome) = self.controller.schedule_on(&action, node, now) else {
            return;
        };
        let sandbox_id = outcome.sandbox();
        self.controller
            .invocation_finished(sandbox_id, now)
            .expect("assigned at schedule time");
        let spec_memory = self
            .controller
            .sandbox(sandbox_id)
            .expect("just scheduled")
            .memory_bytes;
        let mut state =
            SandboxSimState::new(node, action, self.config.tcs_per_container, spec_memory);
        state.enclave_ready = self.config.strategy.reuses_enclave()
            || self.config.strategy == ServingStrategy::Untrusted;
        state.loaded_model = if self.config.strategy.reuses_model() {
            Some(model)
        } else {
            None
        };
        self.node_enclave_bytes[node] += state.enclave_bytes;
        self.sandbox_state.insert(sandbox_id, state);
        self.queue.push(
            now + self.config.sandbox_cold_start,
            Event::SandboxReady(sandbox_id),
        );
        self.ledger.premigrated += 1;
        self.ledger.auxiliary_cold_starts += 1;
    }

    /// A node requested by the autoscaler joins the pool.
    fn handle_node_provisioned(&mut self, now: SimTime) {
        let node = self.controller.add_node();
        if let Some(scaler) = self.autoscaler.as_mut() {
            scaler.node_provisioned();
        }
        // Grow the per-node bookkeeping to cover the new id.
        while self.node_active_exec.len() <= node {
            self.node_active_exec.push(0);
            self.node_enclave_bytes.push(0);
            self.node_enclave_inits.push(0);
        }
        self.scheduler
            .on_membership_change(&self.controller.active_nodes());
        self.ledger.peak_nodes = self
            .ledger
            .peak_nodes
            .max(self.controller.provisioned_node_count());
        self.record_node_membership(now);
        // Fresh capacity: admit whatever was queued behind the full pool.
        self.retry_saturated(now);
        self.record_cluster_state(now);
    }

    /// The next event in delivery order: the queue's head or the earliest
    /// trace batch's front arrival, whichever comes first by (time,
    /// insertion sequence).
    fn next_event(&mut self) -> Option<(SimTime, Event)> {
        let front = self
            .trace
            .iter()
            .enumerate()
            .filter_map(|(index, batch)| Some((batch.arrivals.front()?.at, batch.next_seq, index)))
            .min();
        let Some((at, seq, index)) = front else {
            return self.queue.pop();
        };
        if let Some(queued) = self.queue.pop_before(at, seq) {
            return Some(queued);
        }
        let batch = &mut self.trace[index];
        let arrival = batch.arrivals.pop_front().expect("the front seen above");
        batch.next_seq += 1;
        if batch.arrivals.is_empty() {
            self.trace.swap_remove(index);
        }
        Some((at, Event::Arrival(SimRequest::from(arrival))))
    }

    /// Runs the simulation until `horizon` (events after the horizon are
    /// still drained so every admitted request completes) and returns the
    /// aggregated results.
    ///
    /// Events are delivered by (time, insertion sequence), so events at the
    /// same instant keep the order of the calls that added them.  The
    /// open-loop trace is merged in from its batches as the run goes
    /// (see [`ClusterSimulation::add_arrivals`]); the event queue holds only
    /// the work scheduled so far, never the future trace.
    #[must_use]
    pub fn run(mut self, horizon: SimDuration) -> SimulationResult {
        let end = SimTime::ZERO + horizon;
        // Periodic keep-alive eviction checks.
        let mut tick = SimTime::ZERO + SimDuration::from_secs(10);
        while tick < end {
            self.queue.push(tick, Event::EvictionTick);
            tick += SimDuration::from_secs(10);
        }
        // Periodic autoscaler sampling.
        if let Some(scaler) = &self.autoscaler {
            let period = scaler.config().tick;
            let mut tick = SimTime::ZERO + period;
            while tick < end {
                self.queue.push(tick, Event::AutoscaleTick);
                tick += period;
            }
        }
        // Start the provisioned-capacity meter at the initial pool size, so
        // `node_gb_seconds` is meaningful for fixed pools too.
        self.record_node_membership(SimTime::ZERO);
        // Faults scheduled past the measurement horizon are out of scope:
        // no new work arrives after `end`, so the post-horizon drain-down
        // must not be perturbed — and a far-future fault must not advance
        // the billing clock, so it is discarded here rather than skipped
        // when popped.
        let _ = self.queue.extract(|at, event| {
            at > end
                && matches!(
                    event,
                    Event::NodeCrash { .. }
                        | Event::ContainerKill { .. }
                        | Event::KeyServiceCrash { .. }
                )
        });

        while let Some((now, event)) = self.next_event() {
            self.ledger.events_processed += 1;
            match event {
                Event::Arrival(request) => {
                    if request.at_or_before(end) {
                        self.handle_arrival(request, now);
                    } else {
                        // Issued past the measurement horizon (closed-loop
                        // session follow-ups): refused at admission, traced
                        // instead of silently discarded.
                        self.ledger.rejected += 1;
                    }
                }
                Event::SandboxReady(sandbox) => self.handle_sandbox_ready(sandbox, now),
                Event::InvocationDone(done) => self.handle_done(done, now),
                Event::EvictionTick => self.handle_eviction(now),
                Event::AutoscaleTick => self.handle_autoscale_tick(now),
                // Post-horizon fault events were discarded before the loop,
                // so every fault that pops here is inside the measurement
                // window.
                Event::NodeCrash { node } => self.handle_node_crash(node, now),
                Event::ContainerKill { model } => self.handle_container_kill(&model, now),
                Event::KeyServiceCrash { replica } => self.handle_keyservice_crash(replica, now),
                Event::NodeProvisioned => {
                    if now <= end {
                        self.handle_node_provisioned(now);
                    } else {
                        // Provisioning finished past the measurement
                        // horizon: no new work can arrive, so the machine
                        // never joins — acknowledge it to the policy but
                        // keep it out of peak_nodes and the capacity bill.
                        if let Some(scaler) = self.autoscaler.as_mut() {
                            scaler.node_provisioned();
                        }
                    }
                }
            }
        }

        // Conservation accounting: whatever the cluster admitted but never
        // served is *dropped*, not silently forgotten — requests still in
        // the saturated queue plus any parked in a sandbox's waiting queue.
        self.ledger.dropped += self.saturated.len() as u64;
        self.ledger.dropped += self
            .sandbox_state
            .values()
            .map(|state| state.waiting.len() as u64)
            .sum::<u64>();

        let final_time = self.queue.now().max(end);
        let mut ledger = self.ledger;
        ledger.cold_starts = self.controller.cold_start_count();
        ledger.gb_seconds = self.metering.cluster_gb_seconds(final_time);
        ledger.node_gb_seconds = self.metering.node_gb_seconds(final_time);
        ledger.per_action_gb_seconds = self
            .metering
            .per_action_gb_seconds()
            .iter()
            .map(|(action, gbs)| (action.as_str().to_string(), *gbs))
            .collect();
        ledger.per_action_gb_seconds.sort_by(|a, b| a.0.cmp(&b.0));
        ledger.peak_memory_bytes = self.metering.peak_memory_bytes();
        (
            ledger.memory_series,
            ledger.sandbox_series,
            ledger.node_series,
        ) = self.metering.into_series();
        debug_assert_eq!(ledger.check(), Ok(()), "run ledger out of balance");
        ledger
    }
}

/// Latency of serving `concurrent` simultaneous hot requests in one enclave
/// on a node with `cores` physical cores (Fig. 11's model): execution is
/// CPU-bound, so beyond the core count the latency grows linearly.
#[must_use]
pub fn concurrent_hot_latency(
    profile: &ModelProfile,
    concurrent: usize,
    cores: usize,
    epc_bytes: u64,
) -> SimDuration {
    assert!(concurrent >= 1 && cores >= 1);
    let cpu_factor = (concurrent as f64 / cores as f64).max(1.0);
    let memory = profile.enclave_bytes_for_concurrency(concurrent) as f64;
    let epc_factor = if memory <= epc_bytes as f64 {
        1.0
    } else {
        1.0 + 2.0 * (memory - epc_bytes as f64) / epc_bytes as f64
    };
    profile.sgx2.hot_total().mul_f64(cpu_factor * epc_factor)
}

/// The strong-isolation overhead of Table II: with isolation, a hot
/// invocation additionally re-fetches keys over the maintained channel,
/// re-initializes the model runtime and clears the per-request buffers.
#[must_use]
pub fn strong_isolation_hot_latency(profile: &ModelProfile) -> SimDuration {
    let key_refetch_over_channel = SimDuration::from_millis(150);
    let buffer_clear = SimDuration::from_secs_f64(
        profile.runtime_buffer_bytes as f64 / 4.0e9, // memset-speed wipe
    );
    profile.sgx2.hot_total() + profile.sgx2.runtime_init + key_refetch_over_channel + buffer_clear
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_inference::{Framework, ModelKind};
    use sesemi_runtime::InvocationPath;
    use sesemi_sim::SimRng;
    use sesemi_workload::ArrivalProcess;

    fn profile(kind: ModelKind, framework: Framework) -> (ModelId, ModelProfile) {
        (kind.default_id(), ModelProfile::paper(kind, framework))
    }

    fn poisson_trace(model: &ModelId, rate: f64, secs: u64, seed: u64) -> Vec<RequestArrival> {
        let mut rng = SimRng::seed_from_u64(seed);
        ArrivalProcess::Poisson { rate_per_sec: rate }.generate(
            model,
            0,
            SimDuration::from_secs(secs),
            &mut rng,
        )
    }

    #[test]
    fn prewarmed_sesemi_serves_mostly_hot_requests() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig {
            tcs_per_container: 4,
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.prewarm(&model, 0, 2);
        sim.add_arrivals(poisson_trace(&model, 20.0, 60, 1));
        let result = sim.run(SimDuration::from_secs(60));
        assert!(result.completed > 1_000);
        assert!(
            result.hot_fraction() > 0.95,
            "hot fraction {}",
            result.hot_fraction()
        );
        // Hot TVM-MBNET requests complete in well under a second.
        assert!(
            result.p95_latency() < SimDuration::from_millis(500),
            "p95 {}",
            result.p95_latency()
        );
    }

    #[test]
    fn sesemi_beats_iso_reuse_and_native_under_the_same_load() {
        let (model, profile) = profile(ModelKind::DsNet, Framework::Tvm);
        let mut means = HashMap::new();
        for strategy in ServingStrategy::TEE_STRATEGIES {
            let config = ClusterConfig {
                nodes: 8,
                tcs_per_container: 1,
                strategy,
                ..ClusterConfig::multi_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
            sim.prewarm(&model, 0, 8);
            sim.add_arrivals(poisson_trace(&model, 10.0, 120, 7));
            let result = sim.run(SimDuration::from_secs(120));
            assert!(
                result.completed > 500,
                "{strategy:?} completed {}",
                result.completed
            );
            means.insert(strategy, result.mean_latency());
        }
        let sesemi = means[&ServingStrategy::Sesemi];
        let iso = means[&ServingStrategy::IsoReuse];
        let native = means[&ServingStrategy::Native];
        assert!(sesemi < iso, "SeSeMI {sesemi} vs Iso-reuse {iso}");
        assert!(iso < native, "Iso-reuse {iso} vs Native {native}");
    }

    #[test]
    fn cold_starts_happen_without_prewarming_and_memory_is_metered() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig::single_node_sgx2();
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.add_arrivals(poisson_trace(&model, 2.0, 30, 3));
        let result = sim.run(SimDuration::from_secs(30));
        assert!(result.cold_starts >= 1);
        assert!(result.gb_seconds > 0.0);
        assert!(result.peak_memory_bytes > 0);
        assert!(result.peak_sandboxes >= 1);
        assert!(!result.sandbox_series.is_empty());
        assert!(!result.memory_series.is_empty());
        let cold = result
            .path_counts
            .get(&InvocationPath::Cold)
            .copied()
            .unwrap_or(0);
        assert!(cold >= 1);
    }

    #[test]
    fn higher_request_rates_increase_p95_latency() {
        // Compare a comfortably-served rate against one near the node's
        // saturation point (12 cores / ~1.1s RSNET-TVM execution): below
        // ~6 rps the p95 is dominated by warm-path tail noise rather than
        // queueing, so the Fig. 12 monotonicity only shows once the higher
        // rate actually stresses capacity.
        let (model, profile) = profile(ModelKind::RsNet, Framework::Tvm);
        let mut p95 = Vec::new();
        for rate in [4.0, 10.0] {
            let config = ClusterConfig {
                tcs_per_container: 2,
                ..ClusterConfig::single_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
            sim.prewarm(&model, 0, 4);
            sim.add_arrivals(poisson_trace(&model, rate, 60, 5));
            let result = sim.run(SimDuration::from_secs(60));
            p95.push(result.p95_latency());
        }
        assert!(
            p95[1] > p95[0],
            "p95 at 10 rps {} vs 4 rps {}",
            p95[1],
            p95[0]
        );
    }

    #[test]
    fn fnpacker_reduces_latency_versus_all_in_one_for_mixed_traffic() {
        // Two popular models with interleaved Poisson traffic: All-in-one
        // keeps swapping models, FnPacker gives each an exclusive endpoint.
        let (m0, p0) = (
            ModelId::new("m0"),
            ModelProfile::paper(ModelKind::RsNet, Framework::Tvm),
        );
        let (m1, p1) = (
            ModelId::new("m1"),
            ModelProfile::paper(ModelKind::RsNet, Framework::Tvm),
        );
        let mut means = HashMap::new();
        for routing in [RoutingStrategy::AllInOne, RoutingStrategy::FnPacker] {
            let config = ClusterConfig {
                nodes: 4,
                routing,
                tcs_per_container: 1,
                ..ClusterConfig::multi_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, vec![(m0.clone(), p0), (m1.clone(), p1)]);
            let mut trace = poisson_trace(&m0, 2.0, 300, 11);
            trace.extend(poisson_trace(&m1, 2.0, 300, 13));
            trace.sort_by_key(|a| a.at);
            sim.add_arrivals(trace);
            let result = sim.run(SimDuration::from_secs(300));
            assert!(result.completed > 500);
            means.insert(routing, result.mean_latency());
        }
        assert!(
            means[&RoutingStrategy::FnPacker] < means[&RoutingStrategy::AllInOne],
            "FnPacker {} vs All-in-one {}",
            means[&RoutingStrategy::FnPacker],
            means[&RoutingStrategy::AllInOne]
        );
    }

    #[test]
    fn interactive_sessions_complete_and_record_latencies() {
        let models: Vec<(ModelId, ModelProfile)> = (0..3)
            .map(|i| {
                (
                    ModelId::new(format!("m{i}")),
                    ModelProfile::paper(ModelKind::DsNet, Framework::Tvm),
                )
            })
            .collect();
        let config = ClusterConfig {
            nodes: 2,
            routing: RoutingStrategy::FnPacker,
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, models.clone());
        let session = InteractiveSession::new(
            "Session 1",
            SimTime::from_secs(10),
            models.iter().map(|(m, _)| m.clone()).collect(),
            5,
        );
        sim.add_session(session);
        let result = sim.run(SimDuration::from_secs(120));
        assert_eq!(result.session_latencies.len(), 3);
        assert!(result
            .session_latencies
            .iter()
            .all(|(name, _, latency)| name == "Session 1" && *latency > SimDuration::ZERO));
    }

    #[test]
    fn concurrent_hot_latency_grows_beyond_core_count_and_with_epc_pressure() {
        let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
        let base = concurrent_hot_latency(&profile, 1, 12, u64::MAX);
        let under_cores = concurrent_hot_latency(&profile, 12, 12, u64::MAX);
        let over_cores = concurrent_hot_latency(&profile, 24, 12, u64::MAX);
        assert_eq!(base, under_cores);
        assert!(over_cores > under_cores);
        // SGX1 EPC pressure (128 MB) inflates latency even at low concurrency.
        let sgx1 = concurrent_hot_latency(&profile, 4, 10, 128 * MB);
        let sgx2 = concurrent_hot_latency(&profile, 4, 10, 64 * 1024 * MB);
        assert!(sgx1 > sgx2);
    }

    #[test]
    fn strong_isolation_adds_roughly_the_table2_overhead() {
        // Table II: TVM-MBNET 65.79 -> 268.36 ms, TVM-RSNET 982.96 -> 1265 ms,
        // TVM-DSNET 388.81 -> 587.79 ms.
        let cases = [
            (ModelKind::MbNet, 0.268),
            (ModelKind::RsNet, 1.265),
            (ModelKind::DsNet, 0.588),
        ];
        for (kind, expected_secs) in cases {
            let profile = ModelProfile::paper(kind, Framework::Tvm);
            let with = strong_isolation_hot_latency(&profile).as_secs_f64();
            let without = profile.sgx2.hot_total().as_secs_f64();
            assert!(with > without);
            let ratio = with / expected_secs;
            assert!(
                (0.75..1.35).contains(&ratio),
                "{}: isolated {with:.3}s vs paper {expected_secs}s",
                kind.label()
            );
        }
    }

    #[test]
    fn a_run_with_no_arrivals_yields_zeroed_but_total_metrics() {
        // Degenerate experiment: nothing ever arrives.  Every summary query
        // must stay total (no panics, no NaNs) and report zeros.
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let sim = ClusterSimulation::new(ClusterConfig::single_node_sgx2(), vec![(model, profile)]);
        let result = sim.run(SimDuration::from_secs(10));
        assert_eq!(result.completed, 0);
        assert_eq!(result.mean_latency(), SimDuration::ZERO);
        assert_eq!(result.p95_latency(), SimDuration::ZERO);
        assert_eq!(result.p99_latency(), SimDuration::ZERO);
        assert_eq!(result.hot_fraction(), 0.0);
        assert_eq!(result.path_fraction(InvocationPath::Cold), 0.0);
        assert!(result.latency.is_empty());
        assert_eq!(result.cold_starts, 0);
    }

    #[test]
    fn a_single_request_run_has_equal_percentiles() {
        // One request: mean == p95 == p99 == max, and the lone invocation is
        // a cold one.
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let mut sim = ClusterSimulation::new(
            ClusterConfig::single_node_sgx2(),
            vec![(model.clone(), profile)],
        );
        sim.add_arrivals(vec![RequestArrival::new(SimTime::from_secs(1), model, 0)]);
        let result = sim.run(SimDuration::from_secs(30));
        assert_eq!(result.completed, 1);
        assert!(result.mean_latency() > SimDuration::ZERO);
        assert_eq!(result.p95_latency(), result.mean_latency());
        assert_eq!(result.p99_latency(), result.mean_latency());
        assert_eq!(result.p95_latency(), result.latency.max());
        assert_eq!(result.path_fraction(InvocationPath::Cold), 1.0);
    }

    /// Regression for the eviction-path request-loss bug: a two-model
    /// cluster whose memory holds exactly one container.  An MMPP burst far
    /// above capacity on model A starves a lone model-B request (B's action
    /// can never fit while A's container holds the memory), then an idle
    /// window lets keep-alive eviction free the node, then a trailing
    /// trickle of A requests arrives.  Pre-fix, capacity freed by eviction
    /// never retried the saturated queue and completions retried only one
    /// request, so B (and every A queued behind a failed retry) was lost
    /// silently; post-fix every admitted request completes.
    #[test]
    fn eviction_freed_capacity_retries_the_saturated_queue() {
        let (model_a, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let model_b = ModelId::new("victim");
        let one_container = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let config = ClusterConfig {
            nodes: 1,
            tcs_per_container: 1,
            invoker_memory_bytes: one_container,
            keep_alive: SimDuration::from_secs(30),
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(
            config,
            vec![(model_a.clone(), profile), (model_b.clone(), profile)],
        );
        // Burst far above the one-slot capacity for the first 30 s.
        let mut rng = SimRng::seed_from_u64(9);
        let mut arrivals = ArrivalProcess::Mmpp {
            rates_per_sec: vec![40.0, 25.0],
            mean_dwell: SimDuration::from_secs(10),
        }
        .generate(&model_a, 0, SimDuration::from_secs(30), &mut rng);
        // The victim arrives mid-burst and queues behind a full cluster.
        arrivals.push(RequestArrival::new(
            SimTime::from_secs(5),
            model_b.clone(),
            1,
        ));
        // Trailing trickle after an idle window longer than the keep-alive.
        for at in [150u64, 160, 170] {
            arrivals.push(RequestArrival::new(
                SimTime::from_secs(at),
                model_a.clone(),
                0,
            ));
        }
        arrivals.sort_by_key(|a| a.at);
        let admitted_expected = arrivals.len() as u64;
        sim.add_arrivals(arrivals);
        let result = sim.run(SimDuration::from_secs(400));

        assert_eq!(result.admitted, admitted_expected);
        assert_eq!(
            result.dropped, 0,
            "every admitted request must complete: {} of {} completed",
            result.completed, result.admitted
        );
        assert_eq!(result.completed, result.admitted);
        assert_eq!(result.check(), Ok(()));
        // The victim itself was served, not just the trailing trickle.
        assert_eq!(
            result
                .per_model_latency
                .get(&model_b)
                .map(sesemi_sim::LatencyStats::count),
            Some(1)
        );
    }

    /// A one-container node (memory holds exactly one warm container) under a
    /// Poisson rate far above its service rate: the saturated queue fills with
    /// compatible same-⟨user, model⟩ requests, which is exactly where the
    /// batching window coalesces them.
    fn saturated_batching_run(window: usize) -> SimulationResult {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let one_container = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let config = ClusterConfig {
            nodes: 1,
            tcs_per_container: 1,
            invoker_memory_bytes: one_container,
            batching: BatchingConfig { window },
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.prewarm(&model, 0, 1);
        // The horizon cuts the run off with the backlog still live, so the
        // completion count measures drain rate, not trace length.
        sim.add_arrivals(poisson_trace(&model, 30.0, 30, 21));
        sim.run(SimDuration::from_secs(40))
    }

    #[test]
    fn batching_coalesces_saturated_peers_with_per_item_accounting() {
        let result = saturated_batching_run(4);
        assert!(
            result.batches_formed > 0,
            "a saturated one-slot node must form batches"
        );
        assert!(result.max_batch >= 2, "max batch {}", result.max_batch);
        assert!(result.max_batch <= 4, "max batch {}", result.max_batch);
        // Per-item accounting: every rider completes as its own request,
        // with its own latency sample and path count.
        assert_eq!(result.check(), Ok(()));
    }

    #[test]
    fn batching_off_is_inert_on_the_same_saturated_trace() {
        let result = saturated_batching_run(1);
        assert_eq!(result.batches_formed, 0);
        assert_eq!(result.batched_requests, 0);
        assert_eq!(result.max_batch, 0);
        assert_eq!(result.check(), Ok(()));
    }

    #[test]
    fn batching_drains_a_saturating_burst_faster_at_equal_capacity() {
        let unbatched = saturated_batching_run(1);
        let batched = saturated_batching_run(8);
        // The same trace, the same node, the same horizon: the sub-linear
        // batch cost curve is the only difference, so the batched run must
        // drain the transient backlog faster — strictly lower mean sojourn
        // time through the single execution slot.
        assert!(
            batched.mean_latency() < unbatched.mean_latency(),
            "batched {} vs unbatched {}",
            batched.mean_latency(),
            unbatched.mean_latency()
        );
        assert_eq!(batched.check(), Ok(()));
        assert_eq!(unbatched.check(), Ok(()));
    }

    #[test]
    fn activation_metering_records_real_per_action_costs() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig::single_node_sgx2();
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.add_arrivals(poisson_trace(&model, 5.0, 30, 17));
        let result = sim.run(SimDuration::from_secs(30));
        assert!(result.completed > 50);
        // One action (One-to-one routing), with a real GB·s figure.
        assert_eq!(result.per_action_gb_seconds.len(), 1);
        let (action, gbs) = &result.per_action_gb_seconds[0];
        assert_eq!(action, &format!("pool-{model}"));
        assert!(*gbs > 0.0);
        assert!((result.activation_gb_seconds() - gbs).abs() < 1e-12);
        // Per-activation billing (execution only) is bounded by the cluster
        // footprint integral (which also pays for idle keep-alive).
        assert!(result.activation_gb_seconds() < result.gb_seconds);
    }

    fn autoscaled_config(min: usize, max: usize, initial: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: initial,
            tcs_per_container: 1,
            keep_alive: SimDuration::from_secs(45),
            autoscale: Some(AutoscaleConfig {
                idle_ticks: 6,
                ..AutoscaleConfig::new(min, max)
            }),
            ..ClusterConfig::multi_node_sgx2()
        }
    }

    #[test]
    fn autoscaling_grows_under_load_and_shrinks_after_idle_without_losing_requests() {
        let (model, profile) = profile(ModelKind::DsNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let mut config = autoscaled_config(1, 4, 1);
        // Two single-thread containers per node, as in the Fig. 13 setup.
        config.invoker_memory_bytes = budget * 2;
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // 120 s of heavy traffic, then a long quiet tail: the pool must grow
        // to absorb the burst and give the capacity back afterwards.
        let mut rng = SimRng::seed_from_u64(3);
        let arrivals = ArrivalProcess::Poisson { rate_per_sec: 12.0 }.generate(
            &model,
            0,
            SimDuration::from_secs(120),
            &mut rng,
        );
        let admitted_expected = arrivals.len() as u64;
        sim.add_arrivals(arrivals);
        let result = sim.run(SimDuration::from_secs(500));

        assert!(result.scale_out_events >= 1, "the pool never grew");
        assert!(result.scale_in_events >= 1, "the pool never shrank");
        assert!(result.peak_nodes > 1 && result.peak_nodes <= 4);
        // Drain-path conservation: requests in flight on drained nodes (and
        // queued during saturation) all complete.
        assert_eq!(result.admitted, admitted_expected);
        assert_eq!(result.dropped, 0);
        assert_eq!(result.check(), Ok(()));
        // Elasticity pays less for nodes than a fixed pool of the peak size
        // would have.
        let fixed_peak_cost = result.peak_nodes as f64 * (budget * 2) as f64 / 1e9 * 500.0;
        assert!(
            result.node_gb_seconds < fixed_peak_cost,
            "elastic {:.1} GB·s should undercut the fixed peak-size pool {:.1} GB·s",
            result.node_gb_seconds,
            fixed_peak_cost
        );
        assert!(!result.node_series.is_empty());
    }

    #[test]
    fn requests_in_flight_on_a_draining_node_are_never_lost() {
        // Force a scale-in while every node still executes work: a policy
        // that reads any sub-saturated tick as idle (scale_in_utilization =
        // 1.0, one-tick window) drains a busy node almost immediately.  The
        // request assigned to the drained node must finish on it, and only
        // then may the node retire.
        let (model, profile) = profile(ModelKind::RsNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let config = ClusterConfig {
            nodes: 2,
            tcs_per_container: 1,
            invoker_memory_bytes: budget,
            autoscale: Some(AutoscaleConfig {
                tick: SimDuration::from_secs(1),
                idle_ticks: 1,
                scale_in_utilization: 1.0,
                scale_out_queue: usize::MAX,
                scale_out_utilization: 2.0,
                ..AutoscaleConfig::new(1, 2)
            }),
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // Two cold requests, one per node; RSNET's cold path runs for
        // several seconds, so the drain decision lands mid-execution.
        sim.add_arrivals(vec![
            RequestArrival::new(SimTime::from_millis(100), model.clone(), 0),
            RequestArrival::new(SimTime::from_millis(200), model.clone(), 0),
        ]);
        let result = sim.run(SimDuration::from_secs(120));
        assert!(result.scale_in_events >= 1, "no drain ever happened");
        assert_eq!(result.admitted, 2);
        assert_eq!(
            result.completed, 2,
            "a request assigned to the draining node was lost"
        );
        assert_eq!(result.dropped, 0);
        assert_eq!(result.check(), Ok(()));
        // The pool really gave the node back after its work finished.
        let (_, final_nodes) = result
            .node_series
            .points()
            .last()
            .expect("membership series");
        assert_eq!(*final_nodes, 1.0);
    }

    /// A node crash mid-execution kills the in-flight request, which is
    /// re-queued and served by the surviving node: nothing is lost, the
    /// crashed node stops being billed, and the conservation invariant
    /// holds.
    #[test]
    fn node_crash_requeues_in_flight_work_and_conserves_requests() {
        let (model, profile) = profile(ModelKind::RsNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let config = ClusterConfig {
            nodes: 2,
            tcs_per_container: 1,
            invoker_memory_bytes: budget,
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // Two cold requests, one per node (the second node fills up first —
        // placement ties resolve to the highest free-memory index).  RSNET's
        // cold path runs for several seconds, so a crash at t=2 s lands
        // mid-execution.
        sim.add_arrivals(vec![
            RequestArrival::new(SimTime::from_millis(100), model.clone(), 0),
            RequestArrival::new(SimTime::from_millis(200), model.clone(), 0),
        ]);
        sim.add_fault_plan(&FaultPlan::new().node_crash(SimTime::from_secs(2), 1));
        let result = sim.run(SimDuration::from_secs(120));
        assert_eq!(result.node_crashes, 1);
        assert!(
            result.requeued_inflight >= 1,
            "the crash landed on an idle node"
        );
        assert_eq!(result.admitted, 2);
        assert_eq!(
            result.completed, 2,
            "the killed request must be retried on the survivor"
        );
        assert_eq!(result.dropped, 0);
        assert_eq!(result.check(), Ok(()));
        // The crashed node's capacity left the bill immediately.
        let (_, final_nodes) = result
            .node_series
            .points()
            .last()
            .expect("membership series");
        assert_eq!(*final_nodes, 1.0);
    }

    /// A crash while a cold-starting container still holds parked requests
    /// drives the `cleanup_evicted` waiting-queue re-queue path — the path
    /// that is provably unreachable without failure injection.
    #[test]
    fn node_crash_requeues_requests_parked_on_a_cold_starting_container() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(4),
        );
        let config = ClusterConfig {
            nodes: 2,
            tcs_per_container: 4,
            invoker_memory_bytes: budget,
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // Eight closely spaced arrivals: the first four park on the
        // cold-starting container (node 1), the fifth cold-starts node 0.
        let arrivals: Vec<RequestArrival> = (1..=8)
            .map(|i| RequestArrival::new(SimTime::from_millis(50 * i), model.clone(), 0))
            .collect();
        let admitted_expected = arrivals.len() as u64;
        sim.add_arrivals(arrivals);
        // Crash node 1 at t=280 ms — well before its 650 ms cold start
        // finishes, so its container still has every assigned request
        // parked in `waiting`.
        sim.add_fault_plan(&FaultPlan::new().node_crash(SimTime::from_millis(280), 1));
        let result = sim.run(SimDuration::from_secs(60));
        assert_eq!(result.node_crashes, 1);
        assert!(
            result.requeued_waiting >= 1,
            "the waiting-queue re-queue path never ran"
        );
        assert_eq!(result.admitted, admitted_expected);
        assert_eq!(result.completed, admitted_expected);
        assert_eq!(result.dropped, 0);
        assert_eq!(result.check(), Ok(()));
    }

    /// The open-loop trace waits beside the event queue, not in it, and
    /// still counts: every arrival is a processed event (with its
    /// completion, two per request served), and an arrival past the
    /// horizon is rejected.
    #[test]
    fn add_arrivals_keeps_the_trace_out_of_the_event_queue() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let mut sim = ClusterSimulation::new(
            ClusterConfig::single_node_sgx2(),
            vec![(model.clone(), profile)],
        );
        let mut trace = poisson_trace(&model, 5.0, 20, 13);
        let in_horizon = trace.len() as u64;
        trace.push(RequestArrival::new(SimTime::from_secs(25), model, 0));
        sim.add_arrivals(trace);
        assert_eq!(sim.queue.len(), 0, "trace events in the queue");
        let result = sim.run(SimDuration::from_secs(20));
        assert_eq!(result.admitted, in_horizon);
        assert_eq!(result.completed, in_horizon);
        assert_eq!(result.rejected, 1, "the arrival past the horizon");
        assert!(result.events_processed > 2 * in_horizon);
        assert_eq!(result.check(), Ok(()));
    }

    /// A trace added as two batches, or as one unsorted batch, runs exactly
    /// like its time-ordered merge, including the order of arrivals that
    /// tie: two models on a 50 ms and a 75 ms grid meet every 150 ms.
    #[test]
    fn a_trace_in_two_batches_or_unsorted_runs_like_its_merge() {
        let models = vec![
            profile(ModelKind::MbNet, Framework::Tvm),
            profile(ModelKind::RsNet, Framework::Tvm),
        ];
        let grid = |model: &ModelId, step_ms: u64, count: u64| -> Vec<RequestArrival> {
            (1..=count)
                .map(|i| RequestArrival::new(SimTime::from_millis(step_ms * i), model.clone(), 0))
                .collect()
        };
        let first = grid(&models[0].0, 50, 200);
        let second = grid(&models[1].0, 75, 130);
        let run = |batches: Vec<Vec<RequestArrival>>| {
            let config = ClusterConfig {
                tcs_per_container: 1,
                ..ClusterConfig::single_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, models.clone());
            for batch in batches {
                sim.add_arrivals(batch);
            }
            sim.run(SimDuration::from_secs(15))
        };
        let merged = run(vec![ArrivalProcess::merge(vec![
            first.clone(),
            second.clone(),
        ])]);
        let unsorted = run(vec![first.iter().chain(&second).cloned().collect()]);
        let split = run(vec![first, second]);
        for (name, result) in [("unsorted", &unsorted), ("two batches", &split)] {
            assert_eq!(
                result.latency_series.points(),
                merged.latency_series.points(),
                "{name}"
            );
            assert_eq!(result.completed, merged.completed, "{name}");
            assert_eq!(result.cold_starts, merged.cold_starts, "{name}");
            assert_eq!(result.events_processed, merged.events_processed, "{name}");
            assert_eq!(result.gb_seconds, merged.gb_seconds, "{name}");
        }
    }

    /// An arrival and a fault at the same instant are delivered in the
    /// order they were added.  With the crash first, node 1 is gone before
    /// the arrival, which cold-starts on node 0.  With the trace first, the
    /// arrival parks on a container cold-starting on node 1 (placement ties
    /// go to the highest index), and the crash re-queues it.
    #[test]
    fn a_tied_arrival_and_fault_keep_the_order_they_were_added() {
        let (model, profile) = profile(ModelKind::RsNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let run = |faults_first: bool| {
            let config = ClusterConfig {
                nodes: 2,
                tcs_per_container: 1,
                invoker_memory_bytes: budget,
                ..ClusterConfig::multi_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
            let trace = vec![RequestArrival::new(SimTime::from_secs(1), model.clone(), 0)];
            let faults = FaultPlan::new().node_crash(SimTime::from_secs(1), 1);
            if faults_first {
                sim.add_fault_plan(&faults);
                sim.add_arrivals(trace);
            } else {
                sim.add_arrivals(trace);
                sim.add_fault_plan(&faults);
            }
            sim.run(SimDuration::from_secs(60))
        };
        for (faults_first, requeued) in [(true, 0), (false, 1)] {
            let result = run(faults_first);
            assert_eq!(result.node_crashes, 1);
            assert_eq!(
                result.requeued_waiting, requeued,
                "faults added first: {faults_first}"
            );
            assert_eq!(result.completed, 1);
            assert_eq!(result.check(), Ok(()));
        }
    }

    /// Killing every container of a model forces fresh cold starts but
    /// loses nothing; a kill naming an unknown model and a crash of an
    /// absent node are both no-ops.
    #[test]
    fn container_kill_cold_starts_replacements_and_conserves_requests() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig {
            tcs_per_container: 2,
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.prewarm(&model, 0, 1);
        sim.add_arrivals(poisson_trace(&model, 5.0, 20, 23));
        sim.add_fault_plan(
            &FaultPlan::new()
                .container_kill(SimTime::from_secs(10), model.clone())
                .container_kill(SimTime::from_secs(15), ModelId::new("ghost"))
                .node_crash(SimTime::from_secs(15), 99),
        );
        let result = sim.run(SimDuration::from_secs(20));
        assert!(result.containers_killed >= 1, "no container was killed");
        assert_eq!(result.node_crashes, 0, "crashing a ghost node is a no-op");
        assert!(
            result.cold_starts >= 2,
            "the kill must force a replacement cold start (got {})",
            result.cold_starts
        );
        assert_eq!(result.completed, result.admitted);
        assert_eq!(result.dropped, 0);
        assert_eq!(result.check(), Ok(()));
    }

    /// A crash that drops an elastic pool below its configured floor is
    /// repaired immediately: the simulator provisions a replacement even
    /// though light traffic never saturates the survivor into a
    /// policy-driven scale-out.
    #[test]
    fn a_crash_below_the_autoscale_floor_provisions_a_replacement() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig {
            nodes: 2,
            tcs_per_container: 1,
            autoscale: Some(AutoscaleConfig::new(2, 3)),
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // Far too little traffic to ever read as saturated.
        sim.add_arrivals(poisson_trace(&model, 0.5, 100, 41));
        sim.add_fault_plan(&FaultPlan::new().node_crash(SimTime::from_secs(20), 0));
        let result = sim.run(SimDuration::from_secs(100));
        assert_eq!(result.node_crashes, 1);
        assert!(
            result.scale_out_events >= 1,
            "the floor shortfall never provisioned a replacement"
        );
        assert_eq!(result.check(), Ok(()));
        assert_eq!(result.dropped, 0);
        // The pool ends back at the 2-node minimum.
        let (_, final_nodes) = result
            .node_series
            .points()
            .last()
            .expect("membership series");
        assert_eq!(*final_nodes, 2.0);
    }

    /// A crash overlapping an in-progress scale-in drain still restores the
    /// floor: the draining node is committed to retiring and must not count
    /// toward `min_nodes` when sizing the replacement shortfall.
    #[test]
    fn a_crash_during_a_drain_still_restores_the_autoscale_floor() {
        let (model, profile) = profile(ModelKind::RsNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let config = ClusterConfig {
            nodes: 3,
            tcs_per_container: 1,
            invoker_memory_bytes: budget,
            autoscale: Some(AutoscaleConfig {
                tick: SimDuration::from_secs(1),
                idle_ticks: 1,
                scale_in_utilization: 1.0,
                scale_out_queue: usize::MAX,
                scale_out_utilization: 2.0,
                ..AutoscaleConfig::new(2, 3)
            }),
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // One long cold request per node: the aggressive policy drains a
        // busy node at the first tick (the drain stays open on in-flight
        // work), then node 0 crashes while the drain is still in progress.
        sim.add_arrivals(
            (1..=3)
                .map(|i| RequestArrival::new(SimTime::from_millis(100 * i), model.clone(), 0))
                .collect(),
        );
        sim.add_fault_plan(&FaultPlan::new().node_crash(SimTime::from_secs(3), 0));
        let result = sim.run(SimDuration::from_secs(60));
        assert_eq!(result.node_crashes, 1);
        assert!(result.scale_in_events >= 1, "no drain ever happened");
        assert!(
            result.scale_out_events >= 1,
            "the floor shortfall never provisioned a replacement"
        );
        assert_eq!(result.completed, 3);
        assert_eq!(result.dropped, 0);
        assert_eq!(result.check(), Ok(()));
        // Once the drain retires, the pool sits at the 2-node floor — not 1.
        let (_, final_nodes) = result
            .node_series
            .points()
            .last()
            .expect("membership series");
        assert_eq!(*final_nodes, 2.0);
    }

    /// Faults scheduled past the measurement horizon neither fire nor
    /// advance the billing clock: the run is byte-identical to a fault-free
    /// one.
    #[test]
    fn faults_past_the_horizon_are_discarded_entirely() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let run = |faults: Option<FaultPlan>| {
            let mut sim = ClusterSimulation::new(
                ClusterConfig::single_node_sgx2(),
                vec![(model.clone(), profile)],
            );
            sim.add_arrivals(poisson_trace(&model, 3.0, 30, 47));
            if let Some(plan) = &faults {
                sim.add_fault_plan(plan);
            }
            sim.run(SimDuration::from_secs(30))
        };
        let clean = run(None);
        let with_late_faults = run(Some(
            FaultPlan::new()
                .node_crash(SimTime::from_secs(10_000), 0)
                .container_kill(SimTime::from_secs(31), model.clone()),
        ));
        assert_eq!(with_late_faults.node_crashes, 0);
        assert_eq!(with_late_faults.containers_killed, 0);
        assert_eq!(with_late_faults.completed, clean.completed);
        assert_eq!(with_late_faults.mean_latency(), clean.mean_latency());
        // The far-future fault must not inflate the billing integrals.
        assert!((with_late_faults.node_gb_seconds - clean.node_gb_seconds).abs() < 1e-12);
        assert!((with_late_faults.gb_seconds - clean.gb_seconds).abs() < 1e-12);
    }

    /// Fault-free runs never touch the forced-kill re-queue counters, and a
    /// crash-bearing run reproduces bit-for-bit.
    #[test]
    fn fault_injection_is_deterministic_and_absent_faults_leave_counters_cold() {
        let (model, profile) = profile(ModelKind::DsNet, Framework::Tvm);
        let run = |faults: bool| {
            let config = ClusterConfig {
                nodes: 2,
                tcs_per_container: 1,
                ..ClusterConfig::multi_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
            sim.add_arrivals(poisson_trace(&model, 4.0, 60, 29));
            if faults {
                sim.add_fault_plan(&FaultPlan::new().node_crash(SimTime::from_secs(20), 0));
            }
            sim.run(SimDuration::from_secs(60))
        };
        let clean = run(false);
        assert_eq!(clean.node_crashes, 0);
        assert_eq!(clean.containers_killed, 0);
        assert_eq!(clean.requeued_inflight, 0);
        assert_eq!(clean.requeued_waiting, 0);
        let a = run(true);
        let b = run(true);
        assert_eq!(a.node_crashes, 1);
        assert_eq!(a.check(), Ok(()));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.requeued_inflight, b.requeued_inflight);
        assert_eq!(a.requeued_waiting, b.requeued_waiting);
        assert_eq!(a.mean_latency(), b.mean_latency());
        assert_eq!(a.cold_starts, b.cold_starts);
        assert!((a.node_gb_seconds - b.node_gb_seconds).abs() < 1e-12);
    }

    fn run_with_scheduler(kind: SchedulerKind, seed: u64) -> SimulationResult {
        let (model, profile) = profile(ModelKind::DsNet, Framework::Tvm);
        let config = ClusterConfig {
            nodes: 4,
            scheduler: kind,
            tcs_per_container: 1,
            seed,
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.add_arrivals(poisson_trace(&model, 6.0, 120, seed));
        sim.run(SimDuration::from_secs(120))
    }

    #[test]
    fn every_scheduler_kind_completes_the_same_workload() {
        for kind in SchedulerKind::ALL {
            let result = run_with_scheduler(kind, 21);
            assert!(
                result.completed > 500,
                "{} completed {}",
                kind.label(),
                result.completed
            );
        }
    }

    #[test]
    fn least_loaded_scheduler_is_deterministic_per_seed() {
        // Determinism guard: the same seeded workload reproduces every
        // summary metric exactly.
        let a = run_with_scheduler(SchedulerKind::LeastLoaded, 33);
        let b = run_with_scheduler(SchedulerKind::LeastLoaded, 33);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.mean_latency(), b.mean_latency());
        assert_eq!(a.p95_latency(), b.p95_latency());
        assert_eq!(a.peak_sandboxes, b.peak_sandboxes);
        assert!((a.gb_seconds - b.gb_seconds).abs() < 1e-12);
    }

    /// The dispatch ledger holds on every run: each dispatch is exactly one
    /// of a warm hit or a cold start, and every cold start is either
    /// request-driven or auxiliary (prewarm / pre-migration).
    #[test]
    fn warm_hit_and_cold_start_ledgers_balance() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig {
            tcs_per_container: 2,
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.prewarm(&model, 0, 1);
        sim.add_arrivals(poisson_trace(&model, 6.0, 30, 51));
        let result = sim.run(SimDuration::from_secs(30));
        assert_eq!(result.check(), Ok(()));
        assert_eq!(result.auxiliary_cold_starts, 1, "exactly the prewarm");
        assert_eq!(result.premigrated, 0);
        // One model, mostly warm/hot traffic behind a prewarmed container.
        assert_eq!(result.per_model_warm_hits.len(), 1);
        assert!(result.warm_hits() > 0);
    }

    /// Regression: a warm-reused prewarm iteration must not re-count the
    /// container's enclave bytes.  Pre-fix, `prewarm(model, 0, 3)` (one
    /// container re-warmed three times — later iterations reuse the MRU
    /// warm candidate) booked 3× the bytes, and the phantom commitment read
    /// as EPC pressure: the warm-value policy would evict the only warm
    /// container the prewarm built.
    #[test]
    fn prewarm_reuse_does_not_inflate_enclave_commitment_into_phantom_pressure() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let config = ClusterConfig {
            tcs_per_container: 1,
            lifecycle: LifecycleKind::WarmValue,
            // Room for one container's real commitment, not for three
            // phantom ones.
            epc_bytes: budget * 2,
            invoker_memory_bytes: budget * 4,
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.prewarm(&model, 0, 3);
        assert_eq!(
            sim.ledger.auxiliary_cold_starts, 1,
            "one container, re-warmed"
        );
        // No arrivals: only eviction ticks run.  The lone warm container is
        // far under the EPC, so no pressure eviction may fire.
        let result = sim.run(SimDuration::from_secs(25));
        assert_eq!(
            result.evictions_pressure, 0,
            "phantom enclave commitment read as EPC pressure"
        );
        assert_eq!(result.evictions_expired, 0, "keep-alive has not expired");
    }

    /// Under EPC pressure the warm-value policy evicts idle containers early
    /// (before their keep-alive expires) to bring the node's enclave working
    /// set back under the EPC; the age-only policy never does.
    #[test]
    fn warm_value_lifecycle_relieves_epc_pressure_and_age_only_does_not() {
        let (m0, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let m1 = ModelId::new("second");
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let run = |lifecycle: LifecycleKind| {
            let config = ClusterConfig {
                nodes: 2,
                tcs_per_container: 1,
                scheduler: SchedulerKind::ModelAffinity,
                lifecycle,
                // Two containers fit in memory, but two containers
                // over-commit the EPC — the pressure regime.
                invoker_memory_bytes: budget * 4,
                epc_bytes: budget * 3 / 2,
                keep_alive: SimDuration::from_secs(300),
                ..ClusterConfig::multi_node_sgx2()
            };
            let mut sim =
                ClusterSimulation::new(config, vec![(m0.clone(), profile), (m1.clone(), profile)]);
            let mut trace = poisson_trace(&m0, 3.0, 60, 61);
            let mut rng = SimRng::seed_from_u64(62);
            trace.extend(
                sesemi_workload::ArrivalProcess::Poisson { rate_per_sec: 3.0 }.generate(
                    &m1,
                    1,
                    SimDuration::from_secs(60),
                    &mut rng,
                ),
            );
            trace.sort_by_key(|a| a.at);
            sim.add_arrivals(trace);
            sim.run(SimDuration::from_secs(120))
        };
        let age_only = run(LifecycleKind::AgeOnly);
        assert_eq!(
            age_only.evictions_pressure, 0,
            "age-only must never evict for pressure"
        );
        let warm_value = run(LifecycleKind::WarmValue);
        assert!(
            warm_value.evictions_pressure >= 1,
            "two models share a node whose EPC holds 1.5 containers: the \
             warm-value policy must evict for pressure (got {} pressure, {} \
             expired)",
            warm_value.evictions_pressure,
            warm_value.evictions_expired
        );
        for result in [&age_only, &warm_value] {
            assert_eq!(result.check(), Ok(()));
            assert_eq!(result.dropped, 0);
        }
    }

    /// A warm-value scale-in pre-migrates the victim's warm capacity: the
    /// drain is preceded by a replacement cold start on a surviving node, so
    /// the model's warm pool survives the membership change.  The pool is
    /// constructed explicitly — two models whose ring primaries are
    /// distinct nodes ("left" → node 0, "right" → node 2 on a 3-node ring),
    /// one prewarmed container each — and the scale-in path invoked
    /// directly, pinning the exact victim order: first the empty node 1
    /// (lowest warm-pool value, nothing to migrate), then (value tie, id
    /// tie-break) node 2, whose warm container for "right" must be rebuilt
    /// on the survivor.
    #[test]
    fn warm_value_drain_premigrates_warm_capacity_and_stays_deterministic() {
        let (_, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let left = ModelId::new("left");
        let right = ModelId::new("right");
        let budget = sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        );
        let run = || {
            let config = ClusterConfig {
                nodes: 3,
                tcs_per_container: 1,
                scheduler: SchedulerKind::ModelAffinity,
                lifecycle: LifecycleKind::WarmValue,
                invoker_memory_bytes: budget * 4,
                keep_alive: SimDuration::from_secs(120),
                ..ClusterConfig::multi_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(
                config,
                vec![(left.clone(), profile), (right.clone(), profile)],
            );
            sim.prewarm(&left, 0, 1);
            sim.prewarm(&right, 1, 1);
            // First scale-in: node 1 holds no warm pool at all (aggregate
            // value 0) and is retired without any migration.
            sim.drain_for_scale_in(SimTime::from_secs(1));
            assert_eq!(
                sim.ledger.premigrated, 0,
                "an empty node needs no migration"
            );
            // Second scale-in: nodes 0 and 2 tie on warm-pool value (one
            // sticky container each); the id tie-break drains node 2, and
            // "right"'s warm capacity is pre-migrated onto node 0.
            sim.drain_for_scale_in(SimTime::from_secs(2));
            assert_eq!(
                sim.ledger.premigrated, 1,
                "the drained warm pool must migrate"
            );
            // A trailing trickle on both models is served by the surviving
            // (partly migrated) warm pool — no request-driven cold start.
            sim.add_arrivals(
                (1..=3)
                    .flat_map(|i| {
                        // 5 s apart per model: each single-slot container
                        // finishes its warm invocation before the next one.
                        [
                            RequestArrival::new(SimTime::from_secs(5 + 5 * i), left.clone(), 0),
                            RequestArrival::new(
                                SimTime::from_millis((5 + 5 * i) * 1000 + 2500),
                                right.clone(),
                                1,
                            ),
                        ]
                    })
                    .collect(),
            );
            sim.run(SimDuration::from_secs(60))
        };
        let a = run();
        assert_eq!(a.premigrated, 1);
        assert_eq!(
            a.evictions_drain, 1,
            "exactly the drained warm container is a drain eviction"
        );
        assert_eq!(a.completed, 6);
        assert_eq!(
            a.cold_dispatches, 0,
            "the migrated pool absorbs every request"
        );
        assert_eq!(a.check(), Ok(()));
        assert_eq!(a.dropped, 0);
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.premigrated, b.premigrated);
        assert_eq!(a.evictions_drain, b.evictions_drain);
        assert_eq!(a.mean_latency(), b.mean_latency());
        assert!((a.node_gb_seconds - b.node_gb_seconds).abs() < 1e-12);
    }

    #[test]
    fn keyservice_queueing_stretches_cold_paths_and_counts_every_provision() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let run = |keyservice: KeyServiceConfig| {
            let config = ClusterConfig {
                keyservice,
                ..ClusterConfig::single_node_sgx2()
            };
            let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
            sim.add_arrivals(poisson_trace(&model, 2.0, 30, 3));
            sim.run(SimDuration::from_secs(30))
        };
        let flat = run(KeyServiceConfig::default());
        let queued = run(KeyServiceConfig::queued(
            1,
            SimDuration::from_millis(300),
            1,
        ));
        // Off is really off: no provisioning accounting at all.
        assert_eq!(flat.provisioned_keys, 0);
        assert_eq!(flat.keyservice_wait, SimDuration::ZERO);
        // On, every cold dispatch provisions exactly once (no auxiliary
        // paths in this config), and the added service time is visible in
        // the mean latency of the identical trace.
        assert!(queued.cold_dispatches >= 1);
        assert_eq!(queued.provisioned_keys, queued.cold_dispatches);
        assert!(
            queued.mean_latency() > flat.mean_latency(),
            "provisioning must stretch cold paths: {} vs {}",
            queued.mean_latency(),
            flat.mean_latency()
        );
        assert_eq!(queued.check(), Ok(()));
        assert_eq!(queued.completed, flat.completed);
    }

    #[test]
    fn a_keyservice_crash_fails_inflight_provisions_over_to_the_survivor() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig {
            nodes: 2,
            keyservice: KeyServiceConfig::queued(2, SimDuration::from_millis(500), 1),
            ..ClusterConfig::multi_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        // Every arrival is user 0 — home replica 0 — and the slow single-TCS
        // replica guarantees a queue of in-flight provisions at crash time.
        sim.add_arrivals(poisson_trace(&model, 10.0, 20, 7));
        sim.add_fault_plan(&FaultPlan::new().keyservice_crash(SimTime::from_secs(1), 0));
        let result = sim.run(SimDuration::from_secs(20));
        assert_eq!(result.keyservice_crashes, 1);
        assert!(
            result.keyservice_failovers >= 1,
            "the burst keeps provisions in flight at crash time"
        );
        assert_eq!(result.check(), Ok(()));
        assert!(result.completed > 0, "the survivor keeps provisioning");
        assert_eq!(result.dropped, 0, "failover loses no work");
    }

    #[test]
    fn a_total_keyservice_outage_drops_parked_work_but_conserves_requests() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let config = ClusterConfig {
            keyservice: KeyServiceConfig::queued(1, SimDuration::from_millis(100), 1),
            ..ClusterConfig::single_node_sgx2()
        };
        let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
        sim.add_arrivals(poisson_trace(&model, 2.0, 10, 5));
        // The only replica dies before the first arrival: no cold start can
        // ever finish, so every admitted request parks and drains into
        // `dropped` — conservation survives a total trust-plane outage.
        sim.add_fault_plan(&FaultPlan::new().keyservice_crash(SimTime::ZERO, 0));
        let result = sim.run(SimDuration::from_secs(10));
        assert_eq!(result.keyservice_crashes, 1);
        assert_eq!(result.provisioned_keys, 0);
        assert_eq!(result.completed, 0);
        assert!(result.dropped > 0);
        assert_eq!(result.check(), Ok(()));
    }

    #[test]
    fn keyservice_crashes_are_noops_when_provisioning_is_unmodeled() {
        let (model, profile) = profile(ModelKind::MbNet, Framework::Tvm);
        let mut sim = ClusterSimulation::new(
            ClusterConfig::single_node_sgx2(),
            vec![(model.clone(), profile)],
        );
        sim.add_arrivals(poisson_trace(&model, 2.0, 10, 5));
        sim.add_fault_plan(&FaultPlan::new().keyservice_crash(SimTime::from_secs(1), 0));
        let result = sim.run(SimDuration::from_secs(10));
        assert_eq!(result.keyservice_crashes, 0);
        assert_eq!(result.dropped, 0);
        assert!(result.completed > 0);
    }
}
