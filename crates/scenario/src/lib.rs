//! # sesemi-scenario
//!
//! A small declarative layer over [`sesemi::cluster`]: a [`Scenario`]
//! composes a workload (fixed-rate / Poisson / MMPP traffic plus closed-loop
//! interactive sessions), a serving strategy, a routing strategy, a placement
//! scheduler and a node count into a *named, seeded* experiment that returns
//! a [`SimulationResult`].
//!
//! Every experiment the harness runs — the paper reproductions in
//! `sesemi_bench` and the integration tests in `tests/cluster_experiments.rs`
//! — goes through this builder, so "add a scheduling idea" is a ~50-line
//! policy impl plus a scenario entry, not a simulator refactor.  Scenarios
//! are deterministic: the same name/seed/composition reproduces the same
//! [`SimulationResult`] bit for bit (guarded by the CI smoke job).
//!
//! Scenarios may also carry a [`FaultPlan`] (timed node crashes and
//! container kills, validated against the pool bounds at build time), and
//! the [`registry`] module holds the **named scenario corpus**: an
//! enumerable, tag-filterable id → scenario registry through which the
//! experiments binary (`--scenario <id>`, `--list-scenarios`) and the
//! corpus-wide invariant test suite discover workloads — a new workload is
//! a corpus entry, not new harness code.
//!
//! ```
//! use sesemi_scenario::Scenario;
//! use sesemi_inference::{Framework, ModelKind, ModelProfile};
//! use sesemi_sim::SimDuration;
//! use sesemi_workload::ArrivalProcess;
//!
//! let model = ModelKind::MbNet.default_id();
//! let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
//! let result = Scenario::builder("quick-poisson")
//!     .seed(7)
//!     .nodes(2)
//!     .model(model.clone(), profile)
//!     .prewarm(model.clone(), 0, 2)
//!     .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 5.0 })
//!     .duration(SimDuration::from_secs(30))
//!     .build()
//!     .run();
//! assert!(result.completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;

pub use registry::{CorpusEntry, ScenarioRegistry};

use sesemi::baseline::ServingStrategy;
use sesemi::cluster::{
    AdmissionKind, AutoscaleConfig, BatchingConfig, ClusterConfig, ClusterSimulation, FaultPlan,
    KeyServiceConfig, LifecycleKind, SchedulerKind, SimulationResult,
};
use sesemi_enclave::SgxVersion;
use sesemi_fnpacker::RoutingStrategy;
use sesemi_inference::{ModelId, ModelProfile};
use sesemi_sim::{SimDuration, SimRng, SimTime};
use sesemi_workload::{ArrivalProcess, InteractiveSession, RequestArrival, Tier};

/// One open-loop traffic stream of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// The model the stream targets.
    pub model: ModelId,
    /// The user issuing the stream's requests.
    pub user_index: usize,
    /// The arrival process generating the stream.
    pub process: ArrivalProcess,
    /// Priority tier stamped on every request of the stream (default
    /// [`Tier::Standard`]).
    pub tier: Tier,
    /// Relative completion SLO: each request's absolute deadline is its
    /// arrival time plus this budget.  `None` (the default) means no
    /// deadline.
    pub slo: Option<SimDuration>,
}

/// A named, seeded, fully declarative cluster experiment.
///
/// Build one with [`Scenario::builder`]; [`Scenario::run`] replays it on a
/// fresh [`ClusterSimulation`].  Running the same scenario twice produces
/// identical results.
#[derive(Clone, Debug)]
pub struct Scenario {
    name: String,
    config: ClusterConfig,
    models: Vec<(ModelId, ModelProfile)>,
    prewarms: Vec<(ModelId, usize, usize)>,
    traffic: Vec<TrafficSpec>,
    sessions: Vec<InteractiveSession>,
    faults: FaultPlan,
    duration: SimDuration,
}

impl Scenario {
    /// Starts building a scenario with the single-node SGX2 defaults.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            config: ClusterConfig::default(),
            models: Vec::new(),
            prewarms: Vec::new(),
            traffic: Vec::new(),
            sessions: Vec::new(),
            faults: FaultPlan::new(),
            duration: SimDuration::from_secs(60),
        }
    }

    /// The scenario's name (used in reports and logs).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cluster configuration the scenario runs against.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The workload horizon.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// The scenario's fault plan (empty for failure-free runs).
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether the scenario injects failures.
    #[must_use]
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Replays the scenario and returns the aggregated results.
    ///
    /// The replay order is fixed — simulator construction, prewarms, traffic
    /// generation (one shared RNG seeded from the scenario seed, streams in
    /// declaration order, merged by arrival time), sessions, then the event
    /// loop — so a scenario is reproducible bit for bit.
    ///
    /// Every run's ledger is checked with [`SimulationResult::check`], in
    /// release builds too: a simulator change that silently loses queued
    /// requests (the historical saturated-queue bugs) or unbalances the
    /// warm-hit or cold-start ledgers fails every scenario instead of just
    /// skewing a counter.
    ///
    /// # Panics
    /// Panics with the [`LedgerViolation`](sesemi::cluster::LedgerViolation)
    /// if the run breaks a ledger identity.
    #[must_use]
    pub fn run(&self) -> SimulationResult {
        let mut sim = ClusterSimulation::new(self.config.clone(), self.models.clone());
        for (model, user_index, count) in &self.prewarms {
            sim.prewarm(model, *user_index, *count);
        }
        let mut rng = SimRng::seed_from_u64(self.config.seed);
        let streams: Vec<Vec<RequestArrival>> = self
            .traffic
            .iter()
            .map(|spec| {
                let mut stream =
                    spec.process
                        .generate(&spec.model, spec.user_index, self.duration, &mut rng);
                // Stamp the stream's tier and SLO after generation: the
                // arrival times (and therefore the rng stream) are
                // untouched, so tiered and untiered variants of a scenario
                // replay the exact same trace.
                for arrival in &mut stream {
                    arrival.tier = spec.tier;
                    if let Some(slo) = spec.slo {
                        arrival.deadline = Some(arrival.at + slo);
                    }
                }
                stream
            })
            .collect();
        sim.add_arrivals(ArrivalProcess::merge(streams));
        for session in &self.sessions {
            sim.add_session(session.clone());
        }
        sim.add_fault_plan(&self.faults);
        let result = sim.run(self.duration);
        if let Err(violation) = result.check() {
            panic!("scenario {:?}: {violation}", self.name);
        }
        result
    }
}

/// Builder for [`Scenario`] — every knob of the experiment grid as a chained
/// setter.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    name: String,
    config: ClusterConfig,
    models: Vec<(ModelId, ModelProfile)>,
    prewarms: Vec<(ModelId, usize, usize)>,
    traffic: Vec<TrafficSpec>,
    sessions: Vec<InteractiveSession>,
    faults: FaultPlan,
    duration: SimDuration,
}

impl ScenarioBuilder {
    /// Replaces the whole cluster configuration (escape hatch for presets
    /// such as [`ClusterConfig::single_node_sgx1`]); individual setters may
    /// still override fields afterwards.
    #[must_use]
    pub fn cluster(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Experiment seed (drives workload generation and the simulator).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Number of invoker nodes.
    #[must_use]
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// SGX generation of the nodes (also resets the EPC size to the
    /// generation's default).
    #[must_use]
    pub fn sgx(mut self, sgx: SgxVersion) -> Self {
        self.config.sgx = sgx;
        self.config.epc_bytes = sgx.default_epc_bytes();
        self
    }

    /// EPC size per node.
    #[must_use]
    pub fn epc_bytes(mut self, bytes: u64) -> Self {
        self.config.epc_bytes = bytes;
        self
    }

    /// Invoker memory available for containers on each node.
    #[must_use]
    pub fn invoker_memory_bytes(mut self, bytes: u64) -> Self {
        self.config.invoker_memory_bytes = bytes;
        self
    }

    /// The serving strategy under test.
    #[must_use]
    pub fn strategy(mut self, strategy: ServingStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// The multi-model routing strategy.
    #[must_use]
    pub fn routing(mut self, routing: RoutingStrategy) -> Self {
        self.config.routing = routing;
        self
    }

    /// The node-placement policy.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// The container-lifecycle policy: which idle containers keep-alive
    /// reclaims and which node a scale-in drains (default
    /// [`LifecycleKind::AgeOnly`], the behaviour-preserving pre-refactor
    /// rules).
    #[must_use]
    pub fn lifecycle(mut self, lifecycle: LifecycleKind) -> Self {
        self.config.lifecycle = lifecycle;
        self
    }

    /// The admission-control policy consulted for arrivals the cluster
    /// cannot serve immediately (default [`AdmissionKind::AdmitAll`], the
    /// behaviour-preserving pre-refactor rule: queue everything).
    #[must_use]
    pub fn admission(mut self, admission: AdmissionKind) -> Self {
        self.config.admission = admission;
        self
    }

    /// The batched-execution window: a warm container absorbs up to
    /// `window` compatible same-⟨user, model⟩ requests from the saturated
    /// queue into one execution (default window 1 — batching off, the
    /// behaviour-preserving pre-batching engine).
    #[must_use]
    pub fn batching(mut self, batching: BatchingConfig) -> Self {
        self.config.batching = batching;
        self
    }

    /// Enables elastic node-pool autoscaling: the pool starts at
    /// [`ScenarioBuilder::nodes`] and grows/shrinks within the policy's
    /// bounds.  Autoscaled scenarios stay deterministic — the policy is a
    /// pure function of the sampled cluster state.
    #[must_use]
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.config.autoscale = Some(autoscale);
        self
    }

    /// TCS count / per-container concurrency.
    #[must_use]
    pub fn tcs_per_container(mut self, tcs: usize) -> Self {
        self.config.tcs_per_container = tcs;
        self
    }

    /// The KeyService provisioning model: replicas, per-request service time
    /// and per-replica TCS concurrency (default
    /// [`KeyServiceConfig::default`] — provisioning un-modeled, cold paths
    /// keep the flat `sandbox_cold_start`).
    #[must_use]
    pub fn keyservice(mut self, keyservice: KeyServiceConfig) -> Self {
        self.config.keyservice = keyservice;
        self
    }

    /// Idle-container keep-alive window.
    #[must_use]
    pub fn keep_alive(mut self, keep_alive: SimDuration) -> Self {
        self.config.keep_alive = keep_alive;
        self
    }

    /// Registers a model with its calibrated profile.
    #[must_use]
    pub fn model(mut self, model: ModelId, profile: ModelProfile) -> Self {
        self.models.push((model, profile));
        self
    }

    /// Registers several models at once.
    #[must_use]
    pub fn models(mut self, models: impl IntoIterator<Item = (ModelId, ModelProfile)>) -> Self {
        self.models.extend(models);
        self
    }

    /// Pre-warms `count` hot sandboxes for `model` on behalf of a user
    /// before the workload starts.
    #[must_use]
    pub fn prewarm(mut self, model: ModelId, user_index: usize, count: usize) -> Self {
        self.prewarms.push((model, user_index, count));
        self
    }

    /// Adds an open-loop traffic stream for `model` issued by `user_index`.
    /// Streams are generated in declaration order from the scenario's seed.
    #[must_use]
    pub fn traffic(self, model: ModelId, user_index: usize, process: ArrivalProcess) -> Self {
        self.traffic_tiered(model, user_index, process, Tier::default(), None)
    }

    /// Adds an open-loop traffic stream with an explicit priority tier and
    /// an optional per-request completion SLO (each request's deadline is
    /// its arrival time plus `slo`).  The tier and SLO decorate the
    /// generated trace without consuming randomness, so a tiered stream
    /// replays the same arrivals as [`ScenarioBuilder::traffic`].
    #[must_use]
    pub fn traffic_tiered(
        mut self,
        model: ModelId,
        user_index: usize,
        process: ArrivalProcess,
        tier: Tier,
        slo: Option<SimDuration>,
    ) -> Self {
        self.traffic.push(TrafficSpec {
            model,
            user_index,
            process,
            tier,
            slo,
        });
        self
    }

    /// Adds a closed-loop interactive session.
    #[must_use]
    pub fn session(mut self, session: InteractiveSession) -> Self {
        self.sessions.push(session);
        self
    }

    /// Adds the paper's two Table IV sessions over the scenario's models.
    #[must_use]
    pub fn paper_sessions(mut self) -> Self {
        let ids: Vec<ModelId> = self.models.iter().map(|(m, _)| m.clone()).collect();
        self.sessions
            .extend(InteractiveSession::paper_sessions(&ids));
        self
    }

    /// Injects a whole-node crash at `at` (see
    /// [`sesemi::cluster::Fault::NodeCrash`]).  The target must lie within
    /// the configured pool bounds — validated by
    /// [`ScenarioBuilder::build`].
    #[must_use]
    pub fn node_crash(mut self, at: SimTime, node: usize) -> Self {
        self.faults = self.faults.node_crash(at, node);
        self
    }

    /// Injects a kill of every container holding `model` at `at` (see
    /// [`sesemi::cluster::Fault::ContainerKill`]).  The model must be
    /// registered — validated by [`ScenarioBuilder::build`].
    #[must_use]
    pub fn container_kill(mut self, at: SimTime, model: ModelId) -> Self {
        self.faults = self.faults.container_kill(at, model);
        self
    }

    /// Injects a KeyService replica crash at `at` (see
    /// [`sesemi::cluster::Fault::KeyServiceCrash`]).  The scenario must
    /// model provisioning ([`KeyServiceConfig::enabled`]) and the target
    /// replica must exist — validated by [`ScenarioBuilder::build`].
    #[must_use]
    pub fn keyservice_crash(mut self, at: SimTime, replica: usize) -> Self {
        self.faults = self.faults.keyservice_crash(at, replica);
        self
    }

    /// Drops every injected fault — turns a fault-bearing corpus entry into
    /// its failure-free control run.
    #[must_use]
    pub fn clear_faults(mut self) -> Self {
        self.faults = FaultPlan::new();
        self
    }

    /// The registered model ids, in registration order (for fault
    /// generators that need valid kill targets).
    #[must_use]
    pub fn model_ids(&self) -> Vec<ModelId> {
        self.models.iter().map(|(m, _)| m.clone()).collect()
    }

    /// One past the highest node id the *configuration* provisions: the
    /// initial node count, or the autoscaler's upper bound if that is
    /// larger.  Node-crash targets must lie below it.  (An autoscaled run
    /// that crashes nodes can allocate replacement ids beyond this bound at
    /// runtime — retired ids stay allocated for index stability — but those
    /// ids are not knowable at build time and are not valid declarative
    /// targets.)
    #[must_use]
    pub fn node_pool_bound(&self) -> usize {
        self.config
            .autoscale
            .as_ref()
            .map_or(self.config.nodes, |scale| {
                scale.max_nodes.max(self.config.nodes)
            })
    }

    /// The workload horizon (default 60 s).
    #[must_use]
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Panics
    /// Panics if no model was registered; if a prewarm, traffic stream,
    /// session or container-kill fault references an unregistered model; or
    /// if a node-crash fault targets a node outside the configured pool
    /// bounds ([`ScenarioBuilder::node_pool_bound`]) — catching composition
    /// mistakes at build time instead of deep inside the simulator.
    #[must_use]
    pub fn build(self) -> Scenario {
        assert!(
            !self.models.is_empty(),
            "scenario {:?} registers no models",
            self.name
        );
        if let Some(target) = self.faults.max_crash_target() {
            let bound = self.node_pool_bound();
            assert!(
                target < bound,
                "scenario {:?} crashes node {target}, outside the configured \
                 pool bounds (valid node ids are 0..{bound})",
                self.name
            );
        }
        if let Some(target) = self.faults.max_keyservice_crash_target() {
            assert!(
                self.config.keyservice.enabled(),
                "scenario {:?} crashes a KeyService replica but does not \
                 model provisioning (set ScenarioBuilder::keyservice)",
                self.name
            );
            let replicas = self.config.keyservice.replicas;
            assert!(
                target < replicas,
                "scenario {:?} crashes KeyService replica {target}, outside \
                 the configured replica set (valid replicas are 0..{replicas})",
                self.name
            );
        }
        let registered = |model: &ModelId| self.models.iter().any(|(m, _)| m == model);
        for (model, _, _) in &self.prewarms {
            assert!(
                registered(model),
                "scenario {:?} prewarms unregistered model {model}",
                self.name
            );
        }
        for spec in &self.traffic {
            assert!(
                registered(&spec.model),
                "scenario {:?} sends traffic to unregistered model {}",
                self.name,
                spec.model
            );
        }
        for session in &self.sessions {
            for model in &session.models {
                assert!(
                    registered(model),
                    "scenario {:?} session {:?} queries unregistered model {model}",
                    self.name,
                    session.name
                );
            }
        }
        for model in self.faults.kill_targets() {
            assert!(
                registered(model),
                "scenario {:?} kills containers of unregistered model {model}",
                self.name
            );
        }
        Scenario {
            name: self.name,
            config: self.config,
            models: self.models,
            prewarms: self.prewarms,
            traffic: self.traffic,
            sessions: self.sessions,
            faults: self.faults,
            duration: self.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_inference::{Framework, ModelKind};

    fn mbnet() -> (ModelId, ModelProfile) {
        (
            ModelKind::MbNet.default_id(),
            ModelProfile::paper(ModelKind::MbNet, Framework::Tvm),
        )
    }

    fn quick_scenario(seed: u64) -> Scenario {
        let (model, profile) = mbnet();
        Scenario::builder("quick")
            .seed(seed)
            .nodes(2)
            .tcs_per_container(2)
            .model(model.clone(), profile)
            .prewarm(model.clone(), 0, 2)
            .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 8.0 })
            .duration(SimDuration::from_secs(30))
            .build()
    }

    #[test]
    fn scenarios_expose_their_composition() {
        let scenario = quick_scenario(5);
        assert_eq!(scenario.name(), "quick");
        assert_eq!(scenario.config().nodes, 2);
        assert_eq!(scenario.config().seed, 5);
        assert_eq!(scenario.duration(), SimDuration::from_secs(30));
    }

    #[test]
    fn the_same_scenario_reproduces_identical_results() {
        let a = quick_scenario(9).run();
        let b = quick_scenario(9).run();
        assert!(a.completed > 100);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.mean_latency(), b.mean_latency());
        assert_eq!(a.p95_latency(), b.p95_latency());
        assert_eq!(a.hot_fraction(), b.hot_fraction());
        assert!((a.gb_seconds - b.gb_seconds).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_produce_different_workloads() {
        let a = quick_scenario(1).run();
        let b = quick_scenario(2).run();
        assert_ne!(a.completed, b.completed);
    }

    #[test]
    fn multi_stream_scenarios_interleave_traffic_and_sessions() {
        let models: Vec<(ModelId, ModelProfile)> = (0..3)
            .map(|i| {
                (
                    ModelId::new(format!("m{i}")),
                    ModelProfile::paper(ModelKind::DsNet, Framework::Tvm),
                )
            })
            .collect();
        let ids: Vec<ModelId> = models.iter().map(|(m, _)| m.clone()).collect();
        let result = Scenario::builder("multi")
            .seed(11)
            .nodes(4)
            .routing(RoutingStrategy::FnPacker)
            .models(models)
            .traffic(
                ids[0].clone(),
                0,
                ArrivalProcess::Poisson { rate_per_sec: 2.0 },
            )
            .traffic(
                ids[1].clone(),
                1,
                ArrivalProcess::Poisson { rate_per_sec: 2.0 },
            )
            .session(InteractiveSession::new(
                "Session 1",
                sesemi_sim::SimTime::from_secs(60),
                ids,
                9,
            ))
            .duration(SimDuration::from_secs(120))
            .build()
            .run();
        assert!(result.completed > 200);
        assert_eq!(result.session_latencies.len(), 3);
    }

    #[test]
    fn every_run_satisfies_the_conservation_invariant() {
        // The builder's run() checks the ledger; this test additionally pins
        // the expectation that a comfortably provisioned scenario drops
        // nothing at all.
        let result = quick_scenario(3).run();
        assert_eq!(result.check(), Ok(()));
        assert_eq!(result.dropped, 0);
        assert_eq!(result.admitted, result.completed);
    }

    #[test]
    fn autoscaled_scenarios_are_deterministic_and_conserve_requests() {
        let (model, profile) = mbnet();
        let run = || {
            Scenario::builder("autoscaled-quick")
                .seed(13)
                .nodes(1)
                .invoker_memory_bytes(
                    sesemi_platform::PlatformConfig::round_memory_budget(
                        profile.enclave_bytes_for_concurrency(1),
                    ) * 2,
                )
                .keep_alive(SimDuration::from_secs(30))
                .autoscale(sesemi::cluster::AutoscaleConfig::new(1, 3))
                .model(model.clone(), profile)
                .traffic(
                    model.clone(),
                    0,
                    ArrivalProcess::Poisson { rate_per_sec: 25.0 },
                )
                .duration(SimDuration::from_secs(90))
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert!(a.scale_out_events >= 1, "the pool never grew");
        assert_eq!(a.dropped, 0);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.scale_out_events, b.scale_out_events);
        assert_eq!(a.scale_in_events, b.scale_in_events);
        assert_eq!(a.peak_nodes, b.peak_nodes);
        assert!((a.node_gb_seconds - b.node_gb_seconds).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "registers no models")]
    fn scenarios_without_models_are_rejected() {
        let _ = Scenario::builder("empty").build();
    }

    #[test]
    fn fault_plans_ride_along_and_control_runs_can_drop_them() {
        let (model, profile) = mbnet();
        let builder = Scenario::builder("faulty")
            .nodes(2)
            .model(model.clone(), profile)
            .traffic(
                model.clone(),
                0,
                ArrivalProcess::Poisson { rate_per_sec: 4.0 },
            )
            .node_crash(SimTime::from_secs(10), 1)
            .container_kill(SimTime::from_secs(20), model);
        assert_eq!(builder.node_pool_bound(), 2);
        assert_eq!(builder.model_ids().len(), 1);
        let scenario = builder.clone().build();
        assert!(scenario.has_faults());
        assert_eq!(scenario.faults().len(), 2);
        let control = builder.clear_faults().build();
        assert!(!control.has_faults());
    }

    #[test]
    fn autoscaled_pools_accept_crashes_up_to_the_scale_bound() {
        let (model, profile) = mbnet();
        // 1 initial node, autoscale up to 3: node id 2 is a legal target
        // even though it does not exist at t=0.
        let scenario = Scenario::builder("autoscale-crash-bound")
            .nodes(1)
            .autoscale(sesemi::cluster::AutoscaleConfig::new(1, 3))
            .model(model.clone(), profile)
            .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 1.0 })
            .node_crash(SimTime::from_secs(5), 2)
            .build();
        assert!(scenario.has_faults());
    }

    #[test]
    #[should_panic(expected = "outside the configured pool bounds")]
    fn crashes_outside_the_pool_bounds_are_rejected() {
        let (model, profile) = mbnet();
        let _ = Scenario::builder("bad-crash")
            .nodes(2)
            .model(model.clone(), profile)
            .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 1.0 })
            .node_crash(SimTime::from_secs(5), 2)
            .build();
    }

    #[test]
    fn keyservice_scenarios_queue_provisions_and_survive_replica_crashes() {
        let (model, profile) = mbnet();
        let run = |keyservice: KeyServiceConfig, crash: bool| {
            let mut builder = Scenario::builder("keyservice-quick")
                .seed(19)
                .nodes(2)
                .keyservice(keyservice)
                .model(model.clone(), profile)
                .traffic(
                    model.clone(),
                    0,
                    ArrivalProcess::Poisson { rate_per_sec: 6.0 },
                )
                .duration(SimDuration::from_secs(30));
            if crash {
                builder = builder.keyservice_crash(SimTime::from_secs(5), 0);
            }
            builder.build().run()
        };
        let queued = run(
            KeyServiceConfig::queued(2, SimDuration::from_millis(100), 1),
            false,
        );
        assert!(queued.provisioned_keys > 0);
        assert_eq!(queued.keyservice_crashes, 0);
        let crashed = run(
            KeyServiceConfig::queued(2, SimDuration::from_millis(100), 1),
            true,
        );
        assert_eq!(crashed.keyservice_crashes, 1);
        assert_eq!(crashed.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "does not model provisioning")]
    fn keyservice_crashes_without_a_keyservice_model_are_rejected() {
        let (model, profile) = mbnet();
        let _ = Scenario::builder("bad-ks-crash")
            .model(model.clone(), profile)
            .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 1.0 })
            .keyservice_crash(SimTime::from_secs(5), 0)
            .build();
    }

    #[test]
    #[should_panic(expected = "outside the configured replica set")]
    fn keyservice_crashes_outside_the_replica_set_are_rejected() {
        let (model, profile) = mbnet();
        let _ = Scenario::builder("bad-ks-replica")
            .keyservice(KeyServiceConfig::queued(2, SimDuration::from_millis(50), 4))
            .model(model.clone(), profile)
            .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 1.0 })
            .keyservice_crash(SimTime::from_secs(5), 2)
            .build();
    }

    #[test]
    #[should_panic(expected = "kills containers of unregistered model")]
    fn container_kills_of_unregistered_models_are_rejected() {
        let (model, profile) = mbnet();
        let _ = Scenario::builder("bad-kill")
            .model(model, profile)
            .container_kill(SimTime::from_secs(5), ModelId::new("ghost"))
            .build();
    }

    #[test]
    #[should_panic(expected = "unregistered model")]
    fn traffic_to_unregistered_models_is_rejected() {
        let (model, profile) = mbnet();
        let _ = Scenario::builder("bad")
            .model(model, profile)
            .traffic(
                ModelId::new("ghost"),
                0,
                ArrivalProcess::Poisson { rate_per_sec: 1.0 },
            )
            .build();
    }
}
