//! Per-run state of the cluster simulator: in-flight requests, simulated
//! sandbox caches and the aggregated [`SimulationResult`].

use sesemi_inference::ModelId;
use sesemi_platform::{ActionId, SandboxId};
use sesemi_runtime::InvocationPath;
use sesemi_sim::{LatencyStats, SimDuration, SimTime, TimeSeries};
use sesemi_workload::Tier;
use std::collections::{HashMap, VecDeque};

/// A registered model's index: its position in the model list
/// [`ClusterSimulation::new`](crate::cluster::ClusterSimulation::new)
/// received.  The model set is fixed there, so every per-model table of a
/// run is a vector indexed by it.
pub(super) type ModelIndex = usize;

/// One simulated request.
#[derive(Clone, Debug)]
pub(super) struct SimRequest {
    pub(super) model: ModelIndex,
    pub(super) user_index: usize,
    pub(super) submitted: SimTime,
    pub(super) session: Option<usize>,
    /// Priority tier, read by admission-control policies under saturation.
    pub(super) tier: Tier,
    /// Absolute completion deadline, if the request carries an SLO.
    pub(super) deadline: Option<SimTime>,
    /// Whether admitting this request cold-started a container (set at
    /// assignment time; feeds the activation record's cold-start flag).
    pub(super) cold_start: bool,
}

impl SimRequest {
    /// An open-loop arrival, submitted at its arrival time.
    pub(super) fn from_arrival(arrival: &TraceArrival) -> Self {
        SimRequest {
            model: arrival.model,
            user_index: arrival.user_index,
            submitted: arrival.at,
            session: None,
            tier: arrival.tier,
            deadline: arrival.deadline,
            cold_start: false,
        }
    }

    pub(super) fn at_or_before(&self, end: SimTime) -> bool {
        self.submitted <= end
    }
}

/// One open-loop arrival as the trace holds it: a
/// [`RequestArrival`](sesemi_workload::RequestArrival) with its model
/// resolved to an index when the trace was added, so delivering it hashes
/// no name and drops no `Arc`.
#[derive(Clone, Copy, Debug)]
pub(super) struct TraceArrival {
    pub(super) at: SimTime,
    pub(super) model: ModelIndex,
    pub(super) user_index: usize,
    pub(super) tier: Tier,
    pub(super) deadline: Option<SimTime>,
}

/// One `add_arrivals` batch of the open-loop trace, held beside the event
/// queue: its arrivals not yet delivered, in time order, under consecutive
/// reserved insertion sequence numbers.
pub(super) struct TraceBatch {
    /// The sequence number of the front arrival.
    pub(super) next_seq: u64,
    pub(super) arrivals: VecDeque<TraceArrival>,
}

/// One invocation in flight on a sandbox slot, from dispatch to completion.
#[derive(Debug)]
pub(super) struct Invocation {
    pub(super) sandbox: SandboxId,
    pub(super) slot: usize,
    pub(super) node: usize,
    pub(super) action: ActionId,
    pub(super) request: SimRequest,
    /// Requests coalesced into this dispatch behind `request` (the batch
    /// head).  Empty — and allocation-free — on every unbatched run; each
    /// member gets its own completion accounting in `handle_done`.
    pub(super) extra: Vec<SimRequest>,
    pub(super) path: InvocationPath,
    pub(super) enclave_was_initialized: bool,
    pub(super) started: SimTime,
}

#[derive(Debug)]
pub(super) enum Event {
    Arrival(SimRequest),
    SandboxReady(SandboxId),
    InvocationDone(Invocation),
    EvictionTick,
    /// Periodic autoscaler sampling (only scheduled when autoscaling is
    /// configured).
    AutoscaleTick,
    /// A node requested by the autoscaler finishes provisioning and joins
    /// the pool.
    NodeProvisioned,
    /// Failure injection: the node dies, taking every container it hosts
    /// (busy or idle) with it.  Compiled from a
    /// [`FaultPlan`](crate::cluster::FaultPlan).
    NodeCrash {
        /// The node that fails.
        node: usize,
    },
    /// Failure injection: every container currently holding the model's
    /// state is killed (the processes die; their nodes survive).
    ContainerKill {
        /// The model whose containers die.
        model: ModelId,
    },
    /// Failure injection: a KeyService replica dies — the first fault class
    /// targeting the trust plane instead of the compute plane.  In-flight
    /// provisions re-resolve against a surviving peer.
    KeyServiceCrash {
        /// The replica that fails.
        replica: usize,
    },
}

/// Cached enclave state of one simulated sandbox.
#[derive(Clone, Debug)]
pub(super) struct SandboxSimState {
    pub(super) node: usize,
    /// The action this sandbox serves — kept here (not just in the
    /// controller) so requests parked in `waiting` can be re-queued under
    /// their admission-time action after the controller has already
    /// reclaimed the sandbox.
    pub(super) action: ActionId,
    pub(super) ready: bool,
    pub(super) enclave_ready: bool,
    /// The (user index, model) whose keys the enclave caches.
    pub(super) cached_keys: Option<(usize, ModelIndex)>,
    pub(super) loaded_model: Option<ModelIndex>,
    pub(super) slot_models: Vec<Option<ModelIndex>>,
    pub(super) slot_busy: Vec<bool>,
    pub(super) waiting: VecDeque<SimRequest>,
    pub(super) enclave_bytes: u64,
}

impl SandboxSimState {
    pub(super) fn new(node: usize, action: ActionId, slots: usize, enclave_bytes: u64) -> Self {
        SandboxSimState {
            node,
            action,
            ready: false,
            enclave_ready: false,
            cached_keys: None,
            loaded_model: None,
            slot_models: vec![None; slots],
            slot_busy: vec![false; slots],
            waiting: VecDeque::new(),
            enclave_bytes,
        }
    }

    pub(super) fn free_slot(&self) -> Option<usize> {
        self.slot_busy.iter().position(|busy| !busy)
    }

    /// Whether the sandbox currently holds `model`'s state (a loaded model
    /// copy or a slot runtime initialised for it) — the victim predicate of
    /// [`Fault::ContainerKill`](crate::cluster::Fault).
    pub(super) fn hosts_model(&self, model: ModelIndex) -> bool {
        self.loaded_model == Some(model) || self.slot_models.iter().flatten().any(|m| *m == model)
    }

    /// The model whose warm state this container would contribute if kept
    /// alive: the loaded model, or (for strategies that wipe the model but
    /// keep slot runtimes) the first slot's model.  `None` for a container
    /// holding nothing warm — lifecycle policies score those neutrally.
    pub(super) fn warm_model(&self) -> Option<ModelIndex> {
        self.loaded_model
            .or_else(|| self.slot_models.iter().flatten().next().copied())
    }
}

/// Every [`InvocationPath`]; [`IndexedLedger`] indexes its path counts by
/// the variant's discriminant (`path as usize`).
const PATHS: [InvocationPath; 3] = [
    InvocationPath::Cold,
    InvocationPath::Warm,
    InvocationPath::Hot,
];

/// The run ledger's per-model and per-path counters while a run goes,
/// indexed by [`ModelIndex`] and path instead of hashed by name.
/// [`IndexedLedger::fold_into`] writes them into [`SimulationResult`]'s
/// public maps once, when the run ends.
#[derive(Debug)]
pub(super) struct IndexedLedger {
    model_latency: Vec<LatencyStats>,
    model_warm_hits: Vec<u64>,
    path_counts: [u64; PATHS.len()],
}

impl IndexedLedger {
    /// An empty ledger for `models` registered models.
    pub(super) fn new(models: usize) -> Self {
        IndexedLedger {
            model_latency: vec![LatencyStats::default(); models],
            model_warm_hits: vec![0; models],
            path_counts: [0; PATHS.len()],
        }
    }

    /// Counts `hits` warm-hit dispatches of `model`.
    pub(super) fn record_warm_hits(&mut self, model: ModelIndex, hits: u64) {
        self.model_warm_hits[model] += hits;
    }

    /// Records one completed request of `model`, served on `path`.
    pub(super) fn record_completion(
        &mut self,
        model: ModelIndex,
        path: InvocationPath,
        latency: SimDuration,
    ) {
        self.model_latency[model].record(latency);
        self.path_counts[path as usize] += 1;
    }

    /// Writes the counters into `result`'s public maps, keyed by the names
    /// in `models` (indexed like the ledger).  A model or path gets an entry
    /// only if it received at least one sample, as it would had every
    /// sample gone through `entry().or_insert`.
    pub(super) fn fold_into(self, result: &mut SimulationResult, models: &[ModelId]) {
        for (model, stats) in models.iter().zip(self.model_latency) {
            if stats.count() > 0 {
                result.per_model_latency.insert(model.clone(), stats);
            }
        }
        for (model, hits) in models.iter().zip(self.model_warm_hits) {
            if hits > 0 {
                result.per_model_warm_hits.insert(model.clone(), hits);
            }
        }
        for path in PATHS {
            let count = self.path_counts[path as usize];
            if count > 0 {
                result.path_counts.insert(path, count);
            }
        }
    }
}

/// Aggregated results of one simulation run.
///
/// This is also the simulator's run ledger: [`ClusterSimulation`] updates
/// one of these in place as events fire and returns it from `run()`, so
/// every counter is declared here and nowhere else.  [`SimulationResult::check`]
/// tests the identities that tie the counters together.
///
/// [`ClusterSimulation`]: crate::cluster::ClusterSimulation
#[derive(Debug, Default)]
pub struct SimulationResult {
    /// End-to-end latency of every completed request.
    pub latency: LatencyStats,
    /// Latency per model.
    pub per_model_latency: HashMap<ModelId, LatencyStats>,
    /// `(completion time, latency in seconds)` series for latency-over-time
    /// plots (Fig. 13).
    pub latency_series: TimeSeries,
    /// Requests served per invocation path.
    pub path_counts: HashMap<InvocationPath, u64>,
    /// Requests admitted into the cluster (scheduled immediately or queued
    /// for retry).  Conservation invariant: `admitted == completed +
    /// dropped` at the end of every run.
    pub admitted: u64,
    /// Completed requests.
    pub completed: u64,
    /// Admitted requests that were still queued (cluster-saturated queue or
    /// an evicted sandbox's waiting queue) when the run drained — work the
    /// cluster accepted but never served.
    pub dropped: u64,
    /// Requests refused at admission: arrivals past the measurement horizon
    /// (e.g. closed-loop session follow-ups issued after the run's end) and
    /// arrivals an [`AdmissionPolicy`](crate::cluster::AdmissionPolicy)
    /// turned away under saturation.  Not part of `admitted`; a rejected
    /// request contributes no latency sample, no per-model totals and no
    /// GB·s.
    pub rejected: u64,
    /// Admitted-then-dropped victims of an admission policy's
    /// shed-lower-tier verdict — queued requests removed to make room.
    /// A subset of `dropped`, so conservation still reads
    /// `admitted == completed + dropped`.
    pub shed: u64,
    /// Container cold starts.
    pub cold_starts: u64,
    /// Peak number of live sandboxes.
    pub peak_sandboxes: usize,
    /// Cluster memory integral in GB·seconds (Fig. 14's cost metric).
    pub gb_seconds: f64,
    /// Provisioned node-capacity integral in GB·seconds — what the cluster
    /// operator pays for keeping the (possibly autoscaled) node pool up.
    /// For a fixed pool this is `nodes × invoker memory × run length`.
    pub node_gb_seconds: f64,
    /// Per-activation billed GB·seconds per action (execution time × memory
    /// budget, the serverless pricing model of §VI-C), sorted by action name.
    pub per_action_gb_seconds: Vec<(String, f64)>,
    /// Peak committed container memory in bytes.
    pub peak_memory_bytes: u64,
    /// Peak number of provisioned nodes.
    pub peak_nodes: usize,
    /// Scale-out decisions taken by the autoscaler (0 for fixed pools).
    pub scale_out_events: u64,
    /// Scale-in (drain) decisions taken by the autoscaler (0 for fixed
    /// pools).
    pub scale_in_events: u64,
    /// Injected node crashes that actually took a node down (a
    /// [`Fault::NodeCrash`](crate::cluster::Fault) targeting an absent or
    /// already-retired node is a no-op and not counted).
    pub node_crashes: u64,
    /// Containers killed by injected
    /// [`Fault::ContainerKill`](crate::cluster::Fault) faults (node crashes
    /// reclaim containers too, but are counted per node above).
    pub containers_killed: u64,
    /// In-flight invocations cancelled by a fault and re-queued onto the
    /// cluster-saturated queue.  Each such request later completes (counted
    /// once in `completed`) or is accounted as `dropped` — conservation
    /// holds either way.
    pub requeued_inflight: u64,
    /// Requests that were parked in a killed sandbox's waiting queue and
    /// re-queued by the eviction cleanup path.  Zero on every fault-free
    /// run: idle-only eviction never reclaims a sandbox with parked
    /// requests, so a non-zero value proves the forced-kill re-queue path
    /// ran.
    pub requeued_waiting: u64,
    /// Containers reclaimed because their (possibly policy-extended)
    /// keep-alive window expired.
    pub evictions_expired: u64,
    /// Containers reclaimed by the lifecycle policy to relieve EPC pressure
    /// (only the warm-value policy evicts for this reason).
    pub evictions_pressure: u64,
    /// Containers reclaimed because their node was draining (the immediate
    /// reclaim at drain time plus the per-tick sweep of newly idle
    /// containers on draining nodes).  Zero for fixed pools.
    pub evictions_drain: u64,
    /// Successful request dispatches (a request re-dispatched after a fault
    /// re-queue counts once per dispatch).  Every dispatch is exactly one of
    /// a warm hit or a cold dispatch: `Σ per_model_warm_hits +
    /// cold_dispatches == dispatched`.
    pub dispatched: u64,
    /// Dispatches that had to cold-start a fresh container.
    pub cold_dispatches: u64,
    /// Warm hits per model (dispatches absorbed by an existing container).
    pub per_model_warm_hits: HashMap<ModelId, u64>,
    /// Cold starts not driven by a request: prewarmed containers plus
    /// pre-migrated drain replacements.  Closes the cold-start ledger:
    /// `cold_starts == cold_dispatches + auxiliary_cold_starts`.
    pub auxiliary_cold_starts: u64,
    /// Replacement containers the warm-value drain pre-migrated onto
    /// surviving nodes before retiring a victim's warm pool.
    pub premigrated: u64,
    /// Batched dispatches that coalesced two or more same-⟨user, model⟩
    /// requests into one invocation.  Always 0 when
    /// [`BatchingConfig`](crate::cluster::BatchingConfig) is disabled (the
    /// default) — asserted by the batching test corpus.
    pub batches_formed: u64,
    /// Requests served as members of a multi-request batch (the head
    /// included), so `batched_requests >= 2 * batches_formed`.
    pub batched_requests: u64,
    /// Widest batch formed during the run; bounded by the configured window.
    pub max_batch: usize,
    /// Provisioning requests served by the simulated KeyService pool — one
    /// per cold dispatch while the queued model is enabled.  Always 0 under
    /// the default [`KeyServiceConfig`](crate::cluster::KeyServiceConfig)
    /// (provisioning un-modeled), pinned by the pre-trust-plane goldens.
    pub provisioned_keys: u64,
    /// Total time cold dispatches spent queued behind the KeyService pool's
    /// TCS slots (the FIFO wait, excluding the service time itself).
    pub keyservice_wait: SimDuration,
    /// Injected KeyService replica crashes that actually took an alive
    /// replica down (out-of-range or already-dead targets are no-ops, as is
    /// any crash while provisioning is un-modeled).
    pub keyservice_crashes: u64,
    /// In-flight provisions whose replica died and that were re-resolved
    /// against a surviving peer in deterministic failover order.
    pub keyservice_failovers: u64,
    /// Discrete events the run's event loop processed — the denominator of
    /// the self-timing harness's events/sec figure.
    pub events_processed: u64,
    /// Incremental index-maintenance operations the platform controller
    /// performed over the run
    /// ([`Controller::index_ops`](sesemi_platform::Controller::index_ops)),
    /// copied when the run ends: deterministic work, not wall-clock.
    pub index_ops: u64,
    /// Sandbox records the controller's scheduling views examined over the
    /// run
    /// ([`Controller::view_sandboxes_scanned`](sesemi_platform::Controller::view_sandboxes_scanned)),
    /// copied when the run ends.
    pub view_sandboxes_scanned: u64,
    /// Sandbox-count time series (total, serving).
    pub sandbox_series: TimeSeries,
    /// Committed-memory time series in GB.
    pub memory_series: TimeSeries,
    /// Provisioned node-count time series (one point per membership change).
    pub node_series: TimeSeries,
    /// Latency of each interactive-session query: (session name, model) →
    /// latency (Table IV).
    pub session_latencies: Vec<(String, ModelId, SimDuration)>,
}

impl SimulationResult {
    /// Mean latency over all completed requests (zero for a run that
    /// completed nothing).
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        self.latency.mean()
    }

    /// p95 latency over all completed requests (zero for a run that
    /// completed nothing).
    #[must_use]
    pub fn p95_latency(&self) -> SimDuration {
        self.latency.p95()
    }

    /// p99 latency over all completed requests.
    #[must_use]
    pub fn p99_latency(&self) -> SimDuration {
        self.latency.p99()
    }

    /// Fraction of requests served per invocation path (0.0 for an empty
    /// run).
    #[must_use]
    pub fn path_fraction(&self, path: InvocationPath) -> f64 {
        let count = *self.path_counts.get(&path).unwrap_or(&0);
        if self.completed == 0 {
            0.0
        } else {
            count as f64 / self.completed as f64
        }
    }

    /// Fraction of requests served on the hot path.
    #[must_use]
    pub fn hot_fraction(&self) -> f64 {
        self.path_fraction(InvocationPath::Hot)
    }

    /// Tests every ledger identity that holds on every run, and returns the
    /// first one that fails:
    ///
    /// * conservation, `admitted == completed + dropped`;
    /// * the latency samples, the per-path counts and the per-model latency
    ///   samples each sum to `completed`;
    /// * `shed <= dropped` (shed victims were admitted, then dropped);
    /// * the warm-hit ledger, `warm_hits() + cold_dispatches == dispatched`;
    /// * the cold-start ledger, `cold_starts == cold_dispatches +
    ///   auxiliary_cold_starts`;
    /// * `dispatched >= completed`, `premigrated <= auxiliary_cold_starts`,
    ///   `provisioned_keys <= cold_dispatches` and `batched_requests >= 2 *
    ///   batches_formed`.
    ///
    /// `sesemi_scenario` calls it on every scenario run, in release builds
    /// too.
    ///
    /// # Errors
    /// The [`LedgerViolation`] of the first identity that does not hold.
    pub fn check(&self) -> Result<(), LedgerViolation> {
        use LedgerViolation as V;
        let per_model = self.per_model_latency.values().map(LatencyStats::count);
        let candidates = [
            V::Conservation(self.admitted, self.completed + self.dropped),
            V::LatencySamples(self.latency.count() as u64, self.completed),
            V::PathCounts(self.path_counts.values().sum(), self.completed),
            V::PerModelSamples(per_model.sum::<usize>() as u64, self.completed),
            V::Shed(self.shed, self.dropped),
            V::WarmHits(self.warm_hits() + self.cold_dispatches, self.dispatched),
            V::ColdStarts(
                self.cold_starts,
                self.cold_dispatches + self.auxiliary_cold_starts,
            ),
            V::Dispatched(self.dispatched, self.completed),
            V::Premigrated(self.premigrated, self.auxiliary_cold_starts),
            V::ProvisionedKeys(self.provisioned_keys, self.cold_dispatches),
            V::Batches(self.batched_requests, 2 * self.batches_formed),
        ];
        candidates
            .into_iter()
            .find(|candidate| !candidate.identity().3)
            .map_or(Ok(()), Err)
    }

    /// Total per-activation billed GB·seconds across all actions.
    #[must_use]
    pub fn activation_gb_seconds(&self) -> f64 {
        self.per_action_gb_seconds.iter().map(|(_, gbs)| gbs).sum()
    }

    /// Total warm hits across models (the complement of `cold_dispatches`
    /// within `dispatched`).
    #[must_use]
    pub fn warm_hits(&self) -> u64 {
        self.per_model_warm_hits.values().sum()
    }

    /// Mean KeyService queue wait per provisioned key (zero when
    /// provisioning is un-modeled or nothing cold-started).
    #[must_use]
    pub fn mean_keyservice_wait(&self) -> SimDuration {
        if self.provisioned_keys == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(
                self.keyservice_wait.as_secs_f64() / self.provisioned_keys as f64,
            )
        }
    }
}

/// A run-ledger identity that [`SimulationResult::check`] found broken.
/// Each variant carries the identity's left and right sides, in that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerViolation {
    /// `admitted == completed + dropped` (request conservation).
    Conservation(u64, u64),
    /// `latency samples == completed`.
    LatencySamples(u64, u64),
    /// `sum of path counts == completed`.
    PathCounts(u64, u64),
    /// `sum of per-model latency samples == completed`.
    PerModelSamples(u64, u64),
    /// `shed <= dropped`.
    Shed(u64, u64),
    /// `warm_hits + cold_dispatches == dispatched` (the warm-hit ledger).
    WarmHits(u64, u64),
    /// `cold_starts == cold_dispatches + auxiliary_cold_starts` (the
    /// cold-start ledger).
    ColdStarts(u64, u64),
    /// `dispatched >= completed`.
    Dispatched(u64, u64),
    /// `premigrated <= auxiliary_cold_starts`.
    Premigrated(u64, u64),
    /// `provisioned_keys <= cold_dispatches`.
    ProvisionedKeys(u64, u64),
    /// `batched_requests >= 2 * batches_formed`.
    Batches(u64, u64),
}

impl LedgerViolation {
    /// The identity as text, its left and right sides, and whether the
    /// sides satisfy it.
    fn identity(self) -> (&'static str, u64, u64, bool) {
        use LedgerViolation as V;
        match self {
            V::Conservation(l, r) => ("admitted == completed + dropped", l, r, l == r),
            V::LatencySamples(l, r) => ("latency samples == completed", l, r, l == r),
            V::PathCounts(l, r) => ("sum of path counts == completed", l, r, l == r),
            V::PerModelSamples(l, r) => (
                "sum of per-model latency samples == completed",
                l,
                r,
                l == r,
            ),
            V::Shed(l, r) => ("shed <= dropped", l, r, l <= r),
            V::WarmHits(l, r) => ("warm_hits + cold_dispatches == dispatched", l, r, l == r),
            V::ColdStarts(l, r) => (
                "cold_starts == cold_dispatches + auxiliary_cold_starts",
                l,
                r,
                l == r,
            ),
            V::Dispatched(l, r) => ("dispatched >= completed", l, r, l >= r),
            V::Premigrated(l, r) => ("premigrated <= auxiliary_cold_starts", l, r, l <= r),
            V::ProvisionedKeys(l, r) => ("provisioned_keys <= cold_dispatches", l, r, l <= r),
            V::Batches(l, r) => ("batched_requests >= 2 * batches_formed", l, r, l >= r),
        }
    }
}

impl std::fmt::Display for LedgerViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (identity, left, right, _) = self.identity();
        write!(
            f,
            "run ledger identity `{identity}` violated: left side {left}, right side {right}"
        )
    }
}

impl std::error::Error for LedgerViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger on which every identity holds, with the inequalities at
    /// their bounds, so each case below breaks exactly one identity.
    fn balanced() -> SimulationResult {
        let model = ModelId::new("m");
        let mut ledger = SimulationResult {
            admitted: 4,
            completed: 3,
            dropped: 1,
            shed: 1,
            dispatched: 4,
            cold_dispatches: 2,
            cold_starts: 3,
            auxiliary_cold_starts: 1,
            premigrated: 1,
            provisioned_keys: 2,
            batches_formed: 1,
            batched_requests: 2,
            path_counts: HashMap::from([(InvocationPath::Hot, 3)]),
            per_model_warm_hits: HashMap::from([(model.clone(), 2)]),
            ..SimulationResult::default()
        };
        for _ in 0..3 {
            ledger.latency.record(SimDuration::from_millis(1));
            ledger
                .per_model_latency
                .entry(model.clone())
                .or_default()
                .record(SimDuration::from_millis(1));
        }
        ledger
    }

    #[test]
    fn an_empty_ledger_and_the_balanced_one_pass() {
        assert_eq!(SimulationResult::default().check(), Ok(()));
        assert_eq!(balanced().check(), Ok(()));
    }

    #[test]
    fn check_returns_the_one_broken_identity_and_names_it() {
        use LedgerViolation as V;
        /// A way to break the balanced ledger, the violation it must
        /// produce, and the identity its message must name.
        type Case = (fn(&mut SimulationResult), LedgerViolation, &'static str);
        let cases: [Case; 11] = [
            (
                |l| l.admitted += 1,
                V::Conservation(5, 4),
                "admitted == completed + dropped",
            ),
            (
                |l| l.latency.record(SimDuration::ZERO),
                V::LatencySamples(4, 3),
                "latency samples == completed",
            ),
            (
                |l| *l.path_counts.entry(InvocationPath::Cold).or_default() += 1,
                V::PathCounts(4, 3),
                "sum of path counts == completed",
            ),
            (
                |l| {
                    let stats = l.per_model_latency.entry(ModelId::new("other"));
                    stats.or_default().record(SimDuration::ZERO);
                },
                V::PerModelSamples(4, 3),
                "sum of per-model latency samples == completed",
            ),
            (|l| l.shed += 1, V::Shed(2, 1), "shed <= dropped"),
            (
                |l| {
                    l.per_model_warm_hits.insert(ModelId::new("other"), 1);
                },
                V::WarmHits(5, 4),
                "warm_hits + cold_dispatches == dispatched",
            ),
            (
                |l| l.cold_starts += 1,
                V::ColdStarts(4, 3),
                "cold_starts == cold_dispatches + auxiliary_cold_starts",
            ),
            (
                // Fewer dispatches, all of them cold, so the warm-hit
                // ledger still balances.
                |l| {
                    l.per_model_warm_hits.clear();
                    l.dispatched = 2;
                },
                V::Dispatched(2, 3),
                "dispatched >= completed",
            ),
            (
                |l| l.premigrated += 1,
                V::Premigrated(2, 1),
                "premigrated <= auxiliary_cold_starts",
            ),
            (
                |l| l.provisioned_keys += 1,
                V::ProvisionedKeys(3, 2),
                "provisioned_keys <= cold_dispatches",
            ),
            (
                |l| l.batches_formed += 1,
                V::Batches(2, 4),
                "batched_requests >= 2 * batches_formed",
            ),
        ];
        for (breaks, expected, identity) in cases {
            let mut ledger = balanced();
            breaks(&mut ledger);
            let violation = ledger.check().expect_err(identity);
            assert_eq!(violation, expected);
            let message = violation.to_string();
            assert!(message.contains(identity), "{message}");
        }
    }
}
