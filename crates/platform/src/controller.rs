//! The platform controller (OpenWhisk's controller + load balancer).
//!
//! The controller keeps the cluster's state and exposes the views a policy
//! decides on; it makes no choice itself.  One dispatch, as the cluster
//! simulator makes it:
//!
//! 1. [`Controller::warm_candidates_into`] lists the action's warm
//!    containers with a free concurrency slot; if the scheduler picks one,
//!    [`Controller::assign_warm`] reuses it (the default pick is the most
//!    recently used, which maximizes hot invocations for SeMIRT).
//! 2. Otherwise, if [`Controller::fits_anywhere`] finds a node with room,
//!    [`Controller::node_snapshots_into`] describes every node and
//!    [`Controller::schedule_on`] starts a new container on the node the
//!    scheduler places it on.  [`default_placement`] prefers nodes already
//!    hosting the action ("OpenWhisk ... preferably launches instances of a
//!    function on the same machine", §VI-C), then the node with the most
//!    free invoker memory.
//! 3. If no node has enough free memory, the caller queues the request.
//!
//! Actions are addressed by the dense [`ActionId`] that
//! [`Controller::register_action`] returns; [`Controller::action_id`]
//! resolves a name once, where a request enters with one.
//!
//! Idle containers are listed by [`Controller::idle_candidates`] and
//! reclaimed by [`Controller::reclaim_sandboxes`] once a lifecycle policy
//! evicts them (by default after the keep-alive window, Table V: 3 minutes).

use crate::action::{ActionId, ActionName, ActionSpec};
use crate::config::PlatformConfig;
use crate::error::PlatformError;
use crate::sandbox::{Sandbox, SandboxId, SandboxState};
use sesemi_sim::{FxHashMap, IdSlab, SimTime};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Identifier of an invoker node (index into the cluster's node list).
///
/// Node ids are stable for the lifetime of a controller: removing a node
/// retires its slot instead of shifting the indices of its neighbours, so
/// external bookkeeping (per-node counters, consistent-hash rings) keyed by
/// `NodeId` stays valid across membership changes.
pub type NodeId = usize;

/// Lifecycle state of an invoker node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeState {
    /// The node accepts new container placements and warm reuse.
    Active,
    /// The node refuses new placements; in-flight work finishes and idle
    /// containers are reclaimed immediately (ignoring keep-alive), after
    /// which the node can be removed.
    Draining,
    /// The node has been removed from the pool.  Its slot (and id) remain so
    /// node indices stay stable, but it hosts nothing and costs nothing.
    Retired,
}

/// One invoker node's bookkeeping, including the incrementally maintained
/// occupancy counters [`Controller::node_snapshots_into`] copies out: every
/// sandbox lifecycle transition adjusts them in O(1), so a snapshot query
/// never has to walk the sandbox map.  The node's per-action counts live in
/// [`Controller`]'s `action_node_sandboxes`, one vector per action id.
#[derive(Clone, Debug)]
struct InvokerNode {
    memory_capacity: u64,
    memory_used: u64,
    state: NodeState,
    /// Live sandboxes (any action, any state) hosted by the node.
    total_sandboxes: usize,
    /// Activations currently in flight on the node.
    active_invocations: usize,
}

impl InvokerNode {
    fn fresh(memory_capacity: u64) -> Self {
        InvokerNode {
            memory_capacity,
            memory_used: 0,
            state: NodeState::Active,
            total_sandboxes: 0,
            active_invocations: 0,
        }
    }

    /// Whether a new container of `memory_bytes` may start here: the node is
    /// Active and has the memory free.  [`Controller::fits_anywhere`] and
    /// [`Controller::schedule_on`] apply it to the nodes, and
    /// [`NodeSnapshot::fits`] applies the same rule to a snapshot.
    fn fits(&self, memory_bytes: u64) -> bool {
        self.state == NodeState::Active && self.memory_used + memory_bytes <= self.memory_capacity
    }
}

/// A point-in-time load/memory view of one invoker node, exposed so external
/// placement policies (the `Scheduler` implementations in the `sesemi` core
/// crate) can decide where a new container should go without reaching into
/// controller internals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The node this snapshot describes.
    pub node: NodeId,
    /// Total invoker memory on the node.
    pub memory_capacity: u64,
    /// Memory committed to containers on the node.
    pub memory_used: u64,
    /// Live sandboxes (any action, any state) hosted by the node.
    pub total_sandboxes: usize,
    /// Live sandboxes of the queried action hosted by the node.
    pub action_sandboxes: usize,
    /// Activations currently in flight on the node.
    pub active_invocations: usize,
    /// Whether the node accepts new placements (false for draining and
    /// retired nodes; [`NodeSnapshot::fits`] is always false for those, so
    /// `fits`-respecting policies need no special casing).
    pub schedulable: bool,
}

impl NodeSnapshot {
    /// Free invoker memory on the node.
    #[must_use]
    pub fn free_memory(&self) -> u64 {
        self.memory_capacity - self.memory_used
    }

    /// Whether a container of `memory_bytes` fits on the node (always false
    /// on a node that is draining or retired).
    #[must_use]
    pub fn fits(&self, memory_bytes: u64) -> bool {
        self.schedulable && self.memory_used + memory_bytes <= self.memory_capacity
    }
}

/// An idle container the lifecycle layer may reclaim right now, with the
/// facts an eviction policy decides on.  Produced by
/// [`Controller::idle_candidates`] in ascending sandbox-id order, so policy
/// decisions built from this view are deterministic by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdleCandidate {
    /// The idle sandbox.
    pub sandbox: SandboxId,
    /// The node hosting it.
    pub node: NodeId,
    /// The action it serves.
    pub action: ActionId,
    /// When it last served (or was assigned) an activation — the keep-alive
    /// clock.
    pub last_used: SimTime,
    /// Whether its keep-alive window has expired (the built-in reclaim
    /// trigger).
    pub expired: bool,
    /// Whether its node is draining (draining nodes reclaim idle containers
    /// immediately, ignoring keep-alive).
    pub node_draining: bool,
}

/// A warm container that could absorb one more invocation of an action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmCandidate {
    /// The sandbox.
    pub sandbox: SandboxId,
    /// The node hosting it.
    pub node: NodeId,
    /// When it last served (or was assigned) an activation.
    pub last_used: SimTime,
    /// Whether the container is still cold-starting (an assigned invocation
    /// must additionally wait for readiness).
    pub still_starting: bool,
}

/// The platform's default placement policy, for schedulers to delegate to:
/// prefer nodes already hosting the action
/// ("home-invoker affinity", lowest index first), then the node with the most
/// free memory (ties resolved towards the highest index, matching
/// `Iterator::max_by_key`).  Returns `None` when no node fits.
#[must_use]
pub fn default_placement(memory_bytes: u64, nodes: &[NodeSnapshot]) -> Option<NodeId> {
    for snapshot in nodes {
        if snapshot.action_sandboxes > 0 && snapshot.fits(memory_bytes) {
            return Some(snapshot.node);
        }
    }
    nodes
        .iter()
        .filter(|snapshot| snapshot.fits(memory_bytes))
        .max_by_key(|snapshot| snapshot.free_memory())
        .map(|snapshot| snapshot.node)
}

/// Result of scheduling one invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleOutcome {
    /// The invocation was assigned to an existing warm (or already starting)
    /// container.
    Reused {
        /// The chosen sandbox.
        sandbox: SandboxId,
        /// Whether that sandbox is still cold-starting (the invocation must
        /// additionally wait for it to become ready).
        still_starting: bool,
    },
    /// A new container was created for this invocation (cold start).
    ColdStart {
        /// The new sandbox.
        sandbox: SandboxId,
        /// The node it was placed on.
        node: NodeId,
    },
}

impl ScheduleOutcome {
    /// The sandbox the invocation was assigned to.
    #[must_use]
    pub fn sandbox(&self) -> SandboxId {
        match self {
            ScheduleOutcome::Reused { sandbox, .. }
            | ScheduleOutcome::ColdStart { sandbox, .. } => *sandbox,
        }
    }

    /// Whether this outcome corresponds to a container cold start.
    #[must_use]
    pub fn is_cold_start(&self) -> bool {
        matches!(self, ScheduleOutcome::ColdStart { .. })
    }
}

/// The serverless platform controller.
#[derive(Debug)]
pub struct Controller {
    config: PlatformConfig,
    nodes: Vec<InvokerNode>,
    /// Registered actions, indexed by [`ActionId`].
    actions: Vec<ActionSpec>,
    /// The naming edge: each registered name's id.
    action_ids: FxHashMap<ActionName, ActionId>,
    /// Live sandboxes, indexed by [`SandboxId`]: ids are handed out in
    /// order from zero, so the slab holds one slot per sandbox ever created
    /// and iterates in ascending id order.
    sandboxes: IdSlab<Sandbox>,
    /// Σ `memory_used` over the nodes, kept beside them so the per-event
    /// [`Controller::committed_memory_bytes`] read is O(1).
    committed_memory: u64,
    /// Live sandbox count of each action per node: indexed by [`ActionId`],
    /// then by `NodeId`.  A node past the end of an action's vector hosts
    /// none of it.
    action_node_sandboxes: Vec<Vec<usize>>,
    next_sandbox_id: u64,
    total_cold_starts: u64,
    /// Per-action warm-candidate index, indexed by [`ActionId`]: exactly the
    /// sandboxes of the action that hold a free concurrency slot on an
    /// Active node, ordered by sandbox id (a `BTreeSet` iterates ascending,
    /// so the view keeps the documented tie-break order without sorting).
    /// Maintained at every lifecycle transition.  A set that empties stays
    /// in place: under saturation an action's set empties at every dispatch
    /// and refills at every completion.
    warm_index: Vec<BTreeSet<SandboxId>>,
    /// Sandboxes with at least one activation in flight — the
    /// [`Controller::serving_sandbox_count`] view, maintained at
    /// assign/finish/reclaim time.
    serving_sandboxes: usize,
    view_sandboxes_scanned: Cell<u64>,
    index_ops: u64,
}

impl Controller {
    /// Creates a controller managing `node_count` identical invoker nodes.
    #[must_use]
    pub fn new(config: PlatformConfig, node_count: usize) -> Self {
        assert!(node_count > 0, "a cluster needs at least one invoker");
        let nodes = (0..node_count)
            .map(|_| InvokerNode::fresh(config.invoker_memory_bytes))
            .collect();
        Controller {
            config,
            nodes,
            actions: Vec::new(),
            action_ids: FxHashMap::default(),
            sandboxes: IdSlab::new(),
            committed_memory: 0,
            action_node_sandboxes: Vec::new(),
            next_sandbox_id: 0,
            total_cold_starts: 0,
            warm_index: Vec::new(),
            serving_sandboxes: 0,
            view_sandboxes_scanned: Cell::new(0),
            index_ops: 0,
        }
    }

    /// Total sandbox records examined while serving scheduling-view queries
    /// ([`Controller::warm_candidates_into`] and
    /// [`Controller::node_snapshots_into`]) since creation — the work
    /// counter the scaling regression test pins: per-dispatch view cost must
    /// depend on the queried action's warm set, never on how many sandboxes
    /// *other* actions keep alive.
    #[must_use]
    pub fn view_sandboxes_scanned(&self) -> u64 {
        self.view_sandboxes_scanned.get()
    }

    /// Total incremental index-maintenance operations (insertions, removals
    /// and occupancy-counter updates) performed at lifecycle transitions
    /// since creation.
    #[must_use]
    pub fn index_ops(&self) -> u64 {
        self.index_ops
    }

    /// Puts one sandbox of `action` in the warm index or takes it out,
    /// counting an index op when that changes the index.  Every lifecycle
    /// transition calls it with the membership invariant: a sandbox is
    /// indexed iff it has a free slot *and* its node is Active — exactly the
    /// filter a fresh scan of the sandboxes applies.
    fn set_warm_membership(&mut self, action: ActionId, id: SandboxId, indexed: bool) {
        let set = &mut self.warm_index[action.index()];
        let changed = if indexed {
            set.insert(id)
        } else {
            set.remove(&id)
        };
        if changed {
            self.index_ops += 1;
        }
    }

    /// The platform configuration.
    #[must_use]
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Registers (deploys) an action and returns its id.  Re-registering
    /// an identical spec returns the id it already has.
    ///
    /// # Errors
    /// [`PlatformError::ActionAlreadyRegistered`] if the name is registered
    /// with a different spec.
    pub fn register_action(&mut self, spec: ActionSpec) -> Result<ActionId, PlatformError> {
        if let Some(&id) = self.action_ids.get(&spec.name) {
            if self.actions[id.index()] != spec {
                return Err(PlatformError::ActionAlreadyRegistered(
                    spec.name.as_str().to_string(),
                ));
            }
            return Ok(id);
        }
        let id = ActionId(u32::try_from(self.actions.len()).expect("fewer than 2^32 actions"));
        self.action_ids.insert(spec.name.clone(), id);
        self.actions.push(spec);
        self.action_node_sandboxes.push(Vec::new());
        self.warm_index.push(BTreeSet::new());
        Ok(id)
    }

    /// The id of a deployed action, looked up by name.
    ///
    /// # Errors
    /// [`PlatformError::UnknownAction`] if no action has that name.
    pub fn action_id(&self, name: &ActionName) -> Result<ActionId, PlatformError> {
        self.action_ids
            .get(name)
            .copied()
            .ok_or_else(|| PlatformError::UnknownAction(name.as_str().to_string()))
    }

    /// A deployed action's spec.
    ///
    /// # Panics
    /// Panics if `action` was not returned by this controller's
    /// [`Controller::register_action`].
    #[must_use]
    pub fn action(&self, action: ActionId) -> &ActionSpec {
        &self.actions[action.index()]
    }

    /// Whether some Active node has `memory_bytes` free, that is, whether
    /// any placement of a container that size can succeed right now.  A
    /// plain scan over the nodes: callers ask it before building the node
    /// snapshots and consulting a placement policy, which under saturation
    /// would only confirm that nothing fits.
    #[must_use]
    pub fn fits_anywhere(&self, memory_bytes: u64) -> bool {
        self.nodes.iter().any(|node| node.fits(memory_bytes))
    }

    /// Builds the [`WarmCandidate`] view of one indexed sandbox (membership
    /// is maintained incrementally; the volatile fields — `last_used`,
    /// `still_starting` — are read fresh at query time).
    fn materialize_candidate(&self, id: SandboxId) -> WarmCandidate {
        let sandbox = self
            .sandboxes
            .get(id.index())
            .expect("indexed sandboxes are live");
        WarmCandidate {
            sandbox: sandbox.id,
            node: sandbox.node,
            last_used: sandbox.last_used,
            still_starting: sandbox.state == SandboxState::Starting,
        }
    }

    /// Every warm container of `action` with a free concurrency slot, in
    /// sandbox-id order (for policies that want to pick among them).
    /// Containers on draining nodes are excluded: a drain refuses new
    /// assignments, warm or cold.  Clears `out` and fills it in place, so a
    /// hot scheduling loop can reuse one persistent buffer instead of
    /// allocating a fresh vector per dispatch.
    pub fn warm_candidates_into(&self, action: ActionId, out: &mut Vec<WarmCandidate>) {
        out.clear();
        let set = &self.warm_index[action.index()];
        self.view_sandboxes_scanned
            .set(self.view_sandboxes_scanned.get() + set.len() as u64);
        // The index holds exactly the free-slot sandboxes on Active nodes,
        // and a `BTreeSet` iterates in ascending id order — the documented
        // tie-break order — so the copy needs neither filtering nor sorting.
        out.extend(set.iter().map(|id| self.materialize_candidate(*id)));
    }

    /// Assigns one invocation to a previously inspected warm candidate.
    pub fn assign_warm(
        &mut self,
        candidate: WarmCandidate,
        now: SimTime,
    ) -> Result<ScheduleOutcome, PlatformError> {
        let sandbox = self
            .sandboxes
            .get_mut(candidate.sandbox.index())
            .ok_or(PlatformError::UnknownSandbox(candidate.sandbox.0))?;
        if !sandbox.has_free_slot() {
            return Err(PlatformError::InvalidSandboxState {
                sandbox: candidate.sandbox.0,
                reason: "no free concurrency slot".to_string(),
            });
        }
        let still_starting = sandbox.state == SandboxState::Starting;
        let was_idle = sandbox.is_idle();
        let node = sandbox.node;
        sandbox.assign(now);
        let (action, has_free_slot) = (sandbox.action, sandbox.has_free_slot());
        self.nodes[node].active_invocations += 1;
        if was_idle {
            self.serving_sandboxes += 1;
        }
        self.index_ops += 1;
        let active = self.nodes[node].state == NodeState::Active;
        self.set_warm_membership(action, candidate.sandbox, has_free_slot && active);
        Ok(ScheduleOutcome::Reused {
            sandbox: candidate.sandbox,
            still_starting,
        })
    }

    /// Cold-starts a new container of `action` on an explicitly chosen node
    /// (the entry point for pluggable placement policies).  Refuses the
    /// placement if the node is out of range, not Active or lacks the
    /// memory.
    ///
    /// # Panics
    /// Panics if `action` was not returned by this controller's
    /// [`Controller::register_action`].
    pub fn schedule_on(
        &mut self,
        action: ActionId,
        node: NodeId,
        now: SimTime,
    ) -> Result<ScheduleOutcome, PlatformError> {
        let spec = &self.actions[action.index()];
        let (memory_bytes, concurrency) = (spec.memory_budget_bytes, spec.container_concurrency);
        if !self.nodes.get(node).is_some_and(|n| n.fits(memory_bytes)) {
            return Err(PlatformError::InvalidPlacement {
                node,
                required_bytes: memory_bytes,
            });
        }
        let id = SandboxId(self.next_sandbox_id);
        self.next_sandbox_id += 1;
        let host = &mut self.nodes[node];
        host.memory_used += memory_bytes;
        self.committed_memory += memory_bytes;
        host.total_sandboxes += 1;
        host.active_invocations += 1;
        let counts = &mut self.action_node_sandboxes[action.index()];
        if counts.len() <= node {
            counts.resize(node + 1, 0);
        }
        counts[node] += 1;
        self.serving_sandboxes += 1;
        self.index_ops += 1;
        let mut sandbox = Sandbox::new(id, action, node, memory_bytes, concurrency, now);
        sandbox.assign(now);
        let has_free_slot = sandbox.has_free_slot();
        self.sandboxes.insert(id.index(), sandbox);
        self.total_cold_starts += 1;
        // The node was Active a moment ago (`fits`), so the slot decides.
        self.set_warm_membership(action, id, has_free_slot);
        Ok(ScheduleOutcome::ColdStart { sandbox: id, node })
    }

    /// Per-node load/memory snapshots with `action`-specific occupancy, in
    /// node order.  This is the view pluggable schedulers place against.
    /// Every node slot (including draining and retired ones) gets a snapshot
    /// so indexing by `NodeId` stays valid; unschedulable slots report
    /// `fits() == false`.  Clears `out` and fills it in place for callers
    /// that keep a persistent scratch buffer across placement decisions.
    pub fn node_snapshots_into(&self, action: ActionId, out: &mut Vec<NodeSnapshot>) {
        out.clear();
        // The occupancy counters maintained at every lifecycle transition,
        // zipped with the action's per-node counts — no sandbox is
        // examined, so snapshot cost is O(nodes) regardless of how many
        // containers the cluster hosts.
        let action_counts = &self.action_node_sandboxes[action.index()];
        out.extend(self.nodes.iter().enumerate().map(|(node, n)| NodeSnapshot {
            node,
            memory_capacity: n.memory_capacity,
            memory_used: n.memory_used,
            total_sandboxes: n.total_sandboxes,
            action_sandboxes: action_counts.get(node).copied().unwrap_or(0),
            active_invocations: n.active_invocations,
            schedulable: n.state == NodeState::Active,
        }));
    }

    /// Marks a cold-started sandbox as ready to execute.
    pub fn sandbox_ready(&mut self, id: SandboxId) -> Result<(), PlatformError> {
        let sandbox = self
            .sandboxes
            .get_mut(id.index())
            .ok_or(PlatformError::UnknownSandbox(id.0))?;
        sandbox.mark_running();
        Ok(())
    }

    /// Marks one invocation on `id` as finished at `now`.
    pub fn invocation_finished(
        &mut self,
        id: SandboxId,
        now: SimTime,
    ) -> Result<(), PlatformError> {
        let sandbox = self
            .sandboxes
            .get_mut(id.index())
            .ok_or(PlatformError::UnknownSandbox(id.0))?;
        if sandbox.is_idle() {
            return Err(PlatformError::InvalidSandboxState {
                sandbox: id.0,
                reason: "no invocation in flight".to_string(),
            });
        }
        let node = sandbox.node;
        sandbox.finish(now);
        let (action, now_idle) = (sandbox.action, sandbox.is_idle());
        self.nodes[node].active_invocations -= 1;
        if now_idle {
            self.serving_sandboxes -= 1;
        }
        self.index_ops += 1;
        // A finish always frees a slot, so the node's state decides.
        let active = self.nodes[node].state == NodeState::Active;
        self.set_warm_membership(action, id, active);
        Ok(())
    }

    /// Every idle container, in ascending sandbox-id order, annotated with
    /// the facts an eviction policy needs (keep-alive expiry, node drain
    /// state).  This is the candidate view external lifecycle policies
    /// decide over; hand the chosen subset back via
    /// [`Controller::reclaim_sandboxes`].  The order makes any policy built
    /// on this view deterministic by construction.
    #[must_use]
    pub fn idle_candidates(&self, now: SimTime) -> Vec<IdleCandidate> {
        let keep_alive = self.config.container_keep_alive;
        self.sandboxes
            .values()
            .filter(|s| s.is_idle())
            .map(|s| IdleCandidate {
                sandbox: s.id,
                node: s.node,
                action: s.action,
                last_used: s.last_used,
                expired: s.keep_alive_expired(now, keep_alive),
                node_draining: self.nodes[s.node].state == NodeState::Draining,
            })
            .collect()
    }

    /// Applies an external eviction verdict: reclaims exactly the listed
    /// sandboxes.  All-or-nothing — errors (before touching anything) if any
    /// id is unknown or still has work in flight, so a buggy policy surfaces
    /// instead of silently corrupting the cluster.
    pub fn reclaim_sandboxes(&mut self, ids: &[SandboxId]) -> Result<(), PlatformError> {
        for id in ids {
            let sandbox = self
                .sandboxes
                .get(id.index())
                .ok_or(PlatformError::UnknownSandbox(id.0))?;
            if !sandbox.is_idle() {
                return Err(PlatformError::InvalidSandboxState {
                    sandbox: id.0,
                    reason: "cannot reclaim a sandbox with work in flight".to_string(),
                });
            }
        }
        self.reclaim(ids);
        Ok(())
    }

    /// Per-node committed-memory pressure (`memory_used / memory_capacity`),
    /// indexed by `NodeId` over every allocated slot (retired nodes report
    /// 0.0).  One of the pressure views lifecycle policies decide on.
    #[must_use]
    pub fn node_memory_pressure(&self) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|n| {
                if n.state == NodeState::Retired || n.memory_capacity == 0 {
                    0.0
                } else {
                    n.memory_used as f64 / n.memory_capacity as f64
                }
            })
            .collect()
    }

    fn reclaim(&mut self, ids: &[SandboxId]) {
        for id in ids {
            if let Some(sandbox) = self.sandboxes.remove(id.index()) {
                let node = &mut self.nodes[sandbox.node];
                node.memory_used = node.memory_used.saturating_sub(sandbox.memory_bytes);
                self.committed_memory -= sandbox.memory_bytes;
                node.total_sandboxes -= 1;
                node.active_invocations -= sandbox.active;
                self.action_node_sandboxes[sandbox.action.index()][sandbox.node] -= 1;
                if !sandbox.is_idle() {
                    self.serving_sandboxes -= 1;
                }
                self.index_ops += 1;
                self.set_warm_membership(sandbox.action, *id, false);
            }
        }
    }

    /// Adds a fresh invoker node to the pool (scale-out) and returns its id.
    /// The node is immediately schedulable.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.nodes.len();
        self.nodes
            .push(InvokerNode::fresh(self.config.invoker_memory_bytes));
        id
    }

    /// Starts draining a node (scale-in): the node refuses every new
    /// placement and warm assignment from this call on, its idle containers
    /// are reclaimed immediately (their ids are returned, in ascending
    /// order, so callers can drop per-sandbox bookkeeping), and busy
    /// containers finish their in-flight
    /// work and are then listed by [`Controller::idle_candidates`] with
    /// `node_draining` set, for the lifecycle policy to reclaim.
    /// Draining an already-draining node is a no-op; draining a retired or
    /// unknown node is an error.
    pub fn drain_node(&mut self, node: NodeId) -> Result<Vec<SandboxId>, PlatformError> {
        match self.nodes.get(node).map(|n| n.state) {
            Some(NodeState::Active) => {}
            Some(NodeState::Draining) => return Ok(Vec::new()),
            Some(NodeState::Retired) => {
                return Err(PlatformError::InvalidNodeState {
                    node,
                    reason: "cannot drain a retired node".to_string(),
                })
            }
            None => {
                return Err(PlatformError::InvalidNodeState {
                    node,
                    reason: "no such node".to_string(),
                })
            }
        }
        self.nodes[node].state = NodeState::Draining;
        // Every warm candidate on the node leaves the index at once — a
        // draining node refuses warm assignments — including the busy-but-
        // free-slot survivors the idle reclaim below does not touch.
        let hosted: Vec<(ActionId, SandboxId)> = self
            .sandboxes
            .values()
            .filter(|s| s.node == node)
            .map(|s| (s.action, s.id))
            .collect();
        for (action, id) in hosted {
            self.set_warm_membership(action, id, false);
        }
        let idle: Vec<SandboxId> = self
            .sandboxes
            .values()
            .filter(|s| s.node == node && s.is_idle())
            .map(|s| s.id)
            .collect();
        self.reclaim(&idle);
        Ok(idle)
    }

    /// Crashes a node (failure injection): unlike the drain → remove
    /// lifecycle, the node disappears *immediately*, taking every sandbox it
    /// hosts — busy or idle — with it.  Returns the reclaimed sandbox ids in
    /// ascending order so callers can deterministically account for the
    /// requests that were in flight or parked on them.  Crashing an active or
    /// draining node is allowed; a retired or unknown node is an error.
    pub fn crash_node(&mut self, node: NodeId) -> Result<Vec<SandboxId>, PlatformError> {
        match self.nodes.get(node).map(|n| n.state) {
            Some(NodeState::Active | NodeState::Draining) => {}
            Some(NodeState::Retired) => {
                return Err(PlatformError::InvalidNodeState {
                    node,
                    reason: "cannot crash a retired node".to_string(),
                })
            }
            None => {
                return Err(PlatformError::InvalidNodeState {
                    node,
                    reason: "no such node".to_string(),
                })
            }
        }
        let victims: Vec<SandboxId> = self
            .sandboxes
            .values()
            .filter(|s| s.node == node)
            .map(|s| s.id)
            .collect();
        self.reclaim(&victims);
        self.nodes[node].state = NodeState::Retired;
        Ok(victims)
    }

    /// Force-reclaims one sandbox regardless of its state (failure
    /// injection: the container process was killed).  In-flight work on it
    /// is the caller's to re-queue or account as lost.
    pub fn kill_sandbox(&mut self, id: SandboxId) -> Result<(), PlatformError> {
        if self.sandboxes.get(id.index()).is_none() {
            return Err(PlatformError::UnknownSandbox(id.0));
        }
        self.reclaim(&[id]);
        Ok(())
    }

    /// Retires a fully drained node.  Errors unless the node is draining and
    /// hosts no sandboxes (in-flight work must finish first).  The node's id
    /// stays allocated (and unschedulable) so node indices remain stable.
    pub fn remove_node(&mut self, node: NodeId) -> Result<(), PlatformError> {
        let state = self.nodes.get(node).map(|n| n.state).ok_or_else(|| {
            PlatformError::InvalidNodeState {
                node,
                reason: "no such node".to_string(),
            }
        })?;
        if state != NodeState::Draining {
            return Err(PlatformError::InvalidNodeState {
                node,
                reason: format!("cannot remove a node in state {state:?}; drain it first"),
            });
        }
        if self.nodes[node].total_sandboxes > 0 {
            return Err(PlatformError::InvalidNodeState {
                node,
                reason: "node still hosts sandboxes".to_string(),
            });
        }
        self.nodes[node].state = NodeState::Retired;
        Ok(())
    }

    /// Draining nodes that no longer host any sandbox — ready for
    /// [`Controller::remove_node`].
    #[must_use]
    pub fn drained_empty_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state == NodeState::Draining && n.total_sandboxes == 0)
            .map(|(node, _)| node)
            .collect()
    }

    /// Lifecycle state of a node, if it exists.
    #[must_use]
    pub fn node_state(&self, node: NodeId) -> Option<NodeState> {
        self.nodes.get(node).map(|n| n.state)
    }

    /// Ids of the schedulable (active) nodes, in id order.
    #[must_use]
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state == NodeState::Active)
            .map(|(node, _)| node)
            .collect()
    }

    /// Number of draining nodes.
    #[must_use]
    pub fn draining_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Draining)
            .count()
    }

    /// Number of provisioned (active + draining) nodes — the membership the
    /// cluster is paying for.  Retired nodes do not count.
    #[must_use]
    pub fn provisioned_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state != NodeState::Retired)
            .count()
    }

    /// Total invoker memory of the provisioned (active + draining) nodes —
    /// the capacity the cluster is paying for.  Retired nodes cost nothing.
    #[must_use]
    pub fn provisioned_memory_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.state != NodeState::Retired)
            .map(|n| n.memory_capacity)
            .sum()
    }

    /// Per-node `(sandboxes, active invocations)` load of the active nodes,
    /// in node-id order — the view scale-in policies pick drain victims from.
    #[must_use]
    pub fn active_node_loads(&self) -> Vec<(NodeId, usize, usize)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state == NodeState::Active)
            .map(|(node, n)| (node, n.total_sandboxes, n.active_invocations))
            .collect()
    }

    /// Read access to a sandbox.
    pub fn sandbox(&self, id: SandboxId) -> Result<&Sandbox, PlatformError> {
        self.sandboxes
            .get(id.index())
            .ok_or(PlatformError::UnknownSandbox(id.0))
    }

    /// All live sandboxes (any state), in ascending id order.
    pub fn sandboxes(&self) -> impl Iterator<Item = &Sandbox> {
        self.sandboxes.values()
    }

    /// Number of live sandboxes.
    #[must_use]
    pub fn sandbox_count(&self) -> usize {
        self.sandboxes.len()
    }

    /// Number of sandboxes with at least one activation in flight
    /// (maintained incrementally at assign/finish/reclaim time).
    #[must_use]
    pub fn serving_sandbox_count(&self) -> usize {
        self.serving_sandboxes
    }

    /// Total memory committed to containers across the cluster.
    #[must_use]
    pub fn committed_memory_bytes(&self) -> u64 {
        self.committed_memory
    }

    /// Total cold starts since creation.
    #[must_use]
    pub fn cold_start_count(&self) -> u64 {
        self.total_cold_starts
    }

    /// Number of invoker node slots ever allocated (including draining and
    /// retired ones; node ids range over `0..node_count()`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of schedulable (active) nodes.
    #[must_use]
    pub fn active_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Active)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_sim::SimDuration;

    const MB: u64 = 1024 * 1024;

    fn controller(nodes: usize, invoker_memory_mb: u64) -> Controller {
        let config = PlatformConfig::default().with_invoker_memory(invoker_memory_mb * MB);
        Controller::new(config, nodes)
    }

    fn spec(name: &str, memory_mb: u64, concurrency: usize) -> ActionSpec {
        ActionSpec::new(name, "sesemi/semirt", memory_mb * MB, concurrency)
    }

    /// The node snapshots a placement of `action` sees.
    fn snapshots_of(c: &Controller, action: ActionId) -> Vec<NodeSnapshot> {
        let mut snapshots = Vec::new();
        c.node_snapshots_into(action, &mut snapshots);
        snapshots
    }

    /// One dispatch as the simulator's default policy makes it: the most
    /// recently used warm candidate, else a new container on the node
    /// [`default_placement`] picks.
    fn dispatch(
        c: &mut Controller,
        action: ActionId,
        now: SimTime,
    ) -> Result<ScheduleOutcome, PlatformError> {
        let mut warm = Vec::new();
        c.warm_candidates_into(action, &mut warm);
        if let Some(candidate) = warm.into_iter().max_by_key(|w| (w.last_used, w.sandbox)) {
            return c.assign_warm(candidate, now);
        }
        let required_bytes = c.action(action).memory_budget_bytes;
        let node = default_placement(required_bytes, &snapshots_of(c, action))
            .ok_or(PlatformError::ClusterSaturated { required_bytes })?;
        c.schedule_on(action, node, now)
    }

    /// One keep-alive pass under the age-only rule: reclaims every expired
    /// idle container and every idle one on a draining node, and returns
    /// their ids in ascending order.
    fn evict_idle(c: &mut Controller, now: SimTime) -> Vec<SandboxId> {
        let evicted: Vec<SandboxId> = c
            .idle_candidates(now)
            .into_iter()
            .filter(|candidate| candidate.expired || candidate.node_draining)
            .map(|candidate| candidate.sandbox)
            .collect();
        c.reclaim_sandboxes(&evicted)
            .expect("idle candidates are reclaimable");
        evicted
    }

    #[test]
    fn first_invocation_cold_starts_then_reuses() {
        let mut c = controller(2, 1024);
        let mbnet = c.register_action(spec("mbnet", 128, 1)).unwrap();
        let first = dispatch(&mut c, mbnet, SimTime::from_secs(1)).unwrap();
        assert!(first.is_cold_start());
        assert_eq!(c.cold_start_count(), 1);
        c.sandbox_ready(first.sandbox()).unwrap();
        c.invocation_finished(first.sandbox(), SimTime::from_secs(2))
            .unwrap();

        let second = dispatch(&mut c, mbnet, SimTime::from_secs(3)).unwrap();
        assert_eq!(
            second,
            ScheduleOutcome::Reused {
                sandbox: first.sandbox(),
                still_starting: false
            }
        );
        assert_eq!(c.cold_start_count(), 1);
    }

    #[test]
    fn concurrency_slots_allow_multiple_in_flight_invocations() {
        let mut c = controller(1, 2048);
        let dsnet = c.register_action(spec("tvm-dsnet", 384, 4)).unwrap();
        let first = dispatch(&mut c, dsnet, SimTime::from_secs(1)).unwrap();
        assert!(first.is_cold_start());
        // Three more requests pack into the same container (4 TCS slots).
        for _ in 0..3 {
            let outcome = dispatch(&mut c, dsnet, SimTime::from_secs(1)).unwrap();
            assert_eq!(outcome.sandbox(), first.sandbox());
        }
        // The fifth needs a new container.
        let fifth = dispatch(&mut c, dsnet, SimTime::from_secs(1)).unwrap();
        assert!(fifth.is_cold_start());
        assert_eq!(c.sandbox_count(), 2);
        assert_eq!(c.serving_sandbox_count(), 2);
    }

    #[test]
    fn scheduling_prefers_nodes_already_hosting_the_action() {
        let mut c = controller(3, 4096);
        let rsnet = c.register_action(spec("rsnet", 768, 1)).unwrap();
        c.register_action(spec("other", 768, 1)).unwrap();
        let a = dispatch(&mut c, rsnet, SimTime::from_secs(1)).unwrap();
        let ScheduleOutcome::ColdStart { node: home, .. } = a else {
            panic!("expected cold start")
        };
        // A different action may land anywhere; rsnet's next container should
        // stay on its home node while memory allows.
        let b = dispatch(&mut c, rsnet, SimTime::from_secs(1)).unwrap();
        let ScheduleOutcome::ColdStart { node, .. } = b else {
            panic!("expected cold start")
        };
        assert_eq!(node, home);
    }

    #[test]
    fn saturation_is_reported_when_no_node_fits() {
        let mut c = controller(2, 256);
        let big = c.register_action(spec("big", 256, 1)).unwrap();
        let _a = dispatch(&mut c, big, SimTime::from_secs(1)).unwrap();
        let _b = dispatch(&mut c, big, SimTime::from_secs(1)).unwrap();
        let err = dispatch(&mut c, big, SimTime::from_secs(1)).unwrap_err();
        assert!(matches!(err, PlatformError::ClusterSaturated { .. }));
        assert_eq!(c.committed_memory_bytes(), 512 * MB);
    }

    #[test]
    fn keep_alive_eviction_frees_memory() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        let outcome = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(outcome.sandbox()).unwrap();
        c.invocation_finished(outcome.sandbox(), SimTime::from_secs(5))
            .unwrap();

        // Before the keep-alive window nothing is evicted.
        assert!(evict_idle(&mut c, SimTime::from_secs(100)).is_empty());
        assert_eq!(c.sandbox_count(), 1);
        // After 3 minutes of idleness the container is reclaimed.
        let evicted = evict_idle(&mut c, SimTime::from_secs(5 + 181));
        assert_eq!(evicted, vec![outcome.sandbox()]);
        assert_eq!(c.sandbox_count(), 0);
        assert_eq!(c.committed_memory_bytes(), 0);
        assert!(c.sandbox(outcome.sandbox()).is_err());
    }

    #[test]
    fn busy_containers_are_never_evicted() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 128, 1)).unwrap();
        let outcome = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        assert!(evict_idle(
            &mut c,
            SimTime::from_secs(1) + SimDuration::from_secs(10_000)
        )
        .is_empty());
        assert_eq!(c.sandbox(outcome.sandbox()).unwrap().active, 1);
    }

    #[test]
    fn unknown_action_and_sandbox_errors() {
        let mut c = controller(1, 1024);
        assert!(matches!(
            c.action_id(&"ghost".into()),
            Err(PlatformError::UnknownAction(_))
        ));
        assert!(matches!(
            c.invocation_finished(SandboxId(77), SimTime::ZERO),
            Err(PlatformError::UnknownSandbox(77))
        ));
        assert!(matches!(
            c.sandbox_ready(SandboxId(77)),
            Err(PlatformError::UnknownSandbox(77))
        ));
    }

    #[test]
    fn finishing_an_idle_sandbox_is_an_error_not_a_panic() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 128, 1)).unwrap();
        let outcome = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        c.invocation_finished(outcome.sandbox(), SimTime::from_secs(2))
            .unwrap();
        let err = c
            .invocation_finished(outcome.sandbox(), SimTime::from_secs(3))
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidSandboxState { .. }));
    }

    #[test]
    fn duplicate_registration_is_idempotent_but_conflicts_error() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 128, 1)).unwrap();
        let g = c.register_action(spec("g", 128, 1)).unwrap();
        assert_eq!((f, g), (ActionId(0), ActionId(1)), "ids are dense");
        assert_eq!(c.register_action(spec("f", 128, 1)).unwrap(), f);
        let err = c.register_action(spec("f", 256, 1)).unwrap_err();
        assert!(matches!(err, PlatformError::ActionAlreadyRegistered(_)));
        // The naming edge round-trips, and the refused spec left f as it was.
        assert_eq!(c.action_id(&"g".into()).unwrap(), g);
        assert_eq!(
            c.action(c.action_id(&"f".into()).unwrap()),
            &spec("f", 128, 1)
        );
    }

    #[test]
    fn reuse_reports_still_starting_containers() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 128, 2)).unwrap();
        let first = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        // Second request arrives before the container finished cold starting.
        let second = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        match second {
            ScheduleOutcome::Reused {
                sandbox,
                still_starting,
            } => {
                assert_eq!(sandbox, first.sandbox());
                assert!(still_starting);
            }
            other => panic!("expected reuse, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one invoker")]
    fn zero_nodes_rejected() {
        let _ = Controller::new(PlatformConfig::default(), 0);
    }

    #[test]
    fn node_snapshots_track_memory_and_action_occupancy() {
        let mut c = controller(2, 1024);
        let a = c.register_action(spec("a", 256, 2)).unwrap();
        let b = c.register_action(spec("b", 256, 1)).unwrap();
        let outcome = dispatch(&mut c, a, SimTime::from_secs(1)).unwrap();
        let ScheduleOutcome::ColdStart { node: a_node, .. } = outcome else {
            panic!("expected cold start")
        };
        let snapshots = snapshots_of(&c, a);
        assert_eq!(snapshots.len(), 2);
        assert_eq!(snapshots[a_node].action_sandboxes, 1);
        assert_eq!(snapshots[a_node].total_sandboxes, 1);
        assert_eq!(snapshots[a_node].active_invocations, 1);
        assert_eq!(snapshots[a_node].memory_used, 256 * MB);
        assert_eq!(snapshots[a_node].free_memory(), 768 * MB);
        assert!(snapshots[a_node].fits(768 * MB));
        assert!(!snapshots[a_node].fits(769 * MB));
        // The other node is empty, and `b` has no sandboxes anywhere.
        let other = 1 - a_node;
        assert_eq!(snapshots[other].total_sandboxes, 0);
        assert!(snapshots_of(&c, b).iter().all(|s| s.action_sandboxes == 0));
    }

    #[test]
    fn default_placement_prefers_home_nodes_then_most_free_memory() {
        let snapshot = |node, used, action_sandboxes| NodeSnapshot {
            node,
            memory_capacity: 1024 * MB,
            memory_used: used,
            total_sandboxes: 0,
            action_sandboxes,
            active_invocations: 0,
            schedulable: true,
        };
        // Home node wins even when another node has more free memory.
        let nodes = vec![snapshot(0, 0, 0), snapshot(1, 512 * MB, 1)];
        assert_eq!(default_placement(256 * MB, &nodes), Some(1));
        // A full home node falls back to the most free memory.
        let nodes = vec![snapshot(0, 128 * MB, 0), snapshot(1, 1024 * MB, 1)];
        assert_eq!(default_placement(256 * MB, &nodes), Some(0));
        // Nothing fits.
        let nodes = vec![snapshot(0, 1024 * MB, 0)];
        assert_eq!(default_placement(1, &nodes), None);
    }

    #[test]
    fn warm_candidates_and_explicit_assignment() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 128, 1)).unwrap();
        let mut warm = Vec::new();
        c.warm_candidates_into(f, &mut warm);
        assert!(warm.is_empty());
        let first = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(first.sandbox()).unwrap();
        c.invocation_finished(first.sandbox(), SimTime::from_secs(2))
            .unwrap();

        c.warm_candidates_into(f, &mut warm);
        let [candidate] = warm[..] else {
            panic!("expected one warm container, got {warm:?}")
        };
        assert_eq!(candidate.sandbox, first.sandbox());
        assert!(!candidate.still_starting);
        let outcome = c.assign_warm(candidate, SimTime::from_secs(3)).unwrap();
        assert_eq!(
            outcome,
            ScheduleOutcome::Reused {
                sandbox: first.sandbox(),
                still_starting: false
            }
        );
        // The slot is now taken; a stale candidate is refused.
        assert!(matches!(
            c.assign_warm(candidate, SimTime::from_secs(4)),
            Err(PlatformError::InvalidSandboxState { .. })
        ));
    }

    #[test]
    fn schedule_on_places_exactly_where_told_and_refuses_bad_nodes() {
        let mut c = controller(3, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        let outcome = c.schedule_on(f, 2, SimTime::from_secs(1)).unwrap();
        let ScheduleOutcome::ColdStart { node, .. } = outcome else {
            panic!("expected cold start")
        };
        assert_eq!(node, 2);
        assert_eq!(snapshots_of(&c, f)[2].memory_used, 256 * MB);
        // Out-of-range node.
        assert!(matches!(
            c.schedule_on(f, 9, SimTime::from_secs(1)),
            Err(PlatformError::InvalidPlacement { node: 9, .. })
        ));
        // A node without enough memory (1024 MB holds four 256 MB containers).
        for _ in 0..4 {
            c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        }
        assert!(matches!(
            c.schedule_on(f, 0, SimTime::from_secs(1)),
            Err(PlatformError::InvalidPlacement { node: 0, .. })
        ));
    }

    #[test]
    fn added_nodes_are_schedulable_and_grow_the_pool() {
        let mut c = controller(1, 512);
        let f = c.register_action(spec("f", 512, 1)).unwrap();
        let _ = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        // Node 0 is full: the cluster saturates...
        assert!(matches!(
            dispatch(&mut c, f, SimTime::from_secs(1)),
            Err(PlatformError::ClusterSaturated { .. })
        ));
        // ...until a new node joins with the configured invoker memory.
        let node = c.add_node();
        assert_eq!(node, 1);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.active_node_count(), 2);
        assert_eq!(c.provisioned_memory_bytes(), 2 * 512 * MB);
        let outcome = dispatch(&mut c, f, SimTime::from_secs(2)).unwrap();
        assert_eq!(
            outcome,
            ScheduleOutcome::ColdStart {
                sandbox: outcome.sandbox(),
                node: 1
            }
        );
    }

    #[test]
    fn draining_refuses_placements_and_reclaims_idle_containers_immediately() {
        let mut c = controller(2, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        // One idle and one busy sandbox on node 0.
        let idle = c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(idle.sandbox()).unwrap();
        c.invocation_finished(idle.sandbox(), SimTime::from_secs(2))
            .unwrap();
        let busy = c.schedule_on(f, 0, SimTime::from_secs(3)).unwrap();
        c.sandbox_ready(busy.sandbox()).unwrap();

        let evicted = c.drain_node(0).unwrap();
        assert_eq!(evicted, vec![idle.sandbox()]);
        assert_eq!(c.node_state(0), Some(NodeState::Draining));
        assert_eq!(c.active_nodes(), vec![1]);
        assert_eq!(c.draining_node_count(), 1);
        // Draining still counts as provisioned capacity (the machine is up
        // until its in-flight work finishes).
        assert_eq!(c.provisioned_memory_bytes(), 2 * 1024 * MB);

        // No new placements land on node 0: schedule_on refuses, snapshots
        // report unschedulable, the busy survivor is not a warm candidate.
        assert!(matches!(
            c.schedule_on(f, 0, SimTime::from_secs(4)),
            Err(PlatformError::InvalidPlacement { node: 0, .. })
        ));
        let snapshots = snapshots_of(&c, f);
        assert!(!snapshots[0].schedulable);
        assert!(!snapshots[0].fits(1));
        assert_eq!(default_placement(256 * MB, &snapshots), Some(1));
        c.invocation_finished(busy.sandbox(), SimTime::from_secs(5))
            .unwrap();
        let mut warm = Vec::new();
        c.warm_candidates_into(f, &mut warm);
        assert!(warm.is_empty());

        // The now-idle survivor is reclaimed on the next eviction pass even
        // though its keep-alive window has not expired...
        assert!(c.drained_empty_nodes().is_empty());
        let reaped = evict_idle(&mut c, SimTime::from_secs(6));
        assert_eq!(reaped, vec![busy.sandbox()]);
        // ...after which the node can be removed and stops costing capacity.
        assert_eq!(c.drained_empty_nodes(), vec![0]);
        c.remove_node(0).unwrap();
        assert_eq!(c.node_state(0), Some(NodeState::Retired));
        assert_eq!(c.active_node_count(), 1);
        assert_eq!(c.provisioned_memory_bytes(), 1024 * MB);
        // Ids stay stable: node 1 is still node 1 in the snapshots.
        assert_eq!(snapshots_of(&c, f).len(), 2);
    }

    #[test]
    fn node_lifecycle_transitions_are_validated() {
        let mut c = controller(2, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        // Removing an active node is refused: drain first.
        assert!(matches!(
            c.remove_node(0),
            Err(PlatformError::InvalidNodeState { node: 0, .. })
        ));
        // Removing a draining node that still hosts work is refused.
        let busy = c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        assert!(c.drain_node(0).unwrap().is_empty());
        assert!(matches!(
            c.remove_node(0),
            Err(PlatformError::InvalidNodeState { node: 0, .. })
        ));
        // Draining twice is idempotent; draining unknown/retired nodes errors.
        assert_eq!(c.drain_node(0).unwrap(), Vec::new());
        assert!(c.drain_node(7).is_err());
        c.invocation_finished(busy.sandbox(), SimTime::from_secs(2))
            .unwrap();
        evict_idle(&mut c, SimTime::from_secs(3));
        c.remove_node(0).unwrap();
        assert!(c.drain_node(0).is_err());
        assert!(c.remove_node(0).is_err());
        assert!(c.remove_node(9).is_err());
    }

    #[test]
    fn crash_node_force_removes_a_non_empty_node() {
        let mut c = controller(2, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        // One busy and one idle sandbox on node 0 — a node `remove_node`
        // would refuse even after a drain (the busy one is still working).
        let busy = c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(busy.sandbox()).unwrap();
        let idle = c.schedule_on(f, 0, SimTime::from_secs(2)).unwrap();
        c.sandbox_ready(idle.sandbox()).unwrap();
        c.invocation_finished(idle.sandbox(), SimTime::from_secs(3))
            .unwrap();
        let survivor = c.schedule_on(f, 1, SimTime::from_secs(3)).unwrap();

        let mut victims = c.crash_node(0).unwrap();
        victims.sort_unstable();
        let mut expected = vec![busy.sandbox(), idle.sandbox()];
        expected.sort_unstable();
        assert_eq!(victims, expected);
        // The node is gone at once: retired, unbilled, unschedulable, empty.
        assert_eq!(c.node_state(0), Some(NodeState::Retired));
        assert_eq!(c.provisioned_memory_bytes(), 1024 * MB);
        assert_eq!(c.active_nodes(), vec![1]);
        assert!(c.sandbox(busy.sandbox()).is_err());
        assert!(c.sandbox(idle.sandbox()).is_err());
        assert!(c.sandbox(survivor.sandbox()).is_ok());
        assert_eq!(c.committed_memory_bytes(), 256 * MB);
        assert!(matches!(
            c.schedule_on(f, 0, SimTime::from_secs(4)),
            Err(PlatformError::InvalidPlacement { node: 0, .. })
        ));
        // Crashing again (retired) or crashing a ghost node is an error;
        // crashing a draining node is allowed.
        assert!(c.crash_node(0).is_err());
        assert!(c.crash_node(9).is_err());
        c.drain_node(1).unwrap();
        assert_eq!(c.crash_node(1).unwrap(), vec![survivor.sandbox()]);
        assert_eq!(c.node_state(1), Some(NodeState::Retired));
    }

    #[test]
    fn kill_sandbox_reclaims_busy_containers_and_frees_their_memory() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 256, 2)).unwrap();
        let outcome = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(outcome.sandbox()).unwrap();
        assert_eq!(c.serving_sandbox_count(), 1);
        c.kill_sandbox(outcome.sandbox()).unwrap();
        assert_eq!(c.sandbox_count(), 0);
        assert_eq!(c.committed_memory_bytes(), 0);
        assert!(matches!(
            c.kill_sandbox(outcome.sandbox()),
            Err(PlatformError::UnknownSandbox(_))
        ));
    }

    #[test]
    fn drain_diverts_home_affinity_to_the_remaining_nodes() {
        let mut c = controller(2, 4096);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        // Establish node 0 as f's home node, then drain it: the next cold
        // start must land on node 1 even though node 0 hosts f's sandboxes.
        let home = c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(home.sandbox()).unwrap();
        c.drain_node(0).unwrap();
        let outcome = dispatch(&mut c, f, SimTime::from_secs(2)).unwrap();
        assert_eq!(
            outcome,
            ScheduleOutcome::ColdStart {
                sandbox: outcome.sandbox(),
                node: 1
            }
        );
    }

    #[test]
    fn evict_idle_reclaims_in_ascending_sandbox_id_order_by_construction() {
        // Many idle sandboxes across several nodes, all expired: the reclaim
        // order must be ascending by sandbox id regardless of hash-map
        // iteration order, so policy-driven eviction can never introduce
        // iteration-order drift into the determinism guard.
        let mut c = controller(4, 4096);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        let mut ids = Vec::new();
        for i in 0..12u64 {
            let outcome = c
                .schedule_on(f, (i % 4) as usize, SimTime::from_secs(1))
                .unwrap();
            c.sandbox_ready(outcome.sandbox()).unwrap();
            c.invocation_finished(outcome.sandbox(), SimTime::from_secs(2))
                .unwrap();
            ids.push(outcome.sandbox());
        }
        let evicted = evict_idle(&mut c, SimTime::from_secs(2 + 200));
        assert_eq!(evicted.len(), 12);
        assert!(
            evicted.windows(2).all(|pair| pair[0] < pair[1]),
            "eviction order not ascending: {evicted:?}"
        );
        assert_eq!(evicted, ids, "every expired sandbox reclaimed, in order");
    }

    #[test]
    fn idle_candidates_expose_expiry_and_drain_state_in_id_order() {
        let mut c = controller(2, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        // An old idle sandbox on node 0, a fresh idle one on node 1, and a
        // busy one on node 1 (never a candidate).
        let old = c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(old.sandbox()).unwrap();
        c.invocation_finished(old.sandbox(), SimTime::from_secs(2))
            .unwrap();
        let fresh = c.schedule_on(f, 1, SimTime::from_secs(198)).unwrap();
        c.sandbox_ready(fresh.sandbox()).unwrap();
        c.invocation_finished(fresh.sandbox(), SimTime::from_secs(199))
            .unwrap();
        let busy = c.schedule_on(f, 1, SimTime::from_secs(199)).unwrap();

        let candidates = c.idle_candidates(SimTime::from_secs(200));
        assert_eq!(candidates.len(), 2);
        assert_eq!(candidates[0].sandbox, old.sandbox());
        assert!(candidates[0].expired, "idle for 198 s > 180 s keep-alive");
        assert!(!candidates[0].node_draining);
        assert_eq!(candidates[0].last_used, SimTime::from_secs(2));
        assert_eq!(candidates[0].action, f);
        assert_eq!(candidates[1].sandbox, fresh.sandbox());
        assert!(!candidates[1].expired);
        assert!(!candidates.iter().any(|c| c.sandbox == busy.sandbox()));

        // Draining flips the flag on the node's idle candidates.
        c.drain_node(1).unwrap();
        // (the drain already reclaimed the fresh idle sandbox)
        let candidates = c.idle_candidates(SimTime::from_secs(200));
        assert_eq!(candidates.len(), 1);
        assert!(!candidates[0].node_draining, "node 0 is active");
    }

    #[test]
    fn reclaim_sandboxes_is_atomic_and_refuses_busy_or_unknown_ids() {
        let mut c = controller(1, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        let idle = dispatch(&mut c, f, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(idle.sandbox()).unwrap();
        c.invocation_finished(idle.sandbox(), SimTime::from_secs(2))
            .unwrap();
        // An explicit placement cold-starts a second container (with its
        // invocation in flight) instead of reusing the idle warm one.
        let busy = c.schedule_on(f, 0, SimTime::from_secs(3)).unwrap();
        c.sandbox_ready(busy.sandbox()).unwrap();

        // A verdict naming a busy sandbox is refused wholesale: the idle one
        // survives too.
        assert!(matches!(
            c.reclaim_sandboxes(&[idle.sandbox(), busy.sandbox()]),
            Err(PlatformError::InvalidSandboxState { .. })
        ));
        assert_eq!(c.sandbox_count(), 2);
        // Unknown ids are refused.
        assert!(matches!(
            c.reclaim_sandboxes(&[SandboxId(999)]),
            Err(PlatformError::UnknownSandbox(999))
        ));
        // A valid verdict reclaims exactly the listed sandboxes.
        c.reclaim_sandboxes(&[idle.sandbox()]).unwrap();
        assert_eq!(c.sandbox_count(), 1);
        assert!(c.sandbox(idle.sandbox()).is_err());
        assert!(c.sandbox(busy.sandbox()).is_ok());
    }

    #[test]
    fn node_memory_pressure_tracks_commitment_per_slot() {
        let mut c = controller(2, 1024);
        let f = c.register_action(spec("f", 256, 1)).unwrap();
        let _ = c.schedule_on(f, 0, SimTime::from_secs(1)).unwrap();
        let pressure = c.node_memory_pressure();
        assert_eq!(pressure.len(), 2);
        assert!((pressure[0] - 0.25).abs() < 1e-12);
        assert_eq!(pressure[1], 0.0);
        // Retired slots read as zero pressure.
        c.drain_node(1).unwrap();
        c.remove_node(1).unwrap();
        assert_eq!(c.node_memory_pressure()[1], 0.0);
    }

    #[test]
    fn dispatch_scan_cost_is_independent_of_unrelated_action_sandboxes() {
        // The asymptotic contract behind the incremental scheduling views:
        // serving one dispatch's worth of views for a hot action (its warm
        // candidates plus the node snapshots a placement would consult) must
        // scan work proportional to *that action's* warm set, regardless of
        // how many idle sandboxes other actions keep alive.  On a fresh-scan
        // controller this fails — every view walks the whole sandbox map.
        let mut c = controller(8, 20 * 1024);
        let hot = c.register_action(spec("hot", 128, 4)).unwrap();
        let noise = c.register_action(spec("noise", 128, 1)).unwrap();
        // Two warm hot containers with free slots.
        for _ in 0..2 {
            let outcome = c.schedule_on(hot, 0, SimTime::from_secs(1)).unwrap();
            c.sandbox_ready(outcome.sandbox()).unwrap();
            c.invocation_finished(outcome.sandbox(), SimTime::from_secs(2))
                .unwrap();
        }
        let dispatch_scans = |c: &Controller| {
            let before = c.view_sandboxes_scanned();
            let mut warm = Vec::new();
            c.warm_candidates_into(hot, &mut warm);
            assert_eq!(warm.len(), 2, "both hot containers stay warm");
            let mut snapshots = Vec::new();
            c.node_snapshots_into(hot, &mut snapshots);
            c.view_sandboxes_scanned() - before
        };
        let baseline = dispatch_scans(&c);
        // A thousand idle containers of an unrelated action join the pool.
        for i in 0..1_000u64 {
            let outcome = c
                .schedule_on(noise, (1 + i % 7) as usize, SimTime::from_secs(3))
                .unwrap();
            c.sandbox_ready(outcome.sandbox()).unwrap();
            c.invocation_finished(outcome.sandbox(), SimTime::from_secs(4))
                .unwrap();
        }
        assert_eq!(c.sandbox_count(), 1_002);
        let with_noise = dispatch_scans(&c);
        assert_eq!(
            with_noise, baseline,
            "per-dispatch view scans grew with unrelated-action sandboxes \
             ({baseline} -> {with_noise})"
        );
        assert!(
            c.index_ops() > 0,
            "lifecycle transitions must flow through the incremental index"
        );
    }

    #[test]
    fn active_node_loads_reflect_sandboxes_and_in_flight_work() {
        let mut c = controller(3, 4096);
        let f = c.register_action(spec("f", 256, 2)).unwrap();
        let a = c.schedule_on(f, 1, SimTime::from_secs(1)).unwrap();
        let _b = c.schedule_on(f, 1, SimTime::from_secs(1)).unwrap();
        c.sandbox_ready(a.sandbox()).unwrap();
        c.invocation_finished(a.sandbox(), SimTime::from_secs(2))
            .unwrap();
        c.drain_node(2).unwrap();
        let loads = c.active_node_loads();
        // Node 2 is draining, so only nodes 0 and 1 appear.
        assert_eq!(loads, vec![(0, 0, 0), (1, 2, 1)]);
    }
}
