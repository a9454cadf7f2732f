//! Pluggable multi-node placement policies.
//!
//! The paper's cluster experiments (§VI-C, Figs. 13–14) depend on *where*
//! invocations land: OpenWhisk's controller reuses warm containers and
//! "preferably launches instances of a function on the same machine".  This
//! module turns that decision into a first-class [`Scheduler`] trait so a new
//! policy is a ~50-line impl instead of a simulator refactor, and ships three
//! implementations:
//!
//! * [`LeastLoadedScheduler`] — the behaviour-preserving default: home-node
//!   affinity, then the node with the most free invoker memory (delegates to
//!   [`sesemi_platform::default_placement`], the platform's default rule).
//! * [`RoundRobinScheduler`] — rotates cold starts across nodes regardless of
//!   affinity; a deliberately locality-blind baseline.
//! * [`ModelAffinityScheduler`] — consistent-hash placement that keeps each
//!   model's containers on a small sticky node subset, so warm/hot serving
//!   paths dominate and EPC pressure stays local to the subset instead of
//!   spreading enclave working sets across every node.

use sesemi_inference::ModelId;
use sesemi_platform::{default_placement, NodeId, NodeSnapshot, WarmCandidate};

/// Everything a placement policy may consult when a new container has to be
/// started for an invocation.
pub struct PlacementContext<'a> {
    /// The model the invocation targets.
    pub model: &'a ModelId,
    /// The container memory budget that must fit on the chosen node.
    pub memory_bytes: u64,
    /// Per-node load/memory snapshots from the platform controller, in node
    /// order.
    pub nodes: &'a [NodeSnapshot],
    /// Enclave memory currently committed per node (the simulator's EPC
    /// bookkeeping; same indexing as `nodes`).
    pub node_enclave_bytes: &'a [u64],
}

/// A placement policy: given the cluster state, decide which node a new
/// container goes to, and optionally which warm container to reuse.
pub trait Scheduler {
    /// Human-readable policy name for experiment output.
    fn name(&self) -> &'static str;

    /// Chooses the node for a new container, or `None` when no acceptable
    /// node has the memory (the request then queues until capacity frees up).
    ///
    /// The policy is consulted only when some schedulable node fits: when
    /// no snapshot in `ctx.nodes` would [`fits`](NodeSnapshot::fits) the
    /// container, the simulator fails the placement without building the
    /// snapshots or calling `place`.  That skip changes no outcome as long
    /// as a policy places only on a node whose snapshot fits (the
    /// controller refuses any other node) and changes no state of its own
    /// when it returns `None`.  Every shipped policy does both.
    fn place(&mut self, ctx: &PlacementContext<'_>) -> Option<NodeId>;

    /// Chooses which warm container absorbs the invocation.  The default is
    /// the most-recently-used candidate, which maximises hot invocations
    /// for SeMIRT.
    fn select_warm(
        &mut self,
        model: &ModelId,
        candidates: &[WarmCandidate],
    ) -> Option<WarmCandidate> {
        let _ = model;
        candidates
            .iter()
            .copied()
            .max_by_key(|candidate| (candidate.last_used, candidate.sandbox))
    }

    /// Notifies the policy that the schedulable node set changed (a node was
    /// added, started draining or was removed).  `active_nodes` is the new
    /// set, in id order.  Policies with membership-derived state (the
    /// consistent-hash ring) rebuild here; stateless policies ignore it —
    /// they only ever see schedulable nodes through `fits()` anyway.
    fn on_membership_change(&mut self, active_nodes: &[NodeId]) {
        let _ = active_nodes;
    }

    /// How much a warm container of `model` on `node` is worth keeping, in
    /// `[0, 1]` — the locality signal container-lifecycle policies score
    /// eviction and drain candidates by.  Placement-blind policies return
    /// the neutral 0.5 (every container is equally worth keeping, so a
    /// warm-value lifecycle policy degrades to its age/load tie-breaks);
    /// the consistent-hash scheduler overrides this with its ring order, so
    /// containers the ring would rebuild cheapest elsewhere score lowest.
    fn warm_value(&self, model: &ModelId, node: NodeId) -> f64 {
        let _ = (model, node);
        0.5
    }
}

/// Which placement policy a simulation uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Home-node affinity, then most free memory (the platform default).
    #[default]
    LeastLoaded,
    /// Rotate cold starts across nodes.
    RoundRobin,
    /// Consistent-hash model affinity with a sticky node subset per model.
    ModelAffinity,
}

impl SchedulerKind {
    /// All policies, for experiment sweeps.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::LeastLoaded,
        SchedulerKind::RoundRobin,
        SchedulerKind::ModelAffinity,
    ];

    /// Label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::LeastLoaded => "Least-loaded",
            SchedulerKind::RoundRobin => "Round-robin",
            SchedulerKind::ModelAffinity => "Model-affinity",
        }
    }

    /// Builds the policy for a cluster of `nodes` invokers.
    #[must_use]
    pub fn build(self, nodes: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::LeastLoaded => Box::new(LeastLoadedScheduler),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::ModelAffinity => Box::new(ModelAffinityScheduler::new(nodes)),
        }
    }
}

/// The platform's built-in policy as a [`Scheduler`] (behaviour-preserving
/// default: simulations configured with it reproduce the pre-trait results
/// bit for bit).
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoadedScheduler;

impl Scheduler for LeastLoadedScheduler {
    fn name(&self) -> &'static str {
        "Least-loaded"
    }

    fn place(&mut self, ctx: &PlacementContext<'_>) -> Option<NodeId> {
        default_placement(ctx.memory_bytes, ctx.nodes)
    }
}

/// Rotates cold starts across the nodes, skipping nodes that lack the
/// memory.  Ignores home-node affinity entirely, which makes it a useful
/// locality-blind baseline for the model-affinity comparison.  The cursor
/// moves only when a placement succeeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundRobinScheduler {
    cursor: usize,
}

impl RoundRobinScheduler {
    /// Creates the policy with the cursor at node 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinScheduler { cursor: 0 }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> &'static str {
        "Round-robin"
    }

    fn place(&mut self, ctx: &PlacementContext<'_>) -> Option<NodeId> {
        let count = ctx.nodes.len();
        for offset in 0..count {
            let node = (self.cursor + offset) % count;
            if ctx.nodes[node].fits(ctx.memory_bytes) {
                self.cursor = (node + 1) % count;
                return Some(node);
            }
        }
        None
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // FNV-1a alone distributes the *low* bits well but leaves the high bits
    // (which decide ring position) correlated for short, similar keys; run a
    // splitmix64-style finalizer so positions spread over the whole ring.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// Consistent-hash model affinity: each model hashes onto a ring of virtual
/// nodes, and its containers are placed on the first `subset_size` distinct
/// physical nodes from its ring position (the *sticky subset*), preferring
/// the subset member with the least committed enclave memory.  Only when no
/// subset member has the invoker memory does placement spill over to the
/// rest of the ring order, so a model's EPC working set stays local instead
/// of being smeared across the whole cluster.  Adding or removing a node
/// remaps only the ring arcs adjacent to its virtual nodes, as in classic
/// consistent hashing — the scheduler rebuilds its ring on
/// [`Scheduler::on_membership_change`], and because each node's virtual
/// positions depend only on its own id, the relative order of the surviving
/// nodes in every model's preference list is preserved across membership
/// changes.  Placing mutates nothing: only a membership change rebuilds
/// the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelAffinityScheduler {
    /// `(ring position, physical node)`, sorted by position.
    ring: Vec<(u64, NodeId)>,
    /// The schedulable node set the ring was built from, in id order.
    nodes: Vec<NodeId>,
    virtual_nodes: usize,
    /// Configured sticky-subset size (clamped to the live node count when
    /// used).
    subset_size: usize,
}

impl ModelAffinityScheduler {
    /// Virtual nodes per physical node; enough for an even spread at the
    /// paper's cluster sizes without making ring walks expensive.
    pub const DEFAULT_VIRTUAL_NODES: usize = 31;

    /// Default sticky-subset size per model.
    pub const DEFAULT_SUBSET_SIZE: usize = 2;

    /// Creates the policy for a cluster of `nodes` invokers with default
    /// parameters.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self::with_params(
            nodes,
            Self::DEFAULT_VIRTUAL_NODES,
            Self::DEFAULT_SUBSET_SIZE,
        )
    }

    /// Creates the policy with explicit virtual-node and subset parameters.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn with_params(nodes: usize, virtual_nodes: usize, subset_size: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        assert!(virtual_nodes > 0, "need at least one virtual node per node");
        assert!(subset_size > 0, "the sticky subset needs at least one node");
        let mut scheduler = ModelAffinityScheduler {
            ring: Vec::new(),
            nodes: Vec::new(),
            virtual_nodes,
            subset_size,
        };
        scheduler.rebuild(&(0..nodes).collect::<Vec<_>>());
        scheduler
    }

    /// Rebuilds the ring for a new schedulable node set.  Each node's
    /// virtual positions are a pure function of its id, so nodes keep their
    /// arcs across membership changes and only the arcs of joining/leaving
    /// nodes are remapped.
    pub fn rebuild(&mut self, active_nodes: &[NodeId]) {
        self.nodes = active_nodes.to_vec();
        self.ring.clear();
        self.ring.reserve(self.nodes.len() * self.virtual_nodes);
        for &node in &self.nodes {
            for replica in 0..self.virtual_nodes {
                self.ring.push((
                    fnv1a64(format!("node-{node}/vn-{replica}").as_bytes()),
                    node,
                ));
            }
        }
        self.ring.sort_unstable();
    }

    /// The full node order the ring induces for `model`: the sticky subset is
    /// the first [`ModelAffinityScheduler::subset_size`] entries, the rest is
    /// the spill-over order.  Empty when the membership is empty.
    #[must_use]
    pub fn preferred_nodes(&self, model: &ModelId) -> Vec<NodeId> {
        if self.ring.is_empty() {
            return Vec::new();
        }
        let key = fnv1a64(model.as_str().as_bytes());
        let start = self.ring.partition_point(|(position, _)| *position < key);
        let node_count = self.nodes.len();
        let mut order = Vec::with_capacity(node_count);
        for index in 0..self.ring.len() {
            let (_, node) = self.ring[(start + index) % self.ring.len()];
            if !order.contains(&node) {
                order.push(node);
                if order.len() == node_count {
                    break;
                }
            }
        }
        order
    }

    /// The sticky subset size (clamped to the live node count).
    #[must_use]
    pub fn subset_size(&self) -> usize {
        self.subset_size.min(self.nodes.len())
    }
}

impl Scheduler for ModelAffinityScheduler {
    fn name(&self) -> &'static str {
        "Model-affinity"
    }

    fn place(&mut self, ctx: &PlacementContext<'_>) -> Option<NodeId> {
        let order = self.preferred_nodes(ctx.model);
        let spill = self.subset_size.min(order.len());
        let subset = &order[..spill];
        // Least committed enclave memory within the sticky subset, ties
        // resolved towards the earlier ring position for determinism.
        if let Some(node) = subset
            .iter()
            .enumerate()
            .filter(|(_, node)| ctx.nodes[**node].fits(ctx.memory_bytes))
            .min_by_key(|(rank, node)| (ctx.node_enclave_bytes[**node], *rank))
            .map(|(_, node)| *node)
        {
            return Some(node);
        }
        // Spill over along the ring order only when the subset is full.
        order[spill..]
            .iter()
            .copied()
            .find(|node| ctx.nodes[*node].fits(ctx.memory_bytes))
    }

    fn on_membership_change(&mut self, active_nodes: &[NodeId]) {
        self.rebuild(active_nodes);
    }

    /// The ring's keep-worthiness of a warm container: 1.0 inside the
    /// model's sticky subset (this is exactly where the ring sends the
    /// model's traffic, so warm capacity here is maximally valuable),
    /// decaying with ring rank off-subset (`1 / (rank + 1)` — capacity the
    /// ring only reaches on spill-over, cheap to rebuild where it belongs),
    /// 0.0 for a node no longer in the membership.
    fn warm_value(&self, model: &ModelId, node: NodeId) -> f64 {
        let order = self.preferred_nodes(model);
        match order.iter().position(|n| *n == node) {
            Some(rank) if rank < self.subset_size() => 1.0,
            Some(rank) => 1.0 / (rank + 1) as f64,
            None => 0.0,
        }
    }

    /// Warm reuse is affinity-aware too: prefer warm containers on the
    /// model's ring order (most-recently-used within a node), falling back to
    /// plain MRU off-ring.  Under shared endpoints this keeps a model's
    /// requests on containers that already hold its runtime state, so hot
    /// invocations dominate instead of model-switching warm ones.
    fn select_warm(
        &mut self,
        model: &ModelId,
        candidates: &[WarmCandidate],
    ) -> Option<WarmCandidate> {
        let order = self.preferred_nodes(model);
        let rank = |node: NodeId| order.iter().position(|n| *n == node).unwrap_or(order.len());
        candidates
            .iter()
            .copied()
            .min_by_key(|c| (rank(c.node), std::cmp::Reverse((c.last_used, c.sandbox))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(node: NodeId, capacity: u64, used: u64) -> NodeSnapshot {
        NodeSnapshot {
            node,
            memory_capacity: capacity,
            memory_used: used,
            total_sandboxes: 0,
            action_sandboxes: 0,
            active_invocations: 0,
            schedulable: true,
        }
    }

    fn ctx<'a>(
        model: &'a ModelId,
        memory_bytes: u64,
        nodes: &'a [NodeSnapshot],
        enclave: &'a [u64],
    ) -> PlacementContext<'a> {
        PlacementContext {
            model,
            memory_bytes,
            nodes,
            node_enclave_bytes: enclave,
        }
    }

    #[test]
    fn kind_builds_matching_policies() {
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.build(4).name(), kind.label());
        }
        assert_eq!(SchedulerKind::default(), SchedulerKind::LeastLoaded);
    }

    #[test]
    fn least_loaded_matches_the_controller_default() {
        let model = ModelId::new("m");
        let mut nodes = vec![snapshot(0, 1000, 0), snapshot(1, 1000, 400)];
        nodes[1].action_sandboxes = 1;
        let enclave = vec![0, 0];
        let mut scheduler = LeastLoadedScheduler;
        // Home node first, even though node 0 has more free memory.
        assert_eq!(
            scheduler.place(&ctx(&model, 100, &nodes, &enclave)),
            Some(1)
        );
        assert_eq!(
            scheduler.place(&ctx(&model, 100, &nodes, &enclave)),
            default_placement(100, &nodes)
        );
    }

    #[test]
    fn round_robin_rotates_and_skips_full_nodes() {
        let model = ModelId::new("m");
        let nodes = vec![
            snapshot(0, 1000, 0),
            snapshot(1, 1000, 1000), // full
            snapshot(2, 1000, 0),
        ];
        let enclave = vec![0, 0, 0];
        let mut scheduler = RoundRobinScheduler::new();
        let first = scheduler.place(&ctx(&model, 100, &nodes, &enclave));
        let second = scheduler.place(&ctx(&model, 100, &nodes, &enclave));
        let third = scheduler.place(&ctx(&model, 100, &nodes, &enclave));
        assert_eq!(first, Some(0));
        assert_eq!(second, Some(2)); // node 1 skipped: no memory
        assert_eq!(third, Some(0));
        // Saturated cluster yields no placement.
        let full = vec![snapshot(0, 100, 100)];
        assert_eq!(scheduler.place(&ctx(&model, 10, &full, &[0])), None);
    }

    #[test]
    fn a_failed_round_robin_placement_leaves_the_cursor_where_it_was() {
        let model = ModelId::new("m");
        let nodes = vec![snapshot(0, 1000, 0), snapshot(1, 1000, 0)];
        let full = vec![snapshot(0, 1000, 1000), snapshot(1, 1000, 1000)];
        let enclave = vec![0, 0];
        let mut scheduler = RoundRobinScheduler::new();
        assert_eq!(
            scheduler.place(&ctx(&model, 100, &nodes, &enclave)),
            Some(0)
        );
        let before = scheduler;
        assert_eq!(scheduler.place(&ctx(&model, 100, &full, &enclave)), None);
        assert_eq!(scheduler, before);
        assert_eq!(scheduler.cursor, 1);
        // The next success continues the rotation from where it stood.
        assert_eq!(
            scheduler.place(&ctx(&model, 100, &nodes, &enclave)),
            Some(1)
        );
    }

    #[test]
    fn a_failed_affinity_placement_changes_nothing() {
        let model = ModelId::new("m");
        let mut scheduler = ModelAffinityScheduler::with_params(4, 31, 2);
        let full: Vec<NodeSnapshot> = (0..4).map(|n| snapshot(n, 1000, 1000)).collect();
        let enclave = vec![0u64; 4];
        let before = scheduler.clone();
        assert_eq!(scheduler.place(&ctx(&model, 100, &full, &enclave)), None);
        assert_eq!(scheduler, before);
        // A successful placement mutates nothing either.
        let open: Vec<NodeSnapshot> = (0..4).map(|n| snapshot(n, 1000, 0)).collect();
        assert!(scheduler
            .place(&ctx(&model, 100, &open, &enclave))
            .is_some());
        assert_eq!(scheduler, before);
    }

    #[test]
    fn affinity_is_deterministic_and_sticky_per_model() {
        let scheduler = ModelAffinityScheduler::new(8);
        let order_a = scheduler.preferred_nodes(&ModelId::new("model-a"));
        // Full permutation of the node set.
        let mut sorted = order_a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Stable across calls.
        assert_eq!(order_a, scheduler.preferred_nodes(&ModelId::new("model-a")));
        // A population of models spreads across every node's arc: each node
        // is the primary choice for at least one model.
        let mut primaries: Vec<NodeId> = (0..100)
            .map(|i| scheduler.preferred_nodes(&ModelId::new(format!("model-{i}")))[0])
            .collect();
        primaries.sort_unstable();
        primaries.dedup();
        assert_eq!(primaries, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn affinity_places_within_the_sticky_subset_until_it_is_full() {
        let model = ModelId::new("m");
        let mut scheduler = ModelAffinityScheduler::with_params(4, 31, 2);
        let subset: Vec<NodeId> = scheduler.preferred_nodes(&model)[..2].to_vec();
        let nodes: Vec<NodeSnapshot> = (0..4).map(|n| snapshot(n, 1000, 0)).collect();
        let enclave = vec![0u64; 4];
        let chosen = scheduler
            .place(&ctx(&model, 100, &nodes, &enclave))
            .unwrap();
        assert!(subset.contains(&chosen), "{chosen} not in {subset:?}");

        // With the subset full, placement spills over to the ring order.
        let mut full_subset = nodes.clone();
        for node in &subset {
            full_subset[*node].memory_used = 1000;
        }
        let spilled = scheduler
            .place(&ctx(&model, 100, &full_subset, &enclave))
            .unwrap();
        assert!(!subset.contains(&spilled));

        // Within the subset, the node with less committed enclave memory wins.
        let mut enclave_loaded = vec![0u64; 4];
        enclave_loaded[subset[0]] = 500;
        let balanced = scheduler
            .place(&ctx(&model, 100, &nodes, &enclave_loaded))
            .unwrap();
        assert_eq!(balanced, subset[1]);
    }

    #[test]
    fn affinity_subset_is_clamped_to_the_node_count() {
        let scheduler = ModelAffinityScheduler::new(1);
        assert_eq!(scheduler.subset_size(), 1);
        assert_eq!(scheduler.preferred_nodes(&ModelId::new("m")), vec![0]);
    }

    #[test]
    fn membership_changes_remap_only_the_affected_arcs() {
        // Classic consistent-hashing property: removing one node from the
        // ring deletes it from every model's preference order without
        // permuting the surviving nodes, and adding it back restores the
        // original order exactly.
        let mut scheduler = ModelAffinityScheduler::new(8);
        let models: Vec<ModelId> = (0..50)
            .map(|i| ModelId::new(format!("model-{i}")))
            .collect();
        let before: Vec<Vec<NodeId>> = models
            .iter()
            .map(|m| scheduler.preferred_nodes(m))
            .collect();

        // Drop node 3 (as a drain would).
        let remaining: Vec<NodeId> = (0..8).filter(|n| *n != 3).collect();
        scheduler.on_membership_change(&remaining);
        for (model, original) in models.iter().zip(&before) {
            let shrunk = scheduler.preferred_nodes(model);
            let expected: Vec<NodeId> = original.iter().copied().filter(|n| *n != 3).collect();
            assert_eq!(shrunk, expected, "{model}: surviving order must be stable");
        }

        // Add it back (plus a brand-new node 8): the original 8-node prefix
        // order is restored for the original nodes.
        let grown: Vec<NodeId> = (0..9).collect();
        scheduler.on_membership_change(&grown);
        for (model, original) in models.iter().zip(&before) {
            let order = scheduler.preferred_nodes(model);
            let without_new: Vec<NodeId> = order.iter().copied().filter(|n| *n != 8).collect();
            assert_eq!(&without_new, original, "{model}: old arcs must be kept");
            assert!(order.contains(&8), "{model}: the new node must appear");
        }
    }

    #[test]
    fn placement_follows_the_ring_after_a_membership_change() {
        let model = ModelId::new("m");
        let mut scheduler = ModelAffinityScheduler::with_params(4, 31, 2);
        // Shrink to nodes {0, 2}: snapshots still cover all four slots (ids
        // are stable), but only the members' slots are schedulable.
        scheduler.on_membership_change(&[0, 2]);
        let mut nodes: Vec<NodeSnapshot> = (0..4).map(|n| snapshot(n, 1000, 0)).collect();
        nodes[1].schedulable = false;
        nodes[3].schedulable = false;
        let enclave = vec![0u64; 4];
        for _ in 0..8 {
            let chosen = scheduler
                .place(&ctx(&model, 100, &nodes, &enclave))
                .unwrap();
            assert!(
                chosen == 0 || chosen == 2,
                "placement {chosen} must stay within the membership"
            );
        }
        assert_eq!(scheduler.subset_size(), 2);
        assert_eq!(scheduler.preferred_nodes(&model).len(), 2);
    }

    #[test]
    fn warm_value_follows_the_ring_and_defaults_to_neutral() {
        let model = ModelId::new("m");
        let scheduler = ModelAffinityScheduler::with_params(6, 31, 2);
        let order = scheduler.preferred_nodes(&model);
        // Sticky-subset members are maximally valuable; value decays with
        // ring rank beyond them; everything stays within [0, 1].
        assert_eq!(scheduler.warm_value(&model, order[0]), 1.0);
        assert_eq!(scheduler.warm_value(&model, order[1]), 1.0);
        let mut previous = 1.0;
        for &node in &order[2..] {
            let value = scheduler.warm_value(&model, node);
            assert!(value < previous && value > 0.0, "value {value}");
            previous = value;
        }
        // A node outside the membership is worth nothing.
        let mut shrunk = scheduler.clone();
        shrunk.on_membership_change(&[order[0], order[1]]);
        assert_eq!(shrunk.warm_value(&model, order[2]), 0.0);
        // Placement-blind policies score everything neutrally.
        assert_eq!(LeastLoadedScheduler.warm_value(&model, 0), 0.5);
        assert_eq!(RoundRobinScheduler::new().warm_value(&model, 3), 0.5);
    }

    #[test]
    fn default_warm_selection_is_most_recently_used() {
        use sesemi_platform::SandboxId;
        use sesemi_sim::SimTime;
        let model = ModelId::new("m");
        let mut scheduler = RoundRobinScheduler::new();
        let candidates = vec![
            WarmCandidate {
                sandbox: SandboxId(1),
                node: 0,
                last_used: SimTime::from_secs(5),
                still_starting: false,
            },
            WarmCandidate {
                sandbox: SandboxId(2),
                node: 1,
                last_used: SimTime::from_secs(9),
                still_starting: false,
            },
        ];
        let chosen = scheduler.select_warm(&model, &candidates).unwrap();
        assert_eq!(chosen.sandbox, SandboxId(2));
        assert!(scheduler.select_warm(&model, &[]).is_none());
    }
}
