//! Pluggable container-lifecycle policies: who gets evicted, and which node
//! a scale-in drains.
//!
//! Before this module, both decisions were hard-coded — the platform
//! controller reclaimed idle containers purely by keep-alive age, and the
//! simulator drained the least-loaded node — and neither consulted the
//! consistent-hash ring that decides where warm capacity is actually worth
//! keeping.  The refactor splits the roles: the **controller** exposes
//! candidate views (`idle_candidates`, per-node pressure) and takes explicit
//! reclaim/drain verdicts; the **simulator** assembles an
//! [`EvictionContext`] / [`DrainContext`] from those views (annotating each
//! candidate with the [`Scheduler::warm_value`] locality score); and a
//! [`LifecyclePolicy`] decides.  Two policies ship:
//!
//! * [`AgeOnlyLifecycle`] — the behaviour-preserving default: evict exactly
//!   the keep-alive-expired containers (plus idle containers on draining
//!   nodes) and drain the least-loaded node.  The E1–E6 goldens pin its
//!   results.
//! * [`WarmValueLifecycle`] — locality-aware keep-alive and scale-in.  Under
//!   EPC pressure it evicts the idle containers the ring would rebuild
//!   cheapest elsewhere (lowest warm value first) until the node's enclave
//!   working set fits again; off pressure it grants ring-preferred (sticky
//!   subset) containers an extended keep-alive so warm capacity survives
//!   idle gaps exactly where the router will look for it; and scale-in
//!   drains the node with the lowest aggregate warm-pool value, asking the
//!   simulator to pre-migrate the victims' warm capacity (one replacement
//!   container per evicted model, placed by the ring) before the drain
//!   evicts it.
//!
//! [`Scheduler::warm_value`]: crate::cluster::Scheduler::warm_value

use sesemi_inference::ModelId;
use sesemi_platform::{NodeId, SandboxId};
use sesemi_sim::{SimDuration, SimTime};

/// Why a lifecycle policy evicted a container — the split surfaced in
/// `SimulationResult::evictions_expired/_pressure/_drain`.  The derived
/// order (`Expired < Pressure < Drain`) is the deterministic tie-break when
/// a policy names the same sandbox under two reasons: the first in this
/// order wins, so the reason counters can never drift run to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EvictionReason {
    /// The keep-alive window (possibly extended by the policy) expired.
    Expired,
    /// The node's enclave working set exceeded its EPC and this container
    /// was the cheapest to rebuild elsewhere.
    Pressure,
    /// The node is draining; its warm pool is forfeit regardless of age.
    Drain,
}

/// One idle container a policy may evict, annotated with everything the
/// shipped policies (and reasonable future ones) decide on.  Candidates are
/// handed to the policy in ascending sandbox-id order.
#[derive(Clone, Debug)]
pub struct EvictionCandidate {
    /// The idle sandbox.
    pub sandbox: SandboxId,
    /// The node hosting it.
    pub node: NodeId,
    /// The model whose warm state the container holds (None for a container
    /// that never served, or whose strategy wipes state between requests).
    pub model: Option<ModelId>,
    /// When it last served an activation — the keep-alive clock.
    pub last_used: SimTime,
    /// Whether the configured keep-alive window has expired.
    pub expired: bool,
    /// Whether the hosting node is draining.
    pub node_draining: bool,
    /// Enclave memory the container commits on its node.
    pub enclave_bytes: u64,
    /// The scheduler's locality score for keeping this container
    /// ([`Scheduler::warm_value`]): 1.0 = the ring wants warm capacity
    /// exactly here, 0.5 = placement-blind neutral, → 0.0 = cheapest to
    /// rebuild elsewhere.
    ///
    /// [`Scheduler::warm_value`]: crate::cluster::Scheduler::warm_value
    pub warm_value: f64,
}

/// Everything an eviction decision may consult.
pub struct EvictionContext<'a> {
    /// Virtual time of the eviction pass.
    pub now: SimTime,
    /// The configured idle keep-alive window.
    pub keep_alive: SimDuration,
    /// Every idle container, ascending by sandbox id.
    pub candidates: &'a [EvictionCandidate],
    /// Enclave memory committed per node (indexed by `NodeId`).
    pub node_enclave_bytes: &'a [u64],
    /// EPC capacity per node.
    pub epc_bytes: u64,
}

/// One eviction the policy decided on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionVerdict {
    /// The container to reclaim.
    pub sandbox: SandboxId,
    /// Why.
    pub reason: EvictionReason,
}

/// One active node a scale-in policy may drain.
#[derive(Clone, Debug)]
pub struct DrainCandidate {
    /// The node.
    pub node: NodeId,
    /// Live sandboxes it hosts.
    pub sandboxes: usize,
    /// Activations currently in flight on it.
    pub active_invocations: usize,
    /// Idle containers (the part of the warm pool a drain reclaims
    /// immediately).
    pub idle_containers: usize,
    /// Aggregate [`Scheduler::warm_value`] of the node's containers — how
    /// much ring-preferred warm capacity retiring this node destroys.  Busy
    /// containers count: a drain forfeits their warm state too, as soon as
    /// their in-flight work finishes.
    ///
    /// [`Scheduler::warm_value`]: crate::cluster::Scheduler::warm_value
    pub warm_pool_value: f64,
    /// Committed-memory pressure (`memory_used / memory_capacity`).
    pub memory_pressure: f64,
}

/// Everything a drain-victim decision may consult: the active nodes, in
/// node-id order.
pub struct DrainContext<'a> {
    /// One candidate per active node.
    pub nodes: &'a [DrainCandidate],
}

/// The scale-in decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainVerdict {
    /// The node to drain.
    pub victim: NodeId,
    /// Whether the simulator should pre-migrate the victim's warm capacity:
    /// start one replacement container per model held by the victim's idle
    /// containers (placed by the scheduler on the surviving nodes) so hot
    /// models stay warm across the drain.
    pub premigrate: bool,
}

/// A container-lifecycle policy: given candidate views assembled by the
/// simulator from the controller, decide which idle containers to reclaim
/// and which node a scale-in retires.
pub trait LifecyclePolicy {
    /// Human-readable policy name for experiment output.
    fn name(&self) -> &'static str;

    /// Chooses the containers to reclaim right now.  Verdicts must name
    /// candidates from the context (the controller refuses anything else).
    fn select_evictions(&mut self, ctx: &EvictionContext<'_>) -> Vec<EvictionVerdict>;

    /// Chooses the node a scale-in drains, or `None` to skip the drain
    /// (never happens for the shipped policies on a non-empty context).
    fn select_drain_victim(&mut self, ctx: &DrainContext<'_>) -> Option<DrainVerdict>;
}

/// Which lifecycle policy a simulation uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LifecycleKind {
    /// Keep-alive expiry by idle age, drain by least in-flight load — the
    /// pre-refactor behaviour, bit for bit.
    #[default]
    AgeOnly,
    /// Locality-aware keep-alive (EPC-pressure eviction by warm value,
    /// extended retention inside the ring's sticky subset) and warm-pool-
    /// aware scale-in with pre-migration.
    WarmValue,
}

impl LifecycleKind {
    /// All policies, for experiment sweeps.
    pub const ALL: [LifecycleKind; 2] = [LifecycleKind::AgeOnly, LifecycleKind::WarmValue];

    /// Label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LifecycleKind::AgeOnly => "Age-only",
            LifecycleKind::WarmValue => "Warm-value",
        }
    }

    /// Builds the policy.
    #[must_use]
    pub fn build(self) -> Box<dyn LifecyclePolicy> {
        match self {
            LifecycleKind::AgeOnly => Box::new(AgeOnlyLifecycle),
            LifecycleKind::WarmValue => Box::new(WarmValueLifecycle::new()),
        }
    }
}

/// The pre-refactor rules as a [`LifecyclePolicy`] (behaviour-preserving
/// default): evict exactly the expired candidates plus everything idle on a
/// draining node; drain the active node with the least in-flight work, then
/// the fewest sandboxes, ties towards the highest node id (so long-lived
/// low-id nodes keep their warm pools).  No pre-migration.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgeOnlyLifecycle;

impl LifecyclePolicy for AgeOnlyLifecycle {
    fn name(&self) -> &'static str {
        "Age-only"
    }

    fn select_evictions(&mut self, ctx: &EvictionContext<'_>) -> Vec<EvictionVerdict> {
        ctx.candidates
            .iter()
            .filter(|candidate| candidate.expired || candidate.node_draining)
            .map(|candidate| EvictionVerdict {
                sandbox: candidate.sandbox,
                reason: if candidate.node_draining {
                    EvictionReason::Drain
                } else {
                    EvictionReason::Expired
                },
            })
            .collect()
    }

    fn select_drain_victim(&mut self, ctx: &DrainContext<'_>) -> Option<DrainVerdict> {
        ctx.nodes
            .iter()
            .min_by_key(|candidate| {
                (
                    candidate.active_invocations,
                    candidate.sandboxes,
                    std::cmp::Reverse(candidate.node),
                )
            })
            .map(|candidate| DrainVerdict {
                victim: candidate.node,
                premigrate: false,
            })
    }
}

/// Locality-aware keep-alive and warm-pool-aware scale-in (see the module
/// docs for the full decision rules).
#[derive(Clone, Debug)]
pub struct WarmValueLifecycle {
    /// Keep-alive multiplier granted to sticky-subset containers
    /// (`warm_value >= sticky_threshold`): they survive up to
    /// `retention_factor × keep_alive` of idleness before expiring.
    pub retention_factor: f64,
    /// Warm value at or above which a container counts as ring-preferred.
    pub sticky_threshold: f64,
}

impl Default for WarmValueLifecycle {
    fn default() -> Self {
        WarmValueLifecycle {
            retention_factor: 2.0,
            sticky_threshold: 0.99,
        }
    }
}

impl WarmValueLifecycle {
    /// Creates the policy with the default retention parameters.
    #[must_use]
    pub fn new() -> Self {
        WarmValueLifecycle::default()
    }
}

impl LifecyclePolicy for WarmValueLifecycle {
    fn name(&self) -> &'static str {
        "Warm-value"
    }

    fn select_evictions(&mut self, ctx: &EvictionContext<'_>) -> Vec<EvictionVerdict> {
        let mut verdicts: Vec<EvictionVerdict> = Vec::new();
        // 1. Draining nodes forfeit their warm pool regardless of age or
        //    value — the drain semantics the controller relies on.
        for candidate in ctx.candidates.iter().filter(|c| c.node_draining) {
            verdicts.push(EvictionVerdict {
                sandbox: candidate.sandbox,
                reason: EvictionReason::Drain,
            });
        }
        // 2. EPC pressure: on every over-committed node, evict idle
        //    containers in ascending warm-value order (oldest first within a
        //    value, sandbox id as the final tie) until the enclave working
        //    set fits the EPC again — the ring rebuilds these cheapest
        //    elsewhere, so they are the right capacity to give back.
        let mut nodes: Vec<NodeId> = ctx
            .candidates
            .iter()
            .filter(|c| !c.node_draining)
            .map(|c| c.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            let mut committed = ctx.node_enclave_bytes.get(node).copied().unwrap_or(0);
            if committed <= ctx.epc_bytes {
                continue;
            }
            let mut on_node: Vec<&EvictionCandidate> = ctx
                .candidates
                .iter()
                .filter(|c| c.node == node && !c.node_draining)
                .collect();
            on_node.sort_by(|a, b| {
                a.warm_value
                    .total_cmp(&b.warm_value)
                    .then(a.last_used.cmp(&b.last_used))
                    .then(a.sandbox.cmp(&b.sandbox))
            });
            for candidate in on_node {
                if committed <= ctx.epc_bytes {
                    break;
                }
                committed = committed.saturating_sub(candidate.enclave_bytes);
                verdicts.push(EvictionVerdict {
                    sandbox: candidate.sandbox,
                    reason: EvictionReason::Pressure,
                });
            }
        }
        // 3. Keep-alive expiry with sticky retention: expired off-subset
        //    containers go on time, but ring-preferred ones earn an extended
        //    window — warm capacity survives idle gaps exactly where the
        //    router will look for it.  The extension is bounded
        //    (retention_factor × keep_alive), so memory cannot pool forever.
        let chosen: Vec<SandboxId> = verdicts.iter().map(|v| v.sandbox).collect();
        for candidate in ctx
            .candidates
            .iter()
            .filter(|c| c.expired && !c.node_draining && !chosen.contains(&c.sandbox))
        {
            let sticky = candidate.warm_value >= self.sticky_threshold;
            let extended = ctx.keep_alive.mul_f64(self.retention_factor);
            if sticky && ctx.now.duration_since(candidate.last_used) < extended {
                continue; // retained: the ring wants warm capacity here
            }
            verdicts.push(EvictionVerdict {
                sandbox: candidate.sandbox,
                reason: EvictionReason::Expired,
            });
        }
        verdicts
    }

    fn select_drain_victim(&mut self, ctx: &DrainContext<'_>) -> Option<DrainVerdict> {
        // Retire the node whose warm pool the ring values least — the one
        // whose containers are cheapest to rebuild elsewhere — with the
        // age-only load order as the tie-break.
        ctx.nodes
            .iter()
            .min_by(|a, b| {
                a.warm_pool_value
                    .total_cmp(&b.warm_pool_value)
                    .then(a.active_invocations.cmp(&b.active_invocations))
                    .then(a.sandboxes.cmp(&b.sandboxes))
                    .then(b.node.cmp(&a.node))
            })
            .map(|candidate| DrainVerdict {
                victim: candidate.node,
                premigrate: true,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesemi_platform::{
        ActionSpec, Controller, NodeState, PlatformConfig, PlatformError, SandboxId,
    };

    const MB: u64 = 1024 * 1024;

    fn candidate(
        sandbox: u64,
        node: NodeId,
        last_used_secs: u64,
        expired: bool,
        warm_value: f64,
    ) -> EvictionCandidate {
        EvictionCandidate {
            sandbox: SandboxId(sandbox),
            node,
            model: Some(ModelId::new(format!("m{sandbox}"))),
            last_used: SimTime::from_secs(last_used_secs),
            expired,
            node_draining: false,
            enclave_bytes: 256 * MB,
            warm_value,
        }
    }

    fn drain_candidate(
        node: NodeId,
        sandboxes: usize,
        active: usize,
        warm_pool_value: f64,
    ) -> DrainCandidate {
        DrainCandidate {
            node,
            sandboxes,
            active_invocations: active,
            idle_containers: sandboxes.saturating_sub(active),
            warm_pool_value,
            memory_pressure: 0.5,
        }
    }

    #[test]
    fn kind_builds_matching_policies() {
        for kind in LifecycleKind::ALL {
            assert_eq!(kind.build().name(), kind.label());
        }
        assert_eq!(LifecycleKind::default(), LifecycleKind::AgeOnly);
    }

    #[test]
    fn age_only_evicts_exactly_the_expired_and_draining_candidates() {
        let mut policy = AgeOnlyLifecycle;
        let mut draining = candidate(3, 1, 90, false, 1.0);
        draining.node_draining = true;
        let candidates = vec![
            candidate(1, 0, 10, true, 0.0),
            candidate(2, 0, 95, false, 1.0),
            draining,
        ];
        let ctx = EvictionContext {
            now: SimTime::from_secs(200),
            keep_alive: SimDuration::from_secs(180),
            candidates: &candidates,
            node_enclave_bytes: &[512 * MB, 256 * MB],
            epc_bytes: u64::MAX,
        };
        let verdicts = policy.select_evictions(&ctx);
        assert_eq!(
            verdicts,
            vec![
                EvictionVerdict {
                    sandbox: SandboxId(1),
                    reason: EvictionReason::Expired
                },
                EvictionVerdict {
                    sandbox: SandboxId(3),
                    reason: EvictionReason::Drain
                },
            ]
        );
    }

    #[test]
    fn age_only_drains_by_load_then_sandboxes_then_highest_id() {
        let mut policy = AgeOnlyLifecycle;
        let nodes = vec![
            drain_candidate(0, 1, 0, 2.0),
            drain_candidate(1, 2, 0, 0.0),
            drain_candidate(2, 1, 0, 0.0),
        ];
        let verdict = policy
            .select_drain_victim(&DrainContext { nodes: &nodes })
            .unwrap();
        // Nodes 0 and 2 tie on (active 0, sandboxes 1); the highest id wins,
        // and the warm-pool value is ignored entirely.
        assert_eq!(verdict.victim, 2);
        assert!(!verdict.premigrate);
        assert!(policy
            .select_drain_victim(&DrainContext { nodes: &[] })
            .is_none());
    }

    #[test]
    fn warm_value_retains_sticky_expired_containers_within_the_extension() {
        let mut policy = WarmValueLifecycle::new();
        // Both expired at now=200 (keep-alive 100): the sticky one (value
        // 1.0, idle 150 s < 200 s extension) is retained, the off-subset one
        // (value 0.25) and the over-extended sticky one (idle 250 s) go.
        let candidates = vec![
            candidate(1, 0, 50, true, 1.0),
            candidate(2, 0, 60, true, 0.25),
            candidate(3, 1, 0, true, 1.0), // idle 200 s >= 200 s extension
        ];
        let ctx = EvictionContext {
            now: SimTime::from_secs(200),
            keep_alive: SimDuration::from_secs(100),
            candidates: &candidates,
            node_enclave_bytes: &[512 * MB, 256 * MB],
            epc_bytes: u64::MAX,
        };
        let verdicts = policy.select_evictions(&ctx);
        assert_eq!(
            verdicts,
            vec![
                EvictionVerdict {
                    sandbox: SandboxId(2),
                    reason: EvictionReason::Expired
                },
                EvictionVerdict {
                    sandbox: SandboxId(3),
                    reason: EvictionReason::Expired
                },
            ]
        );
    }

    #[test]
    fn warm_value_relieves_epc_pressure_cheapest_capacity_first() {
        let mut policy = WarmValueLifecycle::new();
        // Node 0 commits 1 GB against a 640 MB EPC: two 256 MB evictions are
        // needed.  The lowest-value container goes first, then (values tied)
        // the older one; the sticky container survives.  Nothing is expired,
        // so without pressure no eviction would fire at all.
        let candidates = vec![
            candidate(1, 0, 50, false, 1.0),
            candidate(2, 0, 80, false, 0.2),
            candidate(3, 0, 40, false, 0.5),
            candidate(4, 0, 60, false, 0.5),
        ];
        let ctx = EvictionContext {
            now: SimTime::from_secs(100),
            keep_alive: SimDuration::from_secs(180),
            candidates: &candidates,
            node_enclave_bytes: &[1024 * MB],
            epc_bytes: 640 * MB,
        };
        let verdicts = policy.select_evictions(&ctx);
        assert_eq!(
            verdicts,
            vec![
                EvictionVerdict {
                    sandbox: SandboxId(2),
                    reason: EvictionReason::Pressure
                },
                EvictionVerdict {
                    sandbox: SandboxId(3),
                    reason: EvictionReason::Pressure
                },
            ]
        );
        // With the EPC comfortable, the same context evicts nothing.
        let calm = EvictionContext {
            node_enclave_bytes: &[512 * MB],
            ..ctx
        };
        assert!(policy.select_evictions(&calm).is_empty());
    }

    #[test]
    fn warm_value_drains_the_least_valuable_warm_pool_and_premigrates() {
        let mut policy = WarmValueLifecycle::new();
        let nodes = vec![
            drain_candidate(0, 3, 0, 3.0),
            drain_candidate(1, 2, 1, 0.5),
            drain_candidate(2, 2, 0, 0.5),
        ];
        let verdict = policy
            .select_drain_victim(&DrainContext { nodes: &nodes })
            .unwrap();
        // Nodes 1 and 2 tie on pool value; the load tie-break prefers the
        // idle node 2 — the age-only order, applied within equal value.
        assert_eq!(verdict.victim, 2);
        assert!(verdict.premigrate);
    }

    #[test]
    fn reclaim_refuses_verdicts_naming_unknown_sandboxes() {
        // The controller is the enforcement point behind "verdicts must name
        // candidates": a policy inventing ids is surfaced as an error.
        let mut c = Controller::new(PlatformConfig::default().with_invoker_memory(1024 * MB), 1);
        c.register_action(ActionSpec::new("f", "sesemi/semirt", 128 * MB, 1))
            .unwrap();
        assert!(matches!(
            c.reclaim_sandboxes(&[SandboxId(42)]),
            Err(PlatformError::UnknownSandbox(42))
        ));
        assert_eq!(c.node_state(0), Some(NodeState::Active));
    }
}
