//! Lockstep oracle suite for the controller's incremental scheduling views.
//!
//! The warm-candidate index, the per-node occupancy counters and the
//! running totals are pure derived state: after *every* lifecycle transition
//! they must equal what a fresh scan over the sandboxes would compute.  This
//! suite drives random op sequences (dispatch / ready / finish / evict /
//! drain / crash / kill / add / remove, across several actions and a
//! changing node pool) through a controller, calling the same entry points
//! the cluster simulator calls, and re-derives every indexed view and total
//! from the public sandbox iterator after each op.  A divergence shrinks to
//! a 1-minimal op sequence with the same greedy delta-debugging the
//! scenario corpus uses.

#[path = "support/shrink.rs"]
mod shrink;

use proptest::prelude::*;
use sesemi_platform::{
    ActionId, ActionSpec, Controller, NodeSnapshot, NodeState, PlatformConfig, SandboxId,
    SandboxState, WarmCandidate,
};
use sesemi_sim::SimTime;
use shrink::shrink_to_minimal;

const MB: u64 = 1024 * 1024;

/// One decoded controller op.  Targets are raw draws wrapped into bounds at
/// application time, so every op is applicable in every state.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// Dispatch one invocation of the indexed action to the `pick`-th of
    /// its options: its warm candidates (ascending id), then the nodes a new
    /// container fits on (ascending id).  Nothing happens when it has none;
    /// `ready` marks a resulting cold start running immediately.
    Schedule {
        action: usize,
        pick: usize,
        ready: bool,
    },
    /// Mark the `pick`-th still-starting sandbox (ascending id) as running.
    Ready { pick: usize },
    /// Finish the `pick`-th tracked in-flight activation (stale entries —
    /// their sandbox crashed or was killed — are simply discarded).
    Finish { pick: usize },
    /// Advance the clock by `advance_s` and reclaim every idle candidate
    /// whose keep-alive expired or whose node is draining.
    Evict { advance_s: u64 },
    /// Drain the `node`-th node slot (errors on retired slots are ignored).
    Drain { node: usize },
    /// Crash the `node`-th node slot (errors on retired slots are ignored).
    Crash { node: usize },
    /// Kill the `pick`-th live sandbox (ascending id), busy or idle.
    Kill { pick: usize },
    /// Scale out by one node (capped so sequences stay small).
    AddNode,
    /// Retire the first fully drained node, if any.
    RemoveDrained,
}

/// Decodes one raw 64-bit draw into an op.  Scheduling dominates the mix so
/// sequences build real pools before lifecycle events start tearing at them.
fn decode_op(raw: u64) -> Op {
    let payload = (raw >> 4) as usize;
    match raw % 16 {
        0..=5 => Op::Schedule {
            action: payload,
            pick: (raw >> 8) as usize,
            ready: raw & 0x10 != 0,
        },
        6 | 7 => Op::Finish { pick: payload },
        8 => Op::Ready { pick: payload },
        9 | 15 => Op::Evict {
            advance_s: (payload as u64) % 400,
        },
        10 => Op::Drain { node: payload },
        11 => Op::Crash { node: payload },
        12 => Op::Kill { pick: payload },
        13 => Op::AddNode,
        _ => Op::RemoveDrained,
    }
}

/// The action mix: different memory budgets and concurrency limits so warm
/// sets, free slots and placement pressure all vary.
fn actions() -> Vec<ActionSpec> {
    vec![
        ActionSpec::new("alpha", "sesemi/semirt", 256 * MB, 2),
        ActionSpec::new("beta", "sesemi/semirt", 128 * MB, 1),
        ActionSpec::new("gamma", "sesemi/semirt", 384 * MB, 4),
    ]
}

/// Re-derives every incrementally maintained view from the public sandbox
/// iterator and compares.  Any mismatch is a broken index invariant.
fn check_views_against_oracle(c: &Controller, ids: &[ActionId]) -> Result<(), String> {
    for &action in ids {
        // Warm candidates: the action's free-slot sandboxes on Active nodes,
        // ascending id.
        let mut expected: Vec<WarmCandidate> = c
            .sandboxes()
            .filter(|s| {
                s.action == action
                    && s.has_free_slot()
                    && c.node_state(s.node) == Some(NodeState::Active)
            })
            .map(|s| WarmCandidate {
                sandbox: s.id,
                node: s.node,
                last_used: s.last_used,
                still_starting: s.state == SandboxState::Starting,
            })
            .collect();
        expected.sort_unstable_by_key(|candidate| candidate.sandbox);
        let mut actual = Vec::new();
        c.warm_candidates_into(action, &mut actual);
        if actual != expected {
            return Err(format!(
                "warm_candidates_into({action:?}) diverged:\n  indexed {actual:?}\n  oracle  {expected:?}"
            ));
        }
        // Node snapshots: counters re-derived per sandbox.
        let mut snapshots: Vec<NodeSnapshot> = (0..c.node_count())
            .map(|node| NodeSnapshot {
                node,
                memory_capacity: c.config().invoker_memory_bytes,
                memory_used: 0,
                total_sandboxes: 0,
                action_sandboxes: 0,
                active_invocations: 0,
                schedulable: c.node_state(node) == Some(NodeState::Active),
            })
            .collect();
        for sandbox in c.sandboxes() {
            let snapshot = &mut snapshots[sandbox.node];
            snapshot.memory_used += sandbox.memory_bytes;
            snapshot.total_sandboxes += 1;
            snapshot.active_invocations += sandbox.active;
            if sandbox.action == action {
                snapshot.action_sandboxes += 1;
            }
        }
        let mut actual = Vec::new();
        c.node_snapshots_into(action, &mut actual);
        if actual != snapshots {
            return Err(format!(
                "node_snapshots_into({action:?}) diverged:\n  indexed {actual:?}\n  oracle  {snapshots:?}"
            ));
        }
        // Placement is possible exactly when some snapshot fits.
        let bytes = c.action(action).memory_budget_bytes;
        let fits = snapshots.iter().any(|snapshot| snapshot.fits(bytes));
        if c.fits_anywhere(bytes) != fits {
            return Err(format!(
                "fits_anywhere({bytes}) for {action:?} diverged: indexed {} oracle {fits}",
                c.fits_anywhere(bytes)
            ));
        }
    }
    // The running totals, and the slab's order: ascending ids, so every view
    // built by walking the sandboxes is deterministic without a sort.
    let ids: Vec<SandboxId> = c.sandboxes().map(|s| s.id).collect();
    if !ids.windows(2).all(|pair| pair[0] < pair[1]) {
        return Err(format!("sandboxes() is not in ascending id order: {ids:?}"));
    }
    if c.sandbox_count() != ids.len() {
        return Err(format!(
            "sandbox_count diverged: indexed {} oracle {}",
            c.sandbox_count(),
            ids.len()
        ));
    }
    let committed: u64 = c.sandboxes().map(|s| s.memory_bytes).sum();
    if c.committed_memory_bytes() != committed {
        return Err(format!(
            "committed_memory_bytes diverged: indexed {} oracle {committed}",
            c.committed_memory_bytes()
        ));
    }
    let serving = c.sandboxes().filter(|s| !s.is_idle()).count();
    if c.serving_sandbox_count() != serving {
        return Err(format!(
            "serving_sandbox_count diverged: indexed {} oracle {serving}",
            c.serving_sandbox_count()
        ));
    }
    let mut loads: Vec<(usize, usize, usize)> = (0..c.node_count())
        .filter(|node| c.node_state(*node) == Some(NodeState::Active))
        .map(|node| (node, 0, 0))
        .collect();
    for sandbox in c.sandboxes() {
        if let Some(entry) = loads.iter_mut().find(|(node, _, _)| *node == sandbox.node) {
            entry.1 += 1;
            entry.2 += sandbox.active;
        }
    }
    if c.active_node_loads() != loads {
        return Err("active_node_loads diverged from the oracle".to_string());
    }
    let drained_empty: Vec<usize> = (0..c.node_count())
        .filter(|node| {
            c.node_state(*node) == Some(NodeState::Draining)
                && !c.sandboxes().any(|s| s.node == *node)
        })
        .collect();
    if c.drained_empty_nodes() != drained_empty {
        return Err("drained_empty_nodes diverged from the oracle".to_string());
    }
    Ok(())
}

/// Applies `ops` to a fresh 3-node controller, checking every view against
/// the fresh-scan oracle after every op.  `Err` carries the failing op index
/// and reason for the shrinker; a panic anywhere (including the index's own
/// debug assertions) also surfaces as `Err`.
fn run_lockstep(ops: &[Op]) -> Result<(), String> {
    let ops = ops.to_vec();
    std::panic::catch_unwind(move || {
        let config = PlatformConfig::default().with_invoker_memory(1024 * MB);
        let mut c = Controller::new(config, 3);
        let ids: Vec<ActionId> = actions()
            .into_iter()
            .map(|spec| c.register_action(spec).unwrap())
            .collect();
        // The naming edge round-trips: name → id → spec with that name.
        for (spec, &id) in actions().iter().zip(&ids) {
            assert_eq!(c.action_id(&spec.name), Ok(id));
            assert_eq!(c.action(id).name, spec.name);
        }
        let mut in_flight: Vec<SandboxId> = Vec::new();
        let mut now = SimTime::ZERO;
        for (step, op) in ops.iter().enumerate() {
            now += sesemi_sim::SimDuration::from_secs(1);
            match op {
                Op::Schedule {
                    action,
                    pick,
                    ready,
                } => {
                    let id = ids[action % ids.len()];
                    let bytes = c.action(id).memory_budget_bytes;
                    let mut warm = Vec::new();
                    c.warm_candidates_into(id, &mut warm);
                    let mut snapshots = Vec::new();
                    c.node_snapshots_into(id, &mut snapshots);
                    let nodes: Vec<usize> = snapshots
                        .iter()
                        .filter(|snapshot| snapshot.fits(bytes))
                        .map(|snapshot| snapshot.node)
                        .collect();
                    let options = warm.len() + nodes.len();
                    if options > 0 {
                        let choice = pick % options;
                        let outcome = match warm.get(choice) {
                            Some(candidate) => c.assign_warm(*candidate, now),
                            None => c.schedule_on(id, nodes[choice - warm.len()], now),
                        }
                        .unwrap();
                        if outcome.is_cold_start() && *ready {
                            c.sandbox_ready(outcome.sandbox()).unwrap();
                        }
                        in_flight.push(outcome.sandbox());
                    }
                }
                Op::Ready { pick } => {
                    let mut starting: Vec<SandboxId> = c
                        .sandboxes()
                        .filter(|s| s.state == SandboxState::Starting)
                        .map(|s| s.id)
                        .collect();
                    starting.sort_unstable();
                    if !starting.is_empty() {
                        c.sandbox_ready(starting[pick % starting.len()]).unwrap();
                    }
                }
                Op::Finish { pick } => {
                    if !in_flight.is_empty() {
                        let id = in_flight.remove(pick % in_flight.len());
                        // Stale entries (sandbox crashed/killed since) error
                        // out harmlessly; the activation is simply gone.
                        let _ = c.invocation_finished(id, now);
                    }
                }
                Op::Evict { advance_s } => {
                    now += sesemi_sim::SimDuration::from_secs(*advance_s);
                    let evicted: Vec<SandboxId> = c
                        .idle_candidates(now)
                        .into_iter()
                        .filter(|candidate| candidate.expired || candidate.node_draining)
                        .map(|candidate| candidate.sandbox)
                        .collect();
                    c.reclaim_sandboxes(&evicted).unwrap();
                }
                Op::Drain { node } => {
                    let _ = c.drain_node(node % c.node_count());
                }
                Op::Crash { node } => {
                    let _ = c.crash_node(node % c.node_count());
                }
                Op::Kill { pick } => {
                    let mut live: Vec<SandboxId> = c.sandboxes().map(|s| s.id).collect();
                    live.sort_unstable();
                    if !live.is_empty() {
                        c.kill_sandbox(live[pick % live.len()]).unwrap();
                    }
                }
                Op::AddNode => {
                    if c.node_count() < 8 {
                        c.add_node();
                    }
                }
                Op::RemoveDrained => {
                    if let Some(node) = c.drained_empty_nodes().first().copied() {
                        c.remove_node(node).unwrap();
                    }
                }
            }
            check_views_against_oracle(&c, &ids)
                .map_err(|reason| format!("after op {step} ({op:?}): {reason}"))?;
        }
        Ok(())
    })
    .unwrap_or_else(|_| Err("the controller panicked".to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random op sequences keep every incrementally indexed view equal to
    /// the fresh-scan oracle after every single transition.  Failures
    /// shrink to a 1-minimal op sequence.
    #[test]
    fn indexed_views_match_fresh_scan_oracle(
        raw in proptest::collection::vec(0u64..u64::MAX, 0..60)
    ) {
        let ops: Vec<Op> = raw.iter().map(|r| decode_op(*r)).collect();
        if let Err(reason) = run_lockstep(&ops) {
            let minimal = shrink_to_minimal(&ops, &|candidate| run_lockstep(candidate).is_err());
            prop_assert!(
                false,
                "indexed views diverged from the oracle: {reason}\n\
                 minimal failing sequence: {minimal:?}"
            );
        }
    }
}

/// A deterministic dense sequence exercising every op kind at least once —
/// the smoke test that runs even when the property harness is filtered out.
#[test]
fn dense_lifecycle_sequence_stays_in_lockstep() {
    let ops: Vec<Op> = (0..400u64)
        .map(|i| {
            decode_op(
                i.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            )
        })
        .collect();
    run_lockstep(&ops).expect("dense lifecycle sequence diverged");
}
