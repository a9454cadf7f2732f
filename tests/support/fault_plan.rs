//! Random fault plans for the scenario property suites: raw 64-bit draws
//! decode into abstract faults, and a plan applies to any scenario builder,
//! so the shrinker can re-apply every sub-plan to a fresh one.

use sesemi_inference::ModelProfile;
use sesemi_scenario::{Scenario, ScenarioBuilder};
use sesemi_sim::SimTime;

/// A decoded random fault, kept abstract so the shrinker can re-apply a
/// sub-plan to a fresh builder.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanFault {
    Crash { at_ms: u64, node: usize },
    Kill { at_ms: u64, model_index: usize },
}

/// Decodes one raw 64-bit draw into a fault: bit 0 picks the kind, the low
/// half a time inside the first minute, the high half the target (wrapped
/// into bounds at application time).
pub fn decode_fault(raw: u64) -> PlanFault {
    let at_ms = (raw >> 1) % 60_000;
    let target = (raw >> 33) as usize;
    if raw & 1 == 0 {
        PlanFault::Crash {
            at_ms,
            node: target,
        }
    } else {
        PlanFault::Kill {
            at_ms,
            model_index: target,
        }
    }
}

/// Replaces the builder's fault plan with `faults`, wrapping each target
/// into the builder's node pool and model list, and builds the scenario.
pub fn apply_plan(builder: ScenarioBuilder, faults: &[PlanFault]) -> Scenario {
    let bound = builder.node_pool_bound();
    let models = builder.model_ids();
    let mut builder = builder.clear_faults();
    for fault in faults {
        builder = match fault {
            PlanFault::Crash { at_ms, node } => {
                builder.node_crash(SimTime::from_millis(*at_ms), node % bound)
            }
            PlanFault::Kill { at_ms, model_index } => builder.container_kill(
                SimTime::from_millis(*at_ms),
                models[model_index % models.len()].clone(),
            ),
        };
    }
    builder.build()
}

/// Memory budget that fits exactly one single-threaded container of
/// `profile` on a node — the bottleneck that makes queues (and therefore
/// rejections and batches) form.
pub fn one_container_budget(profile: &ModelProfile) -> u64 {
    sesemi_platform::PlatformConfig::round_memory_budget(profile.enclave_bytes_for_concurrency(1))
}
