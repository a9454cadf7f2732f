//! Invariant suite for batched execution: random MMPP traces x batching
//! windows x small random fault plans must uphold the per-item accounting
//! ledgers — every member of a coalesced batch still produces exactly one
//! latency sample, one path count, and one completion — and a disabled
//! window (`window <= 1`) must leave every batching counter at zero.
//!
//! Cross-user safety rides along for free: the simulator debug-asserts that
//! every absorbed batch peer shares the head request's user, so any
//! cross-user coalescing under the multi-user probes panics and is caught
//! by the harness here.

#[path = "support/fault_plan.rs"]
mod fault_plan;
#[path = "support/shrink.rs"]
mod shrink;

use fault_plan::{apply_plan, decode_fault, one_container_budget, PlanFault};
use proptest::prelude::*;
use sesemi::cluster::BatchingConfig;
use sesemi_inference::{Framework, ModelKind, ModelProfile};
use sesemi_scenario::{Scenario, ScenarioBuilder};
use sesemi_sim::SimDuration;
use sesemi_workload::ArrivalProcess;
use shrink::shrink_to_minimal;

/// The one-node batching probe: `users` independent MMPP streams of MBNET
/// requests (`low ↔ high` rps each) offered to a single single-TCS
/// container behind a batching window of `window`.
fn batching_probe(
    seed: u64,
    window: usize,
    low: f64,
    high: f64,
    dwell_s: u64,
    users: usize,
) -> ScenarioBuilder {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let mut builder = Scenario::builder("batching-probe")
        .seed(seed)
        .nodes(1)
        .tcs_per_container(1)
        .invoker_memory_bytes(one_container_budget(&profile))
        .batching(BatchingConfig { window })
        .model(model.clone(), profile)
        .prewarm(model.clone(), 0, 1);
    for user in 0..users {
        builder = builder.traffic(
            model.clone(),
            user,
            ArrivalProcess::Mmpp {
                rates_per_sec: vec![low, high],
                mean_dwell: SimDuration::from_secs(dwell_s),
            },
        );
    }
    builder.duration(SimDuration::from_secs(20))
}

/// Runs the probe at `window` alongside its unbatched twin (identical seed,
/// identical faults) and checks the run ledger and the batching counters;
/// `Err` carries the reason for the shrinker.  A panic anywhere in the
/// simulator — including the cross-user and warm-dispatch debug asserts on
/// the batching path — also surfaces as `Err`.
#[allow(clippy::too_many_arguments)]
fn run_batching_probe(
    seed: u64,
    window: usize,
    low: f64,
    high: f64,
    dwell_s: u64,
    users: usize,
    faults: &[PlanFault],
) -> Result<(), String> {
    let run_window = |w: usize| {
        let scenario = apply_plan(batching_probe(seed, w, low, high, dwell_s, users), faults);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario.run()))
            .map_err(|_| format!("the simulator panicked at window {w}"))
    };
    let result = run_window(window)?;
    // Per-item accounting: batching amortizes the *execution*, never the
    // bookkeeping — the ledger check holds one latency sample, one path
    // count, and one per-model sample per completed request, batched or not.
    result.check().map_err(|violation| violation.to_string())?;
    // The window is a hard cap on batch size.
    if result.max_batch > window {
        return Err(format!(
            "a batch of {} exceeded the window of {window}",
            result.max_batch
        ));
    }
    if result.batched_requests > result.dispatched {
        return Err("more batched requests than dispatches".to_string());
    }
    if result.batches_formed > 0 && result.max_batch < 2 {
        return Err(format!(
            "{} batches formed, but the widest held {} request",
            result.batches_formed, result.max_batch
        ));
    }
    if window <= 1
        && (result.batches_formed != 0 || result.batched_requests != 0 || result.max_batch != 0)
    {
        return Err(format!(
            "batching is off but formed {} batches over {} requests",
            result.batches_formed, result.batched_requests
        ));
    }
    // Batching changes when work executes, never what is admitted: the
    // unbatched twin sees the identical generated trace.
    let twin = run_window(1)?;
    if twin.batches_formed != 0 || twin.batched_requests != 0 {
        return Err("the unbatched twin formed batches".to_string());
    }
    if result.admitted != twin.admitted {
        return Err(format!(
            "window {window} admitted {} but the unbatched twin admitted {}",
            result.admitted, twin.admitted
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random over-capacity MMPP traces x batching windows x user mixes x
    /// small random fault plans uphold the batching ledgers: per-item
    /// conservation, `max_batch <= window`, zeroed counters when the window
    /// is 1, and an admitted count identical to the unbatched twin.
    /// Failures shrink to a 1-minimal fault plan.
    #[test]
    fn random_batching_windows_uphold_per_item_accounting(
        seed in 0u64..1_000,
        window in 1usize..9,
        low in 5u32..20,
        high in 20u32..50,
        dwell_s in 2u64..10,
        users in 1usize..4,
        raw in proptest::collection::vec(0u64..u64::MAX, 0..3)
    ) {
        let faults: Vec<PlanFault> = raw.iter().map(|r| decode_fault(*r)).collect();
        let probe = |plan: &[PlanFault]| {
            run_batching_probe(seed, window, f64::from(low), f64::from(high), dwell_s, users, plan)
        };
        if let Err(reason) = probe(&faults) {
            let minimal = shrink_to_minimal(&faults, &|plan| probe(plan).is_err());
            prop_assert!(
                false,
                "batching probe (seed {seed}, window {window}, {users} users) failed: {reason}\n\
                 minimal failing plan: {minimal:?}"
            );
        }
    }
}

/// Batched runs reproduce bit-for-bit: the determinism guard for the
/// coalescing path (peer absorption walks the pending queue in insertion
/// order, so the same seed must yield the same batches).
#[test]
fn batched_runs_are_deterministic() {
    let run = || batching_probe(13, 4, 20.0, 45.0, 5, 2).build().run();
    let a = run();
    let b = run();
    assert!(a.batches_formed > 0, "the saturated probe never batched");
    assert_eq!(a.batches_formed, b.batches_formed);
    assert_eq!(a.batched_requests, b.batched_requests);
    assert_eq!(a.max_batch, b.max_batch);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.mean_latency(), b.mean_latency());
    assert!((a.gb_seconds - b.gb_seconds).abs() < 1e-12);
}

/// FnPacker's Rule-1 stickiness feeds the batching window: by packing a
/// model's traffic onto its warm endpoint instead of spreading it, the
/// router concentrates the pending queue where the coalescer looks, so a
/// saturated single-model stream forms real batches even with spare nodes
/// in the pool — and per-item accounting survives the interplay of the two
/// layers.
#[test]
fn fnpacker_stickiness_concentrates_peers_for_the_batching_window() {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let build = |window: usize| {
        Scenario::builder("fnpacker-batching")
            .seed(13)
            .nodes(2)
            .tcs_per_container(1)
            .invoker_memory_bytes(one_container_budget(&profile))
            .routing(sesemi_fnpacker::RoutingStrategy::FnPacker)
            .batching(BatchingConfig { window })
            .model(model.clone(), profile)
            .prewarm(model.clone(), 0, 1)
            .traffic(
                model.clone(),
                0,
                ArrivalProcess::Poisson { rate_per_sec: 45.0 },
            )
            .duration(SimDuration::from_secs(30))
            .build()
            .run()
    };
    let batched = build(4);
    assert!(
        batched.batches_formed > 0,
        "stickiness left the batching window without peers"
    );
    assert!(batched.max_batch >= 2 && batched.max_batch <= 4);
    assert_eq!(batched.check(), Ok(()));

    let unbatched = build(1);
    assert_eq!(unbatched.batches_formed, 0);
    assert_eq!(unbatched.admitted, batched.admitted, "identical trace");
    assert!(
        batched.mean_latency() < unbatched.mean_latency(),
        "coalescing the sticky queue must drain it faster: {:?} vs {:?}",
        batched.mean_latency(),
        unbatched.mean_latency()
    );
}
