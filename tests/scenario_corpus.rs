//! The corpus-wide invariant suite: every scenario in the registry is
//! tested *by construction* — enumerate the corpus, run each entry at two
//! seeds, and assert the accounting invariants hold everywhere; then fuzz
//! random fault plans against the quick scenarios and prove the
//! failure-injection re-queue path both fires under a crash and stays cold
//! without one.
//!
//! Adding a corpus entry automatically puts it under all of these tests:
//! there is no per-scenario test to forget.

#[path = "support/fault_plan.rs"]
mod fault_plan;
#[path = "support/shrink.rs"]
mod shrink;

use fault_plan::{apply_plan, decode_fault, one_container_budget, PlanFault};
use proptest::prelude::*;
use sesemi::cluster::{AdmissionKind, LifecycleKind, SimulationResult};
use sesemi_inference::{Framework, ModelKind, ModelProfile};
use sesemi_scenario::{Scenario, ScenarioBuilder, ScenarioRegistry};
use sesemi_sim::SimDuration;
use sesemi_workload::{ArrivalProcess, Tier};
use shrink::shrink_to_minimal;

const CONFORMANCE_SEEDS: [u64; 2] = [11, 17];

/// The accounting-consistency checks every corpus run must satisfy,
/// regardless of workload shape or injected failures.
fn assert_internally_consistent(id: &str, seed: u64, result: &SimulationResult) {
    assert_eq!(result.check(), Ok(()), "{id} (seed {seed})");
    assert!(result.gb_seconds >= 0.0 && result.node_gb_seconds >= 0.0);
    assert!(result.peak_nodes >= 1, "{id}: a pool served with no nodes");
}

/// Corpus conformance: every registered scenario, at two seeds, completes
/// work, conserves requests, and keeps its accounting internally
/// consistent.  Fault-free entries must leave every failure counter at
/// zero; fault-tagged entries must actually injure the cluster.
#[test]
fn every_corpus_scenario_conserves_requests_at_two_seeds() {
    let registry = ScenarioRegistry::corpus();
    for entry in registry.entries() {
        for seed in CONFORMANCE_SEEDS {
            let scenario = entry.build(seed);
            let result = entry.run(seed);
            assert!(
                result.completed > 0,
                "{} (seed {seed}) completed nothing",
                entry.id
            );
            assert_internally_consistent(entry.id, seed, &result);
            if scenario.config().lifecycle == LifecycleKind::AgeOnly {
                // Only the warm-value policy evicts for EPC pressure or
                // pre-migrates drained warm pools.
                assert_eq!(
                    result.evictions_pressure, 0,
                    "{}: age-only pressure eviction",
                    entry.id
                );
                assert_eq!(
                    result.premigrated, 0,
                    "{}: age-only pre-migration",
                    entry.id
                );
            }
            if scenario.config().autoscale.is_none() && !entry.has_tag("fault") {
                // Drain-reason evictions need a draining node, which only
                // scale-in produces on a fault-free fixed pool.
                assert_eq!(
                    result.evictions_drain, 0,
                    "{}: drain eviction without a drain",
                    entry.id
                );
            }
            if entry.has_tag("fault") {
                assert!(
                    result.node_crashes + result.containers_killed + result.keyservice_crashes > 0,
                    "{} (seed {seed}) is tagged `fault` but nothing was injured",
                    entry.id
                );
            } else {
                assert_eq!(result.node_crashes, 0, "{}: phantom crash", entry.id);
                assert_eq!(result.containers_killed, 0, "{}: phantom kill", entry.id);
                assert_eq!(
                    result.keyservice_crashes, 0,
                    "{}: phantom KeyService crash",
                    entry.id
                );
                assert_eq!(
                    result.requeued_inflight + result.requeued_waiting,
                    0,
                    "{} (seed {seed}): the forced-kill re-queue path ran on a fault-free run",
                    entry.id
                );
            }
            if entry.has_tag("keyservice") {
                // The trust plane is actually in the loop: every cold
                // dispatch paid a provisioning call.
                assert!(
                    result.provisioned_keys > 0,
                    "{} (seed {seed}) is tagged `keyservice` but provisioned nothing",
                    entry.id
                );
                assert_eq!(
                    result.provisioned_keys, result.cold_dispatches,
                    "{} (seed {seed}): every cold dispatch provisions exactly once",
                    entry.id
                );
            } else {
                assert_eq!(
                    result.provisioned_keys, 0,
                    "{}: phantom key provisioning",
                    entry.id
                );
                assert_eq!(
                    result.keyservice_failovers, 0,
                    "{}: phantom KeyService failover",
                    entry.id
                );
            }
            if entry.has_tag("shedding") {
                // Shedding scenarios run a non-default admission policy
                // against intentional over-capacity: the policy must
                // actually turn work away or the scenario is mislabelled.
                assert!(
                    result.rejected > 0,
                    "{} (seed {seed}) is tagged `shedding` but rejected nothing",
                    entry.id
                );
            } else if !entry.has_tag("sessions") {
                // Open-loop traces are generated inside the horizon and the
                // default policy admits everything; only closed-loop session
                // follow-ups can be refused at admission.
                assert_eq!(result.rejected, 0, "{}: unexpected rejections", entry.id);
                assert_eq!(
                    result.shed, 0,
                    "{}: shed without a shedding policy",
                    entry.id
                );
            }
        }
    }
}

/// The acceptance bar for the corpus itself: at least ten named scenarios,
/// at least two of which carry fault plans.
#[test]
fn the_corpus_has_ten_scenarios_and_two_fault_plans() {
    let registry = ScenarioRegistry::corpus();
    assert!(
        registry.len() >= 10,
        "corpus has {} scenarios, want >= 10",
        registry.len()
    );
    let with_faults = registry
        .entries()
        .iter()
        .filter(|entry| entry.build(1).has_faults())
        .count();
    assert!(
        with_faults >= 2,
        "corpus has {with_faults} fault-bearing scenarios, want >= 2"
    );
}

/// Reachability regression for the `cleanup_evicted` waiting-queue
/// re-queue: the crash corpus scenario parks requests on a cold-starting
/// container and kills its node mid-boot, so the re-queue path *must* run
/// — and the identical scenario with the fault plan stripped proves the
/// path stays cold on every normal eviction.
#[test]
fn node_crash_drives_the_waiting_queue_requeue_path_and_the_control_stays_cold() {
    let entry = ScenarioRegistry::corpus()
        .get("crash-cold-start-requeue")
        .expect("corpus entry")
        .builder(5);
    let crashed = entry.clone().build().run();
    assert!(
        crashed.requeued_waiting >= 1,
        "the crash never re-queued a parked request"
    );
    assert_eq!(crashed.node_crashes, 1);
    assert_eq!(crashed.dropped, 0);
    assert_eq!(crashed.completed, crashed.admitted);
    assert_eq!(crashed.check(), Ok(()));

    let control = entry.clear_faults().build().run();
    assert_eq!(control.node_crashes, 0);
    assert_eq!(
        control.requeued_waiting, 0,
        "idle-only eviction re-queued a parked request without any fault"
    );
    assert_eq!(control.requeued_inflight, 0);
    assert_eq!(control.check(), Ok(()));
    // The control run admits the same trace but loses no node, so it can
    // only do better.
    assert_eq!(control.admitted, crashed.admitted);
    assert_eq!(control.dropped, 0);
}

/// The EPC-pressure corpus scenario actually exercises the warm-value
/// policy's pressure path — three models' warm pools overcommit a
/// 1.5-container EPC, so idle containers are reclaimed *before* their 90 s
/// keep-alive — and the identical scenario under the age-only policy proves
/// the path belongs to the policy, not the workload.
#[test]
fn epc_pressure_scenario_drives_pressure_evictions_only_under_warm_value() {
    let entry_builder = |seed| {
        ScenarioRegistry::corpus()
            .get("lifecycle-epc-pressure")
            .expect("corpus entry")
            .builder(seed)
    };
    let warm_value = entry_builder(5).build().run();
    assert!(
        warm_value.evictions_pressure >= 1,
        "the overcommitted EPC never drove a pressure eviction"
    );
    assert_eq!(warm_value.check(), Ok(()));

    let age_only = entry_builder(5)
        .lifecycle(LifecycleKind::AgeOnly)
        .build()
        .run();
    assert_eq!(
        age_only.evictions_pressure, 0,
        "age-only eviction must ignore EPC pressure"
    );
    assert_eq!(age_only.admitted, warm_value.admitted, "identical trace");
    assert_eq!(age_only.check(), Ok(()));
}

/// Lifecycle-tagged scenarios reproduce bit-for-bit under both policies —
/// the corpus-level determinism guard for the new layer (the CI guard pins
/// the E3 JSON the same way).
#[test]
fn lifecycle_scenarios_are_deterministic_under_both_policies() {
    let registry = ScenarioRegistry::corpus();
    for entry in registry.with_tag("lifecycle") {
        for kind in LifecycleKind::ALL {
            let run = || entry.builder(9).lifecycle(kind).build().run();
            let a = run();
            let b = run();
            assert_eq!(a.completed, b.completed, "{}", entry.id);
            assert_eq!(a.cold_starts, b.cold_starts, "{}", entry.id);
            assert_eq!(a.evictions_expired, b.evictions_expired, "{}", entry.id);
            assert_eq!(a.evictions_pressure, b.evictions_pressure, "{}", entry.id);
            assert_eq!(a.evictions_drain, b.evictions_drain, "{}", entry.id);
            assert_eq!(a.premigrated, b.premigrated, "{}", entry.id);
            assert_eq!(a.per_model_warm_hits, b.per_model_warm_hits, "{}", entry.id);
            assert_eq!(a.mean_latency(), b.mean_latency(), "{}", entry.id);
        }
    }
}

/// Crash-bearing corpus scenarios reproduce bit-for-bit — the corpus-level
/// version of the CI determinism guard.
#[test]
fn crash_bearing_corpus_scenarios_are_deterministic() {
    let registry = ScenarioRegistry::corpus();
    let entry = registry.get("autoscale-under-crash").expect("corpus entry");
    let a = entry.run(7);
    let b = entry.run(7);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.node_crashes, b.node_crashes);
    assert_eq!(a.requeued_inflight, b.requeued_inflight);
    assert_eq!(a.requeued_waiting, b.requeued_waiting);
    assert_eq!(a.scale_out_events, b.scale_out_events);
    assert_eq!(a.mean_latency(), b.mean_latency());
    assert_eq!(a.p95_latency(), b.p95_latency());
    assert!((a.node_gb_seconds - b.node_gb_seconds).abs() < 1e-12);
}

/// The KeyService crash corpus scenario actually exercises the trust-plane
/// failover machinery — the crash lands mid-storm, so provisions in flight
/// on the dead replica must re-resolve against the survivor — and both
/// keyservice entries reproduce bit-for-bit at a second invocation (the
/// corpus determinism guard for the new layer; CI pins the E6 JSON the
/// same way).
#[test]
fn keyservice_corpus_scenarios_fail_over_and_are_deterministic() {
    let registry = ScenarioRegistry::corpus();
    let crashed = registry
        .get("keyservice-replica-crash")
        .expect("corpus entry")
        .run(5);
    assert_eq!(crashed.keyservice_crashes, 1);
    assert_eq!(crashed.dropped, 0, "failover must lose no work");
    assert_eq!(crashed.check(), Ok(()));

    // The crash-free control admits the identical trace and pays no
    // failover re-provisions.
    let control = registry
        .get("keyservice-replica-crash")
        .expect("corpus entry")
        .builder(5)
        .clear_faults()
        .build()
        .run();
    assert_eq!(control.keyservice_crashes, 0);
    assert_eq!(control.keyservice_failovers, 0);
    assert_eq!(control.admitted, crashed.admitted, "identical trace");

    for entry in registry.with_tag("keyservice") {
        let a = entry.run(9);
        let b = entry.run(9);
        assert_eq!(a.completed, b.completed, "{}", entry.id);
        assert_eq!(a.provisioned_keys, b.provisioned_keys, "{}", entry.id);
        assert_eq!(a.keyservice_wait, b.keyservice_wait, "{}", entry.id);
        assert_eq!(
            a.keyservice_failovers, b.keyservice_failovers,
            "{}",
            entry.id
        );
        assert_eq!(a.mean_latency(), b.mean_latency(), "{}", entry.id);
        assert_eq!(a.p95_latency(), b.p95_latency(), "{}", entry.id);
    }
}

/// Under-capacity control for the admission layer: on a comfortably
/// provisioned scenario no policy ever has anything to refuse — admission
/// is only consulted for requests the cluster cannot serve immediately, so
/// every [`AdmissionKind`] reproduces the admit-all run exactly.  This is
/// the corpus-level proof that no policy can reject while a free warm slot
/// exists.
#[test]
fn admission_policies_admit_everything_under_capacity() {
    let registry = ScenarioRegistry::corpus();
    let entry = registry.get("steady-poisson").expect("corpus entry");
    let baseline = entry.builder(5).build().run();
    assert_eq!(baseline.rejected, 0);
    for kind in AdmissionKind::ALL {
        let run = entry.builder(5).admission(kind).build().run();
        assert_eq!(run.rejected, 0, "{} rejected under capacity", kind.label());
        assert_eq!(run.shed, 0, "{} shed under capacity", kind.label());
        assert_eq!(run.admitted, baseline.admitted, "{}", kind.label());
        assert_eq!(run.completed, baseline.completed, "{}", kind.label());
        assert_eq!(run.cold_starts, baseline.cold_starts, "{}", kind.label());
        assert_eq!(
            run.mean_latency(),
            baseline.mean_latency(),
            "{}",
            kind.label()
        );
        assert!((run.gb_seconds - baseline.gb_seconds).abs() < 1e-12);
    }
}

/// Accounting purity of rejection: a refused request must leave no trace —
/// no latency sample, no per-model total, no dispatch.  Pinned against the
/// deadline-mix corpus scenario (heavy rejections) and its admit-all twin,
/// which admits the identical trace.
#[test]
fn rejected_requests_leave_no_accounting_trace() {
    let registry = ScenarioRegistry::corpus();
    let entry = registry.get("shedding-deadline-mix").expect("corpus entry");
    let run = entry.run(5);
    let twin = entry
        .builder(5)
        .admission(AdmissionKind::AdmitAll)
        .build()
        .run();
    assert!(run.rejected > 0, "the deadline mix rejected nothing");
    assert_eq!(twin.rejected, 0, "admit-all refused open-loop work");
    // The two runs admit the same generated trace: every arrival is either
    // admitted or rejected, never both and never dropped on the floor.
    assert_eq!(run.admitted + run.rejected, twin.admitted);
    // No latency sample and no per-model total for anything but completions.
    assert_eq!(run.check(), Ok(()));
    // Rejected and shed requests are never dispatched, so on this
    // fault-free run every dispatch maps to a distinct admitted request.
    assert_eq!(run.requeued_inflight, 0);
    assert!(
        run.dispatched <= run.admitted,
        "a refused request was dispatched"
    );
    // Rejection is deterministic: the same seed reproduces bit-for-bit.
    let again = entry.run(5);
    assert_eq!(again.rejected, run.rejected);
    assert_eq!(again.shed, run.shed);
    assert_eq!(again.completed, run.completed);
    assert_eq!(again.mean_latency(), run.mean_latency());
}

/// The rejection path unwinds adaptive-router state: an over-capacity
/// queue-bound run routed by FnPacker (whose per-model pending counters a
/// leak would poison) still conserves requests and keeps its accounting
/// consistent while turning work away.
#[test]
fn queue_bound_rejection_unwinds_fnpacker_routing_state() {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let result = Scenario::builder("fnpacker-queue-bound")
        .seed(5)
        .nodes(1)
        .tcs_per_container(1)
        .invoker_memory_bytes(one_container_budget(&profile))
        .routing(sesemi_fnpacker::RoutingStrategy::FnPacker)
        .admission(AdmissionKind::QueueBound)
        .model(model.clone(), profile)
        .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 30.0 })
        .duration(SimDuration::from_secs(30))
        .build()
        .run();
    assert!(
        result.rejected > 0,
        "30 rps on one slot must overflow the bound"
    );
    assert_eq!(result.check(), Ok(()));
    assert!(result.dispatched <= result.admitted);
}

/// Shedding-tagged corpus scenarios reproduce bit-for-bit — the corpus
/// determinism guard for the admission layer (CI pins the experiment JSON
/// the same way).
#[test]
fn shedding_corpus_scenarios_are_deterministic() {
    let registry = ScenarioRegistry::corpus();
    let shedding = registry.with_tag("shedding");
    assert!(
        shedding.len() >= 3,
        "want at least three shedding scenarios"
    );
    for entry in shedding {
        let a = entry.run(9);
        let b = entry.run(9);
        assert_eq!(a.admitted, b.admitted, "{}", entry.id);
        assert_eq!(a.rejected, b.rejected, "{}", entry.id);
        assert_eq!(a.shed, b.shed, "{}", entry.id);
        assert_eq!(a.dropped, b.dropped, "{}", entry.id);
        assert_eq!(a.completed, b.completed, "{}", entry.id);
        assert_eq!(a.mean_latency(), b.mean_latency(), "{}", entry.id);
    }
}

// ---------------------------------------------------------------------------
// Random fault plans (property tests with shrinking)
// ---------------------------------------------------------------------------

/// Runs a quick corpus scenario under the plan; `Err` carries the reason —
/// a panic anywhere in the simulator (including the ledger check in
/// `Scenario::run`) or a ledger violation.
fn run_plan(id: &str, seed: u64, faults: &[PlanFault]) -> Result<(), String> {
    let registry = ScenarioRegistry::corpus();
    let builder = registry.get(id).expect("quick corpus id").builder(seed);
    let scenario = apply_plan(builder, faults);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario.run()))
        .map_err(|_| "the simulator panicked".to_string())?;
    result.check().map_err(|violation| violation.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small fault plans (crash times/targets and container kills)
    /// against random quick corpus scenarios never violate conservation and
    /// never panic.  On a failure, the greedy shrinker reports a 1-minimal
    /// failing plan in the assertion message.
    #[test]
    fn random_fault_plans_never_violate_conservation(
        pick in 0usize..1_000,
        seed in 0u64..1_000,
        raw in proptest::collection::vec(0u64..u64::MAX, 0..4)
    ) {
        let registry = ScenarioRegistry::corpus();
        let quick = registry.with_tag("quick");
        let id = quick[pick % quick.len()].id;
        let faults: Vec<PlanFault> = raw.iter().map(|r| decode_fault(*r)).collect();
        if let Err(reason) = run_plan(id, seed, &faults) {
            let minimal = shrink_to_minimal(&faults, &|plan| run_plan(id, seed, plan).is_err());
            prop_assert!(
                false,
                "scenario {id} (seed {seed}) failed under a random fault plan: {reason}\n\
                 minimal failing plan: {minimal:?}"
            );
        }
    }
}

/// The one-node MMPP probe the admission property tests run: a single
/// MBNET container offered a `low ↔ high` rps modulated stream of `tier`
/// requests (optionally SLO-bearing) through the given admission policy.
fn admission_probe(
    seed: u64,
    kind: AdmissionKind,
    low: f64,
    high: f64,
    dwell_s: u64,
    tier: Tier,
    slo: Option<SimDuration>,
) -> ScenarioBuilder {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    Scenario::builder("admission-probe")
        .seed(seed)
        .nodes(1)
        .tcs_per_container(1)
        .invoker_memory_bytes(one_container_budget(&profile))
        .admission(kind)
        .model(model.clone(), profile)
        .traffic_tiered(
            model,
            0,
            ArrivalProcess::Mmpp {
                rates_per_sec: vec![low, high],
                mean_dwell: SimDuration::from_secs(dwell_s),
            },
            tier,
            slo,
        )
        .duration(SimDuration::from_secs(20))
}

/// Runs the probe under `kind` and its admit-all twin (identical trace,
/// identical faults) and checks the run ledger and the admission
/// partition; `Err` carries the reason for the shrinker.
#[allow(clippy::too_many_arguments)]
fn run_admission_probe(
    seed: u64,
    kind: AdmissionKind,
    low: f64,
    high: f64,
    dwell_s: u64,
    tier: Tier,
    slo: Option<SimDuration>,
    faults: &[PlanFault],
) -> Result<(), String> {
    let run_kind = |k: AdmissionKind| {
        let scenario = apply_plan(
            admission_probe(seed, k, low, high, dwell_s, tier, slo),
            faults,
        );
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario.run()))
            .map_err(|_| format!("the simulator panicked under {}", k.label()))
    };
    let result = run_kind(kind)?;
    let baseline = run_kind(AdmissionKind::AdmitAll)?;
    result.check().map_err(|violation| violation.to_string())?;
    if baseline.rejected != 0 {
        return Err("admit-all rejected open-loop work".to_string());
    }
    // Every generated arrival is exactly one of admitted or rejected: the
    // policy partitions the admit-all trace, it never loses or double-counts.
    if result.admitted + result.rejected != baseline.admitted {
        return Err(format!(
            "admitted {} + rejected {} != the trace's {} arrivals",
            result.admitted, result.rejected, baseline.admitted
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random over-capacity MMPP bursts x random admission policies x small
    /// random fault plans uphold the admission accounting identities: the
    /// run ledger (conservation, one latency sample per completion,
    /// `shed <= dropped`, ...) and `admitted + rejected ==` the admit-all
    /// twin's arrival count.
    /// Failures shrink to a 1-minimal fault plan.
    #[test]
    fn random_admission_policies_uphold_accounting(
        seed in 0u64..1_000,
        kind_index in 0usize..3,
        low in 1u32..15,
        high in 10u32..45,
        dwell_s in 2u64..12,
        tier_index in 0usize..3,
        // 0 encodes a deadline-less stream; anything else is an SLO in ms.
        slo_ms in 0u64..4_000,
        raw in proptest::collection::vec(0u64..u64::MAX, 0..3)
    ) {
        let kind = AdmissionKind::ALL[kind_index];
        let tier = Tier::ALL[tier_index];
        let slo = (slo_ms >= 400).then(|| SimDuration::from_millis(slo_ms));
        let faults: Vec<PlanFault> = raw.iter().map(|r| decode_fault(*r)).collect();
        let probe = |plan: &[PlanFault]| {
            run_admission_probe(seed, kind, f64::from(low), f64::from(high), dwell_s, tier, slo, plan)
        };
        if let Err(reason) = probe(&faults) {
            let minimal = shrink_to_minimal(&faults, &|plan| probe(plan).is_err());
            prop_assert!(
                false,
                "admission probe (seed {seed}, {}) failed: {reason}\n\
                 minimal failing plan: {minimal:?}",
                kind.label()
            );
        }
    }
}

/// The shrinker itself must find the minimal failing core: against a
/// synthetic predicate that fails exactly when a crash of node 0 is in the
/// plan, a noisy 4-fault plan shrinks to that single fault.
#[test]
fn shrinking_yields_a_minimal_failing_plan() {
    let culprit = PlanFault::Crash {
        at_ms: 100,
        node: 0,
    };
    let noisy = vec![
        PlanFault::Kill {
            at_ms: 50,
            model_index: 0,
        },
        PlanFault::Crash {
            at_ms: 200,
            node: 1,
        },
        culprit.clone(),
        PlanFault::Kill {
            at_ms: 300,
            model_index: 1,
        },
    ];
    let fails = |plan: &[PlanFault]| {
        plan.iter()
            .any(|f| matches!(f, PlanFault::Crash { node: 0, .. }))
    };
    assert!(
        fails(&noisy),
        "the synthetic predicate must fail on the full plan"
    );
    let minimal = shrink_to_minimal(&noisy, &fails);
    assert_eq!(
        minimal,
        vec![culprit],
        "shrinking did not reach the 1-minimal plan"
    );
    // And a plan that never fails shrinks to ... nothing to do: the
    // shrinker is only invoked on failing plans, but stays total anyway.
    assert_eq!(shrink_to_minimal(&noisy, &|_| false), noisy);
}
