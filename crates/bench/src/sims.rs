//! Cluster-simulation experiments: the single-node throughput sweep
//! (Fig. 12), the multi-node MMPP experiments (Figs. 13–14) and the FnPacker
//! multi-model experiments (Tables III–IV).

use crate::report::{secs, Report};
use sesemi::baseline::ServingStrategy;
use sesemi::cluster::{
    AdmissionKind, AutoscaleConfig, ClusterConfig, ClusterSimulation, KeyServiceConfig,
    LifecycleKind, SimulationResult,
};
use sesemi_fnpacker::RoutingStrategy;
use sesemi_inference::{Framework, ModelId, ModelKind, ModelProfile};
use sesemi_scenario::Scenario;
use sesemi_sim::{SimDuration, SimRng, SimTime};
use sesemi_workload::{ArrivalProcess, Tier};

const GB: u64 = 1024 * 1024 * 1024;

fn run_single_node_rate(
    kind: ModelKind,
    framework: Framework,
    strategy: ServingStrategy,
    sgx1: bool,
    rate: f64,
    seed: u64,
) -> SimulationResult {
    let profile = ModelProfile::paper(kind, framework);
    let model = kind.default_id();
    let config = if sgx1 {
        ClusterConfig::single_node_sgx1()
    } else {
        ClusterConfig::single_node_sgx2()
    };
    Scenario::builder(format!(
        "fig12/{}-{}/{}/{rate}rps",
        framework.label(),
        kind.label(),
        strategy.label()
    ))
    .cluster(config)
    .strategy(strategy)
    .tcs_per_container(1)
    .seed(seed)
    // Bound the node to four single-thread containers so the latency knee
    // appears inside the swept rate range, as in the paper's single-node
    // saturation study.
    .invoker_memory_bytes(
        sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        ) * 4,
    )
    .model(model.clone(), profile)
    // The paper warms the sandboxes up before measuring, so there are no cold
    // invocations in the steady state.
    .prewarm(model.clone(), 0, 4)
    .traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: rate })
    .duration(SimDuration::from_secs(60))
    .build()
    .run()
}

/// Fig. 12: p95 latency versus request rate for hot serving on one node.
#[must_use]
pub fn fig12_throughput(seed: u64) -> Report {
    let mut report = Report::new(
        "F12",
        "Fig. 12 — p95 latency (s) vs request rate, single node, hot serving",
        &[
            "Panel",
            "Strategy",
            "Rate (rps)",
            "p95 latency",
            "Completed",
        ],
    );
    // Panel (a): TVM-MBNET on SGX2, SeSeMI vs Iso-reuse around 30-50 rps.
    for strategy in [ServingStrategy::Sesemi, ServingStrategy::IsoReuse] {
        for rate in [30.0, 38.0, 46.0, 50.0] {
            let result = run_single_node_rate(
                ModelKind::MbNet,
                Framework::Tvm,
                strategy,
                false,
                rate,
                seed,
            );
            report.push_row(vec![
                "(a) TVM-MBNET SGX2".into(),
                strategy.label().into(),
                format!("{rate:.0}"),
                secs(result.p95_latency()),
                result.completed.to_string(),
            ]);
        }
    }
    // Panel (b): TVM-RSNET on SGX2, all three strategies, 1-6 rps.
    for strategy in ServingStrategy::TEE_STRATEGIES {
        for rate in [1.0, 3.0, 5.0, 6.0] {
            let result = run_single_node_rate(
                ModelKind::RsNet,
                Framework::Tvm,
                strategy,
                false,
                rate,
                seed + 1,
            );
            report.push_row(vec![
                "(b) TVM-RSNET SGX2".into(),
                strategy.label().into(),
                format!("{rate:.0}"),
                secs(result.p95_latency()),
                result.completed.to_string(),
            ]);
        }
    }
    // Panels (c)/(d): MBNET on SGX1 under TVM and TFLM (EPC pressure).
    for framework in [Framework::Tvm, Framework::Tflm] {
        for rate in [5.0, 10.0, 14.0, 18.0] {
            let result = run_single_node_rate(
                ModelKind::MbNet,
                framework,
                ServingStrategy::Sesemi,
                true,
                rate,
                seed + 2,
            );
            report.push_row(vec![
                format!("(c/d) {}-MBNET SGX1", framework.label()),
                ServingStrategy::Sesemi.label().into(),
                format!("{rate:.0}"),
                secs(result.p95_latency()),
                result.completed.to_string(),
            ]);
        }
    }
    report.push_note("Paper Fig. 12: SeSeMI and Iso-reuse are close for MBNET (runtime init is cheap); for RSNET Iso-reuse saturates earlier; Native is far worse.");
    report.push_note("Paper Fig. 12c/d: on SGX1 TFLM sustains a higher rate (>18 rps) than TVM (~14 rps) because of its smaller enclave memory footprint.");
    report
}

fn run_mmpp(kind: ModelKind, strategy: ServingStrategy, tcs: usize, seed: u64) -> SimulationResult {
    let profile = ModelProfile::paper(kind, Framework::Tvm);
    let model = kind.default_id();
    // §VI-C: the invoker memory bounds how many serverless instances a node
    // can host.  We provision memory for two single-thread containers of this
    // model per node (16 execution slots across the 8-node cluster) — sized
    // so the cluster absorbs the 40 rps phase on SeSeMI's hot path but
    // saturates once a baseline re-does per-request work on every
    // invocation, which is the regime Fig. 13 studies (Iso-reuse "remains
    // high for a long period after the burst").
    let single_thread_budget = sesemi_platform::PlatformConfig::round_memory_budget(
        profile.enclave_bytes_for_concurrency(1),
    );
    Scenario::builder(format!(
        "fig13-14/TVM-{}/{}/tcs{tcs}",
        kind.label(),
        strategy.label()
    ))
    .cluster(ClusterConfig::multi_node_sgx2())
    .strategy(strategy)
    .tcs_per_container(tcs)
    .seed(seed)
    .invoker_memory_bytes(single_thread_budget * 2)
    .model(model.clone(), profile)
    .prewarm(model.clone(), 0, 8)
    .traffic(model, 0, ArrivalProcess::paper_mmpp())
    .duration(SimDuration::from_secs(800))
    .build()
    .run()
}

/// Fig. 13: average latency over time under the MMPP workload on 8 nodes.
#[must_use]
pub fn fig13_mmpp_latency(seed: u64) -> Report {
    let mut report = Report::new(
        "F13",
        "Fig. 13 — serving under the MMPP workload (20↔40 rps, 8 nodes)",
        &[
            "Model",
            "Strategy",
            "Mean latency (s)",
            "p95 (s)",
            "Hot fraction",
            "Completed",
        ],
    );
    for kind in [ModelKind::DsNet, ModelKind::RsNet] {
        for strategy in ServingStrategy::TEE_STRATEGIES {
            let result = run_mmpp(kind, strategy, 1, seed);
            report.push_row(vec![
                format!("TVM-{}", kind.label()),
                strategy.label().into(),
                secs(result.mean_latency()),
                secs(result.p95_latency()),
                format!("{:.2}", result.hot_fraction()),
                result.completed.to_string(),
            ]);
        }
    }
    report.push_note("Paper Fig. 13: for DSNET the average latency is 0.64 s (SeSeMI) vs 3.35 s (Iso-reuse), an 81% improvement; Native exceeds 10 s.");
    report.push_note("For RSNET contention is high for every system (paper: 8.28 s vs 12.54 s).");
    report
}

/// Fig. 14: sandbox count, memory and GB·second cost under the MMPP
/// workload, with 1 versus 4 enclave threads.
#[must_use]
pub fn fig14_mmpp_memory(seed: u64) -> Report {
    let mut report = Report::new(
        "F14",
        "Fig. 14 — memory usage for serving under the MMPP workload (SeSeMI)",
        &[
            "Setting",
            "Peak sandboxes",
            "Peak memory (GB)",
            "GB·seconds",
            "Billed activation GB·s",
            "Mean latency (s)",
        ],
    );
    for kind in [ModelKind::DsNet, ModelKind::RsNet] {
        let mut costs = Vec::new();
        for tcs in [1usize, 4] {
            let result = run_mmpp(kind, ServingStrategy::Sesemi, tcs, seed);
            costs.push(result.gb_seconds);
            report.push_row(vec![
                format!("TVM-{}-{}", kind.label(), tcs),
                result.peak_sandboxes.to_string(),
                format!("{:.2}", result.peak_memory_bytes as f64 / GB as f64),
                format!("{:.0}", result.gb_seconds),
                format!("{:.0}", result.activation_gb_seconds()),
                secs(result.mean_latency()),
            ]);
        }
        let reduction = 1.0 - costs[1] / costs[0];
        report.push_note(format!(
            "TVM-{}: 4 threads per enclave reduce the GB·second cost by {:.0}% versus 1 thread (paper: 59% for DSNET, 48% for RSNET).",
            kind.label(),
            reduction * 100.0
        ));
    }
    report.push_note("Billed activation GB·s is the per-action execution-time × memory metering (what a serverless bill charges); the GB·seconds column is the committed-footprint integral including idle keep-alive.");
    report
}

/// Runs the Fig. 13/14 MMPP workload on a pool that is either fixed at
/// `nodes` invokers or autoscaled within `autoscale`'s bounds starting from
/// `nodes`.  Everything else (model, memory sizing, keep-alive, seed) is
/// identical, so the two runs admit the same request trace and differ only
/// in how much node capacity they pay for.
fn run_elastic_mmpp(
    kind: ModelKind,
    nodes: usize,
    autoscale: Option<AutoscaleConfig>,
    seed: u64,
) -> SimulationResult {
    let profile = ModelProfile::paper(kind, Framework::Tvm);
    let model = kind.default_id();
    let single_thread_budget = sesemi_platform::PlatformConfig::round_memory_budget(
        profile.enclave_bytes_for_concurrency(1),
    );
    let label = match &autoscale {
        Some(scale) => format!("elastic{}-{}", scale.min_nodes, scale.max_nodes),
        None => format!("fixed{nodes}"),
    };
    let mut builder = Scenario::builder(format!("fig14-elastic/TVM-{}/{label}", kind.label()))
        .cluster(ClusterConfig::multi_node_sgx2())
        .nodes(nodes)
        .strategy(ServingStrategy::Sesemi)
        .tcs_per_container(1)
        .seed(seed)
        .invoker_memory_bytes(single_thread_budget * 2)
        // A keep-alive shorter than the MMPP dwell time, so the low-rate
        // phases actually free capacity for the autoscaler to give back.
        .keep_alive(SimDuration::from_secs(60))
        .model(model.clone(), profile)
        .traffic(model, 0, ArrivalProcess::paper_mmpp())
        .duration(SimDuration::from_secs(800));
    if let Some(scale) = autoscale {
        builder = builder.autoscale(scale);
    }
    builder.build().run()
}

/// The E1 elasticity policy: default 2-to-8-node bounds, but a 20 s idle
/// window instead of the conservative 60 s default — the MMPP modulating
/// chain dwells ~100 s per rate state, so a 60 s window would eat most of
/// every low-rate phase before the first node could drain.
fn elastic_policy() -> AutoscaleConfig {
    AutoscaleConfig {
        idle_ticks: 4,
        ..AutoscaleConfig::new(2, 8)
    }
}

/// E1: elasticity cost — the MMPP workload on a fixed 8-node pool versus an
/// autoscaled 2-to-8-node pool.  Both serve the identical admitted request
/// set (the conservation invariant holds with zero drops); the autoscaled
/// pool pays for provisioned nodes only while the workload needs them.
#[must_use]
pub fn elasticity_cost(seed: u64) -> Report {
    let mut report = Report::new(
        "E1",
        "Elasticity — node-capacity cost of a fixed vs autoscaled pool under the MMPP workload",
        &[
            "Pool",
            "Node GB·s",
            "Sandbox GB·s",
            "Peak nodes",
            "Scale out/in",
            "Mean latency (s)",
            "p95 (s)",
            "Completed",
            "Dropped",
        ],
    );
    let kind = ModelKind::DsNet;
    let fixed = run_elastic_mmpp(kind, 8, None, seed);
    let elastic = run_elastic_mmpp(kind, 2, Some(elastic_policy()), seed);
    for (label, result) in [("Fixed 8 nodes", &fixed), ("Elastic 2–8 nodes", &elastic)] {
        report.push_row(vec![
            label.to_string(),
            format!("{:.0}", result.node_gb_seconds),
            format!("{:.0}", result.gb_seconds),
            result.peak_nodes.to_string(),
            format!("{}/{}", result.scale_out_events, result.scale_in_events),
            secs(result.mean_latency()),
            secs(result.p95_latency()),
            result.completed.to_string(),
            result.dropped.to_string(),
        ]);
    }
    let saving = 1.0 - elastic.node_gb_seconds / fixed.node_gb_seconds;
    if elastic.admitted == fixed.admitted && elastic.dropped == 0 && fixed.dropped == 0 {
        report.push_note(format!(
            "The autoscaled pool serves the same {} admitted requests with zero drops while provisioning {:.0}% less node capacity (GB·s).",
            elastic.admitted,
            saving * 100.0
        ));
    } else {
        // Arbitrary --seed values must never yield a self-contradictory
        // report: describe what actually happened.
        report.push_note(format!(
            "Node-capacity saving: {:.0}%.  Admitted fixed/elastic: {}/{}; dropped fixed/elastic: {}/{}.",
            saving * 100.0,
            fixed.admitted,
            elastic.admitted,
            fixed.dropped,
            elastic.dropped
        ));
    }
    report.push_note("Latency is the price of elasticity: requests arriving during scale-out ramps queue until capacity catches up, which is the §VI-C cost/latency trade-off.");
    report
}

/// E2: failure resilience — the corpus's fixed-vs-autoscaled-under-crash
/// pair, driven through the scenario registry (the experiment *is* two
/// corpus ids, so `--scenario fixed-under-crash` reproduces either half).
/// Both pools admit the identical seeded 10 rps trace and lose node 0 at
/// t=40 s; the killed work is re-queued (conservation holds with zero
/// losses on both sides), and the elastic pool additionally replaces the
/// crashed node on demand instead of paying for spare fixed capacity.
#[must_use]
pub fn crash_resilience(seed: u64) -> Report {
    let registry = sesemi_scenario::ScenarioRegistry::corpus();
    let mut report = Report::new(
        "E2",
        "Failure injection — fixed vs autoscaled pool under a node crash (registry-driven)",
        &[
            "Scenario",
            "Node GB·s",
            "Peak nodes",
            "Crashes",
            "Re-queued (in-flight/parked)",
            "Mean latency (s)",
            "p95 (s)",
            "Completed",
            "Dropped",
        ],
    );
    let mut results = Vec::new();
    for id in ["fixed-under-crash", "autoscale-under-crash"] {
        let result = registry.get(id).expect("corpus entry registered").run(seed);
        report.push_row(vec![
            id.to_string(),
            format!("{:.0}", result.node_gb_seconds),
            result.peak_nodes.to_string(),
            result.node_crashes.to_string(),
            format!("{}/{}", result.requeued_inflight, result.requeued_waiting),
            secs(result.mean_latency()),
            secs(result.p95_latency()),
            result.completed.to_string(),
            result.dropped.to_string(),
        ]);
        results.push(result);
    }
    let (fixed, elastic) = (&results[0], &results[1]);
    if fixed.admitted == elastic.admitted && fixed.dropped == 0 && elastic.dropped == 0 {
        report.push_note(format!(
            "Both pools admit the identical {} requests and lose node 0 mid-run; every killed \
             request is re-queued and served (admitted == completed + dropped, dropped 0).",
            fixed.admitted
        ));
    } else {
        report.push_note(format!(
            "Admitted fixed/elastic: {}/{}; dropped fixed/elastic: {}/{}.",
            fixed.admitted, elastic.admitted, fixed.dropped, elastic.dropped
        ));
    }
    report.push_note(format!(
        "Node-capacity saving of the elastic pool: {:.0}% ({:.0} vs {:.0} GB·s) — it runs 2 \
         nodes until saturation demands more, and a crash is just another membership change.",
        (1.0 - elastic.node_gb_seconds / fixed.node_gb_seconds) * 100.0,
        elastic.node_gb_seconds,
        fixed.node_gb_seconds
    ));
    report
}

/// E3: container-lifecycle policies — age-only versus warm-value keep-alive
/// and drain, on the two registry scenarios built for the comparison.  The
/// keep-alive half runs the Zipf multi-tenant mix (`lifecycle-zipf-warm-value`
/// and its age-only control): the warm-value policy grants the ring's
/// sticky-subset containers an extended keep-alive, so the tail models'
/// idle gaps stop expiring their warm capacity and the hot-path fraction
/// rises.  The drain half runs the autoscaled crash scenario
/// (`lifecycle-drain-under-crash` and its control): scale-in retires the
/// node whose warm pool the ring values least and pre-migrates the hot
/// model's capacity before the drain evicts it.
#[must_use]
pub fn lifecycle_policies(seed: u64) -> Report {
    let registry = sesemi_scenario::ScenarioRegistry::corpus();
    let mut report = Report::new(
        "E3",
        "Lifecycle policies — age-only vs warm-value keep-alive (Zipf mix) and drain (autoscaled crash)",
        &[
            "Scenario",
            "Lifecycle",
            "Hot fraction",
            "Warm hits",
            "Cold starts",
            "Evictions (exp/prs/drn)",
            "Premigrated",
            "Node GB·s",
            "Mean latency (s)",
            "Completed",
            "Dropped",
        ],
    );
    let mut zipf = Vec::new();
    for id in ["lifecycle-zipf-warm-value", "lifecycle-drain-under-crash"] {
        for kind in LifecycleKind::ALL {
            let result = registry
                .get(id)
                .expect("corpus entry registered")
                .builder(seed)
                .lifecycle(kind)
                .build()
                .run();
            report.push_row(vec![
                id.to_string(),
                kind.label().to_string(),
                format!("{:.3}", result.hot_fraction()),
                result.warm_hits().to_string(),
                result.cold_starts.to_string(),
                format!(
                    "{}/{}/{}",
                    result.evictions_expired, result.evictions_pressure, result.evictions_drain
                ),
                result.premigrated.to_string(),
                format!("{:.0}", result.node_gb_seconds),
                secs(result.mean_latency()),
                result.completed.to_string(),
                result.dropped.to_string(),
            ]);
            if id == "lifecycle-zipf-warm-value" {
                zipf.push((kind, result));
            }
        }
    }
    if let [(_, age_only), (_, warm_value)] = &zipf[..] {
        report.push_note(format!(
            "Keep-alive: the warm-value lifecycle serves {:.1}% of the Zipf mix hot vs {:.1}% \
             under age-only eviction — sticky-subset retention keeps the tail models' \
             containers alive across idle gaps the 10 s keep-alive would otherwise expire \
             ({} vs {} cold starts).",
            warm_value.hot_fraction() * 100.0,
            age_only.hot_fraction() * 100.0,
            warm_value.cold_starts,
            age_only.cold_starts,
        ));
    }
    report.push_note(
        "Drain: warm-value scale-in picks the node whose warm pool the consistent-hash ring \
         values least and pre-migrates the evicted models' capacity onto survivors \
         (Premigrated column) — the drain stops costing the next burst its warm starts.",
    );
    report.push_note(
        "Both policies conserve requests under every scenario (admitted == completed + dropped \
         is asserted corpus-wide, faults included).",
    );
    report
}

/// One run of the E4 admission study's shared service: a single prewarmed
/// MBNET container (≈10 rps of capacity; prewarmed so the admission
/// policies' busy-time service estimate reflects warm service from the
/// first completion, as in the Fig. 12 sweep).  The steady control offers
/// 8 rps of deadline-less Poisson traffic; the burst offers a premium
/// 6 rps stream plus a batch 20↔35 rps MMPP burst, both carrying `slo` as
/// their completion deadline.
fn admission_run(
    seed: u64,
    name: &str,
    kind: AdmissionKind,
    slo: Option<SimDuration>,
    burst: bool,
) -> SimulationResult {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let builder = Scenario::builder(format!("e4/{name}"))
        .seed(seed)
        .nodes(1)
        .tcs_per_container(1)
        .invoker_memory_bytes(sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        ))
        .admission(kind)
        .model(model.clone(), profile)
        .prewarm(model.clone(), 0, 1);
    let builder = if burst {
        builder
            .traffic_tiered(
                model.clone(),
                0,
                ArrivalProcess::Poisson { rate_per_sec: 6.0 },
                Tier::Premium,
                slo,
            )
            // Same requesting user as the premium stream: the study varies
            // *priority* under load, not key-cache locality — a second user
            // would make every premium/batch alternation re-exchange keys
            // and the service-time collapse would swamp the admission
            // comparison.
            .traffic_tiered(
                model,
                0,
                ArrivalProcess::Mmpp {
                    rates_per_sec: vec![20.0, 35.0],
                    mean_dwell: SimDuration::from_secs(10),
                },
                Tier::Batch,
                slo,
            )
    } else {
        builder.traffic(model, 0, ArrivalProcess::Poisson { rate_per_sec: 8.0 })
    };
    builder.duration(SimDuration::from_secs(60)).build().run()
}

/// E4: admission control under an over-capacity burst — every admission
/// policy against a tiered MMPP burst that offers ~2× the single
/// container's capacity, with an under-capacity admit-all run as the
/// steady-state yardstick.  The burst streams carry the steady run's p99
/// as their completion SLO, so the deadline-aware policy sheds exactly the
/// work that would have missed it: the p99 of what it *does* admit stays
/// at steady-state level while admit-all's queue pushes its p99 out by an
/// order of magnitude.
#[must_use]
pub fn admission_policies(seed: u64) -> Report {
    let steady = admission_run(seed, "steady", AdmissionKind::AdmitAll, None, false);
    let slo = steady.p99_latency();
    let mut report = Report::new(
        "E4",
        "Admission control — p99 of admitted traffic through an over-capacity MMPP burst",
        &[
            "Run",
            "Admission",
            "Admitted",
            "Rejected",
            "Shed",
            "Completed",
            "Dropped",
            "Mean (s)",
            "p99 (s)",
            "p99 / steady",
        ],
    );
    let mut push = |run: &str, kind: AdmissionKind, result: &SimulationResult| {
        report.push_row(vec![
            run.to_string(),
            kind.label().to_string(),
            result.admitted.to_string(),
            result.rejected.to_string(),
            result.shed.to_string(),
            result.completed.to_string(),
            result.dropped.to_string(),
            secs(result.mean_latency()),
            secs(result.p99_latency()),
            format!(
                "{:.2}",
                result.p99_latency().as_secs_f64() / steady.p99_latency().as_secs_f64()
            ),
        ]);
    };
    push("steady 8 rps", AdmissionKind::AdmitAll, &steady);
    let mut burst_runs = Vec::new();
    for kind in AdmissionKind::ALL {
        let result = admission_run(seed, kind.label(), kind, Some(slo), true);
        push("burst 26↔41 rps", kind, &result);
        burst_runs.push((kind, result));
    }
    if let Some((_, deadline_aware)) = burst_runs
        .iter()
        .find(|(kind, _)| *kind == AdmissionKind::DeadlineAware)
    {
        report.push_note(format!(
            "Deadline-aware admission turns away the {} requests whose estimated completion \
             would already miss the steady-state-p99 SLO ({}) and sheds {} queued lower-tier \
             victims, holding the p99 of admitted traffic at {} — {:.2}× the steady yardstick — \
             while admit-all's unbounded queue reaches a p99 of {}.",
            deadline_aware.rejected,
            secs(slo),
            deadline_aware.shed,
            secs(deadline_aware.p99_latency()),
            deadline_aware.p99_latency().as_secs_f64() / steady.p99_latency().as_secs_f64(),
            secs(burst_runs[0].1.p99_latency()),
        ));
    }
    report.push_note(
        "Every policy admits the identical generated trace or rejects at arrival: \
         admitted + rejected is constant across the burst rows, and admitted == \
         completed + dropped holds for each (shed victims are accounted as drops).",
    );
    report
}

/// One run of the E5 batching study's shared service: a single prewarmed
/// MBNET container (≈30 rps of warm hot-path capacity) offered a 45↔70 rps
/// MMPP burst from one user — over capacity in *both* MMPP states, so the
/// container spends the whole trace draining a backlog.  The engine serves
/// every admitted request (arrivals stop at the horizon; the backlog drains
/// to completion), so the batching window shows up as a shorter drain
/// makespan — higher completed-requests-per-second — not a different
/// completion count.
fn batching_run(seed: u64, window: usize) -> SimulationResult {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    Scenario::builder(format!("e5/window{window}"))
        .seed(seed)
        .nodes(1)
        .tcs_per_container(1)
        .invoker_memory_bytes(sesemi_platform::PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        ))
        .batching(sesemi::cluster::BatchingConfig { window })
        .model(model.clone(), profile)
        .prewarm(model.clone(), 0, 1)
        .traffic(
            model,
            0,
            ArrivalProcess::Mmpp {
                rates_per_sec: vec![45.0, 70.0],
                mean_dwell: SimDuration::from_secs(10),
            },
        )
        .duration(SimDuration::from_secs(60))
        .build()
        .run()
}

/// Time of the last completion in `result` — the makespan of draining the
/// admitted trace, read off the latency series' completion timestamps.
fn drain_makespan(result: &SimulationResult) -> SimDuration {
    result
        .latency_series
        .points()
        .iter()
        .map(|(at, _)| at.duration_since(SimTime::ZERO))
        .max()
        .unwrap_or(SimDuration::ZERO)
}

/// E5: batched execution under saturation — the same over-capacity MMPP
/// burst through one warm container at batching windows 1 (off), 2, 4
/// and 8.  The batch cost curve is sub-linear (a batch of n pays the
/// per-batch dispatch cost once), so wider windows drain the backlog
/// faster: strictly more completions per second of drain makespan at
/// equal-or-lower activation GB·s, with the p99 of what completes held
/// well under the unbatched run's.
#[must_use]
pub fn batching_throughput(seed: u64) -> Report {
    let mut report = Report::new(
        "E5",
        "Batched execution — throughput and GB·s through an over-capacity MMPP burst",
        &[
            "Window",
            "Admitted",
            "Completed",
            "Dropped",
            "Batches",
            "Batched reqs",
            "Max batch",
            "Drain (s)",
            "Throughput (req/s)",
            "Activation GB·s",
            "Mean (s)",
            "p99 (s)",
            "p99 / unbatched",
        ],
    );
    let unbatched = batching_run(seed, 1);
    let push_row = |report: &mut Report, label: &str, result: &SimulationResult| {
        report.push_row(vec![
            label.to_string(),
            result.admitted.to_string(),
            result.completed.to_string(),
            result.dropped.to_string(),
            result.batches_formed.to_string(),
            result.batched_requests.to_string(),
            result.max_batch.to_string(),
            secs(drain_makespan(result)),
            format!(
                "{:.2}",
                result.completed as f64 / drain_makespan(result).as_secs_f64()
            ),
            format!("{:.2}", result.activation_gb_seconds()),
            secs(result.mean_latency()),
            secs(result.p99_latency()),
            format!(
                "{:.2}",
                result.p99_latency().as_secs_f64() / unbatched.p99_latency().as_secs_f64()
            ),
        ]);
    };
    push_row(&mut report, "1 (off)", &unbatched);
    let mut widest = None;
    for window in [2usize, 4, 8] {
        let result = batching_run(seed, window);
        push_row(&mut report, &window.to_string(), &result);
        if window == 8 {
            widest = Some(result);
        }
    }
    if let Some(widest) = widest {
        report.push_note(format!(
            "At window 8 the container coalesces {} of the {} admitted requests into {} \
             batched executions (deepest batch {}), draining the identical backlog in {} \
             against the unbatched {} — {:.1}% more completed requests per second for \
             {:.1}% of the unbatched activation GB·s, because one activation bills the \
             whole batch's execution once.",
            widest.batched_requests,
            widest.admitted,
            widest.batches_formed,
            widest.max_batch,
            secs(drain_makespan(&widest)),
            secs(drain_makespan(&unbatched)),
            100.0
                * (drain_makespan(&unbatched).as_secs_f64()
                    / drain_makespan(&widest).as_secs_f64()
                    - 1.0),
            100.0 * widest.activation_gb_seconds() / unbatched.activation_gb_seconds(),
        ));
    }
    report.push_note(
        "Batches only form among same-⟨user, model⟩ requests on one warm container (SeMIRT \
         refuses cross-user and cross-model batches, §V), and every batched request keeps its \
         own latency sample and completion record: admitted == completed + dropped per item.",
    );
    report
}

/// Per-provision service time the E6 storm charges at the KeyService — the
/// remote-attestation verification plus key lookup and RA-TLS send of
/// `KEY_PROVISIONING` (Algorithm 1), held constant across every E6 row so the
/// rows differ only in pool width and faults.
const E6_PROVISION: SimDuration = SimDuration::from_millis(100);

/// When the E6 fault rows lose replica 0: the first boot wave finishes at
/// ~0.65 s and a narrow provisioning pool is still draining its backlog at
/// 2.5 s, so the crash catches provisions queued on the dead replica in
/// flight while leaving the survivors enough of the run to absorb them.
const E6_CRASH_AT: SimDuration = SimDuration::from_millis(2500);

/// The E6 cold-start storm, before any fault plan: 24 single-user MBNET
/// endpoints on the eight-node SGX2 pool, each offered 1 rps of Poisson
/// traffic with a 2 s keep-alive — short enough that inter-arrival gaps keep
/// re-colding the sandboxes, so the trust plane sees a ~24-wide provision
/// burst at t≈0 and recurring cold waves after each eviction pass.  Every
/// cold start pays the sandbox boot and then queues for a KeyService TCS
/// slot before its sandbox can serve, so the provisioning pool's width is
/// directly visible in the cold-path tail.
fn keyservice_storm_builder(
    seed: u64,
    keyservice: KeyServiceConfig,
) -> sesemi_scenario::ScenarioBuilder {
    const ENDPOINTS: usize = 24;
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let single_thread_budget = sesemi_platform::PlatformConfig::round_memory_budget(
        profile.enclave_bytes_for_concurrency(1),
    );
    let mut builder = Scenario::builder(format!("e6/replicas{}", keyservice.replicas))
        .cluster(ClusterConfig::multi_node_sgx2())
        .seed(seed)
        .tcs_per_container(1)
        // Sixteen single-thread sandbox slots per node: the dispatcher boots
        // duplicate sandboxes for a model whose boot is still provisioning,
        // so a storm needs memory headroom well past one slot per endpoint —
        // compute must never be the bottleneck if the tail is to read as
        // pure trust plane.
        .invoker_memory_bytes(single_thread_budget * 16)
        .keep_alive(SimDuration::from_secs(2))
        .keyservice(keyservice)
        .duration(SimDuration::from_secs(40));
    for user in 0..ENDPOINTS {
        let model = ModelId::new(format!("storm-m{user}"));
        builder = builder.model(model.clone(), profile).traffic(
            model,
            user,
            ArrivalProcess::Poisson { rate_per_sec: 1.0 },
        );
    }
    builder
}

/// One E6 row: the storm against `keyservice`, optionally losing `crash`
/// mid-storm at [`E6_CRASH_AT`].
fn keyservice_storm_run(
    seed: u64,
    keyservice: KeyServiceConfig,
    crash: Option<usize>,
) -> SimulationResult {
    let mut builder = keyservice_storm_builder(seed, keyservice);
    if let Some(replica) = crash {
        builder = builder.keyservice_crash(SimTime::ZERO + E6_CRASH_AT, replica);
    }
    builder.build().run()
}

/// E6: trust-plane resilience — the identical cold-start storm through a
/// queued KeyService at 1, 2 and 4 replicas, with and without losing replica
/// 0 mid-storm.  The reference row is an overprovisioned 8-replica × 8-TCS
/// pool (effectively zero queueing), so the `p99 / reference` column isolates
/// what the trust plane adds to the cold-path tail.  Replicated pools fail
/// over in-flight and later provisions to survivors and stay within the
/// acceptance budget; crashing the only replica of a singleton pool is a
/// total trust-plane outage — later cold starts can never be provisioned and
/// are dropped, but the conservation invariant still holds.
#[must_use]
pub fn keyservice_resilience(seed: u64) -> Report {
    let mut report = Report::new(
        "E6",
        "Replicated KeyService — cold-start storm p99 vs replicas, with a mid-storm crash",
        &[
            "Pool",
            "Fault",
            "Admitted",
            "Completed",
            "Dropped",
            "Cold",
            "Provisions",
            "Failovers",
            "Mean KS wait (s)",
            "Mean (s)",
            "p99 (s)",
            "p99 / reference",
        ],
    );
    let reference = keyservice_storm_run(seed, KeyServiceConfig::queued(8, E6_PROVISION, 8), None);
    let push_row = |report: &mut Report, pool: &str, fault: &str, result: &SimulationResult| {
        report.push_row(vec![
            pool.to_string(),
            fault.to_string(),
            result.admitted.to_string(),
            result.completed.to_string(),
            result.dropped.to_string(),
            result.cold_dispatches.to_string(),
            result.provisioned_keys.to_string(),
            result.keyservice_failovers.to_string(),
            secs(result.mean_keyservice_wait()),
            secs(result.mean_latency()),
            secs(result.p99_latency()),
            format!(
                "{:.2}",
                result.p99_latency().as_secs_f64() / reference.p99_latency().as_secs_f64()
            ),
        ]);
    };
    push_row(&mut report, "8 x 8 TCS (reference)", "none", &reference);
    let mut outage = None;
    for replicas in [1usize, 2, 4] {
        let pool = format!("{replicas} x 1 TCS");
        let config = KeyServiceConfig::queued(replicas, E6_PROVISION, 1);
        let healthy = keyservice_storm_run(seed, config, None);
        push_row(&mut report, &pool, "none", &healthy);
        let crashed = keyservice_storm_run(seed, config, Some(0));
        let fault = if replicas == 1 {
            "replica 0 crash (total outage)"
        } else {
            "replica 0 crash @2.5s"
        };
        push_row(&mut report, &pool, fault, &crashed);
        if replicas == 1 {
            outage = Some(crashed);
        }
    }
    if let Some(outage) = outage {
        report.push_note(format!(
            "Losing the only replica of the singleton pool is a total trust-plane outage: \
             {} requests whose sandboxes were waiting on — or later needed — a provision \
             can never be served and are dropped (warm sandboxes keep serving), yet \
             admitted == completed + dropped still holds.  Every replicated row fails its \
             in-flight and later provisions over to survivors with zero drops.",
            outage.dropped,
        ));
    }
    report.push_note(format!(
        "All rows replay the identical seeded storm (24 endpoints x 1 rps, 2 s keep-alive, \
         {} per provision); only the KeyService pool shape and the fault plan differ, so the \
         p99 ratio is purely trust-plane queueing plus failover re-resolution.",
        secs(E6_PROVISION),
    ));
    report
}

/// Runs the named corpus scenarios at `seed` and tabulates their accounting
/// (`--scenario id[,id...]` in the experiments binary).  Returns `Err` with
/// the offending id if one is not in the corpus.
pub fn scenario_report(seed: u64, ids: &[String]) -> Result<Report, String> {
    let registry = sesemi_scenario::ScenarioRegistry::corpus();
    let mut report = Report::new(
        "SC",
        &format!("Scenario corpus runs (seed {seed})"),
        &[
            "Scenario",
            "Admitted",
            "Completed",
            "Dropped",
            "Warm hits",
            "Cold starts",
            "Evictions (exp/prs/drn)",
            "Crashes",
            "Kills",
            "Re-queued (in-flight/parked)",
            "Mean latency (s)",
            "p95 (s)",
            "Hot fraction",
        ],
    );
    for id in ids {
        let entry = registry.get(id).ok_or_else(|| id.clone())?;
        let result = entry.run(seed);
        report.push_row(vec![
            entry.id.to_string(),
            result.admitted.to_string(),
            result.completed.to_string(),
            result.dropped.to_string(),
            result.warm_hits().to_string(),
            result.cold_starts.to_string(),
            format!(
                "{}/{}/{}",
                result.evictions_expired, result.evictions_pressure, result.evictions_drain
            ),
            result.node_crashes.to_string(),
            result.containers_killed.to_string(),
            format!("{}/{}", result.requeued_inflight, result.requeued_waiting),
            secs(result.mean_latency()),
            secs(result.p95_latency()),
            format!("{:.2}", result.hot_fraction()),
        ]);
    }
    report.push_note(
        "Every run is checked against the conservation invariant admitted == completed + dropped; \
         `--list-scenarios` prints the corpus with tags and descriptions.",
    );
    Ok(report)
}

/// Runs every corpus scenario carrying `tag` at `seed` (`--tag <tag>` in the
/// experiments binary).  An unknown tag is an error naming the known tags —
/// `ScenarioRegistry::with_tag` returns an empty slice for unknown and
/// valid-but-empty filters alike, and a harness must not silently run
/// nothing (mirroring the unknown-scenario-id error of `--scenario`).
pub fn tag_report(seed: u64, tag: &str) -> Result<Report, String> {
    let registry = sesemi_scenario::ScenarioRegistry::corpus();
    let entries = registry.try_with_tag(tag).map_err(|known| {
        format!(
            "--tag: {tag:?} is not a corpus tag; known tags: {}",
            known.join(", ")
        )
    })?;
    let ids: Vec<String> = entries.iter().map(|entry| entry.id.to_string()).collect();
    scenario_report(seed, &ids)
        .map_err(|id| format!("--tag: corpus entry {id:?} vanished mid-listing"))
}

fn fnpool_models() -> Vec<(ModelId, ModelProfile)> {
    // m0–m4 are five TVM-RSNET models with different ids (paper §VI-D).
    (0..5)
        .map(|i| {
            (
                ModelId::new(format!("m{i}")),
                ModelProfile::paper(ModelKind::RsNet, Framework::Tvm),
            )
        })
        .collect()
}

fn run_multi_model(routing: RoutingStrategy, with_sessions: bool, seed: u64) -> SimulationResult {
    let models = fnpool_models();
    let mut scenario = Scenario::builder(format!("table3-4/{}", routing.label()))
        .cluster(ClusterConfig::multi_node_sgx2())
        .routing(routing)
        .tcs_per_container(1)
        .nodes(8)
        .seed(seed)
        .models(models.clone())
        // Background Poisson traffic on the two popular models, 2 rps each.
        .traffic(
            models[0].0.clone(),
            0,
            ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .traffic(
            models[1].0.clone(),
            1,
            ArrivalProcess::Poisson { rate_per_sec: 2.0 },
        )
        .duration(SimDuration::from_secs(480));
    if with_sessions {
        scenario = scenario.paper_sessions();
    }
    scenario.build().run()
}

/// Table III: average latency of the Poisson-traffic models under the three
/// multi-model deployments.
#[must_use]
pub fn table3_fnpacker_poisson(seed: u64) -> Report {
    let mut report = Report::new(
        "T3",
        "Table III — latency of models with Poisson traffic (ms)",
        &[
            "Strategy",
            "Avg latency m0/m1 (ms)",
            "Completed",
            "Cold starts",
        ],
    );
    for routing in RoutingStrategy::ALL {
        let result = run_multi_model(routing, true, seed);
        let mut stats = sesemi_sim::LatencyStats::new();
        for model in ["m0", "m1"] {
            if let Some(model_stats) = result.per_model_latency.get(&ModelId::new(model)) {
                stats.merge(model_stats);
            }
        }
        report.push_row(vec![
            routing.label().into(),
            format!("{:.1}", stats.mean().as_millis_f64()),
            stats.count().to_string(),
            result.cold_starts.to_string(),
        ]);
    }
    report.push_note("Paper Table III: All-in-one 1700.50 ms, One-to-one 1456.01 ms, FnPacker 1465.79 ms — All-in-one pays >16% extra from model switching.");
    report
}

/// Table IV: latency of each interactive-session query under the three
/// deployments.
#[must_use]
pub fn table4_fnpacker_sessions(seed: u64) -> Report {
    let mut report = Report::new(
        "T4",
        "Table IV — latency of serving interactive queries (ms)",
        &["Session", "Model", "All-in-one", "One-to-one", "FnPacker"],
    );
    let mut per_strategy = Vec::new();
    for routing in RoutingStrategy::ALL {
        let result = run_multi_model(routing, true, seed);
        per_strategy.push((routing, result));
    }
    for session in ["Session 1", "Session 2"] {
        for model_index in 0..5 {
            let model = ModelId::new(format!("m{model_index}"));
            let mut cells = vec![session.to_string(), model.as_str().to_string()];
            for strategy in RoutingStrategy::ALL {
                let result = &per_strategy
                    .iter()
                    .find(|(r, _)| *r == strategy)
                    .expect("strategy simulated")
                    .1;
                let latency = result
                    .session_latencies
                    .iter()
                    .find(|(name, m, _)| name == session && m == &model)
                    .map(|(_, _, latency)| format!("{:.0}", latency.as_millis_f64()))
                    .unwrap_or_else(|| "-".to_string());
                cells.push(latency);
            }
            report.push_row(cells);
        }
    }
    report.push_note("Paper Table IV: in session 1, One-to-one cold-starts m2–m4 (≈9.4–9.9 s); FnPacker serves them warm (≈2 s); All-in-one pays model switching (≈2–3.6 s).");
    report.push_note(
        "In session 2 every deployment reuses warm state and latencies converge to ≈1.3–2 s.",
    );
    report
}

// ---------------------------------------------------------------------------
// Self-timing benchmark harness — the BENCH_sim_engine.json perf trajectory
// ---------------------------------------------------------------------------

/// The bench trace's MMPP state rates in requests per second.  The mix is
/// deliberately bursty (the high state doubles the low one, like the paper's
/// 20/40 rps workload) but scaled three orders of magnitude up, because the
/// harness exists to prove the engine at the ROADMAP's millions-of-requests
/// scale.
const BENCH_RATES: [f64; 2] = [1_000.0, 2_000.0];
/// Mean dwell time in each MMPP state.
const BENCH_DWELL: SimDuration = SimDuration::from_secs(30);
/// Mean request rate across the two equally-dwelt states, used to size the
/// virtual horizon so `bench_trace(n, _)` generates ~`n` arrivals.
const BENCH_MEAN_RATE: f64 = 1_500.0;
/// Warm-pool models parked on the saturated bench cluster.  Each gets one
/// idle prewarmed container, pinning 56 of the cluster's 64 container slots
/// so the hot model is left with 8 containers (32 execution slots, ~470 rps
/// at TVM-MBNET's ~68 ms warm latency) against an offered load that never
/// falls below 1000 rps — the retry queue stays deep for the whole trace
/// while the warm-candidate and node-occupancy views stay wide.  The trace
/// must stay shorter than the 180 s keep-alive or the pool gets reclaimed
/// mid-run.
const BENCH_SATURATED_POOL: usize = 56;
/// Hot-model containers prewarmed on the saturated cluster: exactly the
/// slots the pinned pool leaves free.
const BENCH_SATURATED_HOT: usize = 8;

/// One self-timed run of the fixed MMPP benchmark trace: the simulation
/// outcome (deterministic per seed) plus the wall-clock measurements
/// (machine-dependent, excluded from determinism comparisons).
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Seed the trace was generated and simulated with.
    pub seed: u64,
    /// Arrivals the MMPP process actually generated (the trace length;
    /// within a few per mille of the requested count).
    pub requests: u64,
    /// Requests admitted into the cluster.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Admitted requests still queued when the run drained.
    pub dropped: u64,
    /// Container cold starts over the run.
    pub cold_starts: u64,
    /// Discrete events the simulator's event loop processed.
    pub events_processed: u64,
    /// Mean end-to-end latency.
    pub mean_latency: SimDuration,
    /// Median end-to-end latency.
    pub p50_latency: SimDuration,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: SimDuration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: SimDuration,
    /// Cluster memory integral in GB·seconds.
    pub gb_seconds: f64,
    /// Incremental index-maintenance operations the platform controller
    /// performed over the run.
    pub index_ops: u64,
    /// Sandbox records the controller's scheduling views examined over the
    /// run.
    pub view_sandboxes_scanned: u64,
    /// Sorts the latency ledger performed for the report's percentile
    /// queries: the report phase's work.
    pub sorts_performed: u64,
    /// Wall-clock seconds spent generating the arrival trace.
    pub generate_seconds: f64,
    /// Wall-clock seconds spent constructing and running the simulation.
    pub simulate_seconds: f64,
    /// Wall-clock seconds spent on the metric queries a report issues
    /// (percentiles and windowed time-series means).
    pub report_seconds: f64,
    /// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`;
    /// 0 where the proxy is unavailable).  This is the process high-water
    /// mark so far, read when the run finishes: it covers every earlier run
    /// in the same process too, so a run reads its own peak only when no
    /// earlier run peaked higher.
    pub peak_rss_bytes: u64,
}

impl BenchRun {
    /// Simulated events processed per wall-clock second of the event loop.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.events_processed as f64 / self.simulate_seconds.max(1e-9)
    }

    /// Completed requests per wall-clock second of the event loop.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        self.completed as f64 / self.simulate_seconds.max(1e-9)
    }

    /// The seed-deterministic slice of the run as JSON: counts, latencies
    /// and the cost integral, with no wall-clock or RSS fields.  Two runs of
    /// the same seed — sequential or parallel, in any sweep order — must
    /// produce byte-identical output; the sweep determinism guard compares
    /// exactly this string.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        format!(
            "{{\n  \"seed\": {},\n  \"requests\": {},\n  \"admitted\": {},\n  \
             \"completed\": {},\n  \"dropped\": {},\n  \"cold_starts\": {},\n  \
             \"events_processed\": {},\n  \"mean_latency_ns\": {},\n  \
             \"p50_latency_ns\": {},\n  \"p95_latency_ns\": {},\n  \
             \"p99_latency_ns\": {},\n  \"gb_seconds\": {:.6}\n}}",
            self.seed,
            self.requests,
            self.admitted,
            self.completed,
            self.dropped,
            self.cold_starts,
            self.events_processed,
            self.mean_latency.as_nanos(),
            self.p50_latency.as_nanos(),
            self.p95_latency.as_nanos(),
            self.p99_latency.as_nanos(),
            self.gb_seconds,
        )
    }

    /// The work counters over the run, the controller's and the report's:
    /// deterministic per seed like [`BenchRun::deterministic_json`], but a
    /// measure of how much work the engine did rather than of what it
    /// simulated, so a change that makes the engine cheaper may move them
    /// where it may not move the outcome.
    #[must_use]
    pub fn work_json(&self) -> String {
        format!(
            "{{\n  \"index_ops\": {},\n  \"view_sandboxes_scanned\": {},\n  \
             \"sorts_performed\": {}\n}}",
            self.index_ops, self.view_sandboxes_scanned, self.sorts_performed,
        )
    }

    /// One provisioning regime's section of the bench document: the
    /// deterministic slice, the work counters, the per-phase wall-clock
    /// breakdown, throughput figures and the peak-RSS proxy.
    #[must_use]
    pub fn section_json(&self) -> String {
        let deterministic = indent_block(&self.deterministic_json(), "  ");
        let work = indent_block(&self.work_json(), "  ");
        format!(
            "{{\n  \"deterministic\": {deterministic},\n  \"work\": {work},\n  \
             \"timing\": {{\n    \"generate_seconds\": {:.6},\n    \
             \"simulate_seconds\": {:.6},\n    \"report_seconds\": {:.6},\n    \
             \"total_seconds\": {:.6}\n  }},\n  \"throughput\": {{\n    \
             \"events_per_sec\": {:.1},\n    \"requests_per_sec\": {:.1}\n  }},\n  \
             \"peak_rss_bytes\": {}\n}}",
            self.generate_seconds,
            self.simulate_seconds,
            self.report_seconds,
            self.generate_seconds + self.simulate_seconds + self.report_seconds,
            self.events_per_sec(),
            self.requests_per_sec(),
            self.peak_rss_bytes,
        )
    }
}

/// The full `BENCH_sim_engine.json` document: one section per provisioning
/// regime.  `well_provisioned` is the headroom trace (the engine at speed on
/// a cluster that absorbs the peak), `saturated` the over-capacity trace
/// that keeps the retry queue deep and the warm pool wide — the regime the
/// scheduler's incremental views exist for.
#[must_use]
pub fn bench_document(well_provisioned: &BenchRun, saturated: &BenchRun) -> String {
    format!(
        "{{\n  \"bench\": \"sim_engine\",\n  \"well_provisioned\": {},\n  \
         \"saturated\": {}\n}}\n",
        indent_block(&well_provisioned.section_json(), "  "),
        indent_block(&saturated.section_json(), "  "),
    )
}

/// Re-indents every line after the first of an embedded JSON block.
fn indent_block(block: &str, indent: &str) -> String {
    block.replace('\n', &format!("\n{indent}"))
}

/// Peak resident set size in bytes, read from `/proc/self/status` (`VmHWM`).
/// Returns 0 when the proxy is unavailable (non-Linux hosts).
#[must_use]
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                Some(kib * 1024)
            })
        })
        .unwrap_or(0)
}

/// The bench cluster: 16 SGX2 nodes, each sized for four 4-TCS containers of
/// TVM-MBNET — 256 execution slots, enough headroom to absorb the 2000 rps
/// MMPP peak on the hot path so the trace measures the engine, not a
/// saturation collapse.
fn bench_cluster(seed: u64) -> (ClusterConfig, ModelId, ModelProfile) {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let budget = sesemi_platform::PlatformConfig::round_memory_budget(
        profile.enclave_bytes_for_concurrency(4),
    );
    let config = ClusterConfig {
        nodes: 16,
        tcs_per_container: 4,
        invoker_memory_bytes: budget * 4,
        seed,
        ..ClusterConfig::multi_node_sgx2()
    };
    (config, model, profile)
}

/// Runs the fixed MMPP benchmark trace sized to ~`requests` arrivals at
/// `seed`, self-timing the generate / simulate / report phases.
///
/// The scenario is pinned — same cluster, same arrival process, same
/// prewarm — so `BENCH_sim_engine.json` files taken from different commits
/// chart the engine's performance trajectory over time.
#[must_use]
pub fn bench_trace(requests: u64, seed: u64) -> BenchRun {
    let (config, model, profile) = bench_cluster(seed);
    timed_bench_run(
        requests,
        seed,
        config,
        vec![(model.clone(), profile)],
        &[(model, 64)],
    )
}

/// Runs the saturated variant of the benchmark trace: the same cluster and
/// MMPP process as [`bench_trace`], but with `BENCH_SATURATED_POOL` idle
/// single-container warm pools pinned across the nodes so the hot model is
/// permanently over capacity.  Every completion then replays a deep retry
/// queue against a wide multi-action warm pool — the dispatch-rate regime
/// that exercises the controller's incremental scheduling views rather than
/// the event loop.
#[must_use]
pub fn bench_saturated_trace(requests: u64, seed: u64) -> BenchRun {
    let (config, hot, profile) = bench_cluster(seed);
    let mut models = vec![(hot.clone(), profile)];
    let mut prewarm_plan = Vec::with_capacity(BENCH_SATURATED_POOL + 1);
    for index in 0..BENCH_SATURATED_POOL {
        let model = ModelId::new(format!("bench-pool-{index:02}"));
        models.push((model.clone(), profile));
        prewarm_plan.push((model, 1));
    }
    prewarm_plan.push((hot, BENCH_SATURATED_HOT));
    timed_bench_run(requests, seed, config, models, &prewarm_plan)
}

/// Shared timed core of the bench traces: generates the MMPP trace for the
/// first registered model, runs it on `config` under the given prewarm
/// plan, and self-times the generate / simulate / report phases.
fn timed_bench_run(
    requests: u64,
    seed: u64,
    config: ClusterConfig,
    models: Vec<(ModelId, ModelProfile)>,
    prewarm_plan: &[(ModelId, usize)],
) -> BenchRun {
    let hot = models[0].0.clone();
    let duration = SimDuration::from_secs_f64(requests as f64 / BENCH_MEAN_RATE);
    let process = ArrivalProcess::Mmpp {
        rates_per_sec: BENCH_RATES.to_vec(),
        mean_dwell: BENCH_DWELL,
    };

    let generate_started = std::time::Instant::now();
    let mut rng = SimRng::seed_from_u64(seed);
    let arrivals = process.generate(&hot, 0, duration, &mut rng);
    let generated = arrivals.len() as u64;
    let generate_seconds = generate_started.elapsed().as_secs_f64();

    let simulate_started = std::time::Instant::now();
    let mut sim = ClusterSimulation::new(config, models);
    for (model, count) in prewarm_plan {
        sim.prewarm(model, 0, *count);
    }
    sim.add_arrivals(arrivals);
    let result = sim.run(duration);
    let simulate_seconds = simulate_started.elapsed().as_secs_f64();
    if let Err(violation) = result.check() {
        panic!("bench trace (seed {seed}): {violation}");
    }

    let report_started = std::time::Instant::now();
    let mean_latency = result.mean_latency();
    let p50_latency = result.latency.p50();
    let p95_latency = result.p95_latency();
    let p99_latency = result.p99_latency();
    // The windowed scans a real report performs over the collected series —
    // timed so regressions in the query paths show up in the trajectory too.
    let window = SimDuration::from_secs(10);
    let _ = result.latency_series.windowed_mean(window);
    let _ = result.sandbox_series.windowed_mean(window);
    let _ = result.memory_series.windowed_mean(window);
    let report_seconds = report_started.elapsed().as_secs_f64();
    let sorts_performed = result.latency.sorts_performed();

    BenchRun {
        seed,
        requests: generated,
        admitted: result.admitted,
        completed: result.completed,
        dropped: result.dropped,
        cold_starts: result.cold_starts,
        events_processed: result.events_processed,
        mean_latency,
        p50_latency,
        p95_latency,
        p99_latency,
        gb_seconds: result.gb_seconds,
        index_ops: result.index_ops,
        view_sandboxes_scanned: result.view_sandboxes_scanned,
        sorts_performed,
        generate_seconds,
        simulate_seconds,
        report_seconds,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Runs `bench_trace` for every seed on a small worker pool and returns the
/// runs **in input-seed order**, regardless of which worker finished first.
/// Determinism is per seed, not per sweep order: shuffling `seeds` permutes
/// the output identically, and every run's [`BenchRun::deterministic_json`]
/// is byte-identical to a sequential run of the same seed.
#[must_use]
pub fn sweep(requests: u64, seeds: &[u64], workers: usize) -> Vec<BenchRun> {
    let jobs: Vec<_> = seeds
        .iter()
        .map(|&seed| move || bench_trace(requests, seed))
        .collect();
    sesemi_sim::pool::run_indexed(workers, jobs)
}

/// [`sweep`], but over the saturated trace — the slice the determinism
/// guard double-runs to pin the indexed scheduler's retry/dispatch order.
#[must_use]
pub fn sweep_saturated(requests: u64, seeds: &[u64], workers: usize) -> Vec<BenchRun> {
    let jobs: Vec<_> = seeds
        .iter()
        .map(|&seed| move || bench_saturated_trace(requests, seed))
        .collect();
    sesemi_sim::pool::run_indexed(workers, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These are integration-level checks of the simulation harness; they use
    // short durations to stay fast but assert the paper's qualitative shape.

    #[test]
    fn fig12_iso_reuse_is_never_faster_than_sesemi_for_rsnet() {
        let sesemi = run_single_node_rate(
            ModelKind::RsNet,
            Framework::Tvm,
            ServingStrategy::Sesemi,
            false,
            3.0,
            99,
        );
        let iso = run_single_node_rate(
            ModelKind::RsNet,
            Framework::Tvm,
            ServingStrategy::IsoReuse,
            false,
            3.0,
            99,
        );
        assert!(sesemi.p95_latency() <= iso.p95_latency());
        assert!(sesemi.completed > 100 && iso.completed > 100);
    }

    #[test]
    fn fig13_sesemi_improves_dsnet_latency_by_a_large_factor_over_iso_reuse() {
        let sesemi = run_mmpp(ModelKind::DsNet, ServingStrategy::Sesemi, 1, 5);
        let iso = run_mmpp(ModelKind::DsNet, ServingStrategy::IsoReuse, 1, 5);
        let ratio = iso.mean_latency().as_secs_f64() / sesemi.mean_latency().as_secs_f64();
        assert!(
            ratio > 2.0,
            "expected Iso-reuse to be much slower (got {:.2}x: {} vs {})",
            ratio,
            iso.mean_latency(),
            sesemi.mean_latency()
        );
    }

    #[test]
    fn fig14_four_threads_cut_the_gb_second_cost() {
        let one = run_mmpp(ModelKind::DsNet, ServingStrategy::Sesemi, 1, 6);
        let four = run_mmpp(ModelKind::DsNet, ServingStrategy::Sesemi, 4, 6);
        let reduction = 1.0 - four.gb_seconds / one.gb_seconds;
        assert!(
            reduction > 0.25,
            "expected a sizeable cost reduction, got {:.0}% ({:.0} vs {:.0} GB-s)",
            reduction * 100.0,
            one.gb_seconds,
            four.gb_seconds
        );
    }

    #[test]
    fn table4_one_to_one_pays_cold_starts_in_the_first_session() {
        let one_to_one = run_multi_model(RoutingStrategy::OneToOne, true, 3);
        let fnpacker = run_multi_model(RoutingStrategy::FnPacker, true, 3);
        // m2 is first touched by session 1: One-to-one must cold start it,
        // FnPacker reuses an idle pool endpoint (warm, no enclave init).
        let get = |result: &SimulationResult, model: &str| -> f64 {
            result
                .session_latencies
                .iter()
                .find(|(name, m, _)| name == "Session 1" && m.as_str() == model)
                .map(|(_, _, l)| l.as_secs_f64())
                .unwrap_or(f64::NAN)
        };
        let one_to_one_m3 = get(&one_to_one, "m3");
        let fnpacker_m3 = get(&fnpacker, "m3");
        assert!(
            one_to_one_m3 > fnpacker_m3,
            "One-to-one m3 {one_to_one_m3:.2}s should exceed FnPacker {fnpacker_m3:.2}s"
        );
        assert!(one_to_one.cold_starts > fnpacker.cold_starts);
    }

    /// The E3 acceptance bar: on the Zipf multi-tenant mix, warm-value
    /// keep-alive serves a strictly higher hot-path fraction than age-only
    /// eviction — sticky-subset retention keeps the tail models' containers
    /// alive across idle gaps the short keep-alive would otherwise expire.
    #[test]
    fn e3_warm_value_keep_alive_beats_age_only_on_the_zipf_mix() {
        let registry = sesemi_scenario::ScenarioRegistry::corpus();
        let entry = registry
            .get("lifecycle-zipf-warm-value")
            .expect("corpus entry");
        for seed in [42, 7] {
            let run = |kind: LifecycleKind| entry.builder(seed).lifecycle(kind).build().run();
            let age_only = run(LifecycleKind::AgeOnly);
            let warm_value = run(LifecycleKind::WarmValue);
            assert_eq!(
                age_only.admitted, warm_value.admitted,
                "identical trace on both sides"
            );
            assert!(
                warm_value.hot_fraction() > age_only.hot_fraction(),
                "seed {seed}: warm-value hot fraction {:.3} must strictly beat \
                 age-only {:.3}",
                warm_value.hot_fraction(),
                age_only.hot_fraction()
            );
            assert!(
                warm_value.cold_starts < age_only.cold_starts,
                "seed {seed}: retention must avoid cold starts ({} vs {})",
                warm_value.cold_starts,
                age_only.cold_starts
            );
            for result in [&age_only, &warm_value] {
                assert_eq!(result.check(), Ok(()));
                assert_eq!(result.dropped, 0);
            }
        }
    }

    /// The E4 acceptance bar: through the over-capacity burst, deadline-aware
    /// admission holds the p99 of the traffic it admits within 1.5× of the
    /// under-capacity steady-state p99 (the SLO it enforces), while the
    /// admit-all queue pushes its p99 past 3× — and the policies partition
    /// the identical trace into admitted + rejected.
    #[test]
    fn e4_deadline_aware_admission_holds_p99_flat_through_the_burst() {
        for seed in [42, 7] {
            let steady = admission_run(seed, "steady", AdmissionKind::AdmitAll, None, false);
            assert_eq!(steady.rejected, 0);
            let slo = steady.p99_latency();
            let admit_all =
                admission_run(seed, "admit-all", AdmissionKind::AdmitAll, Some(slo), true);
            let deadline_aware = admission_run(
                seed,
                "deadline-aware",
                AdmissionKind::DeadlineAware,
                Some(slo),
                true,
            );
            assert!(
                deadline_aware.rejected > 0,
                "seed {seed}: the over-capacity burst must drive rejections"
            );
            assert_eq!(
                deadline_aware.admitted + deadline_aware.rejected,
                admit_all.admitted,
                "seed {seed}: the policies must partition the identical trace"
            );
            assert!(
                deadline_aware.p99_latency() <= slo.mul_f64(1.5),
                "seed {seed}: deadline-aware p99 {} must stay within 1.5x of the steady p99 {}",
                secs(deadline_aware.p99_latency()),
                secs(slo)
            );
            assert!(
                admit_all.p99_latency() > slo.mul_f64(3.0),
                "seed {seed}: admit-all p99 {} should blow past 3x the steady p99 {}",
                secs(admit_all.p99_latency()),
                secs(slo)
            );
            for result in [&steady, &admit_all, &deadline_aware] {
                assert_eq!(result.check(), Ok(()));
            }
        }
    }

    /// The E5 acceptance bar: with batching on, the saturated container
    /// completes strictly more requests per second of drain makespan (the
    /// identical admitted trace, served in strictly less time) at
    /// equal-or-lower activation GB·s, and the p99 of what completes stays
    /// within 1.5× of the unbatched run's — at both registered experiment
    /// seeds.
    #[test]
    fn e5_batching_raises_throughput_at_equal_or_lower_gb_seconds() {
        for seed in [42, 7] {
            let unbatched = batching_run(seed, 1);
            let batched = batching_run(seed, 8);
            assert_eq!(unbatched.batches_formed, 0);
            assert!(
                batched.batches_formed > 0,
                "seed {seed}: the saturated backlog must form batches"
            );
            assert!(batched.max_batch <= 8, "seed {seed}");
            assert_eq!(
                batched.completed, unbatched.completed,
                "seed {seed}: both runs serve the identical admitted trace"
            );
            let batched_throughput =
                batched.completed as f64 / drain_makespan(&batched).as_secs_f64();
            let unbatched_throughput =
                unbatched.completed as f64 / drain_makespan(&unbatched).as_secs_f64();
            assert!(
                batched_throughput > unbatched_throughput,
                "seed {seed}: batched throughput {batched_throughput:.2} req/s must beat \
                 unbatched {unbatched_throughput:.2} req/s"
            );
            assert!(
                batched.activation_gb_seconds() <= unbatched.activation_gb_seconds(),
                "seed {seed}: batched GB·s {:.2} must not exceed unbatched {:.2}",
                batched.activation_gb_seconds(),
                unbatched.activation_gb_seconds()
            );
            assert!(
                batched.p99_latency() <= unbatched.p99_latency().mul_f64(1.5),
                "seed {seed}: batched p99 {} must stay within 1.5x of unbatched {}",
                secs(batched.p99_latency()),
                secs(unbatched.p99_latency())
            );
            for result in [&unbatched, &batched] {
                assert_eq!(result.check(), Ok(()));
            }
        }
    }

    /// The E6 acceptance bar: through the cold-start storm, every pool of
    /// 2+ replicas holds the cold-path p99 within 2× of the overprovisioned
    /// reference — with or without losing replica 0 mid-storm — and
    /// `admitted == completed + dropped` holds under every KeyService fault
    /// plan.  Crashing the only replica of a singleton pool is the one case
    /// allowed (and required) to drop requests: a total trust-plane outage
    /// leaves later cold starts unprovisionable, but still conserved.
    #[test]
    fn e6_replicated_keyservice_holds_the_cold_tail_through_a_crash() {
        for seed in [42, 7] {
            let reference =
                keyservice_storm_run(seed, KeyServiceConfig::queued(8, E6_PROVISION, 8), None);
            assert_eq!(reference.check(), Ok(()));
            assert_eq!(reference.dropped, 0, "seed {seed}: reference must not drop");
            assert!(
                reference.provisioned_keys > 0,
                "seed {seed}: the storm must exercise the trust plane"
            );
            assert_eq!(
                reference.provisioned_keys, reference.cold_dispatches,
                "seed {seed}: every cold dispatch provisions exactly once"
            );
            let budget = reference.p99_latency().mul_f64(2.0);
            for replicas in [2usize, 4] {
                for crash in [None, Some(0)] {
                    let result = keyservice_storm_run(
                        seed,
                        KeyServiceConfig::queued(replicas, E6_PROVISION, 1),
                        crash,
                    );
                    let label = format!("seed {seed}, {replicas} replicas, crash {crash:?}");
                    assert_eq!(result.check(), Ok(()), "{label}");
                    assert_eq!(result.dropped, 0, "{label}: failover must not drop");
                    assert_eq!(
                        result.admitted, reference.admitted,
                        "{label}: identical seeded trace on every row"
                    );
                    assert!(
                        result.p99_latency() <= budget,
                        "{label}: p99 {} must stay within 2x of the reference {}",
                        secs(result.p99_latency()),
                        secs(reference.p99_latency())
                    );
                    if crash.is_some() {
                        assert_eq!(result.keyservice_crashes, 1, "{label}");
                        assert!(
                            result.keyservice_failovers > 0,
                            "{label}: the mid-storm crash must catch provisions in flight"
                        );
                    } else {
                        assert_eq!(result.keyservice_crashes, 0, "{label}");
                        assert_eq!(result.keyservice_failovers, 0, "{label}");
                    }
                }
            }
            let single =
                keyservice_storm_run(seed, KeyServiceConfig::queued(1, E6_PROVISION, 1), None);
            assert_eq!(single.check(), Ok(()));
            assert_eq!(
                single.dropped, 0,
                "seed {seed}: a healthy singleton pool is slow, not lossy"
            );
            assert!(
                single.mean_keyservice_wait() > reference.mean_keyservice_wait(),
                "seed {seed}: one TCS slot must queue deeper than the 64-slot reference"
            );
            assert!(
                single.p99_latency() > budget,
                "seed {seed}: the singleton pool must show the queueing cliff the \
                 replicated pools avoid (p99 {} vs budget {})",
                secs(single.p99_latency()),
                secs(budget)
            );
            let outage =
                keyservice_storm_run(seed, KeyServiceConfig::queued(1, E6_PROVISION, 1), Some(0));
            assert_eq!(outage.check(), Ok(()));
            assert_eq!(outage.keyservice_crashes, 1);
            assert!(
                outage.dropped > 0,
                "seed {seed}: a total trust-plane outage must drop later cold starts"
            );
            assert!(
                outage.completed > 0,
                "seed {seed}: requests served before the outage still complete"
            );
        }
    }

    /// `--tag` hygiene: an unknown tag is a loud error carrying the known-tag
    /// list (a registry `with_tag` miss is otherwise indistinguishable from
    /// a valid-but-empty filter), while a known tag reports every carrier.
    #[test]
    fn tag_report_rejects_unknown_tags_with_the_known_list() {
        let err = tag_report(1, "no-such-tag").expect_err("unknown tag must error");
        assert!(err.contains("no-such-tag"), "{err}");
        for known in ["lifecycle", "fault", "quick", "autoscale"] {
            assert!(err.contains(known), "error must list {known:?}: {err}");
        }
        let report = tag_report(1, "lifecycle").expect("known tag runs");
        let registry = sesemi_scenario::ScenarioRegistry::corpus();
        assert_eq!(report.rows.len(), registry.with_tag("lifecycle").len());
    }

    #[test]
    fn elasticity_serves_the_same_requests_for_measurably_fewer_node_gb_seconds() {
        // The acceptance bar for the autoscaling work: the autoscaled
        // 8-node-max MMPP run admits and completes exactly the request set
        // of the fixed 8-node pool (conservation, zero drops) while paying
        // measurably less for node capacity.
        let fixed = run_elastic_mmpp(ModelKind::DsNet, 8, None, 4);
        let elastic = run_elastic_mmpp(ModelKind::DsNet, 2, Some(elastic_policy()), 4);
        assert_eq!(elastic.admitted, fixed.admitted, "identical request trace");
        assert!(fixed.admitted > 10_000, "the MMPP workload is substantial");
        for result in [&fixed, &elastic] {
            assert_eq!(result.check(), Ok(()));
            assert_eq!(result.dropped, 0);
            assert_eq!(result.completed, result.admitted);
        }
        assert!(elastic.scale_out_events >= 1 && elastic.scale_in_events >= 1);
        assert!(elastic.peak_nodes <= 8);
        assert!(
            elastic.node_gb_seconds < 0.9 * fixed.node_gb_seconds,
            "elastic pool ({:.0} GB·s) should measurably undercut the fixed pool ({:.0} GB·s)",
            elastic.node_gb_seconds,
            fixed.node_gb_seconds
        );
    }
}
