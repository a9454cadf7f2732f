//! Integration tests for the cluster simulator, driven through the
//! `sesemi_scenario` builder: sanity-check the qualitative claims of the
//! paper's evaluation sections at small scale so `cargo test` stays fast,
//! leaving full-scale runs to the bench harness.

use sesemi::baseline::ServingStrategy;
use sesemi::cluster::{ClusterConfig, SchedulerKind, SimulationResult};
use sesemi_fnpacker::RoutingStrategy;
use sesemi_inference::{Framework, ModelId, ModelKind, ModelProfile};
use sesemi_scenario::Scenario;
use sesemi_sim::{SimDuration, SimTime};
use sesemi_workload::{ArrivalProcess, InteractiveSession};

fn poisson(rate: f64) -> ArrivalProcess {
    ArrivalProcess::Poisson { rate_per_sec: rate }
}

#[test]
fn hot_path_latency_tracks_the_calibrated_profile() {
    // §VI-B: once warmed up, SeSeMI's latency is essentially the model
    // execution time.  Run a light load and compare against Fig. 9's hot
    // number.
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let result = Scenario::builder("hot-path-tracks-profile")
        .seed(1)
        .tcs_per_container(4)
        .model(model.clone(), profile)
        .prewarm(model.clone(), 0, 2)
        .traffic(model, 0, poisson(5.0))
        .duration(SimDuration::from_secs(30))
        .build()
        .run();

    let hot = profile.sgx2.hot_total().as_secs_f64();
    let mean = result.mean_latency().as_secs_f64();
    assert!(
        (mean / hot) < 1.5,
        "mean {mean:.3}s should be close to the hot-path cost {hot:.3}s"
    );
    assert!(result.hot_fraction() > 0.9);
}

#[test]
fn native_baseline_is_dramatically_slower_than_sesemi() {
    // Fig. 12/13's qualitative claim at small scale.
    let profile = ModelProfile::paper(ModelKind::DsNet, Framework::Tvm);
    let model = ModelKind::DsNet.default_id();
    let mut latencies = Vec::new();
    for strategy in [ServingStrategy::Sesemi, ServingStrategy::Native] {
        let result = Scenario::builder(format!("native-vs-sesemi/{}", strategy.label()))
            .seed(2)
            .strategy(strategy)
            .tcs_per_container(2)
            .model(model.clone(), profile)
            .prewarm(model.clone(), 0, 2)
            .traffic(model.clone(), 0, poisson(2.0))
            .duration(SimDuration::from_secs(60))
            .build()
            .run();
        assert!(result.completed > 60);
        latencies.push(result.mean_latency().as_secs_f64());
    }
    assert!(
        latencies[1] > latencies[0] * 3.0,
        "Native ({:.2}s) should be several times slower than SeSeMI ({:.2}s)",
        latencies[1],
        latencies[0]
    );
}

#[test]
fn sgx1_epc_pressure_hurts_tvm_more_than_tflm() {
    // Fig. 11b / Fig. 12c-d: with a 128 MB EPC, TVM-MBNET's larger enclave
    // footprint (model copy inside the runtime buffer) overflows the EPC at a
    // concurrency level where TFLM-MBNET still fits.  Compare the relative
    // latency penalty of running 8 concurrent requests on an SGX1-sized EPC
    // versus an effectively unlimited one.
    let sgx1_epc = 128 * 1024 * 1024;
    let penalty = |framework: Framework| -> f64 {
        let profile = ModelProfile::paper(ModelKind::MbNet, framework);
        let pressured =
            sesemi::cluster::concurrent_hot_latency(&profile, 8, 10, sgx1_epc).as_secs_f64();
        let unpressured =
            sesemi::cluster::concurrent_hot_latency(&profile, 8, 10, u64::MAX).as_secs_f64();
        pressured / unpressured
    };
    let tvm = penalty(Framework::Tvm);
    let tflm = penalty(Framework::Tflm);
    assert!(
        tvm > tflm,
        "TVM's EPC penalty ({tvm:.2}x) should exceed TFLM's ({tflm:.2}x)"
    );
    assert!(
        tvm > 1.5,
        "TVM should overflow the 128 MB EPC at concurrency 8 ({tvm:.2}x)"
    );
    assert!(
        (tflm - 1.0).abs() < 0.3,
        "TFLM should still (almost) fit in the EPC at concurrency 8 ({tflm:.2}x)"
    );
}

#[test]
fn fnpacker_avoids_cold_starts_for_interactive_sessions() {
    // §VI-D: the first session's rarely-used models cold start under
    // One-to-one but reuse idle pool endpoints under FnPacker.
    let models: Vec<(ModelId, ModelProfile)> = (0..4)
        .map(|i| {
            (
                ModelId::new(format!("m{i}")),
                ModelProfile::paper(ModelKind::DsNet, Framework::Tvm),
            )
        })
        .collect();
    let ids: Vec<ModelId> = models.iter().map(|(m, _)| m.clone()).collect();

    let mut cold_starts = Vec::new();
    for routing in [RoutingStrategy::OneToOne, RoutingStrategy::FnPacker] {
        let result = Scenario::builder(format!("session-cold-starts/{}", routing.label()))
            .seed(4)
            .nodes(4)
            .routing(routing)
            .models(models.clone())
            // Continuous traffic only on m0; the sessions then touch m1..m3.
            .traffic(ids[0].clone(), 0, poisson(1.0))
            .session(InteractiveSession::new(
                "Session 1",
                SimTime::from_secs(60),
                ids.clone(),
                9,
            ))
            .session(InteractiveSession::new(
                "Session 2",
                SimTime::from_secs(150),
                ids.clone(),
                10,
            ))
            .duration(SimDuration::from_secs(240))
            .build()
            .run();
        assert_eq!(result.session_latencies.len(), 8);
        cold_starts.push(result.cold_starts);
    }
    assert!(
        cold_starts[0] > cold_starts[1],
        "One-to-one cold starts ({}) should exceed FnPacker's ({})",
        cold_starts[0],
        cold_starts[1]
    );
}

#[test]
fn gb_second_cost_shrinks_with_enclave_concurrency() {
    // Fig. 14's cost claim at small scale: packing 4 threads into one enclave
    // needs fewer, only slightly larger containers.
    let profile = ModelProfile::paper(ModelKind::DsNet, Framework::Tvm);
    let model = ModelKind::DsNet.default_id();
    let mut costs = Vec::new();
    for tcs in [1usize, 4] {
        let result = Scenario::builder(format!("gbs-vs-concurrency/tcs{tcs}"))
            .seed(5)
            .nodes(4)
            .tcs_per_container(tcs)
            .model(model.clone(), profile)
            .traffic(model.clone(), 0, poisson(8.0))
            .duration(SimDuration::from_secs(120))
            .build()
            .run();
        assert!(result.completed > 500);
        costs.push(result.gb_seconds);
    }
    assert!(
        costs[1] < costs[0],
        "4-thread enclaves ({:.1} GB-s) should cost less than 1-thread ({:.1} GB-s)",
        costs[1],
        costs[0]
    );
}

#[test]
fn simulation_is_deterministic_for_a_fixed_seed() {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let model = ModelKind::MbNet.default_id();
    let run = || {
        let result = Scenario::builder("determinism")
            .seed(77)
            .model(model.clone(), profile)
            .traffic(model.clone(), 0, poisson(10.0))
            .duration(SimDuration::from_secs(30))
            .build()
            .run();
        (
            result.completed,
            result.cold_starts,
            result.mean_latency(),
            result.p95_latency(),
        )
    };
    assert_eq!(run(), run());
}

/// A multi-model MMPP scenario behind shared (All-in-one) endpoints: four
/// models with out-of-phase bursts share one pool of containers, so which
/// warm container each request lands on decides whether it runs hot or pays
/// a model switch.
fn shared_endpoint_mmpp_scenario(scheduler: SchedulerKind, seed: u64) -> SimulationResult {
    let profile = ModelProfile::paper(ModelKind::DsNet, Framework::Tvm);
    let models: Vec<(ModelId, ModelProfile)> = (0..4)
        .map(|i| (ModelId::new(format!("dsnet-{i}")), profile))
        .collect();
    let mut builder = Scenario::builder(format!("shared-endpoint-mmpp/{}", scheduler.label()))
        .cluster(ClusterConfig::multi_node_sgx2())
        .seed(seed)
        .nodes(4)
        .scheduler(scheduler)
        .routing(RoutingStrategy::AllInOne)
        .tcs_per_container(1)
        .models(models.clone());
    for (index, (model, _)) in models.iter().enumerate() {
        builder = builder.traffic(
            model.clone(),
            index,
            ArrivalProcess::Mmpp {
                rates_per_sec: if index % 2 == 0 {
                    vec![2.0, 0.5]
                } else {
                    vec![0.5, 2.0]
                },
                mean_dwell: SimDuration::from_secs(60),
            },
        );
    }
    builder.duration(SimDuration::from_secs(400)).build().run()
}

#[test]
fn model_affinity_beats_round_robin_on_hot_fraction_under_mmpp() {
    // The model-affinity scheduler keeps each model's traffic sticky to a
    // node subset (placement *and* warm-container selection follow the same
    // ring), so requests keep landing on containers that already hold the
    // model's runtime state.  Round-robin uses the default MRU reuse, which
    // bounces the four models across the shared containers and turns hot
    // invocations into model-switching warm ones.
    let affinity = shared_endpoint_mmpp_scenario(SchedulerKind::ModelAffinity, 31);
    let round_robin = shared_endpoint_mmpp_scenario(SchedulerKind::RoundRobin, 31);
    assert!(affinity.completed > 500 && round_robin.completed > 500);
    assert!(
        affinity.hot_fraction() > round_robin.hot_fraction(),
        "model-affinity hot fraction {:.3} should exceed round-robin's {:.3}",
        affinity.hot_fraction(),
        round_robin.hot_fraction()
    );
}

#[test]
fn every_scheduler_completes_the_shared_endpoint_workload() {
    for scheduler in SchedulerKind::ALL {
        let result = shared_endpoint_mmpp_scenario(scheduler, 12);
        assert!(
            result.completed > 500,
            "{} completed only {}",
            scheduler.label(),
            result.completed
        );
        assert!(result.hot_fraction() > 0.0);
    }
}

fn elastic_burst_scenario(autoscale: Option<sesemi::cluster::AutoscaleConfig>) -> SimulationResult {
    // A 90 s burst well above the starting capacity followed by a long quiet
    // tail, on nodes sized for two single-thread DSNET containers each.
    let profile = ModelProfile::paper(ModelKind::DsNet, Framework::Tvm);
    let model = ModelKind::DsNet.default_id();
    let budget = sesemi_platform::PlatformConfig::round_memory_budget(
        profile.enclave_bytes_for_concurrency(1),
    );
    let (name, nodes) = match &autoscale {
        Some(scale) => ("elastic-burst/elastic", scale.min_nodes),
        None => ("elastic-burst/fixed", 3),
    };
    let mut builder = Scenario::builder(name)
        .cluster(ClusterConfig::multi_node_sgx2())
        .seed(19)
        .nodes(nodes)
        .tcs_per_container(1)
        .invoker_memory_bytes(budget * 2)
        .keep_alive(SimDuration::from_secs(45))
        .model(model.clone(), profile)
        .traffic(model, 0, poisson(10.0))
        .duration(SimDuration::from_secs(90));
    if let Some(scale) = autoscale {
        builder = builder.autoscale(scale);
    }
    builder.build().run()
}

#[test]
fn autoscaled_scenarios_conserve_requests_and_undercut_the_fixed_pool() {
    // The elasticity claim, at integration-test scale: the same seeded burst
    // on a fixed 3-node pool and on a 1-to-3-node elastic pool admits the
    // identical trace, completes all of it (conservation, zero drops), and
    // the elastic pool pays measurably less for provisioned node capacity
    // because it only holds 3 nodes while the burst lasts.
    let fixed = elastic_burst_scenario(None);
    let elastic = elastic_burst_scenario(Some(sesemi::cluster::AutoscaleConfig {
        idle_ticks: 4,
        ..sesemi::cluster::AutoscaleConfig::new(1, 3)
    }));
    assert_eq!(elastic.admitted, fixed.admitted, "identical seeded trace");
    for result in [&fixed, &elastic] {
        assert_eq!(result.check(), Ok(()));
        assert_eq!(result.dropped, 0);
        assert_eq!(result.completed, result.admitted);
    }
    assert!(elastic.scale_out_events >= 1, "the pool never grew");
    assert!(elastic.peak_nodes <= 3);
    assert!(
        elastic.node_gb_seconds < fixed.node_gb_seconds,
        "elastic {:.1} GB·s should undercut the fixed pool's {:.1} GB·s",
        elastic.node_gb_seconds,
        fixed.node_gb_seconds
    );
}
