//! The cluster simulator's queueing, checked against an answer that does
//! not come from the simulator.
//!
//! One prewarmed single-slot container on a node with room for exactly one
//! serves a Poisson stream.  Every request takes the hot path, whose
//! service time D is fixed, and waits its turn in the saturated queue,
//! first in first out: an M/D/1 queue.  Pollaczek–Khinchine gives its mean
//! latency in closed form, W = D + λD² / (2(1 − ρ)) with ρ = λD.  The
//! goldens show only that an output did not move; this shows the queueing
//! is right, and keeps checking it when a change is meant to move outputs.

use sesemi::cluster::{ClusterConfig, ClusterSimulation, SimulationResult};
use sesemi::inference::{Framework, ModelKind, ModelProfile};
use sesemi_platform::PlatformConfig;
use sesemi_runtime::InvocationPath;
use sesemi_sim::{SimDuration, SimRng, SimTime};
use sesemi_workload::{ArrivalProcess, RequestArrival};

/// Runs `arrivals` on one prewarmed 1-TCS TVM-DSNET container, on one node
/// whose invoker memory is exactly one container's rounded budget.
fn run_single_slot(arrivals: Vec<RequestArrival>, horizon: SimDuration) -> SimulationResult {
    let profile = ModelProfile::paper(ModelKind::DsNet, Framework::Tvm);
    let config = ClusterConfig {
        nodes: 1,
        tcs_per_container: 1,
        invoker_memory_bytes: PlatformConfig::round_memory_budget(
            profile.enclave_bytes_for_concurrency(1),
        ),
        ..ClusterConfig::single_node_sgx2()
    };
    let model = ModelKind::DsNet.default_id();
    let mut sim = ClusterSimulation::new(config, vec![(model.clone(), profile)]);
    sim.prewarm(&model, 0, 1);
    sim.add_arrivals(arrivals);
    let result = sim.run(horizon);
    assert_eq!(result.check(), Ok(()));
    // One container the whole run, serving every request hot.
    assert_eq!(result.peak_sandboxes, 1);
    assert_eq!(result.cold_dispatches, 0);
    assert_eq!(
        result.path_counts.get(&InvocationPath::Hot).copied(),
        Some(result.completed)
    );
    result
}

#[test]
fn single_slot_poisson_load_matches_pollaczek_khinchine() {
    let model = ModelKind::DsNet.default_id();
    // D: the latency of a lone request, which never waits.
    let lone = vec![RequestArrival::new(SimTime::from_secs(1), model.clone(), 0)];
    let service = run_single_slot(lone, SimDuration::from_secs(2))
        .mean_latency()
        .as_secs_f64();
    assert!(service > 0.0);

    for rho in [0.3, 0.5, 0.7] {
        let rate = rho / service;
        // About 40k requests.
        let horizon = SimDuration::from_secs_f64(40_000.0 / rate);
        let mut rng = SimRng::seed_from_u64(11);
        let arrivals =
            ArrivalProcess::Poisson { rate_per_sec: rate }.generate(&model, 0, horizon, &mut rng);
        let result = run_single_slot(arrivals, horizon);
        assert_eq!(result.dropped, 0, "ρ = {rho}: the queue drains");
        let simulated = result.mean_latency().as_secs_f64();
        let expected = service + rate * service * service / (2.0 * (1.0 - rho));
        let error = simulated / expected - 1.0;
        assert!(
            error.abs() < 0.01,
            "ρ = {rho}: mean latency {simulated:.4} s against Pollaczek–Khinchine's \
             {expected:.4} s ({:+.2}%, D = {service:.4} s, {} requests)",
            error * 100.0,
            result.completed
        );
    }
}
