//! Trajectory continuity: the benchmark's own `sim` and `sim-saturated`
//! traces must reproduce the experiment harness's `bench_trace` and
//! `bench_saturated_trace` at the same size and seed, so the benchmark's
//! numbers continue `BENCH_sim_engine.json`'s history and a drift in either
//! definition fails here.

use perfbench::sims::trace;

const REQUESTS: u64 = 20_000;

#[test]
fn sim_traces_match_the_experiment_harness() {
    for seed in [7, 42] {
        assert_eq!(
            trace(false, REQUESTS, seed, None).deterministic_json(),
            sesemi_bench::sims::bench_trace(REQUESTS, seed).deterministic_json(),
            "sim, seed {seed}"
        );
        assert_eq!(
            trace(true, REQUESTS, seed, None).deterministic_json(),
            sesemi_bench::sims::bench_saturated_trace(REQUESTS, seed).deterministic_json(),
            "sim-saturated, seed {seed}"
        );
    }
}
