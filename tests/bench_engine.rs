//! Guards for the self-timing benchmark harness (`sims::bench_trace` /
//! `sims::bench_saturated_trace` / `sims::sweep`).
//!
//! Three properties are pinned:
//!
//! 1. **Determinism per seed, not per sweep order** — running seeds
//!    sequentially and running them through the parallel worker pool in a
//!    shuffled order must produce byte-identical deterministic JSON for
//!    every seed.  This is what lets CI compare two sweep invocations.
//! 2. **Well-formedness of `BENCH_sim_engine.json`** — the emitted document
//!    must carry both provisioning sections and a nonzero
//!    `requests_per_sec`, so the perf trajectory never silently records an
//!    empty run.
//! 3. **The saturated trace actually saturates** — the run conserves
//!    requests (everything admitted eventually completes during the
//!    drain-down), so saturation shows up as queueing delay: the median
//!    latency must sit far above the ~70 ms warm service time, proving the
//!    retry queue ran deep.  It must also stay deterministic across the
//!    worker pool like the well-provisioned trace.
//!
//! The request count is kept small: these run under `cargo test` (debug
//! profile), where a million-request trace would dominate the suite.  The
//! release-profile million-request run is exercised by CI's bench step.

use sesemi_bench::sims::{
    bench_document, bench_saturated_trace, bench_trace, sweep, sweep_saturated,
};

const REQUESTS: u64 = 10_000;
/// The saturated trace backs up fast (capacity is ~60% of offered load), so
/// a fifth of the request count already leaves a deep queue — the same ratio
/// `--bench-json` uses.
const SATURATED_REQUESTS: u64 = REQUESTS / 5;

#[test]
fn sweep_order_does_not_change_per_seed_results() {
    let seeds = [7u64, 42, 99];
    let sequential: Vec<String> = seeds
        .iter()
        .map(|&seed| bench_trace(REQUESTS, seed).deterministic_json())
        .collect();
    // Shuffled input order, parallel workers: results must come back in the
    // (shuffled) input order with per-seed output byte-identical to the
    // sequential runs.
    let shuffled_seeds = [99u64, 7, 42];
    let parallel = sweep(REQUESTS, &shuffled_seeds, 3);
    let order: Vec<u64> = parallel.iter().map(|run| run.seed).collect();
    assert_eq!(order, shuffled_seeds, "sweep preserves input order");
    for (i, &seed) in seeds.iter().enumerate() {
        let from_sweep = parallel
            .iter()
            .find(|run| run.seed == seed)
            .expect("every swept seed comes back");
        assert_eq!(
            sequential[i],
            from_sweep.deterministic_json(),
            "seed {seed}: parallel sweep diverged from the sequential run"
        );
    }
}

#[test]
fn saturated_trace_backs_up_and_stays_deterministic_across_the_pool() {
    let seeds = [7u64, 42];
    let sequential: Vec<_> = seeds
        .iter()
        .map(|&seed| bench_saturated_trace(SATURATED_REQUESTS, seed))
        .collect();
    for run in &sequential {
        // Over capacity by construction: the pinned pool leaves ~470 rps of
        // hot capacity against a ≥1000 rps offered load, so the median
        // request waits in the retry queue for a long multiple of the
        // ~70 ms warm service time.  (The run still conserves requests —
        // the queue drains after the horizon — so `dropped` stays 0 and
        // queueing delay is the saturation signal.)
        assert!(
            run.p50_latency > sesemi_sim::SimDuration::from_millis(500),
            "seed {}: saturated trace shows no queueing delay (p50 {})",
            run.seed,
            run.p50_latency
        );
        assert!(run.completed > 0, "saturated trace completed nothing");
    }
    let parallel = sweep_saturated(SATURATED_REQUESTS, &seeds, 2);
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_eq!(
            seq.deterministic_json(),
            par.deterministic_json(),
            "seed {}: parallel saturated sweep diverged from the sequential run",
            seq.seed
        );
    }
}

#[test]
fn bench_document_parses_with_both_sections_and_nonzero_requests_per_sec() {
    let well = bench_trace(REQUESTS, 7);
    assert!(well.completed > 0, "bench trace completed nothing");
    assert!(well.events_processed > well.completed);
    let saturated = bench_saturated_trace(SATURATED_REQUESTS, 7);
    let json = bench_document(&well, &saturated);
    assert!(json.contains("\"bench\": \"sim_engine\""));
    assert!(json.contains("\"well_provisioned\": {"));
    assert!(json.contains("\"saturated\": {"));
    // Extract the rendered requests_per_sec figures and require them nonzero
    // — the fields CI dashboards chart.
    let values: Vec<f64> = json
        .lines()
        .filter(|line| line.contains("\"requests_per_sec\":"))
        .map(|line| {
            line.split(':')
                .nth(1)
                .expect("requests_per_sec has a value")
                .trim()
                .trim_end_matches(',')
                .parse()
                .expect("requests_per_sec renders as a number")
        })
        .collect();
    assert_eq!(values.len(), 2, "one throughput figure per section: {json}");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "requests_per_sec must be nonzero: {json}"
    );
    // The deterministic slices embed cleanly too.
    assert!(json.contains("\"events_processed\""));
    assert!(json.contains("\"peak_rss_bytes\""));
    // Each section carries its work counters in a block of their own,
    // after `deterministic` and outside it, so CI can extract each block
    // by its first closing brace.  The report's three percentile queries
    // share one sort of the latency ledger.
    for run in [&well, &saturated] {
        assert!(run.index_ops > 0 && run.view_sandboxes_scanned > 0);
        assert_eq!(run.sorts_performed, 1);
        assert!(json.contains(&run.work_json().replace('\n', "\n    ")));
        assert!(!run.deterministic_json().contains("index_ops"));
    }
    assert_eq!(json.matches("\"work\": {").count(), 2, "{json}");
}
