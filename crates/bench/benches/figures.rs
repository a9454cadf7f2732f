//! Criterion benchmarks — one per paper table / figure.
//!
//! Each benchmark times the harness function that regenerates the
//! corresponding artifact, so `cargo bench` both exercises the full
//! experiment pipeline and reports how long each reproduction takes.  The
//! actual experiment output (paper-vs-measured) is produced by the
//! `experiments` binary (see README's "Regenerating the paper's
//! evaluation").

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_tables_and_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("table1_models", |b| {
        b.iter(sesemi_bench::micro::table1_models)
    });
    group.bench_function("fig8_stage_ratio", |b| {
        b.iter(sesemi_bench::micro::fig8_stage_ratio)
    });
    group.bench_function("fig9_invocation_paths", |b| {
        b.iter(sesemi_bench::micro::fig9_invocation_paths)
    });
    group.bench_function("fig10_memory_saving", |b| {
        b.iter(sesemi_bench::micro::fig10_memory_saving)
    });
    group.bench_function("fig11_concurrency", |b| {
        b.iter(sesemi_bench::micro::fig11_concurrency)
    });
    group.bench_function("table2_isolation", |b| {
        b.iter(sesemi_bench::micro::table2_isolation)
    });
    group.bench_function("fig15_enclave_init", |b| {
        b.iter(sesemi_bench::micro::fig15_enclave_init)
    });
    group.bench_function("fig16_attestation", |b| {
        b.iter(sesemi_bench::micro::fig16_attestation)
    });
    group.bench_function("fig17_breakdown_sgx", |b| {
        b.iter(sesemi_bench::micro::fig17_breakdown_sgx)
    });
    group.bench_function("fig18_breakdown_untrusted", |b| {
        b.iter(sesemi_bench::micro::fig18_breakdown_untrusted)
    });
    group.bench_function("table5_config", |b| {
        b.iter(sesemi_bench::micro::table5_config)
    });
    group.finish();

    // The cluster simulations are heavier; bench them with a single sample
    // iteration budget so `cargo bench` stays tractable on one core.
    let mut sims = c.benchmark_group("cluster-simulations");
    sims.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(8));
    sims.bench_function("fig12_throughput", |b| {
        b.iter(|| sesemi_bench::sims::fig12_throughput(1))
    });
    sims.bench_function("fig13_mmpp_latency", |b| {
        b.iter(|| sesemi_bench::sims::fig13_mmpp_latency(1))
    });
    sims.bench_function("fig14_mmpp_memory", |b| {
        b.iter(|| sesemi_bench::sims::fig14_mmpp_memory(1))
    });
    sims.bench_function("table3_fnpacker_poisson", |b| {
        b.iter(|| sesemi_bench::sims::table3_fnpacker_poisson(1))
    });
    sims.bench_function("table4_fnpacker_sessions", |b| {
        b.iter(|| sesemi_bench::sims::table4_fnpacker_sessions(1))
    });
    sims.finish();
}

criterion_group!(benches, bench_tables_and_figures);
criterion_main!(benches);
