//! `sim` and `sim-saturated`: the cluster simulator on the MMPP trace behind
//! `BENCH_sim_engine.json`.
//!
//! `sim` is the well-provisioned trace: 16 SGX2 nodes absorb the 2000 rps
//! peak, so the event loop and warm dispatch do the work.  `sim-saturated`
//! pins 56 single-container warm pools so the hot model runs about 3x over
//! capacity, which drives the saturated-queue retry path and the admission
//! seam.  Its virtual horizon must stay under the 180 s keep-alive, so a run
//! repeats the trace over seeds derived from the workload seed instead of
//! lengthening it; `sim` repeats its trace the same way.

use crate::report::{digest, median, percentile, ratio, Outcome};
use crate::trace::{Clock, Span, Tracer};
use crate::{Plan, Size, Workload};
use sesemi::cluster::{ClusterConfig, ClusterSimulation};
use sesemi_inference::{Framework, ModelId, ModelKind, ModelProfile};
use sesemi_sim::{SimDuration, SimRng};
use sesemi_workload::ArrivalProcess;
use std::time::{Duration, Instant};

/// MMPP state rates of the trace, in requests per second.
const RATES: [f64; 2] = [1_000.0, 2_000.0];
/// Mean dwell time in each MMPP state.
const DWELL: SimDuration = SimDuration::from_secs(30);
/// Mean rate across the two states: sizes the horizon for a request count.
const MEAN_RATE: f64 = 1_500.0;
/// Single-container warm pools pinned on the saturated cluster.
const SATURATED_POOL: usize = 56;
/// Hot-model containers prewarmed on the saturated cluster.
const SATURATED_HOT: usize = 8;

/// Requests per trace of `workload` at `size`.  The saturated trace stays
/// under 250k requests so its horizon stays under the keep-alive.
#[must_use]
pub fn trace_requests(workload: Workload, size: Size) -> u64 {
    match (workload, size) {
        (Workload::SimSaturated, Size::Full) => 200_000,
        (_, Size::Full) => 1_000_000,
        (_, Size::Smoke) => 20_000,
    }
}

/// The seed of the `index`-th trace of a run: the workload seed first, then
/// seeds derived from it.
#[must_use]
pub fn trace_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One simulated trace: its deterministic outcome and its wall-clock phases.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// Seed the trace was generated and simulated with.
    pub seed: u64,
    /// Arrivals generated.
    pub requests: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Admitted requests still queued when the run drained.
    pub dropped: u64,
    /// Container cold starts.
    pub cold_starts: u64,
    /// Dispatches that cold-started a container.
    pub cold_dispatches: u64,
    /// Cold starts not caused by a dispatch (prewarm, premigration).
    pub auxiliary_cold_starts: u64,
    /// Requests dispatched to a sandbox.
    pub dispatched: u64,
    /// Dispatches served by a warm container.
    pub warm_hits: u64,
    /// Most sandboxes alive at once.
    pub peak_sandboxes: usize,
    /// Events the event loop processed.
    pub events: u64,
    /// Sorts the percentile queries performed.
    pub sorts: u64,
    /// Simulated latency statistics, in nanoseconds: mean, p50, p95, p99.
    pub latency_ns: [u64; 4],
    /// Cluster memory integral in GB·seconds.
    pub gb_seconds: f64,
    /// Wall seconds generating the arrival trace.
    pub generate_s: f64,
    /// Wall seconds in `ClusterSimulation::new`, `prewarm` and `add_arrivals`.
    pub build_s: f64,
    /// Wall seconds in `ClusterSimulation::run`.
    pub run_s: f64,
    /// Wall seconds in the percentile and windowed-mean queries.
    pub report_s: f64,
    /// Peak resident set size while the trace ran, in MiB.
    pub peak_rss_mb: f64,
}

impl TraceRun {
    /// Wall seconds from `ClusterSimulation::new` through the result queries.
    #[must_use]
    pub fn sim_s(&self) -> f64 {
        self.build_s + self.run_s + self.report_s
    }

    /// The seed-deterministic slice, in the format of the experiment
    /// harness's `BenchRun::deterministic_json`.
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
            self.events,
            self.latency_ns[0],
            self.latency_ns[1],
            self.latency_ns[2],
            self.latency_ns[3],
            self.gb_seconds,
        )
    }
}

/// The trace's cluster: 16 SGX2 nodes, each sized for four 4-TCS containers
/// of TVM-MBNET.
fn cluster(seed: u64) -> (ClusterConfig, ModelId, ModelProfile) {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
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
    (config, ModelKind::MbNet.default_id(), profile)
}

/// Generates and simulates one trace of about `requests` arrivals.  With a
/// tracer, records the trace's spans under request id `req`.
#[must_use]
pub fn trace(
    saturated: bool,
    requests: u64,
    seed: u64,
    tracer: Option<(&Tracer, u64)>,
) -> TraceRun {
    let (config, hot, profile) = cluster(seed);
    let mut models = vec![(hot.clone(), profile)];
    let mut prewarm = Vec::new();
    if saturated {
        for index in 0..SATURATED_POOL {
            let model = ModelId::new(format!("bench-pool-{index:02}"));
            models.push((model.clone(), profile));
            prewarm.push((model, 1));
        }
        prewarm.push((hot.clone(), SATURATED_HOT));
    } else {
        prewarm.push((hot.clone(), 64));
    }
    let horizon = SimDuration::from_secs_f64(requests as f64 / MEAN_RATE);
    let process = ArrivalProcess::Mmpp {
        rates_per_sec: RATES.to_vec(),
        mean_dwell: DWELL,
    };

    let clock = tracer.map_or_else(Clock::start, |(t, _)| t.clock());
    crate::reset_peak_rss();
    let t0 = clock.now_ns();
    let mut rng = SimRng::seed_from_u64(seed);
    let arrivals = process.generate(&hot, 0, horizon, &mut rng);
    let generated = arrivals.len() as u64;
    let t1 = clock.now_ns();
    let mut sim = ClusterSimulation::new(config, models);
    for (model, count) in &prewarm {
        sim.prewarm(model, 0, *count);
    }
    sim.add_arrivals(arrivals);
    let t2 = clock.now_ns();
    let result = sim.run(horizon);
    let t3 = clock.now_ns();
    let latency_ns = [
        result.mean_latency().as_nanos(),
        result.latency.p50().as_nanos(),
        result.p95_latency().as_nanos(),
        result.p99_latency().as_nanos(),
    ];
    let window = SimDuration::from_secs(10);
    let _ = result.latency_series.windowed_mean(window);
    let _ = result.sandbox_series.windowed_mean(window);
    let _ = result.memory_series.windowed_mean(window);
    let t4 = clock.now_ns();

    if let Some((tracer, req)) = tracer {
        let root = tracer.reserve_id();
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns,
        };
        tracer.record(0, span("sim", root, 0, t0, t4));
        for (name, start_ns, end_ns) in [
            ("workload.generate", t0, t1),
            ("cluster.build", t1, t2),
            ("cluster.run", t2, t3),
            ("sim.report", t3, t4),
        ] {
            tracer.record(0, span(name, tracer.reserve_id(), root, start_ns, end_ns));
        }
    }
    let seconds = |a: u64, b: u64| (b - a) as f64 / 1e9;
    TraceRun {
        seed,
        requests: generated,
        admitted: result.admitted,
        completed: result.completed,
        dropped: result.dropped,
        cold_starts: result.cold_starts,
        cold_dispatches: result.cold_dispatches,
        auxiliary_cold_starts: result.auxiliary_cold_starts,
        dispatched: result.dispatched,
        warm_hits: result.warm_hits(),
        peak_sandboxes: result.peak_sandboxes,
        events: result.events_processed,
        sorts: result.latency.sorts_performed(),
        latency_ns,
        gb_seconds: result.gb_seconds,
        generate_s: seconds(t0, t1),
        build_s: seconds(t1, t2),
        run_s: seconds(t2, t3),
        report_s: seconds(t3, t4),
        peak_rss_mb: crate::peak_rss_mb(),
    }
}

/// Runs traces until `measure` has passed (at least one), checking each.
fn repeat(
    plan: &Plan,
    first_index: u64,
    measure: Duration,
    tracer: Option<&Tracer>,
    outcome: &mut Outcome,
) -> Vec<TraceRun> {
    let saturated = plan.workload == Workload::SimSaturated;
    let requests = trace_requests(plan.workload, plan.size);
    let started = Instant::now();
    let mut runs: Vec<TraceRun> = Vec::new();
    // Start another trace only if one more of the last one's length fits.
    while runs.last().map_or(true, |last| {
        started.elapsed() + Duration::from_secs_f64(last.generate_s + last.sim_s()) <= measure
    }) {
        let index = first_index + runs.len() as u64;
        let run = trace(
            saturated,
            requests,
            trace_seed(plan.seed, index),
            tracer.map(|t| (t, index + 1)),
        );
        outcome.check(run.completed > 0, || {
            format!("trace {index} completed nothing")
        });
        outcome.check(run.admitted == run.completed + run.dropped, || {
            format!(
                "trace {index}: admitted {} != completed {} + dropped {}",
                run.admitted, run.completed, run.dropped
            )
        });
        outcome.check(
            run.cold_starts == run.cold_dispatches + run.auxiliary_cold_starts,
            || {
                format!(
                    "trace {index}: cold starts {} != cold dispatches {} + auxiliary {}",
                    run.cold_starts, run.cold_dispatches, run.auxiliary_cold_starts
                )
            },
        );
        if index == 0 {
            outcome.digest = digest(run.deterministic_json().as_bytes());
        }
        outcome.attempted += 1;
        runs.push(run);
    }
    runs
}

fn median_of(runs: &[TraceRun], f: impl Fn(&TraceRun) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Runs `sim` or `sim-saturated`.
pub fn run(plan: &Plan, trace_path: Option<&std::path::Path>) -> Outcome {
    let mut outcome = Outcome::default();
    if !plan.traced {
        let runs = repeat(plan, 0, plan.measure, None, &mut outcome);
        outcome.set("p50_ms", median_of(&runs, TraceRun::sim_s) * 1e3);
        outcome.set("setup_s", median_of(&runs, |r| r.generate_s));
        outcome.set("peak_rss_mb", median_of(&runs, |r| r.peak_rss_mb));
        return outcome;
    }

    let tracer = Tracer::new(Clock::start(), 1);
    let baseline = repeat(plan, 0, plan.measure.mul_f64(0.5), None, &mut outcome);
    let runs = repeat(
        plan,
        baseline.len() as u64,
        plan.measure.mul_f64(0.5),
        Some(&tracer),
        &mut outcome,
    );
    // Every per-trace figure comes from one trace, the one with the median
    // `sim_s`, so its phases add up to its `sim_s`.
    let mut by_time: Vec<&TraceRun> = runs.iter().collect();
    by_time.sort_by(|a, b| a.sim_s().total_cmp(&b.sim_s()));
    let r = by_time[(by_time.len() - 1) / 2];
    for (name, value) in [
        ("workload.generate_s", r.generate_s),
        ("cluster.build_s", r.build_s),
        ("cluster.run_s", r.run_s),
        ("sim.report_s", r.report_s),
        ("sim_s", r.sim_s()),
        ("sim.sorts", r.sorts as f64),
        ("cluster.events", r.events as f64),
        ("cluster.events_per_s", r.events as f64 / r.run_s),
        (
            "cluster.events_per_request",
            ratio(r.events as f64, r.requests as f64),
        ),
        ("cluster.dispatched", r.dispatched as f64),
        ("cluster.cold_dispatches", r.cold_dispatches as f64),
        (
            "cluster.warm_hit_ratio",
            ratio(r.warm_hits as f64, r.dispatched as f64),
        ),
        ("cluster.peak_sandboxes", r.peak_sandboxes as f64),
        ("requests", r.requests as f64),
    ] {
        outcome.set(name, value);
    }
    let spans = tracer.spans();
    let coverage: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|root| {
            let covered: u64 = spans
                .iter()
                .filter(|s| s.parent == root.id)
                .map(Span::duration_ns)
                .sum();
            ratio(covered as f64, root.duration_ns() as f64)
        })
        .collect();
    outcome.set("trace.coverage", percentile(&coverage, 0.0));
    outcome.set(
        "trace.overhead_frac",
        ratio(
            median_of(&runs, TraceRun::sim_s),
            median_of(&baseline, TraceRun::sim_s),
        ) - 1.0,
    );
    if let Some(path) = trace_path {
        if let Err(e) = tracer.write(path) {
            outcome.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
    outcome
}
