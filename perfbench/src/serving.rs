//! Open-loop load generation and the measurements the serving workloads
//! (`hot`, `churn`) share.
//!
//! Operations arrive on a seeded Poisson schedule; a fixed set of sender
//! threads takes them in due order, waits for each one's due time and serves
//! it synchronously, so an operation that finds every sender busy waits —
//! that wait is the serving queue, and every latency is measured from the
//! operation's due time.

use crate::report::{median, percentile, ratio, Outcome};
use crate::trace::{durations_us, Chain, Clock, Span, Tracer};
use crate::{Plan, Size};
use sesemi::deployment::UserHandle;
use sesemi::{Deployment, FunctionHandle};
use sesemi_crypto::rng::SessionRng;
use sesemi_inference::ModelId;
use sesemi_runtime::{InferenceRequest, InvocationPath, InvocationReport, ServingStage};
use sesemi_sim::SimRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sender threads: the load comes from one process with at most `nproc` = 2
/// threads, and the synchronous `Deployment` serves on the sender's thread.
pub const SENDERS: usize = 2;

/// Lead time between scheduling a phase and its first due time.
const PHASE_LEAD_NS: u64 = 2_000_000;

/// Operation ids of successive phases start this far apart.
pub const PHASE_ID_STRIDE: u64 = 10_000_000;

/// One operation of a phase's schedule.
#[derive(Clone, Debug)]
pub struct Scheduled<K> {
    /// Operation id, unique within the run.
    pub id: u64,
    /// Due time relative to the phase start.
    pub due_ns: u64,
    /// What to do.
    pub op: K,
}

/// Poisson arrivals at `rate_per_sec` over `length`, ids from `first_id`.
pub fn poisson_schedule<K>(
    rng: &mut SimRng,
    rate_per_sec: f64,
    length: Duration,
    first_id: u64,
    mut make: impl FnMut(&mut SimRng) -> K,
) -> Vec<Scheduled<K>> {
    let horizon = u64::try_from(length.as_nanos()).unwrap_or(u64::MAX);
    let mut ops = Vec::new();
    let mut due_ns = 0u64;
    loop {
        due_ns += rng.exponential(rate_per_sec).as_nanos();
        if due_ns >= horizon {
            return ops;
        }
        ops.push(Scheduled {
            id: first_id + ops.len() as u64,
            due_ns,
            op: make(rng),
        });
    }
}

/// Which serving path a request took, from its `InvocationReport`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Every cache hit: request decryption, execution, result encryption.
    Hot,
    /// Key fetch or runtime init, but the cached model was reused.
    Warm,
    /// The model was loaded (fetched, decrypted, deserialized).
    Switch,
    /// The instance's first request.
    Cold,
}

impl Class {
    /// Classifies a served request.
    #[must_use]
    pub fn of(report: &InvocationReport) -> Class {
        match report.path {
            InvocationPath::Cold => Class::Cold,
            InvocationPath::Hot => Class::Hot,
            InvocationPath::Warm if report.performed(ServingStage::ModelLoad) => Class::Switch,
            InvocationPath::Warm => Class::Warm,
        }
    }

    /// Span name of a `handle_request` call on this path.
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Hot => "runtime.hot",
            Class::Warm => "runtime.warm",
            Class::Switch => "runtime.switch",
            Class::Cold => "runtime.cold",
        }
    }
}

/// What one served operation was and how it ended.
#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    /// Whether the operation is an inference request (else a write pair).
    pub request: bool,
    /// Whether it succeeded.
    pub ok: bool,
    /// Root span id in a traced run, else 0.
    pub root: u64,
    /// When its verified result was back, on the phase clock.
    pub done_ns: u64,
}

/// One served operation with its timings on the phase clock.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    /// Operation id.
    pub id: u64,
    /// When it was due.
    pub due_ns: u64,
    /// When a sender started it.
    pub start_ns: u64,
    /// When its verified result was back.
    pub end_ns: u64,
    /// Outcome.
    pub result: OpResult,
}

impl Served {
    /// Latency from due time to result, in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// The record of one phase.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// Served operations, in due order.
    pub served: Vec<Served>,
    /// Operations never sent because the phase stopped before their turn.
    pub unsent: u64,
    /// Phase start and end on the clock.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl PhaseRun {
    /// Latencies in milliseconds of the inference requests served.
    #[must_use]
    pub fn request_latencies_ms(&self) -> Vec<f64> {
        self.served
            .iter()
            .filter(|s| s.result.request && s.result.ok)
            .map(Served::latency_ms)
            .collect()
    }

    /// Operations sent.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.served.len() as u64
    }

    /// Operations that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.served.iter().filter(|s| !s.result.ok).count() as u64
    }
}

/// Runs `ops` open-loop on [`SENDERS`] threads.  `serve(sender, op,
/// start_ns)` serves one operation and returns `None` for a control
/// operation that is not measured.  An operation not started `stop_after`
/// into the phase stays unsent, as does every later one.
pub fn run_phase<K: Sync>(
    clock: Clock,
    ops: &[Scheduled<K>],
    stop_after: Duration,
    serve: impl Fn(usize, &Scheduled<K>, u64) -> Option<OpResult> + Sync,
) -> PhaseRun {
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let start_ns = clock.now_ns() + PHASE_LEAD_NS;
    let stop_ns = start_ns + u64::try_from(stop_after.as_nanos()).unwrap_or(u64::MAX);
    let per_sender: Vec<(Vec<Served>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|sender| {
                let (next, stopped, serve) = (&next, &stopped, &serve);
                scope.spawn(move || {
                    let mut served = Vec::new();
                    let mut unsent = 0u64;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(index) else { break };
                        let due_ns = start_ns + op.due_ns;
                        if stopped.load(Ordering::Relaxed) || due_ns >= stop_ns {
                            unsent += 1;
                            continue;
                        }
                        wait_until(clock, due_ns);
                        let started_ns = clock.now_ns();
                        if started_ns >= stop_ns {
                            stopped.store(true, Ordering::Relaxed);
                            unsent += 1;
                            continue;
                        }
                        if let Some(result) = serve(sender, op, started_ns) {
                            served.push(Served {
                                id: op.id,
                                due_ns,
                                start_ns: started_ns,
                                end_ns: result.done_ns,
                                result,
                            });
                        }
                    }
                    (served, unsent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sender thread panicked"))
            .collect()
    });
    let end_ns = clock.now_ns();
    let mut run = PhaseRun {
        start_ns,
        end_ns,
        ..PhaseRun::default()
    };
    for (served, unsent) in per_sender {
        run.served.extend(served);
        run.unsent += unsent;
    }
    run.served.sort_by_key(|s| s.due_ns);
    run
}

/// Yields until `due_ns`.  Senders never sleep: on a virtual machine a
/// sleeping vCPU is descheduled by the host and may wake milliseconds late,
/// which made the generator late and the latency tail vary from run to run.
fn wait_until(clock: Clock, due_ns: u64) {
    while clock.now_ns() < due_ns {
        std::thread::yield_now();
    }
}

/// One phase of a serving run.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Offered rate.
    pub rate: f64,
    /// Length of the schedule.
    pub length: Duration,
    /// Id of the phase's first operation.
    pub first_id: u64,
}

impl Phase {
    /// How long the phase may overrun its schedule before the operations
    /// still waiting count as refused.
    const DRAIN: Duration = Duration::from_secs(5);

    /// An operation not started this long after the phase began stays
    /// unsent.
    fn stop_after(&self) -> Duration {
        self.length + Self::DRAIN
    }
}

/// The phases of a run measuring `measure` at the nominal `rate`: one
/// nominal phase untraced; traced, an untraced baseline (30%), for the
/// tracing overhead, then the traced phase (70%).
#[must_use]
pub fn phases(rate: f64, measure: Duration, traced: bool) -> Vec<Phase> {
    let phase = |share: f64, first_id| Phase {
        rate,
        length: measure.mul_f64(share),
        first_id,
    };
    if traced {
        vec![phase(0.3, 1), phase(0.7, 1 + PHASE_ID_STRIDE)]
    } else {
        vec![phase(1.0, 1)]
    }
}

/// Reports a phase on standard error.
pub fn describe(phase: &Phase, run: &PhaseRun) {
    let latencies = run.request_latencies_ms();
    eprintln!(
        "phase {} rps for {:.1} s: {} sent, {} unsent, {} failed, \
         p50 {:.3} ms, p99 {:.3} ms (n={})",
        phase.rate,
        phase.length.as_secs_f64(),
        run.attempted(),
        run.unsent,
        run.failed(),
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.99),
        latencies.len(),
    );
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A serving workload: its operations, its set-up, how it serves one
/// operation and what it checks afterwards.  [`run`] drives it.
pub trait Serving: Sized + Sync {
    /// One scheduled operation.
    type Op: Sync;

    /// The nominal request rate, fixed from the seed commit (and recorded
    /// in `BENCHMARK.json`'s workload description).
    const NOMINAL_RPS: f64;

    /// The workload's schedule for `phase`, drawn from `seed`.
    fn schedule(seed: u64, phase: &Phase) -> Vec<Scheduled<Self::Op>>;

    /// The set-up `setup_s` times, for a run that will serve `schedules`.
    fn build(
        plan: &Plan,
        schedules: &[Vec<Scheduled<Self::Op>>],
        clock: Clock,
        tracer: Option<&Tracer>,
    ) -> Result<Self, String>;

    /// Digest of the set-up's reference predictions.
    fn digest(&self) -> String;

    /// Serves one operation that a sender started at `start_ns`; `None` for
    /// a control operation that is not measured.
    fn serve(
        &self,
        tracer: Option<&Tracer>,
        sender: usize,
        op: &Scheduled<Self::Op>,
        start_ns: u64,
    ) -> Option<OpResult>;

    /// The deployment's counters now.
    fn counters(&self) -> Counters;

    /// The output checks that need the whole run.
    fn check(&self, outcome: &mut Outcome);
}

/// Runs a serving workload: set it up (several times untraced, keeping the
/// last), run its phases and report.
pub fn run<W: Serving>(name: &str, plan: &Plan, trace_path: Option<&std::path::Path>) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(message) = run_checked::<W>(plan, trace_path, &mut outcome) {
        outcome.check(false, || format!("{name}: {message}"));
    }
    outcome
}

fn run_checked<W: Serving>(
    plan: &Plan,
    trace_path: Option<&std::path::Path>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let clock = Clock::start();
    let phases = phases(W::NOMINAL_RPS, plan.measure, plan.traced);
    let schedules: Vec<_> = phases
        .iter()
        .map(|phase| W::schedule(plan.seed, phase))
        .collect();
    let tracer = plan.traced.then(|| Tracer::new(clock, SENDERS));
    let setups = if plan.traced || plan.size == Size::Smoke {
        1
    } else {
        SETUPS
    };
    let mut world: Option<W> = None;
    let mut setup_s = Vec::new();
    for _ in 0..setups {
        drop(world.take());
        let started = Instant::now();
        let built = W::build(plan, &schedules, clock, tracer.as_ref())?;
        setup_s.push(started.elapsed().as_secs_f64());
        let digest = built.digest();
        outcome.check(
            outcome.digest.is_empty() || outcome.digest == digest,
            || "repeated set-ups produced different predictions".to_string(),
        );
        outcome.digest = digest;
        world = Some(built);
    }
    let world = world.expect("at least one set-up");
    let run = |index: usize, tracer: Option<&Tracer>| {
        let phase = &phases[index];
        let run = run_phase(
            clock,
            &schedules[index],
            phase.stop_after(),
            |sender, op, start_ns| world.serve(tracer, sender, op, start_ns),
        );
        describe(phase, &run);
        run
    };
    let first = run(0, None);
    let Some(tracer) = tracer else {
        world.check(outcome);
        end_to_end(outcome, &first, median(&setup_s));
        return Ok(());
    };
    let before = world.counters();
    let traced = run(1, Some(&tracer));
    before.layer_metrics(&world.counters(), outcome);
    world.check(outcome);
    record_roots(&tracer, &traced);
    layer_metrics(outcome, &tracer.spans(), &first, &traced);
    if let Some(path) = trace_path {
        tracer
            .write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Sets the end-to-end metrics of an untraced serving run.  An operation
/// the generator could not send in time counts as refused.
pub fn end_to_end(outcome: &mut Outcome, nominal: &PhaseRun, setup_s: f64) {
    outcome.set("p50_ms", percentile(&nominal.request_latencies_ms(), 0.5));
    outcome.set("setup_s", setup_s);
    outcome.set("peak_rss_mb", crate::peak_rss_mb());
    outcome.attempted += nominal.attempted() + nominal.unsent;
    outcome.failed += nominal.failed() + nominal.unsent;
}

/// Records the root span of every traced operation (due time to result)
/// and its `loadgen.late` child (due time to start).
pub fn record_roots(tracer: &Tracer, phase: &PhaseRun) {
    for served in &phase.served {
        let root = served.result.root;
        tracer.record(
            0,
            Span {
                name: if served.result.request {
                    "request"
                } else {
                    "write"
                },
                id: root,
                parent: 0,
                req: served.id,
                start_ns: served.due_ns,
                end_ns: served.end_ns,
            },
        );
        tracer.record(
            0,
            Span {
                name: "loadgen.late",
                id: tracer.reserve_id(),
                parent: root,
                req: served.id,
                start_ns: served.due_ns,
                end_ns: served.start_ns,
            },
        );
    }
}

/// Sets the span-derived per-layer metrics of a traced serving run:
/// `baseline` is the untraced nominal phase run just before the `traced`
/// one, for the ungated tail latency and the tracing overhead.
pub fn layer_metrics(
    outcome: &mut Outcome,
    spans: &[Span],
    baseline: &PhaseRun,
    traced: &PhaseRun,
) {
    let p50 = |name: &str| median(&durations_us(spans, name));
    outcome.set("loadgen.late_us.p50", p50("loadgen.late"));
    outcome.set(
        "loadgen.late_us.p99",
        percentile(&durations_us(spans, "loadgen.late"), 0.99),
    );
    outcome.set("client.seal_us.p50", p50("client.seal"));
    outcome.set("client.open_us.p50", p50("client.open"));
    outcome.set("fnpacker.route_us.p50", p50("fnpacker.route"));
    outcome.set("keyservice.grant_us.p50", p50("keyservice.grant"));
    outcome.set(
        "keyservice.add_req_key_us.p50",
        p50("keyservice.add_req_key"),
    );
    outcome.set("keyservice.register_ms", p50("keyservice.register") / 1e3);
    outcome.set("deployment.publish_ms", p50("deployment.publish") / 1e3);
    outcome.set("deployment.deploy_ms", p50("deployment.deploy") / 1e3);
    outcome.set(
        "deployment.warmup_ms",
        durations_us(spans, "deployment.warmup").iter().sum::<f64>() / 1e3,
    );

    let classes = [Class::Hot, Class::Warm, Class::Switch, Class::Cold];
    let busy = |name: &str| durations_us(spans, name).iter().sum::<f64>();
    let total_busy: f64 =
        classes.iter().map(|c| busy(c.span_name())).sum::<f64>() + busy("runtime.error");
    for (class, p50_name, share_name) in [
        (Class::Hot, "runtime.hot_us.p50", "runtime.share.hot"),
        (Class::Warm, "runtime.warm_us.p50", "runtime.share.warm"),
        (
            Class::Switch,
            "runtime.switch_us.p50",
            "runtime.share.switch",
        ),
        (Class::Cold, "runtime.cold_us.p50", "runtime.share.cold"),
    ] {
        outcome.set(p50_name, p50(class.span_name()));
        outcome.set(share_name, ratio(busy(class.span_name()), total_busy));
    }
    let wall_us = traced.end_ns.saturating_sub(traced.start_ns) as f64 / 1e3;
    outcome.set(
        "runtime.utilization",
        ratio(total_busy, SENDERS as f64 * wall_us),
    );
    outcome.set(
        "runtime.errors",
        spans.iter().filter(|s| s.name == "runtime.error").count() as f64,
    );

    // Per-request view: latency by path, and how much of each root span its
    // children cover.
    let roots: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.req != 0)
        .map(|s| (s.id, s))
        .collect();
    let mut children: HashMap<u64, (u64, Option<Class>)> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        let Some(root) = roots.get(&span.parent) else {
            continue;
        };
        let entry = children.entry(span.parent).or_insert((0, None));
        entry.0 += span
            .end_ns
            .min(root.end_ns)
            .saturating_sub(span.start_ns.max(root.start_ns));
        if let Some(class) = classes.iter().find(|c| c.span_name() == span.name) {
            entry.1 = Some(*class);
        }
    }
    let mut coverage = Vec::new();
    let mut cold_ms = Vec::new();
    for root in roots.values() {
        let (covered, class) = children.get(&root.id).copied().unwrap_or((0, None));
        coverage.push(ratio(covered as f64, root.duration_ns() as f64));
        if class == Some(Class::Cold) {
            cold_ms.push(root.duration_ns() as f64 / 1e6);
        }
    }
    outcome.set("trace.coverage", percentile(&coverage, 0.0));
    outcome.set("cold_p50_ms", median(&cold_ms));
    outcome.set("write_p50_ms", p50("write") / 1e3);
    let baseline_ms = baseline.request_latencies_ms();
    outcome.set("p99_ms", percentile(&baseline_ms, 0.99));
    outcome.set(
        "trace.overhead_frac",
        ratio(
            percentile(&traced.request_latencies_ms(), 0.5),
            percentile(&baseline_ms, 0.5),
        ) - 1.0,
    );
    outcome.set(
        "requests",
        traced.served.iter().filter(|s| s.result.request).count() as f64,
    );
    for phase in [baseline, traced] {
        outcome.attempted += phase.attempted() + phase.unsent;
        outcome.failed += phase.failed() + phase.unsent;
    }
    outcome.set(
        "failed_frac",
        ratio(outcome.failed as f64, outcome.attempted as f64),
    );
}

/// Enclave and cache counters of a deployment, read before and after a
/// traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    requests: u64,
    key_cache_hits: u64,
    model_cache_hits: u64,
    function_ecalls: u64,
    keyservice_ecalls: u64,
    keyservice_quotes: u64,
}

impl Counters {
    /// Reads the counters of `deployment` and its serving `functions`.
    #[must_use]
    pub fn read(deployment: &Deployment, functions: &[FunctionHandle]) -> Counters {
        let keyservice = deployment.keyservice();
        let mut counters = Counters {
            keyservice_ecalls: keyservice.enclave().ecalls_served(),
            keyservice_quotes: keyservice.enclave().quotes_generated(),
            ..Counters::default()
        };
        for instance in functions.iter().filter_map(|f| deployment.instance(f)) {
            let stats = instance.stats();
            counters.requests += stats.total();
            counters.key_cache_hits += stats.key_cache_hits;
            counters.model_cache_hits += stats.model_cache_hits;
            counters.function_ecalls += instance.enclave().ecalls_served();
        }
        counters
    }

    /// Sets the counter-derived per-layer metrics for the interval from
    /// `self` to `after`.  Every KeyService ECALL in a timed phase is a
    /// connection SeMIRT opened to provision keys: the writes travel on the
    /// parties' already-open connections.
    pub fn layer_metrics(&self, after: &Counters, outcome: &mut Outcome) {
        let requests = (after.requests - self.requests) as f64;
        let provisions = (after.keyservice_ecalls - self.keyservice_ecalls) as f64;
        outcome.set(
            "runtime.key_cache_hit_ratio",
            ratio(
                (after.key_cache_hits - self.key_cache_hits) as f64,
                requests,
            ),
        );
        outcome.set(
            "runtime.model_cache_hit_ratio",
            ratio(
                (after.model_cache_hits - self.model_cache_hits) as f64,
                requests,
            ),
        );
        outcome.set(
            "enclave.ecalls_per_request",
            ratio(
                (after.function_ecalls - self.function_ecalls) as f64,
                requests,
            ),
        );
        outcome.set("keyservice.provisions", provisions);
        outcome.set(
            "keyservice.quotes_per_provision",
            ratio(
                (after.keyservice_quotes - self.keyservice_quotes) as f64,
                provisions,
            ),
        );
    }
}

/// After a serving run: every party still holds exactly its one KeyService
/// connection, and no thread is left inside a function enclave.
pub fn check_quiescent(
    outcome: &mut Outcome,
    deployment: &Deployment,
    parties: usize,
    functions: &[FunctionHandle],
) {
    let open = deployment.keyservice().open_connections();
    outcome.check(open == parties, || {
        format!("KeyService holds {open} open connections for {parties} parties")
    });
    for function in functions {
        let inside = deployment
            .instance(function)
            .map_or(0, |instance| instance.enclave().threads_inside());
        outcome.check(inside == 0, || {
            format!(
                "function {} has {inside} threads inside its enclave",
                function.id
            )
        });
    }
}

/// The three public calls `Deployment::infer` makes, as consecutive spans
/// of `chain`: seal the request with the user's request key, serve it on
/// worker `worker` of `function`'s instance, open the response.  The
/// `handle_request` span is named after the path the request took.
#[allow(clippy::too_many_arguments)]
pub fn infer_traced(
    chain: &mut Chain<'_>,
    worker: usize,
    deployment: &Deployment,
    user: &UserHandle,
    function: &FunctionHandle,
    model: &ModelId,
    features: &[f32],
    seal_seed: u64,
) -> Result<(Vec<f32>, InvocationReport), String> {
    let sealed = chain.span("client.seal", || {
        let key = user
            .request_key(model, function)
            .ok_or("user holds no request key")?;
        let instance = deployment
            .instance(function)
            .ok_or("function is not deployed")?;
        let mut rng = SessionRng::from_seed(seal_seed);
        let request =
            InferenceRequest::encrypt(user.party(), model.clone(), features, key, &mut rng);
        Ok::<_, &str>((key, instance, request))
    });
    let (key, instance, request) = sealed?;
    let served = chain.span_named(
        || instance.handle_request(worker, &request),
        |served| {
            served
                .as_ref()
                .map_or("runtime.error", |(_, report)| Class::of(report).span_name())
        },
    );
    let (response, report) = served.map_err(|e| e.to_string())?;
    let prediction = chain.span("client.open", || response.decrypt(key));
    Ok((prediction.map_err(|e| e.to_string())?, report))
}
