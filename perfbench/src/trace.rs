//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds only what the untrusted host already sees (PAPER.md threat
//! model): a name from a fixed list, ids and timings.  Spans
//! stay in memory until the run ends and are then written out as JSON lines.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Every span name a trace may hold.
pub const SPAN_NAMES: [&str; 25] = [
    "request",
    "write",
    "loadgen.late",
    "client.seal",
    "client.open",
    "client.user_lock",
    "runtime.hot",
    "runtime.warm",
    "runtime.switch",
    "runtime.cold",
    "runtime.error",
    "fnpacker.route",
    "fnpacker.complete",
    "keyservice.grant",
    "keyservice.add_req_key",
    "keyservice.register",
    "deployment.build",
    "deployment.publish",
    "deployment.deploy",
    "deployment.warmup",
    "workload.generate",
    "cluster.build",
    "cluster.run",
    "sim.report",
    "sim",
];

/// One timed call.  `parent` is 0 for a root span; `req` is the request (or
/// trace) id the span belongs to, 0 for set-up work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, one of [`SPAN_NAMES`].
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0.
    pub parent: u64,
    /// Request id, or 0 for set-up work.
    pub req: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON line.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.name, self.id, self.parent, self.req, self.start_ns, self.end_ns
        )
    }
}

/// Monotonic clock shared by the load generator and the tracer.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts a clock at 0.
    #[must_use]
    pub fn start() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Span store: one shard per recording thread, so recording never contends.
pub struct Tracer {
    clock: Clock,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer with `shards` recording threads on `clock`.
    #[must_use]
    pub fn new(clock: Clock, shards: usize) -> Self {
        Tracer {
            clock,
            next_id: AtomicU64::new(1),
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The tracer's clock.
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// A fresh span id, for a span whose end is recorded later.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span with a reserved id on `shard`.
    pub fn record(&self, shard: usize, span: Span) {
        self.shards[shard % self.shards.len()]
            .lock()
            .expect("a recording thread panicked")
            .push(span);
    }

    /// Times `f` as a span named `name` on `shard` and returns its result
    /// together with the new span's id.
    pub fn time<T>(
        &self,
        shard: usize,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.clock.now_ns();
        let value = f();
        let end_ns = self.clock.now_ns();
        let id = self.reserve_id();
        self.record(
            shard,
            Span {
                name,
                id,
                parent,
                req,
                start_ns,
                end_ns,
            },
        );
        (value, id)
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|shard| shard.lock().expect("a recording thread panicked").clone())
            .collect();
        all.sort_by_key(|span| (span.start_ns, span.id));
        all
    }

    /// Writes every span as JSON lines to `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            writeln!(out, "{}", span.json())?;
        }
        out.flush()
    }
}

/// Durations in microseconds of every span called `name`.
#[must_use]
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64 / 1e3)
        .collect()
}

/// Runs `f`, timing it as a set-up span on shard 0 when a tracer is given.
pub fn step<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.time(0, name, 0, 0, f).0,
        None => f(),
    }
}

/// Consecutive spans of one operation under `root`: each span starts where
/// the previous one ended, so the spans tile the operation from its start
/// and the time between two calls is charged to the later one.
pub struct Chain<'a> {
    tracer: &'a Tracer,
    shard: usize,
    root: u64,
    req: u64,
    at_ns: u64,
}

impl<'a> Chain<'a> {
    /// A chain recording on `shard` that starts at `start_ns`.
    #[must_use]
    pub fn new(tracer: &'a Tracer, shard: usize, root: u64, req: u64, start_ns: u64) -> Self {
        Chain {
            tracer,
            shard,
            root,
            req,
            at_ns: start_ns,
        }
    }

    /// Where the chain has got to: the end of its last span.
    #[must_use]
    pub fn at_ns(&self) -> u64 {
        self.at_ns
    }

    /// Runs `f` as the next span, called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_named(f, |_| name)
    }

    /// Runs `f` as the next span, named after its result.
    pub fn span_named<T>(
        &mut self,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let value = f();
        let end_ns = self.tracer.clock().now_ns();
        self.tracer.record(
            self.shard,
            Span {
                name: name(&value),
                id: self.tracer.reserve_id(),
                parent: self.root,
                req: self.req,
                start_ns: self.at_ns,
                end_ns,
            },
        );
        self.at_ns = end_ns;
        value
    }
}
