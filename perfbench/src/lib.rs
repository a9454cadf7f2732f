//! End-to-end and per-layer benchmark of SeSeMI.
//!
//! Four workloads, each defined in this package and driven only through the
//! public APIs of the workspace crates:
//!
//! * `hot` — one function serving full-size MBNET on SeMIRT's hot path;
//! * `churn` — eight users and three models routed by the real `FnPacker`
//!   over two endpoints, so key fetches, model switches and cold starts do
//!   most of the work, with KeyService writes beside them;
//! * `sim` and `sim-saturated` ([`sims`]) — the well-provisioned
//!   1M-request and the saturated 200k-request cluster-simulator traces.
//!
//! An untraced run reports the end-to-end metrics; a traced run records spans
//! around every call into a layer and reports the per-layer metrics.  See
//! `README.md` in this directory for the metric-to-layer table.

mod churn;
mod hot;
pub mod report;
mod serving;
pub mod sims;
pub mod trace;

use report::Outcome;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hot-path serving of full-size MBNET.
    Hot,
    /// Multi-user, multi-model serving with cold starts and KeyService writes.
    Churn,
    /// The well-provisioned million-request simulator trace.
    Sim,
    /// The over-capacity simulator trace.
    SimSaturated,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Hot,
        Workload::Churn,
        Workload::Sim,
        Workload::SimSaturated,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Churn => "churn",
            Workload::Sim => "sim",
            Workload::SimSaturated => "sim-saturated",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a run is.  `Full` is what the benchmark command measures;
/// `Smoke` shrinks every fixed size so the package's tests finish in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Reduced sizes for the package's own tests.
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the run measures.
    pub measure: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Full or reduced sizes.
    pub size: Size,
}

/// Runs one plan and returns its checked outcome.  A traced run also writes
/// its spans to `trace_path`.
pub fn run(plan: &Plan, trace_path: Option<&std::path::Path>) -> Outcome {
    match plan.workload {
        Workload::Hot => serving::run::<hot::Hot>("hot", plan, trace_path),
        Workload::Churn => serving::run::<churn::Churn>("churn", plan, trace_path),
        Workload::Sim | Workload::SimSaturated => sims::run(plan, trace_path),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib: f64 = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()?;
                Some(kib / 1024.0)
            })
        })
        .unwrap_or(0.0)
}

/// Resets this process's peak resident set size to its current one, so a
/// later [`peak_rss_mb`] reads the peak of what ran in between.  Does
/// nothing where `/proc` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
