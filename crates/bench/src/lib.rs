//! # sesemi-bench
//!
//! The experiment harness: one function per table / figure of the paper's
//! evaluation (§VI and the appendix), each returning a [`report::Report`]
//! that the `experiments` binary renders as a Markdown table.  The Criterion
//! benchmarks under `benches/` wrap the same functions so `cargo bench`
//! exercises every experiment; README's "Regenerating the paper's
//! evaluation" section shows how to produce the paper-vs-measured
//! comparison.
//!
//! Experiment index (see DESIGN.md for the full mapping):
//!
//! | ID  | Function | Paper artifact |
//! |-----|----------|----------------|
//! | T1  | [`micro::table1_models`] | Table I — model and buffer sizes |
//! | F8  | [`micro::fig8_stage_ratio`] | Fig. 8 — cold-path stage latency ratio |
//! | F9  | [`micro::fig9_invocation_paths`] | Fig. 9 — hot/warm/cold vs untrusted |
//! | F10 | [`micro::fig10_memory_saving`] | Fig. 10 — enclave memory saving |
//! | F11 | [`micro::fig11_concurrency`] | Fig. 11 — latency vs concurrency |
//! | F12 | [`sims::fig12_throughput`] | Fig. 12 — p95 latency vs request rate |
//! | F13 | [`sims::fig13_mmpp_latency`] | Fig. 13 — MMPP latency over time |
//! | F14 | [`sims::fig14_mmpp_memory`] | Fig. 14 — sandboxes / memory / GB·s |
//! | E1  | [`sims::elasticity_cost`] | Fig. 14 follow-on — fixed vs autoscaled pool cost |
//! | E2  | [`sims::crash_resilience`] | Failure injection — fixed vs autoscaled pool under a node crash |
//! | E3  | [`sims::lifecycle_policies`] | Keep-alive ablation follow-on — age-only vs warm-value lifecycle |
//! | E4  | [`sims::admission_policies`] | Admission control — p99 of admitted traffic through an over-capacity burst |
//! | E5  | [`sims::batching_throughput`] | Batched execution — throughput and GB·s through an over-capacity burst |
//! | E6  | [`sims::keyservice_resilience`] | Replicated KeyService — cold-start storm p99 vs replicas, with a mid-storm crash |
//! | T2  | [`micro::table2_isolation`] | Table II — strong isolation overhead |
//! | T3  | [`sims::table3_fnpacker_poisson`] | Table III — Poisson multi-model latency |
//! | T4  | [`sims::table4_fnpacker_sessions`] | Table IV — interactive session latency |
//! | F15 | [`micro::fig15_enclave_init`] | Fig. 15 — enclave init overhead |
//! | F16 | [`micro::fig16_attestation`] | Fig. 16 — remote attestation overhead |
//! | F17 | [`micro::fig17_breakdown_sgx`] | Fig. 17 — stage breakdown inside SGX2 |
//! | F18 | [`micro::fig18_breakdown_untrusted`] | Fig. 18 — stage breakdown outside SGX |
//! | T5  | [`micro::table5_config`] | Table V — configuration parameters |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod report;
pub mod sims;

pub use report::Report;

/// One registry entry: a report id and its runner.
type Experiment = (&'static str, fn(u64) -> Report);

/// The experiment registry: `(report id, runner)` in presentation order.
/// The runners take the experiment seed (closed-form experiments ignore it).
pub const EXPERIMENTS: [Experiment; 22] = [
    ("T1", |_| micro::table1_models()),
    ("F8", |_| micro::fig8_stage_ratio()),
    ("F9", |_| micro::fig9_invocation_paths()),
    ("F10", |_| micro::fig10_memory_saving()),
    ("F11", |_| micro::fig11_concurrency()),
    ("F12", sims::fig12_throughput),
    ("F13", sims::fig13_mmpp_latency),
    ("F14", sims::fig14_mmpp_memory),
    ("E1", sims::elasticity_cost),
    ("E2", sims::crash_resilience),
    ("E3", sims::lifecycle_policies),
    ("E4", sims::admission_policies),
    ("E5", sims::batching_throughput),
    ("E6", sims::keyservice_resilience),
    ("T2", |_| micro::table2_isolation()),
    ("T3", sims::table3_fnpacker_poisson),
    ("T4", sims::table4_fnpacker_sessions),
    ("F15", |_| micro::fig15_enclave_init()),
    ("F16", |_| micro::fig16_attestation()),
    ("F17", |_| micro::fig17_breakdown_sgx()),
    ("F18", |_| micro::fig18_breakdown_untrusted()),
    ("T5", |_| micro::table5_config()),
];

/// Runs the experiments whose report ids appear in `only` (case-sensitive,
/// e.g. `["F13", "T3"]`), or all of them when `only` is `None`.  Unselected
/// experiments are never executed, which is what makes a `--only` subset run
/// cheap.
#[must_use]
pub fn run_selected(seed: u64, only: Option<&[String]>) -> Vec<Report> {
    EXPERIMENTS
        .iter()
        .filter(|(id, _)| only.map_or(true, |ids| ids.iter().any(|wanted| wanted == id)))
        .map(|(_, run)| run(seed))
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn run_selected_only_runs_the_requested_experiments() {
        // Select two closed-form experiments: exactly those two reports come
        // back, in registry order, without executing the slow simulations.
        let only = vec!["T5".to_string(), "T1".to_string()];
        let reports = super::run_selected(42, Some(&only));
        let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["T1", "T5"]);
        // An unknown id selects nothing.
        let none = super::run_selected(42, Some(&["ZZ".to_string()]));
        assert!(none.is_empty());
    }

    #[test]
    fn the_registry_ids_match_the_reports_they_produce() {
        for (id, run) in super::EXPERIMENTS {
            // Only exercise the cheap closed-form experiments here; the
            // simulation ones are covered by their own tests and the binary.
            if matches!(
                id,
                "F12" | "F13" | "F14" | "E1" | "E2" | "E3" | "E4" | "E5" | "E6" | "T3" | "T4"
            ) {
                continue;
            }
            assert_eq!(run(42).id, id);
        }
    }

    #[test]
    fn every_cheap_experiment_produces_consistent_rows() {
        // The cluster-simulation experiments are exercised by their own unit
        // tests and by the binary / benches; here we sanity-check the cheap,
        // closed-form experiments.
        let reports = vec![
            super::micro::table1_models(),
            super::micro::fig8_stage_ratio(),
            super::micro::fig9_invocation_paths(),
            super::micro::fig10_memory_saving(),
            super::micro::fig11_concurrency(),
            super::micro::table2_isolation(),
            super::micro::fig15_enclave_init(),
            super::micro::fig16_attestation(),
            super::micro::fig17_breakdown_sgx(),
            super::micro::fig18_breakdown_untrusted(),
            super::micro::table5_config(),
        ];
        for report in reports {
            assert!(!report.rows.is_empty(), "{} has no rows", report.id);
            assert!(!report.columns.is_empty(), "{} has no columns", report.id);
            for row in &report.rows {
                assert_eq!(row.len(), report.columns.len(), "{} row width", report.id);
            }
            assert!(!report.to_markdown().is_empty());
        }
    }
}
