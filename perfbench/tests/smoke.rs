//! Smoke test: every workload runs at a size that takes seconds, passes its
//! output checks, and prints exactly the metric names and units
//! `BENCHMARK.json` declares — the end-to-end list untraced, the per-layer
//! list traced.  The traced runs also meet the coverage the benchmark
//! promises: serving spans tile each request, and the simulator phases add
//! up to `sim_s`.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{Plan, Size, Workload};
use std::time::Duration;

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("the list closes")];
    let field = |entry: &str, key: &str| {
        let rest =
            &entry[entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        rest[..rest.find('"').expect("string closes")].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.rsplit_once("\": {").expect("metric entry").0;
            let name = name.rsplit('"').next().expect("metric name");
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit closes")].to_string(),
            )
        })
        .collect()
}

fn run(workload: Workload, traced: bool) -> perfbench::report::Outcome {
    let plan = Plan {
        workload,
        seed: 5,
        measure: Duration::from_secs(2),
        traced,
        size: Size::Smoke,
    };
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}.jsonl", workload.name()));
    let outcome = perfbench::run(&plan, traced.then_some(path.as_path()));
    assert!(
        outcome.correct(),
        "{}: {:?}",
        workload.name(),
        outcome.violations
    );
    assert!(outcome.attempted >= 1, "{}", workload.name());
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    outcome
}

#[test]
fn catalogs_match_benchmark_json() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    for workload in Workload::ALL {
        let untraced = run(workload, false);
        assert_eq!(
            printed(&untraced.result_line(false)),
            declared("end_to_end")
        );
        for (name, _, value) in untraced.metrics(false) {
            assert!(value > 0.0, "{}: {name} is {value}", workload.name());
        }
        let traced = run(workload, true);
        assert_eq!(printed(&traced.result_line(true)), declared("per_layer"));
        let value = |name: &str| traced.values.get(name).copied().unwrap_or(0.0);
        assert!(value("trace.coverage") >= 0.95, "{}", workload.name());
        match workload {
            Workload::Hot => assert_eq!(value("runtime.share.hot"), 1.0),
            Workload::Churn => assert!(value("keyservice.provisions") > 0.0),
            Workload::Sim | Workload::SimSaturated => {
                let phases =
                    value("cluster.build_s") + value("cluster.run_s") + value("sim.report_s");
                assert!(
                    (phases / value("sim_s") - 1.0).abs() < 0.02,
                    "{}",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_digest() {
    let digest = || run(Workload::SimSaturated, false).digest;
    assert_eq!(digest(), digest());
}
