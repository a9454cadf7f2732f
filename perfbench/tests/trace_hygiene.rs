//! Trace hygiene: a traced `churn` run's trace file holds only span names
//! from the fixed list, ids and timings — nothing from which request keys,
//! model keys, features or predictions could be read (PAPER.md threat
//! model: traces carry only what the untrusted host already sees).

use perfbench::trace::SPAN_NAMES;
use perfbench::{Plan, Size, Workload};
use std::time::Duration;

/// The fields every span line holds, in order; all but `name` are integers.
const FIELDS: [&str; 6] = ["name", "id", "parent", "req", "start_ns", "end_ns"];

#[test]
fn churn_trace_holds_only_names_ids_and_timings() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hygiene-churn.jsonl");
    let plan = Plan {
        workload: Workload::Churn,
        seed: 3,
        measure: Duration::from_secs(2),
        traced: true,
        size: Size::Smoke,
    };
    let outcome = perfbench::run(&plan, Some(&path));
    assert!(outcome.correct(), "{:?}", outcome.violations);

    let trace = std::fs::read_to_string(&path).expect("the traced run wrote its trace");
    let mut lines = 0;
    for line in trace.lines() {
        lines += 1;
        let body = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .unwrap_or_else(|| panic!("not a flat object: {line}"));
        let fields: Vec<(&str, &str)> = body
            .split(',')
            .map(|field| {
                field
                    .split_once(':')
                    .unwrap_or_else(|| panic!("bad field in {line}"))
            })
            .collect();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.trim_matches('"')).collect();
        assert_eq!(keys, FIELDS, "{line}");
        let name = fields[0].1.trim_matches('"');
        assert!(SPAN_NAMES.contains(&name), "unknown span name in {line}");
        for (key, value) in &fields[1..] {
            assert!(
                value.parse::<u64>().is_ok(),
                "{key} is not an integer in {line}"
            );
        }
    }
    assert!(lines > 100, "the trace holds only {lines} spans");
}
