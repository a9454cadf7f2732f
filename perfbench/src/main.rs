//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot|churn|sim|sim-saturated> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's output digest, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced.  A traced run also writes
//! its spans to `perfbench/out/`.  Exits 1 if an output check failed, 2 on a
//! bad command line.

use perfbench::{Plan, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        traced: traced.unwrap_or(false),
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <hot|churn|sim|sim-saturated> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let trace_path = plan.traced.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-{}.jsonl",
                plan.workload.name(),
                plan.seed
            ))
    });
    let outcome = perfbench::run(&plan, trace_path.as_deref());
    for violation in &outcome.violations {
        eprintln!("check failed: {violation}");
    }
    println!(
        "digest {} seed {}: {}",
        plan.workload.name(),
        plan.seed,
        outcome.digest
    );
    println!("{}", outcome.result_line(plan.traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
