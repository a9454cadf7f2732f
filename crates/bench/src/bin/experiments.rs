//! Runs every experiment of the SeSeMI reproduction and prints the result
//! tables as Markdown.
//!
//! ```text
//! cargo run -p sesemi_bench --bin experiments --release \
//!     [-- --seed 42] [--json] [--only F13,F14]
//!     [--scenario steady-poisson,node-crash-mid-run] [--tag lifecycle]
//!     [--list-scenarios]
//!     [--bench-json BENCH_sim_engine.json] [--bench-requests 1000000]
//!     [--bench-sweep 7,42,99]
//! ```
//!
//! `--only` filters by report id (comma-separated, e.g. `F13,T3`); the CI
//! determinism guard uses it to re-run a fixed-seed subset cheaply and
//! compare the two outputs byte for byte.  `--scenario` runs named entries
//! of the scenario corpus registry instead of the paper experiments, `--tag`
//! runs every corpus entry carrying a tag (an unknown tag exits non-zero
//! with the known-tag list, exactly as an unknown `--scenario` id does),
//! and `--list-scenarios` prints the corpus (ids, tags, descriptions) and
//! exits — its output is pinned by `tests/golden/scenarios.txt`.
//!
//! `--bench-json PATH` runs both self-timing benchmark traces — the
//! well-provisioned trace sized by `--bench-requests` (default one million)
//! and the saturated over-capacity trace at a fifth of that — and writes the
//! two-section `BENCH_sim_engine.json` (wall-clock phases, events/sec,
//! requests/sec, peak-RSS proxy per section) to PATH; CI uploads it as the
//! perf-trajectory artifact.  `--bench-sweep SEEDS` runs the
//! well-provisioned trace for every listed seed on the worker pool and
//! prints each seed's *deterministic* JSON slice to stdout (no wall-clock
//! fields), so two sweep invocations — even with the seed list shuffled —
//! are byte-comparable per seed; add `--bench-saturated` to sweep the
//! saturated trace instead (sized directly by `--bench-requests`).

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut seed = 42u64;
    let mut json = false;
    let mut only: Option<Vec<String>> = None;
    let mut scenarios: Option<Vec<String>> = None;
    let mut tag: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut bench_requests = 1_000_000u64;
    let mut bench_sweep: Option<Vec<u64>> = None;
    let mut bench_saturated = false;
    let mut iter = args.iter().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer value");
            }
            "--json" => json = true,
            "--only" => {
                let ids = iter.next().expect("--only needs a comma-separated id list");
                only = Some(ids.split(',').map(|id| id.trim().to_uppercase()).collect());
            }
            "--scenario" => {
                let ids = iter
                    .next()
                    .expect("--scenario needs a comma-separated corpus id list");
                scenarios = Some(ids.split(',').map(|id| id.trim().to_string()).collect());
            }
            "--tag" => {
                tag = Some(iter.next().expect("--tag needs a corpus tag").to_string());
            }
            "--list-scenarios" => {
                print!("{}", sesemi_scenario::ScenarioRegistry::corpus().listing());
                return;
            }
            "--bench-json" => {
                bench_json = Some(
                    iter.next()
                        .expect("--bench-json needs an output path")
                        .to_string(),
                );
            }
            "--bench-requests" => {
                bench_requests = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--bench-requests needs an integer value");
            }
            "--bench-sweep" => {
                let seeds = iter
                    .next()
                    .expect("--bench-sweep needs a comma-separated seed list");
                bench_sweep = Some(
                    seeds
                        .split(',')
                        .map(|s| s.trim().parse().expect("--bench-sweep seeds are integers"))
                        .collect(),
                );
            }
            "--bench-saturated" => bench_saturated = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--seed N] [--json] [--only IDS] \
                     [--scenario IDS] [--tag TAG] [--list-scenarios] \
                     [--bench-json PATH] [--bench-requests N] [--bench-sweep SEEDS] \
                     [--bench-saturated]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(seeds) = &bench_sweep {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .min(4);
        let variant = if bench_saturated {
            "saturated bench trace"
        } else {
            "bench trace"
        };
        eprintln!(
            "sweeping {variant} ({bench_requests} requests) over seeds {seeds:?} \
             on {workers} workers ..."
        );
        let runs = if bench_saturated {
            sesemi_bench::sims::sweep_saturated(bench_requests, seeds, workers)
        } else {
            sesemi_bench::sims::sweep(bench_requests, seeds, workers)
        };
        let rendered: Vec<String> = runs.iter().map(|r| r.deterministic_json()).collect();
        println!("[{}]", rendered.join(",\n"));
        for run in &runs {
            eprintln!(
                "seed {}: {:.1}s sim, {:.0} events/s, {:.0} requests/s",
                run.seed,
                run.simulate_seconds,
                run.events_per_sec(),
                run.requests_per_sec()
            );
        }
        return;
    }
    if let Some(path) = &bench_json {
        // The saturated trace processes far more events per simulated second
        // (every completion replays the deep retry queue), so a fifth of the
        // request count keeps the two sections comparably sized in
        // wall-clock terms.
        let saturated_requests = (bench_requests / 5).max(1);
        eprintln!(
            "running self-timing bench traces ({saturated_requests} saturated + \
             {bench_requests} well-provisioned requests, seed {seed}) ..."
        );
        // Each peak-RSS reading is the process high-water mark so far, so
        // the smaller saturated trace runs first: its reading is then its
        // own, not the larger well-provisioned trace's.
        let saturated = sesemi_bench::sims::bench_saturated_trace(saturated_requests, seed);
        let well = sesemi_bench::sims::bench_trace(bench_requests, seed);
        std::fs::write(path, sesemi_bench::sims::bench_document(&well, &saturated))
            .expect("write bench json");
        for (label, run) in [("well_provisioned", &well), ("saturated", &saturated)] {
            eprintln!(
                "{label}: {:.1}s generate + {:.1}s simulate + {:.1}s report, \
                 {:.0} events/s, {:.0} requests/s, peak RSS {} MiB",
                run.generate_seconds,
                run.simulate_seconds,
                run.report_seconds,
                run.events_per_sec(),
                run.requests_per_sec(),
                run.peak_rss_bytes / (1024 * 1024)
            );
        }
        eprintln!("wrote {path}");
        return;
    }

    let reports = if let Some(tag) = &tag {
        eprintln!("running corpus scenarios tagged {tag:?} (seed {seed}) ...");
        match sesemi_bench::sims::tag_report(seed, tag) {
            Ok(report) => vec![report],
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    } else if let Some(ids) = &scenarios {
        eprintln!(
            "running corpus scenarios {} (seed {seed}) ...",
            ids.join(",")
        );
        match sesemi_bench::sims::scenario_report(seed, ids) {
            Ok(report) => vec![report],
            Err(unknown) => {
                eprintln!(
                    "--scenario: {unknown:?} is not in the corpus; \
                     run --list-scenarios for the registry"
                );
                std::process::exit(2);
            }
        }
    } else {
        match &only {
            Some(ids) => eprintln!(
                "running SeSeMI experiments {} (seed {seed}) ...",
                ids.join(",")
            ),
            None => eprintln!("running all SeSeMI experiments (seed {seed}) ..."),
        }
        sesemi_bench::run_selected(seed, only.as_deref())
    };
    if reports.is_empty() {
        eprintln!(
            "--only {} matched no experiments",
            only.unwrap_or_default().join(",")
        );
        std::process::exit(2);
    }
    if json {
        let rendered: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        println!("[{}]", rendered.join(",\n"));
    } else {
        println!("# SeSeMI reproduction — experiment results (seed {seed})\n");
        for report in &reports {
            print!("{}", report.to_markdown());
        }
    }
    eprintln!("done: {} experiments.", reports.len());
}
