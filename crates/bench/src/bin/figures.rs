//! Regenerate every figure and quantitative claim of the paper.
//!
//! ```sh
//! cargo run --release -p bionic-bench --bin figures             # everything
//! cargo run --release -p bionic-bench --bin figures f3 e8       # a subset
//! cargo run --release -p bionic-bench --bin figures --jobs 8    # 8 workers
//! cargo run --release -p bionic-bench --bin figures --list      # list ids
//! cargo run --release -p bionic-bench --bin figures --trace out # traced runs
//! cargo run --release -p bionic-bench --bin figures --smoke e14 # CI-sized run
//! cargo run --release -p bionic-bench --bin figures --report e13 e14 # + scoreboard
//! ```
//!
//! Each experiment prints its tables and writes `results/<id>_*.csv`.
//! EXPERIMENTS.md maps each id to the paper artifact it reproduces.
//!
//! Experiments are decomposed into independent cells and run on a
//! work-queue of `--jobs` worker threads (default: all cores). Output is
//! produced serially in fixed order, so every CSV and printed table is
//! byte-identical regardless of `--jobs`; only wall-clock time changes.
//! Per-experiment timing is written to `results/harness_timing.csv`.

use bionic_bench::experiments::{self, Scale};
use bionic_bench::harness;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: figures [--jobs N] [--list] [--smoke] [--report] [--out DIR] \
         [--trace DIR] [ids...]   ids: {}",
        experiments::ids().collect::<Vec<_>>().join(" ")
    );
    exit(2);
}

fn main() {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ids: Vec<String> = Vec::new();
    let mut trace_dir: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut scale = Scale::Full;
    let mut report = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for id in experiments::ids() {
                    println!("{id}");
                }
                return;
            }
            "--jobs" | "-j" => {
                let n = args.next().unwrap_or_else(|| usage());
                jobs = n.parse().unwrap_or_else(|_| usage());
                if jobs == 0 {
                    usage();
                }
            }
            "--trace" => {
                let d = args.next().unwrap_or_else(|| usage());
                trace_dir = Some(PathBuf::from(d));
            }
            // CI-sized cells: same code paths and determinism guarantees
            // as Full, seconds instead of minutes. Published CSVs always
            // come from a Full run, so smoke output defaults away from
            // results/ (override with --out).
            "--smoke" => scale = Scale::Smoke,
            // Assemble a run report (report.json + report.md scoreboard
            // with knee/valley detectors) from the results dir after the
            // selected experiments finish.
            "--report" => report = true,
            "--out" => {
                let d = args.next().unwrap_or_else(|| usage());
                out_dir = Some(PathBuf::from(d));
            }
            s if s.starts_with('-') => usage(),
            s => ids.push(s.to_string()),
        }
    }

    if let Some(dir) = &trace_dir {
        // Traced TATP + TPC-C streams: Perfetto trace, windowed unit/core
        // utilization, and a metrics snapshot per benchmark. Runs instead
        // of the experiment grid when invoked without ids.
        match bionic_bench::trace::run_traced(dir, jobs) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("trace export failed: {e}");
                exit(1);
            }
        }
        if ids.is_empty() {
            return;
        }
    }
    if ids.is_empty() {
        ids = experiments::ids().map(str::to_string).collect();
    }

    let mut selected = Vec::new();
    for id in &ids {
        match experiments::build(id, scale) {
            Some(e) => selected.push(e),
            None => {
                eprintln!("unknown experiment id: {id}");
                usage();
            }
        }
    }

    let results = out_dir.unwrap_or_else(|| {
        PathBuf::from(match scale {
            Scale::Full => "results",
            Scale::Smoke => "target/smoke-results",
        })
    });
    let timing = harness::run(selected, jobs, &results);
    timing.table().save_and_print(&results, "harness_timing");

    if report {
        let label = match scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        };
        match bionic_bench::report::build_report(&results, label) {
            Ok(rep) => match bionic_bench::report::write_report(&results, &rep) {
                Ok((json, md)) => {
                    println!("wrote {}", json.display());
                    println!("wrote {}", md.display());
                }
                Err(e) => {
                    eprintln!("report write failed: {e}");
                    exit(1);
                }
            },
            Err(e) => {
                eprintln!("report build failed: {e}");
                exit(1);
            }
        }
    }
}
