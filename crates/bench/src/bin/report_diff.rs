//! Compare two run reports (`report.json` from `figures --report`) and
//! exit nonzero on regression; or validate a single report against the
//! schema.
//!
//! ```sh
//! report-diff --check results/report.json            # schema validation
//! report-diff baseline.json candidate.json           # diff, default tol
//! report-diff baseline.json candidate.json --tol 0.1 # 10% tolerance
//! ```
//!
//! Numeric cells matched by (experiment, row key, column) must stay
//! within `--tol` relative change; missing experiments/rows/columns and
//! detector verdict flips fail outright. The rendered verdict block ends
//! with `verdict: PASS` or `verdict: REGRESSION`.

use bionic_bench::report::{diff_reports, RunReport};
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: report-diff --check FILE | report-diff BASE NEW [--tol FRACTION]");
    exit(2);
}

fn load(path: &str) -> RunReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    RunReport::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid run report: {e}");
        exit(1);
    })
}

fn main() {
    let mut tol = 0.05f64;
    let mut check: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                let f = args.next().unwrap_or_else(|| usage());
                check = Some(f);
            }
            "--tol" => {
                let t = args.next().unwrap_or_else(|| usage());
                tol = t.parse().unwrap_or_else(|_| usage());
                if tol.is_nan() || tol < 0.0 {
                    usage();
                }
            }
            s if s.starts_with('-') => usage(),
            s => files.push(s.to_string()),
        }
    }

    if let Some(path) = check {
        if !files.is_empty() {
            usage();
        }
        let rep = load(&path);
        println!(
            "{path}: schema ok ({} experiments, scale {})",
            rep.experiments.len(),
            rep.scale
        );
        return;
    }

    if files.len() != 2 {
        usage();
    }
    let base = load(&files[0]);
    let new = load(&files[1]);
    let diff = diff_reports(&base, &new, tol);
    print!("{}", diff.render());
    if diff.regressed() {
        exit(1);
    }
}
