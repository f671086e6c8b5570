//! `bionic-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! bionic-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR] [--dump-blocks]
//! bionic-benchmark all      [--seed N] [--seconds S] [--smoke]
//! bionic-benchmark aa       [--sets 2] [--runs 5] [--seed N] [--seconds S] [--smoke]
//! bionic-benchmark selftest [--seed N]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bionic_benchmark::gates::{self, GateOpts};
use bionic_benchmark::run::{run_end_to_end, thread_count, RunOpts, Workload};
use bionic_benchmark::spec::{Scale, RUN_SECONDS};
use bionic_benchmark::trace::run_traced;

const USAGE: &str = "usage:
  bionic-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR] [--dump-blocks]
  bionic-benchmark all      [--seed N] [--seconds S] [--smoke]
  bionic-benchmark aa       [--sets 2] [--runs 5] [--seed N] [--seconds S] [--smoke]
  bionic-benchmark selftest [--seed N]
workloads: tatp_bionic tpcc_software htap_scan cluster_2pc";

/// Parsed command line.
#[derive(Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
    out: Option<PathBuf>,
    sets: Option<usize>,
    runs: Option<usize>,
    selftest_arm: bool,
    inject_pct: Option<f64>,
    corrupt_oracle: bool,
    dump_blocks: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    fn value<'a, T: std::str::FromStr>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<T, String> {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(value(arg, &mut it)?),
            "--seed" => a.seed = Some(value(arg, &mut it)?),
            "--seconds" => a.seconds = Some(value(arg, &mut it)?),
            "--trace" => a.trace = Some(value(arg, &mut it)?),
            "--out" => a.out = Some(value(arg, &mut it)?),
            "--sets" => a.sets = Some(value(arg, &mut it)?),
            "--runs" => a.runs = Some(value(arg, &mut it)?),
            "--inject-pct" => a.inject_pct = Some(value(arg, &mut it)?),
            "--smoke" => a.smoke = true,
            "--selftest-arm" => a.selftest_arm = true,
            "--corrupt-oracle" => a.corrupt_oracle = true,
            "--dump-blocks" => a.dump_blocks = true,
            "all" | "aa" | "selftest" if a.command.is_none() => a.command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// One workload in this process: the mode the acceptance driver calls.
fn run_workload(a: &Args) -> Result<bool, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds = a.seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    // The busy-wait exists for the detection self-test alone; a normal run
    // refuses it, so no reported number can ever include it.
    if a.inject_pct.is_some() && !a.selftest_arm {
        return Err("--inject-pct is refused outside the self-test".into());
    }
    let opts = RunOpts {
        workload,
        seed: a.seed.ok_or("--seed is required")?,
        seconds,
        scale: if a.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        },
        inject_share: a.inject_pct.map(|pct| pct / 100.0),
        corrupt_oracle: a.corrupt_oracle,
        dump_blocks: a.dump_blocks,
    };
    let outcome = match a.trace.ok_or("--trace is required")? {
        0 => run_end_to_end(&opts),
        1 => {
            let out = a
                .out
                .clone()
                .unwrap_or_else(|| PathBuf::from("benchmark/out"));
            run_traced(&opts, &out)
        }
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let threads = thread_count();
    if threads != 1 {
        return Err(format!("the benchmark ran on {threads} threads, not 1"));
    }
    // An incorrect run still prints its counts (`correct: false`, the failed
    // transactions) but exits non-zero, so it cannot pass for a measurement.
    print!("{}", outcome.render());
    for p in &outcome.problems {
        eprintln!("{}: {p}", outcome.workload);
    }
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let gate = GateOpts {
        seed: a.seed.unwrap_or(1),
        seconds: a.seconds.map_or(RUN_SECONDS, |s| s as u32),
        smoke: a.smoke,
    };
    let result = match a.command.as_deref() {
        None => run_workload(&a),
        Some("all") => gates::all(&gate).map(|()| true),
        Some("aa") => {
            gates::aa(&gate, a.sets.unwrap_or(2), a.runs.unwrap_or(5)).map(|(report, ok)| {
                print!("{report}");
                ok
            })
        }
        Some("selftest") => gates::selftest(gate.seed).map(|report| {
            print!("{report}");
            true
        }),
        Some(_) => unreachable!("parse_args admits three commands"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bionic-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
