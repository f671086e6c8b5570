//! The benchmark's checks on itself, each run as a sequence of child
//! processes of this same binary — one workload per process, never two at
//! once — so `peak_rss_mb` stays per workload.
//!
//! * [`all`]: every workload in both modes; every metric by name and unit.
//! * [`aa`]: two interleaved sets of runs of the same code must agree
//!   within each metric's own bound, and exactly on model-time numbers.
//! * [`selftest`]: an injected +10 % must be reported as a regression, an
//!   injected 0 % as none.

use std::process::{Command, Stdio};

use bionic_telemetry::report::{parse_json, JsonValue};

use crate::run::Workload;
use crate::spec::END_TO_END;
use crate::stats::{median, quartiles};

/// One child run, parsed.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Everything the child printed.
    pub stdout: String,
    /// Metric name to value.
    pub metrics: Vec<(String, f64)>,
    /// `correct` of the result line.
    pub correct: bool,
    /// The `model_digest` line's value.
    pub digest: String,
}

impl ChildRun {
    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Run this binary with `args`, wait for it, parse its result line.
pub fn child(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "child run {args:?} exited with {}:\n{stdout}",
            out.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = parse_json(last).map_err(|e| format!("child run {args:?}: result line: {e}"))?;
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!(
            "child run {args:?}: result line has no metrics object"
        ));
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("model_digest "))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or_default()
        .to_string();
    Ok(ChildRun {
        metrics,
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)),
        digest,
        stdout,
    })
}

/// Options shared by the gates.
#[derive(Debug, Clone)]
pub struct GateOpts {
    /// First seed.
    pub seed: u64,
    /// `--seconds` handed to every child.
    pub seconds: u32,
    /// Tiny counts.
    pub smoke: bool,
}

impl GateOpts {
    fn args(&self, w: Workload, seed: u64, trace: bool) -> Vec<String> {
        let mut a: Vec<String> = [
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &self.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]
        .map(String::from)
        .to_vec();
        if self.smoke {
            a.push("--smoke".into());
        }
        a
    }
}

/// Every workload, untraced then traced, one after another. Prints each
/// child's output; fails on the first incorrect run.
pub fn all(opts: &GateOpts) -> Result<(), String> {
    for w in Workload::ALL {
        for trace in [false, true] {
            let run = child(&opts.args(w, opts.seed, trace))?;
            print!("{}", run.stdout);
            if !run.correct {
                return Err(format!("{} (trace {trace}) is not correct", w.name()));
            }
        }
    }
    Ok(())
}

/// The A/A gate. Run `r` of every set uses seed `seed + r`, so a set's
/// spread is taken across seeds (as the acceptance driver takes it) while
/// runs of equal index are compared for exact model-time equality. Sets
/// are interleaved: A0 B0 A1 B1 …. Returns the Markdown report and whether
/// every check held.
pub fn aa(opts: &GateOpts, sets: usize, runs: usize) -> Result<(String, bool), String> {
    let mut ok = true;
    let mut report = format!(
        "# A/A gate: {sets} sets x {runs} runs, seeds {}..{}, --seconds {}{}\n\n\
         Spread = (Q3 - Q1) / median within a set (Python `statistics.quantiles`, n=4), \
         across seeds. Gap = how much worse set B's median is than set A's. A gap beyond the \
         metric's bound is a REGRESSION; a spread beyond it leaves the metric unresolved on \
         this host (`setup_s`: gap only). Either fails the gate.\n",
        opts.seed,
        opts.seed + runs as u64 - 1,
        opts.seconds,
        if opts.smoke { " --smoke" } else { "" },
    );
    // results[workload][set][run]
    let mut results: Vec<Vec<Vec<ChildRun>>> = vec![vec![Vec::new(); sets]; Workload::ALL.len()];
    for r in 0..runs {
        for set in 0..sets {
            for (of_workload, w) in results.iter_mut().zip(Workload::ALL) {
                let run = child(&opts.args(w, opts.seed + r as u64, false))?;
                if !run.correct {
                    return Err(format!("{} is not correct:\n{}", w.name(), run.stdout));
                }
                eprintln!("aa: run {r} set {set} {} done", w.name());
                of_workload[set].push(run);
            }
        }
    }
    for (of_workload, w) in results.iter().zip(Workload::ALL) {
        report.push_str(&format!(
            "\n## {}\n\n| metric | unit | set | median | Q1 | Q3 | spread | gap vs A | bound | verdict | runs |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
            w.name()
        ));
        for m in &END_TO_END {
            let values = |of_set: &[ChildRun]| -> Vec<f64> {
                of_set
                    .iter()
                    .map(|r| r.metric(m.name).unwrap_or(f64::NAN))
                    .collect()
            };
            let median_a = median(&values(&of_workload[0]));
            for (set, of_set) in of_workload.iter().enumerate() {
                let v = values(of_set);
                let med = median(&v);
                let (q1, q3) = if v.len() >= 2 {
                    quartiles(&v)
                } else {
                    (med, med)
                };
                let spread = (q3 - q1) / med.abs();
                let verdict = if m.regressed(median_a, med) {
                    "REGRESSION"
                } else if m.name != "setup_s" && spread > m.bound {
                    "unresolved"
                } else {
                    "ok"
                };
                ok &= verdict == "ok";
                report.push_str(&format!(
                    "| {} | {} | {} | {med:.6e} | {q1:.6e} | {q3:.6e} | {:.3} % | {:+.3} % | {:.1} % | {} | {} |\n",
                    m.name,
                    m.unit,
                    (b'A' + set as u8) as char,
                    100.0 * spread,
                    100.0 * m.worse_by(median_a, med),
                    100.0 * m.bound,
                    verdict,
                    v.iter()
                        .map(|x| format!("{x:.4e}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                ));
            }
        }
        // Exact agreement, run by run, of everything that is model time.
        let mut mismatches = Vec::new();
        for of_set in &of_workload[1..] {
            for (r, (a, b)) in of_workload[0].iter().zip(of_set).enumerate() {
                if a.digest != b.digest {
                    mismatches.push(format!(
                        "run {r}: model_digest {} vs {}",
                        a.digest, b.digest
                    ));
                }
                for m in END_TO_END.iter().filter(|m| m.exact) {
                    let (va, vb) = (a.metric(m.name), b.metric(m.name));
                    if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                        mismatches.push(format!("run {r}: {} {va:?} vs {vb:?}", m.name));
                    }
                }
            }
        }
        if mismatches.is_empty() {
            report.push_str(&format!(
                "\nExact: every `sim_*`, `allocs*`, `failed_frac` and `model_digest` of {} is \
                 bit-identical between the sets, run by run ({}).\n",
                w.name(),
                of_workload[0]
                    .iter()
                    .map(|r| r.digest.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        } else {
            ok = false;
            report.push_str(&format!(
                "\nExact: MISMATCH on {}:\n\n- {}\n",
                w.name(),
                mismatches.join("\n- ")
            ));
        }
    }
    report.push_str(&format!(
        "\n**Verdict: {}**\n",
        if ok { "PASS" } else { "FAIL" }
    ));
    Ok((report, ok))
}

/// The detection self-test on a 5 s `tatp_bionic`: the driver's timed loop
/// slowed by 0 % and by 10 % with a busy-wait inside its `core.submit` span
/// (a share of each batch's own wall time, so the slowdown is 10 % whatever
/// the host's state). Arms are interleaved, one seed. The +10 % arm must
/// read as a regression beyond `host_ns_per_txn`'s bound, the 0 % arm as
/// none, and the model digest must not move.
pub fn selftest(seed: u64) -> Result<String, String> {
    const ROUNDS: usize = 9;
    const INJECT_PCT: f64 = 10.0;
    let host = END_TO_END
        .iter()
        .find(|m| m.name == "host_ns_per_txn")
        .expect("defined");
    let short = GateOpts {
        seed,
        seconds: 5,
        smoke: false,
    };
    let arm = |inject_pct: Option<f64>| -> Result<ChildRun, String> {
        let mut args = short.args(Workload::Tatp, seed, false);
        if let Some(pct) = inject_pct {
            args.extend([
                "--selftest-arm".into(),
                "--inject-pct".into(),
                pct.to_string(),
            ]);
        }
        child(&args)
    };
    let (mut plain, mut zero, mut slowed) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests = Vec::new();
    for _ in 0..ROUNDS {
        for (inject_pct, into) in [
            (None, &mut plain),
            (Some(0.0), &mut zero),
            (Some(INJECT_PCT), &mut slowed),
        ] {
            let run = arm(inject_pct)?;
            into.push(run.metric(host.name).ok_or("no host_ns_per_txn")?);
            digests.push(run.digest);
        }
    }
    let (plain, zero, slowed) = (median(&plain), median(&zero), median(&slowed));
    let mut report = format!(
        "selftest: host_ns_per_txn plain {plain:.1}, +0 % arm {zero:.1} ({:+.2} %), \
         +{INJECT_PCT:.0} % arm {slowed:.1} ({:+.2} %), medians of {ROUNDS}, bound {:.1} %\n",
        100.0 * host.worse_by(plain, zero),
        100.0 * host.worse_by(plain, slowed),
        100.0 * host.bound,
    );
    let mut failures = Vec::new();
    if !host.regressed(plain, slowed) {
        failures.push("the slowed arm was not reported as a regression");
    }
    if host.regressed(plain, zero) || host.regressed(zero, plain) {
        failures.push("the 0 % arm was reported as a change");
    }
    if digests.iter().any(|d| *d != digests[0]) {
        failures.push("model_digest moved between arms");
    }
    if failures.is_empty() {
        report.push_str(
            "selftest: PASS (regression detected, null arm quiet, model_digest identical)\n",
        );
        Ok(report)
    } else {
        Err(format!("{report}selftest: FAIL: {}", failures.join("; ")))
    }
}
