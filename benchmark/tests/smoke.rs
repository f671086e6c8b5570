//! The `--smoke` checks: tiny counts, every code path.
//!
//! * every workload and metric named in `BENCHMARK.json` is printed exactly
//!   once, with its unit, under a name made of `[A-Za-z0-9_.-]`;
//! * two in-process runs of one seed give identical model-time metrics, a
//!   different seed gives a different `model_digest`;
//! * the process never grows a worker thread;
//! * a falsified oracle expectation fails the run and the command.

use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

use bionic_benchmark::run::{run_end_to_end, thread_count, Outcome, RunOpts, Workload};
use bionic_benchmark::spec::{
    Scale, DISCRIMINATION, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use bionic_benchmark::trace::run_traced;
use bionic_telemetry::report::{parse_json, JsonValue as Json};

/// The harness runs tests side by side; the in-process ones take turns, so
/// that the thread count one of them watches holds still meanwhile.
static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock poisons nothing worth keeping.
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn smoke(workload: Workload, seed: u64) -> RunOpts {
    RunOpts {
        workload,
        seed,
        // Below any epoch's length: exactly the model epochs run.
        seconds: 0.001,
        scale: Scale::smoke(),
        inject_share: None,
        corrupt_oracle: false,
        dump_blocks: false,
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    parse_json(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// The result line: exactly the four keys, every metric once.
fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    let rendered = outcome.render();
    let doc = parse_json(rendered.lines().last().expect("a result line")).expect("JSON");
    let Json::Obj(fields) = &doc else {
        panic!("the result line is an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_agrees_with_the_code() {
    let doc = benchmark_json();
    let valid = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let e2e = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, spec) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(spec.name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
        let better = if spec.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            spec.name
        );
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            Some(spec.bound),
            "{}",
            spec.name
        );
        assert!(spec.bound <= 0.25 && valid(spec.name));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    let expect: Vec<_> = PER_LAYER.iter().chain([&DISCRIMINATION]).collect();
    assert_eq!(layers.len(), expect.len());
    for (m, spec) in layers.iter().zip(expect) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(spec.name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
        let better = if spec.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            spec.name
        );
        assert!(valid(spec.name));
    }

    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(f64::from(RUN_SECONDS))
    );
    let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths, [Json::Str("benchmark".into())]);
}

/// Later changes cite bounds from the README; its table must say what the
/// gate enforces.
#[test]
fn readme_bound_table_agrees_with_the_code() {
    let readme = include_str!("../README.md");
    for m in &END_TO_END {
        let row = readme
            .lines()
            .find(|l| l.starts_with(&format!("| `{}` |", m.name)))
            .unwrap_or_else(|| panic!("README has no row for {}", m.name));
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let better = if m.lower_is_better { "lower" } else { "higher" };
        let mut bound = format!("{} %", (100.0 * m.bound).round());
        if let Some(abs) = m.abs_bound {
            bound.push_str(&format!(", +{abs} absolute"));
        }
        assert_eq!(cells[2..5], [m.unit, better, &bound], "{}", m.name);
    }
}

#[test]
fn every_metric_is_printed_once_and_model_time_repeats() {
    let _turn = my_turn();
    let doc = benchmark_json();
    let e2e = names_and_units(&doc, "end_to_end");
    let layers = names_and_units(&doc, "per_layer");
    let out = std::env::temp_dir().join(format!("bionic-benchmark-smoke-{}", std::process::id()));
    let threads = thread_count();

    for w in Workload::ALL {
        let first = run_end_to_end(&smoke(w, 7));
        assert!(first.correct, "{}: {:?}", w.name(), first.problems);
        assert_eq!(first.failed, 0);
        assert_eq!(printed(&first), e2e, "{}", w.name());

        // Same seed: every model-time number bit-identical.
        let again = run_end_to_end(&smoke(w, 7));
        assert_eq!(first.model_digest, again.model_digest, "{}", w.name());
        for m in END_TO_END.iter().filter(|m| m.exact) {
            let value = |o: &Outcome| {
                o.metrics
                    .iter()
                    .find(|x| x.name == m.name)
                    .map(|x| x.value.to_bits())
            };
            assert_eq!(value(&first), value(&again), "{} {}", w.name(), m.name);
        }
        // Another seed: other inputs, another digest.
        let other = run_end_to_end(&smoke(w, 8));
        assert_ne!(first.model_digest, other.model_digest, "{}", w.name());

        let traced = run_traced(&smoke(w, 7), &out);
        assert_eq!(printed(&traced), layers, "{}", w.name());
        let trace = std::fs::read_to_string(out.join(format!("trace_{}.json", w.name())))
            .expect("the trace file is written");
        bionic_telemetry::validate_chrome_trace(&trace).expect("a valid Chrome trace");
    }
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(thread_count(), threads, "the benchmark spawns no thread");
}

#[test]
fn a_falsified_oracle_fails_the_run() {
    let _turn = my_turn();
    for w in Workload::ALL {
        let outcome = run_end_to_end(&RunOpts {
            corrupt_oracle: true,
            ..smoke(w, 7)
        });
        assert!(!outcome.correct, "{}", w.name());
        assert!(outcome.failed > 0, "{}", w.name());
        assert!(
            outcome.problems.iter().any(|p| p.contains("oracle")),
            "{}: {:?}",
            w.name(),
            outcome.problems
        );
    }
}

#[test]
fn the_command_exits_by_the_contract() {
    let _turn = my_turn();
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_bionic-benchmark"))
            .args(["--workload", "cluster_2pc", "--seed", "3", "--seconds", "1"])
            .args(["--trace", "0", "--smoke"])
            .args(extra)
            .output()
            .expect("the binary runs")
    };
    let ok = run(&[]);
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).unwrap();
    let last = parse_json(stdout.lines().last().unwrap()).expect("result line");
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert!(stdout.contains("model_digest cluster_2pc 0x"));

    assert!(!run(&["--corrupt-oracle"]).status.success());
    // The self-test's busy-wait is refused in a normal run.
    assert_eq!(run(&["--inject-pct", "10"]).status.code(), Some(2));
    assert_eq!(run(&["--bogus"]).status.code(), Some(2));
}
