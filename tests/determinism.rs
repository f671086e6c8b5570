//! Determinism guarantees: the entire pipeline — workload generation,
//! functional execution, timing, energy — is a pure function of the seed.
//! Every number in EXPERIMENTS.md relies on this.

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_core::Category;
use bionic_sim::time::SimTime;
use bionic_workloads::tatp::{self, TatpConfig, TatpGenerator};

fn run(engine_seed: u64, workload_seed: u64) -> (u64, u64, u64, f64, u64) {
    let wl = TatpConfig {
        subscribers: 2_000,
        seed: workload_seed,
    };
    let mut engine = Engine::new(EngineConfig::bionic().with_seed(engine_seed));
    let tables = tatp::load(&mut engine, &wl);
    let mut generator = TatpGenerator::new(wl, tables);
    let mut at = SimTime::ZERO;
    for _ in 0..1_000 {
        let (_, prog) = generator.next();
        engine.submit(&prog, at);
        at += SimTime::from_us(2.0);
    }
    (
        engine.stats.committed,
        engine.stats.last_completion.as_ps(),
        engine.breakdown.get(Category::Btree).as_ps(),
        engine.platform.energy.total().as_j(),
        engine.stats.latency.quantile(0.99).as_ps(),
    )
}

#[test]
fn identical_seeds_give_bit_identical_results() {
    let a = run(1, 2);
    let b = run(1, 2);
    assert_eq!(a, b);
}

#[test]
fn engine_seed_changes_timing_but_not_function() {
    // The engine seed drives the probabilistic cache model: timing and
    // energy move, functional outcomes (commit counts) do not.
    let a = run(1, 2);
    let b = run(99, 2);
    assert_eq!(a.0, b.0, "commit count is functional");
    // Completion time is quantized by group-commit boundaries; the
    // stall-sensitive measures (breakdown, energy) must move with the seed.
    assert_ne!(
        (a.2, a.3.to_bits()),
        (b.2, b.3.to_bits()),
        "cache-model timing must depend on the platform seed"
    );
}

#[test]
fn workload_seed_changes_everything() {
    let a = run(1, 2);
    let b = run(1, 3);
    assert_ne!((a.1, a.3.to_bits()), (b.1, b.3.to_bits()));
}

/// The parallel figure harness must not leak scheduling order into
/// results: running an experiment subset at jobs ∈ {1, 4} produces the
/// same CSV bytes in both configurations. The subset covers every cell
/// shape: E4, E7 and E10 (one cell sweeping its own grid), E5 and E12
/// (one row per cell), E11 (two tables from five cells of very unequal
/// cost), plus E13–E16. E13 is an interesting member: its cells each
/// carry a private contention arbiter, so any shared mutable state would
/// show up here as a byte diff in `e13_hybrid.csv`. E14 is the other:
/// each of its cells owns a seeded fault injector and per-unit circuit
/// breakers, so a nondeterministic RNG draw or a wall-clock leak into
/// breaker timing would diff `e14_brownout.csv`. E15 runs every cell
/// twice — a static arm and one with the adaptive placement controller
/// armed — so a controller decision that depended on anything but the
/// sim-time window grid would diff `e15_adaptive.csv`. E16 drives whole
/// clusters — per-node engines, the seeded interconnect's per-link fault
/// substreams, and the 2PC driver — so any cross-link RNG coupling or
/// driver-order leak would diff `e16_cluster.csv`. `harness_timing.csv`
/// is the single file allowed to differ (it reports wall-clock, which is
/// the point of the parallelism). The run report (`report.json` /
/// `report.md`) is built from each configuration's CSVs and compared too,
/// so the scoreboard a CI baseline diffs against inherits the same
/// guarantee — including the knee/valley detector verdicts and the
/// attribution/window tables they summarize.
#[test]
fn harness_results_are_independent_of_jobs() {
    use bionic_bench::experiments::{build, Scale};
    use bionic_bench::harness;

    let base = std::env::temp_dir().join(format!("bionic_determinism_{}", std::process::id()));
    let mut per_config: Vec<std::collections::BTreeMap<String, Vec<u8>>> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for jobs in [1usize, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        let experiments = [
            "e4", "e5", "e7", "e10", "e11", "e12", "e13", "e14", "e15", "e16",
        ]
        .into_iter()
        .map(|id| build(id, Scale::Smoke).expect("known id"))
        .collect();
        let timing = harness::run(experiments, jobs, &dir);
        timing.table().save_and_print(&dir, "harness_timing");
        let report = bionic_bench::report::build_report(&dir, "smoke").expect("report builds");
        bionic_bench::report::write_report(&dir, &report).expect("report writes");
        let mut csvs = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(&dir).expect("results dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name == "harness_timing.csv" {
                continue;
            }
            csvs.insert(name, std::fs::read(&path).expect("read csv"));
        }
        assert!(!csvs.is_empty(), "harness produced no CSVs");
        assert!(
            csvs.contains_key("e13_hybrid.csv"),
            "E13 must write e13_hybrid.csv"
        );
        assert!(
            csvs.contains_key("e14_brownout.csv"),
            "E14 must write e14_brownout.csv"
        );
        assert!(
            csvs.contains_key("e15_adaptive.csv"),
            "E15 must write e15_adaptive.csv"
        );
        assert!(
            csvs.contains_key("e16_cluster.csv"),
            "E16 must write e16_cluster.csv"
        );
        assert!(
            csvs.contains_key("report.json"),
            "the run report must land next to the CSVs"
        );
        per_config.push(csvs);
        labels.push(format!("jobs={jobs}"));
    }
    let a = &per_config[0];
    for (b, label) in per_config[1..].iter().zip(&labels[1..]) {
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>(),
            "same set of CSV files at {label}"
        );
        for (name, bytes) in a {
            assert_eq!(
                bytes, &b[name],
                "{name} must be byte-identical at {label} vs {}",
                labels[0]
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The telemetry layer must share the harness's guarantee: trace JSON,
/// utilization, and metrics artifacts are byte-identical whether the
/// traced cells ran serially or on 4 worker threads. Sim-time-only
/// timestamps and fully specified export ordering make this hold.
#[test]
fn trace_artifacts_are_independent_of_job_count() {
    use bionic_bench::trace::run_traced;

    let base = std::env::temp_dir().join(format!("bionic_trace_det_{}", std::process::id()));
    let mut per_jobs: Vec<std::collections::BTreeMap<String, Vec<u8>>> = Vec::new();
    for jobs in [1usize, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        let written = run_traced(&dir, jobs).expect("trace export");
        assert!(!written.is_empty());
        let mut files = std::collections::BTreeMap::new();
        for path in written {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(&path).expect("read artifact"));
        }
        per_jobs.push(files);
    }
    let (a, b) = (&per_jobs[0], &per_jobs[1]);
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "same artifact set for any --jobs"
    );
    for (name, bytes) in a {
        assert_eq!(
            bytes, &b[name],
            "{name} must be byte-identical across --jobs"
        );
    }
    // Spot-check the shape: the trace is Perfetto-loadable JSON and the
    // utilization CSV names every §5 unit.
    let trace = std::str::from_utf8(&a["trace_tatp.json"]).unwrap();
    bionic_telemetry::validate_chrome_trace(trace).expect("schema-valid");
    let util = std::str::from_utf8(&a["utilization_tatp.csv"]).unwrap();
    for unit in bionic_telemetry::UNIT_NAMES {
        assert!(util.contains(&format!("fpga/{unit},")), "missing {unit}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
