//! Every figure/claim experiment, decomposed into harness cells.
//!
//! This is the library behind the `figures` binary: each experiment from
//! EXPERIMENTS.md is built as a [`Experiment`] whose independent
//! (config × workload × parameter) cells run on the parallel harness. All
//! output is produced serially and deterministically — see `harness.rs`
//! for the rules that keep `results/*.csv` byte-identical across `--jobs`
//! values.
//!
//! [`Scale::Smoke`] shrinks workload sizes so integration tests can drive
//! the same code paths quickly; published numbers use [`Scale::Full`].

use crate::harness::{Cell, CellOut, Experiment};
use crate::{f, Table};
use bionic_btree::probe::{ProbeEngine, ProbeEngineConfig};
use bionic_btree::tree::BTree;
use bionic_core::breakdown::Category;
use bionic_core::config::{EngineConfig, LogImpl, Offloads};
use bionic_core::engine::Engine;
use bionic_core::placement::PlacementConfig;
use bionic_overlay::overlay::OverlayIndex;
use bionic_queue::sched::{simulate_chain, ParkPolicy};
use bionic_queue::timing::{HwQueueTiming, SwQueueTiming};
use bionic_scan::predicate::{CmpOp, ColPredicate, ScanRequest};
use bionic_scan::scanner::{scan_enhanced, scan_software, ScannerConfig};
use bionic_sim::darksilicon::{figure1_curves, ChipGeneration};
use bionic_sim::energy::EnergyDomain;
use bionic_sim::fault::HwFaultConfig;
use bionic_sim::fpga::FpgaFabric;
use bionic_sim::mem::{AccessClass, SgDram};
use bionic_sim::platform::Platform;
use bionic_sim::time::SimTime;
use bionic_storage::columnar::{Column, ColumnarTable};
use bionic_wal::timing::{ConsolidatedLog, HwLog, LatchedLog, LogInsertModel, SwLogParams};
use bionic_workloads::hybrid::{run_hybrid, HybridConfig, HybridReport};
use bionic_workloads::tatp::{self, TatpConfig, TatpGenerator, TatpTxn};
use bionic_workloads::tpcc::{self, TpccConfig, TpccTxn};

/// Workload sizing: full figures or a fast deterministic subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Published experiment sizes.
    Full,
    /// Reduced sizes for integration tests (same code paths, same
    /// determinism guarantees, seconds instead of minutes).
    Smoke,
}

impl Scale {
    /// Pick `full` or `smoke` by scale.
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }

    fn subscribers(self) -> i64 {
        self.pick(20_000, 2_000)
    }
}

/// Transactions handed to `Engine::submit_batch` per group in the figure
/// sweeps: large enough that same-table probes share descents, small
/// enough to stay far below any run's transaction count.
const SUBMIT_BATCH: usize = 32;

/// A registry entry: the experiment id and its scale-aware builder.
pub type RegistryEntry = (&'static str, fn(Scale) -> Experiment);

/// The experiment registry — the single source of truth for ids, run
/// order, `figures --list`, and [`build`]. Adding an experiment here is
/// the *only* step needed for the binary, the harness, and the default
/// run order to pick it up (the id list used to be duplicated between
/// this module and the builder match, which is how a new experiment could
/// silently miss the CLI).
pub const REGISTRY: [RegistryEntry; 16] = [
    ("f1", |_| f1()),
    ("f2", |_| f2()),
    ("f3", f3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("e15", e15),
    ("e16", e16),
];

/// All experiment ids in run order, derived from [`REGISTRY`].
pub fn ids() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|(id, _)| *id)
}

/// Build one experiment by id (a [`REGISTRY`] lookup).
pub fn build(id: &str, scale: Scale) -> Option<Experiment> {
    REGISTRY
        .iter()
        .find(|(rid, _)| *rid == id)
        .map(|(_, f)| f(scale))
}

// ---------------------------------------------------------------- F1 ----

/// Figure 1: fraction of chip utilized vs. parallelism, 2011 vs 2018.
fn f1() -> Experiment {
    let cell = Cell::new(|| {
        let mut out = CellOut::default();
        for (tag, cores) in [("2011_64cores", 64u64), ("2018_1024cores", 1024)] {
            let curves = figure1_curves(cores);
            let mut t = Table::default();
            for i in 0..curves[0].points.len() {
                let mut row = vec![("cores".to_string(), curves[0].points[i].0.to_string())];
                for c in &curves {
                    row.push((
                        format!("serial_{}pct", c.serial_frac * 100.0),
                        f(c.points[i].1),
                    ));
                }
                t.push(row);
            }
            out.tables.push((format!("f1_{tag}"), t));
        }
        let g = ChipGeneration::y2018();
        out.notes.push(format!(
            "power envelope 2018: {}/{} cores powered ({}% dark, §2's conservative calculation)\n",
            g.powered_cores(),
            g.cores,
            g.dark_fraction * 100.0
        ));
        out
    });
    Experiment {
        id: "f1",
        title: "### F1 — Figure 1: dark silicon & Amdahl chip utilization\n",
        cells: vec![cell],
        claims: None,
    }
}

// ---------------------------------------------------------------- F2 ----

/// Figure 2: validate every modeled platform path against its label.
fn f2() -> Experiment {
    let cell = Cell::new(|| {
        let mut t = Table::default();

        // PCIe: 1000 x 1 MiB bulk transfers, and a 64 B round trip.
        let mut p = Platform::hc2();
        let mut done = SimTime::ZERO;
        for _ in 0..1000 {
            done = p.pcie_transfer(SimTime::ZERO, 1 << 20).max(done);
        }
        let bw = (1000u64 * (1 << 20)) as f64 / done.as_secs();
        let rt = p.pcie_exchange(done, 64, SimTime::ZERO, 64) - done;
        t.push([
            ("path", "PCIe 8x".into()),
            ("configured_bw", "4.0e9 B/s".into()),
            ("measured_bw", format!("{:.2e} B/s", bw)),
            ("configured_latency", "2 us RT".into()),
            ("measured_latency", format!("{:.2} us RT", rt.as_us())),
        ]);

        // SG-DRAM: random 64-bit requests, pipelined.
        let mut sg = SgDram::hc2();
        let (first, _) = sg.access(SimTime::ZERO);
        let n = 100_000u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = sg.access(SimTime::ZERO).0;
        }
        t.push([
            ("path", "SG-DRAM".into()),
            ("configured_bw", "8.0e10 B/s".into()),
            (
                "measured_bw",
                format!("{:.2e} B/s", (n * 8) as f64 / last.as_secs()),
            ),
            ("configured_latency", "400 ns".into()),
            ("measured_latency", format!("{:.0} ns", first.as_ns())),
        ]);

        // SAS array: sequential stream vs random read.
        let mut p = Platform::hc2();
        let mut at = SimTime::ZERO;
        let chunk = 8u64 << 20;
        for i in 0..64u64 {
            at = p.sas_read(at, i * chunk, chunk);
        }
        let sas_bw = (64 * chunk) as f64 / at.as_secs();
        let rand_read = p.sas_read(at, 0, 8192) - at;
        t.push([
            ("path", "2x SAS".into()),
            ("configured_bw", "1.5e9 B/s".into()),
            ("measured_bw", format!("{:.2e} B/s", sas_bw)),
            ("configured_latency", "5 ms seek".into()),
            ("measured_latency", format!("{:.2} ms", rand_read.as_ms())),
        ]);

        // SSD.
        let mut p = Platform::hc2();
        let mut at = SimTime::ZERO;
        for i in 0..64u64 {
            at = p.ssd_write(at, i * chunk, chunk);
        }
        let ssd_bw = (64 * chunk) as f64 / at.as_secs();
        let ssd_lat = p.ssd_write(at, 1 << 40, 512) - at;
        t.push([
            ("path", "SSD".into()),
            ("configured_bw", "5.0e8 B/s".into()),
            ("measured_bw", format!("{:.2e} B/s", ssd_bw)),
            ("configured_latency", "20 us".into()),
            ("measured_latency", format!("{:.1} us", ssd_lat.as_us())),
        ]);

        // Host memory: expected latencies per access class.
        let p = Platform::hc2();
        for class in AccessClass::ALL {
            let lat = p.cpu_mem.expected_latency(class);
            t.push([
                ("path", format!("host mem ({class:?})")),
                ("configured_bw", "-".into()),
                ("measured_bw", "-".into()),
                ("configured_latency", "-".into()),
                ("measured_latency", format!("{:.1} ns", lat.as_ns())),
            ]);
        }
        CellOut::table("f2_platform", t)
    });
    Experiment {
        id: "f2",
        title: "### F2 — Figure 2: platform path characterization\n",
        cells: vec![cell],
        claims: None,
    }
}

// ---------------------------------------------------------------- F3 ----

/// One F3 run: breakdown rows for the shared table plus
/// `[btree_fraction, log_fraction, total_ns_per_txn]` for the claims.
fn f3_cell(label: &'static str, bionic: bool, workload: &'static str, scale: Scale) -> Cell {
    Cell::new(move || {
        let cfg = if bionic {
            EngineConfig::bionic()
        } else {
            EngineConfig::software()
        };
        let report = match workload {
            "tatp" => {
                let wl = TatpConfig {
                    subscribers: scale.subscribers(),
                    ..Default::default()
                };
                let mut engine = Engine::new(cfg);
                let tables = tatp::load(&mut engine, &wl);
                let mut g = TatpGenerator::new(wl, tables);
                bionic_workloads::run_batched(
                    &mut engine,
                    scale.pick(5_000, 800),
                    SimTime::from_us(2.0),
                    SUBMIT_BATCH,
                    || ("UpdSubData", g.program(TatpTxn::UpdateSubscriberData)),
                )
            }
            _ => {
                let wl = TpccConfig::default();
                let mut engine = Engine::new(cfg);
                let (_, mut g) = tpcc::load(&mut engine, &wl);
                bionic_workloads::run_batched(
                    &mut engine,
                    scale.pick(2_000, 400),
                    SimTime::from_us(10.0),
                    SUBMIT_BATCH,
                    || ("StockLevel", g.program(TpccTxn::StockLevel)),
                )
            }
        };
        let mut t = Table::default();
        for (c, pct) in report.breakdown.percentages() {
            if c != Category::Lock {
                t.push([
                    ("workload", label.to_string()),
                    ("category", c.label().to_string()),
                    ("percent", f(pct)),
                ]);
            }
        }
        CellOut {
            tables: vec![("f3_breakdown".into(), t)],
            values: vec![
                report.breakdown.fraction(Category::Btree),
                report.breakdown.fraction(Category::Log),
                report.breakdown.total().as_ns() / report.submitted.max(1) as f64,
            ],
            notes: vec![],
        }
    })
    .cost(40)
}

/// Figure 3: time breakdown of TATP-UpdSubData and TPCC-StockLevel on the
/// software (conventional multicore) DORA engine, plus the Figure-4 payoff
/// on the bionic engine.
fn f3(scale: Scale) -> Experiment {
    Experiment {
        id: "f3",
        title: "### F3 — Figure 3: time breakdown on a conventional multicore\n",
        cells: vec![
            f3_cell("TATP-UpdSubData", false, "tatp", scale),
            f3_cell("TPCC-StockLevel", false, "tpcc", scale),
            f3_cell("TATP-UpdSubData-bionic", true, "tatp", scale),
            f3_cell("TPCC-StockLevel-bionic", true, "tpcc", scale),
        ],
        claims: Some(Box::new(|outs| {
            let (tatp_sw, tpcc_sw, tpcc_bi) = (&outs[0].values, &outs[1].values, &outs[3].values);
            CellOut {
                notes: vec![
                    format!(
                        "figure-4 payoff: StockLevel CPU time {} -> {} per txn; Btree share \
                         {:.1}% -> {:.1}%\n",
                        SimTime::from_ns(tpcc_sw[2]),
                        SimTime::from_ns(tpcc_bi[2]),
                        100.0 * tpcc_sw[0],
                        100.0 * tpcc_bi[0],
                    ),
                    format!(
                        "shape checks: StockLevel Btree = {:.1}% (paper: \"40% or more\"); \
                         UpdSubData Log = {:.1}% (visible) vs StockLevel Log = {:.1}% (nil)\n",
                        100.0 * tpcc_sw[0],
                        100.0 * tatp_sw[1],
                        100.0 * tpcc_sw[1],
                    ),
                ],
                ..Default::default()
            }
        })),
    }
}

// ---------------------------------------------------------------- E4 ----

/// §5.3: the hardware tree-probe engine — outstanding-request sweep,
/// string keys, and software-vs-hardware cost per probe.
fn e4(scale: Scale) -> Experiment {
    // (a) Capacity and mean latency at 90 % load per outstanding-request
    // budget; the first point is the speedup base.
    let sweep = Cell::new(move || {
        let mut t = Table::default();
        let mut base_rate = None;
        for outstanding in [1usize, 2, 4, 8, 12, 16, 24, 32] {
            let mut fabric = FpgaFabric::hc2();
            let mut eng = ProbeEngine::place(
                &mut fabric,
                ProbeEngineConfig {
                    max_outstanding: outstanding,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut sg = SgDram::hc2();
            let cap = eng.capacity_per_sec(3, 1, &sg);
            let inter = SimTime::from_secs(1.0 / (0.9 * cap));
            let n = scale.pick(10_000, 1_000);
            let mut at = SimTime::ZERO;
            let mut total = SimTime::ZERO;
            for _ in 0..n {
                total += eng.submit(at, 3, 1, &mut sg).time() - at;
                at += inter;
            }
            t.push([
                ("outstanding", outstanding.to_string()),
                ("capacity_probes_per_sec", f(cap)),
                ("speedup_vs_1", f(cap / *base_rate.get_or_insert(cap))),
                ("p_mean_latency_us_at_90pct", f(total.as_us() / n as f64)),
            ]);
        }
        CellOut::table("e4_outstanding", t)
    });

    let tree_keys: i64 = scale.pick(200_000, 20_000);

    // (b) Per-probe cost: software vs hardware, int vs string keys.
    let per_probe = Cell::new(move || {
        let mut tree = BTree::with_order(256);
        for i in 0..tree_keys {
            tree.insert(i, i as u64);
        }
        let (_, fp) = tree.get(&(tree_keys / 2));
        let mut p = Platform::hc2();
        let before = p.energy.total();
        let mut cpu = p.sw_step(30 + 3 * fp.comparisons as u64, 0, AccessClass::Hot);
        cpu += p.cpu_mem_access(AccessClass::Index, fp.inner_visited as u64);
        cpu += p.cpu_mem_access(AccessClass::PointerChase, fp.leaves_visited as u64);
        let sw_energy = (p.energy.total() - before).as_nj();
        let mut t = Table::of([
            ("path", "software".into()),
            ("key", "i64".into()),
            ("latency_us", f(cpu.as_us())),
            ("cpu_busy_ns", f(cpu.as_ns())),
            ("energy_nJ", f(sw_energy)),
        ]);
        let mut hw_energy = 0.0;
        for (key, factor) in [("i64", 1u32), ("str24B", 3)] {
            let mut fabric = FpgaFabric::hc2();
            let mut eng = ProbeEngine::hc2(&mut fabric).unwrap();
            let mut sg = SgDram::hc2();
            let out = eng.submit(SimTime::ZERO, fp.nodes_visited(), factor, &mut sg);
            if factor == 1 {
                hw_energy = out.energy().as_nj();
            }
            t.push([
                ("path", "hardware".into()),
                ("key", key.into()),
                ("latency_us", f(out.time().as_us() + 2.0)), // + PCIe round trip
                ("cpu_busy_ns", "16".into()),                // doorbell
                ("energy_nJ", f(out.energy().as_nj())),
            ]);
        }
        CellOut {
            tables: vec![("e4_per_probe".into(), t)],
            values: vec![],
            notes: vec![format!(
                "claims: throughput flattens at ~12 outstanding (the §5.3 \"dozen\"); \
                 a hardware probe is slower per-request but {}x cheaper in total \
                 energy and ~10x cheaper in core-time ({} ns vs 16 ns of CPU)\n",
                f(sw_energy / hw_energy),
                f(cpu.as_ns()),
            )],
        }
    });

    // (c) The software counter-measure §5.3 cites: PALM-style batching
    // amortizes descents but cannot remove the leaf-level pointer chase.
    let palm = Cell::new(move || {
        let mut tree = BTree::with_order(256);
        for i in 0..tree_keys {
            tree.insert(i, i as u64);
        }
        let mut t = Table::default();
        for batch in [16usize, 64, 256] {
            let mut keys: Vec<i64> = (0..batch as i64).map(|i| i * 701 % tree_keys).collect();
            let (_, bfp) = tree.batch_get(&mut keys);
            let mut singles = 0;
            for k in &keys {
                singles += tree.get(k).1.nodes_visited();
            }
            t.push([
                ("batch", batch.to_string()),
                (
                    "nodes_per_probe_single",
                    f(singles as f64 / keys.len() as f64),
                ),
                (
                    "nodes_per_probe_batched",
                    f(bfp.nodes_visited() as f64 / keys.len() as f64),
                ),
            ]);
        }
        CellOut::table("e4_palm_batching", t)
    });

    Experiment {
        id: "e4",
        title: "### E4 — §5.3: tree probe engine\n",
        cells: vec![sweep, per_probe, palm],
        claims: None,
    }
}

// ---------------------------------------------------------------- E5 ----

/// §5.4: log insertion scalability — latched vs consolidated vs hardware.
/// One cell per thread count prices the three log models in turn.
fn e5(scale: Scale) -> Experiment {
    let cells: Vec<Cell> = [1usize, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|threads| {
            Cell::new(move || {
                let bytes = 120u64;
                let think = SimTime::from_ns(200.0);
                let params = SwLogParams::default();
                let mut fabric = FpgaFabric::hc2();
                let models: [Box<dyn LogInsertModel>; 3] = [
                    Box::new(LatchedLog::new(params)),
                    Box::new(ConsolidatedLog::new(params)),
                    Box::new(HwLog::hc2(&mut fabric).unwrap()),
                ];
                // `(inserts/s, cpu ns per insert)` per model.
                let [latched, consolidated, hardware] = models.map(|mut m| {
                    let mut clocks = vec![SimTime::ZERO; threads];
                    let n = scale.pick(30_000, 6_000);
                    let mut last = SimTime::ZERO;
                    let mut busy = SimTime::ZERO;
                    for i in 0..n {
                        let th = (i % threads as u64) as usize;
                        let out = m.insert(clocks[th] + think, th, bytes);
                        clocks[th] = clocks[th] + think + out.cpu_busy;
                        busy += out.cpu_busy;
                        last = last.max(out.buffered_at);
                    }
                    (n as f64 / last.as_secs(), busy.as_ns() / n as f64)
                });
                CellOut::table(
                    "e5_log_scaling",
                    Table::of([
                        ("threads", threads.to_string()),
                        ("latched_ins_per_s", f(latched.0)),
                        ("consolidated_ins_per_s", f(consolidated.0)),
                        ("hardware_ins_per_s", f(hardware.0)),
                        ("latched_cpu_ns", f(latched.1)),
                        ("hw_cpu_ns", f(hardware.1)),
                    ]),
                )
            })
        })
        .collect();
    Experiment {
        id: "e5",
        title: "### E5 — §5.4: log insertion under contention\n",
        cells,
        claims: Some(Box::new(|_| {
            CellOut::note(
                "claims: latched plateaus once the latch saturates; consolidation \
                 lifts the plateau ([7]); the hardware engine keeps scaling and its \
                 per-insert CPU cost is constant\n",
            )
        })),
    }
}

// ---------------------------------------------------------------- E6 ----

/// §5.5: queue costs and the scheduling problem hardware does not solve.
fn e6(scale: Scale) -> Experiment {
    let cell = Cell::new(move || {
        let mut out = CellOut::default();
        let mut sw = SwQueueTiming::default();
        let mut fabric = FpgaFabric::hc2();
        let mut hw = HwQueueTiming::hc2(&mut fabric).unwrap();
        let mut t = Table::of([
            ("op", "enqueue".into()),
            (
                "software_same_socket_ns",
                f(sw.enqueue(false).cpu_busy.as_ns()),
            ),
            (
                "software_cross_socket_ns",
                f(sw.enqueue(true).cpu_busy.as_ns()),
            ),
            ("hardware_ns", f(hw.enqueue(SimTime::ZERO).cpu_busy.as_ns())),
        ]);
        t.push([
            ("op", "dequeue".into()),
            (
                "software_same_socket_ns",
                f(sw.dequeue(false).cpu_busy.as_ns()),
            ),
            (
                "software_cross_socket_ns",
                f(sw.dequeue(true).cpu_busy.as_ns()),
            ),
            ("hardware_ns", f(hw.dequeue(SimTime::ZERO).cpu_busy.as_ns())),
        ]);
        out.tables.push(("e6_queue_ops".into(), t));

        // Convoys: parking policy x wake latency.
        let mut t = Table::default();
        for (policy, name) in [
            (ParkPolicy::Spin, "spin"),
            (ParkPolicy::ParkImmediately, "park-eager"),
            (
                ParkPolicy::ParkAfter(SimTime::from_us(20.0)),
                "park-20us-grace",
            ),
        ] {
            for wake_us in [0.8, 8.0] {
                let r = simulate_chain(
                    4,
                    scale.pick(20_000, 4_000),
                    SimTime::from_us(1.0),
                    10,
                    SimTime::from_us(50.0),
                    SimTime::from_ns(500.0),
                    SimTime::from_us(wake_us),
                    policy,
                );
                t.push([
                    ("policy", name.into()),
                    ("wake_us", f(wake_us)),
                    ("p99_latency_us", f(r.latency.quantile(0.99).as_us())),
                    ("wakes", r.wakes.to_string()),
                    ("spin_waste_ms", f(r.spin_waste.as_ms())),
                ]);
            }
        }
        out.tables.push(("e6_convoys".into(), t));
        out.notes.push(
            "claims: hardware cuts queue op cost ~10x, but eager parking still \
             convoys even with 10x faster wakes — \"it will not magically solve \
             the scheduling problem\"\n"
                .into(),
        );
        out
    });
    Experiment {
        id: "e6",
        title: "### E6 — §5.5: queue management\n",
        cells: vec![cell],
        claims: None,
    }
}

// ---------------------------------------------------------------- E7 ----

/// §5.6: the overlay database — (a) read paths, (b) merge amortization,
/// (c) historical patching, all against one base table.
fn e7(scale: Scale) -> Experiment {
    let rows: i64 = scale.pick(100_000, 20_000);
    let cell = Cell::new(move || {
        let mut out = CellOut::default();
        let base: Vec<(i64, u64)> = (0..rows).map(|i| (i, i as u64)).collect();

        // (a) Read paths: delta hit vs main fallthrough vs non-resident
        // miss.
        let mut ov = OverlayIndex::new(base.clone(), usize::MAX);
        for i in 0..1_000i64.min(rows / 4) {
            ov.put(i, 7, i as u64 + 1);
        }
        let (_, fp_hit) = ov.get_latest(&(rows / 200));
        let mut t = Table::of([
            ("read_path", "delta hit".into()),
            ("nodes_visited", fp_hit.nodes_visited().to_string()),
            ("note", "buffered write answered from delta".into()),
        ]);
        let (_, fp_miss) = ov.get_latest(&(rows / 2));
        t.push([
            ("read_path", "main fallthrough".into()),
            ("nodes_visited", fp_miss.nodes_visited().to_string()),
            ("note", "delta probe + main probe".into()),
        ]);
        let tight = OverlayIndex::new(base.clone(), 1 << 18);
        let misses = (0..rows).filter(|k| tight.probe_would_miss(k)).count();
        t.push([
            ("read_path", "non-resident".into()),
            ("nodes_visited", "-".into()),
            (
                "note",
                format!(
                    "budget 256KiB -> {:.1}% probes abort to software+SAS",
                    100.0 * misses as f64 / rows as f64
                ),
            ),
        ]);
        out.tables.push(("e7_read_paths".into(), t));

        // (b) Merge amortization: bytes written back per buffered write.
        let mut t = Table::default();
        for batch in [1_000u64, 5_000, 20_000, 50_000] {
            let mut ov = OverlayIndex::new(base.clone(), usize::MAX);
            let mut v = 0;
            for i in 0..batch {
                v += 1;
                ov.put((i as i64 * 17) % rows, i, v);
            }
            let report = ov.merge(v);
            t.push([
                ("delta_writes_before_merge", batch.to_string()),
                ("merge_bytes", report.bytes_written.to_string()),
                (
                    "bytes_per_write",
                    f(report.bytes_written as f64 / batch as f64),
                ),
                ("retained", report.entries_retained.to_string()),
            ]);
        }
        out.tables.push(("e7_merge_amortization".into(), t));

        // (c) Historical patching: a query as-of an old version sees old
        // data.
        let mut ov = OverlayIndex::new(base, usize::MAX);
        ov.put(42, 999, 10);
        ov.delete(43, 11);
        let mut rows_old = Vec::new();
        ov.range_asof(&42, &45, 5, |k, v| rows_old.push((*k, v)));
        let mut rows_new = Vec::new();
        ov.range_asof(&42, &45, 11, |k, v| rows_new.push((*k, v)));
        out.notes.push(format!(
            "historical patching: asof v5 -> {rows_old:?}; asof v11 -> {rows_new:?} \
             (HANA-style: updates patched into history on read)\n"
        ));
        out
    })
    .cost(7);
    Experiment {
        id: "e7",
        title: "### E7 — §5.6: overlay database\n",
        cells: vec![cell],
        claims: None,
    }
}

// ---------------------------------------------------------------- E8 ----

fn run_tatp(
    cfg: EngineConfig,
    subscribers: i64,
    n: u64,
    inter: SimTime,
) -> bionic_workloads::WorkloadReport {
    let wl = TatpConfig {
        subscribers,
        ..Default::default()
    };
    let mut engine = Engine::new(cfg);
    let tables = tatp::load(&mut engine, &wl);
    let mut g = TatpGenerator::new(wl, tables);
    bionic_workloads::run_batched_pooled(&mut engine, n, inter, SUBMIT_BATCH, &mut g)
}

fn run_tpcc(cfg: EngineConfig, n: u64, inter: SimTime) -> bionic_workloads::WorkloadReport {
    let wl = TpccConfig::default();
    let mut engine = Engine::new(cfg);
    let (_, mut g) = tpcc::load(&mut engine, &wl);
    bionic_workloads::run_batched(&mut engine, n, inter, SUBMIT_BATCH, || {
        let (t, p) = g.next();
        (t.label(), p)
    })
}

/// Measure a configuration: capacity from an overloaded run (arrivals far
/// above service rate), then latency/energy from a run at ~70% of that
/// capacity.
fn measure(
    cfg: &EngineConfig,
    workload: &str,
    scale: Scale,
) -> (f64, bionic_workloads::WorkloadReport) {
    let (overload_inter, n) = if workload == "tatp" {
        (SimTime::from_ns(100.0), scale.pick(20_000, 3_000))
    } else {
        (SimTime::from_ns(1000.0), scale.pick(6_000, 1_000))
    };
    let cap_report = if workload == "tatp" {
        run_tatp(cfg.clone(), scale.subscribers(), n, overload_inter)
    } else {
        run_tpcc(cfg.clone(), n, overload_inter)
    };
    let capacity = cap_report.throughput_per_sec;
    let inter = SimTime::from_secs(1.0 / (0.7 * capacity));
    let loaded = if workload == "tatp" {
        run_tatp(cfg.clone(), scale.subscribers(), n, inter)
    } else {
        run_tpcc(cfg.clone(), n, inter)
    };
    (capacity, loaded)
}

/// §1/§3 headline: end-to-end software vs bionic (+ per-unit ablation).
fn e8(scale: Scale) -> Experiment {
    let mut cells: Vec<Cell> = Vec::new();

    // Cost hints (relative serial seconds, ~centisecond units): the TATP
    // capacity+loaded measurements dominate the whole suite's makespan,
    // so they must enter the work queue first.
    const COST_MEASURE_TATP: u64 = 65;
    const COST_MEASURE_TPCC: u64 = 30;
    const COST_PER_TYPE: u64 = 10;

    // Grid: 3 engines x 2 workloads, one cell each.
    for (name, cfg) in [
        ("conventional", EngineConfig::conventional()),
        ("dora-software", EngineConfig::software()),
        ("bionic", EngineConfig::bionic()),
    ] {
        for workload in ["tatp", "tpcc"] {
            let cfg = cfg.clone();
            let cost = if workload == "tatp" {
                COST_MEASURE_TATP
            } else {
                COST_MEASURE_TPCC
            };
            cells.push(
                Cell::new(move || {
                    let (capacity, report) = measure(&cfg, workload, scale);
                    let energy = |d: EnergyDomain| {
                        report
                            .energy
                            .iter()
                            .find(|(dd, _)| *dd == d)
                            .map(|(_, e)| e.as_j() * 1e3)
                            .unwrap_or(0.0)
                    };
                    CellOut::table(
                        "e8_end_to_end",
                        Table::of([
                            ("engine", name.into()),
                            ("workload", workload.into()),
                            ("capacity_txn_s", f(capacity)),
                            ("min_us_at_70pct", f(report.latency.min.as_us())),
                            ("p50_us_at_70pct", f(report.latency.p50.as_us())),
                            ("p99_us_at_70pct", f(report.latency.p99.as_us())),
                            ("joules_per_txn", f(report.joules_per_txn)),
                            ("cpu_mJ", f(energy(EnergyDomain::CpuCore))),
                            ("fpga_mJ", f(energy(EnergyDomain::Fpga))),
                        ]),
                    )
                })
                .cost(cost),
            );
        }
    }

    // Per-transaction-type latency on TPC-C, software vs bionic.
    for (name, cfg) in [
        ("dora-software", EngineConfig::software()),
        ("bionic", EngineConfig::bionic()),
    ] {
        cells.push(
            Cell::new(move || {
                // ~40k txn/s: below both engines' capacity, so the table shows
                // transaction shape, not queueing.
                let report = run_tpcc(cfg, scale.pick(6_000, 1_000), SimTime::from_us(25.0));
                let mut t = Table::default();
                for (ty, summary) in &report.per_type_latency {
                    t.push([
                        ("engine", name.into()),
                        ("txn_type", (*ty).into()),
                        ("count", summary.count.to_string()),
                        ("min_us", f(summary.min.as_us())),
                        ("p50_us", f(summary.p50.as_us())),
                        ("p99_us", f(summary.p99.as_us())),
                    ]);
                }
                CellOut::table("e8_per_type_latency", t)
            })
            .cost(COST_PER_TYPE),
        );
    }

    // Ablation: add one offload at a time on TATP.
    let variants: Vec<(&'static str, Offloads)> = vec![
        ("none", Offloads::none()),
        (
            "probe",
            Offloads {
                probe: true,
                ..Offloads::none()
            },
        ),
        (
            "log",
            Offloads {
                log: LogImpl::Hardware,
                ..Offloads::none()
            },
        ),
        (
            "log-consolidated(sw)",
            Offloads {
                log: LogImpl::Consolidated,
                ..Offloads::none()
            },
        ),
        (
            "queue",
            Offloads {
                queue: true,
                ..Offloads::none()
            },
        ),
        (
            "overlay+probe",
            Offloads {
                probe: true,
                overlay: true,
                ..Offloads::none()
            },
        ),
        ("all", Offloads::all()),
    ];
    for (name, offloads) in variants {
        cells.push(
            Cell::new(move || {
                let cfg = EngineConfig {
                    offloads,
                    ..EngineConfig::software()
                };
                let (capacity, report) = measure(&cfg, "tatp", scale);
                CellOut::table(
                    "e8_ablation",
                    Table::of([
                        ("offloads", name.into()),
                        ("capacity_txn_s", f(capacity)),
                        ("joules_per_txn", f(report.joules_per_txn)),
                        ("min_us_at_70pct", f(report.latency.min.as_us())),
                        ("p50_us_at_70pct", f(report.latency.p50.as_us())),
                    ]),
                )
            })
            .cost(COST_MEASURE_TATP),
        );
    }

    Experiment {
        id: "e8",
        title: "### E8 — end-to-end: conventional vs DORA vs bionic\n",
        cells,
        claims: Some(Box::new(|_| {
            CellOut::note(
                "claims: the bionic engine wins on joules/txn (the §2 metric), not \
                 on latency; each offload contributes, the combination compounds\n",
            )
        })),
    }
}

// ---------------------------------------------------------------- E9 ----

/// §2/§3: OLTP under dark silicon — scale-up and the power envelope.
/// Each cell reports `[agents, throughput, imbalance]`; the speedup base is
/// the first cell's, so the table is built from all of them together.
fn e9(scale: Scale) -> Experiment {
    let cells: Vec<Cell> = [2usize, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|agents| -> Cell {
            Cell::new(move || {
                let cfg = EngineConfig::software().with_agents(agents);
                // Overload: arrivals far faster than service so agents
                // saturate.
                let wl = TatpConfig {
                    subscribers: scale.subscribers(),
                    ..Default::default()
                };
                let mut engine = Engine::new(cfg);
                let tables = tatp::load(&mut engine, &wl);
                let mut g = TatpGenerator::new(wl, tables);
                let report = bionic_workloads::run(
                    &mut engine,
                    scale.pick(20_000, 3_000),
                    SimTime::from_ns(50.0),
                    || {
                        let (t, p) = g.next();
                        (t.label(), p)
                    },
                );
                CellOut {
                    tables: vec![],
                    values: vec![
                        agents as f64,
                        report.throughput_per_sec,
                        engine.agent_imbalance(),
                    ],
                    notes: vec![],
                }
            })
            .cost(13)
        })
        .collect();
    Experiment {
        id: "e9",
        title: "### E9 — dark-silicon scale-up of the OLTP engine\n",
        cells,
        claims: Some(Box::new(|outs| {
            let mut t = Table::default();
            let base = outs[0].values[1] / 2.0;
            for out in outs {
                let (n, tput, imbalance) = (out.values[0], out.values[1], out.values[2]);
                let speedup = tput / base;
                // Fit the serial fraction from each point: s from Amdahl.
                let s = if speedup > 1.0 && n > 1.0 {
                    ((n / speedup) - 1.0) / (n - 1.0)
                } else {
                    0.0
                };
                t.push([
                    ("agents", n.to_string()),
                    ("throughput_txn_s", f(tput)),
                    ("scaled_speedup", f(speedup)),
                    ("amdahl_fit_serial_pct", f(s.max(0.0) * 100.0)),
                    ("imbalance_max_over_mean", f(imbalance)),
                ]);
            }
            CellOut {
                tables: vec![("e9_scaleup".into(), t)],
                values: vec![],
                notes: vec![
                    "claims: the front-end/log serial fraction caps scale-up exactly as \
                     Amdahl predicts; under a 2018 envelope only ~80% of cores could be \
                     lit at all (see F1), so joules/txn — not cores — is the lever\n"
                        .into(),
                ],
            }
        })),
    }
}

// --------------------------------------------------------------- E10 ----

/// §5.2: Netezza-style FPGA filtering vs CPU scan, selectivity sweep over
/// one column table.
fn e10(scale: Scale) -> Experiment {
    let cell = Cell::new(move || {
        let rows = scale.pick(2_000_000, 200_000);
        let mut table = ColumnarTable::new();
        table.add_column("key", Column::I64((0..rows).collect()));
        table.add_column("val", Column::I64((0..rows).map(|i| i % 1000).collect()));
        table.add_column("payload", Column::I64((0..rows).map(|i| i * 3).collect()));

        let mut t = Table::default();
        for sel_pct in [0.1, 1.0, 10.0, 50.0, 100.0] {
            let threshold = (1000.0 * sel_pct / 100.0) as i64;
            let req = ScanRequest {
                predicates: vec![ColPredicate::new(1, CmpOp::Lt, threshold)],
                projection: vec![0, 2],
                ..Default::default()
            };
            let mut p_sw = Platform::hc2();
            let sw = scan_software(&mut p_sw, &table, &req, SimTime::ZERO);
            let mut p_hw = Platform::hc2();
            let hw = scan_enhanced(
                &mut p_hw,
                &table,
                &req,
                SimTime::ZERO,
                &ScannerConfig::default(),
            );
            assert_eq!(sw.matches.len(), hw.matches.len());
            t.push([
                ("selectivity_pct", f(sel_pct)),
                ("sw_pcie_MB", f(sw.pcie_bytes as f64 / 1e6)),
                ("hw_pcie_MB", f(hw.pcie_bytes as f64 / 1e6)),
                (
                    "bytes_ratio",
                    f(sw.pcie_bytes as f64 / hw.pcie_bytes.max(1) as f64),
                ),
                ("sw_ms", f(sw.done.as_ms())),
                ("hw_ms", f(hw.done.as_ms())),
                ("sw_J", f(p_sw.energy.total().as_j())),
                ("hw_J", f(p_hw.energy.total().as_j())),
            ]);
        }
        CellOut {
            tables: vec![("e10_scan".into(), t)],
            values: vec![],
            notes: vec![
                "claims: at low selectivity the FPGA filter ships orders of magnitude \
                 fewer bytes over the 4 GB/s bus; the advantage shrinks toward 100% \
                 selectivity but never inverts (the predicate column never ships)\n"
                    .into(),
            ],
        }
    })
    .cost(15);
    Experiment {
        id: "e10",
        title: "### E10 — §5.2: enhanced scanner selectivity sweep\n",
        cells: vec![cell],
        claims: None,
    }
}

// --------------------------------------------------------------- E11 ----

/// E11 (a): the raw matcher on one pattern — software cost per byte grows
/// with the pattern's nondeterminism, the hardware lanes' does not.
fn e11_matcher_cell(scale: Scale, pattern: &'static str) -> CellOut {
    use bionic_scan::nfa::{Nfa, NfaEngine};
    let input: Vec<u8> = (0..scale.pick(100_000u32, 20_000))
        .map(|i| b"abcdefgh"[(i % 8) as usize])
        .collect();
    let nfa = Nfa::compile(pattern).unwrap();
    let (_, stats) = nfa.search_with_stats(&input);
    let visits_per_byte = stats.state_visits as f64 / stats.bytes.max(1) as f64;
    let mut fabric = FpgaFabric::hc2();
    let mut eng = NfaEngine::place(&mut fabric, nfa.state_count()).unwrap();
    let (done, energy) = eng.scan(SimTime::ZERO, &nfa, stats.bytes);
    CellOut::table(
        "e11_nfa_matcher",
        Table::of([
            ("pattern", pattern.into()),
            ("nfa_states", nfa.state_count().to_string()),
            ("sw_state_visits_per_byte", f(visits_per_byte)),
            // Software: 4 instructions per state visit at 2.5 GHz.
            ("sw_ns_per_byte", f(visits_per_byte * 4.0 * 0.4)),
            (
                "hw_ns_per_byte",
                f(done.as_ns() / stats.bytes.max(1) as f64),
            ),
            (
                "hw_energy_pJ_per_byte",
                f(energy.as_j() * 1e12 / stats.bytes.max(1) as f64),
            ),
        ]),
    )
}

/// E11 (b): the matcher in the scanner — a LIKE-style filter over a
/// string column, software scan vs enhanced scanner.
fn e11_regex_scan_cell(scale: Scale) -> CellOut {
    use bionic_scan::predicate::StrPredicate;
    let rows: usize = scale.pick(500_000, 100_000);
    let mut data = Vec::with_capacity(rows * 24);
    for i in 0..rows {
        let mut tag = if i % 997 == 0 {
            format!("evt{i:08}FATAL")
        } else {
            format!("evt{i:08}routine")
        }
        .into_bytes();
        tag.resize(24, b'y');
        data.extend_from_slice(&tag);
    }
    let mut table = ColumnarTable::new();
    table.add_column("key", Column::I64((0..rows as i64).collect()));
    table.add_column("tag", Column::FixedStr { width: 24, data });
    let req = ScanRequest {
        str_predicates: vec![StrPredicate::new(1, "FATAL|PANIC").unwrap()],
        projection: vec![0],
        ..Default::default()
    };
    let mut p_sw = Platform::hc2();
    let sw = scan_software(&mut p_sw, &table, &req, SimTime::ZERO);
    let mut p_hw = Platform::hc2();
    let hw = scan_enhanced(
        &mut p_hw,
        &table,
        &req,
        SimTime::ZERO,
        &ScannerConfig::default(),
    );
    assert_eq!(sw.matches.len(), hw.matches.len());
    let mut t = Table::default();
    let bytes = (rows * 24) as f64;
    for (name, o, p) in [("software", &sw, &p_sw), ("hardware", &hw, &p_hw)] {
        t.push([
            ("path", name.into()),
            ("matches", o.matches.len().to_string()),
            ("ms", f(o.done.as_ms())),
            ("GB_per_s", f(bytes / o.done.as_secs() / 1e9)),
            ("joules", f(p.energy.total().as_j())),
        ]);
    }
    CellOut {
        tables: vec![("e11_regex_scan".into(), t)],
        values: vec![],
        notes: vec![
            "claims (§4): software cost grows with nondeterminism (state visits/byte); \
             the skeleton-automata lanes are flat at 1 byte/cycle/lane regardless\n"
                .into(),
        ],
    }
}

/// §4: control flow in hardware — NFA pattern matching, software
/// active-set simulation vs skeleton-automata lanes \[13\]. One cell per
/// matcher pattern (each over its own copy of the input stream) and one
/// for the scanner-integrated regex filter.
fn e11(scale: Scale) -> Experiment {
    let mut cells: Vec<Cell> = ["needle", "a[bc]+d", "(a|ab)+c", "(a|aa)+(b|bb)+x"]
        .into_iter()
        .map(|pattern| Cell::new(move || e11_matcher_cell(scale, pattern)))
        .collect();
    // ~0.9 s at full scale, the longest cell in the suite: queue it first.
    cells.push(Cell::new(move || e11_regex_scan_cell(scale)).cost(150));
    Experiment {
        id: "e11",
        title: "### E11 — §4: NFA regex matching, software vs hardware\n",
        cells,
        claims: None,
    }
}

// --------------------------------------------------------------- E12 ----

/// Robustness: does the E8 energy verdict survive perturbing the two most
/// influential calibration constants? Sweeps CPU nJ/instruction and SG-DRAM
/// nJ/access ±2x around the defaults; each cell runs the software and the
/// bionic engine at one point and reports their joules-per-txn ratio.
fn e12(scale: Scale) -> Experiment {
    let mut cells: Vec<Cell> = Vec::new();
    for cpu_nj in [1.0, 2.0, 4.0] {
        for sg_nj in [1.0, 2.0, 4.0] {
            cells.push(
                Cell::new(move || {
                    let [sw, bionic] =
                        [EngineConfig::software(), EngineConfig::bionic()].map(|base| {
                            let cfg = EngineConfig {
                                cpu_nj_per_instr: cpu_nj,
                                sg_nj_per_access: sg_nj,
                                ..base
                            };
                            run_tatp(
                                cfg,
                                scale.subscribers(),
                                scale.pick(8_000, 400),
                                SimTime::from_us(2.0),
                            )
                            .joules_per_txn
                        });
                    let ratio = bionic / sw;
                    CellOut {
                        tables: vec![(
                            "e12_sensitivity".into(),
                            Table::of([
                                ("cpu_nj_per_instr", f(cpu_nj)),
                                ("sg_nj_per_access", f(sg_nj)),
                                ("sw_joules_per_txn", f(sw)),
                                ("bionic_joules_per_txn", f(bionic)),
                                ("ratio_bionic_over_sw", f(ratio)),
                            ]),
                        )],
                        values: vec![ratio],
                        notes: vec![],
                    }
                })
                .cost(12),
            );
        }
    }
    Experiment {
        id: "e12",
        title: "### E12 — sensitivity of the energy verdict to calibration\n",
        cells,
        claims: Some(Box::new(|outs| {
            let worst = outs
                .iter()
                .flat_map(|o| &o.values)
                .fold(0.0f64, |a, &b| a.max(b));
            CellOut::note(format!(
                "claims: the \"bionic uses less energy\" verdict holds across a 4x \
                 range of both constants (worst-case ratio {}); it flips only if \
                 general-purpose cores were implausibly efficient AND FPGA-side \
                 memory implausibly expensive\n",
                f(worst)
            ))
        })),
    }
}

// ------------------------------------------------- hybrid sweeps (E13–E15) ----

/// E13's scan-pressure sweep in percent of the scanner's 80 GB/s, as
/// `(full, smoke)`; E15 reruns it.
const PRESSURE_GRID: (&[u64], &[u64]) = (
    &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
    &[0, 25, 50, 75, 100],
);

/// E14's per-unit fault-rate sweep in basis points per attempt, as
/// `(full, smoke)`; E15 reruns it.
const FAULT_GRID_BP: (&[u32], &[u32]) = (
    &[0, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000],
    &[0, 500, 5_000, 10_000],
);

/// One point of a hybrid sweep.
#[derive(Debug, Clone, Copy)]
enum HybridPoint {
    /// The E13 grid: this scan pressure (percent) against a healthy bionic
    /// engine.
    Pressure(u64),
    /// The E14 grid: this fault rate (bp per family per attempt) armed on
    /// every hardware unit, at moderate scan pressure.
    Faults(u32),
    /// The floor of the E14 curve: the software engine with scans on the
    /// host — nothing in the run touches an accelerator.
    Software,
}

/// One hybrid run — TATP against a concurrent scan stream on a fresh
/// engine — at `point`, with the adaptive placement controller armed iff
/// `placement` is given, commit-time attribution iff `attribution`, and the
/// windowed snapshot feed iff `snapshot_window` is given. Every run checks
/// the arbiter conservation invariant before it reports.
fn hybrid_cell(
    scale: Scale,
    point: HybridPoint,
    placement: Option<PlacementConfig>,
    attribution: bool,
    snapshot_window: Option<SimTime>,
) -> (Engine, HybridReport) {
    let engine_cfg = match point {
        HybridPoint::Pressure(_) => EngineConfig::bionic(),
        HybridPoint::Faults(bp) => {
            EngineConfig::bionic().with_hw_faults(HwFaultConfig::uniform(bp))
        }
        HybridPoint::Software => EngineConfig::software(),
    };
    let (txns, scan_pressure, scan_rows) = match point {
        HybridPoint::Pressure(pct) => (
            scale.pick(8_000, 600),
            pct as f64 / 100.0,
            scale.pick(1_000_000, 100_000),
        ),
        HybridPoint::Faults(_) | HybridPoint::Software => {
            (scale.pick(6_000, 600), 0.3, scale.pick(500_000, 100_000))
        }
    };
    let mut engine = Engine::new(match placement {
        Some(p) => engine_cfg.with_placement(p),
        None => engine_cfg,
    });
    if attribution {
        engine.enable_attribution();
    }
    let cfg = HybridConfig {
        tatp: TatpConfig {
            subscribers: scale.subscribers(),
            ..Default::default()
        },
        txns,
        inter_arrival: SimTime::from_us(2.0),
        scan_pressure,
        scan_rows,
        range_queries: true,
        software_scans: matches!(point, HybridPoint::Software),
        snapshot_window,
    };
    let report = run_hybrid(&mut engine, &cfg);
    bionic_workloads::hybrid::check_conservation(&engine)
        .expect("no bandwidth created or lost across clients");
    (engine, report)
}

/// The attribution fragment of one cell: the ledger's own CSV export (one
/// row per occupied `(class, path)` cell, integer picoseconds/picojoules
/// only), every row prefixed with the cell's sweep coordinates. The export
/// writes its header line even for a ledger that recorded nothing, so a
/// row-less fragment still merges with the other cells'.
fn attrib_table(prefix: &[(&'static str, String)], engine: &Engine) -> Table {
    let csv = engine.attribution().expect("attribution enabled").to_csv();
    let ledger = Table::parse_csv(&csv).expect("the ledger writes well-formed CSV");
    let columns = prefix
        .iter()
        .map(|(c, _)| c.to_string())
        .chain(ledger.headers);
    let coords = prefix.iter().map(|(_, value)| value.clone());
    Table {
        headers: columns.collect(),
        rows: ledger
            .rows
            .into_iter()
            .map(|row| coords.clone().chain(row).collect())
            .collect(),
    }
}

// --------------------------------------------------------------- E13 ----

/// One E13 pressure point: the `e13_hybrid` row, its attribution rows, and
/// its snapshot windows. `values` is `[txn_p99_us]` for the claim.
fn e13_cell(scale: Scale, pct: u64) -> CellOut {
    let window = Some(SimTime::from_us(200.0));
    let (engine, r) = hybrid_cell(scale, HybridPoint::Pressure(pct), None, true, window);
    let point = ("scan_pressure_pct", pct.to_string());
    let t = Table::of([
        point.clone(),
        ("txn_throughput_per_s", f(r.oltp.throughput_per_sec)),
        ("txn_p50_us", f(r.oltp.latency.p50.as_us())),
        ("txn_p99_us", f(r.oltp.latency.p99.as_us())),
        ("system_joules_per_txn", f(r.oltp.joules_per_txn)),
        ("scans", r.scans.to_string()),
        ("scan_p50_ms", f(r.scan_latency.p50.as_ms())),
        ("scan_achieved_GB_s", f(r.scan_bytes_per_sec / 1e9)),
        ("query_cache_hits", r.query_cache_hits.to_string()),
        ("sg_oltp_bytes", r.sg_oltp_bytes.to_string()),
        ("sg_olap_bytes", r.sg_olap_bytes.to_string()),
        ("sg_mean_fill_pct", f(100.0 * r.sg_mean_fill_frac)),
        ("sg_max_fill_pct", f(100.0 * r.sg_max_fill_frac)),
    ]);
    // Windowed snapshot feed: per-window commit/wait/path deltas on the
    // fixed 200 µs grid (run-relative bounds).
    let mut wt = Table::default();
    for w in r.snapshots.as_ref().expect("window configured").windows() {
        let delta = |component, counter| w.counter_delta(component, counter).to_string();
        wt.push([
            point.clone(),
            ("window", w.index.to_string()),
            (
                "start_us",
                bionic_telemetry::export::fmt_us(w.start.as_ps()),
            ),
            ("end_us", bionic_telemetry::export::fmt_us(w.end.as_ps())),
            ("committed", delta("engine", "committed")),
            (
                "sg_oltp_wait_events",
                delta("arbiter/sg", "oltp_wait_events"),
            ),
            (
                "sg_olap_wait_events",
                delta("arbiter/sg", "olap_wait_events"),
            ),
            ("attrib_hw_hit", delta("attrib", "hw-hit")),
            ("attrib_hw_retry", delta("attrib", "hw-retry")),
            ("attrib_sw_fallback", delta("attrib", "sw-fallback")),
            (
                "fabric_occupancy",
                f(w.gauge_level("fabric", "occupancy").unwrap_or(0.0)),
            ),
        ]);
    }
    CellOut {
        tables: vec![
            ("e13_hybrid".into(), t),
            // Critical-path attribution per transaction class × offload
            // path, keyed by this cell's pressure point.
            ("e13_attrib".into(), attrib_table(&[point], &engine)),
            ("e13_windows".into(), wt),
        ],
        values: vec![r.oltp.latency.p99.as_us()],
        notes: vec![],
    }
}

/// Figure 4 end-to-end: the hybrid engine under analytics pressure.
///
/// One cell per scan-pressure point: a bionic engine runs TATP while the
/// enhanced scanner offers `pressure × 80 GB/s` of streaming load against
/// the same SG-DRAM and PCIe link, arbitrated by the shared-bandwidth
/// layer. Each cell also verifies the arbiter conservation invariant.
fn e13(scale: Scale) -> Experiment {
    let cells: Vec<Cell> = scale
        .pick(PRESSURE_GRID.0, PRESSURE_GRID.1)
        .iter()
        .map(|&pct| Cell::new(move || e13_cell(scale, pct)).cost(50))
        .collect();
    Experiment {
        id: "e13",
        title: "### E13 — Figure 4: hybrid engine under analytics pressure\n",
        cells,
        claims: Some(Box::new(|outs| {
            let (calm, loaded) = (outs[0].values[0], outs[outs.len() - 1].values[0]);
            CellOut::note(format!(
                "claims: transaction p99 grows {}x from 0% to 100% scan pressure; \
                 the knee sits near the scanner's 50% arbiter share, past which \
                 scans saturate their grant and window fills stay persistent\n",
                f(loaded / calm.max(1e-9)),
            ))
        })),
    }
}

// --------------------------------------------------------------- E14 ----

/// One E14 sweep point: the hybrid workload at `point` (a fault rate armed
/// on every hardware unit, or the all-software reference, which runs no
/// accelerator at all), reported as a `e14_brownout` row. The `values`
/// carried to the claims step are the functional outcomes the sweep-wide
/// oracle compares: `[committed, aborted, scan_matches, throughput,
/// joules/txn]`.
fn e14_cell(scale: Scale, point: HybridPoint) -> CellOut {
    let (engine, r) = hybrid_cell(scale, point, None, true, None);
    let (config, rate_bp) = match point {
        HybridPoint::Faults(bp) => ("bionic", bp),
        _ => ("software", 0),
    };
    let coords = [
        ("config", config.to_string()),
        ("fault_rate_bp", rate_bp.to_string()),
    ];

    // Degraded-mode totals across the five units (all zero on the
    // reference configuration, whose engine has no fault layer).
    let (mut ops, mut fallbacks, mut retries) = (0u64, 0u64, 0u64);
    let (mut opens, mut closes) = (0u64, 0u64);
    let mut degraded_us = 0.0f64;
    if let Some(report) = engine.fault_report() {
        for u in &report {
            ops += u.stats.ops;
            fallbacks += u.stats.fallbacks;
            retries += u.stats.retries;
            opens += u.breaker_opens;
            closes += u.breaker_closes;
            degraded_us += u.time_degraded.as_us();
        }
    }
    let fallback_pct = if ops == 0 {
        0.0
    } else {
        100.0 * fallbacks as f64 / ops as f64
    };

    let [config, rate] = coords.clone();
    let t = Table::of([
        config,
        rate,
        ("committed", r.oltp.committed.to_string()),
        ("aborted", r.oltp.aborted.to_string()),
        ("txn_throughput_per_s", f(r.oltp.throughput_per_sec)),
        ("txn_p50_us", f(r.oltp.latency.p50.as_us())),
        ("txn_p99_us", f(r.oltp.latency.p99.as_us())),
        ("system_joules_per_txn", f(r.oltp.joules_per_txn)),
        ("scans", r.scans.to_string()),
        ("scan_matches", r.scan_matches.to_string()),
        ("scan_p50_ms", f(r.scan_latency.p50.as_ms())),
        ("hw_fallback_pct", f(fallback_pct)),
        ("hw_retries", retries.to_string()),
        ("breaker_opens", opens.to_string()),
        ("breaker_closes", closes.to_string()),
        ("time_degraded_us", f(degraded_us)),
    ]);
    CellOut {
        tables: vec![
            ("e14_brownout".into(), t),
            // Attribution: how each transaction class split between
            // hw-hit, watchdog-retry, and sw-fallback at this fault rate —
            // the brownout's path mix, keyed by (config, rate).
            ("e14_attrib".into(), attrib_table(&coords, &engine)),
        ],
        values: vec![
            r.oltp.committed as f64,
            r.oltp.aborted as f64,
            r.scan_matches as f64,
            r.oltp.throughput_per_sec,
            r.oltp.joules_per_txn,
        ],
        notes: vec![],
    }
}

/// E14 — the brownout curve: per-unit hardware fault rate swept from 0 to
/// saturation on the hybrid (Figure 4) workload, plus the all-software
/// reference configuration the curve must degrade toward.
///
/// Every hardware unit arms the same per-family rate, so one knob moves
/// stall, transient-CRC, and uncorrectable-ECC pressure together. The
/// claims step enforces the sweep-wide oracle: the commit/abort stream and
/// scan selectivity are byte-identical in every cell — watchdog expiries,
/// retries, fallbacks, and breaker quarantine are pricing decisions, never
/// functional ones — and the brownout lands on the paper's headline metric:
/// joules/txn rises from the bionic operating point to (within tolerance
/// of) the software baseline as quarantine reroutes every op, while the
/// open-loop arrival stream keeps being served end to end.
fn e14(scale: Scale) -> Experiment {
    let cells: Vec<Cell> = scale
        .pick(FAULT_GRID_BP.0, FAULT_GRID_BP.1)
        .iter()
        .map(|&bp| HybridPoint::Faults(bp))
        // The floor of the curve: no accelerators anywhere, scans on the host.
        .chain([HybridPoint::Software])
        .map(|point| Cell::new(move || e14_cell(scale, point)).cost(30))
        .collect();
    Experiment {
        id: "e14",
        title: "### E14 — brownout: hardware fault rate vs hybrid throughput\n",
        cells,
        claims: Some(Box::new(|outs| {
            // Sweep-wide functional oracle: no lost or duplicated commits,
            // no lost or duplicated scan matches, at any fault rate — and
            // not on the software reference either.
            let first = &outs[0].values;
            for (i, o) in outs.iter().enumerate() {
                assert_eq!(
                    &o.values[..3],
                    &first[..3],
                    "cell {i}: commit/abort/scan outcomes diverged under faults"
                );
            }
            // `(throughput, joules/txn)` at the healthy point, at
            // saturation, and on the software reference.
            let at = |i: usize| (outs[i].values[3], outs[i].values[4]);
            let (h, s, sw) = (at(0), at(outs.len() - 2), at(outs.len() - 1));
            // The brownout curve: the healthy bionic point holds the
            // paper's energy advantage over the software baseline, and
            // saturating the units surrenders it — joules/txn lands
            // within 10 % of the all-software floor (the residual gap
            // is HalfOpen recovery probes that occasionally win).
            assert!(
                h.1 < sw.1,
                "healthy bionic must hold an energy advantage to lose"
            );
            assert!(
                s.1 > 2.0 * h.1 && (s.1 - sw.1).abs() <= 0.1 * sw.1,
                "saturated joules/txn ({}) must brown out to the software \
                 baseline ({})",
                s.1,
                sw.1,
            );
            CellOut::note(format!(
                "claims: the fault sweep erodes the bionic energy advantage from \
                 {}x (healthy, {} J/txn vs software {} J/txn) to {}x at \
                 saturation ({} J/txn) — the engine keeps serving the arrival \
                 stream ({}/s vs software {}/s) with zero lost or duplicated \
                 commits while breaker quarantine reroutes every op to the \
                 software path\n",
                f(sw.1 / h.1.max(1e-18)),
                f(h.1),
                f(sw.1),
                f(sw.1 / s.1.max(1e-18)),
                f(s.1),
                f(h.0),
                f(sw.0),
            ))
        })),
    }
}

// --------------------------------------------------------------- E15 ----

/// One E15 sweep point: the hybrid workload run twice on the same
/// configuration — once static, once with the adaptive placement
/// controller armed — reported side by side as one `e15_adaptive` row.
///
/// The cell itself enforces the controller's functional-identity
/// contract: placement only moves *pricing* between the hardware and
/// software paths, so commit/abort counts and scan selectivity must be
/// equal between the two arms at every point. The `values` carried to
/// the claims step are `[point, static_p99_us, adaptive_p99_us,
/// static_joules, adaptive_joules]` for the sweep-wide win-condition
/// asserts.
fn e15_cell(scale: Scale, at: HybridPoint) -> CellOut {
    let (sweep, point) = match at {
        HybridPoint::Pressure(pct) => ("pressure", pct),
        HybridPoint::Faults(bp) => ("faults", u64::from(bp)),
        HybridPoint::Software => unreachable!("the software floor has no adaptive arm"),
    };
    let (_, sr) = hybrid_cell(scale, at, None, false, None);
    let (_, ar) = hybrid_cell(scale, at, Some(PlacementConfig::default()), false, None);

    // Functional identity: the controller reroutes pricing, never results.
    assert_eq!(
        (sr.oltp.committed, sr.oltp.aborted, sr.scan_matches),
        (ar.oltp.committed, ar.oltp.aborted, ar.scan_matches),
        "{sweep}@{point}: adaptive placement changed functional outcomes"
    );
    let p = ar.placement.expect("adaptive arm armed the controller");

    let (sp99, ap99) = (sr.oltp.latency.p99.as_us(), ar.oltp.latency.p99.as_us());
    let (sj, aj) = (sr.oltp.joules_per_txn, ar.oltp.joules_per_txn);
    let t = Table::of([
        ("sweep", sweep.into()),
        ("point", point.to_string()),
        ("committed", ar.oltp.committed.to_string()),
        ("aborted", ar.oltp.aborted.to_string()),
        ("static_p50_us", f(sr.oltp.latency.p50.as_us())),
        ("adaptive_p50_us", f(ar.oltp.latency.p50.as_us())),
        ("static_p99_us", f(sp99)),
        ("adaptive_p99_us", f(ap99)),
        ("p99_ratio_pct", f(100.0 * ap99 / sp99.max(1e-9))),
        ("static_joules_per_txn", f(sj)),
        ("adaptive_joules_per_txn", f(aj)),
        ("joules_ratio_pct", f(100.0 * aj / sj.max(1e-18))),
        ("static_throughput_per_s", f(sr.oltp.throughput_per_sec)),
        ("adaptive_throughput_per_s", f(ar.oltp.throughput_per_sec)),
        ("shed_windows", p.shed_windows.to_string()),
        ("brownout_windows", p.brownout_windows.to_string()),
        ("transitions", p.transitions.to_string()),
    ]);
    CellOut {
        tables: vec![("e15_adaptive".into(), t)],
        values: vec![point as f64, sp99, ap99, sj, aj],
        notes: vec![],
    }
}

/// E15 — adaptive vs static placement across the E13 pressure sweep and
/// the E14 fault sweep.
///
/// Each cell runs its point twice (static reference, then the same
/// configuration with [`PlacementConfig::default`] armed) and the
/// claims step enforces the controller's win condition: adaptive p99 is
/// never worse than static at any swept point, strictly better in the
/// E13 high-pressure band and the E14 mid-band latency valley at full
/// scale, at equal-or-better joules/txn (within the documented ≤1 %
/// overlay-shed energy trade — shed overlay reads price through the
/// host buffer-pool path, which costs slightly more energy than a
/// quiet SG-DRAM access but stops OLTP queueing behind scan grants).
///
/// Strict-win asserts apply at [`Scale::Full`] only: at smoke scale the
/// controller's ~2-window trip latency covers ≈17 % of the 600-txn run,
/// so the pre-trip head dominates the p99 order statistic; at full
/// scale it is ≈1–2 % and the post-trip distribution shows through.
fn e15(scale: Scale) -> Experiment {
    let pressures = scale.pick(PRESSURE_GRID.0, PRESSURE_GRID.1);
    let rates_bp = scale.pick(FAULT_GRID_BP.0, FAULT_GRID_BP.1);
    let pressure_cells = pressures.len();
    let pressures = pressures
        .iter()
        .map(|&pct| (HybridPoint::Pressure(pct), 100));
    let rates_bp = rates_bp.iter().map(|&bp| (HybridPoint::Faults(bp), 60));
    let cells: Vec<Cell> = pressures
        .chain(rates_bp)
        .map(|(at, cost)| Cell::new(move || e15_cell(scale, at)).cost(cost))
        .collect();
    Experiment {
        id: "e15",
        title: "### E15 — adaptive vs static placement over the E13/E14 sweeps\n",
        cells,
        claims: Some(Box::new(move |outs| {
            let mut best_knee = (0.0f64, 0u64); // (p99 win ratio, point)
            let mut best_valley = (0.0f64, 0u64);
            for (i, o) in outs.iter().enumerate() {
                let is_pressure = i < pressure_cells;
                let point = o.values[0] as u64;
                let (sp99, ap99, sj, aj) = (o.values[1], o.values[2], o.values[3], o.values[4]);
                let arm = if is_pressure { "pressure" } else { "faults" };
                // No-worse everywhere: 1 % relative + 0.5 µs absolute slack
                // absorbs percentile quantization on untripped points.
                assert!(
                    ap99 <= sp99 * 1.01 + 0.5,
                    "{arm}@{point}: adaptive p99 {ap99} worse than static {sp99}"
                );
                // Equal-or-better energy within the overlay-shed trade
                // (measured ≤0.7 % at shed points, full scale).
                assert!(
                    aj <= sj * 1.01,
                    "{arm}@{point}: adaptive joules/txn {aj} exceeds static {sj} by >1%"
                );
                if scale == Scale::Full {
                    // Strict wins where the pathologies live: the E13
                    // high-pressure band and the E14 mid-band valley.
                    if is_pressure && point >= 80 {
                        assert!(
                            ap99 < sp99,
                            "pressure@{point}: expected strict p99 win ({ap99} vs {sp99})"
                        );
                    }
                    if !is_pressure && (250..=1_000).contains(&point) {
                        assert!(
                            ap99 < sp99,
                            "faults@{point}: expected strict p99 win ({ap99} vs {sp99})"
                        );
                    }
                }
                let win = sp99 / ap99.max(1e-9);
                if is_pressure && win > best_knee.0 {
                    best_knee = (win, point);
                }
                if !is_pressure && win > best_valley.0 {
                    best_valley = (win, point);
                }
            }
            CellOut::note(format!(
                "claims: shedding OLTP probe/overlay pricing to the CPU while the \
                 scanner owns SG-DRAM cuts p99 up to {}x at {}% pressure, and \
                 pre-emptive probe brownout flattens the mid-band fault valley \
                 (best win {}x at {} bp) — with commit/abort/scan outcomes \
                 byte-identical to static placement at every point\n",
                f(best_knee.0),
                best_knee.1,
                f(best_valley.0),
                best_valley.1,
            ))
        })),
    }
}

// --------------------------------------------------------------- E16 ----

/// The E16 grid: `(nodes, cross-partition bp, lossy interconnect)`.
/// Redundant combinations are omitted — with one node or a zero cross
/// fraction no message ever crosses the wire, so the network axis (and,
/// for one node, the cross axis) cannot change anything.
const E16_GRID: [(usize, u32, bool); 11] = [
    (1, 0, false),
    (2, 0, false),
    (4, 0, false),
    (2, 500, false),
    (2, 2_500, false),
    (4, 500, false),
    (4, 2_500, false),
    (2, 500, true),
    (2, 2_500, true),
    (4, 500, true),
    (4, 2_500, true),
];

/// One E16 cell: a TATP cluster run at one grid point. The cell enforces
/// the protocol's safety contract inline — the WAL-only atomicity oracle
/// must pass, and a fault-free interconnect must leave zero in-doubt
/// branches and zero recoveries — so a regression fails the figure run
/// itself, not just the test suite.
fn e16_cell(scale: Scale, nodes: usize, cross_bp: u32, lossy: bool) -> CellOut {
    use bionic_cluster::{Cluster, ClusterConfig, NetConfig};

    let net = if lossy {
        // Moderate but decidedly unhealthy: ~15% drops, dups, delays, and
        // occasional partition windows on every link.
        NetConfig::healthy(16).with_rates(1_500, 800, 1_000, 300)
    } else {
        NetConfig::healthy(16)
    };
    let mut cluster = Cluster::new(ClusterConfig::new(nodes, EngineConfig::bionic(), net));
    let mut wl = cluster.load_small(bionic_workloads::WorkloadKind::Tatp, cross_bp, 16);
    let txns = scale.pick(4_000, 400);
    let mut at = SimTime::ZERO;
    for _ in 0..txns {
        let txn = wl.next();
        cluster.execute(txn, at);
        at += SimTime::from_us(5.0);
    }
    cluster.end_of_run(at);
    cluster
        .verify_atomicity()
        .unwrap_or_else(|e| panic!("e16 nodes={nodes} cross={cross_bp} lossy={lossy}: {e}"));
    let r = cluster.report();
    if !lossy {
        assert_eq!(
            (r.in_doubt_resolved, r.recoveries),
            (0, 0),
            "healthy interconnect must leave no doubt (nodes={nodes} cross={cross_bp})"
        );
    }

    let committed = r.global_committed + r.single_committed;
    let jpt = r.joules / committed.max(1) as f64;
    let t = Table::of([
        ("nodes", nodes.to_string()),
        ("cross_bp", cross_bp.to_string()),
        ("net", (if lossy { "lossy" } else { "healthy" }).into()),
        ("txns", txns.to_string()),
        ("committed", committed.to_string()),
        ("global_committed", r.global_committed.to_string()),
        ("global_aborted", r.global_aborted.to_string()),
        ("throughput_per_s", f(r.throughput_per_sec())),
        ("commit_p50_us", f(r.commit_p50.as_us())),
        ("commit_p99_us", f(r.commit_p99.as_us())),
        ("joules_per_txn", f(jpt)),
        ("in_doubt_resolved", r.in_doubt_resolved.to_string()),
        ("in_doubt_max_us", f(r.in_doubt_max.as_us())),
        ("recoveries", r.recoveries.to_string()),
        ("msgs_sent", r.net.sent.to_string()),
        ("msgs_lost", (r.net.dropped + r.net.partitioned).to_string()),
    ]);
    CellOut {
        tables: vec![("e16_cluster".into(), t)],
        values: vec![
            nodes as f64,
            cross_bp as f64,
            if lossy { 1.0 } else { 0.0 },
            r.commit_p50.as_us(),
            r.commit_p99.as_us(),
            r.in_doubt_max.as_us(),
            r.global_committed as f64,
        ],
        notes: vec![],
    }
}

/// E16 — the bionic cluster: commit latency, throughput, and energy
/// across node count × cross-partition fraction × interconnect health.
///
/// Answers the paper's scale-out question the only way a deterministic
/// simulator can: with a crash-safe presumed-abort 2PC whose cost —
/// two network round trips plus one durable decision flush per
/// cross-partition commit, and a bounded in-doubt-resolution tail under
/// faults — is measured, not asserted. Every cell runs the WAL-only
/// atomicity oracle before it reports a number.
fn e16(scale: Scale) -> Experiment {
    let cells: Vec<Cell> = E16_GRID
        .iter()
        .map(|&(nodes, cross_bp, lossy)| -> Cell {
            let cost = nodes as u64 * if lossy { 40 } else { 25 };
            Cell::new(move || e16_cell(scale, nodes, cross_bp, lossy)).cost(cost)
        })
        .collect();
    Experiment {
        id: "e16",
        title: "### E16 — cluster 2PC: nodes x cross-partition fraction x network faults\n",
        cells,
        claims: Some(Box::new(|outs| {
            // The cross-partition premium (the protocol's cost clean of
            // queueing: best healthy-net p50 across the grid) against the
            // in-doubt tail the lossy grid points pay.
            let mut healthy_p50 = f64::INFINITY;
            let mut lossy_tail_us = 0.0f64;
            let mut cross_commits = 0u64;
            for o in outs.iter() {
                let (cross_bp, lossy) = (o.values[1], o.values[2] > 0.5);
                if cross_bp > 0.0 && !lossy && o.values[3] > 0.0 {
                    healthy_p50 = healthy_p50.min(o.values[3]);
                }
                if lossy {
                    lossy_tail_us = lossy_tail_us.max(o.values[5]);
                }
                cross_commits += o.values[6] as u64;
            }
            CellOut::note(format!(
                "claims: presumed-abort 2PC commits cross-partition work at ~{} us p50 \
                 on a healthy interconnect (two RTTs + one decision flush), degrades to \
                 a bounded in-doubt tail of {} ms under seeded drop/dup/delay/partition \
                 faults, and the WAL-only oracle verified all-or-nothing on every one of \
                 the {} cross-partition commits in the grid\n",
                f(healthy_p50),
                f(lossy_tail_us / 1_000.0),
                cross_commits,
            ))
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_builds() {
        for id in ids() {
            assert!(build(id, Scale::Smoke).is_some(), "{id} must build");
            assert!(build(id, Scale::Full).is_some(), "{id} must build");
        }
        assert!(build("nope", Scale::Smoke).is_none());
    }

    #[test]
    fn registry_ids_are_unique_and_ordered_like_the_table() {
        let ids: Vec<&str> = ids().collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate id in REGISTRY");
        assert_eq!(ids.first(), Some(&"f1"));
        assert_eq!(ids.last(), Some(&"e16"), "new experiments append");
    }

    #[test]
    fn experiment_cell_counts_match_decomposition() {
        let counts: Vec<(&str, usize)> = ids()
            .map(|id| {
                let e = build(id, Scale::Smoke).unwrap();
                (e.id, e.cells.len())
            })
            .collect();
        let expect = [
            ("f1", 1),
            ("f2", 1),
            ("f3", 4),
            ("e4", 3),
            ("e5", 7),
            ("e6", 1),
            ("e7", 1),
            ("e8", 15),
            ("e9", 7),
            ("e10", 1),
            ("e11", 5),
            ("e12", 9),
            ("e13", 5),
            ("e14", 5),
            ("e15", 9),
            ("e16", 11),
        ];
        for (got, want) in counts.iter().zip(&expect) {
            assert_eq!(got, want);
        }
        assert_eq!(counts.len(), expect.len());
    }
}
