//! The steady-state allocation budget of the pooled TATP hot loop.
//!
//! The commit path of [`bionic_workloads::run_batched_pooled`] is built to
//! allocate nothing per transaction (pooled programs, engine scratch,
//! borrowed WAL appends); what remains is the abort path (~3 % of TATP
//! transactions replay undo records into freshly decoded values) and
//! incidental map growth. This binary installs a counting global allocator
//! (counting per thread, so its tests do not see each other) and pins the
//! whole loop under one allocation per *transaction*, with attribution on
//! as well, since E13/E14 run with it.
//!
//! The second budget is the windowed snapshot feed of `run_hybrid`: E13/E15
//! and the `htap_scan` benchmark capture every metric each 100 µs of
//! simulated time, so a capture may allocate its row vector and little
//! else — no metric name is formatted or copied again.
//!
//! The third budget is loading: `tatp::load` and `tpcc::load` refill one
//! body buffer per table and `Engine::load` one record buffer, so what a
//! load allocates grows with the heap pages and index nodes it fills, not
//! with its rows (about two allocations per row when each row had its own).

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_sim::time::SimTime;
use bionic_telemetry::MetricsRegistry;
use bionic_workloads::hybrid::{run_hybrid, HybridConfig};
use bionic_workloads::tatp::{self, TatpConfig, TatpGenerator};
use bionic_workloads::tpcc::{self, TpccConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Per thread, so the harness's own threads never leak into the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        // SAFETY: `p`/`l` describe a live `System` block, `new` is non-zero
        // by the trait's contract.
        unsafe { System.realloc(p, l, new) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// TATP batch size used by E8 itself.
const BATCH: usize = 32;
const WARMUP_TXNS: u64 = 4_000;
const MEASURED_TXNS: u64 = 20_000;

#[test]
fn pooled_tatp_loop_stays_under_one_allocation_per_txn() {
    for (name, cfg, attrib) in [
        ("software", EngineConfig::software(), false),
        ("bionic", EngineConfig::bionic(), false),
        ("bionic+attrib", EngineConfig::bionic(), true),
    ] {
        let wl = TatpConfig {
            subscribers: 10_000,
            ..Default::default()
        };
        let mut engine = Engine::new(cfg);
        if attrib {
            engine.enable_attribution();
        }
        let tables = tatp::load(&mut engine, &wl);
        let mut generator = TatpGenerator::new(wl, tables);
        let mut run = |n| {
            bionic_workloads::run_batched_pooled(
                &mut engine,
                n,
                SimTime::from_ns(100.0),
                BATCH,
                &mut generator,
            )
        };
        // Warm-up grows the program pools, scratch arenas, page maps, and
        // the attribution class table.
        run(WARMUP_TXNS);
        let before = ALLOCS.with(Cell::get);
        let report = run(MEASURED_TXNS);
        let per_txn = (ALLOCS.with(Cell::get) - before) as f64 / MEASURED_TXNS as f64;
        assert!(report.committed > 0, "{name}: loop committed nothing");
        assert!(
            per_txn < 1.0,
            "{name}: steady-state loop allocates {per_txn:.2}/txn (budget 1)"
        );
    }
}

#[test]
fn a_snapshot_window_costs_its_rows_and_no_metric_names() {
    // What the snapshot feed adds to a run is the with/without difference;
    // what one more window adds is that difference's growth with run length
    // (the first capture creates every key once, and that cancels).
    let measure = |txns: u64, snapshots: bool| {
        let mut engine = Engine::new(EngineConfig::bionic());
        engine.enable_attribution();
        let cfg = HybridConfig {
            txns,
            snapshot_window: snapshots.then(|| SimTime::from_us(100.0)),
            ..HybridConfig::small(0.75)
        };
        let before = ALLOCS.with(Cell::get);
        let report = run_hybrid(&mut engine, &cfg);
        let allocs = ALLOCS.with(Cell::get) - before;
        (allocs, report.snapshots.map_or(0, |hub| hub.len() as u64))
    };
    let feed = |txns| {
        let (with, windows) = measure(txns, true);
        (with - measure(txns, false).0, windows)
    };
    let ((short, short_windows), (long, long_windows)) = (feed(1_000), feed(4_000));
    assert!(
        long_windows >= short_windows + 50,
        "{short_windows} -> {long_windows}"
    );
    let per_window = (long - short) as f64 / (long_windows - short_windows) as f64;
    assert!(
        per_window < 4.0,
        "each further snapshot window allocates {per_window:.1} times (budget 4)"
    );

    let mut m = MetricsRegistry::new();
    m.counter("engine", "committed", 1);
    m.gauge("engine", "last_completion_us", 1.0);
    let before = ALLOCS.with(Cell::get);
    m.counter("engine", "committed", 2);
    m.gauge("engine", "last_completion_us", 2.0);
    assert_eq!(m.counter_value("engine", "committed"), 2);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "re-setting a key");
}

#[test]
fn loading_allocates_per_page_and_node_not_per_row() {
    // Measured at 0.045-0.065 allocations per row for TATP and 0.15-0.17
    // for the small TPC-C, the overlay build of the bionic engine included.
    const PER_ROW: f64 = 0.25;
    type Load = fn(&mut Engine);
    let loads: [(&str, Load); 2] = [
        ("tatp", |e| {
            let wl = TatpConfig {
                subscribers: 10_000,
                ..Default::default()
            };
            tatp::load(e, &wl);
        }),
        ("tpcc", |e| {
            tpcc::load(e, &TpccConfig::small());
        }),
    ];
    for cfg in [EngineConfig::software(), EngineConfig::bionic()] {
        for (name, load) in loads {
            let mut engine = Engine::new(cfg.clone());
            let before = ALLOCS.with(Cell::get);
            load(&mut engine);
            let allocs = ALLOCS.with(Cell::get) - before;
            let rows: usize = (0..engine.table_count() as u32)
                .map(|t| engine.row_count(t))
                .sum();
            let per_row = allocs as f64 / rows as f64;
            assert!(
                per_row < PER_ROW,
                "{name}: loading {rows} rows allocates {per_row:.3}/row (budget {PER_ROW})"
            );
        }
    }
}
