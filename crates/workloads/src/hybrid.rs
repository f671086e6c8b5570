//! The hybrid OLTP/OLAP driver — Figure 4 end-to-end.
//!
//! Everything before this module exercised the bionic engine one side at a
//! time: transactions (F3/E4–E9) or analytics (E10/E11) in isolation. The
//! paper's Figure 4, however, draws a *single* machine where the DORA
//! engine and the enhanced scanner run concurrently against the same
//! SG-DRAM and the same CPU↔FPGA link. This driver interleaves a TATP
//! transaction stream with a periodic enhanced-scanner stream over a
//! columnar analytics table, with [shared-bandwidth
//! arbitration](bionic_sim::arbiter) enabled so each side observes the
//! other's queueing delay.
//!
//! The analytics knob is *scan pressure*: the fraction of SG-DRAM
//! bandwidth the scan stream offers. At pressure `p`, scans of `B` bytes
//! are launched every `B / (p × 80 GB/s)` of simulated time; experiment
//! E13 sweeps `p` from 0 to 1 and watches transaction throughput, latency,
//! and joules respond (EXPERIMENTS.md, "how to read the contention knee").
//!
//! Interleaving is deterministic: transaction and scan arrivals are merged
//! in simulated-time order (ties go to the transaction), so a hybrid run
//! is a pure function of its config — the property every figure relies on.

use crate::driver::{Measurement, WorkloadReport};
use crate::tatp::{self, TatpConfig, TatpGenerator};
use bionic_core::engine::Engine;
use bionic_scan::predicate::{CmpOp, ColPredicate, ScanRequest};
use bionic_scan::scanner::{scan_dispatch_with, scan_software_with, ScanEval, ScannerConfig};
use bionic_sim::stats::{Histogram, Summary};
use bionic_sim::time::SimTime;
use bionic_storage::columnar::{Column, ColumnarTable};

/// Configuration of one hybrid run.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// TATP sizing (subscribers, workload seed).
    pub tatp: TatpConfig,
    /// Transactions to submit.
    pub txns: u64,
    /// Open-loop transaction inter-arrival time.
    pub inter_arrival: SimTime,
    /// Offered scan load as a fraction of SG-DRAM bandwidth (0 disables
    /// the analytic stream entirely; 1.0 offers the full 80 GB/s).
    pub scan_pressure: f64,
    /// Rows in the columnar analytics table each scan sweeps.
    pub scan_rows: usize,
    /// Issue one [`Engine::query_range`] through the result cache after
    /// every scan (exercises cache invalidation under concurrent updates).
    pub range_queries: bool,
    /// Run every scan on the software path ([`scan_software_with`]) instead of
    /// the enhanced scanner. This is the all-software reference
    /// configuration experiment E14's brownout curve degrades toward:
    /// pair it with [`bionic_core::config::EngineConfig::software`] and
    /// *nothing* in the run touches an accelerator.
    pub software_scans: bool,
    /// Capture windowed metric snapshots on this fixed sim-time grid
    /// (run-relative). `None` disables the snapshot feed entirely.
    pub snapshot_window: Option<SimTime>,
}

impl HybridConfig {
    /// A small deterministic default used by tests and Smoke-scale E13.
    pub fn small(scan_pressure: f64) -> Self {
        HybridConfig {
            tatp: TatpConfig {
                subscribers: 2_000,
                ..Default::default()
            },
            txns: 800,
            inter_arrival: SimTime::from_us(2.0),
            scan_pressure,
            scan_rows: 200_000,
            range_queries: true,
            software_scans: false,
            snapshot_window: None,
        }
    }
}

/// Everything a hybrid run produces: the transactional report plus the
/// analytic stream's outcome and the arbiter's occupancy accounting.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// The transaction side, measured exactly like [`crate::run`].
    pub oltp: WorkloadReport,
    /// Engine table ids of the TATP schema this run loaded, so callers can
    /// keep querying the same engine after the run (see the result-cache
    /// staleness regression test).
    pub tatp_tables: tatp::TatpTables,
    /// Scans completed.
    pub scans: u64,
    /// Rows matched across all scans (functional check: selectivity is a
    /// property of the data, not of contention).
    pub scan_matches: u64,
    /// Scan latency (arrival → last projected byte delivered).
    pub scan_latency: Summary,
    /// Achieved analytic throughput in bytes of predicate column streamed
    /// per second of simulated time, over the scan stream's active span.
    pub scan_bytes_per_sec: f64,
    /// Range queries issued through the result cache.
    pub queries: u64,
    /// Range queries answered from the result cache.
    pub query_cache_hits: u64,
    /// SG-DRAM bytes granted to the transaction engine.
    pub sg_oltp_bytes: u64,
    /// SG-DRAM bytes granted to the scan stream.
    pub sg_olap_bytes: u64,
    /// Peak SG-DRAM window fill (fraction of capacity; ≤ 1 when the
    /// conservation invariant holds).
    pub sg_max_fill_frac: f64,
    /// Mean SG-DRAM window fill across touched windows.
    pub sg_mean_fill_frac: f64,
    /// Total arbitration delay handed to SG-DRAM clients.
    pub sg_queued: SimTime,
    /// PCIe-link bytes granted to the transaction engine.
    pub link_oltp_bytes: u64,
    /// PCIe-link bytes granted to the scan stream.
    pub link_olap_bytes: u64,
    /// Peak PCIe-link window fill (fraction of capacity).
    pub link_max_fill_frac: f64,
    /// Windowed metric snapshots, when [`HybridConfig::snapshot_window`]
    /// was set: one window per grid step (run-relative times) plus a final
    /// partial window at the horizon.
    pub snapshots: Option<bionic_telemetry::SnapshotHub>,
    /// Adaptive placement controller summary, when the engine was built
    /// with [`bionic_core::config::EngineConfig::with_placement`].
    pub placement: Option<bionic_core::PlacementReport>,
}

/// Build the columnar table the analytic stream scans: a deterministic
/// lineitem-like layout whose `qty` column drives selectivity.
pub fn analytics_table(rows: usize) -> ColumnarTable {
    let mut t = ColumnarTable::new();
    t.add_column("key", Column::I64((0..rows as i64).collect()));
    t.add_column(
        "qty",
        Column::I64((0..rows as i64).map(|i| i % 1000).collect()),
    );
    t.add_column(
        "price",
        Column::I64((0..rows as i64).map(|i| i * 7 % 10_000).collect()),
    );
    t
}

/// The scan every analytic arrival runs: 1 % selectivity over `qty`,
/// projecting key and price — the Netezza-style filter of §5.2.
fn scan_request() -> ScanRequest {
    ScanRequest {
        predicates: vec![ColPredicate::new(1, CmpOp::Lt, 10)],
        projection: vec![0, 2],
        ..Default::default()
    }
}

/// The analytic side of one run: everything a scan arrival needs, built
/// once.
struct ScanStream {
    table: ColumnarTable,
    /// The scan table and request never change within a run, so the
    /// functional half of every scan (matching rows + NFA visits) is the
    /// same each time: evaluated once here and replayed. The `*_with` scan
    /// variants price from its aggregates exactly as the recomputing paths
    /// do, so every outcome is byte-identical to re-filtering per scan.
    eval: ScanEval,
    /// Predicate-column bytes one scan streams.
    pred_bytes: u64,
    /// Offered load p × 80 GB/s: one scan of `pred_bytes` every
    /// `pred_bytes / (p × bw)`.
    period: SimTime,
}

impl ScanStream {
    fn new(cfg: &HybridConfig, req: &ScanRequest) -> Self {
        let table = analytics_table(cfg.scan_rows);
        let eval = ScanEval::compute(&table, req);
        let pred_bytes = cfg.scan_rows as u64 * req.predicate_width(&table) as u64;
        let sg_bw = 80e9f64;
        ScanStream {
            period: SimTime::from_secs(pred_bytes as f64 / (cfg.scan_pressure * sg_bw)),
            table,
            eval,
            pred_bytes,
        }
    }
}

/// Run the hybrid workload on `engine`. Enables shared-bandwidth
/// arbitration on the engine's platform, loads TATP, then merges the
/// transaction and scan arrival streams in simulated-time order.
pub fn run_hybrid(engine: &mut Engine, cfg: &HybridConfig) -> HybridReport {
    assert!(
        (0.0..=1.0).contains(&cfg.scan_pressure),
        "scan pressure is a fraction of SG-DRAM bandwidth"
    );
    engine.platform.enable_contention();
    let tables = tatp::load(engine, &cfg.tatp);
    let subscriber_table = tables.subscriber;
    let mut generator = TatpGenerator::new(cfg.tatp.clone(), tables);
    let req = scan_request();
    let scanner_cfg = ScannerConfig::default();
    // Pressure 0 (or a load too small to ever arrive) schedules no scan, so
    // it builds no table and evaluates nothing.
    let scan_stream = (cfg.scan_pressure > 0.0)
        .then(|| ScanStream::new(cfg, &req))
        .filter(|s| s.period != SimTime::MAX);

    let mut m = Measurement::begin(engine);
    let cache_before = engine.result_cache_stats();
    let base = m.base;

    let mut scan_hist = Histogram::default();
    let mut scans = 0u64;
    let mut scan_matches = 0u64;
    let mut last_scan_done = SimTime::ZERO;
    let mut queries = 0u64;

    let mut hub = cfg.snapshot_window.map(bionic_telemetry::SnapshotHub::new);
    let mut txn_i = 0u64;
    let mut scan_i = 0u64;
    while txn_i < cfg.txns {
        let txn_at = cfg.inter_arrival * txn_i;
        let scan_at = scan_stream
            .as_ref()
            .map_or(SimTime::MAX, |s| s.period * scan_i);
        if let Some(hub) = hub.as_mut() {
            // Grid crossing: collect every layer's counters and capture the
            // finished window(s) before the next arrival runs. Times on the
            // grid are run-relative (arrival offsets from `base`).
            let next_arrival = txn_at.min(scan_at);
            while hub.due(next_arrival) {
                let end = hub.cursor() + hub.window();
                engine.collect_metrics();
                hub.capture(end, engine.tel.metrics());
            }
        }
        if txn_at <= scan_at {
            let (ty, prog) = generator.next_ref();
            let outcome = engine.submit(prog, base + txn_at);
            m.record(ty.label(), outcome.latency());
            txn_i += 1;
        } else {
            // Scan arrivals drive the placement window grid too — without
            // this, a pure-scan stretch would leave the controller blind
            // between transactions.
            let stream = scan_stream.as_ref().expect("a scan arrived from it");
            engine.placement_tick(base + scan_at);
            // Route through the degraded-mode dispatcher: with the fault
            // layer off this is exactly `scan_enhanced`; with it armed the
            // scanner unit may reroute this scan to the software path. A
            // placement brownout of the scan unit forces the software path
            // for the whole decision window. The all-software reference
            // configuration skips the dispatcher and scans on the host
            // unconditionally.
            let out = if cfg.software_scans || engine.placement_scan_software() {
                scan_software_with(
                    &mut engine.platform,
                    &stream.table,
                    &req,
                    base + scan_at,
                    &stream.eval,
                )
            } else {
                let (platform, scan_unit) = engine.scan_parts();
                scan_dispatch_with(
                    platform,
                    &stream.table,
                    &req,
                    base + scan_at,
                    &scanner_cfg,
                    scan_unit,
                    &stream.eval,
                )
            };
            let wait = out.sg_wait + out.link_wait;
            if !wait.is_zero() {
                // Surface the analytic stream's arbiter queueing on the
                // scanner's unit track (satellite of the per-client wait
                // counters the arbiter itself keeps).
                engine.mark_scan_arbiter_wait(base + scan_at, base + scan_at + wait);
            }
            scan_hist.record(out.done - (base + scan_at));
            scans += 1;
            scan_matches += out.matches.len() as u64;
            last_scan_done = last_scan_done.max(out.done);
            scan_i += 1;
            if cfg.range_queries {
                // A Figure-4 "query engine" read over live transactional
                // state: range over the subscriber table, through the
                // result cache the update stream keeps invalidating.
                let lo = (scan_i as i64 * 37) % cfg.tatp.subscribers;
                let hi = (lo + 64).min(cfg.tatp.subscribers);
                engine.query_range(subscriber_table, lo, hi, None, out.done);
                queries += 1;
            }
        }
    }

    let elapsed = m.elapsed(engine);
    if let Some(hub) = hub.as_mut() {
        // Close out the grid at the horizon: any full windows the arrival
        // loop never crossed, then one final partial window so the deltas
        // telescope to the run's cumulative counters.
        engine.collect_metrics();
        while hub.due(elapsed) {
            let end = hub.cursor() + hub.window();
            hub.capture(end, engine.tel.metrics());
        }
        if elapsed > hub.cursor() || hub.is_empty() {
            hub.capture(elapsed.max(hub.cursor()), engine.tel.metrics());
        }
    }
    let oltp = m.finish(engine);

    let contention = engine
        .platform
        .contention
        .as_ref()
        .expect("enabled at entry");
    let scan_span = last_scan_done.saturating_sub(base);
    let cache = engine.result_cache_stats();
    HybridReport {
        oltp,
        tatp_tables: tables,
        scans,
        scan_matches,
        scan_latency: scan_hist.summary(),
        scan_bytes_per_sec: if scan_span.is_zero() {
            0.0
        } else {
            let pred_bytes = scan_stream.as_ref().map_or(0, |s| s.pred_bytes);
            (scans * pred_bytes) as f64 / scan_span.as_secs()
        },
        queries,
        query_cache_hits: cache.hits - cache_before.hits,
        sg_oltp_bytes: contention.sg.client_bytes(0),
        sg_olap_bytes: contention.sg.client_bytes(1),
        sg_max_fill_frac: contention.sg.max_fill_frac(),
        sg_mean_fill_frac: contention.sg.mean_fill_frac(),
        sg_queued: contention.sg.queued_total(),
        link_oltp_bytes: contention.link.client_bytes(0),
        link_olap_bytes: contention.link.client_bytes(1),
        link_max_fill_frac: contention.link.max_fill_frac(),
        snapshots: hub,
        placement: engine.placement_report(),
    }
}

/// Check the arbiter conservation invariant on a platform after a hybrid
/// run: no bandwidth created or lost across contending clients, on either
/// shared path. Returns the first violation found.
pub fn check_conservation(engine: &Engine) -> Result<(), String> {
    match &engine.platform.contention {
        Some(c) => {
            c.sg.check_conservation().map_err(|e| format!("sg: {e}"))?;
            c.link
                .check_conservation()
                .map_err(|e| format!("link: {e}"))
        }
        None => Err("contention is not enabled on this platform".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionic_core::config::EngineConfig;
    use bionic_sim::arbiter::BwClient;

    fn run_at(pressure: f64) -> (HybridReport, Engine) {
        let mut engine = Engine::new(EngineConfig::bionic());
        let cfg = HybridConfig {
            scan_rows: 100_000,
            txns: 400,
            ..HybridConfig::small(pressure)
        };
        let report = run_hybrid(&mut engine, &cfg);
        (report, engine)
    }

    #[test]
    fn pressure_zero_runs_no_scans() {
        let (r, engine) = run_at(0.0);
        assert_eq!(r.scans, 0);
        assert_eq!(r.sg_olap_bytes, 0);
        assert!(r.oltp.committed > 0);
        check_conservation(&engine).unwrap();
    }

    #[test]
    fn scan_pressure_slows_transactions_not_their_function() {
        let (calm, e0) = run_at(0.0);
        let (loaded, e1) = run_at(0.8);
        // Functional outcomes are contention-independent...
        assert_eq!(calm.oltp.committed, loaded.oltp.committed);
        assert_eq!(calm.oltp.aborted, loaded.oltp.aborted);
        // ...but the loaded run's transactions waited for bandwidth.
        assert!(
            loaded.oltp.latency.p99 > calm.oltp.latency.p99,
            "p99 {} should exceed {}",
            loaded.oltp.latency.p99,
            calm.oltp.latency.p99
        );
        assert!(loaded.sg_olap_bytes > 0);
        assert!(loaded.sg_queued > SimTime::ZERO);
        check_conservation(&e0).unwrap();
        check_conservation(&e1).unwrap();
    }

    #[test]
    fn scans_return_correct_matches_under_contention() {
        let (r, engine) = run_at(0.5);
        assert!(r.scans > 0);
        // 1% selectivity over `qty % 1000 < 10`.
        assert_eq!(r.scan_matches, r.scans * 1_000);
        assert!(r.sg_max_fill_frac <= 1.0 + 1e-12);
        check_conservation(&engine).unwrap();
    }

    #[test]
    fn hybrid_runs_are_deterministic() {
        let (a, _) = run_at(0.6);
        let (b, _) = run_at(0.6);
        assert_eq!(a.oltp.committed, b.oltp.committed);
        assert_eq!(a.oltp.latency.p99, b.oltp.latency.p99);
        assert_eq!(a.sg_oltp_bytes, b.sg_oltp_bytes);
        assert_eq!(a.scan_latency.p50, b.scan_latency.p50);
    }

    #[test]
    fn software_scan_reference_matches_enhanced_results() {
        let (enhanced, _) = run_at(0.5);
        let mut engine = Engine::new(EngineConfig::software());
        let cfg = HybridConfig {
            scan_rows: 100_000,
            txns: 400,
            software_scans: true,
            ..HybridConfig::small(0.5)
        };
        let sw = run_hybrid(&mut engine, &cfg);
        // The reference configuration is functionally identical: same scan
        // count and selectivity, same commit/abort stream.
        assert_eq!(sw.scans, enhanced.scans);
        assert_eq!(sw.scan_matches, enhanced.scan_matches);
        assert_eq!(sw.oltp.committed, enhanced.oltp.committed);
        assert_eq!(sw.oltp.aborted, enhanced.oltp.aborted);
        check_conservation(&engine).unwrap();
    }

    #[test]
    fn snapshot_deltas_telescope_and_attribution_covers_commits() {
        let mut engine = Engine::new(EngineConfig::bionic());
        engine.enable_attribution();
        let cfg = HybridConfig {
            scan_rows: 100_000,
            txns: 400,
            snapshot_window: Some(SimTime::from_us(100.0)),
            ..HybridConfig::small(0.6)
        };
        let report = run_hybrid(&mut engine, &cfg);
        let hub = report.snapshots.as_ref().expect("window configured");
        assert!(hub.len() > 1, "run spans several windows");
        // Conservation: per-window commit deltas telescope to the total.
        let total: i64 = hub
            .windows()
            .map(|w| w.counter_delta("engine", "committed"))
            .sum();
        assert_eq!(total, report.oltp.committed as i64);
        // Attribution saw every committed transaction, and under pressure
        // some of them waited on the arbiter.
        let attrib = engine.attribution().expect("enabled above");
        assert_eq!(attrib.count(), report.oltp.committed);
        let waited: u64 = attrib
            .cells()
            .iter()
            .map(|(_, _, c)| c.segments_ps[bionic_telemetry::attrib::SEG_ARBITER_WAIT])
            .sum();
        assert!(waited > 0, "scan pressure should queue some probes");
        check_conservation(&engine).unwrap();
    }

    #[test]
    fn a_scan_examines_the_same_few_arbiter_windows_however_long_the_run() {
        // The `htap_scan` call (attribution, 100 us snapshots, pressure 0.75)
        // at a fifth of its length and in full. The scan stream queues behind
        // a backlog that grows all run long; testing that backlog window by
        // window cost 62 windows per scan at 8 000 transactions and 297 at
        // 40 000. One enhanced scan books SG-DRAM once, so scans = requests.
        for txns in [8_000, 40_000] {
            let mut engine = Engine::new(EngineConfig::bionic());
            engine.enable_attribution();
            let cfg = HybridConfig {
                tatp: TatpConfig {
                    subscribers: 2_000,
                    seed: 1,
                },
                txns,
                snapshot_window: Some(SimTime::from_us(100.0)),
                ..HybridConfig::small(0.75)
            };
            let report = run_hybrid(&mut engine, &cfg);
            let sg = &engine.platform.contention.as_ref().unwrap().sg;
            let examined = |c: BwClient| sg.client_windows_examined(c.index()) as f64;
            let per_scan = examined(BwClient::Olap) / report.scans as f64;
            assert!(per_scan <= 12.0, "{txns} txns: {per_scan} windows per scan");
            let oltp_requests = sg.requests() - report.scans;
            let per_oltp = examined(BwClient::Oltp) / oltp_requests as f64;
            assert!(per_oltp <= 1.2, "{txns} txns: {per_oltp} windows per probe");
        }
    }

    #[test]
    fn faulting_scanner_falls_back_without_changing_scan_results() {
        use bionic_sim::fault::HwFaultConfig;
        let (clean, _) = run_at(0.5);
        let mut engine =
            Engine::new(EngineConfig::bionic().with_hw_faults(HwFaultConfig::saturated()));
        let cfg = HybridConfig {
            scan_rows: 100_000,
            txns: 400,
            ..HybridConfig::small(0.5)
        };
        let broken = run_hybrid(&mut engine, &cfg);
        // Fallbacks are pricing-only: every scan still returns the same
        // 1% selectivity, and the OLTP side commits everything it did.
        assert_eq!(broken.scan_matches, broken.scans * 1_000);
        assert_eq!(clean.oltp.committed, broken.oltp.committed);
        assert_eq!(clean.oltp.aborted, broken.oltp.aborted);
        // The scanner unit really was consulted and really fell back.
        let report = engine.fault_report().expect("layer armed");
        let scanner = report.iter().find(|r| r.unit == "scanner").unwrap();
        assert!(scanner.stats.ops > 0);
        assert!(scanner.stats.fallbacks > 0);
        // Brownout: degraded scans (and OLTP watchdogs) cost time.
        assert!(broken.oltp.latency.p99 > clean.oltp.latency.p99);
        check_conservation(&engine).unwrap();
    }
}
