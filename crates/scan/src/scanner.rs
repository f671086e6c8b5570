//! The enhanced scanner: CPU scan vs. FPGA-filtered scan (§5.2, E10).
//!
//! The columnar data lives on the FPGA side of the PCIe bridge (Figure 4).
//! A conventional scan therefore *ships predicate columns across PCIe* to
//! evaluate them on the CPU, then pulls the projected columns of matching
//! rows. The enhanced scanner evaluates "selections and projections" on the
//! FPGA at memory rate and ships only results — "Netezza-style filtering at
//! the FPGA should ease bandwidth concerns for queries" on the 4 GB/s bus.
//!
//! Both paths return the same matching rows (functional equivalence is
//! test-enforced); they differ in bytes moved, time, and joules.

use crate::predicate::ScanRequest;
use bionic_sim::arbiter::BwClient;
use bionic_sim::energy::{Energy, EnergyDomain};
use bionic_sim::platform::Platform;
use bionic_sim::time::SimTime;
use bionic_storage::columnar::ColumnarTable;
use std::sync::Arc;

/// Outcome of a scan.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Matching row indexes, ascending — shared with the [`ScanEval`] they
    /// came from, so a replayed scan hands them out without copying them.
    pub matches: Arc<[usize]>,
    /// Payload bytes that crossed PCIe.
    pub pcie_bytes: u64,
    /// Completion time.
    pub done: SimTime,
    /// SG-DRAM arbiter queueing absorbed by the predicate stream (zero on
    /// a contention-free platform and on the software path).
    pub sg_wait: SimTime,
    /// PCIe-link arbiter queueing absorbed by the projection transfer.
    pub link_wait: SimTime,
}

/// The functional half of a scan — matching rows plus the NFA state-visit
/// count the software cost model charges for — separated from pricing.
///
/// Both scan paths price from aggregates of this value only (`matches.len()`
/// and `nfa_visits`), never from which rows matched, so a caller issuing the
/// same request against an immutable table many times (E13's periodic
/// analytics query) can compute it once and replay it: the `*_with` variants
/// below produce byte-identical outcomes to re-filtering every row.
#[derive(Debug, Clone)]
pub struct ScanEval {
    /// Matching row indexes, ascending.
    pub matches: Arc<[usize]>,
    /// NFA state visits accumulated while filtering (§4 software cost).
    pub nfa_visits: u64,
}

impl ScanEval {
    /// Evaluate `req` over every row of `table`.
    pub fn compute(table: &ColumnarTable, req: &ScanRequest) -> Self {
        let mut nfa_visits = 0u64;
        let matches = (0..table.rows())
            .filter(|&r| req.matches_counting(table, r, &mut nfa_visits))
            .collect();
        ScanEval {
            matches,
            nfa_visits,
        }
    }
}

/// Configuration of the FPGA filter unit.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    /// Filter throughput (bytes of column data per second through the
    /// comparator lanes). Wide parallel lanes: 32 B/cycle at 200 MHz.
    pub filter_bytes_per_sec: f64,
    /// Fabric energy per row evaluated.
    pub energy_per_row: Energy,
    /// Parallel skeleton-automata lanes for string predicates (each lane
    /// consumes one byte per 200 MHz cycle; rows are independent, so lanes
    /// scale throughput linearly at the cost of area).
    pub nfa_lanes: usize,
    /// Fabric energy per NFA state per byte.
    pub nfa_energy_per_state_byte: Energy,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            filter_bytes_per_sec: 6.4e9,
            energy_per_row: Energy::from_pj(40.0),
            nfa_lanes: 16,
            nfa_energy_per_state_byte: Energy::from_pj(0.5),
        }
    }
}

/// CPU instructions to evaluate one row (per predicate: load, compare,
/// branch, loop bookkeeping).
const INSTR_PER_ROW_PER_PRED: u64 = 6;

/// CPU instructions per NFA state visit in the software simulation (set
/// membership test, edge walk, class test).
const INSTR_PER_NFA_VISIT: u64 = 4;

/// Conventional scan: predicate columns cross PCIe, the CPU filters, then
/// the projected columns of matching rows cross PCIe.
pub fn scan_software(
    platform: &mut Platform,
    table: &ColumnarTable,
    req: &ScanRequest,
    start: SimTime,
) -> ScanOutcome {
    let eval = ScanEval::compute(table, req);
    scan_software_with(platform, table, req, start, &eval)
}

/// [`scan_software`] replaying a precomputed [`ScanEval`] instead of
/// re-filtering the table. Identical pricing and results.
pub fn scan_software_with(
    platform: &mut Platform,
    table: &ColumnarTable,
    req: &ScanRequest,
    start: SimTime,
    eval: &ScanEval,
) -> ScanOutcome {
    let rows = table.rows() as u64;
    let pred_bytes = rows * req.predicate_width(table) as u64;

    // Ship predicate columns to the host (streamed, overlapping with eval:
    // the slower of wire and compute dominates).
    let wire_done = if pred_bytes > 0 {
        platform.pcie_transfer(start, pred_bytes)
    } else {
        start
    };

    // CPU filtering cost, driven by the row count and the NFA state-visit
    // count from the functional evaluation (§4).
    let instructions = rows * INSTR_PER_ROW_PER_PRED * req.predicates.len().max(1) as u64
        + eval.nfa_visits * INSTR_PER_NFA_VISIT;
    let eval_time = platform.cpu_compute(instructions);
    let filtered_at = wire_done.max(start + eval_time);

    // Pull projections of matching rows.
    let proj_bytes = eval.matches.len() as u64 * req.projection_width(table) as u64;
    let done = if proj_bytes > 0 {
        platform.pcie_transfer(filtered_at, proj_bytes)
    } else {
        filtered_at
    };
    ScanOutcome {
        matches: Arc::clone(&eval.matches),
        pcie_bytes: pred_bytes + proj_bytes,
        done,
        sg_wait: SimTime::ZERO,
        link_wait: SimTime::ZERO,
    }
}

/// Enhanced scan: the FPGA streams predicate columns out of SG-DRAM, filters
/// at line rate, and ships only the matching projected rows across PCIe.
pub fn scan_enhanced(
    platform: &mut Platform,
    table: &ColumnarTable,
    req: &ScanRequest,
    start: SimTime,
    cfg: &ScannerConfig,
) -> ScanOutcome {
    let eval = ScanEval::compute(table, req);
    scan_enhanced_with(platform, table, req, start, cfg, &eval)
}

/// [`scan_enhanced`] replaying a precomputed [`ScanEval`] instead of
/// re-filtering the table. Identical pricing and results.
pub fn scan_enhanced_with(
    platform: &mut Platform,
    table: &ColumnarTable,
    req: &ScanRequest,
    start: SimTime,
    cfg: &ScannerConfig,
    eval: &ScanEval,
) -> ScanOutcome {
    let rows = table.rows() as u64;
    let pred_bytes = rows * req.predicate_width(table) as u64;

    // Sequential SG-DRAM read of the predicate columns, overlapped with the
    // comparator lanes: the slower rate dominates. String predicates run on
    // parallel skeleton-automata lanes at one byte per cycle per lane.
    let read_rate = 80e9f64; // SG-DRAM streaming bandwidth
    let mut filter_rate = read_rate.min(cfg.filter_bytes_per_sec);
    let str_bytes: u64 = req
        .str_predicates
        .iter()
        .map(|p| rows * table.column(p.col).value_width() as u64)
        .sum();
    if str_bytes > 0 {
        let nfa_rate = cfg.nfa_lanes as f64 * 200e6;
        filter_rate = filter_rate.min(nfa_rate);
    }
    let stream_secs = pred_bytes as f64 / filter_rate;
    // When the platform arbitrates shared bandwidth (the hybrid engine),
    // the stream contends with transactional SG-DRAM traffic: the arbiter
    // books the streamed bytes for the OLAP client and returns whatever
    // the scan lost to round-robin sharing. On a contention-free platform
    // the delay is zero and this path prices exactly as before.
    let sg_wait = platform.sg_contention_delay(BwClient::Olap, start, pred_bytes);
    let filtered_at = start + SimTime::from_secs(stream_secs) + SimTime::from_ns(400.0) + sg_wait;
    platform.charge_fpga(cfg.energy_per_row * rows);
    platform.charge_fpga(cfg.nfa_energy_per_state_byte * (str_bytes * req.nfa_states() as u64));
    // SG-DRAM consumption (energy + counters) for the streamed bytes.
    let sg_accesses = pred_bytes / platform.sg_dram.request_bytes().max(1);
    let e = platform.sg_dram.charge_accesses(sg_accesses);
    platform.energy.charge(EnergyDomain::SgDram, e);

    let proj_bytes = eval.matches.len() as u64 * req.projection_width(table) as u64;
    let mut link_wait = SimTime::ZERO;
    let done = if proj_bytes > 0 {
        link_wait = platform.link_contention_delay(BwClient::Olap, filtered_at, proj_bytes);
        platform.pcie_transfer(filtered_at + link_wait, proj_bytes)
    } else {
        filtered_at
    };
    ScanOutcome {
        matches: Arc::clone(&eval.matches),
        pcie_bytes: proj_bytes,
        done,
        sg_wait,
        link_wait,
    }
}

/// Degraded-mode scan dispatch: route one scan through the enhanced
/// (FPGA) path or the software path, consulting the scanner's
/// watchdog/retry/breaker unit when the engine's fault layer is armed.
///
/// With `degrade` absent (`None`) this is exactly [`scan_enhanced`] — the
/// fault layer costs nothing when it does not exist. With a unit present,
/// the scan first absorbs whatever watchdog/retry time the failed
/// hardware attempts burned (`delay`), then runs on the surviving path.
/// Both paths return identical matches (test-enforced above), so the
/// reroute is pricing-only and can never change query results.
pub fn scan_dispatch(
    platform: &mut Platform,
    table: &ColumnarTable,
    req: &ScanRequest,
    start: SimTime,
    cfg: &ScannerConfig,
    degrade: Option<&mut bionic_sim::fault::DegradedUnit>,
) -> ScanOutcome {
    let eval = ScanEval::compute(table, req);
    scan_dispatch_with(platform, table, req, start, cfg, degrade, &eval)
}

/// [`scan_dispatch`] replaying a precomputed [`ScanEval`] on whichever
/// path the fault unit routes to. Identical pricing and results.
pub fn scan_dispatch_with(
    platform: &mut Platform,
    table: &ColumnarTable,
    req: &ScanRequest,
    start: SimTime,
    cfg: &ScannerConfig,
    degrade: Option<&mut bionic_sim::fault::DegradedUnit>,
    eval: &ScanEval,
) -> ScanOutcome {
    let Some(unit) = degrade else {
        return scan_enhanced_with(platform, table, req, start, cfg, eval);
    };
    let d = unit.try_hw(start);
    if d.hw {
        scan_enhanced_with(platform, table, req, start + d.delay, cfg, eval)
    } else {
        scan_software_with(platform, table, req, start + d.delay, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, ColPredicate};
    use bionic_storage::columnar::Column;

    fn lineitems(n: usize) -> ColumnarTable {
        let mut t = ColumnarTable::new();
        t.add_column("key", Column::I64((0..n as i64).collect()));
        t.add_column("qty", Column::I64((0..n as i64).map(|i| i % 100).collect()));
        t.add_column(
            "price",
            Column::I64((0..n as i64).map(|i| i * 7 % 1000).collect()),
        );
        t
    }

    fn select_qty_below(threshold: i64) -> ScanRequest {
        ScanRequest {
            predicates: vec![ColPredicate::new(1, CmpOp::Lt, threshold)],
            projection: vec![0, 2],
            ..Default::default()
        }
    }

    #[test]
    fn both_paths_return_identical_matches() {
        let t = lineitems(10_000);
        let req = select_qty_below(10);
        let mut p1 = Platform::hc2();
        let mut p2 = Platform::hc2();
        let sw = scan_software(&mut p1, &t, &req, SimTime::ZERO);
        let hw = scan_enhanced(&mut p2, &t, &req, SimTime::ZERO, &ScannerConfig::default());
        assert_eq!(sw.matches, hw.matches);
        assert_eq!(sw.matches.len(), 1000, "10% selectivity");
    }

    #[test]
    fn enhanced_scan_ships_far_fewer_bytes_at_low_selectivity() {
        let t = lineitems(100_000);
        let req = select_qty_below(1); // 1% selectivity
        let mut p1 = Platform::hc2();
        let mut p2 = Platform::hc2();
        let sw = scan_software(&mut p1, &t, &req, SimTime::ZERO);
        let hw = scan_enhanced(&mut p2, &t, &req, SimTime::ZERO, &ScannerConfig::default());
        assert!(
            sw.pcie_bytes > 30 * hw.pcie_bytes,
            "sw={} hw={}",
            sw.pcie_bytes,
            hw.pcie_bytes
        );
        assert!(hw.done < sw.done);
    }

    #[test]
    fn at_full_selectivity_the_advantage_shrinks_to_the_predicate_column() {
        let t = lineitems(100_000);
        let req = select_qty_below(1000); // 100% selectivity
        let mut p1 = Platform::hc2();
        let mut p2 = Platform::hc2();
        let sw = scan_software(&mut p1, &t, &req, SimTime::ZERO);
        let hw = scan_enhanced(&mut p2, &t, &req, SimTime::ZERO, &ScannerConfig::default());
        assert_eq!(hw.matches.len(), 100_000);
        // hw still skips shipping the predicate column; both ship the same
        // (large) projection.
        let proj = 100_000u64 * 16;
        assert_eq!(hw.pcie_bytes, proj);
        assert_eq!(sw.pcie_bytes, proj + 100_000 * 8);
    }

    #[test]
    fn empty_table_and_no_predicates() {
        let t = lineitems(0);
        let req = ScanRequest::default();
        let mut p = Platform::hc2();
        let out = scan_software(&mut p, &t, &req, SimTime::ZERO);
        assert!(out.matches.is_empty());
        assert_eq!(out.pcie_bytes, 0);
    }

    #[test]
    fn regex_predicates_filter_string_columns() {
        use crate::predicate::StrPredicate;
        // 1000 rows of 16B tags; every 10th contains "ERR".
        let n = 1000usize;
        let mut data = Vec::with_capacity(n * 16);
        for i in 0..n {
            let mut tag = if i % 10 == 0 {
                format!("row{i:05}ERR")
            } else {
                format!("row{i:05}ok")
            }
            .into_bytes();
            tag.resize(16, b'.');
            data.extend_from_slice(&tag);
        }
        let mut t = ColumnarTable::new();
        t.add_column("key", Column::I64((0..n as i64).collect()));
        t.add_column("tag", Column::FixedStr { width: 16, data });
        let req = ScanRequest {
            str_predicates: vec![StrPredicate::new(1, "ERR").unwrap()],
            projection: vec![0],
            ..Default::default()
        };
        let mut p1 = Platform::hc2();
        let mut p2 = Platform::hc2();
        let sw = scan_software(&mut p1, &t, &req, SimTime::ZERO);
        let hw = scan_enhanced(&mut p2, &t, &req, SimTime::ZERO, &ScannerConfig::default());
        assert_eq!(sw.matches, hw.matches);
        assert_eq!(sw.matches.len(), 100);
        // Software pays NFA simulation instructions; the skeleton-automata
        // lanes do not — the §4 asymmetry.
        use bionic_sim::energy::EnergyDomain;
        assert!(
            p1.energy.domain(EnergyDomain::CpuCore).as_j()
                > p2.energy.domain(EnergyDomain::CpuCore).as_j()
        );
    }

    #[test]
    fn dispatch_without_a_unit_is_exactly_the_enhanced_path() {
        let t = lineitems(10_000);
        let req = select_qty_below(10);
        let mut p1 = Platform::hc2();
        let mut p2 = Platform::hc2();
        let direct = scan_enhanced(&mut p1, &t, &req, SimTime::ZERO, &ScannerConfig::default());
        let routed = scan_dispatch(
            &mut p2,
            &t,
            &req,
            SimTime::ZERO,
            &ScannerConfig::default(),
            None,
        );
        assert_eq!(direct.matches, routed.matches);
        assert_eq!(direct.pcie_bytes, routed.pcie_bytes);
        assert_eq!(direct.done, routed.done);
    }

    #[test]
    fn dispatch_falls_back_to_software_when_the_unit_is_dead() {
        use bionic_sim::fault::{DegradedUnit, HwFaultConfig};
        use bionic_sim::rng::SplitMix64;
        let t = lineitems(10_000);
        let req = select_qty_below(10);
        let mut unit = DegradedUnit::new(&HwFaultConfig::saturated(), SplitMix64::new(3));
        let mut p_routed = Platform::hc2();
        let routed = scan_dispatch(
            &mut p_routed,
            &t,
            &req,
            SimTime::ZERO,
            &ScannerConfig::default(),
            Some(&mut unit),
        );
        assert_eq!(unit.stats.fallbacks, 1);
        // Same matches as either direct path; bytes match the software
        // path (predicate column shipped to the host).
        let mut p_sw = Platform::hc2();
        let sw = scan_software(&mut p_sw, &t, &req, SimTime::ZERO);
        assert_eq!(routed.matches, sw.matches);
        assert_eq!(routed.pcie_bytes, sw.pcie_bytes);
        // The fallback scan started after the watchdog/retry delay.
        assert!(routed.done > sw.done);
    }

    #[test]
    fn fpga_filter_spends_less_energy_per_row() {
        let t = lineitems(100_000);
        let req = select_qty_below(50);
        let mut p_sw = Platform::hc2();
        let mut p_hw = Platform::hc2();
        scan_software(&mut p_sw, &t, &req, SimTime::ZERO);
        scan_enhanced(
            &mut p_hw,
            &t,
            &req,
            SimTime::ZERO,
            &ScannerConfig::default(),
        );
        let sw_j = p_sw.energy.total().as_j();
        let hw_j = p_hw.energy.total().as_j();
        assert!(hw_j < sw_j, "hw={hw_j} sw={sw_j}");
    }
}
