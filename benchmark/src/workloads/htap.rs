//! `htap_scan` — `bionic_workloads::run_hybrid` (the E13 path, unmodified)
//! on a fresh attribution-enabled bionic engine per call: cache-resident
//! TATP at a fixed 2 µs inter-arrival against an enhanced-scanner stream
//! offering 75 % of SG-DRAM bandwidth, with result-cache range queries
//! and 100 µs metric snapshots.
//!
//! One epoch is one timed block is one whole `run_hybrid` call on its own
//! engine: that is the unit the program exposes (its internal population
//! load stays inside the block).
//!
//! *Why:* `scan`, `sim::arbiter`, `overlay::result_cache` and `telemetry`
//! (attribution + snapshots) carry about three quarters of the time, and
//! this is the only workload where OLTP latency is set by a rival client.

use std::time::Instant;

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_scan::predicate::{CmpOp, ColPredicate, ScanRequest};
use bionic_scan::scanner::ScanEval;
use bionic_sim::stats::Histogram;
use bionic_sim::time::SimTime;
use bionic_workloads::hybrid::{analytics_table, check_conservation, run_hybrid, HybridConfig};
use bionic_workloads::tatp::{TatpConfig, TatpGenerator};

use crate::epoch::{EpochCtx, EpochOut, KeyLog, Model};
use crate::spec::HtapScale;

/// The scan `run_hybrid` issues on every analytic arrival (1 % selectivity
/// over `qty`, projecting key and price), restated for the oracle and the
/// scan kernels.
pub fn scan_request() -> ScanRequest {
    ScanRequest {
        predicates: vec![ColPredicate::new(1, CmpOp::Lt, 10)],
        projection: vec![0, 2],
        ..Default::default()
    }
}

fn config(sc: &HtapScale, seed: u64, txns: u64) -> HybridConfig {
    HybridConfig {
        tatp: TatpConfig {
            subscribers: sc.subscribers,
            seed,
        },
        txns,
        inter_arrival: SimTime::from_us(sc.inter_us),
        scan_pressure: sc.scan_pressure,
        scan_rows: sc.scan_rows,
        range_queries: true,
        software_scans: false,
        snapshot_window: Some(SimTime::from_us(sc.snapshot_us)),
    }
}

/// The same call with the rival client and the observers taken away: scan
/// pressure 0, no attribution, no snapshots — the discrimination check's
/// baseline.
pub fn quiet_call(sc: &HtapScale, seed: u64) {
    let mut engine = Engine::new(EngineConfig::bionic());
    let cfg = HybridConfig {
        scan_pressure: 0.0,
        snapshot_window: None,
        ..config(sc, seed, sc.call_txns)
    };
    std::hint::black_box(run_hybrid(&mut engine, &cfg).oltp.committed);
}

/// Samples of `h` in buckets above the one its p99 falls in, by bisection on
/// the rank (`Histogram::quantile` is the histogram's only public reading;
/// rank `r` of `n` is quantile `(r − ½) / n`). `run_hybrid` reports
/// `engine.stats.latency.summary()`, so this is the support of the p99 it
/// reports.
fn beyond_p99(h: &Histogram) -> u64 {
    let n = h.count();
    let p99 = h.quantile(0.99);
    let at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64);
    // `at(lo) <= p99 < at(hi)`, rank `n + 1` standing for "past the end".
    let (mut lo, mut hi) = (1, n + 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if at(mid) > p99 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    n + 1 - hi
}

/// One epoch (= one block = one `run_hybrid` call) of `htap_scan`.
pub fn epoch(ctx: &mut EpochCtx<'_>) -> EpochOut {
    let sc = &ctx.scale.htap;

    // Set-up: a throw-away warm-up call at 5 % of the block's length (the
    // allocator's arenas and the page cache fill), then the block's engine.
    let before_setup = ctx.reference.settled();
    let t_setup = Instant::now();
    let sp = ctx.tr.begin("bench.warmup");
    let mut warm = Engine::new(EngineConfig::bionic());
    warm.enable_attribution();
    std::hint::black_box(run_hybrid(&mut warm, &config(sc, ctx.seed, sc.warmup_txns())).scans);
    drop(warm);
    ctx.tr.end(sp);
    let sp = ctx.tr.begin("core.engine_new");
    let mut engine = Engine::new(EngineConfig::bionic());
    ctx.variant.arm(&mut engine, true);
    ctx.tr.end(sp);
    let cfg = config(sc, ctx.seed, sc.call_txns);
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    let after_setup = ctx.reference.settled();
    let setup_speed = before_setup.until(after_setup);

    let mut report = None;
    let blocks = ctx.timed_blocks(1, sc.call_txns, after_setup, true, |tr| {
        let call = tr.begin("workloads.run_hybrid");
        report = Some(run_hybrid(&mut engine, &cfg));
        tr.end(call);
    });
    let report = report.expect("the one block ran");

    let (export_ms, exported) = ctx
        .variant
        .export_trace(|| engine.tel.export_chrome_trace());
    let sp = ctx.tr.begin("scan.verify");
    let expect = ScanEval::compute(&analytics_table(sc.scan_rows), &scan_request())
        .matches
        .len() as u64
        + u64::from(ctx.corrupt_oracle);
    let oracle = exported.and(check_conservation(&engine)).and_then(|()| {
        if report.scan_matches == report.scans * expect {
            Ok(())
        } else {
            Err(format!(
                "{} scans matched {} rows, the reference evaluation gives {expect} per scan",
                report.scans, report.scan_matches
            ))
        }
    });
    ctx.tr.end(sp);

    let model = ctx.want_model.then(|| {
        ctx.counts.add_engine(&mut engine, ctx.tr);
        ctx.counts.add_hybrid(&report);
        let o = &report.oltp;
        let last_arrival = cfg.inter_arrival * (cfg.txns - 1);
        let trail = engine.stats.last_completion.saturating_sub(last_arrival);
        Model {
            sim_txn_per_s: o.throughput_per_sec,
            sim_p50_us: o.latency.p50.as_us(),
            sim_p99_us: o.latency.p99.as_us(),
            latency_samples: o.latency.count,
            beyond_p99: Some(beyond_p99(&engine.stats.latency)),
            sim_joules_per_txn: o.joules_per_txn,
            submitted: o.submitted,
            not_committed: o.submitted - o.committed,
            backlog_p99s: trail.as_ps() as f64 / o.latency.p99.as_ps().max(1) as f64,
        }
    });

    // `run_hybrid` draws its programs inside the call; the same seed gives
    // the same stream again, which is how the kernels get this workload's keys.
    let mut keys = KeyLog::default();
    if ctx.tr.is_on() {
        let mut source = TatpGenerator::new(cfg.tatp.clone(), report.tatp_tables);
        while keys.wants_more() {
            keys.record(source.next_ref().1);
        }
    }

    EpochOut {
        setup_ns,
        setup_speed,
        blocks,
        submitted: sc.call_txns,
        oracle,
        model,
        engine: Some(engine),
        keys,
        recovery_records: 0,
        export_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_p99_counts_the_samples_in_higher_buckets() {
        let mut h = Histogram::new();
        for _ in 0..990 {
            h.record(SimTime::from_us(10.0));
        }
        assert_eq!(beyond_p99(&h), 0);
        for _ in 0..10 {
            h.record(SimTime::from_us(1_000.0));
        }
        // Rank 990 of 1 000 is still a 10 µs sample; the ten slow ones lie beyond.
        assert_eq!(h.quantile(0.99), SimTime::from_us(10.0));
        assert_eq!(beyond_p99(&h), 10);
        // One more sample moves rank 991 of 1 001 onto a slow one.
        h.record(SimTime::from_us(2_000.0));
        assert_eq!(beyond_p99(&h), 1);
    }
}
