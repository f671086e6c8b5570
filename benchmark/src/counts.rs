//! The count ledger (source **C**): exact model-side counts read after a
//! run from public stats, `Engine::collect_metrics` and the reports.
//!
//! Every number here is a pure function of the seed, so two runs of one
//! commit must agree bit for bit; [`Counts::per_layer`] turns the raw sums
//! into the `<crate>.<metric>` rows of the per-layer table.

use bionic_core::breakdown::Category;
use bionic_core::engine::Engine;
use bionic_telemetry::attrib::{
    SEG_ARBITER_WAIT, SEG_COMMIT, SEG_FALLBACK, SEG_OTHER, SEG_PROBE, SEG_RETRY,
};
use bionic_telemetry::MetricValue;

use crate::spans::Tracer;

/// Raw sums over every engine a workload's epoch 0 ran on.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Transactions submitted to the engine(s).
    pub submitted: u64,
    /// Transactions the engine(s) committed.
    pub committed: u64,
    /// Transactions the engine(s) rolled back.
    pub aborted: u64,
    breakdown_ps: [u64; 8],
    probes: u64,
    probe_nodes: u64,
    merges: u64,
    wal_flushes: u64,
    wal_bytes: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_dirty_evictions: u64,
    queue_ops: u64,
    hw_probes: u64,
    hw_sg_reads: u64,
    link_bytes: u64,
    cache_hits: u64,
    cache_lookups: u64,
    sg_oltp_queued_us: f64,
    sg_max_fill_frac: f64,
    seg_ps: [u64; 4],
    seg_txns: u64,
    /// Engines that ran with the bandwidth arbiter enabled.
    pub contended_engines: u64,
    /// Enhanced-scanner scans completed (hybrid driver).
    pub scans: u64,
    scan_bytes_per_sec_sum: f64,
    scan_p99_us_sum: f64,
    scan_reports: u64,
    /// Messages handed to the interconnect (cluster driver).
    pub net_sent: u64,
    net_lost: u64,
    gtxn_committed: u64,
    gtxn_aborted: u64,
    in_doubt: u64,
}

impl Counts {
    /// Fold one engine's counters in. Call once per engine, at the end of
    /// its run (`collect_metrics` is the program's own cold-path export).
    pub fn add_engine(&mut self, engine: &mut Engine, tr: &mut Tracer) {
        let sp = tr.begin("telemetry.collect_metrics");
        engine.collect_metrics();
        tr.end(sp);
        let m = engine.tel.metrics();
        let c = |scope: &str, name: &str| m.counter_value(scope, name);
        let g = |scope: &str, name: &str| match m.get(scope, name) {
            Some(MetricValue::Gauge(v)) => v,
            _ => 0.0,
        };
        self.submitted += engine.stats.submitted;
        self.committed += engine.stats.committed;
        self.aborted += engine.stats.aborted;
        for (slot, cat) in self.breakdown_ps.iter_mut().zip(Category::ALL) {
            *slot += engine.breakdown.get(cat).as_ps();
        }
        self.probes += engine.stats.probes;
        self.probe_nodes += engine.stats.probe_nodes_visited;
        self.merges += engine.stats.merges;
        self.wal_appends += c("wal", "appends");
        self.wal_flushes += c("wal", "flushes");
        self.wal_bytes += c("wal", "tail_lsn");
        // Wrapping: see `discount_load`.
        self.pool_hits = self.pool_hits.wrapping_add(c("bufferpool", "hits"));
        self.pool_misses = self.pool_misses.wrapping_add(c("bufferpool", "misses"));
        self.pool_dirty_evictions = self
            .pool_dirty_evictions
            .wrapping_add(c("bufferpool", "dirty_evictions"));
        self.queue_ops += c("queue", "sw_ops") + c("queue", "hw_ops");
        self.hw_probes += c("fpga/tree-probe", "completed") + c("fpga/tree-probe", "aborted");
        self.hw_sg_reads += c("fpga/tree-probe", "sg_reads");
        self.link_bytes += c("link/pcie", "bytes");
        self.sg_oltp_queued_us += g("arbiter/sg", "oltp_queued_us");
        self.sg_max_fill_frac = self.sg_max_fill_frac.max(g("arbiter/sg", "max_fill_frac"));
        self.contended_engines += u64::from(engine.platform.contention.is_some());
        let cache = engine.result_cache_stats();
        self.cache_hits += cache.hits;
        self.cache_lookups += cache.hits + cache.misses + cache.stale;
        if let Some(a) = engine.attribution() {
            for (_, _, cell) in a.cells() {
                self.seg_txns += cell.latency_ps.count();
                // Watchdog retry and fallback are zero without armed
                // faults; folded into "other" so the four rows still sum
                // to mean latency.
                let s = &cell.segments_ps;
                self.seg_ps[0] += s[SEG_PROBE];
                self.seg_ps[1] += s[SEG_ARBITER_WAIT];
                self.seg_ps[2] += s[SEG_COMMIT];
                self.seg_ps[3] += s[SEG_OTHER] + s[SEG_RETRY] + s[SEG_FALLBACK];
            }
        }
    }

    /// Take the buffer pool's counters as they stand out of the sums. Call
    /// right after the population load, which the pool counts although no
    /// other ledger does; the later [`Counts::add_engine`] then nets to the
    /// accesses of the transactions alone. (`htap_scan` loads inside
    /// `run_hybrid`, so its pool counts include its 2 000-subscriber load.)
    pub fn discount_load(&mut self, engine: &mut Engine) {
        engine.collect_metrics();
        let m = engine.tel.metrics();
        // Wrapping: the sums are only read after the matching `add_engine`.
        self.pool_hits = self
            .pool_hits
            .wrapping_sub(m.counter_value("bufferpool", "hits"));
        self.pool_misses = self
            .pool_misses
            .wrapping_sub(m.counter_value("bufferpool", "misses"));
        self.pool_dirty_evictions = self
            .pool_dirty_evictions
            .wrapping_sub(m.counter_value("bufferpool", "dirty_evictions"));
    }

    /// Fold one hybrid run's analytic-stream outcome in.
    pub fn add_hybrid(&mut self, r: &bionic_workloads::HybridReport) {
        self.scans += r.scans;
        self.scan_bytes_per_sec_sum += r.scan_bytes_per_sec;
        self.scan_p99_us_sum += r.scan_latency.p99.as_us();
        self.scan_reports += 1;
    }

    /// Fold a cluster scoreboard in.
    pub fn add_cluster(&mut self, r: &bionic_cluster::ClusterReport) {
        self.net_sent += r.net.sent;
        self.net_lost += r.net.dropped + r.net.partitioned;
        self.gtxn_committed += r.global_committed;
        self.gtxn_aborted += r.global_aborted;
        self.in_doubt += r.in_doubt_resolved;
    }

    /// The per-layer rows of source C, in `BENCHMARK.json` order.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let txns = self.submitted;
        let sim_ns = |cat: Category| per(self.breakdown_ps[cat as usize] as f64 / 1e3, txns);
        let gtxns = self.gtxn_committed + self.gtxn_aborted;
        let seg_us = |i: usize| per(self.seg_ps[i] as f64 / 1e6, self.seg_txns);
        vec![
            ("core.sim_frontend_ns_per_txn", sim_ns(Category::FrontEnd)),
            ("core.sim_dora_ns_per_txn", sim_ns(Category::Dora)),
            ("core.sim_xct_ns_per_txn", sim_ns(Category::Xct)),
            (
                "core.sim_other_ns_per_txn",
                sim_ns(Category::Other) + sim_ns(Category::Lock),
            ),
            ("core.abort_frac", per(self.aborted as f64, txns)),
            (
                "btree.nodes_per_probe",
                per(self.probe_nodes as f64, self.probes),
            ),
            ("btree.sim_ns_per_txn", sim_ns(Category::Btree)),
            (
                "btree.hw_sg_reads_per_probe",
                per(self.hw_sg_reads as f64, self.hw_probes),
            ),
            ("wal.bytes_per_txn", per(self.wal_bytes as f64, txns)),
            ("wal.flushes_per_txn", per(self.wal_flushes as f64, txns)),
            ("wal.sim_ns_per_txn", sim_ns(Category::Log)),
            (
                "storage.pool_hit_ratio",
                per(self.pool_hits as f64, self.pool_hits + self.pool_misses),
            ),
            (
                "storage.pool_dirty_evictions_per_ktxn",
                per(self.pool_dirty_evictions as f64 * 1e3, txns),
            ),
            ("storage.sim_bpool_ns_per_txn", sim_ns(Category::Bpool)),
            (
                "overlay.merges_per_ktxn",
                per(self.merges as f64 * 1e3, txns),
            ),
            (
                "overlay.cache_hit_ratio",
                per(self.cache_hits as f64, self.cache_lookups),
            ),
            ("queue.ops_per_txn", per(self.queue_ops as f64, txns)),
            ("scan.scans_per_ktxn", per(self.scans as f64 * 1e3, txns)),
            (
                "scan.sim_gb_per_s",
                per(self.scan_bytes_per_sec_sum / 1e9, self.scan_reports),
            ),
            (
                "scan.sim_p99_us",
                per(self.scan_p99_us_sum, self.scan_reports),
            ),
            (
                "sim.sg_oltp_wait_us_per_txn",
                per(self.sg_oltp_queued_us, txns),
            ),
            ("sim.sg_max_fill_frac", self.sg_max_fill_frac),
            ("sim.link_bytes_per_txn", per(self.link_bytes as f64, txns)),
            ("telemetry.seg_probe_us", seg_us(0)),
            ("telemetry.seg_arbiter_wait_us", seg_us(1)),
            ("telemetry.seg_commit_us", seg_us(2)),
            ("telemetry.seg_other_us", seg_us(3)),
            ("cluster.msgs_per_gtxn", per(self.net_sent as f64, gtxns)),
            (
                "cluster.retry_frac",
                per(self.net_lost as f64, self.net_sent),
            ),
            (
                "cluster.in_doubt_per_kgtxn",
                per(self.in_doubt as f64 * 1e3, gtxns),
            ),
            (
                "cluster.global_abort_frac",
                per(self.gtxn_aborted as f64, gtxns),
            ),
        ]
    }

    /// Buffer-pool page accesses per transaction (the C count the
    /// discrimination check prices with `storage.heap_get_ns`).
    pub fn pool_accesses_per_txn(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.pool_hits + self.pool_misses) as f64 / self.submitted as f64
        }
    }

    /// WAL appends per transaction (priced with `wal.append_ns`).
    pub fn wal_appends_per_txn(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.wal_appends as f64 / self.submitted as f64
        }
    }
}
