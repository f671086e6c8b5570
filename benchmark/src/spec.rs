//! The benchmark's contract in code: workload names, metric names, units,
//! directions and bounds (mirrored by the root `BENCHMARK.json`; the smoke
//! test checks the two agree), and every transaction count.
//!
//! Counts are constants, never durations: a block is a fixed number of
//! transactions sized to about 20 ms on the reference host (2 vCPU), an
//! epoch is a fixed number of blocks, and only the number of *epochs* a run
//! fits is set by `--seconds`. Offered rates are constants too; they are
//! never re-derived from a measured capacity.

use bionic_workloads::tpcc::TpccConfig;

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["tatp_bionic", "tpcc_software", "htap_scan", "cluster_2pc"];

/// `run_seconds` of `BENCHMARK.json`: the wall-clock budget of one run.
pub const RUN_SECONDS: u32 = 28;

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed and as cited by later changes.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a lower value better?
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (the `bound` of `BENCHMARK.json`).
    pub bound: f64,
    /// By how much it may get worse in its own unit, where the issue fixes
    /// that too; a change beyond either bound is a regression.
    pub abs_bound: Option<f64>,
    /// Must two runs of one commit and seed agree bit for bit?
    pub exact: bool,
}

impl EndToEnd {
    /// How much worse `new` is than `old` as a share of `old` (negative
    /// when better), in the metric's own direction.
    pub fn worse_by(&self, old: f64, new: f64) -> f64 {
        let delta = if self.lower_is_better {
            new - old
        } else {
            old - new
        };
        delta / old.abs()
    }

    /// Is `new` a regression against `old`: worse by more than the bound?
    pub fn regressed(&self, old: f64, new: f64) -> bool {
        let share = self.worse_by(old, new);
        share > self.bound || self.abs_bound.is_some_and(|abs| share * old.abs() > abs)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
        abs_bound: None,
        exact,
    }
}

/// The ten end-to-end metrics, the same on every workload.
///
/// No bound is wider than 10 %. The acceptance driver takes a metric's
/// spread across runs of *different* seeds, so each bound is also about
/// three times the widest spread measured across ten seeds on any workload,
/// or more (`AA_RESULTS.md`); where that would have taken more than 10 %, the run
/// was lengthened (four model epochs) or the estimator tightened (the
/// two-kernel reference; peak memory sampled after one epoch, before the
/// allocator's fragmentation over many shows) instead. The one exception is
/// `host_ns_per_txn`, which still spreads by 2–6 % on a loaded host. Two
/// runs of one seed must agree exactly on every `exact` metric, whatever
/// its bound.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", true, 0.10, false),
    e2e("host_ns_per_txn", "ns", true, 0.08, false),
    e2e("peak_rss_mb", "MB", true, 0.03, false),
    e2e("allocs_per_txn", "count", true, 0.02, true),
    e2e("alloc_bytes_per_txn", "B", true, 0.06, true),
    e2e("sim_txn_per_s", "1/s", false, 0.02, true),
    e2e("sim_p50_us", "us", true, 0.10, true),
    e2e("sim_p99_us", "us", true, 0.08, true),
    e2e("sim_joules_per_txn", "J", true, 0.03, true),
    EndToEnd {
        abs_bound: Some(0.001),
        ..e2e("failed_frac", "frac", true, 0.10, true)
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Span recorded by the driver around the call, traced run.
    T,
    /// The layer's public function timed alone on recorded inputs.
    K,
    /// Exact count read from public stats and reports.
    C,
    /// The benchmark's own health.
    B,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a lower value better?
    pub lower_is_better: bool,
    /// Source.
    pub source: Source,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better,
        source,
    }
}

/// The per-layer ledger. Every row is printed on every workload; a layer
/// the workload bypasses reads 0.
pub const PER_LAYER: [PerLayer; 62] = [
    pl("workloads.gen_ns_per_txn", "ns", true, Source::T),
    pl("core.submit_ns_per_txn", "ns", true, Source::T),
    pl("core.checkpoint_ms", "ms", true, Source::T),
    pl("core.sim_frontend_ns_per_txn", "ns", true, Source::C),
    pl("core.sim_dora_ns_per_txn", "ns", true, Source::C),
    pl("core.sim_xct_ns_per_txn", "ns", true, Source::C),
    pl("core.sim_other_ns_per_txn", "ns", true, Source::C),
    pl("core.abort_frac", "frac", true, Source::C),
    pl("btree.get_ns", "ns", true, Source::K),
    pl("btree.batch_get_ns_per_key", "ns", true, Source::K),
    pl("btree.insert_ns", "ns", true, Source::K),
    pl("btree.remove_ns", "ns", true, Source::K),
    pl("btree.nodes_per_probe", "count", true, Source::C),
    pl("btree.sim_ns_per_txn", "ns", true, Source::C),
    pl("btree.hw_sg_reads_per_probe", "count", true, Source::C),
    pl("wal.append_ns", "ns", true, Source::K),
    pl("wal.recovery_ns_per_record", "ns", true, Source::T),
    pl("wal.bytes_per_txn", "B", true, Source::C),
    pl("wal.flushes_per_txn", "count", true, Source::C),
    pl("wal.sim_ns_per_txn", "ns", true, Source::C),
    pl("storage.heap_get_ns", "ns", true, Source::K),
    pl("storage.heap_update_ns", "ns", true, Source::K),
    pl("storage.pool_hit_ratio", "frac", false, Source::C),
    pl(
        "storage.pool_dirty_evictions_per_ktxn",
        "count",
        true,
        Source::C,
    ),
    pl("storage.sim_bpool_ns_per_txn", "ns", true, Source::C),
    pl("overlay.get_ns", "ns", true, Source::K),
    pl("overlay.put_ns", "ns", true, Source::K),
    pl("overlay.merge_ns_per_entry", "ns", true, Source::K),
    pl("overlay.merges_per_ktxn", "count", true, Source::C),
    pl("overlay.cache_hit_ratio", "frac", false, Source::C),
    pl("queue.ops_per_txn", "count", true, Source::C),
    pl("scan.eval_ns_per_row", "ns", true, Source::K),
    pl("scan.dispatch_ns_per_scan", "ns", true, Source::K),
    pl("scan.nfa_ns_per_byte", "ns", true, Source::K),
    pl("scan.scans_per_ktxn", "count", false, Source::C),
    pl("scan.sim_gb_per_s", "GB/s", false, Source::C),
    pl("scan.sim_p99_us", "us", true, Source::C),
    pl("sim.arbiter_request_ns", "ns", true, Source::K),
    pl("sim.sg_oltp_wait_us_per_txn", "us", true, Source::C),
    pl("sim.sg_max_fill_frac", "frac", true, Source::C),
    pl("sim.link_bytes_per_txn", "B", true, Source::C),
    pl("telemetry.seg_probe_us", "us", true, Source::C),
    pl("telemetry.seg_arbiter_wait_us", "us", true, Source::C),
    pl("telemetry.seg_commit_us", "us", true, Source::C),
    pl("telemetry.seg_other_us", "us", true, Source::C),
    pl("telemetry.attrib_overhead_frac", "frac", true, Source::T),
    pl("telemetry.trace_overhead_frac", "frac", true, Source::T),
    pl("telemetry.collect_metrics_us", "us", true, Source::T),
    pl("telemetry.export_ms", "ms", true, Source::T),
    pl("cluster.single_ns_per_txn", "ns", true, Source::T),
    pl("cluster.cross_ns_per_gtxn", "ns", true, Source::T),
    pl("cluster.verify_ns_per_txn", "ns", true, Source::T),
    pl("cluster.net_send_ns", "ns", true, Source::K),
    pl("cluster.msgs_per_gtxn", "count", true, Source::C),
    pl("cluster.retry_frac", "frac", true, Source::C),
    pl("cluster.in_doubt_per_kgtxn", "count", true, Source::C),
    pl("cluster.global_abort_frac", "frac", true, Source::C),
    pl("bench.trace_overhead_frac", "frac", true, Source::B),
    pl("bench.span_cost_ns", "ns", true, Source::B),
    pl("bench.host_drift_ratio", "ratio", true, Source::B),
    pl("bench.block_p50_over_p10", "ratio", true, Source::B),
    pl("bench.accounted_frac", "frac", false, Source::B),
];

/// `bench.discrimination_ok` is printed with the per-layer table but kept
/// apart from [`PER_LAYER`]: it is a verdict (1 or 0), not a measurement.
pub const DISCRIMINATION: PerLayer = pl("bench.discrimination_ok", "bool", false, Source::B);

/// Untimed warm-up before `timed` timed transactions: 5 % of them.
const fn warmup_for(timed: u64) -> u64 {
    timed / 20
}

/// `tatp_bionic` counts.
#[derive(Debug, Clone)]
pub struct TatpScale {
    /// Subscriber population (footprint well beyond the last-level cache).
    pub subscribers: i64,
    /// Transactions per timed block.
    pub block_txns: u64,
    /// Timed blocks per epoch.
    pub blocks: u32,
    /// Checkpoint cadence, transactions.
    pub checkpoint_every: u64,
    /// Host-phase inter-arrival, ns (saturating).
    pub host_inter_ns: f64,
    /// Latency-phase transactions (model epochs).
    pub latency_txns: u64,
    /// Latency-phase inter-arrival, ns (the fixed offered rate).
    pub latency_inter_ns: f64,
    /// Leading epochs that supply the model-time numbers.
    pub model_epochs: u32,
}

/// `tpcc_software` counts.
#[derive(Debug, Clone)]
pub struct TpccScale {
    /// Population (the seed is overridden per epoch).
    pub population: TpccConfig,
    /// Transactions per timed block.
    pub block_txns: u64,
    /// Timed blocks per epoch.
    pub blocks: u32,
    /// Checkpoint cadence, transactions.
    pub checkpoint_every: u64,
    /// Host-phase inter-arrival, ns (saturating).
    pub host_inter_ns: f64,
    /// Latency-phase transactions (model epochs).
    pub latency_txns: u64,
    /// Latency-phase inter-arrival, ns (about half the seed's capacity).
    pub latency_inter_ns: f64,
    /// Leading epochs that supply the model-time numbers.
    pub model_epochs: u32,
}

/// `htap_scan` counts.
#[derive(Debug, Clone)]
pub struct HtapScale {
    /// TATP subscribers (cache-resident).
    pub subscribers: i64,
    /// Transactions per `run_hybrid` call (one call = one block = one epoch).
    pub call_txns: u64,
    /// Transaction inter-arrival, µs.
    pub inter_us: f64,
    /// Offered scan load as a fraction of SG-DRAM bandwidth.
    pub scan_pressure: f64,
    /// Rows of the columnar table each scan sweeps.
    pub scan_rows: usize,
    /// Metric-snapshot window, µs.
    pub snapshot_us: f64,
    /// Leading epochs (one call each, own seed) whose model-time numbers
    /// are averaged: at the contention knee one call's latency percentiles
    /// swing by tens of percent from seed to seed.
    pub model_epochs: u32,
}

/// `cluster_2pc` counts.
#[derive(Debug, Clone)]
pub struct ClusterScale {
    /// Nodes.
    pub nodes: usize,
    /// Cross-partition share, basis points.
    pub cross_bp: u32,
    /// Transaction inter-arrival, µs.
    pub inter_us: f64,
    /// Transactions per timed block.
    pub block_txns: u64,
    /// Timed blocks per epoch.
    pub blocks: u32,
    /// Leading epochs that supply the model-time numbers.
    pub model_epochs: u32,
}

impl TatpScale {
    /// Untimed warm-up transactions per epoch.
    pub fn warmup_txns(&self) -> u64 {
        warmup_for(self.blocks as u64 * self.block_txns)
    }
}

impl TpccScale {
    /// Untimed warm-up transactions per epoch.
    pub fn warmup_txns(&self) -> u64 {
        warmup_for(self.blocks as u64 * self.block_txns)
    }
}

impl HtapScale {
    /// Transactions of the throw-away warm-up call.
    pub fn warmup_txns(&self) -> u64 {
        warmup_for(self.call_txns)
    }
}

impl ClusterScale {
    /// Untimed warm-up transactions per epoch.
    pub fn warmup_txns(&self) -> u64 {
        warmup_for(self.blocks as u64 * self.block_txns)
    }
}

/// Every count of every workload.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `tatp_bionic`.
    pub tatp: TatpScale,
    /// `tpcc_software`.
    pub tpcc: TpccScale,
    /// `htap_scan`.
    pub htap: HtapScale,
    /// `cluster_2pc`.
    pub cluster: ClusterScale,
    /// Operations a layer kernel aims for per repeat (traced run).
    pub kernel_ops: usize,
}

impl Scale {
    /// The counts every reported number is measured with. Blocks are about
    /// 20 ms on the reference host, ten times the reference sample taken
    /// between them: short enough that a run has hundreds, long enough that
    /// sampling the reference costs a tenth of the run.
    pub fn full() -> Self {
        Scale {
            tatp: TatpScale {
                subscribers: 100_000,
                block_txns: 16_384,
                blocks: 40,
                checkpoint_every: 500_000,
                host_inter_ns: 100.0,
                latency_txns: 100_000,
                latency_inter_ns: 2_000.0,
                model_epochs: 4,
            },
            tpcc: TpccScale {
                population: TpccConfig::default(),
                block_txns: 600,
                blocks: 96,
                checkpoint_every: 20_000,
                host_inter_ns: 1_000.0,
                latency_txns: 20_000,
                latency_inter_ns: 15_000.0,
                model_epochs: 4,
            },
            htap: HtapScale {
                subscribers: 2_000,
                call_txns: 40_000,
                inter_us: 2.0,
                scan_pressure: 0.75,
                scan_rows: 200_000,
                snapshot_us: 100.0,
                model_epochs: 24,
            },
            cluster: ClusterScale {
                nodes: 4,
                cross_bp: 5_000,
                inter_us: 20.0,
                block_txns: 8_000,
                blocks: 40,
                model_epochs: 4,
            },
            kernel_ops: 200_000,
        }
    }

    /// The traced run: one model epoch (already a quarter of the 1.3 M
    /// transactions the issue sized an epoch at), a quarter of the latency
    /// phase, a quarter of `htap_scan`'s model calls.
    pub fn traced(&self) -> Self {
        let mut s = self.clone();
        // Not below 2 000: p99 needs ten samples beyond it.
        s.tatp.latency_txns = (s.tatp.latency_txns / 4).max(2_000);
        s.tpcc.latency_txns = (s.tpcc.latency_txns / 4).max(2_000);
        s.tatp.model_epochs = 1;
        s.tpcc.model_epochs = 1;
        s.cluster.model_epochs = 1;
        s.htap.model_epochs = (s.htap.model_epochs / 4).max(2);
        s
    }

    /// A short pass the traced run throws away: full populations, a few
    /// blocks. The first epoch of a process runs up to 20 % slower than
    /// later ones while the heap grows to its working size (fresh pages
    /// fault in); the passes the traced run compares must all come after.
    pub fn process_warmup(&self) -> Self {
        let mut s = self.clone();
        s.tatp.blocks = s.tatp.blocks.min(4);
        s.tatp.latency_txns = s.tatp.latency_txns.min(2_000);
        s.tpcc.blocks = s.tpcc.blocks.min(16);
        s.tpcc.latency_txns = s.tpcc.latency_txns.min(2_000);
        s.htap.model_epochs = 2;
        s.cluster.blocks = s.cluster.blocks.min(4);
        s
    }

    /// Tiny counts for the smoke test: every code path, seconds in total.
    pub fn smoke() -> Self {
        let mut s = Scale::full();
        s.tatp.subscribers = 2_000;
        s.tatp.block_txns = 1_024;
        s.tatp.blocks = 4;
        s.tatp.checkpoint_every = 2_000;
        s.tatp.latency_txns = 4_000;
        s.tatp.model_epochs = 1;
        s.tpcc.population = TpccConfig::small();
        s.tpcc.block_txns = 200;
        s.tpcc.blocks = 4;
        s.tpcc.checkpoint_every = 500;
        s.tpcc.latency_txns = 2_000;
        s.tpcc.model_epochs = 1;
        s.htap.call_txns = 2_000;
        s.htap.scan_rows = 20_000;
        s.htap.model_epochs = 2;
        s.cluster.block_txns = 1_000;
        s.cluster.blocks = 4;
        s.cluster.model_epochs = 1;
        s.kernel_ops = 2_000;
        s
    }
}
