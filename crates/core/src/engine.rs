//! The bionic transaction engine: state, construction, loading, restart.
//!
//! The engine assembles every subsystem of Figure 4 around a
//! [`Platform`]: DORA partition agents over action queues, tables with
//! B+tree indexes, the WAL with a pluggable insertion model, the optional
//! FPGA units (tree probe, log insertion, queue engine, overlay manager),
//! and the seven-category profiler of Figure 3. Execution lives in
//! [`crate::exec`].
//!
//! ### Functional/timing split
//!
//! Transactions are *functionally* executed one at a time in arrival order
//! (records really change, the log really grows, aborts really undo), while
//! *timing* flows through per-agent FIFO servers and the hardware pipeline
//! models, which overlap transactions the way the real system would. This
//! is sound for DORA specifically because partition ownership already
//! serializes conflicting work per partition \[10\]; it is the standard
//! functional-first/timing-second simulator decoupling.

use crate::breakdown::TimeBreakdown;
use crate::config::{EngineConfig, LogImpl};
use crate::degrade::{FaultLayer, FaultUnitReport};
use crate::placement::{UNIT_COUNT, UNIT_SCAN};
use crate::table::Table;
use bionic_btree::probe::ProbeEngine;
use bionic_overlay::overlay::OverlayIndex;
use bionic_overlay::result_cache::ResultCache;
use bionic_queue::timing::{HwQueueTiming, SwQueueTiming};
use bionic_sim::arbiter::BwClient;
use bionic_sim::platform::{Platform, PlatformConfig};
use bionic_sim::server::{FluidQueue, Server};
use bionic_sim::stats::Histogram;
use bionic_sim::time::SimTime;
use bionic_storage::bufferpool::BufferPool;
use bionic_storage::disk::DiskManager;
use bionic_telemetry::Telemetry;
use bionic_wal::manager::LogManager;
use bionic_wal::recovery::RecoveryOutcome;
use bionic_wal::timing::{
    ConsolidatedLog, GroupCommit, HwLog, InsertTiming, LatchedLog, LogInsertModel, SwLogParams,
};
use bionic_wal::TxnId;

/// Registry names `collect_metrics` would otherwise `format!` on every call:
/// per arbiter client `{label}_bytes`, `{label}_wait_events`,
/// `{label}_queued_us`.
const ARBITER_CLIENT_METRICS: [(BwClient, [&str; 3]); 2] = [
    (
        BwClient::Oltp,
        ["oltp_bytes", "oltp_wait_events", "oltp_queued_us"],
    ),
    (
        BwClient::Olap,
        ["olap_bytes", "olap_wait_events", "olap_queued_us"],
    ),
];

/// Per §5 unit, in [`bionic_telemetry::UNIT_NAMES`] order: its fault scope
/// `fault/{unit}` and its placement gauge `{unit}_forced_sw`.
const UNIT_METRICS: [(&str, &str); UNIT_COUNT] = [
    ("fault/tree-probe", "tree-probe_forced_sw"),
    ("fault/log-insert", "log-insert_forced_sw"),
    ("fault/queue", "queue_forced_sw"),
    ("fault/overlay", "overlay_forced_sw"),
    ("fault/scanner", "scanner_forced_sw"),
];

/// The pluggable log-insertion path.
pub(crate) enum LogPath {
    /// Latch-serialized software buffer.
    Latched(LatchedLog),
    /// Consolidation-array software buffer.
    Consolidated(ConsolidatedLog),
    /// Hardware insertion engine.
    Hardware(HwLog),
}

impl LogPath {
    pub(crate) fn insert(&mut self, arrive: SimTime, agent: usize, bytes: u64) -> InsertTiming {
        match self {
            LogPath::Latched(m) => m.insert(arrive, agent, bytes),
            LogPath::Consolidated(m) => m.insert(arrive, agent, bytes),
            LogPath::Hardware(m) => m.insert(arrive, agent, bytes),
        }
    }
}

/// Aggregate run statistics.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Transactions submitted.
    pub submitted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (rolled back).
    pub aborted: u64,
    /// End-to-end (arrival → durable) latency of committed transactions.
    pub latency: Histogram,
    /// Completion time of the latest transaction.
    pub last_completion: SimTime,
    /// Overlay bulk merges performed.
    pub merges: u64,
    /// Hardware probe aborts (non-resident data).
    pub probe_misses: u64,
    /// Index probes priced (point descents; range descents count once).
    pub probes: u64,
    /// Total index nodes charged across those probes. With batched submit
    /// the PALM amortization shows up here as fewer nodes per probe.
    pub probe_nodes_visited: u64,
}

impl EngineStats {
    fn new() -> Self {
        EngineStats {
            submitted: 0,
            committed: 0,
            aborted: 0,
            latency: Histogram::new(),
            last_completion: SimTime::ZERO,
            merges: 0,
            probe_misses: 0,
            probes: 0,
            probe_nodes_visited: 0,
        }
    }

    /// Committed transactions per simulated second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.last_completion.is_zero() {
            0.0
        } else {
            self.committed as f64 / self.last_completion.as_secs()
        }
    }
}

/// What survives a crash: the disk image, the durable log, and the catalog.
pub struct CrashImage {
    pub(crate) disk: DiskManager,
    pub(crate) log: Vec<u8>,
    pub(crate) log_base: bionic_wal::Lsn,
    pub(crate) table_names: Vec<String>,
    pub(crate) secondary_offsets: Vec<Option<usize>>,
    /// Per-table heap extent maps. Real systems keep these in durable
    /// catalog pages; modeling them as crash-surviving is the same
    /// simplification as durable page-allocation metadata (DESIGN.md).
    pub(crate) heap_pages: Vec<Vec<u64>>,
}

impl CrashImage {
    /// The surviving durable log bytes (read access, e.g. for an oracle
    /// scanning the commit records that actually reached stable storage).
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Mutable access to the surviving log bytes — the fault-injection
    /// layer uses this to tear the tail or flip bits "on disk" between
    /// crash and restart.
    pub fn log_mut(&mut self) -> &mut Vec<u8> {
        &mut self.log
    }

    /// LSN of the first surviving log byte.
    pub fn log_base(&self) -> bionic_wal::Lsn {
        self.log_base
    }
}

/// A deterministic crash fuse (see [`Engine::crash_at`]): counts priced log
/// appends down to zero, then "blows" — execution halts at the next
/// interruption point exactly as if the process died there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashFuse {
    pub(crate) remaining: u64,
    pub(crate) blown: bool,
}

/// The engine.
pub struct Engine {
    /// Configuration (fixed at construction).
    pub cfg: EngineConfig,
    /// The modeled hardware platform (time/energy accounting).
    pub platform: Platform,
    pub(crate) pool: BufferPool,
    pub(crate) tables: Vec<Table>,
    pub(crate) overlays: Vec<OverlayIndex<i64>>,
    pub(crate) log: LogManager,
    pub(crate) log_path: LogPath,
    pub(crate) group_commit: GroupCommit,
    pub(crate) agents: Vec<Server>,
    pub(crate) rr_next: usize,
    pub(crate) router: Server,
    pub(crate) probe_hw: Option<ProbeEngine>,
    pub(crate) queue_sw: SwQueueTiming,
    pub(crate) queue_hw: Option<HwQueueTiming>,
    /// Conventional mode: the lock-manager latch.
    pub(crate) lock_latch: FluidQueue,
    /// Conventional mode: per-table index root latches.
    pub(crate) root_latches: Vec<FluidQueue>,
    /// CPU-side cache of query results (§5.6's second data pool).
    pub(crate) result_cache: ResultCache,
    /// Figure-3 CPU time accounting.
    pub breakdown: TimeBreakdown,
    /// Sim-time span recorder and metrics (disabled by default; see
    /// [`Engine::enable_telemetry`]).
    pub tel: Telemetry,
    /// Run statistics.
    pub stats: EngineStats,
    pub(crate) next_txn: TxnId,
    pub(crate) write_seq: u64,
    pub(crate) merge_marks: Vec<u64>,
    /// Amortized probe shares for an in-flight [`Engine::submit_batch`].
    pub(crate) batch_plan: crate::exec::BatchPlan,
    /// Armed crash fuse, if any (see [`Engine::crash_at`]).
    pub(crate) fuse: Option<CrashFuse>,
    /// Degraded-mode layer (watchdog/retry/breaker per unit); `None`
    /// unless [`EngineConfig::hw_faults`] is set.
    pub(crate) faults: Option<FaultLayer>,
    /// Adaptive placement controller (see [`crate::placement`]); `None`
    /// unless [`EngineConfig::placement`] is set.
    pub(crate) placement: Option<crate::placement::PlacementController>,
    /// Software log-insert model used when a hardware log insert falls
    /// back (constructed with the same parameters as the `Latched` path,
    /// so fallback pricing matches the software baseline).
    pub(crate) log_fallback: LatchedLog,
    /// Branches prepared under two-phase commit, sorted by local txn id,
    /// awaiting the coordinator's decision (see
    /// [`Engine::submit_prepared`] / [`Engine::resolve_prepared`]). A
    /// handful at a time, and ids grow, so a prepare is usually a push.
    pub(crate) prepared: Vec<(TxnId, crate::exec::PreparedTxn)>,
    /// Reusable hot-path buffers (see [`crate::exec::ExecScratch`]).
    pub(crate) scratch: crate::exec::ExecScratch,
    /// [`Engine::load`]'s record image, refilled for every loaded row.
    load_rec: Vec<u8>,
    /// Per-transaction critical-path accumulator (reset at each submit;
    /// charged along the execution path, flushed at commit).
    pub(crate) path_acc: bionic_telemetry::TxnPathAcc,
    /// Commit-time latency/energy attribution ledger per transaction class
    /// × offload path. `None` = disabled, zero hot-path cost (see
    /// [`Engine::enable_attribution`]).
    pub(crate) attrib: Option<bionic_telemetry::Attribution>,
}

impl Engine {
    /// Build an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let sockets = 2usize;
        let cores_per_socket = cfg.agents.div_ceil(sockets).max(1);
        let platform = Platform::hc2_with(PlatformConfig {
            sockets,
            cores_per_socket,
            socket_hop: SimTime::from_ns(120.0),
            seed: cfg.seed,
        });
        let mut fabric_platform = platform;
        fabric_platform.cpu = bionic_sim::cpu::CpuModel::new(
            2.5e9,
            1.0,
            bionic_sim::energy::Energy::from_nj(cfg.cpu_nj_per_instr),
        );
        fabric_platform.sg_dram = bionic_sim::mem::SgDram::new(
            80e9,
            SimTime::from_ns(400.0),
            8,
            4096,
            bionic_sim::energy::Energy::from_nj(cfg.sg_nj_per_access),
        );
        let sw_log_params = SwLogParams {
            cores_per_socket,
            ..SwLogParams::default()
        };
        let log_path = match cfg.offloads.log {
            LogImpl::Latched => LogPath::Latched(LatchedLog::new(sw_log_params)),
            LogImpl::Consolidated => LogPath::Consolidated(ConsolidatedLog::new(sw_log_params)),
            LogImpl::Hardware => LogPath::Hardware(
                HwLog::hc2(&mut fabric_platform.fabric).expect("fabric fits the log engine"),
            ),
        };
        let probe_hw = cfg.offloads.probe.then(|| {
            ProbeEngine::hc2(&mut fabric_platform.fabric).expect("fabric fits the probe engine")
        });
        let queue_hw = cfg.offloads.queue.then(|| {
            HwQueueTiming::hc2(&mut fabric_platform.fabric).expect("fabric fits the queue engine")
        });
        Engine {
            pool: BufferPool::new(cfg.pool_pages, DiskManager::new()),
            tables: Vec::new(),
            overlays: Vec::new(),
            log: LogManager::new(),
            log_path,
            group_commit: GroupCommit::new(cfg.group_commit, bionic_sim::dev::BlockDevice::ssd()),
            agents: vec![Server::new(); cfg.agents],
            rr_next: 0,
            router: Server::new(),
            probe_hw,
            queue_sw: SwQueueTiming::default(),
            queue_hw,
            lock_latch: FluidQueue::latch(),
            root_latches: Vec::new(),
            result_cache: ResultCache::new(16 << 20),
            breakdown: TimeBreakdown::new(),
            tel: Telemetry::disabled(),
            stats: EngineStats::new(),
            next_txn: 1,
            write_seq: 1,
            merge_marks: Vec::new(),
            batch_plan: crate::exec::BatchPlan::default(),
            fuse: None,
            faults: cfg
                .hw_faults
                .as_ref()
                .map(|fc| FaultLayer::new(fc, cfg.seed)),
            placement: cfg
                .placement
                .clone()
                .map(crate::placement::PlacementController::new),
            log_fallback: LatchedLog::new(sw_log_params),
            prepared: Vec::new(),
            scratch: crate::exec::ExecScratch::default(),
            load_rec: Vec::new(),
            path_acc: bionic_telemetry::TxnPathAcc::default(),
            attrib: None,
            platform: fabric_platform,
            cfg,
        }
    }

    /// Arm the crash fuse: the engine will simulate dying mid-execution
    /// after `appends` more priced log appends (Begin/Insert/Update/Delete/
    /// Commit records — the writes a transaction's forward path makes).
    /// Once blown, in-flight work stops at the next interruption point:
    /// [`crate::exec::TxnOutcome::Interrupted`] is returned, no rollback or
    /// commit processing runs, and the caller is expected to
    /// [`Engine::crash`] the engine. `appends == 0` blows immediately.
    ///
    /// This is the event-granular crash point the fault-injection harness
    /// schedules: it lands *inside* a transaction (between its log writes),
    /// not at the clean submit boundaries every other test path uses.
    pub fn crash_at(&mut self, appends: u64) {
        self.fuse = Some(CrashFuse {
            remaining: appends,
            blown: appends == 0,
        });
    }

    /// Has an armed crash fuse blown? (Always false when never armed.)
    pub fn fuse_blown(&self) -> bool {
        self.fuse.is_some_and(|f| f.blown)
    }

    /// Create a table; returns its id.
    pub fn create_table(&mut self, name: impl Into<String>) -> u32 {
        self.register(Table::new(name))
    }

    /// Create a table with a secondary index over the i64 field at byte
    /// `offset` of the record image; returns its id.
    pub fn create_table_with_secondary(&mut self, name: impl Into<String>, offset: usize) -> u32 {
        self.register(Table::with_secondary(name, offset))
    }

    fn register(&mut self, table: Table) -> u32 {
        let id = self.tables.len() as u32;
        self.tables.push(table);
        self.overlays
            .push(OverlayIndex::new(Vec::new(), usize::MAX));
        self.root_latches.push(FluidQueue::latch());
        self.merge_marks.push(0);
        id
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Untimed bulk load of one row (initial population — "load phase"
    /// work is not part of any measured experiment). The record image is
    /// `key || body`.
    pub fn load(&mut self, table: u32, key: i64, body: &[u8]) {
        crate::table::make_record_into(key, body, &mut self.load_rec);
        let rec = &self.load_rec[..];
        let t = &mut self.tables[table as usize];
        let (rid, _) = t.heap.insert(&mut self.pool, rec).expect("load insert");
        let (old, _) = t.index.insert(key, rid.to_u64());
        assert!(old.is_none(), "duplicate key {key} in load of {}", t.name);
        if let Some(skey) = t.secondary_key(rec) {
            let (old, _) = t.secondary.insert(skey, key as u64);
            assert!(
                old.is_none(),
                "duplicate secondary key {skey} in {}",
                t.name
            );
        }
    }

    /// Finish loading: flush everything, build overlays from the loaded
    /// indexes, reset measurement state.
    pub fn finish_load(&mut self) {
        self.pool.flush_all();
        if self.cfg.offloads.overlay {
            for (i, t) in self.tables.iter().enumerate() {
                let mut pairs = Vec::with_capacity(t.index.len());
                t.index.scan_all(|k, v| pairs.push((*k, v)));
                self.overlays[i] = OverlayIndex::new(pairs, self.cfg.overlay_budget);
            }
        }
        self.breakdown = TimeBreakdown::new();
        self.platform.energy.reset();
        self.stats = EngineStats::new();
        self.tel.reset_run();
        if let Some(a) = &mut self.attrib {
            a.reset();
        }
        self.path_acc.reset();
    }

    /// Turn the sim-time span recorder on with the standard track layout:
    /// one dispatcher track, one per agent, and one per §5 functional unit.
    /// `capacity` bounds the span ring buffer. The recorder stays enabled
    /// across [`Engine::finish_load`] (which clears recorded data).
    pub fn enable_telemetry(&mut self, capacity: usize) {
        let agents = self.cfg.agents;
        self.tel.enable(agents, capacity);
    }

    /// Turn on commit-time attribution: per transaction class × offload
    /// path latency/energy histograms with a critical-path decomposition
    /// (probe / arbiter-wait / watchdog-retry / fallback / commit). All
    /// recorded quantities are integers (picoseconds, picojoules) so ledger
    /// merges are exact. Stays enabled across [`Engine::finish_load`]
    /// (which clears recorded data).
    pub fn enable_attribution(&mut self) {
        if self.attrib.is_none() {
            self.attrib = Some(bionic_telemetry::Attribution::default());
        }
    }

    /// The commit-time attribution ledger, if enabled.
    pub fn attribution(&self) -> Option<&bionic_telemetry::Attribution> {
        self.attrib.as_ref()
    }

    /// Pull a metrics snapshot from every layer into the telemetry
    /// registry (engine, WAL, bufferpool, queues, probe engine, fabric,
    /// PCIe, SG-DRAM, host caches, energy domains). Call it at the end of a
    /// run, at a failure capture point, or at each crossing of a snapshot
    /// grid (`run_hybrid` does, every 100 µs of simulated time in E13/E15)
    /// — not per transaction. Re-setting the metrics of an earlier call
    /// allocates nothing: every name below is static.
    pub fn collect_metrics(&mut self) {
        let counters = self.platform.counters();
        let pool = self.pool.stats();
        let probe = self.probe_hw.as_ref().map(|p| p.stats());
        let energy = self.platform.energy.snapshot();
        let m = self.tel.metrics_mut();

        m.counter("engine", "submitted", self.stats.submitted);
        m.counter("engine", "committed", self.stats.committed);
        m.counter("engine", "aborted", self.stats.aborted);
        m.counter("engine", "merges", self.stats.merges);
        m.counter("engine", "probes", self.stats.probes);
        m.counter("engine", "probe_misses", self.stats.probe_misses);
        m.counter(
            "engine",
            "probe_nodes_visited",
            self.stats.probe_nodes_visited,
        );
        m.gauge(
            "engine",
            "last_completion_us",
            self.stats.last_completion.as_us(),
        );

        m.counter("wal", "appends", self.log.appends());
        m.counter("wal", "flushes", self.log.flushes());
        m.counter("wal", "group_commit_flushes", self.group_commit.flushes());
        m.counter("wal", "tail_lsn", self.log.tail_lsn());
        m.counter("wal", "unflushed_bytes", self.log.unflushed_bytes());
        m.counter("wal", "torn_bytes_dropped", self.log.torn_bytes_dropped());

        m.counter("bufferpool", "hits", pool.hits);
        m.counter("bufferpool", "misses", pool.misses);
        m.counter("bufferpool", "dirty_evictions", pool.dirty_evictions);
        m.counter("bufferpool", "flushes", pool.flushes);

        m.counter("queue", "sw_ops", self.queue_sw.ops());
        m.counter(
            "queue",
            "hw_ops",
            self.queue_hw.as_ref().map_or(0, |q| q.ops()),
        );

        if let Some(p) = probe {
            m.counter("fpga/tree-probe", "completed", p.completed);
            m.counter("fpga/tree-probe", "aborted", p.aborted);
            m.counter("fpga/tree-probe", "sg_reads", p.sg_reads);
        }
        m.counter("fabric", "used_slices", counters.fabric_used_slices);
        m.counter("fabric", "total_slices", counters.fabric_total_slices);
        m.gauge("fabric", "occupancy", self.platform.fabric.occupancy());

        m.counter("link/pcie", "bytes", counters.pcie_bytes);
        m.counter("link/pcie", "transfers", counters.pcie_transfers);
        m.gauge("link/pcie", "busy_us", counters.pcie_busy.as_us());
        m.counter("sg-dram", "accesses", counters.sg_dram_accesses);
        if let Some(c) = &self.platform.contention {
            for (scope, arb) in [("arbiter/sg", &c.sg), ("arbiter/link", &c.link)] {
                for (client, [bytes, wait_events, queued_us]) in ARBITER_CLIENT_METRICS {
                    let c = client.index();
                    m.counter(scope, bytes, arb.client_bytes(c));
                    m.counter(scope, wait_events, arb.client_wait_events(c));
                    m.gauge(scope, queued_us, arb.client_queued(c).as_us());
                }
                m.counter(scope, "requests", arb.requests());
                m.gauge(scope, "max_fill_frac", arb.max_fill_frac());
                m.gauge(scope, "mean_fill_frac", arb.mean_fill_frac());
                m.gauge(scope, "queued_total_us", arb.queued_total().as_us());
            }
        }
        for (class, n) in bionic_sim::mem::AccessClass::ALL
            .iter()
            .zip(counters.cpu_mem_accesses)
        {
            m.counter("cpu-mem", class.label(), n);
        }

        for (domain, e) in energy {
            m.gauge("energy", domain.label(), e.as_j());
        }

        if let Some(a) = &self.attrib {
            let counts = a.path_counts();
            for p in bionic_telemetry::attrib::PATHS {
                m.counter("attrib", p.label(), counts[p.idx()]);
            }
        }

        if let Some(layer) = &self.faults {
            let now = self.stats.last_completion;
            for (r, (scope, _)) in layer.report(now).iter().zip(UNIT_METRICS) {
                m.counter(scope, "ops", r.stats.ops);
                m.counter(scope, "hw_ok", r.stats.hw_ok);
                m.counter(scope, "retries", r.stats.retries);
                m.counter(scope, "fallbacks", r.stats.fallbacks);
                m.counter(scope, "stalls", r.stats.stalls);
                m.counter(scope, "crc_errors", r.stats.crc_errors);
                m.counter(scope, "ecc_errors", r.stats.ecc_errors);
                m.counter(scope, "breaker_opens", r.breaker_opens);
                m.counter(scope, "breaker_closes", r.breaker_closes);
                m.gauge(scope, "breaker_state", f64::from(r.breaker_state.as_u8()));
                m.gauge(scope, "time_degraded_us", r.time_degraded.as_us());
            }
        }

        if let Some(ctl) = &self.placement {
            let r = ctl.report();
            m.counter("placement", "windows", r.windows);
            m.counter("placement", "shed_windows", r.shed_windows);
            m.counter("placement", "brownout_windows", r.brownout_windows);
            m.counter("placement", "transitions", r.transitions);
            for (forced, (_, gauge)) in r.forced_sw.iter().zip(UNIT_METRICS) {
                m.gauge("placement", gauge, f64::from(u8::from(*forced)));
            }
        }
    }

    /// Direct read of a row (untimed; for tests and verification). The
    /// primary index is maintained functionally in every mode (the overlay,
    /// when enabled, tracks it and additionally provides versioning, merge
    /// mechanics, and the FPGA cost model).
    pub fn read_row(&mut self, table: u32, key: i64) -> Option<Vec<u8>> {
        self.tables[table as usize].get(&mut self.pool, key)
    }

    /// Rows currently visible in a table.
    pub fn row_count(&self, table: u32) -> usize {
        self.tables[table as usize].index.len()
    }

    /// Crash the engine: everything volatile dies; the disk, the durable
    /// log prefix, and the catalog names survive.
    pub fn crash(self) -> CrashImage {
        CrashImage {
            table_names: self.tables.iter().map(|t| t.name.clone()).collect(),
            secondary_offsets: self.tables.iter().map(|t| t.secondary_offset).collect(),
            heap_pages: self
                .tables
                .iter()
                .map(|t| t.heap.page_ids().iter().map(|p| p.0).collect())
                .collect(),
            log_base: self.log.base_lsn(),
            log: self.log.crash_image(),
            disk: self.pool.crash(),
        }
    }

    /// Restart from a crash image: run ARIES recovery, rebuild heap page
    /// lists and indexes, and return the ready engine plus the recovery
    /// outcome.
    pub fn restart(image: CrashImage, cfg: EngineConfig) -> (Self, RecoveryOutcome) {
        // Presumed abort: with nobody to ask, in-doubt branches roll back.
        Self::restart_resolving(image, cfg, |_, _, _| false)
    }

    /// [`Engine::restart`] for a 2PC participant: in-doubt branches
    /// (durable Prepare, no decision) are resolved through
    /// `resolve(local_txn, gtxn, coord)` — `true` means the coordinator
    /// durably committed the global transaction. Resolution happens inside
    /// recovery, before indexes are rebuilt, so committed branches keep
    /// their effects and aborted ones leave no trace in the rebuilt state.
    pub fn restart_resolving(
        image: CrashImage,
        cfg: EngineConfig,
        resolve: impl FnMut(bionic_wal::TxnId, u64, u32) -> bool,
    ) -> (Self, RecoveryOutcome) {
        let mut engine = Engine::new(cfg);
        engine.pool = BufferPool::new(engine.cfg.pool_pages, image.disk);
        engine.log = LogManager::from_image_at(image.log, image.log_base);
        let outcome =
            bionic_wal::recovery::recover_with(&mut engine.log, &mut engine.pool, resolve);
        // Post-restart transactions must not reuse ids already in the log:
        // a collision would alias a dead transaction's records with a live
        // one's in the shared WAL (and corrupt a second recovery). Global
        // 2PC ids live in the top half of the id space and have their own
        // allocator, so only local ids advance the counter.
        let max_local = engine
            .log
            .iter_from(engine.log.base_lsn())
            .map(|r| r.txn)
            .filter(|t| t & (1 << 63) == 0)
            .max()
            .unwrap_or(0);
        engine.next_txn = engine.next_txn.max(max_local + 1);
        for (name, secondary) in image.table_names.iter().zip(&image.secondary_offsets) {
            match secondary {
                Some(off) => engine.create_table_with_secondary(name.clone(), *off),
                None => engine.create_table(name.clone()),
            };
        }
        // Heap extents: the durable catalog map, unioned with any pages the
        // log additionally references (growth after the last catalog write
        // would be discovered there in a real system).
        for (i, catalog_pages) in image.heap_pages.iter().enumerate() {
            let mut pages = catalog_pages.clone();
            if let Some(logged) = outcome.table_pages.get(&(i as u32)) {
                pages.extend_from_slice(logged);
            }
            pages.sort_unstable();
            pages.dedup();
            engine.tables[i].restore_pages(&pages);
        }
        for i in 0..engine.tables.len() {
            // split the borrow: table i vs the shared pool
            let table = &mut engine.tables[i];
            table.rebuild_index(&mut engine.pool);
        }
        engine.finish_load();
        (engine, outcome)
    }

    /// Take a **sharp** checkpoint: flush every dirty page, then write a
    /// checkpoint record whose `redo_from` is the current log tail — so a
    /// post-crash redo pass skips everything before it. Returns the
    /// checkpoint LSN. Time and energy are charged (the flush is real SAS
    /// I/O); call this from a maintenance cadence, not per transaction.
    pub fn checkpoint(&mut self, now: bionic_sim::time::SimTime) -> bionic_wal::Lsn {
        let redo_from = self.log.tail_lsn();
        let dirty = self.pool.flush_all();
        // Bulk sequential write-back of the dirty pages.
        self.platform.sas_write(now, 0, dirty * 8192);
        let lsn = self.log.checkpoint(redo_from);
        self.log.flush();
        self.platform.ssd_write(now, 1 << 40, 256);
        // Nothing below the redo point is needed anymore (no transaction is
        // in flight between submits): reclaim the log prefix.
        self.log.truncate_to(redo_from);
        lsn
    }

    /// Load-imbalance factor: max agent busy time over the mean (1.0 is a
    /// perfectly balanced partition map).
    pub fn agent_imbalance(&self) -> f64 {
        let busy: Vec<f64> = self
            .agents
            .iter()
            .map(|a| a.busy_time().as_secs())
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            busy.iter().cloned().fold(0.0, f64::max) / mean
        }
    }

    /// Split borrow for the scan path: the platform plus the scanner's
    /// degraded-mode unit (when the fault layer is armed). Lets a caller
    /// price a scan against the platform while consulting the scanner's
    /// watchdog/breaker, without a double mutable borrow of the engine.
    pub fn scan_parts(&mut self) -> (&mut Platform, Option<&mut bionic_sim::fault::DegradedUnit>) {
        (
            &mut self.platform,
            self.faults.as_mut().map(|f| f.unit_mut(UNIT_SCAN)),
        )
    }

    /// Record an `arbiter-wait` busy mark on the scanner's unit track.
    /// Scan-side contention is priced outside the engine (the scan paths
    /// take the platform alone); this surfaces the queueing the arbiter
    /// charged on the same timeline the OLTP-side waits use. Empty or
    /// inverted intervals are ignored, like every span.
    pub fn mark_scan_arbiter_wait(&mut self, start: SimTime, end: SimTime) {
        self.tel.unit_busy(
            UNIT_SCAN,
            "arbiter-wait",
            crate::breakdown::Category::Other.label(),
            start,
            end,
        );
    }

    /// Per-unit degraded-mode report, stamped at the latest completion
    /// time. `None` when the fault layer is off.
    pub fn fault_report(&self) -> Option<Vec<FaultUnitReport>> {
        let now = self.stats.last_completion;
        self.faults.as_ref().map(|f| f.report(now))
    }

    /// Gather the cumulative counters the placement controller diffs: the
    /// arbiter's per-client queueing and grant bytes, per-unit degrade
    /// stats and breaker opens, and the commit count — all ledgers the
    /// engine keeps anyway, read without mutation.
    fn placement_signals(&self) -> crate::placement::PlacementSignals {
        let mut s = crate::placement::PlacementSignals {
            committed: self.stats.committed,
            ..Default::default()
        };
        if let Some(c) = &self.platform.contention {
            let oltp = bionic_sim::arbiter::BwClient::Oltp.index();
            let olap = bionic_sim::arbiter::BwClient::Olap.index();
            s.oltp_queued_ps =
                c.sg.client_queued(oltp).as_ps() + c.link.client_queued(oltp).as_ps();
            s.oltp_wait_events = c.sg.client_wait_events(oltp) + c.link.client_wait_events(oltp);
            s.sg_olap_bytes = c.sg.client_bytes(olap);
        }
        if let Some(layer) = &self.faults {
            for u in 0..UNIT_COUNT {
                let unit = layer.unit(u);
                s.unit_ops[u] = unit.stats.ops;
                s.unit_retries[u] = unit.stats.retries;
                s.unit_fallbacks[u] = unit.stats.fallbacks;
                s.breaker_opens[u] = unit.breaker().opens();
            }
        }
        s
    }

    /// Drive the placement controller at sim time `now`: when a decision
    /// window boundary has been crossed, sample the counters, run the
    /// decision rules, and emit a trace mark per effective transition.
    /// No-op (one `Option` check) when the controller is off; between
    /// boundaries it costs one comparison.
    pub fn placement_tick(&mut self, now: SimTime) {
        let Some(ctl) = self.placement.as_ref() else {
            return;
        };
        if !ctl.due(now) {
            return;
        }
        let signals = self.placement_signals();
        let ctl = self.placement.as_mut().expect("checked above");
        ctl.observe(now, signals);
        while let Some(d) = self.placement.as_mut().and_then(|c| c.take_unannounced()) {
            let label = if d.forced_sw {
                "placement-shed"
            } else {
                "placement-restore"
            };
            self.tel.unit_busy(
                d.unit,
                label,
                d.reason.label(),
                d.at,
                d.at + SimTime::from_ns(100.0),
            );
        }
    }

    /// May `unit` use its hardware path right now, as far as the
    /// placement controller is concerned? Always `true` when no
    /// controller is armed.
    #[inline]
    pub(crate) fn placement_allows(&self, unit: usize) -> bool {
        match &self.placement {
            Some(ctl) => ctl.allows_hw(unit),
            None => true,
        }
    }

    /// Should the next enhanced-scanner dispatch run in software because
    /// the controller browned the scan unit out? (Distinct from the
    /// breaker-driven per-op fallback inside `scan_dispatch_with`.)
    pub fn placement_scan_software(&self) -> bool {
        !self.placement_allows(UNIT_SCAN)
    }

    /// The placement controller's summary, or `None` when off.
    pub fn placement_report(&self) -> Option<crate::placement::PlacementReport> {
        self.placement.as_ref().map(|c| c.report())
    }

    /// The write-ahead log (read access, e.g. for verification).
    pub fn log(&self) -> &LogManager {
        &self.log
    }

    /// The next transaction id [`Engine::submit`] will assign.
    pub fn next_txn_id(&self) -> TxnId {
        self.next_txn
    }

    /// Model the OS page cache writing the buffered log tail back at crash
    /// time (no timing or energy is charged — this is a fault-injection
    /// knob, not a transaction-path flush). After this, [`Engine::crash`]'s
    /// image includes everything appended so far.
    pub fn os_flush_log(&mut self) {
        self.log.flush();
    }

    /// Write back up to `n` dirty buffer-pool pages (ascending page-id
    /// order). Fault-injection knob modeling a partial background
    /// write-back racing the crash; untimed.
    pub fn flush_pool_pages(&mut self, n: usize) -> u64 {
        self.pool.flush_some(n)
    }

    /// Name of a table.
    pub fn table_name(&self, table: u32) -> &str {
        &self.tables[table as usize].name
    }

    /// Secondary-index field offset of a table, if it has one.
    pub fn secondary_offset(&self, table: u32) -> Option<usize> {
        self.tables[table as usize].secondary_offset
    }

    /// Full contents of a table as `(key, record_image)` pairs in key
    /// order, read through the primary index (untimed; for differential
    /// verification).
    pub fn scan_table(&mut self, table: u32) -> Vec<(i64, Vec<u8>)> {
        let mut pairs: Vec<(i64, u64)> = Vec::new();
        self.tables[table as usize]
            .index
            .scan_all(|k, v| pairs.push((*k, v)));
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let mut out = Vec::with_capacity(pairs.len());
        for (key, rid) in pairs {
            let rec = self.tables[table as usize]
                .heap
                .get(
                    &mut self.pool,
                    bionic_storage::page::RecordId::from_u64(rid),
                )
                .0
                .unwrap_or_else(|| panic!("index of {table} points at dead rid for key {key}"));
            out.push((key, rec));
        }
        out
    }

    /// All `(secondary_key, primary_key)` pairs of a table's secondary
    /// index in secondary-key order (untimed; for verification).
    pub fn scan_secondary(&self, table: u32) -> Vec<(i64, i64)> {
        let mut pairs: Vec<(i64, i64)> = Vec::new();
        self.tables[table as usize]
            .secondary
            .scan_all(|k, v| pairs.push((*k, v as i64)));
        pairs.sort_unstable();
        pairs
    }

    /// Check a table's internal consistency: every index entry points at a
    /// live heap record embedding that key; every heap record is indexed;
    /// when a secondary index exists, it maps exactly the secondary fields
    /// of the live records back to their primary keys (both directions).
    pub fn verify_table_integrity(&mut self, table: u32) -> Result<(), String> {
        let t = &mut self.tables[table as usize];
        let name = t.name.clone();
        t.index
            .check_invariants()
            .map_err(|e| format!("{name}: primary index invariant: {e}"))?;
        let mut index_pairs: Vec<(i64, u64)> = Vec::new();
        t.index.scan_all(|k, v| index_pairs.push((*k, v)));

        // Heap side: collect every live record.
        let mut heap_rows: std::collections::BTreeMap<i64, Vec<u8>> =
            std::collections::BTreeMap::new();
        let mut heap_rids: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
        let mut dup: Option<i64> = None;
        t.heap.scan(&mut self.pool, |rid, rec| {
            let key = crate::table::record_key(rec);
            if heap_rows.insert(key, rec.to_vec()).is_some() {
                dup = Some(key);
            }
            heap_rids.insert(key, rid.to_u64());
        });
        if let Some(key) = dup {
            return Err(format!("{name}: duplicate heap record for key {key}"));
        }
        if index_pairs.len() != heap_rows.len() {
            return Err(format!(
                "{name}: index has {} entries but heap has {} live records",
                index_pairs.len(),
                heap_rows.len()
            ));
        }
        for (key, rid) in &index_pairs {
            match heap_rids.get(key) {
                None => return Err(format!("{name}: index key {key} has no heap record")),
                Some(actual) if actual != rid => {
                    return Err(format!(
                        "{name}: index key {key} points at rid {rid} but record lives at {actual}"
                    ));
                }
                Some(_) => {}
            }
        }

        // Secondary side, both directions.
        let t = &self.tables[table as usize];
        if t.secondary_offset.is_some() {
            let mut sec_pairs: Vec<(i64, i64)> = Vec::new();
            t.secondary.scan_all(|k, v| sec_pairs.push((*k, v as i64)));
            for (skey, pkey) in &sec_pairs {
                let Some(rec) = heap_rows.get(pkey) else {
                    return Err(format!(
                        "{name}: secondary {skey} -> {pkey} but primary key is gone"
                    ));
                };
                let actual = t.secondary_key(rec).expect("offset configured");
                if actual != *skey {
                    return Err(format!(
                        "{name}: secondary {skey} -> {pkey} but record's field is {actual}"
                    ));
                }
            }
            let mut expect: Vec<(i64, i64)> = heap_rows
                .iter()
                .map(|(k, rec)| (t.secondary_key(rec).expect("offset configured"), *k))
                .collect();
            expect.sort_unstable();
            let mut got = sec_pairs;
            got.sort_unstable();
            if got != expect {
                return Err(format!(
                    "{name}: secondary index has {} entries, live records imply {}",
                    got.len(),
                    expect.len()
                ));
            }
        }
        Ok(())
    }

    /// Committed-writes version counter: the NEXT version a write will be
    /// stamped with (overlay merge versions).
    pub fn write_seq(&self) -> u64 {
        self.write_seq
    }

    /// The snapshot version covering everything written so far — pass this
    /// to [`Engine::query_range`]'s `asof` to read the current state later,
    /// after more writes have happened.
    pub fn current_version(&self) -> u64 {
        self.write_seq - 1
    }
}
