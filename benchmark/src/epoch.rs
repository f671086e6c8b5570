//! What every workload's epoch takes and returns.
//!
//! An *epoch* builds fresh state from `seed + epoch`, warms up, runs a
//! fixed number of fixed-size timed blocks, and ends with the workload's
//! correctness oracle. Host-time numbers pool the blocks of all epochs;
//! model-time numbers come from the leading model epochs only.

use std::time::Instant;

use bionic_core::engine::Engine;
use bionic_core::ops::{Op, TxnProgram};
use bionic_sim::time::SimTime;

use crate::counts::Counts;
use crate::reference::{HostSpeed, Reference};
use crate::spans::Tracer;
use crate::spec::Scale;

/// Engine instrumentation armed for an epoch. Every end-to-end number is
/// measured with the workload's default (`Attrib` on `htap_scan`, whose
/// definition includes attribution; `Bare` elsewhere); the others exist so
/// the traced run can report what the program's own observability costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Telemetry and attribution off (the engines' default).
    Bare,
    /// `Engine::enable_attribution` on every engine.
    Attrib,
    /// The workload's default plus `Engine::enable_telemetry` (span ring
    /// of 65 536) on every engine.
    Telemetry,
}

impl Variant {
    /// With the span recorder armed, export the program's own trace with
    /// `export` and check it with the repo's validator: `(export wall ms,
    /// verdict)`. `(None, Ok)` for the other variants.
    pub fn export_trace(
        self,
        export: impl FnOnce() -> String,
    ) -> (Option<f64>, Result<(), String>) {
        if self != Variant::Telemetry {
            return (None, Ok(()));
        }
        let t = Instant::now();
        let trace = export();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let verdict = bionic_telemetry::validate_chrome_trace(&trace)
            .map_err(|e| format!("the program's own trace export is invalid: {e}"));
        (Some(ms), verdict)
    }

    /// Arm `engine` (before its population is loaded: both switches
    /// survive `finish_load`). `default_attrib` says whether the workload
    /// runs with attribution by default.
    pub fn arm(self, engine: &mut Engine, default_attrib: bool) {
        match self {
            Variant::Bare => {}
            Variant::Attrib => engine.enable_attribution(),
            Variant::Telemetry => {
                if default_attrib {
                    engine.enable_attribution();
                }
                engine.enable_telemetry(1 << 16);
            }
        }
    }
}

/// Inputs of one epoch.
pub struct EpochCtx<'a> {
    /// `--seed + epoch index`.
    pub seed: u64,
    /// Transaction counts.
    pub scale: &'a Scale,
    /// Span recorder (off for every end-to-end measurement).
    pub tr: &'a mut Tracer,
    /// Engine instrumentation.
    pub variant: Variant,
    /// Run the model-time phases and fill [`EpochOut::model`].
    pub want_model: bool,
    /// The count ledger model epochs add their engines to.
    pub counts: &'a mut Counts,
    /// The host-speed reference sampled beside every block and set-up.
    pub reference: &'a mut Reference,
    /// Self-test only (`tatp_bionic`): slow the timed loop down by this
    /// share with a busy-wait inside each `core.submit` span.
    pub inject_share: Option<f64>,
    /// Test only: falsify the oracle's expectation, which must fail it.
    pub corrupt_oracle: bool,
}

/// One timed block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Wall time.
    pub ns: u64,
    /// Transactions submitted in the block.
    pub txns: u64,
    /// Allocator calls inside the block.
    pub allocs: u64,
    /// Bytes requested inside the block.
    pub alloc_bytes: u64,
    /// The host's speed over the block: the reference sampled right before
    /// and right after it.
    pub speed: HostSpeed,
}

impl Block {
    /// Wall ns per submitted transaction.
    pub fn ns_per_txn(&self) -> f64 {
        self.ns as f64 / self.txns as f64
    }

    /// The same in the reference host's nanoseconds.
    pub fn ref_ns_per_txn(&self) -> f64 {
        self.ns_per_txn() / self.speed.slowdown()
    }
}

impl EpochCtx<'_> {
    /// Run `blocks` timed blocks of `txns` transactions each: `work` is
    /// called once per block with the span recorder. Each block is wrapped
    /// in a `bench.block` span, timed, its allocations counted, and the
    /// reference sampled after it (`before` is the sample taken before the
    /// first). `settled` asks for [`Reference::settled`] samples: for
    /// blocks of hundreds of milliseconds, of which a run has few.
    pub fn timed_blocks(
        &mut self,
        blocks: u32,
        txns: u64,
        mut before: HostSpeed,
        settled: bool,
        mut work: impl FnMut(&mut Tracer),
    ) -> Vec<Block> {
        let mut out = Vec::with_capacity(blocks as usize);
        for b in 0..blocks {
            self.tr.set_block(b + 1);
            let sp = self.tr.begin("bench.block");
            let a0 = crate::alloc::snapshot();
            let t0 = Instant::now();
            work(self.tr);
            let ns = t0.elapsed().as_nanos() as u64;
            let a1 = crate::alloc::snapshot();
            self.tr.end(sp);
            self.tr.set_block(0);
            let after = if settled {
                self.reference.settled()
            } else {
                self.reference.sample()
            };
            out.push(Block {
                ns,
                txns,
                allocs: a1.0 - a0.0,
                alloc_bytes: a1.1 - a0.1,
                speed: before.until(after),
            });
            before = after;
        }
        out
    }
}

/// Model-time results of epoch 0: a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Model {
    /// Committed transactions per simulated second in the host phase.
    pub sim_txn_per_s: f64,
    /// Median commit latency at the fixed offered rate.
    pub sim_p50_us: f64,
    /// 99th-percentile commit latency at the fixed offered rate.
    pub sim_p99_us: f64,
    /// Latency samples behind the two percentiles.
    pub latency_samples: u64,
    /// Samples counted strictly beyond the reported p99 (must be >= 10);
    /// `None` where the program's public report gives percentiles only and
    /// nothing to count them from (`cluster_2pc`).
    pub beyond_p99: Option<u64>,
    /// Platform (+ network) energy per committed transaction.
    pub sim_joules_per_txn: f64,
    /// Transactions submitted across the epoch's phases.
    pub submitted: u64,
    /// Aborted + interrupted + globally aborted among them.
    pub not_committed: u64,
    /// How far the last completion trailed the last arrival, in units of
    /// the reported p99 (a growing backlog shows as a large value).
    pub backlog_p99s: f64,
}

/// The latency phase of an engine workload's model epoch: commit latency,
/// energy and backlog at the fixed offered rate. [`LatencyPhase::start`]
/// before the phase's first arrival, push committed latencies while it
/// runs, [`LatencyPhase::finish`] after its last.
pub struct LatencyPhase {
    energy_before: bionic_sim::energy::EnergyMeter,
    committed_before: u64,
    /// Commit latency of every committed transaction of the phase, ps.
    pub latencies_ps: Vec<u64>,
}

impl LatencyPhase {
    /// Snapshot `engine` before a phase of `txns` transactions.
    pub fn start(engine: &Engine, txns: u64) -> Self {
        LatencyPhase {
            energy_before: engine.platform.energy.clone(),
            committed_before: engine.stats.committed,
            latencies_ps: Vec::with_capacity(txns as usize),
        }
    }

    /// The epoch's model-time results. `host_committed` transactions
    /// committed in `host_elapsed` of simulated time in the host phase;
    /// the latency phase's last transaction arrived at `last_arrival`.
    pub fn finish(
        mut self,
        engine: &Engine,
        host_committed: u64,
        host_elapsed: SimTime,
        last_arrival: SimTime,
    ) -> Model {
        self.latencies_ps.sort_unstable();
        let (p50, _) = crate::stats::percentile_u64(&self.latencies_ps, 0.50);
        let (p99, beyond) = crate::stats::percentile_u64(&self.latencies_ps, 0.99);
        let committed = engine.stats.committed - self.committed_before;
        let joules = engine
            .platform
            .energy
            .since(&self.energy_before)
            .total()
            .as_j();
        let trail = engine.stats.last_completion.saturating_sub(last_arrival);
        Model {
            sim_txn_per_s: host_committed as f64 / host_elapsed.as_secs(),
            sim_p50_us: p50 as f64 / 1e6,
            sim_p99_us: p99 as f64 / 1e6,
            latency_samples: self.latencies_ps.len() as u64,
            beyond_p99: Some(beyond as u64),
            sim_joules_per_txn: joules / committed.max(1) as f64,
            submitted: engine.stats.submitted,
            not_committed: engine.stats.submitted - engine.stats.committed,
            backlog_p99s: trail.as_ps() as f64 / p99.max(1) as f64,
        }
    }
}

/// Results of one epoch.
pub struct EpochOut {
    /// Construction + population load + warm-up, wall ns.
    pub setup_ns: u64,
    /// The host's speed over the set-up.
    pub setup_speed: HostSpeed,
    /// The timed blocks.
    pub blocks: Vec<Block>,
    /// Transactions submitted in timed blocks and model phases.
    pub submitted: u64,
    /// The oracle's verdict.
    pub oracle: Result<(), String>,
    /// Model-time results, when asked for.
    pub model: Option<Model>,
    /// An engine holding the epoch's final population, for the kernels.
    pub engine: Option<Engine>,
    /// Primary-key ops recorded in a traced epoch's blocks.
    pub keys: KeyLog,
    /// Log records recovery scanned at the epoch's end (`tpcc_software`).
    pub recovery_records: u64,
    /// Wall ms of exporting the program's own trace (telemetry variant).
    pub export_ms: Option<f64>,
}

/// Primary-key operations recorded from the generated programs of a traced
/// epoch: the inputs the layer kernels (source **K**) replay.
#[derive(Debug, Default)]
pub struct KeyLog {
    /// `(table, key)` of every recorded `Read`/`Update` op.
    pub touches: Vec<(u32, i64)>,
    /// `(table, key)` of every recorded `Insert` op.
    pub inserts: Vec<(u32, i64)>,
    /// Record lengths of recorded `Insert` ops (the WAL kernel's images).
    pub body_lens: Vec<usize>,
}

impl KeyLog {
    /// Ops kept per kind; the first this many of an epoch.
    pub const CAP: usize = 1 << 16;

    /// Still recording?
    pub fn wants_more(&self) -> bool {
        self.touches.len() < Self::CAP
    }

    /// Record the primary-key ops of `prog`.
    pub fn record(&mut self, prog: &TxnProgram) {
        for action in prog.phases.iter().flatten() {
            for op in &action.ops {
                match op {
                    Op::Read { table, key } | Op::Update { table, key, .. } => {
                        self.touches.push((*table, *key));
                    }
                    Op::Insert { table, key, record } => {
                        self.inserts.push((*table, *key));
                        self.body_lens.push(record.len());
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Busy-wait `ns` nanoseconds (self-test injection; 0 returns at once).
#[inline]
pub fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let t = Instant::now();
    while (t.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// FNV-1a over 8-byte words: the digest of table contents (oracles) and
/// of model-time metrics (`model_digest`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Digest of every table's `(key, record)` pairs, in table and key order.
pub fn table_digest(engine: &mut Engine) -> u64 {
    let mut h = Fnv::default();
    for t in 0..engine.table_count() as u32 {
        for (key, rec) in engine.scan_table(t) {
            h.word(key as u64);
            h.bytes(&rec);
        }
        h.word(u64::from(t));
    }
    h.0
}
