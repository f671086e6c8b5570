//! `tatp_bionic` — the E8 hot loop: TATP's 7-type mix (80 % reads) over
//! 100 000 subscribers on `EngineConfig::bionic()`, pooled batches of 32
//! through `Engine::submit_batch_with`.
//!
//! *Why:* `btree` probes and batch planning, `queue`, and the
//! hardware-pricing half of `core::exec` do most of the work; `wal` and
//! `overlay` are light; `scan`, `cluster` and `telemetry` are zero.

use std::time::Instant;

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_core::ops::TxnProgram;
use bionic_core::TxnOutcome;
use bionic_sim::time::SimTime;
use bionic_workloads::tatp::{self, TatpConfig, TatpGenerator};

use crate::epoch::{spin_ns, EpochCtx, EpochOut, KeyLog, LatencyPhase};
use crate::spans::Tracer;

/// Transactions per `submit_batch_with` call (E8's `SUBMIT_BATCH`).
pub const BATCH: usize = 32;

/// The pooled batch loop of `bionic_workloads::run_batched_pooled`, written
/// out so the driver can put a span around each call into a layer: one
/// program pool per label, refilled in place, handed to the engine by
/// index. Arrival times continue across calls of [`PooledLoop::run`].
pub struct PooledLoop {
    pools: Vec<(&'static str, Vec<TxnProgram>)>,
    used: Vec<usize>,
    order: Vec<(usize, usize)>,
    outcomes: Vec<TxnOutcome>,
    /// Sim time of the phase's first arrival.
    pub base: SimTime,
    /// Offset of the next arrival from `base`.
    pub at: SimTime,
    since_checkpoint: u64,
}

/// Per-call knobs of [`PooledLoop::run`].
pub struct LoopArgs<'a> {
    /// Transactions to submit.
    pub txns: u64,
    /// Open-loop inter-arrival time.
    pub inter: SimTime,
    /// Checkpoint after this many transactions.
    pub checkpoint_every: u64,
    /// Self-test only: busy-wait inside each `core.submit` span for this
    /// share of the wall time the batch has taken so far (generation and
    /// submission), so the loop runs that much slower whatever the host's
    /// state. `None` reads no clock.
    pub inject_share: Option<f64>,
    /// Collect committed latencies (ps) here.
    pub latencies: Option<&'a mut Vec<u64>>,
    /// Record primary-key ops here (traced run only).
    pub keys: Option<&'a mut KeyLog>,
}

impl PooledLoop {
    /// A loop whose first arrival is at the engine's latest completion.
    pub fn new(engine: &Engine) -> Self {
        PooledLoop {
            pools: Vec::new(),
            used: Vec::new(),
            order: Vec::with_capacity(BATCH),
            outcomes: Vec::with_capacity(BATCH),
            base: engine.stats.last_completion,
            at: SimTime::ZERO,
            since_checkpoint: 0,
        }
    }

    /// Start a new phase: arrivals restart at the engine's latest
    /// completion, so the previous phase's backlog is not inherited.
    pub fn rebase(&mut self, engine: &Engine) {
        self.base = engine.stats.last_completion;
        self.at = SimTime::ZERO;
    }

    /// Submit `args.txns` transactions from `source`.
    pub fn run(
        &mut self,
        engine: &mut Engine,
        source: &mut TatpGenerator,
        tr: &mut Tracer,
        mut args: LoopArgs<'_>,
    ) {
        let mut remaining = args.txns;
        while remaining > 0 {
            let take = (remaining as usize).min(BATCH);
            let batch_began = args.inject_share.map(|_| Instant::now());
            let gen = tr.begin("workloads.gen");
            self.order.clear();
            self.used.iter_mut().for_each(|u| *u = 0);
            for _ in 0..take {
                let label = source.next_label();
                let pi = match self.pools.iter().position(|(l, _)| *l == label) {
                    Some(pi) => pi,
                    None => {
                        self.pools.push((label, Vec::new()));
                        self.used.push(0);
                        self.pools.len() - 1
                    }
                };
                let ki = self.used[pi];
                self.used[pi] += 1;
                if self.pools[pi].1.len() == ki {
                    self.pools[pi].1.push(TxnProgram::default());
                }
                source.fill(&mut self.pools[pi].1[ki]);
                self.order.push((pi, ki));
            }
            tr.end(gen);
            if let Some(keys) = args.keys.as_deref_mut() {
                if keys.wants_more() {
                    for &(pi, ki) in &self.order {
                        keys.record(&self.pools[pi].1[ki]);
                    }
                }
            }
            let submit = tr.begin("core.submit");
            let (pools, order) = (&self.pools, &self.order);
            engine.submit_batch_with(
                take,
                self.base + self.at,
                args.inter,
                |i| {
                    let (pi, ki) = order[i];
                    &pools[pi].1[ki]
                },
                &mut self.outcomes,
            );
            if let (Some(share), Some(began)) = (args.inject_share, batch_began) {
                spin_ns((share * began.elapsed().as_nanos() as f64) as u64);
            }
            tr.end(submit);
            if let Some(lat) = args.latencies.as_deref_mut() {
                lat.extend(self.outcomes.iter().filter_map(|o| match o {
                    TxnOutcome::Committed { latency } => Some(latency.as_ps()),
                    _ => None,
                }));
            }
            self.at += args.inter * take as u64;
            remaining -= take as u64;
            self.since_checkpoint += take as u64;
            if self.since_checkpoint >= args.checkpoint_every {
                let ck = tr.begin("core.checkpoint");
                engine.checkpoint(self.base + self.at);
                tr.end(ck);
                self.since_checkpoint = 0;
            }
        }
    }
}

/// Every table consistent, and the engine saw exactly the transactions the
/// driver submitted, each one committed or rolled back.
fn oracle(engine: &mut Engine, expect_submitted: u64) -> Result<(), String> {
    for t in 0..engine.table_count() as u32 {
        engine.verify_table_integrity(t)?;
    }
    let s = &engine.stats;
    if s.submitted != expect_submitted {
        return Err(format!(
            "engine saw {} transactions, driver submitted {expect_submitted}",
            s.submitted
        ));
    }
    if s.committed + s.aborted != s.submitted {
        return Err(format!(
            "{} submitted but {} committed + {} aborted",
            s.submitted, s.committed, s.aborted
        ));
    }
    Ok(())
}

/// One epoch of `tatp_bionic`.
pub fn epoch(ctx: &mut EpochCtx<'_>) -> EpochOut {
    let sc = &ctx.scale.tatp;
    let saturating = SimTime::from_ns(sc.host_inter_ns);
    let mut keys = KeyLog::default();
    let tracing = ctx.tr.is_on();

    let before_setup = ctx.reference.settled();
    let t_setup = Instant::now();
    let sp = ctx.tr.begin("core.engine_new");
    let mut engine = Engine::new(EngineConfig::bionic());
    ctx.variant.arm(&mut engine, false);
    ctx.tr.end(sp);
    let wl = TatpConfig {
        subscribers: sc.subscribers,
        seed: ctx.seed,
    };
    let sp = ctx.tr.begin("workloads.load");
    let tables = tatp::load(&mut engine, &wl);
    ctx.tr.end(sp);
    if ctx.want_model {
        ctx.counts.discount_load(&mut engine);
    }
    let mut source = TatpGenerator::new(wl, tables);
    let mut lp = PooledLoop::new(&engine);
    let sp = ctx.tr.begin("bench.warmup");
    lp.run(
        &mut engine,
        &mut source,
        &mut Tracer::off(),
        LoopArgs {
            txns: sc.warmup_txns(),
            inter: saturating,
            checkpoint_every: sc.checkpoint_every,
            inject_share: None,
            latencies: None,
            keys: None,
        },
    );
    ctx.tr.end(sp);
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    let after_setup = ctx.reference.settled();
    let setup_speed = before_setup.until(after_setup);

    // Host phase: saturating arrivals, fixed-size timed blocks.
    lp.rebase(&engine);
    let host_base = lp.base;
    let committed_before = engine.stats.committed;
    let inject_share = ctx.inject_share;
    let blocks = ctx.timed_blocks(sc.blocks, sc.block_txns, after_setup, false, |tr| {
        lp.run(
            &mut engine,
            &mut source,
            tr,
            LoopArgs {
                txns: sc.block_txns,
                inter: saturating,
                checkpoint_every: sc.checkpoint_every,
                inject_share,
                latencies: None,
                keys: tracing.then_some(&mut keys),
            },
        );
    });
    let host_committed = engine.stats.committed - committed_before;
    let host_elapsed = engine.stats.last_completion.saturating_sub(host_base);
    let mut submitted = sc.blocks as u64 * sc.block_txns;

    // Latency phase (epoch 0): the fixed offered rate.
    let mut model = None;
    if ctx.want_model {
        lp.rebase(&engine);
        let mut phase = LatencyPhase::start(&engine, sc.latency_txns);
        lp.run(
            &mut engine,
            &mut source,
            ctx.tr,
            LoopArgs {
                txns: sc.latency_txns,
                inter: SimTime::from_ns(sc.latency_inter_ns),
                checkpoint_every: sc.checkpoint_every,
                inject_share: None,
                latencies: Some(&mut phase.latencies_ps),
                keys: None,
            },
        );
        submitted += sc.latency_txns;
        model = Some(phase.finish(&engine, host_committed, host_elapsed, lp.base + lp.at));
        ctx.counts.add_engine(&mut engine, ctx.tr);
    }

    let (export_ms, exported) = ctx
        .variant
        .export_trace(|| engine.tel.export_chrome_trace());
    let sp = ctx.tr.begin("core.verify");
    let expect = sc.warmup_txns() + submitted + u64::from(ctx.corrupt_oracle);
    let oracle = oracle(&mut engine, expect).and(exported);
    ctx.tr.end(sp);

    EpochOut {
        setup_ns,
        setup_speed,
        blocks,
        submitted,
        oracle,
        model,
        engine: Some(engine),
        keys,
        recovery_records: 0,
        export_ms,
    }
}
