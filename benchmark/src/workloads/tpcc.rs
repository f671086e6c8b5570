//! `tpcc_software` — TPC-C's 5-type mix (92 % read-write) on
//! `EngineConfig::software()`, one `Engine::submit` per transaction, and a
//! crash → restart → verify at the end of every epoch.
//!
//! *Why:* `wal` append / group commit / recovery, `storage` heap and
//! buffer-pool writes, `btree` insert/remove and the software half of
//! `core::exec` do most of the work; hardware units, `overlay`, `scan` and
//! `cluster` are zero — the same layers as `tatp_bionic` used the other
//! way, so a gain for one that costs the other shows.

use std::time::Instant;

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_core::TxnOutcome;
use bionic_sim::time::SimTime;
use bionic_workloads::tpcc::{self, TpccConfig, TpccGenerator};

use crate::epoch::{table_digest, EpochCtx, EpochOut, KeyLog, LatencyPhase};
use crate::spans::Tracer;

/// Arrival clock and checkpoint cadence of the per-transaction loop.
struct SerialLoop {
    base: SimTime,
    at: SimTime,
    since_checkpoint: u64,
    checkpoint_every: u64,
}

impl SerialLoop {
    fn rebase(&mut self, engine: &Engine) {
        self.base = engine.stats.last_completion;
        self.at = SimTime::ZERO;
    }

    /// Submit `txns` transactions, one `Engine::submit` each.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        engine: &mut Engine,
        source: &mut TpccGenerator,
        tr: &mut Tracer,
        txns: u64,
        inter: SimTime,
        mut latencies: Option<&mut Vec<u64>>,
        mut keys: Option<&mut KeyLog>,
    ) {
        for _ in 0..txns {
            let gen = tr.begin("workloads.gen");
            let (_, prog) = source.next();
            tr.end(gen);
            if let Some(keys) = keys.as_deref_mut() {
                if keys.wants_more() {
                    keys.record(&prog);
                }
            }
            let submit = tr.begin("core.submit");
            let outcome = engine.submit(&prog, self.base + self.at);
            tr.end(submit);
            if let (Some(lat), TxnOutcome::Committed { latency }) =
                (latencies.as_deref_mut(), outcome)
            {
                lat.push(latency.as_ps());
            }
            self.at += inter;
            self.since_checkpoint += 1;
            if self.since_checkpoint >= self.checkpoint_every {
                let ck = tr.begin("core.checkpoint");
                engine.checkpoint(self.base + self.at);
                tr.end(ck);
                self.since_checkpoint = 0;
            }
        }
    }
}

/// Power loss, recovery, and the two checks on what came back: every
/// table is internally consistent, and the recovered rows are exactly the
/// rows the acknowledged transactions left behind. `Engine::crash` keeps
/// only the flushed log prefix, as a real power loss would; every
/// transaction the driver saw was acknowledged (committed, hence flushed,
/// or rolled back), so nothing acknowledged may be missing and nothing
/// unacknowledged may survive.
fn crash_oracle(
    engine: Engine,
    tr: &mut Tracer,
    expect_digest: u64,
) -> (Engine, Result<(), String>, u64) {
    let image = engine.crash();
    let sp = tr.begin("wal.recovery");
    let (mut recovered, outcome) = Engine::restart(image, EngineConfig::software());
    tr.end(sp);
    let sp = tr.begin("core.verify");
    let mut verdict = Ok(());
    for t in 0..recovered.table_count() as u32 {
        if let Err(e) = recovered.verify_table_integrity(t) {
            verdict = Err(format!("after recovery: {e}"));
            break;
        }
    }
    if verdict.is_ok() {
        let got = table_digest(&mut recovered);
        if got != expect_digest {
            verdict = Err(format!(
                "recovered rows digest {got:#018x}, acknowledged rows digest {expect_digest:#018x}"
            ));
        }
    }
    tr.end(sp);
    (recovered, verdict, outcome.records_scanned)
}

/// One epoch of `tpcc_software`.
pub fn epoch(ctx: &mut EpochCtx<'_>) -> EpochOut {
    let sc = &ctx.scale.tpcc;
    let saturating = SimTime::from_ns(sc.host_inter_ns);
    let mut keys = KeyLog::default();
    let tracing = ctx.tr.is_on();

    let before_setup = ctx.reference.settled();
    let t_setup = Instant::now();
    let sp = ctx.tr.begin("core.engine_new");
    let mut engine = Engine::new(EngineConfig::software());
    ctx.variant.arm(&mut engine, false);
    ctx.tr.end(sp);
    let sp = ctx.tr.begin("workloads.load");
    let (_, mut source) = tpcc::load(
        &mut engine,
        &TpccConfig {
            seed: ctx.seed,
            ..sc.population.clone()
        },
    );
    ctx.tr.end(sp);
    if ctx.want_model {
        ctx.counts.discount_load(&mut engine);
    }
    let mut lp = SerialLoop {
        base: engine.stats.last_completion,
        at: SimTime::ZERO,
        since_checkpoint: 0,
        checkpoint_every: sc.checkpoint_every,
    };
    let sp = ctx.tr.begin("bench.warmup");
    lp.run(
        &mut engine,
        &mut source,
        &mut Tracer::off(),
        sc.warmup_txns(),
        saturating,
        None,
        None,
    );
    ctx.tr.end(sp);
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    let after_setup = ctx.reference.settled();
    let setup_speed = before_setup.until(after_setup);

    lp.rebase(&engine);
    let host_base = lp.base;
    let committed_before = engine.stats.committed;
    let blocks = ctx.timed_blocks(sc.blocks, sc.block_txns, after_setup, false, |tr| {
        lp.run(
            &mut engine,
            &mut source,
            tr,
            sc.block_txns,
            saturating,
            None,
            tracing.then_some(&mut keys),
        );
    });
    let host_committed = engine.stats.committed - committed_before;
    let host_elapsed = engine.stats.last_completion.saturating_sub(host_base);
    let mut submitted = sc.blocks as u64 * sc.block_txns;

    let mut model = None;
    if ctx.want_model {
        lp.rebase(&engine);
        let mut phase = LatencyPhase::start(&engine, sc.latency_txns);
        lp.run(
            &mut engine,
            &mut source,
            ctx.tr,
            sc.latency_txns,
            SimTime::from_ns(sc.latency_inter_ns),
            Some(&mut phase.latencies_ps),
            None,
        );
        submitted += sc.latency_txns;
        model = Some(phase.finish(&engine, host_committed, host_elapsed, lp.base + lp.at));
        ctx.counts.add_engine(&mut engine, ctx.tr);
    }

    let (export_ms, exported) = ctx
        .variant
        .export_trace(|| engine.tel.export_chrome_trace());
    let acknowledged = engine.stats.committed + engine.stats.aborted;
    let expect_digest = table_digest(&mut engine) ^ u64::from(ctx.corrupt_oracle);
    let all_acknowledged = if acknowledged == engine.stats.submitted {
        Ok(())
    } else {
        Err(format!(
            "{} submitted, {acknowledged} acknowledged",
            engine.stats.submitted
        ))
    };
    let (recovered, verdict, recovery_records) = crash_oracle(engine, ctx.tr, expect_digest);

    EpochOut {
        setup_ns,
        setup_speed,
        blocks,
        submitted,
        oracle: all_acknowledged.and(verdict).and(exported),
        model,
        engine: Some(recovered),
        keys,
        recovery_records,
        export_ms,
    }
}
