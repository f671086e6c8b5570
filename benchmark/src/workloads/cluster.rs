//! `cluster_2pc` — a 4-node bionic cluster on a mildly lossy interconnect
//! (1 % drops, 0.5 % duplicates, 1 % delays), small TATP populations, half
//! of all transactions cross-partition, 20 µs inter-arrival.
//!
//! *Why:* `cluster` (2PC ladders, dedup, in-doubt resolution),
//! `cluster::net` and the `wal` forced-flush path (`submit_prepared`,
//! `log_decision`) do more than half of the work; the single-partition half
//! is the `tatp_bionic` path on a tiny population, so an engine change
//! shows here at under half strength and a cluster change shows nowhere
//! else.

use std::time::Instant;

use bionic_cluster::{Cluster, ClusterConfig, ClusterReport, NetConfig};
use bionic_core::config::EngineConfig;
use bionic_sim::time::SimTime;
use bionic_workloads::{ClusterTxn, PartitionedWorkload, WorkloadKind};

use crate::epoch::{EpochCtx, EpochOut, KeyLog, Model};
use crate::spans::Tracer;

/// The interconnect: `NetConfig::healthy` links with 1 % drops, 0.5 %
/// duplicates and 1 % delays, plus 1 µs of uniform jitter per message.
/// Without jitter a commit's latency is one of a handful of constants (two
/// 5 µs round trips + the decision flush, + 40 µs per delay, + 200 µs per
/// retry), so p50 and p99 would read exactly the same on every seed and
/// could not show a change smaller than a whole rung.
pub fn net_config(seed: u64) -> NetConfig {
    NetConfig {
        jitter: SimTime::from_us(1.0),
        ..NetConfig::healthy(seed).with_rates(100, 50, 100, 0)
    }
}

/// Submit `txns` routed transactions, `inter` apart, starting at `*at`.
fn run(
    cluster: &mut Cluster,
    source: &mut PartitionedWorkload,
    tr: &mut Tracer,
    txns: u64,
    inter: SimTime,
    at: &mut SimTime,
    mut keys: Option<&mut KeyLog>,
) {
    for _ in 0..txns {
        let gen = tr.begin("workloads.gen");
        let txn = source.next();
        tr.end(gen);
        if let Some(keys) = keys.as_deref_mut() {
            if keys.wants_more() {
                match &txn {
                    ClusterTxn::Single { program, .. } => keys.record(program),
                    ClusterTxn::Cross { branches } => {
                        branches.iter().for_each(|(_, _, p)| keys.record(p));
                    }
                }
            }
        }
        let name = match txn {
            ClusterTxn::Single { .. } => "cluster.single",
            ClusterTxn::Cross { .. } => "cluster.cross",
        };
        let sp = tr.begin(name);
        cluster.execute(txn, *at);
        tr.end(sp);
        *at += inter;
    }
}

/// What the cluster did between the scoreboards `start` and `end`: every
/// counter, the energy and the clock as differences. The two commit-latency
/// percentiles cannot be taken apart (the list behind them is private to the
/// crate) and stay `end`'s, over every cross-partition commit since the
/// cluster was built.
fn since(start: &ClusterReport, end: &ClusterReport) -> ClusterReport {
    let mut d = end.clone();
    d.global_committed -= start.global_committed;
    d.global_aborted -= start.global_aborted;
    d.single_committed -= start.single_committed;
    d.single_aborted -= start.single_aborted;
    d.recoveries -= start.recoveries;
    d.in_doubt_resolved -= start.in_doubt_resolved;
    d.elapsed = end.elapsed.saturating_sub(start.elapsed);
    d.joules -= start.joules;
    d.net.sent -= start.net.sent;
    d.net.delivered -= start.net.delivered;
    d.net.dropped -= start.net.dropped;
    d.net.partitioned -= start.net.partitioned;
    d.net.duplicated -= start.net.duplicated;
    d.net.delayed -= start.net.delayed;
    d.net.partitions -= start.net.partitions;
    d
}

/// One epoch of `cluster_2pc`.
pub fn epoch(ctx: &mut EpochCtx<'_>) -> EpochOut {
    let sc = &ctx.scale.cluster;
    let inter = SimTime::from_us(sc.inter_us);
    let mut keys = KeyLog::default();
    let tracing = ctx.tr.is_on();

    let before_setup = ctx.reference.settled();
    let t_setup = Instant::now();
    let sp = ctx.tr.begin("cluster.new");
    let net = net_config(ctx.seed);
    let mut cluster = Cluster::new(ClusterConfig::new(sc.nodes, EngineConfig::bionic(), net));
    for node in &mut cluster.nodes {
        ctx.variant.arm(&mut node.engine, false);
    }
    ctx.tr.end(sp);
    let sp = ctx.tr.begin("workloads.load");
    let mut source = cluster.load_small(WorkloadKind::Tatp, sc.cross_bp, ctx.seed);
    ctx.tr.end(sp);
    if ctx.want_model {
        for node in &mut cluster.nodes {
            ctx.counts.discount_load(&mut node.engine);
        }
    }
    let mut at = SimTime::ZERO;
    let sp = ctx.tr.begin("bench.warmup");
    run(
        &mut cluster,
        &mut source,
        &mut Tracer::off(),
        sc.warmup_txns(),
        inter,
        &mut at,
        None,
    );
    ctx.tr.end(sp);
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    // The scoreboard as the warm-up left it: the model-time numbers are
    // differences against it.
    let warm = cluster.report();
    let after_setup = ctx.reference.settled();
    let setup_speed = before_setup.until(after_setup);

    let blocks = ctx.timed_blocks(sc.blocks, sc.block_txns, after_setup, false, |tr| {
        run(
            &mut cluster,
            &mut source,
            tr,
            sc.block_txns,
            inter,
            &mut at,
            tracing.then_some(&mut keys),
        );
    });
    let submitted = sc.blocks as u64 * sc.block_txns;
    let last_arrival = at.saturating_sub(inter);

    let sp = ctx.tr.begin("cluster.end_of_run");
    cluster.end_of_run(at);
    ctx.tr.end(sp);
    let (export_ms, exported) = ctx.variant.export_trace(|| cluster.merged_chrome_trace());
    let sp = ctx.tr.begin("cluster.verify");
    let mut oracle = cluster.verify_atomicity().and(exported);
    ctx.tr.end(sp);
    let total = cluster.report();
    let accounted = |r: &ClusterReport| {
        r.global_committed + r.global_aborted + r.single_committed + r.single_aborted
    };
    let expect = sc.warmup_txns() + submitted + u64::from(ctx.corrupt_oracle);
    if oracle.is_ok() && accounted(&total) != expect {
        oracle = Err(format!(
            "cluster accounted for {} transactions, driver submitted {expect}",
            accounted(&total)
        ));
    }

    let model = ctx.want_model.then(|| {
        for node in &mut cluster.nodes {
            ctx.counts.add_engine(&mut node.engine, ctx.tr);
        }
        let timed = since(&warm, &total);
        ctx.counts.add_cluster(&timed);
        let committed = timed.global_committed + timed.single_committed;
        Model {
            sim_txn_per_s: timed.throughput_per_sec(),
            sim_p50_us: total.commit_p50.as_us(),
            sim_p99_us: total.commit_p99.as_us(),
            latency_samples: total.global_committed,
            beyond_p99: None,
            sim_joules_per_txn: timed.joules / committed.max(1) as f64,
            submitted: accounted(&timed),
            not_committed: accounted(&timed) - committed,
            backlog_p99s: total.elapsed.saturating_sub(last_arrival).as_ps() as f64
                / total.commit_p99.as_ps().max(1) as f64,
        }
    });

    EpochOut {
        setup_ns,
        setup_speed,
        blocks,
        submitted,
        oracle,
        model,
        engine: Some(cluster.nodes.swap_remove(0).engine),
        keys,
        recovery_records: 0,
        export_ms,
    }
}
