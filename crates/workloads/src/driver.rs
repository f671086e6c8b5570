//! Workload driver: runs a transaction stream against an engine and
//! collects the report every experiment prints.

use bionic_core::breakdown::TimeBreakdown;
use bionic_core::engine::Engine;
use bionic_core::ops::TxnProgram;
use bionic_sim::energy::{Energy, EnergyDomain, EnergyMeter};
use bionic_sim::stats::{Histogram, Summary};
use bionic_sim::time::SimTime;
use std::collections::BTreeMap;

/// Everything a workload run produces.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Transactions submitted.
    pub submitted: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Committed throughput (txn/s of simulated time).
    pub throughput_per_sec: f64,
    /// Commit latency summary.
    pub latency: Summary,
    /// Figure-3 CPU-time breakdown over the run.
    pub breakdown: TimeBreakdown,
    /// Total energy per committed transaction.
    pub joules_per_txn: f64,
    /// Energy by hardware domain.
    pub energy: Vec<(EnergyDomain, Energy)>,
    /// Counts per transaction type.
    pub per_type: BTreeMap<&'static str, u64>,
    /// Latency summary per transaction type (committed and aborted alike).
    pub per_type_latency: BTreeMap<&'static str, Summary>,
}

impl WorkloadReport {
    /// Render a compact human-readable summary.
    pub fn summary_table(&self) -> String {
        let mut out = format!(
            "txns: {} submitted, {} committed, {} aborted\n\
             throughput: {:.0} txn/s   joules/txn: {:.3e}\n\
             latency: {}\n",
            self.submitted,
            self.committed,
            self.aborted,
            self.throughput_per_sec,
            self.joules_per_txn,
            self.latency,
        );
        out.push_str(&self.breakdown.table());
        out
    }
}

/// The measurement scaffold every driver loop shares: engine counters are
/// captured at entry and reported relative to that point, so back-to-back
/// runs on one engine stay comparable.
pub(crate) struct Measurement {
    breakdown_before: TimeBreakdown,
    energy_before: EnergyMeter,
    committed_before: u64,
    submitted_before: u64,
    aborted_before: u64,
    /// Engine completion horizon at entry: arrival offsets are added to it.
    pub(crate) base: SimTime,
    per_type: BTreeMap<&'static str, Histogram>,
}

impl Measurement {
    pub(crate) fn begin(engine: &Engine) -> Self {
        Measurement {
            breakdown_before: engine.breakdown.clone(),
            energy_before: engine.platform.energy.clone(),
            committed_before: engine.stats.committed,
            submitted_before: engine.stats.submitted,
            aborted_before: engine.stats.aborted,
            base: engine.stats.last_completion,
            per_type: BTreeMap::new(),
        }
    }

    /// Count one transaction of type `label` and its latency.
    pub(crate) fn record(&mut self, label: &'static str, latency: SimTime) {
        self.per_type.entry(label).or_default().record(latency);
    }

    /// Simulated time the run has covered so far.
    pub(crate) fn elapsed(&self, engine: &Engine) -> SimTime {
        engine.stats.last_completion.saturating_sub(self.base)
    }

    pub(crate) fn finish(self, engine: &Engine) -> WorkloadReport {
        let committed = engine.stats.committed - self.committed_before;
        let elapsed = self.elapsed(engine);
        let energy = engine.platform.energy.since(&self.energy_before);
        WorkloadReport {
            submitted: engine.stats.submitted - self.submitted_before,
            committed,
            aborted: engine.stats.aborted - self.aborted_before,
            throughput_per_sec: if elapsed.is_zero() {
                0.0
            } else {
                committed as f64 / elapsed.as_secs()
            },
            latency: engine.stats.latency.summary(),
            breakdown: engine.breakdown.since(&self.breakdown_before),
            joules_per_txn: if committed == 0 {
                0.0
            } else {
                energy.total().as_j() / committed as f64
            },
            energy: energy.snapshot(),
            per_type: self.per_type.iter().map(|(&k, h)| (k, h.count())).collect(),
            per_type_latency: self
                .per_type
                .into_iter()
                .map(|(k, h)| (k, h.summary()))
                .collect(),
        }
    }
}

/// A transaction source that refills caller-owned program slots — the
/// zero-allocation counterpart of the `FnMut() -> (label, program)`
/// closures [`run`] and [`run_batched`] take. The two-step protocol lets
/// the driver pick a per-label pool slot *before* the program is built:
/// [`PooledSource::next_label`] draws the next transaction's type, and the
/// paired [`PooledSource::fill`] writes that transaction into the chosen
/// slot, reusing its buffers.
pub trait PooledSource {
    /// Draw the next transaction's type; returns its stable label.
    fn next_label(&mut self) -> &'static str;

    /// Build the transaction drawn by the last
    /// [`PooledSource::next_label`] into `prog`.
    fn fill(&mut self, prog: &mut TxnProgram);
}

/// Run `n` transactions drawn from `next`, arriving `inter_arrival` apart
/// (open loop), one [`Engine::submit`] each. Measurement state is taken
/// relative to the engine's state at entry, so back-to-back runs on one
/// engine stay comparable.
pub fn run(
    engine: &mut Engine,
    n: u64,
    inter_arrival: SimTime,
    mut next: impl FnMut() -> (&'static str, TxnProgram),
) -> WorkloadReport {
    let mut m = Measurement::begin(engine);
    for i in 0..n {
        let (label, prog) = next();
        let outcome = engine.submit(&prog, m.base + inter_arrival * i);
        m.record(label, outcome.latency());
    }
    m.finish(engine)
}

/// A closure source seen as a [`PooledSource`]: `fill` moves the drawn
/// program into the slot instead of rebuilding it in place.
struct ClosureSource<F> {
    next: F,
    drawn: Option<TxnProgram>,
}

impl<F: FnMut() -> (&'static str, TxnProgram)> PooledSource for ClosureSource<F> {
    fn next_label(&mut self) -> &'static str {
        let (label, prog) = (self.next)();
        self.drawn = Some(prog);
        label
    }

    fn fill(&mut self, prog: &mut TxnProgram) {
        *prog = self.drawn.take().expect("fill follows next_label");
    }
}

/// Like [`run`], but transactions are handed to the engine in groups of
/// `batch_size` through the batch planner, so same-table probes within a
/// group share their index descents (PALM-style amortization). Arrival
/// times, commit/abort outcomes, and all functional state match [`run`]
/// exactly; only probe pricing differs. This is [`run_batched_pooled`]
/// for sources that build a fresh program per transaction.
pub fn run_batched(
    engine: &mut Engine,
    n: u64,
    inter_arrival: SimTime,
    batch_size: usize,
    next: impl FnMut() -> (&'static str, TxnProgram),
) -> WorkloadReport {
    let mut src = ClosureSource { next, drawn: None };
    run_batched_pooled(engine, n, inter_arrival, batch_size, &mut src)
}

/// The batched loop: the transaction stream comes from a [`PooledSource`]
/// and programs live in driver-owned per-label pools that are refilled in
/// place batch after batch — with a source that reuses the slot's buffers
/// the steady-state loop allocates nothing per transaction.
pub fn run_batched_pooled(
    engine: &mut Engine,
    n: u64,
    inter_arrival: SimTime,
    batch_size: usize,
    src: &mut impl PooledSource,
) -> WorkloadReport {
    let batch_size = batch_size.max(1);
    let mut m = Measurement::begin(engine);
    // One program pool per label, each holding up to a batch's worth of
    // reusable slots; `order` maps batch position -> (pool, slot).
    let mut pools: Vec<(&'static str, Vec<TxnProgram>)> = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(batch_size);
    let mut outcomes = Vec::with_capacity(batch_size);
    let mut at = SimTime::ZERO;
    let mut remaining = n;
    while remaining > 0 {
        let take = (remaining as usize).min(batch_size);
        order.clear();
        used.iter_mut().for_each(|u| *u = 0);
        for _ in 0..take {
            let label = src.next_label();
            let pi = match pools.iter().position(|(l, _)| *l == label) {
                Some(pi) => pi,
                None => {
                    pools.push((label, Vec::new()));
                    used.push(0);
                    pools.len() - 1
                }
            };
            let ki = used[pi];
            used[pi] += 1;
            if pools[pi].1.len() == ki {
                pools[pi].1.push(TxnProgram::default());
            }
            src.fill(&mut pools[pi].1[ki]);
            order.push((pi, ki));
        }
        engine.submit_batch_with(
            take,
            m.base + at,
            inter_arrival,
            |i| {
                let (pi, ki) = order[i];
                &pools[pi].1[ki]
            },
            &mut outcomes,
        );
        for (k, outcome) in outcomes.iter().enumerate() {
            m.record(pools[order[k].0].0, outcome.latency());
        }
        at += inter_arrival * take as u64;
        remaining -= take as u64;
    }
    m.finish(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tatp::{self, TatpConfig, TatpGenerator};
    use bionic_core::config::EngineConfig;

    #[test]
    fn driver_reports_are_consistent() {
        let cfg = TatpConfig::small();
        let mut e = Engine::new(EngineConfig::software().with_agents(8));
        let tables = tatp::load(&mut e, &cfg);
        let mut g = TatpGenerator::new(cfg, tables);
        let report = run(&mut e, 500, SimTime::from_us(5.0), || {
            let (t, p) = g.next();
            (t.label(), p)
        });
        assert_eq!(report.submitted, 500);
        assert_eq!(report.committed + report.aborted, 500);
        assert!(report.throughput_per_sec > 0.0);
        assert!(report.joules_per_txn > 0.0);
        assert_eq!(report.per_type.values().sum::<u64>(), 500);
        assert_eq!(report.per_type.len(), report.per_type_latency.len());
        let total: u64 = report.per_type_latency.values().map(|s| s.count).sum();
        assert_eq!(total, 500);
        let table = report.summary_table();
        assert!(table.contains("throughput"));
        assert!(table.contains("Btree"));
    }

    #[test]
    fn batched_run_matches_outcomes_and_amortizes_probes() {
        let make = || {
            let cfg = TatpConfig::small();
            let mut e = Engine::new(EngineConfig::software().with_agents(8));
            let tables = tatp::load(&mut e, &cfg);
            (e, TatpGenerator::new(cfg, tables))
        };
        let (mut serial, mut gs) = make();
        let rs = run(&mut serial, 600, SimTime::from_us(5.0), || {
            let (t, p) = gs.next();
            (t.label(), p)
        });
        let (mut batched, mut gb) = make();
        let rb = run_batched(&mut batched, 600, SimTime::from_us(5.0), 64, || {
            let (t, p) = gb.next();
            (t.label(), p)
        });
        // Functional behavior is identical: same commit/abort decisions.
        assert_eq!(rs.submitted, rb.submitted);
        assert_eq!(rs.committed, rb.committed);
        assert_eq!(rs.aborted, rb.aborted);
        assert_eq!(rs.per_type, rb.per_type);
        // PALM amortization: strictly fewer index nodes charged per probe.
        let nodes_per_probe =
            |e: &Engine| e.stats.probe_nodes_visited as f64 / e.stats.probes.max(1) as f64;
        assert!(
            nodes_per_probe(&batched) < nodes_per_probe(&serial),
            "batched {:.2} vs serial {:.2}",
            nodes_per_probe(&batched),
            nodes_per_probe(&serial)
        );
    }

    #[test]
    fn pooled_run_is_identical_to_batched_run() {
        let make = || {
            let cfg = TatpConfig::small();
            let mut e = Engine::new(EngineConfig::software().with_agents(8));
            let tables = tatp::load(&mut e, &cfg);
            (e, TatpGenerator::new(cfg, tables))
        };
        let (mut batched, mut gb) = make();
        let rb = run_batched(&mut batched, 600, SimTime::from_us(5.0), 32, || {
            let (t, p) = gb.next();
            (t.label(), p)
        });
        let (mut pooled, mut gp) = make();
        let rp = run_batched_pooled(&mut pooled, 600, SimTime::from_us(5.0), 32, &mut gp);
        // Not just functionally equal — identically priced: the pooled
        // path feeds the very same programs through the very same batch
        // planner, so every derived number matches bit for bit.
        assert_eq!(rb.submitted, rp.submitted);
        assert_eq!(rb.committed, rp.committed);
        assert_eq!(rb.aborted, rp.aborted);
        assert_eq!(rb.per_type, rp.per_type);
        assert_eq!(rb.throughput_per_sec, rp.throughput_per_sec);
        assert_eq!(rb.joules_per_txn, rp.joules_per_txn);
        assert_eq!(batched.stats.probes, pooled.stats.probes);
        assert_eq!(
            batched.stats.probe_nodes_visited,
            pooled.stats.probe_nodes_visited
        );
        assert_eq!(
            rb.per_type_latency.keys().collect::<Vec<_>>(),
            rp.per_type_latency.keys().collect::<Vec<_>>()
        );
        for (k, s) in &rb.per_type_latency {
            assert_eq!(s.count, rp.per_type_latency[k].count, "{k}");
            assert_eq!(s.mean, rp.per_type_latency[k].mean, "{k}");
        }
    }

    #[test]
    fn back_to_back_runs_measure_independently() {
        let cfg = TatpConfig::small();
        let mut e = Engine::new(EngineConfig::software().with_agents(8));
        let tables = tatp::load(&mut e, &cfg);
        let mut g = TatpGenerator::new(cfg, tables);
        let r1 = run(&mut e, 200, SimTime::from_us(5.0), || {
            let (t, p) = g.next();
            (t.label(), p)
        });
        let r2 = run(&mut e, 200, SimTime::from_us(5.0), || {
            let (t, p) = g.next();
            (t.label(), p)
        });
        assert_eq!(r1.submitted, 200);
        assert_eq!(r2.submitted, 200);
        // Second run's breakdown is its own, not cumulative.
        let total1 = r1.breakdown.total();
        let total2 = r2.breakdown.total();
        assert!(total2 < total1 * 2u64);
    }
}
