//! The cluster: N nodes, one engine each, glued by presumed-abort 2PC.
//!
//! ## Execution model
//!
//! The cluster is a serial discrete-event driver over per-node engines.
//! Single-partition transactions go straight to the owning node's
//! [`Engine::submit`] — no message, no extra draw, no added latency —
//! which is what makes an unarmed one-node cluster **byte-identical** to
//! the single engine (the regression test pins this). Cross-partition
//! transactions run the two-phase protocol to completion before the next
//! transaction is drawn; concurrency inside a node is still modeled by
//! the engine's own agent queues.
//!
//! ## The commit protocol (presumed abort)
//!
//! The home node coordinates. Phase one prepares its own branch locally,
//! then each remote branch over the network with bounded timeout-retry;
//! a participant votes YES only once its `Prepare` record is durable, and
//! thereby surrenders the right to abort unilaterally. Phase two: on
//! unanimous YES the coordinator durably logs a commit decision in its
//! *own* WAL ([`Engine::log_decision`]) — the only durable record the
//! protocol adds, because *no decision means abort* — then delivers the
//! decision, retrying each remote. Undeliverable decisions park the
//! branch in doubt; the branch is resolved when the participant next
//! queries the coordinator (before new work on that node, or at end of
//! run, or during its own crash recovery via
//! [`Engine::restart_resolving`]).
//!
//! ## Crash behavior
//!
//! Any node can crash at any point (the engine's crash fuse, or the
//! torture harness's [`CoordStep`] injection on the coordinator).
//! Recovery replays the node's WAL, rebuilds the participant dedup table
//! and the coordinator's durable decisions from the log, and resolves
//! in-doubt branches by querying the surviving decision state — commit
//! iff a durable commit decision exists, abort otherwise. The
//! [`Cluster::verify_atomicity`] oracle then re-derives every global
//! transaction's fate from the WALs alone and asserts all-or-nothing and
//! exactly-once, independent of the driver's bookkeeping.

use std::collections::BTreeMap;

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_core::ops::TxnProgram;
use bionic_core::{PrepareOutcome, TxnOutcome};
use bionic_sim::time::SimTime;
use bionic_wal::manager::LogIter;
use bionic_wal::record::LogBody;
use bionic_wal::TxnId;

use crate::gtxn::{BranchState, GtxnMap, SeenTable};
use crate::net::{Delivery, NetConfig, NetStats, Network};

/// Global transaction ids live in the top half of the id space so they
/// can share a WAL with ordinary per-node transaction ids.
pub const GTXN_BASE: u64 = 0x8000_0000_0000_0000;

/// Downtime charged for one crash-restart cycle (process restart + WAL
/// replay happen "during" this window in sim time).
const RECOVERY_DOWNTIME: SimTime = SimTime::from_ps(2_000_000_000); // 2 ms

/// Latency of resolving an in-doubt branch through the out-of-band
/// recovery channel after every networked attempt failed.
const OUT_OF_BAND: SimTime = SimTime::from_ps(10_000_000_000); // 10 ms

/// CPU cost of re-voting from the dedup table on a duplicate prepare.
const REVOTE_CPU: SimTime = SimTime::from_ps(2_000_000); // 2 µs

/// Protocol steps at which the torture harness can crash the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordStep {
    /// Before anything ran: the transaction simply never happened.
    BeforePrepare,
    /// After the coordinator prepared its own branch (in doubt in its own
    /// WAL, no remote touched).
    AfterLocalPrepare,
    /// After collecting remote votes, before logging a decision — the
    /// classic "everyone prepared, nobody decided" window.
    AfterVotes,
    /// After the commit decision is durable, before telling anyone.
    AfterDecisionLog,
    /// After delivering the decision to the first remote only — the
    /// partial-notification window all-or-nothing is really about.
    AfterFirstDecision,
    /// After all decisions went out (crash costs downtime, nothing else).
    AfterAllDecisions,
}

impl CoordStep {
    /// Every step, in protocol order.
    pub const ALL: [CoordStep; 6] = [
        CoordStep::BeforePrepare,
        CoordStep::AfterLocalPrepare,
        CoordStep::AfterVotes,
        CoordStep::AfterDecisionLog,
        CoordStep::AfterFirstDecision,
        CoordStep::AfterAllDecisions,
    ];
}

/// A participant's reply to PREPARE.
enum PrepareReply {
    /// Voted YES; the branch is durably prepared (txn id in the dedup
    /// table).
    Yes,
    /// Voted NO (local failure); branch already rolled back.
    No,
    /// Already finished — a stale duplicate arrived after the decision.
    Stale,
    /// The node's crash fuse blew while executing the branch.
    Crashed,
}

/// Outcome of the networked prepare exchange with one remote.
enum RemoteVote {
    Yes,
    No,
    /// Retries exhausted without hearing a vote; the remote may or may
    /// not hold a prepared branch.
    Unknown,
}

/// One node: an engine plus the volatile protocol state beside it.
pub struct Node {
    /// The node's private engine (own WAL, buffer pool, platform).
    pub engine: Engine,
    /// Per-gtxn participant dedup table (see [`BranchState`]).
    seen: SeenTable,
    /// Coordinator decision cache: commit decisions mirror durable WAL
    /// records, abort decisions are volatile (presumed abort makes losing
    /// them harmless).
    decisions: GtxnMap<bool>,
    /// Crash-restart cycles this node went through.
    pub crashes: u64,
}

impl Node {
    fn new(engine: Engine) -> Self {
        Node {
            engine,
            seen: SeenTable::default(),
            decisions: GtxnMap::default(),
            crashes: 0,
        }
    }

    /// Handle one PREPARE delivery (first copy or duplicate).
    fn deliver_prepare(
        &mut self,
        gtxn: u64,
        coord: u32,
        program: &TxnProgram,
        at: SimTime,
    ) -> (PrepareReply, SimTime) {
        match self.seen.get(gtxn) {
            Some(BranchState::Prepared(..)) => (PrepareReply::Yes, at + REVOTE_CPU),
            Some(BranchState::Refused) => (PrepareReply::No, at + REVOTE_CPU),
            Some(BranchState::Finished(_)) => (PrepareReply::Stale, at + REVOTE_CPU),
            None => match self.engine.submit_prepared(program, at, gtxn, coord) {
                PrepareOutcome::Prepared { txn, latency } => {
                    self.seen.insert(gtxn, BranchState::Prepared(txn, coord));
                    (PrepareReply::Yes, at + latency)
                }
                PrepareOutcome::Aborted { latency, .. } => {
                    self.seen.insert(gtxn, BranchState::Refused);
                    (PrepareReply::No, at + latency)
                }
                PrepareOutcome::Interrupted => (PrepareReply::Crashed, at),
            },
        }
    }
}

/// Cluster-level knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node count.
    pub nodes: usize,
    /// Per-node engine template; node `n` runs it at `seed + n`.
    pub engine: EngineConfig,
    /// Interconnect model.
    pub net: NetConfig,
    /// Coordinator wait before retrying an unanswered message.
    pub timeout: SimTime,
    /// PREPARE retries before the vote counts as unknown (an abort).
    pub prepare_retries: u32,
    /// Decision/status retries before falling back to the out-of-band
    /// recovery channel.
    pub decision_retries: u32,
}

impl ClusterConfig {
    /// Defaults: 200 µs timeout, 4 prepare retries, 6 decision retries.
    pub fn new(nodes: usize, engine: EngineConfig, net: NetConfig) -> Self {
        ClusterConfig {
            nodes,
            engine,
            net,
            timeout: SimTime::from_us(200.0),
            prepare_retries: 4,
            decision_retries: 6,
        }
    }
}

/// End-of-run scoreboard.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Node count.
    pub nodes: usize,
    /// Cross-partition transactions committed / aborted.
    pub global_committed: u64,
    /// Cross-partition transactions aborted.
    pub global_aborted: u64,
    /// Single-partition transactions committed / aborted.
    pub single_committed: u64,
    /// Single-partition transactions aborted.
    pub single_aborted: u64,
    /// Crash-restart cycles across all nodes.
    pub recoveries: u64,
    /// In-doubt branches resolved late (status query or recovery).
    pub in_doubt_resolved: u64,
    /// Worst prepare→resolution delay among those branches.
    pub in_doubt_max: SimTime,
    /// Median end-to-end latency of committed cross-partition txns.
    pub commit_p50: SimTime,
    /// p99 end-to-end latency of committed cross-partition txns.
    pub commit_p99: SimTime,
    /// Committed cross-partition txns strictly slower than `commit_p99`.
    pub commit_beyond_p99: u64,
    /// Latest completion across all nodes.
    pub elapsed: SimTime,
    /// Total platform energy across nodes plus network energy, joules.
    pub joules: f64,
    /// Interconnect counters.
    pub net: NetStats,
}

impl ClusterReport {
    /// Committed transactions (any kind) per second of sim time.
    pub fn throughput_per_sec(&self) -> f64 {
        let n = (self.global_committed + self.single_committed) as f64;
        let s = self.elapsed.as_secs();
        if s > 0.0 {
            n / s
        } else {
            0.0
        }
    }
}

/// The cluster driver. See the module docs for the protocol.
pub struct Cluster {
    /// The nodes, index = node id.
    pub nodes: Vec<Node>,
    /// The interconnect.
    pub net: Network,
    cfg: ClusterConfig,
    next_gtxn: u64,
    armed_crash: Option<(CoordStep, u64)>,
    /// Branches whose decision could not be delivered: `(node, gtxn,
    /// coord)`. Resolved before the node's next transaction or at end of
    /// run.
    unresolved: Vec<(usize, u64, u32)>,
    commit_latencies_ps: Vec<u64>,
    in_doubt_delays_ps: Vec<u64>,
    global_committed: u64,
    global_aborted: u64,
    single_committed: u64,
    single_aborted: u64,
    recoveries: u64,
}

impl Cluster {
    /// Build `cfg.nodes` nodes; node `n`'s engine runs the template config
    /// with seed `seed + n` (node 0 at exactly the template seed — the
    /// mono-cluster identity anchor).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1, "a cluster has at least one node");
        let nodes = (0..cfg.nodes)
            .map(|n| {
                let seed = cfg.engine.seed + n as u64;
                Node::new(Engine::new(cfg.engine.clone().with_seed(seed)))
            })
            .collect();
        let net = Network::new(cfg.net.clone());
        Cluster {
            nodes,
            net,
            cfg,
            next_gtxn: 0,
            armed_crash: None,
            unresolved: Vec::new(),
            commit_latencies_ps: Vec::new(),
            in_doubt_delays_ps: Vec::new(),
            global_committed: 0,
            global_aborted: 0,
            single_committed: 0,
            single_aborted: 0,
            recoveries: 0,
        }
    }

    /// Load one small benchmark population per node (see
    /// [`bionic_workloads::PartitionedWorkload::load_small`]) and seal the
    /// load phase on every engine.
    pub fn load_small(
        &mut self,
        kind: bionic_workloads::WorkloadKind,
        cross_bp: u32,
        seed: u64,
    ) -> bionic_workloads::PartitionedWorkload {
        let wl = bionic_workloads::PartitionedWorkload::load_small(
            self.nodes.iter_mut().map(|n| &mut n.engine),
            kind,
            cross_bp,
            seed,
        );
        for n in &mut self.nodes {
            n.engine.finish_load();
        }
        wl
    }

    /// Arm a coordinator crash: the `nth_cross` cross-partition
    /// transaction (0-based) will crash its coordinator at `step`.
    pub fn arm_coordinator_crash(&mut self, step: CoordStep, nth_cross: u64) {
        self.armed_crash = Some((step, nth_cross));
    }

    /// Execute one routed transaction arriving at `arrive`. Returns
    /// whether it (globally) committed.
    pub fn execute(&mut self, txn: bionic_workloads::ClusterTxn, arrive: SimTime) -> bool {
        match txn {
            bionic_workloads::ClusterTxn::Single { node, program, .. } => {
                self.settle_node(node, arrive);
                match self.nodes[node].engine.submit(&program, arrive) {
                    TxnOutcome::Committed { .. } => {
                        self.single_committed += 1;
                        true
                    }
                    TxnOutcome::Aborted { .. } => {
                        self.single_aborted += 1;
                        false
                    }
                    TxnOutcome::Interrupted => {
                        self.recover_node(node, arrive);
                        self.single_aborted += 1;
                        false
                    }
                }
            }
            bionic_workloads::ClusterTxn::Cross { branches } => self.run_cross(branches, arrive),
        }
    }

    /// Resolve every parked in-doubt branch and any stragglers the dedup
    /// tables still hold, so the oracle can demand a doubt-free cluster.
    pub fn end_of_run(&mut self, now: SimTime) {
        let pending = std::mem::take(&mut self.unresolved);
        for (n, gtxn, coord) in pending {
            self.participant_resolve(n, gtxn, coord, now);
        }
        // Safety net: anything still prepared resolves through the same
        // status-query path (its coordinator is recorded in the table).
        for n in 0..self.nodes.len() {
            let stuck: Vec<(u64, u32)> = self.nodes[n].seen.prepared().collect();
            for (gtxn, coord) in stuck {
                self.participant_resolve(n, gtxn, coord, now);
            }
        }
    }

    /// The scoreboard. Call after [`Cluster::end_of_run`].
    pub fn report(&self) -> ClusterReport {
        let mut elapsed = SimTime::ZERO;
        let mut joules = 0.0;
        for node in &self.nodes {
            elapsed = elapsed.max(node.engine.stats.last_completion);
            joules += node.engine.platform.energy.total().as_nj() * 1e-9;
        }
        // 50 nJ per message on the wire (NIC + switch, both directions
        // amortized) — a deterministic integer-count model.
        joules += self.net.stats.sent as f64 * 50e-9;
        let mut lat = self.commit_latencies_ps.clone();
        lat.sort_unstable();
        let pct = |p: f64| -> SimTime {
            if lat.is_empty() {
                return SimTime::ZERO;
            }
            let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
            SimTime::from_ps(lat[idx])
        };
        let commit_p99 = pct(0.99);
        let within_p99 = lat.partition_point(|&ps| ps <= commit_p99.as_ps());
        ClusterReport {
            nodes: self.nodes.len(),
            global_committed: self.global_committed,
            global_aborted: self.global_aborted,
            single_committed: self.single_committed,
            single_aborted: self.single_aborted,
            recoveries: self.recoveries,
            in_doubt_resolved: self.in_doubt_delays_ps.len() as u64,
            in_doubt_max: SimTime::from_ps(
                self.in_doubt_delays_ps.iter().copied().max().unwrap_or(0),
            ),
            commit_p50: pct(0.50),
            commit_p99,
            commit_beyond_p99: (lat.len() - within_p99) as u64,
            elapsed,
            joules,
            net: self.net.stats,
        }
    }

    // ---- cross-partition protocol ----

    fn run_cross(
        &mut self,
        branches: Vec<(usize, &'static str, TxnProgram)>,
        arrive: SimTime,
    ) -> bool {
        let gtxn_index = self.next_gtxn;
        let gtxn = GTXN_BASE | self.next_gtxn;
        self.next_gtxn += 1;
        let coord = branches[0].0;
        let crash = match self.armed_crash {
            Some((step, idx)) if idx == gtxn_index => {
                self.armed_crash = None;
                Some(step)
            }
            _ => None,
        };
        for (n, _, _) in &branches {
            self.settle_node(*n, arrive);
        }

        if crash == Some(CoordStep::BeforePrepare) {
            self.recover_node(coord, arrive);
            self.global_aborted += 1;
            return false;
        }

        // Phase 1a: the coordinator's own branch, no network involved.
        let mut t = arrive;
        let mut all_yes = true;
        let (reply, done) =
            self.nodes[coord].deliver_prepare(gtxn, coord as u32, &branches[0].2, t);
        match reply {
            PrepareReply::Yes => {
                self.nodes[coord].seen.record_vote(gtxn, done);
                t = done;
            }
            PrepareReply::No | PrepareReply::Stale => {
                all_yes = false;
                t = done;
            }
            PrepareReply::Crashed => {
                self.recover_node(coord, t);
                self.global_aborted += 1;
                return false;
            }
        }

        if crash == Some(CoordStep::AfterLocalPrepare) {
            // The coordinator dies holding (at most) its own prepared
            // branch; recovery presumes abort — no decision exists.
            self.recover_node(coord, t);
            self.global_aborted += 1;
            return false;
        }

        // Phase 1b: remote branches — skipped entirely once a NO is in
        // (the serial driver prepares in order, so a local veto costs the
        // remotes nothing).
        let mut contacted: Vec<usize> = Vec::new();
        if all_yes {
            for (rn, _, prog) in &branches[1..] {
                match self.prepare_remote(coord, *rn, gtxn, prog, &mut t) {
                    Some(RemoteVote::Yes) => {
                        contacted.push(*rn);
                        self.nodes[*rn].seen.record_vote(gtxn, t);
                    }
                    Some(RemoteVote::No) => {
                        all_yes = false;
                        // Refused branches rolled back already; nothing to
                        // decide for them, but keep the loop shape simple.
                    }
                    Some(RemoteVote::Unknown) => {
                        // The remote may be durably prepared without us
                        // ever hearing the vote — it must get the (abort)
                        // decision.
                        all_yes = false;
                        contacted.push(*rn);
                    }
                    None => {
                        // Remote crashed mid-prepare (recovered inside
                        // prepare_remote); its branch died with it.
                        all_yes = false;
                    }
                }
                if !all_yes {
                    break;
                }
            }
        }

        if crash == Some(CoordStep::AfterVotes) {
            // Everyone who prepared is now in doubt; no decision was ever
            // made, so recovery and status queries presume abort.
            self.recover_node(coord, t);
            for rn in contacted {
                self.unresolved.push((rn, gtxn, coord as u32));
            }
            self.global_aborted += 1;
            return false;
        }

        // Phase 2: decide.
        let commit = all_yes;
        if commit {
            match self.nodes[coord].engine.log_decision(gtxn, t) {
                Some(durable) => {
                    t = durable;
                    self.nodes[coord].decisions.insert(gtxn, true);
                }
                None => {
                    // Fuse blew mid-decision: whether the commit record
                    // survived is the crash image's call, not ours.
                    self.recover_node(coord, t);
                    let committed = self.nodes[coord].decisions.get(gtxn).unwrap_or(false);
                    for rn in contacted {
                        self.unresolved.push((rn, gtxn, coord as u32));
                    }
                    return self.finish_global(committed, arrive, t);
                }
            }
        } else {
            self.nodes[coord].decisions.insert(gtxn, false);
        }

        if crash == Some(CoordStep::AfterDecisionLog) {
            self.recover_node(coord, t);
            for rn in contacted {
                self.unresolved.push((rn, gtxn, coord as u32));
            }
            // A durable commit decision survives the crash; anything less
            // is presumed abort.
            let committed = self.nodes[coord].decisions.get(gtxn).unwrap_or(false);
            return self.finish_global(committed, arrive, t);
        }

        // Deliver the decision: coordinator's own branch first (memory
        // write, no network), then each contacted remote.
        self.finish_branch(coord, gtxn, commit, t, false);
        for (i, rn) in contacted.iter().enumerate() {
            if !self.decision_remote(coord, *rn, gtxn, commit, &mut t) {
                self.unresolved.push((*rn, gtxn, coord as u32));
            }
            if i == 0 && crash == Some(CoordStep::AfterFirstDecision) {
                self.recover_node(coord, t);
                for rn in &contacted[1..] {
                    self.unresolved.push((*rn, gtxn, coord as u32));
                }
                return self.finish_global(commit, arrive, t);
            }
        }

        if crash == Some(CoordStep::AfterAllDecisions) {
            self.recover_node(coord, t);
        }
        self.finish_global(commit, arrive, t)
    }

    fn finish_global(&mut self, commit: bool, arrive: SimTime, done: SimTime) -> bool {
        if commit {
            self.global_committed += 1;
            self.commit_latencies_ps
                .push(done.saturating_sub(arrive).as_ps());
        } else {
            self.global_aborted += 1;
        }
        commit
    }

    /// The networked PREPARE exchange with one remote. `None` means the
    /// remote crashed (and was recovered in place).
    fn prepare_remote(
        &mut self,
        coord: usize,
        rn: usize,
        gtxn: u64,
        program: &TxnProgram,
        t: &mut SimTime,
    ) -> Option<RemoteVote> {
        for _ in 0..=self.cfg.prepare_retries {
            match self.net.send(coord as u32, rn as u32, *t) {
                Delivery::Dropped => {
                    *t += self.cfg.timeout;
                }
                Delivery::Delivered { at, dup } => {
                    let (reply, done) =
                        self.nodes[rn].deliver_prepare(gtxn, coord as u32, program, at);
                    if dup {
                        // The second copy re-votes from the dedup table —
                        // never re-executes.
                        let _ = self.nodes[rn].deliver_prepare(gtxn, coord as u32, program, done);
                    }
                    let vote = match reply {
                        PrepareReply::Yes => RemoteVote::Yes,
                        PrepareReply::No | PrepareReply::Stale => RemoteVote::No,
                        PrepareReply::Crashed => {
                            self.recover_node(rn, done);
                            return None;
                        }
                    };
                    match self.net.send(rn as u32, coord as u32, done) {
                        Delivery::Dropped => {
                            // Vote lost: the coordinator times out and
                            // retries the prepare; the dedup table absorbs
                            // the redelivery.
                            *t = (*t + self.cfg.timeout).max(done);
                        }
                        Delivery::Delivered { at: back, .. } => {
                            *t = back;
                            return Some(vote);
                        }
                    }
                }
            }
        }
        Some(RemoteVote::Unknown)
    }

    /// Deliver the decision to one remote; `false` means every retry was
    /// lost and the branch stays parked in doubt.
    fn decision_remote(
        &mut self,
        coord: usize,
        rn: usize,
        gtxn: u64,
        commit: bool,
        t: &mut SimTime,
    ) -> bool {
        for _ in 0..=self.cfg.decision_retries {
            match self.net.send(coord as u32, rn as u32, *t) {
                Delivery::Dropped => {
                    *t += self.cfg.timeout;
                }
                Delivery::Delivered { at, dup } => {
                    self.finish_branch(rn, gtxn, commit, at, false);
                    if dup {
                        // Second copy lands on Finished state: no-op.
                        self.finish_branch(rn, gtxn, commit, at + REVOTE_CPU, false);
                    }
                    *t = (*t).max(at);
                    return true;
                }
            }
        }
        false
    }

    /// Apply a decision to a branch if (and only if) it is still
    /// prepared. Safe against duplicates and stale deliveries.
    fn finish_branch(&mut self, n: usize, gtxn: u64, commit: bool, at: SimTime, late: bool) {
        if let Some(BranchState::Prepared(txn, _)) = self.nodes[n].seen.get(gtxn) {
            match self.nodes[n].engine.resolve_prepared(txn, commit, at) {
                TxnOutcome::Interrupted => {
                    // Fuse blew mid-resolution: recovery will finish the
                    // job from the WAL + decision state.
                    self.recover_node(n, at);
                }
                _ => {
                    let seen = &mut self.nodes[n].seen;
                    let voted_at = seen.take_vote(gtxn);
                    seen.insert(gtxn, BranchState::Finished(commit));
                    if let (Some(p), true) = (voted_at, late) {
                        self.in_doubt_delays_ps.push(at.saturating_sub(p).as_ps());
                    }
                }
            }
        }
    }

    /// Resolve parked in-doubt branches owned by `node` before it takes
    /// new work. No-op (and draw-free) when nothing is parked.
    fn settle_node(&mut self, node: usize, now: SimTime) {
        if self.unresolved.is_empty() {
            return;
        }
        // Take every entry out before resolving any: a recovery mid-loop
        // drops the node's remaining entries from `unresolved`, and these
        // must still run their status queries.
        let mine: Vec<_> = self.unresolved.extract_if(.., |u| u.0 == node).collect();
        for (n, gtxn, coord) in mine {
            self.participant_resolve(n, gtxn, coord, now);
        }
    }

    /// Participant-initiated resolution: query the coordinator's decision
    /// state over the network (bounded retries), falling back to the
    /// out-of-band recovery channel. Presumed abort answers misses.
    fn participant_resolve(&mut self, n: usize, gtxn: u64, coord: u32, now: SimTime) {
        let commit = self.nodes[coord as usize]
            .decisions
            .get(gtxn)
            .unwrap_or(false);
        let mut t = now;
        let mut resolved_at = None;
        for _ in 0..=self.cfg.decision_retries {
            match self.net.send(n as u32, coord, t) {
                Delivery::Dropped => {
                    t += self.cfg.timeout;
                }
                Delivery::Delivered { at, .. } => match self.net.send(coord, n as u32, at) {
                    Delivery::Dropped => {
                        t = (t + self.cfg.timeout).max(at);
                    }
                    Delivery::Delivered { at: back, .. } => {
                        resolved_at = Some(back);
                        break;
                    }
                },
            }
        }
        let at = resolved_at.unwrap_or(t + OUT_OF_BAND);
        self.finish_branch(n, gtxn, commit, at, true);
    }

    /// Crash node `n` and bring it back: scan the crash image for durable
    /// coordinator decisions and every branch the node ever prepared,
    /// replay the WAL with [`Engine::restart_resolving`] (in-doubt
    /// branches resolved against the cluster's surviving decision state),
    /// and rebuild the volatile tables from what the log proves.
    fn recover_node(&mut self, n: usize, now: SimTime) {
        self.recoveries += 1;
        self.nodes[n].crashes += 1;
        let seed = self.cfg.engine.seed + n as u64;
        let placeholder = Engine::new(EngineConfig::software().with_agents(1));
        let image = std::mem::replace(&mut self.nodes[n].engine, placeholder).crash();

        let mut own_decisions: GtxnMap<bool> = GtxnMap::default();
        let mut prepares: Vec<(TxnId, u64)> = Vec::new();
        for rec in LogIter::over(image.log_bytes(), 0) {
            match rec.body {
                LogBody::Commit if rec.txn & GTXN_BASE != 0 => {
                    own_decisions.insert(rec.txn, true);
                }
                LogBody::Prepare { gtxn, .. } => prepares.push((rec.txn, gtxn)),
                _ => {}
            }
        }

        // Decision state: the node's own durable decisions, then the
        // survivors' (coordinators hold their own decisions), the highest
        // node index first; presumed abort covers everything else.
        let cfg_n = self.cfg.engine.clone().with_seed(seed);
        let nodes = &self.nodes;
        let (engine, rec) = Engine::restart_resolving(image, cfg_n, |_txn, gtxn, _coord| {
            own_decisions
                .get(gtxn)
                .or_else(|| {
                    (0..nodes.len())
                        .rev()
                        .filter(|&i| i != n)
                        .find_map(|i| nodes[i].decisions.get(gtxn))
                })
                .unwrap_or(false)
        });
        let recovered_at = now + RECOVERY_DOWNTIME;
        let winners: std::collections::BTreeSet<TxnId> = rec.winners.iter().copied().collect();
        let mut seen = SeenTable::default();
        for (txn, gtxn) in prepares {
            seen.insert(gtxn, BranchState::Finished(winners.contains(&txn)));
        }
        for (txn, gtxn, _) in &rec.in_doubt {
            // Doubt resolved at recovery: account its prepare→resolution
            // delay against the tail metric.
            let _ = txn;
            if let Some(p) = self.nodes[n].seen.take_vote(*gtxn) {
                self.in_doubt_delays_ps
                    .push(recovered_at.saturating_sub(p).as_ps());
            }
        }
        // Branches whose decisions were parked for this node are settled
        // by the recovery itself.
        self.unresolved.retain(|u| u.0 != n);
        // Vote times left in the old table are for branches the crash
        // rolled up (e.g. unflushed prepares): they go with it.
        self.nodes[n].engine = engine;
        self.nodes[n].seen = seen;
        self.nodes[n].decisions = own_decisions;
    }

    // ---- the differential oracle ----

    /// Re-derive every global transaction's fate from the per-node WALs
    /// alone and assert atomicity:
    ///
    /// 1. no gtxn both committed on one node and aborted on another;
    /// 2. no branch committed without a durable commit decision;
    /// 3. no branch aborted against a durable commit decision;
    /// 4. at most one prepared branch per `(node, gtxn)` — exactly-once
    ///    under drops, duplicates, and retries;
    /// 5. no branch still in doubt (call after [`Cluster::end_of_run`]).
    pub fn verify_atomicity(&self) -> Result<(), String> {
        let mut decisions: std::collections::BTreeSet<u64> = Default::default();
        // gtxn -> per-branch (node, committed, aborted)
        let mut by_gtxn: BTreeMap<u64, Vec<(usize, bool, bool)>> = BTreeMap::new();
        for (n, node) in self.nodes.iter().enumerate() {
            let lm = node.engine.log();
            let mut branch_of: BTreeMap<TxnId, u64> = BTreeMap::new();
            // (commit, abort, end) markers per local txn. The runtime
            // rollback path writes CLRs + End with no explicit Abort
            // record, so "ended without committing" is the abort signal.
            let mut state: BTreeMap<TxnId, (bool, bool, bool)> = BTreeMap::new();
            let mut prepared_gtxns: std::collections::BTreeSet<u64> = Default::default();
            for rec in lm.iter_from(lm.base_lsn()) {
                if rec.txn & GTXN_BASE != 0 {
                    if matches!(rec.body, LogBody::Commit) {
                        decisions.insert(rec.txn);
                    }
                    continue;
                }
                match rec.body {
                    LogBody::Prepare { gtxn, .. } => {
                        if !prepared_gtxns.insert(gtxn) {
                            return Err(format!(
                                "node {n}: gtxn {gtxn:#x} prepared more than once (exactly-once violated)"
                            ));
                        }
                        branch_of.insert(rec.txn, gtxn);
                    }
                    LogBody::Commit => state.entry(rec.txn).or_default().0 = true,
                    LogBody::Abort => state.entry(rec.txn).or_default().1 = true,
                    LogBody::End => state.entry(rec.txn).or_default().2 = true,
                    _ => {}
                }
            }
            for (txn, gtxn) in branch_of {
                let (c, a, e) = state.get(&txn).copied().unwrap_or((false, false, false));
                by_gtxn
                    .entry(gtxn)
                    .or_default()
                    .push((n, c, a || (e && !c)));
            }
        }
        for (gtxn, branches) in by_gtxn {
            let committed: Vec<usize> = branches.iter().filter(|b| b.1).map(|b| b.0).collect();
            let aborted: Vec<usize> = branches.iter().filter(|b| b.2).map(|b| b.0).collect();
            let doubt: Vec<usize> = branches
                .iter()
                .filter(|b| !b.1 && !b.2)
                .map(|b| b.0)
                .collect();
            if !committed.is_empty() && !aborted.is_empty() {
                return Err(format!(
                    "gtxn {gtxn:#x}: committed on nodes {committed:?} but aborted on {aborted:?}"
                ));
            }
            if !committed.is_empty() && !decisions.contains(&gtxn) {
                return Err(format!(
                    "gtxn {gtxn:#x}: committed on {committed:?} with no durable commit decision"
                ));
            }
            if !aborted.is_empty() && decisions.contains(&gtxn) {
                return Err(format!(
                    "gtxn {gtxn:#x}: aborted on {aborted:?} against a durable commit decision"
                ));
            }
            if !doubt.is_empty() {
                return Err(format!(
                    "gtxn {gtxn:#x}: still in doubt on nodes {doubt:?} after end of run"
                ));
            }
        }
        Ok(())
    }

    // ---- telemetry ----

    /// Merge all nodes' metric registries under `node{n}/` scopes.
    pub fn merged_metrics(&mut self) -> bionic_telemetry::MetricsRegistry {
        for node in &mut self.nodes {
            node.engine.collect_metrics();
        }
        let regs: Vec<&bionic_telemetry::MetricsRegistry> =
            self.nodes.iter().map(|n| n.engine.tel.metrics()).collect();
        bionic_telemetry::merge_node_metrics(&regs)
    }

    /// One Chrome trace with one `node{n}/…` track group per node.
    pub fn merged_chrome_trace(&self) -> String {
        let per_node: Vec<(
            Vec<bionic_telemetry::tracer::Track>,
            Vec<bionic_telemetry::SpanEvent>,
        )> = self
            .nodes
            .iter()
            .map(|n| (n.engine.tel.tracks().to_vec(), n.engine.tel.events()))
            .collect();
        let refs: Vec<(
            &[bionic_telemetry::tracer::Track],
            &[bionic_telemetry::SpanEvent],
        )> = per_node.iter().map(|(t, e)| (&t[..], &e[..])).collect();
        bionic_telemetry::merged_chrome_trace(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionic_workloads::WorkloadKind;

    fn run(nodes: usize, net: NetConfig, cross_bp: u32, seed: u64, txns: usize) -> Cluster {
        let engine = EngineConfig::software().with_agents(2);
        let mut cluster = Cluster::new(ClusterConfig::new(nodes, engine, net));
        let mut wl = cluster.load_small(WorkloadKind::Tatp, cross_bp, seed);
        let mut at = SimTime::ZERO;
        for _ in 0..txns {
            cluster.execute(wl.next(), at);
            at += SimTime::from_us(10.0);
        }
        cluster.end_of_run(at);
        cluster
    }

    #[test]
    fn end_of_run_leaves_no_prepared_payload_on_a_lossy_cluster() {
        let net = NetConfig::healthy(21).with_rates(2_500, 1_500, 2_000, 600);
        let cluster = run(4, net, 6_000, 21, 400);
        let report = cluster.report();
        assert!(
            report.in_doubt_resolved > 0,
            "no doubt to resolve: {report:?}"
        );
        for (n, node) in cluster.nodes.iter().enumerate() {
            let held: Vec<(u64, u32)> = node.seen.prepared().collect();
            assert!(held.is_empty(), "node {n} still holds {held:?}");
            assert!(node.engine.prepared_branches().is_empty(), "node {n}");
        }
        cluster.verify_atomicity().expect("atomic");
    }

    #[test]
    fn beyond_p99_counts_commits_strictly_above_it() {
        let mut cluster = run(2, NetConfig::healthy(5), 5_000, 5, 300);
        let report = cluster.report();
        assert!(report.global_committed > 50, "{report:?}");
        let above = cluster
            .commit_latencies_ps
            .iter()
            .filter(|&&ps| ps > report.commit_p99.as_ps())
            .count() as u64;
        assert_eq!(report.commit_beyond_p99, above);

        // 1..=200 ps: p99 is the sample at rank round(199 × 0.99) = 197,
        // i.e. 198 ps, so exactly two lie beyond it; ties at p99 do not.
        cluster.commit_latencies_ps = (1..=200).rev().collect();
        let report = cluster.report();
        assert_eq!(report.commit_p99, SimTime::from_ps(198));
        assert_eq!(report.commit_beyond_p99, 2);
        cluster.commit_latencies_ps = vec![7; 50];
        assert_eq!(cluster.report().commit_beyond_p99, 0);
        cluster.commit_latencies_ps.clear();
        assert_eq!(cluster.report().commit_beyond_p99, 0);
    }
}
