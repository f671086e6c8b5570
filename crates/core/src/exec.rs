//! Transaction execution: the timed, instrumented heart of the engine.
//!
//! Every operation does two things: it *really happens* (records change,
//! the log grows) and it is *priced* — CPU instructions and memory stalls
//! through the platform's cost models, charged to a Figure-3 category, with
//! offloaded work routed through the FPGA unit models instead. Agent
//! occupancy flows through per-partition FIFO servers, so saturation and
//! queueing emerge naturally; asynchronous hardware work extends a
//! transaction's latency without occupying its agent — §3's thesis that
//! "throughput will improve, even if individual requests take just as long
//! to complete".

use crate::breakdown::Category;
use crate::config::ExecModel;
use crate::engine::{Engine, LogPath};
use crate::ops::{Action, Op, TxnProgram};
use crate::placement::{UNIT_LOG, UNIT_OVERLAY, UNIT_PROBE, UNIT_QUEUE};
use bionic_btree::probe::ProbeOutcome;
use bionic_btree::tree::{Cursor, Footprint};
use bionic_sim::arbiter::BwClient;
use bionic_sim::energy::EnergyDomain;
use bionic_sim::mem::AccessClass;
use bionic_sim::time::SimTime;
use bionic_storage::page::RecordId;
use bionic_storage::slotted::SlottedPage;
use bionic_telemetry::attrib::{SEG_ARBITER_WAIT, SEG_COMMIT, SEG_FALLBACK, SEG_PROBE, SEG_RETRY};
use bionic_wal::record::{LogBodyRef, Lsn, TxnId};
use bionic_wal::timing::LogInsertModel;

/// Why a transaction rolled back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A required key was absent.
    MissingKey,
    /// An insert hit an existing key.
    DuplicateKey,
    /// An update patch did not fit the record.
    PatchFailed,
    /// A two-phase-commit coordinator decided abort for this prepared
    /// branch (timeout, peer veto, or presumed abort after a crash).
    Coordinator,
}

/// Result of one transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxnOutcome {
    /// Committed and durable.
    Committed {
        /// Arrival → durable latency.
        latency: SimTime,
    },
    /// Rolled back.
    Aborted {
        /// Why.
        reason: AbortReason,
        /// Arrival → rollback-complete latency.
        latency: SimTime,
    },
    /// The crash fuse blew mid-execution ([`Engine::crash_at`]): the
    /// transaction neither committed nor rolled back — exactly the state a
    /// real crash leaves, for recovery to resolve. No latency is defined
    /// (the process "died").
    Interrupted,
}

impl TxnOutcome {
    /// Did the transaction commit?
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }

    /// Was the transaction cut short by a blown crash fuse?
    pub fn is_interrupted(&self) -> bool {
        matches!(self, TxnOutcome::Interrupted)
    }

    /// End-to-end latency ([`SimTime::ZERO`] for interrupted transactions).
    pub fn latency(&self) -> SimTime {
        match self {
            TxnOutcome::Committed { latency } | TxnOutcome::Aborted { latency, .. } => *latency,
            TxnOutcome::Interrupted => SimTime::ZERO,
        }
    }
}

/// Result of [`Engine::submit_prepared`]: the first phase of two-phase
/// commit for one local branch of a global transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrepareOutcome {
    /// Vote YES: the branch executed and its Prepare record is durable.
    /// The engine holds the branch open until [`Engine::resolve_prepared`]
    /// delivers the coordinator's decision.
    Prepared {
        /// Local transaction id (the resolve handle).
        txn: TxnId,
        /// Arrival → durable-vote latency.
        latency: SimTime,
    },
    /// Vote NO: the branch aborted locally and already rolled back; the
    /// coordinator must abort the global transaction.
    Aborted {
        /// Why.
        reason: AbortReason,
        /// Arrival → rollback-complete latency.
        latency: SimTime,
    },
    /// The crash fuse blew mid-execution; the branch is in whatever state
    /// the log says (possibly in doubt if the Prepare record made it out).
    Interrupted,
}

impl PrepareOutcome {
    /// Did the branch vote YES?
    pub fn is_prepared(&self) -> bool {
        matches!(self, PrepareOutcome::Prepared { .. })
    }
}

/// A branch that voted YES and awaits the coordinator's decision: the
/// volatile state [`Engine::resolve_prepared`] needs to finish the job.
/// (After a crash none of this survives — recovery re-derives in-doubt
/// branches from Prepare records instead.)
#[derive(Debug)]
pub(crate) struct PreparedTxn {
    undo: Vec<IndexUndo>,
    agent: usize,
    locks_taken: u64,
    wrote: bool,
}

/// Internal result of the unified submit path.
enum SubmitResult {
    Done(TxnOutcome),
    Prepared { txn: TxnId, latency: SimTime },
}

/// Volatile-index compensation for runtime aborts (the WAL undoes heap
/// state; in-memory indexes and overlays are fixed by replaying these).
#[derive(Debug)]
enum IndexUndo {
    Remove { table: u32, key: i64 },
    Reinsert { table: u32, key: i64, rid: u64 },
    SecondaryRemove { table: u32, skey: i64 },
    SecondaryReinsert { table: u32, skey: i64, pkey: i64 },
}

/// The state of the transaction in flight that its ops read and update.
struct TxnCtx {
    txn: TxnId,
    /// The agent running the current action.
    agent: usize,
    undo: Vec<IndexUndo>,
    wrote: bool,
    logged_begin: bool,
    abort_on_missing_read: bool,
}

/// Reusable scratch buffers for the transaction hot path. One instance
/// lives on the [`Engine`]; [`Engine::submit`] and the batch planner check
/// buffers out with `mem::take`, use them, and put them back, so the
/// steady-state loop allocates nothing per transaction — buffers grow to
/// the workload's high-water mark once and stay there.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    undo: Vec<IndexUndo>,
    written_tables: Vec<u32>,
    op_marks: Vec<(&'static str, &'static str, SimTime, SimTime)>,
    completions: Vec<SimTime>,
    rec_before: Vec<u8>,
    rec_after: Vec<u8>,
    range_rids: Vec<u64>,
    /// Batch-planner groups, kept sorted by table id so iteration matches
    /// the `BTreeMap` order the planner used before buffer reuse.
    plan_groups: Vec<(u32, Vec<i64>)>,
    /// Probes resolved ahead of execution, one per planned probe in
    /// execution order. Empty outside `submit` / `submit_batch_with`.
    resolved: Vec<Resolved>,
    /// The entry the next planned probe consumes.
    resolved_next: usize,
    /// In a batch, where in `resolved` each transaction's entries start, so
    /// one that aborts early cannot misalign its successors.
    resolved_starts: Vec<usize>,
}

/// One planned probe descended before its op runs (DESIGN.md "Resolve-ahead
/// probes"): what `index.get(&key)` returned while the index was at
/// `version`, and so what it returns for as long as it still is.
#[derive(Debug)]
struct Resolved {
    table: u32,
    key: i64,
    version: u64,
    cursor: Cursor,
    rid: Option<u64>,
    fp: Footprint,
}

impl ExecScratch {
    /// Consume the next resolved entry — one per planned probe, usable or
    /// not — and return its `(rid, footprint)` if it is for this probe and
    /// the index has not changed since it was resolved.
    fn next_resolved(
        &mut self,
        table: u32,
        key: i64,
        version: u64,
    ) -> Option<(Option<u64>, Footprint)> {
        let e = self.resolved.get(self.resolved_next)?;
        self.resolved_next += 1;
        (e.table == table && e.key == key && e.version == version).then_some((e.rid, e.fp))
    }
}

/// The probes visible before a program runs: the primary-key probe that
/// opens every Read/Update/Insert/Delete, in execution order. Batch
/// planning and resolve-ahead both enumerate exactly these.
fn planned_probes(program: &TxnProgram) -> impl Iterator<Item = (u32, i64)> + '_ {
    let ops = program.phases.iter().flatten().flat_map(|a| &a.ops);
    ops.filter_map(|op| match op {
        Op::Read { table, key }
        | Op::Update { table, key, .. }
        | Op::Insert { table, key, .. }
        | Op::Delete { table, key } => Some((*table, *key)),
        _ => None,
    })
}

/// What the placement and fault gates decided for one offloaded op (see
/// [`Engine::gate`]).
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// The unit is present and not shed: the op tried the hardware.
    attempted: bool,
    /// The hardware path runs; otherwise the software path is priced.
    hw: bool,
    /// Fault time absorbed as agent-occupying wait (zero unless
    /// `attempted`).
    delay: SimTime,
}

/// Cost of one op: agent-occupying CPU time plus asynchronous tail.
#[derive(Debug, Clone, Copy, Default)]
struct OpCost {
    cpu: SimTime,
    asy: SimTime,
}

impl OpCost {
    fn add(&mut self, other: OpCost) {
        debug_assert!(other.cpu.as_secs() < 60.0, "absurd op cpu {:?}", other.cpu);
        debug_assert!(other.asy.as_secs() < 60.0, "absurd op asy {:?}", other.asy);
        self.cpu += other.cpu;
        self.asy += other.asy;
    }
}

const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// Trace label for one op (span names must be `&'static str`).
fn op_span(op: &Op) -> (&'static str, &'static str) {
    match op {
        Op::Read { .. } => ("read", Category::Btree.label()),
        Op::ReadRange { .. } => ("range-read", Category::Btree.label()),
        Op::Update { .. } => ("update", Category::Btree.label()),
        Op::Insert { .. } => ("insert", Category::Btree.label()),
        Op::Delete { .. } => ("delete", Category::Btree.label()),
        Op::Compute { .. } => ("compute", Category::Other.label()),
        Op::SecondaryRead { .. } => ("secondary-read", Category::Btree.label()),
    }
}

/// Amortized probe pricing for an in-flight [`Engine::submit_batch`].
///
/// Planning prices the batch's same-table point probes as one
/// [`bionic_btree::tree::BTree::batch_footprint`] descent (PALM \[12\]:
/// sorted keys share their descent prefix), then hands each executed probe
/// an equal integer share of the aggregate footprint. Shares conserve the
/// aggregate exactly — division floors and the final consumer takes the
/// remainder — so total charged work is independent of consumption order
/// and fully deterministic.
#[derive(Debug, Default)]
pub(crate) struct BatchPlan {
    /// Indexed by table id; grows to the highest planned table once.
    shares: Vec<Option<PlanShare>>,
}

#[derive(Debug)]
struct PlanShare {
    remaining: u32,
    fp: Footprint,
}

impl BatchPlan {
    fn insert(&mut self, table: u32, remaining: u32, fp: Footprint) {
        let t = table as usize;
        if self.shares.len() <= t {
            self.shares.resize_with(t + 1, || None);
        }
        self.shares[t] = Some(PlanShare { remaining, fp });
    }

    pub(crate) fn clear(&mut self) {
        self.shares.iter_mut().for_each(|s| *s = None);
    }

    /// Take one probe's share of `table`'s planned footprint, if any.
    fn consume(&mut self, table: u32) -> Option<Footprint> {
        let slot = self.shares.get_mut(table as usize)?;
        let entry = slot.as_mut()?;
        let n = entry.remaining;
        let share = if n <= 1 {
            std::mem::take(&mut entry.fp)
        } else {
            let s = Footprint {
                inner_visited: entry.fp.inner_visited / n,
                leaves_visited: entry.fp.leaves_visited / n,
                comparisons: entry.fp.comparisons / n,
                splits: 0,
                merges: 0,
                borrows: 0,
            };
            entry.fp.inner_visited -= s.inner_visited;
            entry.fp.leaves_visited -= s.leaves_visited;
            entry.fp.comparisons -= s.comparisons;
            s
        };
        entry.remaining = n.saturating_sub(1);
        if entry.remaining == 0 {
            *slot = None;
        }
        Some(share)
    }
}

impl Engine {
    // ---- charging helpers ----------------------------------------------

    /// Straight-line software work: instructions + memory accesses, charged
    /// to `cat`.
    fn sw_work(
        &mut self,
        cat: Category,
        instructions: u64,
        accesses: u64,
        class: AccessClass,
    ) -> SimTime {
        let t = self.platform.sw_step(instructions, accesses, class);
        self.breakdown.charge(cat, t);
        t
    }

    /// Memory-stall-only charge.
    fn mem_stall(&mut self, cat: Category, class: AccessClass, accesses: u64) -> SimTime {
        let t = self.platform.cpu_mem_access(class, accesses);
        self.breakdown.charge(cat, t);
        t
    }

    /// Charge raw CPU busy time (spinning, copying) to a category, with the
    /// corresponding core energy.
    fn cpu_time(&mut self, cat: Category, t: SimTime) -> SimTime {
        debug_assert!(
            t.as_secs() < 60.0,
            "absurd cpu_time charge: {t:?} to {cat:?}"
        );
        let instr_ps = self.platform.cpu.instr_time().as_ps().max(1);
        let instrs = (t.as_ps() / instr_ps).max(1);
        let e = self.platform.cpu.instr_energy() * instrs;
        self.platform.energy.charge(EnergyDomain::CpuCore, e);
        self.breakdown.charge(cat, t);
        t
    }

    /// The one gate every offloaded op passes: placement first, then the
    /// fault layer. A unit that is absent (`present` is false) or shed by
    /// the placement controller makes no hardware attempt — it consults no
    /// fault layer and draws no RNG — and its caller prices the plain
    /// software path. An attempt asks the unit's degraded-mode wrapper
    /// (when armed): `delay` is the fault time the op absorbs as
    /// agent-occupying wait — watchdog expiries, CRC/ECC detection latency,
    /// retry backoff — charged to `Other` with *no* CPU energy (the core is
    /// stalled waiting, not computing; that is exactly why energy trends
    /// toward the software baseline under brownout while throughput
    /// degrades), and `hw` says whether the hardware path runs or this one
    /// op falls back to software. With the layer off an attempt costs
    /// nothing: no RNG draw, no branch into the fault machinery.
    #[inline(always)]
    fn gate(&mut self, unit: usize, present: bool, cat: Category, now: SimTime) -> Gate {
        if !(present && self.placement_allows(unit)) {
            return Gate {
                attempted: false,
                hw: false,
                delay: SimTime::ZERO,
            };
        }
        // A hardware attempt: flag the transaction as offloaded for the
        // commit-time path classification.
        self.path_acc.offloaded = true;
        let Some(layer) = self.faults.as_mut() else {
            return Gate {
                attempted: true,
                hw: true,
                delay: SimTime::ZERO,
            };
        };
        let d = layer.unit_mut(unit).try_hw(now);
        if !d.delay.is_zero() {
            let mark = if d.hw { "hw-retry" } else { "hw-fallback" };
            self.tel
                .unit_busy(unit, mark, cat.label(), now, now + d.delay);
            self.breakdown.charge(Category::Other, d.delay);
            // Watchdog/retry/backoff time is its own critical-path segment.
            self.path_acc.charge(SEG_RETRY, d.delay.as_ps());
            if d.hw {
                self.path_acc.retried = true;
            }
        }
        if !d.hw {
            self.path_acc.fell_back = true;
        }
        Gate {
            attempted: true,
            hw: d.hw,
            delay: d.delay,
        }
    }

    /// Book an op's traffic with the bandwidth arbiters — `link_bytes` on
    /// the CPU↔FPGA link, `sg_bytes` on SG-DRAM — and return the queueing
    /// delay. `None` means the resource is not requested; `Some(0)` is
    /// still a request and counts in the arbiter's ledger. Under the hybrid
    /// engine the OLTP stream contends here with concurrent analytics; when
    /// contention is off both delays are zero. A nonzero wait — the op sat
    /// in the arbiter before its doorbell — is surfaced on the unit's track
    /// and as its own critical-path segment.
    #[inline(always)]
    fn arbiter_wait(
        &mut self,
        unit: usize,
        cat: Category,
        at: SimTime,
        link_bytes: Option<u64>,
        sg_bytes: Option<u64>,
    ) -> SimTime {
        let mut wait = SimTime::ZERO;
        if let Some(bytes) = link_bytes {
            wait += self
                .platform
                .link_contention_delay(BwClient::Oltp, at, bytes);
        }
        if let Some(bytes) = sg_bytes {
            wait += self.platform.sg_contention_delay(BwClient::Oltp, at, bytes);
        }
        if !wait.is_zero() {
            self.tel
                .unit_busy(unit, "arbiter-wait", cat.label(), at, at + wait);
            self.path_acc.charge(SEG_ARBITER_WAIT, wait.as_ps());
        }
        wait
    }

    /// Occupy `agent` with `cpu` of work arriving at `at`, traced as one
    /// span on its core track. Returns when the agent is done.
    #[inline(always)]
    fn occupy(
        &mut self,
        agent: usize,
        at: SimTime,
        cpu: SimTime,
        name: &'static str,
        cat: Category,
    ) -> SimTime {
        let (start, done) = self.agents[agent].submit(at, cpu);
        let track = self.tel.core_track(agent);
        self.tel.span(track, name, cat.label(), start, done);
        done
    }

    fn socket_of(&self, agent: usize) -> usize {
        agent / self.platform.cfg.cores_per_socket.max(1)
    }

    fn route(&self, action: &Action) -> usize {
        let h = (action.table as u64)
            .wrapping_mul(GOLDEN)
            .wrapping_add((action.route_key as u64).wrapping_mul(GOLDEN));
        ((h >> 32) % self.agents.len() as u64) as usize
    }

    // ---- index cost paths ------------------------------------------------

    /// Software probe cost from a footprint.
    fn sw_probe_cost(&mut self, fp: &Footprint) -> SimTime {
        // §5.3: "a few dozen machine instructions, mostly triplets of the
        // form load-compare-branch".
        let instr = 30 + 3 * fp.comparisons as u64;
        self.sw_work(Category::Btree, instr, 0, AccessClass::Hot)
            + self.mem_stall(Category::Btree, AccessClass::Index, fp.inner_visited as u64)
            + self.mem_stall(
                Category::Btree,
                AccessClass::PointerChase,
                fp.leaves_visited as u64,
            )
    }

    /// Probe cost, hardware or software. Returns `(cpu, async_tail)`.
    fn probe_cost(&mut self, table: u32, key: i64, fp: &Footprint, now: SimTime) -> OpCost {
        self.stats.probes += 1;
        self.stats.probe_nodes_visited += fp.nodes_visited() as u64;
        let g = self.gate(UNIT_PROBE, self.probe_hw.is_some(), Category::Btree, now);
        if !g.hw {
            let sw = self.sw_probe_cost(fp);
            // Attribution: a refused hardware probe is fallback time; the
            // plain software descent (static or placement-shed) is probe
            // time.
            let seg = if g.attempted { SEG_FALLBACK } else { SEG_PROBE };
            self.path_acc.charge(seg, sw.as_ps());
            let mut cpu = g.delay + sw;
            if self.cfg.exec == ExecModel::Conventional {
                // Latch coupling: ~10 instructions + contention at the root.
                cpu += self.sw_work(
                    Category::Btree,
                    10 * fp.nodes_visited() as u64,
                    fp.nodes_visited() as u64,
                    AccessClass::Hot,
                );
                let service = SimTime::from_ns(25.0);
                let wait = self.root_latches[table as usize].delay(now, service);
                // Wait + hold, spin-bounded (threads yield past ~5us).
                cpu += self.cpu_time(Category::Btree, wait.min(SimTime::from_us(5.0)) + service);
            }
            return OpCost {
                cpu,
                asy: SimTime::ZERO,
            };
        }
        // Hardware path: doorbell + PCIe request, pipelined probe, response.
        let cpu = g.delay + self.sw_work(Category::Btree, 40, 1, AccessClass::Hot);
        let levels = fp.nodes_visited().max(1);
        let miss =
            self.cfg.offloads.overlay && self.overlays[table as usize].probe_would_miss(&key);
        // The doorbell/response cross the link; the node reads hit SG-DRAM.
        let wait = self.arbiter_wait(
            UNIT_PROBE,
            Category::Btree,
            now + cpu,
            Some(64 + 16),
            Some(levels as u64 * 64),
        );
        let at_fpga = self.platform.pcie_send(now + cpu + wait, 64);
        let probe = self.probe_hw.as_mut().expect("the gate said hardware");
        let outcome = if miss {
            probe.submit_with_miss(at_fpga, (levels / 2).max(1), 1, &mut self.platform.sg_dram)
        } else {
            probe.submit(at_fpga, levels, 1, &mut self.platform.sg_dram)
        };
        self.probe_served("probe", at_fpga, &outcome);
        let mut done = self.platform.pcie_send(outcome.time(), 16);
        let mut cpu_total = cpu;
        if let ProbeOutcome::Aborted { .. } = outcome {
            // §5.6: "the hardware operation aborts so that software can
            // trigger a data fetch and then retry."
            self.stats.probe_misses += 1;
            let fetch_cpu = self.sw_work(Category::Bpool, 300, 4, AccessClass::Hot);
            let fetched =
                self.platform
                    .sas_read(done + fetch_cpu, (key as u64 % 4096) * 8192, 8192);
            let at2 = self.platform.pcie_send(fetched, 64);
            let probe = self.probe_hw.as_mut().expect("the gate said hardware");
            let retry = probe.submit(at2, levels, 1, &mut self.platform.sg_dram);
            self.probe_served("probe-retry", at2, &retry);
            done = self.platform.pcie_send(retry.time(), 16);
            cpu_total += fetch_cpu;
        }
        OpCost {
            cpu: cpu_total,
            asy: done.saturating_sub(now + cpu_total),
        }
    }

    /// Account one pass through the probe engine that entered at `at`:
    /// fabric energy, the unit-track mark, probe time on the critical path.
    fn probe_served(&mut self, mark: &'static str, at: SimTime, outcome: &ProbeOutcome) {
        self.platform.charge_fpga(outcome.energy());
        self.tel.unit_busy(
            UNIT_PROBE,
            mark,
            Category::Btree.label(),
            at,
            outcome.time(),
        );
        self.path_acc
            .charge(SEG_PROBE, outcome.time().saturating_sub(at).as_ps());
    }

    /// Index structural write cost: always software (§5.3 keeps SMOs
    /// there), plus an asynchronous FPGA-replica update when the probe
    /// engine is active.
    fn index_write_cost(&mut self, fp: &Footprint, now: SimTime) -> OpCost {
        let smo = (fp.splits + fp.merges + fp.borrows) as u64;
        let instr = 60 + 3 * fp.comparisons as u64 + 400 * smo;
        let mut cpu = self.sw_work(Category::Btree, instr, 0, AccessClass::Hot)
            + self.mem_stall(
                Category::Btree,
                AccessClass::Index,
                fp.nodes_visited() as u64 + smo,
            );
        let mut asy = SimTime::ZERO;
        if self.probe_hw.is_some() {
            // Ship the delta to the FPGA-resident index replica.
            cpu += self.sw_work(Category::Btree, 15, 0, AccessClass::Hot);
            let done = self.platform.pcie_send(now + cpu, 96 + 160 * smo);
            asy = done.saturating_sub(now + cpu);
        }
        OpCost { cpu, asy }
    }

    /// Record fetch cost (`bytes` of payload, `missed` = buffer-pool miss).
    fn record_read_cost(&mut self, bytes: usize, missed: bool, now: SimTime) -> OpCost {
        // While placement has the overlay shed, reads are served from the
        // host-side structures (which the engine maintains functionally in
        // every mode) and price through the buffer-pool path below —
        // keeping the OLTP read stream off the contended SG-DRAM port.
        if self.cfg.offloads.overlay && self.placement_allows(UNIT_OVERLAY) {
            // Record lives in FPGA memory: one more SG round piggybacked on
            // the probe exchange.
            let cpu = self.sw_work(Category::Other, 20, 0, AccessClass::Hot);
            let rounds = bytes.div_ceil(64) as u64;
            let e = self.platform.sg_dram.charge_accesses(rounds * 8);
            self.platform.energy.charge(EnergyDomain::SgDram, e);
            let wait = self.arbiter_wait(
                UNIT_OVERLAY,
                Category::Other,
                now + cpu,
                Some(bytes as u64),
                Some(rounds * 64),
            );
            let asy = SimTime::from_ns(400.0) + self.platform.pcie.wire_time(bytes as u64) + wait;
            return OpCost { cpu, asy };
        }
        let mut cpu = self.sw_work(Category::Bpool, 90, 3, AccessClass::Hot);
        let mut asy = SimTime::ZERO;
        if missed {
            // Synchronous page fetch from the SAS array.
            let done = self.platform.sas_read(now + cpu, 0, 8192);
            asy = done.saturating_sub(now + cpu);
            cpu += self.sw_work(Category::Bpool, 400, 8, AccessClass::Hot);
        }
        cpu += self.sw_work(
            Category::Other,
            (bytes as u64) / 8,
            (bytes as u64).div_ceil(64),
            AccessClass::PointerChase,
        );
        OpCost { cpu, asy }
    }

    /// Record write cost (patch + page write path).
    fn record_write_cost(&mut self, bytes: usize) -> SimTime {
        let pool_part = if self.cfg.offloads.overlay {
            self.sw_work(Category::Other, 25, 0, AccessClass::Hot)
        } else {
            self.sw_work(Category::Bpool, 110, 3, AccessClass::Hot)
        };
        pool_part
            + self.sw_work(
                Category::Other,
                (bytes as u64) / 8,
                (bytes as u64).div_ceil(64),
                AccessClass::PointerChase,
            )
    }

    /// Fetch the record at `rid` for a read: only its length matters.
    #[inline(always)]
    fn record_fetch_cost(&mut self, table: u32, rid: u64, now: SimTime) -> OpCost {
        let heap = &mut self.tables[table as usize].heap;
        let (len, hfp) = heap.record_len(&mut self.pool, RecordId::from_u64(rid));
        self.record_read_cost(len.unwrap_or(0), hfp.pool_misses > 0, now)
    }

    /// Fetch the image of the live record at `rid` into `image`, for a
    /// write that logs it.
    fn image_fetch_cost(
        &mut self,
        table: u32,
        rid: RecordId,
        image: &mut Vec<u8>,
        now: SimTime,
    ) -> OpCost {
        let heap = &mut self.tables[table as usize].heap;
        let (len, hfp) = heap.get_into(&mut self.pool, rid, image);
        let len = len.expect("index points at live record");
        self.record_read_cost(len, hfp.pool_misses > 0, now)
    }

    /// Mirror a primary-index change into the table's overlay under the
    /// next write sequence number: `Some(rid)` puts, `None` deletes.
    /// Functional only, and a no-op when the overlay is not configured.
    fn overlay_apply(&mut self, table: u32, key: i64, rid: Option<u64>) {
        if !self.cfg.offloads.overlay {
            return;
        }
        let seq = self.write_seq;
        self.write_seq += 1;
        let overlay = &mut self.overlays[table as usize];
        match rid {
            Some(rid) => overlay.put(key, rid, seq),
            None => overlay.delete(key, seq),
        };
    }

    /// A forward write's overlay delta: [`Engine::overlay_apply`] plus the
    /// price of the delta write (the FPGA overlay manager of Figure 4).
    /// The functional put/delete happens whichever way the pricing goes.
    #[inline(always)]
    fn overlay_write(&mut self, table: u32, key: i64, rid: Option<u64>, now: SimTime) -> OpCost {
        if !self.cfg.offloads.overlay {
            return OpCost::default();
        }
        self.overlay_apply(table, key, rid);
        let g = self.gate(UNIT_OVERLAY, true, Category::Bpool, now);
        if !g.hw {
            // Shed or fallen back: the delta goes through the buffer-pool
            // write path instead — the same pool part
            // [`Engine::record_write_cost`] charges when the overlay is
            // off.
            let sw = self.sw_work(Category::Bpool, 110, 3, AccessClass::Hot);
            if g.attempted {
                self.path_acc.charge(SEG_FALLBACK, sw.as_ps());
            }
            return OpCost {
                cpu: g.delay + sw,
                asy: SimTime::ZERO,
            };
        }
        let cpu = g.delay + self.sw_work(Category::Bpool, 30, 1, AccessClass::Hot);
        let wait = self.arbiter_wait(UNIT_OVERLAY, Category::Bpool, now + cpu, Some(64), None);
        let done = self.platform.pcie_send(now + cpu + wait, 64);
        self.tel.unit_busy(
            UNIT_OVERLAY,
            "delta-write",
            Category::Bpool.label(),
            done,
            done + SimTime::from_ns(400.0),
        );
        OpCost {
            cpu,
            asy: (done + SimTime::from_ns(400.0)).saturating_sub(now + cpu),
        }
    }

    /// Price one `bytes`-long insert into the log buffer by `agent` at
    /// `now`, forward record or CLR alike. Returns `(cpu, buffered_at)`.
    /// On the hardware log a shed or fallen-back insert goes through the
    /// latch-serialized software buffer instead; `mark` names the
    /// unit-track mark of an insert the hardware served.
    #[inline(always)]
    fn log_insert_cost(
        &mut self,
        now: SimTime,
        agent: usize,
        bytes: u64,
        mark: &'static str,
    ) -> (SimTime, SimTime) {
        let is_hw = matches!(self.log_path, LogPath::Hardware(_));
        let g = self.gate(UNIT_LOG, is_hw, Category::Log, now);
        let at = now + g.delay;
        let timing = if is_hw && !g.hw {
            self.log_fallback.insert(at, agent, bytes)
        } else {
            self.log_path.insert(at, agent, bytes)
        };
        if g.hw {
            self.tel.unit_busy(
                UNIT_LOG,
                mark,
                Category::Log.label(),
                at,
                timing.buffered_at,
            );
        }
        let insert_cpu = self.cpu_time(Category::Log, timing.cpu_busy);
        if g.attempted && !g.hw {
            // Rerouted by a fault: the insert is fallback time, not
            // log-engine service.
            self.path_acc.charge(SEG_FALLBACK, insert_cpu.as_ps());
        }
        self.platform.charge_fpga(timing.energy);
        (g.delay + insert_cpu, timing.buffered_at)
    }

    /// Append + price a log record. Returns `(cpu, buffered_at, lsn)`.
    ///
    /// This is also where the crash fuse ticks: every priced append counts
    /// down, and the fuse blows *after* the Nth append lands in the
    /// volatile log — the record exists in memory but nothing later (flush,
    /// rollback, further ops) will run, exactly like a process death
    /// between two store instructions.
    fn log_write(
        &mut self,
        txn: TxnId,
        body: LogBodyRef<'_>,
        agent: usize,
        now: SimTime,
    ) -> (SimTime, SimTime, Lsn) {
        let (lsn, bytes) = self.log.append_ref(txn, body);
        if let Some(f) = self.fuse.as_mut() {
            if !f.blown {
                f.remaining = f.remaining.saturating_sub(1);
                if f.remaining == 0 {
                    f.blown = true;
                }
            }
        }
        let (cpu, buffered_at) = self.log_insert_cost(now, agent, bytes as u64, "log-insert");
        (cpu, buffered_at, lsn)
    }

    /// A transaction's first write opens it in the log with a Begin record.
    fn log_begin(&mut self, cx: &mut TxnCtx, now: SimTime) -> SimTime {
        if cx.logged_begin {
            return SimTime::ZERO;
        }
        cx.logged_begin = true;
        self.log_write(cx.txn, LogBodyRef::Begin, cx.agent, now).0
    }

    /// Log one data record and stamp the page it changed (`rid`'s) with the
    /// record's LSN. Returns the insert's CPU time.
    fn log_data(
        &mut self,
        cx: &TxnCtx,
        body: LogBodyRef<'_>,
        rid: RecordId,
        now: SimTime,
    ) -> SimTime {
        let (cpu, _, lsn) = self.log_write(cx.txn, body, cx.agent, now);
        self.pool.with_page_mut(rid.page, |pg| {
            SlottedPage::attach(pg).set_lsn(lsn);
        });
        cpu
    }

    /// DORA action creation + queue hand-off to `agent` at `t`: the queue
    /// engine's enqueue/dequeue pair, or the software queue when the unit
    /// is absent, shed or refuses. Returns the agent time it adds ahead of
    /// the action's ops.
    fn hand_off_cost(&mut self, agent: usize, t: SimTime) -> SimTime {
        let create = self.sw_work(Category::Dora, 100, 2, AccessClass::Hot);
        let g = self.gate(UNIT_QUEUE, self.queue_hw.is_some(), Category::Dora, t);
        let tq = t + g.delay;
        let busy = match self.queue_hw.as_mut() {
            Some(hw) if g.hw => {
                let lat = hw.op_latency();
                let (e, d) = (hw.enqueue(tq), hw.dequeue(tq));
                self.platform.charge_fpga(e.energy + d.energy);
                // The fabric serves the enqueue/dequeue pair back-to-back;
                // trace them as consecutive marks.
                let dora = Category::Dora.label();
                self.tel
                    .unit_busy(UNIT_QUEUE, "enqueue", dora, tq, tq + lat);
                self.tel
                    .unit_busy(UNIT_QUEUE, "dequeue", dora, tq + lat, tq + lat + lat);
                e.cpu_busy + d.cpu_busy
            }
            _ => {
                let cross = self.socket_of(agent) != 0;
                let (e, d) = (self.queue_sw.enqueue(cross), self.queue_sw.dequeue(cross));
                let busy = e.cpu_busy + d.cpu_busy;
                if g.attempted {
                    // Hardware queue refused this hand-off: software
                    // enqueue/dequeue is fallback time.
                    self.path_acc.charge(SEG_FALLBACK, busy.as_ps());
                }
                busy
            }
        };
        self.cpu_time(Category::Dora, busy);
        g.delay + create + busy
    }

    /// Conventional-engine lock acquisition: hash + latch + queue checks
    /// (~300 instructions per Shore-class engines), plus contention on the
    /// central lock-manager latch.
    fn lock_cost(&mut self, now: SimTime) -> SimTime {
        let cpu = self.sw_work(Category::Lock, 300, 4, AccessClass::Hot);
        // Lock-table bucket latch + lock-state line transfer: at multi-core
        // contention levels the line rarely stays local (the effect DORA
        // removes by construction).
        let service = SimTime::from_ns(120.0);
        let wait = self.lock_latch.delay(now + cpu, service);
        cpu + self.cpu_time(Category::Lock, wait.min(SimTime::from_us(5.0)) + service)
    }

    // ---- op execution ----------------------------------------------------

    /// Probe functionally + price it. `use_plan` marks probes that were
    /// visible to [`Engine::submit_batch`] planning (the primary-key probe
    /// of Read/Update/Insert/Delete): those consume an amortized share of
    /// the batch footprint when one is available. Probes planning could not
    /// see — the primary hop of a secondary read, range descents — always
    /// price their live footprint. Planned probes were also resolved ahead
    /// ([`Engine::resolve_ahead`]); the live walk runs only when the index
    /// changed since.
    fn timed_probe(
        &mut self,
        table: u32,
        key: i64,
        now: SimTime,
        use_plan: bool,
    ) -> (Option<u64>, OpCost) {
        let index = &self.tables[table as usize].index;
        let resolved = if use_plan {
            self.scratch.next_resolved(table, key, index.version())
        } else {
            None
        };
        // Debug builds re-walk every resolved hit, which makes each tier-1
        // engine test a differential check of the version rule.
        debug_assert!(resolved.is_none() || resolved == Some(index.get(&key)));
        let (rid, live_fp) = resolved.unwrap_or_else(|| index.get(&key));
        let fp = if use_plan {
            self.batch_plan.consume(table).unwrap_or(live_fp)
        } else {
            live_fp
        };
        let cost = self.probe_cost(table, key, &fp, now);
        (rid, cost)
    }

    /// Secondary-index probe: skey → primary key, priced like any probe.
    fn timed_secondary_probe(
        &mut self,
        table: u32,
        skey: i64,
        now: SimTime,
    ) -> (Option<i64>, OpCost) {
        debug_assert!(
            self.tables[table as usize].secondary_offset.is_some(),
            "secondary read on table without a secondary index"
        );
        let (pkey, fp) = self.tables[table as usize].secondary.get(&skey);
        let cost = self.probe_cost(table, skey, &fp, now);
        (pkey.map(|p| p as i64), cost)
    }

    /// Maintain the secondary index across a write. `before`/`after` are
    /// the record images (None = record absent on that side). Returns the
    /// maintenance cost; pushes compensations onto `undo`.
    fn maintain_secondary(
        &mut self,
        table: u32,
        key: i64,
        before: Option<&[u8]>,
        after: Option<&[u8]>,
        now: SimTime,
        undo: &mut Vec<IndexUndo>,
    ) -> OpCost {
        let mut cost = OpCost::default();
        let (old_skey, new_skey) = {
            let t = &self.tables[table as usize];
            if t.secondary_offset.is_none() {
                return cost;
            }
            (
                before.and_then(|r| t.secondary_key(r)),
                after.and_then(|r| t.secondary_key(r)),
            )
        };
        if old_skey == new_skey {
            return cost;
        }
        if let Some(skey) = old_skey {
            let (_, fp) = self.tables[table as usize].secondary.remove(&skey);
            let c = self.index_write_cost(&fp, now);
            cost.add(c);
            undo.push(IndexUndo::SecondaryReinsert {
                table,
                skey,
                pkey: key,
            });
        }
        if let Some(skey) = new_skey {
            let (_, fp) = self.tables[table as usize]
                .secondary
                .insert(skey, key as u64);
            let c = self.index_write_cost(&fp, now);
            cost.add(c);
            undo.push(IndexUndo::SecondaryRemove { table, skey });
        }
        cost
    }

    /// The tail every point read shares: fetch the record its probes found,
    /// or report the key missing.
    fn read_record(
        &mut self,
        cx: &TxnCtx,
        table: u32,
        rid: Option<u64>,
        now: SimTime,
        cost: &mut OpCost,
    ) -> Result<(), AbortReason> {
        match rid {
            Some(rid) => {
                cost.add(self.record_fetch_cost(table, rid, now));
                Ok(())
            }
            None if cx.abort_on_missing_read => Err(AbortReason::MissingKey),
            None => Ok(()),
        }
    }

    /// Run one op of `cx`'s transaction on `cx.agent` at `now`: it really
    /// happens, and it is priced.
    fn exec_op(
        &mut self,
        cx: &mut TxnCtx,
        op: &Op,
        now: SimTime,
    ) -> (OpCost, Result<(), AbortReason>) {
        let mut cost = OpCost::default();
        if self.cfg.exec == ExecModel::Conventional {
            // Every op's target is locked before access.
            if !matches!(op, Op::Compute { .. }) {
                cost.cpu += self.lock_cost(now);
            }
        }
        let result = match op {
            Op::Compute { instructions } => {
                cost.cpu += self.sw_work(
                    Category::Other,
                    *instructions,
                    instructions / 10,
                    AccessClass::Hot,
                );
                Ok(())
            }
            Op::Read { table, key } => {
                let (rid, c) = self.timed_probe(*table, *key, now, true);
                cost.add(c);
                self.read_record(cx, *table, rid, now, &mut cost)
            }
            Op::SecondaryRead { table, skey } => {
                let (pkey, c) = self.timed_secondary_probe(*table, *skey, now);
                cost.add(c);
                let rid = pkey.and_then(|pkey| {
                    let (rid, c) = self.timed_probe(*table, pkey, now, false);
                    cost.add(c);
                    rid
                });
                self.read_record(cx, *table, rid, now, &mut cost)
            }
            Op::ReadRange {
                table,
                lo,
                hi,
                limit,
            } => {
                let mut rids = std::mem::take(&mut self.scratch.range_rids);
                rids.clear();
                let fp = {
                    let t = &self.tables[*table as usize];
                    t.index.range(lo, hi, |_, v| {
                        if rids.len() < *limit {
                            rids.push(v);
                        }
                    })
                };
                // Descent priced like a probe; the leaf walk adds dependent
                // leaf fetches (hw: one SG round each; sw: pointer chases).
                let c = self.probe_cost(*table, *lo, &fp, now);
                cost.add(c);
                let extra_leaves = fp.leaves_visited.saturating_sub(1) as u64;
                if self.probe_hw.is_some() && self.placement_allows(UNIT_PROBE) {
                    cost.asy += SimTime::from_ns(400.0) * extra_leaves;
                    let e = self.platform.sg_dram.charge_accesses(extra_leaves * 8);
                    self.platform.energy.charge(EnergyDomain::SgDram, e);
                    // Booked even when there is no extra leaf (0 bytes).
                    cost.asy += self.arbiter_wait(
                        UNIT_PROBE,
                        Category::Btree,
                        now,
                        None,
                        Some(extra_leaves * 64),
                    );
                } else {
                    cost.cpu +=
                        self.sw_work(Category::Btree, 4 * rids.len() as u64, 0, AccessClass::Hot);
                }
                for &rid in &rids {
                    let c = self.record_fetch_cost(*table, rid, now);
                    cost.add(c);
                }
                self.scratch.range_rids = rids;
                Ok(())
            }
            Op::Update { table, key, patch } => {
                let (rid, c) = self.timed_probe(*table, *key, now, true);
                cost.add(c);
                let Some(rid_u) = rid else {
                    return (cost, Err(AbortReason::MissingKey));
                };
                let rid = RecordId::from_u64(rid_u);
                let mut before = std::mem::take(&mut self.scratch.rec_before);
                let mut after = std::mem::take(&mut self.scratch.rec_after);
                let c = self.image_fetch_cost(*table, rid, &mut before, now);
                cost.add(c);
                after.clear();
                after.extend_from_slice(&before);
                if patch.apply(&mut after).is_err() {
                    self.scratch.rec_before = before;
                    self.scratch.rec_after = after;
                    return (cost, Err(AbortReason::PatchFailed));
                }
                cost.cpu += self.log_begin(cx, now);
                let (new_rid, _) = {
                    let t = &mut self.tables[*table as usize];
                    t.heap
                        .update(&mut self.pool, rid, &after)
                        .expect("update fits (fixed-size records)")
                };
                cost.cpu += self.record_write_cost(after.len());
                if new_rid != rid {
                    // Record moved: log as delete+insert, repoint the index.
                    let delete = LogBodyRef::Delete {
                        table: *table,
                        rid: rid_u,
                        before: &before,
                    };
                    cost.cpu += self.log_data(cx, delete, rid, now);
                    let insert = LogBodyRef::Insert {
                        table: *table,
                        rid: new_rid.to_u64(),
                        after: &after,
                    };
                    cost.cpu += self.log_data(cx, insert, new_rid, now);
                    let (_, ifp) = self.tables[*table as usize]
                        .index
                        .insert(*key, new_rid.to_u64());
                    let c = self.index_write_cost(&ifp, now);
                    cost.add(c);
                    cx.undo.push(IndexUndo::Reinsert {
                        table: *table,
                        key: *key,
                        rid: rid_u,
                    });
                } else {
                    let update = LogBodyRef::Update {
                        table: *table,
                        rid: rid_u,
                        before: &before,
                        after: &after,
                    };
                    cost.cpu += self.log_data(cx, update, rid, now);
                }
                let c = self.overlay_write(*table, *key, Some(new_rid.to_u64()), now);
                cost.add(c);
                let c = self.maintain_secondary(
                    *table,
                    *key,
                    Some(&before),
                    Some(&after),
                    now,
                    &mut cx.undo,
                );
                cost.add(c);
                self.scratch.rec_before = before;
                self.scratch.rec_after = after;
                cx.wrote = true;
                Ok(())
            }
            Op::Insert { table, key, record } => {
                let (existing, c) = self.timed_probe(*table, *key, now, true);
                cost.add(c);
                if existing.is_some() {
                    return (cost, Err(AbortReason::DuplicateKey));
                }
                cost.cpu += self.log_begin(cx, now);
                let mut full = std::mem::take(&mut self.scratch.rec_before);
                crate::table::make_record_into(*key, record, &mut full);
                let (rid, _) = {
                    let t = &mut self.tables[*table as usize];
                    t.heap.insert(&mut self.pool, &full).expect("insert fits")
                };
                cost.cpu += self.record_write_cost(full.len());
                let insert = LogBodyRef::Insert {
                    table: *table,
                    rid: rid.to_u64(),
                    after: &full,
                };
                cost.cpu += self.log_data(cx, insert, rid, now);
                let (_, ifp) = self.tables[*table as usize]
                    .index
                    .insert(*key, rid.to_u64());
                let c = self.index_write_cost(&ifp, now);
                cost.add(c);
                let c = self.overlay_write(*table, *key, Some(rid.to_u64()), now);
                cost.add(c);
                cx.undo.push(IndexUndo::Remove {
                    table: *table,
                    key: *key,
                });
                let c = self.maintain_secondary(*table, *key, None, Some(&full), now, &mut cx.undo);
                cost.add(c);
                self.scratch.rec_before = full;
                cx.wrote = true;
                Ok(())
            }
            Op::Delete { table, key } => {
                let (rid, c) = self.timed_probe(*table, *key, now, true);
                cost.add(c);
                let Some(rid_u) = rid else {
                    return (cost, Err(AbortReason::MissingKey));
                };
                let rid = RecordId::from_u64(rid_u);
                let mut before = std::mem::take(&mut self.scratch.rec_before);
                let c = self.image_fetch_cost(*table, rid, &mut before, now);
                cost.add(c);
                cost.cpu += self.log_begin(cx, now);
                {
                    let t = &mut self.tables[*table as usize];
                    t.heap.delete(&mut self.pool, rid).expect("delete live");
                }
                cost.cpu += self.record_write_cost(0);
                let delete = LogBodyRef::Delete {
                    table: *table,
                    rid: rid_u,
                    before: &before,
                };
                cost.cpu += self.log_data(cx, delete, rid, now);
                let (_, ifp) = self.tables[*table as usize].index.remove(key);
                let c = self.index_write_cost(&ifp, now);
                cost.add(c);
                let c = self.overlay_write(*table, *key, None, now);
                cost.add(c);
                cx.undo.push(IndexUndo::Reinsert {
                    table: *table,
                    key: *key,
                    rid: rid_u,
                });
                let c =
                    self.maintain_secondary(*table, *key, Some(&before), None, now, &mut cx.undo);
                cost.add(c);
                self.scratch.rec_before = before;
                cx.wrote = true;
                Ok(())
            }
        };
        (cost, result)
    }

    /// Roll a transaction back: WAL undo for heap state, reverse index
    /// compensation for volatile structures, CLR logging costs. Returns the
    /// agent time it takes.
    fn rollback(
        &mut self,
        txn: TxnId,
        undo: &mut Vec<IndexUndo>,
        agent: usize,
        now: SimTime,
    ) -> SimTime {
        let mut cpu = self.sw_work(Category::Xct, 150, 3, AccessClass::Hot);
        let undone = bionic_wal::recovery::undo_txn(&mut self.log, &mut self.pool, txn);
        // Price each CLR like a small logged update.
        for _ in 0..undone {
            cpu += self.log_insert_cost(now + cpu, agent, 120, "clr-insert").0;
            cpu += self.sw_work(Category::Xct, 180, 4, AccessClass::PointerChase);
        }
        for u in undo.drain(..).rev() {
            let fp = match u {
                IndexUndo::Remove { table, key } => {
                    self.overlay_apply(table, key, None);
                    self.tables[table as usize].index.remove(&key).1
                }
                IndexUndo::Reinsert { table, key, rid } => {
                    self.overlay_apply(table, key, Some(rid));
                    self.tables[table as usize].index.insert(key, rid).1
                }
                IndexUndo::SecondaryRemove { table, skey } => {
                    self.tables[table as usize].secondary.remove(&skey).1
                }
                IndexUndo::SecondaryReinsert { table, skey, pkey } => {
                    let secondary = &mut self.tables[table as usize].secondary;
                    secondary.insert(skey, pkey as u64).1
                }
            };
            cpu += self.index_write_cost(&fp, now + cpu).cpu;
        }
        cpu
    }

    /// Occupy `agent` from `t` with `cpu` of rollback work and count the
    /// abort. Returns when the rollback completes.
    fn count_abort(&mut self, agent: usize, t: SimTime, cpu: SimTime) -> SimTime {
        let done = self.occupy(agent, t, cpu, "rollback", Category::Xct);
        self.stats.aborted += 1;
        self.stats.last_completion = self.stats.last_completion.max(done);
        done
    }

    /// CPU time of commit processing, before any log write: transaction
    /// bookkeeping plus, in the conventional engine, releasing `locks`.
    fn commit_cpu(&mut self, locks: u64) -> SimTime {
        let mut cpu = self.sw_work(Category::Xct, 200, 3, AccessClass::Hot);
        if self.cfg.exec == ExecModel::Conventional && locks > 0 {
            cpu += self.sw_work(Category::Lock, 130 * locks, 2 * locks, AccessClass::Hot);
        }
        cpu
    }

    /// Count a commit that completed at `done` for a request that arrived
    /// at `since`. Returns its latency.
    fn count_commit(&mut self, done: SimTime, since: SimTime) -> SimTime {
        self.stats.committed += 1;
        let latency = done - since;
        self.stats.latency.record(latency);
        self.stats.last_completion = self.stats.last_completion.max(done);
        latency
    }

    /// The durable close of a step — commit, prepare vote or coordinator
    /// decision: append `body`, force it with a group-commit-priced flush
    /// (a `Commit` is then followed by its `End`), and occupy `agent` from
    /// `t` with `cpu` plus the insert's CPU, traced as `span`. Returns when
    /// the step is both done and durable. A `None` body is a step that
    /// wrote nothing: agent time only.
    ///
    /// Returns `None` when the crash fuse blew on the append — the torn
    /// window: the record is in the volatile log but nothing was flushed,
    /// so a torn Commit must lose at recovery and a torn Prepare vote never
    /// left this node. Nothing after the append has happened: no flush, no
    /// `End`, no agent occupancy, no counter.
    fn seal(
        &mut self,
        txn: TxnId,
        body: Option<LogBodyRef<'_>>,
        agent: usize,
        t: SimTime,
        mut cpu: SimTime,
        span: &'static str,
    ) -> Option<SimTime> {
        let Some(body) = body else {
            return Some(self.occupy(agent, t, cpu, span, Category::Xct));
        };
        let (log_cpu, buffered, _) = self.log_write(txn, body, agent, t + cpu);
        if self.fuse_blown() {
            return None;
        }
        cpu += log_cpu;
        let bytes = self.log.unflushed_bytes().max(1);
        let (durable, e) = self.group_commit.durable_at(buffered, bytes);
        self.platform.energy.charge(EnergyDomain::Storage, e);
        self.log.flush();
        if matches!(body, LogBodyRef::Commit) {
            self.log.append_ref(txn, LogBodyRef::End);
        }
        let agent_done = self.occupy(agent, t, cpu, span, Category::Log);
        Some(agent_done.max(durable))
    }

    /// The query-side read path of Figure 4: a range query over one table,
    /// optionally as of an earlier version (overlay mode patches history,
    /// §5.6), answered through the CPU-side result cache when possible.
    ///
    /// Returns `(row_count, served_from_cache, completion_time)`. Query
    /// execution stays in software ("query engine" sits in the GP-CPU box);
    /// only the data access is priced through the active substrate.
    pub fn query_range(
        &mut self,
        table: u32,
        lo: i64,
        hi: i64,
        asof: Option<u64>,
        now: SimTime,
    ) -> (usize, bool, SimTime) {
        let version = asof.unwrap_or(u64::MAX);
        let fingerprint = (table as u64)
            .wrapping_mul(GOLDEN)
            .wrapping_add((lo as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add((hi as u64).wrapping_mul(0x9E37_79B9))
            .wrapping_add(version);
        // Cache lookup: a hash probe plus a couple of line touches.
        let mut cpu = self.sw_work(Category::FrontEnd, 120, 3, AccessClass::Hot);
        if asof.is_none() {
            if let Some(hit) = self.result_cache.get(fingerprint) {
                let rows = u64::from_le_bytes(hit[..8].try_into().unwrap()) as usize;
                return (rows, true, now + cpu);
            }
        }
        // Execute: overlay patching when enabled, plain index otherwise.
        let mut rows = 0usize;
        if self.cfg.offloads.overlay {
            self.overlays[table as usize].range_asof(&lo, &hi, version, |_, _| rows += 1);
        } else {
            self.tables[table as usize]
                .index
                .range(&lo, &hi, |_, _| rows += 1);
        }
        // Price it like a range read + per-row merge work.
        let (_, fp) = self.tables[table as usize].index.get(&lo);
        let c = self.probe_cost(table, lo, &fp, now);
        cpu += c.cpu;
        cpu += self.sw_work(
            Category::Other,
            30 * rows as u64 + 200,
            rows as u64,
            AccessClass::Sequential,
        );
        let done = now + cpu + c.asy;
        if asof.is_none() {
            self.result_cache
                .put(fingerprint, (rows as u64).to_le_bytes().to_vec(), &[table]);
        }
        (rows, false, done)
    }

    /// Result-cache statistics (hits/misses/stale/evictions).
    pub fn result_cache_stats(&self) -> bionic_overlay::result_cache::CacheStats {
        self.result_cache.stats()
    }

    /// Background overlay merges (§5.6's bulk merge back to disk).
    fn maybe_merge(&mut self, now: SimTime) {
        if !self.cfg.offloads.overlay {
            return;
        }
        for t in 0..self.tables.len() {
            let writes = self.overlays[t].delta_writes();
            if writes - self.merge_marks[t] >= self.cfg.merge_threshold {
                let up_to = self.write_seq;
                self.write_seq += 1;
                let report = self.overlays[t].merge(up_to);
                self.merge_marks[t] = self.overlays[t].delta_writes();
                // Bulk sequential write-back to the SAS array: background
                // I/O and fabric work, no agent time.
                self.platform
                    .sas_write(now, t as u64 * (1 << 30), report.bytes_written);
                self.platform
                    .charge_fpga(bionic_sim::energy::Energy::from_uj(
                        report.keys_merged as f64 * 0.05,
                    ));
                self.sw_work(Category::Other, 2_000, 40, AccessClass::Sequential);
                self.stats.merges += 1;
            }
        }
    }

    // ---- the main entry point ---------------------------------------------

    /// Execute one transaction arriving at `arrive`.
    pub fn submit(&mut self, program: &TxnProgram, arrive: SimTime) -> TxnOutcome {
        self.submit_one(program, arrive, true)
    }

    /// `resolve` is false inside a batch, whose planner already resolved
    /// every transaction's probes.
    fn submit_one(&mut self, program: &TxnProgram, arrive: SimTime, resolve: bool) -> TxnOutcome {
        match self.submit_inner(program, arrive, None, resolve) {
            SubmitResult::Done(outcome) => outcome,
            SubmitResult::Prepared { .. } => unreachable!("prepare not requested"),
        }
    }

    /// Execute one local branch of a global transaction as 2PC phase one:
    /// run the program, then — instead of committing — force a durable
    /// [`bionic_wal::LogBody::Prepare`] vote and hold the branch open.
    /// A YES vote surrenders the right to unilaterally abort: the branch
    /// stays prepared until [`Engine::resolve_prepared`] delivers the
    /// coordinator's decision. Local failures (missing key, duplicate…)
    /// still abort-and-rollback immediately, which is a NO vote.
    pub fn submit_prepared(
        &mut self,
        program: &TxnProgram,
        arrive: SimTime,
        gtxn: u64,
        coord: u32,
    ) -> PrepareOutcome {
        match self.submit_inner(program, arrive, Some((gtxn, coord)), true) {
            SubmitResult::Prepared { txn, latency } => PrepareOutcome::Prepared { txn, latency },
            SubmitResult::Done(TxnOutcome::Aborted { reason, latency }) => {
                PrepareOutcome::Aborted { reason, latency }
            }
            SubmitResult::Done(TxnOutcome::Interrupted) => PrepareOutcome::Interrupted,
            SubmitResult::Done(TxnOutcome::Committed { .. }) => {
                unreachable!("a prepared branch never commits in phase one")
            }
        }
    }

    /// Deliver the coordinator's decision for a branch that voted YES.
    /// `commit == true` appends the Commit/End records (group-commit
    /// priced, like any local commit) and counts the branch as committed;
    /// `false` rolls it back through the ordinary undo path (CLRs and
    /// all) with [`AbortReason::Coordinator`]. `at` is when the decision
    /// message reaches this node.
    ///
    /// # Panics
    /// If `txn` is not a currently prepared branch.
    pub fn resolve_prepared(&mut self, txn: TxnId, commit: bool, at: SimTime) -> TxnOutcome {
        if self.fuse_blown() {
            return TxnOutcome::Interrupted;
        }
        let mut p = self
            .prepared
            .remove(&txn)
            .unwrap_or_else(|| panic!("resolve of unknown prepared txn {txn}"));
        self.tel.set_txn(txn);
        let outcome = if commit {
            let cpu = self.commit_cpu(p.locks_taken);
            let body = p.wrote.then_some(LogBodyRef::Commit);
            let Some(done) = self.seal(txn, body, p.agent, at, cpu, "commit") else {
                return TxnOutcome::Interrupted;
            };
            let latency = self.count_commit(done, at);
            self.maybe_merge(done);
            TxnOutcome::Committed { latency }
        } else {
            let rb_cpu = if p.wrote {
                // Undo chain tail is the Prepare record; the walk skips it
                // and compensates the data records like any runtime abort.
                self.rollback(txn, &mut p.undo, p.agent, at)
            } else {
                // Read-only branch: nothing logged, nothing to undo.
                self.sw_work(Category::Xct, 150, 3, AccessClass::Hot)
            };
            let done = self.count_abort(p.agent, at, rb_cpu);
            self.maybe_merge(done);
            TxnOutcome::Aborted {
                reason: AbortReason::Coordinator,
                latency: done - at,
            }
        };
        // The branch took the scratch undo buffer with it at prepare; give
        // the larger of the two back so the next transaction need not
        // re-grow one.
        p.undo.clear();
        if p.undo.capacity() > self.scratch.undo.capacity() {
            self.scratch.undo = p.undo;
        }
        outcome
    }

    /// Local transaction ids of branches currently held prepared.
    pub fn prepared_branches(&self) -> Vec<TxnId> {
        self.prepared.keys().copied().collect()
    }

    /// Durably record a coordinator-side commit decision for global
    /// transaction `gtxn` in this node's own WAL. Presumed abort makes
    /// this the *only* record a coordinator writes: no decision record
    /// means abort, so abort decisions cost nothing durable. The decision
    /// is an ordinary empty Begin/Commit/End transaction under the gtxn id
    /// (the `0x8000…` namespace keeps it disjoint from local ids), forced
    /// with a group-commit-priced flush. Returns the sim time at which the
    /// decision is stable, or `None` if the crash fuse blew mid-write — in
    /// which case recovery will answer from whatever prefix survived.
    pub fn log_decision(&mut self, gtxn: u64, at: SimTime) -> Option<SimTime> {
        if self.fuse_blown() {
            return None;
        }
        self.tel.set_txn(gtxn);
        let mut cpu = self.sw_work(Category::Log, 200, 3, AccessClass::Hot);
        cpu += self.log_write(gtxn, LogBodyRef::Begin, 0, at + cpu).0;
        if self.fuse_blown() {
            return None;
        }
        self.seal(gtxn, Some(LogBodyRef::Commit), 0, at, cpu, "decide")
    }

    fn submit_inner(
        &mut self,
        program: &TxnProgram,
        arrive: SimTime,
        prepare: Option<(u64, u32)>,
        resolve: bool,
    ) -> SubmitResult {
        if self.fuse_blown() {
            // The "process" is already dead: nothing runs, nothing counts.
            return SubmitResult::Done(TxnOutcome::Interrupted);
        }
        if resolve {
            self.clear_resolved();
            self.enumerate_probes(program);
            self.resolve_ahead();
        }
        // Adaptive placement observes on its window grid at arrival time —
        // before this transaction is priced, so the decision it runs under
        // depends only on prior windows (one branch when disarmed).
        self.placement_tick(arrive);
        self.stats.submitted += 1;
        let txn = self.next_txn;
        self.next_txn += 1;
        self.tel.set_txn(txn);
        self.path_acc.reset();
        // Per-txn energy delta for attribution: mark the ledger total now,
        // subtract at commit. Converted once to integer picojoules at
        // record time so ledger merges stay exact.
        let energy_mark = if self.attrib.is_some() {
            self.platform.energy.total().as_j()
        } else {
            0.0
        };

        // Admit: admission + routing on the dispatcher.
        let fe_cpu = self.sw_work(Category::FrontEnd, 300, 5, AccessClass::Hot);
        let (fe_start, t0) = self.router.submit(arrive, fe_cpu);
        let track = self.tel.dispatch_track();
        self.tel
            .span(track, "dispatch", Category::FrontEnd.label(), fe_start, t0);
        let mut t = t0 + self.sw_work(Category::Xct, 120, 2, AccessClass::Hot);

        let conventional_agent = if self.cfg.exec == ExecModel::Conventional {
            let a = self.rr_next % self.agents.len();
            self.rr_next += 1;
            Some(a)
        } else {
            None
        };

        // Check the scratch buffers out for this transaction — they return
        // to `self.scratch` before every exit path below.
        let mut cx = TxnCtx {
            txn,
            agent: 0,
            undo: std::mem::take(&mut self.scratch.undo),
            wrote: false,
            logged_begin: false,
            abort_on_missing_read: program.abort_on_missing_read,
        };
        let mut written_tables = std::mem::take(&mut self.scratch.written_tables);
        let mut op_marks = std::mem::take(&mut self.scratch.op_marks);
        let mut completions = std::mem::take(&mut self.scratch.completions);
        cx.undo.clear();
        written_tables.clear();
        let mut abort: Option<AbortReason> = None;
        let mut interrupted = false;
        let mut locks_taken = 0u64;

        'phases: for phase in &program.phases {
            completions.clear();
            for action in phase {
                // Route, then hand the action to its agent.
                cx.agent = conventional_agent.unwrap_or_else(|| self.route(action));
                let hand_off = if self.cfg.exec == ExecModel::Dora {
                    self.hand_off_cost(cx.agent, t)
                } else {
                    locks_taken += action.ops.len() as u64;
                    SimTime::ZERO
                };
                // Execute the ops. CPU accumulates serially; asynchronous
                // tails of the ops in one action OVERLAP — the agent issues
                // every offload request of its action before waiting on the
                // rendezvous, exactly the latency-hiding §5 argues for.
                let mut cost = OpCost::default();
                let start_hint = t + hand_off;
                op_marks.clear();
                for op in &action.ops {
                    let cpu_before = cost.cpu;
                    let (c, res) = self.exec_op(&mut cx, op, start_hint);
                    cost.cpu += c.cpu;
                    cost.asy = cost.asy.max(c.asy);
                    if self.tel.enabled() {
                        let (name, cat) = op_span(op);
                        op_marks.push((name, cat, cpu_before, cost.cpu));
                    }
                    if let Err(reason) = res {
                        abort = Some(reason);
                        break;
                    }
                    if let Op::Update { table, .. }
                    | Op::Insert { table, .. }
                    | Op::Delete { table, .. } = op
                    {
                        if !written_tables.contains(table) {
                            written_tables.push(*table);
                        }
                    }
                    // Crash fuse blown by one of this op's log appends: die
                    // here — no further ops, no rollback, no commit.
                    if self.fuse_blown() {
                        interrupted = true;
                        break;
                    }
                }
                // Outer span = the action's agent occupancy; op marks nest
                // inside it at their CPU offsets.
                let agent_done =
                    self.occupy(cx.agent, start_hint, cost.cpu, program.name, Category::Xct);
                if self.tel.enabled() {
                    let track = self.tel.core_track(cx.agent);
                    let astart = agent_done - cost.cpu;
                    for &(name, cat, lo, hi) in &op_marks {
                        self.tel.span(track, name, cat, astart + lo, astart + hi);
                    }
                }
                completions.push(agent_done + cost.asy);
                if abort.is_some() || interrupted {
                    t = completions.iter().copied().max().unwrap_or(t);
                    break 'phases;
                }
            }
            t = completions.iter().copied().max().unwrap_or(t);
            if self.cfg.exec == ExecModel::Dora && phase.len() > 1 {
                // Rendezvous point joins the phase.
                t += self.sw_work(Category::Dora, 60, 1, AccessClass::Hot);
            }
        }

        // Close on the last agent: roll back, vote, or commit.
        let agent = cx.agent;
        let outcome = if interrupted {
            SubmitResult::Done(TxnOutcome::Interrupted)
        } else if let Some(reason) = abort {
            let rb_cpu = self.rollback(txn, &mut cx.undo, agent, t);
            let latency = self.count_abort(agent, t, rb_cpu) - arrive;
            SubmitResult::Done(TxnOutcome::Aborted { reason, latency })
        } else if let Some((gtxn, coord)) = prepare {
            // 2PC phase one: durable Prepare vote instead of commit. Locks
            // stay held until the coordinator's decision.
            let cpu = self.commit_cpu(0);
            let body = cx.wrote.then_some(LogBodyRef::Prepare { gtxn, coord });
            match self.seal(txn, body, agent, t, cpu, "prepare") {
                None => SubmitResult::Done(TxnOutcome::Interrupted),
                Some(done) => {
                    // Written state becomes visible to later branches on
                    // this node only at resolve; invalidate result caches
                    // now so nothing stale is served meanwhile.
                    for t in &written_tables {
                        self.result_cache.bump_table(*t);
                    }
                    self.prepared.insert(
                        txn,
                        PreparedTxn {
                            undo: std::mem::take(&mut cx.undo),
                            agent,
                            locks_taken,
                            wrote: cx.wrote,
                        },
                    );
                    self.stats.last_completion = self.stats.last_completion.max(done);
                    SubmitResult::Prepared {
                        txn,
                        latency: done - arrive,
                    }
                }
            }
        } else {
            let cpu = self.commit_cpu(locks_taken);
            let body = cx.wrote.then_some(LogBodyRef::Commit);
            match self.seal(txn, body, agent, t, cpu, "commit") {
                None => SubmitResult::Done(TxnOutcome::Interrupted),
                Some(done) => {
                    for t in &written_tables {
                        self.result_cache.bump_table(*t);
                    }
                    let latency = self.count_commit(done, arrive);
                    if let Some(attrib) = self.attrib.as_mut() {
                        self.path_acc
                            .charge(SEG_COMMIT, done.saturating_sub(t).as_ps());
                        let delta_j = self.platform.energy.total().as_j() - energy_mark;
                        let pj = (delta_j * 1e12).round().max(0.0) as u64;
                        attrib.record(program.name, latency.as_ps(), pj, &self.path_acc);
                    }
                    SubmitResult::Done(TxnOutcome::Committed { latency })
                }
            }
        };
        self.scratch.undo = cx.undo;
        self.scratch.written_tables = written_tables;
        self.scratch.op_marks = op_marks;
        self.scratch.completions = completions;
        if resolve {
            self.clear_resolved();
        }
        if matches!(outcome, SubmitResult::Done(TxnOutcome::Interrupted)) {
            // A blown fuse ends the run mid-transaction: no merges, no
            // further bookkeeping (the "process" died).
            return outcome;
        }
        self.maybe_merge(t);
        outcome
    }

    /// Execute a batch of transactions, the `i`-th arriving at
    /// `arrive + i × inter`.
    ///
    /// Functionally identical to calling [`Engine::submit`] once per
    /// program — same commits, aborts, log records, and index state. The
    /// difference is probe *pricing*: same-table point probes across the
    /// batch are planned together as one PALM-style
    /// [`bionic_btree::tree::BTree::batch_footprint`] descent (software mode) or
    /// one amortized pass through the probe engine's outstanding-context
    /// pipeline (bionic mode), so each probe is charged its share of the
    /// shared descent instead of a full root-to-leaf walk. §5.3's "complex
    /// measure": batching is how software hides probe latency, and the
    /// comparison point for the FPGA probe engine.
    pub fn submit_batch(
        &mut self,
        programs: &[TxnProgram],
        arrive: SimTime,
        inter: SimTime,
    ) -> Vec<TxnOutcome> {
        let mut out = Vec::with_capacity(programs.len());
        self.submit_batch_with(programs.len(), arrive, inter, |i| &programs[i], &mut out);
        out
    }

    /// [`Engine::submit_batch`] over programs resolved by index — the
    /// allocation-free entry point. `get(i)` hands back the `i`-th program
    /// (typically from a caller-owned pool of reusable programs), and
    /// outcomes land in `out` (cleared first, capacity reused). Pricing and
    /// results are identical to `submit_batch` on the same sequence.
    pub fn submit_batch_with<'p>(
        &mut self,
        n: usize,
        arrive: SimTime,
        inter: SimTime,
        get: impl Fn(usize) -> &'p TxnProgram,
        out: &mut Vec<TxnOutcome>,
    ) {
        out.clear();
        self.plan_batch_with(n, &get, arrive);
        let mut at = arrive;
        for i in 0..n {
            self.scratch.resolved_next = self.scratch.resolved_starts[i];
            let outcome = self.submit_one(get(i), at, false);
            let stop = outcome.is_interrupted();
            out.push(outcome);
            if stop {
                // Crash fuse blew mid-group: the rest of the batch never
                // ran. Callers see a short outcome vector.
                break;
            }
            at += inter;
        }
        // Shares left by aborted tails are dropped: the planner's aggregate
        // is an upper bound once execution diverges from the plan.
        self.batch_plan.clear();
        self.clear_resolved();
    }

    // ---- resolve-ahead probes ---------------------------------------------

    /// Drop every resolved entry. Runs on entry to and exit from `submit` /
    /// `submit_batch_with`, so an entry never outlives the call that made it
    /// — in particular not into a recovered engine, whose rebuilt indexes
    /// restart their versions at 0.
    fn clear_resolved(&mut self) {
        self.scratch.resolved.clear();
        self.scratch.resolved_next = 0;
    }

    /// Append one unresolved entry per planned probe of `program`.
    fn enumerate_probes(&mut self, program: &TxnProgram) {
        for (table, key) in planned_probes(program) {
            let index = &self.tables[table as usize].index;
            self.scratch.resolved.push(Resolved {
                table,
                key,
                version: index.version(),
                cursor: index.cursor(),
                rid: None,
                fp: Footprint::default(),
            });
        }
    }

    /// Descend every enumerated probe in lock-step: all entries move one
    /// tree level per pass, across tables, so consecutive iterations are
    /// independent loads the core overlaps instead of one dependent chain
    /// of misses per key. Then touch each found record's slot entry and
    /// first byte in its resident page, so those misses overlap too instead
    /// of each stalling its op's `record_len`/`get_into` later. Host time
    /// only — nothing here is priced, and [`BufferPool::peek`] leaves the
    /// pool untouched; each entry ends up holding exactly what `index.get`
    /// returns. A lone probe has nothing to overlap with and keeps its live
    /// walk.
    ///
    /// [`BufferPool::peek`]: bionic_storage::bufferpool::BufferPool::peek
    fn resolve_ahead(&mut self) {
        let resolved = &mut self.scratch.resolved;
        if resolved.len() < 2 {
            resolved.clear();
            return;
        }
        let tables = &self.tables;
        let index_of = |e: &Resolved| &tables[e.table as usize].index;
        let levels = resolved.iter().map(|e| index_of(e).height()).max();
        for _ in 1..levels.unwrap_or(1) {
            for e in resolved.iter_mut() {
                // A shorter tree's cursor waits on its leaf (`step` no-ops).
                index_of(e).step(&mut e.cursor, &e.key, &mut e.fp);
            }
        }
        for e in resolved.iter_mut() {
            e.rid = index_of(e).finish(e.cursor, &e.key, &mut e.fp);
        }
        // Independent iterations: the core keeps every record's loads in
        // flight at once. Folding them into one opaque value keeps the
        // loads from being optimized away.
        let mut touched = 0usize;
        for rid in resolved.iter().filter_map(|e| e.rid) {
            let rid = RecordId::from_u64(rid);
            let page = self.pool.peek(rid.page);
            if let Some(rec) = page.and_then(|pg| SlottedPage::read(pg, rid.slot).ok()) {
                touched ^= rec.len() ^ usize::from(rec.first().copied().unwrap_or(0));
            }
        }
        std::hint::black_box(touched);
    }

    /// Build the amortized probe plan for the batch — group planned point
    /// probes by table and price each group's batched descent once — and
    /// resolve the whole batch's probes ahead in one lock-step descent.
    /// Groups live in scratch, kept sorted by table id, so planning matches
    /// the ascending-table order of the original `BTreeMap` without
    /// allocating.
    fn plan_batch_with<'p>(
        &mut self,
        n: usize,
        get: &impl Fn(usize) -> &'p TxnProgram,
        now: SimTime,
    ) {
        self.batch_plan.clear();
        self.clear_resolved();
        self.scratch.resolved_starts.clear();
        for i in 0..n {
            self.scratch
                .resolved_starts
                .push(self.scratch.resolved.len());
            self.enumerate_probes(get(i));
        }
        let mut groups = std::mem::take(&mut self.scratch.plan_groups);
        for g in &mut groups {
            g.1.clear();
        }
        for e in &self.scratch.resolved {
            let g = match groups.binary_search_by_key(&e.table, |g| g.0) {
                Ok(g) => g,
                Err(g) => {
                    groups.insert(g, (e.table, Vec::new()));
                    g
                }
            };
            groups[g].1.push(e.key);
        }
        self.resolve_ahead();
        let mut planned_keys = 0u64;
        for (table, keys) in &mut groups {
            let n = keys.len() as u32;
            if n < 2 {
                continue; // a lone probe has nothing to share with
            }
            planned_keys += n as u64;
            let fp = self.tables[*table as usize].index.batch_footprint(keys);
            self.batch_plan.insert(*table, n, fp);
        }
        self.scratch.plan_groups = groups;
        if planned_keys > 0 {
            // The planner's own work (gather + sort) runs on the dispatcher.
            let ilog = 64 - planned_keys.leading_zeros() as u64;
            let cpu = self.sw_work(
                Category::FrontEnd,
                planned_keys * (8 + 2 * ilog),
                planned_keys / 8,
                AccessClass::Hot,
            );
            self.router.submit(now, cpu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    fn engine() -> Engine {
        let mut e = Engine::new(EngineConfig::software());
        let t = e.create_table("t");
        for k in 0..600 {
            e.load(t, k, &[0u8; 24]);
        }
        e.finish_load();
        e
    }

    fn reads(keys: &[i64], abort_on_missing_read: bool) -> TxnProgram {
        let ops = keys.iter().map(|&key| Op::Read { table: 0, key }).collect();
        TxnProgram {
            abort_on_missing_read,
            ..TxnProgram::single_phase("reads", vec![Action::new(0, keys[0], ops)])
        }
    }

    /// Resolved entries never outlive the call that made them — whether it
    /// commits, aborts before consuming them all, or dies on the fuse — so
    /// nothing stale can meet a later call (or a rebuilt index whose
    /// versions restarted).
    #[test]
    fn no_resolved_entry_survives_its_call() {
        let mut e = engine();
        let insert = |key| {
            let record = vec![0u8; 24];
            let ops = vec![
                Op::Read { table: 0, key: 1 },
                Op::Insert {
                    table: 0,
                    key,
                    record,
                },
                Op::Read { table: 0, key: 2 },
            ];
            TxnProgram::single_phase("insert", vec![Action::new(0, 1, ops)])
        };
        assert!(e
            .submit(&reads(&[1, 2, 3], true), SimTime::ZERO)
            .is_committed());
        assert!(e.scratch.resolved.is_empty());
        assert!(!e
            .submit(&reads(&[1, 7777, 3], true), SimTime::ZERO)
            .is_committed());
        assert!(e.scratch.resolved.is_empty());
        let batch = [
            reads(&[4, 5], false),
            reads(&[6, 7777, 8], true),
            insert(9000),
        ];
        assert_eq!(
            e.submit_batch(&batch, SimTime::ZERO, SimTime::ZERO).len(),
            3
        );
        assert!(e.scratch.resolved.is_empty());
        assert!(e.batch_plan.shares.iter().all(Option::is_none));
        e.crash_at(2); // Begin, then the insert's record
        let cut = e.submit_batch(
            &[reads(&[1, 2], false), insert(9001)],
            SimTime::ZERO,
            SimTime::ZERO,
        );
        assert!(cut[1].is_interrupted());
        assert!(e.scratch.resolved.is_empty());
    }

    /// A lone probe has nothing to overlap with and is not resolved ahead;
    /// two or more end up holding what the live walk returns.
    #[test]
    fn fewer_than_two_probes_resolve_nothing() {
        let mut e = engine();
        e.enumerate_probes(&reads(&[5], false));
        e.resolve_ahead();
        assert!(e.scratch.resolved.is_empty());
        e.enumerate_probes(&reads(&[5, 300], false));
        e.resolve_ahead();
        let index = &e.tables[0].index;
        for r in &e.scratch.resolved {
            assert_eq!((r.rid, r.fp), index.get(&r.key));
            assert_eq!(r.version, index.version());
        }
        assert_eq!(e.scratch.resolved.len(), 2);
    }
}
