//! Log-insertion timing models — software vs. hardware (§5.4).
//!
//! Three ways to get a record into the log buffer:
//!
//! * [`LatchedLog`] — the textbook serial log: one latch protects the tail;
//!   every insert acquires it, bumps the LSN, copies its payload. Crossing
//!   sockets drags the latch cache line along (the "\[7\] multi-socket open
//!   challenge").
//! * [`ConsolidatedLog`] — Aether-style consolidation \[7\]: threads that
//!   arrive while the buffer is busy *join* the in-flight group and ride its
//!   single latch acquisition, so the latch cost amortizes under load.
//! * [`HwLog`] — the paper's proposal: per-socket aggregation buffers with
//!   an asynchronous interface ("requests from the same socket can be
//!   aggregated before passing them on"), a PCIe hop, and a pipelined
//!   hardware arbiter whose "hardware-level arbitration is significantly
//!   simpler to reason about than a typical lock-free data structure".
//!
//! Each model answers: when is the record ordered in the buffer, how long
//! was the inserting core busy, and what energy was spent. Durability is a
//! separate, shared concern — [`GroupCommit`] batches flushes to the SSD.

use bionic_sim::dev::BlockDevice;
use bionic_sim::energy::Energy;
use bionic_sim::fpga::{FpgaFabric, FpgaUnit, OutOfArea};
use bionic_sim::link::Link;
use bionic_sim::server::FluidQueue;
use bionic_sim::time::{Rate, SimTime};

/// Outcome of one log-insert through a timing model.
#[derive(Debug, Clone, Copy)]
pub struct InsertTiming {
    /// When the record is ordered in the log buffer (eligible for flush).
    pub buffered_at: SimTime,
    /// How long the inserting core was occupied (spin + copy, or enqueue).
    pub cpu_busy: SimTime,
    /// Energy spent outside the inserting core (fabric, PCIe). CPU energy
    /// is derived from `cpu_busy` by the caller's CPU model.
    pub energy: Energy,
}

/// A log-insertion timing model.
pub trait LogInsertModel {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Insert `bytes` of log payload from `agent` at time `arrive`.
    fn insert(&mut self, arrive: SimTime, agent: usize, bytes: u64) -> InsertTiming;
}

/// Shared software-side constants.
#[derive(Debug, Clone, Copy)]
pub struct SwLogParams {
    /// Latch acquire+release plus LSN arithmetic.
    pub latch_overhead: SimTime,
    /// Memory-copy bandwidth into the log buffer.
    pub copy_bytes_per_sec: f64,
    /// Latch cache-line transfer cost when ownership crosses sockets.
    pub socket_hop: SimTime,
    /// Cores per socket (maps agent index → socket).
    pub cores_per_socket: usize,
    /// Spin bound: past this, the thread blocks instead of spinning. The
    /// wait still delays `buffered_at` (and thus commit latency) but no
    /// longer burns the core.
    pub spin_cap: SimTime,
}

impl Default for SwLogParams {
    fn default() -> Self {
        SwLogParams {
            latch_overhead: SimTime::from_ns(60.0),
            copy_bytes_per_sec: 10e9,
            socket_hop: SimTime::from_ns(120.0),
            cores_per_socket: 8,
            spin_cap: SimTime::from_us(5.0),
        }
    }
}

impl SwLogParams {
    fn socket_of(&self, agent: usize) -> usize {
        agent / self.cores_per_socket
    }
}

/// The latch-serialized software log buffer.
///
/// Contention is modeled with a [`FluidQueue`] (windowed utilization), so
/// the engine's functional-order submissions don't fabricate backlog; the
/// latch still saturates at `1/service` inserts per second.
#[derive(Debug, Clone)]
pub struct LatchedLog {
    params: SwLogParams,
    copy: Rate,
    latch: FluidQueue,
    last_socket: Option<usize>,
}

impl LatchedLog {
    /// Create with the given parameters.
    pub fn new(params: SwLogParams) -> Self {
        LatchedLog {
            params,
            copy: Rate::per_sec(params.copy_bytes_per_sec),
            latch: FluidQueue::latch(),
            last_socket: None,
        }
    }
}

impl LogInsertModel for LatchedLog {
    fn name(&self) -> &'static str {
        "latched"
    }

    fn insert(&mut self, arrive: SimTime, agent: usize, bytes: u64) -> InsertTiming {
        let socket = self.params.socket_of(agent);
        let hop = if self.last_socket.is_some_and(|s| s != socket) {
            self.params.socket_hop
        } else {
            SimTime::ZERO
        };
        self.last_socket = Some(socket);
        let service = self.params.latch_overhead + hop + self.copy.time(bytes);
        let wait = self.latch.delay(arrive, service);
        InsertTiming {
            buffered_at: arrive + wait + service,
            // The core spins through the wait up to the spin bound (past
            // which it blocks), then holds the latch for its own copy.
            cpu_busy: wait.min(self.params.spin_cap) + service,
            energy: Energy::ZERO,
        }
    }
}

/// The consolidation-array software log buffer (\[7\]).
///
/// Under load, threads that arrive while the buffer is busy *join* the
/// in-flight group and ride its single latch acquisition. Modeled on a
/// [`FluidQueue`]: the probability of being a group **leader** (paying the
/// full latch) falls with utilization, so the amortized latch cost — the
/// whole point of consolidation — emerges from the same load signal that
/// drives queueing.
#[derive(Debug, Clone)]
pub struct ConsolidatedLog {
    params: SwLogParams,
    copy: Rate,
    buffer: FluidQueue,
    last_socket: Option<usize>,
    groups: f64,
    joins: f64,
}

impl ConsolidatedLog {
    /// Create with the given parameters.
    pub fn new(params: SwLogParams) -> Self {
        ConsolidatedLog {
            params,
            copy: Rate::per_sec(params.copy_bytes_per_sec),
            buffer: FluidQueue::latch(),
            last_socket: None,
            groups: 0.0,
            joins: 0.0,
        }
    }

    /// `(groups_formed, joins)` — joins rode an existing acquisition.
    pub fn consolidation_stats(&self) -> (u64, u64) {
        (self.groups.round() as u64, self.joins.round() as u64)
    }
}

impl LogInsertModel for ConsolidatedLog {
    fn name(&self) -> &'static str {
        "consolidated"
    }

    fn insert(&mut self, arrive: SimTime, agent: usize, bytes: u64) -> InsertTiming {
        let socket = self.params.socket_of(agent);
        let copy = self.copy.time(bytes);
        // Leader probability: an idle buffer makes every arrival a leader;
        // a saturated one absorbs almost everyone into in-flight groups.
        let leader_p = (1.0 - self.buffer.utilization(arrive)).clamp(0.02, 1.0);
        self.groups += leader_p;
        self.joins += 1.0 - leader_p;
        let hop = if self.last_socket.is_some_and(|s| s != socket) {
            self.params.socket_hop
        } else {
            SimTime::ZERO
        };
        self.last_socket = Some(socket);
        let service = copy + (self.params.latch_overhead + hop) * leader_p;
        let wait = self.buffer.delay(arrive, service);
        InsertTiming {
            buffered_at: arrive + wait + service,
            cpu_busy: wait.min(self.params.spin_cap) + service,
            energy: Energy::ZERO,
        }
    }
}

/// Configuration of the hardware log-insertion engine.
#[derive(Debug, Clone)]
pub struct HwLogConfig {
    /// Aggregation window per socket: requests within a window share one
    /// PCIe message.
    pub window: SimTime,
    /// Cost of the (latch-free, socket-local) enqueue on the CPU side.
    pub enqueue_cost: SimTime,
    /// PCIe message header bytes per aggregated batch.
    pub header_bytes: u64,
    /// Fabric cycles to arbitrate/sequence one record.
    pub cycles_per_record: u64,
    /// Fabric energy per record.
    pub energy_per_record: Energy,
    /// Fabric area of the unit.
    pub area_slices: u64,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Socket count.
    pub sockets: usize,
}

impl Default for HwLogConfig {
    fn default() -> Self {
        HwLogConfig {
            window: SimTime::from_ns(500.0),
            enqueue_cost: SimTime::from_ns(25.0),
            header_bytes: 64,
            cycles_per_record: 2,
            energy_per_record: Energy::from_pj(100.0),
            area_slices: 6_000,
            cores_per_socket: 8,
            sockets: 2,
        }
    }
}

/// The hardware log-insertion engine (§5.4).
#[derive(Debug, Clone)]
pub struct HwLog {
    cfg: HwLogConfig,
    /// Last aggregation window flushed per socket (for header accounting).
    last_window: Vec<u64>,
    /// Dedicated PCIe share for log traffic.
    pcie: Link,
    arbiter: FpgaUnit,
    records: u64,
    batches: u64,
}

impl HwLog {
    /// Place the engine on a fabric with a dedicated PCIe link model.
    pub fn place(fabric: &mut FpgaFabric, pcie: Link, cfg: HwLogConfig) -> Result<Self, OutOfArea> {
        let arbiter = fabric.place(
            "log-insert",
            cfg.cycles_per_record,
            64,
            cfg.energy_per_record,
            cfg.area_slices,
        )?;
        Ok(HwLog {
            last_window: vec![u64::MAX; cfg.sockets],
            pcie,
            arbiter,
            cfg,
            records: 0,
            batches: 0,
        })
    }

    /// Place with default config and an HC-2 PCIe link.
    pub fn hc2(fabric: &mut FpgaFabric) -> Result<Self, OutOfArea> {
        let pcie = Link::new(4e9, SimTime::from_us(1.0), Energy::from_pj(10.0));
        Self::place(fabric, pcie, HwLogConfig::default())
    }

    /// `(records, pcie_batches)` — aggregation effectiveness.
    pub fn aggregation_stats(&self) -> (u64, u64) {
        (self.records, self.batches)
    }
}

impl LogInsertModel for HwLog {
    fn name(&self) -> &'static str {
        "hardware"
    }

    fn insert(&mut self, arrive: SimTime, agent: usize, bytes: u64) -> InsertTiming {
        let socket = (agent / self.cfg.cores_per_socket).min(self.cfg.sockets - 1);
        // Socket-local enqueue into a per-core slot of the aggregation
        // buffer: a handful of stores, no shared latch — this constant cost
        // IS the §5.4 win on the CPU side.
        let enqueued = arrive + self.cfg.enqueue_cost;
        let cpu_busy = self.cfg.enqueue_cost;
        // The record ships at the end of its aggregation window.
        let w = self.cfg.window.as_ps().max(1);
        let window_idx = enqueued.as_ps() / w;
        let ship_at = SimTime::from_ps((window_idx + 1) * w);
        let header = if self.last_window[socket] != window_idx {
            self.last_window[socket] = window_idx;
            self.batches += 1;
            self.cfg.header_bytes
        } else {
            0
        };
        let (pcie_done, pcie_energy) = self.pcie.transfer_unqueued(ship_at, header + bytes);
        let (buffered_at, fabric_energy) = self.arbiter.submit(pcie_done);
        self.records += 1;
        InsertTiming {
            buffered_at,
            cpu_busy,
            energy: pcie_energy + fabric_energy,
        }
    }
}

/// Group commit: batches durability flushes to the log SSD.
///
/// All three insertion models share this path — Figure 4 keeps "log files"
/// on the host SSD and "log sync & recovery" in software regardless of how
/// insertion is implemented.
#[derive(Debug, Clone)]
pub struct GroupCommit {
    interval: SimTime,
    ssd: BlockDevice,
    offset: u64,
    flushes: u64,
    last_boundary: Option<SimTime>,
    last_done: SimTime,
    per_byte: Energy,
}

impl GroupCommit {
    /// Group commit with the given flush interval over `ssd`.
    pub fn new(interval: SimTime, ssd: BlockDevice) -> Self {
        GroupCommit {
            interval,
            ssd,
            offset: 0,
            flushes: 0,
            last_boundary: None,
            last_done: SimTime::ZERO,
            per_byte: Energy::from_nj(0.5),
        }
    }

    /// Default: 20 µs boundaries over an HC-2 SSD.
    pub fn hc2() -> Self {
        Self::new(SimTime::from_us(20.0), BlockDevice::ssd())
    }

    /// When does a record buffered at `buffered_at` become durable, and what
    /// energy does its share of the flush cost? Commits landing on the same
    /// boundary ride ONE device write — that is the whole point of group
    /// commit — so followers pay only their per-byte share.
    pub fn durable_at(&mut self, buffered_at: SimTime, bytes: u64) -> (SimTime, Energy) {
        let w = self.interval.as_ps().max(1);
        let boundary = SimTime::from_ps(buffered_at.as_ps().div_ceil(w) * w);
        if self.last_boundary == Some(boundary) {
            self.offset += bytes;
            return (self.last_done, self.per_byte * bytes);
        }
        let (done, energy) = self.ssd.write(boundary, self.offset, bytes);
        self.offset += bytes;
        self.flushes += 1;
        self.last_boundary = Some(boundary);
        self.last_done = done;
        (done, energy)
    }

    /// Flushes issued.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `model` with `threads` agents in a closed loop for `n` total
    /// inserts of `bytes` each, `think` apart; return inserts/sec.
    fn closed_loop_throughput(
        model: &mut dyn LogInsertModel,
        threads: usize,
        n: u64,
        bytes: u64,
        think: SimTime,
    ) -> f64 {
        let mut clocks = vec![SimTime::ZERO; threads];
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let t = (i % threads as u64) as usize;
            let out = model.insert(clocks[t] + think, t, bytes);
            clocks[t] = clocks[t] + think + out.cpu_busy;
            last = last.max(out.buffered_at);
        }
        n as f64 / last.as_secs()
    }

    #[test]
    fn latched_log_serializes() {
        let mut l = LatchedLog::new(SwLogParams::default());
        let a = l.insert(SimTime::ZERO, 0, 100);
        let b = l.insert(SimTime::ZERO, 1, 100);
        assert!(b.buffered_at > a.buffered_at);
        // Thread 1 spun waiting for the latch.
        assert!(b.cpu_busy > a.cpu_busy);
    }

    #[test]
    fn cross_socket_inserts_pay_the_hop() {
        let params = SwLogParams::default();
        let mut same = LatchedLog::new(params);
        same.insert(SimTime::ZERO, 0, 100);
        let s = same.insert(SimTime::from_us(1.0), 1, 100); // same socket
        let mut cross = LatchedLog::new(params);
        cross.insert(SimTime::ZERO, 0, 100);
        let c = cross.insert(SimTime::from_us(1.0), 8, 100); // other socket
        let delta = c.cpu_busy.as_ns() - s.cpu_busy.as_ns();
        // 120ns hop plus a few ns of modeled queueing difference.
        assert!((delta - 120.0).abs() < 15.0, "delta={delta}");
    }

    #[test]
    fn consolidation_amortizes_the_latch() {
        // Under heavy contention the consolidated buffer approaches pure
        // copy bandwidth while the latched one pays the latch per record.
        let params = SwLogParams::default();
        let bytes = 100u64;
        let mut latched = LatchedLog::new(params);
        let mut consolidated = ConsolidatedLog::new(params);
        let tp_latched =
            closed_loop_throughput(&mut latched, 16, 20_000, bytes, SimTime::from_ns(50.0));
        let tp_cons =
            closed_loop_throughput(&mut consolidated, 16, 20_000, bytes, SimTime::from_ns(50.0));
        assert!(
            tp_cons > 2.0 * tp_latched,
            "consolidated={tp_cons:.0}/s latched={tp_latched:.0}/s"
        );
        let (groups, joins) = consolidated.consolidation_stats();
        assert!(joins > groups, "groups={groups} joins={joins}");
    }

    #[test]
    fn hardware_log_scales_past_software() {
        // E5's headline: at high thread counts the hardware engine beats
        // both software schemes on insert throughput.
        let bytes = 100u64;
        let think = SimTime::from_ns(50.0);
        let mut fabric = FpgaFabric::hc2();
        let mut hw = HwLog::hc2(&mut fabric).unwrap();
        let mut latched = LatchedLog::new(SwLogParams::default());
        let tp_hw = closed_loop_throughput(&mut hw, 32, 20_000, bytes, think);
        let tp_latched = closed_loop_throughput(&mut latched, 32, 20_000, bytes, think);
        assert!(
            tp_hw > 3.0 * tp_latched,
            "hw={tp_hw:.0}/s latched={tp_latched:.0}/s"
        );
    }

    #[test]
    fn hardware_inserts_are_asynchronous_but_not_faster_per_record() {
        // §3: "throughput will improve, even if individual requests take
        // just as long to complete." A single hw insert has *higher* latency
        // (window + 1us PCIe) but occupies the core for only ~25ns.
        let mut fabric = FpgaFabric::hc2();
        let mut hw = HwLog::hc2(&mut fabric).unwrap();
        let out = hw.insert(SimTime::ZERO, 0, 100);
        assert!(out.cpu_busy.as_ns() < 30.0);
        assert!(out.buffered_at.as_us() > 1.0, "at={}", out.buffered_at);

        let mut sw = LatchedLog::new(SwLogParams::default());
        let sw_out = sw.insert(SimTime::ZERO, 0, 100);
        assert!(sw_out.buffered_at < out.buffered_at);
        assert!(sw_out.cpu_busy > out.cpu_busy);
    }

    #[test]
    fn aggregation_shares_pcie_headers() {
        let mut fabric = FpgaFabric::hc2();
        let mut hw = HwLog::hc2(&mut fabric).unwrap();
        // 100 inserts inside one 500ns window from one socket: one batch.
        for i in 0..10 {
            hw.insert(SimTime::from_ns(i as f64 * 10.0), 0, 50);
        }
        let (records, batches) = hw.aggregation_stats();
        assert_eq!(records, 10);
        assert!(batches <= 2, "batches={batches}");
    }

    #[test]
    fn group_commit_batches_to_boundaries() {
        let mut gc = GroupCommit::hc2();
        let (d1, _) = gc.durable_at(SimTime::from_us(3.0), 500);
        // Buffered at 3us -> boundary 20us -> +20us SSD access.
        assert!(d1.as_us() >= 40.0 - 1e-6, "d1={d1}");
        let (d2, _) = gc.durable_at(SimTime::from_us(19.0), 500);
        assert!(d2 >= d1);
    }
}
