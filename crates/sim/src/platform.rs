//! The assembled platform of Figure 2.
//!
//! [`Platform`] bundles every modeled path (host CPU and caches, FPGA
//! fabric with SG-DRAM, the PCIe bridge, and both storage devices) behind
//! one value the engine threads through its event loop. `Platform::hc2()`
//! is the Convey HC-2-class preset whose numbers come off the figure:
//!
//! ```text
//!   CPU  ── DDR3 DRAM   20 GB/s / 400 ns   (modeled via cache hierarchy)
//!    │
//!   PCIe  8x            4 GB/s  / 2 µs round trip
//!    │
//!   FPGA ── SG-DRAM     80 GB/s / 400 ns   (random 64-bit requests)
//!    ├── 2× SAS         12 Gb/s / 5 ms     (database files)
//!   CPU ─── SSD         500 MB/s / 20 µs   (log files)
//! ```

use crate::arbiter::{BwClient, SharedBandwidth};
use crate::cpu::CpuModel;
use crate::dev::BlockDevice;
use crate::energy::{Energy, EnergyDomain, EnergyMeter};
use crate::fpga::FpgaFabric;
use crate::link::Link;
use crate::mem::{AccessClass, CacheHierarchy, SgDram};
use crate::time::SimTime;

/// Static platform parameters that don't fit a single component.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// CPU sockets on the host (log-scalability experiments sweep this).
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// One-way latency of a cache line crossing sockets — the cost that
    /// makes multi-socket logging "an open challenge" \[7\].
    pub socket_hop: SimTime,
    /// Seed for the deterministic memory models.
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            sockets: 2,
            cores_per_socket: 8,
            socket_hop: SimTime::from_ns(120.0),
            seed: 0xB10_01C,
        }
    }
}

/// The full modeled machine.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Static parameters.
    pub cfg: PlatformConfig,
    /// Host core cost model.
    pub cpu: CpuModel,
    /// Host cache hierarchy.
    pub cpu_mem: CacheHierarchy,
    /// FPGA-side scatter-gather memory.
    pub sg_dram: SgDram,
    /// Host↔FPGA bridge.
    pub pcie: Link,
    /// SAS array holding database files (FPGA side).
    pub sas: BlockDevice,
    /// Host SSD holding log files.
    pub ssd: BlockDevice,
    /// Reconfigurable fabric (area budget + clock).
    pub fabric: FpgaFabric,
    /// Energy accounting for every domain.
    pub energy: EnergyMeter,
    /// Opt-in shared-bandwidth arbitration between the transaction engine
    /// and concurrent analytics. `None` (the default) preserves the
    /// independent per-caller pricing every single-workload experiment
    /// uses; the hybrid driver enables it so both sides observe each
    /// other's queueing delay on SG-DRAM and the PCIe bridge.
    pub contention: Option<Contention>,
}

/// The contended shared paths of the hybrid engine: one arbiter for
/// SG-DRAM, one for the CPU↔FPGA link, both keyed by [`BwClient`].
#[derive(Debug, Clone)]
pub struct Contention {
    /// SG-DRAM bandwidth arbiter (80 GB/s on the HC-2 preset).
    pub sg: SharedBandwidth,
    /// PCIe bridge bandwidth arbiter (4 GB/s on the HC-2 preset).
    pub link: SharedBandwidth,
}

impl Contention {
    /// Arbitration window for both paths: long enough that a window holds
    /// meaningful traffic (400 KB of SG-DRAM, 20 KB of PCIe), short enough
    /// that cross-client delay stays below transaction latencies.
    pub const WINDOW: SimTime = SimTime::from_ps(5_000_000); // 5 us

    /// Equal-weight OLTP/OLAP arbitration over the HC-2 paths.
    pub fn hc2() -> Self {
        Contention {
            sg: SharedBandwidth::two_client(80e9, Self::WINDOW),
            link: SharedBandwidth::two_client(4e9, Self::WINDOW),
        }
    }
}

impl Platform {
    /// The Convey HC-2-class platform of Figure 2, with default config.
    pub fn hc2() -> Self {
        Self::hc2_with(PlatformConfig::default())
    }

    /// The HC-2 preset with explicit config (socket counts, seed).
    pub fn hc2_with(cfg: PlatformConfig) -> Self {
        let seed = cfg.seed;
        Platform {
            cfg,
            cpu: CpuModel::xeon_oltp(),
            cpu_mem: CacheHierarchy::xeon_oltp(seed),
            sg_dram: SgDram::hc2(),
            pcie: Link::new(4e9, SimTime::from_us(1.0), Energy::from_pj(10.0)),
            sas: BlockDevice::sas_array(),
            ssd: BlockDevice::ssd(),
            fabric: FpgaFabric::hc2(),
            energy: EnergyMeter::new(),
            contention: None,
        }
    }

    /// Turn on shared-bandwidth arbitration (equal OLTP/OLAP weights).
    /// Idempotent: an already-enabled platform keeps its ledgers.
    pub fn enable_contention(&mut self) {
        if self.contention.is_none() {
            self.contention = Some(Contention::hc2());
        }
    }

    /// Arbitration delay for `bytes` of SG-DRAM traffic by `client`
    /// arriving at `arrive`. Zero when contention is disabled — every
    /// pre-hybrid call site prices exactly as before.
    pub fn sg_contention_delay(
        &mut self,
        client: BwClient,
        arrive: SimTime,
        bytes: u64,
    ) -> SimTime {
        match &mut self.contention {
            Some(c) => c.sg.request(client.index(), arrive, bytes).queued,
            None => SimTime::ZERO,
        }
    }

    /// Arbitration delay for `bytes` crossing the CPU↔FPGA link by
    /// `client` at `arrive`. Zero when contention is disabled.
    pub fn link_contention_delay(
        &mut self,
        client: BwClient,
        arrive: SimTime,
        bytes: u64,
    ) -> SimTime {
        match &mut self.contention {
            Some(c) => c.link.request(client.index(), arrive, bytes).queued,
            None => SimTime::ZERO,
        }
    }

    /// Charge CPU compute: `instructions` of straight-line work. Returns the
    /// time taken; energy goes to the meter.
    pub fn cpu_compute(&mut self, instructions: u64) -> SimTime {
        let (t, e) = self.cpu.compute(instructions);
        self.energy.charge(EnergyDomain::CpuCore, e);
        t
    }

    /// Charge `n` host memory accesses of a class. Returns total stall time;
    /// energy goes to the meter (split cache vs DRAM is folded into Cache/
    /// Dram domains by level).
    pub fn cpu_mem_access(&mut self, class: AccessClass, n: u64) -> SimTime {
        self.cpu_mem.access_run(class, n, &mut self.energy)
    }

    /// A convenience bundle: straight-line software step of `instructions`
    /// instructions and `mem_accesses` accesses of `class`. Returns elapsed
    /// core time (compute + stalls).
    pub fn sw_step(&mut self, instructions: u64, mem_accesses: u64, class: AccessClass) -> SimTime {
        self.cpu_compute(instructions) + self.cpu_mem_access(class, mem_accesses)
    }

    /// One SG-DRAM access arriving at `arrive`; completion time returned,
    /// energy metered.
    pub fn sg_access(&mut self, arrive: SimTime) -> SimTime {
        let (done, e) = self.sg_dram.access(arrive);
        self.energy.charge(EnergyDomain::SgDram, e);
        done
    }

    /// Bulk transfer over PCIe (FIFO bandwidth contention); completion
    /// returned, energy metered.
    pub fn pcie_transfer(&mut self, arrive: SimTime, bytes: u64) -> SimTime {
        let (done, e) = self.pcie.transfer(arrive, bytes);
        self.energy.charge(EnergyDomain::Pcie, e);
        done
    }

    /// Small control message over PCIe (latency-only, full-duplex);
    /// completion returned, energy metered.
    pub fn pcie_send(&mut self, arrive: SimTime, bytes: u64) -> SimTime {
        let (done, e) = self.pcie.transfer_unqueued(arrive, bytes);
        self.energy.charge(EnergyDomain::Pcie, e);
        done
    }

    /// A request/response offload call over PCIe (§5's universal shape).
    pub fn pcie_exchange(
        &mut self,
        arrive: SimTime,
        req_bytes: u64,
        remote_service: SimTime,
        resp_bytes: u64,
    ) -> SimTime {
        let (done, e) =
            self.pcie
                .round_trip_exchange(arrive, req_bytes, remote_service, resp_bytes);
        self.energy.charge(EnergyDomain::Pcie, e);
        done
    }

    /// Read from the SAS array (database files).
    pub fn sas_read(&mut self, arrive: SimTime, offset: u64, bytes: u64) -> SimTime {
        let (done, e) = self.sas.read(arrive, offset, bytes);
        self.energy.charge(EnergyDomain::Storage, e);
        done
    }

    /// Write to the SAS array (database files).
    pub fn sas_write(&mut self, arrive: SimTime, offset: u64, bytes: u64) -> SimTime {
        let (done, e) = self.sas.write(arrive, offset, bytes);
        self.energy.charge(EnergyDomain::Storage, e);
        done
    }

    /// Write to the host SSD (log files); returns durable time.
    pub fn ssd_write(&mut self, arrive: SimTime, offset: u64, bytes: u64) -> SimTime {
        let (done, e) = self.ssd.write(arrive, offset, bytes);
        self.energy.charge(EnergyDomain::Storage, e);
        done
    }

    /// Charge energy to an FPGA unit's operations (units live in domain
    /// crates; they report energy here).
    pub fn charge_fpga(&mut self, e: Energy) {
        self.energy.charge(EnergyDomain::Fpga, e);
    }

    /// Total host cores.
    pub fn total_cores(&self) -> usize {
        self.cfg.sockets * self.cfg.cores_per_socket
    }

    /// Snapshot of the platform's activity counters, in a plain struct so
    /// observability layers above `bionic-sim` can export them without
    /// reaching into each component.
    pub fn counters(&self) -> PlatformCounters {
        PlatformCounters {
            pcie_bytes: self.pcie.bytes_moved(),
            pcie_transfers: self.pcie.transfers(),
            pcie_busy: self.pcie.busy_time(),
            sg_dram_accesses: self.sg_dram.accesses(),
            cpu_mem_accesses: AccessClass::ALL
                .map(|c| self.cpu_mem.hit_counts(c).iter().sum::<u64>()),
            fabric_used_slices: self.fabric.total_slices() - self.fabric.free_slices(),
            fabric_total_slices: self.fabric.total_slices(),
        }
    }
}

/// Activity counters of every modeled path, as captured by
/// [`Platform::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformCounters {
    /// Payload bytes moved over PCIe.
    pub pcie_bytes: u64,
    /// PCIe transfers (bulk + control).
    pub pcie_transfers: u64,
    /// Accumulated PCIe wire-busy time (clock-out only, no propagation).
    pub pcie_busy: SimTime,
    /// SG-DRAM requests served.
    pub sg_dram_accesses: u64,
    /// Host cache-hierarchy accesses, per [`AccessClass::ALL`] order.
    pub cpu_mem_accesses: [u64; 4],
    /// Fabric slices consumed by placed units.
    pub fabric_used_slices: u64,
    /// Fabric slice budget.
    pub fabric_total_slices: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hc2_preset_matches_figure2_numbers() {
        let p = Platform::hc2();
        assert_eq!(p.pcie.round_trip().as_us(), 2.0);
        assert_eq!(p.sg_dram.latency().as_ns(), 400.0);
        assert_eq!(p.sas.seek_time().as_ms(), 5.0);
        assert_eq!(p.ssd.seek_time().as_us(), 20.0);
        assert_eq!(p.fabric.clock_period().as_ns(), 5.0);
        assert_eq!(p.total_cores(), 16);
    }

    #[test]
    fn sw_step_charges_compute_and_stalls() {
        let mut p = Platform::hc2();
        let t = p.sw_step(100, 10, AccessClass::PointerChase);
        // 100 instructions = 40ns; 10 pointer chases >= 10 * min latency.
        assert!(t.as_ns() > 40.0);
        assert!(p.energy.domain(EnergyDomain::CpuCore).as_nj() > 99.0);
        assert!(p.energy.total() > Energy::ZERO);
    }

    #[test]
    fn offload_exchange_pays_two_microseconds() {
        let mut p = Platform::hc2();
        let done = p.pcie_exchange(SimTime::ZERO, 64, SimTime::from_ns(100.0), 64);
        assert!(done.as_us() > 2.0 && done.as_us() < 2.3, "done={done}");
        assert!(p.energy.domain(EnergyDomain::Pcie) > Energy::ZERO);
    }

    #[test]
    fn energy_domains_are_separated() {
        let mut p = Platform::hc2();
        p.sg_access(SimTime::ZERO);
        p.ssd_write(SimTime::ZERO, 0, 4096);
        p.charge_fpga(Energy::from_nj(1.0));
        assert!(p.energy.domain(EnergyDomain::SgDram) > Energy::ZERO);
        assert!(p.energy.domain(EnergyDomain::Storage) > Energy::ZERO);
        assert!(p.energy.domain(EnergyDomain::Fpga) > Energy::ZERO);
        assert_eq!(p.energy.domain(EnergyDomain::CpuCore), Energy::ZERO);
    }

    #[test]
    fn counters_snapshot_tracks_activity() {
        let mut p = Platform::hc2();
        assert_eq!(p.counters().pcie_transfers, 0);
        p.pcie_send(SimTime::ZERO, 64);
        p.sg_access(SimTime::ZERO);
        p.cpu_mem_access(AccessClass::Index, 3);
        let c = p.counters();
        assert_eq!(c.pcie_transfers, 1);
        assert_eq!(c.pcie_bytes, 64);
        assert_eq!(c.sg_dram_accesses, 1);
        assert_eq!(c.cpu_mem_accesses[1], 3, "Index is ALL[1]");
        assert_eq!(c.fabric_total_slices, 150_000);
    }

    #[test]
    fn clone_gives_independent_worlds() {
        let mut a = Platform::hc2();
        let mut b = a.clone();
        a.cpu_compute(1_000);
        assert_eq!(b.energy.total(), Energy::ZERO);
        // Deterministic: same ops on clones give same results.
        let ta = a.cpu_mem_access(AccessClass::Index, 100);
        b.cpu_compute(1_000);
        let tb = b.cpu_mem_access(AccessClass::Index, 100);
        assert_eq!(ta, tb);
    }
}
