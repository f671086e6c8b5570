//! # bionic-sim — the modeled hardware platform
//!
//! Discrete-event models of the CPU/FPGA platform from *"The bionic DBMS is
//! coming, but what will it look like?"* (Johnson & Pandis, CIDR 2013),
//! Figure 2: a Convey HC-2-class machine pairing a Xeon host with an FPGA
//! that has its own scatter-gather DRAM, bridged by PCIe.
//!
//! The crate provides:
//!
//! * [`time::SimTime`] — picosecond-resolution simulated time;
//! * [`server`] — analytic FIFO servers and pipelined units;
//! * [`arbiter::SharedBandwidth`] — weighted arbitration of one path
//!   between contending clients (the hybrid-engine contention model);
//! * [`link::Link`] — bandwidth/latency paths (PCIe);
//! * [`mem`] — the host cache hierarchy and the FPGA's SG-DRAM;
//! * [`cpu::CpuModel`] / [`fpga`] — compute cost models for both sides;
//! * [`dev::BlockDevice`] — SAS array and SSD;
//! * [`energy`] — joules/op accounting (§2: "performance is measured in
//!   joules/operation in the dark silicon regime");
//! * [`darksilicon`] — the Amdahl/Hill-Marty/power-envelope analytics behind
//!   Figure 1;
//! * [`fault`] — deterministic hardware-fault injection (stall, transient
//!   CRC, SG-DRAM ECC), watchdog/retry policy, and the per-unit circuit
//!   breaker behind degraded-mode operation;
//! * [`platform::Platform`] — everything assembled, with an `hc2()` preset.
//!
//! Nothing here knows about databases; the DBMS crates charge their work to
//! these models and the models decide when it completes and what it costs.

#![deny(missing_docs)]

pub mod arbiter;
pub mod cpu;
pub mod darksilicon;
pub mod dev;
pub mod energy;
pub mod fault;
pub mod fpga;
pub mod link;
pub mod mem;
pub mod platform;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use energy::{Energy, EnergyDomain, EnergyMeter};
pub use platform::{Platform, PlatformConfig};
pub use time::SimTime;
