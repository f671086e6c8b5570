//! Bandwidth/latency links: the PCIe bus and other point-to-point paths.
//!
//! Figure 2 labels every path with `bandwidth / latency`; a [`Link`] models
//! exactly that pair, serializing transfers FIFO at the bandwidth limit and
//! adding the propagation latency on top. The paper's key number is the PCIe
//! path: 4 GB/s but a 2 µs round trip — "severe NUMA effects" that force all
//! CPU↔FPGA communication to be asynchronous (§5).

use crate::energy::Energy;
use crate::time::{Rate, SimTime};

/// A FIFO, bandwidth-limited, fixed-latency link.
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth: Rate,
    latency: SimTime,
    energy_per_byte: Energy,
    free_at: SimTime,
    bytes_moved: u64,
    transfers: u64,
    busy: SimTime,
}

impl Link {
    /// Create a link with the given bandwidth (bytes/second), one-way
    /// propagation latency, and transfer energy per byte.
    pub fn new(bytes_per_sec: f64, latency: SimTime, energy_per_byte: Energy) -> Self {
        assert!(bytes_per_sec > 0.0);
        Link {
            bandwidth: Rate::per_sec(bytes_per_sec),
            latency,
            energy_per_byte,
            free_at: SimTime::ZERO,
            bytes_moved: 0,
            transfers: 0,
            busy: SimTime::ZERO,
        }
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Round-trip latency (2× one-way).
    pub fn round_trip(&self) -> SimTime {
        self.latency * 2u64
    }

    /// Time the wire takes to clock out `bytes` (no queueing, no latency).
    #[inline]
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        self.bandwidth.time(bytes)
    }

    /// Small-message transfer that does not queue on the shared wire: the
    /// link is full-duplex and control messages (doorbells, probe requests,
    /// responses) are far below its bandwidth, so they see only wire time
    /// plus propagation. Bytes are still counted for utilization reports.
    ///
    /// Use [`Link::transfer`] for bulk traffic where FIFO bandwidth
    /// contention is the effect under study (e.g. shipping scan columns).
    pub fn transfer_unqueued(&mut self, arrive: SimTime, bytes: u64) -> (SimTime, Energy) {
        self.bytes_moved += bytes;
        self.transfers += 1;
        let wire = self.wire_time(bytes);
        self.busy += wire;
        (arrive + wire + self.latency, self.energy_per_byte * bytes)
    }

    /// Transfer `bytes` starting no earlier than `arrive`; returns the time
    /// the last byte arrives at the far end, and the energy spent.
    pub fn transfer(&mut self, arrive: SimTime, bytes: u64) -> (SimTime, Energy) {
        let start = arrive.max(self.free_at);
        let busy = self.wire_time(bytes);
        self.free_at = start + busy;
        self.bytes_moved += bytes;
        self.transfers += 1;
        self.busy += busy;
        (start + busy + self.latency, self.energy_per_byte * bytes)
    }

    /// A request/response exchange: `req_bytes` over, remote handling of
    /// `service`, `resp_bytes` back. Returns completion time and energy.
    ///
    /// This is the shape of every software→FPGA offload call in §5.
    pub fn round_trip_exchange(
        &mut self,
        arrive: SimTime,
        req_bytes: u64,
        service: SimTime,
        resp_bytes: u64,
    ) -> (SimTime, Energy) {
        let (req_done, e1) = self.transfer(arrive, req_bytes);
        let remote_done = req_done + service;
        let (resp_done, e2) = self.transfer(remote_done, resp_bytes);
        (resp_done, e1 + e2)
    }

    /// Total payload bytes moved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Accumulated wire-busy time: the sum of clock-out times of every
    /// transfer (queued or not), excluding propagation latency. Divide by a
    /// horizon for wire utilization.
    pub fn busy_time(&self) -> SimTime {
        self.busy
    }

    /// Achieved bandwidth over `[0, horizon]` in bytes/second.
    pub fn achieved_bw(&self, horizon: SimTime) -> f64 {
        if horizon.is_zero() {
            0.0
        } else {
            self.bytes_moved as f64 / horizon.as_secs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcie() -> Link {
        // Figure 2: 8x PCI-e, 4 GB/s, 2 us round trip (1 us each way).
        Link::new(4e9, SimTime::from_us(1.0), Energy::from_pj(10.0))
    }

    #[test]
    fn single_transfer_time_is_wire_plus_latency() {
        let mut l = pcie();
        // 4000 bytes at 4 GB/s = 1 us wire time, + 1 us latency = 2 us.
        let (done, _) = l.transfer(SimTime::ZERO, 4000);
        assert!((done.as_us() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transfers_serialize_on_the_wire_but_latency_overlaps() {
        let mut l = pcie();
        let (d1, _) = l.transfer(SimTime::ZERO, 4000);
        let (d2, _) = l.transfer(SimTime::ZERO, 4000);
        // Second transfer starts clocking at 1us, done at 2us, arrives 3us.
        assert!((d1.as_us() - 2.0).abs() < 1e-9);
        assert!((d2.as_us() - 3.0).abs() < 1e-9);
        assert_eq!(l.bytes_moved(), 8000);
        assert_eq!(l.transfers(), 2);
        // Two 1us clock-outs of wire-busy, latency excluded.
        assert!((l.busy_time().as_us() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn round_trip_exchange_includes_both_directions() {
        let mut l = pcie();
        // 64B request and response: wire time negligible (16 ns each), so the
        // exchange is dominated by 2 us of propagation — the paper's "2 us
        // round trip" NUMA effect.
        let (done, _) = l.round_trip_exchange(SimTime::ZERO, 64, SimTime::ZERO, 64);
        assert!((done.as_us() - 2.0).abs() < 0.05, "done={}", done);
    }

    #[test]
    fn achieved_bandwidth_saturates_at_configured() {
        let mut l = pcie();
        let mut done = SimTime::ZERO;
        for _ in 0..1000 {
            let (d, _) = l.transfer(SimTime::ZERO, 1 << 20);
            done = d;
        }
        let bw = l.achieved_bw(done);
        assert!(bw <= 4e9 * 1.001, "bw={bw}");
        assert!(bw >= 4e9 * 0.99, "bw={bw}");
    }

    #[test]
    fn energy_scales_with_bytes() {
        let mut l = pcie();
        let (_, e) = l.transfer(SimTime::ZERO, 1000);
        assert!((e.as_nj() - 10.0).abs() < 1e-9);
    }
}
