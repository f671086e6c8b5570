//! Storage devices: the SAS disk array (database files, FPGA side) and the
//! SSD (log files, CPU side) from Figure 2.
//!
//! §5.2 exploits the platform's non-uniform paths to storage: database files
//! live behind the FPGA on spinning SAS (5 ms seeks, fine for bulk merges),
//! while the log goes to a low-latency SSD (20 µs) on the host so commits
//! aren't gated on mechanical latency.

use crate::energy::Energy;
use crate::server::Server;
use crate::time::{Rate, SimTime};

/// A block storage device modeled as a single FIFO server with a positioning
/// cost for random requests.
#[derive(Debug, Clone)]
pub struct BlockDevice {
    server: Server,
    bandwidth: Rate,
    seek: SimTime,
    energy_per_byte: Energy,
    energy_per_op: Energy,
    last_offset: Option<u64>,
    reads: u64,
    writes: u64,
    bytes: u64,
}

impl BlockDevice {
    /// Create a device with the given bandwidth, positioning (seek) latency,
    /// and energy costs.
    pub fn new(
        bytes_per_sec: f64,
        seek: SimTime,
        energy_per_byte: Energy,
        energy_per_op: Energy,
    ) -> Self {
        assert!(bytes_per_sec > 0.0);
        BlockDevice {
            server: Server::new(),
            bandwidth: Rate::per_sec(bytes_per_sec),
            seek,
            energy_per_byte,
            energy_per_op,
            last_offset: None,
            reads: 0,
            writes: 0,
            bytes: 0,
        }
    }

    /// The 2× SAS array of Figure 2: 12 Gb/s (1.5 GB/s), 5 ms positioning.
    pub fn sas_array() -> Self {
        BlockDevice::new(
            1.5e9,
            SimTime::from_ms(5.0),
            Energy::from_nj(1.0),
            Energy::from_uj(100.0),
        )
    }

    /// The host SSD of Figure 2: 500 MB/s, 20 µs access.
    pub fn ssd() -> Self {
        BlockDevice::new(
            500e6,
            SimTime::from_us(20.0),
            Energy::from_nj(0.5),
            Energy::from_uj(1.0),
        )
    }

    fn io(&mut self, arrive: SimTime, offset: u64, bytes: u64) -> (SimTime, Energy) {
        // Sequential follow-on (next offset contiguous with the previous
        // request) skips the positioning cost.
        let sequential = self.last_offset == Some(offset);
        let position = if sequential { SimTime::ZERO } else { self.seek };
        let transfer = self.bandwidth.time(bytes);
        let (_, done) = self.server.submit(arrive, position + transfer);
        self.last_offset = Some(offset + bytes);
        self.bytes += bytes;
        (done, self.energy_per_op + self.energy_per_byte * bytes)
    }

    /// Read `bytes` at `offset`; returns completion time and energy.
    pub fn read(&mut self, arrive: SimTime, offset: u64, bytes: u64) -> (SimTime, Energy) {
        self.reads += 1;
        self.io(arrive, offset, bytes)
    }

    /// Write `bytes` at `offset`; returns completion (durable) time, energy.
    pub fn write(&mut self, arrive: SimTime, offset: u64, bytes: u64) -> (SimTime, Energy) {
        self.writes += 1;
        self.io(arrive, offset, bytes)
    }

    /// Positioning latency for a random request.
    pub fn seek_time(&self) -> SimTime {
        self.seek
    }

    /// `(reads, writes, total bytes)` so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_read_pays_the_seek() {
        let mut d = BlockDevice::sas_array();
        let (done, _) = d.read(SimTime::ZERO, 0, 8192);
        // 5 ms seek dominates: 8 KiB at 1.5 GB/s is ~5.5 us.
        assert!(done.as_ms() > 5.0 && done.as_ms() < 5.1, "done={done}");
    }

    #[test]
    fn sequential_follow_on_skips_the_seek() {
        let mut d = BlockDevice::sas_array();
        let (first, _) = d.read(SimTime::ZERO, 0, 1 << 20);
        let (second, _) = d.read(first, 1 << 20, 1 << 20);
        // Second MiB takes only transfer time: ~0.7 ms at 1.5 GB/s.
        let delta = (second - first).as_ms();
        assert!(delta < 1.0, "delta={delta}ms");
    }

    #[test]
    fn ssd_is_three_orders_faster_to_position() {
        let ssd = BlockDevice::ssd();
        let sas = BlockDevice::sas_array();
        let ratio = sas.seek_time().as_us() / ssd.seek_time().as_us();
        assert!((ratio - 250.0).abs() < 1.0, "ratio={ratio}");
    }

    #[test]
    fn requests_serialize_fifo() {
        let mut d = BlockDevice::ssd();
        let (d1, _) = d.write(SimTime::ZERO, 0, 4096);
        let (d2, _) = d.write(SimTime::ZERO, 1 << 30, 4096);
        assert!(d2 > d1);
        let (r, w, b) = d.counters();
        assert_eq!((r, w, b), (0, 2, 8192));
    }

    #[test]
    fn energy_has_fixed_and_per_byte_parts() {
        let mut d = BlockDevice::ssd();
        let (_, e_small) = d.write(SimTime::ZERO, 0, 1);
        let (_, e_big) = d.write(SimTime::from_secs(1.0), 1 << 30, 1 << 20);
        assert!(e_big > e_small);
        assert!(e_small.as_uj() >= 1.0); // at least the per-op cost
    }
}
