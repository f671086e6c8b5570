//! The general-purpose core model.
//!
//! Instruction execution is charged at a fixed rate (frequency × IPC) plus a
//! fixed energy per instruction. The per-instruction energy is deliberately
//! high relative to the FPGA's per-op energy: the paper (via Conservation
//! Cores \[15\] and the dark-silicon literature \[3\]) argues that most of a
//! general-purpose core's energy is structural overhead — fetch, decode,
//! rename, speculate — not useful work, and that this gap is exactly what
//! custom hardware reclaims.

use crate::energy::Energy;
use crate::time::{Rate, SimTime};

/// A fixed-rate CPU core cost model.
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Instructions retired per second: frequency × IPC.
    rate: Rate,
    energy_per_instr: Energy,
}

impl CpuModel {
    /// Create a model from clock frequency, sustained IPC, and energy per
    /// retired instruction.
    pub fn new(freq_hz: f64, ipc: f64, energy_per_instr: Energy) -> Self {
        assert!(freq_hz > 0.0 && ipc > 0.0);
        CpuModel {
            rate: Rate::per_sec(freq_hz * ipc),
            energy_per_instr,
        }
    }

    /// A 2011-class Xeon core running OLTP: 2.5 GHz and IPC ≈ 1 — OLTP
    /// famously fails to fill wider pipelines \[1\]. 2 nJ/instruction (~5 W
    /// per busy core, including its share of uncore) follows the
    /// Conservation-Cores observation \[15\] that most of a general-purpose
    /// core's energy is structural overhead, not computation.
    pub fn xeon_oltp() -> Self {
        CpuModel::new(2.5e9, 1.0, Energy::from_nj(2.0))
    }

    /// Time and energy to execute `instructions` (compute only — memory
    /// stalls are charged separately by the cache model).
    #[inline]
    pub fn compute(&self, instructions: u64) -> (SimTime, Energy) {
        (
            self.rate.time(instructions),
            self.energy_per_instr * instructions,
        )
    }

    /// Seconds per instruction — handy for analytic cross-checks.
    #[inline]
    pub fn instr_time(&self) -> SimTime {
        self.rate.time(1)
    }

    /// Energy per instruction.
    #[inline]
    pub fn instr_energy(&self) -> Energy {
        self.energy_per_instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_instruction_slot_is_400ps() {
        let cpu = CpuModel::xeon_oltp();
        assert_eq!(cpu.instr_time().as_ps(), 400);
    }

    #[test]
    fn compute_scales_linearly() {
        let cpu = CpuModel::xeon_oltp();
        let (t, e) = cpu.compute(1000);
        assert_eq!(t.as_ns(), 400.0);
        assert!((e.as_nj() - 2000.0).abs() < 1e-9);
        let (t2, _) = cpu.compute(2000);
        assert_eq!(t2.as_ps(), t.as_ps() * 2);
    }

    #[test]
    fn ipc_divides_time_not_energy() {
        let wide = CpuModel::new(2.5e9, 2.0, Energy::from_nj(1.0));
        let (t, e) = wide.compute(1000);
        assert_eq!(t.as_ns(), 200.0);
        assert!((e.as_nj() - 1000.0).abs() < 1e-9);
    }
}
