//! Energy accounting.
//!
//! Under dark silicon, "performance is measured in joules/operation, with
//! latency merely a constraint" (§2). The meter makes that metric first
//! class: every modeled component charges joules to an [`EnergyDomain`], and
//! experiments report joules/op alongside throughput.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// An amount of energy, in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(pub f64);

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Construct from picojoules.
    #[inline]
    pub fn from_pj(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// Construct from nanojoules.
    #[inline]
    pub fn from_nj(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Construct from microjoules.
    #[inline]
    pub fn from_uj(uj: f64) -> Self {
        Energy(uj * 1e-6)
    }

    /// Construct from joules.
    #[inline]
    pub fn from_j(j: f64) -> Self {
        Energy(j)
    }

    /// Value in joules.
    #[inline]
    pub fn as_j(self) -> f64 {
        self.0
    }

    /// Value in nanojoules.
    #[inline]
    pub fn as_nj(self) -> f64 {
        self.0 * 1e9
    }

    /// Value in microjoules.
    #[inline]
    pub fn as_uj(self) -> f64 {
        self.0 * 1e6
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs as f64)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0;
        if j >= 1.0 {
            write!(f, "{j:.3}J")
        } else if j >= 1e-3 {
            write!(f, "{:.3}mJ", j * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.3}uJ", j * 1e6)
        } else if j >= 1e-9 {
            write!(f, "{:.3}nJ", j * 1e9)
        } else {
            write!(f, "{:.3}pJ", j * 1e12)
        }
    }
}

/// The physical component a joule was spent in.
///
/// These are hardware domains, not software activities; the seven-category
/// *time* breakdown of Figure 3 lives in `bionic-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EnergyDomain {
    /// General-purpose core pipeline (instruction execution).
    CpuCore,
    /// On-chip SRAM (L1/L2/L3 accesses).
    Cache,
    /// Host-side DDR3 accesses.
    Dram,
    /// FPGA-side scatter-gather DDR3 accesses.
    SgDram,
    /// Reconfigurable-fabric operations.
    Fpga,
    /// PCIe transfers between host and FPGA.
    Pcie,
    /// Disk and SSD activity.
    Storage,
}

impl EnergyDomain {
    /// All domains, in display order.
    pub const ALL: [EnergyDomain; 7] = [
        EnergyDomain::CpuCore,
        EnergyDomain::Cache,
        EnergyDomain::Dram,
        EnergyDomain::SgDram,
        EnergyDomain::Fpga,
        EnergyDomain::Pcie,
        EnergyDomain::Storage,
    ];

    /// Short stable label for tables and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            EnergyDomain::CpuCore => "cpu",
            EnergyDomain::Cache => "cache",
            EnergyDomain::Dram => "dram",
            EnergyDomain::SgDram => "sgdram",
            EnergyDomain::Fpga => "fpga",
            EnergyDomain::Pcie => "pcie",
            EnergyDomain::Storage => "storage",
        }
    }
}

/// Accumulates energy per [`EnergyDomain`].
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    by_domain: [f64; 7],
}

impl EnergyMeter {
    /// A meter with all domains at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `e` joules to `domain`.
    #[inline]
    pub fn charge(&mut self, domain: EnergyDomain, e: Energy) {
        self.by_domain[domain as usize] += e.0;
    }

    /// The Cache and Dram accumulators, for the cache model's run kernel
    /// to add into directly.
    pub(crate) fn cache_and_dram_mut(&mut self) -> (&mut f64, &mut f64) {
        const _: () =
            assert!(EnergyDomain::Cache as usize == 1 && EnergyDomain::Dram as usize == 2);
        let [_, cache, dram, ..] = &mut self.by_domain;
        (cache, dram)
    }

    /// Energy spent in one domain so far.
    pub fn domain(&self, domain: EnergyDomain) -> Energy {
        Energy(self.by_domain[domain as usize])
    }

    /// Total energy across all domains.
    pub fn total(&self) -> Energy {
        Energy(self.by_domain.iter().sum())
    }

    /// Reset every domain to zero.
    pub fn reset(&mut self) {
        self.by_domain = [0.0; 7];
    }

    /// Snapshot as `(domain, energy)` pairs in display order.
    pub fn snapshot(&self) -> Vec<(EnergyDomain, Energy)> {
        EnergyDomain::ALL
            .iter()
            .map(|&d| (d, self.domain(d)))
            .collect()
    }

    /// Difference since an earlier snapshot of the same meter, useful for
    /// attributing energy to a phase of an experiment.
    pub fn since(&self, earlier: &EnergyMeter) -> EnergyMeter {
        let mut out = EnergyMeter::new();
        for i in 0..7 {
            out.by_domain[i] = self.by_domain[i] - earlier.by_domain[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert!((Energy::from_nj(1.0).as_j() - 1e-9).abs() < 1e-21);
        assert!((Energy::from_pj(1000.0).as_nj() - 1.0).abs() < 1e-9);
        assert!((Energy::from_uj(2.0).as_nj() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_nj(3.0);
        let b = Energy::from_nj(1.0);
        assert!(((a + b).as_nj() - 4.0).abs() < 1e-9);
        assert!(((a - b).as_nj() - 2.0).abs() < 1e-9);
        assert!(((a * 2.0).as_nj() - 6.0).abs() < 1e-9);
        assert!(((a * 3u64).as_nj() - 9.0).abs() < 1e-9);
        let s: Energy = [a, b].into_iter().sum();
        assert!((s.as_nj() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Energy::from_j(2.5)), "2.500J");
        assert_eq!(format!("{}", Energy::from_nj(42.0)), "42.000nJ");
        assert_eq!(format!("{}", Energy::from_pj(7.0)), "7.000pJ");
    }

    #[test]
    fn meter_accumulates_per_domain() {
        let mut m = EnergyMeter::new();
        m.charge(EnergyDomain::CpuCore, Energy::from_nj(10.0));
        m.charge(EnergyDomain::CpuCore, Energy::from_nj(5.0));
        m.charge(EnergyDomain::Fpga, Energy::from_nj(1.0));
        assert!((m.domain(EnergyDomain::CpuCore).as_nj() - 15.0).abs() < 1e-9);
        assert!((m.domain(EnergyDomain::Fpga).as_nj() - 1.0).abs() < 1e-9);
        assert!((m.total().as_nj() - 16.0).abs() < 1e-9);
        assert_eq!(m.domain(EnergyDomain::Dram), Energy::ZERO);
    }

    #[test]
    fn since_computes_phase_delta() {
        let mut m = EnergyMeter::new();
        m.charge(EnergyDomain::Dram, Energy::from_nj(1.0));
        let snap = m.clone();
        m.charge(EnergyDomain::Dram, Energy::from_nj(2.0));
        let delta = m.since(&snap);
        assert!((delta.domain(EnergyDomain::Dram).as_nj() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = EnergyMeter::new();
        m.charge(EnergyDomain::Pcie, Energy::from_nj(9.0));
        m.reset();
        assert_eq!(m.total(), Energy::ZERO);
    }
}
