//! Simulated time.
//!
//! The simulator keeps time in integer **picoseconds**. The paper's platform
//! mixes effects five orders of magnitude apart — 0.4 ns instruction slots on
//! a 2.5 GHz core against 5 ms SAS seeks — so a picosecond tick keeps every
//! charge exact (no drift from rounding sub-nanosecond instruction costs)
//! while `u64` still covers ~213 days of simulated time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in picoseconds.
///
/// `SimTime` is deliberately a single type for both instants and durations;
/// the simulator's arithmetic is simple enough that the extra type safety of
/// separate types is not worth the friction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// `x.round() as u64`, bit for bit — half away from zero, negatives and NaN
/// to 0, saturating at `u64::MAX` — without the call: on baseline x86-64
/// `f64::round` is an out-of-line routine, and the pricing helpers convert
/// on every charge. Truncation and the subtraction are exact: below 2^52
/// the fraction is representable, from there on `x` is an integer.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add((x - t as f64 >= 0.5) as u64)
}

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "never happens" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds (fractional values allowed).
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        SimTime(round_to_u64(ns * 1e3))
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        SimTime(round_to_u64(us * 1e6))
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        SimTime(round_to_u64(ms * 1e9))
    }

    /// Construct from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        SimTime(round_to_u64(s * 1e12))
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Is this the zero time/duration?
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Picoseconds in one second, the scale of [`SimTime`].
const PS_PER_SEC: u64 = 1_000_000_000_000;

/// A constant rate in units (instructions, bytes) per second, priced in
/// [`SimTime`]: `time(n)` is `SimTime::from_secs(n as f64 / per_sec)`, bit
/// for bit, for every `n`.
///
/// Most of the model's rates take a whole number of picoseconds per unit
/// (2.5 GHz × IPC 1 is 400 ps per instruction, 4 GB/s is 250 ps per byte).
/// For those, `time(n)` is the integer product `n · p` wherever that is
/// provably what the float formula rounds to, and the formula itself only
/// beyond that bound or for rates like 80 GB/s (12.5 ps per byte). The
/// argument: `p = 10¹² / per_sec` is checked exactly in integers, so the
/// formula computes `n · p` through two roundings (`n / per_sec`, then
/// `× 10¹²`), each off by at most 2⁻⁵³ relative, and lands within
/// `n · p · 2⁻⁵²` of the integer `n · p`. Below `n · p < 2⁵¹` that is under
/// half a picosecond, so the final rounding returns `n · p` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    per_sec: f64,
    /// `10¹² / per_sec` when that is a whole number, else 0.
    ps_per_unit: u64,
    /// The largest `n` priced as `n · ps_per_unit` (0 without an integer
    /// rate, where `time(0)` is zero either way).
    exact_max: u64,
}

impl Rate {
    /// A rate of `per_sec` units per second.
    pub fn per_sec(per_sec: f64) -> Self {
        assert!(per_sec > 0.0, "rate must be positive");
        let whole = per_sec.fract() == 0.0 && per_sec <= PS_PER_SEC as f64;
        let ps_per_unit = match per_sec as u64 {
            units if whole && PS_PER_SEC.is_multiple_of(units) => PS_PER_SEC / units,
            _ => 0,
        };
        Rate {
            per_sec,
            ps_per_unit,
            exact_max: ((1u64 << 51) - 1).checked_div(ps_per_unit).unwrap_or(0),
        }
    }

    /// Time to move or execute `n` units at this rate.
    #[inline]
    pub fn time(self, n: u64) -> SimTime {
        if n <= self.exact_max {
            SimTime(n * self.ps_per_unit)
        } else {
            SimTime::from_secs(n as f64 / self.per_sec)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(round_to_u64(self.0 as f64 * rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    /// Human-oriented display: picks the largest unit that keeps the value
    /// above 1.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trips() {
        assert_eq!(SimTime::from_ns(1.0).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(2.0).as_ps(), 2_000_000);
        assert_eq!(SimTime::from_ms(5.0).as_ps(), 5_000_000_000);
        assert_eq!(SimTime::from_secs(1.0).as_ps(), 1_000_000_000_000);
        assert!((SimTime::from_ns(400.0).as_ns() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_nanoseconds_are_exact_to_the_picosecond() {
        // A 2.5 GHz instruction slot is 0.4 ns = 400 ps; 1000 of them must be
        // exactly 400 ns, not 0 (as it would be with integer-ns rounding).
        let slot = SimTime::from_ns(0.4);
        assert_eq!(slot.as_ps(), 400);
        assert_eq!((slot * 1000).as_ns(), 400.0);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_ns(10.0);
        let b = SimTime::from_ns(3.0);
        assert_eq!((a + b).as_ns(), 13.0);
        assert_eq!((a - b).as_ns(), 7.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert!(b < a);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!((a * 3u64).as_ns(), 30.0);
        assert_eq!((a / 2).as_ns(), 5.0);
        assert_eq!((a * 0.5).as_ns(), 5.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_ns(i as f64)).sum();
        assert_eq!(total.as_ns(), 10.0);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimTime::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimTime::from_ns(400.0)), "400.000ns");
        assert_eq!(format!("{}", SimTime::from_us(2.0)), "2.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5.0)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
    }
}
