//! `Rate::time` prices `n` units as the integer `n · p` when the rate is a
//! whole number `p` of picoseconds per unit, and through the float formula
//! otherwise. The model may not move, so it must agree with
//! `SimTime::from_secs(n as f64 / per_sec)` — what every pricing helper
//! computed before the type existed — for every `n`: far below, at and just
//! past the largest `n` the integer path takes (`n · p < 2⁵¹`), and on to
//! counts the float formula can no longer hold exactly.

use bionic_sim::time::{Rate, SimTime};
use proptest::prelude::*;

/// The formula `Rate` replaces.
fn formula(per_sec: f64, n: u64) -> SimTime {
    SimTime::from_secs(n as f64 / per_sec)
}

/// The model's rates: instructions at 2.5 GHz × IPC 1 (400 ps), the 4 GB/s
/// link (250 ps/B), the 10 GB/s log copy (100 ps/B), the 500 MB/s SSD
/// (2 000 ps/B); and rates without a whole picosecond count, which keep
/// the formula: 80 GB/s SG-DRAM (12.5 ps/B), the 1.5 GB/s SAS array and a
/// wide core at IPC 3.
const RATES: [f64; 7] = [2.5e9, 4e9, 10e9, 500e6, 80e9, 1.5e9, 7.5e9];

/// The largest `n` with `n · p < 2⁵¹` for an integral rate.
fn bound(per_sec: f64) -> Option<u64> {
    let ps = 1e12 / per_sec;
    (ps.fract() == 0.0).then(|| ((1u64 << 51) - 1) / ps as u64)
}

#[track_caller]
fn check(per_sec: f64, n: u64) {
    assert_eq!(
        Rate::per_sec(per_sec).time(n),
        formula(per_sec, n),
        "{n} units at {per_sec:e}/s"
    );
}

#[test]
fn every_model_rate_at_the_edges() {
    for per_sec in RATES {
        for n in [0, 1, 2, 3, 7, 1_000, 1 << 20, 1 << 40, u64::MAX] {
            check(per_sec, n);
        }
        let b = bound(per_sec).unwrap_or(1 << 48);
        for n in b.saturating_sub(64)..=b + 64 {
            check(per_sec, n);
        }
    }
}

#[test]
fn integral_rates_take_whole_picoseconds() {
    for (per_sec, ps) in [(2.5e9, 400), (4e9, 250), (10e9, 100), (500e6, 2_000)] {
        assert_eq!(bound(per_sec), Some(((1 << 51) - 1) / ps));
        assert_eq!(Rate::per_sec(per_sec).time(3).as_ps(), 3 * ps);
    }
    assert_eq!(bound(80e9), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // Counts of every magnitude, and counts aimed at either side of each
    // integral rate's bound.
    #[test]
    fn the_model_rates_match_the_formula(
        which in 0usize..RATES.len(),
        shift in 0u32..64,
        n in any::<u64>(),
        offset in 0u64..1 << 20,
    ) {
        let per_sec = RATES[which];
        let b = bound(per_sec).unwrap_or(1 << 48);
        for n in [n >> shift, b - offset.min(b), b.saturating_add(offset)] {
            prop_assert_eq!(Rate::per_sec(per_sec).time(n), formula(per_sec, n), "n = {}", n);
        }
    }

    // Any whole rate: divisors of 10¹² take the integer path, the rest and
    // fractional rates the formula.
    #[test]
    fn any_rate_matches_the_formula(
        twos in 0u32..13,
        fives in 0u32..13,
        other in 1u64..1 << 40,
        frac in 0.0f64..1.0,
        shift in 0u32..64,
        n in any::<u64>(),
    ) {
        let divisor = 2u64.pow(twos) * 5u64.pow(fives);
        for per_sec in [divisor as f64, other as f64, other as f64 + frac] {
            let b = bound(per_sec).unwrap_or(1 << 48);
            for n in [n >> shift, b, b + 1, b.saturating_sub(n >> shift)] {
                prop_assert_eq!(Rate::per_sec(per_sec).time(n), formula(per_sec, n), "{} at {}/s", n, per_sec);
            }
        }
    }
}
