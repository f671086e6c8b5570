//! `SimTime`'s float conversions round without calling `f64::round` (an
//! out-of-line routine on baseline x86-64, on the path of every priced
//! charge). The model may not move, so the replacement must agree with
//! `x.round() as u64` on every `f64` — half away from zero, negatives and
//! NaN to 0, saturation at `u64::MAX` — not merely on the values the
//! experiments happen to produce.
//!
//! `SimTime::from_ps(1) * x` is the rounding helper applied to `x` itself
//! (`1 as f64 * x` is exact), which makes it observable from here.

use bionic_sim::time::SimTime;
use proptest::prelude::*;

fn rounded(x: f64) -> u64 {
    (SimTime::from_ps(1) * x).as_ps()
}

#[track_caller]
fn check(x: f64) {
    assert_eq!(
        rounded(x),
        x.round() as u64,
        "x = {x:e} ({:#x})",
        x.to_bits()
    );
}

#[test]
fn edges_round_like_round_then_cast() {
    for x in [
        0.0,
        -0.0,
        0.5,
        -0.5,
        0.49999999999999994, // largest f64 below one half
        0.5000000000000001,
        1.5,
        -1.5,
        -3e9,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        u64::MAX as f64,
    ] {
        check(x);
    }
    // k ± 0.5 and their neighbours for every power of two a fraction fits
    // beside, then the integer-only range up to and past saturation.
    for e in 0..=52 {
        let k = (1u64 << e) as f64;
        for x in [k - 0.5, k + 0.5, k - 1.5, k + 1.5] {
            check(x);
            check(x.next_down());
            check(x.next_up());
            check(-x);
        }
    }
    for e in 52..=65 {
        let k = 2f64.powi(e);
        check(k);
        check(k.next_down());
        check(k.next_up());
    }
}

#[test]
fn the_unit_constructors_share_the_helper() {
    for x in [
        0.0004,
        0.4,
        0.4995,
        2.5,
        12.3456789,
        400.0,
        5e6,
        -1.0,
        f64::NAN,
    ] {
        assert_eq!(SimTime::from_ns(x).as_ps(), (x * 1e3).round() as u64);
        assert_eq!(SimTime::from_us(x).as_ps(), (x * 1e6).round() as u64);
        assert_eq!(SimTime::from_ms(x).as_ps(), (x * 1e9).round() as u64);
        assert_eq!(SimTime::from_secs(x).as_ps(), (x * 1e12).round() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // Every bit pattern: all magnitudes, subnormals, infinities, NaNs.
    #[test]
    fn any_bit_pattern(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(rounded(x), x.round() as u64);
    }

    // Uniform bit patterns almost never land where rounding is decided:
    // aim at magnitudes with a fraction (below 2^52), including exact
    // halves, and at the integer-only band up to saturation.
    #[test]
    fn magnitudes_where_rounding_is_decided(
        k in 0u64..(1 << 52),
        shift in 0u32..52,
        frac in 0.0f64..1.0,
        exp in 52i32..66,
        mant in 1.0f64..2.0,
    ) {
        let k = (k >> shift) as f64;
        for x in [k + 0.5, k + frac, (k + 0.5).next_down(), mant * 2f64.powi(exp)] {
            prop_assert_eq!(rounded(x), x.round() as u64);
            prop_assert_eq!(rounded(-x), 0);
        }
    }
}
