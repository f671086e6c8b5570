//! Properties of the deterministic interconnect.
//!
//! The network model is only useful if (a) its behavior is a pure
//! function of the seed and each link's own traffic — so cluster runs are
//! byte-identical at any `--jobs` value — and (b) its fault
//! knobs do exactly what they say: zero-rate knobs draw nothing, armed
//! knobs fire within statistical reach of their basis-point rates, and a
//! partition window really black-holes everything it covers.
#![recursion_limit = "1024"]

use bionic_cluster::{Delivery, NetConfig, Network};
use bionic_sim::time::SimTime;
use proptest::prelude::*;

fn rates() -> impl Strategy<Value = (u32, u32, u32, u32)> {
    (0u32..3_000, 0u32..3_000, 0u32..3_000, 0u32..1_000)
}

/// Replay one link's traffic and collect its deliveries.
fn drive_link(net: &mut Network, from: u32, to: u32, msgs: u32) -> Vec<Delivery> {
    (0..msgs)
        .map(|i| net.send(from, to, SimTime::from_us(7.0 * i as f64)))
        .collect()
}

proptest! {
    // A link's delivery schedule depends only on the seed and its own
    // message count — never on what other links carried, in what order,
    // or whether they exist at all. This is the jobs-determinism
    // property: scheduling changes which links are busy when, not what
    // any given link does.
    #[test]
    fn link_schedule_is_independent_of_other_links(
        seed in any::<u64>(),
        rates in rates(),
        msgs in 1u32..200,
        noise in 0u32..40,
    ) {
        let (drop, dup, delay, part) = rates;
        let cfg = NetConfig::healthy(seed).with_rates(drop, dup, delay, part);
        let solo = drive_link(&mut Network::new(cfg.clone()), 0, 1, msgs);
        let mut net = Network::new(cfg);
        // Interleave traffic over unrelated links, including the reverse
        // direction (a directed pair is its own substream).
        for i in 0..noise {
            let _ = net.send(1, 0, SimTime::from_us(i as f64));
            let _ = net.send(2, 3, SimTime::from_us(i as f64));
        }
        let interleaved = drive_link(&mut net, 0, 1, msgs);
        prop_assert_eq!(solo, interleaved);
    }

    // Zero-rate knobs consume no randomness: an unarmed network is a
    // pure latency model, byte-for-byte, regardless of seed.
    #[test]
    fn unarmed_network_is_seed_invariant_pure_latency(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        msgs in 1u32..300,
    ) {
        let a = drive_link(&mut Network::new(NetConfig::healthy(seed_a)), 0, 1, msgs);
        let b = drive_link(&mut Network::new(NetConfig::healthy(seed_b)), 0, 1, msgs);
        prop_assert_eq!(&a, &b);
        for (i, d) in a.iter().enumerate() {
            let sent = SimTime::from_us(7.0 * i as f64);
            prop_assert_eq!(
                *d,
                Delivery::Delivered { at: sent + SimTime::from_us(5.0), dup: false }
            );
        }
    }

    // While a partition window is open, the link delivers nothing: every
    // message inside the window is `Dropped` and counted as partitioned.
    #[test]
    fn no_delivery_inside_a_partition_window(
        seed in any::<u64>(),
        width in 1u32..12,
        msgs in 1u32..100,
    ) {
        let mut cfg = NetConfig::healthy(seed).with_rates(0, 0, 0, 10_000);
        cfg.part_msgs = width;
        let mut net = Network::new(cfg);
        let deliveries = drive_link(&mut net, 0, 1, msgs);
        // At 100% partition rate every message either opens a window or
        // falls inside one — nothing may arrive.
        prop_assert!(deliveries.iter().all(|d| *d == Delivery::Dropped));
        prop_assert_eq!(net.stats.partitioned, msgs as u64);
        prop_assert_eq!(net.stats.delivered, 0);
        // Window accounting: each opened window swallows up to `width`
        // messages, so windows * width must cover the traffic.
        prop_assert!(net.stats.partitions * width as u64 >= msgs as u64);
    }

    // Armed fault rates are honored within wide statistical bounds, and
    // the counters always reconcile: sent = delivered + dropped +
    // partitioned, duplicates/delays only on delivered messages.
    #[test]
    fn fault_frequencies_track_their_rates(
        seed in any::<u64>(),
        rates in rates(),
    ) {
        let (drop, dup, delay, part) = rates;
        let cfg = NetConfig::healthy(seed).with_rates(drop, dup, delay, part);
        let mut net = Network::new(cfg);
        let msgs = 3_000u32;
        let _ = drive_link(&mut net, 0, 1, msgs);
        let s = net.stats;
        prop_assert_eq!(s.sent, msgs as u64);
        prop_assert_eq!(s.sent, s.delivered + s.dropped + s.partitioned);
        prop_assert!(s.duplicated <= s.delivered);
        prop_assert!(s.delayed <= s.delivered);
        if drop == 0 { prop_assert_eq!(s.dropped, 0); }
        if dup == 0 { prop_assert_eq!(s.duplicated, 0); }
        if delay == 0 { prop_assert_eq!(s.delayed, 0); }
        if part == 0 { prop_assert_eq!(s.partitioned, 0); }
        // A meaningfully-armed drop knob fires, and never wildly above
        // its rate (4x headroom over 3000 messages absorbs variance).
        if drop >= 500 && part == 0 {
            let frac = s.dropped as f64 / s.sent as f64;
            let rate = drop as f64 / 1e4;
            prop_assert!(frac > rate * 0.25 && frac < rate * 4.0,
                "drop rate {} but observed {}", rate, frac);
        }
    }

    // Rebuilding the same network and replaying the same traffic gives
    // identical deliveries and identical counters.
    #[test]
    fn replay_is_byte_identical(
        seed in any::<u64>(),
        rates in rates(),
        msgs in 1u32..400,
    ) {
        let (drop, dup, delay, part) = rates;
        let cfg = NetConfig::healthy(seed).with_rates(drop, dup, delay, part);
        let go = || {
            let mut net = Network::new(cfg.clone());
            let d: Vec<Delivery> = (0..msgs)
                .map(|i| net.send(i % 4, (i + 1) % 4, SimTime::from_us(3.0 * i as f64)))
                .collect();
            (d, net.stats)
        };
        prop_assert_eq!(go(), go());
    }
}
