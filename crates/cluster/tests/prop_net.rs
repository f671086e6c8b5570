//! Properties of the deterministic interconnect.
//!
//! The network model is only useful if (a) its behavior is a pure
//! function of the seed and each link's own traffic — so cluster runs are
//! byte-identical at any `--jobs` value — and (b) its fault
//! knobs do exactly what they say: zero-rate knobs draw nothing, armed
//! knobs fire within statistical reach of their basis-point rates, and a
//! partition window really black-holes everything it covers.
//!
//! `Network` keeps its links in a dense table and its knobs' chances
//! precomputed; [`MapNetwork`] is the model as it was before — links in a
//! `BTreeMap` keyed by the directed pair, chances derived per message —
//! kept here as the reference the dense one must match message by message.
#![recursion_limit = "1024"]

use bionic_cluster::{Delivery, NetConfig, NetStats, Network};
use bionic_sim::rng::SplitMix64;
use bionic_sim::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The `BTreeMap`-keyed network: per directed pair, the link's substream
/// and the messages its open partition window still swallows.
struct MapNetwork {
    cfg: NetConfig,
    links: BTreeMap<(u32, u32), (SplitMix64, u32)>,
    stats: NetStats,
}

impl MapNetwork {
    fn new(cfg: NetConfig) -> Self {
        MapNetwork {
            cfg,
            links: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    fn send(&mut self, from: u32, to: u32, now: SimTime) -> Delivery {
        self.stats.sent += 1;
        let cfg = self.cfg.clone();
        let (rng, part_left) = self.links.entry((from, to)).or_insert_with(|| {
            let key = ((from as u64) << 32) | to as u64;
            (
                SplitMix64::new(cfg.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                0,
            )
        });
        if cfg.part_bp > 0 {
            if *part_left > 0 {
                *part_left -= 1;
                self.stats.partitioned += 1;
                return Delivery::Dropped;
            }
            if rng.chance(cfg.part_bp as f64 / 1e4) {
                *part_left = cfg.part_msgs.saturating_sub(1);
                self.stats.partitions += 1;
                self.stats.partitioned += 1;
                return Delivery::Dropped;
            }
        }
        if cfg.drop_bp > 0 && rng.chance(cfg.drop_bp as f64 / 1e4) {
            self.stats.dropped += 1;
            return Delivery::Dropped;
        }
        let dup = cfg.dup_bp > 0 && rng.chance(cfg.dup_bp as f64 / 1e4);
        let delayed = cfg.delay_bp > 0 && rng.chance(cfg.delay_bp as f64 / 1e4);
        let mut latency = cfg.base;
        if delayed {
            latency += cfg.delay_extra;
            self.stats.delayed += 1;
        }
        if !cfg.jitter.is_zero() {
            latency += SimTime::from_ps(rng.below(cfg.jitter.as_ps() + 1));
        }
        self.stats.delivered += 1;
        self.stats.duplicated += u64::from(dup);
        Delivery::Delivered {
            at: now + latency,
            dup,
        }
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every knob armed, jitter on, traffic over random directed pairs of up
    // to six nodes in random order (so the dense table grows mid-run): the
    // dense network delivers exactly what the `BTreeMap` one does.
    #[test]
    fn dense_links_match_the_map_keyed_network(
        seed in any::<u64>(),
        rates in (1u32..4_000, 1u32..4_000, 1u32..4_000, 1u32..1_500),
        part_msgs in 0u32..10,
        jitter_ns in 1u64..20_000,
        traffic in prop::collection::vec((0u32..6, 0u32..6, 0u64..50_000), 1..400),
    ) {
        let (drop, dup, delay, part) = rates;
        let mut cfg = NetConfig::healthy(seed).with_rates(drop, dup, delay, part);
        cfg.part_msgs = part_msgs;
        cfg.jitter = SimTime::from_ns(jitter_ns as f64);
        let mut dense = Network::new(cfg.clone());
        let mut map = MapNetwork::new(cfg);
        let mut now = SimTime::ZERO;
        for (i, &(from, to, gap_ns)) in traffic.iter().enumerate() {
            now += SimTime::from_ns(gap_ns as f64);
            prop_assert_eq!(
                dense.send(from, to, now),
                map.send(from, to, now),
                "message {} from {} to {}", i, from, to
            );
        }
        prop_assert_eq!(dense.stats, map.stats);
    }
}
