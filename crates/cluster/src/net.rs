//! The deterministic cluster interconnect.
//!
//! Every message between two nodes crosses one directed *link*. A link is
//! a latency model plus an injectable fault model, and both are driven by
//! a per-link [`SplitMix64`] substream derived from the network seed and
//! the link's endpoints — so a link's behavior depends only on the seed
//! and the sequence of messages *it* carried, never on what other links
//! did or on host scheduling. That is what makes cluster runs
//! byte-identical at any `--jobs` setting.
//!
//! Faults are rates in basis points with the same zero-draw contract the
//! chaos and hardware fault layers follow: **a knob at zero consumes no
//! randomness**, so an unarmed network prices messages identically to a
//! build where the fault model does not exist. The per-message draw
//! order is fixed and documented: partition gate, then drop, then
//! duplicate, then delay, then jitter — each drawn only when armed.

use bionic_sim::rng::SplitMix64;
use bionic_sim::time::SimTime;

/// Interconnect parameters. All rates are basis points (1 bp = 0.01 %),
/// clamped to 10 000; all times are sim-time picoseconds underneath.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Seed for the per-link fault substreams.
    pub seed: u64,
    /// One-way base latency per message.
    pub base: SimTime,
    /// Uniform extra latency in `0..=jitter` (drawn only when non-zero).
    pub jitter: SimTime,
    /// Chance a message is silently lost.
    pub drop_bp: u32,
    /// Chance a message is delivered twice.
    pub dup_bp: u32,
    /// Chance a message is delayed by `delay_extra` on top of its latency.
    pub delay_bp: u32,
    /// Extra latency charged to a delayed message.
    pub delay_extra: SimTime,
    /// Chance a link partitions; while partitioned it black-holes the
    /// next [`NetConfig::part_msgs`] messages it is asked to carry.
    pub part_bp: u32,
    /// Partition width, in messages observed on the link.
    pub part_msgs: u32,
}

impl NetConfig {
    /// A healthy interconnect: 5 µs links, no jitter, every fault knob at
    /// zero — the configuration whose message handling draws no
    /// randomness at all.
    pub fn healthy(seed: u64) -> Self {
        NetConfig {
            seed,
            base: SimTime::from_us(5.0),
            jitter: SimTime::ZERO,
            drop_bp: 0,
            dup_bp: 0,
            delay_bp: 0,
            delay_extra: SimTime::from_us(40.0),
            part_bp: 0,
            part_msgs: 6,
        }
    }

    /// Arm the fault knobs from the chaos plan's network rates
    /// (`net_drop`/`net_dup`/`net_delay`/`net_part`, basis points).
    pub fn with_rates(mut self, drop_bp: u32, dup_bp: u32, delay_bp: u32, part_bp: u32) -> Self {
        self.drop_bp = drop_bp.min(10_000);
        self.dup_bp = dup_bp.min(10_000);
        self.delay_bp = delay_bp.min(10_000);
        self.part_bp = part_bp.min(10_000);
        self
    }

    /// Is any fault knob armed?
    pub fn armed(&self) -> bool {
        self.drop_bp | self.dup_bp | self.delay_bp | self.part_bp != 0
    }
}

/// What happened to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered at `at`; `dup` means a second copy arrives one
    /// microsecond later and the receiver must deduplicate.
    Delivered {
        /// Arrival time of the first copy.
        at: SimTime,
        /// A duplicate copy follows.
        dup: bool,
    },
    /// Lost — dropped by the fault model or black-holed by a partition.
    Dropped,
}

/// Message counters, all deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages that arrived (first copies).
    pub delivered: u64,
    /// Messages lost to the drop knob.
    pub dropped: u64,
    /// Messages lost to a partition window.
    pub partitioned: u64,
    /// Duplicate copies generated.
    pub duplicated: u64,
    /// Messages that took the delay penalty.
    pub delayed: u64,
    /// Partition windows opened.
    pub partitions: u64,
}

struct Link {
    rng: SplitMix64,
    part_left: u32,
}

impl Link {
    /// The link `from → to`'s own substream: the directed pair is mixed
    /// into the seed, so (0,1) and (1,0) are independent streams.
    fn seeded(seed: u64, from: u32, to: u32) -> Link {
        let key = ((from as u64) << 32) | to as u64;
        Link {
            rng: SplitMix64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            part_left: 0,
        }
    }
}

/// Endpoints are node indices below this bound, which caps the dense link
/// table at `MAX_ENDPOINTS²` slots (about 25 MB).
const MAX_ENDPOINTS: usize = 1024;

/// Directed links in a dense `side × side` table, row `from`, column `to`,
/// grown to cover the largest endpoint seen; a link is created and seeded
/// on its first message.
#[derive(Default)]
struct Links {
    table: Vec<Option<Link>>,
    side: usize,
}

impl Links {
    fn get(&mut self, seed: u64, from: u32, to: u32) -> &mut Link {
        let (f, t) = (from as usize, to as usize);
        if f.max(t) >= self.side {
            let side = f.max(t) + 1;
            assert!(
                side <= MAX_ENDPOINTS,
                "link {from} -> {to}: endpoints are node indices below {MAX_ENDPOINTS}"
            );
            let mut table: Vec<Option<Link>> = (0..side * side).map(|_| None).collect();
            for (i, link) in self.table.drain(..).enumerate() {
                table[i / self.side * side + i % self.side] = link;
            }
            *self = Links { table, side };
        }
        self.table[f * self.side + t].get_or_insert_with(|| Link::seeded(seed, from, to))
    }
}

/// The knobs' chances as probabilities, computed once per network.
struct Chances {
    part: f64,
    drop: f64,
    dup: f64,
    delay: f64,
}

/// The interconnect: per-directed-link state lazily created on first use,
/// each link seeded independently of every other. Endpoints are node
/// indices below 1024: the link table is dense, quadratic in the largest.
pub struct Network {
    cfg: NetConfig,
    chances: Chances,
    links: Links,
    /// Counters.
    pub stats: NetStats,
}

impl Network {
    /// A network with the given parameters.
    pub fn new(cfg: NetConfig) -> Self {
        let chance = |bp: u32| bp as f64 / 1e4;
        Network {
            chances: Chances {
                part: chance(cfg.part_bp),
                drop: chance(cfg.drop_bp),
                dup: chance(cfg.dup_bp),
                delay: chance(cfg.delay_bp),
            },
            cfg,
            links: Links::default(),
            stats: NetStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Carry one message from `from` to `to`, handed to the NIC at `now`.
    ///
    /// Fixed draw order — partition gate, drop, duplicate, delay, jitter —
    /// with every draw skipped while its knob is zero, so the healthy
    /// configuration never touches the link's RNG.
    ///
    /// Panics if `from` or `to` is 1024 or more.
    pub fn send(&mut self, from: u32, to: u32, now: SimTime) -> Delivery {
        self.stats.sent += 1;
        let (cfg, chances, stats) = (&self.cfg, &self.chances, &mut self.stats);
        let link = self.links.get(cfg.seed, from, to);

        if cfg.part_bp > 0 {
            if link.part_left > 0 {
                link.part_left -= 1;
                stats.partitioned += 1;
                return Delivery::Dropped;
            }
            if link.rng.chance(chances.part) {
                // The window swallows this message and the next part_msgs-1.
                link.part_left = cfg.part_msgs.saturating_sub(1);
                stats.partitions += 1;
                stats.partitioned += 1;
                return Delivery::Dropped;
            }
        }
        if cfg.drop_bp > 0 && link.rng.chance(chances.drop) {
            stats.dropped += 1;
            return Delivery::Dropped;
        }
        let dup = cfg.dup_bp > 0 && link.rng.chance(chances.dup);
        let delayed = cfg.delay_bp > 0 && link.rng.chance(chances.delay);
        let mut latency = cfg.base;
        if delayed {
            latency += cfg.delay_extra;
        }
        if !cfg.jitter.is_zero() {
            latency += SimTime::from_ps(link.rng.below(cfg.jitter.as_ps() + 1));
        }
        if delayed {
            stats.delayed += 1;
        }
        stats.delivered += 1;
        if dup {
            stats.duplicated += 1;
        }
        Delivery::Delivered {
            at: now + latency,
            dup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: NetConfig, msgs: u32) -> (Vec<Delivery>, NetStats) {
        let mut net = Network::new(cfg);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        for i in 0..msgs {
            out.push(net.send(i % 3, (i + 1) % 3, t));
            t += SimTime::from_us(10.0);
        }
        (out, net.stats)
    }

    #[test]
    fn healthy_network_is_pure_latency() {
        let (deliveries, stats) = run(NetConfig::healthy(7), 100);
        assert_eq!(stats.delivered, 100);
        assert_eq!(
            stats.dropped + stats.duplicated + stats.delayed + stats.partitioned,
            0
        );
        for (i, d) in deliveries.iter().enumerate() {
            let sent = SimTime::from_us(10.0 * i as f64);
            assert_eq!(
                *d,
                Delivery::Delivered {
                    at: sent + SimTime::from_us(5.0),
                    dup: false
                }
            );
        }
    }

    #[test]
    fn same_seed_same_delivery_schedule() {
        let cfg = NetConfig::healthy(42).with_rates(1_500, 800, 1_000, 400);
        assert_eq!(run(cfg.clone(), 400), run(cfg, 400));
    }

    #[test]
    fn links_are_independent_substreams() {
        // Interleaving traffic on another link must not change what link
        // (0,1) does — the property that keeps parallel runs byte-stable.
        let cfg = NetConfig::healthy(42).with_rates(2_000, 1_000, 1_000, 500);
        let solo: Vec<Delivery> = {
            let mut net = Network::new(cfg.clone());
            (0..200)
                .map(|i| net.send(0, 1, SimTime::from_us(i as f64)))
                .collect()
        };
        let interleaved: Vec<Delivery> = {
            let mut net = Network::new(cfg);
            (0..200)
                .map(|i| {
                    let _ = net.send(2, 3, SimTime::from_us(i as f64));
                    net.send(0, 1, SimTime::from_us(i as f64))
                })
                .collect()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn the_highest_endpoint_is_accepted() {
        let mut net = Network::new(NetConfig::healthy(3));
        let last = MAX_ENDPOINTS as u32 - 1;
        assert!(matches!(
            net.send(last, 0, SimTime::ZERO),
            Delivery::Delivered { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "endpoints are node indices below 1024")]
    fn an_endpoint_past_the_bound_panics() {
        let mut net = Network::new(NetConfig::healthy(3));
        let _ = net.send(0, MAX_ENDPOINTS as u32, SimTime::ZERO);
    }

    #[test]
    fn partition_black_holes_a_window_of_messages() {
        let mut cfg = NetConfig::healthy(1).with_rates(0, 0, 0, 10_000);
        cfg.part_msgs = 4;
        let mut net = Network::new(cfg);
        // 100% partition rate: first message opens the window, the window
        // swallows it plus the next three, then the next message re-opens.
        for i in 0..8 {
            let d = net.send(0, 1, SimTime::from_us(i as f64));
            assert_eq!(d, Delivery::Dropped, "msg {i}");
        }
        assert_eq!(net.stats.partitions, 2);
        assert_eq!(net.stats.partitioned, 8);
        assert_eq!(net.stats.delivered, 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let cfg = NetConfig::healthy(99).with_rates(2_000, 1_000, 1_500, 0);
        let (_, stats) = run(cfg, 4000);
        let frac = |n: u64| n as f64 / stats.sent as f64;
        assert!((0.15..0.25).contains(&frac(stats.dropped)), "{stats:?}");
        // Dup/delay are drawn on surviving messages only.
        assert!(
            (0.06..0.14).contains(&(stats.duplicated as f64 / stats.delivered as f64)),
            "{stats:?}"
        );
        assert!(
            (0.10..0.20).contains(&(stats.delayed as f64 / stats.delivered as f64)),
            "{stats:?}"
        );
    }
}
