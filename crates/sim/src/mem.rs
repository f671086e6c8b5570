//! Memory models: the host cache hierarchy and the FPGA's SG-DRAM.
//!
//! §3 of the paper blames OLTP's "death by a thousand paper cuts" on
//! fine-grained memory latencies that general-purpose hardware can't hide.
//! [`CacheHierarchy`] reproduces those paper cuts with per-access-class hit
//! ratios; [`SgDram`] reproduces the Convey scatter-gather memory that makes
//! pointer chasing *schedulable*: fixed 400 ns latency, massive request
//! parallelism, no cache to miss.

use crate::energy::{Energy, EnergyMeter};
use crate::rng::SplitMix64;
use crate::server::PipelinedUnit;
use crate::time::SimTime;

/// Locality class of a memory access, used to pick hit probabilities.
///
/// The classes correspond to the access patterns §5 discusses: hot metadata
/// that lives in L1, index inner nodes with mid-hierarchy locality, the
/// pointer-chasing tail (leaves, records, log tails), and hardware-prefetched
/// sequential scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Hot, tiny working set: queue heads, partition descriptors, latches.
    Hot,
    /// B+tree inner nodes: cache-resident for upper levels.
    Index,
    /// Random leaf/record/log accesses — the classic OLTP pointer chase.
    PointerChase,
    /// Sequential scans with effective prefetching.
    Sequential,
}

impl AccessClass {
    /// All classes, for table-driven tests and reports.
    pub const ALL: [AccessClass; 4] = [
        AccessClass::Hot,
        AccessClass::Index,
        AccessClass::PointerChase,
        AccessClass::Sequential,
    ];

    /// Short stable label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::Hot => "hot",
            AccessClass::Index => "index",
            AccessClass::PointerChase => "pointer-chase",
            AccessClass::Sequential => "sequential",
        }
    }
}

/// Per-level timing/energy plus hit probabilities per access class.
#[derive(Debug, Clone)]
pub struct CacheHierarchyConfig {
    /// Latency of L1/L2/L3 hits and DRAM, in order.
    pub level_latency: [SimTime; 4],
    /// Energy of one access served at each level (64 B line granularity).
    pub level_energy: [Energy; 4],
    /// `hit_prob[class][level]` for L1..L3; the DRAM probability is the
    /// remainder. Probabilities are *conditional on reaching the level*? No:
    /// they are absolute shares and must sum to ≤ 1 per class.
    pub hit_prob: [[f64; 3]; 4],
}

impl CacheHierarchyConfig {
    /// A 2011-class Xeon, matching the platform of Figure 2 and the cache
    /// behaviour reported for OLTP by Ailamaki et al. \[1\]: indexes thrash
    /// the mid-hierarchy, record accesses mostly miss to DRAM.
    pub fn xeon_oltp() -> Self {
        CacheHierarchyConfig {
            level_latency: [
                SimTime::from_ns(1.2),
                SimTime::from_ns(4.0),
                SimTime::from_ns(16.0),
                SimTime::from_ns(100.0),
            ],
            level_energy: [
                Energy::from_nj(0.05),
                Energy::from_nj(0.2),
                Energy::from_nj(0.6),
                Energy::from_nj(20.0),
            ],
            hit_prob: [
                // Hot: essentially L1-resident.
                [0.95, 0.04, 0.009],
                // Index: upper tree levels cache well, lower don't.
                [0.10, 0.30, 0.40],
                // PointerChase: mostly DRAM.
                [0.05, 0.10, 0.15],
                // Sequential: prefetchers hide most of the hierarchy.
                [0.60, 0.25, 0.10],
            ],
        }
    }
}

fn class_index(c: AccessClass) -> usize {
    match c {
        AccessClass::Hot => 0,
        AccessClass::Index => 1,
        AccessClass::PointerChase => 2,
        AccessClass::Sequential => 3,
    }
}

/// `⌈c·2⁵³⌉`: the smallest 53-bit draw `m` with `m·2⁻⁵³ ≥ c` (0 for
/// `c ≤ 0`). Scaling by a power of two and `ceil` are exact in f64.
fn draw_threshold(c: f64) -> u64 {
    (c * (1u64 << 53) as f64).ceil() as u64
}

/// A probabilistic host cache hierarchy with deterministic randomness.
///
/// Each access draws `x` uniform in `[0, 1)` and is served by the first
/// level `j` with `x < c_j`, where `c_j = p_0 + … + p_j` of its class
/// (DRAM when there is none). The draw is taken as the integer `m` with
/// `x = m·2⁻⁵³` and compared against precomputed integer thresholds, which
/// decides exactly what the float comparison would (DESIGN.md
/// "Timing-model decisions").
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cfg: CacheHierarchyConfig,
    /// `thresholds[class][j] = max over k ≤ j of ⌈c_k·2⁵³⌉`: non-decreasing,
    /// so the number of thresholds a draw reaches is its first-match level.
    thresholds: [[u64; 3]; 4],
    latency_ps: [u64; 4],
    /// Energy of an access served at each level, split by domain: a level
    /// adds `+0.0` to the domain it does not charge.
    cache_energy: [f64; 4],
    dram_energy: [f64; 4],
    rng: SplitMix64,
    hits: [[u64; 4]; 4], // [class][level]
}

impl CacheHierarchy {
    /// Build a hierarchy from a config and RNG seed.
    pub fn new(cfg: CacheHierarchyConfig, seed: u64) -> Self {
        for class in &cfg.hit_prob {
            let s: f64 = class.iter().sum();
            assert!(s <= 1.0 + 1e-9, "hit probabilities exceed 1: {s}");
        }
        let thresholds = cfg.hit_prob.map(|[p0, p1, p2]| {
            let t0 = draw_threshold(p0);
            let t1 = t0.max(draw_threshold(p0 + p1));
            [t0, t1, t1.max(draw_threshold(p0 + p1 + p2))]
        });
        let e = cfg.level_energy.map(Energy::as_j);
        CacheHierarchy {
            thresholds,
            latency_ps: cfg.level_latency.map(SimTime::as_ps),
            cache_energy: [e[0], e[1], e[2], 0.0],
            dram_energy: [0.0, 0.0, 0.0, e[3]],
            cfg,
            rng: SplitMix64::new(seed),
            hits: [[0; 4]; 4],
        }
    }

    /// The default OLTP-tuned hierarchy.
    pub fn xeon_oltp(seed: u64) -> Self {
        Self::new(CacheHierarchyConfig::xeon_oltp(), seed)
    }

    /// Model `n` accesses of one class: returns their summed stall time and
    /// adds each access's energy to `meter`'s Cache or Dram domain (DRAM
    /// hits only to Dram), one access at a time in draw order.
    pub fn access_run(&mut self, class: AccessClass, n: u64, meter: &mut EnergyMeter) -> SimTime {
        let ci = class_index(class);
        let [t0, t1, t2] = self.thresholds[ci];
        let (cache_acc, dram_acc) = meter.cache_and_dram_mut();
        let (mut cache, mut dram) = (*cache_acc, *dram_acc);
        let mut reached = [0u64; 3];
        for _ in 0..n {
            let m = self.rng.next_u64() >> 11;
            let r = [(m >= t0) as u64, (m >= t1) as u64, (m >= t2) as u64];
            let li = (r[0] + r[1] + r[2]) as usize;
            reached = [reached[0] + r[0], reached[1] + r[1], reached[2] + r[2]];
            // `x + 0.0` is `x` bit for bit for every `x` but −0.0, which a
            // meter that starts at +0.0 never holds.
            cache += self.cache_energy[li];
            dram += self.dram_energy[li];
        }
        (*cache_acc, *dram_acc) = (cache, dram);
        let counts = [
            n - reached[0],
            reached[0] - reached[1],
            reached[1] - reached[2],
            reached[2],
        ];
        let mut ps = 0;
        for (l, count) in counts.into_iter().enumerate() {
            self.hits[ci][l] += count;
            ps += count * self.latency_ps[l];
        }
        SimTime::from_ps(ps)
    }

    /// The model's draw stream, positioned at its next draw — for replay
    /// and differential tests.
    pub fn rng(&self) -> &SplitMix64 {
        &self.rng
    }

    /// Expected (mean) latency of one access of `class` — the analytic value
    /// the probabilistic model converges to.
    pub fn expected_latency(&self, class: AccessClass) -> SimTime {
        let ci = class_index(class);
        let p = self.cfg.hit_prob[ci];
        let p_dram = (1.0 - p.iter().sum::<f64>()).max(0.0);
        let mut ns = 0.0;
        for (prob, lat) in p.iter().zip(&self.cfg.level_latency) {
            ns += prob * lat.as_ns();
        }
        ns += p_dram * self.cfg.level_latency[3].as_ns();
        SimTime::from_ns(ns)
    }

    /// Observed hit counts `[L1, L2, L3, DRAM]` for a class.
    pub fn hit_counts(&self, class: AccessClass) -> [u64; 4] {
        self.hits[class_index(class)]
    }
}

/// The FPGA-side scatter-gather DRAM of Figure 2: 80 GB/s of random 64-bit
/// requests at a flat 400 ns, uncached.
///
/// Modeled as a very deep pipeline: the initiation interval enforces the
/// bandwidth limit, the depth (4096 in the HC-2 preset) reflects the
/// controllers' reorder capacity, and the flat latency is what makes the
/// paper's asynchronous-offload scheduling argument work.
#[derive(Debug, Clone)]
pub struct SgDram {
    unit: PipelinedUnit,
    request_bytes: u64,
    energy_per_access: Energy,
    accesses: u64,
}

impl SgDram {
    /// Build an SG-DRAM model.
    pub fn new(
        bytes_per_sec: f64,
        latency: SimTime,
        request_bytes: u64,
        depth: usize,
        energy_per_access: Energy,
    ) -> Self {
        let ii = SimTime::from_secs(request_bytes as f64 / bytes_per_sec);
        SgDram {
            unit: PipelinedUnit::new(latency, ii, depth),
            request_bytes,
            energy_per_access,
            accesses: 0,
        }
    }

    /// The HC-2 preset: 80 GB/s, 400 ns, 8-byte requests. Energy per access
    /// (~2 nJ) is scaled from DRAM line-access energy to the 64-bit request
    /// size, with no cache hierarchy in front to add SRAM costs.
    pub fn hc2() -> Self {
        SgDram::new(80e9, SimTime::from_ns(400.0), 8, 4096, Energy::from_nj(2.0))
    }

    /// Issue one random access at `arrive`; returns completion and energy.
    ///
    /// Accesses must be submitted in non-decreasing arrival order — the
    /// pipelined model serializes issue order. Units that interleave many
    /// dependent chains (e.g. the tree-probe engine) should instead compute
    /// chain latency from [`SgDram::latency`] and account consumption with
    /// [`SgDram::charge_accesses`].
    pub fn access(&mut self, arrive: SimTime) -> (SimTime, Energy) {
        self.accesses += 1;
        (self.unit.submit(arrive), self.energy_per_access)
    }

    /// Account for `n` accesses performed by a unit that models its own
    /// timing: bumps counters and returns the energy, without engaging the
    /// pipeline. Probe-scale consumers use a few MB/s of an 80 GB/s part, so
    /// forgoing bandwidth contention here is a documented simplification.
    pub fn charge_accesses(&mut self, n: u64) -> Energy {
        self.accesses += n;
        self.energy_per_access * n
    }

    /// Fixed access latency (uncontended).
    pub fn latency(&self) -> SimTime {
        self.unit.latency()
    }

    /// Bytes per request.
    pub fn request_bytes(&self) -> u64 {
        self.request_bytes
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_latency_converges_to_expectation() {
        let mut h = CacheHierarchy::xeon_oltp(1);
        let n = 200_000;
        let t = h.access_run(AccessClass::PointerChase, n, &mut EnergyMeter::new());
        let mean = t.as_ns() / n as f64;
        let expect = h.expected_latency(AccessClass::PointerChase).as_ns();
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean={mean} expect={expect}"
        );
    }

    #[test]
    fn hot_is_much_cheaper_than_pointer_chase() {
        let h = CacheHierarchy::xeon_oltp(2);
        let hot = h.expected_latency(AccessClass::Hot).as_ns();
        let chase = h.expected_latency(AccessClass::PointerChase).as_ns();
        assert!(chase > 20.0 * hot, "hot={hot} chase={chase}");
    }

    #[test]
    fn hit_counters_track_accesses() {
        let mut h = CacheHierarchy::xeon_oltp(3);
        h.access_run(AccessClass::Index, 1000, &mut EnergyMeter::new());
        let counts = h.hit_counts(AccessClass::Index);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        // Index class: some DRAM misses should occur (p=0.2).
        assert!(counts[3] > 100 && counts[3] < 320, "{counts:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = CacheHierarchy::xeon_oltp(42);
        let mut b = CacheHierarchy::xeon_oltp(42);
        let (mut ma, mut mb) = (EnergyMeter::new(), EnergyMeter::new());
        let ta = a.access_run(AccessClass::PointerChase, 1000, &mut ma);
        let tb = b.access_run(AccessClass::PointerChase, 1000, &mut mb);
        assert_eq!(ta, tb);
        assert_eq!(ma.total(), mb.total());
    }

    #[test]
    #[should_panic(expected = "hit probabilities exceed 1")]
    fn invalid_probabilities_rejected() {
        let mut cfg = CacheHierarchyConfig::xeon_oltp();
        cfg.hit_prob[0] = [0.9, 0.2, 0.2];
        CacheHierarchy::new(cfg, 0);
    }

    #[test]
    fn sgdram_flat_latency_when_idle() {
        let mut m = SgDram::hc2();
        let (done, _) = m.access(SimTime::ZERO);
        assert_eq!(done.as_ns(), 400.0);
    }

    #[test]
    fn sgdram_sustains_configured_bandwidth() {
        // 10_000 random 8B accesses back to back: bandwidth-limited at
        // 80 GB/s -> 0.1 ns apart -> last completes ~400ns + 1us.
        let mut m = SgDram::hc2();
        let mut done = SimTime::ZERO;
        let n = 10_000u64;
        for _ in 0..n {
            let (d, _) = m.access(SimTime::ZERO);
            done = d;
        }
        let achieved = (n * 8) as f64 / done.as_secs();
        assert!(achieved > 0.5 * 80e9, "achieved={achieved:.3e}");
        assert_eq!(m.accesses(), n);
    }

    #[test]
    fn sgdram_pointer_chase_needs_concurrency_not_locality() {
        // A dependent chain (each access issued after the previous returns)
        // runs at 1/400ns; twelve independent chains interleaved run ~12x
        // faster — the §5.3 "dozen outstanding requests" claim.
        let chain_len = 100u64;

        let mut serial = SgDram::hc2();
        let mut t = SimTime::ZERO;
        for _ in 0..chain_len {
            let (d, _) = serial.access(t);
            t = d;
        }
        let serial_done = t;

        let mut pipelined = SgDram::hc2();
        let chains = 12usize;
        let mut ts = vec![SimTime::ZERO; chains];
        for _ in 0..chain_len {
            for t in ts.iter_mut() {
                let (d, _) = pipelined.access(*t);
                *t = d;
            }
        }
        let parallel_done = ts.iter().copied().max().unwrap();

        let serial_rate = chain_len as f64 / serial_done.as_secs();
        let parallel_rate = (chain_len as f64 * chains as f64) / parallel_done.as_secs();
        let speedup = parallel_rate / serial_rate;
        assert!(
            speedup > 10.0 && speedup < 13.0,
            "speedup={speedup} (expected ~12)"
        );
    }
}
