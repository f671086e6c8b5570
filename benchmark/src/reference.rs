//! The host-speed reference: two fixed pieces of work, independent of the
//! repository's code, sampled beside every timed block.
//!
//! On a shared machine the same code runs up to 1.8× slower for seconds or
//! minutes at a time (a neighbour on the sibling hardware thread, a
//! neighbour's cache traffic), so whole runs differ by tens of percent and no
//! order statistic *within* a run can repair that. Dividing a block's time by
//! how much slower than nominal the reference ran right beside it cancels
//! most of the machine's state of the moment.
//!
//! Interference has more than one dimension, and code differs in how much
//! each one slows it. The reference therefore samples two kernels — ordered-
//! map probes from the standard library over a 5 MB tree that lives in the
//! shared cache (`cache`) and over a 64 KB tree that lives in the core's own
//! (`core`) — and a workload states how far its slowdown follows the first
//! (its *cache weight*: 0.8 for the two workloads whose population is far
//! larger than the caches, 0.6 for the two whose population fits them). Real
//! code slows more than pointer chasing does, by a quarter over the range
//! seen (`ELASTICITY`). `README.md` has the runs these three numbers were
//! read from, and what the spread is without them.
//!
//! A change to the repository cannot move the reference: the `cache` kernel
//! runs its probe sequence twice and times the second pass, so what the
//! block before it left in the caches is not in the sample.

use std::collections::BTreeMap;
use std::time::Instant;

/// One sample of the host's speed: what each kernel took, ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// The shared-cache kernel.
    pub cache_ns: f64,
    /// The core-local kernel.
    pub core_ns: f64,
    /// The cache weight of the workload the sample was taken for.
    cache_weight: f64,
}

impl HostSpeed {
    /// What the `cache` kernel takes on the reference host (2 vCPU) when
    /// that host is quiet, ns.
    pub const CACHE_NOMINAL_NS: f64 = 600_000.0;
    /// What the `core` kernel takes there, ns.
    pub const CORE_NOMINAL_NS: f64 = 450_000.0;
    /// By what power a workload slows when the kernels' weighted geometric
    /// mean slows by one.
    pub const ELASTICITY: f64 = 1.25;

    /// How much slower than on the quiet reference host the workload ran.
    /// Host times are reported in that host's nanoseconds, `wall ns ÷
    /// slowdown`.
    pub fn slowdown(self) -> f64 {
        let w = self.cache_weight;
        let kernels = (self.cache_ns / Self::CACHE_NOMINAL_NS).powf(w)
            * (self.core_ns / Self::CORE_NOMINAL_NS).powf(1.0 - w);
        kernels.powf(Self::ELASTICITY)
    }

    /// The speed over a stretch that began at `self` and ended at `end`.
    pub fn until(self, end: HostSpeed) -> HostSpeed {
        HostSpeed {
            cache_ns: (self.cache_ns + end.cache_ns) / 2.0,
            core_ns: (self.core_ns + end.core_ns) / 2.0,
            cache_weight: self.cache_weight,
        }
    }
}

/// The reference workload.
pub struct Reference {
    cache: BTreeMap<u64, u64>,
    core: BTreeMap<u64, u64>,
    state: u64,
    cache_weight: f64,
}

const KEY_SPACE: u64 = 1_000_000;

/// `probes` pseudo-random range probes of `map` starting from `state`: the
/// wall ns they took and the generator's state after them.
fn probe(map: &BTreeMap<u64, u64>, probes: usize, state: u64) -> (f64, u64) {
    let t = Instant::now();
    let mut x = state;
    let mut acc = 0u64;
    for _ in 0..probes {
        x = xorshift(x);
        if let Some((k, v)) = map.range(x % KEY_SPACE..).next() {
            acc = acc.wrapping_add(*k ^ *v);
        }
    }
    std::hint::black_box(acc);
    (t.elapsed().as_nanos() as f64, x)
}

impl Reference {
    /// Build the two maps (fixed pseudo-random key sequences): 200 000 keys,
    /// about 5 MB of nodes, and 2 000 keys, about 64 KB. `cache_weight` is
    /// the workload's ([`crate::run::Workload::cache_weight`]).
    pub fn new(cache_weight: f64) -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut build = |keys: u64| {
            let mut map = BTreeMap::new();
            for i in 0..keys {
                s = xorshift(s);
                map.insert(s % KEY_SPACE, i);
            }
            map
        };
        Reference {
            cache: build(200_000),
            core: build(2_000),
            state: 88_172_645_463_325_252,
            cache_weight,
        }
    }

    /// Run the reference once: 4 000 probes of the large tree twice over
    /// (the first pass, untimed, brings the nodes the second will touch back
    /// from wherever the block before left them), then 8 000 probes of the
    /// small one.
    pub fn sample(&mut self) -> HostSpeed {
        probe(&self.cache, 4_000, self.state);
        let (cache_ns, _) = probe(&self.cache, 4_000, self.state);
        let (core_ns, state) = probe(&self.core, 8_000, self.state);
        self.state = state;
        HostSpeed {
            cache_ns,
            core_ns,
            cache_weight: self.cache_weight,
        }
    }

    /// The component-wise median of three samples in a row: for the ends of
    /// a stretch so long, or so few in a run, that one sample's own noise
    /// would show (a set-up, a whole `run_hybrid` call).
    pub fn settled(&mut self) -> HostSpeed {
        let s = [self.sample(), self.sample(), self.sample()];
        let mid = |f: fn(&HostSpeed) -> f64| {
            let mut v = s.map(|x| f(&x));
            v.sort_by(f64::total_cmp);
            v[1]
        };
        HostSpeed {
            cache_ns: mid(|x| x.cache_ns),
            core_ns: mid(|x| x.core_ns),
            cache_weight: self.cache_weight,
        }
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
