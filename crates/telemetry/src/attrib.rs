//! Per-op-class latency and energy attribution, recorded at commit time.
//!
//! The paper's placement question — which ops belong on specialized
//! hardware — needs more than one global latency histogram: it needs to
//! know *which transaction class*, on *which offload path* (hardware hit,
//! hardware retry, software fallback, plain CPU), spent its time and
//! joules *where* (probing, waiting on the bandwidth arbiter, burning
//! watchdog retries, falling back, committing). This module is that
//! ledger:
//!
//! * [`OffloadPath`] — how a transaction's hardware offload actually went.
//! * [`TxnPathAcc`] — the per-transaction accumulator the engine keeps in
//!   its scratch: fixed arrays, `Copy`, reset per transaction, never
//!   allocating.
//! * [`Attribution`] — per `(class, path)` cells of latency and energy
//!   [`LogHistogram`]s plus critical-path segment sums. Recording is
//!   allocation-free after a class's first occurrence (classes are
//!   `&'static str` program names, a handful per workload); ledgers
//!   merge exactly.
//!
//! Energy is attributed in integer **picojoules**: the per-transaction
//! `f64` joule delta is converted once at record time, so merges add
//! integers and exports stay byte-identical at any `--jobs`.

use crate::histogram::LogHistogram;

/// Number of critical-path segments in [`TxnPathAcc`].
pub const SEGMENTS: usize = 6;
/// Segment index: index/tree probe service time.
pub const SEG_PROBE: usize = 0;
/// Segment index: SG-DRAM / PCIe-link arbiter queueing delay.
pub const SEG_ARBITER_WAIT: usize = 1;
/// Segment index: watchdog-priced hardware retry delay.
pub const SEG_RETRY: usize = 2;
/// Segment index: software-fallback execution after a hardware refusal.
pub const SEG_FALLBACK: usize = 3;
/// Segment index: log write + group-commit wait.
pub const SEG_COMMIT: usize = 4;
/// Segment index: everything else (buffer pool, locking, CPU compute).
pub const SEG_OTHER: usize = 5;

/// Display names for the six segments, in index order.
pub const SEGMENT_NAMES: [&str; SEGMENTS] = [
    "probe",
    "arbiter-wait",
    "watchdog-retry",
    "fallback",
    "commit",
    "other",
];

/// How a transaction's hardware offload went, judged over all of its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OffloadPath {
    /// No op attempted a hardware unit (software/CPU execution).
    Cpu,
    /// Every offloaded op ran on healthy hardware, first try.
    HwHit,
    /// At least one op paid a watchdog retry, but none fell back.
    HwRetry,
    /// At least one op was refused by hardware and ran in software.
    SwFallback,
}

/// All paths, in export order.
pub const PATHS: [OffloadPath; 4] = [
    OffloadPath::Cpu,
    OffloadPath::HwHit,
    OffloadPath::HwRetry,
    OffloadPath::SwFallback,
];

impl OffloadPath {
    /// Stable label used in CSV/JSON exports.
    pub fn label(&self) -> &'static str {
        match self {
            OffloadPath::Cpu => "cpu",
            OffloadPath::HwHit => "hw-hit",
            OffloadPath::HwRetry => "hw-retry",
            OffloadPath::SwFallback => "sw-fallback",
        }
    }

    /// Dense index into `[_; 4]` path arrays, matching [`PATHS`] order.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Per-transaction critical-path accumulator. Lives in the engine's
/// reusable scratch: plain `Copy` arrays and flags, reset between
/// transactions, so charging a segment costs an add and no allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxnPathAcc {
    /// Picoseconds charged to each segment so far (indexed by `SEG_*`).
    pub segs: [u64; SEGMENTS],
    /// Did any op attempt a hardware unit?
    pub offloaded: bool,
    /// Did any op pay a watchdog retry delay?
    pub retried: bool,
    /// Did any op fall back to software after a hardware refusal?
    pub fell_back: bool,
}

impl TxnPathAcc {
    /// Clear for the next transaction.
    #[inline]
    pub fn reset(&mut self) {
        *self = TxnPathAcc::default();
    }

    /// Charge `ps` picoseconds to segment `seg` (a `SEG_*` index).
    #[inline]
    pub fn charge(&mut self, seg: usize, ps: u64) {
        self.segs[seg] += ps;
    }

    /// Classify the transaction's offload path from the recorded flags.
    #[inline]
    pub fn path(&self) -> OffloadPath {
        if !self.offloaded {
            OffloadPath::Cpu
        } else if self.fell_back {
            OffloadPath::SwFallback
        } else if self.retried {
            OffloadPath::HwRetry
        } else {
            OffloadPath::HwHit
        }
    }
}

/// One `(class, path)` attribution cell: latency and energy histograms
/// plus the critical-path segment totals.
#[derive(Debug, Clone, Default)]
pub struct PathCell {
    /// Commit latency in picoseconds.
    pub latency_ps: LogHistogram,
    /// Per-transaction energy delta in picojoules.
    pub energy_pj: LogHistogram,
    /// Total picoseconds per critical-path segment (indexed by `SEG_*`).
    pub segments_ps: [u64; SEGMENTS],
}

impl PathCell {
    fn merge(&mut self, other: &PathCell) {
        self.latency_ps.merge(&other.latency_ps);
        self.energy_pj.merge(&other.energy_pj);
        for (a, b) in self.segments_ps.iter_mut().zip(&other.segments_ps) {
            *a += *b;
        }
    }

    fn is_empty(&self) -> bool {
        self.latency_ps.count() == 0
    }
}

struct ClassEntry {
    label: &'static str,
    cells: [PathCell; 4],
}

/// The commit-time attribution ledger: per transaction class (static
/// program name) × offload path, pre-bucketed latency/energy histograms
/// and segment sums. Recording allocates only the first time a class is
/// seen (during warmup); steady state is allocation-free.
#[derive(Default)]
pub struct Attribution {
    classes: Vec<ClassEntry>,
}

impl std::fmt::Debug for Attribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attribution")
            .field("classes", &self.classes.len())
            .finish()
    }
}

impl Attribution {
    /// An empty ledger.
    pub fn new() -> Self {
        Attribution {
            classes: Vec::new(),
        }
    }

    #[inline]
    fn entry(&mut self, label: &'static str) -> &mut ClassEntry {
        // Linear probe over a handful of static labels: cheaper and more
        // deterministic than hashing, and allocation only on first sight.
        if let Some(i) = self.classes.iter().position(|c| c.label == label) {
            &mut self.classes[i]
        } else {
            self.classes.push(ClassEntry {
                label,
                cells: Default::default(),
            });
            self.classes.last_mut().expect("just pushed")
        }
    }

    /// Record one committed transaction: latency in picoseconds, energy
    /// delta in picojoules, and the per-txn accumulator whose flags pick
    /// the offload path. Whatever latency the segments don't explain is
    /// charged to `SEG_OTHER`, so the decomposition always sums to the
    /// recorded latency.
    pub fn record(
        &mut self,
        label: &'static str,
        latency_ps: u64,
        energy_pj: u64,
        acc: &TxnPathAcc,
    ) {
        let path = acc.path();
        let cell = &mut self.entry(label).cells[path.idx()];
        cell.latency_ps.record(latency_ps);
        cell.energy_pj.record(energy_pj);
        let mut explained = 0u64;
        for (seg, &ps) in acc.segs.iter().enumerate() {
            cell.segments_ps[seg] += ps;
            if seg != SEG_OTHER {
                explained = explained.saturating_add(ps);
            }
        }
        cell.segments_ps[SEG_OTHER] += latency_ps.saturating_sub(explained);
    }

    /// Total committed transactions recorded, across all classes/paths.
    pub fn count(&self) -> u64 {
        self.classes
            .iter()
            .flat_map(|c| c.cells.iter())
            .map(|p| p.latency_ps.count())
            .sum()
    }

    /// Is the ledger empty?
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Drop all recorded state, keeping class capacity.
    pub fn reset(&mut self) {
        for c in &mut self.classes {
            c.cells = Default::default();
        }
    }

    /// Merge another ledger into this one.
    /// Exact: histograms add bucket-wise, segments add as integers, so
    /// merge order and grouping never change the result.
    pub fn merge(&mut self, other: &Attribution) {
        for oc in &other.classes {
            let entry = self.entry(oc.label);
            for (mine, theirs) in entry.cells.iter_mut().zip(&oc.cells) {
                mine.merge(theirs);
            }
        }
    }

    /// Committed-transaction counts per offload path, summed over all
    /// classes and indexed like [`PATHS`] — the retry/fallback rates the
    /// windowed snapshots export.
    pub fn path_counts(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for c in &self.classes {
            for (i, cell) in c.cells.iter().enumerate() {
                out[i] += cell.latency_ps.count();
            }
        }
        out
    }

    /// Occupied `(class, path, cell)` triples sorted by class label then
    /// path — the deterministic export walk, independent of the order
    /// classes were first seen (which can differ between merged ledgers).
    pub fn cells(&self) -> Vec<(&'static str, OffloadPath, &PathCell)> {
        let mut out: Vec<(&'static str, OffloadPath, &PathCell)> = Vec::new();
        for c in &self.classes {
            for path in PATHS {
                let cell = &c.cells[path.idx()];
                if !cell.is_empty() {
                    out.push((c.label, path, cell));
                }
            }
        }
        out.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        out
    }

    /// Render the ledger as a deterministic CSV: one row per occupied
    /// `(class, path)` cell, integer picosecond/picojoule values only.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "class,path,count,lat_mean_ps,lat_p50_ps,lat_p99_ps,lat_max_ps,energy_pj_mean,\
             probe_ps,arbiter_wait_ps,watchdog_retry_ps,fallback_ps,commit_ps,other_ps\n",
        );
        for (label, path, cell) in self.cells() {
            let lat = &cell.latency_ps;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}",
                label,
                path.label(),
                lat.count(),
                lat.mean(),
                lat.quantile(0.50),
                lat.quantile(0.99),
                lat.max(),
                cell.energy_pj.mean(),
            ));
            for ps in cell.segments_ps {
                out.push_str(&format!(",{ps}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(segs: [u64; SEGMENTS], offloaded: bool, retried: bool, fell_back: bool) -> TxnPathAcc {
        TxnPathAcc {
            segs,
            offloaded,
            retried,
            fell_back,
        }
    }

    #[test]
    fn path_classification_priority() {
        assert_eq!(acc([0; 6], false, false, false).path(), OffloadPath::Cpu);
        assert_eq!(acc([0; 6], true, false, false).path(), OffloadPath::HwHit);
        assert_eq!(acc([0; 6], true, true, false).path(), OffloadPath::HwRetry);
        assert_eq!(
            acc([0; 6], true, true, true).path(),
            OffloadPath::SwFallback,
            "fallback dominates retry"
        );
    }

    #[test]
    fn unexplained_latency_lands_in_other() {
        let mut a = Attribution::new();
        let mut t = TxnPathAcc {
            offloaded: true,
            ..TxnPathAcc::default()
        };
        t.charge(SEG_PROBE, 300);
        t.charge(SEG_COMMIT, 200);
        a.record("pay", 1000, 42, &t);
        let cells = a.cells();
        assert_eq!(cells.len(), 1);
        let (_, path, cell) = cells[0];
        assert_eq!(path, OffloadPath::HwHit);
        assert_eq!(cell.segments_ps[SEG_PROBE], 300);
        assert_eq!(cell.segments_ps[SEG_COMMIT], 200);
        assert_eq!(cell.segments_ps[SEG_OTHER], 500);
        assert_eq!(cell.segments_ps.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let t = acc([10, 0, 0, 0, 5, 0], true, false, false);
        let mut whole = Attribution::new();
        let mut left = Attribution::new();
        let mut right = Attribution::new();
        for i in 0..10u64 {
            whole.record("a", 100 + i, i, &t);
            if i < 4 {
                left.record("a", 100 + i, i, &t);
            } else {
                right.record("a", 100 + i, i, &t);
            }
        }
        // Seed the ledgers with different first-seen class orders.
        left.record("b", 7, 1, &TxnPathAcc::default());
        whole.record("b", 7, 1, &TxnPathAcc::default());
        let mut ab = Attribution::new();
        ab.merge(&left);
        ab.merge(&right);
        let mut ba = Attribution::new();
        ba.merge(&right);
        ba.merge(&left);
        assert_eq!(ab.to_csv(), whole.to_csv());
        assert_eq!(ba.to_csv(), whole.to_csv());
    }

    #[test]
    fn csv_is_sorted_by_class_then_path() {
        let mut a = Attribution::new();
        a.record("zeta", 10, 1, &acc([0; 6], true, false, false));
        a.record("alpha", 10, 1, &TxnPathAcc::default());
        a.record("alpha", 12, 1, &acc([0; 6], true, true, true));
        let csv = a.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("alpha,cpu,"));
        assert!(rows[1].starts_with("alpha,sw-fallback,"));
        assert!(rows[2].starts_with("zeta,hw-hit,"));
    }

    #[test]
    fn reset_clears_counts_but_keeps_classes() {
        let mut a = Attribution::new();
        a.record("x", 5, 0, &TxnPathAcc::default());
        assert_eq!(a.count(), 1);
        a.reset();
        assert!(a.is_empty());
        a.record("x", 5, 0, &TxnPathAcc::default());
        assert_eq!(a.count(), 1);
    }
}
