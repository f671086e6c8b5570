//! Windowed metric snapshots on a fixed sim-time grid.
//!
//! The adaptive-placement controller (ROADMAP item 4) needs to see the
//! system *per scheduling window*, not cumulatively: how many bytes the
//! arbiter granted this window, how many retries the watchdog priced,
//! whether a breaker opened. [`SnapshotHub`] is that feed. A driver calls
//! [`SnapshotHub::capture`] each time simulated time crosses a window
//! boundary, handing it the freshly collected [`MetricsRegistry`]; the
//! hub diffs every counter against the previous capture (gauges are
//! levels and pass through), labels the delta with the window's index and
//! bounds, and retains it for iteration ([`SnapshotHub::windows`]). The
//! hub writes no artifact of its own: the E13 `e13_windows` table is built
//! from `windows()` by the harness.
//!
//! Determinism: window bounds are [`SimTime`] picoseconds on the caller's
//! fixed grid, counter deltas are exact integers, and rows iterate in the
//! registry's `BTreeMap` order — so anything built from the windows is
//! byte-identical at any `--jobs` setting.
//!
//! Conservation: because each counter delta is `current − previous`, the
//! per-window deltas telescope — summed over all windows they equal the
//! final cumulative counter exactly. The proptest
//! `prop_snapshot_conservation.rs` pins this.

use crate::metrics::{Keyed, MetricValue, MetricsRegistry};
use bionic_sim::time::SimTime;
use std::sync::Arc;

/// One captured metric in a window: a counter's exact delta or a gauge's
/// end-of-window level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowValue {
    /// Counter change over the window (signed: a re-collected counter
    /// that moved backwards still conserves).
    Delta(i64),
    /// Gauge level at the window's end.
    Level(f64),
}

/// One window's snapshot: its grid position and every metric's delta or
/// level, in deterministic `(scope, name)` order.
#[derive(Debug, Clone)]
pub struct SnapshotWindow {
    /// Zero-based window index on the grid.
    pub index: u64,
    /// Window start (inclusive), sim time.
    pub start: SimTime,
    /// Window end (exclusive), sim time. The final window may be partial.
    pub end: SimTime,
    /// Key strings are the registry's own, shared: a run of 800 windows
    /// repeats each name 800 times.
    rows: Vec<(Arc<str>, Arc<str>, WindowValue)>,
}

impl SnapshotWindow {
    /// All `(scope, name, value)` rows, sorted by `(scope, name)`.
    pub fn rows(&self) -> impl Iterator<Item = (&str, &str, WindowValue)> {
        self.rows.iter().map(|(s, n, v)| (&**s, &**n, *v))
    }

    /// This window's counter delta for `scope/name` (0 when absent or a
    /// gauge).
    pub fn counter_delta(&self, scope: &str, name: &str) -> i64 {
        self.rows
            .iter()
            .find(|(s, n, _)| **s == *scope && **n == *name)
            .and_then(|(_, _, v)| match v {
                WindowValue::Delta(d) => Some(*d),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// This window's gauge level for `scope/name` (`None` when absent or
    /// a counter).
    pub fn gauge_level(&self, scope: &str, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(s, n, _)| **s == *scope && **n == *name)
            .and_then(|(_, _, v)| match v {
                WindowValue::Level(l) => Some(*l),
                _ => None,
            })
    }
}

/// The windowed snapshot collector. See the module docs for the model.
#[derive(Debug, Clone, Default)]
pub struct SnapshotHub {
    window: SimTime,
    windows: Vec<SnapshotWindow>,
    prev_counters: Keyed<u64>,
    cursor: SimTime,
}

impl SnapshotHub {
    /// A hub for a grid of `window`-wide sim-time windows starting at
    /// time zero.
    pub fn new(window: SimTime) -> Self {
        SnapshotHub {
            window,
            windows: Vec::new(),
            prev_counters: Keyed::default(),
            cursor: SimTime::ZERO,
        }
    }

    /// The configured grid width.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Sim time up to which captures have been taken (the next window's
    /// start).
    pub fn cursor(&self) -> SimTime {
        self.cursor
    }

    /// Has simulated time `now` crossed the end of the current window?
    /// Drivers use this to decide when to collect metrics and capture.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.cursor + self.window
    }

    /// Capture one window ending at `end` (clamped to start after the
    /// previous window; the caller picks grid-aligned ends, plus one
    /// final partial window at the horizon). Counters are diffed against
    /// the previous capture; gauges are stored as levels.
    pub fn capture(&mut self, end: SimTime, metrics: &MetricsRegistry) {
        let start = self.cursor;
        let end = end.max(start);
        let mut rows = Vec::with_capacity(metrics.len());
        for (scope, name, value) in metrics.shared() {
            let wv = match value {
                MetricValue::Counter(cur) => {
                    let prev = self.prev_counters.insert(scope, name, cur).unwrap_or(0);
                    WindowValue::Delta(cur as i64 - prev as i64)
                }
                MetricValue::Gauge(level) => WindowValue::Level(level),
            };
            rows.push((Arc::clone(scope), Arc::clone(name), wv));
        }
        self.windows.push(SnapshotWindow {
            index: self.windows.len() as u64,
            start,
            end,
            rows,
        });
        self.cursor = end;
    }

    /// Captured windows, oldest first — the controller feed.
    pub fn windows(&self) -> impl Iterator<Item = &SnapshotWindow> {
        self.windows.iter()
    }

    /// Number of captured windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Have no windows been captured?
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: f64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn deltas_telescope_to_cumulative() {
        let mut hub = SnapshotHub::new(us(10.0));
        let mut m = MetricsRegistry::new();
        m.counter("engine", "committed", 5);
        hub.capture(us(10.0), &m);
        m.counter("engine", "committed", 12);
        hub.capture(us(20.0), &m);
        m.counter("engine", "committed", 12);
        hub.capture(us(25.0), &m);
        let total: i64 = hub
            .windows()
            .map(|w| w.counter_delta("engine", "committed"))
            .sum();
        assert_eq!(total, 12);
        let deltas: Vec<i64> = hub
            .windows()
            .map(|w| w.counter_delta("engine", "committed"))
            .collect();
        assert_eq!(deltas, vec![5, 7, 0]);
    }

    #[test]
    fn gauges_are_levels_not_deltas() {
        let mut hub = SnapshotHub::new(us(10.0));
        let mut m = MetricsRegistry::new();
        m.gauge("arbiter/sg", "mean_fill_frac", 0.25);
        hub.capture(us(10.0), &m);
        m.gauge("arbiter/sg", "mean_fill_frac", 0.75);
        hub.capture(us(20.0), &m);
        let levels: Vec<f64> = hub
            .windows()
            .filter_map(|w| w.gauge_level("arbiter/sg", "mean_fill_frac"))
            .collect();
        assert_eq!(levels, vec![0.25, 0.75]);
    }

    #[test]
    fn window_bounds_chain_and_final_is_partial() {
        let mut hub = SnapshotHub::new(us(10.0));
        let m = MetricsRegistry::new();
        assert!(!hub.due(us(9.0)));
        assert!(hub.due(us(10.0)));
        hub.capture(us(10.0), &m);
        hub.capture(us(20.0), &m);
        hub.capture(us(23.5), &m);
        let bounds: Vec<(u64, u64, u64)> = hub
            .windows()
            .map(|w| (w.index, w.start.as_ps(), w.end.as_ps()))
            .collect();
        assert_eq!(
            bounds,
            vec![
                (0, 0, 10_000_000),
                (1, 10_000_000, 20_000_000),
                (2, 20_000_000, 23_500_000),
            ]
        );
    }
}
