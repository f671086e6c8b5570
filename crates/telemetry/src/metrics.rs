//! Named counters and gauges with per-component scoping.
//!
//! The registry is ordered by `(scope, name)`, so every iteration — and
//! therefore every CSV export — is in one deterministic order regardless of
//! insertion order or job count. `Engine::collect_metrics` re-sets every
//! metric it knows at the end of a run, at a failure snapshot, and — under
//! a windowed [`crate::SnapshotHub`] — at every grid crossing of the run
//! (E13/E15 cross one each 100 µs of simulated time). That last caller makes
//! re-setting an existing key the common operation, so keys are looked up
//! by `&str`, allocated once, and shared by `Arc` with the snapshot rows
//! that repeat them.

use std::collections::BTreeMap;
use std::sync::Arc;

/// `(scope, name) → V`, iterating exactly as a `BTreeMap` keyed on the
/// tuple would (scopes in order, names in order within a scope), with keys
/// that a lookup borrows as `&str` and a consumer can share instead of
/// copy. Reading or replacing the value of a present key allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Keyed<V> {
    scopes: BTreeMap<Arc<str>, BTreeMap<Arc<str>, V>>,
}

impl<V> Default for Keyed<V> {
    fn default() -> Self {
        Keyed {
            scopes: BTreeMap::new(),
        }
    }
}

impl<V> Keyed<V> {
    pub(crate) fn get(&self, scope: &str, name: &str) -> Option<&V> {
        self.scopes.get(scope)?.get(name)
    }

    pub(crate) fn get_mut(&mut self, scope: &str, name: &str) -> Option<&mut V> {
        self.scopes.get_mut(scope)?.get_mut(name)
    }

    /// Store `v` under the caller's key strings, returning the value it
    /// replaced. A present key keeps its own strings.
    pub(crate) fn insert(&mut self, scope: &Arc<str>, name: &Arc<str>, v: V) -> Option<V> {
        self.scopes
            .entry(Arc::clone(scope))
            .or_default()
            .insert(Arc::clone(name), v)
    }

    pub(crate) fn len(&self) -> usize {
        self.scopes.values().map(BTreeMap::len).sum()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<str>, &V)> {
        self.scopes
            .iter()
            .flat_map(|(scope, names)| names.iter().map(move |(name, v)| (scope, name, v)))
    }
}

/// A metric sample: a monotonic count or a point-in-time level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count (events, bytes, ops).
    Counter(u64),
    /// A point-in-time level (occupancy fraction, joules, bandwidth).
    Gauge(f64),
}

impl MetricValue {
    /// Render for CSV: counters as integers, gauges with six fractional
    /// digits (fixed width keeps exports byte-stable across platforms).
    pub fn render(&self) -> String {
        match self {
            MetricValue::Counter(v) => format!("{v}"),
            MetricValue::Gauge(v) => format!("{v:.6}"),
        }
    }
}

/// A deterministic registry of `(scope, name) -> value` metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    values: Keyed<MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn set(&mut self, scope: &str, name: &str, v: MetricValue) {
        match self.values.get_mut(scope, name) {
            Some(slot) => *slot = v,
            None => {
                self.values.insert(&Arc::from(scope), &Arc::from(name), v);
            }
        }
    }

    /// Set counter `scope/name` to `v` (overwrites any prior sample).
    pub fn counter(&mut self, scope: &str, name: &str, v: u64) {
        self.set(scope, name, MetricValue::Counter(v));
    }

    /// Set gauge `scope/name` to `v` (overwrites any prior sample).
    pub fn gauge(&mut self, scope: &str, name: &str, v: f64) {
        self.set(scope, name, MetricValue::Gauge(v));
    }

    /// Look up one metric.
    pub fn get(&self, scope: &str, name: &str) -> Option<MetricValue> {
        self.values.get(scope, name).copied()
    }

    /// Look up a counter, defaulting to 0 when absent or a gauge.
    pub fn counter_value(&self, scope: &str, name: &str) -> u64 {
        match self.get(scope, name) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(scope, name, value)` in deterministic `(scope, name)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, MetricValue)> {
        self.shared().map(|(scope, name, v)| (&**scope, &**name, v))
    }

    /// [`MetricsRegistry::iter`] handing out the key strings themselves.
    pub(crate) fn shared(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<str>, MetricValue)> {
        self.values.iter().map(|(scope, name, v)| (scope, name, *v))
    }

    /// Render the whole registry as a `scope,name,value` CSV (with header,
    /// trailing newline, rows in deterministic order).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scope,name,value\n");
        for (scope, name, value) in self.iter() {
            out.push_str(scope);
            out.push(',');
            out.push_str(name);
            out.push(',');
            out.push_str(&value.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rows_are_sorted_regardless_of_insertion_order() {
        let mut m = MetricsRegistry::new();
        m.counter("wal", "flushes", 3);
        m.counter("engine", "committed", 10);
        m.gauge("fabric", "occupancy", 0.5);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            vec![
                "scope,name,value",
                "engine,committed,10",
                "fabric,occupancy,0.500000",
                "wal,flushes,3",
            ]
        );
    }

    #[test]
    fn overwrite_and_lookup() {
        let mut m = MetricsRegistry::new();
        m.counter("engine", "submitted", 1);
        m.counter("engine", "submitted", 2);
        assert_eq!(m.counter_value("engine", "submitted"), 2);
        assert_eq!(m.counter_value("engine", "missing"), 0);
        assert_eq!(m.len(), 1);
    }
}
