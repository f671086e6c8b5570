//! The CPU-side result cache (§5.6's second data pool).
//!
//! "The CPU side maintains a cache of intermediate results and other
//! 'cooked' data." Entries are keyed by a query fingerprint and tagged with
//! the versions of the tables they were computed from; bumping a table's
//! version (any committed write) invalidates dependent results lazily, at
//! lookup time. Eviction is LRU by byte budget.

use std::collections::HashMap;

/// A cached result entry.
#[derive(Debug, Clone)]
struct Entry {
    bytes: Vec<u8>,
    /// `(table, version_at_compute_time)` dependencies.
    deps: Vec<(u32, u64)>,
    last_use: u64,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a valid result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found a stale result (dependency version changed).
    pub stale: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
}

/// An LRU, version-invalidated result cache.
#[derive(Debug, Clone)]
pub struct ResultCache {
    map: HashMap<u64, Entry>,
    /// Version per table id; a table past the end has never been written.
    table_versions: Vec<u64>,
    capacity_bytes: usize,
    used_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache bounded to `capacity_bytes` of result payload.
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            table_versions: Vec::new(),
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current version of `table` (0 if never written).
    pub fn table_version(&self, table: u32) -> u64 {
        self.table_versions
            .get(table as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Record a committed write to `table`, invalidating dependent results.
    /// Versions are a dense table indexed by id, sized to the largest id
    /// written — the engine's table ids are its table indexes.
    pub fn bump_table(&mut self, table: u32) {
        let t = table as usize;
        if t >= self.table_versions.len() {
            self.table_versions.resize(t + 1, 0);
        }
        self.table_versions[t] += 1;
    }

    /// Look up a result by fingerprint. Stale entries are dropped.
    pub fn get(&mut self, fingerprint: u64) -> Option<&[u8]> {
        self.tick += 1;
        let tick = self.tick;
        // Validate dependencies first (separate scope for the borrow).
        let valid = match self.map.get(&fingerprint) {
            None => {
                self.stats.misses += 1;
                return None;
            }
            Some(e) => e.deps.iter().all(|&(t, v)| self.table_version(t) == v),
        };
        if !valid {
            let dead = self.map.remove(&fingerprint).expect("checked above");
            self.used_bytes -= dead.bytes.len();
            self.stats.stale += 1;
            return None;
        }
        self.stats.hits += 1;
        let e = self.map.get_mut(&fingerprint).expect("checked above");
        e.last_use = tick;
        Some(&e.bytes)
    }

    /// Insert a result computed against the current versions of `tables`.
    /// Oversized results (bigger than the whole cache) are not cached.
    pub fn put(&mut self, fingerprint: u64, bytes: Vec<u8>, tables: &[u32]) {
        if bytes.len() > self.capacity_bytes {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&fingerprint) {
            self.used_bytes -= old.bytes.len();
        }
        self.used_bytes += bytes.len();
        let deps = tables.iter().map(|&t| (t, self.table_version(t))).collect();
        self.map.insert(
            fingerprint,
            Entry {
                bytes,
                deps,
                last_use: self.tick,
            },
        );
        // Evict LRU entries until within budget.
        while self.used_bytes > self.capacity_bytes {
            let victim = self
                .map
                .iter()
                .filter(|(&k, _)| k != fingerprint)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    let dead = self.map.remove(&k).expect("victim exists");
                    self.used_bytes -= dead.bytes.len();
                    self.stats.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put() {
        let mut c = ResultCache::new(1024);
        c.put(1, b"result".to_vec(), &[0]);
        assert_eq!(c.get(1), Some(&b"result"[..]));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_on_absent() {
        let mut c = ResultCache::new(1024);
        assert_eq!(c.get(99), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn table_write_invalidates_dependents() {
        let mut c = ResultCache::new(1024);
        c.put(1, b"depends on t0".to_vec(), &[0]);
        c.put(2, b"depends on t1".to_vec(), &[1]);
        c.bump_table(0);
        assert_eq!(c.get(1), None, "stale");
        assert_eq!(c.stats().stale, 1);
        assert_eq!(c.get(2), Some(&b"depends on t1"[..]), "unaffected");
        assert_eq!(c.len(), 1, "stale entry dropped");
    }

    #[test]
    fn multi_table_dependency_any_bump_invalidates() {
        let mut c = ResultCache::new(1024);
        c.put(1, b"join".to_vec(), &[0, 1, 2]);
        c.bump_table(2);
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn recomputed_result_is_valid_at_new_version() {
        let mut c = ResultCache::new(1024);
        c.put(1, b"v1".to_vec(), &[0]);
        c.bump_table(0);
        c.put(1, b"v2".to_vec(), &[0]);
        assert_eq!(c.get(1), Some(&b"v2"[..]));
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let mut c = ResultCache::new(100);
        c.put(1, vec![1; 40], &[]);
        c.put(2, vec![2; 40], &[]);
        c.get(1); // make 1 recently used
        c.put(3, vec![3; 40], &[]); // evicts 2 (LRU)
        assert!(c.used_bytes() <= 100);
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1).map(<[u8]>::len), Some(40));
        assert_eq!(c.get(3).map(<[u8]>::len), Some(40));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let mut c = ResultCache::new(10);
        c.put(1, vec![0; 100], &[]);
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn replacing_an_entry_reclaims_its_bytes() {
        let mut c = ResultCache::new(100);
        c.put(1, vec![0; 80], &[]);
        c.put(1, vec![0; 20], &[]);
        assert_eq!(c.used_bytes(), 20);
        assert_eq!(c.len(), 1);
    }
}
