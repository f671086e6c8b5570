//! Buffer-pool property tests: the write-ahead invariant, and a
//! differential run against a reference pool.
//!
//! The write-ahead invariant the chaos harness leans on: the pool may push
//! a dirty page to disk at any moment (eviction, partial flush), but every
//! state it exposes to disk must be one a WAL install record covers. The
//! model here is a shadow WAL: each mutation stamps a fresh LSN into the
//! page and logs the complete resulting image. After arbitrary traffic and
//! a crash, every disk page must be byte-identical to either the zero page
//! (never written back) or one of the logged images — never a torn,
//! blended, or unlogged state.

use bionic_storage::bufferpool::{Access, BufferPool, PoolStats};
use bionic_storage::disk::DiskManager;
use bionic_storage::page::{Page, PageId};
use bionic_storage::slotted::SlottedPage;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum PoolOp {
    /// Mutate page `i % npages`, stamping a fresh LSN and logging the image.
    Write(usize),
    /// Read page `i % npages` (moves the CLOCK hand, sets referenced bits).
    Read(usize),
    /// Flush up to `n % 4` dirty pages in deterministic order.
    FlushSome(usize),
    /// Allocate a throwaway page to apply eviction pressure.
    Pressure,
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0usize..64).prop_map(PoolOp::Write),
        (0usize..64).prop_map(PoolOp::Read),
        (0usize..8).prop_map(PoolOp::FlushSome),
        Just(PoolOp::Pressure),
    ]
}

/// The reference the differential test compares against: the pool's
/// HashMap page table and CLOCK sweep as they were before the dense table,
/// with a page reduced to the `u64` stamped in its first eight bytes.
struct RefPool {
    capacity: usize,
    frames: Vec<RefFrame>,
    map: HashMap<PageId, usize>,
    hand: usize,
    disk: Vec<u64>,
    io: (u64, u64),
    stats: PoolStats,
}

struct RefFrame {
    id: PageId,
    stamp: u64,
    dirty: bool,
    referenced: bool,
}

fn miss(evicted_dirty: bool) -> Access {
    Access {
        hit: false,
        evicted_dirty,
    }
}

impl RefPool {
    fn new(capacity: usize) -> Self {
        RefPool {
            capacity,
            frames: Vec::new(),
            map: HashMap::new(),
            hand: 0,
            disk: Vec::new(),
            io: (0, 0),
            stats: PoolStats::default(),
        }
    }

    fn allocate(&mut self) -> (PageId, Access) {
        let id = PageId(self.disk.len() as u64);
        self.disk.push(0);
        (id, self.fault_in(id).1)
    }

    fn write_back(&mut self, idx: usize) {
        let f = &mut self.frames[idx];
        self.disk[f.id.0 as usize] = f.stamp;
        f.dirty = false;
        self.io.1 += 1;
    }

    fn fault_in(&mut self, id: PageId) -> (usize, Access) {
        if let Some(&idx) = self.map.get(&id) {
            self.frames[idx].referenced = true;
            self.stats.hits += 1;
            let hit = Access {
                hit: true,
                evicted_dirty: false,
            };
            return (idx, hit);
        }
        self.stats.misses += 1;
        self.io.0 += 1;
        let frame = RefFrame {
            id,
            stamp: self.disk[id.0 as usize],
            dirty: false,
            referenced: true,
        };
        if self.frames.len() < self.capacity {
            self.frames.push(frame);
            self.map.insert(id, self.frames.len() - 1);
            return (self.frames.len() - 1, miss(false));
        }
        let idx = loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[idx];
            if !f.referenced {
                break idx;
            }
            f.referenced = false;
        };
        let evicted_dirty = self.frames[idx].dirty;
        if evicted_dirty {
            self.write_back(idx);
            self.stats.dirty_evictions += 1;
        }
        self.map.remove(&self.frames[idx].id);
        self.frames[idx] = frame;
        self.map.insert(id, idx);
        (idx, miss(evicted_dirty))
    }

    fn flush(&mut self, id: PageId) -> bool {
        match self.map.get(&id) {
            Some(&idx) if self.frames[idx].dirty => {
                self.write_back(idx);
                self.stats.flushes += 1;
                true
            }
            _ => false,
        }
    }

    fn dirty_page_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn flush_some(&mut self, n: usize) -> u64 {
        let ids = self.dirty_page_ids();
        ids.into_iter().take(n).filter(|&id| self.flush(id)).count() as u64
    }
}

fn stamp_of(pg: &Page) -> u64 {
    u64::from_le_bytes(pg.bytes()[..8].try_into().unwrap())
}

#[derive(Debug, Clone)]
enum DiffOp {
    Allocate,
    Read(usize),
    Write(usize),
    Flush(usize),
    FlushSome(usize),
    FlushAll,
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        Just(DiffOp::Allocate),
        (0usize..64).prop_map(DiffOp::Read),
        (0usize..64).prop_map(DiffOp::Read),
        (0usize..64).prop_map(DiffOp::Write),
        (0usize..64).prop_map(DiffOp::Write),
        (0usize..64).prop_map(DiffOp::Flush),
        (0usize..4).prop_map(DiffOp::FlushSome),
        Just(DiffOp::FlushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_page_state_reaches_disk_without_a_covering_install(
        ops in prop::collection::vec(pool_op(), 1..200),
        capacity in 2usize..12,
        npages in 1usize..16,
    ) {
        let mut pool = BufferPool::new(capacity, DiskManager::new());
        let ids: Vec<PageId> = (0..npages).map(|_| pool.allocate_page().0).collect();

        // Shadow WAL: every image a page ever legitimately held, per page.
        let mut wal: HashMap<PageId, Vec<Vec<u8>>> = HashMap::new();
        let mut next_lsn: u64 = 1;

        for op in ops {
            match op {
                PoolOp::Write(i) => {
                    let id = ids[i % npages];
                    let image = pool.with_page_mut(id, |pg| {
                        pg.bytes_mut()[..8].copy_from_slice(&next_lsn.to_le_bytes());
                        pg.bytes().to_vec()
                    }).0;
                    next_lsn += 1;
                    wal.entry(id).or_default().push(image);
                }
                PoolOp::Read(i) => {
                    pool.with_page(ids[i % npages], |_| ());
                }
                PoolOp::FlushSome(n) => {
                    pool.flush_some(n % 4);
                }
                PoolOp::Pressure => {
                    pool.allocate_page();
                }
            }
        }

        // Crash: drop the pool, keep only what eviction/flush wrote back.
        let mut disk = pool.crash();
        for id in &ids {
            let on_disk = disk.read(*id).bytes().to_vec();
            let zero = on_disk.iter().all(|&b| b == 0);
            let covered = wal
                .get(id)
                .is_some_and(|images| images.iter().any(|img| img == &on_disk));
            prop_assert!(
                zero || covered,
                "page {id:?} reached disk in a state no WAL install covers \
                 (lsn stamp = {})",
                u64::from_le_bytes(on_disk[..8].try_into().unwrap()),
            );
        }
    }

    #[test]
    fn eviction_write_back_is_always_the_latest_logged_image(
        writes in prop::collection::vec((0usize..8, any::<u8>()), 1..120),
    ) {
        // Tight pool, many pages: heavy eviction. The page found on disk
        // after a crash must be the *newest* image the WAL logged for it at
        // write-back time or older — never a mix. With full-image stamps,
        // "covered" (above) already proves atomicity; here we additionally
        // check monotonicity: a later write never resurrects an older
        // on-disk stamp once the newer one has been flushed explicitly.
        let mut pool = BufferPool::new(2, DiskManager::new());
        let ids: Vec<PageId> = (0..8).map(|_| pool.allocate_page().0).collect();
        let mut latest_stamp: HashMap<PageId, u64> = HashMap::new();
        for (lsn, (i, byte)) in (1u64..).zip(writes) {
            let id = ids[i % 8];
            pool.with_page_mut(id, |pg| {
                pg.bytes_mut()[..8].copy_from_slice(&lsn.to_le_bytes());
                pg.bytes_mut()[9] = byte;
            });
            latest_stamp.insert(id, lsn);
        }
        pool.flush_all();
        let mut disk = pool.crash();
        for id in &ids {
            let stamp = u64::from_le_bytes(disk.read(*id).bytes()[..8].try_into().unwrap());
            let expect = latest_stamp.get(id).copied().unwrap_or(0);
            prop_assert_eq!(stamp, expect, "page {:?}", id);
        }
    }

    #[test]
    fn dense_page_table_pool_matches_the_hashmap_reference(
        ops in prop::collection::vec(diff_op(), 1..300),
        capacity in 1usize..9,
    ) {
        let mut pool = BufferPool::new(capacity, DiskManager::new());
        let mut reference = RefPool::new(capacity);
        let mut ids: Vec<PageId> = Vec::new();
        let mut next_stamp = 1u64;

        for op in ops {
            let pick = |i: usize| ids.get(i % ids.len().max(1)).copied();
            match op {
                DiffOp::Allocate => {
                    let got = pool.allocate_page();
                    prop_assert_eq!(got, reference.allocate());
                    ids.push(got.0);
                }
                DiffOp::Read(i) => {
                    let Some(id) = pick(i) else { continue };
                    let (idx, access) = reference.fault_in(id);
                    let (page_ok, got) = pool.with_page(id, |pg| {
                        stamp_of(pg) == reference.frames[idx].stamp
                            && pg.bytes()[8..].iter().all(|&b| b == 0)
                    });
                    prop_assert_eq!(got, access);
                    prop_assert!(page_ok, "page bytes of {id:?} differ");
                }
                DiffOp::Write(i) => {
                    let Some(id) = pick(i) else { continue };
                    let (idx, access) = reference.fault_in(id);
                    reference.frames[idx].stamp = next_stamp;
                    reference.frames[idx].dirty = true;
                    let ((), got) = pool.with_page_mut(id, |pg| {
                        pg.bytes_mut()[..8].copy_from_slice(&next_stamp.to_le_bytes());
                    });
                    next_stamp += 1;
                    prop_assert_eq!(got, access);
                }
                DiffOp::Flush(i) => {
                    let Some(id) = pick(i) else { continue };
                    prop_assert_eq!(pool.flush(id), reference.flush(id));
                }
                DiffOp::FlushSome(n) => {
                    prop_assert_eq!(pool.flush_some(n), reference.flush_some(n));
                }
                DiffOp::FlushAll => {
                    prop_assert_eq!(pool.flush_all(), reference.flush_some(usize::MAX));
                }
            }
            prop_assert_eq!(pool.stats(), reference.stats);
            prop_assert_eq!(pool.disk_io(), reference.io);
            prop_assert_eq!(pool.resident(), reference.frames.len());
            prop_assert_eq!(pool.dirty_page_ids(), reference.dirty_page_ids());
            for id in &ids {
                prop_assert_eq!(pool.is_resident(*id), reference.map.contains_key(id), "{:?}", id);
            }
            // Ids the pool has never seen are simply not resident.
            prop_assert!(!pool.is_resident(PageId::INVALID));
            prop_assert!(!pool.is_resident(PageId(ids.len() as u64)));
        }

        // Crash: what reached the disk must match page for page.
        let mut disk = pool.crash();
        for id in &ids {
            let on_disk = disk.read(*id);
            prop_assert_eq!(stamp_of(&on_disk), reference.disk[id.0 as usize], "{:?}", id);
            prop_assert!(on_disk.bytes()[8..].iter().all(|&b| b == 0));
        }
    }
}

/// What the engine's resolve-ahead touch does to a page: peek at it and,
/// if resident, read one slot's entry and first byte — whatever the bytes.
fn peek_and_touch(pool: &BufferPool, id: PageId, slot: u16) -> Option<usize> {
    let rec = SlottedPage::read(pool.peek(id)?, slot).ok()?;
    Some(rec.len() ^ usize::from(rec.first().copied().unwrap_or(0)))
}

/// Everything a caller can observe of a pool without changing it.
fn observe(
    pool: &BufferPool,
    ids: &[PageId],
) -> (PoolStats, usize, Vec<bool>, Vec<PageId>, (u64, u64)) {
    (
        pool.stats(),
        pool.resident(),
        ids.iter().map(|&id| pool.is_resident(id)).collect(),
        pool.dirty_page_ids(),
        pool.disk_io(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn peek_and_touch_leave_the_pool_as_they_found_it(
        ops in prop::collection::vec(pool_op(), 1..200),
        capacity in 1usize..10,
        npages in 1usize..16,
        slot in any::<u16>(),
    ) {
        // Twin pools on the same traffic; one also peeks at and touches
        // every page (plus ids it has never seen) after each op.
        let mut plain = BufferPool::new(capacity, DiskManager::new());
        let mut peeked = BufferPool::new(capacity, DiskManager::new());
        let mut ids: Vec<PageId> = (0..npages).map(|_| plain.allocate_page().0).collect();
        for _ in 0..npages {
            peeked.allocate_page();
        }
        ids.extend([PageId(npages as u64 + 3), PageId::INVALID]);
        for (lsn, op) in (1u64..).zip(ops) {
            for pool in [&mut plain, &mut peeked] {
                match op {
                    PoolOp::Write(i) => {
                        // The second word gives the touch slot counts and
                        // directory entries to read.
                        let noise = lsn.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        pool.with_page_mut(ids[i % npages], |pg| {
                            pg.bytes_mut()[..8].copy_from_slice(&lsn.to_le_bytes());
                            pg.bytes_mut()[8..16].copy_from_slice(&noise.to_le_bytes());
                        });
                    }
                    PoolOp::Read(i) => {
                        pool.with_page(ids[i % npages], |_| ());
                    }
                    PoolOp::FlushSome(n) => {
                        pool.flush_some(n % 4);
                    }
                    PoolOp::Pressure => {
                        pool.allocate_page();
                    }
                }
            }
            for &id in &ids {
                let page = peeked.peek(id);
                prop_assert_eq!(page.is_some(), peeked.is_resident(id), "{:?}", id);
                for s in [0, 1, slot] {
                    peek_and_touch(&peeked, id, s);
                }
            }
            prop_assert_eq!(observe(&peeked, &ids), observe(&plain, &ids));
        }
        // The next victim: one more fault evicts the same frame in both.
        prop_assert_eq!(peeked.allocate_page(), plain.allocate_page());
        prop_assert_eq!(observe(&peeked, &ids), observe(&plain, &ids));
    }
}
