//! The buffer pool — CLOCK replacement over a fixed frame budget.
//!
//! Figure 3 shows "Bpool mgmt" as a visible slice of transaction time even
//! in a highly optimized engine; §5.6 proposes replacing the pool with an
//! FPGA-side overlay. This is the conventional pool those comparisons need.
//! Every access returns an [`Access`] footprint (hit? dirty eviction?) that
//! the engine converts to simulated time and energy.

use crate::disk::DiskManager;
use crate::page::{Page, PageId};

/// Footprint of one buffer-pool access, consumed by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Was the page already resident?
    pub hit: bool,
    /// Did fetching it force a dirty page to be written back?
    pub evicted_dirty: bool,
}

/// Aggregate buffer-pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from memory.
    pub hits: u64,
    /// Accesses that read from disk.
    pub misses: u64,
    /// Dirty write-backs caused by eviction.
    pub dirty_evictions: u64,
    /// Explicit flushes.
    pub flushes: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; zero when no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    page_id: PageId,
    page: Page,
    dirty: bool,
    referenced: bool,
    /// Memo: the page holds no tombstoned slot. A pure function of the page
    /// bytes, cached here (in the frame's padding) for the heap's slot
    /// choice: false at fault-in, cleared by every [`BufferPool::with_page_mut`],
    /// and kept only through [`BufferPool::with_page_mut_memo`].
    no_tombstone: bool,
}

/// Page-table entry of a page that is not in any frame.
const NOT_RESIDENT: u32 = u32::MAX;

/// A CLOCK-replacement buffer pool over a [`DiskManager`].
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    /// The page table: frame index by `PageId.0`, [`NOT_RESIDENT`] for a
    /// page on disk only. Dense because the disk hands ids out
    /// sequentially; it covers every page faulted in so far, and an id past
    /// its end is simply not resident.
    table: Vec<u32>,
    hand: usize,
    disk: DiskManager,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages over `disk`.
    pub fn new(capacity: usize, disk: DiskManager) -> Self {
        assert!(capacity >= 1);
        assert!(
            capacity < NOT_RESIDENT as usize,
            "frame indexes are stored as u32"
        );
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            table: vec![NOT_RESIDENT; disk.page_count() as usize],
            hand: 0,
            disk,
            stats: PoolStats::default(),
        }
    }

    /// Allocate a fresh page on disk and fault it in.
    pub fn allocate_page(&mut self) -> (PageId, Access) {
        let id = self.disk.allocate();
        let (_, access) = self.fault_in(id);
        (id, access)
    }

    /// The frame holding `id`, if it is resident.
    #[inline]
    fn frame_of(&self, id: PageId) -> Option<usize> {
        let slot = usize::try_from(id.0).ok()?;
        match self.table.get(slot) {
            Some(&frame) if frame != NOT_RESIDENT => Some(frame as usize),
            _ => None,
        }
    }

    fn evict_victim(&mut self) -> (usize, bool) {
        // CLOCK: sweep until an unreferenced frame is found, clearing
        // reference bits on the way (so at most one full sweep passes).
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[idx];
            if f.referenced {
                f.referenced = false;
                continue;
            }
            let dirty = f.dirty;
            if dirty {
                self.disk.write(f.page_id, &f.page);
                self.stats.dirty_evictions += 1;
            }
            self.table[f.page_id.0 as usize] = NOT_RESIDENT;
            return (idx, dirty);
        }
    }

    /// Make `id` resident; returns the frame it is in and the footprint.
    #[inline]
    fn fault_in(&mut self, id: PageId) -> (usize, Access) {
        let Some(idx) = self.frame_of(id) else {
            return self.fault_in_miss(id);
        };
        self.frames[idx].referenced = true;
        self.stats.hits += 1;
        let access = Access {
            hit: true,
            evicted_dirty: false,
        };
        (idx, access)
    }

    #[cold]
    #[inline(never)]
    fn fault_in_miss(&mut self, id: PageId) -> (usize, Access) {
        self.stats.misses += 1;
        let frame = Frame {
            page_id: id,
            page: self.disk.read(id),
            dirty: false,
            referenced: true,
            no_tombstone: false,
        };
        let mut evicted_dirty = false;
        let idx = if self.frames.len() < self.capacity {
            self.frames.push(frame);
            self.frames.len() - 1
        } else {
            let (idx, dirty) = self.evict_victim();
            evicted_dirty = dirty;
            self.frames[idx] = frame;
            idx
        };
        // `disk.read` has vouched for the id, so it is an index.
        let slot = id.0 as usize;
        if slot >= self.table.len() {
            self.table.resize(slot + 1, NOT_RESIDENT);
        }
        self.table[slot] = idx as u32;
        let access = Access {
            hit: false,
            evicted_dirty,
        };
        (idx, access)
    }

    /// Read access to a page through a closure.
    pub fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> (R, Access) {
        let (idx, access) = self.fault_in(id);
        (f(&self.frames[idx].page), access)
    }

    /// Write access to a page through a closure; marks the page dirty and
    /// forgets the frame's no-tombstone memo, since `f` may change anything.
    pub fn with_page_mut<R>(&mut self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> (R, Access) {
        self.with_page_mut_memo(id, |page, no_tombstone| {
            *no_tombstone = false;
            f(page)
        })
    }

    /// [`BufferPool::with_page_mut`] that also hands `f` the frame's "this
    /// page holds no tombstone" memo, to read and to maintain: `f` must
    /// leave it true only if the page it leaves holds no tombstoned slot
    /// (what [`crate::slotted::SlottedPage::insert_memo`] does). Same fault,
    /// footprint, statistics and dirtying as `with_page_mut`.
    pub(crate) fn with_page_mut_memo<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page, &mut bool) -> R,
    ) -> (R, Access) {
        let (idx, access) = self.fault_in(id);
        let frame = &mut self.frames[idx];
        frame.dirty = true;
        (f(&mut frame.page, &mut frame.no_tombstone), access)
    }

    /// The resident image of `id`, or `None` if it is on disk only. A read
    /// that leaves the pool exactly as it found it: it never faults, sets
    /// no CLOCK reference bit, counts nothing in [`PoolStats`] and dirties
    /// nothing — so it is free to take on pages no modeled access makes.
    pub fn peek(&self, id: PageId) -> Option<&Page> {
        self.frame_of(id).map(|idx| &self.frames[idx].page)
    }

    /// Is the page currently held in a frame?
    pub fn is_resident(&self, id: PageId) -> bool {
        self.frame_of(id).is_some()
    }

    /// Write frame `idx` back if it is dirty. Returns true if a write
    /// happened.
    fn flush_frame(&mut self, idx: usize) -> bool {
        let f = &mut self.frames[idx];
        if !f.dirty {
            return false;
        }
        self.disk.write(f.page_id, &f.page);
        f.dirty = false;
        self.stats.flushes += 1;
        true
    }

    /// Flush one page if resident and dirty. Returns true if a write happened.
    pub fn flush(&mut self, id: PageId) -> bool {
        self.frame_of(id).is_some_and(|idx| self.flush_frame(idx))
    }

    /// Flush every dirty page; returns the number written.
    pub fn flush_all(&mut self) -> u64 {
        let mut written = 0;
        for idx in 0..self.frames.len() {
            written += u64::from(self.flush_frame(idx));
        }
        written
    }

    /// Flush at most `n` dirty pages, chosen deterministically in ascending
    /// [`PageId`] order (the fault-injection harness uses this to model a
    /// partial background write-back before a crash). Returns the number
    /// actually written.
    pub fn flush_some(&mut self, n: usize) -> u64 {
        let mut written = 0;
        for id in self.dirty_page_ids().into_iter().take(n) {
            written += u64::from(self.flush(id));
        }
        written
    }

    /// Page ids of all currently dirty frames, ascending.
    pub fn dirty_page_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.page_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Access to the underlying disk (e.g. for crash drills: flush, then
    /// steal the disk and rebuild a pool over it).
    pub fn into_disk(self) -> DiskManager {
        let mut pool = self;
        pool.flush_all();
        pool.disk
    }

    /// Take the disk WITHOUT flushing — models a crash: only what eviction
    /// or explicit flushes wrote back survives.
    pub fn crash(self) -> DiskManager {
        self.disk
    }

    /// Immutable view of the disk's I/O counters.
    pub fn disk_io(&self) -> (u64, u64) {
        self.disk.io_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize, npages: usize) -> (BufferPool, Vec<PageId>) {
        let disk = DiskManager::new();
        let mut pool = BufferPool::new(cap, disk);
        let ids: Vec<PageId> = (0..npages).map(|_| pool.allocate_page().0).collect();
        (pool, ids)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (mut p, ids) = pool(2, 1);
        let (_, a) = p.with_page(ids[0], |_| ());
        assert!(a.hit); // allocate faulted it in
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn eviction_kicks_in_at_capacity() {
        let (mut p, ids) = pool(2, 3);
        // 3 pages through a 2-frame pool: the first allocation got evicted.
        assert_eq!(p.resident(), 2);
        let (_, a) = p.with_page(ids[0], |_| ());
        assert!(!a.hit, "page 0 must have been evicted");
    }

    #[test]
    fn dirty_pages_are_written_back_on_eviction() {
        let (mut p, ids) = pool(2, 2);
        p.with_page_mut(ids[0], |pg| pg.bytes_mut()[0] = 7);
        // Fault in a third page to force eviction of a dirty frame.
        let (_id3, _) = p.allocate_page();
        // One of ids[0]/ids[1] got evicted; if it was the dirty one, the
        // write-back must be visible on re-read.
        let (byte, _) = p.with_page(ids[0], |pg| pg.bytes()[0]);
        assert_eq!(byte, 7);
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let (mut p, ids) = pool(2, 2);
        // Touch page 0 so it is referenced; allocate a new page: victim
        // should be page 1 (unreferenced after the sweep clears page 0).
        p.with_page(ids[0], |_| ());
        p.with_page(ids[1], |_| ());
        p.with_page(ids[0], |_| ());
        p.allocate_page();
        // Page 0 was twice-referenced, more likely retained than page 1.
        // CLOCK is approximate, so just check: exactly one of them missed.
        let (_, a0) = p.with_page(ids[0], |_| ());
        let (_, a1) = p.with_page(ids[1], |_| ());
        assert!(a0.hit != a1.hit || !a0.hit);
    }

    #[test]
    fn flush_all_makes_state_durable() {
        let (mut p, ids) = pool(4, 2);
        p.with_page_mut(ids[0], |pg| pg.bytes_mut()[10] = 42);
        p.with_page_mut(ids[1], |pg| pg.bytes_mut()[10] = 43);
        assert_eq!(p.flush_all(), 2);
        let mut disk = p.crash(); // no further flush
        assert_eq!(disk.read(ids[0]).bytes()[10], 42);
        assert_eq!(disk.read(ids[1]).bytes()[10], 43);
    }

    #[test]
    fn crash_loses_unflushed_writes() {
        let (mut p, ids) = pool(4, 1);
        p.with_page_mut(ids[0], |pg| pg.bytes_mut()[10] = 42);
        let mut disk = p.crash();
        assert_eq!(disk.read(ids[0]).bytes()[10], 0, "unflushed write must die");
    }

    #[test]
    fn into_disk_flushes_first() {
        let (mut p, ids) = pool(4, 1);
        p.with_page_mut(ids[0], |pg| pg.bytes_mut()[10] = 42);
        let mut disk = p.into_disk();
        assert_eq!(disk.read(ids[0]).bytes()[10], 42);
    }

    #[test]
    fn lookups_of_unknown_ids_do_not_grow_the_page_table() {
        let (mut p, ids) = pool(2, 3);
        let covered = p.table.len();
        assert_eq!(covered, ids.len());
        assert!(!p.is_resident(PageId::INVALID));
        assert!(!p.is_resident(PageId(1 << 40)));
        assert!(!p.flush(PageId(covered as u64)));
        assert_eq!(p.table.len(), covered);
        // A pool over an existing disk covers it from the start.
        let reopened = BufferPool::new(2, p.crash());
        assert_eq!(reopened.table.len(), covered);
        assert!(!reopened.is_resident(ids[0]));
    }

    #[test]
    fn flush_some_writes_in_ascending_page_order() {
        let (mut p, ids) = pool(8, 4);
        for id in &ids {
            p.with_page_mut(*id, |pg| pg.bytes_mut()[0] = 1);
        }
        assert_eq!(p.dirty_page_ids(), {
            let mut s = ids.clone();
            s.sort_unstable();
            s
        });
        assert_eq!(p.flush_some(2), 2);
        // The two lowest page ids are clean now, the rest still dirty.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(p.dirty_page_ids(), sorted[2..].to_vec());
        let mut disk_check = p.crash();
        assert_eq!(disk_check.read(sorted[0]).bytes()[0], 1);
        assert_eq!(disk_check.read(sorted[3]).bytes()[0], 0);
    }

    #[test]
    fn hit_ratio_reflects_locality() {
        let (mut p, ids) = pool(8, 8);
        for _ in 0..100 {
            for id in &ids {
                p.with_page(*id, |_| ());
            }
        }
        assert!(p.stats().hit_ratio() > 0.9);
    }

    #[test]
    fn working_set_larger_than_pool_thrashes() {
        let (mut p, ids) = pool(4, 64);
        let mut misses = 0;
        for round in 0..10 {
            for id in &ids {
                let (_, a) = p.with_page(*id, |_| ());
                if round > 0 && !a.hit {
                    misses += 1;
                }
            }
        }
        // Sequential sweep over 64 pages with 4 frames: near-100% miss.
        assert!(misses > 500, "misses={misses}");
    }
}
