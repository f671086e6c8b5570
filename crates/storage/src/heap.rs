//! Heap files: unordered record storage over slotted pages.
//!
//! The base tables of the OLTP workloads (TATP subscribers, TPC-C stock, …)
//! live in heap files; B+trees index into them by [`RecordId`]. Every
//! operation returns a [`HeapFootprint`] so the engine can charge buffer-pool
//! and record-access costs to the `Bpool mgmt` slice of Figure 3.

use crate::bufferpool::BufferPool;
use crate::page::{PageId, RecordId};
use crate::slotted::{SlotError, SlottedPage};

/// Cost footprint of a heap-file operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapFootprint {
    /// Pages examined.
    pub pages_touched: u32,
    /// Buffer-pool hits among them.
    pub pool_hits: u32,
    /// Buffer-pool misses (disk page reads).
    pub pool_misses: u32,
    /// Dirty evictions those misses forced.
    pub dirty_evictions: u32,
    /// Did the operation allocate a new page?
    pub allocated_page: bool,
}

impl HeapFootprint {
    fn absorb(&mut self, a: crate::bufferpool::Access) {
        self.pages_touched += 1;
        if a.hit {
            self.pool_hits += 1;
        } else {
            self.pool_misses += 1;
        }
        if a.evicted_dirty {
            self.dirty_evictions += 1;
        }
    }

    /// Merge another footprint into this one.
    pub fn merge(&mut self, other: HeapFootprint) {
        self.pages_touched += other.pages_touched;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.dirty_evictions += other.dirty_evictions;
        self.allocated_page |= other.allocated_page;
    }
}

/// An unordered collection of records across slotted pages.
#[derive(Debug, Default)]
pub struct HeapFile {
    pages: Vec<PageId>,
}

impl HeapFile {
    /// An empty heap file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages owned by this file.
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }

    /// Adopt an already-allocated page into this file — used when rebuilding
    /// heap metadata after recovery (the page population is discovered from
    /// the log). Pages must be adopted in ascending id order.
    pub fn adopt_page(&mut self, pid: PageId) {
        debug_assert!(self.pages.last().is_none_or(|&p| p < pid));
        self.pages.push(pid);
    }

    /// Insert a record, appending a new page when the last one is full.
    pub fn insert(
        &mut self,
        pool: &mut BufferPool,
        rec: &[u8],
    ) -> Result<(RecordId, HeapFootprint), SlotError> {
        let mut fp = HeapFootprint::default();
        if let Some(&last) = self.pages.last() {
            let (result, access) = pool.with_page_mut(last, |pg| {
                let mut sp = SlottedPage::attach(pg);
                sp.insert(rec)
            });
            fp.absorb(access);
            match result {
                Ok(slot) => return Ok((RecordId::new(last, slot), fp)),
                Err(SlotError::PageFull) => {}
                Err(e) => return Err(e),
            }
        }
        // Need a fresh page.
        let (pid, access) = pool.allocate_page();
        fp.absorb(access);
        fp.allocated_page = true;
        self.pages.push(pid);
        let (result, access) = pool.with_page_mut(pid, |pg| {
            let mut sp = SlottedPage::init(pg);
            sp.insert(rec)
        });
        fp.absorb(access);
        result.map(|slot| (RecordId::new(pid, slot), fp))
    }

    /// Read a record by id; `None` if deleted or never existed.
    pub fn get(&self, pool: &mut BufferPool, rid: RecordId) -> (Option<Vec<u8>>, HeapFootprint) {
        let mut fp = HeapFootprint::default();
        let (result, access) = pool.with_page_mut(rid.page, |pg| {
            SlottedPage::read(pg, rid.slot).map(<[u8]>::to_vec).ok()
        });
        fp.absorb(access);
        (result, fp)
    }

    /// [`HeapFile::get`] into a caller-supplied buffer (cleared first): same
    /// page traffic and footprint, no allocation when `out`'s capacity
    /// suffices. Returns the record length if the slot is live.
    pub fn get_into(
        &self,
        pool: &mut BufferPool,
        rid: RecordId,
        out: &mut Vec<u8>,
    ) -> (Option<usize>, HeapFootprint) {
        out.clear();
        let mut fp = HeapFootprint::default();
        let (result, access) = pool.with_page_mut(rid.page, |pg| {
            SlottedPage::read(pg, rid.slot).ok().map(|r| {
                out.extend_from_slice(r);
                r.len()
            })
        });
        fp.absorb(access);
        (result, fp)
    }

    /// Length of the record at `rid` without copying it out (same page
    /// traffic and footprint as [`HeapFile::get`]). `None` for a dead slot.
    pub fn record_len(
        &self,
        pool: &mut BufferPool,
        rid: RecordId,
    ) -> (Option<usize>, HeapFootprint) {
        let mut fp = HeapFootprint::default();
        let (result, access) = pool.with_page_mut(rid.page, |pg| {
            SlottedPage::read(pg, rid.slot).ok().map(<[u8]>::len)
        });
        fp.absorb(access);
        (result, fp)
    }

    /// Update a record in place. If the record no longer fits in its page,
    /// it is deleted and re-inserted elsewhere, returning the **new** id —
    /// the caller owns fixing any index entries (exactly the software
    /// responsibility split of §5.3).
    pub fn update(
        &mut self,
        pool: &mut BufferPool,
        rid: RecordId,
        rec: &[u8],
    ) -> Result<(RecordId, HeapFootprint), SlotError> {
        let mut fp = HeapFootprint::default();
        let (result, access) = pool.with_page_mut(rid.page, |pg| {
            let mut sp = SlottedPage::attach(pg);
            sp.update(rid.slot, rec)
        });
        fp.absorb(access);
        match result {
            Ok(()) => Ok((rid, fp)),
            Err(SlotError::PageFull) => {
                // Move: delete here, insert wherever there's room.
                let (del, access) = pool.with_page_mut(rid.page, |pg| {
                    let mut sp = SlottedPage::attach(pg);
                    sp.delete(rid.slot)
                });
                fp.absorb(access);
                del?;
                let (new_rid, ins_fp) = self.insert(pool, rec)?;
                fp.merge(ins_fp);
                Ok((new_rid, fp))
            }
            Err(e) => Err(e),
        }
    }

    /// Delete a record.
    pub fn delete(
        &mut self,
        pool: &mut BufferPool,
        rid: RecordId,
    ) -> Result<HeapFootprint, SlotError> {
        let mut fp = HeapFootprint::default();
        let (result, access) = pool.with_page_mut(rid.page, |pg| {
            let mut sp = SlottedPage::attach(pg);
            sp.delete(rid.slot)
        });
        fp.absorb(access);
        result.map(|()| fp)
    }

    /// Visit every live record.
    pub fn scan(
        &self,
        pool: &mut BufferPool,
        mut visit: impl FnMut(RecordId, &[u8]),
    ) -> HeapFootprint {
        let mut fp = HeapFootprint::default();
        for &pid in &self.pages {
            let (_, access) = pool.with_page_mut(pid, |pg| {
                let sp = SlottedPage::attach(pg);
                for (slot, rec) in sp.iter() {
                    visit(RecordId::new(pid, slot), rec);
                }
            });
            fp.absorb(access);
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn setup() -> (HeapFile, BufferPool) {
        (HeapFile::new(), BufferPool::new(64, DiskManager::new()))
    }

    #[test]
    fn insert_get_round_trip() {
        let (mut hf, mut pool) = setup();
        let (rid, fp) = hf.insert(&mut pool, b"record one").unwrap();
        assert!(fp.allocated_page);
        let (rec, _) = hf.get(&mut pool, rid);
        assert_eq!(rec.unwrap(), b"record one");
    }

    #[test]
    fn spills_to_new_pages_when_full() {
        let (mut hf, mut pool) = setup();
        let rec = [5u8; 500];
        let rids: Vec<RecordId> = (0..100)
            .map(|_| hf.insert(&mut pool, &rec).unwrap().0)
            .collect();
        assert!(hf.page_ids().len() > 5, "pages={}", hf.page_ids().len());
        for rid in rids {
            assert_eq!(hf.get(&mut pool, rid).0.unwrap(), rec.to_vec());
        }
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let (mut hf, mut pool) = setup();
        let (rid, _) = hf.insert(&mut pool, b"0123456789").unwrap();
        let (rid2, _) = hf.update(&mut pool, rid, b"short").unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(hf.get(&mut pool, rid).0.unwrap(), b"short");
    }

    #[test]
    fn growing_update_moves_record() {
        let (mut hf, mut pool) = setup();
        // Fill page 0 almost completely.
        let (rid, _) = hf.insert(&mut pool, &[1u8; 100]).unwrap();
        while hf.page_ids().len() == 1 {
            hf.insert(&mut pool, &[2u8; 100]).unwrap();
        }
        // rid lives on a full page 0; grow it.
        let big = [3u8; 4000];
        let (new_rid, _) = hf.update(&mut pool, rid, &big).unwrap();
        assert_ne!(new_rid, rid);
        assert_eq!(hf.get(&mut pool, new_rid).0.unwrap(), big.to_vec());
        assert_eq!(hf.get(&mut pool, rid).0, None, "old rid must be dead");
    }

    #[test]
    fn delete_then_get_none() {
        let (mut hf, mut pool) = setup();
        let (rid, _) = hf.insert(&mut pool, b"x").unwrap();
        hf.delete(&mut pool, rid).unwrap();
        assert_eq!(hf.get(&mut pool, rid).0, None);
        assert!(hf.delete(&mut pool, rid).is_err());
    }

    #[test]
    fn scan_visits_all_live_records() {
        let (mut hf, mut pool) = setup();
        let mut rids = Vec::new();
        for i in 0..50u8 {
            rids.push(hf.insert(&mut pool, &[i; 200]).unwrap().0);
        }
        hf.delete(&mut pool, rids[10]).unwrap();
        let mut seen = 0;
        hf.scan(&mut pool, |_, rec| {
            assert_eq!(rec.len(), 200);
            seen += 1;
        });
        assert_eq!(seen, 49);
    }

    #[test]
    fn footprints_count_pool_behaviour() {
        let (mut hf, mut tiny_pool) = (HeapFile::new(), BufferPool::new(2, DiskManager::new()));
        let mut rids = Vec::new();
        for _ in 0..40 {
            rids.push(hf.insert(&mut tiny_pool, &[0u8; 1000]).unwrap().0);
        }
        // Random access across many pages through 2 frames: misses happen.
        let mut misses = 0;
        for rid in &rids {
            let (_, fp) = hf.get(&mut tiny_pool, *rid);
            misses += fp.pool_misses;
        }
        assert!(misses > 0);
    }
}
