//! Slotted-page layout for variable-length records.
//!
//! Classic layout: a header and a slot directory grow from the front of the
//! page, record bodies grow from the back. Deleting a record tombstones its
//! slot (slot numbers are stable — they're half of every `RecordId` — so
//! they are never compacted away, only reused).
//!
//! Layout:
//! ```text
//!   0..8    page LSN (for recovery)
//!   8..10   slot count
//!   10..12  free-space start (end of slot directory growth)
//!   12..14  free-space end   (start of record data)
//!   14..16  reserved
//!   16..    slot directory: per slot { offset: u16, len: u16 }
//!   ...     free space
//!   ...PAGE_SIZE  record bodies
//! ```

use crate::page::{Page, PAGE_SIZE};

const HEADER: usize = 16;
const SLOT_BYTES: usize = 4;
const OFF_LSN: usize = 0;
const OFF_NSLOTS: usize = 8;
const OFF_FREE_START: usize = 10;
const OFF_FREE_END: usize = 12;

/// Errors from slotted-page operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotError {
    /// Not enough contiguous free space for the record (even after compaction).
    PageFull,
    /// Slot index out of range or tombstoned.
    NoSuchSlot,
    /// Record too large to ever fit in a page.
    RecordTooLarge,
}

impl core::fmt::Display for SlotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SlotError::PageFull => write!(f, "page full"),
            SlotError::NoSuchSlot => write!(f, "no such slot"),
            SlotError::RecordTooLarge => write!(f, "record larger than page capacity"),
        }
    }
}

impl std::error::Error for SlotError {}

/// Maximum record body size storable in a page.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT_BYTES;

fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Slot `i`'s `(offset, len)` directory entry; `None` past the slot count
/// or where the entry itself would lie outside the page.
fn slot_entry(b: &[u8; PAGE_SIZE], i: u16) -> Option<(usize, usize)> {
    if i >= get_u16(b, OFF_NSLOTS) {
        return None;
    }
    let off = HEADER + i as usize * SLOT_BYTES;
    let [o0, o1, l0, l1] = *b.get(off..off + SLOT_BYTES)?.first_chunk()?;
    Some((
        u16::from_le_bytes([o0, o1]) as usize,
        u16::from_le_bytes([l0, l1]) as usize,
    ))
}

/// A view over a [`Page`] interpreted as a slotted page.
///
/// The view is a thin wrapper; all state lives in the page bytes, so pages
/// survive buffer-pool eviction and log replay untouched.
pub struct SlottedPage<'a> {
    page: &'a mut Page,
}

impl<'a> SlottedPage<'a> {
    /// Interpret an existing page (must have been initialized).
    pub fn attach(page: &'a mut Page) -> Self {
        SlottedPage { page }
    }

    /// Attach, initializing first if the page has never been formatted
    /// (recovery redo may touch pages that were allocated but never
    /// written back before the crash).
    pub fn attach_or_init(page: &'a mut Page) -> Self {
        let initialized = get_u16(page.bytes(), OFF_FREE_END) != 0;
        if initialized {
            Self::attach(page)
        } else {
            Self::init(page)
        }
    }

    /// Initialize a fresh page and return the view.
    pub fn init(page: &'a mut Page) -> Self {
        let b = page.bytes_mut();
        b[..HEADER].fill(0);
        put_u16(b, OFF_NSLOTS, 0);
        put_u16(b, OFF_FREE_START, HEADER as u16);
        put_u16(b, OFF_FREE_END, PAGE_SIZE as u16);
        SlottedPage { page }
    }

    fn b(&self) -> &[u8; PAGE_SIZE] {
        self.page.bytes()
    }

    fn bm(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.page.bytes_mut()
    }

    /// The page LSN (last log record that touched this page).
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.b()[OFF_LSN..OFF_LSN + 8].try_into().unwrap())
    }

    /// Set the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.bm()[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slots (including tombstones).
    pub fn slot_count(&self) -> u16 {
        get_u16(self.b(), OFF_NSLOTS)
    }

    fn free_start(&self) -> usize {
        get_u16(self.b(), OFF_FREE_START) as usize
    }

    fn free_end(&self) -> usize {
        get_u16(self.b(), OFF_FREE_END) as usize
    }

    fn slot(&self, i: u16) -> Option<(usize, usize)> {
        slot_entry(self.b(), i)
    }

    fn set_slot(&mut self, i: u16, rec_off: u16, rec_len: u16) {
        let off = HEADER + i as usize * SLOT_BYTES;
        put_u16(self.bm(), off, rec_off);
        put_u16(self.bm(), off + 2, rec_len);
    }

    /// Contiguous free bytes between the slot directory and record data.
    pub fn contiguous_free(&self) -> usize {
        self.free_end().saturating_sub(self.free_start())
    }

    /// Free bytes recoverable by compaction (holes left by deletes/moves)
    /// plus contiguous space.
    pub fn total_free(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|i| self.slot(i))
            .filter(|&(off, _)| off != 0)
            .map(|(_, len)| len)
            .sum();
        PAGE_SIZE - self.free_start() - live
    }

    /// Would an insert of `len` bytes succeed (possibly via compaction)?
    pub fn can_insert(&self, len: usize) -> bool {
        let need_slot = if self.first_free_slot().is_some() {
            0
        } else {
            SLOT_BYTES
        };
        len + need_slot <= self.total_free() && len <= MAX_RECORD
    }

    /// The lowest tombstoned slot (offset 0), in one pass over the
    /// directory bytes.
    fn first_free_slot(&self) -> Option<u16> {
        let dir = &self.b()[HEADER..HEADER + self.slot_count() as usize * SLOT_BYTES];
        dir.chunks_exact(SLOT_BYTES)
            .position(|slot| slot[0] == 0 && slot[1] == 0)
            .map(|i| i as u16)
    }

    /// Slide all live records to the back of the page, eliminating holes.
    fn compact(&mut self) {
        let n = self.slot_count();
        // Collect live records (slot, bytes) — copying is fine at 8 KiB.
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        for i in 0..n {
            if let Some((off, len)) = self.slot(i) {
                if off != 0 {
                    live.push((i, self.b()[off..off + len].to_vec()));
                }
            }
        }
        let mut cursor = PAGE_SIZE;
        for (i, bytes) in &live {
            cursor -= bytes.len();
            let c = cursor;
            self.bm()[c..c + bytes.len()].copy_from_slice(bytes);
            self.set_slot(*i, c as u16, bytes.len() as u16);
        }
        put_u16(self.bm(), OFF_FREE_END, cursor as u16);
    }

    /// Insert a record; returns its slot number: the lowest tombstoned
    /// slot, else a new one at the end of the directory.
    pub fn insert(&mut self, rec: &[u8]) -> Result<u16, SlotError> {
        if rec.len() > MAX_RECORD {
            return Err(SlotError::RecordTooLarge);
        }
        let reuse = self.first_free_slot();
        let need = rec.len() + if reuse.is_some() { 0 } else { SLOT_BYTES };
        // Contiguous space never exceeds total free space, so the O(slots)
        // sum behind `total_free` is only needed when it falls short.
        if self.contiguous_free() < need {
            if self.total_free() < need {
                return Err(SlotError::PageFull);
            }
            self.compact();
        }
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                put_u16(self.bm(), OFF_NSLOTS, s + 1);
                let fs = self.free_start() + SLOT_BYTES;
                put_u16(self.bm(), OFF_FREE_START, fs as u16);
                s
            }
        };
        let end = self.free_end();
        let start = end - rec.len();
        self.bm()[start..end].copy_from_slice(rec);
        put_u16(self.bm(), OFF_FREE_END, start as u16);
        self.set_slot(slot, start as u16, rec.len() as u16);
        Ok(slot)
    }

    /// Read a record by slot (see [`SlottedPage::read`]).
    pub fn get(&self, slot: u16) -> Result<&[u8], SlotError> {
        Self::read(self.page, slot)
    }

    /// Read a record by slot from a page the caller may only read. Never
    /// panics, whatever the page bytes: a slot past the directory, a
    /// tombstone, or a directory entry or body that would lie outside the
    /// page is [`SlotError::NoSuchSlot`].
    pub fn read(page: &Page, slot: u16) -> Result<&[u8], SlotError> {
        let b = page.bytes();
        match slot_entry(b, slot) {
            Some((off, len)) if off != 0 => b.get(off..off + len).ok_or(SlotError::NoSuchSlot),
            _ => Err(SlotError::NoSuchSlot),
        }
    }

    /// Delete a record, tombstoning its slot for reuse.
    pub fn delete(&mut self, slot: u16) -> Result<(), SlotError> {
        match self.slot(slot) {
            Some((off, _)) if off != 0 => {
                self.set_slot(slot, 0, 0);
                Ok(())
            }
            _ => Err(SlotError::NoSuchSlot),
        }
    }

    /// Update a record in place. Fits-in-place updates reuse the body;
    /// growing updates are delete+insert into the same slot (may compact).
    pub fn update(&mut self, slot: u16, rec: &[u8]) -> Result<(), SlotError> {
        let (off, len) = match self.slot(slot) {
            Some((off, len)) if off != 0 => (off, len),
            _ => return Err(SlotError::NoSuchSlot),
        };
        if rec.len() <= len {
            self.bm()[off..off + rec.len()].copy_from_slice(rec);
            self.set_slot(slot, off as u16, rec.len() as u16);
            return Ok(());
        }
        if rec.len() > MAX_RECORD {
            return Err(SlotError::RecordTooLarge);
        }
        // Grow: tombstone, check room, re-insert at the same slot.
        self.set_slot(slot, 0, 0);
        let fits = rec.len() <= self.total_free();
        if !fits {
            // Roll back the tombstone.
            self.set_slot(slot, off as u16, len as u16);
            return Err(SlotError::PageFull);
        }
        if self.contiguous_free() < rec.len() {
            self.compact();
        }
        let end = self.free_end();
        let start = end - rec.len();
        self.bm()[start..end].copy_from_slice(rec);
        put_u16(self.bm(), OFF_FREE_END, start as u16);
        self.set_slot(slot, start as u16, rec.len() as u16);
        Ok(())
    }

    /// Install a record at a *specific* slot, growing the slot directory
    /// with tombstones if needed and overwriting any existing body — the
    /// physical-redo primitive: replaying `Insert{rid}` must land the record
    /// at exactly `rid`, or index entries would dangle.
    pub fn install(&mut self, slot: u16, rec: &[u8]) -> Result<(), SlotError> {
        if rec.len() > MAX_RECORD {
            return Err(SlotError::RecordTooLarge);
        }
        if slot < self.slot_count() {
            if self.slot(slot).is_some_and(|(off, _)| off != 0) {
                return self.update(slot, rec);
            }
        } else {
            // Grow the directory up to and including `slot`.
            let grow = (slot + 1 - self.slot_count()) as usize * SLOT_BYTES;
            if self.total_free() < grow + rec.len() {
                return Err(SlotError::PageFull);
            }
            if self.contiguous_free() < grow {
                self.compact();
            }
            let old = self.slot_count();
            put_u16(self.bm(), OFF_NSLOTS, slot + 1);
            let fs = self.free_start() + grow;
            put_u16(self.bm(), OFF_FREE_START, fs as u16);
            for s in old..=slot {
                self.set_slot(s, 0, 0);
            }
        }
        // Slot exists and is a tombstone: place the body.
        if self.contiguous_free() < rec.len() {
            if self.total_free() < rec.len() {
                return Err(SlotError::PageFull);
            }
            self.compact();
        }
        let end = self.free_end();
        let start = end - rec.len();
        self.bm()[start..end].copy_from_slice(rec);
        put_u16(self.bm(), OFF_FREE_END, start as u16);
        self.set_slot(slot, start as u16, rec.len() as u16);
        Ok(())
    }

    /// Iterate live `(slot, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |i| self.get(i).ok().map(|r| (i, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Page {
        let mut p = Page::zeroed();
        SlottedPage::init(&mut p);
        p
    }

    #[test]
    fn insert_then_get() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let s = sp.insert(b"hello").unwrap();
        assert_eq!(sp.get(s).unwrap(), b"hello");
        assert_eq!(sp.slot_count(), 1);
    }

    #[test]
    fn slots_are_stable_across_deletes() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let a = sp.insert(b"aaa").unwrap();
        let b = sp.insert(b"bbb").unwrap();
        let c = sp.insert(b"ccc").unwrap();
        sp.delete(b).unwrap();
        assert_eq!(sp.get(a).unwrap(), b"aaa");
        assert_eq!(sp.get(c).unwrap(), b"ccc");
        assert_eq!(sp.get(b), Err(SlotError::NoSuchSlot));
        // Tombstoned slot is reused by the next insert.
        let d = sp.insert(b"ddd").unwrap();
        assert_eq!(d, b);
        assert_eq!(sp.get(d).unwrap(), b"ddd");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let s = sp.insert(b"0123456789").unwrap();
        sp.update(s, b"abc").unwrap();
        assert_eq!(sp.get(s).unwrap(), b"abc");
        sp.update(s, b"a much longer record body").unwrap();
        assert_eq!(sp.get(s).unwrap(), b"a much longer record body");
    }

    #[test]
    fn fill_page_then_overflow() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let rec = [7u8; 100];
        let mut n = 0;
        while sp.insert(&rec).is_ok() {
            n += 1;
        }
        // 8192 - 16 header over (100 + 4) per record ≈ 78 records.
        assert!(n >= 75, "n={n}");
        assert!(!sp.can_insert(100));
        assert!(sp.can_insert(1) || sp.total_free() < 5);
    }

    #[test]
    fn compaction_recovers_holes() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let slots: Vec<u16> = (0..70).map(|_| sp.insert(&[1u8; 100]).unwrap()).collect();
        // Delete every other record: plenty of total space, fragmented.
        for s in slots.iter().step_by(2) {
            sp.delete(*s).unwrap();
        }
        // A 2000-byte record only fits via compaction.
        assert!(sp.contiguous_free() < 2000);
        let s = sp.insert(&[9u8; 2000]).unwrap();
        assert_eq!(sp.get(s).unwrap(), &[9u8; 2000][..]);
        // Survivors intact after compaction.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(sp.get(*s).unwrap(), &[1u8; 100][..]);
        }
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let huge = vec![0u8; PAGE_SIZE];
        assert_eq!(sp.insert(&huge), Err(SlotError::RecordTooLarge));
    }

    #[test]
    fn failed_grow_update_rolls_back() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        let s = sp.insert(&[1u8; 100]).unwrap();
        while sp.insert(&[2u8; 100]).is_ok() {}
        // Page is full; growing s must fail and leave the original intact.
        let err = sp.update(s, &[3u8; 4000]).unwrap_err();
        assert_eq!(err, SlotError::PageFull);
        assert_eq!(sp.get(s).unwrap(), &[1u8; 100][..]);
    }

    #[test]
    fn lsn_round_trip() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        assert_eq!(sp.lsn(), 0);
        sp.set_lsn(0xDEADBEEF);
        assert_eq!(sp.lsn(), 0xDEADBEEF);
    }

    #[test]
    fn iter_yields_live_records_in_slot_order() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        sp.insert(b"a").unwrap();
        let b = sp.insert(b"b").unwrap();
        sp.insert(b"c").unwrap();
        sp.delete(b).unwrap();
        let collected: Vec<(u16, Vec<u8>)> = sp.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(
            collected,
            vec![(0u16, b"a".to_vec()), (2u16, b"c".to_vec())]
        );
    }

    #[test]
    fn install_at_specific_slots() {
        let mut p = fresh();
        let mut sp = SlottedPage::attach(&mut p);
        // Install far beyond the current directory.
        sp.install(5, b"five").unwrap();
        assert_eq!(sp.slot_count(), 6);
        assert_eq!(sp.get(5).unwrap(), b"five");
        for s in 0..5 {
            assert_eq!(sp.get(s), Err(SlotError::NoSuchSlot));
        }
        // Install into an intermediate tombstone.
        sp.install(2, b"two").unwrap();
        assert_eq!(sp.get(2).unwrap(), b"two");
        // Overwrite a live slot.
        sp.install(5, b"FIVE!").unwrap();
        assert_eq!(sp.get(5).unwrap(), b"FIVE!");
        // Normal inserts reuse remaining tombstones first.
        let s = sp.insert(b"zero").unwrap();
        assert_eq!(s, 0);
    }

    #[test]
    fn attach_or_init_detects_raw_pages() {
        let mut p = Page::zeroed();
        {
            let mut sp = SlottedPage::attach_or_init(&mut p);
            sp.insert(b"first").unwrap();
        }
        {
            // Already initialized: must preserve contents.
            let sp = SlottedPage::attach_or_init(&mut p);
            assert_eq!(sp.get(0).unwrap(), b"first");
        }
    }

    #[test]
    fn state_survives_page_copy() {
        // All state lives in the bytes: copying the Page preserves records.
        let mut p = fresh();
        let s = {
            let mut sp = SlottedPage::attach(&mut p);
            sp.insert(b"durable").unwrap()
        };
        let mut copy = p.clone();
        let sp = SlottedPage::attach(&mut copy);
        assert_eq!(sp.get(s).unwrap(), b"durable");
    }
}
