//! Differential property test for `SlottedPage::insert`: the one-scan
//! insert must leave exactly the bytes the three-scan insert it replaced
//! would have — same slot, same body placement, same compaction points —
//! because slot numbers are half of every `RecordId` and page images are
//! what the WAL and the indexes point into.

use bionic_storage::page::{Page, PAGE_SIZE};
use bionic_storage::slotted::{SlotError, SlottedPage, MAX_RECORD};
use proptest::prelude::*;

// The on-page layout (see `slotted.rs`): a 16-byte header, then 4-byte
// `{offset, len}` slots; offset 0 marks a tombstone.
const HEADER: usize = 16;
const SLOT_BYTES: usize = 4;
const OFF_NSLOTS: usize = 8;
const OFF_FREE_START: usize = 10;
const OFF_FREE_END: usize = 12;

fn get_u16(b: &[u8], off: usize) -> usize {
    u16::from_le_bytes([b[off], b[off + 1]]) as usize
}

fn put_u16(b: &mut [u8], off: usize, v: usize) {
    b[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

/// The insert this PR replaced, on raw page bytes: `can_insert` (a
/// tombstone scan plus a live-bytes sum), a second tombstone scan, then
/// compaction if the contiguous gap is short.
fn reference_insert(page: &mut Page, rec: &[u8]) -> Result<u16, SlotError> {
    let b = page.bytes_mut();
    if rec.len() > MAX_RECORD {
        return Err(SlotError::RecordTooLarge);
    }
    let nslots = get_u16(b, OFF_NSLOTS);
    let slot_at = |b: &[u8], i: usize| {
        let off = HEADER + i * SLOT_BYTES;
        (get_u16(b, off), get_u16(b, off + 2))
    };
    let tombstone = |b: &[u8]| (0..nslots).find(|&i| slot_at(b, i).0 == 0);
    let live: usize = (0..nslots)
        .map(|i| slot_at(b, i))
        .filter(|&(off, _)| off != 0)
        .map(|(_, len)| len)
        .sum();
    let total_free = PAGE_SIZE - get_u16(b, OFF_FREE_START) - live;
    let need_slot = if tombstone(b).is_some() {
        0
    } else {
        SLOT_BYTES
    };
    if rec.len() + need_slot > total_free {
        return Err(SlotError::PageFull);
    }
    let reuse = tombstone(b);
    if get_u16(b, OFF_FREE_END) - get_u16(b, OFF_FREE_START) < rec.len() + need_slot {
        // Compact: slide live bodies to the back, in slot order.
        let bodies: Vec<(usize, Vec<u8>)> = (0..nslots)
            .map(|i| (i, slot_at(b, i)))
            .filter(|&(_, (off, _))| off != 0)
            .map(|(i, (off, len))| (i, b[off..off + len].to_vec()))
            .collect();
        let mut cursor = PAGE_SIZE;
        for (i, body) in &bodies {
            cursor -= body.len();
            b[cursor..cursor + body.len()].copy_from_slice(body);
            put_u16(b, HEADER + i * SLOT_BYTES, cursor);
            put_u16(b, HEADER + i * SLOT_BYTES + 2, body.len());
        }
        put_u16(b, OFF_FREE_END, cursor);
    }
    let slot = reuse.unwrap_or_else(|| {
        put_u16(b, OFF_NSLOTS, nslots + 1);
        let fs = get_u16(b, OFF_FREE_START) + SLOT_BYTES;
        put_u16(b, OFF_FREE_START, fs);
        nslots
    });
    let start = get_u16(b, OFF_FREE_END) - rec.len();
    b[start..start + rec.len()].copy_from_slice(rec);
    put_u16(b, OFF_FREE_END, start);
    put_u16(b, HEADER + slot * SLOT_BYTES, start);
    put_u16(b, HEADER + slot * SLOT_BYTES + 2, rec.len());
    Ok(slot as u16)
}

#[derive(Debug, Clone)]
enum PageOp {
    Insert(usize, u8),
    Delete(usize),
    Update(usize, usize, u8),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    // Bodies up to ~1 KiB fill a page in a dozen inserts, so sequences
    // reach PageFull, tombstone reuse and compaction many times over.
    prop_oneof![
        (0usize..1100, any::<u8>()).prop_map(|(len, fill)| PageOp::Insert(len, fill)),
        (0usize..1100, any::<u8>()).prop_map(|(len, fill)| PageOp::Insert(len, fill)),
        (0usize..24).prop_map(PageOp::Delete),
        (0usize..24, 0usize..1100, any::<u8>())
            .prop_map(|(slot, len, fill)| PageOp::Update(slot, len, fill)),
        Just(PageOp::Insert(PAGE_SIZE, 0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_scan_insert_matches_the_three_scan_reference(
        ops in prop::collection::vec(page_op(), 1..300),
    ) {
        let mut page = Page::zeroed();
        SlottedPage::init(&mut page);
        let mut reference = page.clone();

        for op in ops {
            match op {
                PageOp::Insert(len, fill) => {
                    let rec = vec![fill; len];
                    let mut sp = SlottedPage::attach(&mut page);
                    let fits = sp.can_insert(len);
                    let lowest_tombstone = (0..sp.slot_count()).find(|&s| sp.get(s).is_err());
                    let expect_slot = lowest_tombstone.unwrap_or(sp.slot_count());
                    let got = sp.insert(&rec);
                    prop_assert_eq!(got.is_ok(), fits, "insert of {} bytes: {:?}", len, got);
                    if let Ok(slot) = got {
                        prop_assert_eq!(slot, expect_slot);
                        prop_assert_eq!(sp.get(slot).unwrap(), &rec[..]);
                    }
                    prop_assert_eq!(got, reference_insert(&mut reference, &rec));
                }
                // Delete and update are the same code on both pages; they
                // supply the tombstones and holes insert has to deal with.
                PageOp::Delete(s) => {
                    let s = s as u16;
                    let got = SlottedPage::attach(&mut page).delete(s);
                    prop_assert_eq!(got, SlottedPage::attach(&mut reference).delete(s));
                }
                PageOp::Update(s, len, fill) => {
                    let (s, rec) = (s as u16, vec![fill; len]);
                    let got = SlottedPage::attach(&mut page).update(s, &rec);
                    prop_assert_eq!(got, SlottedPage::attach(&mut reference).update(s, &rec));
                }
            }
            prop_assert!(page.bytes() == reference.bytes(), "page bytes diverged");
        }
    }
}

/// The read rule spelled out on raw bytes with no slicing that can fail:
/// a live slot inside the directory whose entry and body both lie inside
/// the page.
fn reference_read(b: &[u8; PAGE_SIZE], slot: u16) -> Option<Vec<u8>> {
    if usize::from(slot) >= get_u16(b, OFF_NSLOTS) {
        return None;
    }
    let entry = HEADER + usize::from(slot) * SLOT_BYTES;
    if entry + SLOT_BYTES > PAGE_SIZE {
        return None;
    }
    let (off, len) = (get_u16(b, entry), get_u16(b, entry + 2));
    (off != 0 && off + len <= PAGE_SIZE).then(|| b[off..off + len].to_vec())
}

/// A page image to read from: uniform garbage, or a real slotted page
/// with some of its header, directory or body bytes overwritten.
fn hostile_page() -> impl Strategy<Value = Page> {
    let garbage = prop::collection::vec(any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1).prop_map(|bytes| {
        let mut page = Page::zeroed();
        page.bytes_mut().copy_from_slice(&bytes);
        page
    });
    let damaged = (
        prop::collection::vec((0usize..600, any::<u8>()), 0..40),
        prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..40),
    )
        .prop_map(|(near, anywhere)| {
            let mut page = Page::zeroed();
            let mut sp = SlottedPage::init(&mut page);
            for (i, &(len, fill)) in near.iter().enumerate() {
                let _ = sp.insert(&vec![fill; len / 3 + i % 5]);
            }
            // Overwrite bytes: the first 600 hold the header and directory.
            for (at, byte) in near.into_iter().chain(anywhere) {
                page.bytes_mut()[at] = byte;
            }
            page
        });
    prop_oneof![garbage, damaged.clone(), damaged]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reads_of_arbitrary_page_bytes_never_panic(
        page in hostile_page(),
        slots in prop::collection::vec(any::<u16>(), 1..16),
    ) {
        let mut page = page;
        let nslots = get_u16(page.bytes(), OFF_NSLOTS) as u16;
        let probe = slots
            .into_iter()
            .chain(0..nslots.min(48))
            .chain([nslots.wrapping_sub(1), nslots, u16::MAX]);
        for slot in probe {
            let want = reference_read(page.bytes(), slot);
            let read = SlottedPage::read(&page, slot).map(<[u8]>::to_vec).ok();
            prop_assert_eq!(&read, &want, "read of slot {}", slot);
            let sp = SlottedPage::attach(&mut page);
            prop_assert_eq!(sp.get(slot).map(<[u8]>::to_vec).ok(), want, "get of slot {}", slot);
        }
        let expect: Vec<(u16, Vec<u8>)> = (0..nslots)
            .filter_map(|s| reference_read(page.bytes(), s).map(|r| (s, r)))
            .collect();
        let sp = SlottedPage::attach(&mut page);
        let _ = (sp.lsn(), sp.contiguous_free());
        let live: Vec<(u16, Vec<u8>)> = sp.iter().map(|(s, r)| (s, r.to_vec())).collect();
        prop_assert_eq!(live, expect);
    }
}
