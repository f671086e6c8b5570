//! ARIES-style restart recovery: analysis, redo, undo.
//!
//! Figure 4 keeps "log sync & recovery" in software on the GP-CPU, and §5.3
//! relies on it: the hardware probe engine only has to guarantee per-request
//! atomicity *because* recovery restores transaction atomicity from the log.
//!
//! The protocol is classic ARIES, scoped to this storage engine:
//!
//! 1. **Analysis** scans forward from the last checkpoint, classifying
//!    transactions into winners (Commit seen) and losers.
//! 2. **Redo** repeats history: every redoable record is re-applied iff the
//!    target page's LSN is older — including records of losers and CLRs.
//! 3. **Undo** rolls losers back newest-first along their `prev_lsn`
//!    chains, appending CLRs (with `undo_next`) so that a crash *during*
//!    recovery is itself recoverable, then an `End` per loser.
//!
//! The same undo machinery serves runtime aborts ([`undo_txn`]).

use crate::manager::LogManager;
use crate::record::{ClrAction, LogBody, LogRecord, Lsn, TxnId, TxnMap, TxnSet, NULL_LSN};
use bionic_storage::bufferpool::BufferPool;
use bionic_storage::page::RecordId;
use bionic_storage::slotted::SlottedPage;
use std::collections::HashMap;

/// Summary of a completed recovery.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// Committed transactions found by analysis.
    pub winners: Vec<TxnId>,
    /// In-flight transactions rolled back.
    pub losers: Vec<TxnId>,
    /// Log records scanned across all phases.
    pub records_scanned: u64,
    /// Page-level actions re-applied by redo.
    pub redone: u64,
    /// Page-level actions rolled back by undo.
    pub undone: u64,
    /// `(table, pages)` population discovered, for rebuilding heap/catalog
    /// metadata and indexes.
    pub table_pages: HashMap<u32, Vec<u64>>,
    /// Bytes dropped from the log tail because they failed record
    /// validation (torn write at crash, or corruption) — surfaced from
    /// [`LogManager::torn_bytes_dropped`] so callers see the skip instead of
    /// it vanishing silently.
    pub torn_bytes_skipped: u64,
    /// Transactions found prepared but undecided (durable Prepare, no
    /// Commit/End): `(local txn, global txn, coordinator)`. These were
    /// handed to the resolver; presumed abort means an unresolvable branch
    /// rolls back.
    pub in_doubt: Vec<(TxnId, u64, u32)>,
    /// In-doubt branches the resolver committed.
    pub resolved_committed: u64,
    /// In-doubt branches rolled back (resolver said abort, or presumed).
    pub resolved_aborted: u64,
}

/// Install `image` at `rid`, stamping `lsn` on the page.
pub fn apply_install(pool: &mut BufferPool, rid: RecordId, image: &[u8], lsn: Lsn) {
    pool.with_page_mut(rid.page, |pg| {
        let mut sp = SlottedPage::attach_or_init(pg);
        sp.install(rid.slot, image)
            .expect("recovery install must fit: page history guarantees space");
        sp.set_lsn(lsn);
    });
}

/// Remove the record at `rid`, stamping `lsn` on the page.
pub fn apply_remove(pool: &mut BufferPool, rid: RecordId, lsn: Lsn) {
    pool.with_page_mut(rid.page, |pg| {
        let mut sp = SlottedPage::attach_or_init(pg);
        sp.delete(rid.slot)
            .expect("recovery delete of a record that redo should have installed");
        sp.set_lsn(lsn);
    });
}

fn page_lsn(pool: &mut BufferPool, rid: RecordId) -> Lsn {
    pool.with_page_mut(rid.page, |pg| SlottedPage::attach_or_init(pg).lsn())
        .0
}

/// Undo one data record, appending its CLR. Returns the CLR's `undo_next`.
fn undo_one(lm: &mut LogManager, pool: &mut BufferPool, rec: &LogRecord) -> Option<Lsn> {
    let (action, next) = match &rec.body {
        LogBody::Insert { table, rid, .. } => (
            ClrAction::Remove {
                table: *table,
                rid: *rid,
            },
            rec.prev_lsn,
        ),
        LogBody::Update {
            table, rid, before, ..
        } => (
            ClrAction::Install {
                table: *table,
                rid: *rid,
                image: before.clone(),
            },
            rec.prev_lsn,
        ),
        LogBody::Delete { table, rid, before } => (
            ClrAction::Install {
                table: *table,
                rid: *rid,
                image: before.clone(),
            },
            rec.prev_lsn,
        ),
        // CLRs are never undone; skip to their undo_next.
        LogBody::Clr { undo_next, .. } => {
            return if *undo_next == NULL_LSN {
                None
            } else {
                Some(*undo_next)
            };
        }
        // Begin terminates the chain; control records are not undone.
        LogBody::Begin => return None,
        _ => {
            return if rec.prev_lsn == NULL_LSN {
                None
            } else {
                Some(rec.prev_lsn)
            };
        }
    };
    let (clr, _) = lm.append(
        rec.txn,
        LogBody::Clr {
            undo_next: next,
            action: action.clone(),
        },
    );
    match action {
        ClrAction::Install { rid, image, .. } => {
            apply_install(pool, RecordId::from_u64(rid), &image, clr.lsn);
        }
        ClrAction::Remove { rid, .. } => {
            apply_remove(pool, RecordId::from_u64(rid), clr.lsn);
        }
    }
    if next == NULL_LSN {
        None
    } else {
        Some(next)
    }
}

/// Roll back a transaction from its current chain tail (runtime abort or
/// recovery undo). Appends CLRs and a final `End`; returns actions undone.
pub fn undo_txn(lm: &mut LogManager, pool: &mut BufferPool, txn: TxnId) -> u64 {
    let mut undone = 0;
    let mut cursor = lm.last_lsn_of(txn);
    while let Some(lsn) = cursor {
        let rec = lm.read(lsn).expect("undo chain points at valid record");
        debug_assert_eq!(rec.txn, txn, "undo chain crossed transactions");
        let was_data = rec.body.is_redoable();
        cursor = undo_one(lm, pool, &rec);
        if was_data {
            undone += 1;
        }
    }
    lm.append(txn, LogBody::End);
    undone
}

/// Run full restart recovery over `lm` (typically built with
/// [`LogManager::from_image`] from the crash image) against `pool`.
///
/// Prepared-but-undecided (in-doubt) branches are *presumed aborted*: with
/// no resolver to consult, a durable Prepare without a later Commit rolls
/// back exactly like a loser. Distributed participants use
/// [`recover_with`] to consult the coordinator's decision instead.
pub fn recover(lm: &mut LogManager, pool: &mut BufferPool) -> RecoveryOutcome {
    recover_with(lm, pool, |_, _, _| false)
}

/// [`recover`] with an in-doubt resolver: `resolve(txn, gtxn, coord)`
/// returns `true` iff the coordinator durably decided commit for the
/// global transaction this local branch belongs to. Committed branches get
/// their missing Commit/End records appended (their effects were already
/// replayed by redo); aborted ones roll back through the ordinary undo
/// path, CLRs and all.
pub fn recover_with(
    lm: &mut LogManager,
    pool: &mut BufferPool,
    mut resolve: impl FnMut(TxnId, u64, u32) -> bool,
) -> RecoveryOutcome {
    let mut out = RecoveryOutcome {
        torn_bytes_skipped: lm.torn_bytes_dropped(),
        ..RecoveryOutcome::default()
    };

    // ---- Analysis ------------------------------------------------------
    // Start from the last checkpoint if any; seed with its active set.
    let mut txn_last: TxnMap<Lsn> = TxnMap::default();
    let mut committed = TxnSet::default();
    let mut ended = TxnSet::default();
    let mut prepared: TxnMap<(u64, u32)> = TxnMap::default();
    let mut redo_start: Lsn = 0;
    let start = match lm.last_checkpoint() {
        Some(ck) => {
            if let Some(LogRecord {
                body: LogBody::Checkpoint { active, redo_from },
                ..
            }) = lm.read(ck)
            {
                for (t, l) in active {
                    txn_last.insert(t, l);
                }
                redo_start = redo_from;
            }
            ck
        }
        None => 0,
    };
    let analysis_records: Vec<LogRecord> = lm.iter_from(start).collect();
    for rec in &analysis_records {
        out.records_scanned += 1;
        match &rec.body {
            LogBody::Commit => {
                committed.insert(rec.txn);
            }
            LogBody::End => {
                ended.insert(rec.txn);
                txn_last.remove(&rec.txn);
            }
            LogBody::Checkpoint { .. } => {}
            LogBody::Prepare { gtxn, coord } => {
                prepared.insert(rec.txn, (*gtxn, *coord));
                txn_last.insert(rec.txn, rec.lsn);
            }
            _ => {
                txn_last.insert(rec.txn, rec.lsn);
            }
        }
    }
    out.winners = committed.iter().copied().collect();
    out.winners.sort_unstable();
    // In-doubt branches (durable Prepare, no decision) are pulled out of
    // the loser set: their fate belongs to the resolver, not to undo.
    let mut in_doubt: Vec<(TxnId, u64, u32)> = txn_last
        .keys()
        .filter(|t| !committed.contains(t) && !ended.contains(t))
        .filter_map(|t| prepared.get(t).map(|&(g, c)| (*t, g, c)))
        .collect();
    in_doubt.sort_unstable();
    out.in_doubt = in_doubt.clone();
    let mut losers: Vec<(TxnId, Lsn)> = txn_last
        .iter()
        .filter(|(t, _)| !committed.contains(t) && !ended.contains(t) && !prepared.contains_key(t))
        .map(|(&t, &l)| (t, l))
        .collect();
    losers.sort_unstable();
    out.losers = losers.iter().map(|&(t, _)| t).collect();

    // ---- Redo: repeat history from the checkpoint's redo point ----------
    // (0 when there is no checkpoint; sharp checkpoints let us skip the
    // whole prefix. Redo stays conditional on the page LSN either way.)
    let redo_records: Vec<LogRecord> = lm.iter_from(redo_start).collect();
    for rec in &redo_records {
        out.records_scanned += 1;
        let (table, rid, image): (u32, u64, Option<&[u8]>) = match &rec.body {
            LogBody::Insert { table, rid, after } => (*table, *rid, Some(after)),
            LogBody::Update {
                table, rid, after, ..
            } => (*table, *rid, Some(after)),
            LogBody::Delete { table, rid, .. } => (*table, *rid, None),
            LogBody::Clr { action, .. } => match action {
                ClrAction::Install { table, rid, image } => (*table, *rid, Some(image)),
                ClrAction::Remove { table, rid } => (*table, *rid, None),
            },
            _ => continue,
        };
        let rid = RecordId::from_u64(rid);
        out.table_pages.entry(table).or_default().push(rid.page.0);
        if page_lsn(pool, rid) < rec.lsn {
            match image {
                Some(img) => apply_install(pool, rid, img, rec.lsn),
                None => {
                    // Idempotent remove: the page may already reflect it.
                    pool.with_page_mut(rid.page, |pg| {
                        let mut sp = SlottedPage::attach_or_init(pg);
                        let _ = sp.delete(rid.slot);
                        sp.set_lsn(rec.lsn);
                    });
                }
            }
            out.redone += 1;
        }
    }
    for pages in out.table_pages.values_mut() {
        pages.sort_unstable();
        pages.dedup();
    }

    // ---- Undo losers, newest chain tail first ---------------------------
    losers.sort_by_key(|&(_, l)| std::cmp::Reverse(l));
    for (txn, _) in losers {
        out.undone += undo_txn(lm, pool, txn);
    }

    // ---- Resolve in-doubt branches against the coordinator --------------
    // Redo already replayed their effects (they were not losers), so a
    // commit decision only needs the missing decision records; an abort
    // rolls back through the same undo path as a loser.
    let resolved_any = !in_doubt.is_empty();
    for (txn, gtxn, coord) in in_doubt {
        if resolve(txn, gtxn, coord) {
            lm.append(txn, LogBody::Commit);
            lm.append(txn, LogBody::End);
            out.winners.push(txn);
            out.resolved_committed += 1;
        } else {
            lm.append(txn, LogBody::Abort);
            out.undone += undo_txn(lm, pool, txn); // appends the End
            out.resolved_aborted += 1;
        }
    }
    if resolved_any {
        // Force the resolution records: a crash right after recovery must
        // not resurrect the doubt (the coordinator may be gone by then).
        lm.flush();
    }
    out.winners.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionic_storage::disk::DiskManager;
    use bionic_storage::heap::HeapFile;

    /// A tiny logged "engine" for exercising recovery: applies operations to
    /// a heap file and logs them WAL-correctly.
    struct Harness {
        lm: LogManager,
        pool: BufferPool,
        heap: HeapFile,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                lm: LogManager::new(),
                pool: BufferPool::new(128, DiskManager::new()),
                heap: HeapFile::new(),
            }
        }

        fn begin(&mut self, txn: TxnId) {
            self.lm.append(txn, LogBody::Begin);
        }

        fn insert(&mut self, txn: TxnId, data: &[u8]) -> RecordId {
            let (rid, _) = self.heap.insert(&mut self.pool, data).unwrap();
            let (rec, _) = self.lm.append(
                txn,
                LogBody::Insert {
                    table: 0,
                    rid: rid.to_u64(),
                    after: data.to_vec(),
                },
            );
            self.pool.with_page_mut(rid.page, |pg| {
                SlottedPage::attach(pg).set_lsn(rec.lsn);
            });
            rid
        }

        fn update(&mut self, txn: TxnId, rid: RecordId, data: &[u8]) {
            let (before, _) = self.heap.get(&mut self.pool, rid);
            let (new_rid, _) = self.heap.update(&mut self.pool, rid, data).unwrap();
            assert_eq!(new_rid, rid, "test records never move");
            let (rec, _) = self.lm.append(
                txn,
                LogBody::Update {
                    table: 0,
                    rid: rid.to_u64(),
                    before: before.unwrap(),
                    after: data.to_vec(),
                },
            );
            self.pool.with_page_mut(rid.page, |pg| {
                SlottedPage::attach(pg).set_lsn(rec.lsn);
            });
        }

        fn delete(&mut self, txn: TxnId, rid: RecordId) {
            let (before, _) = self.heap.get(&mut self.pool, rid);
            self.heap.delete(&mut self.pool, rid).unwrap();
            let (rec, _) = self.lm.append(
                txn,
                LogBody::Delete {
                    table: 0,
                    rid: rid.to_u64(),
                    before: before.unwrap(),
                },
            );
            self.pool.with_page_mut(rid.page, |pg| {
                SlottedPage::attach(pg).set_lsn(rec.lsn);
            });
        }

        fn commit(&mut self, txn: TxnId) {
            self.lm.append(txn, LogBody::Commit);
            self.lm.flush(); // WAL: commit forces the log
            self.lm.append(txn, LogBody::End);
        }

        fn prepare(&mut self, txn: TxnId, gtxn: u64, coord: u32) {
            self.lm.append(txn, LogBody::Prepare { gtxn, coord });
            self.lm.flush(); // prepare vote must be durable before YES
        }

        /// Crash: lose the buffer pool and the volatile log tail; restart
        /// with recovery. Returns the recovered (pool, log, outcome).
        fn crash_and_recover(self) -> (BufferPool, LogManager, RecoveryOutcome) {
            let disk = self.pool.crash();
            let mut pool = BufferPool::new(128, disk);
            let mut lm = LogManager::from_image(self.lm.crash_image());
            let out = recover(&mut lm, &mut pool);
            (pool, lm, out)
        }
    }

    fn read(pool: &mut BufferPool, rid: RecordId) -> Option<Vec<u8>> {
        pool.with_page_mut(rid.page, |pg| {
            SlottedPage::attach_or_init(pg)
                .get(rid.slot)
                .map(<[u8]>::to_vec)
                .ok()
        })
        .0
    }

    #[test]
    fn committed_work_survives_a_crash() {
        let mut h = Harness::new();
        h.begin(1);
        let rid = h.insert(1, b"committed row");
        h.commit(1);
        // Dirty page never flushed — redo must rebuild it from the log.
        let (mut pool, _, out) = h.crash_and_recover();
        assert_eq!(read(&mut pool, rid).unwrap(), b"committed row");
        assert_eq!(out.winners, vec![1]);
        assert!(out.losers.is_empty());
        assert!(out.redone >= 1);
    }

    #[test]
    fn uncommitted_work_is_rolled_back() {
        let mut h = Harness::new();
        h.begin(1);
        let rid1 = h.insert(1, b"will survive");
        h.commit(1);
        h.begin(2);
        let rid2 = h.insert(2, b"will vanish");
        h.update(2, rid1, b"dirty update");
        h.lm.flush(); // loser's records ARE durable — undo must remove them
        let (mut pool, lm, out) = h.crash_and_recover();
        assert_eq!(out.losers, vec![2]);
        assert_eq!(read(&mut pool, rid1).unwrap(), b"will survive");
        assert_eq!(read(&mut pool, rid2), None);
        assert!(out.undone >= 2);
        // Loser chain is closed with an End record.
        assert_eq!(lm.last_lsn_of(2), None);
    }

    #[test]
    fn unflushed_loser_tail_simply_disappears() {
        let mut h = Harness::new();
        h.begin(1);
        h.insert(1, b"not durable, not committed");
        // No flush at all: nothing of txn 1 is durable.
        let (_pool, _, out) = h.crash_and_recover();
        assert!(out.winners.is_empty());
        assert!(out.losers.is_empty(), "nothing durable => nothing to undo");
        assert_eq!(out.redone, 0);
    }

    #[test]
    fn deletes_are_undone_by_reinstall() {
        let mut h = Harness::new();
        h.begin(1);
        let rid = h.insert(1, b"precious");
        h.commit(1);
        h.begin(2);
        h.delete(2, rid);
        h.lm.flush();
        let (mut pool, _, out) = h.crash_and_recover();
        assert_eq!(out.losers, vec![2]);
        assert_eq!(read(&mut pool, rid).unwrap(), b"precious");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut h = Harness::new();
        h.begin(1);
        let rid1 = h.insert(1, b"one");
        h.commit(1);
        h.begin(2);
        h.insert(2, b"two");
        h.lm.flush();
        let (pool, lm, first) = h.crash_and_recover();

        // Crash again immediately after recovery (CLRs durable only if
        // flushed — flush to simulate the worst case of a mid-recovery
        // crash having completed its CLR writes).
        let mut lm2 = LogManager::from_image({
            let mut l = lm;
            l.flush();
            l.crash_image()
        });
        let disk = pool.crash();
        let mut pool2 = BufferPool::new(128, disk);
        let second = recover(&mut lm2, &mut pool2);
        assert_eq!(second.losers, Vec::<TxnId>::new(), "loser already Ended");
        assert_eq!(read(&mut pool2, rid1).unwrap(), b"one");
        assert!(first.undone >= 1);
        assert_eq!(second.undone, 0);
    }

    #[test]
    fn runtime_abort_uses_the_same_undo_path() {
        let mut h = Harness::new();
        h.begin(7);
        let rid = h.insert(7, b"oops");
        h.lm.append(7, LogBody::Abort);
        let undone = undo_txn(&mut h.lm, &mut h.pool, 7);
        assert_eq!(undone, 1);
        assert_eq!(read(&mut h.pool, rid), None);
        assert_eq!(h.lm.last_lsn_of(7), None);
        // Post-abort, the heap can reuse the slot without issue.
        let (rid2, _) = h.heap.insert(&mut h.pool, b"next").unwrap();
        assert_eq!(read(&mut h.pool, rid2).unwrap(), b"next");
    }

    #[test]
    fn checkpoint_bounds_analysis() {
        let mut h = Harness::new();
        for t in 1..=20 {
            h.begin(t);
            h.insert(t, format!("row {t}").as_bytes());
            h.commit(t);
        }
        h.begin(100);
        h.insert(100, b"active across checkpoint");
        // Fuzzy checkpoint: nothing flushed, so redo must start at 0.
        h.lm.checkpoint(0);
        h.begin(101);
        h.insert(101, b"after checkpoint");
        h.lm.flush();
        let (_pool, _, out) = h.crash_and_recover();
        let mut losers = out.losers.clone();
        losers.sort_unstable();
        assert_eq!(losers, vec![100, 101]);
        // Analysis started at the checkpoint: it scanned far fewer records
        // than the redo pass did (which always scans from 0).
        assert!(out.records_scanned > 0);
    }

    #[test]
    fn torn_tail_is_skipped_and_surfaced_to_callers() {
        let mut h = Harness::new();
        h.begin(1);
        let rid = h.insert(1, b"safe");
        h.commit(1);
        // Torn write: an insert record only half of which reached disk.
        let mut image = h.lm.crash_image();
        let clean_len = image.len();
        let torn = LogRecord {
            lsn: 0,
            txn: 2,
            prev_lsn: NULL_LSN,
            body: LogBody::Insert {
                table: 0,
                rid: 99,
                after: vec![0xAB; 64],
            },
        }
        .encode();
        image.extend_from_slice(&torn[..torn.len() - 5]);
        let torn_len = (image.len() - clean_len) as u64;

        let disk = h.pool.crash();
        let mut pool = BufferPool::new(128, disk);
        let mut lm = LogManager::from_image(image);
        let out = recover(&mut lm, &mut pool);
        assert_eq!(out.torn_bytes_skipped, torn_len, "skip must be surfaced");
        assert_eq!(out.winners, vec![1]);
        assert!(out.losers.is_empty(), "torn record never became durable");
        assert_eq!(read(&mut pool, rid).unwrap(), b"safe");
    }

    #[test]
    fn bitflipped_tail_is_cut_at_the_corrupt_record() {
        let mut h = Harness::new();
        h.begin(1);
        let rid = h.insert(1, b"good");
        h.commit(1);
        h.begin(2);
        h.insert(2, b"flipped");
        h.lm.flush();
        let mut image = h.lm.crash_image();
        // Corrupt one byte inside txn 2's insert payload (past txn 1's
        // records): validation must cut the log there, so txn 2's Begin may
        // survive but its insert does not.
        let n = image.len();
        image[n - 3] ^= 0x40;
        let disk = h.pool.crash();
        let mut pool = BufferPool::new(128, disk);
        let mut lm = LogManager::from_image(image);
        let out = recover(&mut lm, &mut pool);
        assert!(out.torn_bytes_skipped > 0);
        assert_eq!(out.winners, vec![1]);
        assert_eq!(read(&mut pool, rid).unwrap(), b"good");
    }

    #[test]
    fn in_doubt_branch_is_presumed_aborted_without_a_resolver() {
        let mut h = Harness::new();
        h.begin(1);
        let rid = h.insert(1, b"kept");
        h.commit(1);
        h.begin(2);
        let rid2 = h.insert(2, b"in doubt");
        h.prepare(2, 0x8000_0000_0000_0007, 1);
        let (mut pool, lm, out) = h.crash_and_recover();
        assert_eq!(out.in_doubt, vec![(2, 0x8000_0000_0000_0007, 1)]);
        assert_eq!(out.resolved_aborted, 1);
        assert_eq!(out.resolved_committed, 0);
        assert!(out.losers.is_empty(), "in-doubt is not a plain loser");
        assert_eq!(read(&mut pool, rid).unwrap(), b"kept");
        assert_eq!(read(&mut pool, rid2), None, "presumed abort rolls back");
        assert_eq!(lm.last_lsn_of(2), None, "branch chain is closed");
    }

    #[test]
    fn in_doubt_branch_commits_when_the_resolver_says_so() {
        let mut h = Harness::new();
        h.begin(2);
        let rid = h.insert(2, b"decided commit");
        h.prepare(2, 0x8000_0000_0000_0009, 0);
        let disk = h.pool.crash();
        let mut pool = BufferPool::new(128, disk);
        let mut lm = LogManager::from_image(h.lm.crash_image());
        let out = recover_with(&mut lm, &mut pool, |txn, gtxn, coord| {
            assert_eq!((txn, gtxn, coord), (2, 0x8000_0000_0000_0009, 0));
            true
        });
        assert_eq!(out.resolved_committed, 1);
        assert_eq!(out.winners, vec![2]);
        assert_eq!(read(&mut pool, rid).unwrap(), b"decided commit");

        // Second crash immediately after: the appended Commit was flushed,
        // so the branch is now an ordinary winner — no in-doubt, no undo.
        let disk2 = pool.crash();
        let mut pool2 = BufferPool::new(128, disk2);
        let mut lm2 = LogManager::from_image(lm.crash_image());
        let again = recover_with(&mut lm2, &mut pool2, |_, _, _| {
            panic!("resolved branch must not be re-asked")
        });
        assert!(again.in_doubt.is_empty());
        assert_eq!(read(&mut pool2, rid).unwrap(), b"decided commit");
    }

    #[test]
    fn unflushed_prepare_is_an_ordinary_loser() {
        let mut h = Harness::new();
        h.begin(3);
        h.insert(3, b"vote never sent");
        h.lm.flush();
        // Prepare appended but NOT flushed: the vote never became durable,
        // so recovery must treat the branch as a plain loser.
        h.lm.append(
            3,
            LogBody::Prepare {
                gtxn: 0x8000_0000_0000_0002,
                coord: 0,
            },
        );
        let (_pool, _, out) = h.crash_and_recover();
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.losers, vec![3]);
    }

    #[test]
    fn table_pages_discovered_for_rebuild() {
        let mut h = Harness::new();
        h.begin(1);
        for i in 0..200 {
            h.insert(1, format!("row {i:04} {}", "x".repeat(120)).as_bytes());
        }
        h.commit(1);
        let (_pool, _, out) = h.crash_and_recover();
        let pages = &out.table_pages[&0];
        assert!(pages.len() > 1, "rows spanned pages: {pages:?}");
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        assert_eq!(&sorted, pages, "page list is sorted for heap rebuild");
    }
}
