//! The log manager: LSN assignment, the in-memory tail, durability, and
//! checkpointing.
//!
//! This is the *functional* log — bytes in, bytes out. How long an insert
//! takes under contention is the business of [`crate::timing`]; whether a
//! crash survives is decided here by the durable/volatile split: everything
//! past `durable_lsn` dies with the process.

use crate::record::{LogBody, LogBodyRef, LogRecord, Lsn, TxnId, TxnMap, NULL_LSN};

/// The write-ahead log.
#[derive(Debug, Clone, Default)]
pub struct LogManager {
    buf: Vec<u8>,
    /// LSN of the first byte in `buf` (grows when the prefix is truncated).
    base_lsn: Lsn,
    durable_lsn: Lsn,
    last_lsn: TxnMap<Lsn>,
    last_checkpoint: Option<Lsn>,
    flushes: u64,
    appends: u64,
    /// Bytes discarded from the tail of a crash image because they did not
    /// decode as a valid record (torn write or corruption). Zero except on
    /// managers rebuilt via [`LogManager::from_image_at`].
    torn_bytes: u64,
}

impl LogManager {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a log manager over a durable log image (restart after a
    /// crash). Per-transaction chains are reconstructed by scanning, so
    /// recovery can keep appending CLRs with correct `prev_lsn`s and LSNs
    /// strictly above every pre-crash record.
    pub fn from_image(image: Vec<u8>) -> Self {
        Self::from_image_at(image, 0)
    }

    /// Rebuild from a crash image whose first byte sits at `base_lsn`
    /// (non-zero when the pre-crash log had been truncated).
    ///
    /// The scan stops at the first byte run that does not decode as a valid
    /// record — a torn write or corrupted tail — and *discards* those bytes
    /// from the rebuilt log, so later appends (recovery CLRs) land on a
    /// clean record boundary instead of after garbage that a second crash
    /// would resurrect. The count is reported via
    /// [`LogManager::torn_bytes_dropped`].
    pub fn from_image_at(image: Vec<u8>, base_lsn: Lsn) -> Self {
        let mut lm = LogManager {
            base_lsn,
            buf: image,
            ..Default::default()
        };
        let mut at = 0;
        while let Some((rec, next)) = LogRecord::decode(&lm.buf, at) {
            lm.track(rec.txn, base_lsn + at, rec.body.as_ref());
            at = next;
        }
        lm.torn_bytes = lm.buf.len() as Lsn - at;
        lm.buf.truncate(at as usize);
        lm.durable_lsn = base_lsn + at;
        lm
    }

    /// Bytes dropped from the tail of the crash image this manager was
    /// rebuilt from because they failed record validation (torn or
    /// corrupted). Zero for logs that shut down cleanly.
    pub fn torn_bytes_dropped(&self) -> u64 {
        self.torn_bytes
    }

    /// Next LSN to be assigned (current end of log).
    pub fn tail_lsn(&self) -> Lsn {
        self.base_lsn + self.buf.len() as Lsn
    }

    /// LSN of the oldest retained record (0 until the log is truncated).
    pub fn base_lsn(&self) -> Lsn {
        self.base_lsn
    }

    /// Discard the log prefix below `lsn` (a record boundary). Only legal
    /// once `lsn` is durable, at or below the last checkpoint's redo point,
    /// and below no live undo chain — the conditions a sharp checkpoint
    /// establishes. Returns the bytes reclaimed.
    pub fn truncate_to(&mut self, lsn: Lsn) -> u64 {
        assert!(lsn <= self.durable_lsn, "cannot truncate volatile log");
        assert!(
            self.last_lsn.values().all(|&l| l >= lsn),
            "live undo chain below the truncation point"
        );
        if lsn <= self.base_lsn {
            return 0;
        }
        let cut = (lsn - self.base_lsn) as usize;
        self.buf.drain(..cut);
        self.base_lsn = lsn;
        cut as u64
    }

    /// Highest LSN guaranteed on stable storage.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// Bytes buffered but not yet durable.
    pub fn unflushed_bytes(&self) -> u64 {
        self.tail_lsn() - self.durable_lsn
    }

    /// Number of flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Number of records appended through this manager (not counting
    /// records inherited from a crash image).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// LSN of the most recent checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<Lsn> {
        self.last_checkpoint
    }

    /// Last LSN written by `txn` (the tail of its undo chain).
    pub fn last_lsn_of(&self, txn: TxnId) -> Option<Lsn> {
        self.last_lsn.get(&txn).copied()
    }

    /// Transactions with live (unfinished) chains — the analysis-phase seed.
    pub fn active_txns(&self) -> Vec<(TxnId, Lsn)> {
        let mut v: Vec<(TxnId, Lsn)> = self.last_lsn.iter().map(|(&t, &l)| (t, l)).collect();
        v.sort_unstable();
        v
    }

    /// Append a record for `txn`; returns the full record (with assigned
    /// LSN and chained `prev_lsn`) and its encoded size.
    pub fn append(&mut self, txn: TxnId, body: LogBody) -> (LogRecord, usize) {
        let (lsn, prev_lsn, bytes) = self.append_chained(txn, body.as_ref());
        let rec = LogRecord {
            lsn,
            txn,
            prev_lsn,
            body,
        };
        (rec, bytes)
    }

    /// [`LogManager::append`] for a borrowed body: encodes straight into
    /// the log tail with no intermediate record or buffers. Returns the
    /// assigned LSN and encoded size.
    pub fn append_ref(&mut self, txn: TxnId, body: LogBodyRef<'_>) -> (Lsn, usize) {
        let (lsn, _, bytes) = self.append_chained(txn, body);
        (lsn, bytes)
    }

    /// Encode `body` at the tail, chained to `txn`'s previous record.
    /// Returns `(lsn, prev_lsn, encoded size)`.
    fn append_chained(&mut self, txn: TxnId, body: LogBodyRef<'_>) -> (Lsn, Lsn, usize) {
        let lsn = self.tail_lsn();
        let prev_lsn = self.track(txn, lsn, body).unwrap_or(NULL_LSN);
        let bytes = body.encode_append(txn, prev_lsn, &mut self.buf);
        self.appends += 1;
        (lsn, prev_lsn, bytes)
    }

    /// Chain bookkeeping for the record of `txn` at `lsn`: `End` retires
    /// the transaction's chain, a checkpoint becomes the latest one, and
    /// anything else is the new tail of the chain. Returns the chain's
    /// previous tail.
    fn track(&mut self, txn: TxnId, lsn: Lsn, body: LogBodyRef<'_>) -> Option<Lsn> {
        match body {
            LogBodyRef::End => self.last_lsn.remove(&txn),
            LogBodyRef::Checkpoint { .. } => {
                self.last_checkpoint = Some(lsn);
                self.last_lsn.get(&txn).copied()
            }
            _ => self.last_lsn.insert(txn, lsn),
        }
    }

    /// Write a checkpoint recording currently active transactions and the
    /// LSN redo may start from (see [`LogBody::Checkpoint`]).
    pub fn checkpoint(&mut self, redo_from: Lsn) -> Lsn {
        let active = self.active_txns();
        let (rec, _) = self.append(0, LogBody::Checkpoint { active, redo_from });
        rec.lsn
    }

    /// Make everything buffered so far durable. Returns `(durable_lsn,
    /// bytes_flushed)`; the byte count is what the caller charges to the SSD.
    pub fn flush(&mut self) -> (Lsn, u64) {
        let bytes = self.unflushed_bytes();
        if bytes > 0 {
            self.durable_lsn = self.tail_lsn();
            self.flushes += 1;
        }
        (self.durable_lsn, bytes)
    }

    /// Simulate a crash: return the durable portion of the retained log
    /// (what recovery will see), together with its base LSN.
    pub fn crash_image(&self) -> Vec<u8> {
        self.buf[..(self.durable_lsn - self.base_lsn) as usize].to_vec()
    }

    /// Iterate records from `from` (clamped to the retained base) to the
    /// end of the buffered log.
    pub fn iter_from(&self, from: Lsn) -> LogIter<'_> {
        LogIter {
            log: &self.buf,
            base: self.base_lsn,
            at: from.max(self.base_lsn),
        }
    }

    /// Read one record by LSN (must be a record boundary at or above the
    /// retained base).
    pub fn read(&self, lsn: Lsn) -> Option<LogRecord> {
        if lsn < self.base_lsn {
            return None;
        }
        LogRecord::decode(&self.buf, lsn - self.base_lsn).map(|(r, next)| {
            let _ = next;
            LogRecord { lsn, ..r }
        })
    }
}

/// Iterator over records in a log image.
pub struct LogIter<'a> {
    log: &'a [u8],
    /// LSN of `log[0]`.
    base: Lsn,
    at: Lsn,
}

impl<'a> LogIter<'a> {
    /// Iterate a raw log image (e.g. a crash image) from an offset.
    pub fn over(log: &'a [u8], from: Lsn) -> Self {
        LogIter {
            log,
            base: 0,
            at: from,
        }
    }
}

impl Iterator for LogIter<'_> {
    type Item = LogRecord;

    fn next(&mut self) -> Option<LogRecord> {
        let (rec, next) = LogRecord::decode(self.log, self.at - self.base)?;
        let lsn = self.at;
        self.at = self.base + next;
        Some(LogRecord { lsn, ..rec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_assign_monotone_lsns_and_chain_prev() {
        let mut lm = LogManager::new();
        let (r1, _) = lm.append(1, LogBody::Begin);
        let (r2, _) = lm.append(1, LogBody::Commit);
        let (r3, _) = lm.append(2, LogBody::Begin);
        assert_eq!(r1.lsn, 0);
        assert!(r2.lsn > r1.lsn);
        assert_eq!(r1.prev_lsn, NULL_LSN);
        assert_eq!(r2.prev_lsn, r1.lsn);
        assert_eq!(r3.prev_lsn, NULL_LSN, "chains are per-transaction");
    }

    #[test]
    fn append_ref_is_byte_identical_to_owned_append() {
        // Drive both append paths through the same record sequence and
        // require identical log bytes, LSNs, and chain state.
        let mut owned = LogManager::new();
        let mut by_ref = LogManager::new();
        let img = |n: usize| (0..n).map(|i| i as u8).collect::<Vec<u8>>();
        let seq: Vec<(TxnId, LogBody)> = vec![
            (1, LogBody::Begin),
            (
                1,
                LogBody::Insert {
                    table: 2,
                    rid: 77,
                    after: img(24),
                },
            ),
            (2, LogBody::Begin),
            (
                1,
                LogBody::Update {
                    table: 2,
                    rid: 77,
                    before: img(24),
                    after: img(31),
                },
            ),
            (
                2,
                LogBody::Delete {
                    table: 0,
                    rid: 5,
                    before: img(300),
                },
            ),
            (1, LogBody::Commit),
            (
                2,
                LogBody::Prepare {
                    gtxn: 0x8000_0000_0000_0042,
                    coord: 1,
                },
            ),
            (2, LogBody::Abort),
            (1, LogBody::End),
        ];
        for (txn, body) in seq {
            let r = match &body {
                LogBody::Begin => LogBodyRef::Begin,
                LogBody::Commit => LogBodyRef::Commit,
                LogBody::Abort => LogBodyRef::Abort,
                LogBody::End => LogBodyRef::End,
                LogBody::Insert { table, rid, after } => LogBodyRef::Insert {
                    table: *table,
                    rid: *rid,
                    after,
                },
                LogBody::Update {
                    table,
                    rid,
                    before,
                    after,
                } => LogBodyRef::Update {
                    table: *table,
                    rid: *rid,
                    before,
                    after,
                },
                LogBody::Delete { table, rid, before } => LogBodyRef::Delete {
                    table: *table,
                    rid: *rid,
                    before,
                },
                LogBody::Prepare { gtxn, coord } => LogBodyRef::Prepare {
                    gtxn: *gtxn,
                    coord: *coord,
                },
                other => unreachable!("owned-only body {other:?}"),
            };
            let (lsn, n) = by_ref.append_ref(txn, r);
            let (rec, n_owned) = owned.append(txn, body);
            assert_eq!((lsn, n), (rec.lsn, n_owned));
        }
        owned.flush();
        by_ref.flush();
        assert_eq!(owned.crash_image(), by_ref.crash_image());
        assert_eq!(owned.active_txns(), by_ref.active_txns());
        assert_eq!(owned.appends(), by_ref.appends());
    }

    #[test]
    fn flush_advances_durability() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin);
        assert_eq!(lm.durable_lsn(), 0);
        assert!(lm.unflushed_bytes() > 0);
        let (durable, bytes) = lm.flush();
        assert_eq!(durable, lm.tail_lsn());
        assert!(bytes > 0);
        assert_eq!(lm.unflushed_bytes(), 0);
        // Idempotent flush.
        let (_, bytes2) = lm.flush();
        assert_eq!(bytes2, 0);
        assert_eq!(lm.flushes(), 1);
    }

    #[test]
    fn crash_image_is_exactly_the_durable_prefix() {
        let mut lm = LogManager::new();
        let (r1, _) = lm.append(1, LogBody::Begin);
        lm.flush();
        lm.append(
            1,
            LogBody::Insert {
                table: 0,
                rid: 1,
                after: vec![1, 2, 3],
            },
        );
        let img = lm.crash_image();
        let recs: Vec<LogRecord> = LogIter::over(&img, 0).collect();
        assert_eq!(recs.len(), 1, "unflushed insert must be lost");
        assert_eq!(recs[0], r1);
    }

    #[test]
    fn iteration_from_arbitrary_boundary() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin);
        let (r2, _) = lm.append(1, LogBody::Commit);
        lm.append(1, LogBody::End);
        let recs: Vec<LogRecord> = lm.iter_from(r2.lsn).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].body, LogBody::Commit);
        assert_eq!(lm.read(r2.lsn).unwrap().body, LogBody::Commit);
    }

    #[test]
    fn active_txns_tracks_chains() {
        let mut lm = LogManager::new();
        lm.append(5, LogBody::Begin);
        lm.append(6, LogBody::Begin);
        lm.append(5, LogBody::Commit);
        lm.append(5, LogBody::End);
        let active = lm.active_txns();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].0, 6);
        assert_eq!(lm.last_lsn_of(5), None);
        assert!(lm.last_lsn_of(6).is_some());
    }

    #[test]
    fn truncation_reclaims_prefix_and_preserves_reads() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin);
        lm.append(1, LogBody::Commit);
        lm.append(1, LogBody::End);
        let (keep, _) = lm.append(2, LogBody::Begin);
        lm.flush();
        let reclaimed = lm.truncate_to(keep.lsn);
        assert!(reclaimed > 0);
        assert_eq!(lm.base_lsn(), keep.lsn);
        // Reads below the base are gone; at/above work with correct LSNs.
        assert!(lm.read(0).is_none());
        let r = lm.read(keep.lsn).unwrap();
        assert_eq!(r.lsn, keep.lsn);
        assert_eq!(r.body, LogBody::Begin);
        // Appends continue with monotone LSNs.
        let (next, _) = lm.append(2, LogBody::Commit);
        assert!(next.lsn > keep.lsn);
        assert_eq!(next.prev_lsn, keep.lsn);
        // Iteration from 0 clamps to the base.
        let recs: Vec<LogRecord> = lm.iter_from(0).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, keep.lsn);
    }

    #[test]
    #[should_panic(expected = "live undo chain")]
    fn truncation_refuses_to_cut_live_chains() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin); // live chain at LSN 0
        let (mark, _) = lm.append(2, LogBody::Begin);
        lm.flush();
        lm.truncate_to(mark.lsn);
    }

    #[test]
    fn crash_image_after_truncation_carries_the_base() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin);
        lm.append(1, LogBody::End);
        let (keep, _) = lm.append(2, LogBody::Begin);
        lm.append(2, LogBody::Commit);
        lm.append(2, LogBody::End);
        lm.flush();
        lm.truncate_to(keep.lsn);
        let base = lm.base_lsn();
        let image = lm.crash_image();
        let restored = LogManager::from_image_at(image, base);
        assert_eq!(restored.base_lsn(), base);
        let recs: Vec<LogRecord> = restored.iter_from(0).collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].lsn, keep.lsn);
        // prev_lsn chains stay coherent across the rebase.
        assert_eq!(recs[1].prev_lsn, keep.lsn);
    }

    #[test]
    fn torn_image_tail_is_dropped_and_counted() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin);
        let (c, _) = lm.append(1, LogBody::Commit);
        lm.flush();
        let mut image = lm.crash_image();
        let clean_len = image.len();
        // A torn write: half of a record made it to disk.
        let torn = LogRecord {
            lsn: 0,
            txn: 2,
            prev_lsn: NULL_LSN,
            body: LogBody::Insert {
                table: 0,
                rid: 1,
                after: vec![7; 40],
            },
        }
        .encode();
        image.extend_from_slice(&torn[..torn.len() / 2]);
        let torn_len = (image.len() - clean_len) as u64;

        let restored = LogManager::from_image(image);
        assert_eq!(restored.torn_bytes_dropped(), torn_len);
        assert_eq!(restored.tail_lsn(), clean_len as Lsn);
        assert_eq!(restored.durable_lsn(), clean_len as Lsn);
        // Appends after restore land on a clean boundary and decode back.
        let mut restored = restored;
        let (e, _) = restored.append(1, LogBody::End);
        assert_eq!(e.lsn, clean_len as Lsn);
        assert_eq!(e.prev_lsn, c.lsn);
        let recs: Vec<LogRecord> = restored.iter_from(0).collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].body, LogBody::End);
    }

    #[test]
    fn clean_image_reports_zero_torn_bytes() {
        let mut lm = LogManager::new();
        lm.append(1, LogBody::Begin);
        lm.flush();
        let restored = LogManager::from_image(lm.crash_image());
        assert_eq!(restored.torn_bytes_dropped(), 0);
    }

    #[test]
    fn checkpoint_records_active_set() {
        let mut lm = LogManager::new();
        lm.append(9, LogBody::Begin);
        let ck = lm.checkpoint(0);
        assert_eq!(lm.last_checkpoint(), Some(ck));
        let rec = lm.read(ck).unwrap();
        match rec.body {
            LogBody::Checkpoint { active, redo_from } => {
                assert_eq!(active.len(), 1);
                assert_eq!(active[0].0, 9);
                assert_eq!(redo_from, 0);
            }
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }
}
