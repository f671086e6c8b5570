//! Log records and their binary encoding.
//!
//! Records carry physical before/after images addressed by `(table, rid)`,
//! plus the per-transaction `prev_lsn` chain that undo walks backwards.
//! The encoding is a plain length-prefixed binary layout — a log is the one
//! place where bytes on disk *are* the contract, so the format is explicit
//! rather than derived.
//!
//! Every record carries a 32-bit [`checksum`] over its payload. [`LogRecord::decode`]
//! treats any violation — short length, bad checksum, unknown kind or CLR
//! action tag — as end-of-valid-log and returns `None`; it never panics on
//! log bytes, however mangled. That is what lets recovery stop cleanly at a
//! torn or bit-flipped tail instead of taking the process down.
//!
//! There is one encoder: [`LogBodyRef::encode_append`] frames a record in
//! place at the tail of a byte vector, and the owned [`LogRecord::encode`]
//! goes through it via [`LogBody::as_ref`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Log sequence number: the byte offset of a record in the log.
pub type Lsn = u64;

/// Transaction identifier.
pub type TxnId = u64;

/// Hasher for [`TxnId`]-keyed maps on the per-append path: one multiply by
/// an odd constant with the high half folded down, where SipHash costs a
/// few dozen cycles per key. Ids are handed out by the engine, so there is
/// no outside input to craft collisions. Deterministic, which changes
/// nothing a caller sees: std's iteration order was already random per
/// process, so every reader of these maps sorts.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TxnIdHasher(u64);

impl Hasher for TxnIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by transaction id, hashed with [`TxnIdHasher`].
pub(crate) type TxnMap<V> = HashMap<TxnId, V, BuildHasherDefault<TxnIdHasher>>;

/// A set of transaction ids, hashed with [`TxnIdHasher`].
pub(crate) type TxnSet = HashSet<TxnId, BuildHasherDefault<TxnIdHasher>>;

/// LSN value meaning "none" (start of chain).
pub const NULL_LSN: Lsn = u64::MAX;

/// The action a compensation (CLR) performs when replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClrAction {
    /// Re-install an image at `(table, rid)` (undo of update/delete).
    Install {
        /// Table being compensated.
        table: u32,
        /// Record address.
        rid: u64,
        /// Image to install.
        image: Vec<u8>,
    },
    /// Delete `(table, rid)` (undo of insert).
    Remove {
        /// Table being compensated.
        table: u32,
        /// Record address.
        rid: u64,
    },
}

/// Payload of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogBody {
    /// Transaction start.
    Begin,
    /// Transaction commit (durable once flushed).
    Commit,
    /// Transaction abort (undo follows as CLRs).
    Abort,
    /// Transaction fully undone / finished after abort.
    End,
    /// Physical insert.
    Insert {
        /// Table id.
        table: u32,
        /// Record address (packed `RecordId`).
        rid: u64,
        /// Inserted image.
        after: Vec<u8>,
    },
    /// Physical update.
    Update {
        /// Table id.
        table: u32,
        /// Record address.
        rid: u64,
        /// Pre-image (for undo).
        before: Vec<u8>,
        /// Post-image (for redo).
        after: Vec<u8>,
    },
    /// Physical delete.
    Delete {
        /// Table id.
        table: u32,
        /// Record address.
        rid: u64,
        /// Pre-image (for undo).
        before: Vec<u8>,
    },
    /// Compensation record: `undo_next` continues the undo chain.
    Clr {
        /// Next record to undo for this transaction.
        undo_next: Lsn,
        /// The compensating action (idempotently redoable).
        action: ClrAction,
    },
    /// Checkpoint: transactions active at checkpoint time, plus the LSN
    /// redo may start from (for *sharp* checkpoints — where the caller
    /// flushed all dirty pages first — this is the checkpoint's own LSN;
    /// fuzzy checkpoints pass the min recovery LSN, or 0 when unknown).
    Checkpoint {
        /// Active transaction ids and their last LSNs.
        active: Vec<(TxnId, Lsn)>,
        /// Earliest LSN whose effects might not be on disk.
        redo_from: Lsn,
    },
    /// Two-phase-commit prepare vote: once this record is durable the
    /// participant may no longer unilaterally abort the branch — the
    /// decision belongs to the coordinator named here. A prepared branch
    /// found at recovery with no later Commit/End is *in doubt* and must
    /// be resolved against the coordinator's log (presumed abort: no
    /// durable decision means abort).
    Prepare {
        /// Cluster-global transaction id this local branch belongs to.
        gtxn: u64,
        /// Coordinator node id holding the commit decision.
        coord: u32,
    },
}

impl LogBody {
    /// Is this body a data modification (redoable)?
    pub fn is_redoable(&self) -> bool {
        matches!(
            self,
            LogBody::Insert { .. }
                | LogBody::Update { .. }
                | LogBody::Delete { .. }
                | LogBody::Clr { .. }
        )
    }

    /// The borrowed view of this body — what the encoder consumes.
    pub fn as_ref(&self) -> LogBodyRef<'_> {
        match self {
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
            LogBody::Clr { undo_next, action } => LogBodyRef::Clr {
                undo_next: *undo_next,
                action,
            },
            LogBody::Checkpoint { active, redo_from } => LogBodyRef::Checkpoint {
                active,
                redo_from: *redo_from,
            },
            LogBody::Prepare { gtxn, coord } => LogBodyRef::Prepare {
                gtxn: *gtxn,
                coord: *coord,
            },
        }
    }
}

/// A log-record payload by reference: the view of a [`LogBody`] the
/// encoder consumes. Images are borrowed, so the hot append path can log
/// straight out of its scratch buffers without building an owned body.
#[derive(Debug, Clone, Copy)]
pub enum LogBodyRef<'a> {
    /// Transaction start.
    Begin,
    /// Transaction commit.
    Commit,
    /// Transaction abort.
    Abort,
    /// Transaction fully undone / finished after abort.
    End,
    /// Physical insert.
    Insert {
        /// Table id.
        table: u32,
        /// Record address (packed `RecordId`).
        rid: u64,
        /// Inserted image.
        after: &'a [u8],
    },
    /// Physical update.
    Update {
        /// Table id.
        table: u32,
        /// Record address.
        rid: u64,
        /// Pre-image (for undo).
        before: &'a [u8],
        /// Post-image (for redo).
        after: &'a [u8],
    },
    /// Physical delete.
    Delete {
        /// Table id.
        table: u32,
        /// Record address.
        rid: u64,
        /// Pre-image (for undo).
        before: &'a [u8],
    },
    /// Compensation record (see [`LogBody::Clr`]).
    Clr {
        /// Next record to undo for this transaction.
        undo_next: Lsn,
        /// The compensating action.
        action: &'a ClrAction,
    },
    /// Checkpoint (see [`LogBody::Checkpoint`]).
    Checkpoint {
        /// Active transaction ids and their last LSNs.
        active: &'a [(TxnId, Lsn)],
        /// Earliest LSN whose effects might not be on disk.
        redo_from: Lsn,
    },
    /// Two-phase-commit prepare vote (see [`LogBody::Prepare`]).
    Prepare {
        /// Cluster-global transaction id.
        gtxn: u64,
        /// Coordinator node id.
        coord: u32,
    },
}

fn put_row(out: &mut Vec<u8>, table: u32, rid: u64) {
    out.extend_from_slice(&table.to_le_bytes());
    out.extend_from_slice(&rid.to_le_bytes());
}

fn put_image(out: &mut Vec<u8>, img: &[u8]) {
    out.extend_from_slice(&(img.len() as u32).to_le_bytes());
    out.extend_from_slice(img);
}

impl LogBodyRef<'_> {
    /// Is this body a data modification (redoable)?
    pub fn is_redoable(&self) -> bool {
        matches!(
            self,
            LogBodyRef::Insert { .. }
                | LogBodyRef::Update { .. }
                | LogBodyRef::Delete { .. }
                | LogBodyRef::Clr { .. }
        )
    }

    fn kind(&self) -> u8 {
        match self {
            LogBodyRef::Begin => 0,
            LogBodyRef::Commit => 1,
            LogBodyRef::Abort => 2,
            LogBodyRef::End => 3,
            LogBodyRef::Insert { .. } => 4,
            LogBodyRef::Update { .. } => 5,
            LogBodyRef::Delete { .. } => 6,
            LogBodyRef::Clr { .. } => 7,
            LogBodyRef::Checkpoint { .. } => 8,
            LogBodyRef::Prepare { .. } => 9,
        }
    }

    /// Append the full record encoding for this body directly to `out`,
    /// returning the bytes written:
    /// `u32 payload_len | u32 checksum(payload) | payload`, where the payload is
    /// `u8 kind | u64 txn | u64 prev | body`. The header is reserved first
    /// and backfilled once the payload is in place, so nothing is staged in
    /// an intermediate buffer. The LSN itself is implicit (it is the
    /// record's offset).
    pub fn encode_append(&self, txn: TxnId, prev_lsn: Lsn, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&[0u8; 8]); // length + checksum, backfilled
        out.push(self.kind());
        out.extend_from_slice(&txn.to_le_bytes());
        out.extend_from_slice(&prev_lsn.to_le_bytes());
        match *self {
            LogBodyRef::Begin | LogBodyRef::Commit | LogBodyRef::Abort | LogBodyRef::End => {}
            LogBodyRef::Insert { table, rid, after } => {
                put_row(out, table, rid);
                put_image(out, after);
            }
            LogBodyRef::Update {
                table,
                rid,
                before,
                after,
            } => {
                put_row(out, table, rid);
                put_image(out, before);
                put_image(out, after);
            }
            LogBodyRef::Delete { table, rid, before } => {
                put_row(out, table, rid);
                put_image(out, before);
            }
            LogBodyRef::Clr { undo_next, action } => {
                out.extend_from_slice(&undo_next.to_le_bytes());
                match action {
                    ClrAction::Install { table, rid, image } => {
                        out.push(0);
                        put_row(out, *table, *rid);
                        put_image(out, image);
                    }
                    ClrAction::Remove { table, rid } => {
                        out.push(1);
                        put_row(out, *table, *rid);
                    }
                }
            }
            LogBodyRef::Checkpoint { active, redo_from } => {
                out.extend_from_slice(&redo_from.to_le_bytes());
                out.extend_from_slice(&(active.len() as u32).to_le_bytes());
                for (t, l) in active {
                    out.extend_from_slice(&t.to_le_bytes());
                    out.extend_from_slice(&l.to_le_bytes());
                }
            }
            LogBodyRef::Prepare { gtxn, coord } => {
                out.extend_from_slice(&gtxn.to_le_bytes());
                out.extend_from_slice(&coord.to_le_bytes());
            }
        }
        let body_len = out.len() - start - 8;
        let csum = checksum(&out[start + 8..]);
        out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&csum.to_le_bytes());
        body_len + 8
    }
}

/// A complete log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// This record's LSN (byte offset in the log).
    pub lsn: Lsn,
    /// Owning transaction (0 for checkpoints).
    pub txn: TxnId,
    /// Previous record of the same transaction ([`NULL_LSN`] if first).
    pub prev_lsn: Lsn,
    /// Payload.
    pub body: LogBody,
}

/// The per-record payload checksum: an FNV-1a-shaped xor-then-multiply hash
/// over little-endian 64-bit words. The multiply chain is what a checksum
/// costs, so it is paid once per eight payload bytes, not once per byte.
/// Whole words first, then the trailing 1–7 bytes as one zero-padded word,
/// then the payload length (so payloads that differ only in trailing zero
/// bytes still differ); the 64-bit state is folded to 32 bits. Each step is
/// a bijection of the state for a fixed word and of the word for a fixed
/// state, so two equal-length payloads that differ in a single word never
/// reach the same state; the rotation hands each product's well-mixed high
/// half to the next multiply's low half.
pub fn checksum(bytes: &[u8]) -> u32 {
    fn mix(h: u64, word: u64) -> u64 {
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32)
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(word));
    }
    h = mix(h, bytes.len() as u64);
    (h ^ (h >> 32)) as u32
}

/// Bounds-checked reader over a record payload: every getter returns `None`
/// instead of reading past the end, which is what keeps [`LogRecord::decode`]
/// panic-free on a payload whose fields claim more bytes than it holds.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn row(&mut self) -> Option<(u32, u64)> {
        Some((self.u32()?, self.u64()?))
    }

    fn image(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        Some(self.take(len)?.to_vec())
    }
}

impl LogRecord {
    /// Encode to bytes (the layout is [`LogBodyRef::encode_append`]'s).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.body
            .as_ref()
            .encode_append(self.txn, self.prev_lsn, &mut out);
        out
    }

    /// Decode the record starting at offset `lsn` in `log`. Returns the
    /// record and the offset of the next one. `None` on a truncated tail or
    /// any corruption (checksum mismatch, invalid kind/action tag, payload
    /// shorter than its fields claim) — decode never panics on log bytes.
    pub fn decode(log: &[u8], lsn: Lsn) -> Option<(LogRecord, Lsn)> {
        let mut frame = Cursor(log.get(usize::try_from(lsn).ok()?..)?);
        let body_len = frame.u32()?;
        let csum = frame.u32()?;
        let payload = frame.take(body_len as usize)?;
        if checksum(payload) != csum {
            return None;
        }
        let mut buf = Cursor(payload);
        let kind = buf.u8()?;
        let txn = buf.u64()?;
        let prev_lsn = buf.u64()?;
        let body = match kind {
            0 => LogBody::Begin,
            1 => LogBody::Commit,
            2 => LogBody::Abort,
            3 => LogBody::End,
            4 => {
                let (table, rid) = buf.row()?;
                let after = buf.image()?;
                LogBody::Insert { table, rid, after }
            }
            5 => {
                let (table, rid) = buf.row()?;
                let before = buf.image()?;
                let after = buf.image()?;
                LogBody::Update {
                    table,
                    rid,
                    before,
                    after,
                }
            }
            6 => {
                let (table, rid) = buf.row()?;
                let before = buf.image()?;
                LogBody::Delete { table, rid, before }
            }
            7 => {
                let undo_next = buf.u64()?;
                let tag = buf.u8()?;
                let (table, rid) = buf.row()?;
                let action = match tag {
                    0 => ClrAction::Install {
                        table,
                        rid,
                        image: buf.image()?,
                    },
                    1 => ClrAction::Remove { table, rid },
                    _ => return None,
                };
                LogBody::Clr { undo_next, action }
            }
            8 => {
                let redo_from = buf.u64()?;
                let n = buf.u32()? as usize;
                // Bound the claimed count by the bytes present before
                // allocating for it.
                let mut pairs = Cursor(buf.take(n.checked_mul(16)?)?);
                let mut active = Vec::with_capacity(n);
                for _ in 0..n {
                    active.push((pairs.u64()?, pairs.u64()?));
                }
                LogBody::Checkpoint { active, redo_from }
            }
            9 => {
                let gtxn = buf.u64()?;
                let coord = buf.u32()?;
                LogBody::Prepare { gtxn, coord }
            }
            _ => return None,
        };
        let rec = LogRecord {
            lsn,
            txn,
            prev_lsn,
            body,
        };
        Some((rec, lsn + 8 + Lsn::from(body_len)))
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(body: LogBody) {
        let rec = LogRecord {
            lsn: 128,
            txn: 42,
            prev_lsn: 64,
            body,
        };
        let mut log = vec![0u8; 128];
        log.extend(rec.encode());
        let (decoded, next) = LogRecord::decode(&log, 128).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(next as usize, log.len());
    }

    #[test]
    fn all_bodies_round_trip() {
        round_trip(LogBody::Begin);
        round_trip(LogBody::Commit);
        round_trip(LogBody::Abort);
        round_trip(LogBody::End);
        round_trip(LogBody::Insert {
            table: 3,
            rid: 0xABCD,
            after: b"new row".to_vec(),
        });
        round_trip(LogBody::Update {
            table: 1,
            rid: 7,
            before: b"old".to_vec(),
            after: b"new and longer".to_vec(),
        });
        round_trip(LogBody::Delete {
            table: 2,
            rid: 9,
            before: vec![0xFF; 300],
        });
        round_trip(LogBody::Clr {
            undo_next: NULL_LSN,
            action: ClrAction::Install {
                table: 1,
                rid: 5,
                image: b"restored".to_vec(),
            },
        });
        round_trip(LogBody::Clr {
            undo_next: 77,
            action: ClrAction::Remove { table: 4, rid: 11 },
        });
        round_trip(LogBody::Checkpoint {
            active: vec![(1, 100), (2, 200)],
            redo_from: 64,
        });
        round_trip(LogBody::Checkpoint {
            active: vec![],
            redo_from: 0,
        });
        round_trip(LogBody::Prepare {
            gtxn: 0x8000_0000_0000_0001,
            coord: 3,
        });
    }

    #[test]
    fn truncated_tail_decodes_to_none() {
        let rec = LogRecord {
            lsn: 0,
            txn: 1,
            prev_lsn: NULL_LSN,
            body: LogBody::Insert {
                table: 1,
                rid: 2,
                after: vec![1, 2, 3, 4],
            },
        };
        let full = rec.encode();
        for cut in 0..full.len() {
            assert!(
                LogRecord::decode(&full[..cut], 0).is_none(),
                "cut at {cut} should be detected as truncated"
            );
        }
        assert!(LogRecord::decode(&full, 0).is_some());
    }

    #[test]
    fn sequential_decode_walks_the_log() {
        let mut log = Vec::new();
        let mut lsns = Vec::new();
        for i in 0..10u64 {
            let rec = LogRecord {
                lsn: log.len() as u64,
                txn: i,
                prev_lsn: NULL_LSN,
                body: LogBody::Begin,
            };
            lsns.push(rec.lsn);
            log.extend(rec.encode());
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((rec, next)) = LogRecord::decode(&log, at) {
            seen.push(rec.lsn);
            at = next;
        }
        assert_eq!(seen, lsns);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let rec = LogRecord {
            lsn: 0,
            txn: 9,
            prev_lsn: 17,
            body: LogBody::Update {
                table: 2,
                rid: 5,
                before: b"aaaa".to_vec(),
                after: b"bbbbbb".to_vec(),
            },
        };
        let clean = rec.encode();
        assert!(LogRecord::decode(&clean, 0).is_some());
        // Flip every bit of the payload and checksum: decode must reject
        // each mutant (return None), never panic, never mis-decode.
        for byte in 4..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                match LogRecord::decode(&bad, 0) {
                    None => {}
                    Some((got, _)) => panic!(
                        "flip at byte {byte} bit {bit} decoded as {got:?} instead of being rejected"
                    ),
                }
            }
        }
    }

    #[test]
    fn invalid_kind_tag_with_valid_checksum_is_rejected() {
        // Hand-build a record whose checksum is correct but whose kind tag
        // is out of range: validation must catch the tag, not just the sum.
        for kind in [10u8, 42, 0xFF] {
            let mut payload = vec![kind];
            payload.extend_from_slice(&7u64.to_le_bytes());
            payload.extend_from_slice(&NULL_LSN.to_le_bytes());
            let mut log = (payload.len() as u32).to_le_bytes().to_vec();
            log.extend_from_slice(&checksum(&payload).to_le_bytes());
            log.extend_from_slice(&payload);
            assert!(
                LogRecord::decode(&log, 0).is_none(),
                "kind {kind} must be rejected"
            );
        }
    }

    #[test]
    fn invalid_clr_action_tag_with_valid_checksum_is_rejected() {
        let mut payload = vec![7u8]; // CLR kind
        payload.extend_from_slice(&3u64.to_le_bytes()); // txn
        payload.extend_from_slice(&NULL_LSN.to_le_bytes()); // prev
        payload.extend_from_slice(&NULL_LSN.to_le_bytes()); // undo_next
        payload.push(2); // invalid action tag
        let mut log = (payload.len() as u32).to_le_bytes().to_vec();
        log.extend_from_slice(&checksum(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        assert!(LogRecord::decode(&log, 0).is_none());
    }

    #[test]
    fn redoable_classification() {
        assert!(!LogBody::Begin.is_redoable());
        assert!(!LogBody::Commit.is_redoable());
        assert!(!LogBody::Prepare { gtxn: 1, coord: 0 }.is_redoable());
        assert!(LogBody::Insert {
            table: 0,
            rid: 0,
            after: vec![]
        }
        .is_redoable());
        assert!(LogBody::Clr {
            undo_next: 0,
            action: ClrAction::Remove { table: 0, rid: 0 }
        }
        .is_redoable());
    }
}
