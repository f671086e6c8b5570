//! Property tests for the WAL record codec: round-trips over arbitrary
//! bodies (including empty and page-sized images), tag validation, and
//! corruption rejection. These back the fault-injection framework — the
//! chaos harness bit-flips log bytes and relies on `decode` rejecting every
//! mutant instead of panicking or mis-decoding.

use bionic_wal::record::{checksum, ClrAction, LogBody, LogRecord, Lsn, NULL_LSN};
use proptest::prelude::*;

/// Largest image a record may carry in these tests: a full page, the
/// natural upper bound for physical before/after images.
const MAX_IMAGE: usize = 4096;

fn image() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),                               // empty image
        Just(vec![0xEE; MAX_IMAGE]),                    // max-size image
        prop::collection::vec(any::<u8>(), 0..512),     // typical
        prop::collection::vec(any::<u8>(), 4000..4097), // near-max
    ]
}

fn body() -> impl Strategy<Value = LogBody> {
    prop_oneof![
        Just(LogBody::Begin),
        Just(LogBody::Commit),
        Just(LogBody::Abort),
        Just(LogBody::End),
        (any::<u32>(), any::<u64>(), image()).prop_map(|(table, rid, after)| LogBody::Insert {
            table,
            rid,
            after
        }),
        (any::<u32>(), any::<u64>(), image(), image()).prop_map(|(table, rid, before, after)| {
            LogBody::Update {
                table,
                rid,
                before,
                after,
            }
        }),
        (any::<u32>(), any::<u64>(), image()).prop_map(|(table, rid, before)| LogBody::Delete {
            table,
            rid,
            before
        }),
        (any::<u64>(), any::<u32>(), any::<u64>(), image()).prop_map(
            |(undo_next, table, rid, img)| LogBody::Clr {
                undo_next,
                action: ClrAction::Install {
                    table,
                    rid,
                    image: img,
                },
            }
        ),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(undo_next, table, rid)| {
            LogBody::Clr {
                undo_next,
                action: ClrAction::Remove { table, rid },
            }
        }),
        (
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..20),
            any::<u64>()
        )
            .prop_map(|(active, redo_from)| LogBody::Checkpoint { active, redo_from }),
        (any::<u64>(), any::<u32>()).prop_map(|(gtxn, coord)| LogBody::Prepare { gtxn, coord }),
    ]
}

/// One record of each of the ten body kinds (both CLR actions), every
/// image `image_len` bytes of a non-repeating pattern.
fn one_of_each_kind(image_len: usize) -> Vec<LogBody> {
    let image = |salt: u8| -> Vec<u8> {
        (0..image_len)
            .map(|i| (i as u8).wrapping_mul(31) ^ salt)
            .collect()
    };
    let (table, rid) = (3, 0x0001_0002_0003);
    vec![
        LogBody::Begin,
        LogBody::Commit,
        LogBody::Abort,
        LogBody::End,
        LogBody::Insert {
            table,
            rid,
            after: image(1),
        },
        LogBody::Update {
            table,
            rid,
            before: image(2),
            after: image(3),
        },
        LogBody::Delete {
            table,
            rid,
            before: image(4),
        },
        LogBody::Clr {
            undo_next: 96,
            action: ClrAction::Install {
                table,
                rid,
                image: image(5),
            },
        },
        LogBody::Clr {
            undo_next: NULL_LSN,
            action: ClrAction::Remove { table, rid },
        },
        LogBody::Checkpoint {
            active: vec![(7, 128), (9, 4096)],
            redo_from: 64,
        },
        LogBody::Prepare {
            gtxn: (1 << 63) | 5,
            coord: 2,
        },
    ]
}

/// The exhaustive half of the corruption contract: for a well-formed record
/// of every kind, every single-bit flip anywhere in the frame (length,
/// checksum, payload) and every truncation is rejected. Image lengths cover
/// every tail length of the word-wise checksum (0–7 bytes past a word
/// boundary) up to 512 B.
#[test]
fn every_bit_flip_and_every_truncation_of_every_kind_is_rejected() {
    for image_len in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 100, 512] {
        for body in one_of_each_kind(image_len) {
            let rec = LogRecord {
                lsn: 0,
                txn: 42,
                prev_lsn: 17,
                body,
            };
            let clean = rec.encode();
            assert_eq!(
                LogRecord::decode(&clean, 0).map(|(r, _)| r),
                Some(rec.clone())
            );
            for cut in 0..clean.len() {
                assert!(
                    LogRecord::decode(&clean[..cut], 0).is_none(),
                    "{:?} cut to {cut} of {} bytes decoded",
                    rec.body,
                    clean.len()
                );
            }
            let mut bad = clean.clone();
            for bit in 0..clean.len() * 8 {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    LogRecord::decode(&bad, 0).is_none(),
                    "{:?} with bit {bit} flipped decoded",
                    rec.body
                );
                bad[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_body_round_trips(
        body in body(),
        txn in any::<u64>(),
        prev in any::<u64>(),
        pad in 0usize..64,
    ) {
        let rec = LogRecord { lsn: pad as Lsn, txn, prev_lsn: prev, body };
        let mut log = vec![0u8; pad];
        log.extend(rec.encode());
        let (decoded, next) = LogRecord::decode(&log, pad as Lsn).expect("valid record decodes");
        prop_assert_eq!(&decoded, &rec);
        prop_assert_eq!(next as usize, log.len());
        // Every strict prefix of the record is rejected as truncated.
        for cut in [pad, pad + 1, pad + 7, pad + 8, log.len() - 1] {
            prop_assert!(LogRecord::decode(&log[..cut], pad as Lsn).is_none());
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes_to_a_different_record(
        body in body(),
        txn in any::<u64>(),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let rec = LogRecord { lsn: 0, txn, prev_lsn: NULL_LSN, body };
        let clean = rec.encode();
        let mut bad = clean.clone();
        let i = at % bad.len();
        bad[i] ^= flip;
        match LogRecord::decode(&bad, 0) {
            // Rejection is the expected outcome for payload corruption; a
            // length-field flip may leave a shorter-but-valid view only if
            // it re-frames to the identical record (impossible: the bytes
            // differ), so any successful decode must equal the original —
            // which the checksum makes unreachable for payload bytes.
            None => {}
            Some((got, _)) => prop_assert_eq!(got, rec, "corrupt bytes mis-decoded"),
        }
    }

    #[test]
    fn invalid_kind_tags_are_rejected(
        kind in 10u8..=255,
        txn in any::<u64>(),
        prev in any::<u64>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Hand-build a record with a correct checksum but an out-of-range
        // kind: validation must catch the tag itself.
        let mut payload = vec![kind];
        payload.extend_from_slice(&txn.to_le_bytes());
        payload.extend_from_slice(&prev.to_le_bytes());
        payload.extend_from_slice(&junk);
        let mut log = (payload.len() as u32).to_le_bytes().to_vec();
        log.extend_from_slice(&checksum(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        prop_assert!(LogRecord::decode(&log, 0).is_none());
    }

    #[test]
    fn well_framed_arbitrary_payloads_never_panic_the_field_parser(
        kind in 0u8..12,
        rest in prop::collection::vec(any::<u8>(), 0..201),
    ) {
        // Random log bytes die at the checksum, so give an arbitrary
        // payload a correct length and checksum: the field parser behind
        // them must accept or reject it, never panic or read past it.
        let mut payload = vec![kind];
        payload.extend_from_slice(&rest);
        let mut log = (payload.len() as u32).to_le_bytes().to_vec();
        log.extend_from_slice(&checksum(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        if let Some((_, next)) = LogRecord::decode(&log, 0) {
            prop_assert_eq!(next as usize, log.len());
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_checksum(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        zeros in 1usize..17,
    ) {
        // The last partial word is zero-padded before it is mixed in, so
        // only the length keeps `payload` and `payload + 0…0` apart.
        let mut padded = payload.clone();
        padded.resize(payload.len() + zeros, 0);
        prop_assert_ne!(checksum(&payload), checksum(&padded));
    }

    #[test]
    fn back_to_back_records_decode_sequentially(
        bodies in prop::collection::vec(body(), 1..16),
    ) {
        let mut log = Vec::new();
        let mut expect = Vec::new();
        for (i, b) in bodies.into_iter().enumerate() {
            let rec = LogRecord {
                lsn: log.len() as Lsn,
                txn: i as u64,
                prev_lsn: NULL_LSN,
                body: b,
            };
            log.extend(rec.encode());
            expect.push(rec);
        }
        let mut at: Lsn = 0;
        let mut got = Vec::new();
        while let Some((rec, next)) = LogRecord::decode(&log, at) {
            got.push(rec);
            at = next;
        }
        prop_assert_eq!(at as usize, log.len(), "walk consumes the whole log");
        prop_assert_eq!(got, expect);
    }
}
