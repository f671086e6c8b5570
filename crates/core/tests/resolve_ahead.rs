//! Resolve-ahead probes (DESIGN.md): every planned probe of a program — of a
//! whole batch — is descended before the first op runs, and an op uses its
//! entry only while the index still reports the version it was resolved at.
//! These tests walk every way an entry goes stale between resolution and
//! use. Debug builds re-walk each resolved hit and assert it equals the
//! live `index.get`, so under `cargo test` any wrong hit panics here; the
//! assertions below are chosen to fail in release builds too, where a stale
//! entry would show as a wrong outcome, row, or probe count.
//!
//! References: a program with a single planned probe is never resolved
//! ahead (nothing to overlap with), so the same ops submitted one program
//! per op are the live-walk reference for everything that does not depend
//! on transaction framing — rows, probes priced, tree nodes charged. Where
//! framing matters (aborts, the WAL, every time and energy figure),
//! expectations are computed by hand or taken from sequential `submit`s,
//! which `submit_batch` documents itself equal to.

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_core::ops::{Action, Op, Patch, TxnProgram};
use bionic_core::{AbortReason, Category, TxnOutcome};
use bionic_sim::time::SimTime;
use bionic_wal::record::LogBody;

const BODY: usize = 92;
/// Rows in `small`: exactly one full root leaf at the index's order of 256.
const SMALL_ROWS: i64 = 256;
const BIG_ROWS: i64 = 2000;

struct Db {
    e: Engine,
    /// 256 rows: height 1, and the next insert splits the root.
    small: u32,
    /// 2000 rows each: height 2, heap pages full.
    big: u32,
    other: u32,
}

fn db(cfg: EngineConfig) -> Db {
    let mut e = Engine::new(cfg);
    let small = e.create_table("small");
    let big = e.create_table("big");
    let other = e.create_table("other");
    for (t, rows) in [(small, SMALL_ROWS), (big, BIG_ROWS), (other, BIG_ROWS)] {
        for k in 0..rows {
            e.load(t, k, &body(k * 100));
        }
    }
    e.finish_load();
    Db {
        e,
        small,
        big,
        other,
    }
}

/// Record = key(8) || balance(8) || padding.
fn body(balance: i64) -> Vec<u8> {
    let mut b = vec![0u8; BODY];
    b[..8].copy_from_slice(&balance.to_le_bytes());
    b
}

fn balance(e: &mut Engine, t: u32, k: i64) -> Option<i64> {
    e.read_row(t, k)
        .map(|r| i64::from_le_bytes(r[8..16].try_into().unwrap()))
}

fn add(table: u32, key: i64, delta: i64) -> Op {
    Op::Update {
        table,
        key,
        patch: Patch::AddI64 { offset: 8, delta },
    }
}

fn read(table: u32, key: i64) -> Op {
    Op::Read { table, key }
}

fn insert(table: u32, key: i64) -> Op {
    Op::Insert {
        table,
        key,
        record: body(key * 100),
    }
}

fn delete(table: u32, key: i64) -> Op {
    Op::Delete { table, key }
}

/// One single-action program over `ops`; a missing read aborts it.
fn program(ops: Vec<Op>) -> TxnProgram {
    let (table, key) = match &ops[0] {
        Op::Read { table, key }
        | Op::Update { table, key, .. }
        | Op::Insert { table, key, .. }
        | Op::Delete { table, key } => (*table, *key),
        other => panic!("program must open with a keyed op, got {other:?}"),
    };
    TxnProgram {
        abort_on_missing_read: true,
        ..TxnProgram::single_phase("resolve", vec![Action::new(table, key, ops)])
    }
}

fn configs() -> [(&'static str, EngineConfig); 3] {
    [
        ("software", EngineConfig::software()),
        ("bionic", EngineConfig::bionic()),
        ("conventional", EngineConfig::conventional()),
    ]
}

fn rows(d: &mut Db) -> Vec<Vec<(i64, Vec<u8>)>> {
    [d.small, d.big, d.other]
        .map(|t| {
            d.e.verify_table_integrity(t).expect("table integrity");
            d.e.scan_table(t)
        })
        .to_vec()
}

/// What the index side was charged for: probes priced and tree nodes under
/// them. Independent of how ops are framed into transactions — unlike any
/// time or energy figure, whose cache-level draws depend on every charge
/// made before it.
fn index_work(e: &Engine) -> (u64, u64) {
    (e.stats.probes, e.stats.probe_nodes_visited)
}

fn wal_image(e: &mut Engine) -> Vec<u8> {
    e.os_flush_log();
    e.log().crash_image()
}

/// Everything two runs that claim to be the same run must agree on.
fn fingerprint(d: &mut Db) -> impl PartialEq + std::fmt::Debug {
    let s = &d.e.stats;
    let stats = (
        (s.submitted, s.committed, s.aborted, s.merges),
        (s.probes, s.probe_nodes_visited, s.probe_misses),
        (s.last_completion, s.latency.summary()),
    );
    let breakdown = Category::ALL.map(|c| d.e.breakdown.get(c));
    (stats, breakdown, wal_image(&mut d.e), rows(d))
}

/// Run `ops` as one program on a fresh engine and, on another, as one
/// program per op (the live-walk reference); both must commit everything
/// and agree on rows and index work. Returns the fused engine.
fn fused_equals_split(name: &str, cfg: &EngineConfig, ops: Vec<Op>) -> Db {
    let mut fused = db(cfg.clone());
    let out = fused.e.submit(&program(ops.clone()), SimTime::ZERO);
    assert!(out.is_committed(), "{name}: fused {out:?}");
    let mut split = db(cfg.clone());
    for (i, op) in ops.into_iter().enumerate() {
        let at = SimTime::from_us(50.0) * i as u64;
        let out = split.e.submit(&program(vec![op]), at);
        assert!(out.is_committed(), "{name}: split op {i} {out:?}");
    }
    assert_eq!(rows(&mut fused), rows(&mut split), "{name}: rows");
    assert_eq!(
        index_work(&fused.e),
        index_work(&split.e),
        "{name}: index work"
    );
    fused
}

#[test]
fn a_read_after_an_insert_or_delete_of_its_key_sees_the_write() {
    for (name, cfg) in configs() {
        // Resolved ahead, Read(5000) found nothing; the insert bumps the
        // version, the live walk finds the row, the program commits.
        let t = db(cfg.clone()).big;
        let mut d = fused_equals_split(name, &cfg, vec![insert(t, 5000), read(t, 5000)]);
        assert_eq!(balance(&mut d.e, t, 5000), Some(500_000), "{name}");

        // Resolved ahead, Read(7) found the row; after the delete it must
        // miss, abort the program, and the rollback must bring row 7 back.
        let mut d = db(cfg.clone());
        let before = rows(&mut d);
        let out =
            d.e.submit(&program(vec![delete(t, 7), read(t, 7)]), SimTime::ZERO);
        assert!(
            matches!(
                out,
                TxnOutcome::Aborted {
                    reason: AbortReason::MissingKey,
                    ..
                }
            ),
            "{name}: {out:?}"
        );
        assert_eq!(rows(&mut d), before, "{name}");
        assert_eq!((d.e.stats.committed, d.e.stats.aborted), (0, 1), "{name}");
    }
}

#[test]
fn a_leaf_split_sends_later_probes_down_the_new_tree() {
    for (name, cfg) in configs() {
        let t = db(cfg.clone()).small;
        // Keys 5 and 200 end up in different leaves of the split root.
        let ops = vec![read(t, 5), insert(t, 1000), read(t, 5), read(t, 200)];
        let mut d = fused_equals_split(name, &cfg, ops);
        // One node while the root is a leaf (first read, the insert's own
        // probe), two once it has split: entries resolved at height 1 must
        // not price the two reads that run at height 2.
        assert_eq!(d.e.stats.probes, 4, "{name}");
        assert_eq!(d.e.stats.probe_nodes_visited, 1 + 1 + 2 + 2, "{name}");
        assert_eq!(d.e.row_count(t), SMALL_ROWS as usize + 1, "{name}");
        assert_eq!(balance(&mut d.e, t, 200), Some(20_000), "{name}");
    }
}

#[test]
fn an_update_that_relocates_its_record_is_followed() {
    for (name, cfg) in configs() {
        let t = db(cfg.clone()).big;
        // Too large for row 40's (full) page: the heap moves the record and
        // the engine repoints the index, which bumps its version.
        let mut grown = 40i64.to_le_bytes().to_vec();
        grown.extend(body(7));
        grown.resize(3000, 0xAB);
        let ops = vec![
            Op::Update {
                table: t,
                key: 40,
                patch: Patch::Overwrite(grown.clone()),
            },
            add(t, 40, 5), // at the old address this would find no record
            read(t, 40),
            add(t, 41, 1),
        ];
        let mut d = fused_equals_split(name, &cfg, ops);
        let moved =
            d.e.log()
                .iter_from(0)
                .any(|r| matches!(r.body, LogBody::Delete { table, .. } if table == t));
        assert!(moved, "{name}: the update was meant to relocate");
        assert_eq!(balance(&mut d.e, t, 40), Some(12), "{name}");
        assert_eq!(d.e.read_row(t, 40).unwrap().len(), 3000, "{name}");
        assert_eq!(balance(&mut d.e, t, 41), Some(4101), "{name}");
    }
}

#[test]
fn duplicate_keys_in_one_program() {
    for (name, cfg) in configs() {
        // In-place updates leave the index alone: all four probes of key 9
        // are served from entries resolved before the first one ran.
        let t = db(cfg.clone()).other;
        let ops = vec![add(t, 9, 1), add(t, 9, 1), read(t, 9), read(t, 9)];
        let mut d = fused_equals_split(name, &cfg, ops);
        assert_eq!(balance(&mut d.e, t, 9), Some(902), "{name}");
        assert_eq!(d.e.stats.probes, 4, "{name}");
        assert_eq!(d.e.stats.probe_nodes_visited, 4 * 2, "{name}");

        // Both inserts resolved to "absent"; the second must still see the
        // first and abort, taking the first with it.
        let mut d = db(cfg.clone());
        let before = rows(&mut d);
        let out = d.e.submit(
            &program(vec![insert(t, 9000), insert(t, 9000)]),
            SimTime::ZERO,
        );
        assert!(
            matches!(
                out,
                TxnOutcome::Aborted {
                    reason: AbortReason::DuplicateKey,
                    ..
                }
            ),
            "{name}: {out:?}"
        );
        assert_eq!(rows(&mut d), before, "{name}");
    }
}

/// The batch's programs, and per program whether it commits.
fn batch_programs(d: &Db) -> Vec<(TxnProgram, bool)> {
    let (s, b, o) = (d.small, d.big, d.other);
    vec![
        (program(vec![add(b, 1, 1), add(o, 2, 1), read(s, 3)]), true),
        // Aborts at its third of four planned probes, after a delete: the
        // rollback re-inserts row 2 (two version bumps on `big`), and its
        // unconsumed fourth entry must not be handed to the next program.
        (
            program(vec![
                add(b, 1, 1),
                delete(b, 2),
                read(b, 99_999),
                add(b, 3, 1),
            ]),
            false,
        ),
        // Probes the keys the aborted program touched.
        (
            program(vec![add(b, 1, 10), add(b, 2, 10), add(b, 3, 10)]),
            true,
        ),
        (
            program(vec![read(b, 1), insert(b, 7000), insert(s, 1000)]),
            true,
        ),
        (
            program(vec![read(b, 7000), add(b, 7000, 1), read(s, 200)]),
            true,
        ),
        (program(vec![insert(b, 7000)]), false),
        (program(vec![delete(b, 7000), read(o, 5), read(b, 2)]), true),
    ]
}

fn kinds(outcomes: &[TxnOutcome]) -> Vec<Result<(), Option<AbortReason>>> {
    let kind = |o: &TxnOutcome| match o {
        TxnOutcome::Committed { .. } => Ok(()),
        TxnOutcome::Aborted { reason, .. } => Err(Some(*reason)),
        TxnOutcome::Interrupted => Err(None),
    };
    outcomes.iter().map(kind).collect()
}

/// `submit_batch` on one engine, the same programs through `submit` at the
/// same arrival times on another; `fuse` arms both crash fuses first.
fn batch_and_sequential(cfg: &EngineConfig, fuse: Option<u64>) -> [(Db, Vec<TxnOutcome>); 2] {
    let inter = SimTime::from_us(20.0);
    let mut batched = db(cfg.clone());
    let mut seq = db(cfg.clone());
    let programs: Vec<_> = batch_programs(&batched).into_iter().map(|p| p.0).collect();
    if let Some(n) = fuse {
        batched.e.crash_at(n);
        seq.e.crash_at(n);
    }
    let b_out = batched.e.submit_batch(&programs, SimTime::ZERO, inter);
    let mut s_out = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        s_out.push(seq.e.submit(p, inter * i as u64));
        if s_out[i].is_interrupted() {
            break;
        }
    }
    [(batched, b_out), (seq, s_out)]
}

#[test]
fn a_batch_with_a_mid_program_abort_equals_sequential_submits() {
    for (name, cfg) in configs() {
        let [(mut batched, b_out), (mut seq, s_out)] = batch_and_sequential(&cfg, None);
        let expected: Vec<bool> = batch_programs(&batched).iter().map(|p| p.1).collect();
        let committed: Vec<bool> = b_out.iter().map(TxnOutcome::is_committed).collect();
        assert_eq!(committed, expected, "{name}: {b_out:?}");
        assert_eq!(kinds(&b_out), kinds(&s_out), "{name}");
        assert_eq!(
            kinds(&b_out)[1],
            Err(Some(AbortReason::MissingKey)),
            "{name}"
        );
        assert_eq!(
            kinds(&b_out)[5],
            Err(Some(AbortReason::DuplicateKey)),
            "{name}"
        );
        assert_eq!(rows(&mut batched), rows(&mut seq), "{name}: rows");
        assert_eq!(
            wal_image(&mut batched.e),
            wal_image(&mut seq.e),
            "{name}: WAL"
        );
        let counts = |e: &Engine| (e.stats.submitted, e.stats.committed, e.stats.aborted);
        assert_eq!(counts(&batched.e), (7, 5, 2), "{name}");
        assert_eq!(counts(&seq.e), (7, 5, 2), "{name}");
        assert_eq!(batched.e.stats.probes, seq.e.stats.probes, "{name}");
        // By hand: 100 + 1 (program 0) + 10 (program 2); program 1 undone.
        let b = batched.big;
        assert_eq!(balance(&mut batched.e, b, 1), Some(111), "{name}");
        assert_eq!(balance(&mut batched.e, b, 2), Some(210), "{name}");
        assert_eq!(balance(&mut batched.e, b, 3), Some(310), "{name}");
        assert_eq!(balance(&mut batched.e, b, 7000), None, "{name}");
    }
}

#[test]
fn a_batch_cut_short_by_the_crash_fuse_equals_sequential_submits() {
    for (name, cfg) in configs() {
        // Sweep the fuse across the whole batch: it lands before, inside
        // and after the aborting program, and inside the inserts.
        for fuse in 1..24 {
            let [(mut batched, b_out), (mut seq, s_out)] = batch_and_sequential(&cfg, Some(fuse));
            let tag = format!("{name}, fuse {fuse}");
            assert_eq!(kinds(&b_out), kinds(&s_out), "{tag}");
            if batched.e.fuse_blown() {
                assert!(b_out.last().unwrap().is_interrupted(), "{tag}");
                assert!(b_out.len() <= 7, "{tag}");
                // Dead is dead: nothing resolved for the batch may serve
                // (or trip up) a later call.
                let again = program(vec![read(batched.big, 1), read(batched.big, 2)]);
                assert!(
                    batched.e.submit(&again, SimTime::ZERO).is_interrupted(),
                    "{tag}"
                );
            }
            assert_eq!(
                wal_image(&mut batched.e),
                wal_image(&mut seq.e),
                "{tag}: WAL"
            );
            // Recover both (rebuilt indexes restart their versions at 0)
            // and run a multi-probe program on each.
            let recover = |d: Db| {
                let (e, _) = Engine::restart(d.e.crash(), cfg.clone());
                Db { e, ..d }
            };
            let (mut batched, mut seq) = (recover(batched), recover(seq));
            assert_eq!(rows(&mut batched), rows(&mut seq), "{tag}: recovered rows");
            let b = batched.big;
            let after = program(vec![
                add(b, 1, 1000),
                insert(b, 8000),
                read(b, 8000),
                read(b, 1),
            ]);
            for d in [&mut batched, &mut seq] {
                let base = balance(&mut d.e, b, 1).unwrap();
                assert!(d.e.submit(&after, SimTime::ZERO).is_committed(), "{tag}");
                assert_eq!(balance(&mut d.e, b, 1), Some(base + 1000), "{tag}");
            }
            assert_eq!(rows(&mut batched), rows(&mut seq), "{tag}: rows after");
        }
    }
}

#[test]
fn a_batch_of_one_is_a_submit() {
    for (name, cfg) in configs() {
        let mut one = db(cfg.clone());
        let mut sub = db(cfg.clone());
        // One probe per table: the batch planner has nothing to share, so
        // pricing is `submit`'s to the picosecond — only the code path that
        // resolves the probes ahead differs.
        let programs = [
            program(vec![
                read(one.small, 3),
                add(one.big, 4, 1),
                insert(one.other, 9000),
            ]),
            program(vec![
                delete(one.other, 9000),
                read(one.big, 4),
                read(one.small, 77_777),
            ]),
            program(vec![read(one.big, 5)]),
        ];
        for (i, p) in programs.iter().enumerate() {
            let at = SimTime::from_us(30.0) * i as u64;
            let batch = one
                .e
                .submit_batch(std::slice::from_ref(p), at, SimTime::ZERO);
            assert_eq!(batch, vec![sub.e.submit(p, at)], "{name}: program {i}");
            let expect = if i == 1 {
                Err(Some(AbortReason::MissingKey))
            } else {
                Ok(())
            };
            assert_eq!(kinds(&batch), vec![expect], "{name}: program {i}");
        }
        assert_eq!(fingerprint(&mut one), fingerprint(&mut sub), "{name}");
    }
}
