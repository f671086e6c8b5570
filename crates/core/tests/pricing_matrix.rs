//! Pricing matrix: the oracle for refactors of `core::exec`.
//!
//! One fixed stream of ~230 transactions — point, secondary and range
//! reads, in-place and relocating updates, secondary-key moves, inserts,
//! deletes, multi-phase programs, a missing-key and a duplicate-key abort
//! with real undo work, prepared branches resolved both ways (with and
//! without writes), one coordinator decision, one planned batch and two
//! range queries — runs over every combination of
//!
//! * exec {Dora, Conventional} × offloads {software, bionic}
//! * faults {off, `HwFaultConfig::uniform(1_500)`, forced-degraded}
//! * placement {off, on with every unit eligible and hair-trigger rules}
//! * contention {off, on with a bursty synthetic OLAP client on both
//!   arbiters}
//!
//! and each of the 48 cells is reduced to two digests: `state` (every
//! outcome's latency, `TimeBreakdown` in ps per category, `EngineStats`,
//! energy per domain, every attribution cell, fault and placement reports,
//! platform and arbiter counters, the WAL image) and `trace` (the Chrome
//! trace bytes). The experiments never run Conventional with faults,
//! prepared branches under faults or placement, or CLR inserts on a
//! degraded log; this does. The digests are recorded from the code as it
//! stood before the refactor, so a pricing path that moves by one
//! picosecond, one RNG draw or one span fails here. (The `trace` column
//! was re-recorded once, by the fix that makes `resolve_prepared` and
//! `log_decision` stamp their spans with their own transaction id; `state`
//! did not move.)

use bionic_core::config::{EngineConfig, ExecModel};
use bionic_core::engine::Engine;
use bionic_core::ops::{Action, Op, Patch, TxnProgram};
use bionic_core::placement::PlacementConfig;
use bionic_core::{Category, PrepareOutcome};
use bionic_sim::arbiter::BwClient;
use bionic_sim::fault::HwFaultConfig;
use bionic_sim::rng::SplitMix64;
use bionic_sim::time::SimTime;

const ROWS: i64 = 400;
const ACCOUNTS: u32 = 0;
const NOTES: u32 = 1;
/// Byte offset of the secondary key inside an `accounts` record image.
const SKEY_OFFSET: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Faults {
    Off,
    Uniform,
    Forced,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    exec: ExecModel,
    bionic: bool,
    faults: Faults,
    placement: bool,
    contention: bool,
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for exec in [ExecModel::Dora, ExecModel::Conventional] {
        for bionic in [false, true] {
            for faults in [Faults::Off, Faults::Uniform, Faults::Forced] {
                for placement in [false, true] {
                    for contention in [false, true] {
                        out.push(Cell {
                            exec,
                            bionic,
                            faults,
                            placement,
                            contention,
                        });
                    }
                }
            }
        }
    }
    out
}

/// `key || balance || skey || padding`, 100 bytes.
fn account_body(key: i64) -> Vec<u8> {
    let mut body = vec![0u8; 92];
    body[..8].copy_from_slice(&(key * 100).to_le_bytes());
    body[8..16].copy_from_slice(&(1_000_000 + key).to_le_bytes());
    body
}

fn engine(cell: Cell) -> Engine {
    let mut cfg = if cell.bionic {
        EngineConfig::bionic()
    } else {
        EngineConfig::software()
    };
    cfg.exec = cell.exec;
    cfg.agents = 4;
    cfg.seed = 22;
    // Small enough that the software read path misses the pool a couple of
    // times, the overlay aborts a few probes on non-resident data (each is
    // a 5 ms SAS fetch, so only a few) and merges trigger.
    cfg.pool_pages = 8;
    cfg.overlay_budget = 6_800;
    cfg.merge_threshold = 24;
    cfg.hw_faults = match cell.faults {
        Faults::Off => None,
        Faults::Uniform => Some(HwFaultConfig::uniform(1_500)),
        Faults::Forced => Some(HwFaultConfig::saturated()),
    };
    if cell.placement {
        cfg.placement = Some(PlacementConfig {
            window: SimTime::from_us(20.0),
            shed_trip_pct: 1,
            shed_trip_windows: 1,
            shed_clear_windows: 2,
            olap_floor_bytes_per_us: 1,
            fault_trip_pct: 1,
            fault_trip_windows: 1,
            hold_windows: 3,
            shed_units: [true, true, true, true, false],
            brownout_units: [true; 5],
        });
    }
    let mut e = Engine::new(cfg);
    let accounts = e.create_table_with_secondary("accounts", SKEY_OFFSET);
    let notes = e.create_table("notes");
    assert_eq!((accounts, notes), (ACCOUNTS, NOTES));
    for k in 0..ROWS {
        e.load(ACCOUNTS, k, &account_body(k));
        e.load(NOTES, k, &[7u8; 40]);
    }
    e.finish_load();
    e.enable_telemetry(1 << 16);
    e.enable_attribution();
    if cell.contention {
        e.platform.enable_contention();
    }
    e
}

enum Step {
    Submit(TxnProgram),
    /// `submit_prepared` now; the decision is delivered after the next
    /// step, so another transaction is submitted in between.
    Prepare(TxnProgram, u64, bool),
    Decide(u64),
    Batch(Vec<TxnProgram>),
    Query(i64, i64, bool),
}

fn one(name: &'static str, table: u32, route: i64, ops: Vec<Op>) -> TxnProgram {
    TxnProgram::single_phase(name, vec![Action::new(table, route, ops)])
}

fn add(table: u32, key: i64, delta: i64) -> Op {
    Op::Update {
        table,
        key,
        patch: Patch::AddI64 { offset: 8, delta },
    }
}

/// Overwrite with a record three times the size: it cannot stay on its
/// (full) page, so the update relocates and repoints the index.
fn grow(key: i64) -> Op {
    let mut rec = bionic_core::table::make_record(key, &account_body(key));
    rec.resize(300, 0xAB);
    Op::Update {
        table: ACCOUNTS,
        key,
        patch: Patch::Overwrite(rec),
    }
}

fn stream() -> Vec<Step> {
    let mut rng = SplitMix64::new(0x22);
    // Reads and updates stay in the lower half; deletes walk down from the
    // top, so no generated op meets a deleted key by accident.
    let mut hot = move || rng.below(ROWS as u64 / 2) as i64;
    let mut next_insert = ROWS;
    let mut next_delete = ROWS - 1;
    let mut next_grow = 0i64;
    let mut steps = Vec::new();
    for i in 0..200i64 {
        let k = hot();
        let prog = match i % 10 {
            0 => one(
                "reads",
                ACCOUNTS,
                k,
                vec![
                    Op::Read {
                        table: ACCOUNTS,
                        key: k,
                    },
                    Op::Read {
                        table: NOTES,
                        key: hot(),
                    },
                    Op::Read {
                        table: ACCOUNTS,
                        key: 900_000 + i,
                    },
                ],
            ),
            1 => one(
                "secondary",
                ACCOUNTS,
                k,
                vec![
                    Op::SecondaryRead {
                        table: ACCOUNTS,
                        skey: 1_000_000 + k,
                    },
                    Op::SecondaryRead {
                        table: ACCOUNTS,
                        skey: 5,
                    },
                ],
            ),
            2 => one(
                "range",
                ACCOUNTS,
                k,
                vec![
                    Op::ReadRange {
                        table: ACCOUNTS,
                        lo: k,
                        hi: k + 120,
                        limit: 40,
                    },
                    Op::ReadRange {
                        table: NOTES,
                        lo: k,
                        hi: k + 2,
                        limit: 8,
                    },
                ],
            ),
            3 => one(
                "update",
                ACCOUNTS,
                k,
                vec![add(ACCOUNTS, k, 1), add(NOTES, k, -1)],
            ),
            4 => {
                next_grow += 1;
                one("grow", ACCOUNTS, next_grow, vec![grow(next_grow)])
            }
            5 => {
                next_insert += 1;
                one(
                    "insert",
                    ACCOUNTS,
                    next_insert,
                    vec![Op::Insert {
                        table: ACCOUNTS,
                        key: next_insert,
                        record: account_body(next_insert),
                    }],
                )
            }
            6 => {
                next_delete -= 1;
                one(
                    "delete",
                    ACCOUNTS,
                    next_delete,
                    vec![
                        Op::Delete {
                            table: ACCOUNTS,
                            key: next_delete,
                        },
                        Op::Delete {
                            table: NOTES,
                            key: next_delete,
                        },
                    ],
                )
            }
            7 => {
                next_insert += 1;
                TxnProgram {
                    name: "phased",
                    phases: vec![
                        vec![
                            Action::new(
                                ACCOUNTS,
                                k,
                                vec![
                                    Op::Read {
                                        table: ACCOUNTS,
                                        key: k,
                                    },
                                    add(ACCOUNTS, k, 3),
                                ],
                            ),
                            Action::new(NOTES, k + 1, vec![add(NOTES, k + 1, 2)]),
                        ],
                        vec![Action::new(
                            NOTES,
                            next_insert,
                            vec![
                                Op::Compute { instructions: 900 },
                                Op::Insert {
                                    table: NOTES,
                                    key: next_insert,
                                    record: vec![1u8; 40],
                                },
                            ],
                        )],
                    ],
                    abort_on_missing_read: false,
                }
            }
            8 => one(
                "skey-move",
                ACCOUNTS,
                k,
                vec![Op::Update {
                    table: ACCOUNTS,
                    key: k,
                    patch: Patch::Splice {
                        offset: SKEY_OFFSET,
                        bytes: (2_000_000 + i).to_le_bytes().to_vec(),
                    },
                }],
            ),
            _ => TxnProgram {
                abort_on_missing_read: true,
                ..one(
                    "strict-read",
                    NOTES,
                    k,
                    vec![
                        Op::Read {
                            table: NOTES,
                            key: k,
                        },
                        Op::Read {
                            table: NOTES,
                            key: 800_000 + (i % 20) * (i % 3),
                        },
                    ],
                )
            },
        };
        steps.push(Step::Submit(prog));
        match i {
            // Aborts with real undo work: an insert, a relocating update and
            // a secondary-key move to compensate, CLRs to price.
            40 | 140 => {
                next_insert += 1;
                next_grow += 1;
                let last = if i == 40 {
                    add(ACCOUNTS, 999_999, 1) // missing key
                } else {
                    Op::Insert {
                        table: ACCOUNTS,
                        key: 3,
                        record: account_body(3),
                    } // duplicate key
                };
                steps.push(Step::Submit(one(
                    "doomed",
                    ACCOUNTS,
                    next_grow,
                    vec![
                        Op::Insert {
                            table: ACCOUNTS,
                            key: next_insert,
                            record: account_body(next_insert),
                        },
                        grow(next_grow),
                        Op::Delete {
                            table: NOTES,
                            key: 7,
                        },
                        last,
                    ],
                )));
            }
            60 => steps.push(Step::Prepare(
                one(
                    "branch",
                    ACCOUNTS,
                    11,
                    vec![add(ACCOUNTS, 11, 5), add(NOTES, 11, 5)],
                ),
                0x8000_0000_0000_0001,
                true,
            )),
            80 => {
                next_grow += 1;
                steps.push(Step::Prepare(
                    one(
                        "branch",
                        ACCOUNTS,
                        next_grow,
                        vec![add(ACCOUNTS, 12, 5), grow(next_grow)],
                    ),
                    0x8000_0000_0000_0002,
                    false,
                ));
            }
            100 | 110 => steps.push(Step::Prepare(
                one(
                    "ro-branch",
                    NOTES,
                    13,
                    vec![Op::Read {
                        table: NOTES,
                        key: 13,
                    }],
                ),
                0x8000_0000_0000_0003 + (i as u64 - 100) / 10,
                i == 100,
            )),
            120 => steps.push(Step::Decide(0x8000_0000_0000_0001)),
            // The repeat is served from the result cache.
            130 | 131 => steps.push(Step::Query(10, 90, false)),
            132 => steps.push(Step::Query(20, 60, true)),
            _ => {}
        }
    }
    // The last 32 programs run as one planned batch.
    let mut batch = Vec::new();
    while batch.len() < 32 {
        match steps.pop() {
            Some(Step::Submit(p)) => batch.push(p),
            Some(_) => {}
            None => unreachable!("stream holds more than 32 submits"),
        }
    }
    batch.reverse();
    steps.push(Step::Batch(batch));
    steps
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot trade bytes.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// What a cell exercised, for the coverage assertions.
#[derive(Default)]
struct Coverage {
    fallbacks: u64,
    retries: u64,
    placement_transitions: u64,
    oltp_queued_ps: u64,
    probe_misses: u64,
    merges: u64,
    aborted: u64,
    pool_misses: u64,
}

fn run(cell: Cell) -> (u64, u64, Coverage) {
    let mut e = engine(cell);
    let mut h = Fnv::new();
    let mut at = SimTime::ZERO;
    let step = SimTime::from_us(4.0);
    let mut pending: Option<(u64, bool)> = None;
    for (i, s) in stream().into_iter().enumerate() {
        if cell.contention && (i / 25) % 2 == 0 {
            // A rival analytics client: most of an SG-DRAM window and more
            // than a link window, booked just ahead of the transaction.
            let p = &mut e.platform;
            h.debug(&p.sg_contention_delay(BwClient::Olap, at, 350_000));
            h.debug(&p.link_contention_delay(BwClient::Olap, at, 30_000));
        }
        let deliver = pending.take();
        match s {
            Step::Submit(p) => h.debug(&e.submit(&p, at)),
            Step::Prepare(p, gtxn, commit) => {
                let out = e.submit_prepared(&p, at, gtxn, 1);
                h.debug(&out);
                let PrepareOutcome::Prepared { txn, .. } = out else {
                    panic!("{cell:?}: branch {gtxn:#x} did not prepare: {out:?}");
                };
                pending = Some((txn, commit));
            }
            Step::Decide(gtxn) => h.debug(&e.log_decision(gtxn, at)),
            Step::Batch(ps) => h.debug(&e.submit_batch(&ps, at, step)),
            Step::Query(lo, hi, asof) => {
                let v = asof.then(|| e.current_version() / 2);
                h.debug(&e.query_range(ACCOUNTS, lo, hi, v, at));
            }
        }
        if let Some((txn, commit)) = deliver {
            h.debug(&e.resolve_prepared(txn, commit, at + SimTime::from_us(30.0)));
        }
        at += step;
    }
    assert!(e.prepared_branches().is_empty(), "{cell:?}");
    for t in [ACCOUNTS, NOTES] {
        e.verify_table_integrity(t)
            .unwrap_or_else(|err| panic!("{cell:?}: {err}"));
    }

    for cat in Category::ALL {
        h.u64(e.breakdown.get(cat).as_ps());
    }
    h.debug(&e.stats);
    for (domain, energy) in e.platform.energy.snapshot() {
        h.bytes(domain.label().as_bytes());
        h.u64(energy.as_j().to_bits());
    }
    h.bytes(e.attribution().expect("enabled").to_csv().as_bytes());
    h.debug(&e.fault_report());
    h.debug(&e.placement_report());
    h.debug(&e.platform.counters());
    h.debug(&e.result_cache_stats());
    h.u64(e.write_seq());
    let mut cov = Coverage {
        probe_misses: e.stats.probe_misses,
        merges: e.stats.merges,
        aborted: e.stats.aborted,
        ..Coverage::default()
    };
    if let Some(c) = &e.platform.contention {
        for arb in [&c.sg, &c.link] {
            for client in [BwClient::Oltp, BwClient::Olap] {
                h.u64(arb.client_bytes(client.index()));
                h.u64(arb.client_queued(client.index()).as_ps());
                h.u64(arb.client_wait_events(client.index()));
            }
            h.u64(arb.requests());
            cov.oltp_queued_ps += arb.client_queued(BwClient::Oltp.index()).as_ps();
        }
    }
    for r in e.fault_report().unwrap_or_default() {
        cov.fallbacks += r.stats.fallbacks;
        cov.retries += r.stats.retries;
    }
    cov.placement_transitions = e.placement_report().map_or(0, |r| r.transitions);
    e.collect_metrics();
    cov.pool_misses = e.tel.metrics().counter_value("bufferpool", "misses");

    let trace = e.tel.export_chrome_trace();
    bionic_telemetry::validate_chrome_trace(&trace)
        .unwrap_or_else(|err| panic!("{cell:?}: invalid trace: {err}"));
    assert_eq!(e.tel.dropped(), 0, "{cell:?}: trace ring overflowed");
    let mut th = Fnv::new();
    th.bytes(trace.as_bytes());

    e.os_flush_log();
    h.bytes(e.crash().log_bytes());
    (h.0, th.0, cov)
}

/// `(state, trace)` per cell, in [`cells`] order.
#[rustfmt::skip]
const EXPECTED: [(u64, u64); 48] = [
    (0x78b0163191469bc9, 0x691cb9f07a9a7801), // Dora software Off
    (0xf07fa77373ad6480, 0x691cb9f07a9a7801), // Dora software Off contention
    (0x1ebecadf1583a020, 0x691cb9f07a9a7801), // Dora software Off placement
    (0x3260cf9ac4d054f1, 0x691cb9f07a9a7801), // Dora software Off placement contention
    (0x06f398057094a8c6, 0x691cb9f07a9a7801), // Dora software Uniform
    (0x3652ca9ce3c915e3, 0x691cb9f07a9a7801), // Dora software Uniform contention
    (0xd0c4f5750ec30d85, 0x691cb9f07a9a7801), // Dora software Uniform placement
    (0x67ce86404d6ea364, 0x691cb9f07a9a7801), // Dora software Uniform placement contention
    (0x06f398057094a8c6, 0x691cb9f07a9a7801), // Dora software Forced
    (0x3652ca9ce3c915e3, 0x691cb9f07a9a7801), // Dora software Forced contention
    (0xd0c4f5750ec30d85, 0x691cb9f07a9a7801), // Dora software Forced placement
    (0x67ce86404d6ea364, 0x691cb9f07a9a7801), // Dora software Forced placement contention
    (0x33a57a2575c71dbe, 0x17e2ef0357104b8f), // Dora bionic Off
    (0x853c0d385707a44c, 0x27e253abfe06766a), // Dora bionic Off contention
    (0x7cf0fabbfc2b4e09, 0x17e2ef0357104b8f), // Dora bionic Off placement
    (0xa2e0421fe6951c84, 0x248f6ee3717c83d4), // Dora bionic Off placement contention
    (0xaa964b6403f28a91, 0xa9932f486b3675e0), // Dora bionic Uniform
    (0x8689b790cedd8a3b, 0xf56c7b8c4f444543), // Dora bionic Uniform contention
    (0x252e8e588f8b4794, 0xf10ad53a9542bbcc), // Dora bionic Uniform placement
    (0xb04c0eb26d148366, 0xc59a6b6824582b73), // Dora bionic Uniform placement contention
    (0xf0b06ea161303457, 0x95e8af7b04fe480e), // Dora bionic Forced
    (0x5b872ef786fd3f6e, 0xa97cfee258dbd795), // Dora bionic Forced contention
    (0x82377f91c4753c15, 0x1426d3dab878158e), // Dora bionic Forced placement
    (0x57d0d21d2c956ce8, 0x0b8ff47d1c6d86d4), // Dora bionic Forced placement contention
    (0xfe1434e1bb4119c1, 0x4893bfdbf8764b48), // Conventional software Off
    (0x393607604fe364cc, 0x4893bfdbf8764b48), // Conventional software Off contention
    (0xcb492c0c698f1ac4, 0x4893bfdbf8764b48), // Conventional software Off placement
    (0xe8a8ca5dab213b01, 0x4893bfdbf8764b48), // Conventional software Off placement contention
    (0x2a64f392af8cc06e, 0x4893bfdbf8764b48), // Conventional software Uniform
    (0xcad4dc02ee675c6f, 0x4893bfdbf8764b48), // Conventional software Uniform contention
    (0xb4697a5205a292bd, 0x4893bfdbf8764b48), // Conventional software Uniform placement
    (0xc66db04006ac0ff8, 0x4893bfdbf8764b48), // Conventional software Uniform placement contention
    (0x2a64f392af8cc06e, 0x4893bfdbf8764b48), // Conventional software Forced
    (0xcad4dc02ee675c6f, 0x4893bfdbf8764b48), // Conventional software Forced contention
    (0xb4697a5205a292bd, 0x4893bfdbf8764b48), // Conventional software Forced placement
    (0xc66db04006ac0ff8, 0x4893bfdbf8764b48), // Conventional software Forced placement contention
    (0x999153e3573fc9bc, 0x41eb791b4deb5ea5), // Conventional bionic Off
    (0x6ad5136d5f0f7a59, 0xbd7fcf40d20553c1), // Conventional bionic Off contention
    (0xce0bc04e157f30cd, 0x41eb791b4deb5ea5), // Conventional bionic Off placement
    (0x52fdd6c8bc53ebf8, 0xb16f73feac794592), // Conventional bionic Off placement contention
    (0xf1424fb4beb728e8, 0x820cff2b1ba90a52), // Conventional bionic Uniform
    (0xc63dea6e189e4f72, 0x48a964a67294e4ab), // Conventional bionic Uniform contention
    (0x1e828b9618f79665, 0x132fb1a5fb6ec47b), // Conventional bionic Uniform placement
    (0xc37e64f6c4d33e1e, 0x8ba201b0dd1248c0), // Conventional bionic Uniform placement contention
    (0x91a013063768c4f4, 0xd9c90cb54596080c), // Conventional bionic Forced
    (0xea7d5e031d0f0783, 0x8a81fab5a541993b), // Conventional bionic Forced contention
    (0x20b2f472f98adac0, 0x4908375ebd8bf10f), // Conventional bionic Forced placement
    (0xa0099c95bd41f39e, 0xea5eee6768ee1931), // Conventional bionic Forced placement contention
];

#[test]
fn every_cell_prices_exactly_as_recorded() {
    let cells = cells();
    let mut got = Vec::new();
    let mut probe_misses = 0;
    for &cell in &cells {
        let (state, trace, cov) = run(cell);
        got.push((state, trace));
        if cell.bionic {
            match cell.faults {
                Faults::Off => assert_eq!(cov.fallbacks + cov.retries, 0, "{cell:?}"),
                Faults::Uniform => assert!(cov.retries > 0 && cov.fallbacks > 0, "{cell:?}"),
                Faults::Forced => assert!(cov.fallbacks > 100, "{cell:?}"),
            }
            if cell.contention {
                assert!(cov.oltp_queued_ps > 0, "{cell:?}: no arbiter wait");
            }
            if cell.placement && (cell.contention || cell.faults != Faults::Off) {
                assert!(cov.placement_transitions > 0, "{cell:?}: nothing shed");
            }
            assert!(cov.merges > 0, "{cell:?}: no overlay merge");
        } else {
            assert_eq!(cov.fallbacks + cov.placement_transitions, 0, "{cell:?}");
            assert!(cov.pool_misses > 0, "{cell:?}: pool never missed");
        }
        // Two doomed transactions, strict reads that miss, one branch
        // aborted with writes and one without.
        assert!(cov.aborted >= 4, "{cell:?}: aborted={}", cov.aborted);
        probe_misses += cov.probe_misses;
    }
    assert!(probe_misses > 0, "overlay never aborted a probe");
    if got.as_slice() != EXPECTED {
        let mut table = String::new();
        for ((state, trace), cell) in got.iter().zip(&cells) {
            table.push_str(&format!(
                "    ({state:#018x}, {trace:#018x}), // {:?} {} {:?}{}{}\n",
                cell.exec,
                if cell.bionic { "bionic" } else { "software" },
                cell.faults,
                if cell.placement { " placement" } else { "" },
                if cell.contention { " contention" } else { "" },
            ));
        }
        let moved = got.iter().zip(&EXPECTED).filter(|(g, e)| g != e).count();
        panic!("{moved} of 48 cells moved; the matrix now reads:\n{table}");
    }
}

#[test]
fn a_cell_reruns_to_the_same_digests() {
    let cell = cells()[47];
    let (a, b) = (run(cell), run(cell));
    assert_eq!((a.0, a.1), (b.0, b.1));
}
