//! Engine-level behavioural tests: functional correctness (visibility,
//! rollback, recovery) and model-level sanity (breakdown shares, energy,
//! throughput) across software, bionic, and conventional configurations.

use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_core::ops::{Action, Op, Patch, TxnProgram};
use bionic_core::{AbortReason, Category, TxnOutcome};
use bionic_sim::time::SimTime;

fn loaded_engine(cfg: EngineConfig, rows: i64) -> (Engine, u32) {
    let mut e = Engine::new(cfg);
    let t = e.create_table("accounts");
    for k in 0..rows {
        let mut body = vec![0u8; 92];
        body[..8].copy_from_slice(&(k * 100).to_le_bytes());
        e.load(t, k, &body);
    }
    e.finish_load();
    (e, t)
}

fn balance_patch(delta: i64) -> Patch {
    // Record = key(8) || balance(8) || padding: balance at offset 8.
    Patch::AddI64 { offset: 8, delta }
}

fn read_balance(e: &mut Engine, t: u32, k: i64) -> i64 {
    let rec = e.read_row(t, k).expect("row exists");
    i64::from_le_bytes(rec[8..16].try_into().unwrap())
}

fn update_txn(t: u32, k: i64, delta: i64) -> TxnProgram {
    TxnProgram::single_phase(
        "update",
        vec![Action::new(
            t,
            k,
            vec![Op::Update {
                table: t,
                key: k,
                patch: balance_patch(delta),
            }],
        )],
    )
}

fn all_configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("software", EngineConfig::software()),
        ("bionic", EngineConfig::bionic()),
        ("conventional", EngineConfig::conventional()),
    ]
}

#[test]
fn committed_updates_are_visible_in_every_config() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 100);
        assert_eq!(read_balance(&mut e, t, 5), 500, "{name}");
        let out = e.submit(&update_txn(t, 5, -70), SimTime::ZERO);
        assert!(out.is_committed(), "{name}");
        assert_eq!(read_balance(&mut e, t, 5), 430, "{name}");
        assert_eq!(e.stats.committed, 1, "{name}");
    }
}

#[test]
fn missing_key_update_aborts_and_leaves_no_trace() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 10);
        let out = e.submit(&update_txn(t, 9999, 1), SimTime::ZERO);
        assert_eq!(
            out,
            TxnOutcome::Aborted {
                reason: AbortReason::MissingKey,
                latency: out.latency()
            },
            "{name}"
        );
        assert_eq!(e.stats.aborted, 1, "{name}");
        assert_eq!(e.row_count(t), 10, "{name}");
    }
}

#[test]
fn multi_op_abort_rolls_back_earlier_writes() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 10);
        // First op succeeds, second targets a missing key: whole txn undone.
        let prog = TxnProgram::single_phase(
            "transfer-to-nowhere",
            vec![Action::new(
                t,
                1,
                vec![
                    Op::Update {
                        table: t,
                        key: 1,
                        patch: balance_patch(-50),
                    },
                    Op::Update {
                        table: t,
                        key: 777,
                        patch: balance_patch(50),
                    },
                ],
            )],
        );
        let out = e.submit(&prog, SimTime::ZERO);
        assert!(!out.is_committed(), "{name}");
        assert_eq!(read_balance(&mut e, t, 1), 100, "{name}: first op undone");
    }
}

#[test]
fn insert_then_read_then_delete() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 10);
        let ins = TxnProgram::single_phase(
            "insert",
            vec![Action::new(
                t,
                500,
                vec![Op::Insert {
                    table: t,
                    key: 500,
                    record: vec![7u8; 40],
                }],
            )],
        );
        assert!(e.submit(&ins, SimTime::ZERO).is_committed(), "{name}");
        assert_eq!(e.row_count(t), 11, "{name}");
        assert!(e.read_row(t, 500).is_some(), "{name}");

        // Duplicate insert aborts and removes nothing.
        let out = e.submit(&ins, SimTime::from_us(100.0));
        assert_eq!(
            out,
            TxnOutcome::Aborted {
                reason: AbortReason::DuplicateKey,
                latency: out.latency()
            },
            "{name}"
        );
        assert_eq!(e.row_count(t), 11, "{name}");

        let del = TxnProgram::single_phase(
            "delete",
            vec![Action::new(t, 500, vec![Op::Delete { table: t, key: 500 }])],
        );
        assert!(e.submit(&del, SimTime::from_us(200.0)).is_committed());
        assert_eq!(e.row_count(t), 10, "{name}");
        assert!(e.read_row(t, 500).is_none(), "{name}");
    }
}

#[test]
fn aborted_insert_is_fully_undone() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 10);
        let prog = TxnProgram::single_phase(
            "insert-then-fail",
            vec![Action::new(
                t,
                600,
                vec![
                    Op::Insert {
                        table: t,
                        key: 600,
                        record: vec![1u8; 16],
                    },
                    Op::Delete { table: t, key: 999 }, // missing: abort
                ],
            )],
        );
        assert!(!e.submit(&prog, SimTime::ZERO).is_committed(), "{name}");
        assert!(e.read_row(t, 600).is_none(), "{name}");
        assert_eq!(e.row_count(t), 10, "{name}");
    }
}

#[test]
fn range_reads_commit() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 1000);
    let prog = TxnProgram::single_phase(
        "range",
        vec![Action::new(
            t,
            100,
            vec![Op::ReadRange {
                table: t,
                lo: 100,
                hi: 200,
                limit: 50,
            }],
        )],
    );
    assert!(e.submit(&prog, SimTime::ZERO).is_committed());
    // Range work must show up as btree + record time.
    assert!(e.breakdown.get(Category::Btree) > SimTime::ZERO);
}

#[test]
fn crash_and_recover_preserves_committed_state() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 50);
    assert!(e
        .submit(&update_txn(t, 3, 11), SimTime::ZERO)
        .is_committed());
    assert!(e
        .submit(&update_txn(t, 4, -22), SimTime::from_us(50.0))
        .is_committed());
    let ins = TxnProgram::single_phase(
        "ins",
        vec![Action::new(
            t,
            777,
            vec![Op::Insert {
                table: t,
                key: 777,
                record: vec![9u8; 24],
            }],
        )],
    );
    assert!(e.submit(&ins, SimTime::from_us(100.0)).is_committed());

    let image = e.crash();
    let (mut e2, outcome) = Engine::restart(image, EngineConfig::software());
    assert!(outcome.losers.is_empty());
    assert!(outcome.redone > 0, "dirty pages were never flushed");
    assert_eq!(read_balance(&mut e2, 0, 3), 311);
    assert_eq!(read_balance(&mut e2, 0, 4), 378);
    assert!(e2.read_row(0, 777).is_some());
    assert_eq!(e2.row_count(0), 51);
    // The recovered engine keeps working.
    assert!(e2
        .submit(&update_txn(0, 3, 1), SimTime::ZERO)
        .is_committed());
    assert_eq!(read_balance(&mut e2, 0, 3), 312);
}

#[test]
fn update_workload_breakdown_has_log_and_btree_time() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 10_000);
    let mut at = SimTime::ZERO;
    for i in 0..500 {
        e.submit(&update_txn(t, (i * 13) % 10_000, 1), at);
        at += SimTime::from_us(2.0);
    }
    let b = &e.breakdown;
    assert!(b.fraction(Category::Log) > 0.02, "log share too small");
    assert!(b.fraction(Category::Btree) > 0.05, "btree share too small");
    assert!(b.fraction(Category::Lock) == 0.0, "DORA has no locks");
    assert!(b.fraction(Category::Dora) > 0.0);
}

#[test]
fn read_only_workload_has_negligible_log_share() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 10_000);
    let mut at = SimTime::ZERO;
    for i in 0..500 {
        let prog = TxnProgram::single_phase(
            "ro",
            vec![Action::new(t, i, vec![Op::Read { table: t, key: i }])],
        );
        e.submit(&prog, at);
        at += SimTime::from_us(2.0);
    }
    assert!(e.breakdown.fraction(Category::Log) < 0.01);
    assert!(e.stats.committed == 500);
}

#[test]
fn conventional_engine_pays_for_locks() {
    let (mut e, t) = loaded_engine(EngineConfig::conventional(), 1000);
    let mut at = SimTime::ZERO;
    for i in 0..200 {
        e.submit(&update_txn(t, i % 1000, 1), at);
        at += SimTime::from_us(2.0);
    }
    assert!(
        e.breakdown.fraction(Category::Lock) > 0.03,
        "lock share: {}",
        e.breakdown.fraction(Category::Lock)
    );
}

#[test]
fn bionic_engine_uses_less_energy_per_txn() {
    // The §1 headline: "effective hardware support need not always increase
    // raw performance; the true goal is to reduce net energy use."
    let n = 400;
    let mut joules = Vec::new();
    for cfg in [EngineConfig::software(), EngineConfig::bionic()] {
        let (mut e, t) = loaded_engine(cfg, 10_000);
        let mut at = SimTime::ZERO;
        for i in 0..n {
            e.submit(&update_txn(t, (i * 31) % 10_000, 1), at);
            at += SimTime::from_us(3.0);
        }
        assert_eq!(e.stats.committed, n as u64);
        joules.push(e.platform.energy.total().as_j() / n as f64);
    }
    let (sw, hw) = (joules[0], joules[1]);
    assert!(
        hw < 0.6 * sw,
        "bionic must cut joules/txn substantially: sw={sw:.3e} hw={hw:.3e}"
    );
}

#[test]
fn bionic_latency_is_not_better_but_agents_are_freer() {
    // §3: asynchronous offload trades per-request latency for freed cores.
    let (mut sw, t) = loaded_engine(EngineConfig::software(), 10_000);
    let (mut hw, _) = loaded_engine(EngineConfig::bionic(), 10_000);
    let out_sw = sw.submit(&update_txn(t, 5, 1), SimTime::ZERO);
    let out_hw = hw.submit(&update_txn(t, 5, 1), SimTime::ZERO);
    assert!(
        out_hw.latency() >= out_sw.latency(),
        "hw latency {} should not beat sw {}",
        out_hw.latency(),
        out_sw.latency()
    );
    // But the bionic engine burned far less agent CPU on it.
    assert!(hw.breakdown.total() < sw.breakdown.total());
}

#[test]
fn overlay_merges_trigger_on_write_volume() {
    let mut cfg = EngineConfig::bionic();
    cfg.merge_threshold = 200;
    let (mut e, t) = loaded_engine(cfg, 1000);
    let mut at = SimTime::ZERO;
    for i in 0..600 {
        e.submit(&update_txn(t, i % 1000, 1), at);
        at += SimTime::from_us(3.0);
    }
    assert!(e.stats.merges >= 2, "merges={}", e.stats.merges);
    // Data still correct after merges.
    assert_eq!(read_balance(&mut e, t, 0), 1);
}

#[test]
fn tight_overlay_budget_causes_probe_misses() {
    let mut cfg = EngineConfig::bionic();
    cfg.overlay_budget = 1 << 14; // far smaller than 10k rows of index
    let (mut e, t) = loaded_engine(cfg, 10_000);
    let mut at = SimTime::ZERO;
    for i in 0..300 {
        let prog = TxnProgram::single_phase(
            "ro",
            vec![Action::new(
                t,
                i * 7 % 10_000,
                vec![Op::Read {
                    table: t,
                    key: i * 7 % 10_000,
                }],
            )],
        );
        e.submit(&prog, at);
        at += SimTime::from_us(3.0);
    }
    assert!(
        e.stats.probe_misses > 30,
        "probe_misses={}",
        e.stats.probe_misses
    );
}

#[test]
fn multi_action_phases_join_at_rendezvous() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 1000);
    // A transfer touching two partitions in one phase, then a read phase.
    let prog = TxnProgram {
        name: "transfer",
        phases: vec![
            vec![
                Action::new(
                    t,
                    1,
                    vec![Op::Update {
                        table: t,
                        key: 1,
                        patch: balance_patch(-10),
                    }],
                ),
                Action::new(
                    t,
                    900,
                    vec![Op::Update {
                        table: t,
                        key: 900,
                        patch: balance_patch(10),
                    }],
                ),
            ],
            vec![Action::new(t, 1, vec![Op::Read { table: t, key: 1 }])],
        ],
        abort_on_missing_read: false,
    };
    assert!(e.submit(&prog, SimTime::ZERO).is_committed());
    assert_eq!(read_balance(&mut e, t, 1), 90);
    assert_eq!(read_balance(&mut e, t, 900), 90_010);
}

#[test]
fn secondary_reads_resolve_and_survive_crash() {
    // Secondary field: i64 at record offset 8 = key * 1000 + 7.
    let mut e = Engine::new(EngineConfig::software());
    let t = e.create_table_with_secondary("subs", 8);
    for k in 0..200i64 {
        let mut body = vec![0u8; 48];
        body[..8].copy_from_slice(&(k * 1000 + 7).to_le_bytes());
        e.load(t, k, &body);
    }
    e.finish_load();

    let by_nbr = |skey: i64| TxnProgram {
        name: "by-secondary",
        phases: vec![vec![Action::new(
            t,
            skey,
            vec![Op::SecondaryRead { table: t, skey }],
        )]],
        abort_on_missing_read: true,
    };
    assert!(e.submit(&by_nbr(42_007), SimTime::ZERO).is_committed());
    let miss = e.submit(&by_nbr(999), SimTime::from_us(10.0));
    assert!(!miss.is_committed(), "unknown secondary key aborts");

    // Insert a row; its secondary entry must be visible; abort must remove it.
    let mut body = vec![0u8; 48];
    body[..8].copy_from_slice(&777_000i64.to_le_bytes());
    let ins = TxnProgram::single_phase(
        "ins",
        vec![Action::new(
            t,
            500,
            vec![Op::Insert {
                table: t,
                key: 500,
                record: body.clone(),
            }],
        )],
    );
    assert!(e.submit(&ins, SimTime::from_us(20.0)).is_committed());
    assert!(e
        .submit(&by_nbr(777_000), SimTime::from_us(30.0))
        .is_committed());

    let failing_ins = TxnProgram::single_phase(
        "ins-fail",
        vec![Action::new(
            t,
            501,
            vec![
                Op::Insert {
                    table: t,
                    key: 501,
                    record: {
                        let mut b = vec![0u8; 48];
                        b[..8].copy_from_slice(&888_000i64.to_le_bytes());
                        b
                    },
                },
                Op::Delete {
                    table: t,
                    key: 99_999,
                }, // forces rollback
            ],
        )],
    );
    assert!(!e
        .submit(&failing_ins, SimTime::from_us(40.0))
        .is_committed());
    assert!(
        !e.submit(&by_nbr(888_000), SimTime::from_us(50.0))
            .is_committed(),
        "aborted insert's secondary entry must be gone"
    );

    // Crash: secondary index must rebuild from the heap.
    let image = e.crash();
    let (mut e, _) = Engine::restart(image, EngineConfig::software());
    assert!(e.submit(&by_nbr(42_007), SimTime::ZERO).is_committed());
    assert!(e
        .submit(&by_nbr(777_000), SimTime::from_us(10.0))
        .is_committed());
    assert!(!e
        .submit(&by_nbr(888_000), SimTime::from_us(20.0))
        .is_committed());
}

#[test]
fn secondary_key_updates_move_the_index_entry() {
    let mut e = Engine::new(EngineConfig::software());
    let t = e.create_table_with_secondary("subs", 8);
    let mut body = vec![0u8; 48];
    body[..8].copy_from_slice(&111i64.to_le_bytes());
    e.load(t, 1, &body);
    e.finish_load();

    // Update the secondary field 111 -> 222.
    let upd = TxnProgram::single_phase(
        "move-skey",
        vec![Action::new(
            t,
            1,
            vec![Op::Update {
                table: t,
                key: 1,
                patch: Patch::Splice {
                    offset: 8,
                    bytes: 222i64.to_le_bytes().to_vec(),
                },
            }],
        )],
    );
    assert!(e.submit(&upd, SimTime::ZERO).is_committed());
    let by = |skey: i64| TxnProgram {
        name: "by",
        phases: vec![vec![Action::new(
            t,
            skey,
            vec![Op::SecondaryRead { table: t, skey }],
        )]],
        abort_on_missing_read: true,
    };
    assert!(!e.submit(&by(111), SimTime::from_us(10.0)).is_committed());
    assert!(e.submit(&by(222), SimTime::from_us(20.0)).is_committed());
}

#[test]
fn sharp_checkpoint_bounds_redo_work() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 100);
    let mut at = SimTime::ZERO;
    for i in 0..200 {
        e.submit(&update_txn(t, i % 100, 1), at);
        at += SimTime::from_us(5.0);
    }
    let ck = e.checkpoint(at);
    assert!(e.log().last_checkpoint() == Some(ck));
    for i in 0..20 {
        e.submit(&update_txn(t, i % 100, 1), at);
        at += SimTime::from_us(5.0);
    }
    let with_ck = {
        let image = e.crash();
        let (mut e2, outcome) = Engine::restart(image, EngineConfig::software());
        // Key 0 was bumped at i=0 and i=100 pre-checkpoint and i=0 after.
        assert_eq!(read_balance(&mut e2, t, 0), 3);
        outcome.records_scanned
    };

    // Same run without the checkpoint scans the whole log.
    let (mut e, t) = loaded_engine(EngineConfig::software(), 100);
    let mut at = SimTime::ZERO;
    for i in 0..220 {
        e.submit(&update_txn(t, i % 100, 1), at);
        at += SimTime::from_us(5.0);
    }
    let image = e.crash();
    let (_, outcome) = Engine::restart(image, EngineConfig::software());
    assert!(
        with_ck < outcome.records_scanned / 2,
        "checkpoint must bound recovery: {} vs {}",
        with_ck,
        outcome.records_scanned
    );
}

#[test]
fn query_range_uses_the_result_cache_until_invalidated() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 1000);
    // Cold query computes and caches.
    let (rows, cached, _) = e.query_range(t, 100, 200, None, SimTime::ZERO);
    assert_eq!(rows, 100);
    assert!(!cached);
    // Warm query hits the CPU-side cache.
    let (rows, cached, _) = e.query_range(t, 100, 200, None, SimTime::from_us(10.0));
    assert_eq!(rows, 100);
    assert!(cached);
    // A committed write to the table invalidates the cached result.
    assert!(e
        .submit(&update_txn(t, 150, 1), SimTime::from_us(20.0))
        .is_committed());
    let (rows, cached, _) = e.query_range(t, 100, 200, None, SimTime::from_us(50.0));
    assert_eq!(rows, 100);
    assert!(!cached, "write must invalidate");
    let stats = e.result_cache_stats();
    assert_eq!(stats.hits, 1);
    assert!(stats.stale >= 1);
}

#[test]
fn historical_queries_patch_through_the_overlay() {
    let (mut e, t) = loaded_engine(EngineConfig::bionic(), 100);
    let v0 = e.current_version();
    // Delete key 50, insert key 1000.
    let del = TxnProgram::single_phase(
        "del",
        vec![Action::new(t, 50, vec![Op::Delete { table: t, key: 50 }])],
    );
    assert!(e.submit(&del, SimTime::ZERO).is_committed());
    let ins = TxnProgram::single_phase(
        "ins",
        vec![Action::new(
            t,
            1000,
            vec![Op::Insert {
                table: t,
                key: 1000,
                record: vec![0u8; 24],
            }],
        )],
    );
    assert!(e.submit(&ins, SimTime::from_us(50.0)).is_committed());

    // Latest view: 99 keys in [0,100), 1 in [1000,1001).
    let (now_rows, _, _) = e.query_range(t, 0, 2000, None, SimTime::from_us(100.0));
    assert_eq!(now_rows, 100);
    // As-of the pre-write version: the deleted key is back, the insert gone.
    let (old_rows, _, _) = e.query_range(t, 0, 2000, Some(v0), SimTime::from_us(120.0));
    assert_eq!(old_rows, 100); // 100 original keys
    let (old_mid, _, _) = e.query_range(t, 50, 51, Some(v0), SimTime::from_us(130.0));
    assert_eq!(old_mid, 1, "deleted key visible in history");
    let (new_mid, _, _) = e.query_range(t, 50, 51, None, SimTime::from_us(140.0));
    assert_eq!(new_mid, 0);
}

#[test]
fn throughput_saturates_with_offered_load() {
    let (mut e, t) = loaded_engine(EngineConfig::software(), 10_000);
    // Open-loop overload: arrivals far faster than service.
    let mut at = SimTime::ZERO;
    for i in 0..2000 {
        e.submit(&update_txn(t, (i * 17) % 10_000, 1), at);
        at += SimTime::from_ns(100.0);
    }
    let tput = e.stats.throughput_per_sec();
    assert!(tput > 10_000.0, "tput={tput}");
    // Under overload, p99 latency balloons past the uncontended latency.
    let p99 = e.stats.latency.quantile(0.99);
    let p50 = e.stats.latency.quantile(0.50);
    assert!(p99 > p50);
}

#[test]
fn telemetry_traces_every_layer_and_exports_cleanly() {
    let (mut e, t) = loaded_engine(EngineConfig::bionic().with_agents(4), 256);
    e.enable_telemetry(1 << 16);
    let mut at = SimTime::ZERO;
    for k in 0..64 {
        assert!(e.submit(&update_txn(t, k % 256, 1), at).is_committed());
        at += SimTime::from_us(2.0);
    }
    e.collect_metrics();

    // Spans landed on the dispatcher, at least one core, and every hardware
    // unit the bionic config exercises (probe, log insert, queue; overlay
    // fires on record writes).
    let events = e.tel.events();
    assert!(!events.is_empty());
    let busy_on = |track: usize| events.iter().any(|ev| ev.track == track);
    assert!(busy_on(e.tel.dispatch_track()), "dispatch traced");
    assert!((0..4).any(|a| busy_on(e.tel.core_track(a))), "cores traced");
    assert!(busy_on(e.tel.unit_track(0)), "tree-probe traced");
    assert!(busy_on(e.tel.unit_track(1)), "log-insert traced");
    assert!(busy_on(e.tel.unit_track(2)), "queue traced");
    assert!(busy_on(e.tel.unit_track(3)), "overlay traced");
    // Every span carries its transaction id.
    assert!(events.iter().all(|ev| ev.txn >= 1));

    // The Chrome trace passes the schema validator, and the utilization
    // report covers all five §5 units — including the idle scanner.
    let json = e.tel.export_chrome_trace();
    bionic_telemetry::validate_chrome_trace(&json).expect("schema-valid trace");
    let rows = e.tel.utilization_rows(SimTime::from_us(50.0));
    for unit in bionic_telemetry::UNIT_NAMES {
        assert!(
            rows.iter().any(|r| r.track == format!("fpga/{unit}")),
            "utilization row for {unit}"
        );
    }

    // Counters reflect the run.
    let m = e.tel.metrics();
    assert_eq!(m.counter_value("engine", "submitted"), 64);
    assert_eq!(m.counter_value("engine", "committed"), 64);
    assert!(m.counter_value("wal", "appends") > 0);
    assert!(m.counter_value("link/pcie", "bytes") > 0);
}

#[test]
fn disabled_telemetry_records_nothing_and_changes_nothing() {
    let run = |trace: bool| {
        let (mut e, t) = loaded_engine(EngineConfig::bionic().with_agents(4), 64);
        if trace {
            e.enable_telemetry(1 << 14);
        }
        let mut at = SimTime::ZERO;
        let mut latencies = Vec::new();
        for k in 0..32 {
            latencies.push(e.submit(&update_txn(t, k % 64, 1), at).latency());
            at += SimTime::from_us(2.0);
        }
        (latencies, e.tel.events().len())
    };
    let (lat_off, n_off) = run(false);
    let (lat_on, n_on) = run(true);
    assert_eq!(n_off, 0, "disabled sink stays empty");
    assert!(n_on > 0);
    // Tracing is pure observation: identical simulated timings.
    assert_eq!(lat_off, lat_on);
}

// ---- degraded-mode layer (hardware faults, watchdogs, fallbacks) ---------

fn run_updates(e: &mut Engine, t: u32, n: i64) -> SimTime {
    let mut at = SimTime::ZERO;
    for k in 0..n {
        assert!(e.submit(&update_txn(t, k % 100, 1), at).is_committed());
        at += SimTime::from_us(2.0);
    }
    e.stats.last_completion
}

#[test]
fn armed_zero_rate_fault_layer_is_invisible() {
    use bionic_sim::fault::HwFaultConfig;
    // Arming the layer with all rates at zero must cost nothing: no RNG
    // draws, no timing perturbation — byte-identical to an unarmed engine.
    let (mut plain, tp) = loaded_engine(EngineConfig::bionic(), 100);
    let (mut armed, ta) = loaded_engine(
        EngineConfig::bionic().with_hw_faults(HwFaultConfig::uniform(0)),
        100,
    );
    let done_plain = run_updates(&mut plain, tp, 200);
    let done_armed = run_updates(&mut armed, ta, 200);
    assert_eq!(done_plain, done_armed, "zero-rate layer perturbed timing");
    assert_eq!(
        plain.platform.energy.total().as_j(),
        armed.platform.energy.total().as_j()
    );
    let report = armed.fault_report().expect("layer is armed");
    assert!(report.iter().all(|r| r.stats.fallbacks == 0));
    assert!(report.iter().any(|r| r.stats.ops > 0), "gates consulted");
}

#[test]
fn saturated_faults_fall_back_everywhere_but_change_no_results() {
    use bionic_sim::fault::HwFaultConfig;
    let (mut clean, tc) = loaded_engine(EngineConfig::bionic(), 100);
    let (mut broken, tb) = loaded_engine(
        EngineConfig::bionic().with_hw_faults(HwFaultConfig::saturated()),
        100,
    );
    let done_clean = run_updates(&mut clean, tc, 200);
    let done_broken = run_updates(&mut broken, tb, 200);
    // Every transaction committed (asserted in run_updates) and the final
    // state is identical: fallbacks are pricing-only.
    assert_eq!(clean.scan_table(tc), broken.scan_table(tb));
    // But the brownout is real: watchdogs and retries cost time.
    assert!(
        done_broken > done_clean,
        "saturated faults should slow the run ({done_broken} vs {done_clean})"
    );
    let report = broken.fault_report().expect("layer armed");
    for r in &report {
        if r.unit == "scanner" {
            continue; // no scans in this workload
        }
        assert!(r.stats.ops > 0, "{} never consulted", r.unit);
        assert!(r.stats.fallbacks > 0, "{} never fell back", r.unit);
        assert!(r.breaker_opens > 0, "{} breaker never opened", r.unit);
        assert!(
            r.time_degraded > SimTime::ZERO,
            "{} accrued no degraded time",
            r.unit
        );
    }
    // All three fault families were exercised across the units.
    let stalls: u64 = report.iter().map(|r| r.stats.stalls).sum();
    let crc: u64 = report.iter().map(|r| r.stats.crc_errors).sum();
    let ecc: u64 = report.iter().map(|r| r.stats.ecc_errors).sum();
    assert!(stalls > 0 && crc > 0 && ecc > 0, "{stalls}/{crc}/{ecc}");
}

#[test]
fn fault_counters_flow_into_the_metrics_registry() {
    use bionic_sim::fault::HwFaultConfig;
    let (mut e, t) = loaded_engine(
        EngineConfig::bionic().with_hw_faults(HwFaultConfig::uniform(2_000)),
        100,
    );
    run_updates(&mut e, t, 100);
    e.collect_metrics();
    let m = e.tel.metrics_mut();
    assert!(m.counter_value("fault/tree-probe", "ops") > 0);
    assert!(m.counter_value("fault/log-insert", "ops") > 0);
    let total_faults: u64 = ["tree-probe", "log-insert", "queue", "overlay"]
        .iter()
        .map(|u| {
            let s = format!("fault/{u}");
            m.counter_value(&s, "stalls")
                + m.counter_value(&s, "crc_errors")
                + m.counter_value(&s, "ecc_errors")
        })
        .sum();
    assert!(
        total_faults > 0,
        "2000bp over 100 txns must fault sometimes"
    );
}

#[test]
fn static_metric_names_follow_the_unit_and_client_labels() {
    use bionic_sim::arbiter::BwClient;
    use bionic_sim::fault::HwFaultConfig;
    // `collect_metrics` spells these names out instead of formatting them
    // per call; they must stay what the labels would have produced.
    let (mut e, t) = loaded_engine(
        EngineConfig::bionic()
            .with_hw_faults(HwFaultConfig::uniform(2_000))
            .with_placement(Default::default()),
        100,
    );
    e.platform.enable_contention();
    run_updates(&mut e, t, 100);
    e.collect_metrics();
    let m = e.tel.metrics();
    for unit in bionic_telemetry::UNIT_NAMES {
        assert!(m.get(&format!("fault/{unit}"), "ops").is_some(), "{unit}");
        assert!(
            m.get("placement", &format!("{unit}_forced_sw")).is_some(),
            "{unit}"
        );
    }
    for label in [BwClient::Oltp.label(), BwClient::Olap.label()] {
        for scope in ["arbiter/sg", "arbiter/link"] {
            for suffix in ["bytes", "wait_events", "queued_us"] {
                assert!(m.get(scope, &format!("{label}_{suffix}")).is_some());
            }
        }
    }
    let in_scopes = |pred: &dyn Fn(&str) -> bool| m.iter().filter(|(s, _, _)| pred(s)).count();
    assert_eq!(in_scopes(&|s| s.starts_with("fault/")), 5 * 11);
    assert_eq!(in_scopes(&|s| s == "placement"), 4 + 5);
    assert_eq!(in_scopes(&|s| s.starts_with("arbiter/")), 2 * (2 * 3 + 4));
}

// ---- two-phase commit branches ---------------------------------------------

#[test]
fn prepared_branch_commits_on_coordinator_decision() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 100);
        let out = e.submit_prepared(
            &update_txn(t, 5, -70),
            SimTime::ZERO,
            0x8000_0000_0000_0001,
            0,
        );
        let bionic_core::PrepareOutcome::Prepared { txn, .. } = out else {
            panic!("{name}: expected Prepared, got {out:?}");
        };
        assert_eq!(e.stats.committed, 0, "{name}: prepared is not committed");
        assert_eq!(e.prepared_branches(), vec![txn], "{name}");
        let res = e.resolve_prepared(txn, true, SimTime::from_us(50.0));
        assert!(res.is_committed(), "{name}");
        assert_eq!(read_balance(&mut e, t, 5), 430, "{name}");
        assert_eq!(e.stats.committed, 1, "{name}");
        assert!(e.prepared_branches().is_empty(), "{name}");
    }
}

#[test]
fn prepared_branch_rolls_back_on_coordinator_abort() {
    for (name, cfg) in all_configs() {
        let (mut e, t) = loaded_engine(cfg, 100);
        let out = e.submit_prepared(
            &update_txn(t, 5, -70),
            SimTime::ZERO,
            0x8000_0000_0000_0002,
            1,
        );
        let bionic_core::PrepareOutcome::Prepared { txn, .. } = out else {
            panic!("{name}: expected Prepared, got {out:?}");
        };
        let res = e.resolve_prepared(txn, false, SimTime::from_us(50.0));
        assert_eq!(
            res,
            TxnOutcome::Aborted {
                reason: AbortReason::Coordinator,
                latency: res.latency()
            },
            "{name}"
        );
        assert_eq!(read_balance(&mut e, t, 5), 500, "{name}: branch undone");
        assert_eq!(e.stats.aborted, 1, "{name}");
    }
}

/// Spans recorded while a branch is resolved, or a decision logged, carry
/// that transaction's id — not the id of whatever was submitted last.
#[test]
fn resolve_and_decision_spans_carry_their_own_txn_id() {
    let (mut e, t) = loaded_engine(EngineConfig::bionic().with_agents(4), 100);
    e.enable_telemetry(1 << 12);
    let gtxn = 0x8000_0000_0000_0007;
    let out = e.submit_prepared(&update_txn(t, 5, -70), SimTime::ZERO, gtxn, 0);
    let bionic_core::PrepareOutcome::Prepared { txn: a, .. } = out else {
        panic!("expected Prepared, got {out:?}");
    };
    assert!(e
        .submit(&update_txn(t, 6, 1), SimTime::from_us(10.0))
        .is_committed());
    let b = e.next_txn_id() - 1;
    assert_ne!(a, b);
    assert!(e
        .resolve_prepared(a, true, SimTime::from_us(50.0))
        .is_committed());
    e.log_decision(gtxn, SimTime::from_us(60.0))
        .expect("no fuse armed");
    let events = e.tel.events();
    let txn_of = |name: &str, after_us: f64| {
        let from = SimTime::from_us(after_us).as_ps();
        let ev = events
            .iter()
            .find(|ev| ev.name == name && ev.start_ps >= from)
            .unwrap_or_else(|| panic!("no {name} span"));
        ev.txn
    };
    assert_eq!(txn_of("commit", 50.0), a);
    assert_eq!(txn_of("log-insert", 50.0), a, "the branch's Commit record");
    assert_eq!(txn_of("decide", 60.0), gtxn);
}

#[test]
fn local_failure_votes_no_and_rolls_back() {
    let (mut e, t) = loaded_engine(EngineConfig::bionic(), 10);
    let out = e.submit_prepared(
        &update_txn(t, 9999, 1),
        SimTime::ZERO,
        0x8000_0000_0000_0003,
        0,
    );
    assert!(
        matches!(
            out,
            bionic_core::PrepareOutcome::Aborted {
                reason: AbortReason::MissingKey,
                ..
            }
        ),
        "{out:?}"
    );
    assert!(e.prepared_branches().is_empty());
    assert_eq!(e.stats.aborted, 1);
}

#[test]
fn crashed_prepared_branch_is_in_doubt_and_resolves_both_ways() {
    for decision in [false, true] {
        let cfg = EngineConfig::bionic();
        let (mut e, t) = loaded_engine(cfg.clone(), 100);
        let gtxn = 0x8000_0000_0000_0011u64;
        let out = e.submit_prepared(&update_txn(t, 7, -25), SimTime::ZERO, gtxn, 2);
        assert!(out.is_prepared(), "{out:?}");
        // Crash before the decision arrives: the branch is in doubt.
        let image = e.crash();
        let (mut e2, rec) = Engine::restart_resolving(image, cfg, |_txn, g, coord| {
            assert_eq!((g, coord), (gtxn, 2));
            decision
        });
        assert_eq!(rec.in_doubt.len(), 1, "decision={decision}");
        if decision {
            assert_eq!(rec.resolved_committed, 1);
            assert_eq!(read_balance(&mut e2, t, 7), 675, "effects kept");
        } else {
            assert_eq!(rec.resolved_aborted, 1);
            assert_eq!(read_balance(&mut e2, t, 7), 700, "effects undone");
        }
        // Either way the branch is closed: a second restart is clean.
        let (mut e3, rec2) = Engine::restart(e2.crash(), EngineConfig::bionic());
        assert!(rec2.in_doubt.is_empty(), "decision={decision}");
        let expect = if decision { 675 } else { 700 };
        assert_eq!(read_balance(&mut e3, t, 7), expect);
    }
}

#[test]
fn plain_restart_presumes_abort_for_in_doubt_branches() {
    let cfg = EngineConfig::software();
    let (mut e, t) = loaded_engine(cfg.clone(), 50);
    let out = e.submit_prepared(
        &update_txn(t, 3, 40),
        SimTime::ZERO,
        0x8000_0000_0000_0021,
        0,
    );
    assert!(out.is_prepared());
    let (mut e2, rec) = Engine::restart(e.crash(), cfg);
    assert_eq!(rec.resolved_aborted, 1);
    assert_eq!(read_balance(&mut e2, t, 3), 300, "presumed abort");
}
