//! The layer kernels (source **K**): each layer's public function timed
//! alone, on inputs recorded from the workload's traced epoch — the keys
//! its generated programs touched, and the population its engine held at
//! the end. Traced run only; nothing here feeds an end-to-end number.
//!
//! Every kernel repeats its measurement [`REPS`] times, aiming for `ops`
//! operations (`Scale::kernel_ops`) each time, and reports the median per
//! operation in reference-host ns: every timed stretch is sandwiched
//! between two samples of the host-speed [`Reference`].

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use bionic_btree::BTree;
use bionic_cluster::Network;
use bionic_core::config::EngineConfig;
use bionic_core::engine::Engine;
use bionic_overlay::overlay::OverlayIndex;
use bionic_scan::nfa::Nfa;
use bionic_scan::scanner::{scan_dispatch_with, ScanEval, ScannerConfig};
use bionic_sim::arbiter::{BwClient, SharedBandwidth};
use bionic_sim::platform::Contention;
use bionic_sim::time::SimTime;
use bionic_storage::bufferpool::BufferPool;
use bionic_storage::disk::DiskManager;
use bionic_storage::heap::HeapFile;
use bionic_storage::page::RecordId;
use bionic_wal::manager::LogManager;
use bionic_wal::record::LogBodyRef;
use bionic_workloads::hybrid::analytics_table;

use crate::epoch::KeyLog;
use crate::reference::Reference;
use crate::spec::HtapScale;
use crate::stats::median;

/// Repeats per kernel.
const REPS: usize = 5;

/// One run of `work` in reference-host ns.
pub fn timed(reference: &mut Reference, work: impl FnOnce()) -> f64 {
    let before = reference.sample();
    let t = Instant::now();
    work();
    let ns = t.elapsed().as_nanos() as f64;
    ns / before.until(reference.sample()).slowdown()
}

/// Median over [`REPS`] runs of `work`, which does `ops` operations.
fn ns_per_op(reference: &mut Reference, ops: usize, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| timed(reference, &mut work) / ops.max(1) as f64)
        .collect();
    median(&samples)
}

/// The table most of `pairs` name, and the keys recorded against it.
fn busiest(pairs: &[(u32, i64)]) -> Option<(u32, Vec<i64>)> {
    let mut by_table: HashMap<u32, usize> = HashMap::new();
    for (t, _) in pairs {
        *by_table.entry(*t).or_default() += 1;
    }
    // Ties go to the lower table id, so the choice repeats exactly.
    let table = by_table
        .into_iter()
        .max_by_key(|&(t, n)| (n, std::cmp::Reverse(t)))?
        .0;
    Some((
        table,
        pairs
            .iter()
            .filter(|(t, _)| *t == table)
            .map(|(_, k)| *k)
            .collect(),
    ))
}

fn tree_of(rows: &[(i64, Vec<u8>)]) -> BTree<i64> {
    let mut tree = BTree::new();
    for (i, (k, _)) in rows.iter().enumerate() {
        tree.insert(*k, i as u64);
    }
    tree
}

/// The OLTP-side kernels every workload has inputs for: `btree`, `wal`,
/// `storage`, `overlay`.
pub fn oltp(
    keys: &KeyLog,
    engine: &mut Engine,
    ops: usize,
    reference: &mut Reference,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let Some((table, probes)) = busiest(&keys.touches) else {
        return out;
    };
    let rows = engine.scan_table(table);
    let tree = tree_of(&rows);
    let rounds = ops.div_ceil(probes.len());

    out.push((
        "btree.get_ns",
        ns_per_op(reference, rounds * probes.len(), || {
            for _ in 0..rounds {
                for k in &probes {
                    black_box(tree.get(k).0);
                }
            }
        }),
    ));
    // `batch_get` sorts its keys in place, so each batch is copied into a
    // scratch array first; the copy (32 words) is inside the clock.
    let mut scratch = [0i64; crate::workloads::tatp::BATCH];
    let batches = probes.len() / scratch.len();
    out.push((
        "btree.batch_get_ns_per_key",
        ns_per_op(reference, rounds * batches * scratch.len(), || {
            for _ in 0..rounds {
                for chunk in probes.chunks_exact(scratch.len()) {
                    scratch.copy_from_slice(chunk);
                    black_box(tree.batch_get(&mut scratch).0.len());
                }
            }
        }),
    ));

    if let Some((ins_table, mut fresh)) = busiest(&keys.inserts) {
        let mut ins_tree = tree_of(&engine.scan_table(ins_table));
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|k| ins_tree.get(k).0.is_none());
        let n = fresh.len().max(1) as f64;
        let (mut ins, mut rem) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            ins.push(
                timed(reference, || {
                    for k in &fresh {
                        black_box(ins_tree.insert(*k, 1).0);
                    }
                }) / n,
            );
            rem.push(
                timed(reference, || {
                    for k in &fresh {
                        black_box(ins_tree.remove(k).0);
                    }
                }) / n,
            );
        }
        out.push(("btree.insert_ns", median(&ins)));
        out.push(("btree.remove_ns", median(&rem)));
    }

    // WAL: borrowed records with the workload's image sizes, alternating
    // an update of the busiest table's row (before + after image) with a
    // recorded insert.
    let row_len = rows.first().map_or(64, |(_, rec)| rec.len());
    let lens: &[usize] = if keys.body_lens.is_empty() {
        &[64]
    } else {
        &keys.body_lens
    };
    let image = vec![0xA5u8; row_len.max(lens.iter().copied().max().unwrap_or(64))];
    out.push((
        "wal.append_ns",
        ns_per_op(reference, ops, || {
            let mut log = LogManager::new();
            for i in 0..ops {
                let (txn, rid) = (i as u64, i as u64);
                let body = if i % 2 == 0 {
                    LogBodyRef::Update {
                        table,
                        rid,
                        before: &image[..row_len],
                        after: &image[..row_len],
                    }
                } else {
                    LogBodyRef::Insert {
                        table,
                        rid,
                        after: &image[..lens[i / 2 % lens.len()]],
                    }
                };
                black_box(log.append_ref(txn, body));
            }
        }),
    ));

    // Storage: the population in a heap file of its own, read and
    // rewritten in the recorded key order.
    let mut pool = BufferPool::new(1 << 14, DiskManager::new());
    let mut heap = HeapFile::new();
    let mut slot_of: HashMap<i64, (RecordId, &[u8])> = HashMap::with_capacity(rows.len());
    for (k, rec) in &rows {
        let (rid, _) = heap.insert(&mut pool, rec).expect("population fits a heap");
        slot_of.insert(*k, (rid, rec));
    }
    let hits: Vec<(RecordId, &[u8])> = probes
        .iter()
        .filter_map(|k| slot_of.get(k).copied())
        .collect();
    if !hits.is_empty() {
        let rounds = ops.div_ceil(hits.len());
        let mut buf = Vec::new();
        out.push((
            "storage.heap_get_ns",
            ns_per_op(reference, rounds * hits.len(), || {
                for _ in 0..rounds {
                    for (rid, _) in &hits {
                        black_box(heap.get_into(&mut pool, *rid, &mut buf).0);
                    }
                }
            }),
        ));
        out.push((
            "storage.heap_update_ns",
            ns_per_op(reference, rounds * hits.len(), || {
                for _ in 0..rounds {
                    for (rid, rec) in &hits {
                        black_box(heap.update(&mut pool, *rid, rec).is_ok());
                    }
                }
            }),
        ));
    }

    // Overlay: reads of the latest version, then versioned writes and the
    // bulk merge that folds them back.
    let base: Vec<(i64, u64)> = rows
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (*k, i as u64))
        .collect();
    let overlay = OverlayIndex::new(base.clone(), usize::MAX);
    out.push((
        "overlay.get_ns",
        ns_per_op(reference, rounds * probes.len(), || {
            for _ in 0..rounds {
                for k in &probes {
                    black_box(overlay.get_latest(k).0);
                }
            }
        }),
    ));
    let (mut put, mut merge) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut overlay = OverlayIndex::new(base.clone(), usize::MAX);
        put.push(
            timed(reference, || {
                for (v, k) in probes.iter().enumerate() {
                    black_box(overlay.put(*k, v as u64, v as u64 + 1));
                }
            }) / probes.len() as f64,
        );
        let mut merged = 0;
        let ns = timed(reference, || {
            merged = overlay.merge(probes.len() as u64 + 1).keys_merged;
        });
        merge.push(ns / merged.max(1) as f64);
    }
    out.push(("overlay.put_ns", median(&put)));
    out.push(("overlay.merge_ns_per_entry", median(&merge)));
    out
}

/// `scan` and `sim::arbiter` kernels, on `htap_scan`'s table, request and
/// arrival pattern.
pub fn scan(sc: &HtapScale, ops: usize, reference: &mut Reference) -> Vec<(&'static str, f64)> {
    let table = analytics_table(sc.scan_rows);
    let req = crate::workloads::htap::scan_request();
    let eval = ScanEval::compute(&table, &req);
    let mut out = vec![(
        "scan.eval_ns_per_row",
        ns_per_op(reference, sc.scan_rows, || {
            black_box(ScanEval::compute(&table, &req).matches.len());
        }),
    )];

    // One scan every `pred_bytes / (pressure × 80 GB/s)`, as `run_hybrid`
    // offers them, on a contention-enabled platform (a fresh one per
    // repeat, built outside the clock).
    let pred_bytes = sc.scan_rows as u64 * req.predicate_width(&table) as u64;
    let period = SimTime::from_secs(pred_bytes as f64 / (sc.scan_pressure * 80e9));
    let scans = (ops / 100).max(10);
    let scanner = ScannerConfig::default();
    let dispatch: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut engine = Engine::new(EngineConfig::bionic());
            engine.platform.enable_contention();
            timed(reference, || {
                for i in 0..scans {
                    let (platform, unit) = engine.scan_parts();
                    let at = period * i as u64;
                    black_box(
                        scan_dispatch_with(platform, &table, &req, at, &scanner, unit, &eval).done,
                    );
                }
            }) / scans as f64
        })
        .collect();
    out.push(("scan.dispatch_ns_per_scan", median(&dispatch)));

    // The hybrid scan has no string predicate, so the automaton is timed on
    // the table's own price column rendered as text.
    let nfa = Nfa::compile("9[0-9]*7").expect("a valid pattern");
    let price = table.column(2);
    let texts: Vec<Vec<u8>> = (0..sc.scan_rows.min(ops / 4))
        .map(|i| price.as_i64(i).unwrap_or(0).to_string().into_bytes())
        .collect();
    let bytes: usize = texts.iter().map(Vec::len).sum();
    out.push((
        "scan.nfa_ns_per_byte",
        ns_per_op(reference, bytes, || {
            black_box(texts.iter().filter(|s| nfa.is_match(s)).count());
        }),
    ));

    // Arbiter: one call's worth of OLTP probe bookings (three 64-byte node
    // reads every inter-arrival) against the scan stream's bulk bookings.
    let inter = SimTime::from_us(sc.inter_us);
    let arbiter: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sg = SharedBandwidth::two_client(80e9, Contention::WINDOW);
            let mut next_scan = SimTime::ZERO;
            let mut requests = 0usize;
            timed(reference, || {
                for i in 0..sc.call_txns {
                    let at = inter * i;
                    while next_scan <= at {
                        let grant = sg.request(BwClient::Olap.index(), next_scan, pred_bytes);
                        black_box(grant.queued);
                        next_scan += period;
                        requests += 1;
                    }
                    black_box(sg.request(BwClient::Oltp.index(), at, 3 * 64).queued);
                    requests += 1;
                }
            }) / requests.max(1) as f64
        })
        .collect();
    out.push(("sim.arbiter_request_ns", median(&arbiter)));
    out
}

/// `cluster::net` kernel: messages over `cluster_2pc`'s interconnect.
pub fn net(
    seed: u64,
    nodes: usize,
    ops: usize,
    reference: &mut Reference,
) -> Vec<(&'static str, f64)> {
    let n = nodes as u32;
    vec![(
        "cluster.net_send_ns",
        ns_per_op(reference, ops, || {
            let mut net = Network::new(crate::workloads::cluster::net_config(seed));
            for i in 0..ops as u32 {
                let (from, to) = (i % n, (i + 1 + i / n % (n - 1)) % n);
                black_box(net.send(from, to, SimTime::from_us(20.0) * u64::from(i)));
            }
        }),
    )]
}
