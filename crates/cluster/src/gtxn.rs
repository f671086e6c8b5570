//! Dense per-gtxn tables: the coordinator decision cache and the
//! participant dedup table.
//!
//! Global ids are `GTXN_BASE | seq`, and [`Cluster`](crate::Cluster)
//! hands `seq` out densely and in order, so both tables are plain vectors
//! indexed by `seq` instead of ordered maps. They are never trimmed — a
//! late duplicate must still find its gtxn — so each costs one byte per
//! gtxn per node, and a lookup costs the same at the end of a long run as
//! at its start. The atomicity oracle keeps its own maps and never reads
//! these.

use bionic_sim::time::SimTime;
use bionic_wal::TxnId;

use crate::cluster::GTXN_BASE;

/// The dense slot of a global id.
fn slot(gtxn: u64) -> usize {
    debug_assert!(gtxn & GTXN_BASE != 0, "not a global id: {gtxn:#x}");
    (gtxn & !GTXN_BASE) as usize
}

/// A map from gtxn to a small `Copy` value, one `Option<V>` slot per
/// sequence number, grown on insert.
#[derive(Debug)]
pub(crate) struct GtxnMap<V: Copy> {
    slots: Vec<Option<V>>,
}

impl<V: Copy> Default for GtxnMap<V> {
    fn default() -> Self {
        GtxnMap { slots: Vec::new() }
    }
}

impl<V: Copy> GtxnMap<V> {
    pub(crate) fn get(&self, gtxn: u64) -> Option<V> {
        self.slots.get(slot(gtxn)).copied().flatten()
    }

    pub(crate) fn insert(&mut self, gtxn: u64, v: V) {
        let i = slot(gtxn);
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(v);
    }
}

/// Participant-side state of one global transaction, keyed by gtxn in the
/// node's dedup table. Volatile — a crash wipes it, recovery rebuilds it
/// from the WAL — and it is what makes message redelivery exactly-once:
/// a duplicate or retried PREPARE re-votes from here instead of
/// re-executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BranchState {
    /// Prepared (voted YES): local txn id + coordinator node.
    Prepared(TxnId, u32),
    /// Executed and voted NO; already rolled back locally.
    Refused,
    /// Decision applied (`true` = committed).
    Finished(bool),
}

/// [`BranchState`] without the prepared payload: one byte per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Prepared,
    Refused,
    Finished(bool),
}

const _: () = assert!(std::mem::size_of::<Option<Seen>>() == 1);

/// The participant dedup table: a one-byte [`Seen`] per gtxn, plus the
/// payload of the branches currently prepared — the only ones that carry
/// any — in a short list sorted by gtxn.
#[derive(Debug, Default)]
pub(crate) struct SeenTable {
    state: GtxnMap<Seen>,
    /// Every `Prepared` slot's payload, ascending by gtxn.
    prepared: Vec<Payload>,
}

/// What a prepared branch carries.
#[derive(Debug, Clone, Copy)]
struct Payload {
    gtxn: u64,
    txn: TxnId,
    coord: u32,
    /// When the coordinator counted this branch's YES vote
    /// ([`SeenTable::record_vote`]), until [`SeenTable::take_vote`]; the
    /// start of its in-doubt window. `None` while the vote is unheard.
    voted_at: Option<SimTime>,
}

impl SeenTable {
    pub(crate) fn get(&self, gtxn: u64) -> Option<BranchState> {
        Some(match self.state.get(gtxn)? {
            Seen::Prepared => {
                let i = self
                    .find(gtxn)
                    .expect("a prepared slot has a payload entry");
                let p = self.prepared[i];
                BranchState::Prepared(p.txn, p.coord)
            }
            Seen::Refused => BranchState::Refused,
            Seen::Finished(c) => BranchState::Finished(c),
        })
    }

    pub(crate) fn insert(&mut self, gtxn: u64, s: BranchState) {
        let found = self.find(gtxn);
        let seen = match s {
            BranchState::Prepared(txn, coord) => {
                let p = Payload {
                    gtxn,
                    txn,
                    coord,
                    voted_at: None,
                };
                match found {
                    Ok(i) => self.prepared[i] = p,
                    Err(i) => self.prepared.insert(i, p),
                }
                Seen::Prepared
            }
            BranchState::Refused => Seen::Refused,
            BranchState::Finished(c) => Seen::Finished(c),
        };
        if let (Seen::Refused | Seen::Finished(_), Ok(i)) = (seen, found) {
            self.prepared.remove(i);
        }
        self.state.insert(gtxn, seen);
    }

    /// `(gtxn, coordinator)` of every prepared branch, ascending by gtxn.
    pub(crate) fn prepared(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.prepared.iter().map(|p| (p.gtxn, p.coord))
    }

    /// The coordinator counted prepared branch `gtxn`'s YES vote at `at`.
    ///
    /// # Panics
    /// If `gtxn` is not prepared here: a YES vote comes only from a
    /// prepared branch, and nothing ends one between the vote and its
    /// counting.
    pub(crate) fn record_vote(&mut self, gtxn: u64, at: SimTime) {
        let i = self
            .find(gtxn)
            .expect("a YES vote comes from a prepared branch");
        self.prepared[i].voted_at = Some(at);
    }

    /// Take the vote time [`SeenTable::record_vote`] left on `gtxn`, if it
    /// is still prepared and has one.
    pub(crate) fn take_vote(&mut self, gtxn: u64) -> Option<SimTime> {
        let i = self.find(gtxn).ok()?;
        self.prepared[i].voted_at.take()
    }

    fn find(&self, gtxn: u64) -> Result<usize, usize> {
        self.prepared.binary_search_by_key(&gtxn, |p| p.gtxn)
    }
}

#[cfg(test)]
mod tests {
    //! Differential properties: both tables against a `BTreeMap` running
    //! the same operations.

    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// Sequence numbers drawn by the properties; lookups probe beyond it
    /// so never-seen ids past the end of the vector are covered.
    const SEQS: u64 = 96;

    fn gid(seq: u64) -> u64 {
        GTXN_BASE | seq
    }

    /// `(op, seq, txn, coord, flag)`: 0 prepare, 1 refuse, 2 finish,
    /// 3 resolve-if-prepared, 4 crash and rebuild from the prepares, 5
    /// count a prepared branch's vote at time `txn`.
    fn ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u32, bool)>> {
        proptest::collection::vec(
            (0u8..6, 0u64..SEQS, 0u64..1_000, 0u32..8, any::<bool>()),
            0..200,
        )
    }

    fn same_seen(t: &SeenTable, r: &BTreeMap<u64, BranchState>) -> Result<(), TestCaseError> {
        for seq in 0..SEQS + 8 {
            prop_assert_eq!(t.get(gid(seq)), r.get(&gid(seq)).copied(), "seq {}", seq);
        }
        let want: Vec<(u64, u32)> = r
            .iter()
            .filter_map(|(g, s)| match s {
                BranchState::Prepared(_, coord) => Some((*g, *coord)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(t.prepared().collect::<Vec<_>>(), want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gtxn_map_matches_a_btreemap(
            ops in proptest::collection::vec((0u64..SEQS, any::<bool>()), 0..200),
        ) {
            let mut t: GtxnMap<bool> = GtxnMap::default();
            let mut r: BTreeMap<u64, bool> = BTreeMap::new();
            for (seq, v) in ops {
                t.insert(gid(seq), v);
                r.insert(gid(seq), v);
                for probe in 0..SEQS + 8 {
                    prop_assert_eq!(t.get(gid(probe)), r.get(&gid(probe)).copied());
                }
            }
        }

        #[test]
        fn seen_table_matches_a_btreemap(ops in ops()) {
            let mut t = SeenTable::default();
            let mut r: BTreeMap<u64, BranchState> = BTreeMap::new();
            // The reference vote times: present while a branch is
            // prepared and its vote counted.
            let mut votes: BTreeMap<u64, SimTime> = BTreeMap::new();
            // Every branch ever prepared, in log order, as recovery finds
            // them: `(local txn, gtxn)`.
            let mut prepares: Vec<(TxnId, u64)> = Vec::new();
            for (op, seq, txn, coord, flag) in ops {
                let g = gid(seq);
                match op {
                    0 => {
                        t.insert(g, BranchState::Prepared(txn, coord));
                        r.insert(g, BranchState::Prepared(txn, coord));
                        votes.remove(&g);
                        prepares.push((txn, g));
                    }
                    1 => {
                        t.insert(g, BranchState::Refused);
                        r.insert(g, BranchState::Refused);
                        votes.remove(&g);
                    }
                    2 => {
                        prop_assert_eq!(t.take_vote(g), votes.remove(&g));
                        t.insert(g, BranchState::Finished(flag));
                        r.insert(g, BranchState::Finished(flag));
                    }
                    3 => {
                        // The decision path: only a prepared branch moves.
                        if let Some(BranchState::Prepared(..)) = t.get(g) {
                            prop_assert_eq!(t.take_vote(g), votes.remove(&g));
                            t.insert(g, BranchState::Finished(flag));
                        }
                        if let Some(BranchState::Prepared(..)) = r.get(&g) {
                            r.insert(g, BranchState::Finished(flag));
                        }
                    }
                    5 => {
                        if let Some(BranchState::Prepared(..)) = r.get(&g) {
                            t.record_vote(g, SimTime::from_ps(txn));
                            votes.insert(g, SimTime::from_ps(txn));
                        }
                    }
                    _ => {
                        // Recovery: every prepare in the log is finished,
                        // committed iff its local txn won.
                        t = SeenTable::default();
                        r.clear();
                        votes.clear();
                        for &(txn, g) in &prepares {
                            t.insert(g, BranchState::Finished(txn % 2 == 0));
                            r.insert(g, BranchState::Finished(txn % 2 == 0));
                        }
                    }
                }
                same_seen(&t, &r)?;
            }
        }
    }
}
