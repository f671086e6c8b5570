//! The TATP (Telecom Application Transaction Processing) benchmark.
//!
//! TATP is the paper's update-heavy exhibit: Figure 3's left bar profiles
//! **UpdateSubscriberData**. The implementation follows the public TATP
//! specification: four tables keyed by subscriber id, the standard seven
//! transaction types in the standard 35/10/35/2/14/2/2 mix, non-uniform
//! subscriber selection, and the spec's intentional failure modes
//! (UpdateSubscriberData fails when the chosen special-facility row does not
//! exist — ≈37.5 % of attempts — which exercises the abort/rollback path).
//!
//! Composite keys are packed into `i64`: see [`keys`].

use bionic_core::engine::Engine;
use bionic_core::ops::{Action, Op, Patch, TxnProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key packing for TATP's composite primary keys.
pub mod keys {
    /// ACCESS_INFO key: `(s_id, ai_type 1..=4)`.
    pub fn access_info(s_id: i64, ai_type: i64) -> i64 {
        s_id * 4 + (ai_type - 1)
    }

    /// SPECIAL_FACILITY key: `(s_id, sf_type 1..=4)`.
    pub fn special_facility(s_id: i64, sf_type: i64) -> i64 {
        s_id * 4 + (sf_type - 1)
    }

    /// CALL_FORWARDING key: `(s_id, sf_type 1..=4, start_time 0|8|16)`.
    pub fn call_forwarding(s_id: i64, sf_type: i64, start_time: i64) -> i64 {
        special_facility(s_id, sf_type) * 3 + start_time / 8
    }
}

/// Record-layout offsets (bytes, relative to the full record image whose
/// first 8 bytes are the packed key).
pub mod layout {
    /// SUBSCRIBER.bit_1 (one byte of the bit fields).
    pub const SUB_BIT_1: usize = 8;
    /// SUBSCRIBER.vlr_location (u32 stored as 8-byte field).
    pub const SUB_VLR_LOCATION: usize = 24;
    /// SUBSCRIBER.sub_nbr (the 15-digit number, stored as its numeric
    /// value; indexed by the table's secondary index).
    pub const SUB_NBR: usize = 40;
    /// SUBSCRIBER record body length (spec: ~10 bit, 10 hex, 10 byte2
    /// fields plus locations; we store them packed).
    pub const SUB_BODY: usize = 60;
    /// SPECIAL_FACILITY.data_a.
    pub const SF_DATA_A: usize = 10;
    /// SPECIAL_FACILITY body length.
    pub const SF_BODY: usize = 16;
    /// ACCESS_INFO body length (data1-4, data5, data6).
    pub const AI_BODY: usize = 16;
    /// CALL_FORWARDING body length (end_time + numberx).
    pub const CF_BODY: usize = 24;
}

/// TATP table ids within the engine, in creation order.
#[derive(Debug, Clone, Copy)]
pub struct TatpTables {
    /// SUBSCRIBER.
    pub subscriber: u32,
    /// ACCESS_INFO.
    pub access_info: u32,
    /// SPECIAL_FACILITY.
    pub special_facility: u32,
    /// CALL_FORWARDING.
    pub call_forwarding: u32,
}

/// TATP configuration.
#[derive(Debug, Clone)]
pub struct TatpConfig {
    /// Subscriber population (spec default 100k; tests use less).
    pub subscribers: i64,
    /// RNG seed for load + generation.
    pub seed: u64,
}

impl Default for TatpConfig {
    fn default() -> Self {
        TatpConfig {
            subscribers: 100_000,
            seed: 0x7A79,
        }
    }
}

impl TatpConfig {
    /// A small population for fast tests.
    pub fn small() -> Self {
        TatpConfig {
            subscribers: 2_000,
            ..Default::default()
        }
    }
}

/// The seven TATP transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TatpTxn {
    /// Read one subscriber row (35 %).
    GetSubscriberData,
    /// Read an active call-forwarding destination (10 %).
    GetNewDestination,
    /// Read one access-info row (35 %).
    GetAccessData,
    /// Update subscriber bit + special-facility data (2 %) — Figure 3 left.
    UpdateSubscriberData,
    /// Update subscriber vlr_location (14 %).
    UpdateLocation,
    /// Insert a call-forwarding row (2 %).
    InsertCallForwarding,
    /// Delete a call-forwarding row (2 %).
    DeleteCallForwarding,
}

impl TatpTxn {
    /// The spec mix as cumulative percentage thresholds.
    pub const MIX: [(TatpTxn, u32); 7] = [
        (TatpTxn::GetSubscriberData, 35),
        (TatpTxn::GetNewDestination, 45),
        (TatpTxn::GetAccessData, 80),
        (TatpTxn::UpdateSubscriberData, 82),
        (TatpTxn::UpdateLocation, 96),
        (TatpTxn::InsertCallForwarding, 98),
        (TatpTxn::DeleteCallForwarding, 100),
    ];

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            TatpTxn::GetSubscriberData => "GetSubscriberData",
            TatpTxn::GetNewDestination => "GetNewDestination",
            TatpTxn::GetAccessData => "GetAccessData",
            TatpTxn::UpdateSubscriberData => "UpdateSubscriberData",
            TatpTxn::UpdateLocation => "UpdateLocation",
            TatpTxn::InsertCallForwarding => "InsertCallForwarding",
            TatpTxn::DeleteCallForwarding => "DeleteCallForwarding",
        }
    }
}

/// The sub_nbr assigned to a subscriber: a fixed permutation of s_id (the
/// spec's zero-padded digit string, folded to a number).
pub fn sub_nbr(s_id: i64) -> i64 {
    (s_id.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)) & i64::MAX
}

/// Load the TATP schema and population into an engine.
pub fn load(engine: &mut Engine, cfg: &TatpConfig) -> TatpTables {
    let tables = TatpTables {
        subscriber: engine.create_table_with_secondary("SUBSCRIBER", layout::SUB_NBR),
        access_info: engine.create_table("ACCESS_INFO"),
        special_facility: engine.create_table("SPECIAL_FACILITY"),
        call_forwarding: engine.create_table("CALL_FORWARDING"),
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for s_id in 1..=cfg.subscribers {
        let mut body = vec![0u8; layout::SUB_BODY];
        rng.fill(&mut body[..]);
        body[layout::SUB_VLR_LOCATION - 8..layout::SUB_VLR_LOCATION]
            .copy_from_slice(&rng.gen_range(0i64..1 << 31).to_le_bytes());
        // The record image is key(8) || body, so body offsets are -8.
        body[layout::SUB_NBR - 8..layout::SUB_NBR].copy_from_slice(&sub_nbr(s_id).to_le_bytes());
        engine.load(tables.subscriber, s_id, &body);

        // 1..=4 ACCESS_INFO rows with distinct ai_types.
        let n_ai = rng.gen_range(1..=4);
        for ai_type in 1..=n_ai {
            let mut body = vec![0u8; layout::AI_BODY];
            rng.fill(&mut body[..]);
            engine.load(tables.access_info, keys::access_info(s_id, ai_type), &body);
        }

        // 1..=4 SPECIAL_FACILITY rows; for each, 0..=3 CALL_FORWARDING rows.
        let n_sf = rng.gen_range(1..=4);
        for sf_type in 1..=n_sf {
            let mut body = vec![0u8; layout::SF_BODY];
            rng.fill(&mut body[..]);
            body[0] = u8::from(rng.gen_bool(0.85)); // is_active
            engine.load(
                tables.special_facility,
                keys::special_facility(s_id, sf_type),
                &body,
            );
            let n_cf = rng.gen_range(0..=3);
            for cf in 0..n_cf {
                let start_time = cf * 8;
                let mut body = vec![0u8; layout::CF_BODY];
                rng.fill(&mut body[..]);
                body[0] = (start_time + 8) as u8; // end_time
                engine.load(
                    tables.call_forwarding,
                    keys::call_forwarding(s_id, sf_type, start_time),
                    &body,
                );
            }
        }
    }
    engine.finish_load();
    tables
}

/// Generates the TATP transaction stream.
pub struct TatpGenerator {
    cfg: TatpConfig,
    tables: TatpTables,
    rng: SmallRng,
    /// The non-uniformity mask `A` (65535 for populations ≤ 1 M).
    a: i64,
    /// One reusable program per transaction type (indexed by the
    /// [`TatpTxn`] discriminant), refilled in place by
    /// [`TatpGenerator::next_ref`] — the zero-allocation stream.
    slots: Vec<TxnProgram>,
    /// Type drawn by the last [`TatpGenerator::next_label`], consumed by
    /// the paired [`TatpGenerator::fill`].
    pending: TatpTxn,
}

impl TatpGenerator {
    /// Create a generator over a loaded schema.
    pub fn new(cfg: TatpConfig, tables: TatpTables) -> Self {
        let a = if cfg.subscribers <= 1_000_000 {
            65_535
        } else {
            1_048_575
        };
        TatpGenerator {
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xDEAD),
            cfg,
            tables,
            a,
            slots: (0..TatpTxn::MIX.len())
                .map(|_| TxnProgram::default())
                .collect(),
            pending: TatpTxn::GetSubscriberData,
        }
    }

    /// The spec's non-uniform subscriber id: `(rnd(0,A) | rnd(1,P)) % P + 1`.
    pub fn subscriber_id(&mut self) -> i64 {
        let p = self.cfg.subscribers;
        let x = self.rng.gen_range(0..=self.a);
        let y = self.rng.gen_range(1..=p);
        ((x | y) % p) + 1
    }

    /// Pick the next transaction type from the official mix.
    pub fn next_type(&mut self) -> TatpTxn {
        let roll = self.rng.gen_range(0..100u32);
        for (t, hi) in TatpTxn::MIX {
            if roll < hi {
                return t;
            }
        }
        unreachable!("mix covers 0..100")
    }

    /// Generate the next transaction program.
    #[allow(clippy::should_implement_trait)] // fallible-free, tuple-returning
    pub fn next(&mut self) -> (TatpTxn, TxnProgram) {
        let t = self.next_type();
        (t, self.program(t))
    }

    /// Generate the next transaction into the type's reusable slot and
    /// hand out a reference — the zero-allocation equivalent of
    /// [`TatpGenerator::next`]. The RNG draw sequence is identical, so the
    /// stream of programs matches `next` byte for byte.
    pub fn next_ref(&mut self) -> (TatpTxn, &TxnProgram) {
        let t = self.next_type();
        let i = t as usize;
        let mut prog = std::mem::take(&mut self.slots[i]);
        self.program_into(t, &mut prog);
        self.slots[i] = prog;
        (t, &self.slots[i])
    }

    /// Draw the next transaction type, remembering it for the paired
    /// [`TatpGenerator::fill`] call (the two-step protocol pooled drivers
    /// use: the label picks the pool slot, then `fill` writes into it).
    pub fn next_label(&mut self) -> &'static str {
        self.pending = self.next_type();
        self.pending.label()
    }

    /// Fill `prog` with the transaction drawn by the last
    /// [`TatpGenerator::next_label`].
    pub fn fill(&mut self, prog: &mut TxnProgram) {
        self.program_into(self.pending, prog);
    }

    /// Build a program of a specific type (used directly by Figure 3).
    pub fn program(&mut self, t: TatpTxn) -> TxnProgram {
        let mut prog = TxnProgram::default();
        self.program_into(t, &mut prog);
        prog
    }

    /// Build a program of a specific type into `prog`. Unless `prog`
    /// already holds this type's program (a pool slot filled by an earlier
    /// call), it is first replaced by the type's skeleton (the private
    /// `TatpGenerator::skeleton`);
    /// then its keys and payload bytes are refilled in place, with no
    /// allocation. The RNG draws are the same either way, so the generated
    /// stream does not depend on what `prog` held.
    pub fn program_into(&mut self, t: TatpTxn, prog: &mut TxnProgram) {
        if prog.name.strip_prefix("TATP-") != Some(t.label()) {
            *prog = self.skeleton(t);
        }
        let s_id = self.subscriber_id();
        let p = &mut prog.phases;
        match t {
            TatpTxn::GetSubscriberData => {
                aim(&mut p[0][0], s_id, 0, s_id);
            }
            TatpTxn::GetAccessData => {
                let ai_type = self.rng.gen_range(1..=4);
                let key = keys::access_info(s_id, ai_type);
                aim(&mut p[0][0], key, 0, key);
            }
            TatpTxn::GetNewDestination => {
                let sf_type = self.rng.gen_range(1..=4);
                let start_time = self.rng.gen_range(0..3) * 8;
                let sf_key = keys::special_facility(s_id, sf_type);
                let cf_key = keys::call_forwarding(s_id, sf_type, start_time);
                aim(&mut p[0][0], sf_key, 0, sf_key);
                aim(&mut p[0][1], cf_key, 0, cf_key);
            }
            TatpTxn::UpdateSubscriberData => {
                let sf_type = self.rng.gen_range(1..=4);
                let bit: u8 = self.rng.gen_range(0..=1);
                let data_a: u8 = self.rng.gen();
                let sf_key = keys::special_facility(s_id, sf_type);
                aim(&mut p[0][0], s_id, 0, s_id)[0] = bit;
                aim(&mut p[0][1], sf_key, 0, sf_key)[0] = data_a;
            }
            TatpTxn::UpdateLocation => {
                let loc: i64 = self.rng.gen_range(0..1 << 31);
                aim(&mut p[0][0], s_id, 0, sub_nbr(s_id));
                aim(&mut p[0][0], s_id, 1, s_id).copy_from_slice(&loc.to_le_bytes());
            }
            TatpTxn::InsertCallForwarding => {
                let sf_type = self.rng.gen_range(1..=4);
                let start_time = self.rng.gen_range(0..3) * 8;
                let sf_key = keys::special_facility(s_id, sf_type);
                let cf_key = keys::call_forwarding(s_id, sf_type, start_time);
                aim(&mut p[0][0], s_id, 0, sub_nbr(s_id));
                aim(&mut p[0][1], sf_key, 0, sf_key);
                self.rng.fill(aim(&mut p[1][0], cf_key, 0, cf_key));
            }
            TatpTxn::DeleteCallForwarding => {
                let sf_type = self.rng.gen_range(1..=4);
                let start_time = self.rng.gen_range(0..3) * 8;
                let cf_key = keys::call_forwarding(s_id, sf_type, start_time);
                aim(&mut p[0][0], cf_key, 0, cf_key);
            }
        }
    }

    /// The shape of a type's program — tables, ops, patch offsets and
    /// payload lengths — with every key and payload byte zero, for
    /// [`TatpGenerator::program_into`] to fill. Kept out of line: it runs
    /// only when a slot changes type, never on the refill path.
    #[inline(never)]
    fn skeleton(&self, t: TatpTxn) -> TxnProgram {
        let tb = self.tables;
        let read = |table| Action::new(table, 0, vec![Op::Read { table, key: 0 }]);
        let splice = |table, offset, len| Op::Update {
            table,
            key: 0,
            patch: Patch::Splice {
                offset,
                bytes: vec![0; len],
            },
        };
        let by_sub_nbr = || Op::SecondaryRead {
            table: tb.subscriber,
            skey: 0,
        };
        let (name, phases, abort_on_missing_read) = match t {
            TatpTxn::GetSubscriberData => (
                "TATP-GetSubscriberData",
                vec![vec![read(tb.subscriber)]],
                true,
            ),
            // Spec: fails (gracefully) when the ai row is absent.
            TatpTxn::GetAccessData => (
                "TATP-GetAccessData",
                vec![vec![read(tb.access_info)]],
                false,
            ),
            TatpTxn::GetNewDestination => (
                "TATP-GetNewDestination",
                vec![vec![read(tb.special_facility), read(tb.call_forwarding)]],
                false,
            ),
            // The second action fails (≈37.5 %) when its sf_type doesn't
            // exist: the spec's built-in abort driver.
            TatpTxn::UpdateSubscriberData => (
                "TATP-UpdateSubscriberData",
                vec![vec![
                    Action::new(
                        tb.subscriber,
                        0,
                        vec![splice(tb.subscriber, layout::SUB_BIT_1, 1)],
                    ),
                    Action::new(
                        tb.special_facility,
                        0,
                        vec![splice(tb.special_facility, layout::SF_DATA_A, 1)],
                    ),
                ]],
                true,
            ),
            // Spec: the subscriber is identified BY sub_nbr — one
            // secondary probe, then the update.
            TatpTxn::UpdateLocation => (
                "TATP-UpdateLocation",
                vec![vec![Action::new(
                    tb.subscriber,
                    0,
                    vec![
                        by_sub_nbr(),
                        splice(tb.subscriber, layout::SUB_VLR_LOCATION, 8),
                    ],
                )]],
                true,
            ),
            // Fails when the SF row is missing or the CF exists.
            TatpTxn::InsertCallForwarding => (
                "TATP-InsertCallForwarding",
                vec![
                    vec![
                        Action::new(tb.subscriber, 0, vec![by_sub_nbr()]),
                        read(tb.special_facility),
                    ],
                    vec![Action::new(
                        tb.call_forwarding,
                        0,
                        vec![Op::Insert {
                            table: tb.call_forwarding,
                            key: 0,
                            record: vec![0; layout::CF_BODY],
                        }],
                    )],
                ],
                true,
            ),
            TatpTxn::DeleteCallForwarding => (
                "TATP-DeleteCallForwarding",
                vec![vec![Action::new(
                    tb.call_forwarding,
                    0,
                    vec![Op::Delete {
                        table: tb.call_forwarding,
                        key: 0,
                    }],
                )]],
                true,
            ),
        };
        TxnProgram {
            name,
            phases,
            abort_on_missing_read,
        }
    }
}

/// Route `action` by `route` and key its op `i` by `key` (the secondary key
/// of a `SecondaryRead`); returns that op's payload bytes — a splice's
/// bytes or an insert's record — empty for ops that carry none.
fn aim(action: &mut Action, route: i64, i: usize, key: i64) -> &mut [u8] {
    action.route_key = route;
    match &mut action.ops[i] {
        Op::Read { key: k, .. } | Op::Delete { key: k, .. } => {
            *k = key;
            &mut []
        }
        Op::SecondaryRead { skey, .. } => {
            *skey = key;
            &mut []
        }
        Op::Update {
            key: k,
            patch: Patch::Splice { bytes, .. },
            ..
        } => {
            *k = key;
            bytes
        }
        Op::Insert { key: k, record, .. } => {
            *k = key;
            record
        }
        op => unreachable!("TATP programs carry no {op:?}"),
    }
}

impl crate::driver::PooledSource for TatpGenerator {
    fn next_label(&mut self) -> &'static str {
        TatpGenerator::next_label(self)
    }

    fn fill(&mut self, prog: &mut TxnProgram) {
        TatpGenerator::fill(self, prog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionic_core::config::EngineConfig;

    fn setup() -> (Engine, TatpGenerator) {
        let cfg = TatpConfig::small();
        let mut e = Engine::new(EngineConfig::software().with_agents(8));
        let tables = load(&mut e, &cfg);
        let g = TatpGenerator::new(cfg, tables);
        (e, g)
    }

    #[test]
    fn load_populates_all_tables() {
        let (e, _) = setup();
        assert_eq!(e.row_count(0), 2000, "subscribers");
        let ai = e.row_count(1);
        assert!((2000..=8000).contains(&ai), "access_info={ai}");
        let sf = e.row_count(2);
        assert!((2000..=8000).contains(&sf), "special_facility={sf}");
        assert!(e.row_count(3) > 0, "some call forwarding rows");
    }

    #[test]
    fn subscriber_ids_are_in_range_and_nonuniform() {
        let (_, mut g) = setup();
        let mut counts = vec![0u32; 2001];
        for _ in 0..20_000 {
            let id = g.subscriber_id();
            assert!((1..=2000).contains(&id));
            counts[id as usize] += 1;
        }
        // The OR-mask skews low bits: distribution must differ measurably
        // from uniform (chi-square-lite: max/min bucket ratio).
        let hot = counts.iter().skip(1).max().unwrap();
        let avg = 20_000 / 2000;
        assert!(*hot > 3 * avg, "hot={hot} avg={avg}");
    }

    #[test]
    fn mix_matches_spec_within_tolerance() {
        let (_, mut g) = setup();
        let mut counts = std::collections::HashMap::new();
        let n = 50_000;
        for _ in 0..n {
            *counts.entry(g.next_type()).or_insert(0u32) += 1;
        }
        let pct = |t: TatpTxn| 100.0 * counts[&t] as f64 / n as f64;
        assert!((pct(TatpTxn::GetSubscriberData) - 35.0).abs() < 1.5);
        assert!((pct(TatpTxn::GetAccessData) - 35.0).abs() < 1.5);
        assert!((pct(TatpTxn::UpdateLocation) - 14.0).abs() < 1.0);
        assert!((pct(TatpTxn::GetNewDestination) - 10.0).abs() < 1.0);
        assert!((pct(TatpTxn::UpdateSubscriberData) - 2.0).abs() < 0.5);
    }

    #[test]
    fn update_subscriber_data_fails_at_spec_rate() {
        let (mut e, mut g) = setup();
        let mut at = bionic_sim::SimTime::ZERO;
        let n = 1000;
        for _ in 0..n {
            let prog = g.program(TatpTxn::UpdateSubscriberData);
            e.submit(&prog, at);
            at += bionic_sim::SimTime::from_us(5.0);
        }
        let abort_rate = e.stats.aborted as f64 / n as f64;
        // P(sf_type present) = E[n_sf]/4 = 62.5% -> ~37.5% abort.
        assert!((abort_rate - 0.375).abs() < 0.06, "abort_rate={abort_rate}");
    }

    #[test]
    fn full_mix_runs_clean() {
        let (mut e, mut g) = setup();
        let mut at = bionic_sim::SimTime::ZERO;
        for _ in 0..2000 {
            let (_, prog) = g.next();
            e.submit(&prog, at);
            at += bionic_sim::SimTime::from_us(5.0);
        }
        assert_eq!(e.stats.submitted, 2000);
        assert!(e.stats.committed > 1500, "committed={}", e.stats.committed);
        // Reads dominate the mix, so aborts stay bounded.
        assert!(e.stats.aborted < 500, "aborted={}", e.stats.aborted);
    }

    #[test]
    fn every_path_emits_the_golden_stream() {
        // FNV-1a over the Debug text of the first 20 000 programs: any
        // change to names, keys, record bytes or RNG draw order moves it.
        // All three ways of drawing the stream — `next` (fresh skeletons),
        // `next_ref` (per-type slots) and `next_label`/`fill` (one slot
        // that changes type) — must reproduce it.
        const GOLDEN: u64 = 0x7ff2_4660_f2f2_733a;
        fn digest(mut draw: impl FnMut() -> String) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for _ in 0..20_000 {
                for b in draw().bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        }
        let cfg = TatpConfig::small();
        let mut e = Engine::new(EngineConfig::software().with_agents(8));
        let tables = load(&mut e, &cfg);
        let generator = || TatpGenerator::new(cfg.clone(), tables);
        let mut g = generator();
        assert_eq!(digest(|| format!("{:?}", g.next().1)), GOLDEN, "next");
        let mut g = generator();
        assert_eq!(
            digest(|| format!("{:?}", g.next_ref().1)),
            GOLDEN,
            "next_ref"
        );
        let mut g = generator();
        let mut slot = TxnProgram::default();
        let fill = digest(|| {
            g.next_label();
            g.fill(&mut slot);
            format!("{slot:?}")
        });
        assert_eq!(fill, GOLDEN, "next_label/fill");
    }

    #[test]
    fn label_fill_protocol_matches_next() {
        let cfg = TatpConfig::small();
        let mut e = Engine::new(EngineConfig::software().with_agents(8));
        let tables = load(&mut e, &cfg);
        let mut ga = TatpGenerator::new(cfg.clone(), tables);
        let mut gb = TatpGenerator::new(cfg, tables);
        let mut slot = TxnProgram::default();
        for i in 0..5_000 {
            let (ta, pa) = ga.next();
            let label = gb.next_label();
            gb.fill(&mut slot);
            assert_eq!(ta.label(), label, "label diverged at draw {i}");
            assert_eq!(pa, slot, "program diverged at draw {i}");
        }
    }

    #[test]
    fn insert_then_delete_call_forwarding_round_trips() {
        let (mut e, _) = setup();
        // Hand-roll a CF insert+delete pair on a known-present subscriber.
        let s_id = 1;
        let cf_key = keys::call_forwarding(s_id, 1, 0);
        // Clean slate: remove if the loader created it.
        let del = TxnProgram::single_phase(
            "cleanup",
            vec![Action::new(
                3,
                cf_key,
                vec![Op::Delete {
                    table: 3,
                    key: cf_key,
                }],
            )],
        );
        e.submit(&del, bionic_sim::SimTime::ZERO);
        let before = e.row_count(3);
        let ins = TxnProgram::single_phase(
            "ins",
            vec![Action::new(
                3,
                cf_key,
                vec![Op::Insert {
                    table: 3,
                    key: cf_key,
                    record: vec![0u8; layout::CF_BODY],
                }],
            )],
        );
        assert!(e
            .submit(&ins, bionic_sim::SimTime::from_ms(1.0))
            .is_committed());
        assert_eq!(e.row_count(3), before + 1);
    }
}
