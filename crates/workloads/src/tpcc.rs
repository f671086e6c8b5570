//! The TPC-C benchmark (in-memory scale).
//!
//! Figure 3's right bar profiles **StockLevel**, TPC-C's read-only
//! index-heavy transaction ("OLTP workloads are index-bound, spending in
//! some cases 40 % or more of total transaction time traversing various
//! index structures", §5.3). All five transaction types are implemented
//! with the spec's 45/43/4/4/4 mix, NURand skew, remote-warehouse
//! probabilities, and the 1 % intentional NewOrder abort.
//!
//! The generator keeps *shadow state* (next order ids, undelivered orders,
//! items of recent orders) so that data-dependent transactions can be
//! emitted as concrete [`TxnProgram`]s with exactly the data footprint the
//! spec prescribes.

use bionic_core::engine::Engine;
use bionic_core::ops::{Action, Op, Patch, TxnProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Key packing for TPC-C composite keys.
pub mod keys {
    /// DISTRICT key: `(w, d 0..10)`.
    pub fn district(w: i64, d: i64) -> i64 {
        w * 10 + d
    }

    /// CUSTOMER key: `(w, d, c)`.
    pub fn customer(w: i64, d: i64, c: i64) -> i64 {
        district(w, d) * 100_000 + c
    }

    /// ORDER / NEWORDER key: `(w, d, o_id)`.
    pub fn order(w: i64, d: i64, o_id: i64) -> i64 {
        district(w, d) * (1 << 32) + o_id
    }

    /// ORDERLINE key: `(order, line 0..16)`.
    pub fn orderline(order_key: i64, line: i64) -> i64 {
        order_key * 16 + line
    }

    /// STOCK key: `(w, item)`.
    pub fn stock(w: i64, item: i64) -> i64 {
        w * 1_000_000 + item
    }
}

/// Record layout offsets (absolute, key prefix included).
pub mod layout {
    /// WAREHOUSE.ytd.
    pub const W_YTD: usize = 8;
    /// WAREHOUSE body bytes.
    pub const W_BODY: usize = 72;
    /// DISTRICT.ytd.
    pub const D_YTD: usize = 8;
    /// DISTRICT.next_o_id.
    pub const D_NEXT_O_ID: usize = 16;
    /// DISTRICT body bytes.
    pub const D_BODY: usize = 72;
    /// CUSTOMER.balance.
    pub const C_BALANCE: usize = 8;
    /// CUSTOMER.ytd_payment.
    pub const C_YTD: usize = 16;
    /// CUSTOMER.payment_cnt.
    pub const C_PAYMENT_CNT: usize = 24;
    /// CUSTOMER body bytes (the spec row is ~655 B; we keep the hot prefix
    /// plus representative padding).
    pub const C_BODY: usize = 120;
    /// ORDER.carrier_id.
    pub const O_CARRIER: usize = 8;
    /// ORDER.ol_cnt.
    pub const O_OL_CNT: usize = 16;
    /// ORDER body bytes.
    pub const O_BODY: usize = 24;
    /// NEWORDER body bytes.
    pub const NO_BODY: usize = 8;
    /// ORDERLINE.delivery_d.
    pub const OL_DELIVERY_D: usize = 8;
    /// ORDERLINE.amount.
    pub const OL_AMOUNT: usize = 16;
    /// ORDERLINE body bytes.
    pub const OL_BODY: usize = 40;
    /// ITEM body bytes.
    pub const I_BODY: usize = 56;
    /// STOCK.quantity.
    pub const S_QUANTITY: usize = 8;
    /// STOCK body bytes.
    pub const S_BODY: usize = 56;
}

/// Engine table ids, in creation order.
#[derive(Debug, Clone, Copy)]
pub struct TpccTables {
    /// WAREHOUSE.
    pub warehouse: u32,
    /// DISTRICT.
    pub district: u32,
    /// CUSTOMER.
    pub customer: u32,
    /// HISTORY.
    pub history: u32,
    /// ORDER.
    pub order: u32,
    /// NEWORDER.
    pub neworder: u32,
    /// ORDERLINE.
    pub orderline: u32,
    /// ITEM.
    pub item: u32,
    /// STOCK.
    pub stock: u32,
}

/// TPC-C configuration (scaled for in-memory simulation).
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Warehouses.
    pub warehouses: i64,
    /// Customers per district (spec 3000).
    pub customers_per_district: i64,
    /// Item catalog size (spec 100_000).
    pub items: i64,
    /// Initial orders per district (spec 3000).
    pub initial_orders: i64,
    /// RNG seed.
    pub seed: u64,
}

/// Districts per warehouse (fixed by the spec).
pub const DISTRICTS: i64 = 10;

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 2,
            customers_per_district: 3000,
            items: 100_000,
            initial_orders: 300,
            seed: 0x7CC,
        }
    }
}

impl TpccConfig {
    /// A small configuration for fast tests.
    pub fn small() -> Self {
        TpccConfig {
            warehouses: 1,
            customers_per_district: 60,
            items: 1000,
            initial_orders: 30,
            ..Default::default()
        }
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpccTxn {
    /// 45 %: order entry (read-write, multi-table).
    NewOrder,
    /// 43 %: payment (read-write).
    Payment,
    /// 4 %: order status (read-only).
    OrderStatus,
    /// 4 %: delivery (read-write batch).
    Delivery,
    /// 4 %: stock level (read-only, index-heavy) — Figure 3 right.
    StockLevel,
}

impl TpccTxn {
    /// Cumulative mix thresholds.
    pub const MIX: [(TpccTxn, u32); 5] = [
        (TpccTxn::NewOrder, 45),
        (TpccTxn::Payment, 88),
        (TpccTxn::OrderStatus, 92),
        (TpccTxn::Delivery, 96),
        (TpccTxn::StockLevel, 100),
    ];

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            TpccTxn::NewOrder => "NewOrder",
            TpccTxn::Payment => "Payment",
            TpccTxn::OrderStatus => "OrderStatus",
            TpccTxn::Delivery => "Delivery",
            TpccTxn::StockLevel => "StockLevel",
        }
    }
}

/// Per-district shadow state the generator maintains.
#[derive(Debug, Clone)]
struct DistrictState {
    next_o_id: i64,
    /// `(o_id, customer, item_ids)` of recent orders (StockLevel window).
    recent: VecDeque<(i64, i64, Vec<i64>)>,
    /// Undelivered orders: `(o_id, customer, ol_cnt)`.
    undelivered: VecDeque<(i64, i64, i64)>,
    /// Last order per customer (OrderStatus).
    last_order: Vec<(i64, i64)>, // (o_id, ol_cnt) indexed by customer
}

/// Load TPC-C and return table handles + generator.
pub fn load(engine: &mut Engine, cfg: &TpccConfig) -> (TpccTables, TpccGenerator) {
    let tables = TpccTables {
        warehouse: engine.create_table("WAREHOUSE"),
        district: engine.create_table("DISTRICT"),
        customer: engine.create_table("CUSTOMER"),
        history: engine.create_table("HISTORY"),
        order: engine.create_table("ORDER"),
        neworder: engine.create_table("NEWORDER"),
        orderline: engine.create_table("ORDERLINE"),
        item: engine.create_table("ITEM"),
        stock: engine.create_table("STOCK"),
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // One body buffer per table. Each row redraws or rewrites every byte
    // the loader ever sets, and the rest stay zero.
    let mut item = [0u8; layout::I_BODY];
    let mut warehouse = [0u8; layout::W_BODY];
    let mut stock = [0u8; layout::S_BODY];
    let mut district = [0u8; layout::D_BODY];
    let mut customer = [0u8; layout::C_BODY];
    let mut order = [0u8; layout::O_BODY];
    let mut orderline = [0u8; layout::OL_BODY];

    for i in 1..=cfg.items {
        rng.fill(&mut item[..]);
        item[..8].copy_from_slice(&rng.gen_range(100i64..10_000).to_le_bytes()); // price
        engine.load(tables.item, i, &item);
    }

    let mut districts = Vec::new();
    for w in 0..cfg.warehouses {
        rng.fill(&mut warehouse[..]);
        warehouse[..8].copy_from_slice(&0i64.to_le_bytes()); // ytd
        engine.load(tables.warehouse, w, &warehouse);

        for i in 1..=cfg.items {
            rng.fill(&mut stock[..]);
            stock[..8].copy_from_slice(&rng.gen_range(10i64..100).to_le_bytes()); // qty
            engine.load(tables.stock, keys::stock(w, i), &stock);
        }

        for d in 0..DISTRICTS {
            let dk = keys::district(w, d);
            rng.fill(&mut district[..]);
            district[..8].copy_from_slice(&0i64.to_le_bytes()); // ytd
            district[8..16].copy_from_slice(&(cfg.initial_orders + 1).to_le_bytes()); // next_o_id
            engine.load(tables.district, dk, &district);

            for c in 0..cfg.customers_per_district {
                rng.fill(&mut customer[..]);
                customer[..8].copy_from_slice(&(-1000i64).to_le_bytes()); // balance
                customer[8..16].copy_from_slice(&10i64.to_le_bytes()); // ytd
                customer[16..24].copy_from_slice(&1i64.to_le_bytes()); // payment_cnt
                engine.load(tables.customer, keys::customer(w, d, c), &customer);
            }

            let mut state = DistrictState {
                next_o_id: cfg.initial_orders + 1,
                recent: VecDeque::new(),
                undelivered: VecDeque::new(),
                last_order: vec![(0, 0); cfg.customers_per_district as usize],
            };
            for o_id in 1..=cfg.initial_orders {
                let c = rng.gen_range(0..cfg.customers_per_district);
                let ol_cnt = rng.gen_range(5..=15i64);
                let ok = keys::order(w, d, o_id);
                let delivered = o_id <= cfg.initial_orders * 7 / 10;
                order[..8].copy_from_slice(&if delivered { 5i64 } else { 0 }.to_le_bytes());
                order[8..16].copy_from_slice(&ol_cnt.to_le_bytes());
                engine.load(tables.order, ok, &order);
                let mut items = Vec::with_capacity(ol_cnt as usize);
                for line in 0..ol_cnt {
                    let item = rng.gen_range(1..=cfg.items);
                    items.push(item);
                    orderline[..8].copy_from_slice(&0i64.to_le_bytes()); // delivery_d
                    orderline[8..16].copy_from_slice(&rng.gen_range(10i64..10_000).to_le_bytes());
                    engine.load(tables.orderline, keys::orderline(ok, line), &orderline);
                }
                if !delivered {
                    engine.load(tables.neworder, ok, &[0u8; layout::NO_BODY]);
                    state.undelivered.push_back((o_id, c, ol_cnt));
                }
                state.last_order[c as usize] = (o_id, ol_cnt);
                state.recent.push_back((o_id, c, items));
                if state.recent.len() > 30 {
                    state.recent.pop_front();
                }
            }
            districts.push(state);
        }
    }
    engine.finish_load();
    let generator = TpccGenerator {
        rng: SmallRng::seed_from_u64(cfg.seed ^ 0xC0FFEE),
        cfg: cfg.clone(),
        tables,
        districts,
        history_seq: 1,
        c_for_nurand: 7,
    };
    (tables, generator)
}

/// Generates the TPC-C transaction stream and maintains shadow state.
pub struct TpccGenerator {
    rng: SmallRng,
    cfg: TpccConfig,
    tables: TpccTables,
    districts: Vec<DistrictState>,
    history_seq: i64,
    c_for_nurand: i64,
}

impl TpccGenerator {
    fn district_index(&self, w: i64, d: i64) -> usize {
        (w * DISTRICTS + d) as usize
    }

    /// TPC-C NURand(A, 1..=x).
    fn nurand(&mut self, a: i64, x: i64) -> i64 {
        let r1 = self.rng.gen_range(0..=a);
        let r2 = self.rng.gen_range(1..=x);
        (((r1 | r2) + self.c_for_nurand) % x) + 1
    }

    fn pick_customer(&mut self) -> i64 {
        self.nurand(1023, self.cfg.customers_per_district) - 1
    }

    fn pick_item(&mut self) -> i64 {
        self.nurand(8191, self.cfg.items)
    }

    /// Pick a transaction type from the official mix.
    pub fn next_type(&mut self) -> TpccTxn {
        let roll = self.rng.gen_range(0..100u32);
        for (t, hi) in TpccTxn::MIX {
            if roll < hi {
                return t;
            }
        }
        unreachable!()
    }

    /// Generate the next transaction.
    #[allow(clippy::should_implement_trait)] // fallible-free, tuple-returning
    pub fn next(&mut self) -> (TpccTxn, TxnProgram) {
        let t = self.next_type();
        (t, self.program(t))
    }

    /// Build a program of a specific type.
    pub fn program(&mut self, t: TpccTxn) -> TxnProgram {
        let w = self.rng.gen_range(0..self.cfg.warehouses);
        let d = self.rng.gen_range(0..DISTRICTS);
        match t {
            TpccTxn::NewOrder => self.new_order(w, d),
            TpccTxn::Payment => self.payment(w, d),
            TpccTxn::OrderStatus => self.order_status(w, d),
            TpccTxn::Delivery => self.delivery(w),
            TpccTxn::StockLevel => self.stock_level(w, d),
        }
    }

    /// NewOrder: the spec's order-entry transaction.
    pub fn new_order(&mut self, w: i64, d: i64) -> TxnProgram {
        let c = self.pick_customer();
        let ol_cnt = self.rng.gen_range(5..=15i64);
        let rollback = self.rng.gen_range(0..100) == 0; // 1% bad item
        let dk = keys::district(w, d);
        let t = self.tables;

        let mut items = Vec::with_capacity(ol_cnt as usize);
        for _ in 0..ol_cnt {
            items.push(self.pick_item());
        }

        // Phase 1: reads + district sequence bump.
        let mut phase1 = Vec::with_capacity(3 + items.len());
        phase1.extend([
            Action::new(
                t.warehouse,
                w,
                vec![Op::Read {
                    table: t.warehouse,
                    key: w,
                }],
            ),
            Action::new(
                t.district,
                dk,
                vec![Op::Update {
                    table: t.district,
                    key: dk,
                    patch: Patch::AddI64 {
                        offset: layout::D_NEXT_O_ID,
                        delta: 1,
                    },
                }],
            ),
            Action::new(
                t.customer,
                keys::customer(w, d, c),
                vec![Op::Read {
                    table: t.customer,
                    key: keys::customer(w, d, c),
                }],
            ),
        ]);
        for (idx, &item) in items.iter().enumerate() {
            let key = if rollback && idx == items.len() - 1 {
                // The spec's intentional abort: an unused item id.
                self.cfg.items + 1_000_000
            } else {
                item
            };
            phase1.push(Action::new(
                t.item,
                key,
                vec![Op::Read { table: t.item, key }],
            ));
        }

        // Phase 2: stock updates (1% remote warehouse per line).
        let mut phase2 = Vec::with_capacity(items.len());
        for &item in &items {
            let supply_w = if self.cfg.warehouses > 1 && self.rng.gen_range(0..100) == 0 {
                (w + 1) % self.cfg.warehouses
            } else {
                w
            };
            let sk = keys::stock(supply_w, item);
            phase2.push(Action::new(
                t.stock,
                sk,
                vec![Op::Update {
                    table: t.stock,
                    key: sk,
                    patch: Patch::AddI64 {
                        offset: layout::S_QUANTITY,
                        delta: -(self.rng.gen_range(1..=10)),
                    },
                }],
            ));
        }

        // Phase 3: order materialization.
        let didx = self.district_index(w, d);
        let st = &mut self.districts[didx];
        let o_id = st.next_o_id;
        if !rollback {
            st.next_o_id += 1;
            st.undelivered.push_back((o_id, c, ol_cnt));
            st.last_order[c as usize] = (o_id, ol_cnt);
            st.recent.push_back((o_id, c, items.clone()));
            if st.recent.len() > 30 {
                st.recent.pop_front();
            }
        }
        let ok = keys::order(w, d, o_id);
        let mut order_body = vec![0u8; layout::O_BODY];
        order_body[8..16].copy_from_slice(&ol_cnt.to_le_bytes());
        let mut ol_ops = Vec::with_capacity(ol_cnt as usize);
        for line in 0..ol_cnt {
            let mut body = vec![0u8; layout::OL_BODY];
            body[8..16].copy_from_slice(&self.rng.gen_range(10i64..10_000).to_le_bytes());
            ol_ops.push(Op::Insert {
                table: t.orderline,
                key: keys::orderline(ok, line),
                record: body,
            });
        }
        let phase3 = vec![
            Action::new(
                t.order,
                ok,
                vec![Op::Insert {
                    table: t.order,
                    key: ok,
                    record: order_body,
                }],
            ),
            Action::new(
                t.neworder,
                ok,
                vec![Op::Insert {
                    table: t.neworder,
                    key: ok,
                    record: vec![0u8; layout::NO_BODY],
                }],
            ),
            Action::new(t.orderline, ok, ol_ops),
        ];

        TxnProgram {
            name: "TPCC-NewOrder",
            phases: vec![phase1, phase2, phase3],
            abort_on_missing_read: true,
        }
    }

    /// Payment.
    pub fn payment(&mut self, w: i64, d: i64) -> TxnProgram {
        let t = self.tables;
        // 15% remote customer district.
        let (cw, cd) = if self.cfg.warehouses > 1 && self.rng.gen_range(0..100) < 15 {
            (
                (w + 1) % self.cfg.warehouses,
                self.rng.gen_range(0..DISTRICTS),
            )
        } else {
            (w, d)
        };
        let c = self.pick_customer();
        let amount = self.rng.gen_range(100i64..500_000);
        let hk = self.history_seq;
        self.history_seq += 1;
        let mut hist = vec![0u8; 40];
        hist[..8].copy_from_slice(&amount.to_le_bytes());
        TxnProgram {
            name: "TPCC-Payment",
            phases: vec![vec![
                Action::new(
                    t.warehouse,
                    w,
                    vec![Op::Update {
                        table: t.warehouse,
                        key: w,
                        patch: Patch::AddI64 {
                            offset: layout::W_YTD,
                            delta: amount,
                        },
                    }],
                ),
                Action::new(
                    t.district,
                    keys::district(w, d),
                    vec![Op::Update {
                        table: t.district,
                        key: keys::district(w, d),
                        patch: Patch::AddI64 {
                            offset: layout::D_YTD,
                            delta: amount,
                        },
                    }],
                ),
                Action::new(
                    t.customer,
                    keys::customer(cw, cd, c),
                    vec![
                        Op::Update {
                            table: t.customer,
                            key: keys::customer(cw, cd, c),
                            patch: Patch::AddI64 {
                                offset: layout::C_BALANCE,
                                delta: -amount,
                            },
                        },
                        Op::Update {
                            table: t.customer,
                            key: keys::customer(cw, cd, c),
                            patch: Patch::AddI64 {
                                offset: layout::C_PAYMENT_CNT,
                                delta: 1,
                            },
                        },
                    ],
                ),
                Action::new(
                    t.history,
                    hk,
                    vec![Op::Insert {
                        table: t.history,
                        key: hk,
                        record: hist,
                    }],
                ),
            ]],
            abort_on_missing_read: true,
        }
    }

    /// OrderStatus (read-only).
    pub fn order_status(&mut self, w: i64, d: i64) -> TxnProgram {
        let t = self.tables;
        let c = self.pick_customer();
        let (o_id, ol_cnt) = self.districts[self.district_index(w, d)].last_order[c as usize];
        let mut ops = vec![Op::Read {
            table: t.customer,
            key: keys::customer(w, d, c),
        }];
        let mut phases = Vec::with_capacity(2);
        phases.push(vec![Action::new(
            t.customer,
            keys::customer(w, d, c),
            std::mem::take(&mut ops),
        )]);
        if o_id > 0 {
            let ok = keys::order(w, d, o_id);
            phases.push(vec![Action::new(
                t.order,
                ok,
                vec![
                    Op::Read {
                        table: t.order,
                        key: ok,
                    },
                    Op::ReadRange {
                        table: t.orderline,
                        lo: keys::orderline(ok, 0),
                        hi: keys::orderline(ok, ol_cnt.max(1)),
                        limit: 16,
                    },
                ],
            )]);
        }
        TxnProgram {
            name: "TPCC-OrderStatus",
            phases,
            abort_on_missing_read: false,
        }
    }

    /// Delivery: deliver the oldest undelivered order in every district.
    pub fn delivery(&mut self, w: i64) -> TxnProgram {
        let t = self.tables;
        let carrier: u8 = self.rng.gen_range(1..=10);
        // Four actions per delivered district.
        let mut phase = Vec::with_capacity(4 * DISTRICTS as usize);
        for d in 0..DISTRICTS {
            let idx = self.district_index(w, d);
            let Some((o_id, c, ol_cnt)) = self.districts[idx].undelivered.pop_front() else {
                continue; // spec: skipped delivery
            };
            let ok = keys::order(w, d, o_id);
            phase.push(Action::new(
                t.neworder,
                ok,
                vec![Op::Delete {
                    table: t.neworder,
                    key: ok,
                }],
            ));
            phase.push(Action::new(
                t.order,
                ok,
                vec![Op::Update {
                    table: t.order,
                    key: ok,
                    patch: Patch::Splice {
                        offset: layout::O_CARRIER,
                        bytes: vec![carrier],
                    },
                }],
            ));
            let mut ol_ops = Vec::with_capacity(ol_cnt as usize);
            for line in 0..ol_cnt {
                ol_ops.push(Op::Update {
                    table: t.orderline,
                    key: keys::orderline(ok, line),
                    patch: Patch::AddI64 {
                        offset: layout::OL_DELIVERY_D,
                        delta: 1,
                    },
                });
            }
            phase.push(Action::new(t.orderline, ok, ol_ops));
            phase.push(Action::new(
                t.customer,
                keys::customer(w, d, c),
                vec![Op::Update {
                    table: t.customer,
                    key: keys::customer(w, d, c),
                    patch: Patch::AddI64 {
                        offset: layout::C_BALANCE,
                        delta: 100,
                    },
                }],
            ));
        }
        if phase.is_empty() {
            // Nothing to deliver anywhere: a trivial read of the warehouse.
            phase.push(Action::new(
                t.warehouse,
                w,
                vec![Op::Read {
                    table: t.warehouse,
                    key: w,
                }],
            ));
        }
        TxnProgram {
            name: "TPCC-Delivery",
            phases: vec![phase],
            abort_on_missing_read: false,
        }
    }

    /// StockLevel: the Figure-3 read-only transaction. Examines the order
    /// lines of the district's last 20 orders and probes the stock row of
    /// every item seen — index probes all the way down.
    pub fn stock_level(&mut self, w: i64, d: i64) -> TxnProgram {
        let t = self.tables;
        let idx = self.district_index(w, d);
        let st = &self.districts[idx];
        let next = st.next_o_id;
        let lo_order = (next - 20).max(1);
        let dk = keys::district(w, d);

        // Distinct items among the last 20 orders (shadow of the OL join).
        let window = || st.recent.iter().filter(|(o, _, _)| *o >= lo_order);
        let mut items: Vec<i64> = Vec::with_capacity(window().map(|(_, _, its)| its.len()).sum());
        items.extend(window().flat_map(|(_, _, its)| its.iter().copied()));
        items.sort_unstable();
        items.dedup();

        // The stock probes: one per distinct item, plus the counting logic.
        let mut stock_ops = Vec::with_capacity(items.len() + 1);
        stock_ops.extend(items.iter().map(|&i| Op::Read {
            table: t.stock,
            key: keys::stock(w, i),
        }));
        stock_ops.push(Op::Compute {
            instructions: 20 * items.len() as u64 + 100,
        });

        let read_district = Action::new(
            t.district,
            dk,
            vec![Op::Read {
                table: t.district,
                key: dk,
            }],
        );
        let read_order_lines = Action::new(
            t.orderline,
            keys::order(w, d, lo_order),
            vec![Op::ReadRange {
                table: t.orderline,
                lo: keys::orderline(keys::order(w, d, lo_order), 0),
                hi: keys::orderline(keys::order(w, d, next), 0),
                limit: 400,
            }],
        );
        let probe_stock = Action::new(t.stock, keys::stock(w, 1), stock_ops);
        TxnProgram {
            name: "TPCC-StockLevel",
            phases: vec![vec![read_district], vec![read_order_lines, probe_stock]],
            abort_on_missing_read: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bionic_core::config::EngineConfig;
    use bionic_sim::SimTime;

    fn setup() -> (Engine, TpccGenerator) {
        let cfg = TpccConfig::small();
        let mut e = Engine::new(EngineConfig::software().with_agents(8));
        let (_, g) = load(&mut e, &cfg);
        (e, g)
    }

    #[test]
    fn load_populates_the_schema() {
        let (e, _) = setup();
        assert_eq!(e.row_count(0), 1, "warehouses");
        assert_eq!(e.row_count(1), 10, "districts");
        assert_eq!(e.row_count(2), 600, "customers");
        assert_eq!(e.row_count(7), 1000, "items");
        assert_eq!(e.row_count(8), 1000, "stock");
        assert_eq!(e.row_count(4), 300, "orders");
        let no = e.row_count(5);
        assert_eq!(no, 90, "30% of 300 orders undelivered");
        assert!(e.row_count(6) > 1000, "orderlines");
    }

    #[test]
    fn new_order_commits_and_grows_orders() {
        let (mut e, mut g) = setup();
        let before = e.row_count(4);
        let mut at = SimTime::ZERO;
        let mut committed = 0;
        for _ in 0..50 {
            let prog = g.new_order(0, 1);
            if e.submit(&prog, at).is_committed() {
                committed += 1;
            }
            at += SimTime::from_us(20.0);
        }
        assert!(committed >= 45, "~1% intentional aborts: {committed}");
        assert_eq!(e.row_count(4), before + committed);
    }

    #[test]
    fn new_order_rollback_rate_is_about_one_percent() {
        let (mut e, mut g) = setup();
        let mut at = SimTime::ZERO;
        let n = 1500;
        for _ in 0..n {
            let prog = g.new_order(0, 0);
            e.submit(&prog, at);
            at += SimTime::from_us(20.0);
        }
        let rate = e.stats.aborted as f64 / n as f64;
        assert!(rate > 0.001 && rate < 0.03, "abort rate={rate}");
    }

    #[test]
    fn payment_moves_money() {
        let (mut e, mut g) = setup();
        let prog = g.payment(0, 3);
        assert!(e.submit(&prog, SimTime::ZERO).is_committed());
        let w = e.read_row(0, 0).unwrap();
        let ytd = i64::from_le_bytes(w[8..16].try_into().unwrap());
        assert!(ytd > 0, "warehouse ytd={ytd}");
        assert_eq!(e.row_count(3), 1, "history row inserted");
    }

    #[test]
    fn delivery_drains_new_orders() {
        let (mut e, mut g) = setup();
        let before = e.row_count(5);
        let prog = g.delivery(0);
        assert!(e.submit(&prog, SimTime::ZERO).is_committed());
        assert_eq!(e.row_count(5), before - 10, "one per district");
    }

    #[test]
    fn stock_level_is_read_only_and_commits() {
        let (mut e, mut g) = setup();
        let prog = g.stock_level(0, 2);
        assert!(!prog
            .phases
            .iter()
            .flatten()
            .flat_map(|a| a.ops.iter())
            .any(bionic_core::ops::Op::is_write));
        assert!(e.submit(&prog, SimTime::ZERO).is_committed());
        // Read-only: nothing logged.
        assert_eq!(e.log().tail_lsn(), 0);
    }

    #[test]
    fn stock_level_is_index_bound() {
        use bionic_core::Category;
        let (mut e, mut g) = setup();
        let mut at = SimTime::ZERO;
        for d in 0..DISTRICTS {
            let prog = g.stock_level(0, d);
            e.submit(&prog, at);
            at += SimTime::from_us(100.0);
        }
        // §5.3: 40%+ of StockLevel time goes to index traversal.
        let frac = e.breakdown.fraction(Category::Btree);
        assert!(frac > 0.30, "btree fraction={frac}");
    }

    #[test]
    fn full_mix_runs_clean() {
        let (mut e, mut g) = setup();
        let mut at = SimTime::ZERO;
        for _ in 0..500 {
            let (_, prog) = g.next();
            e.submit(&prog, at);
            at += SimTime::from_us(50.0);
        }
        assert_eq!(e.stats.submitted, 500);
        let commit_rate = e.stats.committed as f64 / 500.0;
        assert!(commit_rate > 0.95, "commit rate={commit_rate}");
    }

    #[test]
    fn mix_matches_spec() {
        let (_, mut g) = setup();
        let mut counts = std::collections::HashMap::new();
        let n = 50_000;
        for _ in 0..n {
            *counts.entry(g.next_type()).or_insert(0u32) += 1;
        }
        let pct = |t: TpccTxn| 100.0 * counts[&t] as f64 / n as f64;
        assert!((pct(TpccTxn::NewOrder) - 45.0).abs() < 1.5);
        assert!((pct(TpccTxn::Payment) - 43.0).abs() < 1.5);
        assert!((pct(TpccTxn::StockLevel) - 4.0).abs() < 0.5);
    }

    #[test]
    fn nurand_skews_toward_a_hot_set() {
        let (_, mut g) = setup();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.pick_item()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().unwrap();
        let avg = 20_000 / 1000;
        assert!(*max > 2 * avg, "max={max} avg={avg}");
    }
}
