//! Arbiter conservation properties (the E13 acceptance invariant).
//!
//! Whatever traffic mix the hybrid engine throws at a shared path, the
//! arbiter must neither create nor lose bandwidth: every window's grants
//! stay within capacity and sum per-client to exactly the grand total,
//! and no request finishes faster than its uncontended wire time.
//!
//! `request` jumps over windows it has proven closed to a client; the
//! differential test below holds it, grant by grant, to [`PlainWalk`] — the
//! walk that tests every window from the arrival on, which is what shipped
//! before the jump existed and is kept here only as the reference.
//!
//! `request` also finds each window's contention verdict and its slot in
//! one ledger search, with the grants inline; [`TwoSearch`] is the booking
//! that shipped before — a `contended` range scan, then an `entry` lookup,
//! heap-allocated grants — and a second differential test holds the
//! arbiter to it, window count examined included.

use bionic_sim::arbiter::{Grant, SharedBandwidth};
use bionic_sim::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The arbiter's grant rule with no memory of closed windows: every request
/// tests every window from its arrival until its bytes are placed.
struct PlainWalk {
    bw: f64,
    window: SimTime,
    capacity: u64,
    weights: Vec<u64>,
    /// window index → (total fill, fill per client)
    windows: BTreeMap<u64, (u64, Vec<u64>)>,
    bytes: Vec<u64>,
    queued: Vec<SimTime>,
    wait_events: Vec<u64>,
    requests: u64,
    max_fill: u64,
}

impl PlainWalk {
    fn new(bw: f64, window: SimTime, weights: &[u64]) -> Self {
        let n = weights.len();
        PlainWalk {
            bw,
            window,
            capacity: (bw * window.as_secs()).round() as u64,
            weights: weights.to_vec(),
            windows: BTreeMap::new(),
            bytes: vec![0; n],
            queued: vec![SimTime::ZERO; n],
            wait_events: vec![0; n],
            requests: 0,
            max_fill: 0,
        }
    }

    fn request(&mut self, c: usize, arrive: SimTime, bytes: u64) -> Grant {
        self.requests += 1;
        let mut grant = Grant {
            done: arrive,
            queued: SimTime::ZERO,
        };
        if bytes == 0 {
            return grant;
        }
        let quota = (self.capacity * self.weights[c] / self.weights.iter().sum::<u64>()).max(1);
        let mut w = arrive.as_ps() / self.window.as_ps();
        let mut remaining = bytes;
        loop {
            let capped = self
                .windows
                .range(w.saturating_sub(2)..=w)
                .any(|(_, (total, per))| *total > per[c]);
            let (total, mine) = self.windows.get(&w).map_or((0, 0), |(t, per)| (*t, per[c]));
            let free = self.capacity - total;
            let allowed = if capped {
                free.min(quota.saturating_sub(mine))
            } else {
                free
            };
            let take = remaining.min(allowed);
            if take > 0 {
                let n = self.weights.len();
                let win = self.windows.entry(w).or_insert_with(|| (0, vec![0; n]));
                win.0 += take;
                win.1[c] += take;
                self.bytes[c] += take;
                self.max_fill = self.max_fill.max(win.0);
                remaining -= take;
            }
            if remaining == 0 {
                break;
            }
            w += 1;
        }
        let fill = self.windows[&w].0 as f64 / self.capacity as f64;
        let floor = arrive + SimTime::from_secs(bytes as f64 / self.bw);
        grant.done = (SimTime::from_ps(w * self.window.as_ps()) + self.window * fill).max(floor);
        grant.queued = grant.done - floor;
        self.queued[c] += grant.queued;
        self.wait_events[c] += u64::from(!grant.queued.is_zero());
        grant
    }

    fn mean_fill_frac(&self) -> f64 {
        let sum: u64 = self.windows.values().map(|(total, _)| total).sum();
        sum as f64 / (self.capacity as f64 * self.windows.len().max(1) as f64)
    }
}

/// The booking as it was before the one-search pass: the same closed-run
/// jumps, but each window tested costs a `contended` range scan plus an
/// `entry` search, and every window owns a heap vector of grants.
struct TwoSearch {
    bw: f64,
    window: SimTime,
    capacity: u64,
    weights: Vec<u64>,
    windows: BTreeMap<u64, (u64, Vec<u64>)>,
    closed: Vec<BTreeMap<u64, u64>>,
    examined: Vec<u64>,
}

impl TwoSearch {
    fn new(bw: f64, window: SimTime, weights: &[u64]) -> Self {
        TwoSearch {
            bw,
            window,
            capacity: (bw * window.as_secs()).round() as u64,
            weights: weights.to_vec(),
            windows: BTreeMap::new(),
            closed: vec![BTreeMap::new(); weights.len()],
            examined: vec![0; weights.len()],
        }
    }

    fn contended(&self, c: usize, w: u64) -> bool {
        self.windows
            .range(w.saturating_sub(2)..=w)
            .any(|(_, (total, per))| *total > per[c])
    }

    fn next_open(&self, c: usize, w: u64) -> u64 {
        match self.closed[c].range(..=w).next_back() {
            Some((_, &end)) if end > w => end,
            _ => w,
        }
    }

    fn close(&mut self, c: usize, w: u64) {
        let runs = &mut self.closed[c];
        let end = runs.remove(&(w + 1)).unwrap_or(w + 1);
        match runs.range_mut(..w).next_back() {
            Some((_, run_end)) if *run_end == w => *run_end = end,
            _ => {
                runs.insert(w, end);
            }
        }
    }

    fn request(&mut self, c: usize, arrive: SimTime, bytes: u64) -> Grant {
        if bytes == 0 {
            return Grant {
                done: arrive,
                queued: SimTime::ZERO,
            };
        }
        let quota = (self.capacity * self.weights[c] / self.weights.iter().sum::<u64>()).max(1);
        let mut w = self.next_open(c, arrive.as_ps() / self.window.as_ps());
        let mut remaining = bytes;
        let mut last_fill = 0;
        while remaining > 0 {
            self.examined[c] += 1;
            let capped = self.contended(c, w);
            let n = self.weights.len();
            let (total, per) = self.windows.entry(w).or_insert_with(|| (0, vec![0; n]));
            let free = self.capacity - *total;
            let allowed = if capped {
                free.min(quota.saturating_sub(per[c]))
            } else {
                free
            };
            let take = remaining.min(allowed);
            if take > 0 {
                *total += take;
                per[c] += take;
                remaining -= take;
                last_fill = *total;
            }
            if *total == self.capacity || (capped && per[c] >= quota) {
                self.close(c, w);
            }
            if remaining > 0 {
                w = self.next_open(c, w + 1);
            }
        }
        let drained = SimTime::from_ps(w * self.window.as_ps())
            + self.window * (last_fill as f64 / self.capacity as f64);
        let floor = arrive + SimTime::from_secs(bytes as f64 / self.bw);
        let done = drained.max(floor);
        Grant {
            done,
            queued: done - floor,
        }
    }

    fn mean_fill_frac(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.windows.values().map(|(total, _)| total).sum();
        sum as f64 / (self.capacity as f64 * self.windows.len() as f64)
    }
}

#[derive(Debug, Clone)]
struct Req {
    client: usize,
    gap_ns: u64,
    bytes: u64,
}

fn req(clients: usize) -> impl Strategy<Value = Req> {
    (0..clients, 0u64..50_000, 0u64..2_000_000).prop_map(|(client, gap_ns, bytes)| Req {
        client,
        gap_ns,
        bytes,
    })
}

/// The differential stream, `(client, gap_ns, rewind_ns, bytes)` per
/// request: the clock advances by `gap_ns` and the request is stamped
/// `rewind_ns` before it, so submission order is not arrival order.
fn stream(clients: usize) -> impl Strategy<Value = Vec<(usize, u64, u64, u64)>> {
    let one = (
        0..clients,
        0u64..50_000,
        prop_oneof![Just(0u64), Just(0u64), 0u64..200_000],
        prop_oneof![0u64..2_000_000, 0u64..4_096, Just(0u64)],
    );
    prop::collection::vec(one, 2..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closed_window_jumps_grant_exactly_what_the_plain_walk_grants(
        two in stream(2),
        three in stream(3),
        weights in (1u64..5, 1u64..5, 1u64..5),
        // 80 GB/s SG-DRAM (400 KB windows) and the 4 GB/s link (20 KB
        // windows, so a 2 MB request backs up a hundred of them).
        fast in any::<bool>(),
        // One booking at least a second ahead, placed anywhere in the
        // stream; up to 40 000 s, whose window index does not fit a `u32`.
        far in (0usize..120, 1_000_000u64..40_000_000_000, 1u64..2_000_000),
    ) {
        let bw = if fast { 80e9 } else { 4e9 };
        let window = SimTime::from_us(5.0);
        for (reqs, weights) in [
            (&two, vec![weights.0, weights.1]),
            (&three, vec![weights.0, weights.1, weights.2]),
        ] {
            let mut arb = SharedBandwidth::new(bw, window, &weights);
            let mut plain = PlainWalk::new(bw, window, &weights);
            let mut clock = SimTime::ZERO;
            for (i, &(client, gap_ns, rewind_ns, bytes)) in reqs.iter().enumerate() {
                clock += SimTime::from_ns(gap_ns as f64);
                let mut both = |c: usize, at: SimTime, b: u64| {
                    let (got, want) = (arb.request(c, at, b), plain.request(c, at, b));
                    (got.done, got.queued) == (want.done, want.queued)
                };
                if i == far.0 % reqs.len() {
                    let at = clock + SimTime::from_us(far.1 as f64);
                    prop_assert!(both(client, at, far.2), "far booking {i} at {at}");
                }
                let at = clock.saturating_sub(SimTime::from_ns(rewind_ns as f64));
                prop_assert!(both(client, at, bytes), "request {i}: client {client} at {at}, {bytes} B");
            }
            for c in 0..weights.len() {
                prop_assert_eq!(arb.client_bytes(c), plain.bytes[c]);
                prop_assert_eq!(arb.client_queued(c), plain.queued[c]);
                prop_assert_eq!(arb.client_wait_events(c), plain.wait_events[c]);
            }
            prop_assert_eq!(arb.total_bytes(), plain.bytes.iter().sum::<u64>());
            prop_assert_eq!(arb.requests(), plain.requests);
            prop_assert_eq!(
                arb.queued_total(),
                plain.queued.iter().fold(SimTime::ZERO, |a, &q| a + q)
            );
            prop_assert_eq!(arb.max_fill_frac(), plain.max_fill as f64 / plain.capacity as f64);
            prop_assert_eq!(arb.mean_fill_frac(), plain.mean_fill_frac());
            // The reference never overbooks (its `capacity - total` would
            // underflow first), so agreement here means `Ok`.
            prop_assert_eq!(arb.check_conservation(), Ok(()));
        }
    }

    #[test]
    fn one_search_booking_matches_the_two_search_booking(
        one in stream(1),
        two in stream(2),
        three in stream(3),
        weights in (1u64..5, 1u64..5, 1u64..5),
        fast in any::<bool>(),
    ) {
        let bw = if fast { 80e9 } else { 4e9 };
        let window = SimTime::from_us(5.0);
        for (reqs, weights) in [
            (&one, vec![weights.0]),
            (&two, vec![weights.0, weights.1]),
            (&three, vec![weights.0, weights.1, weights.2]),
        ] {
            let mut arb = SharedBandwidth::new(bw, window, &weights);
            let mut old = TwoSearch::new(bw, window, &weights);
            let mut clock = SimTime::ZERO;
            for (i, &(client, gap_ns, rewind_ns, bytes)) in reqs.iter().enumerate() {
                clock += SimTime::from_ns(gap_ns as f64);
                let at = clock.saturating_sub(SimTime::from_ns(rewind_ns as f64));
                let (got, want) = (arb.request(client, at, bytes), old.request(client, at, bytes));
                prop_assert_eq!(
                    (got.done, got.queued),
                    (want.done, want.queued),
                    "request {}: client {} at {}, {} B", i, client, at, bytes
                );
                prop_assert_eq!(arb.mean_fill_frac(), old.mean_fill_frac());
            }
            for (c, &examined) in old.examined.iter().enumerate() {
                prop_assert_eq!(arb.client_windows_examined(c), examined);
                let granted: u64 = old.windows.values().map(|(_, per)| per[c]).sum();
                prop_assert_eq!(arb.client_bytes(c), granted);
            }
            prop_assert_eq!(arb.check_conservation(), Ok(()));
        }
    }

    #[test]
    fn bandwidth_is_conserved_across_any_traffic_mix(
        reqs in prop::collection::vec(req(3), 1..120),
        w1 in 1u64..5,
        w2 in 1u64..5,
        w3 in 1u64..5,
    ) {
        let mut arb = SharedBandwidth::new(80e9, SimTime::from_us(5.0), &[w1, w2, w3]);
        let mut at = SimTime::ZERO;
        let mut offered = [0u64; 3];
        for r in &reqs {
            at += SimTime::from_ns(r.gap_ns as f64);
            let grant = arb.request(r.client, at, r.bytes);
            offered[r.client] += r.bytes;
            // No request beats the speed of the wire.
            prop_assert!(grant.done >= at + arb.wire_time(r.bytes));
            prop_assert!(grant.queued >= SimTime::ZERO);
        }
        // Every offered byte was granted somewhere, to the right client.
        for (c, bytes) in offered.iter().enumerate() {
            prop_assert_eq!(arb.client_bytes(c), *bytes);
        }
        prop_assert_eq!(arb.total_bytes(), offered.iter().sum::<u64>());
        // No window overbooked, ledgers agree with the window sums.
        prop_assert!(arb.max_fill_frac() <= 1.0 + 1e-12);
        if let Err(e) = arb.check_conservation() {
            return Err(TestCaseError::fail(e));
        }
    }

    #[test]
    fn out_of_order_submission_gives_order_independent_ledgers(
        reqs in prop::collection::vec(req(2), 1..60),
    ) {
        // Submit the same timestamped requests in two different orders:
        // per-window grants may differ (arbitration is first-come within a
        // window), but conservation must hold in both and total bytes per
        // client must match.
        let build = |order: &[Req]| {
            let arb = SharedBandwidth::two_client(80e9, SimTime::from_us(5.0));
            let mut at = SimTime::ZERO;
            let mut stamped: Vec<(usize, SimTime, u64)> = Vec::new();
            for r in order {
                at += SimTime::from_ns(r.gap_ns as f64);
                stamped.push((r.client, at, r.bytes));
            }
            (arb.clone(), stamped)
        };
        let (proto, stamped) = build(&reqs);
        let mut fwd = proto.clone();
        for (c, at, b) in &stamped {
            fwd.request(*c, *at, *b);
        }
        let mut rev = proto;
        for (c, at, b) in stamped.iter().rev() {
            rev.request(*c, *at, *b);
        }
        for arb in [&fwd, &rev] {
            if let Err(e) = arb.check_conservation() {
                return Err(TestCaseError::fail(e));
            }
        }
        prop_assert_eq!(fwd.client_bytes(0), rev.client_bytes(0));
        prop_assert_eq!(fwd.client_bytes(1), rev.client_bytes(1));
        prop_assert_eq!(fwd.total_bytes(), rev.total_bytes());
    }
}
