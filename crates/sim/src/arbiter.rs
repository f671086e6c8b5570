//! Shared-bandwidth arbitration between concurrent engine clients (§6).
//!
//! Until the hybrid workload existed, every consumer of SG-DRAM and the
//! PCIe bridge priced its traffic independently: the scanner computed an
//! analytic stream time, the probe engine charged accesses, and nobody saw
//! anybody else's queue. Figure 4's interesting behaviour is exactly the
//! opposite — transactions and analytics *competing* for the same 80 GB/s
//! of scatter-gather memory and the same 4 GB/s bridge.
//!
//! [`SharedBandwidth`] is a deterministic weighted round-robin arbiter
//! modeled as a *grant ledger*: time is cut into fixed windows of length
//! `W`; each window can move at most `capacity = bw × W` bytes; a request
//! books its bytes into consecutive windows starting at its arrival. When
//! other clients have recent grants the client is capped at its weighted
//! share of each window (round-robin under contention); when alone it may
//! fill windows completely (work conservation). Completion time is the
//! drain point of the last window touched, so a small transactional
//! request landing in a window already loaded with scan traffic observes
//! that traffic as queueing delay — and vice versa.
//!
//! Because grants are booked by *arrival time*, not submission order, the
//! ledger tolerates the engine's functional-order submission the same way
//! [`crate::server::FluidQueue`] does: a far-future booking never
//! penalizes an earlier-timestamped request, which lands in its own
//! (earlier) windows.
//!
//! Grants only ever grow, so a window that has nothing left for a client —
//! it is full, or the client is share-capped there and has used its quota —
//! never will again. Each client keeps those *closed* windows as runs, and
//! [`SharedBandwidth::request`] jumps over a run instead of re-testing the
//! backlog in front of it window by window (DESIGN.md, "Shared-bandwidth
//! contention", has the argument for why the jump is exact).
//!
//! Two independently maintained ledgers back the conservation invariant
//! the E13 property test checks: per-window fills never exceed capacity,
//! and the per-client byte totals sum exactly to the grand total.

use crate::time::{Rate, SimTime};
use std::collections::BTreeMap;

/// The two contending clients of the hybrid engine (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwClient {
    /// The DORA transaction engine: probes, log writes, overlay reads.
    Oltp,
    /// The enhanced scanner streaming analytics over the overlay.
    Olap,
}

impl BwClient {
    /// Client slot in an arbiter built with [`SharedBandwidth::two_client`].
    pub fn index(self) -> usize {
        match self {
            BwClient::Oltp => 0,
            BwClient::Olap => 1,
        }
    }

    /// Stable label for metrics and CSV columns.
    pub fn label(self) -> &'static str {
        match self {
            BwClient::Oltp => "oltp",
            BwClient::Olap => "olap",
        }
    }
}

/// How many windows back a rival's grant still counts as "active" when
/// deciding whether a client is contended (and therefore share-capped).
const ACTIVITY_HORIZON: u64 = 2;

/// The most clients one arbiter serves: the hybrid engine's two, plus
/// room for a third in the property tests. Sizes each window's grants
/// inline, so a new window allocates nothing.
const MAX_CLIENTS: usize = 3;

/// One arbitration window's fill state.
#[derive(Debug, Clone, Default)]
struct Window {
    total: u64,
    /// Grants per client; slots past the arbiter's client count stay 0.
    per_client: [u64; MAX_CLIENTS],
}

/// Walk `windows`, newest first, from window `w` back to the activity
/// horizon: is a rival of `client` granted there (so `client` is
/// share-capped), and window `w` itself if it exists.
fn walk_back<'a>(
    windows: impl Iterator<Item = (&'a u64, &'a mut Window)>,
    client: usize,
    w: u64,
) -> (bool, Option<&'a mut Window>) {
    let horizon = w.saturating_sub(ACTIVITY_HORIZON);
    let mut capped = false;
    let mut slot = None;
    for (&idx, win) in windows {
        if idx < horizon {
            break;
        }
        capped |= win.total > win.per_client[client];
        if idx == w {
            slot = Some(win);
        }
    }
    (capped, slot)
}

/// Outcome of one bandwidth request.
#[derive(Debug, Clone, Copy)]
pub struct Grant {
    /// When the last byte drains.
    pub done: SimTime,
    /// Delay beyond the uncontended wire time `bytes / bw` — what the
    /// client lost to arbitration.
    pub queued: SimTime,
}

/// A deterministic windowed weighted-share bandwidth arbiter.
#[derive(Debug, Clone)]
pub struct SharedBandwidth {
    bandwidth: Rate,
    window: SimTime,
    capacity: u64,
    /// Per client, its reserved share of a window under contention,
    /// `capacity × weight / Σweights`, never zero.
    quotas: Vec<u64>,
    windows: BTreeMap<u64, Window>,
    /// Ledger A: bytes granted per client, maintained at grant time.
    per_client_bytes: Vec<u64>,
    /// Ledger B: grand-total bytes, maintained independently of ledger A
    /// so the conservation check compares two bookkeeping paths.
    total_bytes: u64,
    max_fill: u64,
    requests: u64,
    queued_total: SimTime,
    /// Per-client arbitration delay totals (`queued_total` is their sum,
    /// maintained independently as a third conservation check).
    per_client_queued: Vec<SimTime>,
    /// Per-client count of requests that observed a nonzero queueing
    /// delay — the "how often did backpressure bite" rate the windowed
    /// snapshots report.
    per_client_wait_events: Vec<u64>,
    /// Per client, the windows that can never grant it another byte, as
    /// maximal runs `start → end` (half-open). Sized by windows touched: a
    /// run only ever covers windows present in `windows`.
    closed: Vec<BTreeMap<u64, u64>>,
    per_client_examined: Vec<u64>,
}

impl SharedBandwidth {
    /// An arbiter over a path of `bytes_per_sec`, arbitrating in windows of
    /// `window`, with one weight per client (grant shares under contention
    /// are proportional to weight).
    pub fn new(bytes_per_sec: f64, window: SimTime, weights: &[u64]) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(!window.is_zero(), "window must be positive");
        assert!(!weights.is_empty(), "need at least one client");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        assert!(
            weights.len() <= MAX_CLIENTS,
            "at most {MAX_CLIENTS} clients per arbiter"
        );
        let capacity = (bytes_per_sec * window.as_secs()).round() as u64;
        assert!(capacity > 0, "window too short for this bandwidth");
        SharedBandwidth {
            bandwidth: Rate::per_sec(bytes_per_sec),
            window,
            capacity,
            quotas: weights
                .iter()
                .map(|w| (capacity * w / weights.iter().sum::<u64>()).max(1))
                .collect(),
            windows: BTreeMap::new(),
            per_client_bytes: vec![0; weights.len()],
            total_bytes: 0,
            max_fill: 0,
            requests: 0,
            queued_total: SimTime::ZERO,
            per_client_queued: vec![SimTime::ZERO; weights.len()],
            per_client_wait_events: vec![0; weights.len()],
            closed: vec![BTreeMap::new(); weights.len()],
            per_client_examined: vec![0; weights.len()],
        }
    }

    /// An equal-weight OLTP/OLAP arbiter, indexed by [`BwClient::index`].
    pub fn two_client(bytes_per_sec: f64, window: SimTime) -> Self {
        Self::new(bytes_per_sec, window, &[1, 1])
    }

    /// The arbitration window length.
    pub fn window(&self) -> SimTime {
        self.window
    }

    fn window_index(&self, at: SimTime) -> u64 {
        at.as_ps() / self.window.as_ps()
    }

    fn window_start(&self, idx: u64) -> SimTime {
        SimTime::from_ps(idx * self.window.as_ps())
    }

    /// The first window at or after `w` not known closed to `client`.
    fn next_open(&self, client: usize, w: u64) -> u64 {
        match self.closed[client].range(..=w).next_back() {
            Some((_, &end)) if end > w => end,
            _ => w,
        }
    }

    /// Record that window `w` (open until now) will never grant `client`
    /// another byte, merging it with the runs it touches.
    fn close(&mut self, client: usize, w: u64) {
        let runs = &mut self.closed[client];
        let end = runs.remove(&(w + 1)).unwrap_or(w + 1);
        match runs.range_mut(..w).next_back() {
            Some((_, run_end)) if *run_end == w => *run_end = end,
            _ => {
                runs.insert(w, end);
            }
        }
    }

    /// Uncontended wire time for `bytes`.
    #[inline]
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        self.bandwidth.time(bytes)
    }

    /// Book `bytes` for `client` arriving at `arrive`. Returns when the
    /// last byte drains and how much of that was arbitration delay.
    pub fn request(&mut self, client: usize, arrive: SimTime, bytes: u64) -> Grant {
        assert!(client < self.quotas.len(), "unknown client {client}");
        self.requests += 1;
        if bytes == 0 {
            return Grant {
                done: arrive,
                queued: SimTime::ZERO,
            };
        }
        let quota = self.quotas[client];
        let mut w = self.next_open(client, self.window_index(arrive));
        let mut remaining = bytes;
        let mut last_fill = 0u64;
        while remaining > 0 {
            self.per_client_examined[client] += 1;
            // One walk back from `w` answers both questions: is any rival
            // granted in `[w - ACTIVITY_HORIZON, w]` (then `client` is
            // share-capped), and does window `w` exist yet. At the ledger's
            // frontier — no window past `w`, the common case for arrivals in
            // time order — the walk starts at the map's last entry and
            // searches no key at all; otherwise it costs one search for `w`.
            // DESIGN.md "Why the walk has two starts" has the measurements.
            let at_frontier = self
                .windows
                .last_key_value()
                .is_none_or(|(&last, _)| last <= w);
            let (capped, slot) = if at_frontier {
                walk_back(self.windows.iter_mut().rev(), client, w)
            } else {
                walk_back(self.windows.range_mut(..=w).rev(), client, w)
            };
            let win = match slot {
                Some(win) => win,
                None => self.windows.entry(w).or_default(),
            };
            let free = self.capacity - win.total;
            let allowed = if capped {
                free.min(quota.saturating_sub(win.per_client[client]))
            } else {
                free
            };
            let take = remaining.min(allowed);
            if take > 0 {
                win.total += take;
                win.per_client[client] += take;
                self.per_client_bytes[client] += take;
                self.total_bytes += take;
                remaining -= take;
                last_fill = win.total;
                self.max_fill = self.max_fill.max(win.total);
            }
            // Closed for good: `total` only grows, and so does every
            // rival's grant in `[w - ACTIVITY_HORIZON, w]`, so neither a
            // full window nor a capped client's spent quota ever reopens.
            // (A skipped window loses nothing: an entry is only created
            // together with a non-zero grant.)
            if win.total == self.capacity || (capped && win.per_client[client] >= quota) {
                self.close(client, w);
            }
            if remaining > 0 {
                w = self.next_open(client, w + 1);
            }
        }
        // Drain point of the last window touched: the window's scheduled
        // traffic (ours included) empties at `fill/capacity` through it.
        let drained =
            self.window_start(w) + self.window * (last_fill as f64 / self.capacity as f64);
        let floor = arrive + self.wire_time(bytes);
        let done = drained.max(floor);
        let queued = done - floor;
        self.queued_total += queued;
        self.per_client_queued[client] += queued;
        if !queued.is_zero() {
            self.per_client_wait_events[client] += 1;
        }
        Grant { done, queued }
    }

    /// Total bytes granted to one client.
    pub fn client_bytes(&self, client: usize) -> u64 {
        self.per_client_bytes[client]
    }

    /// Total bytes granted across all clients (independent ledger).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Requests arbitrated so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Windows tested for a grant on behalf of one client — the arbiter's
    /// own work, which must not grow with the backlog a request lands
    /// behind.
    pub fn client_windows_examined(&self, client: usize) -> u64 {
        self.per_client_examined[client]
    }

    /// Sum of all arbitration delays handed out.
    pub fn queued_total(&self) -> SimTime {
        self.queued_total
    }

    /// Arbitration delay handed to one client.
    pub fn client_queued(&self, client: usize) -> SimTime {
        self.per_client_queued[client]
    }

    /// Number of one client's requests that observed a nonzero queueing
    /// delay.
    pub fn client_wait_events(&self, client: usize) -> u64 {
        self.per_client_wait_events[client]
    }

    /// Peak fill of any window as a fraction of capacity (≤ 1 when
    /// conservation holds).
    pub fn max_fill_frac(&self) -> f64 {
        self.max_fill as f64 / self.capacity as f64
    }

    /// Mean fill across every window touched, as a fraction of capacity —
    /// the arbiter's occupancy over its active lifetime.
    pub fn mean_fill_frac(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.windows.values().map(|w| w.total).sum();
        sum as f64 / (self.capacity as f64 * self.windows.len() as f64)
    }

    /// Verify the conservation invariant: every window's fill is within
    /// capacity and equals the sum of its per-client grants, and the
    /// independently maintained per-client ledgers sum exactly to the
    /// grand total. Returns a description of the first violation.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut recomputed = vec![0u64; self.quotas.len()];
        for (idx, win) in &self.windows {
            if win.total > self.capacity {
                return Err(format!(
                    "window {idx}: granted {} > capacity {}",
                    win.total, self.capacity
                ));
            }
            let sum: u64 = win.per_client.iter().sum();
            if sum != win.total {
                return Err(format!(
                    "window {idx}: per-client sum {sum} != total {}",
                    win.total
                ));
            }
            for (c, b) in win.per_client[..self.quotas.len()].iter().enumerate() {
                recomputed[c] += b;
            }
        }
        if recomputed != self.per_client_bytes {
            return Err(format!(
                "per-client ledger {:?} disagrees with window sums {recomputed:?}",
                self.per_client_bytes
            ));
        }
        let client_sum: u64 = self.per_client_bytes.iter().sum();
        if client_sum != self.total_bytes {
            return Err(format!(
                "client ledgers sum to {client_sum}, grand total says {}",
                self.total_bytes
            ));
        }
        let queued_sum: SimTime = self
            .per_client_queued
            .iter()
            .fold(SimTime::ZERO, |acc, &q| acc + q);
        if queued_sum != self.queued_total {
            return Err(format!(
                "per-client queued delays sum to {queued_sum}, total says {}",
                self.queued_total
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg() -> SharedBandwidth {
        // 80 GB/s arbitrated in 5 us windows: 400 KB per window.
        SharedBandwidth::two_client(80e9, SimTime::from_us(5.0))
    }

    #[test]
    fn solo_client_streams_at_full_bandwidth() {
        let mut a = sg();
        // 8 MB solo: ~100 us of wire time, window quantization adds < 1 window.
        let g = a.request(BwClient::Olap.index(), SimTime::ZERO, 8 << 20);
        let wire = a.wire_time(8 << 20);
        assert!(g.done < wire + a.window(), "done={} wire={wire}", g.done);
        assert!(g.queued < a.window());
        a.check_conservation().unwrap();
    }

    #[test]
    fn zero_byte_request_is_free() {
        let mut a = sg();
        let g = a.request(0, SimTime::from_us(3.0), 0);
        assert_eq!(g.done, SimTime::from_us(3.0));
        assert_eq!(g.queued, SimTime::ZERO);
    }

    #[test]
    fn rival_traffic_becomes_queueing_delay() {
        let mut a = sg();
        // OLTP establishes activity, then a scan loads the next window.
        a.request(BwClient::Oltp.index(), SimTime::ZERO, 64);
        a.request(BwClient::Olap.index(), SimTime::from_us(5.1), 1 << 20);
        // A small transactional read landing inside the scan's window sees
        // the scan's fill as delay; the same read far past it does not.
        let hot = a.request(BwClient::Oltp.index(), SimTime::from_us(5.2), 64);
        assert!(
            hot.queued > SimTime::from_us(1.0),
            "queued={} should reflect the scan fill",
            hot.queued
        );
        let cold = a.request(BwClient::Oltp.index(), SimTime::from_ms(1.0), 64);
        assert!(cold.queued < SimTime::from_ns(10.0), "cold={}", cold.queued);
        a.check_conservation().unwrap();
    }

    #[test]
    fn contended_client_is_capped_at_its_share() {
        let mut a = sg();
        // OLTP stays active across the scan's whole span (as a running
        // transaction stream does), so the scan is capped at half of every
        // window and takes ~2x the solo wire time.
        let mut at = SimTime::ZERO;
        for _ in 0..80 {
            a.request(BwClient::Oltp.index(), at, 64);
            at += SimTime::from_us(5.0);
        }
        let g = a.request(BwClient::Olap.index(), SimTime::from_ns(100.0), 8 << 20);
        let wire = a.wire_time(8 << 20);
        assert!(
            g.done.as_secs() > 1.8 * wire.as_secs(),
            "done={} wire={wire}",
            g.done
        );
        a.check_conservation().unwrap();
    }

    #[test]
    fn out_of_order_arrivals_do_not_see_phantom_backlog() {
        let mut a = sg();
        // A far-future booking must not delay an earlier-timestamped one.
        a.request(BwClient::Olap.index(), SimTime::from_ms(10.0), 4 << 20);
        let g = a.request(BwClient::Oltp.index(), SimTime::from_us(1.0), 64);
        assert!(g.queued < SimTime::from_ns(10.0), "queued={}", g.queued);
        a.check_conservation().unwrap();
    }

    #[test]
    fn windows_never_exceed_capacity_under_pressure() {
        let mut a = sg();
        let mut at = SimTime::ZERO;
        for i in 0..200u64 {
            let (client, bytes) = if i % 3 == 0 {
                (BwClient::Olap.index(), 300_000)
            } else {
                (BwClient::Oltp.index(), 512)
            };
            a.request(client, at, bytes);
            at += SimTime::from_us(1.7);
        }
        assert!(a.max_fill_frac() <= 1.0 + 1e-12);
        assert_eq!(
            a.client_bytes(0) + a.client_bytes(1),
            a.total_bytes(),
            "ledgers must agree"
        );
        a.check_conservation().unwrap();
    }

    #[test]
    fn per_client_wait_accounting_matches_grants() {
        let mut a = sg();
        // A scan loads a window, then OLTP lands inside it and waits.
        a.request(BwClient::Oltp.index(), SimTime::ZERO, 64);
        a.request(BwClient::Olap.index(), SimTime::from_us(5.1), 1 << 20);
        let hot = a.request(BwClient::Oltp.index(), SimTime::from_us(5.2), 64);
        assert!(!hot.queued.is_zero());
        assert_eq!(a.client_wait_events(BwClient::Oltp.index()), 1);
        assert_eq!(
            a.client_queued(BwClient::Oltp.index()) + a.client_queued(BwClient::Olap.index()),
            a.queued_total(),
            "per-client queued delays must sum to the total"
        );
        a.check_conservation().unwrap();
    }

    #[test]
    fn a_growing_backlog_does_not_grow_the_work_per_request() {
        // E13's regime: a transaction stream in every window keeps the scan
        // share-capped at half of SG-DRAM while it offers three quarters, so
        // each scan queues behind a backlog that lengthens for the whole
        // run. The windows one scan tests must depend on its size (1.6 MB at
        // a 200 KB quota: 8), not on that backlog.
        let per_scan = |scans: u64| {
            let mut a = sg();
            for w in 0..scans * 8 {
                a.request(BwClient::Oltp.index(), SimTime::from_us(5.0) * w, 256);
            }
            let period = SimTime::from_secs(1.6e6 / (0.75 * 80e9));
            for i in 0..scans {
                a.request(BwClient::Olap.index(), period * i, 1_600_000);
            }
            a.check_conservation().unwrap();
            a.client_windows_examined(BwClient::Olap.index()) as f64 / scans as f64
        };
        let (short, long) = (per_scan(150), per_scan(750));
        assert!(short < 12.0, "short run: {short} windows per scan");
        assert!(
            (long / short - 1.0).abs() < 0.1,
            "windows examined per scan: {short} over 150 scans, {long} over 750"
        );
    }

    #[test]
    fn weights_skew_the_contended_share() {
        let mut fair = SharedBandwidth::new(80e9, SimTime::from_us(5.0), &[1, 1]);
        let mut skewed = SharedBandwidth::new(80e9, SimTime::from_us(5.0), &[1, 3]);
        for a in [&mut fair, &mut skewed] {
            a.request(0, SimTime::ZERO, 64);
        }
        let f = fair.request(1, SimTime::from_ns(50.0), 8 << 20);
        let s = skewed.request(1, SimTime::from_ns(50.0), 8 << 20);
        assert!(s.done < f.done, "3/4 share must beat 1/2 share");
    }
}
