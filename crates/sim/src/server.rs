//! Queueing-theoretic building blocks: FIFO servers and pipelined units.
//!
//! These are *analytic* resources: instead of scheduling internal events,
//! each keeps just enough state (when it next frees up) to answer "if a
//! request arrives at time t, when does it start and finish?" — which is all
//! the engine needs, and keeps the event loop small.

use crate::time::SimTime;

/// A single FIFO server: one request in service at a time.
///
/// Models serialization points — a latch, a log-buffer arbiter, a disk arm.
#[derive(Debug, Clone, Default)]
pub struct Server {
    free_at: SimTime,
    busy_total: SimTime,
    served: u64,
}

impl Server {
    /// An idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a request arriving at `arrive` needing `service` time.
    /// Returns `(start, completion)`.
    pub fn submit(&mut self, arrive: SimTime, service: SimTime) -> (SimTime, SimTime) {
        let start = arrive.max(self.free_at);
        let done = start + service;
        self.free_at = done;
        self.busy_total += service;
        self.served += 1;
        (start, done)
    }

    /// When the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent serving requests.
    pub fn busy_time(&self) -> SimTime {
        self.busy_total
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A contended resource modeled by *windowed utilization* instead of a FIFO
/// timeline — for callers that submit work in functional order rather than
/// time order.
///
/// A [`Server`] fed out-of-order arrivals converts submission jitter into
/// phantom backlog: one far-future submission ratchets `free_at`, and every
/// earlier-timestamped request then queues behind it. `FluidQueue` instead
/// integrates offered service time over a sliding window and returns an
/// M/D/c-style queueing delay `service/c × ρ/(2(1−ρ))` on each submission.
/// It is deterministic, stable under out-of-order arrival, and saturates
/// smoothly (ρ is clamped so delays stay finite under overload).
///
/// ```
/// use bionic_sim::server::FluidQueue;
/// use bionic_sim::time::SimTime;
///
/// let mut latch = FluidQueue::latch();
/// // An idle latch adds (almost) no delay...
/// let d = latch.delay(SimTime::from_us(10.0), SimTime::from_ns(70.0));
/// assert!(d.as_ns() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct FluidQueue {
    servers: u64,
    window: SimTime,
    window_start: SimTime,
    busy: SimTime,
    total_busy: SimTime,
    submissions: u64,
}

/// Utilization clamp for [`FluidQueue`].
const RHO_MAX: f64 = 0.97;

impl FluidQueue {
    /// A fluid queue with `servers` parallel servers and the given
    /// utilization-measurement window.
    pub fn new(servers: usize, window: SimTime) -> Self {
        assert!(servers >= 1);
        FluidQueue {
            servers: servers as u64,
            window,
            window_start: SimTime::ZERO,
            busy: SimTime::ZERO,
            total_busy: SimTime::ZERO,
            submissions: 0,
        }
    }

    /// A single-server fluid queue with a 1 ms window (latch modeling).
    pub fn latch() -> Self {
        Self::new(1, SimTime::from_ms(1.0))
    }

    /// Submit `service` of work arriving at `arrive`; returns the modeled
    /// queueing delay (service time not included).
    pub fn delay(&mut self, arrive: SimTime, service: SimTime) -> SimTime {
        if arrive > self.window_start + self.window {
            self.window_start = arrive;
            self.busy = SimTime::ZERO;
        }
        self.total_busy += service;
        self.submissions += 1;
        // Utilization from work offered by OTHERS in the window: a lone
        // request on an idle resource must see no queueing.
        let span = arrive
            .saturating_sub(self.window_start)
            .max(service)
            .as_secs();
        let rho = (self.busy.as_secs() / (span * self.servers as f64)).min(RHO_MAX);
        self.busy += service;
        (service / self.servers) * (rho / (2.0 * (1.0 - rho)))
    }

    /// Current-window utilization estimate as of `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.saturating_sub(self.window_start);
        if span.is_zero() {
            0.0
        } else {
            (self.busy.as_secs() / (span.as_secs() * self.servers as f64)).min(1.0)
        }
    }

    /// Total service time ever offered.
    pub fn total_busy(&self) -> SimTime {
        self.total_busy
    }

    /// Number of submissions.
    pub fn submissions(&self) -> u64 {
        self.submissions
    }
}

/// A pipelined unit with bounded concurrency.
///
/// Each request occupies the unit for `latency`, new requests may be issued
/// every `initiation_interval`, and at most `depth` requests are in flight.
/// With `depth ≥ latency / initiation_interval` the unit streams at full
/// rate — this is exactly the Little's-law argument of §5.3: a tree-probe
/// engine against 400 ns SG-DRAM saturates with "only perhaps a dozen
/// outstanding requests".
#[derive(Debug, Clone)]
pub struct PipelinedUnit {
    latency: SimTime,
    initiation_interval: SimTime,
    depth: usize,
    /// Completion times of the most recent `depth` requests (ring buffer).
    inflight: Vec<SimTime>,
    head: usize,
    last_issue: SimTime,
    issued: u64,
}

impl PipelinedUnit {
    /// Create a unit. `depth` must be at least 1.
    pub fn new(latency: SimTime, initiation_interval: SimTime, depth: usize) -> Self {
        assert!(depth >= 1, "pipeline depth must be >= 1");
        PipelinedUnit {
            latency,
            initiation_interval,
            depth,
            inflight: vec![SimTime::ZERO; depth],
            head: 0,
            last_issue: SimTime::ZERO,
            issued: 0,
        }
    }

    /// Per-request latency.
    pub fn latency(&self) -> SimTime {
        self.latency
    }

    /// Maximum in-flight requests.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Submit a request arriving at `arrive`; returns its completion time.
    pub fn submit(&mut self, arrive: SimTime) -> SimTime {
        // The slot at `head` holds the completion time of the request issued
        // `depth` requests ago: we cannot issue until it has drained.
        let slot_free = self.inflight[self.head];
        let mut issue = arrive.max(slot_free);
        if self.issued > 0 {
            issue = issue.max(self.last_issue + self.initiation_interval);
        }
        let done = issue + self.latency;
        self.inflight[self.head] = done;
        self.head = (self.head + 1) % self.depth;
        self.last_issue = issue;
        self.issued += 1;
        done
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Steady-state throughput limit in requests per second.
    pub fn peak_rate_per_sec(&self) -> f64 {
        let per_req = self
            .initiation_interval
            .max(SimTime::from_ps(self.latency.as_ps() / self.depth as u64));
        if per_req.is_zero() {
            f64::INFINITY
        } else {
            1.0 / per_req.as_secs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_idle_starts_immediately() {
        let mut s = Server::new();
        let (start, done) = s.submit(SimTime::from_ns(10.0), SimTime::from_ns(5.0));
        assert_eq!(start.as_ns(), 10.0);
        assert_eq!(done.as_ns(), 15.0);
    }

    #[test]
    fn server_queues_back_to_back() {
        let mut s = Server::new();
        s.submit(SimTime::ZERO, SimTime::from_ns(10.0));
        // Arrives while busy: waits until 10ns.
        let (start, done) = s.submit(SimTime::from_ns(2.0), SimTime::from_ns(10.0));
        assert_eq!(start.as_ns(), 10.0);
        assert_eq!(done.as_ns(), 20.0);
        assert_eq!(s.served(), 2);
        assert_eq!(s.busy_time().as_ns(), 20.0);
    }

    #[test]
    fn fluid_queue_idle_has_negligible_delay() {
        let mut q = FluidQueue::latch();
        // Sparse arrivals: utilization ~0, delay ~0.
        let mut at = SimTime::ZERO;
        for _ in 0..100 {
            let d = q.delay(at, SimTime::from_ns(70.0));
            assert!(d.as_ns() < 10.0, "idle delay={d}");
            at += SimTime::from_us(10.0);
        }
    }

    #[test]
    fn fluid_queue_delay_grows_with_load() {
        let service = SimTime::from_ns(70.0);
        let measure = |inter_ns: f64| {
            let mut q = FluidQueue::latch();
            let mut at = SimTime::ZERO;
            let mut total = SimTime::ZERO;
            for _ in 0..10_000 {
                total += q.delay(at, service);
                at += SimTime::from_ns(inter_ns);
            }
            total.as_ns() / 10_000.0
        };
        let light = measure(700.0); // 10% load
        let heavy = measure(80.0); // ~88% load
        let overload = measure(35.0); // 2x overload, clamped
        assert!(light < 10.0, "light={light}");
        assert!(heavy > 5.0 * light.max(1.0), "heavy={heavy} light={light}");
        assert!(overload > heavy, "overload={overload}");
        // Clamp keeps overload finite: delay <= service * 0.97/(2*0.03).
        assert!(overload < 70.0 * 17.0);
    }

    #[test]
    fn fluid_queue_tolerates_out_of_order_arrivals() {
        let mut q = FluidQueue::latch();
        let service = SimTime::from_ns(70.0);
        // A far-future submission must not penalize earlier ones.
        q.delay(SimTime::from_ms(0.9), service);
        let d = q.delay(SimTime::from_us(1.0), service);
        assert!(d.as_ns() < 100.0, "d={d}");
    }

    #[test]
    fn fluid_queue_multi_server_scales() {
        let service = SimTime::from_us(1.0);
        let run = |servers: usize| {
            let mut q = FluidQueue::new(servers, SimTime::from_ms(1.0));
            let mut at = SimTime::ZERO;
            let mut total = SimTime::ZERO;
            for _ in 0..5_000 {
                total += q.delay(at, service);
                at += SimTime::from_ns(1_300.0); // ~77% of 1 server
            }
            total.as_us() / 5_000.0
        };
        assert!(run(4) < run(1) / 3.0);
    }

    #[test]
    fn pipeline_depth_one_is_a_serial_server() {
        let lat = SimTime::from_ns(400.0);
        let mut u = PipelinedUnit::new(lat, SimTime::from_ns(1.0), 1);
        let d1 = u.submit(SimTime::ZERO);
        let d2 = u.submit(SimTime::ZERO);
        assert_eq!(d1.as_ns(), 400.0);
        assert_eq!(d2.as_ns(), 800.0);
    }

    #[test]
    fn deep_pipeline_overlaps_latency() {
        // 400ns latency, 5ns initiation, depth 80 (= latency/ii, enough to
        // stream): 100 back-to-back requests take 400 + 99*5 ns, not 100*400.
        let mut u = PipelinedUnit::new(SimTime::from_ns(400.0), SimTime::from_ns(5.0), 80);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = u.submit(SimTime::ZERO);
        }
        assert_eq!(last.as_ns(), 400.0 + 99.0 * 5.0);
    }

    #[test]
    fn littles_law_saturation_point() {
        // Little's law: to stream at 1/ii with latency L you need depth
        // >= L/ii. With 400ns latency and 40ns initiation, depth 10 streams,
        // depth 5 halves throughput.
        let lat = SimTime::from_ns(400.0);
        let ii = SimTime::from_ns(40.0);
        let n = 1000u64;

        let mut full = PipelinedUnit::new(lat, ii, 10);
        let mut done_full = SimTime::ZERO;
        for _ in 0..n {
            done_full = full.submit(SimTime::ZERO);
        }

        let mut shallow = PipelinedUnit::new(lat, ii, 5);
        let mut done_shallow = SimTime::ZERO;
        for _ in 0..n {
            done_shallow = shallow.submit(SimTime::ZERO);
        }

        let rate_full = n as f64 / done_full.as_secs();
        let rate_shallow = n as f64 / done_shallow.as_secs();
        assert!(
            (rate_full / rate_shallow - 2.0).abs() < 0.05,
            "full={rate_full} shallow={rate_shallow}"
        );
    }

    #[test]
    fn pipeline_respects_arrival_times() {
        let mut u = PipelinedUnit::new(SimTime::from_ns(100.0), SimTime::from_ns(1.0), 8);
        let done = u.submit(SimTime::from_us(1.0));
        assert_eq!(done.as_ns(), 1000.0 + 100.0);
    }

    #[test]
    fn peak_rate_accounts_for_depth_limit() {
        // latency 400ns, ii 1ns, depth 4 -> drain-limited to 1 per 100ns.
        let u = PipelinedUnit::new(SimTime::from_ns(400.0), SimTime::from_ns(1.0), 4);
        assert!((u.peak_rate_per_sec() - 1e9 / 100.0).abs() / (1e9 / 100.0) < 0.01);
    }
}
