//! Host-time span recorder for the traced run.
//!
//! The driver wraps every call it makes into a layer in
//! [`Tracer::begin`]/[`Tracer::end`]. Spans stay in memory (name, start,
//! end, parent id, block id) and are written out once, at exit. With the
//! tracer off — every end-to-end measurement — `begin`/`end` are one
//! predictable branch and never read the clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Tracer::begin`] while the tracer is off.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span. `parent` is the index of the enclosing span (or
/// [`NO_SPAN`]); `block` is the timed block it ran in, 0 outside blocks.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<crate>.<call>` — the layer is the part before the dot.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: u32,
    /// 1-based timed-block id, 0 outside timed blocks.
    pub block: u32,
}

/// Totals of the spans recorded under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span buffer.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    block: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            block: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans up front, so the
    /// buffer does not reallocate inside a timed block.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            on: true,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            ..Tracer::off()
        }
    }

    /// Is this tracer recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Mark the timed block subsequent spans belong to (0 = none).
    pub fn set_block(&mut self, block: u32) {
        self.block = block;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; pair with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            block: self.block,
        });
        // Read the clock last, so the bookkeeping above lands in the parent.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Close the span `id` (must be the innermost open one).
    #[inline]
    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id as usize].end_ns = now;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name — over spans inside timed blocks (`block != 0`)
    /// only, or over every span. Self time is duration minus the durations
    /// of direct children.
    pub fn totals(&self, in_blocks_only: bool) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if in_blocks_only && s.block == 0 {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Chrome trace-event JSON of the first `max_events` spans (one `X`
    /// event each, on one track: the benchmark has one thread). Spans are
    /// stored in `begin` order, so `ts` never decreases.
    pub fn chrome_trace(&self, workload: &str, max_events: usize) -> String {
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"bionic-benchmark {workload}\"}}}},\n\
             {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"driver\"}}}}"
        ));
        for (i, s) in self.spans.iter().take(max_events).enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"id\":{i},\"parent\":{},\"block\":{}}}}}",
                s.name,
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                if s.parent == NO_SPAN {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.block,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Cost of one `begin`/`end` pair on a recording tracer, ns (median of
/// five batches) — `bench.span_cost_ns`.
pub fn span_cost_ns() -> f64 {
    const PAIRS: usize = 100_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut tr = Tracer::on(PAIRS);
        let t = Instant::now();
        for _ in 0..PAIRS {
            let id = tr.begin("bench.calibrate");
            tr.end(id);
        }
        samples.push(t.elapsed().as_nanos() as f64 / PAIRS as f64);
        std::hint::black_box(tr.spans().len());
    }
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.begin("core.submit");
        tr.end(id);
        assert_eq!(id, NO_SPAN);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::on(8);
        tr.set_block(1);
        let outer = tr.begin("bench.block");
        let a = tr.begin("workloads.gen");
        tr.end(a);
        let b = tr.begin("core.submit");
        tr.end(b);
        tr.end(outer);
        tr.set_block(0);
        let outside = tr.begin("core.setup");
        tr.end(outside);

        let spans = tr.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, NO_SPAN);
        let totals = tr.totals(true);
        assert!(tr.totals(false).contains_key("core.setup"));
        assert!(!totals.contains_key("core.setup"), "outside any block");
        let block = totals["bench.block"];
        let kids = totals["workloads.gen"].total_ns + totals["core.submit"].total_ns;
        assert_eq!(block.self_ns, block.total_ns - kids);
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, block.total_ns, "self times partition the block");
    }

    #[test]
    fn export_passes_the_repo_validator() {
        let mut tr = Tracer::on(8);
        let outer = tr.begin("bench.run");
        let inner = tr.begin("core.submit");
        tr.end(inner);
        tr.end(outer);
        let json = tr.chrome_trace("unit", 100);
        bionic_telemetry::validate_chrome_trace(&json).unwrap();
    }
}
