//! The span recorder: tracks, the span ring, and the [`Telemetry`] front end.
//!
//! The recorder is built for one property above all: **the disabled path is
//! free**. [`Telemetry::disabled`] carries an empty [`RingSink`] (no
//! allocation) and an `enabled` flag; every recording entry point is
//! `#[inline]` and returns after one branch when disabled, so the ring is
//! never written. When enabled, events go into that bounded append-only
//! ring with stable sequence ids, and busy intervals are mirrored into the
//! [`Timelines`] accumulator.

use crate::metrics::MetricsRegistry;
use crate::timeline::Timelines;
use bionic_sim::time::SimTime;

/// Identifies one track (a core, the dispatcher, or a functional unit).
pub type TrackId = usize;

/// The five §5 functional units, in fixed registration order. Every traced
/// run registers all five — a unit that never ran still gets a track and a
/// zero-occupancy utilization series, so coverage is visible, not implied.
pub const UNIT_NAMES: [&str; 5] = ["tree-probe", "log-insert", "queue", "overlay", "scanner"];

/// How a track's events are rendered in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// Properly nesting spans (cores, dispatcher): exported as B/E pairs.
    Nested,
    /// Possibly-overlapping busy marks (pipelined units): exported as
    /// complete (`X`) events, which trace viewers stack freely.
    Marks,
}

/// One recorded span. `Copy` and allocation-free: names are `&'static str`
/// (transaction program names and op labels are static in this codebase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stable, monotonically increasing sequence id (the export tiebreak).
    pub seq: u64,
    /// Track the span ran on.
    pub track: TrackId,
    /// Start, in sim-time picoseconds.
    pub start_ps: u64,
    /// End, in sim-time picoseconds (`>= start_ps`).
    pub end_ps: u64,
    /// Span name (op kind, program name, or unit operation).
    pub name: &'static str,
    /// Figure-3 category label (`bionic_core::Category::label`-style).
    pub category: &'static str,
    /// Transaction id the work was done for (0 = unattributed).
    pub txn: u64,
}

/// Bounded append-only ring buffer: once `capacity` spans are held, the
/// oldest is overwritten and counted as dropped. Sequence ids keep climbing
/// across wraps, so the retained window is always a contiguous, stable
/// suffix of the run.
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<SpanEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring retaining up to `capacity` spans (at least 1). Allocates
    /// nothing until the first span is recorded.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Record one span, overwriting the oldest once full.
    pub fn record(&mut self, ev: SpanEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// All retained spans, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Spans dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything recorded so far.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// One registered track.
#[derive(Debug, Clone)]
pub struct Track {
    /// Display name ("dispatch", "core-3", "fpga/tree-probe", ...).
    pub name: String,
    /// Rendering mode.
    pub kind: TrackKind,
}

/// The telemetry front end an engine owns: tracks, sink, timelines, and the
/// metrics registry, behind one enabled flag.
pub struct Telemetry {
    enabled: bool,
    sink: RingSink,
    tracks: Vec<Track>,
    timelines: Timelines,
    metrics: MetricsRegistry,
    next_seq: u64,
    cores: usize,
    current_txn: u64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("tracks", &self.tracks.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Telemetry {
    /// The default state: recording off, no tracks, no allocation beyond
    /// the empty vectors. Safe to construct in every engine.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            sink: RingSink::new(0),
            tracks: Vec::new(),
            timelines: Timelines::new(),
            metrics: MetricsRegistry::new(),
            next_seq: 0,
            cores: 0,
            current_txn: 0,
        }
    }

    /// Turn recording on with the standard track layout: one dispatcher
    /// track, `cores` core tracks, then the five §5 unit tracks (in
    /// [`UNIT_NAMES`] order). `capacity` bounds the span ring.
    pub fn enable(&mut self, cores: usize, capacity: usize) {
        self.enabled = true;
        self.sink = RingSink::new(capacity);
        self.tracks.clear();
        self.tracks.push(Track {
            name: "dispatch".into(),
            kind: TrackKind::Nested,
        });
        for c in 0..cores {
            self.tracks.push(Track {
                name: format!("core-{c}"),
                kind: TrackKind::Nested,
            });
        }
        for unit in UNIT_NAMES {
            self.tracks.push(Track {
                name: format!("fpga/{unit}"),
                kind: TrackKind::Marks,
            });
        }
        self.cores = cores;
        self.timelines = Timelines::with_tracks(self.tracks.len());
        self.next_seq = 0;
        self.current_txn = 0;
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The dispatcher track.
    #[inline]
    pub fn dispatch_track(&self) -> TrackId {
        0
    }

    /// The track of modeled core / agent `agent`.
    #[inline]
    pub fn core_track(&self, agent: usize) -> TrackId {
        1 + agent
    }

    /// The track of §5 unit `unit` (an index into [`UNIT_NAMES`]).
    #[inline]
    pub fn unit_track(&self, unit: usize) -> TrackId {
        1 + self.cores + unit
    }

    /// Registered tracks, in export order.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Attribute subsequent spans to transaction `txn` (0 clears).
    #[inline]
    pub fn set_txn(&mut self, txn: u64) {
        if self.enabled {
            self.current_txn = txn;
        }
    }

    /// Record a span of `[start, end]` on `track`. No-op when disabled or
    /// when the interval is empty/inverted (asynchronous tails can round to
    /// zero); the interval also feeds the track's busy timeline.
    #[inline]
    pub fn span(
        &mut self,
        track: TrackId,
        name: &'static str,
        category: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.record(track, name, category, start, end);
    }

    /// Record a busy interval on §5 unit `unit` (index into
    /// [`UNIT_NAMES`]). Identical to [`Telemetry::span`] on the unit track;
    /// exists so call sites read as what they are.
    #[inline]
    pub fn unit_busy(
        &mut self,
        unit: usize,
        name: &'static str,
        category: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        let track = self.unit_track(unit);
        self.record(track, name, category, start, end);
    }

    fn record(
        &mut self,
        track: TrackId,
        name: &'static str,
        category: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if end <= start || track >= self.tracks.len() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sink.record(SpanEvent {
            seq,
            track,
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
            name,
            category,
            txn: self.current_txn,
        });
        self.timelines.add(track, start.as_ps(), end.as_ps());
    }

    /// All retained spans, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.sink.events()
    }

    /// Spans dropped at the ring boundary.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// The busy-interval timelines.
    pub fn timelines(&self) -> &Timelines {
        &self.timelines
    }

    /// The metrics registry (read).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The metrics registry (write) — collection is per run or per snapshot
    /// window, never per span, so this is not gated on `enabled`.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Drop all recorded spans, intervals, and metrics, keeping the track
    /// layout and enabled state — what `Engine::finish_load` calls so the
    /// measured run starts clean.
    pub fn reset_run(&mut self) {
        self.sink.clear();
        self.timelines = Timelines::with_tracks(self.tracks.len());
        self.metrics = MetricsRegistry::new();
        self.next_seq = 0;
        self.current_txn = 0;
    }

    /// Export the retained spans as Chrome trace-event JSON (see
    /// [`crate::export::chrome_trace`]).
    pub fn export_chrome_trace(&self) -> String {
        crate::export::chrome_trace(&self.tracks, &self.events())
    }

    /// Windowed occupancy rows for every track (see
    /// [`crate::export::utilization_rows`]).
    pub fn utilization_rows(&self, window: SimTime) -> Vec<crate::export::UtilizationRow> {
        crate::export::utilization_rows(&self.tracks, &self.timelines, window)
    }

    /// Windowed occupancy CSV for every track (see
    /// [`crate::export::utilization_csv`]).
    pub fn utilization_csv(&self, window: SimTime) -> String {
        crate::export::utilization_csv(&self.tracks, &self.timelines, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ps(ns * 1000)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tel = Telemetry::disabled();
        tel.set_txn(7);
        tel.span(0, "x", "Other", t(0), t(10));
        tel.unit_busy(0, "probe", "Btree", t(0), t(10));
        assert!(tel.events().is_empty());
        assert_eq!(tel.dropped(), 0);
    }

    #[test]
    fn standard_layout_has_dispatch_cores_units() {
        let mut tel = Telemetry::disabled();
        tel.enable(4, 1024);
        assert_eq!(tel.tracks().len(), 1 + 4 + 5);
        assert_eq!(tel.tracks()[0].name, "dispatch");
        assert_eq!(tel.tracks()[tel.core_track(3)].name, "core-3");
        assert_eq!(tel.tracks()[tel.unit_track(0)].name, "fpga/tree-probe");
        assert_eq!(tel.tracks()[tel.unit_track(4)].name, "fpga/scanner");
    }

    #[test]
    fn sequence_ids_are_stable_and_monotonic() {
        let mut tel = Telemetry::disabled();
        tel.enable(1, 1024);
        tel.set_txn(1);
        tel.span(tel.core_track(0), "a", "Xct", t(0), t(5));
        tel.span(tel.core_track(0), "b", "Xct", t(5), t(9));
        let evs = tel.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (0, 1));
        assert_eq!(evs[0].txn, 1);
    }

    #[test]
    fn empty_and_inverted_intervals_are_skipped() {
        let mut tel = Telemetry::disabled();
        tel.enable(1, 1024);
        tel.span(0, "zero", "Other", t(5), t(5));
        tel.span(0, "inverted", "Other", t(9), t(4));
        assert!(tel.events().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut sink = RingSink::new(3);
        for i in 0..5u64 {
            sink.record(SpanEvent {
                seq: i,
                track: 0,
                start_ps: i,
                end_ps: i + 1,
                name: "e",
                category: "Other",
                txn: 0,
            });
        }
        let evs = sink.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn reset_run_clears_but_keeps_layout() {
        let mut tel = Telemetry::disabled();
        tel.enable(2, 64);
        tel.span(0, "x", "Other", t(0), t(3));
        tel.reset_run();
        assert!(tel.events().is_empty());
        assert!(tel.enabled());
        assert_eq!(tel.tracks().len(), 1 + 2 + 5);
    }
}
