//! # bionic-telemetry — deterministic observability for the simulated stack
//!
//! The paper argues through observability artifacts: Figure 1's utilization
//! curves, Figure 3's time breakdown, §5's claim that specialized units stay
//! busy while cores idle. This crate makes those artifacts *measurable from
//! a traced run* instead of the analytic model alone:
//!
//! * [`Telemetry`] — a span/event recorder keyed on virtual
//!   [`SimTime`](bionic_sim::time::SimTime), never wall clock. Spans carry
//!   the transaction id, the Figure-3 category label, and the component
//!   track they ran on. Storage is an append-only ring buffer
//!   ([`RingSink`]); stable sequence ids make traces byte-identical for
//!   any `--jobs` value.
//! * [`MetricsRegistry`] — named counters and gauges with per-component
//!   scoping (engine, wal, bufferpool, queue, each fpga unit, sg-dram,
//!   link), iterated in `BTreeMap` order so every export is deterministic.
//! * [`Timelines`] — busy/idle interval accounting per functional unit and
//!   per modeled core, aggregated into windowed occupancy series
//!   (Figure-1-style utilization from a real run).
//! * Exporters — Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`, one track per unit/core, spans nested per
//!   transaction) and flat CSVs; plus [`validate_chrome_trace`], the schema
//!   check every exported trace passes before `figures --trace` writes it.
//! * [`SnapshotHub`] — windowed snapshots on a fixed sim-time grid:
//!   per-window counter deltas and gauge levels, the feed the adaptive
//!   placement controller (ROADMAP item 4) reads.
//! * [`Attribution`] — commit-time latency/energy attribution per
//!   transaction class × offload path (hw-hit / hw-retry / sw-fallback /
//!   cpu), with a critical-path decomposition into probe, arbiter-wait,
//!   watchdog-retry, fallback, commit, and other segments, built on
//!   pre-sized mergeable [`LogHistogram`]s.
//! * [`report`] — the JSON codec: [`report::JsonValue`], written with a
//!   fixed key order and read back by [`report::parse_json`] in linear
//!   time. It is the one JSON reader in the workspace: the trace
//!   validator, the run report (`bionic_bench::report`) and `benchmark/`
//!   all parse through it.
//!
//! ## Determinism rules
//!
//! 1. Every timestamp is [`SimTime`](bionic_sim::time::SimTime) picoseconds;
//!    wall-clock never enters the recorder or the exporters.
//! 2. Export ordering is fully specified: tracks in registration order,
//!    events sorted by `(start, seq)` with the stable sequence id as the
//!    tiebreak, metrics in `BTreeMap` order. No hash-map iteration leaks in.
//! 3. Timestamp formatting is integer math (`ps / 10^6` microseconds with a
//!    six-digit fractional part) — no float rounding in the byte stream.
//!
//! ## Overhead budget
//!
//! A disabled recorder must be free: every hot-path entry point checks one
//! `bool` and returns before touching the sink, constructing nothing
//! (`bionic-core`'s `disabled_telemetry_records_nothing_and_changes_nothing`
//! test pins that). What an *enabled* recorder costs on the host is the
//! `telemetry.trace_overhead_frac` metric of `benchmark/`.

#![deny(missing_docs)]

pub mod attrib;
pub mod cluster;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod report;
pub mod snapshot;
pub mod timeline;
pub mod tracer;
pub mod validate;

pub use attrib::{Attribution, OffloadPath, PathCell, TxnPathAcc};
pub use cluster::{merge_node_metrics, merge_node_traces, merged_chrome_trace};
pub use histogram::LogHistogram;
pub use metrics::{MetricValue, MetricsRegistry};
pub use snapshot::{SnapshotHub, SnapshotWindow, WindowValue};
pub use timeline::Timelines;
pub use tracer::{RingSink, SpanEvent, Telemetry, TrackId, TrackKind, UNIT_NAMES};
pub use validate::validate_chrome_trace;
