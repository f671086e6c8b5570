//! Exporters: Chrome trace-event JSON and windowed-occupancy CSV.
//!
//! Both exporters follow the crate's determinism rules: tracks in
//! registration order, events sorted by `(start, seq)` (with `end`
//! descending as the nesting tiebreak), and all timestamp formatting done
//! in integer picosecond math — `ps / 10^6` microseconds with a fixed
//! six-digit fractional part, so no float ever touches the byte stream.

use crate::timeline::Timelines;
use crate::tracer::{SpanEvent, Track, TrackKind};
use bionic_sim::time::SimTime;

/// Format picoseconds as a Chrome-trace `ts` value: microseconds with six
/// fractional digits, computed purely with integer math. Public because
/// every artifact with a timestamp (traces, utilization CSVs, the bench
/// harness's `e13_windows` table) must format it identically to stay
/// byte-stable.
pub fn fmt_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `tracks` + `events` as Chrome trace-event JSON (the "JSON object
/// format": `{"traceEvents": [...]}`), loadable in Perfetto and
/// `chrome://tracing`.
///
/// The file is organized as one block per track, in registration order.
/// Each block opens with `M` (metadata) events naming the track, followed
/// by the track's events in `(start, end desc, seq)` order:
///
/// * [`TrackKind::Nested`] tracks (dispatcher, cores) become `B`/`E`
///   pairs. Cores are FIFO servers, so spans on one track either nest or
///   are disjoint; a child whose end overhangs its parent (can only arise
///   from modeling asynchrony) is clamped to the parent's end so pairs
///   always match.
/// * [`TrackKind::Marks`] tracks (pipelined functional units) become `X`
///   complete events, which viewers stack when they overlap.
///
/// Within every track the emitted `ts` sequence is non-decreasing — the
/// property [`crate::validate_chrome_trace`] checks.
pub fn chrome_trace(tracks: &[Track], events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"bionic-dbms\"}}",
    );

    for (tid, track) in tracks.iter().enumerate() {
        out.push_str(",\n");
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}},\n",
            json_escape(&track.name)
        ));
        out.push_str(&format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"sort_index\":{tid}}}}}",
        ));

        let mut evs: Vec<&SpanEvent> = events.iter().filter(|e| e.track == tid).collect();
        evs.sort_unstable_by(|a, b| {
            (a.start_ps, std::cmp::Reverse(a.end_ps), a.seq).cmp(&(
                b.start_ps,
                std::cmp::Reverse(b.end_ps),
                b.seq,
            ))
        });

        match track.kind {
            TrackKind::Marks => {
                for ev in evs {
                    out.push_str(",\n");
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":0,\"tid\":{tid},\
                         \"args\":{{\"txn\":{},\"seq\":{}}}}}",
                        json_escape(ev.name),
                        json_escape(ev.category),
                        fmt_us(ev.start_ps),
                        fmt_us(ev.end_ps - ev.start_ps),
                        ev.txn,
                        ev.seq,
                    ));
                }
            }
            TrackKind::Nested => {
                // Stack of open spans: (clamped end, name). Clamping keeps
                // children inside parents, which keeps pops in ts order.
                let mut open: Vec<(u64, &'static str)> = Vec::new();
                let emit_e = |out: &mut String, end: u64, name: &str| {
                    out.push_str(",\n");
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":{tid}}}",
                        json_escape(name),
                        fmt_us(end),
                    ));
                };
                for ev in evs {
                    while let Some(&(end, name)) = open.last() {
                        if end <= ev.start_ps {
                            emit_e(&mut out, end, name);
                            open.pop();
                        } else {
                            break;
                        }
                    }
                    let clamped = match open.last() {
                        Some(&(parent_end, _)) => ev.end_ps.min(parent_end),
                        None => ev.end_ps,
                    };
                    out.push_str(",\n");
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\
                         \"pid\":0,\"tid\":{tid},\"args\":{{\"txn\":{},\"seq\":{}}}}}",
                        json_escape(ev.name),
                        json_escape(ev.category),
                        fmt_us(ev.start_ps),
                        ev.txn,
                        ev.seq,
                    ));
                    open.push((clamped.max(ev.start_ps), ev.name));
                }
                while let Some((end, name)) = open.pop() {
                    emit_e(&mut out, end, name);
                }
            }
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// One row of the windowed-occupancy export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilizationRow {
    /// Track name, as registered.
    pub track: String,
    /// Window index (0-based).
    pub window: usize,
    /// Window start, picoseconds.
    pub start_ps: u64,
    /// Window end, picoseconds. The final window is clipped to the traced
    /// horizon, so a partial tail window has `end_ps - start_ps < window`.
    pub end_ps: u64,
    /// Busy picoseconds inside the window, after union-merging overlaps.
    pub busy_ps: u64,
}

impl UtilizationRow {
    /// Occupancy as a fixed-point fraction string ("0.250000"), computed
    /// with integer math in parts-per-million.
    pub fn occupancy(&self) -> String {
        let width = self.end_ps - self.start_ps;
        if width == 0 {
            return "0.000000".to_string();
        }
        let ppm = self.busy_ps.saturating_mul(1_000_000) / width;
        if ppm >= 1_000_000 {
            "1.000000".to_string()
        } else {
            format!("0.{ppm:06}")
        }
    }
}

/// Slice every track's merged busy intervals into `window`-sized buckets.
///
/// Every registered track gets rows for every window — a unit that never
/// ran still shows up, at zero occupancy, so coverage is explicit. The
/// window count is `ceil(horizon / window)`, minimum one, and the final
/// window's end is clipped to the horizon so a partial tail window
/// reports occupancy against its real width, not the full grid width.
pub fn utilization_rows(
    tracks: &[Track],
    timelines: &Timelines,
    window: SimTime,
) -> Vec<UtilizationRow> {
    let win = window.as_ps().max(1);
    let horizon = timelines.horizon_ps();
    let n_windows = (horizon.div_ceil(win)).max(1) as usize;
    let mut rows = Vec::with_capacity(tracks.len() * n_windows);
    for (tid, track) in tracks.iter().enumerate() {
        for w in 0..n_windows {
            let start = w as u64 * win;
            let end = if horizon > start {
                (start + win).min(horizon)
            } else {
                // Nothing was ever recorded (horizon 0): keep the single
                // full-width window so idle tracks still report 0/window.
                start + win
            };
            rows.push(UtilizationRow {
                track: track.name.clone(),
                window: w,
                start_ps: start,
                end_ps: end,
                busy_ps: timelines.busy_in_window(tid, start, end),
            });
        }
    }
    rows
}

/// Render [`utilization_rows`] as CSV
/// (`track,window,start_us,end_us,busy_us,occupancy`, integer-math
/// microsecond columns, trailing newline).
pub fn utilization_csv(tracks: &[Track], timelines: &Timelines, window: SimTime) -> String {
    let mut out = String::from("track,window,start_us,end_us,busy_us,occupancy\n");
    for row in utilization_rows(tracks, timelines, window) {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            row.track,
            row.window,
            fmt_us(row.start_ps),
            fmt_us(row.end_ps),
            fmt_us(row.busy_ps),
            row.occupancy(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Telemetry;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ps(ns * 1000)
    }

    fn sample() -> Telemetry {
        let mut tel = Telemetry::disabled();
        tel.enable(2, 4096);
        tel.set_txn(1);
        let c0 = tel.core_track(0);
        tel.span(c0, "payment", "Xct", t(0), t(100));
        tel.span(c0, "update", "Btree", t(10), t(40));
        tel.span(c0, "commit", "Log", t(60), t(90));
        tel.unit_busy(0, "probe", "Btree", t(5), t(25));
        tel.unit_busy(0, "probe", "Btree", t(15), t(35)); // pipelined overlap
        tel
    }

    #[test]
    fn trace_is_valid_per_schema_checker() {
        let tel = sample();
        let json = tel.export_chrome_trace();
        crate::validate_chrome_trace(&json).expect("schema-valid");
    }

    #[test]
    fn nested_spans_emit_matched_be_pairs_in_ts_order() {
        let tel = sample();
        let json = tel.export_chrome_trace();
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 3);
        assert_eq!(b, e);
        // The overlapping unit intervals become X events, not B/E.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn timestamps_use_integer_math_microseconds() {
        assert_eq!(fmt_us(0), "0.000000");
        assert_eq!(fmt_us(1), "0.000001");
        assert_eq!(fmt_us(1_000_000), "1.000000");
        assert_eq!(fmt_us(2_500_123), "2.500123");
    }

    #[test]
    fn utilization_covers_every_track_including_idle_units() {
        let tel = sample();
        let csv = utilization_csv(tel.tracks(), tel.timelines(), SimTime::from_ns(100.0));
        // 1 dispatch + 2 cores + 5 units = 8 tracks, horizon 100ns = 1 window.
        assert_eq!(csv.lines().count(), 1 + 8);
        assert!(csv.contains("fpga/scanner,0,"));
        // Unit 0 busy 5..35ns of 100ns window = 0.30, overlap union-merged.
        assert!(csv.contains("fpga/tree-probe,0,0.000000,0.100000,0.030000,0.300000"));
        // core-0 busy 0..100ns (outer span covers children) = 1.0.
        assert!(csv.contains("core-0,0,0.000000,0.100000,0.100000,1.000000"));
    }

    #[test]
    fn tail_window_is_clipped_to_horizon() {
        // Horizon 150ns with 100ns windows: the second window is a 50ns
        // partial. A track busy for all 50ns of the tail must report full
        // occupancy against the clipped width, not 0.5 of the grid width.
        let mut tel = Telemetry::disabled();
        tel.enable(1, 64);
        let c0 = tel.core_track(0);
        tel.span(c0, "head", "Xct", t(0), t(30));
        tel.span(c0, "tail", "Xct", t(100), t(150));
        let rows = utilization_rows(tel.tracks(), tel.timelines(), SimTime::from_ns(100.0));
        let tail: Vec<&UtilizationRow> = rows
            .iter()
            .filter(|r| r.track == "core-0" && r.window == 1)
            .collect();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].start_ps, 100_000);
        assert_eq!(tail[0].end_ps, 150_000, "tail window end clips to horizon");
        assert_eq!(tail[0].busy_ps, 50_000);
        assert_eq!(tail[0].occupancy(), "1.000000");
        let csv = utilization_csv(tel.tracks(), tel.timelines(), SimTime::from_ns(100.0));
        assert!(csv.contains("core-0,1,0.100000,0.150000,0.050000,1.000000"));
    }

    #[test]
    fn occupancy_is_fixed_point() {
        let row = UtilizationRow {
            track: "x".into(),
            window: 0,
            start_ps: 0,
            end_ps: 1000,
            busy_ps: 250,
        };
        assert_eq!(row.occupancy(), "0.250000");
    }
}
