//! The run report — the one module that knows its schema. A *run
//! report* condenses one harness run (the CSV tables the cells wrote) into
//! a single machine-readable artifact: per-experiment columns and rows
//! carried verbatim from the CSVs, plus automatic detector verdicts (the
//! E13 contention knee, the E14 mid-band valley). Because cells are
//! byte-identical across `--jobs`, so is the report. This module builds
//! it ([`build_report`]), renders it as schema-tagged JSON
//! ([`REPORT_SCHEMA`]) and markdown, reads it back with every field
//! checked ([`RunReport::from_json`], what `report-diff --check` runs),
//! and diffs two of them ([`diff_reports`], the regression gate
//! `report-diff` runs in CI).
//!
//! JSON goes through telemetry's one codec, [`bionic_telemetry::report`]:
//! numbers keep their raw source tokens end to end — the differ parses
//! them to `f64` only to compare, never to re-format — so report → parse
//! → diff pipelines are byte-exact.
//!
//! The builder reads only checked-schema tables it knows about
//! (`e13_hybrid`, `e13_attrib`, `e14_brownout`, `e14_attrib`, ...);
//! absent tables are skipped so partial runs (`figures e13`) still report.
//! Every row is prefixed with a synthesized `key` column joining the
//! table's natural-key cells with `/` — [`diff_reports`] matches rows by
//! first cell, and e14's raw first cell (`config`) repeats across the
//! fault-rate sweep.

use std::path::{Path, PathBuf};

use bionic_telemetry::report::{is_json_number, parse_json, JsonValue};

use crate::Table;

/// The report schema identifier; bumped on incompatible layout changes.
pub const REPORT_SCHEMA: &str = "bionic-run-report-v1";

/// One automatic detector's verdict over an experiment's series.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorResult {
    /// Detector name (`contention-knee`, `midband-valley`, ...).
    pub name: String,
    /// Did the detector fire?
    pub found: bool,
    /// X-axis label where it fired (empty when not found).
    pub at: String,
    /// One-sentence human rendering of the verdict.
    pub details: String,
}

/// One experiment's scoreboard: its table carried verbatim plus detector
/// verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id (`e13`).
    pub id: String,
    /// Source table name (`e13_hybrid`).
    pub table: String,
    /// Column headers, verbatim from the CSV.
    pub columns: Vec<String>,
    /// Rows of cells, verbatim from the CSV.
    pub rows: Vec<Vec<String>>,
    /// Detector verdicts, in registration order.
    pub detectors: Vec<DetectorResult>,
}

/// A whole run's report: schema tag plus per-experiment scoreboards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Scale label the run used (`smoke` / `full`).
    pub scale: String,
    /// Per-experiment scoreboards, in run order.
    pub experiments: Vec<ExperimentReport>,
}

fn cell_value(cell: &str) -> JsonValue {
    if is_json_number(cell) {
        JsonValue::Num(cell.to_string())
    } else {
        JsonValue::Str(cell.to_string())
    }
}

/// `obj[key]` as a string, or an error naming `whose` field.
fn str_at(obj: &JsonValue, key: &str, whose: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{whose}: missing string {key}"))
}

/// `obj[key]` as an array, or an error naming `whose` field.
fn arr_at<'a>(obj: &'a JsonValue, key: &str, whose: &str) -> Result<&'a [JsonValue], String> {
    obj.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{whose}: missing {key} array"))
}

impl RunReport {
    /// Render as schema-tagged JSON (compact, fixed key order — the
    /// byte-stable artifact the determinism test compares).
    pub fn to_json(&self) -> String {
        let mut exps = Vec::new();
        for e in &self.experiments {
            let columns = JsonValue::Arr(
                e.columns
                    .iter()
                    .map(|c| JsonValue::Str(c.clone()))
                    .collect(),
            );
            let rows = JsonValue::Arr(
                e.rows
                    .iter()
                    .map(|r| JsonValue::Arr(r.iter().map(|c| cell_value(c)).collect()))
                    .collect(),
            );
            let detectors = JsonValue::Arr(
                e.detectors
                    .iter()
                    .map(|d| {
                        JsonValue::Obj(vec![
                            ("name".into(), JsonValue::Str(d.name.clone())),
                            ("found".into(), JsonValue::Bool(d.found)),
                            ("at".into(), JsonValue::Str(d.at.clone())),
                            ("details".into(), JsonValue::Str(d.details.clone())),
                        ])
                    })
                    .collect(),
            );
            exps.push(JsonValue::Obj(vec![
                ("id".into(), JsonValue::Str(e.id.clone())),
                ("table".into(), JsonValue::Str(e.table.clone())),
                ("columns".into(), columns),
                ("rows".into(), rows),
                ("detectors".into(), detectors),
            ]));
        }
        let doc = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str(REPORT_SCHEMA.into())),
            ("scale".into(), JsonValue::Str(self.scale.clone())),
            ("experiments".into(), JsonValue::Arr(exps)),
        ]);
        let mut out = doc.to_json();
        out.push('\n');
        out
    }

    /// Parse and schema-check a report document produced by
    /// [`RunReport::to_json`]. Anything `to_json` would not write is an
    /// error naming the experiment and field — never a defaulted value.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = parse_json(text)?;
        let schema = str_at(&doc, "schema", "report")?;
        if schema != REPORT_SCHEMA {
            return Err(format!(
                "unknown schema {schema:?}, expected {REPORT_SCHEMA:?}"
            ));
        }
        let scale = str_at(&doc, "scale", "report")?;
        let mut experiments = Vec::new();
        for (n, e) in arr_at(&doc, "experiments", "report")?.iter().enumerate() {
            let id = str_at(e, "id", &format!("experiment {n}"))?;
            let table = str_at(e, "table", &id)?;
            let columns = arr_at(e, "columns", &id)?
                .iter()
                .enumerate()
                .map(|(cn, c)| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{id}: column {cn} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut rows = Vec::new();
            for (rn, row) in arr_at(e, "rows", &id)?.iter().enumerate() {
                let cells = row
                    .as_arr()
                    .ok_or_else(|| format!("{id} row {rn}: not an array"))?;
                if cells.len() != columns.len() {
                    return Err(format!(
                        "{id} row {rn}: {} cells for {} columns",
                        cells.len(),
                        columns.len()
                    ));
                }
                let cells = cells.iter().enumerate().map(|(cn, c)| match c {
                    JsonValue::Num(s) | JsonValue::Str(s) => Ok(s.clone()),
                    _ => Err(format!("{id} row {rn} cell {cn}: not a number or string")),
                });
                rows.push(cells.collect::<Result<_, _>>()?);
            }
            let mut detectors = Vec::new();
            for (dn, d) in arr_at(e, "detectors", &id)?.iter().enumerate() {
                let name = str_at(d, "name", &format!("{id} detector {dn}"))?;
                let whose = format!("{id} detector {name}");
                let Some(&JsonValue::Bool(found)) = d.get("found") else {
                    return Err(format!("{whose}: missing bool found"));
                };
                detectors.push(DetectorResult {
                    at: str_at(d, "at", &whose)?,
                    details: str_at(d, "details", &whose)?,
                    name,
                    found,
                });
            }
            experiments.push(ExperimentReport {
                id,
                table,
                columns,
                rows,
                detectors,
            });
        }
        Ok(RunReport { scale, experiments })
    }

    /// Render as a human-readable markdown scoreboard.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# Run report ({})\n", self.scale);
        for e in &self.experiments {
            out.push_str(&format!("\n## {} — `{}`\n\n", e.id, e.table));
            out.push_str(&format!("| {} |\n", e.columns.join(" | ")));
            out.push_str(&format!(
                "|{}\n",
                e.columns.iter().map(|_| " --- |").collect::<String>()
            ));
            for row in &e.rows {
                out.push_str(&format!("| {} |\n", row.join(" | ")));
            }
            for d in &e.detectors {
                out.push_str(&format!(
                    "\n- **{}**: {}\n",
                    d.name,
                    if d.details.is_empty() {
                        if d.found {
                            "found"
                        } else {
                            "not found"
                        }
                    } else {
                        &d.details
                    }
                ));
            }
        }
        out
    }
}

/// First index along a monotone sweep where `y` exceeds `factor` times
/// the first point's `y` — the E13 contention-knee detector. Returns
/// `None` when the series never crosses or the baseline is zero.
fn detect_knee(ys: &[f64], factor: f64) -> Option<usize> {
    let y0 = *ys.first()?;
    if y0 <= 0.0 {
        return None;
    }
    ys.iter().position(|&y| y >= factor * y0)
}

/// Index of a strict interior extremum — `valley` picks the dip, used
/// for the E14 mid-band latency valley (a point lower than both
/// neighbours); inverted it would find a peak. Endpoints never qualify.
fn detect_valley(ys: &[f64]) -> Option<usize> {
    (1..ys.len().saturating_sub(1)).find(|&i| ys[i] < ys[i - 1] && ys[i] < ys[i + 1])
}

/// How to detect a feature in one numeric column of a source table.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// First row whose value reaches `factor` × the first row's value.
    Knee(f64),
    /// Strict interior minimum (endpoints excluded).
    Valley,
}

/// One detector registration: a named shape over a column.
#[derive(Debug, Clone, Copy)]
struct Detector {
    name: &'static str,
    column: &'static str,
    shape: Shape,
}

/// One source table the report builder understands.
struct Source {
    id: &'static str,
    table: &'static str,
    /// Columns joined (in order) into the synthesized row key.
    key_cols: &'static [&'static str],
    /// Keep only rows whose `column` cell equals `value` — lets two
    /// report views (each with its own detectors) share one table, as
    /// the e15 pressure/fault sweeps do. `None` keeps every row.
    filter: Option<(&'static str, &'static str)>,
    detectors: &'static [Detector],
}

const SOURCES: &[Source] = &[
    Source {
        id: "e13",
        table: "e13_hybrid",
        key_cols: &["scan_pressure_pct"],
        filter: None,
        detectors: &[
            Detector {
                name: "contention-knee",
                column: "txn_p99_us",
                shape: Shape::Knee(1.5),
            },
            Detector {
                name: "energy-knee",
                column: "system_joules_per_txn",
                shape: Shape::Knee(1.5),
            },
        ],
    },
    Source {
        id: "e13-attrib",
        table: "e13_attrib",
        key_cols: &["scan_pressure_pct", "class", "path"],
        filter: None,
        detectors: &[],
    },
    Source {
        id: "e14",
        table: "e14_brownout",
        key_cols: &["config", "fault_rate_bp"],
        filter: None,
        detectors: &[
            Detector {
                name: "brownout-valley",
                column: "txn_throughput_per_s",
                shape: Shape::Valley,
            },
            Detector {
                name: "energy-knee",
                column: "system_joules_per_txn",
                shape: Shape::Knee(1.5),
            },
        ],
    },
    Source {
        id: "e14-attrib",
        table: "e14_attrib",
        key_cols: &["config", "fault_rate_bp", "class", "path"],
        filter: None,
        detectors: &[],
    },
    // E15 splits into two report views over one table: the adaptive
    // controller against the E13 pressure sweep and against the E14
    // fault sweep. The detector pairs pin the controller's headline in
    // the baseline diff: the static arm's p99 knee/valley exists, and
    // the adaptive arm pushes its knee later (or out of the sweep) and
    // keeps a p99-win valley in the fault mid-band.
    Source {
        id: "e15-pressure",
        table: "e15_adaptive",
        key_cols: &["sweep", "point"],
        filter: Some(("sweep", "pressure")),
        detectors: &[
            Detector {
                name: "static-contention-knee",
                column: "static_p99_us",
                shape: Shape::Knee(1.5),
            },
            Detector {
                name: "adaptive-contention-knee",
                column: "adaptive_p99_us",
                shape: Shape::Knee(1.5),
            },
        ],
    },
    Source {
        id: "e15-faults",
        table: "e15_adaptive",
        key_cols: &["sweep", "point"],
        filter: Some(("sweep", "faults")),
        detectors: &[
            Detector {
                name: "adaptive-win-valley",
                column: "p99_ratio_pct",
                shape: Shape::Valley,
            },
            Detector {
                name: "energy-knee",
                column: "adaptive_joules_per_txn",
                shape: Shape::Knee(1.5),
            },
        ],
    },
    // E16 is a grid, not a monotone sweep, so it carries no shape
    // detectors — pinning every cell (commit latency, throughput,
    // joules/txn, in-doubt tail) in the baseline diff is the gate.
    Source {
        id: "e16",
        table: "e16_cluster",
        key_cols: &["nodes", "cross_bp", "net"],
        filter: None,
        detectors: &[],
    },
];

fn column_index(headers: &[String], name: &str, table: &str) -> Result<usize, String> {
    headers
        .iter()
        .position(|h| h == name)
        .ok_or_else(|| format!("{table}.csv: missing column {name:?}"))
}

fn numeric_column(
    rows: &[Vec<String>],
    idx: usize,
    column: &str,
    table: &str,
) -> Result<Vec<f64>, String> {
    rows.iter()
        .map(|r| {
            r[idx]
                .parse::<f64>()
                .map_err(|_| format!("{table}.csv: non-numeric {column:?} cell {:?}", r[idx]))
        })
        .collect()
}

fn run_detector(det: &Detector, keys: &[String], ys: &[f64], table: &str) -> DetectorResult {
    let hit = match det.shape {
        Shape::Knee(factor) => detect_knee(ys, factor),
        Shape::Valley => detect_valley(ys),
    };
    let (found, at, details) = match (det.shape, hit) {
        (Shape::Knee(factor), Some(i)) => (
            true,
            keys[i].clone(),
            format!(
                "{} first reaches {factor}x its baseline at {} (table {table})",
                det.column, keys[i]
            ),
        ),
        (Shape::Knee(factor), None) => (
            false,
            String::new(),
            format!("{} never reaches {factor}x its baseline", det.column),
        ),
        (Shape::Valley, Some(i)) => (
            true,
            keys[i].clone(),
            format!(
                "{} dips below both neighbours at {} (table {table})",
                det.column, keys[i]
            ),
        ),
        (Shape::Valley, None) => (
            false,
            String::new(),
            format!("{} has no interior minimum", det.column),
        ),
    };
    DetectorResult {
        name: det.name.to_string(),
        found,
        at,
        details,
    }
}

fn build_experiment(src: &Source, text: &str) -> Result<ExperimentReport, String> {
    let Table { headers, mut rows } =
        Table::parse_csv(text).map_err(|e| format!("{}.csv: {e}", src.table))?;
    if let Some((col, value)) = src.filter {
        let idx = column_index(&headers, col, src.table)?;
        rows.retain(|r| r[idx] == value);
    }
    if rows.is_empty() {
        return Err(format!("{}.csv: no data rows", src.table));
    }
    let key_idx = src
        .key_cols
        .iter()
        .map(|k| column_index(&headers, k, src.table))
        .collect::<Result<Vec<_>, _>>()?;
    let keys: Vec<String> = rows
        .iter()
        .map(|r| {
            key_idx
                .iter()
                .map(|&i| r[i].as_str())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    let mut columns = vec!["key".to_string()];
    columns.extend(headers.iter().cloned());
    let out_rows: Vec<Vec<String>> = keys
        .iter()
        .zip(&rows)
        .map(|(k, r)| {
            let mut row = vec![k.clone()];
            row.extend(r.iter().cloned());
            row
        })
        .collect();
    let mut detectors = Vec::new();
    for det in src.detectors {
        let idx = column_index(&headers, det.column, src.table)?;
        let ys = numeric_column(&rows, idx, det.column, src.table)?;
        detectors.push(run_detector(det, &keys, &ys, src.table));
    }
    Ok(ExperimentReport {
        id: src.id.to_string(),
        table: src.table.to_string(),
        columns,
        rows: out_rows,
        detectors,
    })
}

/// Assemble a [`RunReport`] from the CSV tables in `dir`. Tables the
/// run did not produce are skipped; producing nothing at all is an
/// error (wrong directory, or the run wrote no reportable tables).
pub fn build_report(dir: &Path, scale: &str) -> Result<RunReport, String> {
    let mut experiments = Vec::new();
    for src in SOURCES {
        let path = dir.join(format!("{}.csv", src.table));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        experiments.push(build_experiment(src, &text)?);
    }
    if experiments.is_empty() {
        return Err(format!(
            "no reportable tables (e13_hybrid.csv / e14_brownout.csv ...) in {}",
            dir.display()
        ));
    }
    Ok(RunReport {
        scale: scale.to_string(),
        experiments,
    })
}

/// Write `report.json` and `report.md` into `dir`; returns their paths.
pub fn write_report(dir: &Path, report: &RunReport) -> std::io::Result<(PathBuf, PathBuf)> {
    let json = dir.join("report.json");
    let md = dir.join("report.md");
    std::fs::write(&json, report.to_json())?;
    std::fs::write(&md, report.to_markdown())?;
    Ok((json, md))
}

/// One compared cell in a report diff.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Experiment id.
    pub experiment: String,
    /// Row key (first cell of the row).
    pub row: String,
    /// Column name.
    pub column: String,
    /// Baseline cell value.
    pub base: String,
    /// Candidate cell value.
    pub new: String,
    /// Relative change `(new - base) / |base|` (`f64::INFINITY` when the
    /// baseline is zero and the candidate is not).
    pub rel_change: f64,
    /// Did this cell exceed the tolerance?
    pub regressed: bool,
}

/// The outcome of diffing two run reports.
#[derive(Debug, Clone, Default)]
pub struct ReportDiff {
    /// Cells that changed beyond the tolerance, plus structural
    /// mismatches (missing experiments/rows/columns).
    pub regressions: Vec<DiffEntry>,
    /// Cells that changed but stayed within tolerance.
    pub within_tolerance: Vec<DiffEntry>,
    /// Numeric cells compared.
    pub compared: usize,
}

impl ReportDiff {
    /// Overall verdict: any regression?
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "compared {} cells: {} regressed, {} moved within tolerance\n",
            self.compared,
            self.regressions.len(),
            self.within_tolerance.len()
        ));
        for e in &self.regressions {
            out.push_str(&format!(
                "REGRESSION {}/{}/{}: {} -> {} ({:+.1}%)\n",
                e.experiment,
                e.row,
                e.column,
                e.base,
                e.new,
                e.rel_change * 100.0
            ));
        }
        for e in &self.within_tolerance {
            out.push_str(&format!(
                "ok {}/{}/{}: {} -> {} ({:+.1}%)\n",
                e.experiment,
                e.row,
                e.column,
                e.base,
                e.new,
                e.rel_change * 100.0
            ));
        }
        out.push_str(if self.regressed() {
            "verdict: REGRESSION\n"
        } else {
            "verdict: PASS\n"
        });
        out
    }
}

/// Compare candidate `new` against `base`: every numeric cell matched by
/// (experiment id, row key, column name) must stay within `tolerance`
/// relative change; missing experiments/rows/columns and detector
/// verdict flips count as regressions outright.
pub fn diff_reports(base: &RunReport, new: &RunReport, tolerance: f64) -> ReportDiff {
    let mut diff = ReportDiff::default();
    for be in &base.experiments {
        let Some(ne) = new.experiments.iter().find(|e| e.id == be.id) else {
            diff.regressions.push(DiffEntry {
                experiment: be.id.clone(),
                row: String::new(),
                column: String::new(),
                base: "present".into(),
                new: "missing".into(),
                rel_change: f64::INFINITY,
                regressed: true,
            });
            continue;
        };
        for brow in &be.rows {
            let key = brow.first().cloned().unwrap_or_default();
            let Some(nrow) = ne
                .rows
                .iter()
                .find(|r| r.first().map(|c| c.as_str()) == Some(key.as_str()))
            else {
                diff.regressions.push(DiffEntry {
                    experiment: be.id.clone(),
                    row: key,
                    column: String::new(),
                    base: "row present".into(),
                    new: "row missing".into(),
                    rel_change: f64::INFINITY,
                    regressed: true,
                });
                continue;
            };
            for (ci, col) in be.columns.iter().enumerate() {
                let Some(nci) = ne.columns.iter().position(|c| c == col) else {
                    continue;
                };
                let (bcell, ncell) = (&brow[ci], &nrow[nci]);
                let (Ok(bv), Ok(nv)) = (bcell.parse::<f64>(), ncell.parse::<f64>()) else {
                    continue;
                };
                diff.compared += 1;
                if bv == nv {
                    continue;
                }
                let rel = if bv == 0.0 {
                    f64::INFINITY
                } else {
                    (nv - bv) / bv.abs()
                };
                let entry = DiffEntry {
                    experiment: be.id.clone(),
                    row: key.clone(),
                    column: col.clone(),
                    base: bcell.clone(),
                    new: ncell.clone(),
                    rel_change: rel,
                    regressed: rel.abs() > tolerance,
                };
                if entry.regressed {
                    diff.regressions.push(entry);
                } else {
                    diff.within_tolerance.push(entry);
                }
            }
        }
        for bd in &be.detectors {
            if let Some(nd) = ne.detectors.iter().find(|d| d.name == bd.name) {
                if nd.found != bd.found {
                    diff.regressions.push(DiffEntry {
                        experiment: be.id.clone(),
                        row: format!("detector:{}", bd.name),
                        column: "found".into(),
                        base: bd.found.to_string(),
                        new: nd.found.to_string(),
                        rel_change: f64::INFINITY,
                        regressed: true,
                    });
                }
            }
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            scale: "smoke".into(),
            experiments: vec![ExperimentReport {
                id: "e13".into(),
                table: "e13_hybrid".into(),
                columns: vec!["pressure".into(), "p99_us".into(), "label".into()],
                rows: vec![
                    vec!["0".into(), "10.5".into(), "base".into()],
                    vec!["50".into(), "42.0".into(), "mid".into()],
                ],
                detectors: vec![DetectorResult {
                    name: "contention-knee".into(),
                    found: true,
                    at: "50".into(),
                    details: "p99 crossed 1.5x baseline at pressure 50".into(),
                }],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let r = sample();
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json, "re-render is byte-identical");
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("{\"schema\":\"wrong\"}").is_err());
        let ragged = sample().to_json().replace("\"base\"],", "],");
        assert!(
            RunReport::from_json(&ragged).is_err(),
            "ragged row rejected"
        );
    }

    /// A field `to_json` would never write is an error naming the
    /// experiment and the field — not a default, and not a cell rendered
    /// as text.
    #[test]
    fn malformed_fields_are_errors_not_defaults() {
        let good = sample().to_json();
        let details = ",\"details\":\"p99 crossed 1.5x baseline at pressure 50\"";
        for (from, to, names) in [
            ("[\"pressure\",", "[1,", "e13: column 0 is not a string"),
            (
                "\"base\"]",
                "true]",
                "e13 row 0 cell 2: not a number or string",
            ),
            (
                "\"base\"]",
                "[\"base\"]]",
                "e13 row 0 cell 2: not a number or string",
            ),
            (
                "\"found\":true",
                "\"found\":\"yes\"",
                "e13 detector contention-knee: missing bool found",
            ),
            (
                "\"found\":true,",
                "",
                "e13 detector contention-knee: missing bool found",
            ),
            (
                "\"at\":\"50\",",
                "",
                "e13 detector contention-knee: missing string at",
            ),
            (
                "\"at\":\"50\"",
                "\"at\":50",
                "e13 detector contention-knee: missing string at",
            ),
            (
                details,
                "",
                "e13 detector contention-knee: missing string details",
            ),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = good.replacen(from, to, 1);
            let err = RunReport::from_json(&bad).expect_err(&bad);
            assert_eq!(err, names, "{bad}");
        }
    }

    #[test]
    fn knee_and_valley_detectors() {
        assert_eq!(detect_knee(&[10.0, 11.0, 16.0, 40.0], 1.5), Some(2));
        assert_eq!(detect_knee(&[10.0, 11.0, 12.0], 1.5), None);
        assert_eq!(detect_knee(&[0.0, 5.0], 1.5), None, "zero baseline");
        assert_eq!(detect_valley(&[5.0, 2.0, 7.0]), Some(1));
        assert_eq!(detect_valley(&[5.0, 6.0, 7.0]), None);
        assert_eq!(detect_valley(&[1.0, 9.0]), None, "endpoints excluded");
    }

    #[test]
    fn identical_reports_diff_clean() {
        let d = diff_reports(&sample(), &sample(), 0.0);
        assert!(!d.regressed());
        assert!(d.compared > 0);
        assert!(d.render().contains("verdict: PASS"));
    }

    #[test]
    fn tolerance_gate_fires_on_big_moves_only() {
        let base = sample();
        let mut new = sample();
        new.experiments[0].rows[1][1] = "46.0".into(); // +9.5%
        let d = diff_reports(&base, &new, 0.10);
        assert!(!d.regressed(), "within 10%");
        assert_eq!(d.within_tolerance.len(), 1);
        new.experiments[0].rows[1][1] = "63.0".into(); // +50%
        let d = diff_reports(&base, &new, 0.10);
        assert!(d.regressed());
        assert!(d.render().contains("REGRESSION e13/50/p99_us"));
    }

    #[test]
    fn structural_and_detector_mismatches_regress() {
        let base = sample();
        let mut new = sample();
        new.experiments[0].rows.remove(1);
        new.experiments[0].detectors[0].found = false;
        let d = diff_reports(&base, &new, 1.0);
        assert!(d.regressed());
        assert!(d.regressions.iter().any(|e| e.new == "row missing"));
        assert!(d
            .regressions
            .iter()
            .any(|e| e.row == "detector:contention-knee"));
    }

    #[test]
    fn markdown_scoreboard_renders_tables_and_detectors() {
        let md = sample().to_markdown();
        assert!(md.contains("## e13 — `e13_hybrid`"));
        assert!(md.contains("| pressure | p99_us | label |"));
        assert!(md.contains("**contention-knee**"));
    }

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join(name), text).unwrap();
    }

    #[test]
    fn builds_report_with_knee_and_synthesized_keys() {
        let dir = std::env::temp_dir().join(format!("report_build_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write(
            &dir,
            "e13_hybrid.csv",
            "scan_pressure_pct,txn_p99_us,system_joules_per_txn\n\
             0,10,1\n50,12,1.1\n100,40,1.2\n",
        );
        write(
            &dir,
            "e14_brownout.csv",
            "config,fault_rate_bp,txn_throughput_per_s,system_joules_per_txn\n\
             bionic,0,100,1\nbionic,500,60,1.2\nbionic,5000,80,1.6\nsoftware,0,70,2\n",
        );
        let rep = build_report(&dir, "smoke").unwrap();
        assert_eq!(rep.scale, "smoke");
        let ids: Vec<_> = rep.experiments.iter().map(|e| e.id.as_str()).collect();
        assert_eq!(ids, vec!["e13", "e14"]);

        let e13 = &rep.experiments[0];
        assert_eq!(e13.columns[0], "key");
        assert_eq!(e13.rows[0][0], "0");
        let knee = &e13.detectors[0];
        assert!(knee.found, "p99 4x at 100% pressure must trip the knee");
        assert_eq!(knee.at, "100");

        // e14 keys disambiguate the repeated `config` cell.
        let e14 = &rep.experiments[1];
        assert_eq!(e14.rows[1][0], "bionic/500");
        let valley = &e14.detectors[0];
        assert!(valley.found, "throughput dips at the 500 bp mid-band");
        assert_eq!(valley.at, "bionic/500");

        // Round-trips through the JSON schema.
        let back = RunReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back, rep);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What `Table::to_csv` quotes, the report reads back as one cell; a
    /// quote it cannot parse is an error naming the table, not a row whose
    /// columns silently shifted.
    #[test]
    fn quoted_cells_round_trip_and_malformed_ones_name_the_table() {
        let dir = std::env::temp_dir().join(format!("report_quoted_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = crate::Table::default();
        for (pct, p99, note) in [("0", "10", "calm, \"idle\""), ("100", "40", "busy")] {
            t.push([
                ("scan_pressure_pct", pct.to_string()),
                ("note", note.to_string()),
                ("txn_p99_us", p99.to_string()),
                ("system_joules_per_txn", "1".to_string()),
            ]);
        }
        write(&dir, "e13_hybrid.csv", &t.to_csv());
        let e13 = &build_report(&dir, "smoke").unwrap().experiments[0];
        assert_eq!(e13.rows[0], vec!["0", "0", "calm, \"idle\"", "10", "1"]);
        assert!(e13.detectors[0].found, "p99 read from its own column");

        write(
            &dir,
            "e13_hybrid.csv",
            "scan_pressure_pct,txn_p99_us,system_joules_per_txn\n0,\"10,1\n",
        );
        let err = build_report(&dir, "smoke").unwrap_err();
        assert!(err.starts_with("e13_hybrid.csv: "), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_an_error_and_missing_tables_are_skipped() {
        let dir = std::env::temp_dir().join(format!("report_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(build_report(&dir, "smoke").is_err());
        write(
            &dir,
            "e13_hybrid.csv",
            "scan_pressure_pct,txn_p99_us,system_joules_per_txn\n0,10,1\n",
        );
        let rep = build_report(&dir, "smoke").unwrap();
        assert_eq!(rep.experiments.len(), 1);
        assert!(
            !rep.experiments[0].detectors[0].found,
            "single row: no knee past baseline"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
