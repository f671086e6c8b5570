//! Run-report assembly: turn the CSV tables a `figures` run left in its
//! results directory into a [`RunReport`] scoreboard (JSON + markdown)
//! with knee/valley detectors over the E13/E14 sweeps.
//!
//! The builder reads only checked-schema tables it knows about
//! (`e13_hybrid`, `e13_attrib`, `e14_brownout`, `e14_attrib`); absent
//! tables are skipped so partial runs (`figures e13`) still report.
//! Every row is prefixed with a synthesized `key` column joining the
//! table's natural-key cells with `/` —
//! [`bionic_telemetry::report::diff_reports`] matches rows by first
//! cell, and e14's raw first cell (`config`) repeats across the
//! fault-rate sweep.

use std::path::{Path, PathBuf};

use bionic_telemetry::report::{
    detect_knee, detect_valley, parse_csv, DetectorResult, ExperimentReport, RunReport,
};

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
    let (headers, mut rows) = parse_csv(text).map_err(|e| format!("{}.csv: {e}", src.table))?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
