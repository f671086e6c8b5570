//! Shared reporting utilities for the benchmark harness: a minimal CSV
//! writer, its reader, and a table printer used by the `figures` binary;
//! the run report ([`report`]) reads those CSVs back.

#![deny(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod trace;

use std::fmt::Write as _;
use std::path::Path;

/// A simple in-memory table that renders to CSV and aligned text.
///
/// A row is a list of `(column, value)` pairs, so no table's column names
/// are written apart from its values: the first row fixes the columns and
/// every later row must name the same ones in the same order. (A table no
/// row was pushed to has no columns either; a fragment that may come out
/// row-less takes its headers from wherever its rows come from, as the
/// attribution fragments of E13/E14 do.)
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table holding one row.
    pub fn of<C: AsRef<str>>(row: impl IntoIterator<Item = (C, String)>) -> Self {
        let mut t = Table::default();
        t.push(row);
        t
    }

    /// Append a row of `(column, value)` pairs.
    pub fn push<C: AsRef<str>>(&mut self, row: impl IntoIterator<Item = (C, String)>) -> &mut Self {
        let (columns, cells): (Vec<C>, Vec<String>) = row.into_iter().unzip();
        let columns = columns.iter().map(AsRef::as_ref);
        if self.headers.is_empty() {
            self.headers = columns.map(str::to_string).collect();
        } else {
            assert!(
                columns.clone().eq(self.headers.iter().map(String::as_str)),
                "row columns differ from the table's: {:?} vs {:?}",
                columns.collect::<Vec<_>>(),
                self.headers
            );
        }
        self.rows.push(cells);
        self
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Read back a CSV [`Table::to_csv`] wrote, undoing its quoting. A
    /// malformed quote or a row whose width differs from the header's is
    /// an error, never a shifted column.
    pub(crate) fn parse_csv(text: &str) -> Result<Table, String> {
        let mut lines = text.lines();
        let headers = lines.next().map(split_csv_line).transpose()?;
        let headers = headers.unwrap_or_default();
        let mut rows = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let row = split_csv_line(line)?;
            if row.len() != headers.len() {
                return Err(format!(
                    "row has {} fields, header has {}: {line:?}",
                    row.len(),
                    headers.len()
                ));
            }
            rows.push(row);
        }
        Ok(Table { headers, rows })
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        out
    }

    /// Write CSV to `results/<name>.csv` and echo the text table.
    pub fn save_and_print(&self, results_dir: &Path, name: &str) {
        std::fs::create_dir_all(results_dir).expect("create results dir");
        let path = results_dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv()).expect("write csv");
        println!("{}", self.to_text());
        println!("[saved {}]\n", path.display());
    }
}

/// Split one CSV line into fields, undoing [`Table::to_csv`]'s quoting: a
/// field holding `,` or `"` is wrapped in quotes with every inner quote
/// doubled.
fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut rest = line;
    loop {
        let field;
        if let Some(quoted) = rest.strip_prefix('"') {
            let mut unquoted = String::new();
            let mut tail = quoted;
            loop {
                let end = tail
                    .find('"')
                    .ok_or_else(|| format!("unterminated quoted field in {line:?}"))?;
                unquoted.push_str(&tail[..end]);
                tail = &tail[end + 1..];
                match tail.strip_prefix('"') {
                    Some(after) => {
                        unquoted.push('"');
                        tail = after;
                    }
                    None => break,
                }
            }
            field = unquoted;
            rest = tail;
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            field = rest[..end].to_string();
            rest = &rest[end..];
        }
        fields.push(field);
        match rest.strip_prefix(',') {
            Some(after) => rest = after,
            None if rest.is_empty() => return Ok(fields),
            None => return Err(format!("text after a closing quote in {line:?}")),
        }
    }
}

/// Format a float compactly.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escapes_and_aligns() {
        let t = Table::of([("a", "1,2".to_string()), ("b", "x".to_string())]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,2\""));
        let text = t.to_text();
        assert!(text.contains('a') && text.contains('x'));
    }

    #[test]
    fn float_formats() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(123.4), "123");
        assert_eq!(f(1.5), "1.500");
        assert!(f(1e9).contains('e'));
    }

    #[test]
    fn csv_parse_splits_headers_and_rows() {
        let t = Table::parse_csv("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.headers, vec!["a", "b"]);
        assert_eq!(t.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn csv_parse_undoes_the_writers_quoting_or_fails() {
        let t = Table::parse_csv("a,\"b,c\"\n\"say \"\"hi\"\", ok\",2\n\"\",\n").unwrap();
        assert_eq!(t.headers, vec!["a", "b,c"]);
        assert_eq!(t.rows, vec![vec!["say \"hi\", ok", "2"], vec!["", ""]]);
        let back = Table::parse_csv(&t.to_csv()).unwrap();
        assert_eq!((back.headers, back.rows), (t.headers, t.rows));
        for bad in [
            "a,b\n\"open,2\n",
            "a,b\n\"x\"y,2\n",
            "a,b\n1,2,3\n",
            "a,b\n1\n",
        ] {
            assert!(Table::parse_csv(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
