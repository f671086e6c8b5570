//! Run reports: a structured per-experiment scoreboard, its JSON/markdown
//! renderers, a schema-checking parser, and the regression differ.
//!
//! A *run report* condenses one harness run (the CSV tables the cells
//! wrote) into a single machine-readable artifact: per-experiment columns
//! and rows carried verbatim from the CSVs, plus automatic detector
//! verdicts (the E13 contention knee, the E14 mid-band valley). Because
//! cells are byte-identical across `--jobs`, so is the report.
//!
//! The crate has no serde (vendored-deps-only build), so JSON is
//! hand-rolled both ways: [`JsonValue`] is written with a fixed key
//! order and parsed with a small recursive-descent reader. Numbers are
//! kept as their **raw source tokens** end to end — the differ parses
//! them to `f64` only to compare, never to re-format — which makes
//! report → parse → diff pipelines byte-exact.

use crate::export::json_escape;

/// A parsed or under-construction JSON value. Object keys keep insertion
/// order; numbers keep their raw token so round-trips are byte-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"1.234e6"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Numeric view of this value (`Num` tokens parsed as `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// String view of this value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array view of this value.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render as compact JSON, keys in stored order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(s) => out.push_str(s),
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Is `s` a valid JSON number token? (Strict: what the writer may emit
/// unquoted.)
pub fn is_json_number(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if b.is_empty() {
        return false;
    }
    if b[i] == b'-' {
        i += 1;
    }
    let int_start = i;
    while i < b.len() && b[i].is_ascii_digit() {
        i += 1;
    }
    if i == int_start || (b[int_start] == b'0' && i > int_start + 1) {
        return false;
    }
    if i < b.len() && b[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        i += 1;
        if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Parse a JSON document (the subset the reporters emit: no unicode
/// escapes beyond `\uXXXX`, which is decoded).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let tok = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        if is_json_number(tok) {
            Ok(JsonValue::Num(tok.to_string()))
        } else {
            Err(format!("bad number {tok:?} at offset {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (may be multi-byte).
                    let rest = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

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
    /// [`RunReport::to_json`]. Errors name the offending field.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = parse_json(text)?;
        let schema = doc
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("missing schema tag")?;
        if schema != REPORT_SCHEMA {
            return Err(format!(
                "unknown schema {schema:?}, expected {REPORT_SCHEMA:?}"
            ));
        }
        let scale = doc
            .get("scale")
            .and_then(|v| v.as_str())
            .ok_or("missing scale")?
            .to_string();
        let mut experiments = Vec::new();
        for (n, e) in doc
            .get("experiments")
            .and_then(|v| v.as_arr())
            .ok_or("missing experiments array")?
            .iter()
            .enumerate()
        {
            let id = e
                .get("id")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("experiment {n}: missing id"))?
                .to_string();
            let table = e
                .get("table")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("{id}: missing table"))?
                .to_string();
            let columns: Vec<String> = e
                .get("columns")
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("{id}: missing columns"))?
                .iter()
                .map(|c| c.as_str().unwrap_or_default().to_string())
                .collect();
            let mut rows = Vec::new();
            for (rn, row) in e
                .get("rows")
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("{id}: missing rows"))?
                .iter()
                .enumerate()
            {
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
                rows.push(
                    cells
                        .iter()
                        .map(|c| match c {
                            JsonValue::Num(s) => s.clone(),
                            JsonValue::Str(s) => s.clone(),
                            other => other.to_json(),
                        })
                        .collect(),
                );
            }
            let mut detectors = Vec::new();
            for d in e
                .get("detectors")
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("{id}: missing detectors"))?
            {
                detectors.push(DetectorResult {
                    name: d
                        .get("name")
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| format!("{id}: detector missing name"))?
                        .to_string(),
                    found: matches!(d.get("found"), Some(JsonValue::Bool(true))),
                    at: d
                        .get("at")
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string(),
                    details: d
                        .get("details")
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string(),
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

    /// The column index named `col` in experiment `id`, if both exist.
    pub fn column(&self, id: &str, col: &str) -> Option<usize> {
        self.experiments
            .iter()
            .find(|e| e.id == id)?
            .columns
            .iter()
            .position(|c| c == col)
    }
}

/// First index along a monotone sweep where `y` exceeds `factor` times
/// the first point's `y` — the E13 contention-knee detector. Returns
/// `None` when the series never crosses or the baseline is zero.
pub fn detect_knee(ys: &[f64], factor: f64) -> Option<usize> {
    let y0 = *ys.first()?;
    if y0 <= 0.0 {
        return None;
    }
    ys.iter().position(|&y| y >= factor * y0)
}

/// Index of a strict interior extremum — `valley` picks the dip, used
/// for the E14 mid-band latency valley (a point lower than both
/// neighbours); inverted it would find a peak. Endpoints never qualify.
pub fn detect_valley(ys: &[f64]) -> Option<usize> {
    (1..ys.len().saturating_sub(1)).find(|&i| ys[i] < ys[i - 1] && ys[i] < ys[i + 1])
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

/// Split one CSV line into fields, undoing the bench `Table` writer's
/// quoting: a field holding `,` or `"` is wrapped in quotes with every
/// inner quote doubled.
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

/// Split a CSV produced by the bench `Table` writer into `(headers,
/// rows)`. Honours the writer's quoting; a malformed quote or a row whose
/// width differs from the header's is an error, never a shifted column.
pub fn parse_csv(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
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
    Ok((headers, rows))
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

    #[test]
    fn number_tokens_survive_verbatim() {
        let json = "{\"a\":[1.230e6,0.5,-3,\"x\"]}";
        let v = parse_json(json).expect("parse");
        assert_eq!(v.to_json(), json);
    }

    #[test]
    fn is_json_number_is_strict() {
        for good in ["0", "-1", "12.5", "1.234e6", "3e-2", "0.500"] {
            assert!(is_json_number(good), "{good}");
        }
        for bad in ["", "01", "+1", ".5", "1.", "1e", "nan", "inf", "1 "] {
            assert!(!is_json_number(bad), "{bad}");
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

    #[test]
    fn csv_parse_splits_headers_and_rows() {
        let (h, r) = parse_csv("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(h, vec!["a", "b"]);
        assert_eq!(r, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn csv_parse_undoes_the_writers_quoting_or_fails() {
        let (h, r) = parse_csv("a,\"b,c\"\n\"say \"\"hi\"\", ok\",2\n\"\",\n").unwrap();
        assert_eq!(h, vec!["a", "b,c"]);
        assert_eq!(r, vec![vec!["say \"hi\", ok", "2"], vec!["", ""]]);
        for bad in [
            "a,b\n\"open,2\n",
            "a,b\n\"x\"y,2\n",
            "a,b\n1,2,3\n",
            "a,b\n1\n",
        ] {
            assert!(parse_csv(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
