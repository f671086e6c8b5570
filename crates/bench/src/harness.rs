//! Parallel experiment harness.
//!
//! Every experiment is decomposed into independent **cells** — pure
//! `FnOnce() -> CellOut` closures closed over nothing but their own
//! configuration (each cell builds its own engine, generators, and seeds).
//! The cell is the only unit of work: a work-queue runner executes every
//! cell on `jobs` worker threads, results are collected **by (experiment,
//! cell) index**, and every table row, CSV byte, and printed line is
//! produced on the main thread in fixed experiment/cell order.
//! Consequently the contents of `results/*.csv` are byte-identical for
//! every `jobs` value — parallelism only changes wall-clock time (reported
//! separately in `harness_timing.csv`, the one file that legitimately
//! differs run to run).
//!
//! Cells are enqueued in descending [`Cell::cost`] order (stable on ties),
//! so the long E8/E13 measurement cells start immediately instead of
//! queueing behind dozens of cheap cells and serializing the makespan as a
//! straggler tail. The schedule is deterministic and, because collection
//! is by index, it cannot affect output bytes.
//!
//! Determinism rules for cells (see DESIGN.md):
//! 1. no printing and no file I/O inside a cell;
//! 2. no shared mutable state — all RNG seeding is per-cell and fixed;
//! 3. all cross-cell derivation (baselines, ratios, claims) happens in the
//!    experiment's `claims` step from the collected outputs.

use crate::Table;
use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// What one cell computes: table fragments, scalars for cross-cell
/// derivation, and free-form note lines. Everything is plain data — cells
/// never touch stdout or the filesystem.
#[derive(Debug, Default)]
pub struct CellOut {
    /// Named tables (or fragments of a table shared across cells). The
    /// harness merges fragments with the same name in cell order.
    pub tables: Vec<(String, Table)>,
    /// Scalars consumed by the experiment's `claims` step.
    pub values: Vec<f64>,
    /// Lines printed (in cell order) after the experiment's tables.
    pub notes: Vec<String>,
}

impl CellOut {
    /// A cell output carrying one table.
    pub fn table(name: impl Into<String>, table: Table) -> Self {
        CellOut {
            tables: vec![(name.into(), table)],
            ..Default::default()
        }
    }

    /// A cell output carrying one note line.
    pub(crate) fn note(note: impl Into<String>) -> Self {
        CellOut {
            notes: vec![note.into()],
            ..Default::default()
        }
    }
}

/// One experiment cell: a closure and a relative cost hint used only to
/// order the work queue.
pub struct Cell {
    work: Box<dyn FnOnce() -> CellOut + Send>,
    cost: u64,
}

impl Cell {
    /// A cell running `f`, at the default cost of 1.
    pub fn new(f: impl FnOnce() -> CellOut + Send + 'static) -> Self {
        Cell {
            work: Box::new(f),
            cost: 1,
        }
    }

    /// Attach a scheduling cost hint (arbitrary relative units; higher
    /// runs earlier). Purely a wall-clock lever — never affects output.
    pub fn cost(mut self, cost: u64) -> Self {
        self.cost = cost.max(1);
        self
    }
}

/// The serial cross-cell step of an experiment: receives every cell's
/// output in cell-index order after their tables and notes have been
/// printed, checks the sweep-wide asserts, and returns what only the whole
/// sweep can say — claim lines as notes, cross-cell tables as tables.
pub type ClaimsFn = Box<dyn FnOnce(&[CellOut]) -> CellOut>;

/// One experiment: an id, a banner line, parallel cells, and the optional
/// cross-cell step. The harness does everything else: merge the cells'
/// table fragments, save and print each table, print the notes.
pub struct Experiment {
    /// Short id (`f1` … `e16`).
    pub id: &'static str,
    /// Banner printed before the experiment's output.
    pub title: &'static str,
    /// Independent units of work.
    pub cells: Vec<Cell>,
    /// Claims, asserts and tables derived from all cells together.
    pub claims: Option<ClaimsFn>,
}

/// Merge cell outputs into whole tables, in first-seen (cell, table)
/// order. Fragments sharing a name must share headers.
pub fn merge_tables(outs: &[CellOut]) -> Vec<(String, Table)> {
    let mut merged: Vec<(String, Table)> = Vec::new();
    for out in outs {
        for (name, frag) in &out.tables {
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((_, t)) => {
                    assert_eq!(t.headers, frag.headers, "fragment headers differ: {name}");
                    t.rows.extend(frag.rows.iter().cloned());
                }
                None => merged.push((name.clone(), frag.clone())),
            }
        }
    }
    merged
}

/// Merge table fragments, save and print each table, then print every
/// note in cell order.
fn save_and_print(outs: &[CellOut], results_dir: &Path) {
    for (name, table) in merge_tables(outs) {
        table.save_and_print(results_dir, &name);
    }
    for note in outs.iter().flat_map(|o| &o.notes) {
        println!("{note}");
    }
}

/// Wall-clock accounting for one experiment within a run.
#[derive(Debug, Clone)]
pub struct ExperimentTiming {
    /// Experiment id.
    pub id: &'static str,
    /// Number of cells run.
    pub cells: usize,
    /// Sum of per-cell execution times (the serial cost).
    pub serial_seconds: f64,
    /// First-cell-start to last-cell-end (the parallel cost).
    pub makespan_seconds: f64,
}

/// Wall-clock accounting for a whole run.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Worker count used.
    pub jobs: usize,
    /// Per-experiment timings, in run order.
    pub per_experiment: Vec<ExperimentTiming>,
    /// Sum of all cell times (what `--jobs 1` would roughly cost).
    pub serial_seconds: f64,
    /// Elapsed time of the parallel cell phase.
    pub wall_seconds: f64,
}

impl RunTiming {
    /// Render as the `harness_timing.csv` table.
    pub fn table(&self) -> Table {
        let row = |experiment: String, cells: usize, serial: f64, makespan: f64| {
            [
                ("experiment", experiment),
                ("cells", cells.to_string()),
                ("serial_seconds", format!("{serial:.3}")),
                ("makespan_seconds", format!("{makespan:.3}")),
                (
                    "speedup",
                    format!(
                        "{:.2}",
                        if makespan > 0.0 {
                            serial / makespan
                        } else {
                            1.0
                        }
                    ),
                ),
            ]
        };
        let mut t = Table::default();
        for e in &self.per_experiment {
            t.push(row(
                e.id.to_string(),
                e.cells,
                e.serial_seconds,
                e.makespan_seconds,
            ));
        }
        t.push(row(
            format!("TOTAL(jobs={})", self.jobs),
            self.per_experiment.iter().map(|e| e.cells).sum(),
            self.serial_seconds,
            self.wall_seconds,
        ));
        t
    }
}

/// Run `experiments` with `jobs` workers, then print and save each
/// experiment's output in order. Returns the timing report.
pub fn run(experiments: Vec<Experiment>, jobs: usize, results_dir: &Path) -> RunTiming {
    let jobs = jobs.max(1);
    let epoch = Instant::now();

    struct Unit {
        exp: usize,
        index: usize,
        cell: Cell,
    }
    struct Done {
        exp: usize,
        cell: usize,
        out: CellOut,
        started: f64,
        finished: f64,
    }

    let mut units: Vec<Unit> = Vec::new();
    let mut outs: Vec<Vec<Option<CellOut>>> = Vec::new();
    let mut serial_steps = Vec::with_capacity(experiments.len());
    for (exp, e) in experiments.into_iter().enumerate() {
        outs.push(e.cells.iter().map(|_| None).collect());
        units.extend(e.cells.into_iter().enumerate().map(|(index, cell)| Unit {
            exp,
            index,
            cell,
        }));
        serial_steps.push((e.id, e.title, e.claims));
    }

    // Longest-expected-first schedule: stable sort keeps ties in
    // (experiment, cell) order, so the queue is deterministic.
    units.sort_by_key(|u| std::cmp::Reverse(u.cell.cost));

    let mut timing: Vec<ExperimentTiming> = serial_steps
        .iter()
        .map(|(id, _, _)| ExperimentTiming {
            id,
            cells: 0,
            serial_seconds: 0.0,
            makespan_seconds: 0.0,
        })
        .collect();
    let mut spans: Vec<(f64, f64)> = vec![(f64::MAX, 0.0); serial_steps.len()];

    let mut record = |d: Done| {
        outs[d.exp][d.cell] = Some(d.out);
        timing[d.exp].cells += 1;
        timing[d.exp].serial_seconds += d.finished - d.started;
        spans[d.exp].0 = spans[d.exp].0.min(d.started);
        spans[d.exp].1 = spans[d.exp].1.max(d.finished);
    };

    let run_unit = |u: Unit| {
        let started = epoch.elapsed().as_secs_f64();
        let out = (u.cell.work)();
        let finished = epoch.elapsed().as_secs_f64();
        Done {
            exp: u.exp,
            cell: u.index,
            out,
            started,
            finished,
        }
    };

    if jobs == 1 {
        // Single worker: run every cell inline on this thread, in queue
        // order. Same results by construction, no thread machinery.
        for unit in units {
            record(run_unit(unit));
        }
    } else {
        // The queue is complete before the first worker starts, so a locked
        // iterator is all the work queue there is.
        let queue = Mutex::new(units.into_iter());
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let done_tx = done_tx.clone();
                let (queue, run_unit) = (&queue, &run_unit);
                scope.spawn(move || loop {
                    // Its own statement, so the guard drops before the
                    // cell runs. No holder can panic, hence no poisoning.
                    let unit = queue.lock().expect("queue lock").next();
                    let Some(unit) = unit else { break };
                    let _ = done_tx.send(run_unit(unit));
                });
            }
            drop(done_tx);
            // Ends when the last worker drops its sender; a worker that
            // panicked re-panics here when the scope joins it.
            for d in done_rx {
                record(d);
            }
        });
    }
    let wall_seconds = epoch.elapsed().as_secs_f64();

    for (t, (lo, hi)) in timing.iter_mut().zip(&spans) {
        if t.cells > 0 {
            t.makespan_seconds = hi - lo;
        }
    }

    // Deterministic serial output, in experiment order: the cells' tables
    // and notes first, so a failing sweep-wide assert panics with the
    // table it judged already on screen.
    for ((id, title, claims), cell_outs) in serial_steps.into_iter().zip(outs) {
        println!("{title}");
        let collected: Vec<CellOut> = cell_outs
            .into_iter()
            .map(|o| o.unwrap_or_else(|| panic!("missing cell output for {id}")))
            .collect();
        save_and_print(&collected, results_dir);
        if let Some(claims) = claims {
            save_and_print(&[claims(&collected)], results_dir);
        }
    }

    let serial_seconds = timing.iter().map(|t| t.serial_seconds).sum();
    RunTiming {
        jobs,
        per_experiment: timing,
        serial_seconds,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(idx: usize) -> Cell {
        Cell::new(move || CellOut {
            tables: vec![(
                "toy".into(),
                Table::of([("i", idx.to_string()), ("sq", (idx * idx).to_string())]),
            )],
            values: vec![idx as f64],
            notes: vec![],
        })
        .cost(idx as u64 % 3 + 1)
    }

    fn toy_experiment() -> Experiment {
        Experiment {
            id: "toy",
            title: "### toy",
            cells: (0..16).map(toy).collect(),
            claims: Some(Box::new(|outs| {
                let sum: f64 = outs.iter().flat_map(|o| &o.values).sum();
                assert_eq!(sum, 120.0);
                CellOut::table("toy_sum", Table::of([("sum", sum.to_string())]))
            })),
        }
    }

    #[test]
    fn results_are_collected_by_index_regardless_of_jobs() {
        let base = std::env::temp_dir().join(format!("bionic_harness_test_{}", std::process::id()));
        let mut csvs = Vec::new();
        for jobs in [1usize, 4] {
            let dir = base.join(format!("jobs{jobs}"));
            run(vec![toy_experiment()], jobs, &dir);
            csvs.push((
                std::fs::read(dir.join("toy.csv")).expect("csv written"),
                std::fs::read(dir.join("toy_sum.csv")).expect("claims table written"),
            ));
        }
        assert_eq!(csvs[0], csvs[1], "CSV bytes must not depend on --jobs");
        assert!(
            csvs[0].0.starts_with(b"i,sq\n0,0\n1,1\n2,4\n"),
            "cell order"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn merge_rejects_mismatched_fragments() {
        let a = CellOut::table("x", Table::of([("h1", String::new())]));
        let b = CellOut::table("x", Table::of([("h2", String::new())]));
        let r = std::panic::catch_unwind(|| merge_tables(&[a, b]));
        assert!(r.is_err());
    }

    /// A row names its own columns, so a row built in another order (or
    /// with another width) than the table's is caught where it is pushed.
    #[test]
    #[should_panic(expected = "row columns differ")]
    fn a_row_whose_columns_differ_from_the_tables_panics() {
        Table::of([("a", "1".to_string()), ("b", "2".to_string())])
            .push([("b", "2".to_string()), ("a", "1".to_string())]);
    }
}
