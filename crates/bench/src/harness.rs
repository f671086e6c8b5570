//! Parallel experiment harness.
//!
//! Every experiment is decomposed into independent **cells** — pure
//! `FnOnce() -> CellOut` closures closed over nothing but their own
//! configuration (each cell builds its own engine, generators, and seeds).
//! A cell may additionally be split into **shards**: sub-closures covering
//! disjoint slices of the cell's parameter/seed range whose outputs are
//! recombined by a deterministic merge (by default, concatenation in shard
//! order). A work-queue runner executes every shard on `jobs` worker
//! threads; results are collected **by (experiment, cell, shard) index**
//! and every table row, CSV byte, and printed line is produced by the
//! experiment's `assemble` step on the main thread in fixed
//! experiment/cell order. Consequently the contents of `results/*.csv`
//! are byte-identical for every `jobs` **and** `--shards` value —
//! parallelism only changes wall-clock time (reported separately in
//! `harness_timing.csv`, the one file that legitimately differs run to
//! run).
//!
//! Work units are enqueued in descending [`Cell::cost`] order (stable on
//! ties), so the long E8/E13 measurement cells start immediately instead
//! of queueing behind dozens of cheap cells and serializing the makespan
//! as a straggler tail. The schedule is deterministic and, because
//! collection is by index, it cannot affect output bytes.
//!
//! Determinism rules for cells and shards (see DESIGN.md):
//! 1. no printing and no file I/O inside a cell;
//! 2. no shared mutable state — all RNG seeding is per-shard and fixed;
//! 3. a sharded cell's decomposition must be exact: the shard outputs,
//!    merged in shard order, must equal what one closure computing the
//!    whole range would return (this is what keeps CSVs byte-identical
//!    at any `--shards` value);
//! 4. all cross-cell derivation (baselines, ratios, claims) happens in
//!    `assemble` from the collected `values`.

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
    /// assembler merges fragments with the same name in cell order.
    pub tables: Vec<(String, Table)>,
    /// Scalars consumed by the experiment's `assemble` step.
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
}

/// A unit of parallel work.
pub type CellFn = Box<dyn FnOnce() -> CellOut + Send>;

/// Deterministic recombination of per-shard outputs into one cell output.
pub type MergeFn = Box<dyn FnOnce(Vec<CellOut>) -> CellOut + Send>;

/// One experiment cell: at least one shard closure, an optional custom
/// shard merge (`None` ⇒ [`concat_outs`]), and a relative cost hint used
/// only to order the work queue.
pub struct Cell {
    shards: Vec<CellFn>,
    merge: Option<MergeFn>,
    cost: u64,
}

impl Cell {
    /// The common case: one closure, no sharding.
    pub fn one(f: impl FnOnce() -> CellOut + Send + 'static) -> Self {
        Cell {
            shards: vec![Box::new(f)],
            merge: None,
            cost: 1,
        }
    }

    /// A cell split into shard closures recombined by [`concat_outs`] —
    /// correct whenever each shard emits the rows/values/notes its slice
    /// of the range would have produced, in range order.
    pub fn sharded(shards: Vec<CellFn>) -> Self {
        assert!(!shards.is_empty(), "a cell needs at least one shard");
        Cell {
            shards,
            merge: None,
            cost: 1,
        }
    }

    /// A sharded cell with a custom deterministic merge (e.g. combining
    /// per-shard rates into one row, or per-shard `Histogram`s into one
    /// `Summary`).
    pub fn sharded_merging(
        shards: Vec<CellFn>,
        merge: impl FnOnce(Vec<CellOut>) -> CellOut + Send + 'static,
    ) -> Self {
        assert!(!shards.is_empty(), "a cell needs at least one shard");
        Cell {
            shards,
            merge: Some(Box::new(merge)),
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

/// Split `items` into at most `shards` contiguous, near-equal chunks,
/// preserving order. `shards == 1` (or a single item) yields one chunk, so
/// a sharded decomposition built on this degrades to the unsharded code
/// path exactly.
pub fn shard_items<T>(items: Vec<T>, shards: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let k = shards.max(1).min(n.max(1));
    let (base, extra) = (n / k, n % k);
    let mut out: Vec<Vec<T>> = Vec::with_capacity(k);
    let mut it = items.into_iter();
    for i in 0..k {
        let take = base + usize::from(i < extra);
        out.push(it.by_ref().take(take).collect());
    }
    out.retain(|c| !c.is_empty());
    if out.is_empty() {
        out.push(Vec::new());
    }
    out
}

/// Final, serial step of an experiment: receives every cell's output in
/// cell-index order and performs all printing and CSV writing.
pub type AssembleFn = Box<dyn FnOnce(Vec<CellOut>, &Path) + Send>;

/// One experiment: an id, a banner line, parallel cells, and the serial
/// assembly step.
pub struct Experiment {
    /// Short id (`f1` … `e14`).
    pub id: &'static str,
    /// Banner printed before the experiment's output.
    pub title: &'static str,
    /// Independent units of work.
    pub cells: Vec<Cell>,
    /// Deterministic merge + print + save step.
    pub assemble: AssembleFn,
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

/// The default shard merge: concatenate tables (fragment-wise, like
/// [`merge_tables`]), values, and notes in shard order. With shards
/// emitting their slice of the range in order, this reconstructs exactly
/// the unsharded cell's output.
pub fn concat_outs(shards: Vec<CellOut>) -> CellOut {
    // Fold every fragment (including the first shard's) into a fresh
    // accumulator so duplicate-named fragments *within* one shard are
    // canonicalized the same way as fragments across shards — otherwise a
    // later shard's rows could extend the first duplicate and jump ahead
    // of the first shard's remaining fragments.
    let mut acc = CellOut::default();
    for s in shards {
        for (name, frag) in s.tables {
            match acc.tables.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    assert_eq!(t.headers, frag.headers, "shard headers differ: {name}");
                    t.rows.extend(frag.rows);
                }
                None => acc.tables.push((name, frag)),
            }
        }
        acc.values.extend(s.values);
        acc.notes.extend(s.notes);
    }
    acc
}

/// The assembly step most experiments need: merge table fragments, save
/// and print each table, then print every note in cell order.
pub fn default_assemble(outs: Vec<CellOut>, results_dir: &Path) {
    for (name, table) in merge_tables(&outs) {
        table.save_and_print(results_dir, &name);
    }
    for out in &outs {
        for note in &out.notes {
            println!("{note}");
        }
    }
}

/// Wall-clock accounting for one experiment within a run.
#[derive(Debug, Clone)]
pub struct ExperimentTiming {
    /// Experiment id.
    pub id: &'static str,
    /// Number of scheduled work units (cell shards).
    pub cells: usize,
    /// Sum of per-unit execution times (the serial cost).
    pub serial_seconds: f64,
    /// First-unit-start to last-unit-end (the parallel cost).
    pub makespan_seconds: f64,
}

impl ExperimentTiming {
    /// Serial-over-makespan speedup for this experiment.
    pub fn speedup(&self) -> f64 {
        if self.makespan_seconds > 0.0 {
            self.serial_seconds / self.makespan_seconds
        } else {
            1.0
        }
    }
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
        let mut t = Table::new(&[
            "experiment",
            "cells",
            "serial_seconds",
            "makespan_seconds",
            "speedup",
        ]);
        for e in &self.per_experiment {
            t.row(vec![
                e.id.to_string(),
                e.cells.to_string(),
                format!("{:.3}", e.serial_seconds),
                format!("{:.3}", e.makespan_seconds),
                format!("{:.2}", e.speedup()),
            ]);
        }
        let total_cells: usize = self.per_experiment.iter().map(|e| e.cells).sum();
        t.row(vec![
            format!("TOTAL(jobs={})", self.jobs),
            total_cells.to_string(),
            format!("{:.3}", self.serial_seconds),
            format!("{:.3}", self.wall_seconds),
            format!(
                "{:.2}",
                if self.wall_seconds > 0.0 {
                    self.serial_seconds / self.wall_seconds
                } else {
                    1.0
                }
            ),
        ]);
        t
    }
}

/// Run `experiments` with `jobs` workers, then assemble each experiment in
/// order. Returns the timing report; all experiment output (tables, CSVs,
/// claims) is produced by the assembly steps.
pub fn run(experiments: Vec<Experiment>, jobs: usize, results_dir: &Path) -> RunTiming {
    let jobs = jobs.max(1);
    let epoch = Instant::now();

    struct Done {
        exp: usize,
        cell: usize,
        shard: usize,
        out: CellOut,
        started: f64,
        finished: f64,
    }

    // Flatten cells into shard work units; remember each cell's shard
    // count and merge so the outputs can be recombined afterwards.
    let mut assembles = Vec::with_capacity(experiments.len());
    let mut merges: Vec<Vec<Option<MergeFn>>> = Vec::new();
    // (cost, experiment, cell, shard, work)
    type Unit = (u64, usize, usize, usize, CellFn);
    let mut units: Vec<Unit> = Vec::new();
    let mut outs: Vec<Vec<Vec<Option<CellOut>>>> = Vec::new();
    for (ei, exp) in experiments.into_iter().enumerate() {
        let mut cell_merges = Vec::with_capacity(exp.cells.len());
        let mut cell_slots = Vec::with_capacity(exp.cells.len());
        for (ci, cell) in exp.cells.into_iter().enumerate() {
            cell_slots.push((0..cell.shards.len()).map(|_| None).collect::<Vec<_>>());
            cell_merges.push(cell.merge);
            for (si, work) in cell.shards.into_iter().enumerate() {
                units.push((cell.cost, ei, ci, si, work));
            }
        }
        merges.push(cell_merges);
        outs.push(cell_slots);
        assembles.push((exp.id, exp.title, exp.assemble));
    }

    // Longest-expected-first schedule: stable sort keeps ties in
    // (experiment, cell, shard) order, so the queue is deterministic.
    units.sort_by_key(|u| std::cmp::Reverse(u.0));

    let mut timing: Vec<ExperimentTiming> = assembles
        .iter()
        .map(|(id, _, _)| ExperimentTiming {
            id,
            cells: 0,
            serial_seconds: 0.0,
            makespan_seconds: 0.0,
        })
        .collect();
    let mut spans: Vec<(f64, f64)> = vec![(f64::MAX, 0.0); assembles.len()];

    let mut record = |d: Done, outs: &mut Vec<Vec<Vec<Option<CellOut>>>>| {
        outs[d.exp][d.cell][d.shard] = Some(d.out);
        timing[d.exp].cells += 1;
        timing[d.exp].serial_seconds += d.finished - d.started;
        spans[d.exp].0 = spans[d.exp].0.min(d.started);
        spans[d.exp].1 = spans[d.exp].1.max(d.finished);
    };

    let run_unit = |(_, exp, cell, shard, work): Unit| {
        let started = epoch.elapsed().as_secs_f64();
        let out = work();
        let finished = epoch.elapsed().as_secs_f64();
        Done {
            exp,
            cell,
            shard,
            out,
            started,
            finished,
        }
    };

    if jobs == 1 {
        // Single worker: run every unit inline on this thread, in queue
        // order. Same results by construction, no thread machinery.
        for unit in units {
            record(run_unit(unit), &mut outs);
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
                    // unit runs. No holder can panic, hence no poisoning.
                    let unit = queue.lock().expect("queue lock").next();
                    let Some(unit) = unit else { break };
                    let _ = done_tx.send(run_unit(unit));
                });
            }
            drop(done_tx);
            // Ends when the last worker drops its sender; a worker that
            // panicked re-panics here when the scope joins it.
            for d in done_rx {
                record(d, &mut outs);
            }
        });
    }
    let wall_seconds = epoch.elapsed().as_secs_f64();

    for (t, (lo, hi)) in timing.iter_mut().zip(&spans) {
        if t.cells > 0 {
            t.makespan_seconds = hi - lo;
        }
    }

    // Deterministic serial shard-merge + assembly, in experiment order.
    for (((id, title, assemble), cell_outs), cell_merges) in
        assembles.into_iter().zip(outs).zip(merges)
    {
        println!("{title}");
        let collected: Vec<CellOut> = cell_outs
            .into_iter()
            .zip(cell_merges)
            .map(|(shard_outs, merge)| {
                let shards: Vec<CellOut> = shard_outs
                    .into_iter()
                    .map(|o| o.unwrap_or_else(|| panic!("missing shard output for {id}")))
                    .collect();
                match merge {
                    Some(m) => m(shards),
                    None => concat_outs(shards),
                }
            })
            .collect();
        assemble(collected, results_dir);
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
    use bionic_sim::stats::Histogram;
    use bionic_sim::time::SimTime;

    fn toy(idx: usize) -> Cell {
        Cell::one(move || {
            let mut t = Table::new(&["i", "sq"]);
            t.row(vec![idx.to_string(), (idx * idx).to_string()]);
            CellOut {
                tables: vec![("toy".into(), t)],
                values: vec![idx as f64],
                notes: vec![],
            }
        })
        .cost(idx as u64 % 3 + 1)
    }

    fn toy_experiment() -> Experiment {
        Experiment {
            id: "toy",
            title: "### toy",
            cells: (0..16).map(toy).collect(),
            assemble: Box::new(|outs, dir| {
                let sum: f64 = outs.iter().flat_map(|o| &o.values).sum();
                assert_eq!(sum, 120.0);
                default_assemble(outs, dir);
            }),
        }
    }

    #[test]
    fn results_are_collected_by_index_regardless_of_jobs() {
        let base = std::env::temp_dir().join(format!("bionic_harness_test_{}", std::process::id()));
        let mut csvs = Vec::new();
        for jobs in [1usize, 4] {
            let dir = base.join(format!("jobs{jobs}"));
            run(vec![toy_experiment()], jobs, &dir);
            csvs.push(std::fs::read(dir.join("toy.csv")).expect("csv written"));
        }
        assert_eq!(csvs[0], csvs[1], "CSV bytes must not depend on --jobs");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A sharded experiment over a seed range: each shard simulates its
    /// slice of seeds; the cell merge records each shard's samples into a
    /// `Histogram`, folds the per-shard histograms together in shard order
    /// via `Histogram::merge`, and reports the pooled `Summary`. The
    /// resulting CSV must be byte-identical for any shards × jobs
    /// combination — the core guarantee the figure suite's `--shards`
    /// knob relies on.
    fn seed_range_experiment(shards: usize) -> Experiment {
        const SEEDS: u64 = 1000;
        let chunks = shard_items((0..SEEDS).collect(), shards);
        let shard_fns: Vec<CellFn> = chunks
            .into_iter()
            .map(|seeds| -> CellFn {
                Box::new(move || CellOut {
                    // Deterministic pseudo-latency per seed; exact as f64.
                    values: seeds.iter().map(|s| (s * s % 7919 + 1) as f64).collect(),
                    ..Default::default()
                })
            })
            .collect();
        Experiment {
            id: "seeds",
            title: "### seeds",
            cells: vec![Cell::sharded_merging(shard_fns, |outs| {
                let mut pooled = Histogram::new();
                for o in &outs {
                    let mut h = Histogram::new();
                    for &ps in &o.values {
                        h.record(SimTime::from_ps(ps as u64));
                    }
                    pooled.merge(&h);
                }
                let s = pooled.summary();
                let mut t = Table::new(&["count", "mean_ps", "p50_ps", "p99_ps", "max_ps"]);
                t.row(vec![
                    s.count.to_string(),
                    s.mean.as_ps().to_string(),
                    s.p50.as_ps().to_string(),
                    s.p99.as_ps().to_string(),
                    s.max.as_ps().to_string(),
                ]);
                CellOut::table("seed_summary", t)
            })],
            assemble: Box::new(default_assemble),
        }
    }

    #[test]
    fn sharded_seed_range_is_byte_identical_for_any_shards_and_jobs() {
        let base = std::env::temp_dir().join(format!("bionic_shard_test_{}", std::process::id()));
        let mut csvs = Vec::new();
        for (i, (shards, jobs)) in [(1usize, 1usize), (2, 4), (8, 4), (1000, 2), (5000, 1)]
            .into_iter()
            .enumerate()
        {
            let dir = base.join(format!("v{i}"));
            run(vec![seed_range_experiment(shards)], jobs, &dir);
            csvs.push(std::fs::read(dir.join("seed_summary.csv")).expect("csv written"));
        }
        for c in &csvs[1..] {
            assert_eq!(&csvs[0], c, "CSV bytes must not depend on shards or jobs");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn concat_outs_reconstructs_the_unsharded_output() {
        let row = |i: usize| {
            let mut t = Table::new(&["i"]);
            t.row(vec![i.to_string()]);
            CellOut {
                tables: vec![("x".into(), t)],
                values: vec![i as f64],
                notes: vec![format!("n{i}")],
            }
        };
        let merged = concat_outs(vec![row(0), row(1), row(2)]);
        assert_eq!(merged.tables.len(), 1);
        assert_eq!(merged.tables[0].1.rows.len(), 3);
        assert_eq!(merged.tables[0].1.rows[1][0], "1");
        assert_eq!(merged.values, vec![0.0, 1.0, 2.0]);
        assert_eq!(merged.notes, vec!["n0", "n1", "n2"]);
    }

    #[test]
    fn shard_items_is_an_exact_ordered_partition() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for shards in [1usize, 2, 3, 8, 200] {
                let chunks = shard_items((0..n).collect::<Vec<_>>(), shards);
                let flat: Vec<usize> = chunks.iter().flatten().copied().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} shards={shards}");
                assert!(chunks.len() <= shards.max(1));
                if n > 0 {
                    let max = chunks.iter().map(Vec::len).max().unwrap();
                    let min = chunks.iter().map(Vec::len).min().unwrap();
                    assert!(max - min <= 1, "near-equal chunks: n={n} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_fragments() {
        let a = CellOut::table("x", Table::new(&["h1"]));
        let b = CellOut::table("x", Table::new(&["h2"]));
        let r = std::panic::catch_unwind(|| merge_tables(&[a, b]));
        assert!(r.is_err());
    }
}
