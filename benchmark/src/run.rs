//! One workload, one process: the end-to-end run (`--trace 0`).
//!
//! Epoch `e` runs on `--seed + e`. The leading *model epochs* (a constant
//! per workload: 4, or 24 single-call epochs on `htap_scan`) always run in
//! full and alone supply every model-time number (averaged over them), the
//! allocation counts and the count ledger, so those repeat bit for bit
//! whatever the host does (peak memory is sampled when the first ends). Several of them, because
//! across seeds a single epoch's counts swing (a table that doubles inside
//! the timed blocks on one seed and before them on another moves
//! `alloc_bytes_per_txn` by 7 %). Further epochs are started while the
//! run's wall clock plus the longest epoch so far still fits `--seconds`;
//! they only add timed blocks and set-up samples.

use std::time::Instant;

use crate::counts::Counts;
use crate::epoch::{Block, EpochCtx, EpochOut, Fnv, Model, Variant};
use crate::reference::{HostSpeed, Reference};
use crate::spans::Tracer;
use crate::spec::{Scale, END_TO_END};
use crate::stats::quantile;
use crate::workloads;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `tatp_bionic`.
    Tatp,
    /// `tpcc_software`.
    Tpcc,
    /// `htap_scan`.
    Htap,
    /// `cluster_2pc`.
    Cluster,
}

impl Workload {
    /// All four, in [`crate::spec::WORKLOADS`] order.
    pub const ALL: [Workload; 4] = [
        Workload::Tatp,
        Workload::Tpcc,
        Workload::Htap,
        Workload::Cluster,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize]
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one epoch.
    pub fn epoch(self, ctx: &mut EpochCtx<'_>) -> EpochOut {
        match self {
            Workload::Tatp => workloads::tatp::epoch(ctx),
            Workload::Tpcc => workloads::tpcc::epoch(ctx),
            Workload::Htap => workloads::htap::epoch(ctx),
            Workload::Cluster => workloads::cluster::epoch(ctx),
        }
    }

    /// Leading epochs that supply the model-time numbers.
    pub fn model_epochs(self, scale: &Scale) -> u32 {
        match self {
            Workload::Tatp => scale.tatp.model_epochs,
            Workload::Tpcc => scale.tpcc.model_epochs,
            Workload::Htap => scale.htap.model_epochs,
            Workload::Cluster => scale.cluster.model_epochs,
        }
    }

    /// How far the workload's slowdown on a loaded host follows the
    /// reference's shared-cache kernel, the rest following its core-local
    /// one (`src/reference.rs`): 0.8 where the population is far larger
    /// than the caches, 0.6 where it fits them.
    pub fn cache_weight(self) -> f64 {
        match self {
            Workload::Tatp | Workload::Tpcc => 0.8,
            Workload::Htap | Workload::Cluster => 0.6,
        }
    }

    /// The instrumentation the workload is defined with.
    pub fn default_variant(self) -> Variant {
        match self {
            Workload::Htap => Variant::Attrib,
            _ => Variant::Bare,
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the wall-clock budget epochs are fitted into.
    pub seconds: f64,
    /// Transaction counts.
    pub scale: Scale,
    /// Self-test only: slow `tatp_bionic`'s timed loop down by this share
    /// with a busy-wait inside each `core.submit` span.
    pub inject_share: Option<f64>,
    /// Test only: falsify every oracle's expectation.
    pub corrupt_oracle: bool,
    /// Also print every block's and set-up's wall time and reference
    /// samples (`--dump-blocks`), for auditing the estimators offline.
    pub dump_blocks: bool,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Every oracle passed and every model-time check held.
    pub correct: bool,
    /// Transactions submitted in timed blocks and model phases.
    pub attempted: u64,
    /// Transactions of epochs whose oracle failed, plus interrupted ones.
    pub failed: u64,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Hash of every model-time number and count.
    pub model_digest: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line the acceptance driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything a run prints, result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {} {} {} {}\n",
                self.workload,
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        out.push_str(&format!(
            "model_digest {} {:#018x}\n",
            self.workload, self.model_digest
        ));
        for p in &self.problems {
            out.push_str(&format!("problem {} {p}\n", self.workload));
        }
        out.push_str(&self.json_line());
        out.push('\n');
        out
    }
}

/// A number as measured, with all its digits (Rust's shortest round-trip
/// form); JSON has no NaN or infinity, so those read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The pooled results of a sequence of epochs.
pub struct Pass {
    /// Set-up wall time of every epoch, s, and the host's speed over it.
    pub setups: Vec<(f64, HostSpeed)>,
    /// Every timed block, epochs in order.
    pub blocks: Vec<Block>,
    /// How many leading blocks belong to model epochs.
    pub model_blocks: usize,
    /// `VmHWM` when the first epoch ended, MB.
    pub first_epoch_peak_rss_mb: f64,
    /// Model-time results of the model epochs.
    pub models: Vec<Model>,
    /// The count ledger of the model epochs.
    pub counts: Counts,
    /// Transactions submitted in timed blocks and model phases.
    pub attempted: u64,
    /// Transactions of epochs whose oracle failed.
    pub failed: u64,
    /// Oracle failures, one message each.
    pub problems: Vec<String>,
    /// The last epoch, engine and recorded keys included.
    pub last: Option<EpochOut>,
}

impl Pass {
    /// Wall ns per submitted transaction of every block.
    pub fn ns_per_txn(&self) -> Vec<f64> {
        self.blocks.iter().map(Block::ns_per_txn).collect()
    }

    /// The host's slowdown beside every block.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| b.speed.slowdown()).collect()
    }

    /// Every block's wall ns per transaction in reference-host nanoseconds:
    /// divided by how much slower than nominal the reference ran right
    /// beside it. Interference on a shared machine slows the block and the
    /// reference alike; the ratio cancels the machine's state of the moment.
    pub fn ref_ns_per_txn(&self) -> Vec<f64> {
        self.blocks.iter().map(Block::ref_ns_per_txn).collect()
    }

    /// `host_ns_per_txn`: the lower quartile of the blocks, in
    /// reference-host nanoseconds. A low quantile because what interference
    /// is left after normalising still only adds time; not the decile the
    /// issue named because one reference sample is itself noisy, and the
    /// smallest ratios are the ones whose sample was hit (`README.md` has
    /// both measured).
    pub fn host_ns_per_txn(&self) -> f64 {
        quantile(&self.ref_ns_per_txn(), 0.25)
    }

    /// Every set-up in reference-host seconds.
    pub fn ref_setups_s(&self) -> Vec<f64> {
        self.setups
            .iter()
            .map(|(s, speed)| s / speed.slowdown())
            .collect()
    }

    /// `setup_s`: the median over epochs of set-up time, in reference-host
    /// seconds.
    pub fn setup_s(&self) -> f64 {
        crate::stats::median(&self.ref_setups_s())
    }
}

/// Run epochs `0, 1, …` of `opts.workload` until `more(epochs done, wall s
/// of the longest)` says stop; the model epochs always run. `reference` is
/// the process's one host-speed reference (built first thing, so its
/// memory layout, hence its speed, is the same in every process).
pub fn run_pass(
    opts: &RunOpts,
    variant: Variant,
    tr: &mut Tracer,
    reference: &mut Reference,
    mut more: impl FnMut(u32, f64) -> bool,
) -> Pass {
    let model_epochs = opts.workload.model_epochs(&opts.scale);
    let mut pass = Pass {
        setups: Vec::new(),
        blocks: Vec::new(),
        model_blocks: 0,
        first_epoch_peak_rss_mb: 0.0,
        models: Vec::new(),
        counts: Counts::default(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        last: None,
    };
    let mut longest_s = 0f64;
    let mut e = 0u32;
    loop {
        // Drop the previous epoch's engine before building the next, so
        // peak memory is one epoch's.
        pass.last = None;
        let t = Instant::now();
        let mut out = opts.workload.epoch(&mut EpochCtx {
            seed: opts.seed.wrapping_add(u64::from(e)),
            scale: &opts.scale,
            tr,
            variant,
            want_model: e < model_epochs,
            counts: &mut pass.counts,
            reference,
            inject_share: opts.inject_share,
            corrupt_oracle: opts.corrupt_oracle,
        });
        longest_s = longest_s.max(t.elapsed().as_secs_f64());
        pass.setups
            .push((out.setup_ns as f64 / 1e9, out.setup_speed));
        pass.blocks.extend_from_slice(&out.blocks);
        pass.attempted += out.submitted;
        if let Err(why) = &out.oracle {
            pass.failed += out.submitted;
            pass.problems.push(format!("epoch {e}: oracle: {why}"));
        }
        if let Some(m) = out.model.take() {
            pass.models.push(m);
            pass.model_blocks = pass.blocks.len();
        }
        if e == 0 {
            pass.first_epoch_peak_rss_mb = peak_rss_mb();
        }
        pass.last = Some(out);
        e += 1;
        if e >= model_epochs && !more(e, longest_s) {
            return pass;
        }
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:") as f64 / 1024.0
}

/// Threads of this process.
pub fn thread_count() -> u64 {
    proc_status("Threads:")
}

/// The number on line `key` of `/proc/self/status` (kB for memory lines).
fn proc_status(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Mean of one model-time number over the model epochs.
fn mean(models: &[Model], f: impl Fn(&Model) -> f64) -> f64 {
    models.iter().map(f).sum::<f64>() / models.len() as f64
}

/// The model-time half of the end-to-end metrics, the checks that guard
/// it, and the digest over it and the count ledger.
pub struct ModelSummary {
    /// `sim_txn_per_s`, `sim_p50_us`, `sim_p99_us`, `sim_joules_per_txn`,
    /// `failed_frac`, `allocs_per_txn`, `alloc_bytes_per_txn` by name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines.
    pub notes: Vec<String>,
    /// Violated checks.
    pub problems: Vec<String>,
    /// `model_digest`.
    pub digest: u64,
}

/// Summarise the model epochs of `pass`.
pub fn model_summary(pass: &Pass) -> ModelSummary {
    let models = &pass.models;
    let submitted: u64 = models.iter().map(|m| m.submitted).sum();
    let not_committed: u64 = models.iter().map(|m| m.not_committed).sum();
    let model_blocks = &pass.blocks[..pass.model_blocks];
    let block_txns: u64 = model_blocks.iter().map(|b| b.txns).sum();
    let allocs: u64 = model_blocks.iter().map(|b| b.allocs).sum();
    let alloc_bytes: u64 = model_blocks.iter().map(|b| b.alloc_bytes).sum();
    let values = vec![
        ("allocs_per_txn", allocs as f64 / block_txns as f64),
        (
            "alloc_bytes_per_txn",
            alloc_bytes as f64 / block_txns as f64,
        ),
        ("sim_txn_per_s", mean(models, |m| m.sim_txn_per_s)),
        ("sim_p50_us", mean(models, |m| m.sim_p50_us)),
        ("sim_p99_us", mean(models, |m| m.sim_p99_us)),
        ("sim_joules_per_txn", mean(models, |m| m.sim_joules_per_txn)),
        (
            "failed_frac",
            (not_committed + pass.failed) as f64 / submitted as f64,
        ),
    ];

    let samples: u64 = models.iter().map(|m| m.latency_samples).sum();
    let backlog = models.iter().map(|m| m.backlog_p99s).fold(0f64, f64::max);
    let mut problems = Vec::new();
    // `None` sorts first: one epoch without a count leaves the claim unmade.
    let support = match models.iter().map(|m| m.beyond_p99).min().flatten() {
        Some(beyond) => {
            if beyond < 10 {
                problems.push(format!(
                    "p99 rests on {beyond} samples beyond it; at least 10 are required"
                ));
            }
            format!("at least {beyond} counted beyond each p99")
        }
        None => format!(
            "none countable beyond p99 (the report gives percentiles only; {} rank above it)",
            samples / 100
        ),
    };
    let notes = vec![format!(
        "latency samples {samples}, {support}, \
         last completion trails last arrival by {backlog:.2} p99s"
    )];
    if backlog > 10.0 {
        problems.push(format!(
            "growing backlog: the last completion trails the last arrival by {backlog:.1} p99s"
        ));
    }

    let mut h = Fnv::default();
    for (name, v) in values.iter().chain(pass.counts.per_layer().iter()) {
        h.bytes(name.as_bytes());
        h.word(v.to_bits());
    }
    h.word(submitted);
    h.word(not_committed);
    ModelSummary {
        values,
        notes,
        problems,
        digest: h.0,
    }
}

/// The end-to-end run: every end-to-end metric of one workload.
pub fn run_end_to_end(opts: &RunOpts) -> Outcome {
    let started = Instant::now();
    let pass = run_pass(
        opts,
        opts.workload.default_variant(),
        &mut Tracer::off(),
        &mut Reference::new(opts.workload.cache_weight()),
        |_, longest_s| started.elapsed().as_secs_f64() + longest_s <= opts.seconds,
    );
    let summary = model_summary(&pass);
    let value_of = |name: &str| -> f64 {
        match name {
            "setup_s" => pass.setup_s(),
            "host_ns_per_txn" => pass.host_ns_per_txn(),
            // Sampled when the first epoch ends — a fixed point of the
            // execution, so how many further epochs the host fitted in
            // cannot move it, and what one epoch needs, so how the
            // allocator fragments over many cannot either (after four
            // `cluster_2pc` epochs that alone spread by 7 % across seeds).
            "peak_rss_mb" => pass.first_epoch_peak_rss_mb,
            _ => summary
                .values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("every end-to-end metric is produced"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value_of(m.name),
            unit: m.unit,
        })
        .collect();

    let per_txn = pass.ns_per_txn();
    let mut notes = vec![format!(
        "run {} seed {} epochs {} blocks {} timed_s {:.2} wall_s {:.2} block_p50_ns_per_txn {:.1}",
        opts.workload.name(),
        opts.seed,
        pass.setups.len(),
        pass.blocks.len(),
        pass.blocks.iter().map(|b| b.ns).sum::<u64>() as f64 / 1e9,
        started.elapsed().as_secs_f64(),
        quantile(&per_txn, 0.5),
    )];
    let deciles = |v: &[f64]| {
        [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0]
            .iter()
            .map(|&q| format!("p{:.0} {:.4e}", 100.0 * q, quantile(v, q)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!("blocks wall ns_per_txn {}", deciles(&per_txn)));
    notes.push(format!(
        "blocks reference-host ns_per_txn {}",
        deciles(&pass.ref_ns_per_txn())
    ));
    notes.push(format!("host slowdown {}", deciles(&pass.slowdowns())));
    notes.push(format!(
        "setup reference-host s {}",
        deciles(&pass.ref_setups_s())
    ));
    if opts.dump_blocks {
        let speed = |s: HostSpeed| format!("{:.0}:{:.0}", s.cache_ns, s.core_ns);
        notes.push(format!(
            "blocks ns_per_txn:cache_ns:core_ns {}",
            pass.blocks
                .iter()
                .map(|b| format!("{:.1}:{}", b.ns_per_txn(), speed(b.speed)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        notes.push(format!(
            "setups s:cache_ns:core_ns {}",
            pass.setups
                .iter()
                .map(|(s, sp)| format!("{s:.6}:{}", speed(*sp)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    notes.extend(summary.notes);
    for (name, v) in pass.counts.per_layer() {
        notes.push(format!(
            "count {} {name} {}",
            opts.workload.name(),
            json_number(v)
        ));
    }
    let mut problems = pass.problems.clone();
    problems.extend(summary.problems);
    Outcome {
        workload: opts.workload.name(),
        correct: problems.is_empty(),
        attempted: pass.attempted,
        failed: pass.failed,
        metrics,
        model_digest: summary.digest,
        notes,
        problems,
    }
}
