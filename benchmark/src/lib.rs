//! # bionic-benchmark — the repo's performance ruler
//!
//! Four long single-threaded workloads over the public functions of
//! `workloads`, `core`, `scan`, `cluster`, `wal` and `telemetry` (called
//! exactly as `bench::experiments` calls them), ten end-to-end metrics in
//! model time and host time, and a traced per-layer ledger. See
//! `benchmark/README.md` for how to run it and what every name means.
//!
//! Everything runs on the calling thread: no helper threads, never two
//! workloads at once, fixed transaction counts.

#![deny(missing_docs)]

pub mod alloc;
pub mod counts;
pub mod epoch;
pub mod gates;
pub mod kernels;
pub mod reference;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
