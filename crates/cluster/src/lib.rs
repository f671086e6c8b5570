//! # bionic-cluster — a deterministic multi-node bionic DBMS
//!
//! The paper's bionic engine is a single box: cores, specialized units,
//! and a log engine behind one dispatcher. This crate asks the next
//! question — what does a *cluster* of bionic boxes look like — and
//! answers it the same way the rest of the repo answers everything: as a
//! deterministic simulation whose artifacts are byte-identical for any
//! seed or job count.
//!
//! Three layers:
//!
//! * [`net`] — the interconnect. Per-directed-link latency plus
//!   injectable faults (drop / duplicate / delay / partition, basis-point
//!   rates) driven by per-link [`SplitMix64`](bionic_sim::rng::SplitMix64)
//!   substreams. A knob at zero draws nothing, so an unarmed network is
//!   bit-for-bit a latency model.
//! * [`cluster`] — N nodes, each owning a full [`Engine`]
//!   (own WAL, buffer pool, platform, telemetry), joined by crash-safe
//!   presumed-abort two-phase commit: participants vote YES only after a
//!   durable `Prepare` record, the coordinator's only durable word is a
//!   commit decision in its own WAL, and recovery resolves in-doubt
//!   branches from the logs ([`Engine::restart_resolving`]). Timeouts,
//!   bounded-backoff retries, participant dedup tables (exactly-once
//!   under duplication and redelivery), and a WAL-only atomicity oracle
//!   ([`Cluster::verify_atomicity`]) close the loop.
//! * telemetry — per-node metrics and spans merge under `node{n}/`
//!   prefixes into single cluster-wide artifacts
//!   ([`Cluster::merged_metrics`], [`Cluster::merged_chrome_trace`]).
//!
//! The load side is [`bionic_workloads::PartitionedWorkload`]: one
//! benchmark population per node and a seeded router that injects a
//! tunable fraction of cross-partition transactions.
//!
//! [`Engine`]: bionic_core::engine::Engine
//! [`Engine::restart_resolving`]: bionic_core::engine::Engine::restart_resolving
//! [`Cluster::verify_atomicity`]: cluster::Cluster::verify_atomicity
//! [`Cluster::merged_metrics`]: cluster::Cluster::merged_metrics
//! [`Cluster::merged_chrome_trace`]: cluster::Cluster::merged_chrome_trace

#![deny(missing_docs)]

pub mod cluster;
mod gtxn;
pub mod net;

pub use cluster::{Cluster, ClusterConfig, ClusterReport, CoordStep, Node, GTXN_BASE};
pub use net::{Delivery, NetConfig, NetStats, Network};
