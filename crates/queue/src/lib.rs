//! # bionic-queue — DORA's queues and the hardware queuing engine (§5.5)
//!
//! DORA "uses queues extensively, to impose regularity on access patterns,
//! eliminate contention hotspots, and hide latencies due to partition
//! crossing and log synchronization." This crate supplies:
//!
//! * [`action_queue::ActionQueue`] — the per-partition FIFO the simulated
//!   engine routes actions through;
//! * [`timing`] — what en/dequeues cost: software cache-line hand-offs
//!   (cross-socket pays the interconnect) vs. the QOLB-style \[8\] hardware
//!   queue engine;
//! * [`sched`] — the agent parking/convoy simulation behind the paper's
//!   caveat that "hardware … will not magically solve the scheduling
//!   problem".

#![deny(missing_docs)]

pub mod action_queue;
pub mod sched;
pub mod timing;

pub use action_queue::{ActionQueue, QueueStats};
pub use sched::{simulate_chain, ChainReport, ParkPolicy};
pub use timing::{HwQueueConfig, HwQueueTiming, QueueOpCost, SwQueueParams, SwQueueTiming};
