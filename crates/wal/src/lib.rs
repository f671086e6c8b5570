//! # bionic-wal — write-ahead logging, §5.4's offload target
//!
//! "The DORA system eliminates most locking …, leaving the database log as
//! the main centralized service." This crate supplies that service three
//! ways, plus recovery downstream of it:
//!
//! * [`record`] — length-prefixed binary log records with before/after
//!   images and per-transaction `prev_lsn` chains;
//! * [`manager::LogManager`] — LSN assignment, the volatile/durable split,
//!   checkpoints, crash images;
//! * [`timing`] — how long an insert takes under contention: latch-serial
//!   ([`timing::LatchedLog`]), consolidation-array (\[7\],
//!   [`timing::ConsolidatedLog`]), and the paper's per-socket-aggregating
//!   hardware engine ([`timing::HwLog`]); group commit to the SSD;
//! * [`recovery`] — ARIES-style analysis/redo/undo with CLRs, shared with
//!   the runtime abort path.

#![deny(missing_docs)]

pub mod manager;
pub mod record;
pub mod recovery;
pub mod timing;

pub use manager::{LogIter, LogManager};
pub use record::{ClrAction, LogBody, LogBodyRef, LogRecord, Lsn, TxnId, NULL_LSN};
pub use recovery::{recover, undo_txn, RecoveryOutcome};
pub use timing::{
    ConsolidatedLog, GroupCommit, HwLog, HwLogConfig, InsertTiming, LatchedLog, LogInsertModel,
    SwLogParams,
};
