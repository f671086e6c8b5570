//! Transaction programs: the unit of work the engine executes.
//!
//! OLTP transactions are canned programs (TATP and TPC-C are exactly that),
//! so a program here is data, not code: phases of [`Action`]s, each action
//! routed to one logical partition (DORA's decomposition \[10\]) and carrying
//! a straight-line list of [`Op`]s. Updates express their new value as a
//! [`Patch`] over the current record, which is how TATP flips subscriber
//! bits and TPC-C decrements stock quantities without closures.

/// How an update transforms the existing record image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Patch {
    /// Replace `bytes.len()` bytes starting at `offset`.
    Splice {
        /// Byte offset into the record.
        offset: usize,
        /// Replacement bytes.
        bytes: Vec<u8>,
    },
    /// Add `delta` to the little-endian i64 at `offset`.
    AddI64 {
        /// Byte offset of the counter field.
        offset: usize,
        /// Signed increment.
        delta: i64,
    },
    /// Replace the whole record.
    Overwrite(Vec<u8>),
}

/// Error applying a patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchOutOfBounds;

impl core::fmt::Display for PatchOutOfBounds {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "patch exceeds record bounds")
    }
}

impl std::error::Error for PatchOutOfBounds {}

impl Patch {
    /// Apply to a record image.
    pub fn apply(&self, record: &mut Vec<u8>) -> Result<(), PatchOutOfBounds> {
        match self {
            Patch::Splice { offset, bytes } => {
                let end = offset + bytes.len();
                if end > record.len() {
                    return Err(PatchOutOfBounds);
                }
                record[*offset..end].copy_from_slice(bytes);
                Ok(())
            }
            Patch::AddI64 { offset, delta } => {
                let end = offset + 8;
                if end > record.len() {
                    return Err(PatchOutOfBounds);
                }
                let cur = i64::from_le_bytes(record[*offset..end].try_into().unwrap());
                record[*offset..end].copy_from_slice(&cur.wrapping_add(*delta).to_le_bytes());
                Ok(())
            }
            Patch::Overwrite(bytes) => {
                *record = bytes.clone();
                Ok(())
            }
        }
    }
}

/// One primitive database operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point read: probe the index, fetch the record.
    Read {
        /// Target table.
        table: u32,
        /// Primary key.
        key: i64,
    },
    /// Range read: scan `lo..hi` (up to `limit` rows), fetching each record.
    ReadRange {
        /// Target table.
        table: u32,
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
        /// Maximum rows to fetch.
        limit: usize,
    },
    /// Read-modify-write of one record.
    Update {
        /// Target table.
        table: u32,
        /// Primary key.
        key: i64,
        /// Transformation of the record image.
        patch: Patch,
    },
    /// Insert a new record (aborts the transaction on duplicate key).
    Insert {
        /// Target table.
        table: u32,
        /// Primary key.
        key: i64,
        /// Record image.
        record: Vec<u8>,
    },
    /// Delete a record (aborts the transaction if missing).
    Delete {
        /// Target table.
        table: u32,
        /// Primary key.
        key: i64,
    },
    /// Pure application logic (instruction count).
    Compute {
        /// Instructions executed.
        instructions: u64,
    },
    /// Point read through the table's secondary index: resolve the
    /// secondary key to a primary key, then fetch the record (two probes).
    SecondaryRead {
        /// Target table (must have a secondary index).
        table: u32,
        /// Secondary key value.
        skey: i64,
    },
}

impl Op {
    /// Is this op a write (needs logging and undo)?
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Op::Update { .. } | Op::Insert { .. } | Op::Delete { .. }
        )
    }
}

/// A routed unit of work: runs entirely on one logical partition's agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Table whose partition map routes this action.
    pub table: u32,
    /// Routing key (determines the owning partition).
    pub route_key: i64,
    /// Straight-line operations.
    pub ops: Vec<Op>,
}

impl Action {
    /// Convenience constructor.
    pub fn new(table: u32, route_key: i64, ops: Vec<Op>) -> Self {
        Action {
            table,
            route_key,
            ops,
        }
    }
}

/// A complete transaction: phases execute in order, actions within a phase
/// in parallel (joined at a rendezvous point, as in DORA \[10\]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnProgram {
    /// Program name (for reports).
    pub name: &'static str,
    /// Ordered phases of parallel actions.
    pub phases: Vec<Vec<Action>>,
    /// Abort the whole transaction when a `Read` misses (TATP semantics for
    /// several transactions); writes always abort on missing/duplicate.
    pub abort_on_missing_read: bool,
}

impl Default for TxnProgram {
    /// An empty program, the blank slot the reusable-fill APIs (e.g.
    /// generator `program_into` paths) write into.
    fn default() -> Self {
        TxnProgram {
            name: "",
            phases: Vec::new(),
            abort_on_missing_read: false,
        }
    }
}

impl TxnProgram {
    /// Single-phase program.
    pub fn single_phase(name: &'static str, actions: Vec<Action>) -> Self {
        TxnProgram {
            name,
            phases: vec![actions],
            abort_on_missing_read: false,
        }
    }

    /// Total ops across all phases.
    pub fn op_count(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| p.iter())
            .map(|a| a.ops.len())
            .sum()
    }

    /// Does the program contain any write?
    pub fn is_read_only(&self) -> bool {
        !self
            .phases
            .iter()
            .flat_map(|p| p.iter())
            .flat_map(|a| a.ops.iter())
            .any(Op::is_write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_patch() {
        let mut rec = b"hello world".to_vec();
        Patch::Splice {
            offset: 6,
            bytes: b"rusty".to_vec(),
        }
        .apply(&mut rec)
        .unwrap();
        assert_eq!(rec, b"hello rusty");
    }

    #[test]
    fn splice_out_of_bounds() {
        let mut rec = vec![0u8; 4];
        let err = Patch::Splice {
            offset: 2,
            bytes: vec![1, 2, 3],
        }
        .apply(&mut rec);
        assert_eq!(err, Err(PatchOutOfBounds));
        assert_eq!(rec, vec![0u8; 4], "failed patch must not modify");
    }

    #[test]
    fn add_i64_patch() {
        let mut rec = vec![0u8; 16];
        rec[8..16].copy_from_slice(&100i64.to_le_bytes());
        Patch::AddI64 {
            offset: 8,
            delta: -30,
        }
        .apply(&mut rec)
        .unwrap();
        assert_eq!(i64::from_le_bytes(rec[8..16].try_into().unwrap()), 70);
    }

    #[test]
    fn add_i64_wraps_not_panics() {
        let mut rec = i64::MAX.to_le_bytes().to_vec();
        Patch::AddI64 {
            offset: 0,
            delta: 1,
        }
        .apply(&mut rec)
        .unwrap();
        assert_eq!(i64::from_le_bytes(rec[..].try_into().unwrap()), i64::MIN);
    }

    #[test]
    fn overwrite_patch_resizes() {
        let mut rec = vec![1u8; 4];
        Patch::Overwrite(vec![9u8; 10]).apply(&mut rec).unwrap();
        assert_eq!(rec, vec![9u8; 10]);
    }

    #[test]
    fn program_classification() {
        let ro = TxnProgram::single_phase(
            "ro",
            vec![Action::new(0, 1, vec![Op::Read { table: 0, key: 1 }])],
        );
        assert!(ro.is_read_only());
        assert_eq!(ro.op_count(), 1);

        let rw = TxnProgram::single_phase(
            "rw",
            vec![Action::new(
                0,
                1,
                vec![
                    Op::Read { table: 0, key: 1 },
                    Op::Update {
                        table: 0,
                        key: 1,
                        patch: Patch::AddI64 {
                            offset: 0,
                            delta: 1,
                        },
                    },
                ],
            )],
        );
        assert!(!rw.is_read_only());
        assert!(rw.phases[0][0].ops[1].is_write());
    }
}
