//! The four workloads. Each module documents why its workload exists —
//! which layers it loads and which it bypasses.

pub mod cluster;
pub mod htap;
pub mod tatp;
pub mod tpcc;
