//! The fixed-bucket log₂ histogram over raw `u64` quantities.
//!
//! [`LogHistogram`] is `bionic_sim::stats::LogHistogram`, re-exported: the
//! one bucket implementation in the workspace, whose `SimTime` view is
//! `bionic_sim::stats::Histogram`. Recording plain `u64` values lets one
//! type serve picosecond latencies *and* picojoule energy deltas in
//! [`crate::attrib`], and its integer-only state is what makes
//! [`crate::Attribution::merge`] exact.

pub use bionic_sim::stats::LogHistogram;
