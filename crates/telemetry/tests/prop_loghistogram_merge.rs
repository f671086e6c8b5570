//! Shard-merge laws for [`LogHistogram`] (the attribution invariant).
//!
//! Attribution cells recorded per shard fold back with
//! `LogHistogram::merge` (through `Attribution::merge`) when a sharded
//! cell is reassembled. That recombination is only sound if
//! merge obeys the algebra proven here: splitting a sample stream
//! anywhere and merging the pieces reproduces the unsharded histogram
//! exactly, merge is associative and commutative, and the empty
//! histogram is a two-sided identity.
#![recursion_limit = "1024"]

use bionic_telemetry::LogHistogram;
use proptest::prelude::*;

/// Record every sample into a fresh histogram.
fn hist(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Full observable state: everything the attribution CSV reports. Two
/// histograms that agree here are interchangeable everywhere the
/// harness uses them.
fn observe(h: &LogHistogram) -> impl PartialEq + std::fmt::Debug {
    (
        h.count(),
        h.sum(),
        h.mean(),
        h.min(),
        h.max(),
        h.quantile(0.50),
        h.quantile(0.99),
        h.nonzero_buckets().collect::<Vec<_>>(),
    )
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    // Picosecond latencies from zero up to ~10 µs so split points land
    // in many different log2 buckets, including the exact-max tracking.
    prop::collection::vec(0u64..10_000_000, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Sharding law: recording a stream whole equals splitting it at any
    // cut points, recording each shard separately, and merging the
    // shard histograms back in shard order.
    #[test]
    fn sharded_recording_matches_unsharded(
        xs in samples(),
        cut_a in 0usize..=200,
        cut_b in 0usize..=200,
    ) {
        let whole = hist(&xs);
        let (a, b) = (cut_a.min(xs.len()), cut_b.min(xs.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut merged = hist(&xs[..lo]);
        merged.merge(&hist(&xs[lo..hi]));
        merged.merge(&hist(&xs[hi..]));
        prop_assert_eq!(observe(&merged), observe(&whole));
    }

    // Associativity: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`, so shard outputs may
    // be folded pairwise in any grouping.
    #[test]
    fn merge_is_associative(
        xs in samples(),
        ys in samples(),
        zs in samples(),
    ) {
        let mut left = hist(&xs);
        left.merge(&hist(&ys));
        left.merge(&hist(&zs));

        let mut right_tail = hist(&ys);
        right_tail.merge(&hist(&zs));
        let mut right = hist(&xs);
        right.merge(&right_tail);

        prop_assert_eq!(observe(&left), observe(&right));
    }

    // Commutativity: shard order never changes the merged histogram.
    #[test]
    fn merge_is_commutative(xs in samples(), ys in samples()) {
        let mut ab = hist(&xs);
        ab.merge(&hist(&ys));
        let mut ba = hist(&ys);
        ba.merge(&hist(&xs));
        prop_assert_eq!(observe(&ab), observe(&ba));
    }

    // The empty histogram is a two-sided identity for merge.
    #[test]
    fn empty_is_identity(xs in samples()) {
        let whole = hist(&xs);

        let mut left = LogHistogram::new();
        left.merge(&whole);
        prop_assert_eq!(observe(&left), observe(&whole));

        let mut right = hist(&xs);
        right.merge(&LogHistogram::new());
        prop_assert_eq!(observe(&right), observe(&whole));
    }
}
