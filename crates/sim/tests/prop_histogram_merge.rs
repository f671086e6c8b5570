//! Merge laws for [`LogHistogram`] and its [`Histogram`] view.
//!
//! Per-node attribution ledgers and latency histograms are folded back
//! together with `merge` (`Attribution::merge`, the cluster report). That
//! recombination is only sound if merge obeys the algebra proven here:
//! splitting a sample stream anywhere and merging the pieces reproduces
//! the unsplit histogram exactly, merge is associative and commutative,
//! and the empty histogram is a two-sided identity. Every law is checked
//! on both views of the one bucket implementation at once.
#![recursion_limit = "1024"]

use bionic_sim::stats::{Histogram, LogHistogram};
use bionic_sim::time::SimTime;
use proptest::prelude::*;

/// The same samples (picoseconds) recorded through both views.
#[derive(Clone, Default)]
struct Both {
    raw: LogHistogram,
    view: Histogram,
}

impl Both {
    fn of(samples: &[u64]) -> Self {
        let mut h = Both::default();
        for &s in samples {
            h.raw.record(s);
            h.view.record(SimTime::from_ps(s));
        }
        h
    }

    fn merge(&mut self, other: &Both) {
        self.raw.merge(&other.raw);
        self.view.merge(&other.view);
    }

    /// Full observable state: everything the attribution CSV reports of
    /// the raw histogram, and the summary plus the quantiles the
    /// experiments report of the view. Two histograms that agree here are
    /// interchangeable everywhere they are used.
    fn observe(&self) -> impl PartialEq + std::fmt::Debug {
        let (raw, view) = (&self.raw, &self.view);
        (
            (raw.count(), raw.sum(), raw.mean(), raw.min(), raw.max()),
            (raw.quantile(0.50), raw.quantile(0.99)),
            raw.nonzero_buckets().collect::<Vec<_>>(),
            (view.summary(), view.count()),
            (view.quantile(0.10), view.quantile(0.999)),
        )
    }
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    // Picosecond values from zero up to ~10 µs so split points land in
    // many different log2 buckets, including the exact-max tracking.
    prop::collection::vec(0u64..10_000_000, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Splitting law: recording a stream whole equals splitting it at any
    // cut points, recording each piece separately, and merging the
    // pieces back in order.
    #[test]
    fn split_recording_matches_whole(
        xs in samples(),
        cut_a in 0usize..=200,
        cut_b in 0usize..=200,
    ) {
        let whole = Both::of(&xs);
        let (a, b) = (cut_a.min(xs.len()), cut_b.min(xs.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let mut merged = Both::of(&xs[..lo]);
        merged.merge(&Both::of(&xs[lo..hi]));
        merged.merge(&Both::of(&xs[hi..]));
        prop_assert_eq!(merged.observe(), whole.observe());
        prop_assert_eq!(merged.raw, whole.raw);
    }

    // Associativity: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`, so pieces may be
    // folded pairwise in any grouping.
    #[test]
    fn merge_is_associative(
        xs in samples(),
        ys in samples(),
        zs in samples(),
    ) {
        let mut left = Both::of(&xs);
        left.merge(&Both::of(&ys));
        left.merge(&Both::of(&zs));

        let mut bc = Both::of(&ys);
        bc.merge(&Both::of(&zs));
        let mut right = Both::of(&xs);
        right.merge(&bc);

        prop_assert_eq!(left.observe(), right.observe());
    }

    // Commutativity: merge order never changes the merged histogram.
    #[test]
    fn merge_is_commutative(xs in samples(), ys in samples()) {
        let mut ab = Both::of(&xs);
        ab.merge(&Both::of(&ys));
        let mut ba = Both::of(&ys);
        ba.merge(&Both::of(&xs));
        prop_assert_eq!(ab.observe(), ba.observe());
    }

    // The empty histogram is a two-sided identity for merge.
    #[test]
    fn empty_is_identity(xs in samples()) {
        let whole = Both::of(&xs);

        let mut left = Both::default();
        left.merge(&whole);
        prop_assert_eq!(left.observe(), whole.observe());

        let mut right = Both::of(&xs);
        right.merge(&Both::default());
        prop_assert_eq!(right.observe(), whole.observe());
    }

    // The view is nothing but the raw histogram read in `SimTime`.
    #[test]
    fn the_view_reads_what_the_raw_histogram_holds(xs in samples(), q_bp in 0u32..=10_000) {
        let h = Both::of(&xs);
        let q = f64::from(q_bp) / 10_000.0;
        prop_assert_eq!(h.view.count(), h.raw.count());
        prop_assert_eq!(h.view.mean().as_ps(), h.raw.mean());
        prop_assert_eq!(h.view.min().as_ps(), h.raw.min());
        prop_assert_eq!(h.view.max().as_ps(), h.raw.max());
        prop_assert_eq!(h.view.quantile(q).as_ps(), h.raw.quantile(q));
    }
}
