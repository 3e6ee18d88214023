//! Property tests of the streaming statistics: `Welford::merge` is
//! order-insensitive — commutative, associative and invariant under
//! repartitioning the stream — so replication statistics fold to the same
//! result in any order.

use dgsched_des::stats::Welford;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn close(a: f64, b: f64, abs: f64, rel: f64) -> bool {
    (a - b).abs() <= abs + rel * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-chunk accumulators reproduces the single-pass stream:
    /// count, sum, extremes exactly; mean and variance within float slack.
    #[test]
    fn welford_merge_equals_single_pass(
        xs in proptest::collection::vec(-1e5f64..1e5, 1..200),
        cut in 0usize..200,
    ) {
        let cut = cut.min(xs.len());
        let whole: Welford = xs.iter().copied().collect();
        let mut merged: Welford = xs[..cut].iter().copied().collect();
        let right: Welford = xs[cut..].iter().copied().collect();
        merged.merge(&right);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert!(close(merged.mean(), whole.mean(), 1e-9, 1e-9));
        prop_assert!(close(merged.variance(), whole.variance(), 1e-6, 1e-6));
    }

    /// `merge` is commutative and associative (up to float error), and the
    /// empty accumulator is its identity — so replication statistics can
    /// be folded in any order, including the parallel runner's.
    #[test]
    fn welford_merge_is_order_insensitive(
        a in proptest::collection::vec(-1e5f64..1e5, 0..60),
        b in proptest::collection::vec(-1e5f64..1e5, 0..60),
        c in proptest::collection::vec(-1e5f64..1e5, 0..60),
    ) {
        let wa: Welford = a.iter().copied().collect();
        let wb: Welford = b.iter().copied().collect();
        let wc: Welford = c.iter().copied().collect();

        // Commutativity: a∪b == b∪a.
        let mut ab = wa;
        ab.merge(&wb);
        let mut ba = wb;
        ba.merge(&wa);
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!(close(ab.mean(), ba.mean(), 1e-9, 1e-9));
        prop_assert!(close(ab.variance(), ba.variance(), 1e-6, 1e-6));

        // Associativity: (a∪b)∪c == a∪(b∪c).
        let mut abc = ab;
        abc.merge(&wc);
        let mut bc = wb;
        bc.merge(&wc);
        let mut a_bc = wa;
        a_bc.merge(&bc);
        prop_assert_eq!(abc.count(), a_bc.count());
        prop_assert!(close(abc.mean(), a_bc.mean(), 1e-9, 1e-9));
        prop_assert!(close(abc.variance(), a_bc.variance(), 1e-6, 1e-6));

        // Identity: merging an empty accumulator changes nothing.
        let mut with_empty = wa;
        with_empty.merge(&Welford::new());
        prop_assert_eq!(with_empty.count(), wa.count());
        if wa.count() > 0 {
            prop_assert_eq!(with_empty.mean(), wa.mean());
            prop_assert_eq!(with_empty.variance(), wa.variance());
        }
    }

    /// Permutation invariance of the *merged* statistics: shuffling which
    /// chunk an observation lands in never changes the folded result.
    #[test]
    fn welford_chunking_is_permutation_invariant(
        xs in proptest::collection::vec(-1e4f64..1e4, 2..120),
        seed in 0u64..1_000,
    ) {
        let mut shuffled = xs.clone();
        // Fisher–Yates with a seeded rng (vendored rand has no shuffle).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i as u64) as usize;
            shuffled.swap(i, j);
        }
        let forward: Welford = xs.iter().copied().collect();
        let mut folded = Welford::new();
        for chunk in shuffled.chunks(7) {
            let w: Welford = chunk.iter().copied().collect();
            folded.merge(&w);
        }
        prop_assert_eq!(folded.count(), forward.count());
        prop_assert_eq!(folded.min(), forward.min());
        prop_assert_eq!(folded.max(), forward.max());
        prop_assert!(close(folded.mean(), forward.mean(), 1e-9, 1e-9));
        prop_assert!(close(folded.variance(), forward.variance(), 1e-5, 1e-5));
    }
}
