//! Property-based tests for the collective algorithms.

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_collectives::measure::programs;
use cpm_collectives::optimized::{optimized_gather, split_count};
use cpm_collectives::{
    binomial_bcast, binomial_gather, binomial_scatter, linear_bcast, linear_gather, linear_scatter,
};
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_models::GatherEmpirics;
use cpm_netsim::{run_script, SimCluster};
use proptest::prelude::*;

fn cluster(n: usize, seed: u64) -> SimCluster {
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), seed);
    SimCluster::new(truth, MpiProfile::ideal(), 0.0, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every collective runs to completion for arbitrary sizes and roots,
    /// and message conservation holds: scatter/gather/bcast all move
    /// exactly n−1 messages (binomial included — one per arc).
    #[test]
    fn collectives_complete_and_conserve(
        n in 2usize..10,
        m in 0u64..100_000,
        root_seed in 0usize..10,
        which in 0u8..6,
    ) {
        let root = Rank::from(root_seed % n);
        let cl = cluster(n, 3);
        let tree = BinomialTree::new(n, root);
        let program = programs(n, |e| match which {
            0 => linear_scatter(n, root, m, e),
            1 => linear_gather(n, root, m, e),
            2 => linear_bcast(n, root, m, e),
            3 => binomial_scatter(&tree, m, e),
            4 => binomial_gather(&tree, m, e),
            _ => binomial_bcast(&tree, m, e),
        });
        let out = run_script(&cl, &program).unwrap();
        prop_assert_eq!(out.stats.msgs_sent, n - 1, "one message per non-root");
        prop_assert_eq!(out.stats.msgs_received, n - 1);
        prop_assert!(out.end_time >= 0.0);
    }

    /// The optimized gather's split covers the message exactly for
    /// arbitrary sizes and thresholds, and degenerates to one piece
    /// outside the irregular region.
    #[test]
    fn split_cover_property(
        m in 1u64..1_000_000,
        m1 in 512u64..20_000,
        gap in 1_000u64..200_000,
    ) {
        let e = GatherEmpirics {
            m1,
            m2: m1 + gap,
            escalation_probability: 0.5,
            escalation_magnitude: 0.2,
            escalation_prob_knots: Vec::new(),
        };
        let k = split_count(m, &e) as u64;
        prop_assert!(k >= 1);
        if m <= e.m1 || m >= e.m2 {
            prop_assert_eq!(k, 1);
        } else {
            let piece = m / k;
            let last = m - piece * (k - 1);
            prop_assert_eq!(piece * (k - 1) + last, m);
            prop_assert!(piece <= e.m1 / 2 + 1);
        }
    }

    /// Optimized gather equals plain gather outside the irregular region,
    /// byte for byte of virtual time.
    #[test]
    fn optimized_gather_identity_outside_region(
        n in 3usize..8,
        small in 1u64..2_000,
    ) {
        let cl = cluster(n, 7);
        let e = GatherEmpirics {
            m1: 4096,
            m2: 65536,
            escalation_probability: 0.5,
            escalation_magnitude: 0.2,
            escalation_prob_knots: Vec::new(),
        };
        let root = Rank(0);
        let a = run_script(&cl, &programs(n, |s| linear_gather(n, root, small, s))).unwrap();
        let b = run_script(&cl, &programs(n, |s| optimized_gather(n, root, small, &e, s))).unwrap();
        prop_assert_eq!(a.finish_times, b.finish_times);
    }
}
