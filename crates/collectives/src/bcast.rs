//! Broadcast algorithms.
//!
//! The paper argues the intuitive models express "the execution time of
//! *any* collective communication operation" as sums and maxima of the
//! point-to-point parameters; broadcast is the natural third collective to
//! exercise that claim. Unlike scatter, every arc of a binomial broadcast
//! carries the *full* message, so the linear/binomial crossover sits at a
//! different place than for scatter — which the models must predict.

use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;

use crate::scatter::binomial_down;
use crate::Sink;

/// Linear (flat-tree) broadcast: the root sends the same `m` bytes to every
/// other rank in increasing rank order — the linear scatter's program,
/// under the name of what it moves.
pub use crate::scatter::linear_scatter as linear_bcast;

/// Binomial broadcast along `tree`: every node receives the full message
/// from its parent and forwards it to each child (largest sub-tree first,
/// so the deepest branch starts earliest).
pub fn binomial_bcast(tree: &BinomialTree, m: Bytes, emit: impl Sink) {
    binomial_down(tree, |_| m, emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{collective_times, programs};
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::rank::Rank;
    use cpm_core::units::KIB;
    use cpm_netsim::{run_script, SimCluster};

    fn cluster() -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 2)
    }

    fn observe_linear(cl: &SimCluster, m: u64) -> f64 {
        collective_times(cl, 1, 1, |e| linear_bcast(cl.n(), Rank(0), m, e)).unwrap()[0]
    }

    fn observe_binomial(cl: &SimCluster, m: u64) -> f64 {
        let tree = BinomialTree::new(cl.n(), Rank(0));
        collective_times(cl, 1, 1, |e| binomial_bcast(&tree, m, e)).unwrap()[0]
    }

    #[test]
    fn binomial_bcast_wins_for_small_messages() {
        // Tiny payload: ⌈log₂16⌉ = 4 store-and-forward hops beat 15 serial
        // root sends.
        let cl = cluster();
        let lin = observe_linear(&cl, 64);
        let bin = observe_binomial(&cl, 64);
        assert!(bin < lin, "binomial {bin} vs linear {lin}");
    }

    #[test]
    fn linear_bcast_wins_for_large_messages() {
        // Large payload: the root pushes bytes at t_r per byte while each
        // binomial hop pays the full wire time M/β per level.
        let cl = cluster();
        let m = 256 * KIB;
        let lin = observe_linear(&cl, m);
        let bin = observe_binomial(&cl, m);
        assert!(lin < bin, "linear {lin} vs binomial {bin}");
    }

    #[test]
    fn every_rank_gets_the_payload() {
        let cl = cluster();
        let tree = BinomialTree::new(cl.n(), Rank(3));
        let out = run_script(&cl, &programs(16, |e| binomial_bcast(&tree, 4 * KIB, e))).unwrap();
        // Every other rank holds the payload strictly after the root sent
        // its last copy's first byte: nobody finishes at time zero.
        for (i, t) in out.finish_times.iter().enumerate() {
            assert!(*t > 0.0, "rank {i}");
        }
        assert!(out.end_time > out.finish_times[3]);
    }

    #[test]
    fn bcast_moves_more_bytes_than_scatter_total() {
        // Binomial broadcast sends the full M over each of the n−1 arcs.
        let cl = cluster();
        let tree = BinomialTree::new(cl.n(), Rank(0));
        let m = 8 * KIB;
        let out = run_script(&cl, &programs(16, |e| binomial_bcast(&tree, m, e))).unwrap();
        assert_eq!(out.stats.msgs_sent, 15);
        assert_eq!(out.stats.msgs_received, 15);
    }
}
