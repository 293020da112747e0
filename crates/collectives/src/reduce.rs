//! Reduce.
//!
//! `MPI_Reduce` combines one `m`-byte vector per process at the root with
//! an element-wise operation. Communication-wise it is a gather whose
//! receiver additionally *computes* over every arriving block — the first
//! collective here whose cost has a processor-only term the network models
//! cannot see at all. The per-byte cost of the combine operation is a
//! parameter (`gamma`, seconds/byte).

use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;

use crate::gather::{binomial_up, fan_in};
use crate::Sink;

/// Linear reduce: every rank sends its vector to the root; the root
/// combines each arriving vector into the accumulator (`gamma` seconds per
/// byte per combine).
pub fn linear_reduce(n: usize, root: Rank, m: Bytes, gamma: f64, emit: impl Sink) {
    fan_in(n, root, |_| m, gamma * m as f64, emit)
}

/// Binomial reduce along `tree`: every node collects its children's
/// partial results (smallest sub-tree first), combines each into its own
/// accumulator, then forwards one `m`-byte vector to its parent. The
/// combines down different sub-trees proceed in parallel — the structural
/// advantage over the linear algorithm when `gamma` is large.
pub fn binomial_reduce(tree: &BinomialTree, m: Bytes, gamma: f64, emit: impl Sink) {
    binomial_up(tree, |_| m, gamma * m as f64, emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::collective_times;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;
    use cpm_netsim::SimCluster;

    /// A heavy combine: 20 ns/B, ~3x the wire inverse-bandwidth.
    const GAMMA: f64 = 20e-9;

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 8);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 8)
    }

    fn observe_linear(cl: &SimCluster, m: u64, gamma: f64) -> f64 {
        collective_times(cl, 1, 1, |e| linear_reduce(cl.n(), Rank(0), m, gamma, e)).unwrap()[0]
    }

    fn observe_binomial(cl: &SimCluster, m: u64, gamma: f64) -> f64 {
        let tree = BinomialTree::new(cl.n(), Rank(0));
        collective_times(cl, 1, 1, |e| binomial_reduce(&tree, m, gamma, e)).unwrap()[0]
    }

    #[test]
    fn reduce_cost_sits_between_gather_and_serial_bound() {
        // Combines pipeline with arrivals, so the cost lies strictly
        // between the plain gather and gather + (n−1)·γ·m.
        let cl = cluster(8);
        let m = 16 * KIB;
        let gather = crate::measure::linear_gather_once(&cl, Rank(0), m);
        let reduce = observe_linear(&cl, m, GAMMA);
        let combines = 7.0 * GAMMA * m as f64;
        assert!(reduce > gather, "reduce {reduce} vs gather {gather}");
        assert!(
            reduce <= gather + combines + 1e-9,
            "reduce {reduce} vs bound {}",
            gather + combines
        );
        // At this γ the combine dominates the per-message rx slot, so the
        // bound is nearly tight: at least the combines alone must appear.
        assert!(reduce >= gather.max(combines), "reduce {reduce}");
    }

    #[test]
    fn binomial_parallelizes_the_combines() {
        // With a combine far heavier than the wire (200 ns/B vs ~85 ns/B),
        // the tree distributes the computation — the root performs ⌈log₂n⌉
        // combines instead of n−1 — and wins despite forwarding full
        // vectors at every level.
        let heavy = 200e-9;
        let cl = cluster(16);
        let m = 32 * KIB;
        let lin = observe_linear(&cl, m, heavy);
        let bin = observe_binomial(&cl, m, heavy);
        assert!(bin < lin, "binomial {bin} vs linear {lin}");
        // With a *light* combine the extra forwarding makes the tree lose.
        let light = 1e-9;
        let lin2 = observe_linear(&cl, m, light);
        let bin2 = observe_binomial(&cl, m, light);
        assert!(bin2 > lin2, "binomial {bin2} vs linear {lin2}");
    }

    #[test]
    fn zero_gamma_degenerates_to_gather_shape() {
        let cl = cluster(6);
        let m = 8 * KIB;
        let gather = crate::measure::linear_gather_once(&cl, Rank(0), m);
        let reduce = observe_linear(&cl, m, 0.0);
        assert!((gather - reduce).abs() < 1e-12);
    }
}
