//! Gather algorithms.
//!
//! `MPI_Gather` collects one `m`-byte block per process at the root. The
//! *linear* algorithm has every process send directly to the root — the
//! operation whose medium-message escalations and large-message
//! serialization motivate the LMO empirical parameters (paper eq. (5)).
//! The *binomial* algorithm accumulates sub-tree buffers up a binomial
//! tree.

use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_vmpi::Comm;

/// Linear gather: every non-root sends its `m`-byte block to the root; the
/// root receives them in increasing rank order.
///
/// All ranks must call this collectively.
pub fn linear_gather(c: &mut Comm<'_>, root: Rank, m: Bytes) {
    let n = c.size();
    assert!(root.idx() < n, "root out of range");
    if c.rank() == root {
        for i in 0..n {
            if i != root.idx() {
                let _ = c.recv(Rank::from(i));
            }
        }
    } else {
        c.send(root, m);
    }
}

/// Binomial gather along `tree`: every node collects its children's
/// sub-tree buffers (smallest sub-tree first — the reverse of the scatter
/// order, so the largest accumulated buffer travels last) and forwards its
/// whole sub-tree (`subtree·m` bytes) to its parent.
///
/// All ranks in the tree must call this collectively.
pub fn binomial_gather(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes) {
    let me = c.rank();
    let mut children = tree.children_of(me);
    children.reverse(); // smallest sub-tree first
    for (child, _) in children {
        let _ = c.recv(child);
    }
    if let Some(parent) = tree.parent_of(me) {
        c.send(parent, tree.subtree_size(me).saturating_mul(m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;
    use cpm_netsim::SimCluster;

    fn cluster_with(profile: MpiProfile, noise: f64) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2);
        SimCluster::new(truth, profile, noise, 7)
    }

    #[test]
    fn small_gather_time_has_parallel_structure() {
        // For small messages the root's serial rx processing dominates but
        // the transfers overlap: observation ≈ serial + one tail, far below
        // the sum-of-p2p bound.
        let cl = cluster_with(MpiProfile::ideal(), 0.0);
        let truth = cl.truth.clone();
        let m = 2 * KIB;
        let t = measure::linear_gather_once(&cl, Rank(0), m);
        let serial: f64 = 15.0 * (truth.c[0] + m as f64 * truth.t[0]);
        let sum_p2p: f64 = (1..16usize)
            .map(|i| truth.p2p_time(Rank::from(i), Rank(0), m))
            .sum();
        assert!(t >= serial, "{t} vs serial {serial}");
        assert!(t < sum_p2p, "{t} should be well below serialized {sum_p2p}");
    }

    #[test]
    fn large_gather_serializes_on_the_root_ingress() {
        // Above M2 the ingress FIFO serializes transfers: the observation
        // approaches the sum of wire times.
        let profile = MpiProfile::lam_7_1_3();
        let cl = cluster_with(profile.clone(), 0.0);
        let truth = cl.truth.clone();
        let m = 100 * KIB; // > M2 = 65 KB
        let t = measure::linear_gather_once(&cl, Rank(0), m);
        let sum_wire: f64 = (1..16usize)
            .map(|i| m as f64 / *truth.beta.get(Rank::from(i), Rank(0)))
            .sum();
        assert!(
            t > sum_wire,
            "{t} must exceed the serialized wire time {sum_wire}"
        );
        // The ideal cluster (no serialization) is much faster at the same
        // size.
        let ideal = measure::linear_gather_once(&cl.idealized(), Rank(0), m);
        assert!(t > 2.0 * ideal, "serialized {t} vs ideal {ideal}");
    }

    #[test]
    fn medium_gather_escalates_sometimes() {
        // In (M1, M2) escalations are stochastic: across repetitions some
        // runs take ≳0.1 s extra.
        let profile = MpiProfile::lam_7_1_3();
        let cl = cluster_with(profile.clone(), 0.0);
        let m = 32 * KIB;
        let times = measure::linear_gather_times(&cl, Rank(0), m, 20, 3).unwrap();
        let ideal = measure::linear_gather_once(&cl.idealized(), Rank(0), m);
        let escalated = times
            .iter()
            .filter(|t| **t > ideal + profile.escalation_min)
            .count();
        assert!(escalated > 0, "no escalation in 20 reps: {times:?}");
        // And not every repetition escalates to the max: the minimum stays
        // near the ideal line.
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min < ideal * 1.5, "min {min} vs ideal {ideal}");
    }

    #[test]
    fn binomial_gather_runs_and_orders_buffers() {
        let cl = cluster_with(MpiProfile::ideal(), 0.0);
        let t = measure::binomial_gather_once(&cl, Rank(0), 4 * KIB);
        assert!(t > 0.0);
        // Small blocks: the binomial tree's log₂n rounds keep it within
        // striking distance of linear gather even though every hop pays
        // both endpoints' fixed costs (on this cluster C ≈ L, so the
        // advantage is smaller than the classic latency-only analysis
        // suggests).
        let lin = measure::linear_gather_once(&cl, Rank(0), 256);
        let bin = measure::binomial_gather_once(&cl, Rank(0), 256);
        assert!(bin < 2.0 * lin, "binomial {bin} vs linear {lin}");
    }

    #[test]
    fn gather_and_scatter_are_symmetric_in_the_ideal_small_case() {
        // The paper applies the same formula to both below M1; the DES
        // agrees within the tx/rx asymmetries.
        let cl = cluster_with(MpiProfile::ideal(), 0.0);
        let m = KIB;
        let s = measure::linear_scatter_once(&cl, Rank(0), m);
        let g = measure::linear_gather_once(&cl, Rank(0), m);
        let ratio = s.max(g) / s.min(g);
        assert!(ratio < 1.5, "scatter {s} vs gather {g}");
    }
}
