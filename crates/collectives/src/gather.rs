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
use cpm_netsim::ScriptOp;

use crate::Sink;

/// The linear fan-in: every non-root sends `size(i)` bytes to the root; the
/// root receives them in increasing rank order and computes for
/// `combine_secs` after each receive. Linear gather, gatherv (no combine)
/// and reduce are this one program.
///
/// A zero-length combine is **never issued** (here and in
/// [`binomial_up`]): it would occupy no time and draw no noise, only add a
/// same-instant wake — so a gather is exactly a reduce whose combine is
/// free, and a `gamma = 0` reduce is a gather of its own payload.
pub(crate) fn fan_in(
    n: usize,
    root: Rank,
    size: impl Fn(usize) -> Bytes,
    combine_secs: f64,
    mut emit: impl Sink,
) {
    assert!(root.idx() < n, "root out of range");
    for i in (0..n).filter(|&i| i != root.idx()) {
        emit(Rank::from(i), ScriptOp::send(root, size(i)));
        emit(root, ScriptOp::recv(Rank::from(i)));
        if combine_secs > 0.0 {
            emit(root, ScriptOp::Compute { secs: combine_secs });
        }
    }
}

/// The binomial upward flow along `tree`: every node receives from its
/// children smallest sub-tree first (the reverse of the scatter order, so
/// the largest accumulated buffer travels last), computing for
/// `combine_secs` after each receive, then sends `payload(me)` bytes to its
/// parent. Binomial gather (the sender's whole sub-tree, no combine) and
/// reduce (`m`) are this one program; the payload is stated by the caller,
/// never inferred from the combine.
pub(crate) fn binomial_up(
    tree: &BinomialTree,
    payload: impl Fn(Rank) -> Bytes,
    combine_secs: f64,
    mut emit: impl Sink,
) {
    for me in (0..tree.n()).map(Rank::from) {
        for (child, _) in tree.children_of(me).into_iter().rev() {
            emit(me, ScriptOp::recv(child));
            if combine_secs > 0.0 {
                emit(me, ScriptOp::Compute { secs: combine_secs });
            }
        }
        if let Some(parent) = tree.parent_of(me) {
            emit(me, ScriptOp::send(parent, payload(me)));
        }
    }
}

/// Linear gather: every non-root sends its `m`-byte block to the root; the
/// root receives them in increasing rank order.
pub fn linear_gather(n: usize, root: Rank, m: Bytes, emit: impl Sink) {
    fan_in(n, root, |_| m, 0.0, emit)
}

/// Binomial gather along `tree`: every node forwards its whole sub-tree
/// (`subtree·m` bytes, saturating) to its parent.
pub fn binomial_gather(tree: &BinomialTree, m: Bytes, emit: impl Sink) {
    binomial_up(
        tree,
        |me| tree.subtree_size(me).saturating_mul(m),
        0.0,
        emit,
    )
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
