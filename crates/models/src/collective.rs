//! Generic collective predictors.
//!
//! Any point-to-point model can predict collectives under the two naive
//! assumptions available to models that do not separate contributions
//! (everything serial / everything parallel), and under the recursive
//! binomial-tree formula of paper eq. (1), which the heterogeneous models
//! instantiate with their own `p2p` times.

use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;

/// Linear scatter/gather assuming the `n−1` transfers serialize:
/// `Σ_{i≠r} T(r, i, M)`.
pub fn linear_serial<M: PointToPoint + ?Sized>(model: &M, root: Rank, m: Bytes) -> f64 {
    (0..model.n())
        .filter(|&i| i != root.idx())
        .map(|i| model.p2p(root, Rank::from(i), m))
        .sum()
}

/// Linear scatter/gather assuming the `n−1` transfers are fully parallel:
/// `max_{i≠r} T(r, i, M)`.
pub fn linear_parallel<M: PointToPoint + ?Sized>(model: &M, root: Rank, m: Bytes) -> f64 {
    (0..model.n())
        .filter(|&i| i != root.idx())
        .map(|i| model.p2p(root, Rank::from(i), m))
        .fold(0.0, f64::max)
}

/// The recursive binomial scatter/gather prediction of paper eq. (1):
///
/// ```text
/// T(k) = α_rs + β_rs·2^{k-1}·M + max_{c ∈ C_{k-1}} T_c(k-1)
/// ```
///
/// instantiated with the model's own point-to-point times: at every level
/// the sub-tree root first forwards the largest block group to its first
/// child, then the two halves proceed in parallel. `block` is the per-
/// process block size `M`.
pub fn binomial_recursive<M: PointToPoint + ?Sized>(
    model: &M,
    tree: &BinomialTree,
    block: Bytes,
) -> f64 {
    fn subtree<M: PointToPoint + ?Sized>(
        model: &M,
        tree: &BinomialTree,
        root: Rank,
        children: &[(Rank, u64)],
        block: Bytes,
    ) -> f64 {
        let Some((&(first, blocks), rest)) = children.split_first() else {
            return 0.0;
        };
        let send = model.p2p(root, first, blocks.saturating_mul(block));
        let child_children = tree.children_of(first);
        let t_child = subtree(model, tree, first, &child_children, block);
        let t_rest = subtree(model, tree, root, rest, block);
        send + t_child.max(t_rest)
    }
    let children = tree.children_of(tree.root());
    subtree(model, tree, tree.root(), &children, block)
}

/// The recursive binomial *broadcast* prediction: identical structure to
/// [`binomial_recursive`], but every arc carries the full `m` bytes instead
/// of the receiving sub-tree's blocks.
pub fn binomial_recursive_full<M: PointToPoint + ?Sized>(
    model: &M,
    tree: &BinomialTree,
    m: Bytes,
) -> f64 {
    fn subtree<M: PointToPoint + ?Sized>(
        model: &M,
        tree: &BinomialTree,
        root: Rank,
        children: &[(Rank, u64)],
        m: Bytes,
    ) -> f64 {
        let Some((&(first, _), rest)) = children.split_first() else {
            return 0.0;
        };
        let send = model.p2p(root, first, m);
        let child_children = tree.children_of(first);
        let t_child = subtree(model, tree, first, &child_children, m);
        let t_rest = subtree(model, tree, root, rest, m);
        send + t_child.max(t_rest)
    }
    let children = tree.children_of(tree.root());
    subtree(model, tree, tree.root(), &children, m)
}

/// The slowest neighbour transfer of the allgather/alltoall rings: the
/// `max_r T(r, r+k, M)` term shared by the ring predictions below.
fn ring_step_max<M: PointToPoint + ?Sized>(model: &M, shift: usize, m: Bytes) -> f64 {
    let n = model.n();
    (0..n)
        .map(|r| model.p2p(Rank::from(r), Rank::from((r + shift) % n), m))
        .fold(0.0, f64::max)
}

/// Blocking ring allgather: `n−1` serialized steps, each of which runs in
/// **two phases** — the even ranks send right while the odd ranks
/// receive, then the roles flip (a blocking send/recv pair cannot overlap
/// the two directions the way a nonblocking `MPI_Sendrecv` ring would).
/// Each phase costs the slowest neighbour transfer active in it:
///
/// ```text
/// T = (n−1) · 2 · max_r T(r, r+1, M)
/// ```
pub fn ring_allgather<M: PointToPoint + ?Sized>(model: &M, m: Bytes) -> f64 {
    let n = model.n();
    if n <= 1 {
        return 0.0;
    }
    (n - 1) as f64 * 2.0 * ring_step_max(model, 1, m)
}

/// Overlapped (`MPI_Sendrecv`) ring allgather: `n−1` steps of one slowest
/// neighbour transfer each:
///
/// ```text
/// T = (n−1) · max_r T(r, r+1, M)
/// ```
pub fn ring_allgather_overlap<M: PointToPoint + ?Sized>(model: &M, m: Bytes) -> f64 {
    let n = model.n();
    if n <= 1 {
        return 0.0;
    }
    (n - 1) as f64 * ring_step_max(model, 1, m)
}

/// Rotation (pairwise-shift) alltoall: round `k = 1..n` pairs rank `r`
/// with `r+k (mod n)` — a perfect matching through the switch — and the
/// rounds serialize because every rank must finish its receive before the
/// next send:
///
/// ```text
/// T = Σ_{k=1}^{n−1} max_r T(r, r+k, M)
/// ```
pub fn rotation_alltoall<M: PointToPoint + ?Sized>(model: &M, m: Bytes) -> f64 {
    (1..model.n()).map(|k| ring_step_max(model, k, m)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hockney::{HockneyHet, HockneyHom};
    use cpm_core::matrix::SymMatrix;

    fn uniform_het(n: usize, alpha: f64, beta: f64) -> HockneyHet {
        HockneyHet::new(SymMatrix::filled(n, alpha), SymMatrix::filled(n, beta))
    }

    #[test]
    fn serial_and_parallel_bounds() {
        let h = uniform_het(5, 100e-6, 80e-9);
        let m = 1000;
        let t = 100e-6 + 80e-9 * 1000.0;
        assert!((linear_serial(&h, Rank(0), m) - 4.0 * t).abs() < 1e-15);
        assert!((linear_parallel(&h, Rank(0), m) - t).abs() < 1e-15);
    }

    /// Paper eq. (3): for a homogeneous cluster of 8, the recursive formula
    /// collapses to `3α + 7βM ≈ log₂8·α + (8−1)βM`.
    #[test]
    fn recursive_collapses_to_homogeneous_formula() {
        let (alpha, beta) = (100e-6, 80e-9);
        let h = uniform_het(8, alpha, beta);
        let m = 4096u64;
        let tree = BinomialTree::new(8, Rank(0));
        let got = binomial_recursive(&h, &tree, m);
        let expected = 3.0 * alpha + 7.0 * beta * m as f64;
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
        // And equals the homogeneous convenience method.
        let hom = HockneyHom { alpha, beta, n: 8 };
        assert!((got - hom.binomial(m)).abs() < 1e-12);
    }

    /// Paper eq. (2) for 8 processors, checked against a direct transcription.
    #[test]
    fn recursive_matches_equation_2() {
        let n = 8;
        let alpha = SymMatrix::from_fn(n, |i, j| (1 + i.0 + j.0) as f64 * 1e-5);
        let beta = SymMatrix::from_fn(n, |i, j| (1 + i.0 * j.0) as f64 * 1e-9);
        let h = HockneyHet::new(alpha.clone(), beta.clone());
        let m = 10_000u64;
        let mf = m as f64;
        let a = |i: u32, j: u32| *alpha.get(Rank(i), Rank(j));
        let b = |i: u32, j: u32| *beta.get(Rank(i), Rank(j));
        let eq2 = a(0, 4)
            + 4.0 * b(0, 4) * mf
            + f64::max(
                a(0, 2)
                    + 2.0 * b(0, 2) * mf
                    + f64::max(a(0, 1) + b(0, 1) * mf, a(2, 3) + b(2, 3) * mf),
                a(4, 6)
                    + 2.0 * b(4, 6) * mf
                    + f64::max(a(4, 5) + b(4, 5) * mf, a(6, 7) + b(6, 7) * mf),
            );
        let tree = BinomialTree::new(n, Rank(0));
        let got = binomial_recursive(&h, &tree, m);
        assert!((got - eq2).abs() < 1e-15, "{got} vs {eq2}");
    }

    #[test]
    fn recursive_handles_non_power_of_two() {
        let h = uniform_het(6, 50e-6, 10e-9);
        let tree = BinomialTree::new(6, Rank(0));
        let got = binomial_recursive(&h, &tree, 1024);
        // Height 3 tree: root sends 2,2,1 blocks; critical path crosses 3
        // arcs: (0→4: 2 blocks) is round 0; then inside each subtree one
        // more send; serial root adds the remaining sends.
        assert!(got > 0.0);
        // Sanity bound: no more than the fully serial linear time with the
        // full buffer (which moves (n-1)·M bytes through the root one by
        // one), and at least one p2p time.
        assert!(got >= h.time(Rank(0), Rank(1), 1024));
        assert!(got <= linear_serial(&h, Rank(0), 5 * 1024));
    }

    #[test]
    fn recursive_single_node_tree_is_free() {
        let h = uniform_het(1, 1e-6, 1e-9);
        let tree = BinomialTree::new(1, Rank(0));
        assert_eq!(binomial_recursive(&h, &tree, 1024), 0.0);
    }

    #[test]
    fn recursive_two_nodes_is_one_transfer() {
        let h = uniform_het(2, 1e-4, 1e-9);
        let tree = BinomialTree::new(2, Rank(0));
        let got = binomial_recursive(&h, &tree, 2048);
        assert!((got - h.time(Rank(0), Rank(1), 2048)).abs() < 1e-15);
    }

    /// For a homogeneous model, the full-message recursion collapses to
    /// `log₂n · (α + βM)` — every level forwards the whole payload once.
    #[test]
    fn recursive_full_collapses_for_homogeneous() {
        let (alpha, beta) = (100e-6, 80e-9);
        let h = uniform_het(8, alpha, beta);
        let m = 4096u64;
        let tree = BinomialTree::new(8, Rank(0));
        let got = binomial_recursive_full(&h, &tree, m);
        let expected = 3.0 * (alpha + beta * m as f64);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn full_recursion_exceeds_block_recursion_for_small_blocks() {
        // Broadcast moves M over every arc; scatter moves blocks·m. With a
        // per-process block equal to the broadcast payload, scatter's top
        // arc carries more (n/2 blocks), so its recursion dominates.
        let h = uniform_het(16, 50e-6, 80e-9);
        let tree = BinomialTree::new(16, Rank(0));
        let m = 32 * 1024;
        let scatter = binomial_recursive(&h, &tree, m);
        let bcast = binomial_recursive_full(&h, &tree, m);
        assert!(bcast < scatter, "bcast {bcast} vs scatter {scatter}");
    }

    #[test]
    fn heterogeneity_shifts_the_critical_path() {
        // Make the link 0→1 terrible; the binomial tree for n=4 sends the
        // *last* (1-block) message there, so the critical path may move.
        let n = 4;
        let mut alpha = SymMatrix::filled(n, 10e-6);
        alpha.set(Rank(0), Rank(1), 10e-3);
        let h = HockneyHet::new(alpha, SymMatrix::filled(n, 1e-9));
        let tree = BinomialTree::new(n, Rank(0));
        let got = binomial_recursive(&h, &tree, 128);
        // Critical path: send to 2 (2 blocks), then send to 1 dominates.
        let expect = h.time(Rank(0), Rank(2), 256) + h.time(Rank(0), Rank(1), 128);
        assert!((got - expect).abs() < 1e-15, "{got} vs {expect}");
    }

    #[test]
    fn ring_allgather_collapses_for_homogeneous() {
        let (alpha, beta) = (100e-6, 80e-9);
        let h = uniform_het(6, alpha, beta);
        let m = 2048u64;
        let step = alpha + beta * m as f64;
        let blocking = ring_allgather(&h, m);
        let overlap = ring_allgather_overlap(&h, m);
        assert!((blocking - 5.0 * 2.0 * step).abs() < 1e-12, "{blocking}");
        assert!((overlap - 5.0 * step).abs() < 1e-12, "{overlap}");
        assert!((blocking - 2.0 * overlap).abs() < 1e-12);
    }

    #[test]
    fn ring_predictions_vanish_for_a_single_process() {
        let h = uniform_het(1, 100e-6, 80e-9);
        assert_eq!(ring_allgather(&h, 1024), 0.0);
        assert_eq!(ring_allgather_overlap(&h, 1024), 0.0);
        assert_eq!(rotation_alltoall(&h, 1024), 0.0);
    }

    #[test]
    fn rotation_alltoall_collapses_for_homogeneous() {
        let (alpha, beta) = (100e-6, 80e-9);
        let h = uniform_het(7, alpha, beta);
        let m = 4096u64;
        let got = rotation_alltoall(&h, m);
        let expected = 6.0 * (alpha + beta * m as f64);
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn slow_ring_link_dominates_every_allgather_step() {
        // One bad neighbour link: each of the n−1 steps waits for it.
        let n = 5;
        let mut alpha = SymMatrix::filled(n, 10e-6);
        alpha.set(Rank(2), Rank(3), 5e-3);
        let h = HockneyHet::new(alpha, SymMatrix::filled(n, 1e-9));
        let m = 64u64;
        let worst = h.time(Rank(2), Rank(3), m);
        let got = ring_allgather_overlap(&h, m);
        assert!(
            (got - 4.0 * worst).abs() < 1e-12,
            "{got} vs {}",
            4.0 * worst
        );
    }

    #[test]
    fn rotation_alltoall_pays_a_slow_pair_once_per_incident_round() {
        // A slow pair (i, j) is active in round k = j−i and round n−(j−i);
        // every other round's maximum stays at the uniform time.
        let n = 6;
        let mut alpha = SymMatrix::filled(n, 10e-6);
        alpha.set(Rank(1), Rank(3), 2e-3);
        let h = HockneyHet::new(alpha, SymMatrix::filled(n, 1e-9));
        let m = 64u64;
        let uniform = 10e-6 + 1e-9 * m as f64;
        let worst = h.time(Rank(1), Rank(3), m);
        let got = rotation_alltoall(&h, m);
        let expected = 3.0 * uniform + 2.0 * worst;
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }
}
