//! Scatter algorithms.
//!
//! `MPI_Scatter` distributes `n` distinct blocks of `m` bytes from the root,
//! one per process. The *linear* (flat-tree) algorithm sends each block
//! directly; on a switched cluster the root's per-message processing
//! serializes while the transfers and the receivers' processing parallelize
//! — the structure LMO's eq. (4) captures. The *binomial* algorithm
//! forwards halves of the buffer down a binomial tree: `⌈log₂n⌉` rounds at
//! the price of moving each block multiple times.

use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_netsim::ScriptOp;

use crate::Sink;

/// The linear fan-out: the root sends `size(i)` bytes to every other rank
/// `i` in increasing rank order; every other rank receives its block.
/// Linear scatter, scatterv and broadcast are this one program.
pub(crate) fn fan_out(n: usize, root: Rank, size: impl Fn(usize) -> Bytes, mut emit: impl Sink) {
    assert!(root.idx() < n, "root out of range");
    for i in (0..n).filter(|&i| i != root.idx()) {
        emit(root, ScriptOp::send(Rank::from(i), size(i)));
        emit(Rank::from(i), ScriptOp::recv(root));
    }
}

/// The binomial downward flow along `tree`: every non-root receives from
/// its parent, then sends to each child, largest sub-tree first (the
/// paper: "the largest messages 2^k·M are sent first"); `payload(blocks)`
/// is the bytes on an arc whose sub-tree holds `blocks` processes.
/// Binomial scatter and broadcast are this one program.
pub(crate) fn binomial_down(
    tree: &BinomialTree,
    payload: impl Fn(u64) -> Bytes,
    mut emit: impl Sink,
) {
    for me in (0..tree.n()).map(Rank::from) {
        if let Some(parent) = tree.parent_of(me) {
            emit(me, ScriptOp::recv(parent));
        }
        for (child, blocks) in tree.children_of(me) {
            emit(me, ScriptOp::send(child, payload(blocks)));
        }
    }
}

/// Linear scatter: the root sends one `m`-byte block to every other rank,
/// in increasing rank order; every other rank receives its block.
pub fn linear_scatter(n: usize, root: Rank, m: Bytes, emit: impl Sink) {
    fan_out(n, root, |_| m, emit)
}

/// Binomial scatter along `tree`: `m` is the per-process block size, the
/// message on an arc carries `blocks·m` bytes (saturating).
pub fn binomial_scatter(tree: &BinomialTree, m: Bytes, emit: impl Sink) {
    binomial_down(tree, |blocks| blocks.saturating_mul(m), emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;
    use cpm_netsim::SimCluster;

    fn cluster(n: usize) -> SimCluster {
        let spec = if n == 16 {
            ClusterSpec::paper_cluster()
        } else {
            ClusterSpec::homogeneous(n)
        };
        let truth = GroundTruth::synthesize(&spec, 2);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 2)
    }

    #[test]
    fn linear_scatter_root_time_matches_lmo_structure() {
        // Without irregularities the root-side time is the serial tx part
        // plus the slowest tail — eq. (4)'s shape, except the DES lets
        // early transfers overlap later tx slots, so the observation is
        // bounded by the formula.
        let cl = cluster(16);
        let truth = cl.truth.clone();
        let m = 16 * KIB;
        let root = Rank(0);
        let t = measure::linear_scatter_once(&cl, root, m);

        let serial: f64 = 15.0 * (truth.c[0] + m as f64 * truth.t[0]);
        let max_tail = (1..16usize)
            .map(|i| {
                *truth.l.get(root, Rank::from(i))
                    + m as f64 / *truth.beta.get(root, Rank::from(i))
                    + truth.c[i]
                    + m as f64 * truth.t[i]
            })
            .fold(0.0, f64::max);
        assert!(
            t >= serial,
            "root must pay the serial part: {t} vs {serial}"
        );
        assert!(
            t <= serial + max_tail + 1e-9,
            "observation {t} exceeds eq. (4) bound {}",
            serial + max_tail
        );
    }

    #[test]
    fn linear_scatter_completion_sensed_by_receivers() {
        // Every receiver gets exactly its block; receivers finish in a
        // wave, the last no earlier than the serial part.
        let cl = cluster(8);
        let programs = measure::programs(8, |e| linear_scatter(8, Rank(0), 4 * KIB, e));
        let out = cpm_netsim::run_script(&cl, &programs).unwrap();
        let root_done = out.finish_times[0];
        assert!(
            out.end_time > root_done,
            "some receiver finishes after the root"
        );
    }

    #[test]
    fn binomial_scatter_beats_linear_for_tiny_blocks() {
        // With near-empty blocks, fixed costs dominate: ⌈log₂n⌉ store-and-
        // forward hops (≈ 2C+L each) beat the root's n−1 serialized send
        // slots plus a tail. The block must be tiny — already at a few
        // hundred bytes the top arc carries n/2 blocks and the binomial
        // tree starts losing, which is exactly the crossover the models are
        // meant to locate.
        let cl = cluster(16);
        let m = 32;
        let lin = measure::linear_scatter_once(&cl, Rank(0), m);
        let bin = measure::binomial_scatter_once(&cl, Rank(0), m);
        assert!(bin < lin, "binomial {bin} vs linear {lin}");
    }

    #[test]
    fn linear_scatter_beats_binomial_for_large_blocks() {
        // For large blocks the binomial tree moves each block ~log n times;
        // the linear algorithm moves it once.
        let cl = cluster(16);
        let m = 128 * KIB;
        let lin = measure::linear_scatter_once(&cl, Rank(0), m);
        let bin = measure::binomial_scatter_once(&cl, Rank(0), m);
        assert!(lin < bin, "linear {lin} vs binomial {bin}");
    }

    #[test]
    fn binomial_scatter_from_nonzero_root() {
        let cl = cluster(8);
        let t = measure::binomial_scatter_once_rooted(&cl, Rank(3), 4 * KIB);
        assert!(t > 0.0);
    }

    #[test]
    fn two_rank_degenerate_case() {
        let cl = cluster(2);
        let lin = measure::linear_scatter_once(&cl, Rank(0), KIB);
        let bin = measure::binomial_scatter_once(&cl, Rank(0), KIB);
        // Both algorithms degenerate to a single send.
        assert!((lin - bin).abs() < 1e-12);
    }

    /// Emitting a binomial collective is linear in the ranks: the tree
    /// answers `parent_of`/`children_of` without scanning. A scan per rank
    /// made this quadratic — seconds at this size, even optimized — so the
    /// budget holds in any profile.
    #[test]
    fn binomial_emitters_are_linear_in_the_ranks() {
        let n = 65_536;
        let t0 = std::time::Instant::now();
        let tree = BinomialTree::new(n, Rank(5));
        let (mut ops, mut bytes) = (0usize, 0u64);
        binomial_scatter(&tree, KIB, |_, op| {
            ops += 1;
            if let ScriptOp::Send { bytes: b, .. } = op {
                bytes += b;
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(ops, 2 * (n - 1), "one send and one receive per arc");
        // Every block crosses one arc per level between it and the root:
        // n/2 · log2 n block-hops on a full tree.
        assert_eq!(bytes, (n as u64 / 2) * 16 * KIB);
        assert!(secs < 1.0, "emitting {n} ranks took {secs:.2} s");
    }
}
