//! All-gather.
//!
//! Every rank contributes an `m`-byte block and ends up with all `n`
//! blocks. The classic *ring* algorithm runs `n−1` steps; in step `k` each
//! rank forwards to its right neighbour the block it received in step
//! `k−1` (starting with its own), so every link carries exactly one block
//! per step and the switch sees a perfect matching per step.

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_netsim::ScriptOp;

use crate::Sink;

/// Every rank's `n−1` ring steps, as `step(me, right, left)`.
fn ring(n: usize, mut step: impl FnMut(Rank, Rank, Rank)) {
    for i in 0..n {
        let (right, left) = (Rank::from((i + 1) % n), Rank::from((i + n - 1) % n));
        for _step in 1..n {
            step(Rank::from(i), right, left);
        }
    }
}

/// Ring all-gather: `n−1` steps of neighbour exchange with blocking
/// send/recv. Even ranks send first to break the cycle; with `n ≥ 2` a
/// ring always has at least one even rank and the pattern drains — in two
/// phases per step, which is why it costs twice the overlapped ring.
pub fn ring_allgather(n: usize, m: Bytes, mut emit: impl Sink) {
    ring(n, |me, right, left| {
        let (send, recv) = (ScriptOp::send(right, m), ScriptOp::recv(left));
        let even = me.idx() % 2 == 0;
        emit(me, if even { send } else { recv });
        emit(me, if even { recv } else { send });
    })
}

/// Ring all-gather using overlapped exchanges (`MPI_Sendrecv`): each step
/// posts a nonblocking send right, receives left, then waits for the send
/// — both directions proceed *concurrently*, so a step costs one
/// point-to-point time instead of the blocking ring's two phases.
pub fn ring_allgather_overlap(n: usize, m: Bytes, mut emit: impl Sink) {
    ring(n, |me, right, left| {
        emit(me, ScriptOp::isend(right, m));
        emit(me, ScriptOp::recv(left));
        emit(me, ScriptOp::WaitSend);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{collective_times, programs};
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;
    use cpm_models::collective as closed_form;
    use cpm_netsim::{run_script, SimCluster};

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 6);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 6)
    }

    #[test]
    fn moves_the_right_number_of_blocks() {
        for n in [2usize, 5, 8] {
            let cl = cluster(n);
            let out = run_script(&cl, &programs(n, |e| ring_allgather(n, KIB, e))).unwrap();
            assert_eq!(out.stats.msgs_sent, n * (n - 1), "n={n}");
            assert_eq!(out.stats.msgs_received, n * (n - 1), "n={n}");
        }
    }

    #[test]
    fn single_rank_is_a_no_op() {
        let cl = cluster(1);
        let out = run_script(&cl, &programs(1, |e| ring_allgather(1, KIB, e))).unwrap();
        assert_eq!(out.stats.msgs_sent, 0);
        assert_eq!(out.end_time, 0.0);
    }

    #[test]
    fn prediction_bounds_the_observation() {
        for n in [4usize, 7, 8] {
            let cl = cluster(n);
            let m = 8 * KIB;
            let obs = collective_times(&cl, 1, 1, |e| ring_allgather(n, m, e)).unwrap()[0];
            let pred = closed_form::ring_allgather(&cl.truth, m);
            assert!(obs <= pred * 1.05, "n={n}: obs {obs} vs bound {pred}");
            assert!(obs >= pred * 0.4, "n={n}: obs {obs} vs {pred}");
        }
    }

    #[test]
    fn overlapped_ring_halves_the_blocking_ring() {
        let n = 8;
        let cl = cluster(n);
        let m = 16 * KIB;
        let blocking = collective_times(&cl, 1, 1, |e| ring_allgather(n, m, e)).unwrap()[0];
        let overlapped =
            collective_times(&cl, 1, 1, |e| ring_allgather_overlap(n, m, e)).unwrap()[0];
        let ratio = blocking / overlapped;
        assert!(ratio > 1.6 && ratio < 2.2, "ratio {ratio}");
        // And the overlapped observation matches its tighter prediction.
        let pred = closed_form::ring_allgather_overlap(&cl.truth, m);
        assert!(
            (overlapped - pred).abs() / pred < 0.15,
            "obs {overlapped} vs pred {pred}"
        );
    }

    #[test]
    fn overlapped_ring_conserves_messages() {
        let n = 6;
        let cl = cluster(n);
        let out = run_script(&cl, &programs(n, |e| ring_allgather_overlap(n, KIB, e))).unwrap();
        assert_eq!(out.stats.msgs_sent, n * (n - 1));
        assert_eq!(out.stats.msgs_received, n * (n - 1));
    }

    #[test]
    fn cost_grows_linearly_with_n() {
        let m = 4 * KIB;
        let t4 = collective_times(&cluster(4), 1, 1, |e| ring_allgather(4, m, e)).unwrap()[0];
        let t8 = collective_times(&cluster(8), 1, 1, |e| ring_allgather(8, m, e)).unwrap()[0];
        let ratio = t8 / t4;
        assert!(ratio > 1.8 && ratio < 3.0, "ratio {ratio}");
    }
}
