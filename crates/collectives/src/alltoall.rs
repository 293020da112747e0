//! All-to-all exchange.
//!
//! The heaviest regular communication pattern: every rank sends a distinct
//! `m`-byte block to every other rank. It exercises the simulator's
//! contention model hardest — n·(n−1) simultaneous flows, every node both
//! saturating its tx engine and serializing its rx engine — and gives the
//! models a pattern whose cost is *not* root-centric.

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_netsim::ScriptOp;

use crate::Sink;

/// Pairwise-rotation all-to-all: in round `k = 1..n`, rank `r` sends to
/// `r + k (mod n)` and receives from `r − k (mod n)`. Every pair exchanges
/// exactly once per direction and no two ranks target the same receiver in
/// the same round, so the switch carries a perfect matching at a time.
pub fn rotation_alltoall(n: usize, m: Bytes, mut emit: impl Sink) {
    // In `u32` like the ranks: this inner loop is the lowering of every
    // alltoall, and a 64-bit `%` per op is measurable there.
    let n = u32::try_from(n).expect("rank counts fit a u32");
    for i in 0..n {
        for k in 1..n {
            emit(Rank(i), ScriptOp::send(Rank((i + k) % n), m));
            emit(Rank(i), ScriptOp::recv(Rank((i + n - k) % n)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{collective_times, programs};
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;
    use cpm_netsim::{run_script, SimCluster};

    fn cluster(n: usize) -> SimCluster {
        let spec = if n == 16 {
            ClusterSpec::paper_cluster()
        } else {
            ClusterSpec::homogeneous(n)
        };
        let truth = GroundTruth::synthesize(&spec, 4);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 4)
    }

    #[test]
    fn conserves_all_pairs() {
        let n = 8;
        let cl = cluster(n);
        let out = run_script(&cl, &programs(n, |e| rotation_alltoall(n, 2 * KIB, e))).unwrap();
        assert_eq!(out.stats.msgs_sent, n * (n - 1));
        assert_eq!(out.stats.msgs_received, n * (n - 1));
    }

    #[test]
    fn completes_on_the_heterogeneous_cluster() {
        let cl = cluster(16);
        let t = collective_times(&cl, 1, 1, |e| rotation_alltoall(16, 4 * KIB, e)).unwrap()[0];
        assert!(t > 0.0);
        // All-to-all moves (n-1)× the bytes of a scatter at equal m; it
        // must cost more than a single scatter.
        let scatter = crate::measure::linear_scatter_once(&cl, Rank(0), 4 * KIB);
        assert!(t > scatter, "alltoall {t} vs scatter {scatter}");
    }

    #[test]
    fn prediction_tracks_observation_on_ideal_cluster() {
        let cl = cluster(8);
        let truth = cl.truth.clone();
        let m = 8 * KIB;
        let obs = collective_times(&cl, 1, 1, |e| rotation_alltoall(8, m, e)).unwrap()[0];
        let pred = cpm_models::collective::rotation_alltoall(&truth, m);
        // The blocking rotation couples rounds loosely (a slow pair delays
        // only its members), so the max-per-round prediction is an upper
        // bound within a modest factor.
        assert!(obs <= pred * 1.05, "obs {obs} vs upper-bound {pred}");
        assert!(obs >= pred * 0.5, "obs {obs} vs {pred}");
    }

    #[test]
    fn two_ranks_degenerate_to_a_single_exchange() {
        let cl = cluster(2);
        let truth = cl.truth.clone();
        let m = 4 * KIB;
        let out = run_script(&cl, &programs(2, |e| rotation_alltoall(2, m, e))).unwrap();
        // Both ranks send then receive; the exchange is symmetric and both
        // finish when the slower direction completes.
        let p2p = truth.p2p_time(Rank(0), Rank(1), m);
        for t in &out.finish_times {
            assert!(*t < 2.0 * p2p, "{t} vs p2p {p2p}");
            assert!(*t > 0.5 * p2p);
        }
    }
}
