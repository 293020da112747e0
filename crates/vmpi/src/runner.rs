//! Entry points for simulated MPI programs.

use cpm_core::error::Result;
use cpm_netsim::{simulate, SimCluster, SimStats};

use crate::comm::Comm;

/// Output of [`run`]: per-rank results plus end-of-simulation times.
#[derive(Clone, Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values of the program.
    pub results: Vec<R>,
    /// Virtual time when the last rank finished, seconds.
    pub end_time: f64,
    /// Kernel counters (message conservation, event counts).
    pub stats: SimStats,
}

/// Runs an SPMD program over all ranks of the cluster.
pub fn run<R, F>(cluster: &SimCluster, f: F) -> Result<RunOutput<R>>
where
    R: Send,
    F: Fn(&mut Comm<'_>) -> R + Sync,
{
    let out = simulate(cluster, |p| {
        let mut comm = Comm::new(p);
        f(&mut comm)
    })?;
    Ok(RunOutput {
        results: out.results,
        end_time: out.end_time,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::rank::Rank;

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    #[test]
    fn run_collects_all_ranks() {
        let cl = cluster(4);
        let out = run(&cl, |c| c.rank().idx() * 10).unwrap();
        assert_eq!(out.results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn timed_reps_measure_each_rank_between_barriers() {
        let cl = cluster(3);
        let truth = cl.truth.clone();
        // Rank 0 scatters 1 KB to ranks 1 and 2 each rep.
        let out = run(&cl, |c| {
            c.timed_reps(4, |c, _| {
                if c.rank() == Rank(0) {
                    c.send(Rank(1), 1024);
                    c.send(Rank(2), 1024);
                } else {
                    let _ = c.recv(Rank(0));
                }
            })
        })
        .unwrap();
        assert_eq!(out.results[0].len(), 4);
        // Send returns after the tx engine slot; two sends = two slots.
        let expected = 2.0 * (truth.c[0] + 1024.0 * truth.t[0]);
        for t in &out.results[0] {
            assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        }
        // Completion is sensed at the slowest receiver, later than the
        // root's local send time.
        assert!(out.results[2][0] > out.results[0][0]);
    }

    #[test]
    fn uninvolved_ranks_idle_through_barriers() {
        // A 5-rank cluster where only ranks 1 and 3 communicate; the others
        // only hit the barriers.
        let cl = cluster(5);
        let out = run(&cl, |c| {
            c.timed_reps(3, |c, _| match c.rank().idx() {
                1 => {
                    c.send(Rank(3), 2048);
                    let _ = c.recv(Rank(3));
                }
                3 => {
                    let _ = c.recv(Rank(1));
                    c.send(Rank(1), 2048);
                }
                _ => {}
            })
        })
        .unwrap();
        let expected = 2.0 * cl.truth.p2p_time(Rank(1), Rank(3), 2048);
        for t in &out.results[1] {
            assert!((t - expected).abs() < 1e-12);
        }
        assert_eq!(out.results[0], vec![0.0; 3]);
    }
}
