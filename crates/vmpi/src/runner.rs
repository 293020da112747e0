//! Entry points for simulated MPI programs.

use cpm_core::error::Result;
use cpm_core::rank::Rank;
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

/// Runs a *timed experiment*: every rank executes `op` `reps` times with
/// barrier synchronization, and the per-repetition durations measured on
/// `timed_rank` are returned. Ranks not involved in the communication must
/// still participate in the barriers, which `timed_reps` guarantees.
///
/// This is the paper's measurement scheme: collectives and communication
/// experiments are timed on the sender/root side.
pub fn run_timed<F>(cluster: &SimCluster, timed_rank: Rank, reps: usize, op: F) -> Result<Vec<f64>>
where
    F: Fn(&mut Comm<'_>, usize) + Sync,
{
    let out = run(cluster, |c| c.timed_reps(reps, |c, rep| op(c, rep)))?;
    Ok(out.results[timed_rank.idx()].clone())
}

/// Runs a timed experiment and reports, per repetition, the *maximum*
/// duration over all ranks — the completion time of a collective operation
/// (all ranks leave the pre-repetition barrier together, so the maximum
/// local duration is exactly "barrier release → last rank done").
pub fn run_timed_max<F>(cluster: &SimCluster, reps: usize, op: F) -> Result<Vec<f64>>
where
    F: Fn(&mut Comm<'_>, usize) + Sync,
{
    let out = run(cluster, |c| c.timed_reps(reps, |c, rep| op(c, rep)))?;
    Ok((0..reps)
        .map(|r| {
            out.results
                .iter()
                .map(|per_rank| per_rank[r])
                .fold(0.0, f64::max)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};

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
    fn run_timed_measures_designated_rank() {
        let cl = cluster(3);
        let truth = cl.truth.clone();
        // Rank 0 scatters 1 KB to ranks 1 and 2 each rep.
        let times = run_timed(&cl, Rank(0), 4, |c, _| {
            if c.rank() == Rank(0) {
                c.send(Rank(1), 1024);
                c.send(Rank(2), 1024);
            } else {
                let _ = c.recv(Rank(0));
            }
        })
        .unwrap();
        assert_eq!(times.len(), 4);
        // Send returns after the tx engine slot; two sends = two slots.
        let expected = 2.0 * (truth.c[0] + 1024.0 * truth.t[0]);
        for t in &times {
            assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        }
    }

    #[test]
    fn run_timed_max_reports_collective_completion() {
        let cl = cluster(3);
        let truth = cl.truth.clone();
        // Rank 0 sends to 1 and 2; completion is sensed at the slowest
        // receiver, later than the root's local send time.
        let maxes = run_timed_max(&cl, 2, |c, _| {
            if c.rank() == Rank(0) {
                c.send(Rank(1), 4096);
                c.send(Rank(2), 4096);
            } else {
                let _ = c.recv(Rank(0));
            }
        })
        .unwrap();
        let root_only = run_timed(&cl, Rank(0), 2, |c, _| {
            if c.rank() == Rank(0) {
                c.send(Rank(1), 4096);
                c.send(Rank(2), 4096);
            } else {
                let _ = c.recv(Rank(0));
            }
        })
        .unwrap();
        assert!(maxes[0] > root_only[0], "{} vs {}", maxes[0], root_only[0]);
        let tx = truth.c[0] + 4096.0 * truth.t[0];
        assert!(maxes[0] > 2.0 * tx);
    }

    #[test]
    fn uninvolved_ranks_idle_through_barriers() {
        // A 5-rank cluster where only ranks 1 and 3 communicate; the others
        // only hit the barriers. This is the shape of pair/triplet
        // experiments during estimation.
        let cl = cluster(5);
        let times = run_timed(&cl, Rank(1), 3, |c, _| match c.rank().idx() {
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
        .unwrap();
        let expected = 2.0 * cl.truth.p2p_time(Rank(1), Rank(3), 2048);
        for t in &times {
            assert!((t - expected).abs() < 1e-12);
        }
    }
}
