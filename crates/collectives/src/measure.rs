//! The observation harness.
//!
//! Collectives are measured the way MPIBlib measures them: repetitions
//! separated by a global barrier, with the operation's completion time
//! taken as the maximum local duration over all ranks (all ranks leave the
//! barrier together). The sender-side timing the paper recommends for the
//! *estimation* experiments lives in `cpm-estimate`; for observing whole
//! collectives the max-time method senses the true completion (a root-only
//! timer would miss the tail of a scatter). MPIBlib's third method,
//! *global* timing (barrier exit to the next barrier's exit on any rank),
//! equals max-time here because the simulator's benchmark barrier is free.
//! All three durations are readings of one scripted run's op windows.

use cpm_core::error::Result;
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_models::GatherEmpirics;
use cpm_netsim::{ScriptOp, SimCluster, TimedScript};

use crate::gather::{binomial_gather, linear_gather};
use crate::optimized::optimized_gather;
use crate::scatter::{binomial_scatter, linear_scatter};

/// The per-rank programs of one collective: what `emit` hands the sink,
/// collected rank by rank — ready for `cpm_netsim::run_script`.
pub fn programs(n: usize, emit: impl FnOnce(&mut dyn FnMut(Rank, ScriptOp))) -> Vec<Vec<ScriptOp>> {
    let mut per_rank = vec![Vec::new(); n];
    emit(&mut |rank, op| per_rank[rank.idx()].push(op));
    per_rank
}

/// Measures any collective `reps` times, returning per-repetition
/// completion times (max-time over ranks). `program` emits the collective
/// once (e.g. `|e| linear_bcast(n, root, m, e)`); every repetition is a
/// barrier followed by one timed span per rank, run as one scripted
/// program on `cluster.reseeded(seed)`.
pub fn collective_times(
    cluster: &SimCluster,
    reps: usize,
    seed: u64,
    program: impl Fn(&mut dyn FnMut(Rank, ScriptOp)),
) -> Result<Vec<f64>> {
    let mut script = TimedScript::new(cluster.n());
    for _ in 0..reps {
        script.barrier();
        script.timed_all(&program);
    }
    let (times, _) = script.run(&cluster.reseeded(seed))?;
    let slowest = |rep: usize| times.iter().map(|rank| rank[rep]).fold(0.0, f64::max);
    Ok((0..reps).map(slowest).collect())
}

/// Root-side times of `reps` linear scatters.
pub fn linear_scatter_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    collective_times(cluster, reps, seed, |e| {
        linear_scatter(cluster.n(), root, m, e)
    })
}

/// Root-side times of `reps` linear gathers.
pub fn linear_gather_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    collective_times(cluster, reps, seed, |e| {
        linear_gather(cluster.n(), root, m, e)
    })
}

/// Root-side times of `reps` binomial scatters (conventional tree mapping).
pub fn binomial_scatter_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let tree = BinomialTree::new(cluster.n(), root);
    collective_times(cluster, reps, seed, |e| binomial_scatter(&tree, m, e))
}

/// Root-side times of `reps` binomial gathers.
pub fn binomial_gather_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let tree = BinomialTree::new(cluster.n(), root);
    collective_times(cluster, reps, seed, |e| binomial_gather(&tree, m, e))
}

/// Root-side times of `reps` optimized gathers.
pub fn optimized_gather_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    empirics: &GatherEmpirics,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    collective_times(cluster, reps, seed, |e| {
        optimized_gather(cluster.n(), root, m, empirics, e)
    })
}

/// One linear scatter observation (first repetition).
pub fn linear_scatter_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    linear_scatter_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

/// One linear gather observation.
pub fn linear_gather_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    linear_gather_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

/// One binomial scatter observation rooted at 0.
pub fn binomial_scatter_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    binomial_scatter_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

/// One binomial scatter observation with an arbitrary root (alias kept for
/// clarity at call sites exercising non-zero roots).
pub fn binomial_scatter_once_rooted(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    binomial_scatter_once(cluster, root, m)
}

/// One binomial gather observation.
pub fn binomial_gather_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    binomial_gather_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;

    fn cluster() -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    #[test]
    fn repetitions_are_stable_without_noise() {
        let cl = cluster();
        let ts = linear_scatter_times(&cl, Rank(0), 4 * KIB, 5, 1).unwrap();
        assert_eq!(ts.len(), 5);
        for t in &ts {
            assert!((t - ts[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_makes_repetitions_vary() {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 1);
        let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.02, 1);
        let ts = linear_scatter_times(&cl, Rank(0), 4 * KIB, 6, 1).unwrap();
        let spread = ts.iter().cloned().fold(0.0f64, f64::max)
            - ts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0);
    }

    /// MPIBlib's three timing methods, read off one run's windows: the
    /// root-side duration misses a scatter's tail, and barrier-to-barrier
    /// ("global") equals the max over ranks because the barrier is free.
    #[test]
    fn root_timing_misses_the_tail_and_global_equals_max() {
        let cl = cluster();
        let mut per_rank = programs(4, |e| linear_scatter(4, Rank(0), 8 * KIB, e));
        for program in &mut per_rank {
            program.insert(0, ScriptOp::Barrier);
            program.push(ScriptOp::Barrier);
        }
        let out = cpm_netsim::run_script(&cl, &per_rank).unwrap();
        // Per rank: the span between the barriers, and where the closing
        // barrier released.
        let span = |w: &Vec<(f64, f64)>| w[w.len() - 2].1 - w[1].0;
        let root = span(&out.windows[0]);
        let max = out.windows.iter().map(span).fold(0.0, f64::max);
        let global = out.windows[0].last().unwrap().1 - out.windows[0][0].1;
        assert!(
            root < max,
            "root {root} must miss the receivers' tail {max}"
        );
        assert_eq!(global, max);
        assert_eq!(max, linear_scatter_once(&cl, Rank(0), 8 * KIB));
    }

    #[test]
    fn once_helpers_agree_with_times() {
        let cl = cluster();
        let once = linear_gather_once(&cl, Rank(0), KIB);
        let times = linear_gather_times(&cl, Rank(0), KIB, 1, cl.seed).unwrap();
        assert_eq!(once, times[0]);
    }
}
