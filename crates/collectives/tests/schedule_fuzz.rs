//! Schedule-fuzz properties: no collective algorithm depends on the
//! firing order of same-timestamp events.
//!
//! The simulator's event queue can permute tied events with a seeded
//! fuzzer (`SimCluster::with_schedule_fuzz`) — time order is untouched,
//! only ties are shuffled deterministically per seed. A correct
//! collective must be insensitive to that: its completion time and the
//! bytes it delivers are properties of the algorithm and the cluster,
//! not of tie-breaking accidents. Each algorithm is run under 16 fuzzed
//! orderings and compared bit-for-bit against the unfuzzed baseline.

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_collectives::measure::programs;
use cpm_collectives::{
    binomial_bcast, binomial_gather, binomial_reduce, binomial_scatter, linear_bcast,
    linear_gather, linear_reduce, linear_scatter, ring_allgather, ring_allgather_overlap,
    rotation_alltoall,
};
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_netsim::{run_script_traced, SimCluster, TraceEvent};
use proptest::prelude::*;

/// Ideal profile, zero noise: the run is purely deterministic, so any
/// difference between fuzz seeds is a real order dependence, not RNG.
fn cluster(n: usize, seed: u64) -> SimCluster {
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), seed);
    SimCluster::new(truth, MpiProfile::ideal(), 0.0, seed)
}

/// Runs one collective on `cl` and reduces the outcome to what must be
/// schedule-independent: per-rank finish times, the end-to-end completion
/// time, and the total bytes actually delivered to receivers.
fn observe(cl: &SimCluster, which: u8, root: Rank, m: u64) -> (Vec<f64>, f64, u64) {
    let n = cl.n();
    let tree = BinomialTree::new(n, root);
    let program = programs(n, |e| match which {
        0 => linear_scatter(n, root, m, e),
        1 => binomial_scatter(&tree, m, e),
        2 => linear_gather(n, root, m, e),
        3 => binomial_gather(&tree, m, e),
        4 => linear_bcast(n, root, m, e),
        5 => binomial_bcast(&tree, m, e),
        6 => linear_reduce(n, root, m, 1e-9, e),
        7 => binomial_reduce(&tree, m, 1e-9, e),
        8 => ring_allgather(n, m, e),
        9 => ring_allgather_overlap(n, m, e),
        _ => rotation_alltoall(n, m, e),
    });
    let out = run_script_traced(cl, &program).unwrap();
    let trace = out.trace.expect("a traced run records its trace");
    // Delivered bytes: map each message id to its payload size (recorded
    // on the tx slot), then sum over the messages a `recv` consumed.
    let mut size_of = std::collections::HashMap::new();
    let mut delivered = 0u64;
    for ev in &trace.events {
        match ev {
            TraceEvent::TxSlot { msg, bytes, .. } => {
                size_of.insert(*msg, *bytes);
            }
            TraceEvent::Received { msg, .. } => delivered += size_of[msg],
            _ => {}
        }
    }
    (out.finish_times, out.end_time, delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 16 fuzzed same-timestamp orderings of every algorithm agree with
    /// the unfuzzed run on completion times and delivered bytes.
    #[test]
    fn fuzzed_tie_orders_never_change_the_outcome(
        n in 2usize..9,
        m in 1u64..65_536,
        root_seed in 0usize..8,
        which in 0u8..11,
    ) {
        let root = Rank::from(root_seed % n);
        let base_cl = cluster(n, 5);
        let (finish, end, bytes) = observe(&base_cl, which, root, m);
        for fuzz_seed in 0..16u64 {
            let fuzzed_cl = cluster(n, 5).with_schedule_fuzz(fuzz_seed);
            let (f2, e2, b2) = observe(&fuzzed_cl, which, root, m);
            prop_assert_eq!(
                e2, end,
                "algorithm {} under fuzz seed {}: completion time changed",
                which, fuzz_seed
            );
            prop_assert_eq!(
                &f2, &finish,
                "algorithm {} under fuzz seed {}: per-rank finish times changed",
                which, fuzz_seed
            );
            prop_assert_eq!(
                b2, bytes,
                "algorithm {} under fuzz seed {}: delivered bytes changed",
                which, fuzz_seed
            );
        }
    }
}
