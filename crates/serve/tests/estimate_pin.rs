//! End-to-end pin of the estimation pipeline: the full parameter set of a
//! cluster — every model's parameters, `runs` and `virtual_cost` included —
//! hashes to the digest it had while the communication experiments still
//! ran on rank threads. Any change to an experiment's program, its
//! measured span, RNG draw order or an estimator's arithmetic moves a
//! digest; the per-experiment differential tests
//! (`crates/estimate/tests/scripted_vs_threaded.rs`) say which.

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_serve::ParamSet;

fn digest(config: &ClusterConfig, seed: u64) -> String {
    let est = EstimateConfig {
        reps: 3,
        ..EstimateConfig::with_seed(seed)
    };
    let ps = ParamSet::estimate(config, &est).expect("estimation succeeds");
    cpm_core::canonical_hash(&serde_json::to_value(&ps).expect("parameter set serializes"))
}

#[test]
fn parameter_sets_hash_as_they_did_on_rank_threads() {
    let pinned = [
        (
            2009,
            "c48bd0587216c8bd0e879c42cbc704ee",
            "dd96144af94167e99116a6f074760168",
        ),
        (
            7,
            "31f504383c6732e3cfe39534f2c1056e",
            "a9ef4f7360d40e5769fc2ea028e63566",
        ),
    ];
    for (seed, lam, ideal) in pinned {
        assert_eq!(
            digest(&ClusterConfig::paper_lam(seed), seed),
            lam,
            "paper_lam({seed})"
        );
        assert_eq!(
            digest(
                &ClusterConfig::ideal(ClusterSpec::paper_cluster(), seed),
                seed
            ),
            ideal,
            "ideal(paper_cluster, {seed})"
        );
    }
}
