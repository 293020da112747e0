//! Estimation under fuzzed schedules: the DES fires same-timestamp events
//! in a seeded permutation instead of insertion order. The estimation
//! experiments are barrier-separated straight-line exchanges, so no
//! measurement may depend on tie order: on the noise-free paper cluster
//! every recovered `(C, t, L, β)` stays within rounding of ground truth
//! (observed: 1.75e-14 at worst), and the observed spread across
//! permutations is pinned at what it is — none.

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_estimate::lmo::estimate_lmo_full;
use cpm_estimate::EstimateConfig;
use cpm_models::LmoExtended;
use cpm_netsim::SimCluster;

/// Largest relative error of any recovered parameter against `truth`.
fn max_rel_err(lmo: &LmoExtended, truth: &GroundTruth) -> f64 {
    let rel = |got: f64, want: f64| ((got - want) / want).abs();
    let nodes = (lmo.c.iter().zip(&truth.c)).chain(lmo.t.iter().zip(&truth.t));
    let links = (lmo.l.iter().zip(truth.l.iter())).chain(lmo.beta.iter().zip(truth.beta.iter()));
    nodes
        .map(|(g, w)| rel(*g, *w))
        .chain(links.map(|((_, g), (_, w))| rel(*g, *w)))
        .fold(0.0, f64::max)
}

#[test]
fn lmo_estimation_is_exact_under_fuzzed_schedules() {
    let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2009);
    let cluster = SimCluster::new(truth.clone(), MpiProfile::ideal(), 0.0, 2009);
    let cfg = EstimateConfig {
        reps: 2,
        ..EstimateConfig::with_seed(2009)
    };
    let estimate = |cl: &SimCluster| estimate_lmo_full(cl, &cfg).expect("estimation succeeds");
    let plain = estimate(&cluster);
    let err = max_rel_err(&plain.model, &truth);
    assert!(err < 1e-9, "insertion order: {err:e}");
    for seed in 0..8 {
        let fuzzed = estimate(&cluster.clone().with_schedule_fuzz(seed));
        let err = max_rel_err(&fuzzed.model, &truth);
        assert!(err < 1e-9, "fuzz seed {seed}: {err:e}");
        assert_eq!(fuzzed.model, plain.model, "fuzz seed {seed}");
        assert_eq!(
            (fuzzed.runs, fuzzed.virtual_cost.to_bits()),
            (plain.runs, plain.virtual_cost.to_bits()),
            "fuzz seed {seed}"
        );
    }
}
