//! Acceptance for the hierarchical planner: on a 4-node × 8-core
//! cluster the planned makespan of every canonical workload under the
//! hierarchical LMO — whose per-op choice may pick the leader-based
//! two-phase lowerings — is within 10% of the DES replay of the same
//! choices, and the level-aware choice never loses to the folded flat
//! model's schedule.
//!
//! Plan and replay run on the same machine, so the residual here is
//! parameter error, not model error: `HierLmo::from_truth` replaces each
//! level's links by their mean, while the cluster keeps its per-link
//! values (2.7 % on the ledger's `train_hier8x8`,
//! `harness.plan_rel_err_hier`). With per-link parameters the flat test
//! in `accuracy.rs` shows the same comparison exact to the bit.

use cpm_cluster::ClusterConfig;
use cpm_core::units::KIB;
use cpm_models::HierLmo;
use cpm_netsim::SimCluster;
use cpm_workload::{choose, compare, gen, plan, replay, Algorithm, PlanModel};

const NODES: usize = 4;
const CORES: usize = 8;

fn hier_cluster(seed: u64) -> (SimCluster, HierLmo) {
    let config = ClusterConfig::hierarchical(NODES, CORES, seed);
    let sim = SimCluster::from_config(&config);
    let h = HierLmo::from_truth(&sim.truth, &config.topology).expect("hierarchical truth");
    (sim, h)
}

#[test]
fn hier_plan_within_ten_percent_of_des_on_every_canonical_workload() {
    let (sim, h) = hier_cluster(2009);
    let model = PlanModel::LmoHier(h);
    for kind in gen::CANONICAL_KINDS {
        for m in [4 * KIB, 64 * KIB] {
            let trace = gen::canonical(kind, NODES * CORES, m, 2).unwrap();
            let p = plan(&trace, &model).unwrap();
            let r = replay(&sim, &trace, &choose(&trace, &model)).unwrap();
            let c = compare(&trace, &p, &r);
            assert!(
                c.rel_error.abs() <= 0.10,
                "{kind}@{m}: predicted {} vs observed {} (rel {:+.3})",
                c.predicted_makespan,
                c.observed_makespan,
                c.rel_error
            );
        }
    }
}

#[test]
fn two_phase_is_chosen_and_pays_on_the_training_workload() {
    // On the preset hierarchy (slow inter-node switch under fast
    // intra-node links) the 64 KiB training step should lower its
    // collectives through the leaders — and the resulting DES makespan
    // must not be worse than replaying the flat model's choices.
    let (sim, h) = hier_cluster(17);
    let flat = PlanModel::Lmo(h.to_extended());
    let hier = PlanModel::LmoHier(h);
    let trace = gen::canonical("train", NODES * CORES, 64 * KIB, 2).unwrap();
    let hier_choices = choose(&trace, &hier);
    assert!(
        hier_choices
            .iter()
            .any(|c| matches!(c, Some(Algorithm::TwoPhase { .. }))),
        "expected at least one two-phase lowering, got {hier_choices:?}"
    );
    let hier_obs = replay(&sim, &trace, &hier_choices).unwrap().makespan;
    let flat_obs = replay(&sim, &trace, &choose(&trace, &flat))
        .unwrap()
        .makespan;
    assert!(
        hier_obs <= flat_obs * 1.001,
        "level-aware schedule lost to the flat one: {hier_obs} vs {flat_obs}"
    );
}
