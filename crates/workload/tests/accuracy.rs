//! Acceptance: on the paper's 16-node Table I cluster (regular regime —
//! ideal profile, no noise), the plan of every canonical workload under
//! the extended LMO model with the cluster's own parameters *is* the DES
//! replay of the same trace: same makespan, same op windows, to the bit.
//! A plan is a replay on the model's parameters, so where the parameters
//! are the truth there is nothing left to differ.

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_core::units::KIB;
use cpm_models::{GatherEmpirics, LmoExtended};
use cpm_netsim::SimCluster;
use cpm_workload::{choose, compare, gen, plan, replay, PlanModel};

fn paper_cluster(seed: u64) -> SimCluster {
    let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), seed);
    SimCluster::new(truth, MpiProfile::ideal(), 0.0, seed)
}

fn truth_lmo(cl: &SimCluster) -> PlanModel {
    PlanModel::Lmo(LmoExtended::new(
        cl.truth.c.clone(),
        cl.truth.t.clone(),
        cl.truth.l.clone(),
        cl.truth.beta.clone(),
        GatherEmpirics::none(),
    ))
}

#[test]
fn plan_equals_replay_bit_for_bit_on_the_ideal_paper_cluster() {
    let cl = paper_cluster(2009);
    let model = truth_lmo(&cl);
    for kind in gen::CANONICAL_KINDS {
        for m in [4 * KIB, 32 * KIB] {
            let trace = gen::canonical(kind, 16, m, 3).unwrap();
            let p = plan(&trace, &model).unwrap();
            let r = replay(&cl, &trace, &choose(&trace, &model)).unwrap();
            assert_eq!(
                p.makespan.to_bits(),
                r.makespan.to_bits(),
                "{kind}@{m}: predicted {:e} vs observed {:e}",
                p.makespan,
                r.makespan
            );
            assert_eq!(p.ops.len(), r.ops.len(), "{kind}@{m}");
            for (planned, observed) in p.ops.iter().zip(&r.ops) {
                assert_eq!(
                    (planned.id, planned.start.to_bits(), planned.end.to_bits()),
                    (
                        observed.id,
                        observed.start.to_bits(),
                        observed.end.to_bits()
                    ),
                    "{kind}@{m} op {}: planned [{:e}, {:e}] vs observed [{:e}, {:e}]",
                    planned.id,
                    planned.start,
                    planned.end,
                    observed.start,
                    observed.end
                );
            }
        }
    }
}

#[test]
fn per_op_residuals_are_small_in_the_regular_regime() {
    // Not just the makespan: each op's predicted window should track the
    // DES closely when the model parameters are the simulator's truth.
    let cl = paper_cluster(7);
    let model = truth_lmo(&cl);
    let trace = gen::training_step(16, 16 * KIB, 3, 4e-9, 1e-3);
    let p = plan(&trace, &model).unwrap();
    let r = replay(&cl, &trace, &choose(&trace, &model)).unwrap();
    let c = compare(&trace, &p, &r);
    for op in &c.ops {
        assert!(
            op.rel.abs() <= 0.10 || op.observed < 1e-6,
            "op {} ({}): predicted {} vs observed {} (rel {:+.3})",
            op.id,
            op.kind,
            op.predicted,
            op.observed,
            op.rel
        );
    }
}

#[test]
fn makespan_scales_with_message_size() {
    let cl = paper_cluster(3);
    let model = truth_lmo(&cl);
    let small = gen::moe_alltoall(16, 4 * KIB, 2, 0.0);
    let large = gen::moe_alltoall(16, 64 * KIB, 2, 0.0);
    let ps = plan(&small, &model).unwrap().makespan;
    let pl = plan(&large, &model).unwrap().makespan;
    assert!(pl > ps * 4.0, "{pl} vs {ps}");
}
