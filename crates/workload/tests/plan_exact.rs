//! A plan is a pure function of the trace and the model's numbers. The
//! model's machine shares the model's link matrices instead of copying
//! them, so nothing a plan reads may depend on that sharing: planning
//! twice with one `PlanModel`, and once more with one rebuilt from the raw
//! numbers (no storage in common), gives equal plans, makespans equal to
//! the bit — under all five model kinds, on every canonical workload.

use cpm_cluster::ClusterConfig;
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_core::units::KIB;
use cpm_models::{GatherEmpirics, HierLmo, HockneyHet, LmoExtended, LogGp, PLogP};
use cpm_netsim::SimCluster;
use cpm_workload::{gen, plan, PlanModel};

const N: usize = 16;

/// A deep copy: the same numbers in storage of its own.
fn fresh(m: &SymMatrix<f64>) -> SymMatrix<f64> {
    SymMatrix::from_fn(m.n(), |i, j| *m.get(i, j))
}

/// The five model kinds, each built from raw numbers on every call.
fn models() -> Vec<(&'static str, PlanModel)> {
    let sim = SimCluster::from_config(&ClusterConfig::paper_lam(2009));
    let truth = &sim.truth;
    // The LAM thresholds ride on the machine's profile, so fan-ins above
    // M2 serialize at the receiver in these plans.
    let gather = GatherEmpirics {
        m1: 4 * KIB,
        m2: 64 * KIB,
        escalation_probability: 0.4,
        escalation_magnitude: 0.2,
        escalation_prob_knots: Vec::new(),
    };
    let lmo = LmoExtended::new(
        truth.c.clone(),
        truth.t.clone(),
        fresh(&truth.l),
        fresh(&truth.beta),
        gather,
    );
    let config = ClusterConfig::hierarchical(4, 4, 2010);
    let hier = HierLmo::from_truth(&config.ground_truth(), &config.topology)
        .expect("a hierarchical config has a hierarchical model");
    let hockney = HockneyHet::new(
        SymMatrix::from_fn(N, |i, j| 60e-6 + 1e-6 * (i.0 + j.0) as f64),
        SymMatrix::from_fn(N, |i, j| 85e-9 + 1e-10 * (i.0 * j.0) as f64),
    );
    let loggp = LogGp {
        l: 50e-6,
        o: 20e-6,
        g: 30e-6,
        big_g: 85e-9,
        p: N,
    };
    let plogp: PLogP = serde_json::from_str(
        r#"{"l":6e-5,"os":[[0.0,2e-5],[65536.0,3e-4]],"or":[[0.0,2.5e-5]],
            "g":[[0.0,4e-5],[1e6,8.5e-2]],"p":16}"#,
    )
    .expect("a PLogP parameter set");
    vec![
        ("lmo", PlanModel::Lmo(lmo)),
        ("lmo-hier", PlanModel::LmoHier(hier)),
        ("hockney", PlanModel::Hockney(hockney)),
        ("loggp", PlanModel::Loggp(loggp)),
        ("plogp", PlanModel::Plogp(plogp)),
    ]
}

#[test]
fn plans_are_the_same_however_often_and_from_whichever_copy() {
    let (kept, rebuilt) = (models(), models());
    for ((name, model), (_, again)) in kept.iter().zip(&rebuilt) {
        for kind in gen::CANONICAL_KINDS {
            for m in [KIB, 16 * KIB, 128 * KIB] {
                let trace = gen::canonical(kind, N, m, 2).expect("a canonical kind");
                let what = format!("{name}/{kind}@{m}");
                let first = plan(&trace, model).expect(&what);
                let second = plan(&trace, model).expect(&what);
                let fresh = plan(&trace, again).expect(&what);
                assert_eq!(
                    first.makespan.to_bits(),
                    second.makespan.to_bits(),
                    "{what}"
                );
                assert_eq!(first.makespan.to_bits(), fresh.makespan.to_bits(), "{what}");
                assert_eq!(first, second, "{what}: planned twice");
                assert_eq!(first, fresh, "{what}: from a rebuilt model");
                assert!(!first.critical_path.steps.is_empty(), "{what}");
            }
        }
    }
}

/// The machine shares the model's matrices; a model written to in place
/// after a plan plans as a model built with the new numbers from the start,
/// and a clone taken before the write keeps planning as the old model.
#[test]
fn a_model_changed_after_a_plan_plans_as_its_new_self() {
    let trace = gen::canonical("train", N, 16 * KIB, 2).expect("a canonical kind");
    let (_, PlanModel::Lmo(mut lmo)) = models().remove(0) else {
        unreachable!("the first model is the flat LMO")
    };
    let before = plan(&trace, &PlanModel::Lmo(lmo.clone())).expect("plans");
    let shared = PlanModel::Lmo(lmo.clone());
    for i in 0..N {
        for j in i + 1..N {
            *lmo.beta.get_mut(Rank::from(i), Rank::from(j)) /= 2.0;
        }
    }
    let halved = PlanModel::Lmo(LmoExtended::new(
        lmo.c.clone(),
        lmo.t.clone(),
        fresh(&lmo.l),
        fresh(&lmo.beta),
        lmo.gather.clone(),
    ));
    let after = plan(&trace, &PlanModel::Lmo(lmo)).expect("plans");
    assert_eq!(after, plan(&trace, &halved).expect("plans"));
    assert!(after.makespan > before.makespan);
    assert_eq!(before, plan(&trace, &shared).expect("plans"));
}
