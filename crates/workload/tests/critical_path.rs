//! Property: critical-path extraction explains the plan exactly. On a
//! random DAG schedule (arbitrary op mix over arbitrary rank counts and
//! sizes, under arbitrary model parameters) the extracted path is a
//! gap-free chain from t=0 to the makespan, and its model-term
//! attribution sums back to the predicted time — the planner never emits
//! a prediction its own explanation cannot account for. Under the
//! separable model the same schedules also pin that the plan *is* the
//! replay on an ideal cluster with the model's parameters, to the bit.

use cpm_cluster::{GroundTruth, MpiProfile};
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_models::{GatherEmpirics, HockneyHet, LmoExtended, LogGp};
use cpm_netsim::SimCluster;
use cpm_workload::{choose, plan, replay, OpKind, PlanModel, Trace, TraceOp};
use proptest::prelude::*;

/// One random op; `src`/`dst`/`root` are reduced modulo `n` at build time
/// so the strategy is independent of the rank count.
#[derive(Clone, Debug)]
enum ArbOp {
    P2p { src: usize, dst: usize, m: u64 },
    Scatter { root: usize, m: u64 },
    Gather { root: usize, m: u64 },
    Bcast { root: usize, m: u64 },
    Reduce { root: usize, m: u64, gamma: f64 },
    Allgather { m: u64 },
    Alltoall { m: u64 },
    Compute { mask: u8, seconds: f64 },
    Barrier,
}

fn arb_op() -> impl Strategy<Value = ArbOp> {
    (
        (0usize..9, 0usize..64, 0usize..64),
        (1u64..64 * 1024, 0.0f64..1e-7, 1e-6f64..1e-2),
        1u8..=255u8,
    )
        .prop_map(|((k, a, b), (m, gamma, seconds), mask)| match k {
            0 => ArbOp::P2p { src: a, dst: b, m },
            1 => ArbOp::Scatter { root: a, m },
            2 => ArbOp::Gather { root: a, m },
            3 => ArbOp::Bcast { root: a, m },
            4 => ArbOp::Reduce { root: a, m, gamma },
            5 => ArbOp::Allgather { m },
            6 => ArbOp::Alltoall { m },
            7 => ArbOp::Compute { mask, seconds },
            _ => ArbOp::Barrier,
        })
}

fn build_trace(n: usize, ops: &[ArbOp]) -> Trace {
    let rank = |r: usize| Rank((r % n) as u32);
    let ops = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let kind = match *op {
                ArbOp::P2p { src, dst, m } => OpKind::P2p {
                    src: rank(src),
                    // A p2p needs two distinct endpoints.
                    dst: if src % n == dst % n {
                        rank(dst + 1)
                    } else {
                        rank(dst)
                    },
                    m,
                },
                ArbOp::Scatter { root, m } => OpKind::Scatter {
                    root: rank(root),
                    m,
                },
                ArbOp::Gather { root, m } => OpKind::Gather {
                    root: rank(root),
                    m,
                },
                ArbOp::Bcast { root, m } => OpKind::Bcast {
                    root: rank(root),
                    m,
                },
                ArbOp::Reduce { root, m, gamma } => OpKind::Reduce {
                    root: rank(root),
                    m,
                    gamma,
                },
                ArbOp::Allgather { m } => OpKind::Allgather { m },
                ArbOp::Alltoall { m } => OpKind::Alltoall { m },
                ArbOp::Compute { mask, seconds } => OpKind::Compute {
                    ranks: (0..n)
                        .filter(|r| mask & (1 << (r % 8)) != 0)
                        .map(|r| Rank(r as u32))
                        .collect(),
                    seconds,
                },
                ArbOp::Barrier => OpKind::Barrier,
            };
            TraceOp {
                id: i as u64,
                phase: format!("ph{}", i % 3),
                kind,
            }
        })
        // A compute mask can select nobody; validation rejects that op.
        .filter(|op| !matches!(&op.kind, OpKind::Compute { ranks, .. } if ranks.is_empty()))
        .collect();
    Trace {
        name: "prop".into(),
        n,
        ops,
    }
}

/// The chain must start at 0, be contiguous, end at the makespan, and its
/// term attribution must sum to the makespan.
fn assert_explains(p: &cpm_workload::Plan, what: &str) {
    let cp = &p.critical_path;
    let tol = 1e-9 * p.makespan.abs().max(1e-12);
    assert!(
        (cp.seconds - p.makespan).abs() <= tol,
        "{what}: path {} vs makespan {}",
        cp.seconds,
        p.makespan
    );
    let term_sum: f64 = cp.terms.iter().map(|(_, v)| v).sum();
    assert!(
        (term_sum - p.makespan).abs() <= tol,
        "{what}: terms {term_sum} vs makespan {}",
        p.makespan
    );
    let mut at = 0.0;
    for s in &cp.steps {
        assert!(
            (s.start - at).abs() <= tol,
            "{what}: gap — step starts {} with chain at {at}",
            s.start
        );
        assert!(s.end >= s.start, "{what}: step runs backwards");
        at = s.end;
    }
    assert!(
        (at - p.makespan).abs() <= tol,
        "{what}: chain ends at {at}, makespan {}",
        p.makespan
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Separable LMO: heterogeneous per-rank and per-pair parameters.
    #[test]
    fn path_time_equals_plan_time_under_lmo(
        n in 2usize..10,
        ops in prop::collection::vec(arb_op(), 1..10),
        c0 in 1e-6f64..1e-4,
        t0 in 1e-10f64..1e-8,
        l0 in 1e-6f64..1e-4,
        beta0 in 1e6f64..1e9,
    ) {
        let t = build_trace(n, &ops);
        prop_assume!(!t.ops.is_empty());
        // Deterministic per-rank skew so heterogeneity is exercised.
        let c: Vec<f64> = (0..n).map(|r| c0 * (1.0 + 0.3 * r as f64)).collect();
        let tt: Vec<f64> = (0..n).map(|r| t0 * (1.0 + 0.1 * r as f64)).collect();
        let l = SymMatrix::from_fn(n, |i, j| l0 * (1.0 + 0.05 * (i.idx() + j.idx()) as f64));
        let beta = SymMatrix::from_fn(n, |i, j| beta0 / (1.0 + 0.05 * (i.idx() * j.idx()) as f64));
        let truth = GroundTruth { c: c.clone(), t: tt.clone(), l: l.clone(), beta: beta.clone() };
        let model = PlanModel::Lmo(LmoExtended::new(c, tt, l, beta, GatherEmpirics::none()));
        let p = plan(&t, &model).unwrap();
        assert_explains(&p, "lmo");
        // The plan is the replay on an ideal cluster with these parameters.
        let cluster = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1);
        let r = replay(&cluster, &t, &choose(&t, &model)).unwrap();
        let bits = |start: f64, end: f64| (start.to_bits(), end.to_bits());
        prop_assert_eq!(p.makespan.to_bits(), r.makespan.to_bits());
        for (planned, observed) in p.ops.iter().zip(&r.ops) {
            prop_assert_eq!(
                (planned.id, bits(planned.start, planned.end)),
                (observed.id, bits(observed.start, observed.end))
            );
        }
    }

    /// Non-separable models: whole-transfer occupancy, alpha/beta split.
    #[test]
    fn path_time_equals_plan_time_under_whole_transfer_models(
        n in 2usize..10,
        ops in prop::collection::vec(arb_op(), 1..10),
        alpha in 1e-6f64..1e-3,
        beta in 1e6f64..1e9,
        use_loggp in any::<bool>(),
    ) {
        let t = build_trace(n, &ops);
        prop_assume!(!t.ops.is_empty());
        let model = if use_loggp {
            PlanModel::Loggp(LogGp { l: alpha, o: alpha / 10.0, g: alpha / 100.0, big_g: 1.0 / beta, p: n })
        } else {
            PlanModel::Hockney(HockneyHet::new(
                SymMatrix::filled(n, alpha),
                SymMatrix::filled(n, beta),
            ))
        };
        let p = plan(&t, &model).unwrap();
        assert_explains(&p, if use_loggp { "loggp" } else { "hockney" });
    }
}
