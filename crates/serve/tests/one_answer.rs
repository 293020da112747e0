//! One answer per question. `predict`, `compute`, `select`, the workload
//! planner's chooser and `TunedCollectives` all read one function,
//! `cpm_collectives::cost`: for LMO and `lmo-hier` the emitted program run
//! on the model's machine (its `M1`/`M2` on the profile) plus eq. (5)'s
//! expected escalation for a linear fan-in in `[M1, M2)`; for the
//! whole-transfer models their closed forms. These properties hold that
//! together over parameter sets estimated from an ideal 4-node cluster,
//! the ideal 16-node paper cluster and the paper's LAM cluster, plus a
//! hierarchical set — every collective, algorithm, root and the sizes
//! around each set's thresholds.

use std::sync::OnceLock;

use cpm_cluster::{ClusterConfig, ClusterSpec, MpiProfile};
use cpm_collectives::cost::{choose, cost, CostModel, Machine, Op, Rooted};
use cpm_collectives::{Algorithm, TunedCollectives};
use cpm_core::rank::Rank;
use cpm_core::units::{Bytes, KIB};
use cpm_estimate::EstimateConfig;
use cpm_models::{GatherEmpirics, HierLmo, LmoExtended};
use cpm_netsim::SimCluster;
use cpm_serve::service::{compute, Algorithm as Wire, Collective, ModelKind, Query};
use cpm_serve::{ClusterRef, ParamSet, Service, ServiceConfig};
use cpm_workload::{OpKind, Plan, PlanModel, Trace, TraceOp};

const GAMMA: f64 = 5e-9;

/// One service holding the three estimated sets (estimated once per test
/// binary): ideal `homogeneous(4)`, the ideal paper cluster, `paper_lam`.
fn estimated() -> &'static (Service, Vec<(ClusterRef, ParamSet)>) {
    static SETS: OnceLock<(Service, Vec<(ClusterRef, ParamSet)>)> = OnceLock::new();
    SETS.get_or_init(|| {
        cpm_obs::Recorder::global().set_enabled(false);
        let dir = std::env::temp_dir().join(format!("cpm-one-answer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            est: EstimateConfig::with_seed(0x5e71),
            ..ServiceConfig::default()
        };
        let service = Service::open(&dir, cfg).unwrap();
        let sets = [
            ClusterConfig::ideal(ClusterSpec::homogeneous(4), 11),
            ClusterConfig::ideal(ClusterSpec::paper_cluster(), 2009),
            ClusterConfig::paper_lam(2009),
        ]
        .into_iter()
        .map(|config| {
            let cluster = ClusterRef::Config(Box::new(config));
            let ps = (*service.param_set(&cluster).unwrap()).clone();
            (cluster, ps)
        })
        .collect();
        (service, sets)
    })
}

/// A hierarchical set: the level model of a 2-node × 4-core cluster.
fn hier_set() -> HierLmo {
    let config = ClusterConfig::hierarchical(2, 4, 5);
    HierLmo::from_truth(&config.ground_truth(), &config.topology).unwrap()
}

/// The sizes a set is probed at: 1 B, each side of `M1` and `M2`, 200 KiB
/// (a threshold the set does not have is not probed).
fn sizes(g: &GatherEmpirics) -> Vec<Bytes> {
    let mut m = vec![1, g.m1 - 1, g.m1, g.m2 - 1, g.m2, 200 * KIB];
    m.retain(|&m| m <= 1 << 30);
    m
}

fn roots(n: usize) -> [Rank; 3] {
    [Rank(0), Rank::from(n / 2), Rank::from(n - 1)]
}

const KINDS: [Rooted; 4] = [
    Rooted::Scatter,
    Rooted::Gather,
    Rooted::Bcast,
    Rooted::Reduce { gamma: GAMMA },
];

fn one_op(n: usize, op: Op) -> Trace {
    let Op { kind, root, m } = op;
    let kind = match kind {
        Rooted::Scatter => OpKind::Scatter { root, m },
        Rooted::Gather => OpKind::Gather { root, m },
        Rooted::Bcast => OpKind::Bcast { root, m },
        Rooted::Reduce { gamma } => OpKind::Reduce { root, m, gamma },
    };
    let op = TraceOp {
        id: 0,
        phase: "op".into(),
        kind,
    };
    Trace {
        name: "one-op".into(),
        n,
        ops: vec![op],
    }
}

/// Eq. (5)'s expected escalation, written out: a linear fan-in in
/// `[M1, M2)` adds `p(m)·magnitude`.
fn escalation(g: &GatherEmpirics, op: Op, alg: Algorithm) -> f64 {
    let fan_in = matches!(op.kind, Rooted::Gather | Rooted::Reduce { .. });
    if fan_in && alg == Algorithm::Linear && op.m >= g.m1 && op.m < g.m2 {
        g.probability_at(op.m) * g.escalation_magnitude
    } else {
        0.0
    }
}

/// For a separable model: `cost` is the plan of the one-op trace plus the
/// escalation term, bit for bit, for the plan's own choice — which is the
/// chooser's — and the same kernel run with any other algorithm forced.
fn assert_cost_is_the_plan(model: &PlanModel, g: &GatherEmpirics, what: &str) {
    let costs = model.cost_model();
    let CostModel::Machine(machine) = &costs else {
        unreachable!("a separable model prices on its machine")
    };
    let n = machine.cluster().n();
    for kind in KINDS {
        for root in roots(n) {
            for m in sizes(g) {
                let op = Op { kind, root, m };
                let trace = one_op(n, op);
                let plan = cpm_workload::plan(&trace, model).unwrap();
                let chosen = choose(&costs, op);
                assert_eq!(
                    plan.ops[0].algorithm,
                    Some(chosen.as_str()),
                    "{what} {op:?}"
                );
                let term = escalation(g, op, chosen);
                assert_eq!(
                    cost(&costs, op, chosen).to_bits(),
                    (plan.makespan + term).to_bits(),
                    "{what} {op:?}: cost vs plan"
                );
                for alg in costs.candidates(kind) {
                    let run = cpm_workload::replay(machine.cluster(), &trace, &[Some(alg)]);
                    let makespan = run.unwrap().makespan;
                    let term = escalation(g, op, alg);
                    assert_eq!(
                        cost(&costs, op, alg).to_bits(),
                        (makespan + term).to_bits(),
                        "{what} {op:?} {alg:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn lmo_cost_is_the_plan_of_the_one_op_trace_plus_the_escalation_term() {
    for (_, ps) in &estimated().1 {
        let what = format!("lmo n={}", ps.n());
        assert_cost_is_the_plan(&PlanModel::Lmo(ps.lmo.clone()), &ps.lmo.gather, &what);
    }
    let h = hier_set();
    let gather = h.gather.clone();
    let model = PlanModel::LmoHier(h);
    assert!(model
        .cost_model()
        .candidates(Rooted::Bcast)
        .any(|a| matches!(a, Algorithm::TwoPhase { .. })));
    assert_cost_is_the_plan(&model, &gather, "lmo-hier");
}

fn wire(kind: Rooted) -> Option<Collective> {
    match kind {
        Rooted::Scatter => Some(Collective::Scatter),
        Rooted::Gather => Some(Collective::Gather),
        Rooted::Bcast => Some(Collective::Bcast),
        Rooted::Reduce { .. } => None,
    }
}

fn plan_model(ps: &ParamSet, model: ModelKind) -> PlanModel {
    match model {
        ModelKind::Lmo => PlanModel::Lmo(ps.lmo.clone()),
        ModelKind::Hockney => PlanModel::Hockney(ps.hockney.clone()),
        ModelKind::Loggp => PlanModel::Loggp(ps.loggp.clone()),
        ModelKind::Plogp => PlanModel::Plogp(ps.plogp.clone()),
    }
}

fn cost_model(ps: &ParamSet, model: ModelKind) -> CostModel<'_> {
    match model {
        ModelKind::Lmo => CostModel::Machine(Machine::lmo(&ps.lmo)),
        ModelKind::Hockney => CostModel::Hockney(&ps.hockney),
        ModelKind::Loggp => CostModel::Loggp(&ps.loggp),
        ModelKind::Plogp => CostModel::Plogp(&ps.plogp),
    }
}

#[test]
fn predict_compute_select_and_the_dispatcher_all_read_the_one_cost() {
    let (service, sets) = estimated();
    let models = [
        ModelKind::Lmo,
        ModelKind::Hockney,
        ModelKind::Loggp,
        ModelKind::Plogp,
    ];
    for (cluster, ps) in sets {
        let tuned = TunedCollectives::new(ps.lmo.clone());
        for model in models {
            let costs = cost_model(ps, model);
            let plan_model = plan_model(ps, model);
            for kind in KINDS {
                for root in roots(ps.n()) {
                    for m in sizes(&ps.lmo.gather) {
                        let op = Op { kind, root, m };
                        let what = format!("{} n={} {op:?}", model.as_str(), ps.n());
                        let chosen = choose(&costs, op);
                        // The planner's chooser is this chooser.
                        let trace = one_op(ps.n(), op);
                        let planned = cpm_workload::choose(&trace, &plan_model);
                        assert_eq!(planned[0], Some(chosen), "{what}");
                        if model == ModelKind::Lmo {
                            let tuned_pick = match kind {
                                Rooted::Scatter => Some(tuned.scatter_choice(root, m)),
                                Rooted::Bcast => Some(tuned.bcast_choice(root, m)),
                                _ => None,
                            };
                            assert!(tuned_pick.is_none_or(|t| t == chosen), "{what}");
                        }
                        let Some(collective) = wire(kind) else {
                            continue;
                        };
                        for algorithm in [Wire::Linear, Wire::Binomial] {
                            let q = Query {
                                model,
                                collective,
                                algorithm,
                                m,
                                root: root.0,
                            };
                            let want = cost(&costs, op, algorithm.below()).to_bits();
                            assert_eq!(compute(ps, &q).unwrap().to_bits(), want, "{what}");
                            let served = service.predict(cluster, &q).unwrap().seconds;
                            assert_eq!(served.to_bits(), want, "{what} {algorithm:?}");
                        }
                        let (pick, linear, binomial) = service
                            .select(cluster, model, collective, m, root.0)
                            .unwrap();
                        assert_eq!(pick.below(), chosen, "{what}");
                        let priced = |alg| cost(&costs, op, alg).to_bits();
                        assert_eq!(linear.to_bits(), priced(Algorithm::Linear), "{what}");
                        assert_eq!(binomial.to_bits(), priced(Algorithm::Binomial), "{what}");
                    }
                }
            }
        }
    }
}

/// The paper's headline gather result survives the machine. On the
/// estimated LAM set, `select` keeps the parent commit's answer for a
/// 16 KiB gather (binomial: the linear one pays the expected escalation),
/// and from `M2` up the served linear gather — the machine, serializing at
/// the root's ingress — lies under eq. (5)'s large-regime form within the
/// corollary's ×3 (`collectives/tests/corollaries.rs`).
#[test]
fn the_papers_gather_result_survives() {
    let (service, sets) = estimated();
    let (cluster, lam) = &sets[2];
    let g = &lam.lmo.gather;
    assert!(g.m1 < g.m2 && g.m2 < 200 * KIB, "{g:?}");
    let (pick, linear, binomial) = service
        .select(cluster, ModelKind::Lmo, Collective::Gather, 16 * KIB, 0)
        .unwrap();
    assert_eq!(
        pick,
        Wire::Binomial,
        "linear {linear} vs binomial {binomial}"
    );
    for m in [g.m2 + 1, 100 * KIB, 200 * KIB] {
        let q = Query {
            model: ModelKind::Lmo,
            collective: Collective::Gather,
            algorithm: Wire::Linear,
            m,
            root: 0,
        };
        let served = service.predict(cluster, &q).unwrap().seconds;
        let eq5 = lam.lmo.linear_gather(Rank(0), m).expected;
        assert!(
            served <= eq5 && eq5 <= 3.0 * served,
            "m={m}: {served} vs eq5 {eq5}"
        );
    }
}

/// The critical path of a plan explains its makespan: the terms sum to
/// it and the chain runs from 0 to it without a gap.
fn assert_path_explains(p: &Plan, what: &str) {
    let cp = &p.critical_path;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-30);
    let terms: f64 = cp.terms.iter().map(|(_, v)| v).sum();
    assert!(
        close(terms, p.makespan),
        "{what}: terms {terms} vs {}",
        p.makespan
    );
    let mut at = 0.0;
    for s in &cp.steps {
        assert!(
            (s.start - at).abs() <= 1e-12 * (1.0 + at),
            "{what}: gap at {at}"
        );
        at = s.end;
    }
    assert!(close(at, p.makespan), "{what}: chain ends at {at}");
}

/// Large fan-ins on the plan side. On a noise-free MPICH cluster (no leap)
/// planned under its own `(C, t, L, β)` and `M1`/`M2`, plan == replay to
/// the bit for traces whose fan-ins avoid `[M1, M2)` — the receiver's
/// ingress FIFO and the held large sends are the machine's, on both sides.
/// On the estimated LAM set a plan with fan-ins at and above `M2` still
/// has a critical path that explains it.
#[test]
fn large_fan_ins_plan_as_they_replay_and_their_paths_explain() {
    let config = ClusterConfig {
        noise_rel: 0.0,
        ..ClusterConfig::paper_mpich(2009)
    };
    let sim = SimCluster::from_config(&config);
    let (truth, profile): (_, &MpiProfile) = (&sim.truth, &sim.profile);
    let gather = GatherEmpirics {
        m1: profile.m1,
        m2: profile.m2,
        ..GatherEmpirics::none()
    };
    let model = PlanModel::Lmo(LmoExtended::new(
        truth.c.clone(),
        truth.t.clone(),
        truth.l.clone(),
        truth.beta.clone(),
        gather,
    ));
    let n = sim.n();
    let at = |k: u64, kind: OpKind| TraceOp {
        id: k,
        phase: format!("p{k}"),
        kind,
    };
    let big = profile.m2;
    let small = profile.m1 / n as u64 / 2;
    let trace = Trace {
        name: "fan-ins".into(),
        n,
        ops: vec![
            at(
                0,
                OpKind::Gather {
                    root: Rank(0),
                    m: big,
                },
            ),
            at(
                1,
                OpKind::Scatter {
                    root: Rank(3),
                    m: small,
                },
            ),
            at(
                2,
                OpKind::Reduce {
                    root: Rank(5),
                    m: 2 * big,
                    gamma: GAMMA,
                },
            ),
            at(
                3,
                OpKind::Gather {
                    root: Rank(9),
                    m: small,
                },
            ),
            at(
                4,
                OpKind::Bcast {
                    root: Rank(1),
                    m: big + 1,
                },
            ),
        ],
    };
    let plan = cpm_workload::plan(&trace, &model).unwrap();
    let choices = cpm_workload::choose(&trace, &model);
    let replay = cpm_workload::replay(&sim, &trace, &choices).unwrap();
    assert_eq!(plan.makespan.to_bits(), replay.makespan.to_bits());
    for (p, r) in plan.ops.iter().zip(&replay.ops) {
        assert_eq!(
            (p.start.to_bits(), p.end.to_bits()),
            (r.start.to_bits(), r.end.to_bits())
        );
    }
    assert_path_explains(&plan, "mpich fan-ins");

    let lam = &estimated().1[2].1;
    let m2 = lam.lmo.gather.m2;
    for m in [m2, 100 * KIB] {
        let trace = Trace {
            name: "lam".into(),
            n: lam.n(),
            ops: vec![
                at(0, OpKind::Gather { root: Rank(0), m }),
                at(
                    1,
                    OpKind::Reduce {
                        root: Rank(7),
                        m,
                        gamma: GAMMA,
                    },
                ),
            ],
        };
        let plan = cpm_workload::plan(&trace, &PlanModel::Lmo(lam.lmo.clone())).unwrap();
        assert_path_explains(&plan, &format!("lam m={m}"));
    }
}
