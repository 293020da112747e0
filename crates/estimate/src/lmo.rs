//! LMO estimation — the triplet procedure of Section IV.
//!
//! Roundtrips alone cannot separate the six parameters of a pair, so the
//! procedure adds *one-to-two* experiments `i → (j, k)` and solves, per
//! triplet, the systems of paper eqs. (6)–(11):
//!
//! ```text
//! C_i  = (T_i(jk)(0) − max(T_ij(0), T_ik(0))) / 2                    (8)
//! L_ij = T_ij(0)/2 − C_i − C_j                                        (8)
//! t_i  = (T_i(jk)(M) − max_x (T_ix(0)+T_ix(M))/2 − 2C_i) / M         (11)
//! 1/β_ij = (T_ij(M)/2 − C_i − L_ij − C_j)/M − t_i − t_j              (11)
//! ```
//!
//! Each processor appears in `C(n−1, 2)` triplets and each link in `n−2`,
//! so every parameter is estimated many times independently; eq. (12)
//! averages the redundant values, which is what lets the measurement series
//! stay short.
//!
//! The message size `M` of the variable-parameter experiments is chosen
//! *medium*: large enough for the per-byte terms to dominate measurement
//! noise, small enough to avoid the scatter leap and the serialized
//! large-message regime, with empty replies so the root never receives
//! concurrent medium messages (no escalations) — exactly the paper's
//! precautions.

use cpm_core::error::{CpmError, Result};
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::{Rank, Triplet};
use cpm_core::units::Bytes;
use cpm_models::{GatherEmpirics, LmoExtended};
use cpm_netsim::SimCluster;
use cpm_stats::Summary;

use crate::config::{EstimateConfig, Estimated, SolverVariant};
use crate::empirics::estimate_gather_empirics;
use crate::experiment::{one_to_two_round, roundtrip_round};
use crate::schedule::{pair_rounds, triplet_rounds};

/// Estimates the extended LMO model's analytical parameters. The gather
/// empirics are left disabled ([`GatherEmpirics::none`]); use
/// [`estimate_lmo_full`] to measure those too.
pub fn estimate_lmo(cluster: &SimCluster, cfg: &EstimateConfig) -> Result<Estimated<LmoExtended>> {
    let n = cluster.n();
    if n < 3 {
        return Err(CpmError::Estimation(
            "the LMO triplet procedure needs at least 3 processors".into(),
        ));
    }
    let m = cfg.probe_m;
    let mut seed = cfg.seed ^ 0x1a0;
    let mut cost = 0.0;
    let mut runs = 0;

    // ── Phase 1: roundtrips T_ij(0), T_ij(M) for every pair ─────────────
    let mut rt0 = SymMatrix::filled(n, 0.0);
    let mut rtm = SymMatrix::filled(n, 0.0);
    for round in pair_rounds(n) {
        let units = if cfg.parallel {
            vec![round]
        } else {
            round.into_iter().map(|p| vec![p]).collect::<Vec<_>>()
        };
        for unit in units {
            for (msg, table) in [(0u64, &mut rt0), (m, &mut rtm)] {
                seed = seed.wrapping_add(1);
                let (samples, end) = roundtrip_round(cluster, &unit, msg, msg, cfg.reps, seed)?;
                cost += end;
                runs += 1;
                for s in samples {
                    table.set(s.pair.a, s.pair.b, Summary::of(&s.t).mean());
                }
            }
        }
    }

    // ── Phase 2: one-to-two T_i(jk)(0), T_i(jk)(M) for every triplet ────
    // Send to the *faster* child first, so the slower child both dominates
    // the maximum and absorbs the root's send serialization — the
    // configuration the estimation equations assume.
    let order0 = |t: Triplet, root: Rank| order_by_tail(t, root, |x| *rt0.get(root, x));
    let order_m = |t: Triplet, root: Rank| {
        order_by_tail(t, root, |x| (rt0.get(root, x) + rtm.get(root, x)) / 2.0)
    };

    // ot[triplet][root_phase] = (T(0), T(M)).
    let mut ot: Vec<(Triplet, [(f64, f64); 3])> = Vec::new();
    let rounds_limit = cfg.triplet_rounds_limit.unwrap_or(usize::MAX);
    for round in triplet_rounds(n).into_iter().take(rounds_limit) {
        let units = if cfg.parallel {
            vec![round]
        } else {
            round.into_iter().map(|t| vec![t]).collect::<Vec<_>>()
        };
        for unit in units {
            seed = seed.wrapping_add(1);
            let (s0, end0) = one_to_two_round(cluster, &unit, 0, 0, cfg.reps, seed, Some(&order0))?;
            seed = seed.wrapping_add(1);
            let (sm, endm) =
                one_to_two_round(cluster, &unit, m, 0, cfg.reps, seed, Some(&order_m))?;
            cost += end0 + endm;
            runs += 2;
            for t in &unit {
                let mut entry = [(0.0, 0.0); 3];
                #[allow(clippy::needless_range_loop)]
                for phase in 0..3 {
                    let root = t.members()[phase];
                    let z = s0
                        .iter()
                        .find(|s| s.triplet == *t && s.root == root)
                        .expect("zero sample present");
                    let v = sm
                        .iter()
                        .find(|s| s.triplet == *t && s.root == root)
                        .expect("M sample present");
                    entry[phase] = (Summary::of(&z.t).mean(), Summary::of(&v.t).mean());
                }
                ot.push((*t, entry));
            }
        }
    }

    // ── Phase 3: per-triplet systems + redundancy averaging (eq. 12) ────
    let solved = solve_triplets(n, m, &rt0, &rtm, &ot, cfg.solver)?;

    Ok(Estimated {
        model: LmoExtended::new(
            solved.c,
            solved.t,
            solved.l,
            solved.beta,
            GatherEmpirics::none(),
        ),
        virtual_cost: cost,
        runs,
    })
}

/// Estimates the full extended LMO model including the empirical gather
/// parameters (`M1`, `M2`, escalation statistics).
pub fn estimate_lmo_full(
    cluster: &SimCluster,
    cfg: &EstimateConfig,
) -> Result<Estimated<LmoExtended>> {
    let mut est = estimate_lmo(cluster, cfg)?;
    let emp = estimate_gather_empirics(cluster, cfg)?;
    est.model.gather = emp.model;
    est.virtual_cost += emp.virtual_cost;
    est.runs += emp.runs;
    Ok(est)
}

/// Orders the two non-root members of a triplet by ascending `tail` metric.
fn order_by_tail(t: Triplet, root: Rank, tail: impl Fn(Rank) -> f64) -> [Rank; 2] {
    let [a, b] = t.others(root);
    if tail(a) <= tail(b) {
        [a, b]
    } else {
        [b, a]
    }
}

struct Solved {
    c: Vec<f64>,
    t: Vec<f64>,
    l: SymMatrix<f64>,
    beta: SymMatrix<f64>,
}

/// Solves eqs. (8) and (11) for every triplet and averages per eq. (12).
///
/// With [`SolverVariant::Overlap`] the equations are calibrated to the
/// observed overlap of the root's first receive with the slower child's
/// round trip (see [`SolverVariant`]); with [`SolverVariant::Paper`] they
/// are the paper's verbatim forms.
fn solve_triplets(
    n: usize,
    m: Bytes,
    rt0: &SymMatrix<f64>,
    rtm: &SymMatrix<f64>,
    ot: &[(Triplet, [(f64, f64); 3])],
    variant: SolverVariant,
) -> Result<Solved> {
    let mf = m as f64;
    if mf <= 0.0 {
        return Err(CpmError::Estimation("probe size must be positive".into()));
    }
    let mut c_acc: Vec<Summary> = vec![Summary::new(); n];
    let mut t_acc: Vec<Summary> = vec![Summary::new(); n];
    let mut l_acc = SymMatrix::filled(n, Summary::new());
    let mut ib_acc = SymMatrix::filled(n, Summary::new());

    for (trip, entries) in ot {
        let members = trip.members();
        // Per-triplet C values (eq. 8), needed by L and β below.
        let mut c_local = [0.0f64; 3];
        for (phase, &root) in members.iter().enumerate() {
            let [x, y] = trip.others(root);
            let (t0, _) = entries[phase];
            let max_rt = rt0.get(root, x).max(*rt0.get(root, y));
            let c = match variant {
                SolverVariant::Paper => (t0 - max_rt) / 2.0,
                SolverVariant::Overlap => t0 - max_rt,
            };
            c_local[phase] = c;
            c_acc[root.idx()].push(c);
        }
        // t_i (eq. 11).
        let mut t_local = [0.0f64; 3];
        for (phase, &root) in members.iter().enumerate() {
            let [x, y] = trip.others(root);
            let (_, tm) = entries[phase];
            let half = |a: Rank, b: Rank| (rt0.get(a, b) + rtm.get(a, b)) / 2.0;
            let max_half = half(root, x).max(half(root, y));
            let c_terms = match variant {
                SolverVariant::Paper => 2.0 * c_local[phase],
                SolverVariant::Overlap => c_local[phase],
            };
            let t = (tm - max_half - c_terms) / mf;
            t_local[phase] = t;
            t_acc[root.idx()].push(t);
        }
        // L_ij and 1/β_ij for the three pairs (eq. 8, 11).
        for (pa, pb) in [(0usize, 1usize), (0, 2), (1, 2)] {
            let (i, j) = (members[pa], members[pb]);
            let l = rt0.get(i, j) / 2.0 - c_local[pa] - c_local[pb];
            l_acc.get_mut(i, j).push(l);
            let inv_beta = (rtm.get(i, j) / 2.0 - c_local[pa] - l - c_local[pb]) / mf
                - t_local[pa]
                - t_local[pb];
            ib_acc.get_mut(i, j).push(inv_beta);
        }
    }

    // Physical parameters are non-negative; under extreme measurement
    // noise an averaged estimate can dip below zero, which would poison
    // every downstream prediction — clamp at zero (a clamped value simply
    // means "too small to resolve at this noise level").
    let c: Vec<f64> = c_acc.iter().map(|s| s.mean().max(0.0)).collect();
    let t: Vec<f64> = t_acc.iter().map(|s| s.mean().max(0.0)).collect();
    let l = l_acc.map(|s| s.mean().max(0.0));
    let beta = ib_acc.map(|s| {
        let ib = s.mean();
        if ib <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / ib
        }
    });

    // Sanity: every parameter must have been estimated.
    if c_acc.iter().any(|s| s.count() == 0) || l_acc.iter().any(|(_, s)| s.count() == 0) {
        return Err(CpmError::Estimation("incomplete triplet coverage".into()));
    }
    Ok(Solved { c, t, l, beta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};

    use cpm_core::units::KIB;

    fn cluster(nodes: usize, noise: f64) -> SimCluster {
        let spec = if nodes == 16 {
            ClusterSpec::paper_cluster()
        } else {
            ClusterSpec::homogeneous(nodes)
        };
        let truth = GroundTruth::synthesize(&spec, 2);
        SimCluster::new(truth, MpiProfile::lam_7_1_3(), noise, 2)
    }

    fn cfg() -> EstimateConfig {
        EstimateConfig {
            reps: 2,
            ..EstimateConfig::with_seed(11)
        }
    }

    /// The key estimator property: the predicted point-to-point times must
    /// reproduce the simulator's (the documented C/L split bias cancels in
    /// any end-to-end time).
    #[test]
    fn p2p_times_recovered_without_noise() {
        let cl = cluster(6, 0.0);
        let est = estimate_lmo(&cl, &cfg()).unwrap();
        for i in 0..6u32 {
            for j in (i + 1)..6u32 {
                for m in [0u64, 16 * KIB, 48 * KIB] {
                    let want = cl.truth.p2p_time(Rank(i), Rank(j), m);
                    let got = est.model.time(Rank(i), Rank(j), m);
                    assert!(
                        ((got - want) / want).abs() < 0.02,
                        "({i},{j},{m}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The variable parameters are recovered individually (the paper's
    /// separation claim): per-byte delays and link rates match ground
    /// truth.
    #[test]
    fn variable_parameters_separated() {
        let cl = cluster(6, 0.0);
        let est = estimate_lmo(&cl, &cfg()).unwrap();
        for i in 0..6 {
            let rel = (est.model.t[i] - cl.truth.t[i]).abs() / cl.truth.t[i];
            assert!(rel < 0.05, "t_{i}: {} vs {}", est.model.t[i], cl.truth.t[i]);
        }
        for ((i, j), want) in cl.truth.beta.iter() {
            let got = *est.model.beta.get(i, j);
            let rel = (got - want).abs() / want;
            assert!(rel < 0.05, "β_{i}{j}: {got} vs {want}");
        }
    }

    /// The default (overlap-calibrated) solver recovers the individual
    /// constants: fixed processing delays and link latencies separately.
    #[test]
    fn overlap_solver_separates_constants() {
        let cl = cluster(6, 0.0);
        let est = estimate_lmo(&cl, &cfg()).unwrap();
        for i in 0..6 {
            let rel = (est.model.c[i] - cl.truth.c[i]).abs() / cl.truth.c[i];
            assert!(rel < 0.05, "C_{i}: {} vs {}", est.model.c[i], cl.truth.c[i]);
        }
        for ((i, j), want) in cl.truth.l.iter() {
            let got = *est.model.l.get(i, j);
            let rel = (got - want).abs() / want;
            assert!(rel < 0.10, "L_{i}{j}: {got} vs {want}");
        }
    }

    /// The paper's verbatim equations halve C and inflate L, but their
    /// *sum* per pair — the Hockney α — is exact.
    #[test]
    fn constant_parameters_sum_correctly() {
        let cl = cluster(6, 0.0);
        let est = estimate_lmo(&cl, &cfg().paper_solver()).unwrap();
        for i in 0..6u32 {
            for j in (i + 1)..6u32 {
                let (i, j) = (Rank(i), Rank(j));
                let want = cl.truth.c[i.idx()] + cl.truth.l.get(i, j) + cl.truth.c[j.idx()];
                let got = est.model.c[i.idx()] + est.model.l.get(i, j) + est.model.c[j.idx()];
                assert!(
                    ((got - want) / want).abs() < 0.02,
                    "α_{i}{j}: {got} vs {want}"
                );
            }
        }
        // And the heterogeneity ordering of C survives: every estimated C
        // is positive.
        for (k, c) in est.model.c.iter().enumerate() {
            assert!(*c > 0.0, "C_{k} = {c}");
        }
    }

    #[test]
    fn noise_robustness() {
        let cl = cluster(5, 0.01);
        let cfg = EstimateConfig {
            reps: 6,
            ..EstimateConfig::with_seed(4)
        };
        let est = estimate_lmo(&cl, &cfg).unwrap();
        for i in 0..5u32 {
            for j in (i + 1)..5u32 {
                let m = 32 * KIB;
                let want = cl.truth.p2p_time(Rank(i), Rank(j), m);
                let got = est.model.time(Rank(i), Rank(j), m);
                assert!(
                    ((got - want) / want).abs() < 0.08,
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn serial_and_parallel_estimates_agree() {
        let cl = cluster(5, 0.0);
        let par = estimate_lmo(&cl, &cfg()).unwrap();
        let ser = estimate_lmo(&cl, &cfg().serial()).unwrap();
        for i in 0..5 {
            assert!(
                (par.model.t[i] - ser.model.t[i]).abs() / ser.model.t[i] < 1e-6,
                "t_{i}"
            );
        }
        assert!(par.virtual_cost < ser.virtual_cost);
    }

    #[test]
    fn extreme_noise_degrades_gracefully() {
        // 15% multiplicative noise is far beyond any sane benchmark; the
        // estimator must still return finite, non-negative parameters and a
        // usable (if rough) model.
        let cl = cluster(5, 0.15);
        let cfg = EstimateConfig {
            reps: 4,
            ..EstimateConfig::with_seed(6)
        };
        let est = estimate_lmo(&cl, &cfg).unwrap().model;
        for i in 0..5 {
            assert!(
                est.c[i].is_finite() && est.c[i] >= 0.0,
                "C_{i} = {}",
                est.c[i]
            );
            assert!(
                est.t[i].is_finite() && est.t[i] >= 0.0,
                "t_{i} = {}",
                est.t[i]
            );
        }
        for ((i, j), &l) in est.l.iter() {
            assert!(l.is_finite() && l >= 0.0, "L_{i}{j} = {l}");
        }
        // Predictions stay positive and within an order of magnitude.
        let m = 32 * KIB;
        let pred = est.linear_scatter(Rank(0), m);
        let truth_pred = {
            let ideal = cluster(5, 0.0);
            cpm_collectives_free_scatter(&ideal, m)
        };
        assert!(pred > 0.0 && pred.is_finite());
        assert!(
            pred > truth_pred * 0.3 && pred < truth_pred * 3.0,
            "pred {pred} vs observed {truth_pred}"
        );
    }

    /// Minimal local scatter observation (avoids a dev-dependency cycle on
    /// cpm-collectives): barrier release to the last rank done.
    fn cpm_collectives_free_scatter(cl: &SimCluster, m: u64) -> f64 {
        use cpm_netsim::{ScriptOp, TimedScript};
        let others = || (1..cl.n()).map(Rank::from);
        let mut script = TimedScript::new(cl.n());
        script.barrier();
        script.timed(Rank(0), others().map(|r| ScriptOp::send(r, m)));
        for r in others() {
            script.timed(r, [ScriptOp::recv(Rank(0))]);
        }
        let (times, _) = script.run(cl).unwrap();
        times.iter().map(|t| t[0]).fold(0.0, f64::max)
    }

    #[test]
    fn rejects_two_node_cluster() {
        let cl = cluster(2, 0.0);
        assert!(estimate_lmo(&cl, &cfg()).is_err());
    }

    #[test]
    fn experiment_counts_match_paper() {
        // C(n,2) pair units and 3·C(n,3) one-to-two experiments; with two
        // sizes each, runs = 2·(pair rounds|pairs) + 2·(triplet rounds).
        let cl = cluster(5, 0.0);
        let ser = estimate_lmo(&cl, &cfg().serial()).unwrap();
        // Serial: one run per pair per size (2·C(5,2) = 20) plus one per
        // triplet per size (2·C(5,3) = 20).
        assert_eq!(ser.runs, 40, "runs = {}", ser.runs);
    }
}
