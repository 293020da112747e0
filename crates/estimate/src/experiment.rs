//! The communication experiments.
//!
//! Every experiment is a barrier-separated, straight-line exchange
//! measured on the sender/root side — the timing method the paper
//! recommends as "fast and quite accurate for collective operations on a
//! small number of processors". Each function here *generates* that SPMD
//! loop as one [`ScriptOp`] program per rank ([`TimedScript`]), runs it
//! inside the simulator's event loop and reads the measured intervals
//! from the op windows: no rank threads, and virtual timings identical to
//! the bit with the same loop written as a closure on rank threads (the
//! differential test in `tests/scripted_vs_threaded.rs` keeps those
//! closures as the oracle). Experiments on non-overlapping units
//! (pairs/triplets) can share one simulation run; on a single switch this
//! does not perturb the measurements.

use cpm_core::error::Result;
use cpm_core::rank::{disjoint, Pair, Rank, Triplet};
use cpm_core::units::Bytes;
use cpm_netsim::{ScriptOp, SimCluster, TimedScript};

/// Measurements of one roundtrip unit.
#[derive(Clone, Debug)]
pub struct PairSample {
    /// The measured pair.
    pub pair: Pair,
    /// Roundtrip times measured on `pair.a`, one per repetition.
    pub t: Vec<f64>,
}

/// Measurements of one one-to-two unit.
#[derive(Clone, Debug)]
pub struct TripletSample {
    /// The measured triplet.
    pub triplet: Triplet,
    /// The member that acted as the root of the one-to-two communication.
    pub root: Rank,
    /// Times measured on the root, one per repetition.
    pub t: Vec<f64>,
}

/// Runs `reps` roundtrips (`m_out` bytes out, `m_back` bytes back) on every
/// pair of `units` simultaneously. Pairs must be disjoint. Returns the
/// samples and the virtual time the run consumed.
pub fn roundtrip_round(
    cluster: &SimCluster,
    units: &[Pair],
    m_out: Bytes,
    m_back: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(Vec<PairSample>, f64)> {
    debug_assert!(
        disjoint(units.iter().flat_map(|p| [p.a, p.b])),
        "pairs must be disjoint"
    );
    let mut script = TimedScript::new(cluster.n());
    for _ in 0..reps {
        script.barrier();
        for p in units {
            script.timed(p.a, [ScriptOp::send(p.b, m_out), ScriptOp::recv(p.b)]);
            script.extend(p.b, [ScriptOp::recv(p.a), ScriptOp::send(p.a, m_back)]);
        }
    }
    let (mut times, end_time) = script.run(&cluster.reseeded(seed))?;
    let samples = units
        .iter()
        .map(|p| PairSample {
            pair: *p,
            t: std::mem::take(&mut times[p.a.idx()]),
        })
        .collect();
    Ok((samples, end_time))
}

/// Runs `reps` one-to-two experiments (root sends `m_out` to both children,
/// children reply `m_back`) on every triplet of `units` simultaneously,
/// once per choice of root (three phases). Triplets must be disjoint.
///
/// `order` decides which child the root serves first. The estimation
/// equations (paper eqs. (6)–(11)) assume the *slowest* child both
/// dominates the maximum and absorbs the root's send serialization, so the
/// LMO estimator passes an ordering that sends to the faster child first;
/// `None` uses canonical member order.
pub fn one_to_two_round(
    cluster: &SimCluster,
    units: &[Triplet],
    m_out: Bytes,
    m_back: Bytes,
    reps: usize,
    seed: u64,
    order: Option<&(dyn Fn(Triplet, Rank) -> [Rank; 2] + Sync)>,
) -> Result<(Vec<TripletSample>, f64)> {
    debug_assert!(
        disjoint(units.iter().flat_map(|t| t.members())),
        "triplets must be disjoint"
    );
    let mut script = TimedScript::new(cluster.n());
    // Each member is the root of exactly one phase, so its measured spans
    // are that phase's repetitions.
    for phase in 0..3 {
        for _ in 0..reps {
            script.barrier();
            for t in units {
                let root = t.members()[phase];
                let [x, y] = match order {
                    Some(f) => f(*t, root),
                    None => t.others(root),
                };
                script.timed(
                    root,
                    [
                        ScriptOp::send(x, m_out),
                        ScriptOp::send(y, m_out),
                        ScriptOp::recv(x),
                        ScriptOp::recv(y),
                    ],
                );
                for child in t.others(root) {
                    script.extend(child, [ScriptOp::recv(root), ScriptOp::send(root, m_back)]);
                }
            }
        }
    }
    let (mut times, end_time) = script.run(&cluster.reseeded(seed))?;
    let samples = units
        .iter()
        .flat_map(|t| t.members().map(|root| (*t, root)))
        .map(|(triplet, root)| TripletSample {
            triplet,
            root,
            t: std::mem::take(&mut times[root.idx()]),
        })
        .collect();
    Ok((samples, end_time))
}

/// Saturation experiment: `count` back-to-back sends of `m` bytes from `i`
/// to `j`, then an empty acknowledgement. Returns per-repetition total
/// times measured on `i` (from the first send to the ack) and the virtual
/// cost.
pub fn saturation(
    cluster: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    count: usize,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    assert!(count >= 1, "saturation needs at least one message");
    let stream = |op: ScriptOp| std::iter::repeat_n(op, count);
    measured_on(cluster, i, reps, seed, |script| {
        script.timed(i, stream(ScriptOp::send(j, m)).chain([ScriptOp::recv(j)]));
        script.extend(j, stream(ScriptOp::recv(i)).chain([ScriptOp::send(i, 0)]));
    })
}

/// Send-overhead probe (`o_s`): the duration of the blocking send itself,
/// inside a roundtrip with an empty reply.
pub fn send_probe(
    cluster: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    measured_on(cluster, i, reps, seed, |script| {
        script.timed(i, [ScriptOp::send(j, m)]);
        script.extend(i, [ScriptOp::recv(j)]);
        script.extend(j, [ScriptOp::recv(i), ScriptOp::send(i, 0)]);
    })
}

/// Receive-overhead probe (`o_r`): send, wait long enough for the reply to
/// have fully arrived, then time the receive call itself.
///
/// In the simulator, message processing is charged to the receiver's rx
/// engine *before* delivery, so this probe measures ≈ 0 — an artifact
/// equivalent to zero-copy reception. It is kept because the estimation
/// procedure of the paper calls for it; the LogP-family estimators fold it
/// in unchanged.
pub fn delayed_recv_probe(
    cluster: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    wait: f64,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    measured_on(cluster, i, reps, seed, |script| {
        script.extend(i, [ScriptOp::send(j, m), ScriptOp::Compute { secs: wait }]);
        script.timed(i, [ScriptOp::recv(j)]);
        script.extend(j, [ScriptOp::recv(i), ScriptOp::send(i, m)]);
    })
}

/// Linear gather observation: the root receives `m` bytes from everyone.
/// Returns root-side times, one per repetition.
pub fn gather_observation(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    let others = || (0..cluster.n()).map(Rank::from).filter(|r| *r != root);
    measured_on(cluster, root, reps, seed, |script| {
        script.timed(root, others().map(ScriptOp::recv));
        for r in others() {
            script.extend(r, [ScriptOp::send(root, m)]);
        }
    })
}

/// Runs `reps` barrier-separated repetitions of the exchange `rep` appends
/// and returns the spans it measured on `timed`, plus the virtual cost.
fn measured_on(
    cluster: &SimCluster,
    timed: Rank,
    reps: usize,
    seed: u64,
    rep: impl Fn(&mut TimedScript),
) -> Result<(Vec<f64>, f64)> {
    let mut script = TimedScript::new(cluster.n());
    for _ in 0..reps {
        script.barrier();
        rep(&mut script);
    }
    let (mut times, end_time) = script.run(&cluster.reseeded(seed))?;
    Ok((std::mem::take(&mut times[timed.idx()]), end_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2);
        let _ = n;
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 2)
    }

    #[test]
    fn roundtrip_matches_formula() {
        let cl = cluster(16);
        let p = Pair::new(Rank(3), Rank(11));
        let (samples, cost) = roundtrip_round(&cl, &[p], 4 * KIB, 4 * KIB, 3, 1).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].t.len(), 3);
        let expected = 2.0 * cl.truth.p2p_time(Rank(3), Rank(11), 4 * KIB);
        for t in &samples[0].t {
            assert!((t - expected).abs() < 1e-12);
        }
        assert!(cost > 0.0);
    }

    #[test]
    fn parallel_pairs_match_isolated_pairs() {
        // The single-switch property: disjoint pairs measured together give
        // the same values as measured alone.
        let cl = cluster(16);
        let p1 = Pair::new(Rank(0), Rank(1));
        let p2 = Pair::new(Rank(2), Rank(3));
        let (together, _) = roundtrip_round(&cl, &[p1, p2], 8 * KIB, 0, 2, 3).unwrap();
        let (alone1, _) = roundtrip_round(&cl, &[p1], 8 * KIB, 0, 2, 3).unwrap();
        let (alone2, _) = roundtrip_round(&cl, &[p2], 8 * KIB, 0, 2, 3).unwrap();
        assert!((together[0].t[0] - alone1[0].t[0]).abs() < 1e-12);
        assert!((together[1].t[0] - alone2[0].t[0]).abs() < 1e-12);
    }

    #[test]
    fn one_to_two_produces_three_rooted_samples() {
        let cl = cluster(16);
        let t = Triplet::new(Rank(1), Rank(5), Rank(9));
        let (samples, _) = one_to_two_round(&cl, &[t], 0, 0, 2, 4, None).unwrap();
        assert_eq!(samples.len(), 3);
        let roots: Vec<Rank> = samples.iter().map(|s| s.root).collect();
        assert_eq!(roots, vec![Rank(1), Rank(5), Rank(9)]);
        for s in &samples {
            assert_eq!(s.t.len(), 2);
            // Zero-byte one-to-two still costs the fixed delays.
            assert!(s.t[0] > 0.0);
        }
    }

    #[test]
    fn one_to_two_empty_message_time_matches_des_timeline() {
        // With the documented DES semantics the measured time is
        // 3C_i + max_x(2L_ix + 2C_x) + tx-ordering offsets; verify it sits
        // between the analytic 2C_i + max(T_ix(0)) bounds used by eq. (8).
        let cl = cluster(16);
        let truth = &cl.truth;
        let t = Triplet::new(Rank(0), Rank(4), Rank(12));
        let (samples, _) = one_to_two_round(&cl, &[t], 0, 0, 1, 4, None).unwrap();
        let s0 = &samples[0]; // root = 0
        let rt = |i: u32, j: u32| {
            2.0 * (truth.c[i as usize] + *truth.l.get(Rank(i), Rank(j)) + truth.c[j as usize])
        };
        let max_rt = rt(0, 4).max(rt(0, 12));
        let lower = truth.c[0] + max_rt; // attained when replies overlap
        let upper = 2.0 * truth.c[0] + max_rt + 2.0 * truth.c[0];
        assert!(
            s0.t[0] >= lower - 1e-12 && s0.t[0] < upper,
            "{} not in [{lower}, {upper})",
            s0.t[0]
        );
    }

    #[test]
    fn saturation_reaches_wire_rate() {
        let cl = cluster(16);
        let m = 16 * KIB;
        let count = 16;
        let (times, _) = saturation(&cl, Rank(0), Rank(1), m, count, 2, 5).unwrap();
        let per_msg = times[0] / count as f64;
        let wire = m as f64 / *cl.truth.beta.get(Rank(0), Rank(1));
        // Per-message cost approaches the wire time (within startup
        // effects).
        assert!(per_msg > wire * 0.95, "{per_msg} vs wire {wire}");
        assert!(per_msg < wire * 1.5, "{per_msg} vs wire {wire}");
    }

    #[test]
    fn send_probe_measures_sender_cpu() {
        let cl = cluster(16);
        let m = 8 * KIB;
        let (times, _) = send_probe(&cl, Rank(2), Rank(7), m, 3, 6).unwrap();
        let expected = cl.truth.c[2] + m as f64 * cl.truth.t[2];
        for t in &times {
            assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        }
    }

    #[test]
    fn delayed_recv_probe_is_documented_artifact() {
        let cl = cluster(16);
        let (times, _) = delayed_recv_probe(&cl, Rank(0), Rank(1), 4 * KIB, 0.1, 2, 7).unwrap();
        // Reception is fully overlapped in the simulator: ≈ 0.
        for t in &times {
            assert!(*t < 1e-9, "o_r probe measured {t}");
        }
    }

    #[test]
    fn gather_observation_counts_all_senders() {
        let cl = cluster(16);
        let (times, _) = gather_observation(&cl, Rank(0), 2 * KIB, 2, 8).unwrap();
        assert_eq!(times.len(), 2);
        // Root processes 15 messages serially: at least 15·(C_0 + M·t_0).
        let floor = 15.0 * (cl.truth.c[0] + 2048.0 * cl.truth.t[0]);
        assert!(times[0] > floor);
    }
}
