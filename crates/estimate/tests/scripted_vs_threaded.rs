//! Differential oracle: the scripted experiments against the same
//! experiments written as closures on rank threads.
//!
//! `cpm_estimate::experiment` generates one `ScriptOp` program per rank and
//! reads its samples from the op windows. The reference implementations
//! below are the closure bodies those functions had while they ran on
//! `cpm_vmpi::run`; every sample and every `end_time` must agree **to the
//! bit** — on the paper's LAM cluster with measurement noise and
//! irregularities (so RNG draw order is covered) and on the ideal one.

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_core::rank::{Pair, Rank, Triplet};
use cpm_core::units::{Bytes, KIB};
use cpm_estimate::experiment::{
    delayed_recv_probe, gather_observation, one_to_two_round, roundtrip_round, saturation,
    send_probe,
};
use cpm_netsim::SimCluster;
use cpm_vmpi::{run, Comm};

const SEEDS: std::ops::Range<u64> = 0..8;
/// Empty, medium, and large enough to cross the 64 KB leap and `M2`.
const SIZES: [Bytes; 3] = [0, 4 * KIB, 100 * KIB];
const REPS: usize = 3;

type Order<'a> = Option<&'a (dyn Fn(Triplet, Rank) -> [Rank; 2] + Sync)>;

fn clusters() -> [SimCluster; 2] {
    let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2009);
    [
        SimCluster::new(truth.clone(), MpiProfile::lam_7_1_3(), 0.01, 2009),
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 2009),
    ]
}

fn bits(ts: &[f64]) -> Vec<u64> {
    ts.iter().map(|t| t.to_bits()).collect()
}

/// Runs `body` once per barrier-separated repetition on every rank and
/// returns what it pushed, per rank, plus the end time.
fn threaded(
    cluster: &SimCluster,
    seed: u64,
    reps: usize,
    body: impl Fn(&mut Comm<'_>, &mut Vec<f64>) + Sync,
) -> (Vec<Vec<f64>>, f64) {
    let out = run(&cluster.reseeded(seed), |c| {
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            body(c, &mut times);
        }
        times
    })
    .expect("reference experiment runs");
    (out.results, out.end_time)
}

fn roundtrip_threaded(
    cluster: &SimCluster,
    units: &[Pair],
    m_out: Bytes,
    m_back: Bytes,
    seed: u64,
) -> (Vec<Vec<f64>>, f64) {
    let mut role: Vec<Option<(Rank, bool)>> = vec![None; cluster.n()];
    for p in units {
        role[p.a.idx()] = Some((p.b, true));
        role[p.b.idx()] = Some((p.a, false));
    }
    let (times, end) = threaded(cluster, seed, REPS, |c, times| match role[c.rank().idx()] {
        Some((peer, true)) => {
            let t0 = c.wtime();
            c.send(peer, m_out);
            let _ = c.recv(peer);
            times.push(c.wtime() - t0);
        }
        Some((peer, false)) => {
            let _ = c.recv(peer);
            c.send(peer, m_back);
        }
        None => {}
    });
    (
        units.iter().map(|p| times[p.a.idx()].clone()).collect(),
        end,
    )
}

fn one_to_two_threaded(
    cluster: &SimCluster,
    units: &[Triplet],
    m_out: Bytes,
    m_back: Bytes,
    seed: u64,
    order: Order<'_>,
) -> (Vec<Vec<f64>>, f64) {
    let mut membership: Vec<Option<Triplet>> = vec![None; cluster.n()];
    for t in units {
        for m in t.members() {
            membership[m.idx()] = Some(*t);
        }
    }
    let out = run(&cluster.reseeded(seed), |c| {
        let me = c.rank();
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for (phase, phase_times) in times.iter_mut().enumerate() {
            for _ in 0..REPS {
                c.barrier();
                let Some(t) = membership[me.idx()] else {
                    continue;
                };
                let root = t.members()[phase];
                if me == root {
                    let [x, y] = match order {
                        Some(f) => f(t, root),
                        None => t.others(root),
                    };
                    let t0 = c.wtime();
                    c.send(x, m_out);
                    c.send(y, m_out);
                    let _ = c.recv(x);
                    let _ = c.recv(y);
                    phase_times.push(c.wtime() - t0);
                } else {
                    let _ = c.recv(root);
                    c.send(root, m_back);
                }
            }
        }
        times
    })
    .expect("reference experiment runs");
    let samples = units
        .iter()
        .flat_map(|t| (0..3).map(|phase| out.results[t.members()[phase].idx()][phase].clone()))
        .collect();
    (samples, out.end_time)
}

#[test]
fn scripted_roundtrips_match_the_threaded_experiment_bit_for_bit() {
    let rounds: [&[Pair]; 2] = [
        &[Pair::new(Rank(3), Rank(11))],
        &[
            Pair::new(Rank(0), Rank(1)),
            Pair::new(Rank(14), Rank(2)),
            Pair::new(Rank(5), Rank(9)),
            Pair::new(Rank(7), Rank(15)),
        ],
    ];
    for cl in &clusters() {
        for seed in SEEDS {
            for units in rounds {
                for (m_out, m_back) in [(0, 0), (4 * KIB, 4 * KIB), (100 * KIB, 0)] {
                    let (got, got_end) =
                        roundtrip_round(cl, units, m_out, m_back, REPS, seed).unwrap();
                    let (want, want_end) = roundtrip_threaded(cl, units, m_out, m_back, seed);
                    let ctx = format!("{} seed {seed} m {m_out}/{m_back}", cl.profile.name);
                    assert_eq!(got_end.to_bits(), want_end.to_bits(), "{ctx}");
                    assert_eq!(got.len(), units.len());
                    for ((sample, unit), want) in got.iter().zip(units).zip(&want) {
                        assert_eq!(sample.pair, *unit);
                        assert_eq!(sample.t.len(), REPS);
                        assert_eq!(bits(&sample.t), bits(want), "{ctx} {unit:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn scripted_one_to_two_matches_the_threaded_experiment_bit_for_bit() {
    let units = [
        Triplet::new(Rank(1), Rank(5), Rank(9)),
        Triplet::new(Rank(0), Rank(4), Rank(12)),
        Triplet::new(Rank(15), Rank(2), Rank(8)),
    ];
    // The two orderings the LMO estimator passes: faster child first by a
    // per-node key, and its reverse.
    let ascending = |t: Triplet, root: Rank| {
        let [x, y] = t.others(root);
        if (x.idx() * 7) % 16 <= (y.idx() * 7) % 16 {
            [x, y]
        } else {
            [y, x]
        }
    };
    let descending = |t: Triplet, root: Rank| {
        let [x, y] = ascending(t, root);
        [y, x]
    };
    let orders: [Order<'_>; 3] = [None, Some(&ascending), Some(&descending)];
    for cl in &clusters() {
        for seed in SEEDS {
            for (oi, order) in orders.iter().enumerate() {
                for (m_out, m_back) in [(0, 0), (4 * KIB, 0), (100 * KIB, 4 * KIB)] {
                    let (got, got_end) =
                        one_to_two_round(cl, &units, m_out, m_back, REPS, seed, *order).unwrap();
                    let (want, want_end) =
                        one_to_two_threaded(cl, &units, m_out, m_back, seed, *order);
                    let ctx = format!(
                        "{} seed {seed} order {oi} m {m_out}/{m_back}",
                        cl.profile.name
                    );
                    assert_eq!(got_end.to_bits(), want_end.to_bits(), "{ctx}");
                    assert_eq!(got.len(), 3 * units.len());
                    for (k, (sample, want)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(sample.triplet, units[k / 3]);
                        assert_eq!(sample.root, units[k / 3].members()[k % 3]);
                        assert_eq!(sample.t.len(), REPS);
                        assert_eq!(bits(&sample.t), bits(want), "{ctx} sample {k}");
                    }
                }
            }
        }
    }
}

#[test]
fn scripted_probes_match_the_threaded_experiments_bit_for_bit() {
    let (i, j) = (Rank(2), Rank(13));
    for cl in &clusters() {
        for seed in SEEDS {
            for m in SIZES {
                let ctx = format!("{} seed {seed} m {m}", cl.profile.name);
                let check = |name: &str, got: (Vec<f64>, f64), want: (Vec<Vec<f64>>, f64)| {
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "{name} {ctx}");
                    assert_eq!(got.0.len(), REPS, "{name} {ctx}");
                    assert_eq!(bits(&got.0), bits(&want.0[i.idx()]), "{name} {ctx}");
                };

                let count = 5;
                check(
                    "saturation",
                    saturation(cl, i, j, m, count, REPS, seed).unwrap(),
                    threaded(cl, seed, REPS, |c, times| {
                        if c.rank() == i {
                            let t0 = c.wtime();
                            for _ in 0..count {
                                c.send(j, m);
                            }
                            let _ = c.recv(j);
                            times.push(c.wtime() - t0);
                        } else if c.rank() == j {
                            for _ in 0..count {
                                let _ = c.recv(i);
                            }
                            c.send(i, 0);
                        }
                    }),
                );
                check(
                    "send_probe",
                    send_probe(cl, i, j, m, REPS, seed).unwrap(),
                    threaded(cl, seed, REPS, |c, times| {
                        if c.rank() == i {
                            let t0 = c.wtime();
                            c.send(j, m);
                            times.push(c.wtime() - t0);
                            let _ = c.recv(j);
                        } else if c.rank() == j {
                            let _ = c.recv(i);
                            c.send(i, 0);
                        }
                    }),
                );
                let wait = 0.5;
                check(
                    "delayed_recv_probe",
                    delayed_recv_probe(cl, i, j, m, wait, REPS, seed).unwrap(),
                    threaded(cl, seed, REPS, |c, times| {
                        if c.rank() == i {
                            c.send(j, m);
                            c.compute(wait);
                            let t0 = c.wtime();
                            let _ = c.recv(j);
                            times.push(c.wtime() - t0);
                        } else if c.rank() == j {
                            let _ = c.recv(i);
                            c.send(i, m);
                        }
                    }),
                );
                check(
                    "gather_observation",
                    gather_observation(cl, i, m, REPS, seed).unwrap(),
                    threaded(cl, seed, REPS, |c, times| {
                        if c.rank() == i {
                            let t0 = c.wtime();
                            for k in 0..c.size() {
                                if k != i.idx() {
                                    let _ = c.recv(Rank::from(k));
                                }
                            }
                            times.push(c.wtime() - t0);
                        } else {
                            c.send(i, m);
                        }
                    }),
                );
            }
        }
    }
}

/// A gather with nobody to receive from measures two clock readings with
/// nothing between them: `0.0` per repetition, as on rank threads — not an
/// index underflow in the span arithmetic.
#[test]
fn a_gather_on_one_rank_measures_zero() {
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(1), 1);
    let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1);
    let (times, end) = gather_observation(&cl, Rank(0), 4 * KIB, 3, 1).unwrap();
    assert_eq!(times, vec![0.0; 3]);
    assert_eq!(end, 0.0);
}
