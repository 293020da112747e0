//! One-way transfer probes — the observation channel of the drift loop.
//!
//! A drift monitor compares *observed* transfer times against model
//! predictions, so it needs the one-way time `T_ij(M)` directly rather
//! than a roundtrip. The simulator's barrier releases all ranks at the
//! same virtual instant, so the receiver-side interval "barrier release →
//! receive complete" is exactly the LMO point-to-point time
//! `C_i + M·t_i + L_ij + M/β_ij + C_j + M·t_j` — no halving, no
//! asymmetry assumption.
//!
//! Like the estimation experiments, the probe is a generated
//! [`ScriptOp`] program per rank timed from its op windows
//! ([`TimedScript`]), not a closure on rank threads.

use cpm_core::error::Result;
use cpm_core::rank::{disjoint, Pair};
use cpm_core::units::Bytes;
use cpm_netsim::{ScriptOp, SimCluster, TimedScript};

/// Per-pair repetition series of one-way times, in `units` order.
pub type OneWaySamples = Vec<(Pair, Vec<f64>)>;

/// Measures `reps` one-way transfers of `m` bytes (`a → b`) on every pair
/// of `units` simultaneously. Pairs must be disjoint. Times are measured
/// on the *receiver* side, from barrier release to receive completion.
/// Returns per-pair repetition series and the virtual time consumed.
pub fn one_way_times(
    cluster: &SimCluster,
    units: &[Pair],
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(OneWaySamples, f64)> {
    debug_assert!(
        disjoint(units.iter().flat_map(|p| [p.a, p.b])),
        "pairs must be disjoint"
    );
    let mut script = TimedScript::new(cluster.n());
    for _ in 0..reps {
        script.barrier();
        for p in units {
            script.extend(p.a, [ScriptOp::send(p.b, m)]);
            script.timed(p.b, [ScriptOp::recv(p.a)]);
        }
    }
    let (mut times, end_time) = script.run(&cluster.reseeded(seed))?;
    let samples = units
        .iter()
        .map(|p| (*p, std::mem::take(&mut times[p.b.idx()])))
        .collect();
    Ok((samples, end_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::rank::Rank;

    #[test]
    fn one_way_time_is_the_lmo_p2p_time() {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 7);
        let cl = SimCluster::new(truth.clone(), MpiProfile::ideal(), 0.0, 7);
        let pairs = [Pair::new(Rank(0), Rank(1)), Pair::new(Rank(2), Rank(3))];
        let (samples, _) = one_way_times(&cl, &pairs, 8192, 3, 5).unwrap();
        assert_eq!(samples.len(), 2);
        for (pair, ts) in &samples {
            assert_eq!(ts.len(), 3);
            let want = truth.p2p_time(pair.a, pair.b, 8192);
            for t in ts {
                assert!((t - want).abs() < 1e-12, "{pair:?}: {t} vs {want}");
            }
        }
    }

    /// The probe as it was written against rank threads — the oracle the
    /// scripted probe must match to the bit.
    fn one_way_times_threaded(
        cluster: &SimCluster,
        units: &[Pair],
        m: Bytes,
        reps: usize,
        seed: u64,
    ) -> (OneWaySamples, f64) {
        let cl = cluster.reseeded(seed);
        let mut role: Vec<Option<(Rank, bool)>> = vec![None; cluster.n()];
        for p in units {
            role[p.a.idx()] = Some((p.b, true));
            role[p.b.idx()] = Some((p.a, false));
        }
        let out = run(&cl, |c| {
            let me = c.rank();
            let mut times = Vec::new();
            for _ in 0..reps {
                c.barrier();
                match role[me.idx()] {
                    Some((peer, true)) => c.send(peer, m),
                    Some((peer, false)) => {
                        let t0 = c.wtime();
                        let _ = c.recv(peer);
                        times.push(c.wtime() - t0);
                    }
                    None => {}
                }
            }
            times
        })
        .unwrap();
        let samples = units
            .iter()
            .map(|p| (*p, out.results[p.b.idx()].clone()))
            .collect();
        (samples, out.end_time)
    }

    #[test]
    fn scripted_one_way_times_match_the_threaded_probe_bit_for_bit() {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 3);
        let clusters = [
            SimCluster::new(truth.clone(), MpiProfile::lam_7_1_3(), 0.01, 3),
            SimCluster::new(truth, MpiProfile::ideal(), 0.0, 3),
        ];
        let pairs = [
            Pair::new(Rank(0), Rank(9)),
            Pair::new(Rank(4), Rank(2)),
            Pair::new(Rank(15), Rank(7)),
        ];
        for cl in &clusters {
            for seed in 0..8 {
                for m in [0, 4 * 1024, 100 * 1024] {
                    let (got, got_end) = one_way_times(cl, &pairs, m, 3, seed).unwrap();
                    let (want, want_end) = one_way_times_threaded(cl, &pairs, m, 3, seed);
                    assert_eq!(got_end.to_bits(), want_end.to_bits(), "seed {seed} m {m}");
                    assert_eq!(got.len(), want.len());
                    for ((gp, gt), (wp, wt)) in got.iter().zip(&want) {
                        assert_eq!(gp, wp);
                        let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(gt), bits(wt), "seed {seed} m {m} {gp:?}");
                    }
                }
            }
        }
    }
}
