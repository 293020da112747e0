//! The LMO-based optimized gather (paper Fig. 7).
//!
//! For medium message sizes (`M1 < M < M2`) linear gather suffers
//! non-deterministic escalations of up to 0.25 s. The optimization uses the
//! LMO *empirical* parameters: split each block into pieces no larger than
//! `M1` and run a series of small gathers — small messages never escalate,
//! so the series costs a few extra rounds of fixed overhead instead of an
//! expected escalation. The paper reports ~10× better performance from
//! exactly this transformation ("splitting the messages of medium size and
//! performing a series of gathers").

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_models::GatherEmpirics;

use crate::gather::linear_gather;
use crate::Sink;

/// The piece size the optimizer splits to: half of `M1`. The margin
/// matters because `M1` is estimated as "the last clean size on the sweep
/// grid" — a piece of exactly `M1` can still sit inside the escalation
/// region when the estimate overshoots by one grid step, and splitting
/// *into* the region makes things worse (more messages, more escalation
/// draws).
pub fn safe_piece(empirics: &GatherEmpirics) -> Bytes {
    (empirics.m1 / 2).max(1)
}

/// Number of pieces an `m`-byte block is split into.
pub fn split_count(m: Bytes, empirics: &GatherEmpirics) -> usize {
    if m <= empirics.m1 || m >= empirics.m2 || empirics.m1 == 0 {
        1
    } else {
        m.div_ceil(safe_piece(empirics)) as usize
    }
}

/// Linear gather that splits medium messages into sub-`M1` pieces gathered
/// in series: `split_count` linear gathers of `m / k` bytes, the last
/// carrying the remainder. Outside the irregular region it is a plain
/// linear gather.
pub fn optimized_gather(
    n: usize,
    root: Rank,
    m: Bytes,
    empirics: &GatherEmpirics,
    mut emit: impl Sink,
) {
    let k = split_count(m, empirics) as u64;
    let piece = m / k;
    for _round in 1..k {
        linear_gather(n, root, piece, &mut emit);
    }
    linear_gather(n, root, m - piece * (k - 1), emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;
    use cpm_netsim::SimCluster;
    use cpm_stats::Summary;

    fn lam_cluster() -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2);
        SimCluster::new(truth, MpiProfile::lam_7_1_3(), 0.0, 11)
    }

    fn lam_empirics() -> GatherEmpirics {
        let p = MpiProfile::lam_7_1_3();
        GatherEmpirics {
            m1: p.m1,
            m2: p.m2,
            escalation_probability: 0.4,
            escalation_magnitude: 0.18,
            escalation_prob_knots: Vec::new(),
        }
    }

    #[test]
    fn split_counts() {
        let e = lam_empirics(); // m1 = 4 KB → pieces of 2 KB
        assert_eq!(safe_piece(&e), 2 * KIB);
        assert_eq!(split_count(2 * KIB, &e), 1, "small stays whole");
        assert_eq!(split_count(100 * KIB, &e), 1, "large stays whole");
        assert_eq!(split_count(8 * KIB, &e), 4);
        assert_eq!(split_count(32 * KIB, &e), 16);
        assert_eq!(split_count(9 * KIB, &e), 5, "ceil division");
    }

    #[test]
    fn optimized_gather_avoids_escalations() {
        // Paper Fig. 7: in the escalation region, the mean time of the
        // native gather is dominated by escalations; the split version
        // stays near the linear baseline — the paper reports ~10×.
        let cl = lam_cluster();
        let e = lam_empirics();
        let m = 32 * KIB;
        let reps = 24;
        let native = measure::linear_gather_times(&cl, Rank(0), m, reps, 5).unwrap();
        let optimized = measure::optimized_gather_times(&cl, Rank(0), m, &e, reps, 5).unwrap();
        let native_mean = Summary::of(&native).mean();
        let opt_mean = Summary::of(&optimized).mean();
        assert!(
            native_mean > 3.0 * opt_mean,
            "native {native_mean} vs optimized {opt_mean}"
        );
        // The optimized version never escalates.
        let opt_max = optimized.iter().copied().fold(0.0, f64::max);
        assert!(opt_max < 0.1, "optimized max {opt_max}");
    }

    #[test]
    fn outside_the_region_it_is_plain_gather() {
        let cl = lam_cluster().idealized();
        let e = lam_empirics();
        for m in [2 * KIB, 100 * KIB] {
            let a = measure::linear_gather_times(&cl, Rank(0), m, 1, 3).unwrap()[0];
            let b = measure::optimized_gather_times(&cl, Rank(0), m, &e, 1, 3).unwrap()[0];
            assert!((a - b).abs() < 1e-12, "m={m}: {a} vs {b}");
        }
    }

    #[test]
    fn split_pieces_cover_the_whole_message_and_stay_clean() {
        let e = lam_empirics();
        for m in [5 * KIB, 32 * KIB, 63 * KIB] {
            let k = split_count(m, &e) as u64;
            let piece = m / k;
            let last = m - piece * (k - 1);
            assert_eq!(piece * (k - 1) + last, m);
            // Every piece stays at or below the clean threshold even if the
            // estimate of M1 overshot by up to 2×.
            assert!(piece <= e.m1 / 2 + 1, "piece {piece}");
            assert!(last <= e.m1, "last piece {last}");
        }
    }
}
