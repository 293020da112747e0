//! Variable-block scatter/gather and heterogeneous data partitioning.
//!
//! On a heterogeneous cluster, equal blocks finish at the speed of the
//! slowest receiver. With a model that separates per-processor from
//! per-link contributions, the block sizes can be chosen so every
//! receiver's tail `L_ri + m_i/β_ri + C_i + m_i·t_i` is equal — the
//! communication analogue of the heterogeneous data-partitioning problem
//! the paper's group (HCL) built its earlier tooling around.

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_models::LmoExtended;

use crate::gather::fan_in;
use crate::scatter::fan_out;
use crate::Sink;

/// Linear scatter with per-rank block sizes: rank `i` receives `sizes[i]`
/// bytes (the root's own entry is ignored); `sizes.len()` is the rank
/// count. A zero-sized block is still a message.
pub fn linear_scatterv(root: Rank, sizes: &[Bytes], emit: impl Sink) {
    fan_out(sizes.len(), root, |i| sizes[i], emit)
}

/// Linear gather with per-rank block sizes: rank `i` sends `sizes[i]`
/// bytes to the root.
pub fn linear_gatherv(root: Rank, sizes: &[Bytes], emit: impl Sink) {
    fan_in(sizes.len(), root, |i| sizes[i], 0.0, emit)
}

/// Partitions `total` bytes over the non-root ranks so that every
/// receiver's tail `L_ri + m_i/β_ri + C_i + m_i·t_i` is equal (receivers
/// finish together), using the model's separated parameters. Returns one
/// size per rank (0 for the root); sizes sum exactly to `total`.
///
/// Ranks whose fixed tail (`L + C`) already exceeds the equalized level
/// receive 0 bytes.
pub fn balanced_partition(model: &LmoExtended, root: Rank, total: Bytes) -> Vec<Bytes> {
    let n = model.c.len();
    assert!(root.idx() < n);
    // Receiver i: tail(m) = a_i + m / w_i with a_i = L+C and
    // 1/w_i = 1/β + t_i. Equal tails K give m_i = (K − a_i)·w_i.
    let mut a = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut active: Vec<usize> = (0..n).filter(|&i| i != root.idx()).collect();
    for &i in &active {
        let r = Rank::from(i);
        a[i] = *model.l.get(root, r) + model.c[i];
        w[i] = 1.0 / (1.0 / model.beta.get(root, r) + model.t[i]);
    }
    // Iteratively drop ranks that would get negative sizes (their fixed
    // tail exceeds K).
    let mut sizes_f = vec![0.0f64; n];
    loop {
        let sw: f64 = active.iter().map(|&i| w[i]).sum();
        let saw: f64 = active.iter().map(|&i| a[i] * w[i]).sum();
        let k = (total as f64 + saw) / sw;
        let mut dropped = false;
        active.retain(|&i| {
            if k < a[i] {
                sizes_f[i] = 0.0;
                dropped = true;
                false
            } else {
                true
            }
        });
        if !dropped {
            for &i in &active {
                sizes_f[i] = (k - a[i]) * w[i];
            }
            break;
        }
        assert!(!active.is_empty(), "total too small to place anywhere");
    }
    // Round to integers preserving the exact total (largest remainders get
    // the leftover bytes).
    let mut sizes: Vec<Bytes> = sizes_f.iter().map(|&f| f.floor() as Bytes).collect();
    let assigned: Bytes = sizes.iter().sum();
    let mut leftover = total - assigned;
    let mut order: Vec<usize> = active.clone();
    order.sort_by(|&i, &j| {
        let fi = sizes_f[i] - sizes_f[i].floor();
        let fj = sizes_f[j] - sizes_f[j].floor();
        fj.total_cmp(&fi)
    });
    for i in order.into_iter().cycle() {
        if leftover == 0 {
            break;
        }
        sizes[i] += 1;
        leftover -= 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::collective_times;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};

    use cpm_core::units::KIB;
    use cpm_models::GatherEmpirics;
    use cpm_netsim::SimCluster;

    /// A cluster with one slow receiver (node 3).
    fn skewed() -> (SimCluster, LmoExtended) {
        let mut truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(6), 9);
        truth.t[3] *= 8.0;
        truth.c[3] *= 3.0;
        let model = LmoExtended::new(
            truth.c.clone(),
            truth.t.clone(),
            truth.l.clone(),
            truth.beta.clone(),
            GatherEmpirics::none(),
        );
        (SimCluster::new(truth, MpiProfile::ideal(), 0.0, 9), model)
    }

    #[test]
    fn partition_conserves_total_and_slows_down_the_slow_node() {
        let (_, model) = skewed();
        let total = 600 * KIB;
        let sizes = balanced_partition(&model, Rank(0), total);
        assert_eq!(sizes.iter().sum::<u64>(), total);
        assert_eq!(sizes[0], 0, "the root keeps no block");
        // The slow node gets markedly less than the fast ones (its
        // per-byte rate 1/β + 8t is ~1.55× the fast nodes' 1/β + t, so its
        // share lands around 0.6×).
        let fast = sizes[1];
        assert!(sizes[3] < fast * 3 / 4, "slow {} vs fast {fast}", sizes[3]);
        assert!(
            sizes[3] > fast / 3,
            "share should not collapse: {}",
            sizes[3]
        );
    }

    #[test]
    fn balanced_partition_equalizes_predicted_tails() {
        let (_, model) = skewed();
        let sizes = balanced_partition(&model, Rank(0), 400 * KIB);
        let tails: Vec<f64> = (1..6)
            .map(|i| {
                let r = Rank::from(i);
                let m = sizes[i] as f64;
                *model.l.get(Rank(0), r)
                    + m / model.beta.get(Rank(0), r)
                    + model.c[i]
                    + m * model.t[i]
            })
            .collect();
        let (lo, hi) = tails.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
            (lo.min(t), hi.max(t))
        });
        assert!((hi - lo) / hi < 0.01, "tails not equalized: {tails:?}");
    }

    #[test]
    fn balanced_beats_equal_partition_in_the_simulator() {
        let (sim, model) = skewed();
        let total = 600 * KIB;
        let balanced = balanced_partition(&model, Rank(0), total);
        let equal: Vec<u64> = (0..6).map(|i| if i == 0 { 0 } else { total / 5 }).collect();
        let observe = |sizes: Vec<u64>| {
            collective_times(&sim, 1, 1, |e| linear_scatterv(Rank(0), &sizes, e)).unwrap()[0]
        };
        let t_balanced = observe(balanced);
        let t_equal = observe(equal);
        assert!(
            t_balanced < t_equal * 0.95,
            "balanced {t_balanced} vs equal {t_equal}"
        );
    }

    #[test]
    fn gatherv_runs_with_mixed_sizes() {
        let (sim, _) = skewed();
        let sizes: Vec<u64> = vec![0, KIB, 2 * KIB, 3 * KIB, 4 * KIB, 5 * KIB];
        let t = collective_times(&sim, 1, 1, |e| linear_gatherv(Rank(0), &sizes, e)).unwrap()[0];
        assert!(t > 0.0);
    }

    #[test]
    fn tiny_totals_still_conserve() {
        let (_, model) = skewed();
        for total in [1u64, 5, 37] {
            let sizes = balanced_partition(&model, Rank(0), total);
            assert_eq!(sizes.iter().sum::<u64>(), total, "total={total}");
        }
    }
}
