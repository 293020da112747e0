//! Level-aware (two-phase) collectives for hierarchical clusters.
//!
//! On a node/switch hierarchy the flat algorithms waste the cheap
//! intra-node links: a flat binomial broadcast on a block mapping sends
//! most arcs across the switch. The classic fix (Barchet-Estefanel &
//! Mounié; Task & Chauhan, arXiv 0810.2150) is **leader-based two-phase**
//! schedules: pick one leader per node, run the collective over the
//! leaders across the expensive level, then fan out (or gather) inside
//! each node over the cheap level.
//!
//! The phases here deliberately use a *linear* intra schedule: on a
//! power-of-two block mapping, two-phase with a binomial intra phase is
//! arc-for-arc identical to the flat binomial tree, so the linear variant
//! is what actually changes the schedule — it trades tree depth inside the
//! node (where a send slot costs only `C + M·t`) for fewer crossings of
//! the switch level.
//!
//! Alongside the executable algorithms ([`ScriptOp`] programs, like the
//! flat algorithms in the sibling modules) the module provides closed-form
//! predictions under the hierarchical LMO model [`HierLmo`] in the paper's
//! sums-and-maxima style, a three-way selector, and a bisection helper
//! locating the intra-level bandwidth at which the two-phase/flat-binomial
//! preference flips.

use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_models::collective::binomial_recursive_full;
use cpm_models::HierLmo;
use cpm_netsim::ScriptOp;

use crate::{Algorithm, Sink};

/// The leader of `group` under a contiguous block mapping of `intra` ranks
/// per group. The root leads its own group (it already holds the payload);
/// every other group is led by its first rank.
pub fn leader_of_group(group: usize, root: Rank, intra: usize) -> Rank {
    if group == root.idx() / intra {
        root
    } else {
        Rank((group * intra) as u32)
    }
}

/// Two-phase broadcast: a binomial tree over the group leaders moves the
/// payload between groups (largest sub-tree first, as in the flat
/// binomial), then each leader sends linearly to the other members of its
/// group. Leaders forward to child leaders before serving their own group,
/// keeping the inter-group pipeline moving. Groups are contiguous blocks
/// of `intra` ranks; the last group may be smaller when `intra` does not
/// divide the rank count.
///
/// # Panics
/// Panics if `root` is out of range or `intra` is zero.
pub fn two_phase_bcast(n: usize, root: Rank, m: Bytes, intra: usize, mut emit: impl Sink) {
    assert!(root.idx() < n, "root out of range");
    assert!(intra > 0, "intra group size must be positive");
    let tree = BinomialTree::new(n.div_ceil(intra), Rank::from(root.idx() / intra));
    let leader_of = |group: Rank| leader_of_group(group.idx(), root, intra);
    for me in (0..n).map(Rank::from) {
        let group = Rank::from(me.idx() / intra);
        if me != leader_of(group) {
            emit(me, ScriptOp::recv(leader_of(group)));
            continue;
        }
        if let Some(parent) = tree.parent_of(group) {
            emit(me, ScriptOp::recv(leader_of(parent)));
        }
        for (child, _) in tree.children_of(group) {
            emit(me, ScriptOp::send(leader_of(child), m));
        }
        let lo = group.idx() * intra;
        for w in (lo..(lo + intra).min(n)).filter(|&w| w != me.idx()) {
            emit(me, ScriptOp::send(Rank::from(w), m));
        }
    }
}

/// Two-phase reduce: each group gathers linearly to its leader (combining
/// after every receive), then a binomial tree over the leaders merges the
/// per-group results upward to the root (smallest sub-tree first, as in
/// the flat binomial reduce). `gamma` is the per-byte combine cost, as in
/// [`crate::reduce`]; a zero-length combine is not issued.
///
/// # Panics
/// Panics if `root` is out of range or `intra` is zero.
pub fn two_phase_reduce(
    n: usize,
    root: Rank,
    m: Bytes,
    gamma: f64,
    intra: usize,
    mut emit: impl Sink,
) {
    assert!(root.idx() < n, "root out of range");
    assert!(intra > 0, "intra group size must be positive");
    let tree = BinomialTree::new(n.div_ceil(intra), Rank::from(root.idx() / intra));
    let leader_of = |group: Rank| leader_of_group(group.idx(), root, intra);
    let combine = gamma * m as f64;
    for me in (0..n).map(Rank::from) {
        let group = Rank::from(me.idx() / intra);
        if me != leader_of(group) {
            emit(me, ScriptOp::send(leader_of(group), m));
            continue;
        }
        let lo = group.idx() * intra;
        let members = (lo..(lo + intra).min(n)).filter(|&w| w != me.idx());
        let children = tree.children_of(group).into_iter().rev();
        for from in members
            .map(Rank::from)
            .chain(children.map(|(child, _)| leader_of(child)))
        {
            emit(me, ScriptOp::recv(from));
            if combine > 0.0 {
                emit(me, ScriptOp::Compute { secs: combine });
            }
        }
        if let Some(parent) = tree.parent_of(group) {
            emit(me, ScriptOp::send(leader_of(parent), m));
        }
    }
}

/// Two-phase allreduce: a two-phase reduce to `root` followed by a
/// two-phase broadcast of the combined vector from `root`.
pub fn two_phase_allreduce(
    n: usize,
    root: Rank,
    m: Bytes,
    gamma: f64,
    intra: usize,
    mut emit: impl Sink,
) {
    two_phase_reduce(n, root, m, gamma, intra, &mut emit);
    two_phase_bcast(n, root, m, intra, emit);
}

/// Adapter presenting the group leaders of a hierarchical model as a small
/// flat model of their own, so the generic binomial recursion predicts the
/// inter-group phase.
struct LeaderView<'a> {
    h: &'a HierLmo,
    root: Rank,
    intra: usize,
}

impl LeaderView<'_> {
    fn leader(&self, g: Rank) -> Rank {
        leader_of_group(g.idx(), self.root, self.intra)
    }
}

impl PointToPoint for LeaderView<'_> {
    fn p2p(&self, src: Rank, dst: Rank, m: Bytes) -> f64 {
        self.h.time(self.leader(src), self.leader(dst), m)
    }
    fn n(&self) -> usize {
        self.h.n().div_ceil(self.intra)
    }
}

/// Closed-form linear broadcast time under the hierarchical model: the
/// root's `n−1` serialized send slots plus the wire and receive tail of the
/// last destination (the highest rank). It looks at no other tail, so it is
/// a *lower* bound on the program's time, exact when the last destination
/// finishes last (`tests/corollaries.rs`).
pub fn linear_bcast_time(h: &HierLmo, root: Rank, m: Bytes) -> f64 {
    intra_fanout_time(h, root, 0, h.n(), m)
}

/// Closed-form flat binomial broadcast time under the hierarchical model
/// (paper eq. (1) over the folded point-to-point times) — an upper bound
/// on the program's time, like every eq. (1) recursion.
pub fn binomial_bcast_time(h: &HierLmo, root: Rank, m: Bytes) -> f64 {
    binomial_recursive_full(h, &BinomialTree::new(h.n(), root), m)
}

/// The linear fan-out tail inside one group: the leader's serialized send
/// slots plus the wire and receive time of the last member.
fn intra_fanout_time(h: &HierLmo, leader: Rank, lo: usize, hi: usize, m: Bytes) -> f64 {
    let mut members = (lo..hi).filter(|&w| w != leader.idx());
    let k = members.clone().count();
    if k == 0 {
        return 0.0;
    }
    let mf = m as f64;
    let slot = h.c[leader.idx()] + mf * h.t[leader.idx()];
    let last = Rank::from(members.next_back().unwrap());
    let lv = &h.levels[h.level_of(leader, last)];
    k as f64 * slot
        + lv.c
        + lv.l
        + mf * (lv.t + 1.0 / lv.beta)
        + lv.c
        + h.c[last.idx()]
        + mf * (lv.t + h.t[last.idx()])
}

/// Closed-form two-phase broadcast time: the binomial recursion over the
/// group leaders (eq. (1), an upper bound) plus the worst per-group linear
/// fan-out, each charged with its *last* member's tail. The fan-out of
/// groups whose leader finished early overlaps the remaining inter phase.
/// An upper bound on the program's time when the ranks' `(C, t)` are alike
/// (measured up to ×1.86); with heterogeneous ranks a slower earlier member
/// can outlast the last one and the form under-predicts by up to 6 %
/// (`tests/corollaries.rs`).
pub fn two_phase_bcast_time(h: &HierLmo, root: Rank, m: Bytes) -> f64 {
    let n = h.n();
    let intra = h.intra_size();
    if intra <= 1 || intra >= n {
        return binomial_bcast_time(h, root, m);
    }
    let groups = n.div_ceil(intra);
    let view = LeaderView { h, root, intra };
    let tree = BinomialTree::new(groups, Rank((root.idx() / intra) as u32));
    let inter = binomial_recursive_full(&view, &tree, m);
    let fanout = (0..groups)
        .map(|g| {
            let leader = leader_of_group(g, root, intra);
            intra_fanout_time(h, leader, g * intra, ((g + 1) * intra).min(n), m)
        })
        .fold(0.0, f64::max);
    inter + fanout
}

/// Closed-form two-phase reduce time: the worst per-group linear gather
/// (the *first* member's send, the wire, then the leader's serialized
/// receive slots and combines) plus the binomial recursion over the leaders
/// with one combine per tree level. The execution overlaps the root
/// leader's own gather with the child leaders' gathers and wire time, so
/// with like ranks this is an upper bound the observation reaches to within
/// a factor of two (cf. [`crate::reduce::predict_linear_reduce`]); with
/// heterogeneous ranks it can under-predict by up to 5 % for the reason
/// given at [`two_phase_bcast_time`]. `gamma` is the per-byte combine cost.
pub fn two_phase_reduce_time(h: &HierLmo, root: Rank, m: Bytes, gamma: f64) -> f64 {
    let n = h.n();
    let intra = h.intra_size();
    let mf = m as f64;
    if intra <= 1 || intra >= n {
        let depth = (usize::BITS - (n - 1).leading_zeros()) as f64;
        return binomial_bcast_time(h, root, m) + depth * gamma * mf;
    }
    let groups = n.div_ceil(intra);
    let gather = (0..groups)
        .map(|g| {
            let leader = leader_of_group(g, root, intra);
            let (lo, hi) = (g * intra, ((g + 1) * intra).min(n));
            let members: Vec<usize> = (lo..hi).filter(|&w| w != leader.idx()).collect();
            let Some(&first) = members.first() else {
                return 0.0;
            };
            let lv = &h.levels[h.level_of(leader, Rank::from(first))];
            let rx_slot = h.c[leader.idx()] + mf * h.t[leader.idx()] + gamma * mf;
            h.c[first]
                + lv.c
                + mf * (h.t[first] + lv.t)
                + lv.l
                + mf / lv.beta
                + members.len() as f64 * rx_slot
        })
        .fold(0.0, f64::max);
    let view = LeaderView { h, root, intra };
    let tree = BinomialTree::new(groups, Rank((root.idx() / intra) as u32));
    let depth = (usize::BITS - (groups - 1).leading_zeros()) as f64;
    gather + binomial_recursive_full(&view, &tree, m) + depth * gamma * mf
}

/// Closed-form two-phase allreduce time: reduce to the root, broadcast
/// back — the sum of [`two_phase_reduce_time`] and [`two_phase_bcast_time`],
/// with their status.
pub fn two_phase_allreduce_time(h: &HierLmo, root: Rank, m: Bytes, gamma: f64) -> f64 {
    two_phase_reduce_time(h, root, m, gamma) + two_phase_bcast_time(h, root, m)
}

/// Predicted broadcast times of the three candidate algorithms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HierBcastPrediction {
    /// Flat linear broadcast prediction, seconds.
    pub linear: f64,
    /// Flat binomial broadcast prediction, seconds.
    pub binomial: f64,
    /// Two-phase broadcast prediction, seconds.
    pub two_phase: f64,
    /// The group size the two-phase prediction assumes (the model's
    /// natural intra-node size).
    pub intra: usize,
}

impl HierBcastPrediction {
    /// The algorithm with the smallest predicted time.
    pub fn best(&self) -> Algorithm {
        let intra = self.intra;
        let mut best = (Algorithm::Linear, self.linear);
        for (alg, t) in [
            (Algorithm::Binomial, self.binomial),
            (Algorithm::TwoPhase { intra }, self.two_phase),
        ] {
            if t < best.1 {
                best = (alg, t);
            }
        }
        best.0
    }
}

/// Predicts all three broadcast algorithms under the hierarchical model.
pub fn predict_bcast_hier(h: &HierLmo, root: Rank, m: Bytes) -> HierBcastPrediction {
    HierBcastPrediction {
        linear: linear_bcast_time(h, root, m),
        binomial: binomial_bcast_time(h, root, m),
        two_phase: two_phase_bcast_time(h, root, m),
        intra: h.intra_size(),
    }
}

/// Locates, by bisection, the intra-level transmission rate `β^(0)` at
/// which the two-phase and flat-binomial broadcast predictions cross, for
/// fixed message size and everything else held at the model's values.
/// Returns `None` when the preference is the same at both ends of
/// `[lo, hi]` (no crossover inside the bracket).
///
/// Two-phase wins when the intra level is *slow relative to the leader's
/// send slot*: below the returned rate two-phase is preferred, above it
/// the flat binomial tree is.
pub fn intra_beta_crossover(h: &HierLmo, root: Rank, m: Bytes, lo: f64, hi: f64) -> Option<f64> {
    assert!(lo > 0.0 && lo < hi, "invalid bracket");
    let gap = |beta: f64| {
        let mut probe = h.clone();
        probe.levels[0].beta = beta;
        two_phase_bcast_time(&probe, root, m) - binomial_bcast_time(&probe, root, m)
    };
    let (glo, ghi) = (gap(lo), gap(hi));
    if glo == 0.0 {
        return Some(lo);
    }
    if ghi == 0.0 {
        return Some(hi);
    }
    if glo.signum() == ghi.signum() {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if gap(mid).signum() == glo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::collective_times;
    use cpm_cluster::ClusterConfig;
    use cpm_core::units::KIB;
    use cpm_models::GatherEmpirics;
    use cpm_netsim::SimCluster;

    fn hier_model(cores: usize, nodes: usize) -> HierLmo {
        use cpm_models::HierLevel;
        let n = cores * nodes;
        HierLmo::new(
            vec![40e-6; n],
            vec![7e-9; n],
            vec![
                HierLevel {
                    name: "node".into(),
                    arity: cores,
                    c: 0.0,
                    t: 0.0,
                    l: 15e-6,
                    beta: 45e6,
                },
                HierLevel {
                    name: "switch".into(),
                    arity: nodes,
                    c: 0.0,
                    t: 0.0,
                    l: 42e-6,
                    beta: 11.7e6,
                },
            ],
            GatherEmpirics::none(),
        )
    }

    /// A simulated cluster whose ground truth is exactly `h` (levels must
    /// have zero per-level endpoint terms, which the sim kernel cannot
    /// express per level).
    fn cluster_of(h: &HierLmo, seed: u64) -> SimCluster {
        let flat = h.to_extended();
        let truth = cpm_cluster::GroundTruth {
            c: h.c.clone(),
            t: h.t.clone(),
            l: flat.l.clone(),
            beta: flat.beta.clone(),
        };
        SimCluster::new(truth, cpm_cluster::MpiProfile::ideal(), 0.0, seed)
    }

    #[test]
    fn two_phase_beats_flat_binomial_on_the_preset_hierarchy() {
        let cl = SimCluster::from_config(&ClusterConfig::hierarchical(4, 8, 11));
        let m = 64 * KIB;
        let tree = BinomialTree::new(cl.n(), Rank(0));
        let flat =
            collective_times(&cl, 1, 1, |e| crate::bcast::binomial_bcast(&tree, m, e)).unwrap()[0];
        let two =
            collective_times(&cl, 1, 1, |e| two_phase_bcast(32, Rank(0), m, 8, e)).unwrap()[0];
        assert!(two < flat, "two-phase {two} vs flat binomial {flat}");
    }

    #[test]
    fn predictions_track_the_simulator() {
        let h = hier_model(8, 4);
        let cl = cluster_of(&h, 3);
        for m in [4 * KIB, 64 * KIB] {
            let pred = two_phase_bcast_time(&h, Rank(0), m);
            let obs =
                collective_times(&cl, 1, 1, |e| two_phase_bcast(32, Rank(0), m, 8, e)).unwrap()[0];
            let rel = (pred - obs).abs() / obs;
            assert!(rel < 0.15, "m={m}: pred {pred} vs obs {obs} ({rel:.3})");
        }
        let gamma = 5e-9;
        let m = 32 * KIB;
        let pred = two_phase_reduce_time(&h, Rank(0), m, gamma);
        let obs = collective_times(&cl, 1, 1, |e| two_phase_reduce(32, Rank(0), m, gamma, 8, e))
            .unwrap()[0];
        // The reduce form is an upper bound; the execution pipelines the
        // leaders' gathers with the inter phase.
        assert!(obs <= pred * 1.02, "reduce: obs {obs} vs bound {pred}");
        assert!(obs >= pred * 0.4, "reduce: obs {obs} vs bound {pred}");
    }

    #[test]
    fn selector_prefers_two_phase_at_large_messages_on_the_preset() {
        let h = hier_model(8, 4);
        assert_eq!(
            predict_bcast_hier(&h, Rank(0), 64 * KIB).best(),
            Algorithm::TwoPhase { intra: 8 }
        );
        let p = predict_bcast_hier(&h, Rank(0), 64 * KIB);
        assert!(p.two_phase < p.binomial && p.two_phase < p.linear, "{p:?}");
        assert_eq!(Algorithm::TwoPhase { intra: 8 }.as_str(), "two-phase");
    }

    #[test]
    fn allreduce_runs_and_sums_its_phases() {
        let h = hier_model(4, 3);
        let cl = cluster_of(&h, 5);
        let gamma = 5e-9;
        let m = 16 * KIB;
        let pred = two_phase_allreduce_time(&h, Rank(0), m, gamma);
        assert!(
            (pred
                - (two_phase_reduce_time(&h, Rank(0), m, gamma)
                    + two_phase_bcast_time(&h, Rank(0), m)))
            .abs()
                < 1e-15
        );
        let obs = collective_times(&cl, 1, 1, |e| {
            two_phase_allreduce(12, Rank(0), m, gamma, 4, e)
        })
        .unwrap()[0];
        assert!(obs > 0.0 && obs <= pred * 1.02, "obs {obs} vs bound {pred}");
        assert!(obs >= pred * 0.4, "obs {obs} vs bound {pred}");
    }

    #[test]
    fn crossover_splits_the_preference() {
        let h = hier_model(8, 4);
        let m = 64 * KIB;
        let cross = intra_beta_crossover(&h, Rank(0), m, 1e6, 1e12)
            .expect("preference must flip somewhere in the bracket");
        let mut slow = h.clone();
        slow.levels[0].beta = cross / 2.0;
        let mut fast = h.clone();
        fast.levels[0].beta = cross * 2.0;
        assert!(two_phase_bcast_time(&slow, Rank(0), m) < binomial_bcast_time(&slow, Rank(0), m));
        assert!(two_phase_bcast_time(&fast, Rank(0), m) > binomial_bcast_time(&fast, Rank(0), m));
    }
}
