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
//! These are [`ScriptOp`] programs like the flat algorithms in the sibling
//! modules; what they cost under a hierarchical model is what the model's
//! machine does with them ([`crate::cost`]), which is also how the chooser
//! decides between them and the flat ones.

use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_netsim::ScriptOp;

use crate::Sink;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{choose, CostModel, Machine, Op, Rooted};
    use crate::measure::collective_times;
    use crate::Algorithm;
    use cpm_cluster::ClusterConfig;
    use cpm_core::units::KIB;
    use cpm_models::{GatherEmpirics, HierLmo};
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

    /// The chooser, pricing on the model's machine, picks two-phase for a
    /// large broadcast on the preset shape — and the pick is the cheapest
    /// of the three on the cluster whose truth the model is.
    #[test]
    fn the_chooser_prefers_two_phase_at_large_messages_on_the_preset() {
        let h = hier_model(8, 4);
        let model = CostModel::Machine(Machine::hier(&h));
        let op = Op {
            kind: Rooted::Bcast,
            root: Rank(0),
            m: 64 * KIB,
        };
        assert_eq!(choose(&model, op), Algorithm::TwoPhase { intra: 8 });
        let cl = cluster_of(&h, 3);
        let tree = BinomialTree::new(32, Rank(0));
        let two = collective_times(&cl, 1, 1, |e| two_phase_bcast(32, Rank(0), op.m, 8, e));
        let flat = collective_times(&cl, 1, 1, |e| crate::binomial_bcast(&tree, op.m, e));
        assert!(two.unwrap()[0] < flat.unwrap()[0]);
        assert_eq!(Algorithm::TwoPhase { intra: 8 }.as_str(), "two-phase");
    }

    /// An allreduce is its reduce followed by its broadcast: it takes at
    /// least as long as either and no longer than both in series.
    #[test]
    fn allreduce_runs_its_two_phases_in_series() {
        let h = hier_model(4, 3);
        let cl = cluster_of(&h, 5);
        let (gamma, m) = (5e-9, 16 * KIB);
        let reduce =
            |e: &mut dyn FnMut(Rank, ScriptOp)| two_phase_reduce(12, Rank(0), m, gamma, 4, e);
        let bcast = |e: &mut dyn FnMut(Rank, ScriptOp)| two_phase_bcast(12, Rank(0), m, 4, e);
        let all =
            |e: &mut dyn FnMut(Rank, ScriptOp)| two_phase_allreduce(12, Rank(0), m, gamma, 4, e);
        let reduce = collective_times(&cl, 1, 1, reduce).unwrap()[0];
        let bcast = collective_times(&cl, 1, 1, bcast).unwrap()[0];
        let all = collective_times(&cl, 1, 1, all).unwrap()[0];
        assert!(all >= reduce.max(bcast), "{all} vs {reduce}, {bcast}");
        assert!(
            all <= (reduce + bcast) * (1.0 + 1e-12),
            "{all} vs {reduce} + {bcast}"
        );
    }
}
