//! Lowering: from trace ops to per-rank primitive programs.
//!
//! Every trace op expands into [`ScriptOp`]s appended to each
//! participating rank's program, mirroring the concrete algorithms in
//! `cpm-collectives` (linear scatter sends in increasing rank order,
//! binomial trees forward largest sub-tree first, reduce combines after
//! every receive, the ring allgather alternates even/odd send order, the
//! rotation alltoall walks rounds `k = 1..n`). The programs are in the
//! script kernel's own vocabulary, so [`mod@crate::plan`] and
//! [`mod@crate::replay`] hand [`Lowered::per_rank`] to the kernel as it is:
//! there is one lowering and one machine, and a new collective algorithm is
//! written once, here.

use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_vmpi::ScriptOp;

use crate::trace::{OpKind, Trace};

/// The algorithm a collective op was lowered with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Flat: the root exchanges with every rank directly.
    Linear,
    /// Binomial tree over the participating ranks.
    Binomial,
    /// Leader-based two-phase schedule for hierarchical clusters: ranks are
    /// split into contiguous groups of `intra` (the ranks sharing a node);
    /// a binomial tree runs over the group leaders and each leader
    /// exchanges linearly within its group. The root acts as its own
    /// group's leader.
    TwoPhase {
        /// Ranks per group (cores per node).
        intra: usize,
    },
    /// Ring schedule (allgather).
    Ring,
    /// Rank-rotation schedule (alltoall).
    Rotation,
}

impl Algorithm {
    /// The name used in plan output and golden files.
    pub fn as_str(&self) -> &'static str {
        match self {
            Algorithm::Linear => "linear",
            Algorithm::Binomial => "binomial",
            Algorithm::TwoPhase { .. } => "two-phase",
            Algorithm::Ring => "ring",
            Algorithm::Rotation => "rotation",
        }
    }
}

/// A lowered trace: one primitive program per rank, plus the effective
/// algorithm per op.
#[derive(Clone, Debug, PartialEq)]
pub struct Lowered {
    /// Number of ranks.
    pub n: usize,
    /// The primitive program of each rank, in program order — what the
    /// script kernel runs (`Send` is the simulator's blocking-buffered
    /// send: it returns when the local tx engine finishes).
    pub per_rank: Vec<Vec<ScriptOp>>,
    /// `op_of[r][k]` is the index into `trace.ops` of the op that
    /// primitive `k` of rank `r` implements; non-decreasing along each
    /// program because ops are lowered in trace order.
    pub op_of: Vec<Vec<usize>>,
    /// Effective algorithm per trace op (`None` for p2p/compute/barrier).
    pub algorithms: Vec<Option<Algorithm>>,
}

impl Lowered {
    /// Merges the kernel's per-primitive `windows` (as in
    /// `ScriptOutcome::windows`) into one `(start, end)` window per trace
    /// op across all ranks; `None` for an op that lowered to nothing.
    pub fn op_windows(&self, windows: &[Vec<(f64, f64)>]) -> Vec<Option<(f64, f64)>> {
        let mut merged: Vec<Option<(f64, f64)>> = vec![None; self.algorithms.len()];
        for (ops, windows) in self.op_of.iter().zip(windows) {
            for (&op, &(t0, t1)) in ops.iter().zip(windows) {
                let w = merged[op].get_or_insert((t0, t1));
                w.0 = w.0.min(t0);
                w.1 = w.1.max(t1);
            }
        }
        merged
    }
}

struct Emitter {
    per_rank: Vec<Vec<ScriptOp>>,
    op_of: Vec<Vec<usize>>,
    op: usize,
}

impl Emitter {
    fn emit(&mut self, rank: Rank, prim: ScriptOp) {
        self.per_rank[rank.idx()].push(prim);
        self.op_of[rank.idx()].push(self.op);
    }

    fn send(&mut self, src: Rank, dst: Rank, m: Bytes) {
        self.emit(src, ScriptOp::Send { dst, bytes: m });
    }

    fn recv(&mut self, dst: Rank, src: Rank) {
        self.emit(dst, ScriptOp::Recv { src });
    }
}

/// Lowers `trace` with the per-op algorithm `choices` (as produced by
/// [`crate::plan::choose`]; `None` entries fall back to the linear
/// algorithm). The trace must validate.
pub fn lower(trace: &Trace, choices: &[Option<Algorithm>]) -> Lowered {
    let n = trace.n;
    let mut e = Emitter {
        per_rank: vec![Vec::new(); n],
        op_of: vec![Vec::new(); n],
        op: 0,
    };
    let mut algorithms = vec![None; trace.ops.len()];
    for (idx, op) in trace.ops.iter().enumerate() {
        e.op = idx;
        let choice = choices.get(idx).copied().flatten();
        algorithms[idx] = match &op.kind {
            OpKind::P2p { src, dst, m } => {
                e.send(*src, *dst, *m);
                e.recv(*dst, *src);
                None
            }
            OpKind::Scatter { root, m } => match choice.unwrap_or(Algorithm::Linear) {
                Algorithm::Binomial => {
                    lower_binomial(&mut e, n, *root, |blocks| blocks.saturating_mul(*m));
                    Some(Algorithm::Binomial)
                }
                _ => {
                    lower_linear_root_send(&mut e, n, *root, *m);
                    Some(Algorithm::Linear)
                }
            },
            OpKind::Bcast { root, m } => match choice.unwrap_or(Algorithm::Linear) {
                Algorithm::Binomial => {
                    lower_binomial(&mut e, n, *root, |_| *m);
                    Some(Algorithm::Binomial)
                }
                Algorithm::TwoPhase { intra } if intra > 0 && intra < n => {
                    lower_two_phase_bcast(&mut e, n, *root, *m, intra);
                    Some(Algorithm::TwoPhase { intra })
                }
                _ => {
                    lower_linear_root_send(&mut e, n, *root, *m);
                    Some(Algorithm::Linear)
                }
            },
            OpKind::Gather { root, m } => match choice.unwrap_or(Algorithm::Linear) {
                Algorithm::Binomial => {
                    lower_binomial_up(&mut e, n, *root, *m, 0.0);
                    Some(Algorithm::Binomial)
                }
                _ => {
                    lower_linear_root_recv(&mut e, n, *root, *m, 0.0);
                    Some(Algorithm::Linear)
                }
            },
            OpKind::Reduce { root, m, gamma } => match choice.unwrap_or(Algorithm::Linear) {
                Algorithm::Binomial => {
                    lower_binomial_up(&mut e, n, *root, *m, gamma * *m as f64);
                    Some(Algorithm::Binomial)
                }
                Algorithm::TwoPhase { intra } if intra > 0 && intra < n => {
                    lower_two_phase_reduce(&mut e, n, *root, *m, gamma * *m as f64, intra);
                    Some(Algorithm::TwoPhase { intra })
                }
                _ => {
                    lower_linear_root_recv(&mut e, n, *root, *m, gamma * *m as f64);
                    Some(Algorithm::Linear)
                }
            },
            OpKind::Allgather { m } => {
                lower_ring_allgather(&mut e, n, *m);
                Some(Algorithm::Ring)
            }
            OpKind::Alltoall { m } => {
                lower_rotation_alltoall(&mut e, n, *m);
                Some(Algorithm::Rotation)
            }
            OpKind::Compute { ranks, seconds } => {
                for r in ranks {
                    e.emit(*r, ScriptOp::Compute { secs: *seconds });
                }
                None
            }
            OpKind::Barrier => {
                for r in 0..n as u32 {
                    e.emit(Rank(r), ScriptOp::Barrier);
                }
                None
            }
        };
    }
    Lowered {
        n,
        per_rank: e.per_rank,
        op_of: e.op_of,
        algorithms,
    }
}

/// Linear scatter/bcast: root sends to every other rank in increasing
/// rank order; everyone else receives (`cpm_collectives::scatter::
/// linear_scatter` / `bcast::linear_bcast`).
fn lower_linear_root_send(e: &mut Emitter, n: usize, root: Rank, m: Bytes) {
    for i in 0..n as u32 {
        if Rank(i) != root {
            e.send(root, Rank(i), m);
        }
    }
    for i in 0..n as u32 {
        if Rank(i) != root {
            e.recv(Rank(i), root);
        }
    }
}

/// Linear gather/reduce: every non-root sends to the root; the root
/// receives in increasing rank order, combining for `combine_secs` after
/// each receive when reducing (`gather::linear_gather` /
/// `reduce::linear_reduce`).
fn lower_linear_root_recv(e: &mut Emitter, n: usize, root: Rank, m: Bytes, combine_secs: f64) {
    for i in 0..n as u32 {
        if Rank(i) != root {
            e.send(Rank(i), root, m);
        }
    }
    for i in 0..n as u32 {
        if Rank(i) != root {
            e.recv(root, Rank(i));
            if combine_secs > 0.0 {
                e.emit(root, ScriptOp::Compute { secs: combine_secs });
            }
        }
    }
}

/// Binomial downward flow (scatter/bcast): receive from the parent, then
/// send to each child largest-sub-tree first; `payload(blocks)` is the
/// bytes on an arc whose sub-tree holds `blocks` processes.
fn lower_binomial(e: &mut Emitter, n: usize, root: Rank, payload: impl Fn(u64) -> Bytes) {
    let tree = BinomialTree::new(n, root);
    for i in 0..n as u32 {
        let me = Rank(i);
        if let Some(parent) = tree.parent_of(me) {
            e.recv(me, parent);
        }
        for (child, blocks) in tree.children_of(me) {
            e.send(me, child, payload(blocks));
        }
    }
}

/// Binomial upward flow (gather/reduce): receive each child's sub-tree
/// smallest first (combining when reducing), then forward to the parent —
/// the whole sub-tree for gather (`combine_secs == 0`), one vector for
/// reduce.
fn lower_binomial_up(e: &mut Emitter, n: usize, root: Rank, m: Bytes, combine_secs: f64) {
    let tree = BinomialTree::new(n, root);
    for i in 0..n as u32 {
        let me = Rank(i);
        let mut children = tree.children_of(me);
        children.reverse(); // smallest sub-tree first
        for (child, _) in children {
            e.recv(me, child);
            if combine_secs > 0.0 {
                e.emit(me, ScriptOp::Compute { secs: combine_secs });
            }
        }
        if let Some(parent) = tree.parent_of(me) {
            let bytes = if combine_secs > 0.0 {
                m
            } else {
                tree.subtree_size(me).saturating_mul(m)
            };
            e.send(me, parent, bytes);
        }
    }
}

/// The leader of the group holding `g` under a two-phase split: the root
/// for the root's own group, the group's first rank otherwise.
fn leader_of_group(group: usize, root: Rank, intra: usize) -> Rank {
    if group == root.idx() / intra {
        root
    } else {
        Rank((group * intra) as u32)
    }
}

/// Two-phase broadcast: a binomial tree over the group leaders moves the
/// payload between groups (largest sub-tree first, as in the flat binomial),
/// then each leader sends linearly to the other members of its group.
/// Leaders forward to child leaders before serving their own group, keeping
/// the inter-group pipeline moving.
fn lower_two_phase_bcast(e: &mut Emitter, n: usize, root: Rank, m: Bytes, intra: usize) {
    let groups = n.div_ceil(intra);
    let tree = BinomialTree::new(groups, Rank((root.idx() / intra) as u32));
    for i in 0..n as u32 {
        let me = Rank(i);
        let leader = leader_of_group(me.idx() / intra, root, intra);
        if me == leader {
            let g = Rank((me.idx() / intra) as u32);
            if let Some(pg) = tree.parent_of(g) {
                e.recv(me, leader_of_group(pg.idx(), root, intra));
            }
            for (cg, _) in tree.children_of(g) {
                e.send(me, leader_of_group(cg.idx(), root, intra), m);
            }
            let lo = (me.idx() / intra) * intra;
            for j in lo..(lo + intra).min(n) {
                if Rank(j as u32) != me {
                    e.send(me, Rank(j as u32), m);
                }
            }
        } else {
            e.recv(me, leader);
        }
    }
}

/// Two-phase reduce: each group gathers linearly to its leader (combining
/// after every receive), then a binomial tree over the leaders merges the
/// per-group results upward to the root (smallest sub-tree first, as in
/// the flat binomial reduce).
fn lower_two_phase_reduce(
    e: &mut Emitter,
    n: usize,
    root: Rank,
    m: Bytes,
    combine_secs: f64,
    intra: usize,
) {
    let groups = n.div_ceil(intra);
    let tree = BinomialTree::new(groups, Rank((root.idx() / intra) as u32));
    for i in 0..n as u32 {
        let me = Rank(i);
        let leader = leader_of_group(me.idx() / intra, root, intra);
        if me == leader {
            let lo = (me.idx() / intra) * intra;
            for j in lo..(lo + intra).min(n) {
                if Rank(j as u32) != me {
                    e.recv(me, Rank(j as u32));
                    if combine_secs > 0.0 {
                        e.emit(me, ScriptOp::Compute { secs: combine_secs });
                    }
                }
            }
            let g = Rank((me.idx() / intra) as u32);
            let mut children = tree.children_of(g);
            children.reverse(); // smallest sub-tree first
            for (cg, _) in children {
                e.recv(me, leader_of_group(cg.idx(), root, intra));
                if combine_secs > 0.0 {
                    e.emit(me, ScriptOp::Compute { secs: combine_secs });
                }
            }
            if let Some(pg) = tree.parent_of(g) {
                e.send(me, leader_of_group(pg.idx(), root, intra), m);
            }
        } else {
            e.send(me, leader, m);
        }
    }
}

/// Blocking ring allgather: `n−1` steps; even ranks send right then
/// receive left, odd ranks the reverse (`allgather::ring_allgather`).
fn lower_ring_allgather(e: &mut Emitter, n: usize, m: Bytes) {
    for i in 0..n {
        let me = Rank(i as u32);
        let right = Rank(((i + 1) % n) as u32);
        let left = Rank(((i + n - 1) % n) as u32);
        for _step in 0..n - 1 {
            if i % 2 == 0 {
                e.send(me, right, m);
                e.recv(me, left);
            } else {
                e.recv(me, left);
                e.send(me, right, m);
            }
        }
    }
}

/// Rotation alltoall: round `k = 1..n`, send to `me+k`, receive from
/// `me−k` (`alltoall::linear_alltoall`).
fn lower_rotation_alltoall(e: &mut Emitter, n: usize, m: Bytes) {
    for i in 0..n {
        let me = Rank(i as u32);
        for k in 1..n {
            let dst = Rank(((i + k) % n) as u32);
            let src = Rank(((i + n - k) % n) as u32);
            e.send(me, dst, m);
            e.recv(me, src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn count_sends(l: &Lowered) -> usize {
        l.per_rank
            .iter()
            .flatten()
            .filter(|p| matches!(p, ScriptOp::Send { .. }))
            .count()
    }

    fn count_recvs(l: &Lowered) -> usize {
        l.per_rank
            .iter()
            .flatten()
            .filter(|p| matches!(p, ScriptOp::Recv { .. }))
            .count()
    }

    #[test]
    fn sends_and_receives_balance_per_pair() {
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 8, 1024, 2).unwrap();
            let choices = vec![None; t.ops.len()];
            let l = lower(&t, &choices);
            assert_eq!(count_sends(&l), count_recvs(&l), "{kind}");
            // Per (src, dst) pair the counts must match exactly.
            let mut balance = std::collections::HashMap::new();
            for (rank, prog) in l.per_rank.iter().enumerate() {
                for p in prog {
                    match *p {
                        ScriptOp::Send { dst, .. } => {
                            *balance.entry((rank, dst.idx())).or_insert(0i64) += 1
                        }
                        ScriptOp::Recv { src } => {
                            *balance.entry((src.idx(), rank)).or_insert(0i64) -= 1
                        }
                        _ => {}
                    }
                }
            }
            assert!(balance.values().all(|v| *v == 0), "{kind}: {balance:?}");
        }
    }

    #[test]
    fn op_primitives_are_contiguous_per_rank() {
        // The per-op observation windows in plan/replay rely on each
        // rank's primitives for one op forming a contiguous run.
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 6, 1024, 2).unwrap();
            let l = lower(&t, &vec![None; t.ops.len()]);
            for ops in &l.op_of {
                let mut last = None;
                let mut seen = std::collections::HashSet::new();
                for &op in ops {
                    if last != Some(op) {
                        assert!(seen.insert(op), "op {op} revisited");
                        last = Some(op);
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_scatter_carries_subtree_payloads() {
        let t = crate::trace::Trace {
            name: "s".into(),
            n: 8,
            ops: vec![crate::trace::TraceOp {
                id: 0,
                phase: "p".into(),
                kind: crate::trace::OpKind::Scatter {
                    root: Rank(0),
                    m: 100,
                },
            }],
        };
        let l = lower(&t, &[Some(Algorithm::Binomial)]);
        let root_sends: Vec<Bytes> = l.per_rank[0]
            .iter()
            .filter_map(|p| match *p {
                ScriptOp::Send { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        // Root of an 8-node binomial tree sends sub-trees of 4, 2, 1 blocks.
        assert_eq!(root_sends, vec![400, 200, 100]);
        assert_eq!(l.algorithms[0], Some(Algorithm::Binomial));
    }

    #[test]
    fn two_phase_bcast_structure() {
        let t = crate::trace::Trace {
            name: "b".into(),
            n: 8,
            ops: vec![crate::trace::TraceOp {
                id: 0,
                phase: "p".into(),
                kind: crate::trace::OpKind::Bcast {
                    root: Rank(0),
                    m: 64,
                },
            }],
        };
        let l = lower(&t, &[Some(Algorithm::TwoPhase { intra: 4 })]);
        assert_eq!(l.algorithms[0], Some(Algorithm::TwoPhase { intra: 4 }));
        // Every message is accounted for: n−1 receives in total.
        assert_eq!(count_sends(&l), 7);
        assert_eq!(count_recvs(&l), 7);
        // Root (leader of group 0) sends to the other leader then its own
        // group; rank 4 (leader of group 1) receives from the root and
        // serves ranks 5–7; non-leaders receive exactly once.
        let sends = |r: usize| {
            l.per_rank[r]
                .iter()
                .filter_map(|p| match *p {
                    ScriptOp::Send { dst, .. } => Some(dst.idx()),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sends(0), vec![4, 1, 2, 3]);
        assert_eq!(sends(4), vec![5, 6, 7]);
        for r in [1, 2, 3, 5, 6, 7] {
            assert!(sends(r).is_empty());
            assert_eq!(
                l.per_rank[r]
                    .iter()
                    .filter(|p| matches!(p, ScriptOp::Recv { .. }))
                    .count(),
                1
            );
        }
    }

    #[test]
    fn two_phase_reduce_balances_and_combines() {
        let t = crate::trace::Trace {
            name: "r".into(),
            n: 12,
            ops: vec![crate::trace::TraceOp {
                id: 0,
                phase: "p".into(),
                kind: crate::trace::OpKind::Reduce {
                    root: Rank(5), // non-leader rank: becomes its group's leader
                    m: 128,
                    gamma: 1e-9,
                },
            }],
        };
        let l = lower(&t, &[Some(Algorithm::TwoPhase { intra: 4 })]);
        assert_eq!(count_sends(&l), 11);
        assert_eq!(count_recvs(&l), 11);
        // The root combines once per received vector: 3 intra + 2 leaders.
        let root_combines = l.per_rank[5]
            .iter()
            .filter(|p| matches!(p, ScriptOp::Compute { .. }))
            .count();
        assert_eq!(root_combines, 5);
        // Rank 4 defers leadership of group 1 to the root and just sends.
        assert_eq!(l.per_rank[4].len(), 1);
        assert!(matches!(l.per_rank[4][0], ScriptOp::Send { dst, .. } if dst == Rank(5)));
    }

    #[test]
    fn alltoall_lowering_is_a_full_exchange() {
        let n = 5;
        let t = gen::moe_alltoall(n, 256, 1, 0.0);
        let l = lower(&t, &vec![None; t.ops.len()]);
        // Two alltoalls: every rank sends 2(n−1) messages.
        for prog in &l.per_rank {
            let sends = prog
                .iter()
                .filter(|p| matches!(p, ScriptOp::Send { .. }))
                .count();
            assert_eq!(sends, 2 * (n - 1));
        }
    }
}
