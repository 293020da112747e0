//! Lowering: from trace ops to per-rank primitive programs.
//!
//! Every trace op expands into [`ScriptOp`]s appended to each participating
//! rank's program. The collective algorithms are **not written here**:
//! each is one function in `cpm-collectives` that emits its program into a
//! sink, the same function the observation harness times (a rooted one
//! through `cpm_collectives::cost::emit_rooted`, as the model's machine
//! does), and [`lower`] is the sink that appends to the rank's program and
//! records which trace op the primitive implements. The programs are in the script kernel's own
//! vocabulary, so [`mod@crate::plan`] and [`mod@crate::replay`] hand
//! [`Lowered::per_rank`] to the kernel as it is: one description per
//! algorithm, one lowering, one machine. Only blocking primitives are
//! emitted — no collective a trace can name uses `Isend`/`WaitSend`.

use cpm_collectives::cost::emit_rooted;
use cpm_collectives::{ring_allgather, rotation_alltoall};
use cpm_core::rank::Rank;
use cpm_vmpi::ScriptOp;

use crate::trace::{OpKind, Trace};

/// The algorithm a collective op was lowered with.
pub use cpm_collectives::Algorithm;

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

/// Lowers `trace` with the per-op algorithm `choices` (as produced by
/// [`crate::plan::choose`]; `None` entries fall back to the linear
/// algorithm). The trace must validate.
pub fn lower(trace: &Trace, choices: &[Option<Algorithm>]) -> Lowered {
    let n = trace.n;
    let mut per_rank: Vec<Vec<ScriptOp>> = vec![Vec::new(); n];
    let mut op_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut algorithms = vec![None; trace.ops.len()];
    for (idx, op) in trace.ops.iter().enumerate() {
        let mut emit = |rank: Rank, prim: ScriptOp| {
            per_rank[rank.idx()].push(prim);
            op_of[rank.idx()].push(idx);
        };
        if let Some(rooted) = op.kind.rooted() {
            let choice = choices.get(idx).copied().flatten();
            let alg = choice.unwrap_or(Algorithm::Linear);
            algorithms[idx] = Some(emit_rooted(n, rooted, alg, emit));
            continue;
        }
        algorithms[idx] = match &op.kind {
            OpKind::P2p { src, dst, m } => {
                emit(*src, ScriptOp::send(*dst, *m));
                emit(*dst, ScriptOp::recv(*src));
                None
            }
            OpKind::Allgather { m } => {
                ring_allgather(n, *m, emit);
                Some(Algorithm::Ring)
            }
            OpKind::Alltoall { m } => {
                rotation_alltoall(n, *m, emit);
                Some(Algorithm::Rotation)
            }
            OpKind::Compute { ranks, seconds } => {
                for r in ranks {
                    emit(*r, ScriptOp::Compute { secs: *seconds });
                }
                None
            }
            OpKind::Barrier => {
                for r in 0..n as u32 {
                    emit(Rank(r), ScriptOp::Barrier);
                }
                None
            }
            OpKind::Scatter { .. }
            | OpKind::Gather { .. }
            | OpKind::Bcast { .. }
            | OpKind::Reduce { .. } => unreachable!("rooted ops are emitted above"),
        };
    }
    Lowered {
        n,
        per_rank,
        op_of,
        algorithms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use cpm_core::units::Bytes;

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

    /// The upward binomial flow is told its payload; it used to infer
    /// "reduce" from a positive combine, so a `gamma = 0` reduce — which
    /// `Trace::validate` accepts — was lowered as a binomial *gather*
    /// (sub-tree-sized sends).
    #[test]
    fn a_free_combine_reduce_is_not_a_gather() {
        for n in [2usize, 5, 8, 16] {
            for root in [0, n - 1, n / 2] {
                let t = crate::trace::Trace {
                    name: "r".into(),
                    n,
                    ops: vec![crate::trace::TraceOp {
                        id: 0,
                        phase: "p".into(),
                        kind: crate::trace::OpKind::Reduce {
                            root: Rank::from(root),
                            m: 1024,
                            gamma: 0.0,
                        },
                    }],
                };
                t.validate().expect("a free combine is a valid reduce");
                let l = lower(&t, &[Some(Algorithm::Binomial)]);
                let sends: Vec<Bytes> = l
                    .per_rank
                    .iter()
                    .flatten()
                    .filter_map(|p| match *p {
                        ScriptOp::Send { bytes, .. } => Some(bytes),
                        _ => None,
                    })
                    .collect();
                assert_eq!(sends, vec![1024; n - 1], "n={n} root={root}");
                assert_eq!(count_recvs(&l), n - 1);
                // The free combine is not issued.
                assert_eq!(l.per_rank.iter().map(Vec::len).sum::<usize>(), 2 * (n - 1));
            }
        }
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
