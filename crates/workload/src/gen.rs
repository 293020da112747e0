//! Generators for the canonical workloads.
//!
//! Each generator emits a [`Trace`] whose per-rank projection is
//! deadlock-free under the simulator's buffered sends (a blocking send
//! returns when the sender's tx engine finishes; it never waits for the
//! matching receive to be posted).

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;

use crate::trace::{OpKind, Trace, TraceOp};

/// Emission helper: sequential ids, one phase at a time.
struct Builder {
    ops: Vec<TraceOp>,
}

impl Builder {
    fn new() -> Self {
        Builder { ops: Vec::new() }
    }

    fn push(&mut self, phase: &str, kind: OpKind) {
        self.ops.push(TraceOp {
            id: self.ops.len() as u64,
            phase: phase.to_string(),
            kind,
        });
    }

    fn finish(self, name: &str, n: usize) -> Trace {
        let trace = Trace {
            name: name.to_string(),
            n,
            ops: self.ops,
        };
        debug_assert!(trace.validate().is_ok());
        trace
    }
}

fn all_ranks(n: usize) -> Vec<Rank> {
    (0..n as u32).map(Rank).collect()
}

/// Data-parallel training step: per layer, local compute followed by an
/// allreduce of the layer's gradient, expressed the way paper-era MPI
/// applications spelled it — a reduce to rank 0 followed by a broadcast.
pub fn training_step(n: usize, m: Bytes, layers: usize, gamma: f64, compute_secs: f64) -> Trace {
    let mut b = Builder::new();
    for layer in 0..layers.max(1) {
        let phase = format!("layer{layer}");
        if compute_secs > 0.0 {
            b.push(
                &phase,
                OpKind::Compute {
                    ranks: all_ranks(n),
                    seconds: compute_secs,
                },
            );
        }
        b.push(
            &phase,
            OpKind::Reduce {
                root: Rank(0),
                m,
                gamma,
            },
        );
        b.push(&phase, OpKind::Bcast { root: Rank(0), m });
    }
    b.finish("train", n)
}

/// Pipeline-parallel chain: `micro_batches` activations flow through the
/// `n`-stage pipeline rank 0 → 1 → … → n−1, with `stage_secs` of compute
/// at each stage. Ops are emitted batch-major, so each rank's projection
/// interleaves receive/compute/forward across micro-batches and the
/// pipeline actually fills: stage `s` can work on batch `b+1` while batch
/// `b` is still in flight downstream.
pub fn pipeline(n: usize, m: Bytes, micro_batches: usize, stage_secs: f64) -> Trace {
    let mut b = Builder::new();
    for batch in 0..micro_batches.max(1) {
        let phase = format!("micro{batch}");
        if stage_secs > 0.0 {
            b.push(
                &phase,
                OpKind::Compute {
                    ranks: vec![Rank(0)],
                    seconds: stage_secs,
                },
            );
        }
        for stage in 0..n - 1 {
            b.push(
                &phase,
                OpKind::P2p {
                    src: Rank(stage as u32),
                    dst: Rank(stage as u32 + 1),
                    m,
                },
            );
            if stage_secs > 0.0 {
                b.push(
                    &phase,
                    OpKind::Compute {
                        ranks: vec![Rank(stage as u32 + 1)],
                        seconds: stage_secs,
                    },
                );
            }
        }
    }
    b.finish("pipeline", n)
}

/// MoE-style layer: alltoall dispatch to experts, expert compute, alltoall
/// combine, repeated `layers` times.
pub fn moe_alltoall(n: usize, m: Bytes, layers: usize, expert_secs: f64) -> Trace {
    let mut b = Builder::new();
    for layer in 0..layers.max(1) {
        let phase = format!("moe{layer}");
        b.push(&phase, OpKind::Alltoall { m });
        if expert_secs > 0.0 {
            b.push(
                &phase,
                OpKind::Compute {
                    ranks: all_ranks(n),
                    seconds: expert_secs,
                },
            );
        }
        b.push(&phase, OpKind::Alltoall { m });
    }
    b.finish("moe", n)
}

/// 2-D halo exchange on a non-periodic `rows × cols` grid (rank = row ·
/// cols + col): per iteration, local compute then four directional
/// sweeps. Within each sweep the ops are emitted so every rank's send
/// precedes its matching receive in its own program (east sweeps emit in
/// descending column order, and so on) — the exchanges of a sweep overlap
/// instead of degenerating into a serial wave.
pub fn halo2d(rows: usize, cols: usize, m: Bytes, iters: usize, compute_secs: f64) -> Trace {
    assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
    let n = rows * cols;
    let at = |r: usize, c: usize| Rank((r * cols + c) as u32);
    let mut b = Builder::new();
    for iter in 0..iters.max(1) {
        let phase = format!("iter{iter}");
        if compute_secs > 0.0 {
            b.push(
                &phase,
                OpKind::Compute {
                    ranks: all_ranks(n),
                    seconds: compute_secs,
                },
            );
        }
        // East: (r,c) → (r,c+1), descending c so senders send first.
        for c in (0..cols.saturating_sub(1)).rev() {
            for r in 0..rows {
                b.push(
                    &phase,
                    OpKind::P2p {
                        src: at(r, c),
                        dst: at(r, c + 1),
                        m,
                    },
                );
            }
        }
        // West: (r,c) → (r,c−1), ascending c.
        for c in 1..cols {
            for r in 0..rows {
                b.push(
                    &phase,
                    OpKind::P2p {
                        src: at(r, c),
                        dst: at(r, c - 1),
                        m,
                    },
                );
            }
        }
        // South: (r,c) → (r+1,c), descending r.
        for r in (0..rows.saturating_sub(1)).rev() {
            for c in 0..cols {
                b.push(
                    &phase,
                    OpKind::P2p {
                        src: at(r, c),
                        dst: at(r + 1, c),
                        m,
                    },
                );
            }
        }
        // North: (r,c) → (r−1,c), ascending r.
        for r in 1..rows {
            for c in 0..cols {
                b.push(
                    &phase,
                    OpKind::P2p {
                        src: at(r, c),
                        dst: at(r - 1, c),
                        m,
                    },
                );
            }
        }
    }
    b.finish("halo2d", n)
}

/// Near-square factorization of `n` for the halo grid: the largest
/// divisor of `n` not exceeding `√n`, paired with its cofactor.
pub fn halo_grid(n: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows, n / rows)
}

/// Generates the named canonical workload (`train`, `pipeline`, `moe`,
/// `halo`) with `iters` layers/micro-batches/iterations.
pub fn canonical(kind: &str, n: usize, m: Bytes, iters: usize) -> Option<Trace> {
    match kind {
        "train" => Some(training_step(n, m, iters, 4e-9, 1e-3)),
        "pipeline" => Some(pipeline(n, m, iters, 5e-4)),
        "moe" => Some(moe_alltoall(n, m, iters, 1e-3)),
        "halo" => {
            let (rows, cols) = halo_grid(n);
            Some(halo2d(rows, cols, m, iters, 5e-4))
        }
        _ => None,
    }
}

/// The canonical workload names accepted by [`canonical`].
pub const CANONICAL_KINDS: &[&str] = &["train", "pipeline", "moe", "halo"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpKind;

    #[test]
    fn generators_emit_valid_traces() {
        for kind in CANONICAL_KINDS {
            let t = canonical(kind, 8, 4096, 3).unwrap();
            t.validate().unwrap();
            assert_eq!(t.n, 8);
            assert!(!t.ops.is_empty(), "{kind} generated no ops");
        }
        assert!(canonical("nope", 8, 4096, 3).is_none());
    }

    #[test]
    fn training_step_is_reduce_plus_bcast_per_layer() {
        let t = training_step(4, 1024, 3, 4e-9, 1e-3);
        let reduces = t
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Reduce { .. }))
            .count();
        let bcasts = t
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Bcast { .. }))
            .count();
        assert_eq!((reduces, bcasts), (3, 3));
        assert_eq!(t.phase_index().0.len(), 3);
    }

    #[test]
    fn halo_grid_is_a_near_square_factorization() {
        assert_eq!(halo_grid(16), (4, 4));
        assert_eq!(halo_grid(8), (2, 4));
        assert_eq!(halo_grid(6), (2, 3));
        assert_eq!(halo_grid(7), (1, 7));
    }

    #[test]
    fn halo_sends_precede_matching_receives_per_rank() {
        // In every rank's projection, the send of each directional sweep
        // must appear before the receive that sweep delivers to the same
        // rank — otherwise the sweep serializes into a wave.
        let t = halo2d(2, 4, 1024, 1, 0.0);
        // Rank 1 (row 0, col 1) sends east to 2 and receives east-sweep
        // data from 0. Find positions in rank 1's projection.
        let mut send_pos = None;
        let mut recv_pos = None;
        for (pos, op) in t.ops.iter().enumerate() {
            if let OpKind::P2p { src, dst, .. } = op.kind {
                if src == Rank(1) && dst == Rank(2) && send_pos.is_none() {
                    send_pos = Some(pos);
                }
                if src == Rank(0) && dst == Rank(1) && recv_pos.is_none() {
                    recv_pos = Some(pos);
                }
            }
        }
        assert!(send_pos.unwrap() < recv_pos.unwrap());
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let t = pipeline(4, 2048, 3, 1e-4);
        for (i, op) in t.ops.iter().enumerate() {
            assert_eq!(op.id, i as u64);
        }
    }
}
