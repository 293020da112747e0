//! # cpm-collectives
//!
//! Collective communication algorithms, each written **once**, as the
//! per-rank [`ScriptOp`] program it is: an algorithm is a function that
//! hands `(rank, op)` pairs to a [`Sink`]. The simulator's one machine runs
//! those programs, so execution times *emerge* from the communication
//! pattern rather than from a formula; `cpm-workload` lowers application
//! traces through the same functions, and the observation harness
//! ([`measure`]) times them between barriers. What a collective *costs*
//! under a model is one function, [`cost::cost`]: the program run on the
//! model's machine for LMO, the model's own closed form for the
//! whole-transfer models; the closed forms that remain beside the programs
//! are tested corollaries of them (`tests/corollaries.rs`). Plus
//! model-driven optimization:
//!
//! * [`scatter`] — the linear (flat-tree) and binomial algorithms;
//! * [`gather`] — the linear and binomial algorithms;
//! * [`bcast`] — linear and binomial broadcast (the "any collective"
//!   claim exercised on a third operation);
//! * [`alltoall`] — the pairwise-rotation exchange, the heaviest regular
//!   pattern;
//! * [`allgather`] — the ring algorithm, a perfect matching per step,
//!   blocking and overlapped (`MPI_Sendrecv`);
//! * [`reduce`] — linear and binomial reduce, the first collective with a
//!   computation term the network-only models cannot express;
//! * [`scatterv`] — variable-block scatter/gather plus model-driven
//!   heterogeneous data partitioning (equalize every receiver's tail);
//! * [`optimized`] — the LMO-based optimized gather of the paper's Fig. 7:
//!   medium messages are split into sub-`M1` pieces gathered in series,
//!   dodging the escalation region (the paper gained ~10×);
//! * [`cost`] — the one cost of a rooted collective under a model and the
//!   chooser that ranks algorithms by it, shared by the service, the
//!   workload planner, [`TunedCollectives`] and the CLI;
//! * [`select`] — the paper's Fig. 6 closed forms: linear vs binomial
//!   scatter under LMO, and the switch point between them;
//! * [`mapping`] — heterogeneous mapping of processors onto binomial-tree
//!   positions, the Hatta-style optimization the introduction motivates;
//! * [`tuned`] — [`TunedCollectives`], the model-backed dispatcher a
//!   downstream application uses: estimate once, then every collective
//!   call picks its algorithm from the model (the paper's companion
//!   software tool \[13\]);
//! * [`hier`] — level-aware two-phase collectives for hierarchical
//!   clusters (binomial over node leaders, linear inside each node);
//! * [`measure`] — the observation harness: barrier-synchronized
//!   repetitions, completion sensed as the maximum over ranks.

#![warn(missing_docs)]

use cpm_core::rank::Rank;
use cpm_netsim::ScriptOp;

pub mod allgather;
pub mod alltoall;
pub mod bcast;
pub mod cost;
pub mod gather;
pub mod hier;
pub mod mapping;
pub mod measure;
pub mod optimized;
pub mod reduce;
pub mod scatter;
pub mod scatterv;
pub mod select;
pub mod tuned;

pub use allgather::{ring_allgather, ring_allgather_overlap};
pub use alltoall::rotation_alltoall;
pub use bcast::{binomial_bcast, linear_bcast};
pub use gather::{binomial_gather, linear_gather};
pub use hier::{two_phase_allreduce, two_phase_bcast, two_phase_reduce};
pub use optimized::optimized_gather;
pub use reduce::{binomial_reduce, linear_reduce};
pub use scatter::{binomial_scatter, linear_scatter};
pub use scatterv::{balanced_partition, linear_gatherv, linear_scatterv};
pub use tuned::TunedCollectives;

/// Where an algorithm puts its ops: `emit(rank, op)` appends `op` to
/// `rank`'s program. Any such closure is a sink — the workload lowering
/// pushes onto per-rank vectors and tags the trace op, the observation
/// harness feeds a [`cpm_netsim::TimedScript`]. Ranks may interleave
/// freely; only each rank's own order matters.
pub trait Sink: FnMut(Rank, ScriptOp) {}
impl<F: FnMut(Rank, ScriptOp)> Sink for F {}

/// A collective algorithm — the one enum below the wire: what a model
/// selects, what a plan records per op, what a trace is lowered with.
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
