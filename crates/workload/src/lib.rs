//! # cpm-workload — trace-driven application workloads
//!
//! The paper's payoff is that accurate per-collective LMO predictions
//! enable correct algorithm selection; real users care about the makespan
//! of whole communication *schedules* — a data-parallel training step, a
//! pipeline of micro-batches, a halo exchange — not a single collective.
//! This crate treats a communication schedule as the unit of prediction,
//! with three halves that must agree:
//!
//! * [`trace`] — the workload IR: a JSON-lines trace of communication ops
//!   (p2p, scatter/gather/bcast/reduce, ring allgather, rotation alltoall,
//!   compute, barrier) with per-rank dependencies implied by per-rank
//!   program order, plus a stable 128-bit trace hash.
//! * [`gen`] — generators for the canonical workloads: training step
//!   (reduce+bcast allreduce per layer), pipeline-parallel p2p chain,
//!   MoE-style alltoall, 2-D halo exchange.
//! * [`mod@plan`] — the analytic engine: lowers a trace into per-rank
//!   primitive programs (the per-rank dependency DAG) and predicts the
//!   end-to-end makespan by running them through the [`cpm_netsim`]
//!   script kernel on a cluster built from each model's parameters
//!   (extended LMO vs Hockney/LogGP/PLogP), emitting per-op algorithm
//!   choices, a per-phase breakdown and the critical path.
//! * [`mod@replay`] — the execution engine: runs the *same* lowered
//!   programs through the same kernel on the cluster's ground truth, so
//!   the observed makespan emerges from the simulator, then reports
//!   predicted-vs-observed residuals per op (feedable into `cpm-drift`
//!   observations).
//!
//! There is one lowering ([`mod@lower`]; the collective algorithms it
//! emits are `cpm-collectives`' own, each written once) and one machine, so
//! under the
//! extended LMO model — whose parameters name every resource the
//! simulator charges (tx engine, link, rx engine) — a plan on the
//! cluster's own parameters *is* the replay, bit for bit, outside the
//! simulator's injected-irregularity regions; elsewhere the difference is
//! parameter error. The homogeneous models, which "cannot separate the
//! contributions of the processors and the network", are evaluated with
//! whole-transfer sender occupancy and no receive-side resource: exactly
//! the modelling gap the paper describes, surfaced at application level.

#![warn(missing_docs)]

pub mod gen;
pub mod lower;
pub mod plan;
pub mod replay;
pub mod trace;

pub use lower::{lower, Algorithm, Lowered};
pub use plan::{
    choose, plan, plan_profiled, CpStep, CriticalPath, ModelKind, ModelSet, OpReport, PhaseReport,
    Plan, PlanModel, PlanProfile, Term,
};
pub use replay::{
    compare, replay, replay_traced, truth_choices, CompareReport, OpResidual, P2pObservation,
    ReplayOp, ReplayReport,
};
pub use trace::{OpKind, Trace, TraceOp, WorkloadError};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, WorkloadError>;
