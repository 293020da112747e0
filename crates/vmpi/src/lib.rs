//! # cpm-vmpi
//!
//! An MPI-flavoured programming interface over the cluster simulator.
//! Nothing the workspace measures, estimates, plans or replays runs on it
//! any more: collectives, communication experiments and probes are
//! [`ScriptOp`] programs ([`TimedScript`]) run threadless by the one
//! machine. [`run`], [`Comm`] and [`RunOutput`] — closures on one OS thread
//! per rank, over `cpm_netsim::Proc` — remain for exactly two callers: the
//! `vmpi.run_overhead_us` row of `benchmark/src/micro.rs`, and the
//! differential tests that keep the old closure bodies as the oracle the
//! scripted programs must match to the bit
//! (`crates/collectives/tests/lowered_vs_closure.rs`,
//! `crates/estimate/tests/scripted_vs_threaded.rs`, [`probe`]'s unit test).
//! They go with the next benchmark-typed PR (ROADMAP item 1).
//!
//! * [`comm`] — the communicator handle: point-to-point operations,
//!   `wtime`, barrier, and `timed_reps`, the barrier-separated repetition
//!   loop the oracles time with.
//! * [`runner`] — [`run`]: one SPMD closure on rank threads.
//! * [`probe`] — receiver-side one-way transfer probes, the observation
//!   channel the drift monitor consumes (a scripted program, no threads).

#![warn(missing_docs)]

pub mod comm;
pub mod probe;
pub mod runner;

pub use comm::Comm;
/// Scripted rank programs: the kernel's threadless fast path, under the
/// names the MPI-flavoured layer gives it.
pub use cpm_netsim::{run_script as run_program, run_script_traced as run_program_traced};
pub use cpm_netsim::{DesEventCounts, ScriptOp, ScriptOutcome, TimedScript, Trace};
pub use probe::one_way_times;
pub use runner::{run, RunOutput};
