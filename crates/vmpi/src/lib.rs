//! # cpm-vmpi
//!
//! An MPI-flavoured programming interface over the cluster simulator —
//! the layer the *closure* collectives of `cpm-collectives` are written
//! against, standing in for LAM/MPICH on the paper's cluster. The
//! communication experiments of the estimation procedure and the drift
//! probes no longer are: they generate [`ScriptOp`] programs
//! ([`TimedScript`]) and run threadless; [`run`] and [`Comm`] remain for
//! the closure collectives and as the oracle of the differential tests
//! until those move to lowered programs too (ROADMAP items 1–2).
//!
//! * [`comm`] — the communicator handle: point-to-point operations,
//!   `wtime`, barrier, plus the *timing harness* that measures one
//!   operation repeatedly with barrier synchronization (sender-side timing,
//!   the method the paper's Section IV recommends for small groups).
//! * [`runner`] — convenience entry points for SPMD closures on rank
//!   threads, and for timed collectives in which only a subset of ranks
//!   communicates while the rest idle through the barriers.
//! * [`probe`] — receiver-side one-way transfer probes, the observation
//!   channel the drift monitor consumes (a scripted program, no threads).
//! * [`timing`] — the MPIBlib timing methods (root / max / global) and
//!   their trade-offs.

#![warn(missing_docs)]

pub mod comm;
pub mod probe;
pub mod runner;
pub mod timing;

pub use comm::Comm;
/// Scripted rank programs: the kernel's threadless fast path, under the
/// names the MPI-flavoured layer gives it.
pub use cpm_netsim::{run_script as run_program, run_script_traced as run_program_traced};
pub use cpm_netsim::{DesEventCounts, ScriptOp, ScriptOutcome, TimedScript, Trace};
pub use probe::one_way_times;
pub use runner::{run, run_timed, run_timed_max, RunOutput};
pub use timing::{measure_with_method, TimingMethod};
