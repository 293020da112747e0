//! # cpm-vmpi
//!
//! An MPI-flavoured programming interface over the cluster simulator —
//! the layer the collectives and the communication experiments are written
//! against, standing in for LAM/MPICH on the paper's cluster.
//!
//! * [`comm`] — the communicator handle: point-to-point operations,
//!   `wtime`, barrier, plus the *timing harness* that measures one
//!   operation repeatedly with barrier synchronization (sender-side timing,
//!   the method the paper's Section IV recommends for small groups).
//! * [`runner`] — convenience entry points for SPMD programs and for
//!   experiments that involve only a subset of ranks while the rest idle.
//! * [`probe`] — receiver-side one-way transfer probes, the observation
//!   channel the drift monitor consumes.
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
pub use cpm_netsim::{DesEventCounts, ScriptOp, ScriptOutcome, Trace};
pub use probe::one_way_times;
pub use runner::{run, run_timed, run_timed_max, RunOutput};
pub use timing::{measure_with_method, TimingMethod};
