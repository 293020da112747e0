//! # cpm-netsim
//!
//! A deterministic discrete-event simulator of a heterogeneous cluster built
//! around a single network switch — the substrate standing in for the
//! paper's real 16-node Ethernet cluster.
//!
//! ## What is modelled
//!
//! Each node owns two serially-reusable engines that correspond one-to-one
//! to the processor contributions of the extended LMO model:
//!
//! * a **tx engine** — posting a send occupies the sender's CPU for
//!   `C_i + M·t_i` (plus the LAM 64 KB leap stall when the profile enables
//!   it); consecutive sends from one node serialize here, which is exactly
//!   the `(n-1)(C_r + M·t_r)` serial term of linear scatter;
//! * an **rx engine** — every arriving message occupies the receiver's CPU
//!   for `C_j + M·t_j`, serializing many-to-one reception the way the
//!   `(n-1)(C_r + M·t_r)` term of linear gather does.
//!
//! The switch fabric forwards flows to *different* destinations in parallel
//! (paper: "network switches … parallelize the messages addressed to
//! different processors"). A flow from `i` to `j` costs `L_ij + M/β_ij`.
//! Three TCP-layer irregularities are injected mechanically, controlled by
//! the [`cpm_cluster::MpiProfile`]:
//!
//! * **incast escalations** — a medium-size (`M1 < M < M2`) inbound transfer
//!   that overlaps another inbound transfer at the same receiver suffers,
//!   with a size-dependent probability, a delay drawn from the profile's
//!   escalation range (the paper observed escalations up to 0.25 s);
//! * **serialized reception of large messages** (`M ≥ M2`) — the receiver's
//!   ingress port becomes a FIFO resource and the *sender blocks* until its
//!   transfer completes, reproducing TCP backpressure (the paper's "sending
//!   of large messages to one destination is serialized");
//! * the **64 KB scatter leap** — a sender stall repeating per 64 KB segment
//!   under LAM-like profiles.
//!
//! ## Programming model
//!
//! Everything the workspace runs is a *scripted* rank program: a
//! straight-line [`ScriptOp`] sequence per rank interpreted inside the
//! kernel's event loop ([`mod@script`], [`run_script`]). The original form —
//! ordinary Rust closures on dedicated OS threads, scheduled *one at a
//! time* by the kernel in virtual-time order through the [`proc::Proc`]
//! handle (`send`, `recv`, `now`, `compute`, `barrier`) — has identical
//! event semantics and is kept as the scripted programs' test oracle.
//! Either way a simulation is deterministic for a given seed regardless of
//! host scheduling.
//!
//! ```
//! use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
//! use cpm_core::Rank;
//! use cpm_netsim::{simulate, SimCluster};
//!
//! let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(2), 1);
//! let sim = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1);
//! let out = simulate(&sim, |p| {
//!     if p.rank() == Rank(0) {
//!         p.send(Rank(1), 4096);
//!         let t0 = p.now();
//!         let _ = p.recv(Rank(1));
//!         p.now() - t0
//!     } else {
//!         let _ = p.recv(Rank(0));
//!         p.send(Rank(0), 4096);
//!         0.0
//!     }
//! })
//! .unwrap();
//! assert!(out.results[0] > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod event;
pub mod kernel;
pub mod msg;
pub mod noise;
pub mod pairs;
pub mod proc;
pub mod script;
pub mod trace;

pub use cluster::{clamp, SimCluster, MAX_DURATION};
pub use event::DesEventCounts;
pub use kernel::{simulate, simulate_mpmd, simulate_traced, SimOutcome, SimStats};
pub use msg::{MsgView, Tag};
pub use noise::{DriftChange, DriftSchedule, DriftShape, DriftTarget};
pub use pairs::PairTable;
pub use proc::{Proc, RecvRequest, SendRequest};
pub use script::{run_script, run_script_traced, ScriptOp, ScriptOutcome, TimedScript};
pub use trace::{render_timeline, Trace, TraceEvent};
