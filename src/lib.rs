//! # cpm — communication performance models for switched clusters
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"Revisiting communication performance models for computational
//! clusters"* (Lastovetsky, Rychkov, O'Flynn; IPDPS 2009).
//!
//! The workspace builds, from scratch, everything the paper's evaluation
//! needs:
//!
//! * [`core`] — shared vocabulary: time, ranks, symmetric link matrices,
//!   binomial communication trees.
//! * [`cluster`] — the paper's 16-node heterogeneous cluster (Table I),
//!   ground-truth parameter synthesis and MPI implementation profiles.
//! * [`netsim`] — a deterministic discrete-event simulator of a
//!   single-switch cluster, including the TCP-layer irregularities the paper
//!   observed (incast escalations, the 64 KB scatter leap, serialized
//!   large-message reception).
//! * [`vmpi`] — an MPI-like closure API over the simulator, kept as the
//!   differential tests' oracle; everything measured is a scripted program.
//! * [`models`] — Hockney, LogP, LogGP, PLogP and LMO (original and
//!   extended) with the collective predictions of Table II.
//! * [`estimate`] — the communication experiments and linear systems that
//!   estimate every model's parameters (paper Section IV).
//! * [`collectives`] — every collective algorithm, written once as the
//!   per-rank program the simulator runs; the LMO-optimized gather, and
//!   model-based algorithm selection.
//! * [`stats`] — MPIBlib-style adaptive benchmarking statistics.
//! * [`serve`] — a concurrent prediction service: fingerprinted parameter
//!   registry, estimate-once caching, JSON-lines TCP server.
//! * [`drift`] — online drift detection over served parameters: residual
//!   monitoring, staleness scoring, minimal re-estimation, republication.
//! * [`reactor`] — the epoll event-loop serving engine and framed-wire
//!   client connection pool both `serve` and `fleet` build on.
//! * [`obs`] — structured tracing, the flight recorder, and the unified
//!   metrics registry behind every `stats` exposition.
//! * [`fleet`] — the multi-node tier: consistent-hash sharding of tenants
//!   over replicated `serve` nodes, leader-driven parameter replication,
//!   and a router front-end with failover and stale reads.
//! * [`workload`] — trace-driven application workloads: canonical trace
//!   generators, critical-path makespan prediction under each model, and
//!   DES replay with per-op residuals.
//! * [`bench_harness`] — the experiment harness regenerating each figure/table.
//!
//! ## Quickstart
//!
//! ```
//! use cpm::cluster::ClusterConfig;
//! use cpm::collectives::measure;
//! use cpm::core::units::KIB;
//! use cpm::core::Rank;
//! use cpm::netsim::SimCluster;
//!
//! // The paper's 16-node heterogeneous cluster under LAM 7.1.3.
//! let sim = SimCluster::from_config(&ClusterConfig::paper_lam(42));
//!
//! // Observe a 16-process linear scatter of 16 KB blocks.
//! let t = measure::linear_scatter_once(&sim, Rank(0), 16 * KIB);
//! assert!(t > 0.0);
//! ```

pub use cpm_cluster as cluster;
pub use cpm_collectives as collectives;
pub use cpm_core as core;
pub use cpm_drift as drift;
pub use cpm_estimate as estimate;
pub use cpm_fleet as fleet;
pub use cpm_models as models;
pub use cpm_netsim as netsim;
pub use cpm_obs as obs;
pub use cpm_reactor as reactor;
pub use cpm_serve as serve;
pub use cpm_stats as stats;
pub use cpm_vmpi as vmpi;
pub use cpm_workload as workload;

pub use cpm_bench as bench_harness;
