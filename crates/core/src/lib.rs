//! # cpm-core
//!
//! Foundational types shared by every crate in the `cpm` workspace, the
//! reproduction of *"Revisiting communication performance models for
//! computational clusters"* (Lastovetsky, Rychkov, O'Flynn; IPDPS 2009).
//!
//! The crate deliberately contains no model logic and no simulation logic —
//! only the vocabulary both sides speak:
//!
//! * [`time`] — virtual time in seconds with a total order usable in event
//!   queues ([`time::Time`]).
//! * [`units`] — message sizes in bytes and helpers such as [`units::KIB`].
//! * [`rank`] — process identities ([`rank::Rank`]) and enumeration of the
//!   pairs and triplets used by communication experiments.
//! * [`matrix`] — [`matrix::SymMatrix`], the symmetric per-link parameter
//!   store (`β_ij = β_ji` on a single switch).
//! * [`tree`] — binomial communication trees for scatter/gather (paper
//!   Fig. 2), including non-power-of-two generalization.
//! * [`traits`] — the [`traits::PointToPoint`] abstraction every
//!   performance model implements.
//! * [`sweep`] — message-size sweeps used by the figures of the evaluation
//!   section.
//! * [`canon`] — the canonical content hash behind cluster fingerprints
//!   and workload-trace hashes.

pub mod canon;
pub mod error;
pub mod matrix;
pub mod rank;
pub mod sweep;
pub mod time;
pub mod traits;
pub mod tree;
pub mod units;

pub use canon::{canonical_hash, CanonHasher};
pub use error::CpmError;
pub use matrix::SymMatrix;
pub use rank::{pairs, triplets, Rank};
pub use time::Time;
pub use traits::PointToPoint;
pub use tree::BinomialTree;
pub use units::{Bytes, KIB, MIB};
