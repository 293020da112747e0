//! cpm-des — the unified discrete-event simulation engine.
//!
//! One scheduler core backs every event loop in the workspace: the
//! netsim kernel schedules through [`Engine`], and the vmpi runner's
//! script executor and the workload planner run on that kernel instead of
//! maintaining private `BinaryHeap`s. The pieces:
//!
//! * **Calendar queue** (Brown 1988) — O(1) amortized insert/extract on
//!   the banded timestamp distributions simulations produce, with
//!   self-monitoring and a `BinaryHeap` fallback for pathological
//!   spreads. Keys are any [`DesTime`]: `u64` ticks or
//!   [`cpm_core::Time`] (f64 seconds map order-preservingly onto ticks
//!   via their IEEE-754 bit patterns — no quantization).
//! * **Pooled payloads** — event payloads park in recycled slab slots,
//!   so the steady-state schedule/fire cycle allocates nothing; the
//!   pool's high-water mark is exported so benches can assert it.
//! * **Deterministic tie-breaking** — same-time events pop in
//!   insertion order. Replays are bit-identical by construction.
//! * **Seeded schedule fuzzing** — [`Engine::with_fuzz`] permutes
//!   same-time events deterministically per seed without touching time
//!   order, turning "does the answer depend on tie order?" into a
//!   property test.
//! * **Recording hook** — [`Engine::with_observer`] installs a callback
//!   that sees every fired event in pop order (the seam the netsim
//!   kernel uses for DES timeline capture). Observation never changes
//!   scheduling, and an engine without an observer pays one branch per
//!   pop.
//!
//! [`EngineStats`] exposes scheduled/fired counts, pool high water, and
//! calendar health so downstream crates can feed the unified metrics
//! registry (`cpm_des_events_total` and friends).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calendar;
mod engine;
mod key;
mod pool;

pub use engine::{Engine, EngineStats, PopObserver};
pub use key::DesTime;
