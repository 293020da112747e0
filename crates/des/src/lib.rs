//! cpm-des — the discrete-event engine.
//!
//! One scheduler backs every event loop in the workspace: the netsim
//! kernel schedules through [`Engine`], and the script executor, the
//! workload replay and the planner run on that kernel. The engine is one
//! `std::collections::BinaryHeap` and nothing else:
//!
//! * **One packed key.** An event's place in the order is the `u128`
//!   `(at.ticks() << 64) | tie`: time in the high half, the tie-break in
//!   the low half, one integer compare per heap step. Keys are any
//!   [`DesTime`]: `u64` ticks or [`cpm_core::Time`] (f64 seconds map
//!   order-preservingly onto ticks via their IEEE-754 bit patterns — no
//!   quantization).
//! * **Payload inline.** The heap's items carry `(time, event)`; there is
//!   no slot pool and no indirection. Once the heap's buffer has grown to
//!   the peak number of pending events the schedule/fire cycle allocates
//!   nothing; [`EngineStats::pool_slots`] reports that peak.
//! * **Deterministic tie-breaking.** `tie` is the insertion number, so
//!   same-time events pop in insertion order. Replays are bit-identical
//!   by construction.
//! * **Seeded schedule fuzzing.** Under [`Engine::with_fuzz`] `tie` is
//!   `splitmix64(insertion ^ seed)`. The finalizer is a bijection on
//!   `u64`, so distinct insertions still get distinct ties: the order
//!   stays total, time order is untouched, and same-time events are
//!   permuted deterministically per seed — "does the answer depend on tie
//!   order?" becomes a property test.
//!
//! # Why not a calendar queue
//!
//! The engine used to be a Brown calendar queue (buckets by
//! `ticks / width`) with a slot pool and a self-monitored `BinaryHeap`
//! fallback. A fixed bucket width cannot sit on f64-bit ticks: every
//! kernel run starts with `n` wakes at tick 0, the resizes triggered
//! while those are pushed sample a spread of zero and fix `width` at one
//! ulp, and from then on neighbouring event times are ~10¹² buckets
//! apart — every pop sweeps a whole "year", finds nothing, and falls back
//! to a direct search over all bucket fronts. Measured on the last commit
//! that had it: the 64-rank hierarchical `train` replay made 226 direct
//! searches in 1 578 pops and never reached the 4 096-pop window that
//! arms the fallback (neither does any ~100 µs estimation experiment);
//! the 1 000-rank `train` and 1 024-rank `halo` replays paid 630 and
//! 305 ns per pop until the window tripped and ended on the fallback
//! heap — 32-byte entries, a three-word compare and a pool indirection,
//! slower than the calendar on the one dense trace where the calendar
//! worked. One heap on one key costs about half as much stand-alone
//! (`des.schedule_pop_ns`, 64 pending: 39–42 ns before, 21–33 after) and,
//! alone, took the five-trace replay pass from 85 to 44 ms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod key;

pub use engine::{Engine, EngineStats};
pub use key::DesTime;
