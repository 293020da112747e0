//! The engine facade: pooled payloads, the calendar queue with its heap
//! fallback, and deterministic (optionally fuzzed) tie-breaking, with
//! counters downstream crates export through the metrics registry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::calendar::{Calendar, Entry};
use crate::key::DesTime;
use crate::pool::Pool;

/// How many pops to observe between fallback-decision checkpoints.
const FALLBACK_WINDOW: u64 = 4096;
/// Mean buckets scanned per pop above which the calendar has lost its
/// O(1) behaviour and the heap takes over.
const FALLBACK_SCAN_LIMIT: f64 = 24.0;

/// Counters describing an engine's life so far. Snapshot via
/// [`Engine::stats`]; downstream crates fold these into
/// `cpm_des_events_total` and friends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped (fired).
    pub fired: u64,
    /// Maximum number of simultaneously pending events — also the exact
    /// number of payload slots allocated, since slots are pooled.
    pub pool_slots: usize,
    /// Calendar sweeps that missed a whole year and fell back to a
    /// direct min-search across bucket fronts.
    pub direct_searches: u64,
    /// Calendar bucket-array rebuilds.
    pub resizes: u64,
    /// Whether the engine abandoned the calendar for the binary heap.
    pub heap_fallback: bool,
}

enum Sched {
    Calendar(Calendar),
    Heap(BinaryHeap<Reverse<Entry>>),
}

/// A recording hook invoked on every fired event (see
/// [`Engine::set_observer`]).
pub type PopObserver<K, E> = Box<dyn FnMut(&K, &E)>;

/// A discrete-event scheduler: schedule `(time, payload)` pairs, pop
/// them back in deterministic `(time, fuzz, insertion)` order.
///
/// Payloads live in a slot pool, so the steady-state schedule/pop cycle
/// allocates nothing. The queue is a calendar queue that self-monitors
/// and migrates to a `BinaryHeap` if the timestamp distribution turns
/// pathological — ordering is identical either way.
///
/// # Determinism
///
/// Same schedule calls in the same order always pop in the same order.
/// Events at equal times pop in insertion order. [`Engine::with_fuzz`]
/// inserts a seeded hash *before* the insertion number, deterministically
/// permuting same-time events per seed while leaving time order
/// untouched — an order-dependence detector.
pub struct Engine<K: DesTime, E> {
    pool: Pool<(K, E)>,
    sched: Sched,
    seq: u64,
    fuzz_seed: Option<u64>,
    scheduled: u64,
    fired: u64,
    // Scan-cost window at the last fallback checkpoint.
    last_pops: u64,
    last_scanned: u64,
    /// Recording hook called on every pop, after ordering is resolved
    /// but before the event is handed to the caller. `None` (the
    /// default) costs one branch per pop.
    observer: Option<PopObserver<K, E>>,
}

impl<K: DesTime, E> Engine<K, E> {
    /// An empty engine with deterministic FIFO tie-breaking.
    pub fn new() -> Self {
        Engine {
            pool: Pool::new(),
            sched: Sched::Calendar(Calendar::new()),
            seq: 0,
            fuzz_seed: None,
            scheduled: 0,
            fired: 0,
            last_pops: 0,
            last_scanned: 0,
            observer: None,
        }
    }

    /// An engine whose same-time tie order is deterministically permuted
    /// by `seed` (time order is never affected).
    pub fn with_fuzz(seed: u64) -> Self {
        let mut e = Self::new();
        e.fuzz_seed = Some(seed);
        e
    }

    /// An engine with a recording hook installed from the start: `f` is
    /// called for every fired event, in pop order, with the event's time
    /// and payload. Observation never changes scheduling — the observer
    /// runs after ordering is resolved, and an engine without one pays
    /// only an `Option` check per pop (the obs-overhead gate relies on
    /// that).
    pub fn with_observer(f: impl FnMut(&K, &E) + 'static) -> Self {
        let mut e = Self::new();
        e.set_observer(f);
        e
    }

    /// Installs (or replaces) the recording hook; see
    /// [`Engine::with_observer`].
    pub fn set_observer(&mut self, f: impl FnMut(&K, &E) + 'static) {
        self.observer = Some(Box::new(f));
    }

    /// Removes the recording hook, returning pops to the unobserved
    /// fast path.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Schedules `event` at `at` (pure FIFO among same-time events when
    /// not fuzzing).
    pub fn schedule(&mut self, at: K, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        let fuzz = match self.fuzz_seed {
            Some(seed) => splitmix64(seq ^ seed),
            None => 0,
        };
        let slot = self.pool.insert((at, event));
        let entry = Entry {
            ticks: at.ticks(),
            fuzz,
            seq,
            slot,
        };
        match &mut self.sched {
            Sched::Calendar(c) => c.push(entry),
            Sched::Heap(h) => h.push(Reverse(entry)),
        }
    }

    /// Pops the earliest pending event, or `None` when idle.
    pub fn pop(&mut self) -> Option<(K, E)> {
        let entry = match &mut self.sched {
            Sched::Calendar(c) => c.pop(),
            Sched::Heap(h) => h.pop().map(|Reverse(e)| e),
        }?;
        self.fired += 1;
        self.maybe_fall_back();
        let (at, event) = self.pool.take(entry.slot);
        if let Some(obs) = self.observer.as_mut() {
            obs(&at, &event);
        }
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.sched {
            Sched::Calendar(c) => c.len(),
            Sched::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let (direct_searches, resizes, heap_fallback) = match &self.sched {
            Sched::Calendar(c) => (c.direct_searches, c.resizes, false),
            Sched::Heap(_) => (0, 0, true),
        };
        EngineStats {
            scheduled: self.scheduled,
            fired: self.fired,
            pool_slots: self.pool.high_water(),
            direct_searches,
            resizes,
            heap_fallback,
        }
    }

    /// Every `FALLBACK_WINDOW` pops, check the calendar's amortized scan
    /// cost; if resizing has not tamed the distribution, migrate every
    /// pending entry into a `BinaryHeap` (same total order) for the rest
    /// of this engine's life.
    fn maybe_fall_back(&mut self) {
        let Sched::Calendar(c) = &mut self.sched else {
            return;
        };
        if c.pops - self.last_pops < FALLBACK_WINDOW {
            return;
        }
        let scanned = c.buckets_scanned - self.last_scanned;
        let pops = c.pops - self.last_pops;
        self.last_pops = c.pops;
        self.last_scanned = c.buckets_scanned;
        if scanned as f64 / pops as f64 > FALLBACK_SCAN_LIMIT {
            self.migrate_to_heap();
        }
    }

    fn migrate_to_heap(&mut self) {
        if let Sched::Calendar(c) = &mut self.sched {
            let mut heap = BinaryHeap::with_capacity(c.len());
            heap.extend(c.drain_all().into_iter().map(Reverse));
            self.sched = Sched::Heap(heap);
        }
    }

    #[cfg(test)]
    pub(crate) fn force_heap(&mut self) {
        self.migrate_to_heap();
    }
}

impl<K: DesTime, E> Default for Engine<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer: a bijective avalanche over `u64`, so distinct
/// sequence numbers always get distinct fuzz hashes (the permutation of
/// same-time events is total and deterministic per seed).
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::time::Time;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut e: Engine<u64, &str> = Engine::new();
        e.schedule(5, "c");
        e.schedule(1, "a");
        e.schedule(5, "d");
        e.schedule(3, "b");
        let order: Vec<&str> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn steady_state_allocates_no_new_slots() {
        let mut e: Engine<Time, [u8; 64]> = Engine::new();
        for i in 0..64 {
            e.schedule(Time::from_secs(i as f64), [0u8; 64]);
        }
        for i in 0..100_000 {
            let (t, ev) = e.pop().unwrap();
            e.schedule(Time::from_secs(t.secs() + 1.0 + (i % 7) as f64), ev);
        }
        assert_eq!(e.stats().pool_slots, 64);
    }

    #[test]
    fn fuzz_preserves_time_order_and_multiset() {
        let mut plain: Engine<u64, u32> = Engine::new();
        let mut fuzzed: Engine<u64, u32> = Engine::with_fuzz(0xFEED);
        for i in 0..500u32 {
            let t = (i / 10) as u64; // 10 events per timestamp
            plain.schedule(t, i);
            fuzzed.schedule(t, i);
        }
        let a: Vec<(u64, u32)> = std::iter::from_fn(|| plain.pop()).collect();
        let b: Vec<(u64, u32)> = std::iter::from_fn(|| fuzzed.pop()).collect();
        assert_ne!(a, b, "fuzz seed should permute same-time events");
        let times_a: Vec<u64> = a.iter().map(|(t, _)| *t).collect();
        let times_b: Vec<u64> = b.iter().map(|(t, _)| *t).collect();
        assert_eq!(times_a, times_b, "time order must be untouched");
        let mut pa = a.clone();
        let mut pb = b.clone();
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb, "fuzz must only permute, not drop or duplicate");
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<(u64, u32)> {
            let mut e: Engine<u64, u32> = Engine::with_fuzz(seed);
            for i in 0..200u32 {
                e.schedule((i / 20) as u64, i);
            }
            std::iter::from_fn(|| e.pop()).collect()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn observer_sees_every_fired_event_in_pop_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut e: Engine<u64, u32> = Engine::with_observer(move |at, ev| {
            sink.borrow_mut().push((*at, *ev));
        });
        e.schedule(5, 50);
        e.schedule(1, 10);
        e.schedule(3, 30);
        let popped: Vec<(u64, u32)> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(popped, vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(*seen.borrow(), popped, "observer mirrors pop order");
    }

    #[test]
    fn observer_does_not_perturb_ordering_or_stats() {
        let run = |observed: bool| -> (Vec<(u64, u32)>, EngineStats) {
            let mut e: Engine<u64, u32> = Engine::with_fuzz(0xBEEF);
            if observed {
                e.set_observer(|_, _| {});
            }
            for i in 0..300u32 {
                e.schedule((i / 9) as u64, i);
            }
            let order = std::iter::from_fn(|| e.pop()).collect();
            (order, e.stats())
        };
        let (plain, plain_stats) = run(false);
        let (observed, observed_stats) = run(true);
        assert_eq!(plain, observed, "observation must not reorder events");
        assert_eq!(plain_stats, observed_stats);
    }

    #[test]
    fn clear_observer_stops_recording() {
        use std::cell::Cell;
        use std::rc::Rc;
        let count = Rc::new(Cell::new(0u32));
        let sink = Rc::clone(&count);
        let mut e: Engine<u64, ()> = Engine::with_observer(move |_, _| sink.set(sink.get() + 1));
        e.schedule(1, ());
        e.schedule(2, ());
        let _ = e.pop();
        e.clear_observer();
        let _ = e.pop();
        assert_eq!(count.get(), 1);
    }

    #[test]
    fn heap_migration_preserves_order_mid_run() {
        let mut e: Engine<u64, u64> = Engine::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let t = next() >> 1;
            e.schedule(t, t);
        }
        let mut last = 0;
        for _ in 0..500 {
            let (t, v) = e.pop().unwrap();
            assert_eq!(t, v);
            assert!(t >= last);
            last = t;
        }
        // Migrate the remaining 1500 entries to the heap mid-run and
        // keep going: the total order must be seamless across the switch.
        e.force_heap();
        assert!(e.stats().heap_fallback);
        for _ in 0..2000 {
            let t = last.saturating_add(next() >> 20);
            e.schedule(t, t);
        }
        while let Some((t, _)) = e.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(e.stats().scheduled, e.stats().fired);
        assert_eq!(e.stats().scheduled, 4000);
    }
}
