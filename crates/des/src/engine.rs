//! The engine: one binary heap on one packed key, the payload inline,
//! deterministic (optionally fuzzed) tie-breaking, and the counters
//! downstream crates export through the metrics registry.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::key::DesTime;

/// Counters describing an engine's life so far. Snapshot via
/// [`Engine::stats`]; downstream crates fold these into
/// `cpm_des_events_total` and friends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped (fired).
    pub fired: u64,
    /// Maximum number of simultaneously pending events. Payloads live in
    /// the heap's one buffer, so this is also how many payload slots the
    /// engine ever held (the name dates from a separate slot pool).
    pub pool_slots: usize,
}

/// One pending event. `key` is `(at.ticks() << 64) | tie`: time order in
/// the high half, the tie-break in the low half, one integer compare.
struct Item<K, E> {
    key: u128,
    at: K,
    event: E,
}

impl<K, E> PartialEq for Item<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<K, E> Eq for Item<K, E> {}

impl<K, E> PartialOrd for Item<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K, E> Ord for Item<K, E> {
    /// Reversed: `BinaryHeap` is a max-heap and the smallest key fires
    /// first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A discrete-event scheduler: schedule `(time, payload)` pairs, pop
/// them back in deterministic `(time, tie)` order.
///
/// The queue is a `BinaryHeap` whose items carry their payload, so the
/// steady-state schedule/pop cycle allocates nothing once the heap's
/// buffer has grown to the peak number of pending events.
///
/// # Determinism
///
/// Same schedule calls in the same order always pop in the same order.
/// Events at equal times pop in insertion order: the tie-break is the
/// insertion number. [`Engine::with_fuzz`] replaces it by a seeded
/// bijective hash of the insertion number, deterministically permuting
/// same-time events per seed while leaving time order untouched — an
/// order-dependence detector.
pub struct Engine<K: DesTime, E> {
    heap: BinaryHeap<Item<K, E>>,
    seq: u64,
    fuzz_seed: Option<u64>,
    fired: u64,
    peak_pending: usize,
}

impl<K: DesTime, E> Engine<K, E> {
    /// An empty engine with deterministic FIFO tie-breaking.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            seq: 0,
            fuzz_seed: None,
            fired: 0,
            peak_pending: 0,
        }
    }

    /// An engine whose same-time tie order is deterministically permuted
    /// by `seed` (time order is never affected).
    pub fn with_fuzz(seed: u64) -> Self {
        let mut e = Self::new();
        e.fuzz_seed = Some(seed);
        e
    }

    /// Schedules `event` at `at` (pure FIFO among same-time events when
    /// not fuzzing).
    pub fn schedule(&mut self, at: K, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let tie = match self.fuzz_seed {
            Some(seed) => splitmix64(seq ^ seed),
            None => seq,
        };
        let key = (u128::from(at.ticks()) << 64) | u128::from(tie);
        self.heap.push(Item { key, at, event });
        self.peak_pending = self.peak_pending.max(self.heap.len());
    }

    /// Pops the earliest pending event, or `None` when idle.
    pub fn pop(&mut self) -> Option<(K, E)> {
        let Item { at, event, .. } = self.heap.pop()?;
        self.fired += 1;
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            scheduled: self.seq,
            fired: self.fired,
            pool_slots: self.peak_pending,
        }
    }
}

impl<K: DesTime, E> Default for Engine<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer: a bijection on `u64`, so distinct insertion
/// numbers always get distinct tie-breaks and the fuzzed order is a total
/// order — the one `(ticks, hash, insertion)` gives, since the hash alone
/// already decides every same-time pair.
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

    /// `pool_slots` is the peak number of pending events and nothing else:
    /// a million schedule/pop cycles over 64 outstanding events keep it at
    /// 64, and a burst above that is counted once and remembered.
    #[test]
    fn pool_slots_equals_peak_pending() {
        let mut e: Engine<Time, [u8; 64]> = Engine::new();
        for i in 0..64 {
            e.schedule(Time::from_secs(i as f64), [0u8; 64]);
        }
        for i in 0..1_000_000 {
            let (t, ev) = e.pop().unwrap();
            e.schedule(Time::from_secs(t.secs() + 1.0 + (i % 7) as f64), ev);
        }
        assert_eq!(e.stats().pool_slots, 64);
        assert_eq!(e.stats().fired, 1_000_000);
        for _ in 0..36 {
            e.schedule(Time::ZERO, [0u8; 64]);
        }
        while e.len() > 10 {
            e.pop();
        }
        e.schedule(Time::ZERO, [0u8; 64]);
        assert_eq!((e.len(), e.stats().pool_slots), (11, 100));
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

    /// Pops interleaved with schedules at and after the clock: the total
    /// order is seamless however full the queue is when new events land.
    #[test]
    fn interleaved_schedules_preserve_order_mid_run() {
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
        // 1500 entries pending: schedule 2000 more from the clock onwards
        // and keep going.
        for _ in 0..2000 {
            let t = last.saturating_add(next() >> 20);
            e.schedule(t, t);
        }
        assert_eq!(e.stats().pool_slots, 3500);
        while let Some((t, _)) = e.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(e.stats().scheduled, e.stats().fired);
        assert_eq!(e.stats().scheduled, 4000);
    }
}
