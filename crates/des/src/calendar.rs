//! Calendar-queue scheduler (Brown, CACM 1988) over `u64` ticks.
//!
//! Pending events hash into `nbuckets` "days" of `width` ticks each; one
//! sweep of the bucket array covers a "year" of `nbuckets * width` ticks.
//! On the banded timestamp distributions discrete-event simulations
//! produce — events clustered in a window that slides forward with the
//! clock — both insert and extract-min are O(1) amortized: insert binary
//! searches one short bucket, extract resumes a cursor sweep that almost
//! always finds the minimum within a bucket or two.
//!
//! Two guards keep pathological spreads from degrading silently:
//!
//! * a sweep that visits a full year without finding a due event falls
//!   back to a **direct search** across bucket minima (counted, so the
//!   engine can observe the miss rate), and
//! * the bucket count and width are **resized** from the live tick span
//!   whenever occupancy drifts far from one event per bucket.
//!
//! The engine watches the per-pop scan cost and migrates wholesale to a
//! `BinaryHeap` when even resizing cannot make the distribution behave
//! (see `engine.rs`); this module only reports the numbers.

use std::collections::VecDeque;

/// One queued event: its total-order key plus the pool slot holding the
/// payload. Ordering is `(ticks, fuzz, seq)` — virtual time first, then
/// the (normally zero) schedule-fuzz hash, then insertion order. With
/// fuzzing off the order is exactly time-then-FIFO; with fuzzing on,
/// same-tick events permute deterministically per seed while time order
/// is untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Entry {
    pub ticks: u64,
    pub fuzz: u64,
    pub seq: u64,
    pub slot: u32,
}

const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;

#[derive(Debug)]
pub(crate) struct Calendar {
    /// Each bucket ascending by `Entry` order: minimum at the front.
    buckets: Vec<VecDeque<Entry>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Ticks per bucket, >= 1.
    width: u64,
    count: usize,
    /// Virtual bucket index (`ticks / width`) the extract sweep resumes
    /// from; never ahead of the earliest pending event.
    cursor_vb: u64,
    // Instrumentation for the engine's fallback decision.
    pub(crate) buckets_scanned: u64,
    pub(crate) pops: u64,
    pub(crate) direct_searches: u64,
    pub(crate) resizes: u64,
}

impl Calendar {
    pub(crate) fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1,
            count: 0,
            cursor_vb: 0,
            buckets_scanned: 0,
            pops: 0,
            direct_searches: 0,
            resizes: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    #[inline]
    fn vb(&self, ticks: u64) -> u64 {
        ticks / self.width
    }

    pub(crate) fn push(&mut self, e: Entry) {
        let vb = self.vb(e.ticks);
        if self.count == 0 || vb < self.cursor_vb {
            // Never let the sweep cursor sit ahead of a pending event.
            self.cursor_vb = vb;
        }
        let b = &mut self.buckets[(vb & self.mask) as usize];
        // Common case: monotone seq means new same-tick events append.
        if b.back().is_some_and(|last| *last < e) {
            b.push_back(e);
        } else {
            let at = b.partition_point(|x| *x < e);
            b.insert(at, e);
        }
        self.count += 1;
        if self.count > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Entry> {
        if self.count == 0 {
            return None;
        }
        self.pops += 1;
        let nbuckets = self.buckets.len() as u64;
        for vb in self.cursor_vb..self.cursor_vb + nbuckets {
            self.buckets_scanned += 1;
            let b = &mut self.buckets[(vb & self.mask) as usize];
            if let Some(front) = b.front() {
                if front.ticks / self.width <= vb {
                    let e = b.pop_front().expect("front checked");
                    self.cursor_vb = vb;
                    self.count -= 1;
                    self.maybe_shrink();
                    return Some(e);
                }
            }
        }
        // A whole year without a due event: the spread outran the
        // calendar. Find the true minimum across bucket fronts directly.
        self.direct_searches += 1;
        let bi = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.front().map(|e| (i, *e)))
            .min_by_key(|(_, e)| *e)
            .map(|(i, _)| i)
            .expect("count > 0 but no bucket front");
        let e = self.buckets[bi]
            .pop_front()
            .expect("chosen bucket nonempty");
        self.cursor_vb = self.vb(e.ticks);
        self.count -= 1;
        self.maybe_shrink();
        Some(e)
    }

    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.count * 2 < self.buckets.len() / 2 {
            self.resize();
        }
    }

    /// Rebuild the bucket array sized to the live population: bucket
    /// count is the next power of two above it, width is the mean tick
    /// gap between pending events (so a sweep step covers roughly one
    /// event on banded distributions).
    fn resize(&mut self) {
        self.resizes += 1;
        let mut all: Vec<Entry> = Vec::with_capacity(self.count);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        let nbuckets = all
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in &all {
            lo = lo.min(e.ticks);
            hi = hi.max(e.ticks);
        }
        let width = if all.len() < 2 {
            1
        } else {
            ((hi - lo) / (all.len() as u64 - 1)).max(1)
        };
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.width = width;
        self.count = 0;
        self.cursor_vb = if all.is_empty() { 0 } else { lo / width };
        for e in all {
            let vb = self.vb(e.ticks);
            let b = &mut self.buckets[(vb & self.mask) as usize];
            let at = b.partition_point(|x| *x < e);
            b.insert(at, e);
            self.count += 1;
        }
    }

    /// Drains every pending entry in arbitrary order (for migration to
    /// the heap fallback).
    pub(crate) fn drain_all(&mut self) -> Vec<Entry> {
        let mut all = Vec::with_capacity(self.count);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        self.count = 0;
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ticks: u64, seq: u64) -> Entry {
        Entry {
            ticks,
            fuzz: 0,
            seq,
            slot: seq as u32,
        }
    }

    fn check_against_model(ticks: impl IntoIterator<Item = u64>) {
        let mut cal = Calendar::new();
        let mut model: Vec<Entry> = Vec::new();
        for (seq, t) in ticks.into_iter().enumerate() {
            let e = entry(t, seq as u64);
            cal.push(e);
            model.push(e);
        }
        model.sort();
        for want in model {
            assert_eq!(cal.pop(), Some(want));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn banded_distribution_orders_correctly() {
        // Timestamps in a sliding band, like a simulation clock.
        let mut t = 0u64;
        let ticks: Vec<u64> = (0..5000u64)
            .map(|i| {
                t += (i * 2654435761) % 97;
                t + (i * 40503) % 1000
            })
            .collect();
        check_against_model(ticks);
    }

    #[test]
    fn identical_timestamps_pop_in_insertion_order() {
        let mut cal = Calendar::new();
        for seq in 0..1000u64 {
            cal.push(entry(42, seq));
        }
        for seq in 0..1000u64 {
            assert_eq!(cal.pop(), Some(entry(42, seq)));
        }
    }

    #[test]
    fn pathological_spread_still_correct() {
        // Exponentially exploding gaps defeat any single width choice;
        // correctness must survive via direct search.
        let ticks: Vec<u64> = (0..60u64).map(|i| 1u64 << i).collect();
        check_against_model(ticks);
    }

    #[test]
    fn interleaved_push_pop_tracks_model() {
        use std::collections::BinaryHeap;
        let mut cal = Calendar::new();
        let mut model: BinaryHeap<std::cmp::Reverse<Entry>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut x = 0x243F6A8885A308D3u64;
        for round in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if round % 3 != 2 || model.is_empty() {
                let e = entry(now + x % 512, seq);
                seq += 1;
                cal.push(e);
                model.push(std::cmp::Reverse(e));
            } else {
                let want = model.pop().unwrap().0;
                assert_eq!(cal.pop(), Some(want));
                now = want.ticks;
            }
        }
        while let Some(std::cmp::Reverse(want)) = model.pop() {
            assert_eq!(cal.pop(), Some(want));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn f64_bit_ticks_order_correctly() {
        // The real workloads schedule f64-seconds keys mapped through
        // to_bits(), which are huge u64s with tiny relative gaps.
        let ticks: Vec<u64> = (0..4000u64)
            .map(|i| (1e-3 + (i as f64) * 3.7e-6 + ((i * 7919) % 13) as f64 * 1e-9).to_bits())
            .collect();
        check_against_model(ticks);
    }

    #[test]
    fn banded_load_stays_cheap_after_resize() {
        let mut cal = Calendar::new();
        let mut seq = 0u64;
        // Steady-state churn: 4096 pending, gaps ~1000 ticks.
        let mut t = 0u64;
        for _ in 0..4096 {
            t += 1000;
            cal.push(entry(t, seq));
            seq += 1;
        }
        for _ in 0..100_000 {
            let e = cal.pop().unwrap();
            t += 1000;
            cal.push(entry(t.max(e.ticks), seq));
            seq += 1;
        }
        let scanned_per_pop = cal.buckets_scanned as f64 / cal.pops as f64;
        assert!(
            scanned_per_pop < 4.0,
            "calendar should be O(1) on banded load, scanned/pop = {scanned_per_pop}"
        );
        assert_eq!(
            cal.direct_searches, 0,
            "banded load must not need direct searches"
        );
    }
}
