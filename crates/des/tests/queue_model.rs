//! Property tests: the engine (a binary heap on a packed key) must agree
//! with a reference model that shares none of its machinery — a `Vec` kept
//! stably sorted by `(ticks, tie)` — on arbitrary interleavings of
//! schedules and pops, fuzz off and on, across tick distributions that
//! exercise every regime: tight bands, identical timestamps, huge spreads,
//! f64-bit keys, and the barrier-release shape (a crowd at tick 0, then
//! thousands of exact ties on f64 bit patterns) that a fixed-width
//! calendar could not bucket.

use cpm_core::time::Time;
use cpm_des::{DesTime, Engine};
use proptest::prelude::*;

/// The oracle: pending events in pop order. An insert goes *after* every
/// entry whose `(ticks, tie)` is not greater, so with the insertion number
/// as the tie (fuzz off) ties are FIFO by construction; with fuzz on the
/// tie is the seeded hash, recomputed here independently of the engine.
struct Model<E> {
    pending: Vec<(u64, u64, E)>,
    seq: u64,
    fuzz_seed: Option<u64>,
}

impl<E> Model<E> {
    fn new(fuzz_seed: Option<u64>) -> Self {
        Model {
            pending: Vec::new(),
            seq: 0,
            fuzz_seed,
        }
    }

    fn schedule(&mut self, ticks: u64, event: E) {
        let tie = match self.fuzz_seed {
            Some(seed) => splitmix64(self.seq ^ seed),
            None => self.seq,
        };
        self.seq += 1;
        let at = self
            .pending
            .partition_point(|&(t, h, _)| (t, h) <= (ticks, tie));
        self.pending.insert(at, (ticks, tie, event));
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        if self.pending.is_empty() {
            return None;
        }
        let (ticks, _, event) = self.pending.remove(0);
        Some((ticks, event))
    }
}

/// The SplitMix64 finalizer, restated: the fuzzed tie of insertion `seq`
/// under `seed` is `splitmix64(seq ^ seed)`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn engine<K: DesTime, E>(fuzz_seed: Option<u64>) -> Engine<K, E> {
    match fuzz_seed {
        Some(seed) => Engine::with_fuzz(seed),
        None => Engine::new(),
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `base + offset` where `base` slides with pops.
    Push(u64),
    Pop,
}

fn op_strategy(max_offset: u64) -> impl Strategy<Value = Op> {
    (0u32..5, 0..max_offset + 1).prop_map(|(choice, offset)| {
        if choice < 3 {
            Op::Push(offset)
        } else {
            Op::Pop
        }
    })
}

/// Even draws run with fuzz off, odd ones under that seed.
fn fuzz_of(draw: u64) -> Option<u64> {
    (draw % 2 == 1).then_some(draw)
}

fn run_against_model(ops: Vec<Op>, scale: u64, fuzz_seed: Option<u64>) {
    let mut engine: Engine<u64, u64> = engine(fuzz_seed);
    let mut model: Model<u64> = Model::new(fuzz_seed);
    let mut now = 0u64;
    let mut peak = 0;
    for (id, op) in ops.into_iter().enumerate() {
        match op {
            Op::Push(offset) => {
                let at = now.saturating_add(offset.saturating_mul(scale));
                engine.schedule(at, id as u64);
                model.schedule(at, id as u64);
                peak = peak.max(model.pending.len());
            }
            Op::Pop => {
                let got = engine.pop();
                assert_eq!(got, model.pop());
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        assert_eq!(engine.len(), model.pending.len());
    }
    while let Some(want) = model.pop() {
        assert_eq!(engine.pop(), Some(want));
    }
    assert_eq!(engine.pop(), None);
    assert!(engine.is_empty());
    assert_eq!(
        engine.stats().pool_slots,
        peak,
        "pool_slots is peak pending"
    );
}

/// The kernel's shape: `n` wakes at t = 0; every fired event schedules its
/// successor a duration ahead, drawn from a handful of values between
/// 10 µs and 1 s (so sums collide exactly), and every `n`-th pop releases
/// a barrier: `n` events on one f64 bit pattern. The ticks are f64 bit
/// patterns, where neighbouring times are ~10¹² ticks apart and the crowd
/// at tick 0 says nothing about that spacing.
fn barrier_release(n: usize, rounds: usize, picks: &[u8], fuzz_seed: Option<u64>) {
    const DURATIONS: [f64; 6] = [1e-5, 2.5e-5, 1e-4, 3.2e-3, 0.05, 1.0];
    let mut engine: Engine<Time, usize> = engine(fuzz_seed);
    let mut model: Model<usize> = Model::new(fuzz_seed);
    for rank in 0..n {
        engine.schedule(Time::ZERO, rank);
        model.schedule(Time::ZERO.ticks(), rank);
    }
    for pop in 0..n * rounds {
        let (at, rank) = engine.pop().expect("n events stay pending");
        assert_eq!(Some((at.ticks(), rank)), model.pop(), "pop {pop}");
        if (pop + 1) % n == 0 {
            // The last arrival releases everyone at its own time; the
            // ranks still pending fire later and are simply late.
            for waiter in 0..n {
                engine.schedule(at, waiter);
                model.schedule(at.ticks(), waiter);
            }
        } else {
            let d = DURATIONS[picks[pop % picks.len()] as usize % DURATIONS.len()];
            let next = Time::from_secs(at.secs() + d);
            engine.schedule(next, rank);
            model.schedule(next.ticks(), rank);
        }
    }
    while let Some(want) = model.pop() {
        let got = engine.pop().map(|(at, rank)| (at.ticks(), rank));
        assert_eq!(got, Some(want));
    }
    assert!(engine.pop().is_none());
    let stats = engine.stats();
    assert_eq!(stats.scheduled, stats.fired);
}

proptest! {
    #[test]
    fn matches_model_tight_band(
        ops in proptest::collection::vec(op_strategy(100), 1..400),
        draw in 0u64..1000,
    ) {
        run_against_model(ops, 1, fuzz_of(draw));
    }

    #[test]
    fn matches_model_wide_spread(
        ops in proptest::collection::vec(op_strategy(1 << 20), 1..400),
        draw in 0u64..1000,
    ) {
        run_against_model(ops, 1 << 30, fuzz_of(draw));
    }

    #[test]
    fn matches_model_many_ties(
        ops in proptest::collection::vec(op_strategy(3), 1..400),
        draw in 0u64..1000,
    ) {
        run_against_model(ops, 0, fuzz_of(draw)); // offset * 0 => every event at `now`
    }

    #[test]
    fn matches_model_on_barrier_releases(
        n in 1usize..1500,
        picks in proptest::collection::vec(0u8..6, 1..64),
        draw in 0u64..1000,
    ) {
        barrier_release(n, 4, &picks, fuzz_of(draw));
    }

    #[test]
    fn seconds_keys_match_model(times in proptest::collection::vec(0u32..1_000_000, 1..300)) {
        let mut engine: Engine<Time, usize> = Engine::new();
        let mut model: Vec<(u64, usize)> = Vec::new();
        for (i, t) in times.iter().enumerate() {
            let secs = *t as f64 * 1.3e-7;
            engine.schedule(Time::from_secs(secs), i);
            model.push((secs.to_bits(), i));
        }
        model.sort();
        for (bits, i) in model {
            let (at, got) = engine.pop().expect("engine drained early");
            prop_assert_eq!(at.secs().to_bits(), bits);
            prop_assert_eq!(got, i);
        }
        prop_assert!(engine.pop().is_none());
    }

    #[test]
    fn fuzz_seeds_agree_on_time_multiset(seed in 0u64..1000) {
        let mut plain: Engine<u64, u32> = Engine::new();
        let mut fuzzed: Engine<u64, u32> = Engine::with_fuzz(seed);
        for i in 0..300u32 {
            let t = (i % 30) as u64;
            plain.schedule(t, i);
            fuzzed.schedule(t, i);
        }
        let a: Vec<(u64, u32)> = std::iter::from_fn(|| plain.pop()).collect();
        let b: Vec<(u64, u32)> = std::iter::from_fn(|| fuzzed.pop()).collect();
        let times = |v: &[(u64, u32)]| v.iter().map(|(t, _)| *t).collect::<Vec<_>>();
        prop_assert_eq!(times(&a), times(&b));
        let mut sa = a;
        let mut sb = b;
        sa.sort();
        sb.sort();
        prop_assert_eq!(sa, sb);
    }
}
