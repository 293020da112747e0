//! Property tests: the engine (calendar queue + pool + tie-breaking)
//! must agree with a reference `BinaryHeap` model on arbitrary
//! interleavings of schedules and pops, across tick distributions that
//! exercise every regime (tight bands, identical timestamps, huge
//! spreads, f64-bit keys).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cpm_core::time::Time;
use cpm_des::Engine;
use proptest::prelude::*;

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

/// Reference model: (ticks, seq) in a binary heap — the exact total order
/// the engine promises when fuzzing is off.
fn run_against_model(ops: Vec<Op>, scale: u64) {
    let mut engine: Engine<u64, u64> = Engine::new();
    let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    for op in ops {
        match op {
            Op::Push(offset) => {
                let at = now.saturating_add(offset.saturating_mul(scale));
                engine.schedule(at, seq);
                model.push(Reverse((at, seq)));
                seq += 1;
            }
            Op::Pop => {
                let got = engine.pop();
                let want = model.pop().map(|Reverse(entry)| entry);
                assert_eq!(got, want);
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
    }
    while let Some(Reverse(entry)) = model.pop() {
        assert_eq!(engine.pop(), Some(entry));
    }
    assert_eq!(engine.pop(), None);
    assert!(engine.is_empty());
}

proptest! {
    #[test]
    fn matches_heap_model_tight_band(ops in proptest::collection::vec(op_strategy(100), 1..400)) {
        run_against_model(ops, 1);
    }

    #[test]
    fn matches_heap_model_wide_spread(ops in proptest::collection::vec(op_strategy(1 << 20), 1..400)) {
        run_against_model(ops, 1 << 30);
    }

    #[test]
    fn matches_heap_model_many_ties(ops in proptest::collection::vec(op_strategy(3), 1..400)) {
        run_against_model(ops, 0); // offset * 0 => every event at `now`
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
