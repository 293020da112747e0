//! `Trace::hash` streams the canonical text straight into the hash lanes;
//! it must equal the tree construction it replaced — the canonical hash of
//! `Trace::to_value` — on every trace, not only on the ones the generators
//! write.

use cpm_core::canonical_hash;
use cpm_core::rank::Rank;
use cpm_workload::{gen, OpKind, Trace, TraceOp};
use proptest::prelude::*;

fn assert_streams_as_the_tree(t: &Trace) {
    assert_eq!(t.hash(), canonical_hash(&t.to_value()), "{t:?}");
}

#[test]
fn canonical_workloads_hash_as_their_value_trees() {
    for kind in gen::CANONICAL_KINDS {
        for (n, m, iters) in [
            (2, 1, 1),
            (8, 4096, 2),
            (64, 16 * 1024, 3),
            (1000, 65536, 1),
        ] {
            let t = gen::canonical(kind, n, m, iters).expect("a canonical kind");
            assert_streams_as_the_tree(&t);
        }
    }
}

/// Characters JSON escapes, control characters, and multi-byte UTF-8.
const ALPHABET: [char; 14] = [
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '\u{1F600}',
];

/// Floats of every class: zeros, subnormals, the extremes, non-finite.
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    5e-324,
    1.1125369292536007e-308,
    f64::MIN_POSITIVE,
    1.5e-9,
    1e-3,
    1e200,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Decodes a word stream into a trace: every `OpKind`, names and phases
/// drawn from [`ALPHABET`], ids and sizes near `u64::MAX`, ranks up to
/// `u32::MAX`, empty and long `ranks`, floats from [`FLOATS`] or raw bits.
fn decode(words: &[u64]) -> Trace {
    let mut at = 0;
    let mut next = || {
        let w = words.get(at).copied().unwrap_or(at as u64);
        at += 1;
        w.rotate_left(at as u32 % 64)
    };
    let text = |next: &mut dyn FnMut() -> u64| {
        let len = next() % 12;
        (0..len)
            .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
            .collect::<String>()
    };
    let wide = |w: u64| match w % 4 {
        0 => u64::MAX - (w >> 2) % 3,
        1 => w >> 2,
        _ => (w >> 2) % 100_000,
    };
    let float = |w: u64| match w % 3 {
        0 => f64::from_bits(w),
        _ => FLOATS[(w >> 2) as usize % FLOATS.len()],
    };
    let rank = |w: u64| {
        Rank(if w.is_multiple_of(5) {
            u32::MAX
        } else {
            (w >> 3) as u32 % 1024
        })
    };
    let name = text(&mut next);
    let n = wide(next()) as usize;
    let count = next() % 24;
    let ops = (0..count)
        .map(|k| {
            let id = wide(next());
            let phase = text(&mut next);
            let kind = match (k + next()) % 9 {
                0 => OpKind::P2p {
                    src: rank(next()),
                    dst: rank(next()),
                    m: wide(next()),
                },
                1 => OpKind::Scatter {
                    root: rank(next()),
                    m: wide(next()),
                },
                2 => OpKind::Gather {
                    root: rank(next()),
                    m: wide(next()),
                },
                3 => OpKind::Bcast {
                    root: rank(next()),
                    m: wide(next()),
                },
                4 => OpKind::Reduce {
                    root: rank(next()),
                    m: wide(next()),
                    gamma: float(next()),
                },
                5 => OpKind::Allgather { m: wide(next()) },
                6 => OpKind::Alltoall { m: wide(next()) },
                7 => {
                    let len = match next() % 3 {
                        0 => 0,
                        1 => 300,
                        _ => next() % 8,
                    };
                    OpKind::Compute {
                        ranks: (0..len).map(|_| rank(next())).collect(),
                        seconds: float(next()),
                    }
                }
                _ => OpKind::Barrier,
            };
            TraceOp { id, phase, kind }
        })
        .collect();
    Trace { name, n, ops }
}

#[test]
fn every_kind_and_every_float_class_hashes_as_its_tree() {
    for (i, &x) in FLOATS.iter().enumerate() {
        let ops = (0..9u64)
            .map(|k| TraceOp {
                id: u64::MAX - k,
                phase: ALPHABET
                    .iter()
                    .cycle()
                    .skip(i + k as usize)
                    .take(5)
                    .collect(),
                kind: match k {
                    0 => OpKind::P2p {
                        src: Rank(u32::MAX),
                        dst: Rank(0),
                        m: u64::MAX,
                    },
                    1 => OpKind::Scatter {
                        root: Rank(1),
                        m: 1,
                    },
                    2 => OpKind::Gather {
                        root: Rank(2),
                        m: 2,
                    },
                    3 => OpKind::Bcast {
                        root: Rank(3),
                        m: 3,
                    },
                    4 => OpKind::Reduce {
                        root: Rank(4),
                        m: 4,
                        gamma: x,
                    },
                    5 => OpKind::Allgather { m: 5 },
                    6 => OpKind::Alltoall { m: 6 },
                    7 => OpKind::Compute {
                        ranks: if i % 2 == 0 {
                            vec![]
                        } else {
                            (0..500).map(Rank).collect()
                        },
                        seconds: x,
                    },
                    _ => OpKind::Barrier,
                },
            })
            .collect();
        assert_streams_as_the_tree(&Trace {
            name: ALPHABET.iter().collect(),
            n: usize::MAX - i,
            ops,
        });
    }
    assert_streams_as_the_tree(&Trace {
        name: String::new(),
        n: 0,
        ops: vec![],
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_traces_hash_as_their_value_trees(words in prop::collection::vec(any::<u64>(), 0..600)) {
        assert_streams_as_the_tree(&decode(&words));
    }
}
