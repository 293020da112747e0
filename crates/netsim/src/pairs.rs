//! Sparse per-ordered-pair state.
//!
//! A run touches far fewer connections than `n²`: a binomial tree uses
//! `2(n − 1)` of them, a halo exchange `4n`, and even a dense all-to-all
//! on 128 ranks only 16 k. A dense `n × n` table costs its whole size up
//! front — 16 MB and over a millisecond per run at 1 000 ranks — so state
//! keyed by `(src, dst)` lives here instead: per source, a small
//! open-addressed table keyed by the destination rank itself. Ranks are
//! distinct small integers, so `dst mod capacity` spreads them without a
//! hash function (a rotation's consecutive destinations never collide);
//! the worst case, destinations all congruent modulo the capacity, probes
//! the row linearly, which is bounded by the row's own length.

/// Marks an unused slot; no rank has this index (`new` checks `n`).
const EMPTY: u32 = u32::MAX;

/// `T` per ordered pair of ranks, defaulted on first touch.
#[derive(Clone, Debug)]
pub struct PairTable<T> {
    rows: Vec<Row<T>>,
}

/// One source's destinations: linear probing from `dst & (len − 1)`, the
/// length a power of two (or zero) and at least twice the entries held.
#[derive(Clone, Debug, Default)]
struct Row<T> {
    slots: Vec<(u32, T)>,
    used: usize,
}

impl<T: Default> PairTable<T> {
    /// An empty table over `n` ranks.
    ///
    /// # Panics
    /// Panics when `n` does not fit the 32-bit keys.
    pub fn new(n: usize) -> Self {
        assert!(n < EMPTY as usize, "rank indices must fit in 32 bits");
        PairTable {
            rows: (0..n).map(|_| Row::default()).collect(),
        }
    }

    /// The value of `(src, dst)`.
    ///
    /// # Panics
    /// Panics when `src` or `dst` is not below the table's `n`.
    pub fn slot(&mut self, src: usize, dst: usize) -> &mut T {
        assert!(dst < self.rows.len(), "rank {dst} out of range");
        let row = &mut self.rows[src];
        if 2 * row.used >= row.slots.len() {
            row.grow();
        }
        let at = row.probe(dst as u32);
        if row.slots[at].0 == EMPTY {
            row.slots[at].0 = dst as u32;
            row.used += 1;
        }
        &mut row.slots[at].1
    }
}

impl<T: Default> Row<T> {
    /// Where `key` is, or the empty slot where it belongs.
    fn probe(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = key as usize & mask;
        while self.slots[at].0 != key && self.slots[at].0 != EMPTY {
            at = (at + 1) & mask;
        }
        at
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(4);
        let old = std::mem::replace(
            &mut self.slots,
            (0..len).map(|_| (EMPTY, T::default())).collect(),
        );
        for (key, value) in old.into_iter().filter(|&(key, _)| key != EMPTY) {
            let at = self.probe(key);
            self.slots[at] = (key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_per_ordered_pair_and_persist() {
        let mut t: PairTable<u32> = PairTable::new(4);
        *t.slot(1, 2) += 5;
        *t.slot(2, 1) += 7;
        *t.slot(1, 3) += 1;
        *t.slot(1, 2) += 5;
        assert_eq!(*t.slot(1, 2), 10);
        assert_eq!(*t.slot(2, 1), 7);
        assert_eq!(*t.slot(1, 3), 1);
        assert_eq!(*t.slot(3, 1), 0, "an untouched pair starts at the default");
    }

    /// Against a dense table, through growth and through the colliding
    /// worst case (every destination congruent modulo any capacity the row
    /// reaches).
    #[test]
    fn agrees_with_a_dense_table() {
        let n = 1024;
        let mut sparse: PairTable<u64> = PairTable::new(n);
        let mut dense = vec![0u64; n * n];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let src = (x >> 20) as usize % 8;
            let dst = match src {
                0 => (x >> 40) as usize % 16 * 64, // all ≡ 0 mod 64
                1 => step as usize % n,            // a rotation
                _ => (x >> 40) as usize % n,
            };
            *sparse.slot(src, dst) += step;
            dense[src * n + dst] += step;
        }
        for src in 0..8 {
            for dst in 0..n {
                assert_eq!(*sparse.slot(src, dst), dense[src * n + dst], "{src}->{dst}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_destination_outside_the_table_is_refused() {
        let _ = PairTable::<u8>::new(3).slot(0, 3);
    }
}
