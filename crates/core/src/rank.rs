//! Process identities and experiment set enumeration.
//!
//! The estimation procedure of the paper (Section IV) runs `C(n,2)`
//! roundtrips and `3·C(n,3)` one-to-two experiments. [`pairs`] and
//! [`triplets`] enumerate those sets in a canonical order so schedules and
//! statistics are reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The identity of a simulated process (an "MPI rank").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rank(pub u32);

impl Rank {
    /// The rank index as a `usize`, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Rank {
    fn from(v: u32) -> Self {
        Rank(v)
    }
}

impl From<usize> for Rank {
    fn from(v: usize) -> Self {
        Rank(u32::try_from(v).expect("rank fits in u32"))
    }
}

/// An unordered pair of distinct ranks, stored with `a < b`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pair {
    pub a: Rank,
    pub b: Rank,
}

impl Pair {
    /// Canonicalizes `(x, y)` into a pair with `a < b`.
    ///
    /// # Panics
    /// Panics if `x == y`.
    pub fn new(x: Rank, y: Rank) -> Self {
        assert_ne!(x, y, "a pair needs two distinct ranks");
        if x < y {
            Pair { a: x, b: y }
        } else {
            Pair { a: y, b: x }
        }
    }

    /// `true` if `r` is one of the two members.
    pub fn contains(&self, r: Rank) -> bool {
        self.a == r || self.b == r
    }

    /// The member that is not `r`.
    ///
    /// # Panics
    /// Panics if `r` is not a member.
    pub fn other(&self, r: Rank) -> Rank {
        if r == self.a {
            self.b
        } else if r == self.b {
            self.a
        } else {
            panic!("{r:?} is not a member of {self:?}")
        }
    }
}

/// An unordered triplet of distinct ranks, stored with `a < b < c`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Triplet {
    pub a: Rank,
    pub b: Rank,
    pub c: Rank,
}

impl Triplet {
    /// Canonicalizes three distinct ranks.
    ///
    /// # Panics
    /// Panics if any two coincide.
    pub fn new(x: Rank, y: Rank, z: Rank) -> Self {
        let mut v = [x, y, z];
        v.sort();
        assert!(
            v[0] != v[1] && v[1] != v[2],
            "a triplet needs three distinct ranks"
        );
        Triplet {
            a: v[0],
            b: v[1],
            c: v[2],
        }
    }

    /// The three members in canonical order.
    pub fn members(&self) -> [Rank; 3] {
        [self.a, self.b, self.c]
    }

    /// `true` if `r` is a member.
    pub fn contains(&self, r: Rank) -> bool {
        self.a == r || self.b == r || self.c == r
    }

    /// The two members that are not `root`, in canonical order.
    ///
    /// # Panics
    /// Panics if `root` is not a member.
    pub fn others(&self, root: Rank) -> [Rank; 2] {
        assert!(self.contains(root), "{root:?} is not a member of {self:?}");
        let mut out = [Rank(0); 2];
        let mut k = 0;
        for m in self.members() {
            if m != root {
                out[k] = m;
                k += 1;
            }
        }
        out
    }

    /// The three pairs spanned by the triplet.
    pub fn pairs(&self) -> [Pair; 3] {
        [
            Pair::new(self.a, self.b),
            Pair::new(self.a, self.c),
            Pair::new(self.b, self.c),
        ]
    }
}

/// All `C(n,2)` pairs of ranks `0..n` in lexicographic order.
pub fn pairs(n: usize) -> Vec<Pair> {
    let mut out = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push(Pair::new(Rank::from(i), Rank::from(j)));
        }
    }
    out
}

/// `true` when no rank appears twice in `members` — the condition under
/// which units (pairs, triplets) may share one simulation run.
pub fn disjoint(members: impl IntoIterator<Item = Rank>) -> bool {
    let mut seen = std::collections::HashSet::new();
    members.into_iter().all(|r| seen.insert(r))
}

/// All `C(n,3)` triplets of ranks `0..n` in lexicographic order.
pub fn triplets(n: usize) -> Vec<Triplet> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                out.push(Triplet::new(Rank::from(i), Rank::from(j), Rank::from(k)));
            }
        }
    }
    out
}

/// `C(n, 2)`.
pub fn n_choose_2(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// `C(n, 3)`.
pub fn n_choose_3(n: usize) -> usize {
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_spots_a_shared_rank() {
        let units = [Pair::new(Rank(0), Rank(1)), Pair::new(Rank(2), Rank(3))];
        assert!(disjoint(units.iter().flat_map(|p| [p.a, p.b])));
        assert!(!disjoint([Rank(0), Rank(4), Rank(0)]));
        assert!(disjoint(std::iter::empty()));
    }

    #[test]
    fn pair_canonicalization() {
        let p = Pair::new(Rank(5), Rank(2));
        assert_eq!(p.a, Rank(2));
        assert_eq!(p.b, Rank(5));
        assert!(p.contains(Rank(5)));
        assert!(!p.contains(Rank(3)));
        assert_eq!(p.other(Rank(2)), Rank(5));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_rejects_equal() {
        let _ = Pair::new(Rank(1), Rank(1));
    }

    #[test]
    fn triplet_canonicalization_and_members() {
        let t = Triplet::new(Rank(7), Rank(1), Rank(4));
        assert_eq!(t.members(), [Rank(1), Rank(4), Rank(7)]);
        assert_eq!(t.others(Rank(4)), [Rank(1), Rank(7)]);
        assert_eq!(t.pairs().len(), 3);
    }

    #[test]
    fn enumeration_counts_match_binomials() {
        for n in 0..20 {
            assert_eq!(pairs(n).len(), n_choose_2(n), "pairs({n})");
            assert_eq!(triplets(n).len(), n_choose_3(n), "triplets({n})");
        }
        // The paper's cluster: C(16,2) = 120 roundtrip pairs,
        // C(16,3) = 560 triplets (3*560 = 1680 one-to-two experiments).
        assert_eq!(n_choose_2(16), 120);
        assert_eq!(n_choose_3(16), 560);
    }

    #[test]
    fn enumeration_is_sorted_and_unique() {
        let ps = pairs(8);
        let mut sorted = ps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ps, sorted);

        let ts = triplets(8);
        let mut sorted = ts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn participation_counts() {
        // Each processor participates in C(n-1, 2) triplets (paper, eq. 12).
        let n = 10;
        let ts = triplets(n);
        for r in 0..n {
            let count = ts.iter().filter(|t| t.contains(Rank::from(r))).count();
            assert_eq!(count, n_choose_2(n - 1));
        }
        // Each pair participates in n-2 triplets.
        for p in pairs(n) {
            let count = ts
                .iter()
                .filter(|t| t.contains(p.a) && t.contains(p.b))
                .count();
            assert_eq!(count, n - 2);
        }
    }
}
