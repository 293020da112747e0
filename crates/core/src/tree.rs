//! Binomial communication trees for scatter and gather (paper Fig. 2).
//!
//! In a binomial scatter with `n` participants the root first sends the
//! *largest* block group (half of the data) to the peer that becomes the root
//! of the other half, then recurses. Sub-trees of the same order cover
//! non-overlapping processor sets, so their communications proceed in
//! parallel — this is what makes the algorithm `O(log n)` in latencies.
//!
//! The tree is built in *virtual rank* space (the root is virtual rank 0) and
//! carries a mapping from virtual ranks to actual process ranks, so that
//! heterogeneous mapping optimization can permute processors over tree
//! positions without rebuilding the structure.
//!
//! The construction generalizes to non-power-of-two `n` the same way MPICH
//! does: each arc carries `min(2^k, n - child_vrank)` blocks.

use crate::rank::Rank;

/// One logical communication link of the tree: `from` sends `blocks` data
/// blocks to `to` during round `round` (rounds are numbered from 0 = the
/// largest transfer at the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    pub from: Rank,
    pub to: Rank,
    /// Number of data blocks carried over this link (for scatter: the size of
    /// the receiving sub-tree).
    pub blocks: u64,
    /// Communication round within the sender, 0 = first (largest) send.
    pub round: u32,
}

/// A binomial communication tree over `n` processes with a given root.
///
/// ```
/// use cpm_core::{BinomialTree, Rank};
/// let tree = BinomialTree::new(16, Rank(0));
/// // Paper Fig. 2: the root forwards 8, 4, 2, 1 blocks.
/// let blocks: Vec<u64> = tree.children_of(Rank(0)).iter().map(|&(_, b)| b).collect();
/// assert_eq!(blocks, vec![8, 4, 2, 1]);
/// assert_eq!(tree.height(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct BinomialTree {
    n: usize,
    root: Rank,
    /// `mapping[vrank]` = actual rank occupying that tree position.
    mapping: Vec<Rank>,
    /// `vrank[rank]` = the tree position that rank occupies (the inverse of
    /// `mapping`).
    vrank: Vec<usize>,
    /// All arcs, in (sender vrank, round) order.
    arcs: Vec<Arc>,
    /// `children[vrank]` = child vranks in send order (largest sub-tree
    /// first).
    children: Vec<Vec<usize>>,
    /// `subtree[vrank]` = number of processes in the sub-tree rooted there.
    subtree: Vec<u64>,
}

impl BinomialTree {
    /// Builds the binomial tree for `n` processes rooted at `root`, with the
    /// conventional mapping `vrank v ↦ (v + root) mod n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `root` is out of range.
    pub fn new(n: usize, root: Rank) -> Self {
        let mapping = (0..n).map(|v| Rank::from((v + root.idx()) % n)).collect();
        Self::with_mapping(n, root, mapping)
    }

    /// Builds the tree with an explicit virtual-rank-to-process mapping.
    /// `mapping[0]` must equal `root`, and `mapping` must be a permutation of
    /// `0..n`.
    pub fn with_mapping(n: usize, root: Rank, mapping: Vec<Rank>) -> Self {
        assert!(n > 0, "a tree needs at least one process");
        assert!(root.idx() < n, "root {root} out of range for n={n}");
        assert_eq!(mapping.len(), n, "mapping must cover all {n} virtual ranks");
        assert_eq!(mapping[0], root, "mapping[0] must be the root");
        let mut vrank = vec![usize::MAX; n];
        for (v, r) in mapping.iter().enumerate() {
            assert!(
                r.idx() < n && vrank[r.idx()] == usize::MAX,
                "mapping must be a permutation"
            );
            vrank[r.idx()] = v;
        }

        // Highest power of two ≥ n gives the first mask.
        let mut mask = 1u64;
        while (mask as usize) < n {
            mask <<= 1;
        }

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut subtree = vec![1u64; n];
        // Enumerate arcs by walking masks downward: vrank `v` with
        // `v & (mask-1) == 0` and `v | mask < n` sends to `v | mask`.
        // Collect per-sender first so rounds are numbered per sender.
        let mut m = mask;
        let mut raw_arcs: Vec<(usize, usize)> = Vec::new(); // (from_v, to_v), largest first
        while m >= 1 {
            let step = m as usize;
            if step < n {
                let mut v = 0usize;
                while v + step < n {
                    if v.is_multiple_of(2 * step) {
                        raw_arcs.push((v, v + step));
                    }
                    v += 2 * step;
                }
            }
            if m == 1 {
                break;
            }
            m >>= 1;
        }

        // Sub-tree sizes, accumulated bottom-up: arcs are enumerated with
        // masks descending, so the reverse order visits every node's children
        // before the arc that attaches the node to its own parent.
        for &(from, to) in raw_arcs.iter().rev() {
            subtree[from] += subtree[to];
        }

        for &(from, to) in &raw_arcs {
            children[from].push(to);
        }
        // Children were pushed in largest-first mask order already; verify by
        // sorting on sub-tree size (stable, descending).
        for ch in &mut children {
            ch.sort_by(|&a, &b| subtree[b].cmp(&subtree[a]));
        }

        let mut arcs = Vec::with_capacity(raw_arcs.len());
        for (v, ch) in children.iter().enumerate() {
            for (round, &c) in ch.iter().enumerate() {
                arcs.push(Arc {
                    from: mapping[v],
                    to: mapping[c],
                    blocks: subtree[c],
                    round: round as u32,
                });
            }
        }

        BinomialTree {
            n,
            root,
            mapping,
            vrank,
            arcs,
            children,
            subtree,
        }
    }

    /// Number of participating processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The root process.
    pub fn root(&self) -> Rank {
        self.root
    }

    /// All arcs of the tree.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// The process occupying virtual rank `v`.
    pub fn process_at(&self, v: usize) -> Rank {
        self.mapping[v]
    }

    /// The virtual rank occupied by process `r`.
    pub fn vrank_of(&self, r: Rank) -> usize {
        *self
            .vrank
            .get(r.idx())
            .unwrap_or_else(|| panic!("{r:?} does not participate in this tree"))
    }

    /// Children of process `r` in send order (largest sub-tree first), with
    /// the number of blocks forwarded to each.
    pub fn children_of(&self, r: Rank) -> Vec<(Rank, u64)> {
        let v = self.vrank_of(r);
        self.children[v]
            .iter()
            .map(|&c| (self.mapping[c], self.subtree[c]))
            .collect()
    }

    /// The parent of process `r`, or `None` for the root. Virtual rank `v`
    /// hangs off `v` with its lowest set bit cleared: the arc into `v` is
    /// the one whose mask is that bit.
    pub fn parent_of(&self, r: Rank) -> Option<Rank> {
        let v = self.vrank_of(r);
        (v != 0).then(|| self.mapping[v & (v - 1)])
    }

    /// Size of the sub-tree rooted at process `r` (including `r`).
    pub fn subtree_size(&self, r: Rank) -> u64 {
        self.subtree[self.vrank_of(r)]
    }

    /// Number of communication rounds at the root = tree height =
    /// `ceil(log2 n)`.
    pub fn height(&self) -> u32 {
        let mut h = 0u32;
        let mut m = 1usize;
        while m < self.n {
            m <<= 1;
            h += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 2: for 16 processors rooted at 0, the root's arcs carry
    /// 8, 4, 2, 1 blocks to processors 8, 4, 2, 1.
    #[test]
    fn figure_2_structure() {
        let t = BinomialTree::new(16, Rank(0));
        assert_eq!(
            t.children_of(Rank(0)),
            vec![(Rank(8), 8), (Rank(4), 4), (Rank(2), 2), (Rank(1), 1)]
        );
        assert_eq!(
            t.children_of(Rank(8)),
            vec![(Rank(12), 4), (Rank(10), 2), (Rank(9), 1)]
        );
        assert_eq!(t.children_of(Rank(12)), vec![(Rank(14), 2), (Rank(13), 1)]);
        assert_eq!(t.children_of(Rank(14)), vec![(Rank(15), 1)]);
        assert_eq!(t.children_of(Rank(15)), vec![]);
        assert_eq!(t.height(), 4);
    }

    #[test]
    fn blocks_conserved() {
        // Total blocks leaving the root's arcs = n - 1 (everyone else's
        // block); every node's outgoing blocks = subtree - 1.
        for n in 1..40 {
            let t = BinomialTree::new(n, Rank(0));
            let out: u64 = t
                .arcs()
                .iter()
                .filter(|a| a.from == Rank(0))
                .map(|a| a.blocks)
                .sum();
            assert_eq!(out, n as u64 - 1, "n={n}");
            assert_eq!(t.arcs().len(), n - 1, "n={n}: one arc per non-root");
        }
    }

    #[test]
    fn subtrees_partition_processes() {
        let t = BinomialTree::new(16, Rank(0));
        let children = t.children_of(Rank(0));
        let total: u64 = children.iter().map(|&(c, _)| t.subtree_size(c)).sum();
        assert_eq!(total, 15);
        // Sub-trees of the root are disjoint: collect all descendants.
        let mut seen = std::collections::HashSet::new();
        fn collect(t: &BinomialTree, r: Rank, seen: &mut std::collections::HashSet<Rank>) {
            assert!(seen.insert(r), "{r:?} reached twice");
            for (c, _) in t.children_of(r) {
                collect(t, c, seen);
            }
        }
        collect(&t, Rank(0), &mut seen);
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn non_power_of_two() {
        let t = BinomialTree::new(6, Rank(0));
        // 6 = root {0} + subtree(4) {4,5} + subtree(2) {2,3} + subtree(1) {1}
        assert_eq!(
            t.children_of(Rank(0)),
            vec![(Rank(4), 2), (Rank(2), 2), (Rank(1), 1)]
        );
        assert_eq!(t.height(), 3);
        let total: u64 = t
            .arcs()
            .iter()
            .filter(|a| a.from == Rank(0))
            .map(|a| a.blocks)
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn rooted_elsewhere_rotates_mapping() {
        let t = BinomialTree::new(8, Rank(3));
        assert_eq!(t.root(), Rank(3));
        assert_eq!(t.process_at(0), Rank(3));
        assert_eq!(t.process_at(1), Rank(4));
        assert_eq!(t.process_at(7), Rank(2));
        // Root still sends 4, 2, 1 blocks.
        let blocks: Vec<u64> = t.children_of(Rank(3)).iter().map(|&(_, b)| b).collect();
        assert_eq!(blocks, vec![4, 2, 1]);
    }

    #[test]
    fn parents_are_consistent() {
        let t = BinomialTree::new(13, Rank(5));
        for v in 0..13 {
            let r = t.process_at(v);
            match t.parent_of(r) {
                None => assert_eq!(r, Rank(5)),
                Some(p) => {
                    assert!(t.children_of(p).iter().any(|&(c, _)| c == r));
                }
            }
        }
    }

    /// Every per-rank accessor is a view of `arcs()`, under the rotated and
    /// under an arbitrary explicit mapping.
    #[test]
    fn accessors_agree_with_arcs_under_any_mapping() {
        for n in [1usize, 2, 7, 1000] {
            let root = Rank::from(n / 3);
            // An explicit mapping that is no rotation: the root first, then
            // the others in a multiplicative shuffle (7919 is coprime to
            // every n here).
            let mut shuffled: Vec<Rank> = (0..n).map(|i| Rank::from(i * 7919 % n)).collect();
            let at = shuffled.iter().position(|&r| r == root).unwrap();
            shuffled.swap(0, at);
            for t in [
                BinomialTree::new(n, root),
                BinomialTree::with_mapping(n, root, shuffled),
            ] {
                let mut children = vec![Vec::new(); n];
                let mut parent = vec![None; n];
                for a in t.arcs() {
                    children[a.from.idx()].push((a.to, a.blocks));
                    assert_eq!(parent[a.to.idx()].replace(a.from), None, "one arc in");
                }
                for r in (0..n).map(Rank::from) {
                    assert_eq!(t.process_at(t.vrank_of(r)), r);
                    assert_eq!(t.children_of(r), children[r.idx()], "n={n} {r:?}");
                    assert_eq!(t.parent_of(r), parent[r.idx()], "n={n} {r:?}");
                    let below: u64 = children[r.idx()].iter().map(|&(_, b)| b).sum();
                    assert_eq!(t.subtree_size(r), 1 + below, "n={n} {r:?}");
                }
                assert_eq!(t.parent_of(root), None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "r9 does not participate in this tree")]
    fn a_rank_outside_the_tree_panics_by_name() {
        let _ = BinomialTree::new(4, Rank(1)).vrank_of(Rank(9));
    }

    #[test]
    fn explicit_mapping() {
        let mapping = vec![Rank(2), Rank(0), Rank(1), Rank(3)];
        let t = BinomialTree::with_mapping(4, Rank(2), mapping);
        assert_eq!(t.children_of(Rank(2)), vec![(Rank(1), 2), (Rank(0), 1)]);
        assert_eq!(t.vrank_of(Rank(3)), 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_mapping_rejected() {
        let _ = BinomialTree::with_mapping(3, Rank(0), vec![Rank(0), Rank(1), Rank(1)]);
    }

    #[test]
    fn single_process_tree() {
        let t = BinomialTree::new(1, Rank(0));
        assert!(t.arcs().is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.subtree_size(Rank(0)), 1);
    }

    #[test]
    fn rounds_numbered_largest_first() {
        let t = BinomialTree::new(16, Rank(0));
        for a in t.arcs() {
            if a.from == Rank(0) {
                // Round 0 carries 8 blocks, round 1 carries 4, …
                assert_eq!(a.blocks, 8 >> a.round);
            }
        }
    }
}
