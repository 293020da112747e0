//! The LMO model — the paper's contribution.
//!
//! The original LMO model ([8, 9]) describes a transfer by five parameters,
//! `(C_i, t_i) → β_ij → (C_j, t_j)`:
//!
//! ```text
//! T_ij(M) = C_i + C_j + M·(t_i + 1/β_ij + t_j)
//! ```
//!
//! where `C` are the fixed processing delays, `t` the per-byte processing
//! delays and `β_ij` the link transmission rate (`β_ij = β_ji` on a single
//! switch). The fixed delays still mix processor and network contributions.
//!
//! The **extended** model adds the per-link fixed latency `L_ij`:
//!
//! ```text
//! T_ij(M) = C_i + L_ij + C_j + M·(t_i + 1/β_ij + t_j)
//! ```
//!
//! achieving the full separation of constant/variable processor/network
//! contributions. In Hockney terms: `α_ij = C_i + L_ij + C_j` and
//! `β_ij^H = t_i + 1/β_ij + t_j`.
//!
//! Collective predictions (paper eqs. (4), (5)) combine these parameters in
//! sums (serialized root processing) and maxima (parallel transfers and
//! receiver processing), plus the *empirical* gather parameters `M1`, `M2`
//! and the escalation statistics.

use serde::{Deserialize, Serialize};

use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::units::Bytes;

use crate::hockney::HockneyHet;

/// The original five-parameter LMO model (no separate network latency).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LmoOriginal {
    /// Fixed processing delay per node, seconds (processor + network fixed
    /// contributions combined).
    pub c: Vec<f64>,
    /// Per-byte processing delay per node, seconds/byte.
    pub t: Vec<f64>,
    /// Link transmission rate, bytes/second.
    pub beta: SymMatrix<f64>,
}

impl LmoOriginal {
    /// Builds the model, validating dimensions.
    pub fn new(c: Vec<f64>, t: Vec<f64>, beta: SymMatrix<f64>) -> Self {
        assert_eq!(c.len(), t.len(), "C and t must cover the same nodes");
        assert_eq!(c.len(), beta.n(), "β must cover the same nodes");
        LmoOriginal { c, t, beta }
    }

    /// `T_ij(M) = C_i + C_j + M(t_i + 1/β_ij + t_j)`.
    pub fn time(&self, i: Rank, j: Rank, m: Bytes) -> f64 {
        self.c[i.idx()]
            + self.c[j.idx()]
            + m as f64 * (self.t[i.idx()] + 1.0 / self.beta.get(i, j) + self.t[j.idx()])
    }
}

impl PointToPoint for LmoOriginal {
    fn p2p(&self, src: Rank, dst: Rank, m: Bytes) -> f64 {
        self.time(src, dst, m)
    }
    fn n(&self) -> usize {
        self.c.len()
    }
}

/// The empirical gather parameters of the LMO model: the thresholds that
/// bound the irregular region and the statistics of the escalations inside
/// it (paper: "the LMO model defines the most frequent values of
/// escalations and their probability").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GatherEmpirics {
    /// Below `m1` linear gather behaves linearly (parallel reception).
    pub m1: Bytes,
    /// Above `m2` linear gather is linear again (serialized reception).
    pub m2: Bytes,
    /// Probability that a medium-size gather escalates, averaged over the
    /// irregular region.
    pub escalation_probability: f64,
    /// Typical escalation magnitude, seconds.
    pub escalation_magnitude: f64,
    /// Observed per-size escalation probability, `(message size, fraction)`
    /// knots — the paper: the probability that the execution time fits the
    /// linear model "becomes less with the growth of message size". Empty
    /// means "use the scalar probability".
    pub escalation_prob_knots: Vec<(f64, f64)>,
}

impl GatherEmpirics {
    /// Empirics for a platform without irregularities.
    pub fn none() -> Self {
        GatherEmpirics {
            m1: Bytes::MAX,
            m2: Bytes::MAX,
            escalation_probability: 0.0,
            escalation_magnitude: 0.0,
            escalation_prob_knots: Vec::new(),
        }
    }

    /// Escalation probability at a given medium size: interpolates the
    /// per-size knots when available, falls back to the scalar average.
    pub fn probability_at(&self, m: Bytes) -> f64 {
        if self.escalation_prob_knots.is_empty() {
            return self.escalation_probability;
        }
        cpm_stats::PiecewiseLinear::new(self.escalation_prob_knots.clone())
            .eval(m as f64)
            .clamp(0.0, 1.0)
    }
}

/// Which of the three gather regimes a message size falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatherRegime {
    /// `M < M1`: parallel reception, maximum combination.
    Small,
    /// `M1 ≤ M ≤ M2`: the irregular region.
    Medium,
    /// `M > M2`: serialized reception, sum combination.
    Large,
}

/// A linear-gather prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatherPrediction {
    /// The analytical baseline (max-combination for small/medium,
    /// sum-combination for large messages), seconds.
    pub base: f64,
    /// Expected value including escalations:
    /// `base + p·magnitude` in the medium regime, `base` elsewhere.
    pub expected: f64,
    pub regime: GatherRegime,
}

/// The extended six-parameter LMO model.
///
/// ```
/// use cpm_core::{matrix::SymMatrix, Rank};
/// use cpm_models::{GatherEmpirics, LmoExtended};
/// let m = LmoExtended::new(
///     vec![40e-6; 4],            // C_i
///     vec![7e-9; 4],             // t_i
///     SymMatrix::filled(4, 42e-6),  // L_ij
///     SymMatrix::filled(4, 11.7e6), // β_ij
///     GatherEmpirics::none(),
/// );
/// // T = C_i + L_ij + C_j + M(t_i + 1/β + t_j)
/// let t = m.time(Rank(0), Rank(1), 1024);
/// assert!(t > 122e-6 && t < 300e-6);
/// // Scatter: serialized root processing + the slowest parallel tail.
/// assert!(m.linear_scatter(Rank(0), 1024) > t);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LmoExtended {
    /// Fixed processing delay per node, seconds (`C_i`).
    pub c: Vec<f64>,
    /// Per-byte processing delay per node, seconds/byte (`t_i`).
    pub t: Vec<f64>,
    /// Fixed network latency per link, seconds (`L_ij`).
    pub l: SymMatrix<f64>,
    /// Link transmission rate, bytes/second (`β_ij`).
    pub beta: SymMatrix<f64>,
    /// Empirical gather parameters.
    pub gather: GatherEmpirics,
}

impl LmoExtended {
    /// Builds the model, validating dimensions.
    pub fn new(
        c: Vec<f64>,
        t: Vec<f64>,
        l: SymMatrix<f64>,
        beta: SymMatrix<f64>,
        gather: GatherEmpirics,
    ) -> Self {
        assert_eq!(c.len(), t.len(), "C and t must cover the same nodes");
        assert_eq!(c.len(), l.n(), "L must cover the same nodes");
        assert_eq!(c.len(), beta.n(), "β must cover the same nodes");
        LmoExtended {
            c,
            t,
            l,
            beta,
            gather,
        }
    }

    /// `T_ij(M) = C_i + L_ij + C_j + M(t_i + 1/β_ij + t_j)`.
    pub fn time(&self, i: Rank, j: Rank, m: Bytes) -> f64 {
        self.c[i.idx()]
            + *self.l.get(i, j)
            + self.c[j.idx()]
            + m as f64 * (self.t[i.idx()] + 1.0 / self.beta.get(i, j) + self.t[j.idx()])
    }

    /// The "tail" a transfer adds beyond the root's own processing:
    /// `L_ri + M/β_ri + C_i + M·t_i` — the parallel part of eqs. (4), (5).
    fn tail(&self, r: Rank, i: Rank, m: Bytes) -> f64 {
        *self.l.get(r, i)
            + m as f64 / self.beta.get(r, i)
            + self.c[i.idx()]
            + m as f64 * self.t[i.idx()]
    }

    /// Linear scatter from `root` (paper eq. (4)):
    /// `(n-1)(C_r + M·t_r) + max_{i≠r}(L_ri + M/β_ri + C_i + M·t_i)`.
    pub fn linear_scatter(&self, root: Rank, m: Bytes) -> f64 {
        let n = self.c.len();
        let serial = (n as f64 - 1.0) * (self.c[root.idx()] + m as f64 * self.t[root.idx()]);
        let parallel = (0..n)
            .filter(|&i| i != root.idx())
            .map(|i| self.tail(root, Rank::from(i), m))
            .fold(0.0, f64::max);
        serial + parallel
    }

    /// Linear gather at `root` (paper eq. (5)): the serial root-processing
    /// term plus a maximum (small messages) or a sum (large messages) of
    /// the per-sender tails; in the medium regime the expected escalation
    /// is added on top of the small-message baseline.
    pub fn linear_gather(&self, root: Rank, m: Bytes) -> GatherPrediction {
        let n = self.c.len();
        let serial = (n as f64 - 1.0) * (self.c[root.idx()] + m as f64 * self.t[root.idx()]);
        let tails: Vec<f64> = (0..n)
            .filter(|&i| i != root.idx())
            .map(|i| self.tail(root, Rank::from(i), m))
            .collect();
        let max_tail = tails.iter().copied().fold(0.0, f64::max);
        let sum_tail: f64 = tails.iter().sum();

        if m < self.gather.m1 {
            let base = serial + max_tail;
            GatherPrediction {
                base,
                expected: base,
                regime: GatherRegime::Small,
            }
        } else if m > self.gather.m2 {
            let base = serial + sum_tail;
            GatherPrediction {
                base,
                expected: base,
                regime: GatherRegime::Large,
            }
        } else {
            let base = serial + max_tail;
            let expected = base + self.gather.probability_at(m) * self.gather.escalation_magnitude;
            GatherPrediction {
                base,
                expected,
                regime: GatherRegime::Medium,
            }
        }
    }

    /// A refined binomial-scatter prediction that only the separated model
    /// can express (the point of the paper): within each node, consecutive
    /// sends serialize on the *processor* (`C_r + blocks·M·t_r` each) while
    /// their transfers and the receivers' processing proceed in parallel —
    /// unlike the generic recursion (paper eq. (1)), which charges a full
    /// point-to-point time per level and cannot overlap a parent's later
    /// sends with its earlier children's sub-trees.
    ///
    /// `block` is the per-process block size; the arc to a child carries
    /// `blocks·block` bytes.
    pub fn binomial_scatter(&self, tree: &cpm_core::tree::BinomialTree, block: Bytes) -> f64 {
        fn node_time(
            model: &LmoExtended,
            tree: &cpm_core::tree::BinomialTree,
            root: Rank,
            block: Bytes,
        ) -> f64 {
            let mut send_end = 0.0;
            let mut completion = 0.0f64;
            for (child, blocks) in tree.children_of(root) {
                let bytes = blocks.saturating_mul(block) as f64;
                send_end += model.c[root.idx()] + bytes * model.t[root.idx()];
                let delivered = send_end
                    + *model.l.get(root, child)
                    + bytes / model.beta.get(root, child)
                    + model.c[child.idx()]
                    + bytes * model.t[child.idx()];
                let subtree = node_time(model, tree, child, block);
                completion = completion.max(delivered + subtree);
            }
            // A leaf completes the moment it has its data; an internal node
            // also needs its last send processed locally.
            completion.max(send_end)
        }
        node_time(self, tree, tree.root(), block)
    }

    /// Expresses this model in heterogeneous Hockney terms:
    /// `α_ij = C_i + L_ij + C_j`, `β_ij = t_i + 1/β_ij + t_j`.
    pub fn to_hockney(&self) -> HockneyHet {
        let alpha = SymMatrix::from_fn(self.c.len(), |i, j| {
            self.c[i.idx()] + *self.l.get(i, j) + self.c[j.idx()]
        });
        let beta = SymMatrix::from_fn(self.c.len(), |i, j| {
            self.t[i.idx()] + 1.0 / self.beta.get(i, j) + self.t[j.idx()]
        });
        HockneyHet::new(alpha, beta)
    }
}

impl PointToPoint for LmoExtended {
    fn p2p(&self, src: Rank, dst: Rank, m: Bytes) -> f64 {
        self.time(src, dst, m)
    }
    fn n(&self) -> usize {
        self.c.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-checkable 4-node model: C = [10, 20, 30, 40] µs,
    /// t = [1, 2, 3, 4] ns/B, L_ij = 5 µs, β = 10 MB/s everywhere.
    fn model() -> LmoExtended {
        LmoExtended::new(
            vec![10e-6, 20e-6, 30e-6, 40e-6],
            vec![1e-9, 2e-9, 3e-9, 4e-9],
            SymMatrix::filled(4, 5e-6),
            SymMatrix::filled(4, 10e6),
            GatherEmpirics {
                m1: 4096,
                m2: 65536,
                escalation_probability: 0.5,
                escalation_magnitude: 0.2,
                escalation_prob_knots: Vec::new(),
            },
        )
    }

    #[test]
    fn p2p_formula() {
        let m = model();
        // T_01(1000) = 10µ + 5µ + 20µ + 1000·(1n + 100n + 2n)
        let expected = 35e-6 + 1000.0 * 103e-9;
        assert!((m.time(Rank(0), Rank(1), 1000) - expected).abs() < 1e-15);
        // Symmetric parameters → symmetric time.
        assert_eq!(
            m.time(Rank(0), Rank(1), 1000),
            m.time(Rank(1), Rank(0), 1000)
        );
    }

    #[test]
    fn original_model_lacks_latency() {
        let o = LmoOriginal::new(
            vec![10e-6, 20e-6],
            vec![1e-9, 2e-9],
            SymMatrix::filled(2, 10e6),
        );
        let expected = 30e-6 + 1000.0 * 103e-9;
        assert!((o.time(Rank(0), Rank(1), 1000) - expected).abs() < 1e-15);
    }

    #[test]
    fn scatter_separates_serial_and_parallel_parts() {
        let m = model();
        let msg = 10_000u64;
        // Serial: 3·(C_0 + M·t_0).
        let serial = 3.0 * (10e-6 + 10_000.0 * 1e-9);
        // Tails: node 3 dominates: 5µ + M/10M + 40µ + M·4n.
        let tail3 = 5e-6 + 1e-3 + 40e-6 + 4e-5;
        let got = m.linear_scatter(Rank(0), msg);
        assert!((got - (serial + tail3)).abs() < 1e-12, "{got}");
    }

    #[test]
    fn scatter_root_matters() {
        let m = model();
        // Scattering from the slow node 3 costs more serial time than from
        // node 0.
        assert!(m.linear_scatter(Rank(3), 10_000) > m.linear_scatter(Rank(0), 10_000));
    }

    #[test]
    fn gather_regimes() {
        let m = model();
        let small = m.linear_gather(Rank(0), 1024);
        assert_eq!(small.regime, GatherRegime::Small);
        assert_eq!(small.base, small.expected);

        let medium = m.linear_gather(Rank(0), 32 * 1024);
        assert_eq!(medium.regime, GatherRegime::Medium);
        // Expected adds p·magnitude = 0.1 s.
        assert!((medium.expected - medium.base - 0.1).abs() < 1e-12);

        let large = m.linear_gather(Rank(0), 100 * 1024);
        assert_eq!(large.regime, GatherRegime::Large);
        // Sum of three tails instead of max: strictly larger.
        assert!(large.base > m.linear_scatter(Rank(0), 100 * 1024));
    }

    #[test]
    fn gather_small_equals_scatter_shape() {
        // For M < M1 the gather formula is the same combination as scatter
        // (max of tails + serial root part) — per Table II.
        let m = model();
        let msg = 2048;
        let g = m.linear_gather(Rank(0), msg);
        let s = m.linear_scatter(Rank(0), msg);
        assert!((g.base - s).abs() < 1e-15);
    }

    #[test]
    fn hockney_projection_matches_p2p() {
        let m = model();
        let h = m.to_hockney();
        for (i, j) in [(0u32, 1u32), (0, 3), (2, 3)] {
            for msg in [0u64, 1000, 100_000] {
                let a = m.time(Rank(i), Rank(j), msg);
                let b = h.time(Rank(i), Rank(j), msg);
                assert!((a - b).abs() < 1e-15, "({i},{j},{msg})");
            }
        }
    }

    #[test]
    fn refined_binomial_never_exceeds_eq1() {
        // The refined formula overlaps the parent's later sends with the
        // earlier children's sub-trees, so it is a tighter (smaller or
        // equal) prediction than the generic recursion of eq. (1).
        use crate::collective::binomial_recursive;
        use cpm_core::tree::BinomialTree;
        let m = model();
        for n in [2usize, 4usize] {
            // model() has 4 nodes; restrict the tree size accordingly.
            let tree = BinomialTree::new(n, Rank(0));
            for block in [0u64, 1024, 65536] {
                let refined = m.binomial_scatter(&tree, block);
                let eq1 = binomial_recursive(&m, &tree, block);
                assert!(
                    refined <= eq1 + 1e-15,
                    "n={n}, block={block}: refined {refined} vs eq1 {eq1}"
                );
                assert!(refined > 0.0 || n == 1);
            }
        }
    }

    #[test]
    fn refined_binomial_two_nodes_is_one_transfer() {
        use cpm_core::tree::BinomialTree;
        let m = model();
        let tree = BinomialTree::new(2, Rank(0));
        let block = 10_000u64;
        let got = m.binomial_scatter(&tree, block);
        assert!((got - m.time(Rank(0), Rank(1), block)).abs() < 1e-15);
    }

    #[test]
    fn empirics_none_disables_regimes() {
        let mut m = model();
        m.gather = GatherEmpirics::none();
        let g = m.linear_gather(Rank(0), 10 * 1024 * 1024);
        assert_eq!(g.regime, GatherRegime::Small);
        assert_eq!(g.base, g.expected);
    }

    #[test]
    #[should_panic(expected = "same nodes")]
    fn dimension_mismatch_rejected() {
        let _ = LmoExtended::new(
            vec![1e-6; 3],
            vec![1e-9; 4],
            SymMatrix::filled(4, 1e-6),
            SymMatrix::filled(4, 1e7),
            GatherEmpirics::none(),
        );
    }
}
