//! Model-based algorithm selection as the paper's Fig. 6 draws it.
//!
//! MPI implementations switch between collective algorithms by message
//! size. The switch is only as good as the model behind it: in the paper's
//! Fig. 6 the heterogeneous Hockney model mispredicts that binomial scatter
//! beats linear scatter for 100–200 KB messages, while the LMO model ranks
//! them correctly. This module keeps the paper's closed forms for the
//! figure and its switch point; what the reproduction itself selects with
//! is [`crate::cost::choose`].

use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_models::collective::binomial_recursive;
use cpm_models::LmoExtended;

use crate::cost::cheapest;
use crate::Algorithm;

/// The linear and binomial scatter predictions of Fig. 6.
#[derive(Clone, Copy, Debug)]
pub struct ScatterPrediction {
    /// Predicted linear scatter time, seconds.
    pub linear: f64,
    /// Predicted binomial scatter time, seconds.
    pub binomial: f64,
}

impl ScatterPrediction {
    /// The predicted winner, by the chooser's rule ([`cheapest`]: ties go
    /// to linear).
    pub fn choice(&self) -> Algorithm {
        cheapest([
            (Algorithm::Linear, self.linear),
            (Algorithm::Binomial, self.binomial),
        ])
    }
}

/// Predicts linear and binomial scatter with the LMO model the way the
/// paper's Fig. 6 does: eq. (4) for linear, the recursive formula
/// instantiated with LMO point-to-point times for binomial.
pub fn predict_scatter_lmo(model: &LmoExtended, root: Rank, m: Bytes) -> ScatterPrediction {
    let tree = BinomialTree::new(model.c.len(), root);
    ScatterPrediction {
        linear: model.linear_scatter(root, m),
        binomial: binomial_recursive(model, &tree, m),
    }
}

/// Finds the message size at which the model's preferred scatter algorithm
/// flips from binomial to linear (the "switch point" MPI tuning tables
/// record), by bisection over `[lo, hi]`. Returns `None` when the
/// preference does not flip inside the interval.
pub fn scatter_crossover(model: &LmoExtended, root: Rank, lo: Bytes, hi: Bytes) -> Option<Bytes> {
    let prefers_binomial =
        |m: Bytes| predict_scatter_lmo(model, root, m).choice() == Algorithm::Binomial;
    let (a, b) = (prefers_binomial(lo), prefers_binomial(hi));
    if a == b {
        return None;
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if prefers_binomial(mid) == a {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::matrix::SymMatrix;
    use cpm_models::{GatherEmpirics, HockneyHet};

    fn lmo(n: usize) -> LmoExtended {
        LmoExtended::new(
            vec![40e-6; n],
            vec![7e-9; n],
            SymMatrix::filled(n, 42e-6),
            SymMatrix::filled(n, 11.7e6),
            GatherEmpirics::none(),
        )
    }

    #[test]
    fn lmo_prefers_binomial_for_tiny_and_linear_for_huge() {
        let m = lmo(16);
        let tiny = predict_scatter_lmo(&m, Rank(0), 128);
        assert_eq!(tiny.choice(), Algorithm::Binomial);
        let huge = predict_scatter_lmo(&m, Rank(0), 256 * 1024);
        assert_eq!(huge.choice(), Algorithm::Linear);
    }

    /// The paper's Fig. 6 core: because Hockney folds the root's per-byte
    /// processing into every transfer, its linear prediction is the full
    /// sum Σ(α+βM) while LMO's is (n-1)(C+Mt_r) + one tail — so Hockney
    /// overestimates linear scatter and flips the decision at large M.
    #[test]
    fn hockney_and_lmo_disagree_in_the_fig6_range() {
        let l = lmo(16);
        let h: HockneyHet = l.to_hockney();
        let m = 150 * 1024; // the paper's 100 KB < M < 200 KB window
        let hp = ScatterPrediction {
            linear: h.linear_serial(Rank(0), m),
            binomial: binomial_recursive(&h, &BinomialTree::new(16, Rank(0)), m),
        };
        let lp = predict_scatter_lmo(&l, Rank(0), m);
        assert_eq!(hp.choice(), Algorithm::Binomial, "Hockney mispredicts");
        assert_eq!(lp.choice(), Algorithm::Linear, "LMO is right");
    }

    #[test]
    fn crossover_is_found_and_consistent() {
        let m = lmo(16);
        let x = scatter_crossover(&m, Rank(0), 1, 1024 * 1024).expect("flips");
        // Below the crossover the model prefers binomial, above it linear.
        assert_eq!(
            predict_scatter_lmo(&m, Rank(0), x - 1).choice(),
            Algorithm::Binomial
        );
        assert_eq!(
            predict_scatter_lmo(&m, Rank(0), x).choice(),
            Algorithm::Linear
        );
        // On this homogeneous model the flip happens at small sizes (the
        // per-byte cost quickly dominates the saved latencies).
        assert!(x < 16 * 1024, "crossover {x}");
    }

    #[test]
    fn crossover_none_when_no_flip() {
        let m = lmo(16);
        // Entirely in the linear-preferred region.
        assert!(scatter_crossover(&m, Rank(0), 100_000, 200_000).is_none());
    }

    #[test]
    fn predictions_are_positive() {
        let l = lmo(8);
        let p = predict_scatter_lmo(&l, Rank(3), 64 * 1024);
        assert!(p.linear > 0.0 && p.binomial > 0.0);
    }
}
