//! Piecewise-linear functions of the message size.
//!
//! The PLogP model makes every parameter except the latency a piecewise
//! linear function of the message size (`o_s(M)`, `o_r(M)`, `g(M)`). The
//! estimation procedure measures the function at a grid of sizes and refines
//! adaptively where the measured value is inconsistent with linear
//! extrapolation (paper Section II); [`PiecewiseLinear::needs_refinement`]
//! implements that consistency test.

use std::sync::Arc;

/// A piecewise-linear function defined by sorted `(x, y)` knots.
///
/// Between knots the function interpolates linearly; outside the knot range
/// it extrapolates the first/last segment (a constant when there is a single
/// knot). Clones share the knots.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseLinear {
    knots: Arc<[(f64, f64)]>,
}

impl PiecewiseLinear {
    /// Builds a function from knots. Knots are sorted by `x`; duplicate `x`
    /// values are rejected.
    ///
    /// # Panics
    /// Panics when `knots` is empty or contains duplicate `x` values.
    pub fn new(mut knots: Vec<(f64, f64)>) -> Self {
        assert!(
            !knots.is_empty(),
            "a piecewise function needs at least one knot"
        );
        knots.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite knots"));
        for w in knots.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate knot at x={}", w[0].0);
        }
        PiecewiseLinear {
            knots: knots.into(),
        }
    }

    /// A constant function.
    pub fn constant(y: f64) -> Self {
        PiecewiseLinear {
            knots: Arc::new([(0.0, y)]),
        }
    }

    /// Samples `f` at the given `x` values.
    pub fn sample(xs: &[f64], mut f: impl FnMut(f64) -> f64) -> Self {
        Self::new(xs.iter().map(|&x| (x, f(x))).collect())
    }

    /// The knots, sorted by `x`.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }

    /// Inserts (or replaces) a knot.
    pub fn insert(&mut self, x: f64, y: f64) {
        let mut knots = self.knots.to_vec();
        match knots.binary_search_by(|k| k.0.partial_cmp(&x).expect("finite")) {
            Ok(i) => knots[i] = (x, y),
            Err(i) => knots.insert(i, (x, y)),
        }
        self.knots = knots.into();
    }

    /// Evaluates the function at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let k = &self.knots;
        if k.len() == 1 {
            return k[0].1;
        }
        // Segment index: the last knot with knot.x <= x, clamped to
        // [0, len-2] so boundary segments extrapolate.
        let i = match k.binary_search_by(|p| p.0.partial_cmp(&x).expect("finite")) {
            Ok(i) => return k[i].1,
            Err(i) => i.saturating_sub(1).min(k.len() - 2),
        };
        let (x0, y0) = k[i];
        let (x1, y1) = k[i + 1];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The adaptive refinement test of the PLogP estimation procedure:
    /// given measurements at `x0 < x1 < x2`, is `y2` inconsistent with the
    /// linear extrapolation through `(x0,y0)` and `(x1,y1)` by more than
    /// `tol` (relative)? When it is, the estimator measures the midpoint
    /// `(x1 + x2)/2`.
    pub fn needs_refinement(
        (x0, y0): (f64, f64),
        (x1, y1): (f64, f64),
        (x2, y2): (f64, f64),
        tol: f64,
    ) -> bool {
        assert!(x0 < x1 && x1 < x2, "refinement points must be increasing");
        let extrapolated = y1 + (y1 - y0) * (x2 - x1) / (x1 - x0);
        let denom = extrapolated.abs().max(f64::MIN_POSITIVE);
        ((y2 - extrapolated) / denom).abs() > tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(5.0), 50.0);
        assert_eq!(f.eval(10.0), 100.0);
    }

    #[test]
    fn extrapolation_extends_boundary_segments() {
        let f = PiecewiseLinear::new(vec![(1.0, 1.0), (2.0, 3.0), (4.0, 3.0)]);
        // Left segment slope 2.
        assert_eq!(f.eval(0.0), -1.0);
        // Right segment slope 0.
        assert_eq!(f.eval(10.0), 3.0);
    }

    #[test]
    fn constant_function() {
        let f = PiecewiseLinear::constant(7.5);
        assert_eq!(f.eval(-100.0), 7.5);
        assert_eq!(f.eval(100.0), 7.5);
    }

    #[test]
    fn knots_sorted_on_construction() {
        let f = PiecewiseLinear::new(vec![(3.0, 30.0), (1.0, 10.0), (2.0, 20.0)]);
        let xs: Vec<f64> = f.knots().iter().map(|k| k.0).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        assert_eq!(f.eval(1.5), 15.0);
    }

    #[test]
    fn insert_replaces_or_adds() {
        let mut f = PiecewiseLinear::new(vec![(0.0, 0.0), (2.0, 2.0)]);
        f.insert(1.0, 5.0);
        assert_eq!(f.eval(1.0), 5.0);
        f.insert(1.0, 6.0);
        assert_eq!(f.eval(1.0), 6.0);
        assert_eq!(f.knots().len(), 3);
    }

    #[test]
    fn exact_knot_hit() {
        let f = PiecewiseLinear::new(vec![(0.0, 1.0), (1.0, 9.0), (2.0, 1.0)]);
        assert_eq!(f.eval(1.0), 9.0);
    }

    #[test]
    fn refinement_test() {
        // Collinear points: no refinement.
        assert!(!PiecewiseLinear::needs_refinement(
            (1.0, 1.0),
            (2.0, 2.0),
            (4.0, 4.0),
            0.05
        ));
        // A jump: refine.
        assert!(PiecewiseLinear::needs_refinement(
            (1.0, 1.0),
            (2.0, 2.0),
            (4.0, 10.0),
            0.05
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate knot")]
    fn duplicate_knots_rejected() {
        let _ = PiecewiseLinear::new(vec![(1.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    fn sample_builds_from_closure() {
        let f = PiecewiseLinear::sample(&[1.0, 2.0, 4.0], |x| x * x);
        assert_eq!(f.eval(2.0), 4.0);
        // Between 2 and 4, linear between 4 and 16.
        assert_eq!(f.eval(3.0), 10.0);
    }
}
