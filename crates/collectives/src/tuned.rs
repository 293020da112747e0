//! Model-tuned collectives — the runtime the paper's companion software
//! tool \[13\] provides: estimate the LMO model once, then dispatch every
//! collective call to the algorithm the model predicts fastest, with the
//! gather-splitting optimization applied automatically in the escalation
//! region.
//!
//! This is the downstream-facing API of the reproduction: a user who only
//! wants faster collectives constructs [`TunedCollectives`] from an
//! estimated model and calls `scatter`/`gather`/`bcast`.

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_models::LmoExtended;

use crate::cost::{choose, emit_rooted, CostModel, Machine, Op, Rooted};
use crate::optimized::optimized_gather;
use crate::{Algorithm, Sink};

/// A collective dispatcher backed by an estimated LMO model.
///
/// Decisions are made from the model alone (no runtime search): every
/// collective runs the algorithm [`crate::cost::choose`] picks on the
/// model's machine; gather additionally splits medium messages to dodge
/// escalations.
#[derive(Clone, Debug)]
pub struct TunedCollectives {
    model: LmoExtended,
    costs: CostModel<'static>,
}

impl TunedCollectives {
    /// Builds the dispatcher from pre-fitted parameters — e.g. loaded from
    /// a parameter registry (`cpm-serve`) or a persisted model file.
    pub fn new(model: LmoExtended) -> Self {
        let costs = CostModel::Machine(Machine::lmo(&model));
        TunedCollectives { model, costs }
    }

    /// The estimated model backing the decisions.
    pub fn model(&self) -> &LmoExtended {
        &self.model
    }

    fn n(&self) -> usize {
        self.model.c.len()
    }

    /// The chooser's pick for `kind` at `(root, m)`, as the op it prices.
    fn pick(&self, kind: Rooted, root: Rank, m: Bytes) -> (Op, Algorithm) {
        let op = Op { kind, root, m };
        (op, choose(&self.costs, op))
    }

    /// The algorithm scatter will use at `(root, m)`.
    pub fn scatter_choice(&self, root: Rank, m: Bytes) -> Algorithm {
        self.pick(Rooted::Scatter, root, m).1
    }

    /// The algorithm broadcast will use at `(root, m)`.
    pub fn bcast_choice(&self, root: Rank, m: Bytes) -> Algorithm {
        self.pick(Rooted::Bcast, root, m).1
    }

    /// `true` when gather at size `m` will be split into sub-`M1` pieces.
    pub fn gather_splits(&self, m: Bytes) -> bool {
        crate::optimized::split_count(m, &self.model.gather) > 1
    }

    fn emit(&self, kind: Rooted, root: Rank, m: Bytes, sink: impl Sink) {
        let (op, alg) = self.pick(kind, root, m);
        emit_rooted(self.n(), op, alg, sink);
    }

    /// Model-tuned scatter: emits the chosen algorithm's program.
    pub fn scatter(&self, root: Rank, m: Bytes, sink: impl Sink) {
        self.emit(Rooted::Scatter, root, m, sink)
    }

    /// Model-tuned gather: split inside the irregular region, otherwise
    /// the chosen algorithm.
    pub fn gather(&self, root: Rank, m: Bytes, sink: impl Sink) {
        if self.gather_splits(m) {
            return optimized_gather(self.n(), root, m, &self.model.gather, sink);
        }
        self.emit(Rooted::Gather, root, m, sink)
    }

    /// Model-tuned broadcast: emits the chosen algorithm's program.
    pub fn bcast(&self, root: Rank, m: Bytes, sink: impl Sink) {
        self.emit(Rooted::Bcast, root, m, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::collective_times;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::matrix::SymMatrix;
    use cpm_core::units::KIB;
    use cpm_models::GatherEmpirics;
    use cpm_netsim::SimCluster;
    use cpm_stats::Summary;

    fn cluster(profile: MpiProfile) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2);
        SimCluster::new(truth, profile, 0.0, 21)
    }

    /// A model matching the simulated cluster closely enough for decisions
    /// (built from ground truth — decision quality with *estimated* models
    /// is covered by the integration tests).
    fn tuned(cl: &SimCluster) -> TunedCollectives {
        let profile = &cl.profile;
        let gather = if profile.m2 == u64::MAX {
            GatherEmpirics::none()
        } else {
            GatherEmpirics {
                m1: profile.m1,
                m2: profile.m2,
                escalation_probability: 0.5,
                escalation_magnitude: 0.18,
                escalation_prob_knots: Vec::new(),
            }
        };
        TunedCollectives::new(cpm_models::LmoExtended::new(
            cl.truth.c.clone(),
            cl.truth.t.clone(),
            cl.truth.l.clone(),
            cl.truth.beta.clone(),
            gather,
        ))
    }

    #[test]
    fn scatter_choice_flips_with_size() {
        let cl = cluster(MpiProfile::ideal());
        let t = tuned(&cl);
        assert_eq!(t.scatter_choice(Rank(0), 32), Algorithm::Binomial);
        assert_eq!(t.scatter_choice(Rank(0), 128 * KIB), Algorithm::Linear);
    }

    #[test]
    fn bcast_choice_flips_with_size() {
        let cl = cluster(MpiProfile::ideal());
        let t = tuned(&cl);
        assert_eq!(t.bcast_choice(Rank(0), 64), Algorithm::Binomial);
        assert_eq!(t.bcast_choice(Rank(0), 256 * KIB), Algorithm::Linear);
    }

    #[test]
    fn tuned_scatter_never_loses_badly_to_either_fixed_algorithm() {
        let cl = cluster(MpiProfile::ideal());
        let t = tuned(&cl);
        for m in [64u64, 4 * KIB, 64 * KIB, 192 * KIB] {
            let tuned_t = collective_times(&cl, 1, 1, |e| t.scatter(Rank(0), m, e)).unwrap()[0];
            let lin = crate::measure::linear_scatter_once(&cl, Rank(0), m);
            let bin = crate::measure::binomial_scatter_once(&cl, Rank(0), m);
            let best = lin.min(bin);
            assert!(
                tuned_t <= best * 1.05,
                "m={m}: tuned {tuned_t} vs best fixed {best}"
            );
        }
    }

    #[test]
    fn tuned_gather_dodges_escalations() {
        let cl = cluster(MpiProfile::lam_7_1_3());
        let t = tuned(&cl);
        let m = 32 * KIB;
        assert!(t.gather_splits(m));
        let reps = 16;
        let tuned_times = collective_times(&cl, reps, 5, |e| t.gather(Rank(0), m, e)).unwrap();
        let native = crate::measure::linear_gather_times(&cl, Rank(0), m, reps, 5).unwrap();
        let tuned_mean = Summary::of(&tuned_times).mean();
        let native_mean = Summary::of(&native).mean();
        assert!(
            native_mean > 3.0 * tuned_mean,
            "tuned {tuned_mean} vs native {native_mean}"
        );
    }

    #[test]
    fn tuned_gather_plain_outside_region() {
        let cl = cluster(MpiProfile::lam_7_1_3());
        let t = tuned(&cl);
        assert!(!t.gather_splits(2 * KIB));
        assert!(!t.gather_splits(100 * KIB));
    }

    #[test]
    fn model_accessor_exposes_parameters() {
        let model = cpm_models::LmoExtended::new(
            vec![40e-6; 4],
            vec![7e-9; 4],
            SymMatrix::filled(4, 40e-6),
            SymMatrix::filled(4, 12e6),
            GatherEmpirics::none(),
        );
        let t = TunedCollectives::new(model.clone());
        assert_eq!(t.model(), &model);
    }
}
