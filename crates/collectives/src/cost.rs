//! One cost per question: what a rooted collective costs under a model
//! ([`cost`]) and which algorithm that cost picks ([`choose`], the argmin
//! over the model's candidates). The service's `predict` and `select`, the
//! workload planner, [`crate::TunedCollectives`] and `cpm predict` read
//! nothing else.
//!
//! * **LMO and hierarchical LMO:** the emitted program, run untraced on the
//!   model's [`Machine`], whose profile carries the estimated `M1`/`M2` — a
//!   fan-in of `M ≥ M2` serializes at the receiver, as eq. (5) says — plus
//!   the model's one stochastic part as one named term: eq. (5)'s expected
//!   escalation `p(M)·magnitude` for a linear gather or reduce in
//!   `[M1, M2)`, where eq. (5) says "medium" and the machine does not
//!   serialize.
//! * **Hockney, LogGP and PLogP** cannot separate processors from network:
//!   the model's own closed form — Table II's linear formula, the eq. (1)
//!   recursion for a binomial tree (per block for scatter/gather, the full
//!   message for broadcast/reduce), plus a reduce's combines.

use cpm_cluster::{GroundTruth, MpiProfile};
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_models::collective::{binomial_recursive, binomial_recursive_full};
use cpm_models::{GatherEmpirics, HierLmo, HockneyHet, LmoExtended, LogGp, PLogP};
use cpm_netsim::{run_script, SimCluster};

use crate::measure::programs;
use crate::{
    binomial_bcast, binomial_gather, binomial_reduce, binomial_scatter, linear_bcast,
    linear_gather, linear_reduce, linear_scatter, two_phase_bcast, two_phase_reduce, Algorithm,
    Sink,
};

/// The kernel's clamp and its bound, re-exported for the callers that
/// price a model's times before the kernel charges them.
pub use cpm_netsim::{clamp, MAX_DURATION};

/// A rooted collective, as a cost sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rooted {
    /// One distinct `m`-byte block per rank, from the root.
    Scatter,
    /// One `m`-byte block per rank, to the root.
    Gather,
    /// The same `m` bytes to every rank.
    Bcast,
    /// An `m`-byte vector per rank combined at the root, `gamma` seconds
    /// per byte per combine.
    Reduce {
        /// Per-byte combine cost, seconds.
        gamma: f64,
    },
}

/// One rooted collective to price.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// Which collective.
    pub kind: Rooted,
    /// Its root rank.
    pub root: Rank,
    /// Message size, bytes (the per-rank block of a scatter or gather).
    pub m: Bytes,
}

/// The algorithm `alg` runs as for `kind` on `n` ranks: two-phase exists
/// for broadcast and reduce with a group size in `1..n`; anything else that
/// is not binomial runs linear.
fn effective(n: usize, kind: Rooted, alg: Algorithm) -> Algorithm {
    match (kind, alg) {
        (_, Algorithm::Binomial) => alg,
        (Rooted::Bcast | Rooted::Reduce { .. }, Algorithm::TwoPhase { intra })
            if intra > 0 && intra < n =>
        {
            alg
        }
        _ => Algorithm::Linear,
    }
}

/// Emits `op` on `n` ranks under `alg` into `sink` and returns the
/// algorithm emitted (what has no such form runs linear). The one place a
/// rooted collective becomes a program: the workload lowering,
/// [`crate::TunedCollectives`] and the [`Machine`] all emit through it.
///
/// # Panics
/// Panics if the root is out of range.
pub fn emit_rooted(n: usize, op: Op, alg: Algorithm, sink: impl Sink) -> Algorithm {
    let Op { kind, root, m } = op;
    let tree = || BinomialTree::new(n, root);
    let alg = effective(n, kind, alg);
    match (kind, alg) {
        (Rooted::Scatter, Algorithm::Binomial) => binomial_scatter(&tree(), m, sink),
        (Rooted::Scatter, _) => linear_scatter(n, root, m, sink),
        (Rooted::Gather, Algorithm::Binomial) => binomial_gather(&tree(), m, sink),
        (Rooted::Gather, _) => linear_gather(n, root, m, sink),
        (Rooted::Bcast, Algorithm::Binomial) => binomial_bcast(&tree(), m, sink),
        (Rooted::Bcast, Algorithm::TwoPhase { intra }) => two_phase_bcast(n, root, m, intra, sink),
        (Rooted::Bcast, _) => linear_bcast(n, root, m, sink),
        (Rooted::Reduce { gamma }, Algorithm::Binomial) => binomial_reduce(&tree(), m, gamma, sink),
        (Rooted::Reduce { gamma }, Algorithm::TwoPhase { intra }) => {
            two_phase_reduce(n, root, m, gamma, intra, sink)
        }
        (Rooted::Reduce { gamma }, _) => linear_reduce(n, root, m, gamma, sink),
    }
    alg
}

/// A separable model set up as the one machine: the noise-free,
/// single-switch [`SimCluster`] whose ground truth is the model's
/// `(C, t, L, β)` — the model's own link matrices, shared, not copied; the
/// kernel charges every parameter through [`clamp`] — and whose profile
/// carries the model's `M1`/`M2` with escalations and the leap off
/// (`MpiProfile::ideal()` when the model has no gather empirics). The
/// workload planner runs whole traces on [`Machine::cluster`]; [`cost`]
/// runs one collective.
#[derive(Clone, Debug)]
pub struct Machine {
    cluster: SimCluster,
    gather: GatherEmpirics,
    /// The two-phase group size the chooser offers (hierarchical models).
    intra: Option<usize>,
}

impl Machine {
    /// The machine of a flat extended-LMO parameter set.
    pub fn lmo(model: &LmoExtended) -> Self {
        Machine::new(
            &model.c,
            &model.t,
            &model.l,
            &model.beta,
            model.gather.clone(),
        )
    }

    /// The machine of a cluster's own ground truth, without empirics: the
    /// LMO model a dispatcher that knew the truth would rank candidates on.
    pub fn truth(truth: &GroundTruth) -> Self {
        Machine::new(
            &truth.c,
            &truth.t,
            &truth.l,
            &truth.beta,
            GatherEmpirics::none(),
        )
    }

    fn new(
        c: &[f64],
        t: &[f64],
        l: &SymMatrix<f64>,
        beta: &SymMatrix<f64>,
        gather: GatherEmpirics,
    ) -> Self {
        let truth = GroundTruth {
            c: c.to_vec(),
            t: t.to_vec(),
            l: l.clone(),
            beta: beta.clone(),
        };
        let profile = MpiProfile {
            m1: gather.m1,
            m2: gather.m2,
            ..MpiProfile::ideal()
        };
        Machine {
            cluster: SimCluster::new(truth, profile, 0.0, 0),
            gather,
            intra: None,
        }
    }

    /// The machine of a hierarchical parameter set: its lossless fold into
    /// the flat model, offering two-phase schedules over the model's
    /// natural intra-group size.
    pub fn hier(model: &HierLmo) -> Self {
        let (n, intra) = (model.n(), model.intra_size());
        Machine {
            intra: (intra > 1 && intra < n).then_some(intra),
            ..Machine::lmo(&model.to_extended())
        }
    }

    /// The cluster the model's programs run on.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Eq. (5)'s expected escalation for a linear fan-in in `[M1, M2)`;
    /// zero for anything else.
    fn escalation(&self, op: Op, alg: Algorithm) -> f64 {
        let g = &self.gather;
        let fan_in = matches!(op.kind, Rooted::Gather | Rooted::Reduce { .. });
        if fan_in && alg == Algorithm::Linear && op.m >= g.m1 && op.m < g.m2 {
            g.probability_at(op.m) * g.escalation_magnitude
        } else {
            0.0
        }
    }

    /// The emitted program's completion time (untraced); infinite if it
    /// cannot complete.
    fn run(&self, op: Op, alg: Algorithm) -> f64 {
        let n = self.cluster.n();
        let per_rank = programs(n, |sink| {
            emit_rooted(n, op, alg, sink);
        });
        run_script(&self.cluster, &per_rank).map_or(f64::INFINITY, |out| out.end_time)
    }
}

/// A model ready to price rooted collectives. (Built once per question
/// and never stored in bulk, so the machine is held inline.)
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum CostModel<'a> {
    /// LMO or hierarchical LMO: priced on the model's machine.
    Machine(Machine),
    /// Heterogeneous Hockney: closed forms.
    Hockney(&'a HockneyHet),
    /// LogGP: closed forms.
    Loggp(&'a LogGp),
    /// PLogP: closed forms.
    Plogp(&'a PLogP),
}

impl CostModel<'_> {
    /// Number of ranks the model describes.
    pub fn n(&self) -> usize {
        match self {
            CostModel::Machine(m) => m.cluster.n(),
            CostModel::Hockney(h) => h.alpha.n(),
            CostModel::Loggp(g) => g.p,
            CostModel::Plogp(p) => p.p,
        }
    }

    /// The algorithms [`choose`] ranks for `kind`, in tie-breaking order
    /// (the simpler algorithm wins a tie): linear, binomial, and two-phase
    /// for broadcast and reduce on a hierarchical machine.
    pub fn candidates(&self, kind: Rooted) -> impl Iterator<Item = Algorithm> {
        let two_phase = match (self, kind) {
            (CostModel::Machine(m), Rooted::Bcast | Rooted::Reduce { .. }) => {
                m.intra.map(|intra| Algorithm::TwoPhase { intra })
            }
            _ => None,
        };
        [Algorithm::Linear, Algorithm::Binomial]
            .into_iter()
            .chain(two_phase)
    }
}

/// The cost of `op` under `model` with `alg`, seconds (see the module
/// docs). A whole-transfer model has no two-phase form and prices one as
/// never worth choosing (infinite).
///
/// # Panics
/// Panics if the root is out of range.
pub fn cost(model: &CostModel<'_>, op: Op, alg: Algorithm) -> f64 {
    let alg = effective(model.n(), op.kind, alg);
    match model {
        CostModel::Machine(machine) => machine.run(op, alg) + machine.escalation(op, alg),
        CostModel::Hockney(h) => closed_form(*h, &|| h.linear_serial(op.root, op.m), op, alg),
        CostModel::Loggp(g) => closed_form(*g, &|| g.linear(op.m), op, alg),
        CostModel::Plogp(p) => closed_form(*p, &|| p.linear(op.m), op, alg),
    }
}

/// A whole-transfer model's cost: its `linear` formula, or the eq. (1)
/// recursion over its point-to-point times, plus a reduce's combines.
fn closed_form(p2p: &dyn PointToPoint, linear: &dyn Fn() -> f64, op: Op, alg: Algorithm) -> f64 {
    let n = p2p.n();
    let tree = || BinomialTree::new(n, op.root);
    // A reduce combines `n − 1` times at the root of the linear form, once
    // per tree level on the binomial one's critical path.
    let (seconds, combines) = match (alg, op.kind) {
        (Algorithm::Linear, _) => (linear(), n as f64 - 1.0),
        (Algorithm::Binomial, Rooted::Scatter | Rooted::Gather) => {
            (binomial_recursive(p2p, &tree(), op.m), 0.0)
        }
        (Algorithm::Binomial, _) => {
            let tree = tree();
            (
                binomial_recursive_full(p2p, &tree, op.m),
                tree.height() as f64,
            )
        }
        _ => return f64::INFINITY,
    };
    match op.kind {
        Rooted::Reduce { gamma } => seconds + combines * (gamma * op.m as f64),
        _ => seconds,
    }
}

/// The chooser's rule over priced candidates, given in tie-breaking order:
/// a later candidate replaces the pick unless the pick costs no more — for
/// two candidates, "linear if linear ≤ binomial".
///
/// # Panics
/// Panics if there is no candidate.
pub fn cheapest<A>(priced: impl IntoIterator<Item = (A, f64)>) -> A {
    let pick = priced
        .into_iter()
        .reduce(|best, next| if best.1 <= next.1 { best } else { next });
    pick.expect("at least one candidate").0
}

/// The algorithm `model` predicts fastest for `op`: [`cheapest`] over its
/// [`CostModel::candidates`], each priced by [`cost`].
pub fn choose(model: &CostModel<'_>, op: Op) -> Algorithm {
    cheapest(
        model
            .candidates(op.kind)
            .map(|alg| (alg, cost(model, op, alg))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::matrix::SymMatrix;
    use cpm_models::collective::binomial_recursive_full;

    /// A whole-transfer broadcast moves the full message along every arc;
    /// a scatter moves sub-tree blocks. The two binomial costs differ past
    /// two ranks and the broadcast's is the full-message recursion.
    #[test]
    fn whole_transfer_bcast_is_the_full_message_recursion() {
        for n in [2usize, 4, 7, 16] {
            let h = HockneyHet::new(SymMatrix::filled(n, 90e-6), SymMatrix::filled(n, 1e-7));
            let model = CostModel::Hockney(&h);
            let root = Rank(1 % n as u32);
            let op = |kind| Op {
                kind,
                root,
                m: 4096,
            };
            let bcast = cost(&model, op(Rooted::Bcast), Algorithm::Binomial);
            let scatter = cost(&model, op(Rooted::Scatter), Algorithm::Binomial);
            let full = binomial_recursive_full(&h, &BinomialTree::new(n, root), 4096);
            assert_eq!(bcast.to_bits(), full.to_bits(), "n = {n}");
            assert_eq!(n > 2, bcast != scatter, "n = {n}: {bcast} vs {scatter}");
        }
    }

    #[test]
    fn ties_go_to_the_earlier_candidate() {
        let (lin, bin) = (Algorithm::Linear, Algorithm::Binomial);
        assert_eq!(cheapest([(lin, 1.0), (bin, 1.0)]), lin);
        assert_eq!(cheapest([(lin, 1.0), (bin, 0.5)]), bin);
        assert_eq!(cheapest([(lin, 1.0), (bin, 2.0)]), lin);
    }
}
