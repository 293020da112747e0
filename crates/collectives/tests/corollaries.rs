//! Every closed form that survives beside the programs is a *stated
//! corollary* of its program: on an ideal cluster whose ground truth is the
//! model's `(C, t, L, β)`, the formula either **equals** what the one
//! machine does with the lowered collective (≤ 1e-12 relative), or bounds
//! it in a stated direction for a stated reason. One property per formula,
//! over random heterogeneous parameters, roots and sizes; "worst gap" is the
//! largest `closed / machine` seen over 3 000 such draws (n ≤ 12, C ∈
//! [10, 100] µs, t ∈ [1, 20] ns/B, L ∈ [10, 100] µs, β ∈ [5, 100] MB/s,
//! m ≤ 200 KB; for eq. (5)'s empirical regimes also M1 ∈ [1, 30] KB and
//! M2 − M1 ≤ 120 KB). None of them is *served*: what `predict`, `select`,
//! the planner and `TunedCollectives` read is `cpm_collectives::cost`, the
//! machine itself for LMO.
//!
//! What comes out (ROADMAP item 2(b)):
//!
//! * **exact, always:** `LmoExtended::binomial_scatter` against the binomial
//!   scatter — the refined recursion *is* the machine's schedule; and the
//!   served LMO linear gather below `M2`: the machine (which does not
//!   serialize there) plus eq. (5)'s expected escalation in `[M1, M2)`;
//! * **exact on homogeneous parameters, an upper bound otherwise:** eq. (4)
//!   linear scatter (×1.76), eq. (5) small-message linear gather (×1.83),
//!   `ring_allgather_overlap` (×1.74),
//!   `binomial_scatter` read as a gather prediction (×1.47);
//! * **upper bounds even when homogeneous** (exact at n = 2): the generic
//!   recursions of eq. (1), `binomial_recursive{,_full}` (×2.27: a full
//!   point-to-point time per level, no overlap of a parent's later sends
//!   with its children's sub-trees), `ring_allgather` (×2.55: odd rings
//!   finish a phase early), eq. (5)'s large-message linear gather against
//!   the machine whose root ingress serializes it (×2.87: it sums every
//!   sender's tail, the machine overlaps them with the queue);
//! * **neither bound on heterogeneous parameters** (exact when
//!   homogeneous): `rotation_alltoall` (−10 % … ×2.23).
//!
//! These tests replace `crates/models/tests/collective_des.rs`, which kept a
//! fourth copy of three algorithms to compare the same formulas "within
//! 5–15 %".

use cpm_cluster::{GroundTruth, MpiProfile};
use cpm_collectives::cost::{cost, CostModel, Machine, Op, Rooted};
use cpm_collectives::measure::programs;
use cpm_collectives::*;
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_models::collective as closed_form;
use cpm_models::{GatherEmpirics, LmoExtended};
use cpm_netsim::{run_script, ScriptOp, SimCluster};
use proptest::prelude::*;

/// SplitMix64 → uniform draws: one `u64` from proptest expands into a
/// whole parameter set.
struct Draw(u64);

impl Draw {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A flat LMO model with random parameters — per node and per link, or one
/// value for all when `homogeneous` — and the ideal, noise-free cluster
/// whose ground truth it is.
fn flat(n: usize, seed: u64, homogeneous: bool) -> (LmoExtended, SimCluster) {
    let mut d = Draw(seed);
    let shared = [d.unit(), d.unit(), d.unit(), d.unit()];
    let mut pick = |k: usize, lo: f64, hi: f64| {
        let u = if homogeneous { shared[k] } else { d.unit() };
        lo + (hi - lo) * u
    };
    let c: Vec<f64> = (0..n).map(|_| pick(0, 10e-6, 100e-6)).collect();
    let t: Vec<f64> = (0..n).map(|_| pick(1, 1e-9, 20e-9)).collect();
    let l = SymMatrix::from_fn(n, |_, _| pick(2, 10e-6, 100e-6));
    let beta = SymMatrix::from_fn(n, |_, _| pick(3, 5e6, 1e8));
    let model = LmoExtended::new(c, t, l, beta, GatherEmpirics::none());
    (model.clone(), cluster_of(&model))
}

fn cluster_of(model: &LmoExtended) -> SimCluster {
    let truth = GroundTruth {
        c: model.c.clone(),
        t: model.t.clone(),
        l: model.l.clone(),
        beta: model.beta.clone(),
    };
    SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
}

/// What the one machine does with a lowered collective: its completion
/// time on `cl`.
fn machine(cl: &SimCluster, emit: impl FnOnce(&mut dyn FnMut(Rank, ScriptOp))) -> f64 {
    run_script(cl, &programs(cl.n(), emit)).unwrap().end_time
}

const EXACT: f64 = 1e-12;

fn exact(closed: f64, machine: f64) -> bool {
    (closed - machine).abs() <= EXACT * machine.max(closed)
}

/// `closed` is an upper bound on `machine`, and within `worst` of it.
fn bounds_above(closed: f64, machine: f64, worst: f64) -> bool {
    closed >= machine * (1.0 - EXACT) && closed <= machine * worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// **Eq. (4), linear scatter:** `(n−1)(C_r + M·t_r) + max_i tail_i`. The
    /// machine serializes the root's tx slots and lets each transfer's tail
    /// run in parallel, so destination `k` (in send order) is done at
    /// `k·slot + tail_k` and the scatter at the maximum of those — exactly.
    /// Eq. (4) charges *all* slots before the *slowest* tail: equal when the
    /// slowest tail is the last destination's (always, if homogeneous),
    /// an upper bound otherwise — early transfers overlap later tx slots.
    /// Worst gap ×1.76.
    #[test]
    fn eq4_linear_scatter_is_exact_when_homogeneous_and_an_upper_bound_otherwise(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000, root in 0usize..12,
    ) {
        let root = Rank::from(root % n);
        for homogeneous in [true, false] {
            let (model, cl) = flat(n, seed, homogeneous);
            let observed = machine(&cl, |e| linear_scatter(n, root, m, e));
            let eq4 = model.linear_scatter(root, m);
            prop_assert!(bounds_above(eq4, observed, 2.0), "eq4 {eq4} vs {observed}");
            prop_assert!(!homogeneous || exact(eq4, observed), "eq4 {eq4} vs {observed}");
            // The sums and maxima the machine realizes, term by term.
            let slot = model.c[root.idx()] + m as f64 * model.t[root.idx()];
            let others = (0..n).filter(|&i| i != root.idx()).map(Rank::from);
            let sharpened = others
                .enumerate()
                .map(|(k, i)| {
                    (k + 1) as f64 * slot + model.time(root, i, m) - slot
                })
                .fold(0.0, f64::max);
            prop_assert!(exact(sharpened, observed), "{sharpened} vs {observed}");
        }
    }

    /// **Eq. (5), linear gather below `M1`:** `(n−1)(C_r + M·t_r) + max_i
    /// tail_i`. All senders start together, so the root's rx engine starts
    /// on the *first* arrival and idles whenever the next one is late; the
    /// formula starts the serial part after the *slowest* tail. Exact when
    /// homogeneous (arrivals coincide), an upper bound otherwise. Worst gap
    /// ×1.83.
    #[test]
    fn eq5_small_gather_is_exact_when_homogeneous_and_an_upper_bound_otherwise(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000, root in 0usize..12,
    ) {
        let root = Rank::from(root % n);
        for homogeneous in [true, false] {
            let (model, cl) = flat(n, seed, homogeneous);
            let observed = machine(&cl, |e| linear_gather(n, root, m, e));
            let eq5 = model.linear_gather(root, m).expected;
            prop_assert!(bounds_above(eq5, observed, 2.0), "eq5 {eq5} vs {observed}");
            prop_assert!(!homogeneous || exact(eq5, observed), "eq5 {eq5} vs {observed}");
        }
    }

    /// **`LmoExtended::binomial_scatter`** — consecutive sends serialize on
    /// the processor, transfers and sub-trees proceed in parallel — is the
    /// machine's schedule of the binomial scatter: **exact**, for every
    /// parameter set, root and size. Read upward as a binomial *gather*
    /// prediction (as the service once served it) it is exact when
    /// homogeneous and an upper bound otherwise (worst gap ×1.47): a
    /// parent's rx engine takes children in arrival order, not the reverse
    /// of the scatter's send order.
    #[test]
    fn lmo_binomial_scatter_is_the_machine(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000, root in 0usize..12,
    ) {
        let tree = BinomialTree::new(n, Rank::from(root % n));
        for homogeneous in [true, false] {
            let (model, cl) = flat(n, seed, homogeneous);
            let refined = model.binomial_scatter(&tree, m);
            let scatter = machine(&cl, |e| binomial_scatter(&tree, m, e));
            prop_assert!(exact(refined, scatter), "{refined} vs {scatter}");
            let gather = machine(&cl, |e| binomial_gather(&tree, m, e));
            prop_assert!(bounds_above(refined, gather, 1.6), "{refined} vs gather {gather}");
            prop_assert!(!homogeneous || exact(refined, gather), "{refined} vs gather {gather}");
        }
    }

    /// **Eq. (1), `binomial_recursive` and `binomial_recursive_full`:** a
    /// full point-to-point time per tree level, the two halves in parallel.
    /// A model that cannot separate processor from network can do no
    /// better, and the machine does: a parent's next send starts when its
    /// tx slot ends, not when the child has received. Upper bounds, also
    /// when homogeneous (equal only for n = 2); worst gap ×2.27.
    #[test]
    fn eq1_binomial_recursions_are_upper_bounds(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000, root in 0usize..12,
        homogeneous in any::<bool>(),
    ) {
        let tree = BinomialTree::new(n, Rank::from(root % n));
        let (model, cl) = flat(n, seed, homogeneous);
        let scatter = machine(&cl, |e| binomial_scatter(&tree, m, e));
        let blocks = closed_form::binomial_recursive(&model, &tree, m);
        prop_assert!(bounds_above(blocks, scatter, 2.6), "{blocks} vs {scatter}");
        let bcast = machine(&cl, |e| binomial_bcast(&tree, m, e));
        let full = closed_form::binomial_recursive_full(&model, &tree, m);
        prop_assert!(bounds_above(full, bcast, 2.6), "{full} vs {bcast}");
        prop_assert!(n > 2 || (exact(blocks, scatter) && exact(full, bcast)));
    }

    /// **`ring_allgather`:** `(n−1)·2·max_r T(r, r+1)` — two phases per
    /// step, each at the pace of the slowest neighbour pair. An upper bound
    /// (worst gap ×2.55); exact on an even homogeneous ring, where both
    /// phases are full; an odd ring's wrap-around pair lets a phase finish
    /// early (×1.33 at n = 3).
    #[test]
    fn blocking_ring_prediction_is_an_upper_bound(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000, homogeneous in any::<bool>(),
    ) {
        let (model, cl) = flat(n, seed, homogeneous);
        let observed = machine(&cl, |e| ring_allgather(n, m, e));
        let predicted = closed_form::ring_allgather(&model, m);
        prop_assert!(bounds_above(predicted, observed, 2.8), "{predicted} vs {observed}");
        prop_assert!(!(homogeneous && n % 2 == 0) || exact(predicted, observed));
    }

    /// **`ring_allgather_overlap`:** `(n−1)·max_r T(r, r+1)`. With
    /// `Isend → Recv → WaitSend` a rank's step ends when its left
    /// neighbour's block has arrived, so step `k` ends no later than `k`
    /// slowest-neighbour transfers: an upper bound (worst gap ×1.74), exact
    /// when homogeneous.
    #[test]
    fn overlapped_ring_is_exact_when_homogeneous_and_an_upper_bound_otherwise(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000,
    ) {
        for homogeneous in [true, false] {
            let (model, cl) = flat(n, seed, homogeneous);
            let observed = machine(&cl, |e| ring_allgather_overlap(n, m, e));
            let predicted = closed_form::ring_allgather_overlap(&model, m);
            prop_assert!(bounds_above(predicted, observed, 2.0), "{predicted} vs {observed}");
            prop_assert!(!homogeneous || exact(predicted, observed), "{predicted} vs {observed}");
        }
    }

    /// **`rotation_alltoall`:** `Σ_k max_r T(r, r+k)` — rounds serialize,
    /// pairs within a round run in parallel. Exact when homogeneous. With
    /// heterogeneous parameters it is **neither bound**: a fast rank runs
    /// ahead and its round-`k+1` block reaches a receiver's rx engine before
    /// a slow rank's round-`k` block, which then waits a slot the formula
    /// does not have (seen down to −10 %), while slow pairs of different
    /// rounds that never meet make the per-round maxima pessimistic (up to
    /// ×2.23).
    #[test]
    fn rotation_alltoall_is_exact_when_homogeneous_and_within_a_band_otherwise(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000,
    ) {
        let (model, cl) = flat(n, seed, true);
        let observed = machine(&cl, |e| rotation_alltoall(n, m, e));
        let predicted = closed_form::rotation_alltoall(&model, m);
        prop_assert!(exact(predicted, observed), "{predicted} vs {observed}");
        let (model, cl) = flat(n, seed, false);
        let observed = machine(&cl, |e| rotation_alltoall(n, m, e));
        let predicted = closed_form::rotation_alltoall(&model, m);
        prop_assert!(
            predicted >= 0.8 * observed && predicted <= 2.5 * observed,
            "{predicted} vs {observed}"
        );
    }

    /// **Eq. (5)'s empirical regimes, on the machine that carries them.**
    /// `cost` runs an LMO model on its machine, whose profile carries the
    /// model's `M1`/`M2`. Below `M2` the machine does not serialize a
    /// fan-in — it is, bit for bit, the machine without the empirics — and
    /// what is served for a linear gather is that run plus eq. (5)'s
    /// expected escalation `p·magnitude` inside `[M1, M2)`, exactly. At
    /// `M ≥ M2` the root's ingress admits one transfer at a time and the
    /// served value is the run alone; eq. (5)'s large-regime form, the
    /// serial root part plus the *sum* of every sender's tail, is then an
    /// upper bound on it, exact at `n = 2` — the machine overlaps the
    /// senders' processing and latency with the queue. Worst gap ×2.87
    /// (×1.175 on the paper's estimated LAM set at 100 KiB).
    #[test]
    fn eq5_empirical_regimes_are_the_machine_plus_one_term(
        n in 2usize..13, seed in any::<u64>(), m in 0u64..200_000, root in 0usize..12,
        homogeneous in any::<bool>(),
    ) {
        let root = Rank::from(root % n);
        let (mut model, ideal) = flat(n, seed, homogeneous);
        let mut d = Draw(seed.rotate_left(7));
        let m1 = d.range(1e3, 3e4) as Bytes;
        model.gather = GatherEmpirics {
            m1,
            m2: m1 + d.range(1.0, 1.2e5) as Bytes,
            escalation_probability: d.unit(),
            escalation_magnitude: d.range(0.05, 0.3),
            escalation_prob_knots: Vec::new(),
        };
        let g = model.gather.clone();
        let lmo = Machine::lmo(&model);
        let on_machine = machine(lmo.cluster(), |e| linear_gather(n, root, m, e));
        let op = Op { kind: Rooted::Gather, root, m };
        let served = cost(&CostModel::Machine(lmo), op, Algorithm::Linear);
        if m < g.m2 {
            let plain = machine(&ideal, |e| linear_gather(n, root, m, e));
            prop_assert_eq!(on_machine.to_bits(), plain.to_bits());
            let term = if m >= g.m1 { g.escalation_probability * g.escalation_magnitude } else { 0.0 };
            prop_assert_eq!(served.to_bits(), (on_machine + term).to_bits());
        } else {
            prop_assert_eq!(served.to_bits(), on_machine.to_bits());
            let eq5 = model.linear_gather(root, m).expected;
            if m > g.m2 {
                prop_assert!(bounds_above(eq5, on_machine, 3.0), "eq5 {eq5} vs {on_machine}");
                prop_assert!(n > 2 || exact(eq5, on_machine), "eq5 {eq5} vs {on_machine}");
            }
        }
    }
}
