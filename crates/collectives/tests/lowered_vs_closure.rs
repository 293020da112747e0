//! Differential oracle: every collective's [`ScriptOp`] program reproduces,
//! **to the bit**, the closure-on-rank-threads implementation it replaced.
//!
//! Until PR 22 each algorithm existed twice in executable form — a closure
//! over `cpm_vmpi::Comm` here and a lowering in `cpm-workload` whose
//! comments said it "mirrored" the closure. The closures are gone from the
//! library; their bodies live on below, verbatim, as *reference code* over
//! `cpm_vmpi::run`, and every program is compared against them: per-
//! repetition completion times (`to_bits`), the run's `end_time`, and the
//! kernel counters (messages sent/delivered/received, DES events — so an
//! `Isend` provably costs no extra event), on a LAM-profile cluster with
//! 1 % measurement noise (escalations, the 64 KB leap, `M2` serialization
//! and the noise stream's draw order all in play) and on ideal
//! heterogeneous clusters cut from the paper cluster.
//!
//! One deliberate difference from the deleted closures: they issued the
//! combine `compute` even when it was zero seconds long (one more
//! same-instant wake, no noise draw); the programs never do (see
//! `cpm_collectives::gather`), and neither does the reference below. With
//! it issued, an `m = 0` reduce still agrees on every time; only the event
//! counter moves, by that wake.

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_collectives::cost::{choose, CostModel, Machine, Op, Rooted};
use cpm_collectives::measure::{collective_times, programs};
use cpm_collectives::optimized::split_count;
use cpm_collectives::{Algorithm, TunedCollectives};
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::{Bytes, KIB};
use cpm_models::{GatherEmpirics, LmoExtended};
use cpm_netsim::{run_script, ScriptOp, SimCluster};
use cpm_vmpi::{run, Comm};

/// The closure collectives as they stood in `crates/collectives/src` before
/// they were deleted.
mod reference {
    use super::*;

    pub fn linear_scatter(c: &mut Comm<'_>, root: Rank, m: Bytes) {
        let n = c.size();
        if c.rank() == root {
            for i in 0..n {
                if i != root.idx() {
                    c.send(Rank::from(i), m);
                }
            }
        } else {
            let _ = c.recv(root);
        }
    }

    pub fn binomial_scatter(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes) {
        let me = c.rank();
        if let Some(parent) = tree.parent_of(me) {
            let _ = c.recv(parent);
        }
        for (child, blocks) in tree.children_of(me) {
            c.send(child, blocks.saturating_mul(m));
        }
    }

    pub fn linear_gather(c: &mut Comm<'_>, root: Rank, m: Bytes) {
        let n = c.size();
        if c.rank() == root {
            for i in 0..n {
                if i != root.idx() {
                    let _ = c.recv(Rank::from(i));
                }
            }
        } else {
            c.send(root, m);
        }
    }

    pub fn binomial_gather(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes) {
        let me = c.rank();
        let mut children = tree.children_of(me);
        children.reverse(); // smallest sub-tree first
        for (child, _) in children {
            let _ = c.recv(child);
        }
        if let Some(parent) = tree.parent_of(me) {
            c.send(parent, tree.subtree_size(me).saturating_mul(m));
        }
    }

    pub fn linear_bcast(c: &mut Comm<'_>, root: Rank, m: Bytes) {
        linear_scatter(c, root, m) // the two closure bodies were identical
    }

    pub fn binomial_bcast(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes) {
        let me = c.rank();
        if let Some(parent) = tree.parent_of(me) {
            let _ = c.recv(parent);
        }
        for (child, _) in tree.children_of(me) {
            c.send(child, m);
        }
    }

    fn combine(c: &mut Comm<'_>, secs: f64) {
        if secs > 0.0 {
            c.compute(secs);
        }
    }

    pub fn linear_reduce(c: &mut Comm<'_>, root: Rank, m: Bytes, gamma: f64) {
        let n = c.size();
        if c.rank() == root {
            for i in 0..n {
                if i != root.idx() {
                    let _ = c.recv(Rank::from(i));
                    combine(c, gamma * m as f64);
                }
            }
        } else {
            c.send(root, m);
        }
    }

    pub fn binomial_reduce(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes, gamma: f64) {
        let me = c.rank();
        let mut children = tree.children_of(me);
        children.reverse();
        for (child, _) in children {
            let _ = c.recv(child);
            combine(c, gamma * m as f64);
        }
        if let Some(parent) = tree.parent_of(me) {
            c.send(parent, m);
        }
    }

    pub fn ring_allgather(c: &mut Comm<'_>, m: Bytes) {
        let n = c.size();
        if n == 1 {
            return;
        }
        let me = c.rank().idx();
        let right = Rank::from((me + 1) % n);
        let left = Rank::from((me + n - 1) % n);
        for _step in 0..n - 1 {
            if me.is_multiple_of(2) {
                c.send(right, m);
                let _ = c.recv(left);
            } else {
                let _ = c.recv(left);
                c.send(right, m);
            }
        }
    }

    pub fn ring_allgather_overlap(c: &mut Comm<'_>, m: Bytes) {
        let n = c.size();
        if n == 1 {
            return;
        }
        let me = c.rank().idx();
        let right = Rank::from((me + 1) % n);
        let left = Rank::from((me + n - 1) % n);
        for _step in 0..n - 1 {
            let _ = c.sendrecv_exchange(right, m, left);
        }
    }

    pub fn linear_alltoall(c: &mut Comm<'_>, m: Bytes) {
        let n = c.size();
        let me = c.rank().idx();
        for k in 1..n {
            let dst = Rank::from((me + k) % n);
            let src = Rank::from((me + n - k) % n);
            c.send(dst, m);
            let _ = c.recv(src);
        }
    }

    fn leader_of_group(group: usize, root: Rank, intra: usize) -> Rank {
        if group == root.idx() / intra {
            root
        } else {
            Rank((group * intra) as u32)
        }
    }

    pub fn two_phase_bcast(c: &mut Comm<'_>, root: Rank, m: Bytes, intra: usize) {
        let n = c.size();
        let groups = n.div_ceil(intra);
        let tree = BinomialTree::new(groups, Rank((root.idx() / intra) as u32));
        let me = c.rank();
        let my_group = me.idx() / intra;
        let leader = leader_of_group(my_group, root, intra);
        if me == leader {
            let g = Rank(my_group as u32);
            if let Some(parent) = tree.parent_of(g) {
                let _ = c.recv(leader_of_group(parent.idx(), root, intra));
            }
            for (child, _) in tree.children_of(g) {
                c.send(leader_of_group(child.idx(), root, intra), m);
            }
            let lo = my_group * intra;
            for w in lo..(lo + intra).min(n) {
                if w != me.idx() {
                    c.send(Rank::from(w), m);
                }
            }
        } else {
            let _ = c.recv(leader);
        }
    }

    pub fn two_phase_reduce(c: &mut Comm<'_>, root: Rank, m: Bytes, gamma: f64, intra: usize) {
        let n = c.size();
        let groups = n.div_ceil(intra);
        let tree = BinomialTree::new(groups, Rank((root.idx() / intra) as u32));
        let me = c.rank();
        let my_group = me.idx() / intra;
        let leader = leader_of_group(my_group, root, intra);
        if me == leader {
            let lo = my_group * intra;
            for w in lo..(lo + intra).min(n) {
                if w != me.idx() {
                    let _ = c.recv(Rank::from(w));
                    combine(c, gamma * m as f64);
                }
            }
            let g = Rank(my_group as u32);
            let mut children = tree.children_of(g);
            children.reverse();
            for (child, _) in children {
                let _ = c.recv(leader_of_group(child.idx(), root, intra));
                combine(c, gamma * m as f64);
            }
            if let Some(parent) = tree.parent_of(g) {
                c.send(leader_of_group(parent.idx(), root, intra), m);
            }
        } else {
            c.send(leader, m);
        }
    }

    pub fn two_phase_allreduce(c: &mut Comm<'_>, root: Rank, m: Bytes, gamma: f64, intra: usize) {
        two_phase_reduce(c, root, m, gamma, intra);
        two_phase_bcast(c, root, m, intra);
    }

    pub fn linear_scatterv(c: &mut Comm<'_>, root: Rank, sizes: &[Bytes]) {
        if c.rank() == root {
            for (i, &size) in sizes.iter().enumerate() {
                if i != root.idx() {
                    c.send(Rank::from(i), size);
                }
            }
        } else {
            let _ = c.recv(root);
        }
    }

    pub fn linear_gatherv(c: &mut Comm<'_>, root: Rank, sizes: &[Bytes]) {
        let n = c.size();
        if c.rank() == root {
            for i in 0..n {
                if i != root.idx() {
                    let _ = c.recv(Rank::from(i));
                }
            }
        } else {
            c.send(root, sizes[c.rank().idx()]);
        }
    }

    pub fn optimized_gather(c: &mut Comm<'_>, root: Rank, m: Bytes, empirics: &GatherEmpirics) {
        let k = split_count(m, empirics);
        if k == 1 {
            linear_gather(c, root, m);
            return;
        }
        let piece = m / k as u64;
        let last = m - piece * (k as u64 - 1);
        for round in 0..k {
            let this = if round + 1 == k { last } else { piece };
            linear_gather(c, root, this);
        }
    }
}

const REPS: usize = 2;
const SEEDS: u64 = 8;
const SIZES: [Bytes; 4] = [0, 32, 4 * KIB, 100 * KIB];
const GAMMA: f64 = 3e-9;

/// A heterogeneous `n`-node cluster cut from the paper's 16 (every node
/// type represented), so `n` can vary while links and processors differ.
fn paper_subcluster(n: usize, profile: MpiProfile, noise: f64, seed: u64) -> SimCluster {
    let full = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), seed);
    let pick = |i: usize| i * 16 / n;
    let node = |i: Rank| Rank::from(pick(i.idx()));
    let truth = GroundTruth {
        c: (0..n).map(|i| full.c[pick(i)]).collect(),
        t: (0..n).map(|i| full.t[pick(i)]).collect(),
        l: SymMatrix::from_fn(n, |i, j| *full.l.get(node(i), node(j))),
        beta: SymMatrix::from_fn(n, |i, j| *full.beta.get(node(i), node(j))),
    };
    SimCluster::new(truth, profile, noise, seed)
}

/// Both test beds for one `(n, seed)`: LAM 7.1.3 with 1 % noise, and the
/// ideal cluster (no irregularities, no noise).
fn clusters(n: usize, seed: u64) -> [SimCluster; 2] {
    [
        paper_subcluster(n, MpiProfile::lam_7_1_3(), 0.01, seed),
        paper_subcluster(n, MpiProfile::ideal(), 0.0, seed),
    ]
}

/// Runs `closure` on rank threads and `program` on scripted ranks, `REPS`
/// barrier-separated repetitions each on `cl.reseeded(seed)`, and demands
/// bit-identical observations.
fn assert_identical(
    what: &str,
    cl: &SimCluster,
    seed: u64,
    closure: impl Fn(&mut Comm<'_>) + Sync,
    program: impl Fn(&mut dyn FnMut(Rank, ScriptOp)),
) {
    let what = format!(
        "{what} (n = {}, seed {seed}, noise {})",
        cl.n(),
        cl.noise_rel
    );
    let threaded = run(&cl.reseeded(seed), |c| {
        c.timed_reps(REPS, |c, _| closure(c))
    })
    .unwrap();
    // The measured times, through the harness every caller uses.
    let times = collective_times(cl, REPS, seed, &program).unwrap();
    for (rep, t) in times.iter().enumerate() {
        let oracle = threaded.results.iter().map(|r| r[rep]).fold(0.0, f64::max);
        assert_eq!(t.to_bits(), oracle.to_bits(), "{what}: rep {rep}");
    }
    // The same program by hand, to see the run's end and its counters.
    let mut per_rank = vec![Vec::new(); cl.n()];
    for _ in 0..REPS {
        for (ops, rep) in per_rank.iter_mut().zip(programs(cl.n(), &program)) {
            ops.push(ScriptOp::Barrier);
            ops.extend(rep);
        }
    }
    let scripted = run_script(&cl.reseeded(seed), &per_rank).unwrap();
    assert_eq!(
        scripted.end_time.to_bits(),
        threaded.end_time.to_bits(),
        "{what}: end_time"
    );
    assert_eq!(scripted.stats, threaded.stats, "{what}: kernel counters");
}

/// Every `(cluster, seed, n, root, m)` case: 8 seeds × n ∈ {1, 2, 5, 8,
/// 16} × 4 sizes on both test beds; the root walks with the seed, so
/// non-zero roots dominate.
fn for_each_case(mut f: impl FnMut(&SimCluster, u64, Rank, Bytes)) {
    for seed in 1..=SEEDS {
        for n in [1usize, 2, 5, 8, 16] {
            let root = Rank::from((seed as usize * 3 + 1) % n);
            for cl in clusters(n, seed) {
                for m in SIZES {
                    f(&cl, seed, root, m);
                }
            }
        }
    }
}

#[test]
fn flat_rooted_collectives_match_their_closures_bit_for_bit() {
    use cpm_collectives::*;
    for_each_case(|cl, seed, root, m| {
        let n = cl.n();
        let tree = BinomialTree::new(n, root);
        let at = |what: &str| format!("{what} m = {m} root {root}");
        assert_identical(
            &at("linear scatter"),
            cl,
            seed,
            |c| reference::linear_scatter(c, root, m),
            |e| linear_scatter(n, root, m, e),
        );
        assert_identical(
            &at("binomial scatter"),
            cl,
            seed,
            |c| reference::binomial_scatter(c, &tree, m),
            |e| binomial_scatter(&tree, m, e),
        );
        assert_identical(
            &at("linear gather"),
            cl,
            seed,
            |c| reference::linear_gather(c, root, m),
            |e| linear_gather(n, root, m, e),
        );
        assert_identical(
            &at("binomial gather"),
            cl,
            seed,
            |c| reference::binomial_gather(c, &tree, m),
            |e| binomial_gather(&tree, m, e),
        );
        assert_identical(
            &at("linear bcast"),
            cl,
            seed,
            |c| reference::linear_bcast(c, root, m),
            |e| linear_bcast(n, root, m, e),
        );
        assert_identical(
            &at("binomial bcast"),
            cl,
            seed,
            |c| reference::binomial_bcast(c, &tree, m),
            |e| binomial_bcast(&tree, m, e),
        );
        assert_identical(
            &at("linear reduce"),
            cl,
            seed,
            |c| reference::linear_reduce(c, root, m, GAMMA),
            |e| linear_reduce(n, root, m, GAMMA, e),
        );
        assert_identical(
            &at("binomial reduce"),
            cl,
            seed,
            |c| reference::binomial_reduce(c, &tree, m, GAMMA),
            |e| binomial_reduce(&tree, m, GAMMA, e),
        );
    });
}

#[test]
fn rootless_collectives_match_their_closures_bit_for_bit() {
    use cpm_collectives::*;
    for_each_case(|cl, seed, _, m| {
        let n = cl.n();
        assert_identical(
            &format!("ring allgather m = {m}"),
            cl,
            seed,
            |c| reference::ring_allgather(c, m),
            |e| ring_allgather(n, m, e),
        );
        assert_identical(
            &format!("overlapped ring allgather m = {m}"),
            cl,
            seed,
            |c| reference::ring_allgather_overlap(c, m),
            |e| ring_allgather_overlap(n, m, e),
        );
        assert_identical(
            &format!("rotation alltoall m = {m}"),
            cl,
            seed,
            |c| reference::linear_alltoall(c, m),
            |e| rotation_alltoall(n, m, e),
        );
    });
}

/// Groups of 2 and 4: n = 5 leaves a ragged last group either way, n = 1
/// and 2 degenerate to a single group, and the walking root is usually not
/// its group's first rank.
#[test]
fn two_phase_collectives_match_their_closures_bit_for_bit() {
    use cpm_collectives::*;
    for_each_case(|cl, seed, root, m| {
        let n = cl.n();
        for intra in [2usize, 4] {
            assert_identical(
                &format!("two-phase bcast m = {m} root {root} intra {intra}"),
                cl,
                seed,
                |c| reference::two_phase_bcast(c, root, m, intra),
                |e| two_phase_bcast(n, root, m, intra, e),
            );
            assert_identical(
                &format!("two-phase reduce m = {m} root {root} intra {intra}"),
                cl,
                seed,
                |c| reference::two_phase_reduce(c, root, m, GAMMA, intra),
                |e| two_phase_reduce(n, root, m, GAMMA, intra, e),
            );
            assert_identical(
                &format!("two-phase allreduce m = {m} root {root} intra {intra}"),
                cl,
                seed,
                |c| reference::two_phase_allreduce(c, root, m, GAMMA, intra),
                |e| two_phase_allreduce(n, root, m, GAMMA, intra, e),
            );
        }
    });
}

/// Per-rank sizes spanning every regime, one of them zero (still a
/// message).
#[test]
fn vector_collectives_match_their_closures_bit_for_bit() {
    use cpm_collectives::*;
    for_each_case(|cl, seed, root, m| {
        let n = cl.n();
        let mut sizes: Vec<Bytes> = (0..n as u64).map(|i| m / 2 + i * (m / 7 + 1)).collect();
        sizes[(root.idx() + 1) % n] = 0;
        assert_identical(
            &format!("scatterv {sizes:?} root {root}"),
            cl,
            seed,
            |c| reference::linear_scatterv(c, root, &sizes),
            |e| linear_scatterv(root, &sizes, e),
        );
        assert_identical(
            &format!("gatherv {sizes:?} root {root}"),
            cl,
            seed,
            |c| reference::linear_gatherv(c, root, &sizes),
            |e| linear_gatherv(root, &sizes, e),
        );
    });
}

/// The LAM thresholds as the model's gather empirics, as an estimation
/// would recover them.
fn lam_empirics() -> GatherEmpirics {
    let p = MpiProfile::lam_7_1_3();
    GatherEmpirics {
        m1: p.m1,
        m2: p.m2,
        escalation_probability: 0.4,
        escalation_magnitude: 0.18,
        escalation_prob_knots: Vec::new(),
    }
}

/// Below `M1` and above `M2` (one piece) and inside the region (9 KiB → 5
/// pieces with a remainder, 32 KiB → 16 pieces).
#[test]
fn optimized_gather_matches_its_closure_bit_for_bit() {
    let e = lam_empirics();
    for_each_case(|cl, seed, root, m| {
        // Swap the two sizes the flat tests already cover for two inside
        // the irregular region.
        let m = match m {
            0 => 9 * KIB,
            32 => 32 * KIB,
            other => other,
        };
        assert_identical(
            &format!("optimized gather m = {m} root {root}"),
            cl,
            seed,
            |c| reference::optimized_gather(c, root, m, &e),
            |s| cpm_collectives::optimized_gather(cl.n(), root, m, &e, s),
        );
    });
}

/// `TunedCollectives` emits what the closure dispatcher ran: the same
/// choice, the same program.
#[test]
fn tuned_dispatch_matches_the_closure_dispatcher_bit_for_bit() {
    for_each_case(|cl, seed, root, m| {
        let n = cl.n();
        let truth = &cl.truth;
        let model = LmoExtended::new(
            truth.c.clone(),
            truth.t.clone(),
            truth.l.clone(),
            truth.beta.clone(),
            lam_empirics(),
        );
        let tuned = TunedCollectives::new(model);
        let tree = BinomialTree::new(n, root);
        // Sizes where the dispatcher takes each branch at some n.
        let m = if m == 0 { 32 * KIB } else { m };
        assert_identical(
            &format!("tuned scatter m = {m} root {root}"),
            cl,
            seed,
            |c| match tuned.scatter_choice(root, m) {
                Algorithm::Binomial => reference::binomial_scatter(c, &tree, m),
                _ => reference::linear_scatter(c, root, m),
            },
            |e| tuned.scatter(root, m, e),
        );
        assert_identical(
            &format!("tuned bcast m = {m} root {root}"),
            cl,
            seed,
            |c| match tuned.bcast_choice(root, m) {
                Algorithm::Binomial => reference::binomial_bcast(c, &tree, m),
                _ => reference::linear_bcast(c, root, m),
            },
            |e| tuned.bcast(root, m, e),
        );
        assert_identical(
            &format!("tuned gather m = {m} root {root}"),
            cl,
            seed,
            |c| {
                if tuned.gather_splits(m) {
                    return reference::optimized_gather(c, root, m, &tuned.model().gather);
                }
                let machine = CostModel::Machine(Machine::lmo(tuned.model()));
                let op = Op {
                    kind: Rooted::Gather,
                    root,
                    m,
                };
                match choose(&machine, op) {
                    Algorithm::Binomial => reference::binomial_gather(c, &tree, m),
                    _ => reference::linear_gather(c, root, m),
                }
            },
            |e| tuned.gather(root, m, e),
        );
    });
}
