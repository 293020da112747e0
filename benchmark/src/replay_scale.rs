//! `replay_scale`: trace -> plan -> replay in process, on ground-truth
//! parameters. Workload lowering, the analytic machine, the simulator's
//! script kernel and the event queue do all the work; serving does none.
//! Plan and replay are timed apart because, on dense traces, the analytic
//! path is today the slower of the two.

use std::io;
use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_models::{GatherEmpirics, HierLmo, LmoExtended};
use cpm_netsim::SimCluster;
use cpm_workload::{gen, lower, plan, replay, truth_choices, PlanModel};

use crate::run::{peak_rss_mb, Ctx, Outcome, Samples};
use crate::span::Tracer;
use crate::stats::median;
use crate::wire::Checker;

/// Every message of every trace.
const M: u64 = 16 * 1024;

/// Plan and replay makespans must agree to rounding on a flat ideal
/// cluster: there the extended LMO names every resource the simulator
/// charges.
const PLAN_REL_ERR_MAX: f64 = 1e-9;

/// The hierarchical model averages each level's link parameters, so its
/// plan is close, not equal: 2.7 % off at this commit. The repository's own
/// accuracy tests allow 10 %.
const HIER_PLAN_REL_ERR_MAX: f64 = 0.10;

/// One trace of the pass: a canonical workload on a cluster of its own.
struct Case {
    name: &'static str,
    /// Span names of its `plan` and `replay` calls, and the per-layer
    /// metrics their medians feed.
    plan: (&'static str, &'static str),
    replay: (&'static str, &'static str),
    kind: &'static str,
    iters: usize,
    sim: SimCluster,
    model: PlanModel,
    /// How far the plan's makespan may be from the replay's.
    plan_rel_err_max: f64,
}

/// A case's name, then (span, metric) of its `plan` and of its `replay`.
type Names = (
    &'static str,
    (&'static str, &'static str),
    (&'static str, &'static str),
);

const TRAIN1000: Names = (
    "train1000",
    ("workload.plan.train1000", "workload.plan_ms.train1000"),
    ("workload.replay.train1000", "workload.replay_ms.train1000"),
);
const HALO1024: Names = (
    "halo1024",
    ("workload.plan.halo1024", "workload.plan_ms.halo1024"),
    ("workload.replay.halo1024", "workload.replay_ms.halo1024"),
);
const PIPELINE512: Names = (
    "pipeline512",
    ("workload.plan.pipeline512", "workload.plan_ms.pipeline512"),
    (
        "workload.replay.pipeline512",
        "workload.replay_ms.pipeline512",
    ),
);
const MOE128: Names = (
    "moe128",
    ("workload.plan.moe128", "workload.plan_ms.moe128"),
    ("workload.replay.moe128", "workload.replay_ms.moe128"),
);
const TRAIN_HIER8X8: Names = (
    "train_hier8x8",
    (
        "workload.plan.train_hier8x8",
        "workload.plan_ms.train_hier8x8",
    ),
    (
        "workload.replay.train_hier8x8",
        "workload.replay_ms.train_hier8x8",
    ),
);

/// What a replay must reproduce, bit for bit, on every pass.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Observed {
    events: usize,
    msgs_sent: usize,
    msgs_received: usize,
    makespan_bits: u64,
}

fn flat(names: Names, kind: &'static str, n: usize, iters: usize, seed: u64) -> Case {
    let sim = SimCluster::from_config(&ClusterConfig::ideal(ClusterSpec::homogeneous(n), seed));
    let model = PlanModel::Lmo(LmoExtended::new(
        sim.truth.c.clone(),
        sim.truth.t.clone(),
        sim.truth.l.clone(),
        sim.truth.beta.clone(),
        GatherEmpirics::none(),
    ));
    Case {
        name: names.0,
        plan: names.1,
        replay: names.2,
        kind,
        iters,
        sim,
        model,
        plan_rel_err_max: PLAN_REL_ERR_MAX,
    }
}

/// Ground truth of the five clusters. This workload's inputs are the same
/// in every run, whatever the run's seed. Drawing the clusters from it made
/// the planner's cost follow them (8 % between two seeds with every event
/// count equal), and shuffling the traces within a pass cost 6 % and
/// tripled the spread (allocator and cache state carry over from one trace
/// to the next). Either would put a floor of 5 % under every later
/// comparison on the workload whose numbers are the largest.
const TRUTH_SEED: u64 = 2009;

/// The five traces and their clusters.
fn cases() -> Vec<Case> {
    let mut cases = vec![
        flat(TRAIN1000, "train", 1000, 2, TRUTH_SEED),
        flat(HALO1024, "halo", 1024, 4, TRUTH_SEED + 1),
        flat(PIPELINE512, "pipeline", 512, 8, TRUTH_SEED + 2),
        flat(MOE128, "moe", 128, 2, TRUTH_SEED + 3),
    ];
    let sim = SimCluster::from_config(&ClusterConfig::hierarchical(8, 8, TRUTH_SEED + 4));
    let hier = HierLmo::from_truth(&sim.truth, &sim.topology)
        .expect("a hierarchical config has a hierarchical model");
    cases.push(Case {
        name: TRAIN_HIER8X8.0,
        plan: TRAIN_HIER8X8.1,
        replay: TRAIN_HIER8X8.2,
        kind: "train",
        iters: 2,
        sim,
        model: PlanModel::LmoHier(hier),
        plan_rel_err_max: HIER_PLAN_REL_ERR_MAX,
    });
    cases
}

/// Stage walls of one pass, seconds, and what it replayed.
#[derive(Default)]
struct Pass {
    gen: f64,
    choose: f64,
    lower: f64,
    plan: Vec<f64>,
    replay: Vec<f64>,
    trace_ops: usize,
    events: usize,
    msgs: usize,
    /// Largest plan-against-replay error over the flat cases, and the
    /// hierarchical case's.
    rel_err_max: f64,
    rel_err_hier: f64,
}

/// What each case's first replay observed; later passes must match it.
type First = Vec<Option<Observed>>;

/// One pass: every case through gen -> choose -> lower -> plan -> replay.
fn pass(
    cases: &[Case],
    first: &mut First,
    checker: &mut Checker,
    tracer: &mut Tracer,
    id: u64,
) -> io::Result<Pass> {
    let mut p = Pass::default();
    let err = |e: cpm_workload::WorkloadError| io::Error::other(e.to_string());
    first.resize(cases.len(), None);
    for (i, case) in cases.iter().enumerate() {
        let timed =
            |tracer: &mut Tracer, name: &'static str| (tracer.enter(name, id), Instant::now());
        let (span, t0) = timed(tracer, "workload.gen");
        let trace = gen::canonical(case.kind, case.sim.n(), M, case.iters)
            .expect("a canonical workload kind");
        p.gen += t0.elapsed().as_secs_f64();
        tracer.exit(span);

        let (span, t0) = timed(tracer, "workload.choose");
        let choices = truth_choices(&case.sim, &trace);
        p.choose += t0.elapsed().as_secs_f64();
        tracer.exit(span);

        let (span, t0) = timed(tracer, "workload.lower");
        let lowered = lower(&trace, &choices);
        p.lower += t0.elapsed().as_secs_f64();
        tracer.exit(span);
        std::hint::black_box(&lowered);

        let (span, t0) = timed(tracer, case.plan.0);
        let planned = plan(&trace, &case.model).map_err(err)?;
        p.plan.push(t0.elapsed().as_secs_f64());
        tracer.exit(span);

        let (span, t0) = timed(tracer, case.replay.0);
        let report = replay(&case.sim, &trace, &choices).map_err(err)?;
        p.replay.push(t0.elapsed().as_secs_f64());
        tracer.exit(span);

        p.trace_ops += trace.ops.len();
        p.events += report.events;
        p.msgs += report.msgs_sent;
        let rel_err = ((planned.makespan - report.makespan) / report.makespan).abs();
        if matches!(case.model, PlanModel::LmoHier(_)) {
            p.rel_err_hier = rel_err;
        } else {
            p.rel_err_max = p.rel_err_max.max(rel_err);
        }
        let seen = Observed {
            events: report.events,
            msgs_sent: report.msgs_sent,
            msgs_received: report.msgs_received,
            makespan_bits: report.makespan.to_bits(),
        };
        let first = *first[i].get_or_insert(seen);
        checker.record(if seen != first {
            Err(format!(
                "{}: replayed {seen:?}, the first pass {first:?}",
                case.name
            ))
        } else if seen.msgs_sent != seen.msgs_received {
            Err(format!("{}: {seen:?} lost messages", case.name))
        } else if rel_err > case.plan_rel_err_max {
            Err(format!(
                "{}: plan {:e} s, replay {:e} s",
                case.name, planned.makespan, report.makespan
            ))
        } else {
            Ok(())
        });
    }
    Ok(p)
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let mut off = Tracer::new(false);
    let mut first = First::new();
    // Set-up builds the clusters and models and runs one pass, which grows
    // the allocator to the size the 1000-rank traces need.
    let (cases, setup_times) = ctx.setups(|| {
        let cases = cases();
        pass(&cases, &mut first, &mut checker, &mut off, 0)?;
        Ok(cases)
    })?;
    let (mut rel_err_max, mut rel_err_hier) = (0.0f64, 0.0f64);
    let (mut samples, segments) = ctx.segments(|samples| {
        let t0 = Instant::now();
        let p = pass(&cases, &mut first, &mut checker, &mut off, 0)?;
        let wall = t0.elapsed().as_secs_f64();
        samples.push("latency_p50_us", p.plan.iter().sum::<f64>() * 1e6);
        samples.push(
            "latency_tail_us",
            p.plan.iter().fold(0.0, |a: f64, b| a.max(*b)) * 1e6,
        );
        samples.push("heavy_op_ms", p.replay.iter().sum::<f64>() * 1e3);
        samples.push("throughput_ops", p.trace_ops as f64 / wall);
        rel_err_max = rel_err_max.max(p.rel_err_max);
        rel_err_hier = rel_err_hier.max(p.rel_err_hier);
        Ok(())
    })?;
    samples.extend("setup_s", &setup_times);
    samples.push("peak_rss_mb", peak_rss_mb());
    samples.push("harness.plan_rel_err_max", rel_err_max);
    samples.push("harness.plan_rel_err_hier", rel_err_hier);
    Ok(Outcome {
        workload: "replay_scale",
        checker,
        exact: true,
        segments,
        metrics: samples.summaries(),
    })
}

pub fn trace(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let cases = cases();
    let mut first = First::new();
    let passes = if ctx.smoke { 1 } else { 3 };
    // As many passes as an untraced run makes before its first measured
    // segment: the allocator is still growing during the first few.
    for _ in 0..=passes {
        pass(&cases, &mut first, &mut checker, &mut Tracer::new(false), 0)?;
    }
    let mut s = Samples::default();
    let (mut events, mut msgs, mut rel_err_max, mut rel_err_hier) = (0, 0, 0.0f64, 0.0f64);
    for id in 0..passes {
        let p = pass(&cases, &mut first, &mut checker, tracer, id)?;
        let (plan_s, replay_s): (f64, f64) = (p.plan.iter().sum(), p.replay.iter().sum());
        s.push("harness.plan_pass_ms", plan_s * 1e3);
        s.push("harness.replay_pass_ms", replay_s * 1e3);
        s.push("harness.latency_p50_us", plan_s * 1e6);
        s.push("workload.gen_ms", p.gen * 1e3);
        s.push("workload.choose_ms", p.choose * 1e3);
        s.push("workload.lower_ms", p.lower * 1e3);
        s.push("workload.plan_over_replay", plan_s / replay_s);
        // A replay lowers the trace itself before it simulates; what is
        // left is the kernel and the event queue.
        s.push(
            "netsim.events_per_s",
            p.events as f64 / (replay_s - p.lower),
        );
        (events, msgs) = (p.events, p.msgs);
        rel_err_max = rel_err_max.max(p.rel_err_max);
        rel_err_hier = rel_err_hier.max(p.rel_err_hier);
    }
    for case in &cases {
        for (span, metric) in [case.plan, case.replay] {
            s.push(metric, tracer.median_ns(span) / 1e6);
        }
    }
    s.push("netsim.msgs", msgs as f64);
    s.push("des.events", events as f64);
    s.push("harness.plan_rel_err_max", rel_err_max);
    s.push("harness.plan_rel_err_hier", rel_err_hier);
    crate::micro::replay_rows(ctx, &mut s);
    // Computed, not measured: what the pass's events would cost at the
    // queue's stand-alone schedule+pop rate, as a share of the replay.
    let pop_ns = s.get("des.schedule_pop_ns")[0];
    let replay_ms = median(s.get("harness.replay_pass_ms"));
    s.push(
        "des.share_pct",
        events as f64 * pop_ns / (replay_ms * 1e6) * 100.0,
    );
    Ok(Outcome {
        workload: "replay_scale",
        checker,
        exact: true,
        segments: passes as usize,
        metrics: s.summaries(),
    })
}
