//! The execution engine: DES replay of a lowered trace.
//!
//! [`replay`] runs the lowered per-rank programs through the
//! [`cpm_netsim`] script kernel on the cluster's ground truth, so the
//! observed makespan emerges from the discrete-event kernel — tx engines,
//! wire serialization, rx engines, and whatever irregularities the
//! cluster's MPI profile injects. [`mod@crate::plan`] is the same kernel
//! call on a cluster built from a model's parameters, which is why plan
//! and replay agree to the bit on an ideal cluster planned under its own
//! truth. [`compare`] then reports predicted-vs-observed
//! residuals per op; the point-to-point residuals are shaped for
//! `cpm-drift`'s `observe` verb.

use cpm_collectives::cost::{self, CostModel, Machine};
use cpm_core::units::Bytes;
use cpm_models::HierLmo;
use cpm_netsim::SimCluster;
use cpm_vmpi::{ScriptOp, ScriptOutcome};
use serde_json::Value;

use crate::lower::{lower, Algorithm, Lowered};
use crate::plan::Plan;
use crate::trace::{OpKind, Trace, WorkloadError};

/// Observed window of one op.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOp {
    /// The trace op id.
    pub id: u64,
    /// The op's phase label.
    pub phase: String,
    /// The op kind name (`"p2p"`, `"scatter"`, ...).
    pub kind: String,
    /// Observed start of the op's first primitive, seconds from t=0.
    pub start: f64,
    /// Observed end of the op's last primitive.
    pub end: f64,
}

/// The observed execution of one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayReport {
    /// Virtual time when the last rank finished, seconds.
    pub makespan: f64,
    /// Observed per-op windows.
    pub ops: Vec<ReplayOp>,
    /// Kernel message counter (sent == received for a clean replay).
    pub msgs_sent: usize,
    /// Messages delivered by the simulator kernel.
    pub msgs_received: usize,
    /// Discrete events the simulator processed.
    pub events: usize,
}

impl ReplayReport {
    /// JSON form used by the CLI.
    pub fn to_value(&self) -> Value {
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|o| {
                Value::Map(vec![
                    ("id".to_string(), Value::U64(o.id)),
                    ("phase".to_string(), Value::Str(o.phase.clone())),
                    ("kind".to_string(), Value::Str(o.kind.clone())),
                    ("start".to_string(), Value::F64(o.start)),
                    ("end".to_string(), Value::F64(o.end)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("makespan_seconds".to_string(), Value::F64(self.makespan)),
            ("msgs_sent".to_string(), Value::U64(self.msgs_sent as u64)),
            (
                "msgs_received".to_string(),
                Value::U64(self.msgs_received as u64),
            ),
            ("events".to_string(), Value::U64(self.events as u64)),
            ("ops".to_string(), Value::Seq(ops)),
        ])
    }
}

/// Algorithm choices for a bare replay: made under the simulator's own
/// ground-truth LMO parameters, so the replayed program matches what a
/// tuned dispatcher would execute on that cluster. Both the CLI's
/// `workload run` and the serve layer's `"fidelity":"des"` plan path use
/// this, which is what makes their answers comparable on golden traces.
/// On a hierarchical topology the choices are level-aware (the chooser's
/// menu includes leader-based two-phase schedules).
pub fn truth_choices(cluster: &SimCluster, trace: &Trace) -> Vec<Option<Algorithm>> {
    let mut costs = None;
    crate::plan::choose_by(trace, |op| {
        let costs = costs.get_or_insert_with(|| {
            let truth = &cluster.truth;
            CostModel::Machine(match HierLmo::from_truth(truth, &cluster.topology) {
                Some(h) => Machine::hier(&h),
                None => Machine::truth(truth),
            })
        });
        cost::choose(costs, op)
    })
}

/// Replays `trace` on `cluster` with the given per-op algorithm choices
/// (use [`crate::plan::choose`] so the replay matches the plan).
pub fn replay(
    cluster: &SimCluster,
    trace: &Trace,
    choices: &[Option<Algorithm>],
) -> Result<ReplayReport, WorkloadError> {
    replay_inner(cluster, trace, choices, false).map(|(report, _)| report)
}

/// [`replay`] with kernel recording enabled: returns the report plus
/// a Perfetto-loadable Chrome trace of the simulated execution — one
/// thread track per rank carrying its send/recv/compute/barrier windows,
/// ranks grouped into one process per level-0 block (node) on hierarchical
/// topologies. Virtual timings are identical to [`replay`]; recording is
/// never a scheduling input.
pub fn replay_traced(
    cluster: &SimCluster,
    trace: &Trace,
    choices: &[Option<Algorithm>],
) -> Result<(ReplayReport, Value), WorkloadError> {
    let (report, timeline) = replay_inner(cluster, trace, choices, true)?;
    Ok((report, timeline.expect("traced replay builds a timeline")))
}

/// Runs the lowered programs through the script kernel on `cluster` — the
/// one machine behind both [`replay`] (ground truth) and
/// [`crate::plan::plan`] (model parameters). The kernel borrows the
/// programs; nothing is copied.
pub(crate) fn run_lowered(
    cluster: &SimCluster,
    lowered: &Lowered,
    traced: bool,
) -> Result<ScriptOutcome, WorkloadError> {
    if traced {
        cpm_vmpi::run_program_traced(cluster, &lowered.per_rank)
    } else {
        cpm_vmpi::run_program(cluster, &lowered.per_rank)
    }
    .map_err(|e| WorkloadError::Sim(e.to_string()))
}

fn replay_inner(
    cluster: &SimCluster,
    trace: &Trace,
    choices: &[Option<Algorithm>],
    traced: bool,
) -> Result<(ReplayReport, Option<Value>), WorkloadError> {
    trace.validate()?;
    if cluster.truth.c.len() != trace.n {
        return Err(WorkloadError::Invalid(format!(
            "trace is for n={} but the cluster has n={}",
            trace.n,
            cluster.truth.c.len()
        )));
    }
    let lowered = {
        let mut sp = cpm_obs::span("replay.lower");
        sp.field_u64("ops", trace.ops.len() as u64);
        lower(trace, choices)
    };
    // The threadless script path: lowered primitives are straight-line
    // programs, so the kernel interprets them directly — no OS thread and
    // no channel round-trips per rank, which is what makes 1000-rank
    // replay cheap. Timing semantics are identical to the threaded path.
    let out = {
        let mut sp_des = cpm_obs::span("replay.des");
        sp_des.field_u64("ranks", trace.n as u64);
        run_lowered(cluster, &lowered, traced)?
    };

    let timeline = traced.then(|| build_timeline(cluster, trace, &lowered, &out));

    let ops: Vec<ReplayOp> = trace
        .ops
        .iter()
        .zip(lowered.op_windows(&out.windows))
        .map(|(op, window)| {
            let (start, end) = window.unwrap_or((0.0, 0.0));
            ReplayOp {
                id: op.id,
                phase: op.phase.clone(),
                kind: op.kind.name().to_string(),
                start,
                end,
            }
        })
        .collect();

    Ok((
        ReplayReport {
            makespan: out.end_time,
            ops,
            msgs_sent: out.stats.msgs_sent,
            msgs_received: out.stats.msgs_received,
            events: out.stats.events,
        },
        timeline,
    ))
}

/// Builds the Chrome-trace JSON for a traced replay. Timestamps are
/// microseconds of virtual time; every lowered primitive becomes one
/// complete (`"X"`) event on its rank's thread track, tagged with the
/// trace op it implements. Hierarchical clusters get one process per
/// level-0 block so Perfetto groups rank tracks by node.
fn build_timeline(
    cluster: &SimCluster,
    trace: &Trace,
    lowered: &Lowered,
    out: &ScriptOutcome,
) -> Value {
    let levels = cluster.topology.levels();
    let cores = levels.first().map(|l| l.arity).filter(|&a| a > 0);
    let pid_of = |rank: usize| -> u64 {
        match cores {
            Some(c) => (rank / c) as u64 + 1,
            None => 1,
        }
    };
    let str_arg = |k: &str, v: String| (k.to_string(), Value::Str(v));
    let meta = |name: &str, pid: u64, tid: u64, label: String| {
        Value::Map(vec![
            str_arg("ph", "M".to_string()),
            str_arg("name", name.to_string()),
            ("pid".to_string(), Value::U64(pid)),
            ("tid".to_string(), Value::U64(tid)),
            ("args".to_string(), Value::Map(vec![str_arg("name", label)])),
        ])
    };

    let mut events: Vec<Value> = Vec::new();
    match cores {
        Some(c) => {
            let level_name = &levels[0].name;
            let blocks = trace.n.div_ceil(c);
            for b in 0..blocks {
                events.push(meta(
                    "process_name",
                    b as u64 + 1,
                    0,
                    format!("{level_name} {b}"),
                ));
            }
        }
        None => events.push(meta(
            "process_name",
            1,
            0,
            format!("cluster (n={})", trace.n),
        )),
    }
    for rank in 0..trace.n {
        let label = match cores {
            Some(c) => format!("rank {rank} ({}.{})", rank / c, rank % c),
            None => format!("rank {rank}"),
        };
        events.push(meta("thread_name", pid_of(rank), rank as u64 + 1, label));
    }

    for (rank, prims) in lowered.per_rank.iter().enumerate() {
        for (k, prim) in prims.iter().enumerate() {
            let (t0, t1) = out.windows[rank][k];
            let op = &trace.ops[lowered.op_of[rank][k]];
            let (name, mut args) = match *prim {
                ScriptOp::Send { dst, bytes } | ScriptOp::Isend { dst, bytes } => (
                    "send",
                    vec![
                        ("dst".to_string(), Value::U64(dst.0 as u64)),
                        ("bytes".to_string(), Value::U64(bytes)),
                    ],
                ),
                ScriptOp::Recv { src } => {
                    ("recv", vec![("src".to_string(), Value::U64(src.0 as u64))])
                }
                ScriptOp::Compute { secs } => {
                    ("compute", vec![("secs".to_string(), Value::F64(secs))])
                }
                ScriptOp::Barrier => ("barrier", Vec::new()),
                ScriptOp::WaitSend => ("wait", Vec::new()),
            };
            args.push(("op".to_string(), Value::U64(op.id)));
            args.push(str_arg("phase", op.phase.clone()));
            events.push(Value::Map(vec![
                str_arg("ph", "X".to_string()),
                str_arg("name", name.to_string()),
                str_arg("cat", op.kind.name().to_string()),
                ("pid".to_string(), Value::U64(pid_of(rank))),
                ("tid".to_string(), Value::U64(rank as u64 + 1)),
                ("ts".to_string(), Value::F64(t0 * 1e6)),
                ("dur".to_string(), Value::F64((t1 - t0).max(0.0) * 1e6)),
                ("args".to_string(), Value::Map(args)),
            ]));
        }
    }

    let mut top = vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ];
    if let Some(c) = out.des_events {
        top.push((
            "desEvents".to_string(),
            Value::Map(vec![
                ("wakes".to_string(), Value::U64(c.wakes)),
                ("arrivals".to_string(), Value::U64(c.arrivals)),
                ("transfers".to_string(), Value::U64(c.transfers)),
                ("delivers".to_string(), Value::U64(c.delivers)),
                ("total".to_string(), Value::U64(c.total())),
            ]),
        ));
    }
    Value::Map(top)
}

/// Predicted-vs-observed residual of one op.
#[derive(Clone, Debug, PartialEq)]
pub struct OpResidual {
    /// The trace op id.
    pub id: u64,
    /// The op's phase label.
    pub phase: String,
    /// The op kind name.
    pub kind: String,
    /// Predicted op duration, seconds.
    pub predicted: f64,
    /// Observed (replayed) op duration, seconds.
    pub observed: f64,
    /// Signed relative error `(predicted − observed) / observed`.
    pub rel: f64,
}

/// A point-to-point observation shaped for the `cpm-drift` `observe`
/// verb: the op's observed end-to-end time for `m` bytes from `src` to
/// `dst`.
#[derive(Clone, Debug, PartialEq)]
pub struct P2pObservation {
    /// Sender rank.
    pub src: u32,
    /// Receiver rank.
    pub dst: u32,
    /// Message size, bytes.
    pub m: Bytes,
    /// Observed transfer time, seconds.
    pub seconds: f64,
}

/// The full predicted-vs-observed comparison for one (plan, replay) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareReport {
    /// The model whose plan is being compared.
    pub model: crate::plan::ModelKind,
    /// The plan's predicted makespan, seconds.
    pub predicted_makespan: f64,
    /// The replay's observed makespan, seconds.
    pub observed_makespan: f64,
    /// Signed relative makespan error.
    pub rel_error: f64,
    /// Per-op residuals.
    pub ops: Vec<OpResidual>,
    /// Observations for the trace's plain p2p ops, ready to feed drift.
    pub observations: Vec<P2pObservation>,
}

impl CompareReport {
    /// JSON form used by the CLI and golden tests.
    pub fn to_value(&self) -> Value {
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|o| {
                Value::Map(vec![
                    ("id".to_string(), Value::U64(o.id)),
                    ("phase".to_string(), Value::Str(o.phase.clone())),
                    ("kind".to_string(), Value::Str(o.kind.clone())),
                    ("predicted".to_string(), Value::F64(o.predicted)),
                    ("observed".to_string(), Value::F64(o.observed)),
                    ("rel".to_string(), Value::F64(o.rel)),
                ])
            })
            .collect();
        let obs: Vec<Value> = self
            .observations
            .iter()
            .map(|o| {
                Value::Map(vec![
                    ("kind".to_string(), Value::Str("p2p".to_string())),
                    ("src".to_string(), Value::U64(o.src as u64)),
                    ("dst".to_string(), Value::U64(o.dst as u64)),
                    ("m".to_string(), Value::U64(o.m)),
                    ("seconds".to_string(), Value::F64(o.seconds)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("model".to_string(), Value::Str(self.model.to_string())),
            (
                "predicted_makespan".to_string(),
                Value::F64(self.predicted_makespan),
            ),
            (
                "observed_makespan".to_string(),
                Value::F64(self.observed_makespan),
            ),
            ("rel_error".to_string(), Value::F64(self.rel_error)),
            ("ops".to_string(), Value::Seq(ops)),
            ("observations".to_string(), Value::Seq(obs)),
        ])
    }
}

/// Joins a plan and a replay of the same trace into per-op residuals.
pub fn compare(trace: &Trace, plan: &Plan, replay: &ReplayReport) -> CompareReport {
    let rel = |pred: f64, obs: f64| {
        if obs > 0.0 {
            (pred - obs) / obs
        } else {
            0.0
        }
    };
    let ops: Vec<OpResidual> = plan
        .ops
        .iter()
        .zip(replay.ops.iter())
        .map(|(p, o)| {
            debug_assert_eq!(p.id, o.id);
            let predicted = p.end - p.start;
            let observed = o.end - o.start;
            OpResidual {
                id: p.id,
                phase: p.phase.to_string(),
                kind: p.kind.to_string(),
                predicted,
                observed,
                rel: rel(predicted, observed),
            }
        })
        .collect();
    let observations = trace
        .ops
        .iter()
        .zip(replay.ops.iter())
        .filter_map(|(t, o)| match t.kind {
            OpKind::P2p { src, dst, m } => Some(P2pObservation {
                src: src.0,
                dst: dst.0,
                m,
                seconds: o.end - o.start,
            }),
            _ => None,
        })
        .collect();
    CompareReport {
        model: plan.model,
        predicted_makespan: plan.makespan,
        observed_makespan: replay.makespan,
        rel_error: rel(plan.makespan, replay.makespan),
        ops,
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::plan::{choose, plan, PlanModel};
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_models::{GatherEmpirics, LmoExtended};

    fn ideal_cluster(n: usize, seed: u64) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), seed);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, seed)
    }

    fn truth_lmo(cl: &SimCluster) -> LmoExtended {
        LmoExtended::new(
            cl.truth.c.clone(),
            cl.truth.t.clone(),
            cl.truth.l.clone(),
            cl.truth.beta.clone(),
            GatherEmpirics::none(),
        )
    }

    #[test]
    fn replay_conserves_messages_for_every_canonical_workload() {
        let cl = ideal_cluster(8, 5);
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 8, 2048, 2).unwrap();
            let r = replay(&cl, &t, &vec![None; t.ops.len()]).unwrap();
            assert_eq!(r.msgs_sent, r.msgs_received, "{kind}");
            assert!(r.makespan > 0.0, "{kind}");
            for o in &r.ops {
                assert!(o.start <= o.end, "{kind} op {}", o.id);
            }
        }
    }

    #[test]
    fn compare_joins_plan_and_replay() {
        let cl = ideal_cluster(4, 9);
        let model = PlanModel::Lmo(truth_lmo(&cl));
        let t = gen::pipeline(4, 8192, 2, 0.0);
        let p = plan(&t, &model).unwrap();
        let r = replay(&cl, &t, &choose(&t, &model)).unwrap();
        let c = compare(&t, &p, &r);
        assert_eq!(c.ops.len(), t.ops.len());
        assert!(!c.observations.is_empty(), "pipeline has p2p ops");
        assert!(c.rel_error.abs() < 0.10, "rel error {}", c.rel_error);
    }

    fn timeline_events(tl: &Value) -> &[Value] {
        match tl.get("traceEvents") {
            Some(Value::Seq(events)) => events,
            other => panic!("traceEvents must be a sequence, got {other:?}"),
        }
    }

    fn events_with_ph<'a>(events: &'a [Value], ph: &str) -> Vec<&'a Value> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            .collect()
    }

    /// The traced replay reproduces the untraced report bit-for-bit and
    /// emits one complete event per lowered primitive on one thread track
    /// per rank.
    #[test]
    fn traced_replay_matches_untraced_and_builds_per_rank_timeline() {
        let cl = ideal_cluster(8, 5);
        let t = gen::canonical("train", 8, 2048, 2).unwrap();
        let choices = vec![None; t.ops.len()];
        let plain = replay(&cl, &t, &choices).unwrap();
        let (report, tl) = replay_traced(&cl, &t, &choices).unwrap();
        assert_eq!(report, plain, "recording must not perturb the replay");

        let events = timeline_events(&tl);
        let metas = events_with_ph(events, "M");
        let tracks: Vec<&Value> = metas
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .copied()
            .collect();
        assert_eq!(tracks.len(), 8, "one thread track per rank");
        assert_eq!(
            metas.len() - tracks.len(),
            1,
            "flat topology: a single process"
        );

        let slices = events_with_ph(events, "X");
        let lowered = lower(&t, &choices);
        let n_prims: usize = lowered.per_rank.iter().map(Vec::len).sum();
        assert_eq!(slices.len(), n_prims, "one slice per lowered primitive");
        for s in &slices {
            let name = s.get("name").and_then(Value::as_str).unwrap();
            assert!(
                ["send", "recv", "compute", "barrier"].contains(&name),
                "unexpected slice {name}"
            );
            assert!(s.get("ts").and_then(Value::as_f64).unwrap() >= 0.0);
            assert!(s.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
            assert!(s.get("args").and_then(|a| a.get("phase")).is_some());
        }
        let des = tl.get("desEvents").expect("DES event counts present");
        assert_eq!(
            des.get("total").and_then(Value::as_u64),
            Some(report.events as u64),
            "the counts cover exactly the events the kernel processed"
        );
    }

    /// On a hierarchical topology ranks group into one Perfetto process
    /// per level-0 block (node), so 2 nodes × 2 cores yields 2 process
    /// tracks of 2 rank threads each.
    #[test]
    fn hierarchical_timeline_groups_ranks_by_node() {
        let cfg = cpm_cluster::ClusterConfig::hierarchical(2, 2, 7);
        let cl = SimCluster::from_config(&cfg);
        let t = gen::canonical("train", 4, 2048, 1).unwrap();
        let choices = truth_choices(&cl, &t);
        let (_, tl) = replay_traced(&cl, &t, &choices).unwrap();
        let events = timeline_events(&tl);
        let process_names: Vec<String> = events_with_ph(events, "M")
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(process_names.len(), 2, "one process per node");
        assert!(process_names[0].contains("node"), "{process_names:?}");
        for s in events_with_ph(events, "X") {
            let pid = s.get("pid").and_then(Value::as_u64).unwrap();
            let tid = s.get("tid").and_then(Value::as_u64).unwrap();
            let rank = tid - 1;
            assert_eq!(pid, rank / 2 + 1, "rank {rank} on its node's track");
        }
    }

    #[test]
    fn cluster_size_mismatch_is_rejected() {
        let cl = ideal_cluster(4, 9);
        let t = gen::pipeline(8, 8192, 2, 0.0);
        assert!(replay(&cl, &t, &vec![None; t.ops.len()]).is_err());
    }
}
