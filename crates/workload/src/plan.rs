//! The analytic engine: a plan is a replay on the model's parameters.
//!
//! [`plan`] chooses an algorithm per collective op, lowers the trace into
//! per-rank programs ([`mod@crate::lower`]) and runs them through the same
//! script kernel as [`mod@crate::replay`] — on a noise-free, single-switch
//! `SimCluster` built from the *model's* parameters instead of ground
//! truth. There is no second simulator: what the model predicts is what
//! the one machine does when the model is its truth.
//!
//! * **Extended LMO** names exactly the resources the kernel serializes:
//!   a blocking send occupies the sender's tx engine for `C_i + M·t_i`,
//!   the message takes `L_ij` to reach the wire, waits for earlier
//!   transfers on the same connection, streams for `M/β_ij`, and occupies
//!   the receiver's rx engine for `C_j + M·t_j` in arrival order — so the
//!   model's `(C, t, L, β)` *are* the cluster. The model's estimated
//!   `M1`/`M2` ride on its MPI profile (escalations and the leap off):
//!   at `M ≥ M2` a receiver admits one large transfer at a time and a
//!   blocking send returns at its admission, as eq. (5) serializes large
//!   gathers. This is `cpm_collectives::cost::Machine`, the same machine
//!   [`choose`] prices candidates on. On a noise-free cluster planned under
//!   its own truth, plan and replay agree to the bit wherever no
//!   escalation can fire. Hierarchical LMO runs through its lossless fold
//!   into the flat extended model.
//! * **Hockney / LogGP / PLogP** cannot separate the contributions of the
//!   processors and the network (the paper's central criticism), so the
//!   whole point-to-point time `T(M)` is charged as sender occupancy and
//!   the message is visible at `send_start + T(M)`: the lowering puts a
//!   `Compute { T }` in front of every send and the cluster charges the
//!   send itself nothing — no receive-side resource, no wire
//!   serialization. At application level this is what makes them misrank
//!   schedules that pipeline or fan in.
//!
//! The [`CriticalPath`] is a pure function of the traced kernel run (tx,
//! wire and rx slots, receive matches, per-primitive windows): binding
//! predecessors walked back from the rank that realizes the makespan.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use cpm_cluster::{GroundTruth, MpiProfile};
use cpm_collectives::cost::{self, clamp, CostModel, Machine, Op, Rooted};
use cpm_core::matrix::SymMatrix;
use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::units::Bytes;
use cpm_models::{HierLmo, HockneyHet, LmoExtended, LogGp, PLogP};
use cpm_netsim::{PairTable, SimCluster, TraceEvent};
use cpm_vmpi::{ScriptOp, ScriptOutcome};

use crate::lower::{lower, Algorithm, Lowered};
use crate::replay::run_lowered;
use crate::trace::{OpKind, Trace, WorkloadError};

/// The model a plan is evaluated under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's heterogeneous LMO model.
    Lmo,
    /// The hierarchical LMO extension: per-level (C, t, L, β) parameters
    /// over a level tree, with level-aware algorithm choice.
    LmoHier,
    /// Hockney's latency/bandwidth model.
    Hockney,
    /// LogGP with a distinct gap per byte for large messages.
    Loggp,
    /// Parameterized LogP: piecewise per-size overheads and gaps.
    Plogp,
}

impl ModelKind {
    /// The flat models every [`ModelSet`] stores, in reporting order.
    /// `LmoHier` is deliberately excluded: it needs a topology, so it is
    /// built per-cluster rather than stored in a set.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Lmo,
        ModelKind::Hockney,
        ModelKind::Loggp,
        ModelKind::Plogp,
    ];

    /// The name used on the wire and in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelKind::Lmo => "lmo",
            ModelKind::LmoHier => "lmo-hier",
            ModelKind::Hockney => "hockney",
            ModelKind::Loggp => "loggp",
            ModelKind::Plogp => "plogp",
        }
    }

    /// Parses the wire name (the inverse of [`ModelKind::as_str`]).
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s {
            "lmo" => Some(ModelKind::Lmo),
            "lmo-hier" => Some(ModelKind::LmoHier),
            "hockney" => Some(ModelKind::Hockney),
            "loggp" => Some(ModelKind::Loggp),
            "plogp" => Some(ModelKind::Plogp),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concrete parameterized model to plan under.
#[derive(Clone, Debug)]
pub enum PlanModel {
    /// An estimated extended-LMO parameter set.
    Lmo(LmoExtended),
    /// A hierarchical LMO parameter set (per-level links over a level
    /// tree). It runs through its lossless fold into the flat extended
    /// model; the algorithm chooser additionally considers leader-based
    /// two-phase schedules.
    LmoHier(HierLmo),
    /// An estimated per-pair Hockney fit.
    Hockney(HockneyHet),
    /// An estimated LogGP fit.
    Loggp(LogGp),
    /// An estimated PLogP fit (piecewise-linear in the size).
    Plogp(PLogP),
}

impl PlanModel {
    /// Which family this concrete model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            PlanModel::Lmo(_) => ModelKind::Lmo,
            PlanModel::LmoHier(_) => ModelKind::LmoHier,
            PlanModel::Hockney(_) => ModelKind::Hockney,
            PlanModel::Loggp(_) => ModelKind::Loggp,
            PlanModel::Plogp(_) => ModelKind::Plogp,
        }
    }

    /// How this model prices a rooted collective (`cpm_collectives::cost`):
    /// for the separable models, the machine the plan also runs on.
    pub fn cost_model(&self) -> CostModel<'_> {
        match self {
            PlanModel::Lmo(l) => CostModel::Machine(Machine::lmo(l)),
            PlanModel::LmoHier(h) => CostModel::Machine(Machine::hier(h)),
            PlanModel::Hockney(h) => CostModel::Hockney(h),
            PlanModel::Loggp(g) => CostModel::Loggp(g),
            PlanModel::Plogp(p) => CostModel::Plogp(p),
        }
    }

    fn as_p2p(&self) -> &dyn PointToPoint {
        match self {
            PlanModel::Lmo(m) => m,
            PlanModel::LmoHier(m) => m,
            PlanModel::Hockney(m) => m,
            PlanModel::Loggp(m) => m,
            PlanModel::Plogp(m) => m,
        }
    }
}

/// All four parameterized models for one cluster, as `cpm-serve` stores
/// them.
#[derive(Clone, Debug)]
pub struct ModelSet {
    /// The extended-LMO parameter set.
    pub lmo: LmoExtended,
    /// The per-pair Hockney fit.
    pub hockney: HockneyHet,
    /// The LogGP fit.
    pub loggp: LogGp,
    /// The PLogP fit.
    pub plogp: PLogP,
}

impl ModelSet {
    /// The concrete model of the requested family (cloned out).
    ///
    /// # Panics
    /// Panics for [`ModelKind::LmoHier`]: hierarchical models carry a
    /// topology and are built per-cluster (see `cpm_models::HierLmo`), not
    /// stored in a flat set.
    pub fn get(&self, kind: ModelKind) -> PlanModel {
        match kind {
            ModelKind::Lmo => PlanModel::Lmo(self.lmo.clone()),
            ModelKind::LmoHier => {
                panic!("ModelSet stores only flat models; build PlanModel::LmoHier from a HierLmo")
            }
            ModelKind::Hockney => PlanModel::Hockney(self.hockney.clone()),
            ModelKind::Loggp => PlanModel::Loggp(self.loggp.clone()),
            ModelKind::Plogp => PlanModel::Plogp(self.plogp.clone()),
        }
    }
}

/// Per-op slice of a plan.
#[derive(Clone, Debug, PartialEq)]
pub struct OpReport {
    /// The trace op id.
    pub id: u64,
    /// The op's phase label (shared with its [`PhaseReport`]).
    pub phase: Arc<str>,
    /// The op kind name (`"p2p"`, `"scatter"`, ...).
    pub kind: &'static str,
    /// Chosen algorithm for collective ops.
    pub algorithm: Option<&'static str>,
    /// Earliest predicted activity of the op (seconds from t=0).
    pub start: f64,
    /// Latest predicted activity of the op.
    pub end: f64,
}

/// Per-phase breakdown: the span of all ops sharing a phase label.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// The phase label.
    pub phase: Arc<str>,
    /// Earliest predicted activity in the phase, seconds from t=0.
    pub start: f64,
    /// Latest predicted activity in the phase.
    pub end: f64,
}

/// One resource occupancy on the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CpStep {
    /// Rank whose resource the step occupies: the sender for
    /// `tx`/`latency`/`wire`/`p2p` steps, the receiver for `rx`.
    pub rank: usize,
    /// Trace op id the step implements.
    pub op: u64,
    /// Resource kind: `"tx"`, `"latency"`, `"wire"`, `"rx"` (separable
    /// LMO), `"p2p"` (whole-transfer models) or `"compute"`.
    pub kind: &'static str,
    /// Step start, seconds from t=0.
    pub start: f64,
    /// Step end, seconds from t=0.
    pub end: f64,
    /// Model-term attribution of `end - start`: `C`/`t`/`L`/`beta` under
    /// LMO (`L[<level>]`/`beta[<level>]` under the hierarchical model),
    /// `alpha`/`beta` under whole-transfer models, plus `compute`.
    pub terms: Vec<(Term, f64)>,
}

/// A model-term name in a critical path: static, except the per-level
/// link terms of a hierarchical model.
pub type Term = Cow<'static, str>;

/// The longest dependency chain behind a plan's makespan: the sequence of
/// resource occupancies in which every step begins exactly where its
/// binding predecessor ends, starting at t=0 and ending at the makespan.
///
/// This is the explanation the paper asks predictions to come with:
/// summing [`CriticalPath::terms`] recovers the makespan (up to float
/// rounding), so the breakdown says which model parameters — per-level
/// where the model is hierarchical — the predicted time is made of.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Total path time, seconds. Equals the makespan up to rounding.
    pub seconds: f64,
    /// The chain in time order; `steps[k].start == steps[k-1].end`.
    pub steps: Vec<CpStep>,
    /// Term attribution summed over the steps, in first-seen order.
    pub terms: Vec<(Term, f64)>,
}

impl CriticalPath {
    /// JSON form embedded in [`Plan::to_value`].
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let steps: Vec<Value> = self
            .steps
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("rank".to_string(), Value::U64(s.rank as u64)),
                    ("op".to_string(), Value::U64(s.op)),
                    ("kind".to_string(), Value::Str(s.kind.to_string())),
                    ("start".to_string(), Value::F64(s.start)),
                    ("end".to_string(), Value::F64(s.end)),
                    (
                        "terms".to_string(),
                        Value::Map(
                            s.terms
                                .iter()
                                .map(|(k, v)| (k.to_string(), Value::F64(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("seconds".to_string(), Value::F64(self.seconds)),
            (
                "terms".to_string(),
                Value::Map(
                    self.terms
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::F64(*v)))
                        .collect(),
                ),
            ),
            ("steps".to_string(), Value::Seq(steps)),
        ])
    }
}

/// The analytic prediction for one trace under one model.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The model the plan was evaluated under.
    pub model: ModelKind,
    /// Canonical hash of the planned trace.
    pub trace_hash: String,
    /// Predicted end-to-end makespan, seconds.
    pub makespan: f64,
    /// Per-op schedule windows and algorithm choices.
    pub ops: Vec<OpReport>,
    /// Per-phase spans.
    pub phases: Vec<PhaseReport>,
    /// The binding dependency chain and its model-term attribution.
    pub critical_path: CriticalPath,
}

impl Plan {
    /// JSON form used by the serve `plan` verb and the CLI.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|o| {
                let mut entries = vec![
                    ("id".to_string(), Value::U64(o.id)),
                    ("phase".to_string(), Value::Str(o.phase.to_string())),
                    ("kind".to_string(), Value::Str(o.kind.to_string())),
                ];
                if let Some(a) = o.algorithm {
                    entries.push(("algorithm".to_string(), Value::Str(a.to_string())));
                }
                entries.push(("start".to_string(), Value::F64(o.start)));
                entries.push(("end".to_string(), Value::F64(o.end)));
                Value::Map(entries)
            })
            .collect();
        let phases: Vec<Value> = self
            .phases
            .iter()
            .map(|p| {
                Value::Map(vec![
                    ("phase".to_string(), Value::Str(p.phase.to_string())),
                    ("start".to_string(), Value::F64(p.start)),
                    ("end".to_string(), Value::F64(p.end)),
                    ("seconds".to_string(), Value::F64(p.end - p.start)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("model".to_string(), Value::Str(self.model.to_string())),
            (
                "trace_hash".to_string(),
                Value::Str(self.trace_hash.clone()),
            ),
            ("makespan_seconds".to_string(), Value::F64(self.makespan)),
            ("ops".to_string(), Value::Seq(ops)),
            ("phases".to_string(), Value::Seq(phases)),
            ("critical_path".to_string(), self.critical_path.to_value()),
        ])
    }
}

/// The cluster a whole-transfer model runs on: it charges nothing itself,
/// [`charge_whole_transfers`] puts `T(src, dst, M)` on the sender.
fn transfer_cluster(n: usize) -> SimCluster {
    let truth = GroundTruth {
        c: vec![0.0; n],
        t: vec![0.0; n],
        l: SymMatrix::filled(n, 0.0),
        beta: SymMatrix::filled(n, f64::INFINITY),
    };
    SimCluster::new(truth, MpiProfile::ideal(), 0.0, 0)
}

/// Hockney, LogGP and PLogP cannot separate the contributions of the
/// processors and the network (the paper's central criticism), so the
/// sender is occupied for the whole `T(src, dst, M)` and the message is
/// visible at send start + `T`, with no wire or receive-side resource:
/// every `Send` gets a `Compute { T }` of the same op in front of it, and
/// the cluster it then runs on charges the send itself nothing.
fn charge_whole_transfers(mut lowered: Lowered, p2p: &dyn PointToPoint) -> Lowered {
    let ranks = lowered.per_rank.iter_mut().zip(&mut lowered.op_of);
    for (r, (prims, ops)) in ranks.enumerate() {
        let uncharged = std::mem::take(prims).into_iter().zip(std::mem::take(ops));
        for (prim, op) in uncharged {
            if let ScriptOp::Send { dst, bytes } = prim {
                let secs = clamp(p2p.p2p(Rank(r as u32), dst, bytes));
                prims.push(ScriptOp::Compute { secs });
                ops.push(op);
            }
            prims.push(prim);
            ops.push(op);
        }
    }
    lowered
}

/// Chooses the algorithm per collective op under `model`: per rooted op,
/// the argmin of `cpm_collectives::cost` over the model's candidates
/// (linear, binomial, and under [`PlanModel::LmoHier`] the leader-based
/// two-phase schedule) — the same chooser `TunedCollectives`, the service's
/// `select` and `cpm predict` use.
pub fn choose(trace: &Trace, model: &PlanModel) -> Vec<Option<Algorithm>> {
    let mut costs = None;
    choose_by(trace, |op| {
        cost::choose(costs.get_or_insert_with(|| model.cost_model()), op)
    })
}

/// [`choose`] with `pick` choosing for each rooted op — built lazily by
/// the callers, since a trace without a rooted collective needs no
/// machine. A trace repeats its collectives, so each distinct one is
/// picked once.
pub(crate) fn choose_by(
    trace: &Trace,
    mut pick: impl FnMut(Op) -> Algorithm,
) -> Vec<Option<Algorithm>> {
    let mut picked = HashMap::new();
    let key = |op: Op| {
        let (kind, gamma) = match op.kind {
            Rooted::Scatter => (0u8, 0.0),
            Rooted::Gather => (1, 0.0),
            Rooted::Bcast => (2, 0.0),
            Rooted::Reduce { gamma } => (3, gamma),
        };
        (kind, gamma.to_bits(), op.root, op.m)
    };
    trace
        .ops
        .iter()
        .map(|op| match (op.kind.rooted(), &op.kind) {
            (Some(rooted), _) => Some(*picked.entry(key(rooted)).or_insert_with(|| pick(rooted))),
            (None, OpKind::Allgather { .. }) => Some(Algorithm::Ring),
            (None, OpKind::Alltoall { .. }) => Some(Algorithm::Rotation),
            (None, _) => None,
        })
        .collect()
}

/// Where a backward walk along binding predecessors stands.
enum At {
    /// On a rank, with this many of its primitives completed.
    Rank(usize, usize),
    /// At the end of a message's rx-engine slot.
    Rx(usize),
    /// At the end of a message's wire slot.
    Wire(usize),
    /// At the start of a message's wire slot: its admission.
    Admitted(usize),
}

/// One message of a traced run, as the critical-path walk reads it: 32
/// bytes of 32-bit indices, because the pass that builds them is bound by
/// memory traffic.
#[derive(Clone, Copy)]
struct Msg {
    /// Where its `TxSlot`, `Wire` and `RxSlot` events are in the trace.
    tx: u32,
    wire: u32,
    rx: u32,
    /// The posting `Send`'s index in the sender's program.
    k: u32,
    /// The message that held its connection's wire before it, or [`NONE`].
    prev_wire: u32,
    /// The large message its receiver's ingress admitted before it, or
    /// [`NONE`].
    prev_ingress: u32,
    /// The message its receiver's rx engine processed before it, or
    /// [`NONE`].
    prev_rx: u32,
    /// Whether the receiver's ingress admits it alone (`M ≥ M2`).
    large: bool,
}

/// No message: a [`Msg`] field with no predecessor.
const NONE: u32 = u32::MAX;

/// The critical path as a pure function of a traced kernel run: the
/// per-primitive windows plus the trace's tx/wire/rx slots and receive
/// matches. Walks binding predecessors back from the rank that realizes
/// the makespan — a receive that waited binds to its message (rx slot ←
/// wire slot ← latency ← tx slot ← the sender's program), a resource that
/// was still busy (`>`; a tie keeps the message chain) binds to its
/// previous occupant — for a wire slot, the connection's previous transfer
/// or, for a large message, the previous large transfer into the receiver
/// (its ingress admits one at a time) — a large send that was held binds
/// to its admission, a barrier binds everyone to its latest arriver — and
/// renders the chain in time order. Term names carry the level of the
/// pair under a hierarchical model.
fn critical_path(
    trace: &Trace,
    lowered: &Lowered,
    out: &ScriptOutcome,
    (cluster, whole): (&SimCluster, Option<&dyn PointToPoint>),
    hier: Option<&HierLmo>,
) -> CriticalPath {
    let events = out.trace.as_ref().map_or(&[][..], |t| &t.events);
    let (windows, n) = (&out.windows, lowered.n);

    // One pass over the trace builds one record per message (ids are
    // assigned in TxSlot order) and, for every Send and Recv primitive,
    // the message it posted or matched: `msg_of[base[r] + k]`. Scripted
    // ranks are sequential, so a rank's slots and matches come in program
    // order and one cursor per rank finds their primitives.
    let base: Vec<usize> = std::iter::once(0)
        .chain(lowered.per_rank.iter().scan(0, |at, p| {
            *at += p.len();
            Some(*at)
        }))
        .collect();
    // Every index a `Msg` stores — event, message, primitive — is below
    // these two counts.
    assert!(
        events.len().max(base[n]) < NONE as usize,
        "a traced run indexes below 2^32 - 1"
    );
    let mut msg_of = vec![NONE; base[n]];
    let mut cursor = vec![0usize; n];
    let mut handled = |r: usize, msg: usize, send: bool| {
        let ahead = lowered.per_rank[r][cursor[r]..]
            .iter()
            .position(|p| match p {
                ScriptOp::Send { .. } => send,
                ScriptOp::Recv { .. } => !send,
                _ => false,
            });
        let k = cursor[r] + ahead.expect("a traced slot has its primitive");
        cursor[r] = k + 1;
        msg_of[base[r] + k] = msg as u32;
        k as u32
    };
    let mut msgs: Vec<Msg> = Vec::with_capacity(out.stats.msgs_sent);
    let mut last_wire = PairTable::<Option<u32>>::new(n);
    let (mut last_rx, mut last_large) = (vec![NONE; n], vec![NONE; n]);
    for (at, ev) in events.iter().enumerate() {
        let at = at as u32;
        match *ev {
            TraceEvent::TxSlot {
                msg, src, bytes, ..
            } => {
                debug_assert_eq!(msg, msgs.len(), "messages are numbered as posted");
                let k = handled(src.idx(), msg, true);
                msgs.push(Msg {
                    tx: at,
                    wire: NONE,
                    rx: NONE,
                    k,
                    prev_wire: NONE,
                    prev_ingress: NONE,
                    prev_rx: NONE,
                    large: cluster.profile.is_large(bytes),
                });
            }
            TraceEvent::Wire { msg, src, dst, .. } => {
                let m = &mut msgs[msg];
                m.wire = at;
                let last = last_wire.slot(src.idx(), dst.idx());
                m.prev_wire = last.replace(msg as u32).unwrap_or(NONE);
                if m.large {
                    m.prev_ingress = std::mem::replace(&mut last_large[dst.idx()], msg as u32);
                }
            }
            TraceEvent::RxSlot { msg, dst, .. } => {
                let m = &mut msgs[msg];
                m.rx = at;
                m.prev_rx = std::mem::replace(&mut last_rx[dst.idx()], msg as u32);
            }
            TraceEvent::Received { msg, by, .. } => {
                handled(by.idx(), msg, false);
            }
            TraceEvent::BarrierRelease { .. } => {}
        }
    }
    let msg_at = |r: usize, k: usize| msg_of[base[r] + k] as usize;
    let msg = |i: u32| &msgs[i as usize];
    let span = |at: u32| match events[at as usize] {
        TraceEvent::TxSlot { start, end, .. }
        | TraceEvent::Wire { start, end, .. }
        | TraceEvent::RxSlot { start, end, .. } => (start, end),
        _ => unreachable!("only slot events are indexed"),
    };
    // Who sent a message where, its size, and the trace op it implements.
    let posted = |m: &Msg| match events[m.tx as usize] {
        TraceEvent::TxSlot {
            src, dst, bytes, ..
        } => (src, dst, bytes, lowered.op_of[src.idx()][m.k as usize]),
        _ => unreachable!("Msg::tx indexes a TxSlot event"),
    };

    // Per level of a hierarchical model, its latency and bandwidth terms.
    let levels: Vec<[Term; 2]> = hier.map_or_else(Vec::new, |h| {
        h.levels
            .iter()
            .map(|l| {
                [
                    Term::Owned(format!("L[{}]", l.name)),
                    Term::Owned(format!("beta[{}]", l.name)),
                ]
            })
            .collect()
    });
    let link_term = |which: usize, src: Rank, dst: Rank| match hier {
        Some(h) => levels[h.level_of(src, dst)][which].clone(),
        None => Term::Borrowed(["L", "beta"][which]),
    };
    let engine_terms = |rank: Rank, bytes: Bytes| {
        let (c, t) = cluster.engine(rank.idx());
        vec![
            (Term::Borrowed("C"), c),
            (Term::Borrowed("t"), bytes as f64 * t),
        ]
    };

    // Steps are collected walking backwards, then reversed.
    let mut steps: Vec<CpStep> = Vec::new();
    let mut step = |rank: usize, op: usize, kind, (start, end), terms| {
        let op = trace.ops[op].id;
        steps.push(CpStep {
            rank,
            op,
            kind,
            start,
            end,
            terms,
        })
    };
    let last = (0..n)
        .max_by(|&a, &b| out.finish_times[a].total_cmp(&out.finish_times[b]))
        .unwrap_or(0);
    let mut at = At::Rank(last, lowered.per_rank[last].len());
    loop {
        at = match at {
            At::Rank(_, 0) => break,
            At::Rank(r, done) => {
                let (k, me) = (done - 1, Rank(r as u32));
                let op = lowered.op_of[r][k];
                let before = At::Rank(r, k);
                match lowered.per_rank[r][k] {
                    ScriptOp::Compute { .. } => {
                        let w = windows[r][k];
                        let terms = vec![(Term::Borrowed("compute"), w.1 - w.0)];
                        step(r, op, "compute", w, terms);
                        before
                    }
                    ScriptOp::Send { dst, bytes } => match whole {
                        None => {
                            let msg = msg_at(r, k);
                            // A large send is held until the receiver's
                            // ingress admits it.
                            if windows[r][k].1 > span(msgs[msg].tx).1 {
                                At::Admitted(msg)
                            } else {
                                step(r, op, "tx", windows[r][k], engine_terms(me, bytes));
                                before
                            }
                        }
                        // The charge in front of the send is the transfer,
                        // split into the model's zero-byte time (`alpha`,
                        // clamped so a degenerate fit still attributes
                        // non-negative terms) and the size-dependent rest.
                        Some(p2p) => {
                            let w = windows[r][k - 1];
                            let alpha =
                                clamp(p2p.p2p(me, dst, 0)).min(clamp(p2p.p2p(me, dst, bytes)));
                            let beta = (w.1 - w.0) - alpha;
                            let terms = vec![
                                (Term::Borrowed("alpha"), alpha),
                                (Term::Borrowed("beta"), beta),
                            ];
                            step(r, op, "p2p", w, terms);
                            At::Rank(r, k - 1)
                        }
                    },
                    // A receive that waited (`>`) binds to its message;
                    // otherwise the rank's own chain continues.
                    ScriptOp::Recv { .. } => {
                        let msg = msg_at(r, k);
                        let m = &msgs[msg];
                        if span(m.rx).1 <= windows[r][k].0 {
                            before
                        } else if whole.is_some() {
                            At::Rank(posted(m).0.idx(), m.k as usize + 1)
                        } else {
                            At::Rx(msg)
                        }
                    }
                    // Every rank leaves a barrier on its latest arriver's
                    // chain; each rank's barrier for this op is found by
                    // the op tag (`op_of` is sorted).
                    ScriptOp::Barrier => (0..n)
                        .map(|q| (q, lowered.op_of[q].partition_point(|&o| o < op)))
                        .max_by(|a, b| windows[a.0][a.1].0.total_cmp(&windows[b.0][b.1].0))
                        .map_or(before, |(r, done)| At::Rank(r, done)),
                    ScriptOp::Isend { .. } | ScriptOp::WaitSend => {
                        unreachable!("lower emits blocking primitives only")
                    }
                }
            }
            At::Rx(i) => {
                let m = &msgs[i];
                let (_, dst, bytes, op) = posted(m);
                step(dst.idx(), op, "rx", span(m.rx), engine_terms(dst, bytes));
                match m.prev_rx {
                    p if p != NONE && span(msg(p).rx).1 > span(m.wire).1 => At::Rx(p as usize),
                    _ => At::Wire(i),
                }
            }
            At::Wire(i) => {
                let m = &msgs[i];
                let (src, dst, bytes, op) = posted(m);
                let wire = bytes as f64 / cluster.rate(src, dst);
                let terms = vec![(link_term(1, src, dst), wire)];
                step(src.idx(), op, "wire", span(m.wire), terms);
                At::Admitted(i)
            }
            // The wire slot started at the arrival, unless the connection
            // or (large messages) the receiver's ingress was still busy.
            At::Admitted(i) => {
                let m = &msgs[i];
                let (src, dst, bytes, op) = posted(m);
                let (tx, lat) = (span(m.tx), cluster.latency(src, dst));
                let arrival = tx.1 + lat;
                let busy = [m.prev_wire, m.prev_ingress]
                    .into_iter()
                    .filter(|&p| p != NONE)
                    .map(|p| (span(msg(p).wire).1, p))
                    .filter(|&(end, _)| end > arrival)
                    .max_by(|a, b| a.0.total_cmp(&b.0));
                match busy {
                    Some((_, p)) => At::Wire(p as usize),
                    None => {
                        let terms = vec![(link_term(0, src, dst), lat)];
                        step(src.idx(), op, "latency", (tx.1, arrival), terms);
                        step(src.idx(), op, "tx", tx, engine_terms(src, bytes));
                        At::Rank(src.idx(), m.k as usize)
                    }
                }
            }
        };
    }
    steps.reverse();

    let mut terms: Vec<(Term, f64)> = Vec::new();
    let mut seconds = 0.0;
    for s in &steps {
        seconds += s.end - s.start;
        for (k, v) in &s.terms {
            match terms.iter_mut().find(|(name, _)| name == k) {
                Some((_, acc)) => *acc += *v,
                None => terms.push((k.clone(), *v)),
            }
        }
    }
    CriticalPath {
        seconds,
        steps,
        terms,
    }
}

/// Wall-clock self-profile of one [`plan_profiled`] evaluation, split
/// into the planner's two phases: *lower* (the model's cluster, per-op
/// algorithm choice and lowering into per-rank primitive programs) and
/// *analyze* (the traced kernel run, the critical-path walk and report
/// assembly).
///
/// Kept out of [`Plan`] deliberately: plans are deterministic and
/// golden-tested, wall-clock timings are not. The serve layer records
/// the profile into the `cpm_plan_phase_ns` histograms of its metrics
/// registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanProfile {
    /// Nanoseconds spent choosing algorithms and lowering the trace.
    pub lower_ns: u64,
    /// Nanoseconds spent in the kernel run, path walk and report build.
    pub analyze_ns: u64,
}

/// Predicts the end-to-end makespan of `trace` under `model`, with per-op
/// algorithm choices and a per-phase breakdown.
pub fn plan(trace: &Trace, model: &PlanModel) -> Result<Plan, WorkloadError> {
    plan_profiled(trace, model).map(|(p, _)| p)
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`plan`], additionally reporting how long the planner's own phases
/// took ([`PlanProfile`]). Each phase is also recorded as a span
/// (`plan.lower`, `plan.analyze`) on the global flight recorder, so a
/// `trace` dump breaks a served `plan` request down by phase.
pub fn plan_profiled(
    trace: &Trace,
    model: &PlanModel,
) -> Result<(Plan, PlanProfile), WorkloadError> {
    trace.validate()?;
    let model_n = model.as_p2p().n();
    if model_n != trace.n {
        return Err(WorkloadError::Invalid(format!(
            "trace is for n={} but the model was estimated for n={model_n}",
            trace.n
        )));
    }
    let mut profile = PlanProfile::default();
    let t_lower = std::time::Instant::now();
    let hier = match model {
        PlanModel::LmoHier(h) => Some(h),
        _ => None,
    };
    let costs = model.cost_model();
    let transfers;
    let (cluster, whole, lowered) = {
        let mut sp = cpm_obs::span("plan.lower");
        sp.field_u64("ops", trace.ops.len() as u64);
        let (cluster, whole) = match &costs {
            CostModel::Machine(machine) => (machine.cluster(), None),
            _ => {
                transfers = transfer_cluster(model_n);
                (&transfers, Some(model.as_p2p()))
            }
        };
        let lowered = lower(trace, &choose_by(trace, |op| cost::choose(&costs, op)));
        let lowered = match whole {
            Some(p2p) => charge_whole_transfers(lowered, p2p),
            None => lowered,
        };
        (cluster, whole, lowered)
    };
    profile.lower_ns = elapsed_ns(t_lower);
    let t_analyze = std::time::Instant::now();
    let sp_analyze = cpm_obs::span("plan.analyze");
    let out = run_lowered(cluster, &lowered, true)?;

    // One pass over the ops: each op's report, and its phase's span.
    let (names, phase_of) = trace.phase_index();
    let names: Vec<Arc<str>> = names.into_iter().map(Arc::from).collect();
    let mut spans = vec![(f64::INFINITY, f64::NEG_INFINITY); names.len()];
    let ops: Vec<OpReport> = trace
        .ops
        .iter()
        .zip(phase_of)
        .zip(lowered.op_windows(&out.windows))
        .zip(&lowered.algorithms)
        .map(|(((op, phase), window), algorithm)| {
            let (start, end) = window.unwrap_or((0.0, 0.0));
            let span = &mut spans[phase];
            *span = (span.0.min(start), span.1.max(end));
            OpReport {
                id: op.id,
                phase: Arc::clone(&names[phase]),
                kind: op.kind.name(),
                algorithm: algorithm.map(|a| a.as_str()),
                start,
                end,
            }
        })
        .collect();
    let phases = names
        .into_iter()
        .zip(spans)
        .map(|(phase, (start, end))| {
            let (start, end) = if start > end {
                (0.0, 0.0)
            } else {
                (start, end)
            };
            PhaseReport { phase, start, end }
        })
        .collect();

    let plan = Plan {
        model: model.kind(),
        trace_hash: trace.hash(),
        makespan: out.end_time,
        critical_path: critical_path(trace, &lowered, &out, (cluster, whole), hier),
        ops,
        phases,
    };
    drop(sp_analyze);
    profile.analyze_ns = elapsed_ns(t_analyze);
    Ok((plan, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::trace::TraceOp;
    use cpm_core::matrix::SymMatrix;
    use cpm_models::GatherEmpirics;

    fn lmo(n: usize) -> LmoExtended {
        LmoExtended::new(
            vec![40e-6; n],
            vec![7e-9; n],
            SymMatrix::filled(n, 42e-6),
            SymMatrix::filled(n, 11.7e6),
            GatherEmpirics::none(),
        )
    }

    fn p2p_trace(n: usize, m: Bytes) -> Trace {
        Trace {
            name: "p2p".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "x".into(),
                kind: OpKind::P2p {
                    src: Rank(0),
                    dst: Rank(1),
                    m,
                },
            }],
        }
    }

    #[test]
    fn lone_p2p_sums_the_extended_lmo_terms() {
        let model = lmo(4);
        let m = 8192u64;
        let t = p2p_trace(4, m);
        let p = plan(&t, &PlanModel::Lmo(model.clone())).unwrap();
        let expected = model.time(Rank(0), Rank(1), m);
        assert!(
            (p.makespan - expected).abs() < 1e-12,
            "{} vs {expected}",
            p.makespan
        );
        assert_eq!(p.ops.len(), 1);
        assert!((p.ops[0].end - expected).abs() < 1e-12);
    }

    #[test]
    fn lone_p2p_under_homogeneous_models_is_the_model_time() {
        let m = 4096u64;
        let t = p2p_trace(4, m);
        let g = LogGp {
            l: 50e-6,
            o: 5e-6,
            g: 1e-6,
            big_g: 9e-8,
            p: 4,
        };
        let p = plan(&t, &PlanModel::Loggp(g.clone())).unwrap();
        assert!((p.makespan - g.time(m)).abs() < 1e-12);
    }

    #[test]
    fn reduce_charges_combine_time() {
        let n = 4;
        let model = lmo(n);
        let m = 4096u64;
        let mk = |gamma: f64| Trace {
            name: "r".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "r".into(),
                kind: OpKind::Reduce {
                    root: Rank(0),
                    m,
                    gamma,
                },
            }],
        };
        let without = plan(&mk(0.0), &PlanModel::Lmo(model.clone())).unwrap();
        let with = plan(&mk(1e-7), &PlanModel::Lmo(model.clone())).unwrap();
        assert!(
            with.makespan > without.makespan,
            "{} vs {}",
            with.makespan,
            without.makespan
        );
    }

    #[test]
    fn pipeline_overlaps_under_lmo_but_not_under_hockney() {
        // LMO's separable send lets stage s start batch b+1 while batch b
        // is still in flight; whole-transfer occupancy cannot. With equal
        // per-hop times, the homogeneous prediction must be at least as
        // large.
        let n = 4;
        let t = gen::pipeline(n, 32 * 1024, 4, 0.0);
        let l = lmo(n);
        let lmo_pred = plan(&t, &PlanModel::Lmo(l.clone())).unwrap().makespan;
        let hom = cpm_models::HockneyHet::new(
            SymMatrix::filled(n, 2.0 * 40e-6 + 42e-6),
            SymMatrix::filled(n, 1.0 / (1.0 / 11.7e6 + 2.0 * 7e-9)),
        );
        let hock_pred = plan(&t, &PlanModel::Hockney(hom)).unwrap().makespan;
        assert!(
            hock_pred > lmo_pred,
            "hockney {hock_pred} should exceed lmo {lmo_pred}"
        );
    }

    #[test]
    fn canonical_workloads_plan_without_deadlock() {
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 8, 4096, 2).unwrap();
            let p = plan(&t, &PlanModel::Lmo(lmo(8))).unwrap();
            assert!(p.makespan > 0.0, "{kind}");
            assert_eq!(p.ops.len(), t.ops.len());
            assert!(!p.phases.is_empty());
            // Op windows are sane and inside the makespan.
            for o in &p.ops {
                assert!(o.start <= o.end, "{kind} op {}", o.id);
                assert!(o.end <= p.makespan + 1e-12, "{kind} op {}", o.id);
            }
        }
    }

    #[test]
    fn mismatched_model_size_is_rejected() {
        let t = p2p_trace(4, 1024);
        let err = plan(&t, &PlanModel::Lmo(lmo(8))).unwrap_err();
        assert!(matches!(err, WorkloadError::Invalid(_)));
    }

    #[test]
    fn barrier_synchronizes_the_plan() {
        let n = 4;
        let t = Trace {
            name: "b".into(),
            n,
            ops: vec![
                TraceOp {
                    id: 0,
                    phase: "a".into(),
                    kind: OpKind::Compute {
                        ranks: vec![Rank(2)],
                        seconds: 1.0,
                    },
                },
                TraceOp {
                    id: 1,
                    phase: "a".into(),
                    kind: OpKind::Barrier,
                },
            ],
        };
        let p = plan(&t, &PlanModel::Lmo(lmo(n))).unwrap();
        assert!((p.makespan - 1.0).abs() < 1e-12);
    }

    fn hier(cores: usize, nodes: usize) -> HierLmo {
        let n = cores * nodes;
        HierLmo::new(
            vec![40e-6; n],
            vec![7e-9; n],
            vec![
                cpm_models::HierLevel {
                    name: "node".into(),
                    arity: cores,
                    c: 0.0,
                    t: 0.0,
                    l: 15e-6,
                    beta: 45e6,
                },
                cpm_models::HierLevel {
                    name: "switch".into(),
                    arity: nodes,
                    c: 0.0,
                    t: 0.0,
                    l: 42e-6,
                    beta: 11.7e6,
                },
            ],
            GatherEmpirics::none(),
        )
    }

    #[test]
    fn hier_chooser_picks_two_phase_when_favored() {
        // 4 nodes × 8 cores, 64 KiB bcast: the intra-node wire is slow
        // relative to the endpoint processing costs, so serving a node
        // once over the switch and fanning out locally wins.
        let h = hier(8, 4);
        let t = Trace {
            name: "b".into(),
            n: 32,
            ops: vec![TraceOp {
                id: 0,
                phase: "p".into(),
                kind: OpKind::Bcast {
                    root: Rank(0),
                    m: 64 * 1024,
                },
            }],
        };
        let choices = choose(&t, &PlanModel::LmoHier(h.clone()));
        assert_eq!(choices[0], Some(Algorithm::TwoPhase { intra: 8 }));
        // The machine confirms: two-phase strictly beats the flat binomial.
        let costs = CostModel::Machine(Machine::hier(&h));
        let op = t.ops[0].kind.rooted().unwrap();
        let two = cost::cost(&costs, op, Algorithm::TwoPhase { intra: 8 });
        let bin = cost::cost(&costs, op, Algorithm::Binomial);
        assert!(two < bin, "two-phase {two} vs binomial {bin}");
    }

    #[test]
    fn hier_plan_reports_its_kind_and_never_loses_to_flat_choice() {
        let h = hier(4, 4);
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 16, 32 * 1024, 2).unwrap();
            let hp = plan(&t, &PlanModel::LmoHier(h.clone())).unwrap();
            assert_eq!(hp.model, ModelKind::LmoHier);
            // Same machine semantics, strictly larger algorithm menu: the
            // hierarchical chooser can only match or improve the flat one.
            let fp = plan(&t, &PlanModel::Lmo(h.to_extended())).unwrap();
            assert!(
                hp.makespan <= fp.makespan + 1e-12,
                "{kind}: hier {} vs flat {}",
                hp.makespan,
                fp.makespan
            );
        }
    }

    fn assert_path_explains(p: &Plan, what: &str) {
        assert_explains(&p.critical_path, p.makespan, what);
    }

    fn assert_explains(cp: &CriticalPath, makespan: f64, what: &str) {
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        assert!(
            rel(cp.seconds, makespan) < 1e-9,
            "{what}: path {} vs makespan {makespan}",
            cp.seconds
        );
        let term_sum: f64 = cp.terms.iter().map(|(_, v)| v).sum();
        assert!(
            rel(term_sum, makespan) < 1e-9,
            "{what}: terms {term_sum} vs makespan {makespan}"
        );
        // The chain is gap-free: starts at 0, each step starts where its
        // predecessor ends, and it ends at the makespan.
        let mut at = 0.0;
        for s in &cp.steps {
            assert!(
                (s.start - at).abs() < 1e-12 * (1.0 + at.abs()),
                "{what}: step starts at {} but chain is at {at}",
                s.start
            );
            let step_terms: f64 = s.terms.iter().map(|(_, v)| v).sum();
            assert!(
                (step_terms - (s.end - s.start)).abs() < 1e-12 + 1e-9 * s.end,
                "{what}: step terms {step_terms} vs span {}",
                s.end - s.start
            );
            at = s.end;
        }
        assert!(rel(at, makespan) < 1e-9, "{what}: chain ends at {at}");
    }

    /// At `M ≥ M2` the receiver's ingress admits one transfer at a time
    /// and a blocking send returns at its admission. Three senders gather
    /// 16 KiB (M2 = 4 KiB) into rank 0, then compute for a second each: the
    /// last one admitted finishes last, and its path runs back through its
    /// held send to its admission, through the two transfers the ingress
    /// admitted first, to the first sender's tx slot.
    #[test]
    fn large_fan_ins_bind_to_the_ingress_and_the_admission() {
        let n = 4;
        let mut model = lmo(n);
        model.gather = GatherEmpirics {
            m1: 1024,
            m2: 4096,
            ..GatherEmpirics::none()
        };
        let machine = Machine::lmo(&model);
        let op = |id, kind| TraceOp {
            id,
            phase: "p".into(),
            kind,
        };
        let t = Trace {
            name: "fan-in".into(),
            n,
            ops: vec![
                op(
                    0,
                    OpKind::Gather {
                        root: Rank(0),
                        m: 16 * 1024,
                    },
                ),
                op(
                    1,
                    OpKind::Compute {
                        ranks: vec![Rank(1), Rank(2), Rank(3)],
                        seconds: 1.0,
                    },
                ),
            ],
        };
        let lowered = lower(&t, &[Some(Algorithm::Linear), None]);
        let out = run_lowered(machine.cluster(), &lowered, true).unwrap();
        let cp = critical_path(&t, &lowered, &out, (machine.cluster(), None), None);
        assert_explains(&cp, out.end_time, "held fan-in");
        let kinds: Vec<&str> = cp.steps.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["tx", "latency", "wire", "wire", "compute"]);
        let senders: Vec<usize> = cp.steps.iter().map(|s| s.rank).collect();
        assert_eq!(senders[0], senders[2]);
        assert!(senders[2] != senders[3] && senders[3] != senders[4]);
    }

    #[test]
    fn lone_p2p_critical_path_walks_tx_latency_wire_rx() {
        let model = lmo(4);
        let m = 8192u64;
        let p = plan(&p2p_trace(4, m), &PlanModel::Lmo(model.clone())).unwrap();
        let kinds: Vec<&str> = p.critical_path.steps.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["tx", "latency", "wire", "rx"]);
        assert_path_explains(&p, "lone p2p");
        // Terms are exactly the extended-LMO decomposition of eq. (1).
        let get = |k: &str| {
            p.critical_path
                .terms
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get("C") - 2.0 * 40e-6).abs() < 1e-15);
        assert!((get("t") - 2.0 * m as f64 * 7e-9).abs() < 1e-15);
        assert!((get("L") - 42e-6).abs() < 1e-15);
        assert!((get("beta") - m as f64 / 11.7e6).abs() < 1e-15);
    }

    #[test]
    fn critical_path_explains_every_canonical_workload_under_every_model() {
        let n = 8;
        let models = [
            PlanModel::Lmo(lmo(n)),
            PlanModel::Hockney(cpm_models::HockneyHet::new(
                SymMatrix::filled(n, 90e-6),
                SymMatrix::filled(n, 10e6),
            )),
            PlanModel::Loggp(LogGp {
                l: 50e-6,
                o: 5e-6,
                g: 1e-6,
                big_g: 9e-8,
                p: n,
            }),
        ];
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, n, 4096, 2).unwrap();
            for pm in &models {
                let what = format!("{kind}/{}", pm.kind());
                let p = plan(&t, pm).unwrap();
                assert!(!p.critical_path.steps.is_empty(), "{what}: empty path");
                assert_path_explains(&p, &what);
            }
        }
    }

    #[test]
    fn hier_critical_path_labels_terms_per_level() {
        let h = hier(4, 4);
        let t = gen::canonical("train", 16, 32 * 1024, 2).unwrap();
        let p = plan(&t, &PlanModel::LmoHier(h)).unwrap();
        assert_path_explains(&p, "hier train");
        let names: Vec<&str> = p
            .critical_path
            .terms
            .iter()
            .map(|(n, _)| n.as_ref())
            .collect();
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("L[") || n.starts_with("beta[")),
            "no level-suffixed link terms in {names:?}"
        );
        // Level names come from the model's topology.
        for n in names {
            if let Some(rest) = n.strip_prefix("L[").or_else(|| n.strip_prefix("beta[")) {
                assert!(matches!(rest, "node]" | "switch]"), "unknown level in {n}");
            }
        }
    }

    #[test]
    fn critical_path_rides_the_slow_compute_through_a_barrier() {
        // Rank 2 computes for a full second, everyone barriers, then rank 0
        // sends to rank 1: the path must be compute → (barrier) → send.
        let n = 4;
        let t = Trace {
            name: "cb".into(),
            n,
            ops: vec![
                TraceOp {
                    id: 7,
                    phase: "a".into(),
                    kind: OpKind::Compute {
                        ranks: vec![Rank(2)],
                        seconds: 1.0,
                    },
                },
                TraceOp {
                    id: 8,
                    phase: "a".into(),
                    kind: OpKind::Barrier,
                },
                TraceOp {
                    id: 9,
                    phase: "b".into(),
                    kind: OpKind::P2p {
                        src: Rank(0),
                        dst: Rank(1),
                        m: 4096,
                    },
                },
            ],
        };
        let p = plan(&t, &PlanModel::Lmo(lmo(n))).unwrap();
        assert_path_explains(&p, "compute+barrier+p2p");
        let cp = &p.critical_path;
        assert_eq!(cp.steps[0].kind, "compute");
        assert_eq!(cp.steps[0].op, 7);
        assert_eq!(cp.steps[0].rank, 2);
        assert!(cp.steps[1..].iter().all(|s| s.op == 9));
        let compute = cp
            .terms
            .iter()
            .find(|(n, _)| n == "compute")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((compute - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_json_carries_the_critical_path_section() {
        let p = plan(&p2p_trace(4, 1024), &PlanModel::Lmo(lmo(4))).unwrap();
        let v = p.to_value();
        let cp = v.get("critical_path").expect("critical_path section");
        let secs = cp.get("seconds").and_then(|s| s.as_f64()).unwrap();
        assert!((secs - p.makespan).abs() < 1e-12);
        let serde_json::Value::Seq(steps) = cp.get("steps").unwrap() else {
            panic!("steps should be a sequence");
        };
        assert_eq!(steps.len(), 4);
        assert!(cp.get("terms").and_then(|t| t.get("L")).is_some());
    }

    #[test]
    fn model_kind_round_trips_lmo_hier() {
        assert_eq!(ModelKind::parse("lmo-hier"), Some(ModelKind::LmoHier));
        assert_eq!(ModelKind::LmoHier.as_str(), "lmo-hier");
        assert!(!ModelKind::ALL.contains(&ModelKind::LmoHier));
    }

    #[test]
    fn choices_respond_to_message_size_under_lmo() {
        let n = 16;
        let model = PlanModel::Lmo(lmo(n));
        let tiny = Trace {
            name: "t".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "p".into(),
                kind: OpKind::Scatter {
                    root: Rank(0),
                    m: 128,
                },
            }],
        };
        let huge = Trace {
            name: "h".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "p".into(),
                kind: OpKind::Scatter {
                    root: Rank(0),
                    m: 256 * 1024,
                },
            }],
        };
        assert_eq!(choose(&tiny, &model)[0], Some(Algorithm::Binomial));
        assert_eq!(choose(&huge, &model)[0], Some(Algorithm::Linear));
    }
}
