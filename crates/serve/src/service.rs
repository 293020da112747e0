//! The prediction service: estimate-once caching over the registry.
//!
//! Three layers sit between a query and a simulation:
//!
//! 1. a sharded LRU cache of computed predictions, keyed by
//!    `(fingerprint, model, collective, algorithm, n, root, M)`;
//! 2. an in-memory map of loaded [`ParamSet`]s, backed by the on-disk
//!    registry;
//! 3. the estimation pipeline itself, guarded by single-flight dedup so
//!    concurrent misses for the same fingerprint trigger exactly one
//!    estimation run.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

use cpm_cluster::ClusterConfig;
use cpm_collectives::cost::{cheapest, cost, CostModel, Machine, Op, Rooted};
use cpm_collectives::TunedCollectives;
use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_estimate::EstimateConfig;
use cpm_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cpm_stats::hist::{HistSnapshot, LogHistogram};
use cpm_workload::{Plan, PlanModel, PlanProfile, Trace};
use parking_lot::{Mutex, RwLock};

use crate::registry::{fingerprint, validated, ParamSet, Registry, Result, ServeError};

/// Which estimated model answers a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's heterogeneous LMO model.
    Lmo,
    /// Hockney's latency/bandwidth model.
    Hockney,
    /// LogGP with a distinct gap per byte for large messages.
    Loggp,
    /// Parameterized LogP: piecewise per-size overheads and gaps.
    Plogp,
}

impl ModelKind {
    /// Parses the wire name (`lmo|hockney|loggp|plogp`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "lmo" => Ok(ModelKind::Lmo),
            "hockney" => Ok(ModelKind::Hockney),
            "loggp" => Ok(ModelKind::Loggp),
            "plogp" => Ok(ModelKind::Plogp),
            other => Err(ServeError::Protocol(format!(
                "unknown model {other:?} (expected lmo|hockney|loggp|plogp)"
            ))),
        }
    }

    /// The wire name (the inverse of [`ModelKind::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Lmo => "lmo",
            ModelKind::Hockney => "hockney",
            ModelKind::Loggp => "loggp",
            ModelKind::Plogp => "plogp",
        }
    }
}

/// How a `plan` request evaluates the submitted trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Critical-path evaluation under an estimated model (cheap,
    /// cacheable, the default).
    Analytic,
    /// Full discrete-event replay of the lowered trace on the simulated
    /// cluster — the same engine and algorithm choices as a direct
    /// `workload run`, so both answer identically on the same trace.
    Des,
}

impl Fidelity {
    /// Parses the wire name (`analytic|des`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "analytic" => Ok(Fidelity::Analytic),
            "des" => Ok(Fidelity::Des),
            other => Err(ServeError::Protocol(format!(
                "unknown fidelity {other:?} (expected analytic|des)"
            ))),
        }
    }

    /// The wire name (the inverse of [`Fidelity::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Analytic => "analytic",
            Fidelity::Des => "des",
        }
    }
}

/// The collective operation being predicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Root distributes a distinct block to every rank.
    Scatter,
    /// Every rank sends its block to the root.
    Gather,
    /// Root broadcasts one block to every rank.
    Bcast,
}

impl Collective {
    /// Parses the wire name (`scatter|gather|bcast`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "scatter" => Ok(Collective::Scatter),
            "gather" => Ok(Collective::Gather),
            "bcast" => Ok(Collective::Bcast),
            other => Err(ServeError::Protocol(format!(
                "unknown collective {other:?} (expected scatter|gather|bcast)"
            ))),
        }
    }

    /// The wire name (the inverse of [`Collective::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Collective::Scatter => "scatter",
            Collective::Gather => "gather",
            Collective::Bcast => "bcast",
        }
    }

    /// The collective as [`cost`] prices it.
    pub fn rooted(self) -> Rooted {
        match self {
            Collective::Scatter => Rooted::Scatter,
            Collective::Gather => Rooted::Gather,
            Collective::Bcast => Rooted::Bcast,
        }
    }
}

/// The algorithm variant being predicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Flat: the root exchanges with every rank directly.
    Linear,
    /// Binomial tree: log2(n) rounds of doubling subtrees.
    Binomial,
}

impl Algorithm {
    /// Parses the wire name (`linear|binomial`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "linear" => Ok(Algorithm::Linear),
            "binomial" => Ok(Algorithm::Binomial),
            other => Err(ServeError::Protocol(format!(
                "unknown algorithm {other:?} (expected linear|binomial)"
            ))),
        }
    }

    /// The wire name (the inverse of [`Algorithm::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Linear => "linear",
            Algorithm::Binomial => "binomial",
        }
    }

    /// The algorithm below the wire (`cpm_collectives::Algorithm`).
    pub fn below(self) -> cpm_collectives::Algorithm {
        match self {
            Algorithm::Linear => cpm_collectives::Algorithm::Linear,
            Algorithm::Binomial => cpm_collectives::Algorithm::Binomial,
        }
    }
}

/// One prediction request against a resolved cluster.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Model family answering the query.
    pub model: ModelKind,
    /// The collective operation being predicted.
    pub collective: Collective,
    /// The algorithm variant being predicted.
    pub algorithm: Algorithm,
    /// Message size, bytes.
    pub m: Bytes,
    /// Root rank of the collective.
    pub root: u32,
}

/// A served prediction.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predicted collective execution time, seconds.
    pub seconds: f64,
    /// Fingerprint of the cluster the prediction is for.
    pub fingerprint: String,
    /// `true` when served from the prediction cache without touching the
    /// parameter set.
    pub cached: bool,
}

/// Identifies a cluster: by value (estimating on demand) or by fingerprint
/// (must already be in the registry or loaded).
#[derive(Clone, Debug)]
pub enum ClusterRef {
    /// An embedded cluster configuration, estimated on first sight.
    Config(Box<ClusterConfig>),
    /// A fingerprint of an already-estimated (or persisted) cluster.
    Fingerprint(String),
}

impl ClusterRef {
    fn resolve_fingerprint(&self) -> String {
        match self {
            ClusterRef::Config(c) => fingerprint(c),
            ClusterRef::Fingerprint(fp) => fp.clone(),
        }
    }

    fn config(&self) -> Option<&ClusterConfig> {
        match self {
            ClusterRef::Config(c) => Some(c),
            ClusterRef::Fingerprint(_) => None,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    fp: String,
    model: ModelKind,
    collective: Collective,
    algorithm: Algorithm,
    n: usize,
    root: u32,
    m: Bytes,
}

struct Shard {
    map: HashMap<CacheKey, (f64, u64)>,
    tick: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<f64> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.1 = tick;
            slot.0
        })
    }

    fn put(&mut self, key: CacheKey, value: f64, capacity: usize) {
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        if self.map.len() > capacity {
            // Evict the least-recently-used entry. A linear scan is fine:
            // capacity is small and eviction is rare relative to lookups.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
    }
}

/// Parameter sets held in memory at once. A set is ~5.5 KB at 16 nodes
/// and any client can name never-seen configs, so the map is bounded;
/// every set is on disk before it is in memory, and
/// [`Service::param_set`] loads an evicted one back on its next use.
const RESIDENT_SETS: usize = 128;

/// The in-memory parameter sets, at most [`RESIDENT_SETS`] of them, the
/// oldest-inserted evicted first. Readers touch only `map`.
#[derive(Default)]
struct Resident {
    map: HashMap<String, Arc<ParamSet>>,
    /// Resident fingerprints, oldest insertion first.
    order: VecDeque<String>,
}

impl Resident {
    /// Makes `ps` the resident set of `fp` (replacing an older version in
    /// place), evicting the oldest fingerprint when over the bound.
    fn insert(&mut self, fp: String, ps: Arc<ParamSet>) {
        if self.map.insert(fp.clone(), ps).is_none() {
            self.order.push_back(fp);
            if self.order.len() > RESIDENT_SETS {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }
}

/// Marker for one in-progress estimation (single-flight).
struct Inflight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Self {
        Inflight {
            done: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn finish(&self) {
        *self.done.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}

/// The leader of a single-flight estimation. However it leaves — return,
/// error or unwind (the reactor catches a handler panic and keeps
/// serving) — the marker goes and the waiters wake to re-check, so a
/// failed estimate costs its own request, never the fingerprint.
struct Lead<'a>(&'a Service, &'a str, &'a Inflight);

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        self.0.inflight.lock().remove(self.1);
        self.2.finish();
    }
}

/// A protocol verb, as tracked by the per-verb latency histograms.
///
/// Covers the core vocabulary plus the drift-extension verbs so one
/// histogram array describes the whole wire surface of a drift-enabled
/// server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `predict` — one collective prediction.
    Predict,
    /// `select` — model-based algorithm selection.
    Select,
    /// `estimate` — force estimation of an embedded config.
    Estimate,
    /// `plan` — critical-path prediction of a workload trace.
    Plan,
    /// `batch` — an array of predict/select/plan requests in one round trip.
    Batch,
    /// `history` — registry version lineage.
    History,
    /// `stats` — service counters and latency histograms.
    Stats,
    /// `observe` — drift-extension: ingest one measured transfer time.
    Observe,
    /// `drift-status` — drift-extension: staleness report.
    DriftStatus,
    /// `trace` — flight-recorder dump as Chrome trace-event JSON.
    Trace,
    /// `shutdown` — stop the server.
    Shutdown,
    /// `fleet-install` — fleet-extension: apply a replicated parameter
    /// set at its already-assigned version (follower side).
    FleetInstall,
    /// `fleet-info` — fleet-extension: node role and shard topology.
    FleetInfo,
}

/// Every tracked verb, in wire-stable reporting order (new verbs are
/// appended, never inserted, so positional consumers stay valid).
pub const VERBS: [Verb; 13] = [
    Verb::Predict,
    Verb::Select,
    Verb::Estimate,
    Verb::Plan,
    Verb::Batch,
    Verb::History,
    Verb::Stats,
    Verb::Observe,
    Verb::DriftStatus,
    Verb::Trace,
    Verb::Shutdown,
    Verb::FleetInstall,
    Verb::FleetInfo,
];

impl Verb {
    /// The verb's wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Predict => "predict",
            Verb::Select => "select",
            Verb::Estimate => "estimate",
            Verb::Plan => "plan",
            Verb::Batch => "batch",
            Verb::History => "history",
            Verb::Stats => "stats",
            Verb::Observe => "observe",
            Verb::DriftStatus => "drift-status",
            Verb::Trace => "trace",
            Verb::Shutdown => "shutdown",
            Verb::FleetInstall => "fleet-install",
            Verb::FleetInfo => "fleet-info",
        }
    }

    fn index(self) -> usize {
        VERBS.iter().position(|v| *v == self).unwrap()
    }
}

/// Service counters, all registered in one [`MetricsRegistry`] (the
/// unified registry behind the `stats` text exposition). The struct
/// keeps named handles for the hot paths; everything it counts is also
/// reachable — with the drift extension's counters and the workload
/// planner's phase timings — through [`Metrics::registry`].
pub struct Metrics {
    registry: Arc<MetricsRegistry>,
    /// Predictions answered from the LRU cache.
    pub(crate) hits: Counter,
    /// Predictions that had to be computed from a parameter set.
    pub(crate) misses: Counter,
    /// Workload plans answered from the plan cache.
    pub(crate) plan_hits: Counter,
    /// Workload plans evaluated from scratch.
    pub(crate) plan_misses: Counter,
    /// Estimation pipeline runs (cold fingerprints).
    pub(crate) estimations: Counter,
    /// Parameter sets loaded from disk instead of estimated.
    pub(crate) registry_loads: Counter,
    /// Parameter sets republished (drift refits).
    pub(crate) republishes: Counter,
    /// Parameter sets currently stored in the registry (kept in sync by
    /// the service after every publish/load).
    pub(crate) stored: Gauge,
    predict_count: Counter,
    predict_ns_total: Counter,
    predict_ns_max: Gauge,
    /// Currently open client connections, across both serving engines.
    connections_active: Gauge,
    /// Request frames handled, by wire framing (`format="json"`).
    frames_json: Counter,
    /// Request frames handled, by wire framing (`format="binary"`).
    frames_binary: Counter,
    /// Per-verb request latency histograms, indexed by [`VERBS`] order.
    /// Shared across all pool workers; recording is wait-free.
    latency: Vec<Histogram>,
    /// Workload-planner phase timings (`phase="lower"` / `"analyze"`),
    /// fed from [`cpm_workload::PlanProfile`] on every plan-cache miss.
    plan_phase: [Histogram; 2],
    /// Discrete events processed by DES-fidelity plan replays.
    des_events: Counter,
    /// Wall-clock time of each DES-fidelity plan replay, nanoseconds.
    des_replay_ns: Histogram,
    /// Flight-recorder records abandoned by the global ring (mirrors
    /// [`cpm_obs::Recorder::dropped`], synced on every exposition).
    obs_dropped: Counter,
    /// Last recorder dropped-count folded into `obs_dropped` (the sync
    /// is a delta so the counter stays monotone across calls).
    obs_dropped_synced: AtomicU64,
    /// Critical-path length of each analytic plan, nanoseconds of
    /// predicted makespan attributed along the path.
    plan_critical_ns: Histogram,
    /// Number of ops on each analytic plan's critical path.
    plan_critical_ops: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// A point-in-time snapshot of [`Metrics`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Prediction-cache hits.
    pub hits: u64,
    /// Prediction-cache misses.
    pub misses: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Full estimation runs performed.
    pub estimations: u64,
    /// Parameter sets loaded from disk instead of estimated.
    pub registry_loads: u64,
    /// Parameter sets republished (drift refits).
    pub republishes: u64,
    /// Predictions served (hit or miss).
    pub predict_count: u64,
    /// Mean prediction latency, nanoseconds.
    pub predict_ns_mean: f64,
    /// Worst prediction latency, nanoseconds.
    pub predict_ns_max: u64,
}

impl Metrics {
    /// Creates the metric set inside a fresh unified registry.
    pub fn new() -> Metrics {
        let registry = Arc::new(MetricsRegistry::new());
        let c = |name, help| registry.counter(name, help, &[]);
        let latency = VERBS
            .iter()
            .map(|v| {
                registry.histogram(
                    "cpm_serve_latency_ns",
                    "End-to-end request handling latency per verb, nanoseconds.",
                    &[("verb", v.as_str())],
                )
            })
            .collect();
        let plan_phase = ["lower", "analyze"].map(|phase| {
            registry.histogram(
                "cpm_plan_phase_ns",
                "Workload-planner self-profile per phase, nanoseconds.",
                &[("phase", phase)],
            )
        });
        Metrics {
            hits: c(
                "cpm_serve_cache_hits",
                "Predictions answered from the LRU cache.",
            ),
            misses: c(
                "cpm_serve_cache_misses",
                "Predictions computed from a parameter set.",
            ),
            plan_hits: c(
                "cpm_serve_plan_cache_hits",
                "Workload plans answered from the plan cache.",
            ),
            plan_misses: c(
                "cpm_serve_plan_cache_misses",
                "Workload plans evaluated from scratch.",
            ),
            estimations: c(
                "cpm_serve_estimations",
                "Estimation pipeline runs (cold fingerprints).",
            ),
            registry_loads: c(
                "cpm_serve_registry_loads",
                "Parameter sets loaded from disk instead of estimated.",
            ),
            republishes: c(
                "cpm_serve_republishes",
                "Parameter sets republished (drift refits).",
            ),
            predict_count: c("cpm_serve_predictions", "Predictions served (hit or miss)."),
            predict_ns_total: c(
                "cpm_serve_predict_ns_total",
                "Cumulative prediction latency, nanoseconds.",
            ),
            predict_ns_max: registry.gauge(
                "cpm_serve_predict_ns_max",
                "Worst prediction latency seen, nanoseconds.",
                &[],
            ),
            stored: registry.gauge(
                "cpm_serve_stored_param_sets",
                "Parameter sets currently stored in the registry.",
                &[],
            ),
            connections_active: registry.gauge(
                "cpm_serve_connections_active",
                "Currently open client connections.",
                &[],
            ),
            frames_json: registry.counter(
                "cpm_serve_frames_total",
                "Request frames handled, by wire framing.",
                &[("format", "json")],
            ),
            frames_binary: registry.counter(
                "cpm_serve_frames_total",
                "Request frames handled, by wire framing.",
                &[("format", "binary")],
            ),
            des_events: registry.counter(
                "cpm_des_events_total",
                "Discrete events processed by DES-fidelity plan replays.",
                &[],
            ),
            des_replay_ns: registry.histogram(
                "cpm_des_replay_ns",
                "Wall-clock time of each DES-fidelity plan replay, nanoseconds.",
                &[],
            ),
            obs_dropped: registry.counter(
                "cpm_obs_records_dropped_total",
                "Flight-recorder records abandoned by the global ring.",
                &[],
            ),
            obs_dropped_synced: AtomicU64::new(0),
            plan_critical_ns: registry.histogram(
                "cpm_plan_critical_ns",
                "Predicted makespan attributed along each plan's critical path, nanoseconds.",
                &[],
            ),
            plan_critical_ops: registry.histogram(
                "cpm_plan_critical_ops",
                "Number of ops on each plan's critical path.",
                &[],
            ),
            latency,
            plan_phase,
            registry,
        }
    }

    /// Gauge of currently open client connections (both engines).
    pub fn connections_active(&self) -> &Gauge {
        &self.connections_active
    }

    /// Counter of handled JSON-lines request frames.
    pub fn frames_json(&self) -> &Counter {
        &self.frames_json
    }

    /// Counter of handled binary request frames.
    pub fn frames_binary(&self) -> &Counter {
        &self.frames_binary
    }

    /// The unified registry every counter above lives in. Extensions
    /// (e.g. the drift service) register their own metrics here so one
    /// text exposition covers the whole process.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The Prometheus-style text exposition of the whole registry (the
    /// `stats` verb's `"format":"text"` answer). Folds the global
    /// flight recorder's dropped count into
    /// `cpm_obs_records_dropped_total` first, so the exposition always
    /// reflects the ring's current state.
    pub fn exposition(&self) -> String {
        let dropped = cpm_obs::Recorder::global().dropped();
        let prev = self.obs_dropped_synced.swap(dropped, Ordering::Relaxed);
        if dropped > prev {
            self.obs_dropped.add(dropped - prev);
        }
        self.registry.exposition()
    }

    fn observe_latency(&self, ns: u64) {
        self.predict_count.inc();
        self.predict_ns_total.add(ns);
        self.predict_ns_max.fetch_max(ns);
    }

    fn observe_plan_profile(&self, profile: &PlanProfile) {
        self.plan_phase[0].record(profile.lower_ns);
        self.plan_phase[1].record(profile.analyze_ns);
    }

    /// Records one analytic plan's critical-path shape: predicted
    /// nanoseconds along the path and the number of ops on it.
    fn observe_plan_critical(&self, plan: &Plan) {
        let cp = &plan.critical_path;
        self.plan_critical_ns
            .record((cp.seconds * 1e9).max(0.0) as u64);
        self.plan_critical_ops.record(cp.steps.len() as u64);
    }

    fn observe_des_replay(&self, events: u64, ns: u64) {
        self.des_events.add(events);
        self.des_replay_ns.record(ns);
    }

    /// Records one request's end-to-end handling latency under its verb.
    pub fn record_verb_latency(&self, verb: Verb, ns: u64) {
        self.latency[verb.index()].record(ns);
    }

    /// The latency histogram of one verb (e.g. to merge into an
    /// aggregator, or to snapshot for quantiles).
    pub fn verb_latency(&self, verb: Verb) -> &LogHistogram {
        self.latency[verb.index()].inner()
    }

    /// Snapshots every verb histogram that has recorded at least one
    /// request, in [`VERBS`] order.
    pub fn latency_snapshot(&self) -> Vec<(Verb, HistSnapshot)> {
        VERBS
            .iter()
            .filter(|v| self.latency[v.index()].inner().count() > 0)
            .map(|v| (*v, self.latency[v.index()].snapshot()))
            .collect()
    }

    /// A point-in-time copy of the counters (latency histograms are
    /// snapshotted separately via [`Metrics::latency_snapshot`]).
    ///
    /// # Consistency model
    ///
    /// All counters are loaded `Relaxed` in one consecutive pass, so
    /// each individual value is a real value the counter held (never
    /// torn) and every counter is monotone across snapshots. The
    /// snapshot is *not* a single point-in-time cut across counters:
    /// a concurrent request can land between two loads, so transient
    /// cross-counter skew (e.g. `hits + misses` one ahead of
    /// `predict_count`) is possible and must not be treated as an
    /// error. Derived values (`predict_ns_mean`) are computed from the
    /// same pass, never from a second read.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // One pass over the cells, in declaration order.
        let hits = self.hits.get();
        let misses = self.misses.get();
        let plan_hits = self.plan_hits.get();
        let plan_misses = self.plan_misses.get();
        let estimations = self.estimations.get();
        let registry_loads = self.registry_loads.get();
        let republishes = self.republishes.get();
        let predict_count = self.predict_count.get();
        let predict_ns_total = self.predict_ns_total.get();
        let predict_ns_max = self.predict_ns_max.get();
        MetricsSnapshot {
            hits,
            misses,
            plan_hits,
            plan_misses,
            estimations,
            registry_loads,
            republishes,
            predict_count,
            predict_ns_mean: if predict_count == 0 {
                0.0
            } else {
                predict_ns_total as f64 / predict_count as f64
            },
            predict_ns_max,
        }
    }
}

/// Tunables for [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Estimation pipeline settings used for cold fingerprints.
    pub est: EstimateConfig,
    /// Prediction-cache capacity per shard.
    pub cache_capacity_per_shard: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            est: EstimateConfig::with_seed(0x5e71),
            cache_capacity_per_shard: 4096,
        }
    }
}

const SHARDS: usize = 16;

/// Capacity of the workload-plan cache. Plans are far heavier than scalar
/// predictions (per-op reports for a whole trace), so the cap is small.
const PLAN_CAPACITY: usize = 64;

/// Key for one cached workload plan. `param_version` makes republished
/// parameters miss naturally even before [`Service::invalidate`] purges
/// the stale entries.
#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    fp: String,
    param_version: u64,
    model: ModelKind,
    trace_hash: String,
}

/// One plan-cache entry: the plan and its rendered response body live and
/// die together, so whatever evicts or invalidates the one drops the other.
struct CachedPlan {
    plan: Arc<Plan>,
    body: Arc<str>,
    /// Last-use tick, for LRU eviction.
    tick: u64,
}

/// Renders the members of a JSON object — `"k":v,"k":v`, the object's
/// text less its braces — the form [`crate::protocol::Response::members`]
/// splices into a response.
pub(crate) fn render_members(
    object: &serde_json::Value,
) -> std::result::Result<String, serde_json::Error> {
    let text = serde_json::to_string(object)?;
    let members = text.strip_prefix('{').and_then(|t| t.strip_suffix('}'));
    Ok(members.unwrap_or_default().to_string())
}

/// Renders a plan's response body (see [`PlannedWorkload::body`]).
fn render_plan(plan: &Plan) -> Result<Arc<str>> {
    render_members(&plan.to_value())
        .map(Arc::from)
        .map_err(|e| ServeError::Protocol(format!("plan failed: {e}")))
}

/// A served workload plan (the serve-layer wrapper around
/// [`cpm_workload::Plan`]).
#[derive(Clone, Debug)]
pub struct PlannedWorkload {
    /// The critical-path plan (shared with the plan cache).
    pub plan: Arc<Plan>,
    /// The plan as the `plan` verb answers it: the members of
    /// [`Plan::to_value`] as JSON text (`"model":…` to the last member, no
    /// braces), rendered once when the plan was evaluated and shared with
    /// the plan cache, so a cache hit copies bytes instead of re-rendering.
    pub body: Arc<str>,
    /// Fingerprint of the cluster the plan is for.
    pub fingerprint: String,
    /// Parameter-set version the plan was evaluated against.
    pub param_version: u64,
    /// Canonical hash of the submitted trace.
    pub trace_hash: String,
    /// `true` when served from the plan cache.
    pub cached: bool,
}

/// Callback invoked after every local publish or republish with the
/// newly versioned parameter set. Fleet nodes hang replication fan-out
/// here; [`Service::install`] (the receiving side of that fan-out)
/// deliberately does *not* fire it, so replication cannot echo.
pub type PublishHook = Box<dyn Fn(&Arc<ParamSet>) + Send + Sync>;

/// The concurrent prediction service.
pub struct Service {
    registry: Registry,
    cfg: ServiceConfig,
    params: RwLock<Resident>,
    inflight: Mutex<HashMap<String, Arc<Inflight>>>,
    shards: Vec<Mutex<Shard>>,
    plans: Mutex<HashMap<PlanKey, CachedPlan>>,
    plan_tick: AtomicU64,
    metrics: Metrics,
    publish_hook: RwLock<Option<PublishHook>>,
}

impl Service {
    /// Creates a service over the registry at `store_dir`.
    pub fn open(store_dir: impl Into<std::path::PathBuf>, cfg: ServiceConfig) -> Result<Self> {
        let service = Service {
            registry: Registry::open(store_dir)?,
            cfg,
            params: RwLock::default(),
            inflight: Mutex::new(HashMap::new()),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            plans: Mutex::new(HashMap::new()),
            plan_tick: AtomicU64::new(0),
            metrics: Metrics::default(),
            publish_hook: RwLock::new(None),
        };
        service.metrics.stored.set(service.registry.len() as u64);
        Ok(service)
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Registers the publish hook (replacing any previous one). It runs
    /// synchronously — with no service locks held — after every
    /// [`Service::param_set`] estimation publish and every
    /// [`Service::republish`], before the triggering request returns.
    /// A fleet leader uses that ordering to guarantee its replicas hold
    /// a version before any client learns it exists.
    pub fn set_publish_hook(&self, hook: PublishHook) {
        *self.publish_hook.write() = Some(hook);
    }

    /// Keeps the stored-sets gauge by counting: [`Registry::publish`]
    /// assigns version 1 exactly when the fingerprint was not stored yet.
    fn count_stored(&self, published: &ParamSet) {
        if published.param_version == 1 {
            self.metrics.stored.inc();
        }
    }

    fn notify_publish(&self, ps: &Arc<ParamSet>) {
        let hook = self.publish_hook.read();
        if let Some(hook) = hook.as_ref() {
            hook(ps);
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Resolves the parameter set for a cluster, estimating at most once
    /// per fingerprint across all threads (single-flight).
    pub fn param_set(&self, cluster: &ClusterRef) -> Result<Arc<ParamSet>> {
        let fp = cluster.resolve_fingerprint();
        let _sp = cpm_obs::span("service.param_set");
        loop {
            if let Some(ps) = self.params.read().map.get(&fp) {
                return Ok(Arc::clone(ps));
            }
            // Not in memory: try disk before estimating.
            let loaded = {
                let _sp = cpm_obs::span("registry.load");
                self.registry.load(&fp)?
            };
            if let Some(ps) = loaded {
                self.metrics.registry_loads.inc();
                let ps = Arc::new(ps);
                self.params.write().insert(fp.clone(), Arc::clone(&ps));
                return Ok(ps);
            }
            let Some(config) = cluster.config() else {
                return Err(ServeError::UnknownFingerprint(fp));
            };
            // Single-flight: first thread in estimates, the rest wait and
            // re-check the in-memory map.
            let (state, leader) = {
                let mut inflight = self.inflight.lock();
                match inflight.get(&fp) {
                    Some(s) => (Arc::clone(s), false),
                    None => {
                        let s = Arc::new(Inflight::new());
                        inflight.insert(fp.clone(), Arc::clone(&s));
                        (s, true)
                    }
                }
            };
            if !leader {
                state.wait();
                continue;
            }
            let lead = Lead(self, &fp, &state);
            self.metrics.estimations.inc();
            // Publish (persist + version) before exposing in memory so a
            // restarted service finds it and lineage has a real parent.
            let outcome = {
                let _sp = cpm_obs::span("service.estimate");
                ParamSet::estimate(config, &self.cfg.est).and_then(|ps| self.registry.publish(ps))
            };
            let outcome = outcome.map(Arc::new);
            if let Ok(ps) = &outcome {
                self.count_stored(ps);
                self.params.write().insert(fp.clone(), Arc::clone(ps));
            }
            drop(lead);
            if let Ok(ps) = &outcome {
                self.notify_publish(ps);
            }
            return outcome;
        }
    }

    /// Atomically republishes a refit parameter set under the next
    /// `param_version` (see [`Registry::publish`]), swaps it into the
    /// in-memory map, and invalidates only the affected `(fingerprint,
    /// model)` cache shards. Returns the published set (with its assigned
    /// version) and the number of cache entries dropped.
    pub fn republish(&self, ps: ParamSet, touched: &[ModelKind]) -> Result<(Arc<ParamSet>, usize)> {
        let ps = Arc::new(self.registry.publish(ps)?);
        self.count_stored(&ps);
        let fp = ps.fingerprint.clone();
        self.params.write().insert(fp.clone(), Arc::clone(&ps));
        let dropped = self.invalidate(&fp, touched);
        self.metrics.republishes.inc();
        self.notify_publish(&ps);
        Ok((ps, dropped))
    }

    /// Applies a parameter set replicated from another fleet node at
    /// its already-assigned `param_version` (see [`Registry::install`]).
    /// Newer versions replace the in-memory set and invalidate every
    /// model's cached predictions; an incoming version at or below the
    /// one already held is archived but otherwise ignored. Returns the
    /// set now current for the fingerprint and whether the install was
    /// applied. Never fires the publish hook.
    pub fn install(&self, ps: ParamSet) -> Result<(Arc<ParamSet>, bool)> {
        let fp = ps.fingerprint.clone();
        let resident = self.params.read().map.get(&fp).map(Arc::clone);
        let current = match resident {
            Some(p) => Some(p),
            None => self.registry.load(&fp)?.map(Arc::new),
        };
        let first = current.is_none();
        if let Some(cur) = current {
            if cur.param_version >= ps.param_version {
                // Still archive the version so history converges across
                // replicas, but keep serving what we have.
                self.registry.install(ps)?;
                return Ok((cur, false));
            }
        }
        let ps = Arc::new(self.registry.install(ps)?);
        if first {
            self.metrics.stored.inc();
        }
        self.params.write().insert(fp.clone(), Arc::clone(&ps));
        let all = [
            ModelKind::Lmo,
            ModelKind::Hockney,
            ModelKind::Loggp,
            ModelKind::Plogp,
        ];
        self.invalidate(&fp, &all);
        Ok((ps, true))
    }

    /// Drops every cached prediction for `fp` whose model is in `models`,
    /// leaving other fingerprints and models untouched. Returns the number
    /// of entries removed.
    pub fn invalidate(&self, fp: &str, models: &[ModelKind]) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let before = shard.map.len();
            shard
                .map
                .retain(|k, _| !(k.fp == fp && models.contains(&k.model)));
            dropped += before - shard.map.len();
        }
        // Cached workload plans for the affected models are stale too.
        {
            let mut plans = self.plans.lock();
            let before = plans.len();
            plans.retain(|k, _| !(k.fp == fp && models.contains(&k.model)));
            dropped += before - plans.len();
        }
        dropped
    }

    /// Predicts the end-to-end makespan and per-op schedule of a workload
    /// trace by critical-path evaluation under `model`, caching the plan
    /// by `(fingerprint, param_version, model, trace hash)` so an
    /// identical submission against unchanged parameters is served
    /// without re-evaluating the trace. Republishing the cluster's
    /// parameters (drift refit) invalidates the cached plans.
    pub fn plan(
        &self,
        cluster: &ClusterRef,
        trace: &Trace,
        model: ModelKind,
    ) -> Result<PlannedWorkload> {
        let mut sp = cpm_obs::span("service.plan");
        sp.field_str("model", model.as_str());
        trace
            .validate()
            .map_err(|e| ServeError::Protocol(format!("bad trace: {e}")))?;
        let ps = self.param_set(cluster)?;
        let key = PlanKey {
            fp: ps.fingerprint.clone(),
            param_version: ps.param_version,
            model,
            trace_hash: trace.hash(),
        };
        let tick = self.plan_tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slot) = self.plans.lock().get_mut(&key) {
            slot.tick = tick;
            self.metrics.plan_hits.inc();
            return Ok(PlannedWorkload {
                plan: Arc::clone(&slot.plan),
                body: Arc::clone(&slot.body),
                fingerprint: key.fp,
                param_version: key.param_version,
                trace_hash: key.trace_hash,
                cached: true,
            });
        }
        let (plan, profile) = cpm_workload::plan_profiled(trace, &plan_model(&ps, model))
            .map_err(|e| ServeError::Protocol(format!("plan failed: {e}")))?;
        let body = render_plan(&plan)?;
        // Counted only once the evaluation succeeded, so error paths are
        // not misreported as plan-cache misses.
        self.metrics.plan_misses.inc();
        self.metrics.observe_plan_profile(&profile);
        self.metrics.observe_plan_critical(&plan);
        let plan = Arc::new(plan);
        {
            let mut plans = self.plans.lock();
            let entry = CachedPlan {
                plan: Arc::clone(&plan),
                body: Arc::clone(&body),
                tick,
            };
            plans.insert(key.clone(), entry);
            if plans.len() > PLAN_CAPACITY {
                if let Some(victim) = plans
                    .iter()
                    .min_by_key(|(_, entry)| entry.tick)
                    .map(|(k, _)| k.clone())
                {
                    plans.remove(&victim);
                }
            }
        }
        Ok(PlannedWorkload {
            plan,
            body,
            fingerprint: key.fp,
            param_version: key.param_version,
            trace_hash: key.trace_hash,
            cached: false,
        })
    }

    /// Answers a `plan` request under the hierarchical LMO model
    /// (`"model":"lmo-hier"`): builds per-level parameters from the
    /// embedded config's ground truth and its level tree, then evaluates
    /// the critical path with the level-aware chooser, which also
    /// considers leader-based two-phase broadcast/reduce schedules. Never
    /// cached: the model is derived from the config itself, not from the
    /// registry's flat parameter sets, so there is no `param_version` to
    /// key on (the response reports version 0).
    pub fn plan_hier(&self, cluster: &ClusterRef, trace: &Trace) -> Result<PlannedWorkload> {
        let mut sp = cpm_obs::span("service.plan_hier");
        sp.field_u64("ranks", trace.n as u64);
        let Some(config) = cluster.config() else {
            return Err(ServeError::Protocol(
                "model \"lmo-hier\" requires an embedded \"config\" \
                 (the per-level model is derived from its topology)"
                    .into(),
            ));
        };
        let config = validated(config)?;
        trace
            .validate()
            .map_err(|e| ServeError::Protocol(format!("bad trace: {e}")))?;
        let truth = config.ground_truth();
        let Some(h) = cpm_models::HierLmo::from_truth(&truth, &config.topology) else {
            return Err(ServeError::Protocol(
                "model \"lmo-hier\" requires a hierarchical topology in the embedded config".into(),
            ));
        };
        let (plan, profile) =
            cpm_workload::plan_profiled(trace, &cpm_workload::PlanModel::LmoHier(h))
                .map_err(|e| ServeError::Protocol(format!("plan failed: {e}")))?;
        self.metrics.observe_plan_profile(&profile);
        self.metrics.observe_plan_critical(&plan);
        Ok(PlannedWorkload {
            body: render_plan(&plan)?,
            plan: Arc::new(plan),
            fingerprint: cluster.resolve_fingerprint(),
            param_version: 0,
            trace_hash: trace.hash(),
            cached: false,
        })
    }

    /// Answers a `plan` request at DES fidelity: replays the trace on the
    /// simulated cluster through the discrete-event engine, with algorithm
    /// choices made under the cluster's own ground-truth parameters —
    /// byte-for-byte the computation a direct `cpm workload run` performs,
    /// so both answer identically on the same trace and config. Requires
    /// an embedded config (the simulator needs the full cluster, not just
    /// estimated parameters), and is never cached: the replay *is* the
    /// answer. Returns the report plus the config's fingerprint.
    pub fn plan_des(
        &self,
        cluster: &ClusterRef,
        trace: &Trace,
    ) -> Result<(cpm_workload::ReplayReport, String)> {
        let mut sp = cpm_obs::span("service.plan_des");
        sp.field_u64("ranks", trace.n as u64);
        let Some(config) = cluster.config() else {
            return Err(ServeError::Protocol(
                "fidelity \"des\" requires an embedded \"config\" \
                 (the simulator replays the real cluster, not estimated parameters)"
                    .into(),
            ));
        };
        let config = validated(config)?;
        trace
            .validate()
            .map_err(|e| ServeError::Protocol(format!("bad trace: {e}")))?;
        let sim = cpm_netsim::SimCluster::from_config(config);
        let choices = cpm_workload::truth_choices(&sim, trace);
        let start = Instant::now();
        let report = cpm_workload::replay(&sim, trace, &choices)
            .map_err(|e| ServeError::Protocol(format!("replay failed: {e}")))?;
        self.metrics
            .observe_des_replay(report.events as u64, start.elapsed().as_nanos() as u64);
        Ok((report, cluster.resolve_fingerprint()))
    }

    /// Predicts one collective execution time.
    pub fn predict(&self, cluster: &ClusterRef, q: &Query) -> Result<Prediction> {
        let mut sp = cpm_obs::span("service.predict");
        sp.field_str("model", q.model.as_str());
        let start = Instant::now();
        let out = self.predict_inner(cluster, q);
        self.metrics
            .observe_latency(start.elapsed().as_nanos() as u64);
        out
    }

    fn predict_inner(&self, cluster: &ClusterRef, q: &Query) -> Result<Prediction> {
        let fp = cluster.resolve_fingerprint();
        let n = match cluster.config() {
            Some(c) => c.spec.n_nodes(),
            None => {
                // Bound first: the read guard must be gone before
                // `param_set` takes the write lock.
                let resident = self.params.read().map.get(&fp).map(|p| p.n());
                match resident {
                    Some(n) => n,
                    // Evicted or not yet loaded: the set's size is part of
                    // the cache key, so bring the set back first.
                    None => self.param_set(cluster)?.n(),
                }
            }
        };
        let mut key = CacheKey {
            fp,
            model: q.model,
            collective: q.collective,
            algorithm: q.algorithm,
            n,
            root: q.root,
            m: q.m,
        };
        if let Some(seconds) = self.shard_of(&key).lock().get(&key) {
            self.metrics.hits.inc();
            return Ok(Prediction {
                seconds,
                fingerprint: key.fp,
                cached: true,
            });
        }
        let ps = self.param_set(cluster)?;
        let seconds = compute(&ps, q)?;
        // A miss is a prediction *computed from a parameter set*: counted
        // only after both fallible steps succeed, so failed lookups and
        // bad queries do not inflate the miss rate.
        self.metrics.misses.inc();
        key.n = ps.n();
        let fingerprint = key.fp.clone();
        self.shard_of(&key)
            .lock()
            .put(key, seconds, self.cfg.cache_capacity_per_shard);
        Ok(Prediction {
            seconds,
            fingerprint,
            cached: false,
        })
    }

    /// Answers a batch of queries against one cluster. Each query is
    /// answered independently; one bad query does not fail the batch.
    pub fn predict_batch(
        &self,
        cluster: &ClusterRef,
        queries: &[Query],
    ) -> Vec<Result<Prediction>> {
        queries.iter().map(|q| self.predict(cluster, q)).collect()
    }

    /// Builds a model-tuned collective dispatcher from this cluster's
    /// registered parameters, estimating them first only if the cluster
    /// has never been seen (by this service or any prior one sharing the
    /// store).
    pub fn tuned(&self, cluster: &ClusterRef) -> Result<TunedCollectives> {
        Ok(TunedCollectives::new(self.param_set(cluster)?.lmo.clone()))
    }

    /// Model-based algorithm selection: predicts both algorithms for the
    /// collective and returns (choice, linear seconds, binomial seconds),
    /// the choice made by the chooser's rule (`cpm_collectives::cost`).
    pub fn select(
        &self,
        cluster: &ClusterRef,
        model: ModelKind,
        collective: Collective,
        m: Bytes,
        root: u32,
    ) -> Result<(Algorithm, f64, f64)> {
        let linear = self
            .predict(
                cluster,
                &Query {
                    model,
                    collective,
                    algorithm: Algorithm::Linear,
                    m,
                    root,
                },
            )?
            .seconds;
        let binomial = self
            .predict(
                cluster,
                &Query {
                    model,
                    collective,
                    algorithm: Algorithm::Binomial,
                    m,
                    root,
                },
            )?
            .seconds;
        let choice = cheapest([(Algorithm::Linear, linear), (Algorithm::Binomial, binomial)]);
        Ok((choice, linear, binomial))
    }
}

/// Computes a prediction from an estimated parameter set: the one
/// [`cost`] of the collective under the model (the model's machine for LMO,
/// its closed form for the whole-transfer models). Pure — all caching and
/// estimation happen above this.
pub fn compute(ps: &ParamSet, q: &Query) -> Result<f64> {
    let mut sp = cpm_obs::span("model.compute");
    sp.field_str("collective", q.collective.as_str());
    let n = ps.n();
    if q.root as usize >= n {
        return Err(ServeError::Protocol(format!(
            "root {} out of range for {n} nodes",
            q.root
        )));
    }
    let op = Op {
        kind: q.collective.rooted(),
        root: Rank(q.root),
        m: q.m,
    };
    Ok(cost(&cost_model(ps, q.model), op, q.algorithm.below()))
}

/// The model a `plan` of the parameter set evaluates under: the one family
/// asked for, cloned once out of the set (its link matrices are shared).
fn plan_model(ps: &ParamSet, model: ModelKind) -> PlanModel {
    match model {
        ModelKind::Lmo => PlanModel::Lmo(ps.lmo.clone()),
        ModelKind::Hockney => PlanModel::Hockney(ps.hockney.clone()),
        ModelKind::Loggp => PlanModel::Loggp(ps.loggp.clone()),
        ModelKind::Plogp => PlanModel::Plogp(ps.plogp.clone()),
    }
}

/// How `model` prices a collective under the parameter set.
fn cost_model(ps: &ParamSet, model: ModelKind) -> CostModel<'_> {
    match model {
        ModelKind::Lmo => CostModel::Machine(Machine::lmo(&ps.lmo)),
        ModelKind::Hockney => CostModel::Hockney(&ps.hockney),
        ModelKind::Loggp => CostModel::Loggp(&ps.loggp),
        ModelKind::Plogp => CostModel::Plogp(&ps.plogp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::ClusterSpec;
    use std::sync::Barrier;

    fn test_service(tag: &str) -> (std::path::PathBuf, Service) {
        let dir = std::env::temp_dir().join(format!("cpm-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            est: EstimateConfig {
                reps: 1,
                ..EstimateConfig::with_seed(11)
            },
            ..ServiceConfig::default()
        };
        let service = Service::open(&dir, cfg).unwrap();
        (dir, service)
    }

    fn small_cluster() -> ClusterRef {
        ClusterRef::Config(Box::new(ClusterConfig::ideal(
            ClusterSpec::homogeneous(4),
            11,
        )))
    }

    #[test]
    fn concurrent_cold_queries_estimate_exactly_once() {
        let (dir, service) = test_service("flight");
        let cluster = small_cluster();
        let q = Query {
            model: ModelKind::Lmo,
            collective: Collective::Scatter,
            algorithm: Algorithm::Binomial,
            m: 4096,
            root: 0,
        };
        const THREADS: usize = 8;
        let barrier = Barrier::new(THREADS);
        let seconds: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        service.predict(&cluster, &q).unwrap().seconds
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let snap = service.metrics().snapshot();
        assert_eq!(snap.estimations, 1, "single-flight must dedup estimation");
        assert_eq!(snap.predict_count, THREADS as u64);
        assert!(seconds[0] > 0.0);
        for s in &seconds {
            assert_eq!(*s, seconds[0], "all threads must see identical predictions");
        }
        // The one estimation was persisted.
        assert_eq!(service.registry().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn an_evicted_parameter_set_is_loaded_back_unchanged() {
        let (dir, service) = test_service("evict");
        let q = Query {
            model: ModelKind::Lmo,
            collective: Collective::Scatter,
            algorithm: Algorithm::Linear,
            m: 2048,
            root: 0,
        };
        let cold = service.predict(&small_cluster(), &q).unwrap();
        let first = service.param_set(&small_cluster()).unwrap();
        let by_fp = ClusterRef::Fingerprint(first.fingerprint.clone());

        // Push the first set out: the bound plus two more fingerprints.
        for k in 0..RESIDENT_SETS + 2 {
            let mut other = (*first).clone();
            other.fingerprint = format!("{k:032x}");
            assert!(service.install(other).unwrap().1);
        }
        assert_eq!(service.params.read().map.len(), RESIDENT_SETS);
        assert_eq!(service.params.read().order.len(), RESIDENT_SETS);
        assert!(!service.params.read().map.contains_key(&first.fingerprint));
        let stored = RESIDENT_SETS + 3;
        assert_eq!(service.metrics.stored.get(), stored as u64);
        assert_eq!(service.registry().len(), stored);

        // Touched again by fingerprint alone, it comes back from disk: the
        // same set at the same version, answering with the same bits.
        let loads = service.metrics().snapshot().registry_loads;
        let warm = service.predict(&by_fp, &q).unwrap();
        assert_eq!(warm.seconds.to_bits(), cold.seconds.to_bits());
        let back = service.param_set(&by_fp).unwrap();
        assert_eq!(*back, *first);
        assert_eq!(back.param_version, first.param_version);
        assert_eq!(
            compute(&back, &q).unwrap().to_bits(),
            cold.seconds.to_bits()
        );
        let snap = service.metrics().snapshot();
        assert_eq!(snap.registry_loads, loads + 1);
        assert_eq!(snap.estimations, 1);
        assert_eq!(service.metrics.stored.get(), stored as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn republish_invalidates_only_affected_model_shards() {
        let (dir, service) = test_service("republish");
        let cluster = small_cluster();
        let q_lmo = Query {
            model: ModelKind::Lmo,
            collective: Collective::Scatter,
            algorithm: Algorithm::Linear,
            m: 2048,
            root: 0,
        };
        let q_hockney = Query {
            model: ModelKind::Hockney,
            ..q_lmo
        };
        service.predict(&cluster, &q_lmo).unwrap();
        service.predict(&cluster, &q_hockney).unwrap();

        let ps = service.param_set(&cluster).unwrap();
        let (new_ps, dropped) = service.republish((*ps).clone(), &[ModelKind::Lmo]).unwrap();
        assert_eq!(new_ps.param_version, ps.param_version + 1);
        assert_eq!(dropped, 1, "only the lmo cache entry should drop");

        // The hockney entry survived the invalidation: next predict hits.
        let hits_before = service.metrics().snapshot().hits;
        service.predict(&cluster, &q_hockney).unwrap();
        assert_eq!(service.metrics().snapshot().hits, hits_before + 1);
        // The lmo entry did not: it must be recomputed, not served stale.
        service.predict(&cluster, &q_lmo).unwrap();
        assert_eq!(service.metrics().snapshot().hits, hits_before + 1);
        assert_eq!(service.metrics().snapshot().republishes, 1);
        // Both versions are retained on disk.
        assert_eq!(
            service.registry().versions(&new_ps.fingerprint).unwrap(),
            vec![1, 2]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let (dir, service) = test_service("cache");
        let cluster = small_cluster();
        let q = Query {
            model: ModelKind::Hockney,
            collective: Collective::Gather,
            algorithm: Algorithm::Linear,
            m: 1024,
            root: 0,
        };
        let cold = service.predict(&cluster, &q).unwrap();
        assert!(!cold.cached);
        let warm = service.predict(&cluster, &q).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.seconds, cold.seconds);
        let snap = service.metrics().snapshot();
        assert_eq!((snap.hits, snap.misses, snap.estimations), (1, 1, 1));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_answers_every_query_and_select_agrees_with_predict() {
        let (dir, service) = test_service("batch");
        let cluster = small_cluster();
        let queries: Vec<Query> = [Algorithm::Linear, Algorithm::Binomial]
            .into_iter()
            .map(|algorithm| Query {
                model: ModelKind::Lmo,
                collective: Collective::Scatter,
                algorithm,
                m: 64 * 1024,
                root: 0,
            })
            .collect();
        let batch: Vec<f64> = service
            .predict_batch(&cluster, &queries)
            .into_iter()
            .map(|r| r.unwrap().seconds)
            .collect();
        let (choice, linear, binomial) = service
            .select(&cluster, ModelKind::Lmo, Collective::Scatter, 64 * 1024, 0)
            .unwrap();
        assert_eq!(batch, vec![linear, binomial]);
        let expected = if linear <= binomial {
            Algorithm::Linear
        } else {
            Algorithm::Binomial
        };
        assert_eq!(choice, expected);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_fingerprint_without_config_is_an_error() {
        let (dir, service) = test_service("nofp");
        let cluster = ClusterRef::Fingerprint("deadbeef".into());
        let q = Query {
            model: ModelKind::Lmo,
            collective: Collective::Scatter,
            algorithm: Algorithm::Linear,
            m: 1024,
            root: 0,
        };
        let err = service.predict(&cluster, &q).unwrap_err();
        assert!(matches!(err, ServeError::UnknownFingerprint(_)), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn out_of_range_root_is_rejected() {
        let (dir, service) = test_service("root");
        let cluster = small_cluster();
        let q = Query {
            model: ModelKind::Lmo,
            collective: Collective::Scatter,
            algorithm: Algorithm::Linear,
            m: 1024,
            root: 99,
        };
        let err = service.predict(&cluster, &q).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn plan_hier_uses_the_level_model_and_requires_a_hierarchical_config() {
        let (dir, service) = test_service("hier");
        let trace = cpm_workload::gen::canonical("train", 8, 64 * 1024, 2).unwrap();

        // An embedded hierarchical config plans under the per-level model.
        let cluster = ClusterRef::Config(Box::new(ClusterConfig::hierarchical(4, 2, 7)));
        let planned = service.plan_hier(&cluster, &trace).unwrap();
        assert_eq!(planned.plan.model, cpm_workload::ModelKind::LmoHier);
        assert!(planned.plan.makespan > 0.0);
        assert!(!planned.cached);

        // The hierarchical config fingerprints differently from the same
        // spec on a flat topology — the level tree is part of identity.
        let flat = small_cluster();
        assert_ne!(planned.fingerprint, flat.resolve_fingerprint());

        // A fingerprint-only reference cannot carry the level tree.
        let by_fp = ClusterRef::Fingerprint(planned.fingerprint.clone());
        let err = service.plan_hier(&by_fp, &trace).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        assert!(err.to_string().contains("embedded"), "{err}");

        // A flat embedded config is rejected with a topology error.
        let err = service.plan_hier(&flat, &trace).unwrap_err();
        assert!(err.to_string().contains("hierarchical topology"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tuned_dispatcher_sources_registry_parameters() {
        let (dir, service) = test_service("tuned");
        let cluster = small_cluster();
        let t = service.tuned(&cluster).unwrap();
        assert_eq!(t.model().c.len(), 4);
        // Built from the registered parameters, not a fresh estimation run.
        let ps = service.param_set(&cluster).unwrap();
        assert_eq!(t.model(), &ps.lmo);
        assert_eq!(service.metrics().snapshot().estimations, 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
