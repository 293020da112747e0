//! The JSON-lines wire protocol.
//!
//! One request object per line in, one response object per line out.
//! Every request carries a `"verb"`; every response carries `"ok"`.
//! Malformed requests produce `{"ok": false, "error": "..."}` on that
//! line and do not terminate the connection.
//!
//! The verbs are declared once, in the verb table ([`Verb`]). A core
//! verb decodes into a [`Request`], whose variants document its fields.
//!
//! # Request ids
//!
//! Any request may carry an `"id"` (string or integer). It is echoed
//! verbatim in the response — including error responses, as long as the
//! line parsed as a JSON object — and, for `batch`, each sub-request's
//! own `"id"` is echoed in its sub-response. The id also tags every
//! flight-recorder span the request produces, so a `trace` dump
//! attributes service/registry/cache/model/planner spans to the client's
//! request id.
//!
//! # Trace context
//!
//! Any request may carry a `"ctx"` object: `{"trace": "<16 hex
//! digits>", "parent": "<16 hex digits>"}` — a distributed-tracing
//! trace id plus the span id of the sender's span on the previous hop.
//! (The key is `"ctx"`, not `"trace"`, because `plan` already uses
//! `"trace"` for the workload trace itself.) The handler installs it for
//! the request's duration, so every span recorded below carries the
//! trace id and parents across the wire; a request without one becomes
//! its own trace root with a fresh trace id. The binary framing carries
//! the same JSON payload, so the context propagates identically on both
//! wires.
//!
//! # The request path
//!
//! No JSON tree is built for a request or for its response. A line is
//! *scanned* once ([`Fields::scan`]): the vendored parser validates it and
//! yields the top-level members as borrowed spans of the line. The typed
//! [`Request`] is decoded from those spans in place; only a sub-document
//! a verb really consumes is parsed into a tree — `config`, `trace`, and
//! nothing else. The answer is streamed by a [`Response`] straight into
//! the output line.
//!
//! Every serving layer — the core, the drift extension, a fleet node —
//! shares one request envelope, [`LineHandler::handle_line`]'s default:
//! the scan, the client id, the request and trace context, the
//! `serve.request` span, the verb, the [`Response`] and the verb's
//! latency. A layer answers through [`LineHandler::answer`] from the
//! scanned [`Fields`], and hands on every verb it does not answer, so a
//! line is scanned once per process.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use cpm_cluster::ClusterConfig;
use serde_json::Value;

use crate::registry::{Result, ServeError};
use crate::server::LineHandler;
use crate::service::{
    render_members, Algorithm, ClusterRef, Collective, Fidelity, Layer, Metrics, ModelKind, Query,
    Service, Verb,
};

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// One collective prediction against a resolved cluster.
    Predict {
        /// The cluster to predict for (config or fingerprint).
        cluster: ClusterRef,
        /// What to predict.
        query: Query,
    },
    /// Predict both algorithms of a collective and report the faster one.
    Select {
        /// The cluster to predict for.
        cluster: ClusterRef,
        /// Model family answering the query.
        model: ModelKind,
        /// The collective whose algorithms are compared.
        collective: Collective,
        /// Message size, bytes.
        m: u64,
        /// Root rank of the collective.
        root: u32,
    },
    /// Force the parameter set for a config to exist.
    Estimate {
        /// The cluster config to estimate (always embedded).
        config: Box<ClusterConfig>,
    },
    /// Critical-path prediction of a whole workload trace.
    Plan {
        /// The cluster to plan against.
        cluster: ClusterRef,
        /// Model family whose parameters the plan runs on (analytic
        /// fidelity only).
        model: ModelKind,
        /// `true` when the request named the hierarchical model
        /// (`"model":"lmo-hier"`): the plan is evaluated under per-level
        /// parameters derived from an embedded hierarchical config, with
        /// level-aware (two-phase) algorithm candidates. Ignored at DES
        /// fidelity, where the replay is hierarchy-aware by construction.
        hier: bool,
        /// Analytic critical-path evaluation, or full DES replay.
        fidelity: Fidelity,
        /// The submitted trace.
        trace: Box<cpm_workload::Trace>,
    },
    /// Several predict/select/plan requests answered in one round trip.
    Batch {
        /// The sub-requests, answered independently and in order.
        requests: Vec<BatchItem>,
    },
    /// Version history (with lineage) for a fingerprint.
    History {
        /// The cluster fingerprint to report on.
        fingerprint: String,
    },
    /// Service counters and per-verb latency quantiles.
    Stats {
        /// `true` for the Prometheus-style text exposition format.
        text: bool,
    },
    /// Flight-recorder dump as Chrome trace-event JSON (or raw records).
    Trace {
        /// Bound the dump to the newest N records.
        last: Option<usize>,
        /// `true` to return raw records instead of a rendered Chrome
        /// trace — the fleet collector's per-node collection form.
        raw: bool,
    },
    /// Stop the server after responding.
    Shutdown,
}

/// One element of a `batch` request: the sub-request plus its own
/// client-supplied `"id"` (echoed in the sub-response and attached to
/// the sub-request's spans).
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The sub-request's client id, if it carried one.
    pub id: Option<Value>,
    /// The sub-request's verb, which its latency is recorded under.
    pub verb: Verb,
    /// The sub-request itself.
    pub request: Request,
}

fn bad(msg: impl Into<String>) -> ServeError {
    ServeError::Protocol(msg.into())
}

macro_rules! request_fields {
    ($($key:ident),+) => {
        /// The top-level members of one request object the protocol reads,
        /// each as the span of the line holding its value — exactly as
        /// written, undecoded. Of a repeated key the first occurrence
        /// counts; members under any other key are validated and ignored.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Fields<'a> {
            $(
                #[doc = concat!("The `\"", stringify!($key), "\"` member.")]
                pub $key: Option<&'a str>,
            )+
        }

        impl<'a> Fields<'a> {
            fn slot(&mut self, key: &str) -> Option<&mut Option<&'a str>> {
                match key {
                    $(stringify!($key) => Some(&mut self.$key),)+
                    _ => None,
                }
            }
        }
    };
}

request_fields!(
    verb,
    id,
    ctx,
    config,
    fingerprint,
    model,
    collective,
    algorithm,
    m,
    root,
    fidelity,
    trace,
    requests,
    format,
    last,
    raw,
    kind,
    src,
    dst,
    seconds,
    set
);

/// A required string field.
pub fn text<'a>(raw: Option<&'a str>, key: &str) -> Result<Cow<'a, str>> {
    raw.and_then(serde_json::raw_str)
        .ok_or_else(|| bad(format!("missing or non-string field {key:?}")))
}

/// A string field that may be absent.
fn optional_text<'a>(raw: Option<&'a str>, key: &str) -> Result<Option<Cow<'a, str>>> {
    raw.map(|raw| {
        serde_json::raw_str(raw).ok_or_else(|| bad(format!("field {key:?} must be a string")))
    })
    .transpose()
}

fn as_u64(raw: &str) -> Option<u64> {
    serde_json::raw_number(raw)?.as_u64()
}

/// A required non-negative integer field.
pub fn uint(raw: Option<&str>, key: &str) -> Result<u64> {
    raw.and_then(as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field {key:?}")))
}

impl<'a> Fields<'a> {
    /// Scans one request: validates the whole text as JSON and records
    /// where the protocol's fields are, building no tree.
    pub fn scan(text: &'a str) -> Result<Fields<'a>> {
        let mut fields = Fields::default();
        let is_object = serde_json::scan_object(text, |key, raw| {
            if let Some(slot @ None) = fields.slot(&key) {
                *slot = Some(raw);
            }
        })
        .map_err(|e| bad(format!("bad json: {e}")))?;
        if !is_object {
            return Err(bad("request must be a json object"));
        }
        Ok(fields)
    }

    /// The request's `"verb"`, when it is a string.
    pub fn verb(&self) -> Option<Cow<'a, str>> {
        self.verb.and_then(serde_json::raw_str)
    }

    /// The scalar client `"id"` (string or integer), if present. An id
    /// of any other type is not an id and is not echoed.
    pub fn client_id(&self) -> Option<Value> {
        let raw = self.id?;
        match serde_json::raw_str(raw) {
            Some(s) => Some(Value::Str(s.into_owned())),
            None => serde_json::raw_number(raw).filter(|n| !matches!(n, Value::F64(_))),
        }
    }

    /// The wire trace context: `"ctx": {"trace": "<hex16>", "parent":
    /// "<hex16>"}`. Returns `(trace id, parent span id)`; `None` when
    /// absent or malformed (a bad context is ignored rather than failing
    /// the request — tracing is best-effort).
    pub fn trace_ctx(&self) -> Option<(u64, u64)> {
        let (mut trace, mut parent) = (None, None);
        serde_json::scan_object(self.ctx?, |key, raw| match &*key {
            "trace" if trace.is_none() => trace = Some(raw),
            "parent" if parent.is_none() => parent = Some(raw),
            _ => {}
        })
        .ok()?;
        let hex16 = |raw: Option<&str>| {
            raw.and_then(serde_json::raw_str)
                .and_then(|s| cpm_obs::wire::parse_hex16(&s))
        };
        Some((hex16(trace)?, hex16(parent).unwrap_or(0)))
    }

    fn cluster(&self) -> Result<ClusterRef> {
        match (self.config, self.fingerprint) {
            (Some(cfg), None) => serde_json::from_str::<ClusterConfig>(cfg)
                .map(|config| ClusterRef::Config(Box::new(config)))
                .map_err(|e| bad(format!("bad \"config\": {e}"))),
            (None, Some(fp)) => serde_json::raw_str(fp)
                .map(|fp| ClusterRef::Fingerprint(fp.into_owned()))
                .ok_or_else(|| bad("field \"fingerprint\" must be a string")),
            (Some(_), Some(_)) => Err(bad("supply either \"config\" or \"fingerprint\", not both")),
            (None, None) => Err(bad("missing cluster: supply \"config\" or \"fingerprint\"")),
        }
    }

    fn root(&self) -> Result<u32> {
        match self.root {
            None => Ok(0),
            Some(raw) => as_u64(raw)
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| bad("field \"root\" must be a small non-negative integer")),
        }
    }

    /// The request's verb, looked up in the verb table.
    pub fn parse_verb(&self) -> Result<Verb> {
        let name = text(self.verb, "verb")?;
        Verb::parse(&name).ok_or_else(|| unknown_verb(&name))
    }

    /// Decodes the typed request.
    pub fn parse(&self) -> Result<Request> {
        self.request(self.parse_verb()?)
    }

    /// Decodes the typed request of a core verb. Fields are checked in a
    /// fixed order, so a request wrong in several ways always reports the
    /// same one.
    pub fn request(&self, verb: Verb) -> Result<Request> {
        match verb {
            Verb::Predict => Ok(Request::Predict {
                cluster: self.cluster()?,
                query: Query {
                    model: ModelKind::parse(&text(self.model, "model")?)?,
                    collective: Collective::parse(&text(self.collective, "collective")?)?,
                    algorithm: Algorithm::parse(&text(self.algorithm, "algorithm")?)?,
                    m: uint(self.m, "m")?,
                    root: self.root()?,
                },
            }),
            Verb::Select => Ok(Request::Select {
                cluster: self.cluster()?,
                model: ModelKind::parse(&text(self.model, "model")?)?,
                collective: Collective::parse(&text(self.collective, "collective")?)?,
                m: uint(self.m, "m")?,
                root: self.root()?,
            }),
            Verb::Estimate => {
                let ClusterRef::Config(config) = self.cluster()? else {
                    return Err(bad("estimate requires an embedded \"config\""));
                };
                Ok(Request::Estimate { config })
            }
            Verb::Plan => {
                // The hierarchical model is not one of the registry's
                // flat parameter families — it is derived per request
                // from an embedded hierarchical config.
                let (model, hier) = match optional_text(self.model, "model")?.as_deref() {
                    None => (ModelKind::Lmo, false),
                    Some("lmo-hier") => (ModelKind::Lmo, true),
                    Some(s) => (ModelKind::parse(s)?, false),
                };
                let fidelity = match optional_text(self.fidelity, "fidelity")? {
                    None => Fidelity::Analytic,
                    Some(s) => Fidelity::parse(&s)?,
                };
                let trace = self.trace.ok_or_else(|| bad("missing field \"trace\""))?;
                // The one sub-document `plan` consumes whole: a tree.
                let trace = serde_json::parse(trace)
                    .map_err(|e| e.to_string())
                    .and_then(|v| cpm_workload::Trace::from_value(&v).map_err(|e| e.to_string()))
                    .map_err(|e| bad(format!("bad \"trace\": {e}")))?;
                Ok(Request::Plan {
                    cluster: self.cluster()?,
                    model,
                    hier,
                    fidelity,
                    trace: Box::new(trace),
                })
            }
            Verb::Batch => {
                let items = self
                    .requests
                    .and_then(serde_json::raw_elements)
                    .ok_or_else(|| bad("batch needs a \"requests\" array"))?;
                if items.is_empty() {
                    return Err(bad("batch \"requests\" must not be empty"));
                }
                if items.len() > MAX_BATCH {
                    return Err(bad(format!(
                        "batch of {} requests exceeds the limit of {MAX_BATCH}",
                        items.len()
                    )));
                }
                let requests = items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        // An element goes the way of a whole line.
                        let nth = |e: ServeError| bad(format!("batch request {i}: {e}"));
                        let fields = Fields::scan(item).map_err(nth)?;
                        let verb = fields.parse_verb().map_err(nth)?;
                        let request = fields.request(verb).map_err(nth)?;
                        if !verb.batchable() {
                            return Err(bad(format!(
                                "batch request {i}: only {} may be batched",
                                Verb::list(Verb::batchable)
                            )));
                        }
                        let id = fields.client_id();
                        Ok(BatchItem { id, verb, request })
                    })
                    .collect::<Result<Vec<BatchItem>>>()?;
                Ok(Request::Batch { requests })
            }
            Verb::History => Ok(Request::History {
                fingerprint: text(self.fingerprint, "fingerprint")?.into_owned(),
            }),
            Verb::Stats => {
                let text = match self.format.map(serde_json::raw_str) {
                    None => false,
                    Some(Some(s)) if s == "json" => false,
                    Some(Some(s)) if s == "text" => true,
                    Some(_) => return Err(bad("field \"format\" must be \"json\" or \"text\"")),
                };
                Ok(Request::Stats { text })
            }
            Verb::Trace => {
                let last = match self.last {
                    None => None,
                    Some(raw) => Some(
                        as_u64(raw)
                            .and_then(|x| usize::try_from(x).ok())
                            .filter(|&x| x > 0)
                            .ok_or_else(|| bad("field \"last\" must be a positive integer"))?,
                    ),
                };
                let raw = match self.raw {
                    None | Some("false") => false,
                    Some("true") => true,
                    Some(_) => return Err(bad("field \"raw\" must be a boolean")),
                };
                Ok(Request::Trace { last, raw })
            }
            Verb::Shutdown => Ok(Request::Shutdown),
            // Another layer's verb: the core does not know it.
            Verb::Observe | Verb::DriftStatus | Verb::FleetInstall | Verb::FleetInfo => {
                Err(unknown_verb(verb.as_str()))
            }
        }
    }
}

/// The core's answer to a verb it does not serve: the core verbs, listed
/// from the table.
fn unknown_verb(name: &str) -> ServeError {
    bad(format!(
        "unknown verb {name:?} (expected {})",
        Verb::list(|v| v.layer() == Layer::Core)
    ))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request> {
    Fields::scan(line)?.parse()
}

/// Upper bound on the number of requests in one `batch`. Keeps a single
/// line from monopolizing a pool worker for unbounded time (the line
/// length cap [`crate::server::MAX_LINE`] already bounds the payload).
pub const MAX_BATCH: usize = 1024;

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The flight-recorder tag of a client id (its textual form, truncated
/// to the 16 bytes stored inline in recorder slots).
pub fn id_tag(id: &Value) -> [u8; 16] {
    /// The first 20 bytes written — room for any 64-bit integer.
    struct Short([u8; 20], usize);
    impl fmt::Write for Short {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let n = s.len().min(self.0.len() - self.1);
            self.0[self.1..self.1 + n].copy_from_slice(&s.as_bytes()[..n]);
            self.1 += n;
            Ok(())
        }
    }
    match id {
        Value::Str(s) => cpm_obs::ctx::tag16(s),
        number => {
            let mut digits = Short([0; 20], 0);
            let _ = serde::json::write_value(&mut digits, number);
            cpm_obs::ctx::tag16(std::str::from_utf8(&digits.0[..digits.1]).unwrap_or(""))
        }
    }
}

/// Streams one response object into the line that carries it: the
/// `{"ok":…` head with the echoed client id, then each field as it is
/// known. Field order is the order of the calls.
///
/// JSON cannot carry a non-finite number. If one is written, the whole
/// response is withdrawn and [`Response::finish`] answers `{"ok":false,
/// "id":…,"error":"serialization failure"}` in its place.
pub struct Response<'a> {
    id: &'a Option<Value>,
    out: String,
    failed: bool,
}

impl<'a> Response<'a> {
    fn start(ok: bool, id: &'a Option<Value>) -> Response<'a> {
        let mut response = Response {
            id,
            // Room for a whole `predict` or `select` answer.
            out: String::with_capacity(192),
            failed: false,
        };
        response.open(ok, id);
        response
    }

    /// Opens a success response echoing `id`.
    pub fn ok(id: &'a Option<Value>) -> Response<'a> {
        Response::start(true, id)
    }

    /// A complete error response echoing `id`.
    pub fn error(id: &Option<Value>, msg: impl fmt::Display) -> String {
        let mut response = Response::start(false, id);
        response.str("error", &msg.to_string());
        response.finish()
    }

    fn open(&mut self, ok: bool, id: &Option<Value>) {
        self.out
            .push_str(if ok { "{\"ok\":true" } else { "{\"ok\":false" });
        if let Some(id) = id {
            self.value("id", id);
        }
    }

    fn key(&mut self, key: &str) {
        self.out.push(',');
        let _ = serde::json::write_str(&mut self.out, key);
        self.out.push(':');
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        let _ = serde::json::write_str(&mut self.out, v);
    }

    /// Appends an integer field.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    /// Appends a float field, in the shortest form that round-trips.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.value(key, &Value::F64(v));
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Appends a field holding a JSON tree — for the verbs whose answers
    /// are built as one.
    pub fn value(&mut self, key: &str, v: &Value) {
        self.key(key);
        self.failed |= serde_json::write_value(&mut self.out, v).is_err();
    }

    /// Appends a field whose value is already JSON text.
    pub fn raw(&mut self, key: &str, json: &str) {
        self.key(key);
        self.out.push_str(json);
    }

    /// Appends already rendered members (`"k":v,"k":v`).
    pub fn members(&mut self, rendered: &str) {
        if !rendered.is_empty() {
            // Room for the separator and the closing brace too: a large
            // body then grows the line once, not twice.
            self.out.reserve(rendered.len() + 2);
            self.out.push(',');
            self.out.push_str(rendered);
        }
    }

    /// Closes the object and returns the line.
    pub fn finish(mut self) -> String {
        if self.failed {
            return Response::error(self.id, "serialization failure");
        }
        self.out.push('}');
        self.out
    }
}

/// Executes a request against the service, streaming the response fields
/// into `w` (whose `"ok"` head the caller has written). On an error
/// whatever was written is the caller's to discard.
fn respond(service: &Service, req: &Request, w: &mut Response) -> Result<()> {
    match req {
        Request::Predict { cluster, query } => {
            let p = service.predict(cluster, query)?;
            w.f64("seconds", p.seconds);
            w.str("fingerprint", &p.fingerprint);
            w.bool("cached", p.cached);
        }
        Request::Select {
            cluster,
            model,
            collective,
            m,
            root,
        } => {
            let (choice, linear, binomial) =
                service.select(cluster, *model, *collective, *m, *root)?;
            w.str("algorithm", choice.as_str());
            w.f64("linear_seconds", linear);
            w.f64("binomial_seconds", binomial);
        }
        Request::Estimate { config } => {
            let ps = service.param_set(&ClusterRef::Config(config.clone()))?;
            w.str("fingerprint", &ps.fingerprint);
            w.u64("n", ps.n() as u64);
            w.u64("runs", ps.runs as u64);
            w.f64("virtual_cost_seconds", ps.virtual_cost);
        }
        Request::Plan {
            cluster,
            model,
            hier,
            fidelity: Fidelity::Analytic,
            trace,
        } => {
            let planned = if *hier {
                service.plan_hier(cluster, trace)?
            } else {
                service.plan(cluster, trace, *model)?
            };
            w.str("fingerprint", &planned.fingerprint);
            w.u64("param_version", planned.param_version);
            w.str("fidelity", Fidelity::Analytic.as_str());
            w.bool("cached", planned.cached);
            // The plan body (model, trace_hash, makespan, per-op schedule,
            // per-phase breakdown), rendered when the plan was evaluated.
            w.members(&planned.body);
        }
        Request::Plan {
            cluster,
            fidelity: Fidelity::Des,
            trace,
            ..
        } => {
            let (report, fingerprint) = service.plan_des(cluster, trace)?;
            w.str("fingerprint", &fingerprint);
            w.str("fidelity", Fidelity::Des.as_str());
            w.str("trace_hash", &trace.hash());
            // The replay body (makespan, message/event counters, observed
            // per-op windows).
            match render_members(&report.to_value()) {
                Ok(body) => w.members(&body),
                Err(_) => w.failed = true,
            }
        }
        Request::History { fingerprint } => {
            let history = service.registry().history(fingerprint)?;
            let versions: Vec<Value> = history
                .iter()
                .map(|ps| {
                    let mut entry = vec![
                        ("version", Value::U64(ps.param_version)),
                        ("runs", Value::U64(ps.runs as u64)),
                        ("virtual_cost_seconds", Value::F64(ps.virtual_cost)),
                    ];
                    if let Some(lin) = &ps.lineage {
                        entry.push(("parent_version", Value::U64(lin.parent_version)));
                        entry.push(("trigger", Value::Str(lin.trigger.clone())));
                        entry.push((
                            "residual_before",
                            Value::F64(lin.residual_before.mean_abs_rel),
                        ));
                        entry.push((
                            "residual_after",
                            Value::F64(lin.residual_after.mean_abs_rel),
                        ));
                    }
                    obj(entry)
                })
                .collect();
            w.str("fingerprint", fingerprint);
            w.value("versions", &Value::Seq(versions));
        }
        Request::Batch { requests } => {
            w.u64("count", requests.len() as u64);
            w.key("responses");
            w.out.push('[');
            for (i, item) in requests.iter().enumerate() {
                if i > 0 {
                    w.out.push(',');
                }
                // A sub-request with its own id gets its own request
                // context, so its spans (and the echoed sub-response
                // id) are attributable to that id; without one it
                // inherits the enclosing batch's context.
                let _ctx = item
                    .id
                    .as_ref()
                    .map(|id| cpm_obs::ctx::with_request(cpm_obs::next_request_id(), id_tag(id)));
                let mut sp = cpm_obs::span("serve.subrequest");
                sp.field_str("verb", item.verb.as_str());
                let start = std::time::Instant::now();
                let mark = w.out.len();
                w.open(true, &item.id);
                let outcome = respond(service, &item.request, w);
                service
                    .metrics()
                    .record_verb_latency(item.verb, elapsed_ns(start));
                if let Err(e) = outcome {
                    w.out.truncate(mark);
                    w.open(false, &item.id);
                    w.str("error", &e.to_string());
                }
                w.out.push('}');
            }
            w.out.push(']');
        }
        Request::Trace { last, raw } => {
            let recorder = cpm_obs::Recorder::global();
            let mut records = recorder.snapshot();
            if let Some(last) = *last {
                if records.len() > last {
                    records.drain(..records.len() - last);
                }
            }
            w.u64("recorded", recorder.recorded());
            w.u64("dropped", recorder.dropped());
            if *raw {
                // The fleet collector's per-node form: records themselves,
                // ready to merge into a multi-process Chrome trace.
                let raw: Vec<Value> = records
                    .iter()
                    .map(|r| cpm_obs::OwnedRecord::from(r).to_value())
                    .collect();
                w.value("records", &Value::Seq(raw));
            } else {
                w.u64("records", records.len() as u64);
                w.value("trace", &cpm_obs::chrome::chrome_trace(&records));
            }
        }
        Request::Stats { text: true } => w.str("text", &service.metrics().exposition()),
        Request::Stats { text: false } => {
            let s = service.metrics().snapshot();
            let latency: Vec<(String, Value)> = service
                .metrics()
                .latency_snapshot()
                .into_iter()
                .map(|(verb, h)| {
                    (
                        verb.as_str().to_string(),
                        obj(vec![
                            ("count", Value::U64(h.count)),
                            ("p50_ns", Value::U64(h.quantile(0.50))),
                            ("p95_ns", Value::U64(h.quantile(0.95))),
                            ("p99_ns", Value::U64(h.quantile(0.99))),
                            ("mean_ns", Value::F64(h.mean())),
                        ]),
                    )
                })
                .collect();
            w.u64("hits", s.hits);
            w.u64("misses", s.misses);
            w.u64("plan_hits", s.plan_hits);
            w.u64("plan_misses", s.plan_misses);
            w.u64("estimations", s.estimations);
            w.u64("registry_loads", s.registry_loads);
            w.u64("republishes", s.republishes);
            w.u64("predict_count", s.predict_count);
            w.f64("predict_ns_mean", s.predict_ns_mean);
            w.u64("predict_ns_max", s.predict_ns_max);
            w.u64("stored", service.registry().len() as u64);
            w.value("latency", &Value::Map(latency));
        }
        Request::Shutdown => w.bool("shutting_down", true),
    }
    Ok(())
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How one layer answered one request (see [`LineHandler::answer`]).
#[derive(Debug)]
pub enum Answer {
    /// Answered into the response; `true` asks the server to shut down.
    Done(bool),
    /// Failed while executing: an error response, timed under the verb.
    Failed(ServeError),
    /// Refused before executing — a field did not decode, or no layer
    /// answers the verb: an error response, timed under no verb.
    Refused(ServeError),
}

impl From<Result<()>> for Answer {
    fn from(outcome: Result<()>) -> Answer {
        match outcome {
            Ok(()) => Answer::Done(false),
            Err(e) => Answer::Failed(e),
        }
    }
}

/// The core protocol: decode the typed request, execute it.
impl LineHandler for Service {
    fn answer(&self, verb: Verb, fields: &Fields, w: &mut Response) -> Answer {
        match fields.request(verb) {
            Ok(req) => match respond(self, &req, w) {
                Ok(()) => Answer::Done(matches!(req, Request::Shutdown)),
                Err(e) => Answer::Failed(e),
            },
            Err(e) => Answer::Refused(e),
        }
    }

    fn metrics(&self) -> &Metrics {
        Service::metrics(self)
    }
}

/// Handles one raw request line end to end with the core protocol.
/// Returns the response line (no trailing newline) and whether the server
/// should shut down.
pub fn handle_line(service: &Service, line: &str) -> (String, bool) {
    envelope(service, line)
}

/// The request envelope every serving layer shares (see the module docs):
/// scans `line` once and lets `handler` answer the verb.
///
/// Answered requests are timed (scan + decode + execute + serialize) into
/// the per-verb latency histograms of [`LineHandler::metrics`]; refused
/// ones are not attributed to any verb. The client id is echoed into the
/// response — error responses included — whenever the line decoded as a
/// JSON object, even if the request inside it was invalid.
pub(crate) fn envelope<H: LineHandler + ?Sized>(handler: &H, line: &str) -> (String, bool) {
    let start = std::time::Instant::now();
    let scanned = Fields::scan(line);
    let id = scanned.as_ref().ok().and_then(Fields::client_id);
    // One server-side request id per line, tagged with the client id so
    // trace dumps attribute every span below to it.
    let _ctx = cpm_obs::ctx::with_request(
        cpm_obs::next_request_id(),
        id.as_ref().map(id_tag).unwrap_or_default(),
    );
    // Distributed-tracing context: adopt the wire's `(trace, parent)`
    // when the request carried one, otherwise this request becomes its
    // own trace root with a fresh trace id. Every span below inherits it.
    let (trace_id, parent_span) = scanned
        .as_ref()
        .ok()
        .and_then(Fields::trace_ctx)
        .unwrap_or_else(|| (cpm_obs::ctx::next_span_id(), 0));
    let _tctx = cpm_obs::ctx::with_trace(trace_id, parent_span);
    // The request span covers field decoding, execution and response
    // writing — everything attributed to this verb's latency histogram
    // except the scan above.
    let mut sp = cpm_obs::span("serve.request");
    let (text, shutdown, timed) = match scanned.and_then(|f| Ok((f.parse_verb()?, f))) {
        Ok((verb, fields)) => {
            sp.field_str("verb", verb.as_str());
            let mut w = Response::ok(&id);
            match handler.answer(verb, &fields, &mut w) {
                Answer::Done(shutdown) => (w.finish(), shutdown, Some(verb)),
                Answer::Failed(e) => (Response::error(&id, e), false, Some(verb)),
                Answer::Refused(e) => (Response::error(&id, e), false, None),
            }
        }
        Err(e) => (Response::error(&id, e), false, None),
    };
    drop(sp);
    if let Some(verb) = timed {
        handler
            .metrics()
            .record_verb_latency(verb, elapsed_ns(start));
    }
    (text, shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("42").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"verb\":\"dance\"}").is_err());
        assert!(parse_request("{\"verb\":\"predict\"}").is_err());
    }

    #[test]
    fn parses_predict_with_fingerprint() {
        let line = "{\"verb\":\"predict\",\"fingerprint\":\"ab\",\"model\":\"lmo\",\
                    \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":1024}";
        let req = parse_request(line).unwrap();
        let Request::Predict { cluster, query } = req else {
            panic!("wrong variant");
        };
        assert!(matches!(cluster, ClusterRef::Fingerprint(fp) if fp == "ab"));
        assert_eq!(query.m, 1024);
        assert_eq!(query.root, 0);
        assert_eq!(query.model, ModelKind::Lmo);
        assert_eq!(query.algorithm, Algorithm::Binomial);
    }

    #[test]
    fn parses_history() {
        let req = parse_request("{\"verb\":\"history\",\"fingerprint\":\"ab\"}").unwrap();
        assert!(matches!(req, Request::History { fingerprint } if fingerprint == "ab"));
        assert!(parse_request("{\"verb\":\"history\"}").is_err());
    }

    #[test]
    fn parses_stats_and_shutdown() {
        assert!(matches!(
            parse_request("{\"verb\":\"stats\"}").unwrap(),
            Request::Stats { text: false }
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"stats\",\"format\":\"json\"}").unwrap(),
            Request::Stats { text: false }
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"stats\",\"format\":\"text\"}").unwrap(),
            Request::Stats { text: true }
        ));
        assert!(parse_request("{\"verb\":\"stats\",\"format\":\"xml\"}").is_err());
        assert!(matches!(
            parse_request("{\"verb\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn parses_batch_of_predicts() {
        let sub = "{\"verb\":\"predict\",\"fingerprint\":\"ab\",\"model\":\"lmo\",\
                   \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":64}";
        let line = format!("{{\"verb\":\"batch\",\"requests\":[{sub},{sub}]}}");
        let Request::Batch { requests } = parse_request(&line).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(requests.len(), 2);
        assert!(matches!(requests[0].request, Request::Predict { .. }));
        assert!(requests[0].id.is_none());
    }

    #[test]
    fn batch_items_carry_client_ids() {
        let sub = "{\"verb\":\"predict\",\"id\":\"sub-1\",\"fingerprint\":\"ab\",\
                   \"model\":\"lmo\",\"collective\":\"scatter\",\
                   \"algorithm\":\"binomial\",\"m\":64}";
        let line = format!("{{\"verb\":\"batch\",\"requests\":[{sub}]}}");
        let Request::Batch { requests } = parse_request(&line).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(requests[0].id, Some(Value::Str("sub-1".to_string())));
    }

    #[test]
    fn parses_trace() {
        assert!(matches!(
            parse_request("{\"verb\":\"trace\"}").unwrap(),
            Request::Trace {
                last: None,
                raw: false
            }
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"trace\",\"last\":100}").unwrap(),
            Request::Trace {
                last: Some(100),
                raw: false
            }
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"trace\",\"raw\":true,\"last\":5}").unwrap(),
            Request::Trace {
                last: Some(5),
                raw: true
            }
        ));
        assert!(parse_request("{\"verb\":\"trace\",\"last\":0}").is_err());
        assert!(parse_request("{\"verb\":\"trace\",\"last\":\"x\"}").is_err());
        assert!(parse_request("{\"verb\":\"trace\",\"raw\":1}").is_err());
    }

    #[test]
    fn trace_context_is_read_from_the_scan() {
        fn ctx(line: &str) -> Option<(u64, u64)> {
            Fields::scan(line).unwrap().trace_ctx()
        }
        assert_eq!(
            ctx(
                "{\"verb\":\"stats\",\"ctx\":{\"trace\":\"00000000000000ab\",\
                 \"parent\":\"00000000000000cd\"}}"
            ),
            Some((0xab, 0xcd))
        );
        assert_eq!(
            ctx("{\"ctx\":{\"trace\":\"ab\"}}"),
            Some((0xab, 0)),
            "the parent is optional"
        );
        // Absent / malformed contexts are ignored, not errors.
        assert_eq!(ctx("{\"verb\":\"stats\"}"), None);
        assert_eq!(ctx("{\"ctx\":{\"trace\":\"zz\"}}"), None);
        assert_eq!(ctx("{\"ctx\":\"00000000000000ab\"}"), None);
        // Of a repeated key the first occurrence counts, at both levels.
        assert_eq!(
            ctx("{\"ctx\":{\"trace\":\"1\",\"trace\":\"2\"},\"ctx\":{\"trace\":\"3\"}}"),
            Some((1, 0))
        );
    }

    #[test]
    fn client_ids_are_scalars_only() {
        fn id(line: &str) -> Option<Value> {
            Fields::scan(line).unwrap().client_id()
        }
        assert_eq!(id("{\"id\":\"a\\u0062\"}"), Some(Value::Str("ab".into())));
        assert_eq!(id("{\"id\":7}"), Some(Value::U64(7)));
        assert_eq!(id("{\"id\":-7}"), Some(Value::I64(-7)));
        for not_an_id in ["1.5", "1e3", "null", "true", "[1]", "{\"a\":1}"] {
            assert_eq!(id(&format!("{{\"id\":{not_an_id}}}")), None, "{not_an_id}");
        }
        assert_eq!(&id_tag(&Value::I64(-7))[..3], b"-7\0");
        assert_eq!(&id_tag(&Value::U64(u64::MAX))[..], b"1844674407370955");
        assert_eq!(
            &id_tag(&Value::Str("r\u{e9}sum\u{e9}".into()))[..9],
            "r\u{e9}sum\u{e9}\0".as_bytes()
        );
    }

    #[test]
    fn responses_stream_in_call_order_and_withdraw_on_non_finite_floats() {
        let id = Some(Value::Str("q\"1".into()));
        let mut w = Response::ok(&id);
        w.f64("seconds", 1e-7);
        w.str("name", "a\nb");
        w.u64("n", 4);
        w.bool("cached", false);
        w.value("list", &Value::Seq(vec![Value::Null, Value::F64(2.0)]));
        w.raw("spliced", "{\"x\":1}");
        w.members("\"k\":1,\"l\":[2]");
        w.members("");
        assert_eq!(
            w.finish(),
            "{\"ok\":true,\"id\":\"q\\\"1\",\"seconds\":1e-7,\"name\":\"a\\nb\",\"n\":4,\
             \"cached\":false,\"list\":[null,2.0],\"spliced\":{\"x\":1},\"k\":1,\"l\":[2]}"
        );
        assert_eq!(Response::ok(&None).finish(), "{\"ok\":true}");
        assert_eq!(
            Response::error(&Some(Value::I64(-3)), "no"),
            "{\"ok\":false,\"id\":-3,\"error\":\"no\"}"
        );
        // The fallback keeps the client id (it used to drop it).
        for poison in [f64::NAN, f64::INFINITY] {
            let mut w = Response::ok(&id);
            w.u64("n", 4);
            w.f64("seconds", poison);
            assert_eq!(
                w.finish(),
                "{\"ok\":false,\"id\":\"q\\\"1\",\"error\":\"serialization failure\"}"
            );
        }
        let mut w = Response::ok(&None);
        w.value("deep", &Value::Seq(vec![Value::F64(f64::NEG_INFINITY)]));
        assert_eq!(
            w.finish(),
            "{\"ok\":false,\"error\":\"serialization failure\"}"
        );
    }

    #[test]
    fn batch_rejects_bad_shapes() {
        // Missing / wrong-type / empty requests array.
        assert!(parse_request("{\"verb\":\"batch\"}").is_err());
        assert!(parse_request("{\"verb\":\"batch\",\"requests\":7}").is_err());
        assert!(parse_request("{\"verb\":\"batch\",\"requests\":[]}").is_err());
        // Non-batchable verbs: batch-in-batch, shutdown, stats.
        for inner in [
            "{\"verb\":\"batch\",\"requests\":[]}",
            "{\"verb\":\"shutdown\"}",
            "{\"verb\":\"stats\"}",
        ] {
            let line = format!("{{\"verb\":\"batch\",\"requests\":[{inner}]}}");
            let err = parse_request(&line).unwrap_err().to_string();
            assert!(err.contains("batch request 0"), "err: {err}");
        }
    }
}
