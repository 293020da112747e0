//! The fleet's front door: a routing line handler on the reactor.
//!
//! The [`Router`] owns no parameter sets. It looks each request's verb up
//! in the verb table ([`Verb::route`]); an owner-routed verb's cluster
//! fingerprint is hashed onto the ring, the line forwarded to the owning
//! node over a pooled connection, and the response relayed untouched —
//! the fast path is scan-route-relay: the line is scanned for its routing
//! fields, never parsed into a tree, and forwarded as received; with the
//! flight recorder on, each forward attempt splices its span in front as
//! the downstream trace parent (see `call_chain`). Batches and stale
//! flags are spliced the same way, from spans of the original bytes.
//! Failure handling is where the value is:
//!
//! - per-upstream connect/read timeouts (the pool's [`ClientConfig`]);
//! - bounded retry with exponential backoff on one upstream, then
//!   failover to the next replica in ring order;
//! - follower-served responses are flagged `"stale": true` with
//!   `"served_by"` naming the replica, so clients can tell degraded
//!   reads from leader reads when a shard is partially down;
//! - when every owner is down, the synthesized error response still
//!   echoes the client's request `"id"` — the same contract the serve
//!   protocol keeps for its own error responses.
//!
//! Batches are split by owner chain, forwarded as per-shard
//! sub-batches, and spliced back in request order.

use std::sync::Arc;
use std::time::Duration;

use cpm_obs::{Counter, Histogram, MetricsRegistry};
use cpm_reactor::{ClientConfig, ClientPool};
use cpm_serve::{obj, Fields, Response, Route, Verb};
use serde_json::Value;

use crate::map::{FleetMap, NodeInfo};
use crate::ring::Ring;
use crate::util::{append_members, field, merged_trace, resolve_addr};

/// Router tuning.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Connection settings for every upstream pool (per-upstream
    /// connect and read timeouts live here).
    pub client: ClientConfig,
    /// Calls attempted on one upstream before failing over to the next
    /// replica (clamped to at least 1).
    pub attempts_per_upstream: usize,
    /// Backoff before the second attempt on an upstream; doubles per
    /// further attempt.
    pub backoff: Duration,
    /// Idle connections kept per upstream.
    pub pool_idle: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            client: ClientConfig::default(),
            attempts_per_upstream: 2,
            backoff: Duration::from_millis(5),
            pool_idle: 8,
        }
    }
}

/// One forwarding target: a member plus its pool and counters.
struct Upstream {
    info: NodeInfo,
    pool: ClientPool,
    /// `cpm_fleet_router_forwards{upstream}` — responses relayed.
    forwards: Counter,
    /// `cpm_fleet_router_upstream_errors{upstream}` — failed calls.
    errors: Counter,
}

/// The routing handler. Serve it on the reactor with
/// [`crate::serve_router`], or embed it anywhere a
/// [`cpm_reactor::Handler`] fits.
pub struct Router {
    map: FleetMap,
    ring: Ring,
    upstreams: Vec<Upstream>,
    cfg: RouterConfig,
    registry: Arc<MetricsRegistry>,
    /// `cpm_fleet_router_retries` — extra attempts past the first.
    retries: Counter,
    /// `cpm_fleet_router_stale_reads` — follower-served responses.
    stale_reads: Counter,
    /// `cpm_fleet_router_failures` — requests with every owner down.
    failures: Counter,
    /// `cpm_fleet_router_forward_ns` — end-to-end routed latency.
    latency: Histogram,
}

impl Router {
    /// Builds a router over `map`, resolving every member address up
    /// front.
    pub fn new(map: FleetMap, cfg: RouterConfig) -> Result<Arc<Router>, String> {
        map.validate()?;
        let registry = Arc::new(MetricsRegistry::new());
        let mut upstreams = Vec::with_capacity(map.nodes.len());
        for info in &map.nodes {
            let addr = resolve_addr(&info.addr)?;
            let labels = [("upstream", info.name.as_str())];
            upstreams.push(Upstream {
                pool: ClientPool::new(addr, cfg.client.clone(), cfg.pool_idle),
                forwards: registry.counter(
                    "cpm_fleet_router_forwards",
                    "Responses relayed from an upstream",
                    &labels,
                ),
                errors: registry.counter(
                    "cpm_fleet_router_upstream_errors",
                    "Calls to an upstream that failed",
                    &labels,
                ),
                info: info.clone(),
            });
        }
        Ok(Arc::new(Router {
            ring: map.ring(),
            upstreams,
            registry: Arc::clone(&registry),
            retries: registry.counter(
                "cpm_fleet_router_retries",
                "Forwarding attempts past the first (same or next replica)",
                &[],
            ),
            stale_reads: registry.counter(
                "cpm_fleet_router_stale_reads",
                "Responses served by a follower and flagged stale",
                &[],
            ),
            failures: registry.counter(
                "cpm_fleet_router_failures",
                "Requests that failed on every owner",
                &[],
            ),
            latency: registry.histogram(
                "cpm_fleet_router_forward_ns",
                "End-to-end routed request latency in nanoseconds",
                &[],
            ),
            map,
            cfg,
        }))
    }

    /// The router's metrics registry (`stats format:text` renders it).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The routing key of one request: an explicit `"fingerprint"`, else
    /// the fingerprint of the embedded `"config"`.
    fn routing_key(fields: &Fields) -> Result<String, String> {
        if let Some(fp) = fields.fingerprint.and_then(serde_json::raw_str) {
            return Ok(fp.into_owned());
        }
        if let Some(config) = fields.config {
            return cpm_serve::fingerprint_json(config).map_err(|e| e.to_string());
        }
        Err(NO_ROUTING_KEY.into())
    }

    /// Upstream indices of a key's owner chain, leader first.
    fn owner_chain(&self, key: &str) -> Vec<usize> {
        self.ring
            .owners(key, self.map.effective_replication())
            .into_iter()
            .filter_map(|name| self.upstreams.iter().position(|u| u.info.name == name))
            .collect()
    }

    /// Calls `line` down an owner chain with per-upstream retry and
    /// backoff. Returns the raw response and the chain rank that served
    /// it (0 = leader).
    ///
    /// While the flight recorder is enabled, every attempt opens its own
    /// `router.forward` span and the forwarded line carries that span as
    /// the downstream trace parent — so retries and failovers each appear
    /// as distinct child hops in a merged fleet trace. With recording off
    /// the line is relayed verbatim.
    fn call_chain(&self, chain: &[usize], line: &str) -> Result<(String, usize), String> {
        let mut first = true;
        let mut last_err = "no owners".to_string();
        for (rank, &ui) in chain.iter().enumerate() {
            let up = &self.upstreams[ui];
            for attempt in 0..self.cfg.attempts_per_upstream.max(1) {
                if !first {
                    self.retries.inc();
                }
                first = false;
                if attempt > 0 {
                    std::thread::sleep(self.cfg.backoff * (1 << (attempt - 1)));
                }
                // Span fields carry static strings only; the upstream's
                // index in the map stands in for its name.
                let mut sp = cpm_obs::span("router.forward");
                sp.field_u64("upstream", ui as u64);
                let traced_line = crate::util::with_ctx(line, sp.span_id());
                match up.pool.call(traced_line.as_deref().unwrap_or(line)) {
                    Ok(resp) => {
                        up.forwards.inc();
                        return Ok((resp, rank));
                    }
                    Err(e) => {
                        up.errors.inc();
                        last_err = format!("{}: {e}", up.info.name);
                    }
                }
            }
        }
        self.failures.inc();
        Err(last_err)
    }

    /// Marks a follower-served success response `"stale"` and names the
    /// serving replica. Error responses relay unchanged.
    fn flag_stale(&self, resp: &mut String, rank: usize, chain: &[usize]) {
        if rank > 0 && field(resp, "ok") == Some("true") {
            self.stale_reads.inc();
            let served_by = serde_json::to_string(&self.upstreams[chain[rank]].info.name)
                .expect("a string serializes");
            append_members(resp, &format!("\"stale\":true,\"served_by\":{served_by}"));
        }
    }

    /// Routes one single-key request (everything except batch/local
    /// verbs).
    fn route_single(&self, fields: &Fields, line: &str, id: &Option<Value>) -> String {
        let key = match Self::routing_key(fields) {
            Ok(k) => k,
            Err(e) => return Response::error(id, e),
        };
        let chain = self.owner_chain(&key);
        match self.call_chain(&chain, line) {
            Ok((mut resp, rank)) => {
                self.flag_stale(&mut resp, rank, &chain);
                resp
            }
            // The forwarding path keeps the protocol's contract: even a
            // synthesized upstream-failure response echoes the request id.
            Err(e) => Response::error(id, format!("shard unavailable for {key}: {e}")),
        }
    }

    /// Splits a batch by owner chain, forwards per-shard sub-batches,
    /// and splices the responses back in request order — items and
    /// sub-responses both travel as spans of the bytes received, never
    /// re-encoded. A group whose owners are all down yields per-item
    /// error responses (echoing each item's id) without failing the rest
    /// of the batch.
    fn route_batch(&self, fields: &Fields, id: &Option<Value>) -> String {
        let Some(items) = fields.requests.and_then(serde_json::raw_elements) else {
            return Response::error(id, "batch requires a \"requests\" array");
        };
        if items.is_empty() {
            return Response::error(id, "batch is empty");
        }
        // Group item indices by owner chain so every group shares one
        // leader and one failover order.
        let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (chain, item indices)
        let mut merged: Vec<String> = vec![String::new(); items.len()];
        let item_id = |i: usize| Fields::scan(items[i]).ok().and_then(|f| f.client_id());
        for (i, item) in items.iter().enumerate() {
            match Fields::scan(item)
                .map_err(|_| NO_ROUTING_KEY.to_string())
                .and_then(|f| Self::routing_key(&f))
            {
                Ok(key) => {
                    let chain = self.owner_chain(&key);
                    match groups.iter_mut().find(|(c, _)| *c == chain) {
                        Some((_, idxs)) => idxs.push(i),
                        None => groups.push((chain, vec![i])),
                    }
                }
                Err(e) => merged[i] = Response::error(&item_id(i), e),
            }
        }
        for (chain, idxs) in &groups {
            let group: Vec<&str> = idxs.iter().map(|&i| items[i]).collect();
            let sub_line = format!(
                "{{\"verb\":\"{}\",\"requests\":[{}]}}",
                Verb::Batch.as_str(),
                group.join(",")
            );
            match self.call_chain(chain, &sub_line) {
                Ok((resp, rank)) => {
                    let responses = field(&resp, "responses")
                        .and_then(serde_json::raw_elements)
                        .unwrap_or_default();
                    for (slot, &i) in idxs.iter().enumerate() {
                        merged[i] = match responses.get(slot) {
                            Some(r) => {
                                let mut r = r.to_string();
                                self.flag_stale(&mut r, rank, chain);
                                r
                            }
                            None => Response::error(&None, "upstream returned a short batch"),
                        };
                    }
                }
                Err(e) => {
                    for &i in idxs {
                        merged[i] = Response::error(&item_id(i), format!("shard unavailable: {e}"));
                    }
                }
            }
        }
        let mut w = Response::ok(id);
        w.u64("count", merged.len() as u64);
        w.raw("responses", &format!("[{}]", merged.join(",")));
        w.finish()
    }

    /// Local `stats`: the router's own counters (`format: "text"`
    /// renders the Prometheus exposition of its registry).
    fn handle_stats(&self, fields: &Fields, id: &Option<Value>) -> String {
        let mut w = Response::ok(id);
        if fields.format.and_then(serde_json::raw_str).as_deref() == Some("text") {
            w.str("text", &self.registry.exposition());
            return w.finish();
        }
        let upstreams: Vec<Value> = self
            .upstreams
            .iter()
            .map(|u| {
                obj(vec![
                    ("name", Value::Str(u.info.name.clone())),
                    ("addr", Value::Str(u.info.addr.clone())),
                    ("forwards", Value::U64(u.forwards.get())),
                    ("errors", Value::U64(u.errors.get())),
                ])
            })
            .collect();
        w.str("role", "router");
        w.u64("nodes", self.map.nodes.len() as u64);
        w.u64("replication", self.map.effective_replication() as u64);
        w.u64("retries", self.retries.get());
        w.u64("stale_reads", self.stale_reads.get());
        w.u64("failures", self.failures.get());
        w.value("upstreams", &Value::Seq(upstreams));
        w.finish()
    }

    /// The fleet trace collector: fans a raw flight-recorder dump out
    /// to every member, merges the dumps (plus the router's own records)
    /// into one multi-process Chrome trace with cross-node flow arrows,
    /// and reports how many nodes answered.
    fn collect_trace(&self, fields: &Fields, id: &Option<Value>) -> String {
        let mut w = Response::ok(id);
        let upstreams = self.upstreams.iter().map(|u| (&u.info, &u.pool));
        merged_trace("router", upstreams, fields, &mut w);
        w.finish()
    }

    /// The verbs the router answers itself: `stats`, `shutdown` and
    /// `fleet-info`.
    fn answer_locally(&self, verb: Verb, fields: &Fields, id: &Option<Value>) -> (String, bool) {
        match verb {
            Verb::Stats => (self.handle_stats(fields, id), false),
            Verb::Shutdown => {
                let mut w = Response::ok(id);
                w.bool("shutting_down", true);
                (w.finish(), true)
            }
            _ => (self.handle_info(id), false),
        }
    }

    fn handle_info(&self, id: &Option<Value>) -> String {
        let mut w = Response::ok(id);
        w.str("role", "router");
        w.u64("nodes", self.map.nodes.len() as u64);
        w.u64("replication", self.map.effective_replication() as u64);
        w.u64("vnodes", self.map.vnodes as u64);
        w.finish()
    }

    fn handle(&self, line: &str) -> (String, bool) {
        let start = std::time::Instant::now();
        let fields = match Fields::scan(line) {
            Ok(fields) => fields,
            // Valid JSON that is no object has no fields, hence no verb.
            Err(_) if serde_json::scan_object(line, |_, _| ()).is_ok() => Fields::default(),
            Err(_) => return (Response::error(&None, "request is not valid JSON"), false),
        };
        let id = fields.client_id();
        let _ctx = cpm_obs::ctx::with_request(
            cpm_obs::next_request_id(),
            id.as_ref().map(cpm_serve::id_tag).unwrap_or_default(),
        );
        // Join the caller's trace or root a fresh one; forwarded lines
        // carry this id so member spans merge into the same trace.
        let (trace_id, parent_span) = fields
            .trace_ctx()
            .unwrap_or_else(|| (cpm_obs::ctx::next_span_id(), 0));
        let _tctx = cpm_obs::ctx::with_trace(trace_id, parent_span);
        let name = fields.verb().unwrap_or_default();
        let verb = Verb::parse(&name);
        let mut sp = cpm_obs::span("router.request");
        sp.field_str("verb", verb.map_or("other", Verb::as_str));
        let out = match verb {
            None if name.is_empty() => (Response::error(&id, "missing verb"), false),
            None => (
                Response::error(&id, format!("unknown verb {name:?}")),
                false,
            ),
            Some(verb) => match verb.route() {
                Route::Owner => (self.route_single(&fields, line, &id), false),
                Route::Split => (self.route_batch(&fields, &id), false),
                Route::FanOut => (self.collect_trace(&fields, &id), false),
                Route::Local => self.answer_locally(verb, &fields, &id),
                Route::NodeOnly => (
                    Response::error(&id, format!("{name} is node-to-node, not routable")),
                    false,
                ),
            },
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(ns);
        out
    }
}

const NO_ROUTING_KEY: &str = "request carries neither \"fingerprint\" nor \"config\"";

impl cpm_reactor::Handler for Router {
    fn handle(&self, payload: &str) -> (String, bool) {
        Router::handle(self, payload)
    }
}
