//! The node side of the fleet: replication fan-out and fleet verbs.
//!
//! [`FleetNode`] wraps any [`LineHandler`] (typically the drift-enabled
//! handler) and adds the fleet vocabulary, answered through the serve
//! protocol's envelope from the fields it already scanned:
//!
//! - `fleet-install` — apply a parameter set replicated by a peer at
//!   its already-assigned version (never re-fans-out, so replication
//!   cannot echo between replicas);
//! - `fleet-info` — this node's name, role, and shard topology;
//! - `trace` — fleet-wide: merges this node's flight recorder with raw
//!   dumps collected from every peer into one Chrome trace with a
//!   process track per node (`"raw":true` keeps the local-only dump);
//! - `stats` — delegated, then extended with a `fleet` section (role,
//!   ownership ranges, replication lag per peer);
//! - `estimate` — shard-aware: refused with the owner list when this
//!   node does not own the config's fingerprint, so writes land only
//!   where the ring says they belong.
//!
//! The [`Replicator`] hangs off the service's publish hook: every local
//! publish (cold estimate or drift republish) fans the new version out
//! to the other owners *synchronously*, so by the time the triggering
//! client sees a response, every reachable replica holds the version.

use std::sync::Arc;

use cpm_obs::{Counter, Gauge, Histogram};
use cpm_reactor::{ClientConfig, ClientPool};
use cpm_serve::{
    obj, Answer, Fields, LineHandler, Metrics, ParamSet, Response, ServeError, Service, Verb,
};
use serde_json::Value;

use crate::map::{FleetMap, NodeInfo};
use crate::ring::Ring;
use crate::util::{field, merged_trace, resolve_addr};

/// Per-peer replication state: a pooled connection plus push/ack
/// accounting, all registered in the node's unified metrics registry.
struct Peer {
    info: NodeInfo,
    pool: ClientPool,
    /// `cpm_fleet_replication_pushes{peer}` — installs sent.
    pushed: Counter,
    /// `cpm_fleet_replication_acks{peer}` — installs acknowledged.
    acked: Counter,
    /// `cpm_fleet_replication_errors{peer}` — pushes that failed.
    errors: Counter,
    /// `cpm_fleet_replication_lag{peer}` — pushed minus acked.
    lag: Gauge,
}

/// Leader-driven replication fan-out, invoked from the service's
/// publish hook.
pub struct Replicator {
    name: String,
    map: FleetMap,
    ring: Ring,
    peers: Vec<Peer>,
    /// `cpm_fleet_push_ns` — wall-clock time per replication push.
    push_ns: Histogram,
}

impl Replicator {
    fn new(
        service: &Arc<Service>,
        map: &FleetMap,
        name: &str,
        client_cfg: &ClientConfig,
    ) -> Result<Replicator, String> {
        let registry = Arc::clone(service.metrics().registry());
        let mut peers = Vec::new();
        for info in map.nodes.iter().filter(|n| n.name != name) {
            let addr = resolve_addr(&info.addr)?;
            let labels = [("peer", info.name.as_str())];
            peers.push(Peer {
                info: info.clone(),
                pool: ClientPool::new(addr, client_cfg.clone(), 2),
                pushed: registry.counter(
                    "cpm_fleet_replication_pushes",
                    "Parameter-set installs pushed to a peer",
                    &labels,
                ),
                acked: registry.counter(
                    "cpm_fleet_replication_acks",
                    "Parameter-set installs acknowledged by a peer",
                    &labels,
                ),
                errors: registry.counter(
                    "cpm_fleet_replication_errors",
                    "Parameter-set pushes that failed",
                    &labels,
                ),
                lag: registry.gauge(
                    "cpm_fleet_replication_lag",
                    "Installs pushed to a peer but not acknowledged",
                    &labels,
                ),
            });
        }
        Ok(Replicator {
            name: name.to_string(),
            map: map.clone(),
            ring: map.ring(),
            peers,
            push_ns: registry.histogram(
                "cpm_fleet_push_ns",
                "Wall-clock nanoseconds per replication push to a peer",
                &[],
            ),
        })
    }

    /// Pushes `ps` to every other owner of its fingerprint. Failures
    /// are counted (and visible as lag), never propagated: a publish
    /// must not fail because a replica is down — the router degrades to
    /// the surviving owners instead.
    pub fn replicate(&self, ps: &ParamSet) {
        let owners = self
            .ring
            .owners(&ps.fingerprint, self.map.effective_replication());
        if !owners.iter().any(|o| *o == self.name) {
            // Not an owner (a directly-addressed estimate on a
            // non-owner node): nothing to fan out.
            return;
        }
        let set_json = match serde_json::to_string(ps) {
            Ok(j) => j,
            Err(_) => return,
        };
        let line = format!(
            "{{\"verb\":\"{}\",\"from\":{:?},\"set\":{set_json}}}",
            Verb::FleetInstall.as_str(),
            self.name
        );
        for (idx, peer) in self
            .peers
            .iter()
            .enumerate()
            .filter(|(_, p)| owners.iter().any(|o| *o == p.info.name))
        {
            // Span fields carry static strings only; the peer's index
            // in the map stands in for its name.
            let mut sp = cpm_obs::span("fleet.replicate");
            sp.field_u64("peer", idx as u64);
            // When a trace is being recorded, stamp the push with a
            // trace context whose parent is this push's span, so the
            // peer's install spans appear as children in merged fleet
            // dumps. The recorder-off path keeps the single shared
            // line untouched.
            let traced_line = crate::util::with_ctx(&line, sp.span_id());
            peer.pushed.inc();
            let push_start = std::time::Instant::now();
            match peer.pool.call(traced_line.as_deref().unwrap_or(&line)) {
                Ok(resp) if field(&resp, "ok") == Some("true") => {
                    peer.acked.inc();
                }
                _ => {
                    peer.errors.inc();
                }
            }
            self.push_ns
                .record(u64::try_from(push_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            peer.lag
                .set(peer.pushed.get().saturating_sub(peer.acked.get()));
        }
    }

    /// `(peer, pushed, acked)` accounting for the stats section.
    fn peer_lag(&self) -> Vec<(String, u64, u64)> {
        self.peers
            .iter()
            .map(|p| (p.info.name.clone(), p.pushed.get(), p.acked.get()))
            .collect()
    }
}

/// A fleet member's line handler: the wrapped protocol plus the fleet
/// verbs and shard-aware write routing.
pub struct FleetNode {
    inner: Arc<dyn LineHandler>,
    service: Arc<Service>,
    name: String,
    map: FleetMap,
    ring: Ring,
    replicator: Arc<Replicator>,
    /// `cpm_fleet_installs` — replicated sets applied.
    installs: Counter,
    /// `cpm_fleet_installs_stale` — replicated sets at or below the
    /// version already held (archived, not applied).
    installs_stale: Counter,
    /// `cpm_fleet_writes_rejected` — estimates refused because this
    /// node does not own the fingerprint.
    writes_rejected: Counter,
}

impl FleetNode {
    /// Wraps `inner` as fleet member `name` of `map`, registering the
    /// replication fan-out as `service`'s publish hook. `service` must
    /// be the same service `inner` ultimately delegates to.
    pub fn new(
        service: Arc<Service>,
        inner: Arc<dyn LineHandler>,
        map: FleetMap,
        name: &str,
        client_cfg: ClientConfig,
    ) -> Result<Arc<FleetNode>, String> {
        map.validate()?;
        if map.node(name).is_none() {
            return Err(format!("node {name:?} is not in the fleet map"));
        }
        let replicator = Arc::new(Replicator::new(&service, &map, name, &client_cfg)?);
        let hook = Arc::clone(&replicator);
        service.set_publish_hook(Box::new(move |ps| hook.replicate(ps)));
        let registry = Arc::clone(service.metrics().registry());
        Ok(Arc::new(FleetNode {
            ring: map.ring(),
            inner,
            name: name.to_string(),
            replicator,
            installs: registry.counter(
                "cpm_fleet_installs",
                "Replicated parameter sets applied at their assigned version",
                &[],
            ),
            installs_stale: registry.counter(
                "cpm_fleet_installs_stale",
                "Replicated parameter sets ignored as stale",
                &[],
            ),
            writes_rejected: registry.counter(
                "cpm_fleet_writes_rejected",
                "Estimates refused because this node does not own the fingerprint",
                &[],
            ),
            map,
            service,
        }))
    }

    /// This node's name in the fleet map.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped core service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    fn handle_install(&self, fields: &Fields, w: &mut Response) -> cpm_serve::Result<()> {
        let set = fields
            .set
            .ok_or_else(|| ServeError::Protocol("missing field \"set\"".into()))?;
        let ps: ParamSet =
            serde_json::from_str(set).map_err(|e| ServeError::Protocol(e.to_string()))?;
        let (current, applied) = self.service.install(ps)?;
        if applied {
            self.installs.inc();
        } else {
            self.installs_stale.inc();
        }
        w.str("fingerprint", &current.fingerprint);
        w.u64("param_version", current.param_version);
        w.bool("applied", applied);
        Ok(())
    }

    fn handle_info(&self, w: &mut Response) {
        w.str("node", &self.name);
        w.str("role", "fleet-node");
        w.u64("nodes", self.map.nodes.len() as u64);
        w.u64("replication", self.map.effective_replication() as u64);
        w.u64("vnodes", self.map.vnodes as u64);
    }

    /// The `fleet` section injected into JSON `stats` responses.
    fn fleet_section(&self) -> Value {
        let ranges: Vec<Value> = self
            .ring
            .ranges(&self.name)
            .into_iter()
            .map(|(start, end)| Value::Str(format!("{start:016x}..{end:016x}")))
            .collect();
        let peers: Vec<Value> = self
            .replicator
            .peer_lag()
            .into_iter()
            .map(|(name, pushed, acked)| {
                obj(vec![
                    ("name", Value::Str(name)),
                    ("pushed", Value::U64(pushed)),
                    ("acked", Value::U64(acked)),
                    ("lag", Value::U64(pushed.saturating_sub(acked))),
                ])
            })
            .collect();
        obj(vec![
            ("node", Value::Str(self.name.clone())),
            ("role", Value::Str("fleet-node".into())),
            (
                "replication",
                Value::U64(self.map.effective_replication() as u64),
            ),
            (
                "ownership",
                obj(vec![
                    ("share", Value::F64(self.ring.share(&self.name))),
                    ("arcs", Value::U64(ranges.len() as u64)),
                    ("ranges", Value::Seq(ranges)),
                ]),
            ),
            ("peers", Value::Seq(peers)),
        ])
    }

    /// Answers `stats` with the wrapped handler, then adds the fleet
    /// section to a JSON answer. Text-format stats need no help: the
    /// `cpm_fleet_*` metrics live in the same unified registry the
    /// exposition renders.
    fn handle_stats(&self, fields: &Fields, w: &mut Response) -> Answer {
        let answer = self.inner.answer(Verb::Stats, fields, w);
        let text = fields.format.and_then(serde_json::raw_str).as_deref() == Some("text");
        if matches!(answer, Answer::Done(_)) && !text {
            w.value("fleet", &self.fleet_section());
        }
        answer
    }

    /// Shard-aware `estimate`: owners estimate (and fan out), everyone
    /// else refuses with the owner list so the caller can re-aim.
    fn check_estimate_ownership(&self, config: Option<&str>) -> cpm_serve::Result<()> {
        let config =
            config.ok_or_else(|| ServeError::Protocol("estimate requires \"config\"".into()))?;
        let fp = cpm_serve::fingerprint_json(config)?;
        let owners = self.ring.owners(&fp, self.map.effective_replication());
        if owners.iter().any(|o| *o == self.name) {
            return Ok(());
        }
        self.writes_rejected.inc();
        Err(ServeError::Protocol(format!(
            "node {:?} does not own fingerprint {fp}; owners: {}",
            self.name,
            owners.join(", ")
        )))
    }
}

impl LineHandler for FleetNode {
    fn answer(&self, verb: Verb, fields: &Fields, w: &mut Response) -> Answer {
        match verb {
            Verb::Stats => self.handle_stats(fields, w),
            // Any member answers with the merged fleet view; `"raw":true`
            // keeps the single-node dump, which is what the fan-out itself
            // sends, so collection never recurses.
            Verb::Trace if fields.raw != Some("true") => {
                let peers = self.replicator.peers.iter().map(|p| (&p.info, &p.pool));
                merged_trace(&self.name, peers, fields, w);
                Answer::Done(false)
            }
            Verb::Estimate => match self.check_estimate_ownership(fields.config) {
                Ok(()) => self.inner.answer(verb, fields, w),
                Err(e) => Answer::Refused(e),
            },
            Verb::FleetInstall => self.handle_install(fields, w).into(),
            Verb::FleetInfo => {
                self.handle_info(w);
                Answer::Done(false)
            }
            _ => self.inner.answer(verb, fields, w),
        }
    }

    fn metrics(&self) -> &Metrics {
        self.service.metrics()
    }
}
