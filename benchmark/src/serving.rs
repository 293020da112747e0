//! What the two serving workloads share: tenant set-up over the wire, cache
//! priming, and the depth-1 and pipelined phases of a segment.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_serve::ParamSet;
use cpm_workload::{PlanModel, Trace};
use serde_json::Value;

use crate::gen::{self, Req, Rng};
use crate::span::Tracer;
use crate::stats::{percentile, supported_tail};
use crate::wire::{self, Checker, Client, Tenants};

/// Requests kept in flight in the pipelined phase.
pub const DEPTH: usize = 8;

/// The tenants' clusters: 4-node ideal clusters. They are the same in every
/// run; the run's seed picks what is asked about them. A `plan` response
/// spells out the critical path, whose length follows the cluster's
/// parameters, so tenants drawn from the seed made `plan` round trips 6 %
/// apart between seeds with nothing else changed.
pub fn tenant_configs(n: usize) -> Vec<ClusterConfig> {
    (0..n as u64)
        .map(|i| ClusterConfig::ideal(ClusterSpec::homogeneous(4), 2_009_000 + i))
        .collect()
}

/// Estimates every config through `addr` (one `estimate` round trip each)
/// and returns the fingerprints the server reports.
pub fn estimate_over_wire(addr: SocketAddr, configs: &[ClusterConfig]) -> io::Result<Vec<String>> {
    let mut conn = wire::Conn::connect(addr, cpm_reactor::Framing::JsonLines)?;
    configs
        .iter()
        .map(|config| {
            let line = format!(
                "{{\"verb\":\"estimate\",\"config\":{}}}",
                serde_json::to_string(config).expect("config serializes")
            );
            let resp = conn.call(&line)?;
            let v: Value = serde_json::from_str(&resp)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match (v.get("ok"), v.get("fingerprint").and_then(Value::as_str)) {
                (Some(Value::Bool(true)), Some(fp)) => Ok(fp.to_string()),
                _ => Err(io::Error::other(format!("estimate failed: {resp}"))),
            }
        })
        .collect()
}

/// Builds the request-side view of the tenants: key spaces from the seed,
/// the `plan` trace, and the oracles.
pub fn tenants(
    seed: u64,
    fps: Vec<String>,
    params: Vec<Arc<ParamSet>>,
    sizes: usize,
    plan_trace: &Trace,
) -> Tenants {
    let mut rng = Rng::new(seed ^ 0x6b65_7973);
    let keys = fps
        .iter()
        .map(|_| gen::key_space(&mut rng, sizes))
        .collect();
    let plan_makespans = params
        .iter()
        .map(|ps| {
            cpm_workload::plan(plan_trace, &PlanModel::Lmo(ps.lmo.clone()))
                .expect("oracle plan")
                .makespan
        })
        .collect();
    let trace_json = serde_json::to_string(&plan_trace.to_value()).expect("trace serializes");
    Tenants {
        fps,
        params,
        keys,
        plan_tail: format!(",\"trace\":{trace_json}"),
        plan_makespans,
    }
}

/// Asks for every hot key and every tenant's plan once, so the measured
/// phases start with the caches full.
pub fn prime(client: &mut Client, tenants: &Tenants, checker: &mut Checker) -> io::Result<()> {
    let mut reqs = Vec::new();
    for (tenant, keys) in tenants.keys.iter().enumerate() {
        reqs.extend(keys.iter().map(|&key| Req::Predict { tenant, key }));
        reqs.push(Req::Plan { tenant });
    }
    let prepared = client.prepare(tenants, &reqs, DEPTH);
    let mut off = Tracer::new(false);
    client.exchange(
        tenants,
        &reqs,
        &prepared,
        DEPTH,
        checker,
        &mut off,
        |_, _, _| {},
    )
}

/// Latencies of one depth-1 phase, nanoseconds, sorted.
pub struct Depth1 {
    pub all: Vec<u64>,
    /// The round trips of the mix's heavy requests among them: `plan` and
    /// `batch`, the largest requests and responses.
    pub heavy: Vec<u64>,
}

impl Depth1 {
    pub fn p50_us(&self) -> f64 {
        percentile(&self.all, 0.50) as f64 / 1e3
    }

    /// p99, or the highest percentile below it that still has ten samples
    /// beyond it when the phase was short.
    pub fn heavy_p50_ms(&self) -> f64 {
        percentile(&self.heavy, 0.50) as f64 / 1e6
    }

    pub fn p99_us(&self) -> f64 {
        let p = supported_tail(self.all.len()).unwrap_or(0.5).min(0.99);
        percentile(&self.all, p) as f64 / 1e3
    }
}

/// `reqs` as closed-loop round trips, one request in flight.
pub fn depth1(
    client: &mut Client,
    tenants: &Tenants,
    reqs: &[Req],
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> io::Result<Depth1> {
    let prepared = client.prepare(tenants, reqs, 1);
    let (mut all, mut heavy) = (Vec::with_capacity(reqs.len()), Vec::new());
    client.exchange(tenants, reqs, &prepared, 1, checker, tracer, |i, ns, _| {
        all.push(ns);
        if matches!(reqs[i], Req::Plan { .. } | Req::Batch(_)) {
            heavy.push(ns);
        }
    })?;
    all.sort_unstable();
    heavy.sort_unstable();
    Ok(Depth1 { all, heavy })
}

/// `reqs` pipelined [`DEPTH`] deep; returns the wall time in seconds.
pub fn pipelined(
    client: &mut Client,
    tenants: &Tenants,
    reqs: &[Req],
    checker: &mut Checker,
) -> io::Result<f64> {
    let prepared = client.prepare(tenants, reqs, DEPTH);
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    client.exchange(
        tenants,
        reqs,
        &prepared,
        DEPTH,
        checker,
        &mut off,
        |_, _, _| {},
    )?;
    Ok(t0.elapsed().as_secs_f64())
}
