//! `fleet_mix`: three fleet nodes (replication 2) behind the router, reads
//! with cache misses and cross-shard batches, and writes beside the reads.
//! It uses the same serve and reactor layers as `serve_hot` differently, so
//! a read-path gain bought with slower publishes, or a relay gain that
//! breaks batch splitting, shows here and not there.

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use cpm_estimate::EstimateConfig;
use cpm_fleet::{serve_router, FleetMap, FleetNode, Router, RouterConfig, RouterHandle};
use cpm_reactor::ClientConfig;
use cpm_serve::service::compute;
use cpm_serve::{
    ClusterRef, Engine, LineHandler, ModelKind, Registry, Server, ServerHandle, Service,
    ServiceConfig,
};
use serde_json::Value;

use crate::gen::{Key, Mix, Req, Stream};
use crate::run::{peak_rss_mb, Ctx, Outcome, Samples};
use crate::serving;
use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::wire::{self, Checker, Client, Tenants};

const NODES: usize = 3;
const REPLICATION: usize = 2;
const TENANTS: usize = 32;
/// Message sizes per tenant: 8 keys each, so 32 x 32 hot keys in all.
const SIZES: usize = 4;
const DEPTH1_PER_SEGMENT: usize = 4_000;
const PIPELINED_PER_SEGMENT: usize = 20_000;
/// Pipelined reads between two writes.
const READS_PER_WRITE: usize = 2_000;
/// Identical requests sent both through the router and to the owner.
const COMPARED: usize = 2_000;

/// 86 % hot predict/select, 10 % predict of a never-seen size, 4 % batch.
const MIX: Mix = Mix {
    select: 200,
    plan: 0,
    miss: 100,
    batch: 40,
};

const ALL_MODELS: [ModelKind; 4] = [
    ModelKind::Lmo,
    ModelKind::Hockney,
    ModelKind::Loggp,
    ModelKind::Plogp,
];

/// The trace of the read that follows each write: `plan` is the one read
/// whose response names the `param_version` it was answered from.
fn plan_trace() -> cpm_workload::Trace {
    cpm_workload::gen::training_step(4, 32 * 1024, 2, 4e-9, 1e-3)
}

struct Fleet {
    client: Client,
    tenants: Tenants,
    /// Index of each tenant's leader in `nodes`.
    leaders: Vec<usize>,
    map: FleetMap,
    router: RouterHandle,
    nodes: Vec<ServerHandle>,
    dir: PathBuf,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Router first, so nothing relays into a node that is going away.
        self.router.shutdown();
        for node in &mut self.nodes {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(ctx: &Ctx, checker: &mut Checker) -> io::Result<Fleet> {
    let dir = ctx.dir("fleet_mix");
    // Bind every listener first: the shard map each handler embeds needs
    // all the addresses.
    let listeners = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()?;
    let map = FleetMap::new(&addrs, REPLICATION, cpm_fleet::DEFAULT_VNODES);
    let mut nodes = Vec::with_capacity(NODES);
    for (i, listener) in listeners.into_iter().enumerate() {
        let cfg = ServiceConfig {
            est: EstimateConfig {
                reps: 1,
                ..EstimateConfig::with_seed(ctx.seed + i as u64)
            },
            ..ServiceConfig::default()
        };
        let service =
            Arc::new(Service::open(dir.join(format!("node-{i}")), cfg).map_err(io::Error::other)?);
        let inner: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
        let node = FleetNode::new(
            Arc::clone(&service),
            inner,
            map.clone(),
            &format!("node-{i}"),
            ClientConfig::default(),
        )
        .map_err(io::Error::other)?;
        nodes.push(
            Server::from_listener(service, node, listener)
                .map_err(io::Error::other)?
                .engine(Engine::Reactor)
                .workers(1)
                .spawn(),
        );
    }
    let router = Router::new(map.clone(), RouterConfig::default()).map_err(io::Error::other)?;
    let router = serve_router(TcpListener::bind("127.0.0.1:0")?, router, 1, None)?;

    // One estimate per tenant through the router: it lands on the ring
    // owner, which pushes the set to its follower before answering.
    let fps = serving::estimate_over_wire(router.addr(), &serving::tenant_configs(TENANTS))?;
    let ring = map.ring();
    let leaders: Vec<usize> = fps
        .iter()
        .map(|fp| {
            let leader = ring.owners(fp, REPLICATION)[0];
            map.nodes
                .iter()
                .position(|n| n.name == leader)
                .expect("the ring names map members")
        })
        .collect();
    let params = fps
        .iter()
        .zip(&leaders)
        .map(|(fp, &leader)| {
            nodes[leader]
                .service()
                .param_set(&ClusterRef::Fingerprint(fp.clone()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(io::Error::other)?;
    let tenants = serving::tenants(ctx.seed, fps, params, SIZES, &plan_trace());
    let mut client = Client::connect(router.addr())?;
    serving::prime(&mut client, &tenants, checker)?;
    Ok(Fleet {
        client,
        tenants,
        leaders,
        map,
        router,
        nodes,
        dir,
    })
}

fn stream(ctx: &Ctx, tenants: &Tenants) -> Stream {
    Stream::new(ctx.seed, tenants.keys.clone(), MIX, false)
}

impl Fleet {
    fn leader(&self, tenant: usize) -> &Arc<Service> {
        self.nodes[self.leaders[tenant]].service()
    }

    /// The drift loop's write path, called where the drift handler calls
    /// it: `Service::republish` on the tenant's leader, which bumps the
    /// version, writes the registry files, invalidates the tenant's cached
    /// predictions and pushes the set to the follower before it returns.
    /// Then reads the tenant's plan through the router and checks that it
    /// was answered from the new version. Returns the publish's wall time
    /// in milliseconds and the cache entries it dropped.
    fn write(&mut self, tenant: usize, checker: &mut Checker) -> io::Result<(f64, usize)> {
        let ps = (*self.tenants.params[tenant]).clone();
        let t0 = Instant::now();
        let (published, dropped) = self
            .leader(tenant)
            .republish(ps, &ALL_MODELS)
            .map_err(io::Error::other)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let read = [Req::Plan { tenant }];
        let prepared = self.client.prepare(&self.tenants, &read, 1);
        let mut version = None;
        let mut off = Tracer::new(false);
        self.client.exchange(
            &self.tenants,
            &read,
            &prepared,
            1,
            checker,
            &mut off,
            |_, _, resp| {
                version = serde_json::from_str::<Value>(resp)
                    .ok()
                    .and_then(|v| v.get("param_version").and_then(Value::as_u64));
            },
        )?;
        checker.record(if version == Some(published.param_version) {
            Ok(())
        } else {
            Err(format!(
                "tenant {tenant}: republished v{}, the next read saw {version:?}",
                published.param_version
            ))
        });
        Ok((ms, dropped))
    }

    /// Prediction-cache hits and misses summed over the nodes.
    fn cache_counts(&self) -> (u64, u64) {
        self.nodes
            .iter()
            .map(|n| n.service().metrics().snapshot())
            .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let (mut fleet, setup_times) = ctx.setups(|| setup(ctx, &mut checker))?;
    let mut stream = stream(ctx, &fleet.tenants);
    let mut off = Tracer::new(false);
    let (mut samples, segments) = ctx.segments(|samples| {
        let reqs = stream.take(ctx.work(DEPTH1_PER_SEGMENT));
        let d1 = serving::depth1(
            &mut fleet.client,
            &fleet.tenants,
            &reqs,
            &mut checker,
            &mut off,
        )?;
        let (mut read_wall, mut reads, mut writes) = (0.0, 0, Vec::new());
        while reads < ctx.work(PIPELINED_PER_SEGMENT) {
            let reqs = stream.take(ctx.work(READS_PER_WRITE));
            read_wall +=
                serving::pipelined(&mut fleet.client, &fleet.tenants, &reqs, &mut checker)?;
            reads += reqs.len();
            let tenant = reqs[reqs.len() - 1].tenant();
            writes.push(fleet.write(tenant, &mut checker)?.0);
        }
        samples.push("latency_p50_us", d1.p50_us());
        samples.push("latency_tail_us", d1.p99_us());
        samples.push("throughput_ops", reads as f64 / read_wall);
        // The cross-shard batch, not the write: a publish renames over its
        // latest file, which ext4 answers with real disk writes, and its
        // median moved 45 % between runs of the same code.
        samples.push("heavy_op_ms", d1.heavy_p50_ms());
        samples.push("harness.write_p50_ms", median(&writes));
        Ok(())
    })?;
    samples.extend("setup_s", &setup_times);
    samples.push("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        workload: "fleet_mix",
        checker,
        exact: true,
        segments,
        metrics: samples.summaries(),
    })
}

/// The median of a histogram family in `stats format:text` expositions,
/// merged over every series given: the upper bound of the bucket that holds
/// the median observation (0 when nothing was observed). A series lists
/// cumulative counts of its non-empty buckets only, so each is turned back
/// into per-bucket counts before merging.
fn exposition_p50(texts: &[String], family: &str) -> f64 {
    let prefix = format!("{family}_bucket{{");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for text in texts {
        let mut prev = 0;
        for line in text.lines().filter(|l| l.starts_with(&prefix)) {
            let le = line
                .split("le=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .and_then(|v| v.parse::<f64>().ok());
            let cum = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
            let (Some(le), Some(cum)) = (le, cum) else {
                continue;
            };
            // A smaller cumulative count starts the family's next series.
            let count = if cum >= prev { cum - prev } else { cum };
            prev = cum;
            if le.is_finite() {
                match buckets.iter_mut().find(|(b, _)| *b == le) {
                    Some(slot) => slot.1 += count,
                    None => buckets.push((le, count)),
                }
            }
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    let mut seen = 0;
    for (le, count) in buckets {
        seen += count;
        if seen * 2 >= total {
            return le;
        }
    }
    0.0
}

fn stats_text(addr: std::net::SocketAddr) -> io::Result<String> {
    let v = wire::request(addr, "{\"verb\":\"stats\",\"format\":\"text\"}")?;
    Ok(v.get("text")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string())
}

/// Hot predicts only: requests the owner answers alone, so the same one
/// can go through the router or straight to the owner.
fn hot_predicts(stream: &mut Stream, n: usize) -> Vec<Req> {
    std::iter::repeat_with(|| stream.next_req())
        .filter(|r| matches!(r, Req::Predict { key, .. } if key.m < 1 << 20))
        .take(n)
        .collect()
}

pub fn trace(ctx: &Ctx, tracer: &mut Tracer) -> io::Result<Outcome> {
    let mut checker = Checker::default();
    let mut fleet = setup(ctx, &mut checker)?;
    let mut stream = stream(ctx, &fleet.tenants);
    let mut off = Tracer::new(false);
    let mut s = Samples::default();
    let (hits0, misses0) = fleet.cache_counts();

    // The workload's own depth-1 phase: warm-up, untraced, traced.
    let n = ctx.work(DEPTH1_PER_SEGMENT);
    let mut phase = |tracer: &mut Tracer| {
        let reqs = stream.take(n);
        serving::depth1(
            &mut fleet.client,
            &fleet.tenants,
            &reqs,
            &mut checker,
            tracer,
        )
    };
    phase(&mut off)?;
    let plain = phase(&mut off)?;
    let traced = phase(tracer)?;
    let p50 = plain.p50_us();
    s.push("harness.latency_p50_us", p50);
    s.push("harness.latency_p99_us", plain.p99_us());
    s.push(
        "harness.trace_overhead_pct",
        (traced.p50_us() - p50) / p50 * 100.0,
    );
    let (hits, misses) = fleet.cache_counts();
    let cache = (hits - hits0) as f64 / ((hits - hits0) + (misses - misses0)).max(1) as f64;
    s.push("serve.cache_hit_ratio", cache);

    // Relay: identical hot predicts through the router and straight to
    // each one's owner, a round trip of each in turn.
    let reqs = hot_predicts(&mut stream, ctx.work(COMPARED));
    let mut direct: Vec<Client> = fleet
        .nodes
        .iter()
        .map(|n| Client::connect(n.addr()))
        .collect::<io::Result<_>>()?;
    let (mut routed_ns, mut direct_ns) = (Vec::new(), Vec::new());
    for req in &reqs {
        let one = std::slice::from_ref(req);
        let via = tracer.enter("fleet.routed", 0);
        routed_ns.extend(
            serving::depth1(
                &mut fleet.client,
                &fleet.tenants,
                one,
                &mut checker,
                &mut off,
            )?
            .all,
        );
        tracer.exit(via);
        let owner = &mut direct[fleet.leaders[req.tenant()]];
        let straight = tracer.enter("fleet.direct", 0);
        direct_ns.extend(serving::depth1(owner, &fleet.tenants, one, &mut checker, &mut off)?.all);
        tracer.exit(straight);
    }
    routed_ns.sort_unstable();
    direct_ns.sort_unstable();
    let direct_p50 = percentile(&direct_ns, 0.5) as f64 / 1e3;
    s.push("fleet.direct_p50_us", direct_p50);
    s.push(
        "fleet.relay_overhead_us",
        percentile(&routed_ns, 0.5) as f64 / 1e3 - direct_p50,
    );

    // Batch splitting: 8 predicts of one tenant against 8 predicts of 8
    // tenants spread over every leader.
    let spread: Vec<usize> = (0..8)
        .map(|i| {
            (0..TENANTS)
                .filter(|t| fleet.leaders[*t] == i % NODES)
                .nth(i / NODES)
                .unwrap_or(i)
        })
        .collect();
    let batch = |tenant_of: &dyn Fn(usize) -> usize, round: usize| {
        Req::Batch(
            (0..8)
                .map(|i| {
                    let tenant = tenant_of(i);
                    let keys = &fleet.tenants.keys[tenant];
                    (tenant, keys[(round + i) % keys.len()])
                })
                .collect::<Vec<(usize, Key)>>(),
        )
    };
    let (mut one_shard, mut cross_shard) = (Vec::new(), Vec::new());
    for round in 0..ctx.work(300) {
        for (name, req, into) in [
            (
                "fleet.batch.one_shard",
                batch(&|_| spread[0], round),
                &mut one_shard,
            ),
            (
                "fleet.batch.cross_shard",
                batch(&|i| spread[i], round),
                &mut cross_shard,
            ),
        ] {
            let span = tracer.enter(name, round as u64);
            let reqs = [req];
            into.extend(
                serving::depth1(
                    &mut fleet.client,
                    &fleet.tenants,
                    &reqs,
                    &mut checker,
                    &mut off,
                )?
                .all,
            );
            tracer.exit(span);
        }
    }
    one_shard.sort_unstable();
    cross_shard.sort_unstable();
    s.push(
        "fleet.batch_split_us",
        (percentile(&cross_shard, 0.5) as f64 - percentile(&one_shard, 0.5) as f64) / 1e3,
    );

    // The miss path in process, on a leader: a never-seen size through
    // `Service::predict`, and the model evaluation alone.
    for (i, req) in hot_predicts(&mut stream, ctx.work(2_000))
        .into_iter()
        .enumerate()
    {
        let Req::Predict { tenant, key } = req else {
            unreachable!("hot_predicts yields predicts");
        };
        let cluster = ClusterRef::Fingerprint(fleet.tenants.fps[tenant].clone());
        let query = wire::query_of(&Key {
            m: (2 << 20) + i as u64,
            ..key
        });
        let miss = tracer.enter("serve.service_miss", i as u64);
        let served = fleet.leader(tenant).predict(&cluster, &query);
        tracer.exit(miss);
        let model = tracer.enter("models.compute", i as u64);
        let computed = compute(&fleet.tenants.params[tenant], &query);
        tracer.exit(model);
        checker.record(match (served, computed) {
            (Ok(p), Ok(want)) if !p.cached && p.seconds.to_bits() == want.to_bits() => Ok(()),
            (served, _) => Err(format!("miss {i}: {served:?} is not a computed answer")),
        });
    }
    s.push(
        "serve.service_miss_ns",
        tracer.median_ns("serve.service_miss"),
    );
    s.push("models.compute_ns", tracer.median_ns("models.compute"));

    // Writes, and the registry publish inside them on a registry of its own.
    let registry = Registry::open(ctx.dir("fleet_mix_registry")).map_err(io::Error::other)?;
    let (mut write_ms, mut dropped) = (Vec::new(), Vec::new());
    for i in 0..ctx.work(40) {
        let tenant = stream.next_req().tenant();
        let span = tracer.enter("serve.republish", i as u64);
        let (ms, n) = fleet.write(tenant, &mut checker)?;
        tracer.exit(span);
        write_ms.push(ms);
        dropped.push(n as f64);
        let ps = (*fleet.tenants.params[tenant]).clone();
        let span = tracer.enter("serve.registry_publish", i as u64);
        registry.publish(ps).map_err(io::Error::other)?;
        tracer.exit(span);
    }
    s.push("harness.write_p50_ms", median(&write_ms));
    s.push("serve.invalidate_dropped", median(&dropped));
    s.push(
        "serve.registry_publish_us",
        tracer.median_ns("serve.registry_publish") / 1e3,
    );

    // The program's own view of the relay and of replication.
    let router_text = [stats_text(fleet.router.addr())?];
    s.push(
        "fleet.forward_ns_p50",
        exposition_p50(&router_text, "cpm_fleet_router_forward_ns"),
    );
    let node_texts = fleet
        .nodes
        .iter()
        .map(|n| stats_text(n.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    s.push(
        "fleet.push_us_p50",
        exposition_p50(&node_texts, "cpm_fleet_push_ns") / 1e3,
    );
    let router_stats = wire::request(fleet.router.addr(), "{\"verb\":\"stats\"}")?;
    let counter = |k: &str| router_stats.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    let (retries, failures, stale) = (
        counter("retries"),
        counter("failures"),
        counter("stale_reads"),
    );
    s.push("fleet.retries", retries);
    s.push("fleet.failures", failures);
    s.push("fleet.stale_reads", stale);
    crate::micro::fleet_rows(ctx, &fleet.map.ring(), &fleet.tenants.fps, &mut s);

    // Misses, invalidation and relays are this workload's point; a fleet
    // that is all hits, or that retried or failed with every node up, is
    // not the one described.
    let exact = cache < 0.95 && retries + failures + stale == 0.0;
    if !exact {
        checker.reasons.push(format!(
            "fleet_mix trace: cache hit ratio {cache}, {retries} retries, {failures} failures, \
             {stale} stale reads"
        ));
    }
    let _ = std::fs::remove_dir_all(ctx.scratch.join("fleet_mix_registry"));
    Ok(Outcome {
        workload: "fleet_mix",
        checker,
        exact,
        segments: 1,
        metrics: s.summaries(),
    })
}

#[cfg(test)]
mod tests {
    use super::exposition_p50;

    #[test]
    fn exposition_median_is_the_bucket_holding_the_middle_observation() {
        // Series a: 1 in <=100, 3 in <=200, 6 in <=800; +Inf repeats the total.
        let a = "# TYPE x histogram\n\
                 x_bucket{le=\"100\"} 1\nx_bucket{le=\"200\"} 4\nx_bucket{le=\"800\"} 10\n\
                 x_bucket{le=\"+Inf\"} 10\nx_sum 1\nx_count 10\n"
            .to_string();
        assert_eq!(exposition_p50(std::slice::from_ref(&a), "x"), 800.0);
        // Series b, with other buckets: 12 in <=100, 2 in <=400. Merged: 13,
        // 3, 2, 6 of 24, so the 12th observation is in the first bucket.
        let b = "x_bucket{peer=\"n\",le=\"100\"} 12\nx_bucket{peer=\"n\",le=\"400\"} 14\n\
                 x_bucket{peer=\"n\",le=\"+Inf\"} 14\n"
            .to_string();
        assert_eq!(exposition_p50(&[a, b], "x"), 100.0);
        assert_eq!(exposition_p50(&[], "x"), 0.0);
    }
}
