//! Fleet behaviour over real sockets: replication fan-out, shard-aware
//! writes, the stats fleet section, router forwarding/batching, the
//! error-id-echo contract on the forwarding path, and the Prometheus
//! exposition grammar for the `cpm_fleet_*` metrics.

mod common;

use std::net::TcpListener;
use std::time::Duration;

use common::*;
use cpm_fleet::{serve_router, FleetMap, Router, RouterConfig};
use cpm_reactor::ClientConfig;
use serde_json::Value;

fn estimate_line(config_json: &str) -> String {
    format!("{{\"verb\":\"estimate\",\"config\":{config_json}}}")
}

fn predict_line(fp: &str, id: &str) -> String {
    format!(
        "{{\"verb\":\"predict\",\"id\":{id:?},\"fingerprint\":{fp:?},\
         \"model\":\"lmo\",\"collective\":\"gather\",\"algorithm\":\"linear\",\"m\":4096}}"
    )
}

#[test]
fn estimate_on_leader_replicates_to_follower() {
    let tmp = temp_dir("replicate");
    let fleet = start_fleet(&tmp, 2, 2);
    let (config, fp) = tenant(7);
    let ring = fleet.map.ring();
    let leader = ring.primary(&fp).unwrap().to_string();
    let leader_idx = fleet.index_of(&leader);
    let follower_idx = 1 - leader_idx;

    let resp = request(
        fleet.addr(leader_idx),
        &estimate_line(&config_json(&config)),
    );
    assert!(is_ok(&resp), "estimate failed: {resp:?}");

    // The follower can serve the fingerprint without any config: the
    // leader's publish hook pushed it the versioned set synchronously.
    let resp = request(fleet.addr(follower_idx), &predict_line(&fp, "p1"));
    assert!(is_ok(&resp), "follower predict failed: {resp:?}");
    assert_eq!(resp.get("id"), Some(&Value::Str("p1".into())));

    // The leader's stats fleet section shows one pushed, one acked.
    let stats = request(fleet.addr(leader_idx), "{\"verb\":\"stats\"}");
    let fleet_section = stats.get("fleet").expect("fleet section");
    assert_eq!(
        fleet_section.get("role"),
        Some(&Value::Str("fleet-node".into()))
    );
    let Some(Value::Seq(peers)) = fleet_section.get("peers") else {
        panic!("no peers in {fleet_section:?}");
    };
    assert_eq!(peers.len(), 1);
    assert_eq!(peers[0].get("pushed"), Some(&Value::U64(1)));
    assert_eq!(peers[0].get("acked"), Some(&Value::U64(1)));
    assert_eq!(peers[0].get("lag"), Some(&Value::U64(0)));
    let ownership = fleet_section.get("ownership").expect("ownership");
    assert!(matches!(ownership.get("ranges"), Some(Value::Seq(r)) if !r.is_empty()));

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn estimate_refused_on_non_owner_with_id_echo() {
    let tmp = temp_dir("shard-aware");
    // Replication 1: exactly one owner per tenant, so a non-owner
    // exists to aim at.
    let fleet = start_fleet(&tmp, 3, 1);
    let ring = fleet.map.ring();
    let (config, fp) = tenant(23);
    let owner = ring.primary(&fp).unwrap().to_string();
    let non_owner_idx = (0..3).find(|i| fleet.map.nodes[*i].name != owner).unwrap();

    let line = format!(
        "{{\"verb\":\"estimate\",\"id\":\"w9\",\"config\":{}}}",
        config_json(&config)
    );
    let resp = request(fleet.addr(non_owner_idx), &line);
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(resp.get("id"), Some(&Value::Str("w9".into())));
    let err = resp.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(err.contains("does not own"), "unexpected error: {err}");
    assert!(err.contains(&fp), "error names the fingerprint: {err}");
    assert!(err.contains(&owner), "error names the owners: {err}");

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn reinstall_of_same_version_is_stale() {
    let tmp = temp_dir("stale-install");
    let fleet = start_fleet(&tmp, 2, 2);
    let (config, fp) = tenant(41);
    let ring = fleet.map.ring();
    let leader_idx = fleet.index_of(ring.primary(&fp).unwrap());
    let follower_idx = 1 - leader_idx;

    assert!(is_ok(&request(
        fleet.addr(leader_idx),
        &estimate_line(&config_json(&config))
    )));

    // Replay the same versioned set at the follower: archived, not
    // applied, and the response says so.
    let ps = fleet.services[leader_idx]
        .param_set(&cpm_serve::ClusterRef::Fingerprint(fp.clone()))
        .expect("leader holds the set");
    let set_json = serde_json::to_string(&*ps).unwrap();
    let resp = request(
        fleet.addr(follower_idx),
        &format!("{{\"verb\":\"fleet-install\",\"set\":{set_json}}}"),
    );
    assert!(is_ok(&resp), "install failed: {resp:?}");
    assert_eq!(resp.get("applied"), Some(&Value::Bool(false)));
    assert_eq!(
        resp.get("param_version"),
        Some(&Value::U64(ps.param_version))
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn router_forwards_batches_and_reports() {
    let tmp = temp_dir("router");
    let fleet = start_fleet(&tmp, 3, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = Router::new(fleet.map.clone(), RouterConfig::default()).unwrap();
    let mut handle = serve_router(listener, router, 1, None).unwrap();

    let tenants: Vec<_> = (0..4).map(|s| tenant(60 + s)).collect();
    for (config, _) in &tenants {
        let resp = request(handle.addr(), &estimate_line(&config_json(config)));
        assert!(is_ok(&resp), "routed estimate failed: {resp:?}");
    }
    for (i, (_, fp)) in tenants.iter().enumerate() {
        let resp = request(handle.addr(), &predict_line(fp, &format!("q{i}")));
        assert!(is_ok(&resp), "routed predict failed: {resp:?}");
        assert_eq!(resp.get("id"), Some(&Value::Str(format!("q{i}"))));
        // Leader-served: no stale flag.
        assert!(resp.get("stale").is_none(), "unexpected stale: {resp:?}");
    }

    // A batch spanning tenants on different shards comes back merged in
    // request order with per-item ids echoed.
    let items: Vec<String> = tenants
        .iter()
        .enumerate()
        .map(|(i, (_, fp))| {
            format!(
                "{{\"verb\":\"predict\",\"id\":\"b{i}\",\"fingerprint\":{fp:?},\
                 \"model\":\"lmo\",\"collective\":\"gather\",\"algorithm\":\"linear\",\"m\":1024}}"
            )
        })
        .collect();
    let batch = format!(
        "{{\"verb\":\"batch\",\"id\":\"B\",\"requests\":[{}]}}",
        items.join(",")
    );
    let resp = request(handle.addr(), &batch);
    assert!(is_ok(&resp), "batch failed: {resp:?}");
    assert_eq!(resp.get("id"), Some(&Value::Str("B".into())));
    let Some(Value::Seq(responses)) = resp.get("responses") else {
        panic!("no responses in {resp:?}");
    };
    assert_eq!(responses.len(), tenants.len());
    for (i, r) in responses.iter().enumerate() {
        assert!(is_ok(r), "batch item {i} failed: {r:?}");
        assert_eq!(r.get("id"), Some(&Value::Str(format!("b{i}"))));
    }

    // Router stats: role, per-upstream forwards.
    let stats = request(handle.addr(), "{\"verb\":\"stats\"}");
    assert_eq!(stats.get("role"), Some(&Value::Str("router".into())));
    let Some(Value::Seq(upstreams)) = stats.get("upstreams") else {
        panic!("no upstreams in {stats:?}");
    };
    assert_eq!(upstreams.len(), 3);
    let forwarded: u64 = upstreams
        .iter()
        .filter_map(|u| u.get("forwards").and_then(Value::as_u64))
        .sum();
    assert!(forwarded >= 9, "expected forwards on upstreams: {stats:?}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn router_upstream_failure_echoes_request_id() {
    // A fleet map whose only node is a dead address: bind a listener to
    // reserve a port, then drop it.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let map = FleetMap::new(&[dead_addr], 1, 16);
    let cfg = RouterConfig {
        client: ClientConfig {
            connect_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        },
        attempts_per_upstream: 1,
        backoff: Duration::from_millis(1),
        ..RouterConfig::default()
    };
    let router = Router::new(map, cfg).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut handle = serve_router(listener, router, 1, None).unwrap();

    // Single request: the synthesized shard-unavailable error must echo
    // the client's id (the error-id-echo contract on the forwarding
    // path).
    let resp = request(handle.addr(), &predict_line("deadbeef", "req-77"));
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(resp.get("id"), Some(&Value::Str("req-77".into())));
    let err = resp.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(err.contains("shard unavailable"), "unexpected error: {err}");

    // Batch: every per-item synthesized error echoes that item's id,
    // and the envelope echoes the batch id.
    let batch = "{\"verb\":\"batch\",\"id\":\"BB\",\"requests\":[\
        {\"verb\":\"predict\",\"id\":\"x1\",\"fingerprint\":\"deadbeef\",\
         \"model\":\"lmo\",\"collective\":\"gather\",\"algorithm\":\"linear\",\"m\":1024},\
        {\"verb\":\"predict\",\"id\":\"x2\",\"fingerprint\":\"deadbeef\",\
         \"model\":\"lmo\",\"collective\":\"gather\",\"algorithm\":\"linear\",\"m\":2048}]}";
    let resp = request(handle.addr(), batch);
    assert_eq!(resp.get("id"), Some(&Value::Str("BB".into())));
    let Some(Value::Seq(responses)) = resp.get("responses") else {
        panic!("no responses in {resp:?}");
    };
    assert_eq!(responses.len(), 2);
    for (r, want) in responses.iter().zip(["x1", "x2"]) {
        assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(r.get("id"), Some(&Value::Str(want.into())));
    }

    handle.shutdown();
}

/// Events in a merged fleet dump carrying `args.trace == trace_id`.
fn events_for_trace<'a>(dump: &'a Value, trace_id: &str) -> Vec<&'a Value> {
    let Some(Value::Seq(events)) = dump.get("trace").and_then(|t| t.get("traceEvents")) else {
        panic!("no traceEvents in {dump:?}");
    };
    events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_str)
                == Some(trace_id)
        })
        .collect()
}

fn event_names(events: &[&Value]) -> Vec<String> {
    events
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

/// `args.<key>` of every event named `name`.
fn arg_of_named(events: &[&Value], name: &str, key: &str) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some(name))
        .filter_map(|e| e.get("args")?.get(key)?.as_str().map(str::to_string))
        .collect()
}

/// Regression for the single-node `trace` verb on fleet members: before
/// observability v2 a `trace` (with or without `last`) sent to any node
/// of an active fleet dumped only that node's flight recorder, so the
/// replication half of a traced request was invisible. Any member now
/// routes the verb through the fleet collector and answers with every
/// node's records merged into one Chrome trace.
#[test]
fn member_trace_merges_the_fleet_flight_recorders() {
    let tmp = temp_dir("fleet-trace");
    let fleet = start_fleet(&tmp, 2, 2);
    let (config, fp) = tenant(91);
    let ring = fleet.map.ring();
    let leader_idx = fleet.index_of(ring.primary(&fp).unwrap());
    let follower_idx = 1 - leader_idx;

    // A traced estimate: the client roots the trace, the leader joins
    // it, and the replication push carries it to the follower.
    let trace_id = "00000000feedf00d";
    let line = format!(
        "{{\"verb\":\"estimate\",\"id\":\"tr-1\",\
         \"ctx\":{{\"trace\":\"{trace_id}\",\"parent\":\"0000000000000001\"}},\
         \"config\":{}}}",
        config_json(&config)
    );
    assert!(is_ok(&request(fleet.addr(leader_idx), &line)));

    // Ask the FOLLOWER (not the leader that served the request): any
    // member must return the fleet-wide merge.
    let dump = request(
        fleet.addr(follower_idx),
        "{\"verb\":\"trace\",\"id\":\"t-dump\"}",
    );
    assert!(is_ok(&dump), "{dump:?}");
    assert_eq!(dump.get("id"), Some(&Value::Str("t-dump".into())));
    assert_eq!(dump.get("nodes"), Some(&Value::U64(2)));
    assert_eq!(dump.get("missing"), Some(&Value::Seq(Vec::new())));
    assert!(dump.get("records").and_then(Value::as_u64).unwrap() > 0);

    // One process track per fleet member.
    let Some(Value::Seq(events)) = dump.get("trace").and_then(|t| t.get("traceEvents")) else {
        panic!("no traceEvents in {dump:?}");
    };
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    for i in [leader_idx, follower_idx] {
        let name = fleet.map.nodes[i].name.as_str();
        assert!(tracks.contains(&name), "no track for {name}: {tracks:?}");
    }

    // The client's trace id threads through the serving request, the
    // replication push, and the follower's install: the install-side
    // serve.request span's wire parent is a fleet.replicate push span.
    let traced = events_for_trace(&dump, trace_id);
    let names = event_names(&traced);
    assert!(names.contains(&"serve.request".to_string()), "{names:?}");
    assert!(names.contains(&"fleet.replicate".to_string()), "{names:?}");
    let push_spans = arg_of_named(&traced, "fleet.replicate", "span");
    assert!(!push_spans.is_empty(), "replicate span ids missing");
    let install_parents = arg_of_named(&traced, "serve.request", "parent");
    assert!(
        install_parents.iter().any(|p| push_spans.contains(p)),
        "no serve.request span is parented by a replication push:\n\
         parents {install_parents:?} vs pushes {push_spans:?}"
    );

    // `"raw":true` keeps the pre-v2 single-node machine-readable dump
    // (it is also what the collector itself fans out, so merged
    // collection never recurses).
    let raw = request(
        fleet.addr(follower_idx),
        "{\"verb\":\"trace\",\"raw\":true}",
    );
    assert!(is_ok(&raw), "{raw:?}");
    assert!(matches!(raw.get("records"), Some(Value::Seq(_))));
    assert!(raw.get("nodes").is_none(), "raw dump must stay single-node");

    let _ = std::fs::remove_dir_all(&tmp);
}

/// The acceptance path: one traced request through a routed fleet, then
/// one `trace` to the router, yields a single merged Chrome trace whose
/// router, leader, and follower spans all carry the same trace id.
#[test]
fn routed_trace_links_router_leader_and_follower_spans() {
    let tmp = temp_dir("routed-trace");
    let fleet = start_fleet(&tmp, 3, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = Router::new(fleet.map.clone(), RouterConfig::default()).unwrap();
    let mut handle = serve_router(listener, router, 1, None).unwrap();

    let (config, _) = tenant(97);
    let trace_id = "00000000deadbeef";
    let line = format!(
        "{{\"verb\":\"estimate\",\"id\":\"rt-1\",\
         \"ctx\":{{\"trace\":\"{trace_id}\",\"parent\":\"0000000000000002\"}},\
         \"config\":{}}}",
        config_json(&config)
    );
    assert!(is_ok(&request(handle.addr(), &line)));

    let dump = request(handle.addr(), "{\"verb\":\"trace\"}");
    assert!(is_ok(&dump), "{dump:?}");
    assert_eq!(dump.get("nodes"), Some(&Value::U64(4)), "{dump:?}");
    assert_eq!(dump.get("missing"), Some(&Value::Seq(Vec::new())));

    // Router hop, forward hop, member serving, and the replication push
    // all share the client's trace id in the one merged dump.
    let names = event_names(&events_for_trace(&dump, trace_id));
    for needle in [
        "router.request",
        "router.forward",
        "serve.request",
        "fleet.replicate",
    ] {
        assert!(
            names.contains(&needle.to_string()),
            "missing {needle} among traced spans: {names:?}"
        );
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn stats_text_is_a_valid_prometheus_exposition_covering_fleet() {
    let tmp = temp_dir("exposition");
    let fleet = start_fleet(&tmp, 2, 2);
    let (config, fp) = tenant(83);
    let ring = fleet.map.ring();
    let leader_idx = fleet.index_of(ring.primary(&fp).unwrap());
    assert!(is_ok(&request(
        fleet.addr(leader_idx),
        &estimate_line(&config_json(&config))
    )));

    // Node exposition: the unified registry now carries cpm_fleet_*
    // series alongside cpm_serve_*, and the grammar still validates.
    let stats = request(
        fleet.addr(leader_idx),
        "{\"verb\":\"stats\",\"format\":\"text\"}",
    );
    let text = stats.get("text").and_then(Value::as_str).expect("text");
    assert!(text.contains("cpm_serve_"), "serve series missing");
    assert!(
        text.contains("cpm_fleet_replication_pushes"),
        "fleet series missing:\n{text}"
    );
    assert!(
        text.contains("peer=\"node-"),
        "per-peer labels missing:\n{text}"
    );
    let samples = cpm_obs::validate_exposition(text)
        .unwrap_or_else(|e| panic!("node exposition invalid: {e}"));
    assert!(samples > 0);
    // The estimate above pushed to one peer, so the replication-push
    // latency histogram renders (zero-count histograms are skipped).
    assert!(
        text.contains("cpm_fleet_push_ns_bucket"),
        "push latency histogram missing:\n{text}"
    );
    assert!(
        text.contains("cpm_fleet_push_ns_count"),
        "push latency count missing:\n{text}"
    );

    // Router exposition: its own registry validates too.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = Router::new(fleet.map.clone(), RouterConfig::default()).unwrap();
    let mut handle = serve_router(listener, router, 1, None).unwrap();
    assert!(is_ok(&request(handle.addr(), &predict_line(&fp, "s1"))));
    let stats = request(handle.addr(), "{\"verb\":\"stats\",\"format\":\"text\"}");
    let text = stats.get("text").and_then(Value::as_str).expect("text");
    assert!(
        text.contains("cpm_fleet_router_forwards"),
        "router series missing:\n{text}"
    );
    let samples = cpm_obs::validate_exposition(text)
        .unwrap_or_else(|e| panic!("router exposition invalid: {e}"));
    assert!(samples > 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A node whose answer cannot be written as JSON (a stored parameter
/// that reads back as infinity) still names the request in its
/// `"serialization failure"` fallback — relayed reads pipeline, so an
/// id-less line would be unmatchable — and the node's own `estimate`
/// gate and fleet verbs echo ids through the same writer.
#[test]
fn member_fallbacks_and_refusals_echo_the_client_id() {
    use cpm_fleet::FleetNode;
    use cpm_serve::{LineHandler, Service};
    use std::sync::Arc;

    let tmp = temp_dir("nonfinite");
    let map = FleetMap::new(&["127.0.0.1:1".to_string()], 1, 64);
    let member = |service: Arc<Service>| {
        let inner: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
        FleetNode::new(
            service,
            inner,
            map.clone(),
            "node-0",
            ClientConfig::default(),
        )
        .unwrap()
    };
    let (config, fp) = tenant(53);
    let first = Arc::new(Service::open(&tmp, test_service_cfg(5)).unwrap());
    let (text, _) = member(Arc::clone(&first)).handle_line(&estimate_line(&config_json(&config)));
    assert!(text.starts_with("{\"ok\":true,"), "{text}");
    // Poison the stored Hockney `α(0, 1)` and load it into a fresh member:
    // a whole-transfer closed form has no clamp, so the prediction is
    // infinite. (LMO runs on its machine, which clamps, and stays finite.)
    let path = first.registry().path_for(&fp);
    let mut stored = std::fs::read_to_string(&path).unwrap();
    let alpha = stored.find("\"hockney\"").expect("hockney in the store");
    let start = alpha + stored[alpha..].find("\"data\": [").unwrap() + "\"data\": [".len();
    let end = start + stored[start..].find(',').unwrap();
    stored.replace_range(start..end, "1e999");
    std::fs::write(&path, stored).unwrap();
    drop(first);
    let node = member(Arc::new(Service::open(&tmp, test_service_cfg(5)).unwrap()));

    let hockney = predict_line(&fp, "nf-7").replace("\"lmo\"", "\"hockney\"");
    let (text, _) = node.handle_line(&hockney);
    assert_eq!(
        text,
        "{\"ok\":false,\"id\":\"nf-7\",\"error\":\"serialization failure\"}"
    );
    let (text, _) = node.handle_line("{\"verb\":\"fleet-info\",\"id\":8}");
    assert_eq!(
        text,
        "{\"ok\":true,\"id\":8,\"node\":\"node-0\",\"role\":\"fleet-node\",\"nodes\":1,\
         \"replication\":1,\"vnodes\":64}"
    );
    let (text, _) = node.handle_line("{\"verb\":\"fleet-install\",\"id\":\"i-9\"}");
    assert_eq!(
        text,
        "{\"ok\":false,\"id\":\"i-9\",\"error\":\"protocol error: missing field \\\"set\\\"\"}"
    );
    let (text, _) = node.handle_line("{\"verb\":\"estimate\",\"id\":[1],\"config\":7,\"id\":2}");
    assert!(text.starts_with("{\"ok\":false,\"error\":"), "{text}");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// The router's handle is the reactor's: `shutdown` signals every
/// shard's waker, so with idle client connections parked on both shards
/// it returns well inside the reactor's 500 ms fallback tick.
#[test]
fn router_shutdown_returns_promptly_with_idle_connections_open() {
    let tmp = temp_dir("router-prompt");
    let fleet = start_fleet(&tmp, 2, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router = Router::new(fleet.map.clone(), RouterConfig::default()).unwrap();
    let mut handle = serve_router(listener, router, 2, None).unwrap();
    // A round trip each proves the connections are adopted by their
    // shards before the clock starts.
    let mut idle: Vec<LineClient> = (0..8).map(|_| LineClient::connect(handle.addr())).collect();
    for client in &mut idle {
        assert!(is_ok(&client.call("{\"verb\":\"stats\"}")));
    }
    let t = std::time::Instant::now();
    handle.shutdown();
    let took = t.elapsed();
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
    assert!(
        !include_str!("../src/front.rs").contains("TcpStream::connect"),
        "the router wakes its shards by eventfd, not by connecting to itself"
    );
    drop(idle);
    let _ = std::fs::remove_dir_all(&tmp);
}
