//! End-to-end tests of the JSON-lines TCP server: cold estimation on first
//! contact, registry persistence across a server restart, warm service
//! without re-estimation, and per-connection error isolation.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_serve::{Server, ServerHandle, Service, ServiceConfig};
use serde_json::Value;

fn start_server(store: &std::path::Path) -> ServerHandle {
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(23)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(store, cfg).unwrap());
    Server::bind(service, "127.0.0.1:0").unwrap().spawn()
}

/// Sends one request line and returns the parsed response.
fn request(addr: SocketAddr, line: &str) -> Value {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    serde_json::from_str(response.trim_end()).unwrap()
}

fn ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

fn predict_line(config_json: &str) -> String {
    format!(
        "{{\"verb\":\"predict\",\"model\":\"lmo\",\"collective\":\"scatter\",\
         \"algorithm\":\"binomial\",\"m\":65536,\"config\":{config_json}}}"
    )
}

#[test]
fn cold_estimation_persists_and_survives_restart() {
    let store = std::env::temp_dir().join(format!("cpm-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 11);
    // Compact form: the protocol is line-framed, so no embedded newlines.
    let config_json = serde_json::to_string(&config).unwrap();

    // --- Session 1: cold predict estimates and writes the registry. ---
    let mut server = start_server(&store);
    let addr = server.addr();

    let cold = request(addr, &predict_line(&config_json));
    assert!(ok(&cold), "{cold:?}");
    assert_eq!(cold.get("cached"), Some(&Value::Bool(false)));
    let cold_seconds = cold.get("seconds").and_then(Value::as_f64).unwrap();
    assert!(cold_seconds > 0.0);
    let fp = cold
        .get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let stats = request(addr, "{\"verb\":\"stats\"}");
    assert!(ok(&stats), "{stats:?}");
    assert_eq!(stats.get("estimations").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("stored").and_then(Value::as_u64), Some(1));

    // A malformed line only poisons its own response, not the server.
    let err = request(addr, "this is not json");
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
    assert!(err.get("error").and_then(Value::as_str).is_some());
    assert!(ok(&request(addr, "{\"verb\":\"stats\"}")));

    server.shutdown();

    // --- Session 2: a fresh server over the same store serves warm. ---
    let mut server = start_server(&store);
    let addr = server.addr();

    // The fingerprint alone is enough now — no embedded config needed.
    let by_fp = request(
        addr,
        &format!(
            "{{\"verb\":\"predict\",\"model\":\"lmo\",\"collective\":\"scatter\",\
             \"algorithm\":\"binomial\",\"m\":65536,\"fingerprint\":\"{fp}\"}}"
        ),
    );
    assert!(ok(&by_fp), "{by_fp:?}");
    assert_eq!(
        by_fp.get("seconds").and_then(Value::as_f64),
        Some(cold_seconds)
    );

    let warm = request(addr, &predict_line(&config_json));
    assert!(ok(&warm), "{warm:?}");
    assert_eq!(
        warm.get("seconds").and_then(Value::as_f64),
        Some(cold_seconds)
    );
    assert_eq!(warm.get("cached"), Some(&Value::Bool(true)));

    let stats = request(addr, "{\"verb\":\"stats\"}");
    assert_eq!(
        stats.get("estimations").and_then(Value::as_u64),
        Some(0),
        "restart must not re-estimate: {stats:?}"
    );
    assert_eq!(stats.get("registry_loads").and_then(Value::as_u64), Some(1));

    // The shutdown verb stops the server; join() returns.
    let bye = request(addr, "{\"verb\":\"shutdown\"}");
    assert!(ok(&bye), "{bye:?}");
    server.join();

    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn select_and_estimate_verbs_work_over_the_wire() {
    let store = std::env::temp_dir().join(format!("cpm-serve-verbs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config_json =
        serde_json::to_string(&ClusterConfig::ideal(ClusterSpec::homogeneous(4), 5)).unwrap();

    let mut server = start_server(&store);
    let addr = server.addr();

    let est = request(
        addr,
        &format!("{{\"verb\":\"estimate\",\"config\":{config_json}}}"),
    );
    assert!(ok(&est), "{est:?}");
    assert_eq!(est.get("n").and_then(Value::as_u64), Some(4));
    assert!(est.get("runs").and_then(Value::as_u64).unwrap() > 0);

    let sel = request(
        addr,
        &format!(
            "{{\"verb\":\"select\",\"model\":\"lmo\",\"collective\":\"scatter\",\
             \"m\":256,\"config\":{config_json}}}"
        ),
    );
    assert!(ok(&sel), "{sel:?}");
    let lin = sel.get("linear_seconds").and_then(Value::as_f64).unwrap();
    let bin = sel.get("binomial_seconds").and_then(Value::as_f64).unwrap();
    let choice = sel.get("algorithm").and_then(Value::as_str).unwrap();
    assert_eq!(choice, if lin <= bin { "linear" } else { "binomial" });

    // The estimate verb did the only estimation; select reused it.
    let stats = request(addr, "{\"verb\":\"stats\"}");
    assert_eq!(stats.get("estimations").and_then(Value::as_u64), Some(1));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn plan_verb_round_trips_caches_and_invalidates_on_republish() {
    let store = std::env::temp_dir().join(format!("cpm-serve-plan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config_json =
        serde_json::to_string(&ClusterConfig::ideal(ClusterSpec::homogeneous(4), 7)).unwrap();
    let trace = cpm_workload::gen::canonical("train", 4, 8192, 2).unwrap();
    let trace_json = serde_json::to_string(&trace.to_value()).unwrap();
    let line = format!(
        "{{\"verb\":\"plan\",\"model\":\"lmo\",\"trace\":{trace_json},\"config\":{config_json}}}"
    );

    let mut server = start_server(&store);
    let addr = server.addr();

    // First submission: evaluated from scratch, full plan in the response.
    let first = request(addr, &line);
    assert!(ok(&first), "{first:?}");
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    assert_eq!(
        first.get("trace_hash").and_then(Value::as_str),
        Some(trace.hash().as_str())
    );
    let makespan = first
        .get("makespan_seconds")
        .and_then(Value::as_f64)
        .unwrap();
    assert!(makespan > 0.0);
    let Some(Value::Seq(ops)) = first.get("ops") else {
        panic!("no ops in {first:?}");
    };
    assert_eq!(ops.len() as u64, trace.ops.len() as u64);
    // Collective ops carry their chosen algorithm.
    assert!(ops
        .iter()
        .any(|o| o.get("algorithm").and_then(Value::as_str).is_some()));
    let Some(Value::Seq(phases)) = first.get("phases") else {
        panic!("no phases in {first:?}");
    };
    assert_eq!(phases.len(), 2);

    // Identical second submission is served from the plan cache.
    let second = request(addr, &line);
    assert!(ok(&second), "{second:?}");
    assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(
        second.get("makespan_seconds").and_then(Value::as_f64),
        Some(makespan)
    );
    let stats = request(addr, "{\"verb\":\"stats\"}");
    assert_eq!(stats.get("plan_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("plan_misses").and_then(Value::as_u64), Some(1));

    // A drift-style republish of the lmo parameters invalidates the plan.
    let service = Arc::clone(server.service());
    let fp = first
        .get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let ps = service
        .param_set(&cpm_serve::ClusterRef::Fingerprint(fp))
        .unwrap();
    service
        .republish((*ps).clone(), &[cpm_serve::ModelKind::Lmo])
        .unwrap();
    let third = request(addr, &line);
    assert!(ok(&third), "{third:?}");
    assert_eq!(
        third.get("cached"),
        Some(&Value::Bool(false)),
        "republish must invalidate the cached plan"
    );
    assert_eq!(
        third.get("param_version").and_then(Value::as_u64),
        Some(2),
        "the replan must bind the republished parameters"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn plan_des_fidelity_matches_a_direct_workload_replay() {
    let store = std::env::temp_dir().join(format!("cpm-serve-des-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(8), 41);
    let config_json = serde_json::to_string(&config).unwrap();
    let trace = cpm_workload::gen::canonical("train", 8, 8192, 2).unwrap();
    let trace_json = serde_json::to_string(&trace.to_value()).unwrap();
    let line = format!(
        "{{\"verb\":\"plan\",\"fidelity\":\"des\",\"trace\":{trace_json},\
         \"config\":{config_json}}}"
    );

    let mut server = start_server(&store);
    let addr = server.addr();
    let served = request(addr, &line);
    assert!(ok(&served), "{served:?}");
    assert_eq!(
        served.get("fidelity").and_then(Value::as_str),
        Some("des"),
        "{served:?}"
    );

    // The served answer must equal a direct replay (`cpm workload run`)
    // on the same cluster and trace: same truth-tuned algorithm choices,
    // same DES engine.
    let sim = cpm_netsim::SimCluster::from_config(&config);
    let choices = cpm_workload::truth_choices(&sim, &trace);
    let report = cpm_workload::replay(&sim, &trace, &choices).unwrap();
    assert_eq!(
        served.get("makespan_seconds").and_then(Value::as_f64),
        Some(report.makespan),
        "served DES plan must be bit-identical to the direct replay"
    );
    assert_eq!(
        served.get("events").and_then(Value::as_u64),
        Some(report.events as u64)
    );
    assert_eq!(
        served.get("msgs_sent").and_then(Value::as_u64),
        Some(report.msgs_sent as u64)
    );
    let Some(Value::Seq(ops)) = served.get("ops") else {
        panic!("no ops in {served:?}");
    };
    assert_eq!(ops.len(), report.ops.len());
    for (served_op, replayed) in ops.iter().zip(&report.ops) {
        assert_eq!(
            served_op.get("start").and_then(Value::as_f64),
            Some(replayed.start)
        );
        assert_eq!(
            served_op.get("end").and_then(Value::as_f64),
            Some(replayed.end)
        );
    }

    // DES replays never estimate parameters and are never cached, but
    // they do feed the unified metrics registry.
    let stats = request(addr, "{\"verb\":\"stats\",\"format\":\"text\"}");
    let text = stats.get("text").and_then(Value::as_str).unwrap();
    assert!(
        text.contains("cpm_des_events_total"),
        "exposition must carry the DES event counter"
    );
    assert!(
        text.contains("cpm_des_replay_ns"),
        "exposition must carry the DES replay histogram"
    );
    let events_line = text
        .lines()
        .find(|l| l.starts_with("cpm_des_events_total") && !l.starts_with('#'))
        .unwrap();
    let counted: u64 = events_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(counted, report.events as u64);

    // A fingerprint-only DES request is rejected: the simulator needs the
    // embedded config.
    let fp_line = format!(
        "{{\"verb\":\"plan\",\"fidelity\":\"des\",\"trace\":{trace_json},\
         \"fingerprint\":\"deadbeef\"}}"
    );
    let rejected = request(addr, &fp_line);
    assert_eq!(rejected.get("ok"), Some(&Value::Bool(false)));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn oversized_and_non_utf8_lines_get_structured_errors_not_dropped_connections() {
    let store = std::env::temp_dir().join(format!("cpm-serve-maxline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut server = start_server(&store);
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();

    // An oversized line (far beyond MAX_LINE) must produce a structured
    // protocol error without buffering the whole line or dropping the
    // connection.
    let huge = vec![b'x'; cpm_serve::server::MAX_LINE + 4096];
    writer.write_all(&huge).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    reader.read_line(&mut response).unwrap();
    let v: Value = serde_json::from_str(response.trim_end()).unwrap();
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let msg = v.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("too long"), "{msg}");

    // A non-UTF-8 line likewise errors without killing the connection.
    writer.write_all(&[0xff, 0xfe, b'{', b'}', b'\n']).unwrap();
    writer.flush().unwrap();
    response.clear();
    reader.read_line(&mut response).unwrap();
    let v: Value = serde_json::from_str(response.trim_end()).unwrap();
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    let msg = v.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("utf-8"), "{msg}");

    // The same connection still serves real requests afterwards.
    writer.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
    writer.flush().unwrap();
    response.clear();
    reader.read_line(&mut response).unwrap();
    let v: Value = serde_json::from_str(response.trim_end()).unwrap();
    assert!(ok(&v), "{v:?}");

    drop(writer);
    drop(reader);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn hier_plan_selects_two_phase_and_bad_fidelity_errors() {
    let store = std::env::temp_dir().join(format!("cpm-serve-hier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = ClusterConfig::hierarchical(4, 8, 2009);
    let config_json = serde_json::to_string(&config).unwrap();
    let trace = cpm_workload::gen::canonical("train", 32, 65536, 2).unwrap();
    let trace_json = serde_json::to_string(&trace.to_value()).unwrap();

    let mut server = start_server(&store);
    let addr = server.addr();

    // A plan under "lmo-hier" derives the per-level model from the
    // embedded config and considers the two-phase schedules; at 64 KiB on
    // 4 nodes x 8 cores the broadcasts go two-phase.
    let line = format!(
        "{{\"verb\":\"plan\",\"model\":\"lmo-hier\",\"trace\":{trace_json},\
         \"config\":{config_json}}}"
    );
    let served = request(addr, &line);
    assert!(ok(&served), "{served:?}");
    assert_eq!(
        served.get("model").and_then(Value::as_str),
        Some("lmo-hier")
    );
    let Some(Value::Seq(ops)) = served.get("ops") else {
        panic!("no ops in {served:?}");
    };
    let algorithms: Vec<&str> = ops
        .iter()
        .filter_map(|o| o.get("algorithm").and_then(Value::as_str))
        .collect();
    assert!(
        algorithms.contains(&"two-phase"),
        "expected a two-phase op in {algorithms:?}"
    );

    // The hierarchical and flat fingerprints of the same spec differ: the
    // level tree is part of cluster identity.
    let hier_fp = served
        .get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let flat = ClusterConfig::ideal(ClusterSpec::homogeneous(32), 2009);
    let flat_json = serde_json::to_string(&flat).unwrap();
    let flat_line = format!(
        "{{\"verb\":\"plan\",\"model\":\"lmo\",\"trace\":{trace_json},\
         \"config\":{flat_json}}}"
    );
    let flat_served = request(addr, &flat_line);
    assert!(ok(&flat_served), "{flat_served:?}");
    assert_ne!(
        flat_served.get("fingerprint").and_then(Value::as_str),
        Some(hier_fp.as_str())
    );

    // "lmo-hier" without an embedded config is a structured error.
    let bad_ref = format!(
        "{{\"verb\":\"plan\",\"model\":\"lmo-hier\",\"trace\":{trace_json},\
         \"fingerprint\":\"{hier_fp}\"}}"
    );
    let err = request(addr, &bad_ref);
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
    let msg = err.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("embedded"), "{msg}");

    // An unknown fidelity value is a structured protocol error naming the
    // accepted values, not a dropped connection.
    let bad_fidelity = format!(
        "{{\"verb\":\"plan\",\"fidelity\":\"chaotic\",\"trace\":{trace_json},\
         \"config\":{config_json}}}"
    );
    let err = request(addr, &bad_fidelity);
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)));
    let msg = err.get("error").and_then(Value::as_str).unwrap();
    assert!(
        msg.contains("unknown fidelity") && msg.contains("analytic|des"),
        "{msg}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// Sends one request line and returns the parsed response, failing the
/// test instead of hanging when no answer arrives within a second.
fn request_within_a_second(addr: SocketAddr, line: &str) -> Value {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(1)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .unwrap_or_else(|e| panic!("no answer within 1 s to {line}: {e}"));
    serde_json::from_str(response.trim_end()).unwrap()
}

/// `handle_line` on a thread of its own, so a wedged fingerprint fails the
/// test after a second instead of hanging it. `Err` is a handler panic.
fn handle_line_within_a_second(service: &Arc<Service>, line: &str) -> Result<String, ()> {
    let (tx, rx) = std::sync::mpsc::channel();
    let (service, line) = (Arc::clone(service), line.to_string());
    std::thread::spawn(move || {
        let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cpm_serve::handle_line(&service, &line).0
        }));
        let _ = tx.send(answer.map_err(drop));
    });
    rx.recv_timeout(std::time::Duration::from_secs(1))
        .expect("the request was answered within 1 s")
}

/// A level tree that does not cover the cluster, an empty one, or a
/// two-switch split outside it used to panic the estimator (the reactor
/// answered `"internal error"`); `ClusterConfig::validate` refuses each
/// with a structured `bad "config"` error, in process and over the wire.
#[test]
fn a_config_the_simulator_would_assert_on_is_a_structured_error() {
    let store = std::env::temp_dir().join(format!("cpm-serve-badcfg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut server = start_server(&store);
    let six = ClusterConfig {
        spec: ClusterSpec::homogeneous(6),
        ..ClusterConfig::hierarchical(2, 2, 3)
    };
    let flat = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 3);
    let no_levels = ClusterConfig {
        topology: cpm_cluster::Topology::Hierarchical { levels: Vec::new() },
        ..flat.clone()
    };
    let split = ClusterConfig {
        topology: cpm_cluster::Topology::two_switch(4, 1e7),
        ..flat
    };
    for (config, why) in [
        (six, "covers 4 ranks but the cluster has 6"),
        (no_levels, "at least one level"),
        (split, "both sides"),
    ] {
        let config = serde_json::to_string(&config).unwrap();
        for verb in ["estimate", "plan\",\"fidelity\":\"des"] {
            let line = format!(
                "{{\"verb\":\"{verb}\",\"config\":{config},\"trace\":{{\"trace\":\"cpm-workload\",\
                 \"version\":1,\"name\":\"x\",\"n\":2,\"ops\":[]}}}}"
            );
            let answer = handle_line_within_a_second(server.service(), &line)
                .expect("a structured error, not a panic");
            assert!(answer.contains("bad \\\"config\\\": "), "{answer}");
            assert!(answer.contains(why), "{answer}");
            let answer = request_within_a_second(server.addr(), &line);
            assert_eq!(answer.get("ok"), Some(&Value::Bool(false)));
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

/// A negative or non-finite `noise_rel` used to panic in `SimCluster::new`
/// with the fingerprint's single-flight marker still in place, so the
/// next request for it waited forever. It is a structured error now, the
/// same one every time, in process and over the wire.
#[test]
fn a_bad_noise_rel_is_a_structured_error_every_time() {
    let store = std::env::temp_dir().join(format!("cpm-serve-noise-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut server = start_server(&store);
    for noise_rel in ["-1", "-1e-9"] {
        let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 11);
        let config_json = serde_json::to_string(&config)
            .unwrap()
            .replace("\"noise_rel\":0.0", &format!("\"noise_rel\":{noise_rel}"));
        assert!(
            config_json.contains(&format!("\"noise_rel\":{noise_rel}")),
            "{config_json}"
        );
        let line = format!("{{\"verb\":\"estimate\",\"config\":{config_json}}}");
        for _ in 0..2 {
            let answer = handle_line_within_a_second(server.service(), &line)
                .expect("a structured error, not a panic");
            assert!(answer.contains("\"ok\":false"), "{answer}");
            assert!(answer.contains("noise_rel"), "{answer}");
        }
        for _ in 0..2 {
            let answer = request_within_a_second(server.addr(), &line);
            assert_eq!(answer.get("ok"), Some(&Value::Bool(false)));
            let msg = answer.get("error").and_then(Value::as_str).unwrap();
            assert!(msg.contains("noise_rel"), "{msg}");
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}
