//! Concurrency tests of the server: many clients issuing
//! interleaved cache hits and misses with no lost or duplicated
//! responses, protocol-error isolation under concurrent load, the
//! `batch` verb against individually-issued requests, per-verb latency
//! reporting, and deterministic shutdown drain under load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_serve::{Server, ServerHandle, Service, ServiceConfig};
use serde_json::Value;

fn start_server(store: &std::path::Path, workers: usize) -> ServerHandle {
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(23)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(store, cfg).unwrap());
    Server::bind(service, "127.0.0.1:0")
        .unwrap()
        .workers(workers)
        .spawn()
}

fn fresh_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cpm-serve-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One connection, one request line, one parsed response.
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

/// Estimates a small cluster so every test below runs against a warm
/// registry, and returns its fingerprint.
fn estimate(addr: SocketAddr, nodes: usize, seed: u64) -> String {
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(nodes), seed);
    let line = format!(
        "{{\"verb\":\"estimate\",\"config\":{}}}",
        serde_json::to_string(&config).unwrap()
    );
    let v = request(addr, &line);
    assert!(ok(&v), "{v:?}");
    v.get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

fn predict_line(fp: &str, m: u64) -> String {
    format!(
        "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":{m}}}"
    )
}

#[test]
fn concurrent_clients_lose_no_responses() {
    const CLIENTS: usize = 6;
    const REQUESTS: usize = 40;
    let store = fresh_store("load");
    let server = start_server(&store, 4);
    let addr = server.addr();
    let fp = estimate(addr, 4, 11);

    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let fp = fp.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut responses = Vec::new();
                for i in 0..REQUESTS {
                    // Even i: a shared message size — a cache hit once any
                    // client has primed it. Odd i: unique to this client —
                    // guaranteed misses, interleaved with the hits.
                    let m = if i % 2 == 0 {
                        65536
                    } else {
                        1024 * (c as u64 + 1) + i as u64
                    };
                    let line = predict_line(&fp, m);
                    writer.write_all(line.as_bytes()).unwrap();
                    writer.write_all(b"\n").unwrap();
                    writer.flush().unwrap();
                    let mut response = String::new();
                    assert!(
                        reader.read_line(&mut response).unwrap() > 0,
                        "lost response"
                    );
                    let v: Value = serde_json::from_str(response.trim_end()).unwrap();
                    assert!(ok(&v), "client {c} request {i}: {v:?}");
                    responses.push(v);
                }
                responses
            })
        })
        .collect();
    for t in threads {
        let responses = t.join().unwrap();
        // Exactly one response per request, in order, all for our cluster.
        assert_eq!(responses.len(), REQUESTS);
        for v in &responses {
            assert_eq!(
                v.get("fingerprint").and_then(Value::as_str),
                Some(fp.as_str())
            );
            assert!(v.get("seconds").and_then(Value::as_f64).unwrap() > 0.0);
        }
    }

    let total = (CLIENTS * REQUESTS) as u64;
    let stats = request(addr, "{\"verb\":\"stats\"}");
    assert!(ok(&stats), "{stats:?}");
    assert_eq!(
        stats.get("predict_count").and_then(Value::as_u64),
        Some(total)
    );
    let hits = stats.get("hits").and_then(Value::as_u64).unwrap();
    let misses = stats.get("misses").and_then(Value::as_u64).unwrap();
    assert_eq!(hits + misses, total, "every predict is a hit or a miss");
    assert!(hits > 0 && misses > 0, "hits={hits} misses={misses}");

    // The per-verb latency histograms saw every predict.
    let latency = stats.get("latency").unwrap();
    let predict = latency.get("predict").unwrap();
    assert_eq!(predict.get("count").and_then(Value::as_u64), Some(total));
    for q in ["p50_ns", "p95_ns", "p99_ns"] {
        assert!(
            predict.get(q).and_then(Value::as_u64).unwrap() > 0,
            "{q} is zero"
        );
    }

    // And the text exposition carries the same histograms.
    let text = request(addr, "{\"verb\":\"stats\",\"format\":\"text\"}");
    assert!(ok(&text), "{text:?}");
    let body = text.get("text").and_then(Value::as_str).unwrap();
    assert!(body.contains("cpm_serve_latency_ns_bucket{verb=\"predict\",le=\""));
    assert!(body.contains(&format!(
        "cpm_serve_latency_ns_count{{verb=\"predict\"}} {total}"
    )));
    assert!(body.contains("# TYPE cpm_serve_predictions counter"));
}

#[test]
fn protocol_errors_are_isolated_under_concurrency() {
    let store = fresh_store("errs");
    let server = start_server(&store, 2);
    let addr = server.addr();
    let fp = estimate(addr, 4, 12);

    let oversized = {
        let fp = fp.clone();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            // A line beyond MAX_LINE: structured error, connection lives.
            let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(2 << 20));
            writer.write_all(huge.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let v: Value = serde_json::from_str(response.trim_end()).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
            let err = v.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains("too long"), "{err}");
            // Same connection still serves valid requests.
            writer
                .write_all(predict_line(&fp, 4096).as_bytes())
                .unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let v: Value = serde_json::from_str(response.trim_end()).unwrap();
            assert!(ok(&v), "{v:?}");
        })
    };
    let non_utf8 = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"verb\":\xff\xfe}\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let v: Value = serde_json::from_str(response.trim_end()).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let err = v.get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("utf-8"), "{err}");
        writer.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let v: Value = serde_json::from_str(response.trim_end()).unwrap();
        assert!(ok(&v), "{v:?}");
    });
    oversized.join().unwrap();
    non_utf8.join().unwrap();
}

#[test]
fn batch_matches_individual_requests() {
    let store = fresh_store("batch");
    let server = start_server(&store, 2);
    let addr = server.addr();
    let fp = estimate(addr, 4, 13);

    let subs = [
        predict_line(&fp, 1024),
        predict_line(&fp, 65536),
        format!(
            "{{\"verb\":\"select\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
             \"collective\":\"gather\",\"m\":4096}}"
        ),
    ];
    // Prime the caches, then capture the warm individual responses so the
    // batch comparison is not perturbed by `cached` flipping.
    for line in &subs {
        assert!(ok(&request(addr, line)));
    }
    let individual: Vec<Value> = subs.iter().map(|line| request(addr, line)).collect();

    let batch_line = format!("{{\"verb\":\"batch\",\"requests\":[{}]}}", subs.join(","));
    let batch = request(addr, &batch_line);
    assert!(ok(&batch), "{batch:?}");
    assert_eq!(batch.get("count").and_then(Value::as_u64), Some(3));
    let Some(Value::Seq(responses)) = batch.get("responses") else {
        panic!("missing responses: {batch:?}");
    };
    assert_eq!(responses, &individual, "batch golden mismatch");

    // One bad element errors in place without failing its neighbours.
    let mixed = format!(
        "{{\"verb\":\"batch\",\"requests\":[{},{}]}}",
        subs[0],
        predict_line("no-such-fingerprint", 64)
    );
    let mixed = request(addr, &mixed);
    assert!(ok(&mixed), "{mixed:?}");
    let Some(Value::Seq(responses)) = mixed.get("responses") else {
        panic!("missing responses: {mixed:?}");
    };
    assert!(ok(&responses[0]), "{:?}", responses[0]);
    assert_eq!(responses[1].get("ok"), Some(&Value::Bool(false)));
    assert!(responses[1].get("error").and_then(Value::as_str).is_some());
}

#[test]
fn shutdown_under_load_drains_admitted_requests() {
    const CLIENTS: usize = 3;
    let store = fresh_store("drain");
    let mut server = start_server(&store, 4);
    let addr = server.addr();
    let fp = estimate(addr, 4, 14);

    // Synchronous load clients: write one request, read one response.
    // After shutdown each client either gets a response (the request was
    // admitted before the drain) or a clean EOF (it was not) — never a
    // torn line, never a missing response for an admitted request.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let fp = fp.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut sent = 0usize;
                let mut answered = 0usize;
                loop {
                    let line = predict_line(&fp, 65536);
                    if writer.write_all(line.as_bytes()).is_err()
                        || writer.write_all(b"\n").is_err()
                        || writer.flush().is_err()
                    {
                        break; // server closed: the request was never admitted
                    }
                    sent += 1;
                    let mut response = String::new();
                    match reader.read_line(&mut response) {
                        Ok(0) | Err(_) => break, // clean EOF mid-drain
                        Ok(_) => {
                            // Every delivered line is complete, valid JSON.
                            let v: Value = serde_json::from_str(response.trim_end()).unwrap();
                            assert!(ok(&v), "{v:?}");
                            answered += 1;
                        }
                    }
                }
                (sent, answered)
            })
        })
        .collect();

    // Let the clients build up traffic, then shut down via the verb.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let bye = request(addr, "{\"verb\":\"shutdown\"}");
    assert!(ok(&bye), "{bye:?}");
    assert_eq!(bye.get("shutting_down"), Some(&Value::Bool(true)));

    // Every shard is joined before the listener is released.
    server.join();

    for t in clients {
        let (sent, answered) = t.join().unwrap();
        assert!(answered > 0, "client did no work before shutdown");
        // At most the final request (raced against the drain) is dropped.
        assert!(
            answered == sent || answered + 1 == sent,
            "sent {sent} but answered {answered}: admitted request lost"
        );
    }

    // The listener is really gone after join (no half-open accept loop).
    std::thread::sleep(std::time::Duration::from_millis(50));
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            // Some kernels accept into the backlog of the dead listener;
            // the connection must at least be unserved (EOF, no response).
            s.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
            let mut buf = String::new();
            assert_eq!(s.read_to_string(&mut buf).unwrap_or(0), 0, "{buf:?}");
        }
    }
}
