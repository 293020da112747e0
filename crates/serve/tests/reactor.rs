//! End-to-end tests of the server on the reactor and of the binary wire
//! framing: pipelined requests answer in order, both framings produce
//! identical answers, idle connections are reaped (including
//! slowloris-style trickles), request ids / metrics / trace spans flow
//! through the reactor, and the bad-frame answers are pinned byte for
//! byte.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_serve::{Server, ServerHandle, Service, ServiceConfig};
use serde_json::Value;

fn start_server(store: &std::path::Path, idle: Option<Duration>) -> ServerHandle {
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(61)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(store, cfg).unwrap());
    Server::bind(service, "127.0.0.1:0")
        .unwrap()
        .workers(2)
        .idle_timeout(idle)
        .spawn()
}

fn fresh_store(tag: &str) -> std::path::PathBuf {
    let store = std::env::temp_dir().join(format!("cpm-reactor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    store
}

/// Sends one JSON-lines request on its own connection.
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

/// Sends one binary-framed request on its own connection: the `0x00`
/// preamble, then `u32` LE length + payload each way.
fn request_binary(addr: SocketAddr, payload: &str) -> Value {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = vec![0u8];
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload.as_bytes());
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut buf).unwrap();
    serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap()
}

fn ok(v: &Value) -> bool {
    matches!(v.get("ok"), Some(Value::Bool(true)))
}

/// Estimates a 4-node cluster through the server, returns its fingerprint.
fn primed_fingerprint(addr: SocketAddr, seed: u64) -> String {
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), seed);
    let est = request(
        addr,
        &format!(
            "{{\"verb\":\"estimate\",\"config\":{}}}",
            serde_json::to_string(&config).unwrap()
        ),
    );
    assert!(ok(&est), "{est:?}");
    est.get("fingerprint")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn reactor_answers_pipelined_requests_in_order() {
    let store = fresh_store("pipe");
    let mut server = start_server(&store, None);
    let addr = server.addr();
    let fp = primed_fingerprint(addr, 71);

    // One connection, one burst of mixed requests, each tagged with a
    // sequence id. The reactor must answer all of them, in order.
    const N: usize = 24;
    let mut burst = String::new();
    for i in 0..N {
        let line = match i % 3 {
            0 => format!(
                "{{\"verb\":\"predict\",\"id\":\"pipe-{i}\",\"fingerprint\":\"{fp}\",\
                 \"model\":\"lmo\",\"collective\":\"scatter\",\"algorithm\":\"binomial\",\
                 \"m\":{}}}",
                1024 * (i + 1)
            ),
            1 => format!(
                "{{\"verb\":\"select\",\"id\":\"pipe-{i}\",\"fingerprint\":\"{fp}\",\
                 \"model\":\"lmo\",\"collective\":\"gather\",\"m\":{}}}",
                2048 * (i + 1)
            ),
            _ => format!("{{\"verb\":\"stats\",\"id\":\"pipe-{i}\"}}"),
        };
        burst.push_str(&line);
        burst.push('\n');
    }
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(line.trim_end()).unwrap();
        assert!(ok(&v), "response {i}: {v:?}");
        assert_eq!(
            v.get("id").and_then(Value::as_str),
            Some(format!("pipe-{i}").as_str()),
            "responses must come back in request order"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn binary_framing_is_equivalent_to_json_lines() {
    let store = fresh_store("bin");
    let mut server = start_server(&store, None);
    let addr = server.addr();
    let fp = primed_fingerprint(addr, 73);
    let predict = format!(
        "{{\"verb\":\"predict\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":65536}}"
    );
    // Warm the cache so both framings see the same cached answer.
    assert!(ok(&request(addr, &predict)));
    let via_json = request(addr, &predict);
    let via_binary = request_binary(addr, &predict);
    assert!(ok(&via_json), "{via_json:?}");
    assert_eq!(
        via_json, via_binary,
        "the same request must produce the same response in both framings"
    );
    assert_eq!(via_binary.get("cached"), Some(&Value::Bool(true)));

    // Oversized binary frames get the structured error, and the
    // connection survives for the next request (stream stays aligned).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&[0u8]).unwrap();
    let oversized = vec![b' '; cpm_serve::MAX_LINE + 1];
    stream
        .write_all(&(oversized.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&oversized).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&(predict.len() as u32).to_le_bytes());
    wire.extend_from_slice(predict.as_bytes());
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
    let read_frame = |stream: &mut TcpStream| -> Value {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut buf).unwrap();
        serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap()
    };
    let err = read_frame(&mut stream);
    assert_eq!(err.get("ok"), Some(&Value::Bool(false)), "{err:?}");
    assert!(
        err.get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("too long"),
        "{err:?}"
    );
    let recovered = read_frame(&mut stream);
    assert!(ok(&recovered), "{recovered:?}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(store);
}

/// Waits for EOF on `stream`, returning how long it took. Panics if the
/// server sends data instead, or nothing happens within 5 seconds.
fn wait_for_eof(stream: TcpStream) -> Duration {
    let start = Instant::now();
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return start.elapsed(),
            Ok(n) => panic!("unexpected {n} bytes instead of idle close"),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("connection not closed within 5s")
            }
            Err(e) => panic!("read error while awaiting close: {e}"),
        }
    }
}

#[test]
fn idle_connections_are_reaped() {
    let idle = Duration::from_millis(150);
    let store = fresh_store("idle");
    let mut server = start_server(&store, Some(idle));
    let addr = server.addr();

    // A silent connection is closed after the idle timeout.
    let silent = TcpStream::connect(addr).unwrap();
    let waited = wait_for_eof(silent);
    assert!(
        waited >= Duration::from_millis(100),
        "closed too early: {waited:?}"
    );

    // A slowloris trickle (bytes, but never a complete request) is
    // closed too: only *complete* requests reset the idle clock.
    let mut slow = TcpStream::connect(addr).unwrap();
    let reader = slow.try_clone().unwrap();
    let t = std::thread::spawn(move || wait_for_eof(reader));
    for _ in 0..20 {
        if slow.write_all(b"{").is_err() {
            break; // server already closed on us — that's the point
        }
        let _ = slow.flush();
        std::thread::sleep(Duration::from_millis(40));
    }
    let waited = t.join().unwrap();
    assert!(
        waited >= Duration::from_millis(100),
        "slowloris closed too early: {waited:?}"
    );

    // An active connection outlives many idle windows: each complete
    // request resets the clock.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..8 {
        writer.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(line.trim_end()).unwrap();
        assert!(ok(&v), "{v:?}");
        std::thread::sleep(Duration::from_millis(60));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn request_ids_metrics_and_spans_flow_through_the_reactor() {
    let store = fresh_store("obs");
    let mut server = start_server(&store, None);
    let addr = server.addr();
    let fp = primed_fingerprint(addr, 79);

    // Request ids are echoed, errors included.
    let predict = format!(
        "{{\"verb\":\"predict\",\"id\":\"rx-obs-1\",\"fingerprint\":\"{fp}\",\
         \"model\":\"lmo\",\"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":4096}}"
    );
    let v = request(addr, &predict);
    assert!(ok(&v), "{v:?}");
    assert_eq!(v.get("id").and_then(Value::as_str), Some("rx-obs-1"));
    let v = request_binary(addr, "{\"verb\":\"dance\",\"id\":\"rx-obs-2\"}");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(v.get("id").and_then(Value::as_str), Some("rx-obs-2"));

    // The unified exposition carries the engine metrics: the serving
    // connection itself shows in the gauge, and both framings' frame
    // counters have moved (the estimate/predict lines above were JSON,
    // the error probe was binary).
    let stats = request(addr, "{\"verb\":\"stats\",\"format\":\"text\"}");
    assert!(ok(&stats), "{stats:?}");
    let text = stats.get("text").and_then(Value::as_str).unwrap();
    assert!(
        cpm_obs::validate_exposition(text).unwrap() > 0,
        "invalid exposition:\n{text}"
    );
    assert!(
        text.contains("cpm_serve_connections_active 1"),
        "the stats connection itself must show in the gauge:\n{text}"
    );
    let json_frames = text
        .lines()
        .find(|l| l.starts_with("cpm_serve_frames_total{format=\"json\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap();
    assert!(json_frames >= 2, "json frames: {json_frames}\n{text}");
    let binary_frames = text
        .lines()
        .find(|l| l.starts_with("cpm_serve_frames_total{format=\"binary\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap();
    assert!(binary_frames >= 1, "binary frames: {binary_frames}\n{text}");

    // Per-verb latency histograms recorded under the reactor.
    let stats = request(addr, "{\"verb\":\"stats\"}");
    let predict_latency = stats
        .get("latency")
        .and_then(|l| l.get("predict"))
        .expect("predict latency histogram");
    assert!(
        predict_latency
            .get("count")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    // serve.request spans attribute reactor-served requests by id.
    let dump = request(addr, "{\"verb\":\"trace\"}");
    assert!(ok(&dump), "{dump:?}");
    let Some(Value::Seq(events)) = dump.get("trace").and_then(|t| t.get("traceEvents")) else {
        panic!("no traceEvents in {dump:?}");
    };
    let has_span = events.iter().any(|e| {
        e.get("name").and_then(Value::as_str) == Some("serve.request")
            && e.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Value::as_str)
                == Some("rx-obs-1")
    });
    assert!(has_span, "no serve.request span for rx-obs-1");

    server.shutdown();
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn shutdown_verb_stops_the_reactor_and_drains_inflight_requests() {
    let store = fresh_store("shutdown");
    let server = start_server(&store, None);
    let addr = server.addr();
    let fp = primed_fingerprint(addr, 83);

    // A burst ending in `shutdown` must answer everything before it, in
    // order, then stop the server.
    let mut burst = String::new();
    for i in 0..5 {
        burst.push_str(&format!(
            "{{\"verb\":\"predict\",\"id\":\"sd-{i}\",\"fingerprint\":\"{fp}\",\
             \"model\":\"lmo\",\"collective\":\"scatter\",\"algorithm\":\"linear\",\"m\":512}}\n"
        ));
    }
    burst.push_str("{\"verb\":\"shutdown\",\"id\":\"sd-last\"}\n");
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(burst.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..5 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(line.trim_end()).unwrap();
        assert!(ok(&v), "drained response {i}: {v:?}");
        assert_eq!(
            v.get("id").and_then(Value::as_str),
            Some(format!("sd-{i}").as_str())
        );
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(line.trim_end()).unwrap();
    assert!(ok(&v), "{v:?}");
    assert_eq!(v.get("id").and_then(Value::as_str), Some("sd-last"));

    // The server stops on its own (join, not shutdown) and the port is
    // released.
    let mut server = server;
    server.join();
    let _ = std::fs::remove_dir_all(store);
}

/// The answers to requests the wire layer itself refuses, byte for byte
/// in both framings. One implementation owns these strings now; a
/// client that matches on them is matching on this test.
#[test]
fn bad_frame_answers_are_pinned_byte_for_byte() {
    let store = fresh_store("badframe");
    let mut server = start_server(&store, None);
    let addr = server.addr();
    let limit = cpm_serve::MAX_LINE;
    let too_long = vec![b'x'; limit + 1];
    let not_utf8 = [0xff, 0xfe, b'{', b'}'];

    // JSON lines: each bad line is answered and the stream stays aligned.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = too_long.clone();
    wire.push(b'\n');
    wire.extend_from_slice(&not_utf8);
    wire.extend_from_slice(b"\n{\"verb\":\"dance\"}\n");
    stream.write_all(&wire).unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert_eq!(
        lines[0],
        format!(
            "{{\"ok\":false,\"error\":\"request line too long ({} bytes, limit {limit})\"}}\n",
            limit + 1
        )
    );
    assert_eq!(
        lines[1],
        "{\"ok\":false,\"error\":\"request is not valid utf-8\"}\n"
    );
    assert!(lines[2].contains("unknown verb"), "{}", lines[2]);

    // Binary: the same two faults, then a declared length no decoder
    // can skip past — answered, and the connection closes behind it.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut wire = vec![0u8];
    for payload in [&too_long[..], &not_utf8[..]] {
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
    }
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&wire).unwrap();
    let mut answers = Vec::new();
    stream.read_to_end(&mut answers).unwrap();
    let mut expected = Vec::new();
    for payload in [
        format!(
            "{{\"ok\":false,\"error\":\"request frame too long ({} bytes, limit {limit})\"}}",
            limit + 1
        ),
        "{\"ok\":false,\"error\":\"request is not valid utf-8\"}".to_string(),
        format!(
            "{{\"ok\":false,\"error\":\"unrecoverable frame length {}; closing connection\"}}",
            u32::MAX
        ),
    ] {
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(payload.as_bytes());
    }
    assert_eq!(
        String::from_utf8_lossy(&answers),
        String::from_utf8_lossy(&expected)
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(store);
}

/// `shutdown` must not wait out a poll tick: with idle connections
/// parked on every shard it returns well inside the reactor's 500 ms
/// fallback tick, which only the eventfd wakers can achieve.
#[test]
fn shutdown_returns_promptly_with_idle_connections_open() {
    let store = fresh_store("prompt");
    let mut server = start_server(&store, None);
    let addr = server.addr();
    let idle: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // A round trip per shard-sharing connection proves they are adopted
    // (accepted, handed off, registered) before the clock starts.
    for mut stream in idle.iter().map(|s| s.try_clone().unwrap()) {
        stream.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"ok\":true"), "{line}");
    }
    let t = Instant::now();
    server.shutdown();
    let took = t.elapsed();
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
    assert!(
        !include_str!("../src/server.rs").contains("TcpStream::connect"),
        "the server wakes its shards by eventfd, not by connecting to itself"
    );
    drop(idle);
    let _ = std::fs::remove_dir_all(store);
}
