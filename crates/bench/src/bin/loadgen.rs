//! Load generator for the cpm-serve server and the cpm-fleet router.
//!
//! It measures what only a many-client driver can: the flight
//! recorder's cost under load, the metrics exposition of a loaded
//! server, and fleet failover. Throughput and latency over time are the
//! ledger's job (`benchmark/`, workloads `serve_hot` and `fleet_mix`).
//!
//! Three modes:
//!
//! **Single server** (default): spins up an in-process server on
//! `--workers` event-loop shards, primes the prediction cache, then
//! drives K concurrent clients against it, each keeping `--pipeline
//! DEPTH` tagged requests in flight on one connection (default 1: a
//! synchronous request/response loop) and asserting the responses come
//! back in request order. Reports throughput, client-side latency
//! quantiles (from merged per-client [`LogHistogram`]s) and the server's
//! own per-verb latency stats, persisted as JSON (default
//! `bench_results/serve_load.json`).
//!
//! **Fleet** (`--tenants N`): spins up an in-process cpm-fleet — 3 nodes
//! by default (`--fleet`), replication 2 (`--replication`), one router —
//! estimates N distinct tenant clusters through the router (each lands
//! on its ring owner and replicates), then drives clients whose queries
//! pick tenants from a Zipf(`--zipf`) rank distribution: rank 1 is the
//! hottest tenant, the tail is cold — the multi-tenant skew a shared
//! parameter fleet actually sees. `--kill-node IDX` shuts that node down
//! mid-run (clients drain in-flight work first, then resume through the
//! router's now-stale connection pools, exercising reconnect +
//! failover). The run reports overall and **per-tenant** latency
//! quantiles, counts stale-flagged failover responses, and writes
//! `bench_results/fleet_load.json`. Exit code 1 on any client-visible
//! error (an error response, a missing/mismatched id echo, or a dropped
//! connection), and `--p99-max-ms X` additionally gates the overall
//! client p99.
//!
//! **Fleet trace** (`--trace-fleet NODES`): spins up an in-process
//! NODES-node fleet plus router, sends one estimate carrying an explicit
//! trace context through the router, then dumps the router's fleet-wide
//! flight-recorder merge and asserts the merged Chrome trace contains
//! spans reported by at least two distinct nodes linked by that trace
//! id — the end-to-end distributed-tracing smoke.
//!
//! ```text
//! loadgen [--clients K] [--requests N] [--workers W]
//!         [--pipeline DEPTH] [--think-us T] [--out PATH]
//!         [--obs-overhead-max PCT]
//!         [--tenants N] [--zipf S] [--fleet NODES] [--replication R]
//!         [--kill-node IDX] [--p99-max-ms X]
//!         [--trace-fleet NODES]
//! ```
//!
//! With `--obs-overhead-max PCT` the single-server run is repeated
//! with the flight recorder disabled and enabled (several interleaved
//! trials per mode, best-of-N throughput each) and the exit code is 1 if
//! tracing costs more than PCT percent of throughput.
//!
//! Every single-server run also fetches `stats format:text` and
//! validates it against the Prometheus exposition grammar
//! ([`cpm_obs::validate_exposition`]), so a malformed metrics rendering
//! fails the smoke gate too.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_fleet::{serve_router, FleetMap, FleetNode, Router, RouterConfig, RouterHandle};
use cpm_reactor::ClientConfig;
use cpm_serve::{LineHandler, Server, ServerHandle, Service, ServiceConfig};
use cpm_stats::LogHistogram;
use serde::Serialize;
use serde_json::Value;

/// Message sizes cycled through by every client; all primed before the
/// timed phase so the run measures warm-cache serving, not estimation.
const SIZES: [u64; 4] = [1024, 4096, 16384, 65536];

struct Args {
    clients: usize,
    requests: usize,
    workers: usize,
    pipeline: usize,
    think_us: u64,
    out: Option<std::path::PathBuf>,
    obs_overhead_max: Option<f64>,
    tenants: usize,
    zipf: f64,
    fleet: usize,
    replication: usize,
    kill_node: Option<usize>,
    p99_max_ms: Option<f64>,
    trace_fleet: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--clients K] [--requests N] [--workers W]\n\
         \x20              [--pipeline DEPTH] [--think-us T] [--out PATH]\n\
         \x20              [--obs-overhead-max PCT]\n\
         \x20              [--tenants N] [--zipf S] [--fleet NODES]\n\
         \x20              [--replication R] [--kill-node IDX] [--p99-max-ms X]\n\
         \x20              [--trace-fleet NODES]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 8,
        requests: 200,
        workers: 8,
        pipeline: 1,
        think_us: 200,
        out: None,
        obs_overhead_max: None,
        tenants: 0,
        zipf: 1.1,
        fleet: 3,
        replication: 2,
        kill_node: None,
        p99_max_ms: None,
        trace_fleet: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--clients" => args.clients = value.parse().unwrap_or_else(|_| usage()),
            "--requests" => args.requests = value.parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = value.parse().unwrap_or_else(|_| usage()),
            "--pipeline" => args.pipeline = value.parse().unwrap_or_else(|_| usage()),
            "--think-us" => args.think_us = value.parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value.into()),
            "--obs-overhead-max" => {
                args.obs_overhead_max = Some(value.parse().unwrap_or_else(|_| usage()))
            }
            "--tenants" => args.tenants = value.parse().unwrap_or_else(|_| usage()),
            "--zipf" => args.zipf = value.parse().unwrap_or_else(|_| usage()),
            "--fleet" => args.fleet = value.parse().unwrap_or_else(|_| usage()),
            "--replication" => args.replication = value.parse().unwrap_or_else(|_| usage()),
            "--kill-node" => args.kill_node = Some(value.parse().unwrap_or_else(|_| usage())),
            "--p99-max-ms" => args.p99_max_ms = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace-fleet" => args.trace_fleet = Some(value.parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    if args.clients == 0 || args.requests == 0 || args.workers == 0 || args.pipeline == 0 {
        usage();
    }
    if args.tenants > 0 && (args.fleet == 0 || args.replication == 0) {
        usage();
    }
    if let Some(victim) = args.kill_node {
        if victim >= args.fleet {
            usage();
        }
    }
    args
}

/// Client- and server-side view of one timed run.
#[derive(Serialize)]
struct RunResult {
    workers: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    client_p50_ns: u64,
    client_p95_ns: u64,
    client_p99_ns: u64,
    client_mean_ns: f64,
    server_predict_p50_ns: u64,
    server_predict_p95_ns: u64,
    server_predict_p99_ns: u64,
}

/// Tracing-on vs tracing-off throughput of the same run.
#[derive(Serialize)]
struct ObsOverhead {
    off_rps: f64,
    on_rps: f64,
    overhead_pct: f64,
}

/// Report of the single-server mode.
#[derive(Serialize)]
struct ServeReport {
    clients: usize,
    requests_per_client: usize,
    pipeline: usize,
    think_us: u64,
    sizes: Vec<u64>,
    run: RunResult,
    obs_overhead: Option<ObsOverhead>,
}

fn start_server(store: &std::path::Path, workers: usize) -> ServerHandle {
    let cfg = ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(29)
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::open(store, cfg).expect("open service"));
    Server::bind(service, "127.0.0.1:0")
        .expect("bind")
        .workers(workers)
        .spawn()
}

fn request(addr: SocketAddr, line: &str) -> Value {
    let stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    writer.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read");
    serde_json::from_str(response.trim_end()).expect("response json")
}

fn predict_line_tagged(fp: &str, m: u64, id: &str) -> String {
    format!(
        "{{\"verb\":\"predict\",\"id\":\"{id}\",\"fingerprint\":\"{fp}\",\"model\":\"lmo\",\
         \"collective\":\"scatter\",\"algorithm\":\"binomial\",\"m\":{m}}}"
    )
}

fn quantile_ns(stats: &Value, verb: &str, q: &str) -> u64 {
    stats
        .get("latency")
        .and_then(|l| l.get(verb))
        .and_then(|v| v.get(q))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Starts a `workers`-shard server over `store`, estimates the
/// canonical cluster (idempotent — the registry persists across runs)
/// and primes every message size so the timed phase is warm. Returns the
/// handle and the cluster fingerprint.
fn primed_server(store: &std::path::Path, workers: usize) -> (ServerHandle, String) {
    let server = start_server(store, workers);
    let addr = server.addr();
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 31);
    let est = request(
        addr,
        &format!(
            "{{\"verb\":\"estimate\",\"config\":{}}}",
            serde_json::to_string(&config).expect("config json")
        ),
    );
    assert_eq!(est.get("ok"), Some(&Value::Bool(true)), "{est:?}");
    let fp = est
        .get("fingerprint")
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_string();
    for m in SIZES {
        let primed = request(addr, &predict_line_tagged(&fp, m, "prime"));
        assert_eq!(primed.get("ok"), Some(&Value::Bool(true)), "{primed:?}");
    }
    (server, fp)
}

/// Fetches the server's own stats, smoke-checks the unified metrics
/// exposition, shuts the server down and folds everything into a
/// [`RunResult`].
fn finish_run(
    mut server: ServerHandle,
    workers: usize,
    wall: f64,
    total_requests: usize,
    merged: &LogHistogram,
) -> RunResult {
    let addr = server.addr();
    let stats = request(addr, "{\"verb\":\"stats\"}");
    let text = request(addr, "{\"verb\":\"stats\",\"format\":\"text\"}");
    let text = text
        .get("text")
        .and_then(Value::as_str)
        .expect("text stats");
    match cpm_obs::validate_exposition(text) {
        Ok(samples) => assert!(samples > 0, "empty exposition"),
        Err(e) => panic!("invalid metrics exposition: {e}"),
    }
    server.shutdown();

    let h = merged.snapshot();
    RunResult {
        workers,
        wall_seconds: wall,
        throughput_rps: total_requests as f64 / wall,
        client_p50_ns: h.quantile(0.50),
        client_p95_ns: h.quantile(0.95),
        client_p99_ns: h.quantile(0.99),
        client_mean_ns: h.mean(),
        server_predict_p50_ns: quantile_ns(&stats, "predict", "p50_ns"),
        server_predict_p95_ns: quantile_ns(&stats, "predict", "p95_ns"),
        server_predict_p99_ns: quantile_ns(&stats, "predict", "p99_ns"),
    }
}

/// One timed run: every client keeps up to `depth` tagged requests in
/// flight on a single connection (depth 1 is the synchronous
/// request/response loop) and asserts that responses come back in
/// request order (the protocol guarantee the reactor's in-order state
/// machine exists to keep). Latency is measured per request from its
/// own send instant, so queueing inside the window is visible in the
/// quantiles. Clients sleep `think_us` between responses — the standard
/// load-generator model of a client that does some work (or crosses a
/// network) between requests.
fn run_load(
    store: &std::path::Path,
    workers: usize,
    clients: usize,
    requests: usize,
    depth: usize,
    think_us: u64,
) -> RunResult {
    let (server, fp) = primed_server(store, workers);
    let addr = server.addr();

    let fp = Arc::new(fp);
    let barrier = Arc::new(Barrier::new(clients + 1));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let fp = Arc::clone(&fp);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let _ = stream.set_nodelay(true);
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let hist = LogHistogram::new();
                let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(depth);
                let mut response = String::new();
                let mut next = 0usize;
                let mut received = 0usize;
                barrier.wait();
                while received < requests {
                    // Top up the window, batching the burst into one write.
                    if next < requests && next - received < depth {
                        let mut burst = String::new();
                        let t = Instant::now();
                        while next < requests && next - received < depth {
                            burst.push_str(&predict_line_tagged(
                                &fp,
                                SIZES[next % SIZES.len()],
                                &format!("c{c}-{next}"),
                            ));
                            burst.push('\n');
                            sent_at.push_back(t);
                            next += 1;
                        }
                        writer.write_all(burst.as_bytes()).expect("write");
                    }
                    response.clear();
                    assert!(
                        reader.read_line(&mut response).expect("read") > 0,
                        "lost response"
                    );
                    let sent = sent_at.pop_front().expect("response without request");
                    hist.record(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    let v: Value = serde_json::from_str(response.trim_end()).expect("json");
                    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{response}");
                    let want = format!("c{c}-{received}");
                    assert_eq!(
                        v.get("id").and_then(Value::as_str),
                        Some(want.as_str()),
                        "pipelined responses out of order: {response}"
                    );
                    received += 1;
                    if think_us > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(think_us));
                    }
                }
                hist
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let merged = LogHistogram::new();
    for t in threads {
        merged.merge_from(&t.join().expect("client panicked"));
    }
    let wall = t0.elapsed().as_secs_f64();
    finish_run(server, workers, wall, clients * requests, &merged)
}

fn print_run(r: &RunResult) {
    println!(
        "workers={:<2} wall={:.3}s throughput={:.0} req/s \
         client p50/p95/p99={:.1}/{:.1}/{:.1}µs server predict p50={:.1}µs",
        r.workers,
        r.wall_seconds,
        r.throughput_rps,
        r.client_p50_ns as f64 / 1e3,
        r.client_p95_ns as f64 / 1e3,
        r.client_p99_ns as f64 / 1e3,
        r.server_predict_p50_ns as f64 / 1e3,
    );
}

/// Best-of-N interleaved tracing-off/on throughput of `run`.
///
/// A single off/on pair at these run lengths shows scheduler jitter well
/// above the gate threshold. Interleave trials and keep the best
/// throughput per mode: noise only ever slows a run down, so the
/// per-mode maximum is the stable estimator of its true rate.
fn measure_obs_overhead(run: impl Fn() -> RunResult) -> ObsOverhead {
    const TRIALS: usize = 3;
    let rec = cpm_obs::Recorder::global();
    let (mut off_rps, mut on_rps) = (0.0f64, 0.0f64);
    for _ in 0..TRIALS {
        rec.set_enabled(false);
        off_rps = off_rps.max(run().throughput_rps);
        rec.set_enabled(true);
        on_rps = on_rps.max(run().throughput_rps);
    }
    let overhead_pct = (off_rps - on_rps) / off_rps * 100.0;
    println!(
        "tracing overhead: {overhead_pct:.2}% \
         (best-of-{TRIALS}: on {on_rps:.0} req/s vs off {off_rps:.0} req/s)"
    );
    ObsOverhead {
        off_rps,
        on_rps,
        overhead_pct,
    }
}

fn write_report<T: Serialize>(out: &std::path::Path, report: &T) {
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(
        out,
        serde_json::to_string_pretty(report).expect("report json"),
    )
    .expect("write report");
    println!("wrote {}", out.display());
}

/// Exits 1 if the measured tracing overhead exceeds the gate.
fn gate_obs(max: Option<f64>, obs: Option<&ObsOverhead>) {
    if let (Some(max), Some(obs)) = (max, obs) {
        if obs.overhead_pct > max {
            eprintln!(
                "FAIL: tracing overhead {:.2}% exceeds {max:.2}%",
                obs.overhead_pct
            );
            std::process::exit(1);
        }
        println!("ok: tracing overhead {:.2}% <= {max:.2}%", obs.overhead_pct);
    }
}

/// One server, one run, plus the tracing-overhead trials when gated.
fn main_serve(args: &Args, store: &std::path::Path) {
    println!(
        "loadgen: {} clients x {} requests, pipeline depth {}, {}µs think time, \
         warm cache, sizes {:?}",
        args.clients, args.requests, args.pipeline, args.think_us, SIZES
    );
    let run = || {
        run_load(
            store,
            args.workers,
            args.clients,
            args.requests,
            args.pipeline,
            args.think_us,
        )
    };
    let result = run();
    print_run(&result);
    // The server is in-process, so the global recorder toggle reaches it
    // directly.
    let obs_overhead = args.obs_overhead_max.map(|_| measure_obs_overhead(run));

    let report = ServeReport {
        clients: args.clients,
        requests_per_client: args.requests,
        pipeline: args.pipeline,
        think_us: args.think_us,
        sizes: SIZES.to_vec(),
        run: result,
        obs_overhead,
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| cpm_bench::results_dir().join("serve_load.json"));
    write_report(&out, &report);
    gate_obs(args.obs_overhead_max, report.obs_overhead.as_ref());
}

/// Deterministic per-client RNG (SplitMix64). Skewed tenant sampling
/// needs reproducible draws, not cryptographic ones, and pulling a
/// general RNG crate in for one loop would be overkill.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(s) over ranks `1..=n` as a precomputed CDF: rank k has weight
/// k^-s, so rank 1 is the hottest tenant. Sampling is one uniform draw
/// plus a binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a 0-based tenant rank.
    fn sample(&self, state: &mut u64) -> usize {
        let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Starts an in-process fleet: `nodes` servers wrapped in [`FleetNode`]
/// handlers over one shard map, plus the router in front. Listeners are
/// bound first so every address is known before any handler (which
/// embeds the map) is built.
fn start_fleet(
    store: &std::path::Path,
    nodes: usize,
    replication: usize,
) -> (Vec<ServerHandle>, RouterHandle, FleetMap) {
    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind node"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let map = FleetMap::new(&addrs, replication, cpm_fleet::DEFAULT_VNODES);
    let handles: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServiceConfig {
                est: EstimateConfig {
                    reps: 1,
                    ..EstimateConfig::with_seed(41 + i as u64)
                },
                ..ServiceConfig::default()
            };
            let service = Arc::new(
                Service::open(store.join(format!("node-{i}")), cfg).expect("open service"),
            );
            let inner: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
            let node = FleetNode::new(
                Arc::clone(&service),
                inner,
                map.clone(),
                &format!("node-{i}"),
                ClientConfig::default(),
            )
            .expect("fleet node");
            Server::from_listener(service, node, listener)
                .expect("server")
                .workers(2)
                .spawn()
        })
        .collect();
    let router = Router::new(map.clone(), RouterConfig::default()).expect("router");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let handle = serve_router(listener, router, 2, None).expect("serve router");
    (handles, handle, map)
}

/// Latency profile of one tenant (Zipf rank order: rank 0 is hottest).
#[derive(Serialize)]
struct TenantResult {
    rank: usize,
    fingerprint: String,
    requests: u64,
    p50_ns: u64,
    p99_ns: u64,
}

#[derive(Serialize)]
struct FleetReport {
    fleet: usize,
    replication: usize,
    tenants: usize,
    zipf: f64,
    clients: usize,
    requests_per_client: usize,
    think_us: u64,
    killed_node: Option<usize>,
    wall_seconds: f64,
    throughput_rps: f64,
    errors: u64,
    stale: u64,
    client_p50_ns: u64,
    client_p95_ns: u64,
    client_p99_ns: u64,
    router_stats: Value,
    per_tenant: Vec<TenantResult>,
}

/// Multi-tenant Zipf-skewed load against an in-process fleet, optionally
/// killing a node mid-run. Gates on zero client-visible errors, and on
/// the overall client p99 when `--p99-max-ms` is given.
fn main_fleet(args: &Args, store: &std::path::Path) {
    let kill_note = match args.kill_node {
        Some(i) => format!(", killing node {i} mid-load"),
        None => String::new(),
    };
    println!(
        "loadgen: fleet of {} (replication {}), {} tenants zipf(s={}), \
         {} clients x {} requests, {}µs think time{kill_note}",
        args.fleet,
        args.replication,
        args.tenants,
        args.zipf,
        args.clients,
        args.requests,
        args.think_us,
    );
    let (mut handles, mut router, _map) = start_fleet(store, args.fleet, args.replication);
    let raddr = router.addr();

    // One estimate per tenant through the router: each lands on its ring
    // owner, replicates, and leaves the fleet warm for the timed phase.
    let fps: Vec<String> = (0..args.tenants)
        .map(|i| {
            let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 1000 + i as u64);
            let est = request(
                raddr,
                &format!(
                    "{{\"verb\":\"estimate\",\"config\":{}}}",
                    serde_json::to_string(&config).expect("config json")
                ),
            );
            assert_eq!(est.get("ok"), Some(&Value::Bool(true)), "{est:?}");
            est.get("fingerprint")
                .and_then(Value::as_str)
                .expect("fingerprint")
                .to_string()
        })
        .collect();
    let fps = Arc::new(fps);
    let zipf = Arc::new(Zipf::new(args.tenants, args.zipf));

    // With a kill scheduled, two barriers bracket it mid-run: clients
    // drain in-flight work, the main thread shuts the victim down while
    // every pooled router connection to it is idle-but-open, and clients
    // resume — phase two exercises reconnect + failover, not a clean
    // slate. Lost and duplicated responses both surface as id-echo
    // mismatches, counted as errors.
    let split = args.requests / 2;
    let start = Arc::new(Barrier::new(args.clients + 1));
    let before_kill = Arc::new(Barrier::new(args.clients + 1));
    let after_kill = Arc::new(Barrier::new(args.clients + 1));
    let threads: Vec<_> = (0..args.clients)
        .map(|c| {
            let fps = Arc::clone(&fps);
            let zipf = Arc::clone(&zipf);
            let start = Arc::clone(&start);
            let before_kill = Arc::clone(&before_kill);
            let after_kill = Arc::clone(&after_kill);
            let phased = args.kill_node.is_some();
            let (requests, think_us) = (args.requests, args.think_us);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(raddr).expect("connect");
                let _ = stream.set_nodelay(true);
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let overall = LogHistogram::new();
                let per_tenant: Vec<LogHistogram> =
                    (0..fps.len()).map(|_| LogHistogram::new()).collect();
                let mut rng = 0x10ad_6e4b ^ ((c as u64) << 20);
                let (mut errors, mut stale) = (0u64, 0u64);
                let mut response = String::new();
                start.wait();
                for r in 0..requests {
                    if phased && r == split {
                        before_kill.wait();
                        after_kill.wait();
                    }
                    let t_idx = zipf.sample(&mut rng);
                    let id = format!("c{c}-{r}");
                    let line = format!(
                        "{}\n",
                        predict_line_tagged(&fps[t_idx], SIZES[r % SIZES.len()], &id)
                    );
                    let t = Instant::now();
                    writer.write_all(line.as_bytes()).expect("write");
                    response.clear();
                    if reader.read_line(&mut response).expect("read") == 0 {
                        // Dropped connection: every response still owed
                        // to this client is lost.
                        errors += (requests - r) as u64;
                        break;
                    }
                    let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    let Ok(v) = serde_json::from_str::<Value>(response.trim_end()) else {
                        errors += 1;
                        continue;
                    };
                    let ok = v.get("ok") == Some(&Value::Bool(true));
                    let echoed = v.get("id").and_then(Value::as_str) == Some(id.as_str());
                    if ok && echoed {
                        overall.record(ns);
                        per_tenant[t_idx].record(ns);
                        if v.get("stale") == Some(&Value::Bool(true)) {
                            stale += 1;
                        }
                    } else {
                        errors += 1;
                    }
                    if think_us > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(think_us));
                    }
                }
                (overall, per_tenant, errors, stale)
            })
        })
        .collect();

    start.wait();
    let t0 = Instant::now();
    if let Some(victim) = args.kill_node {
        before_kill.wait();
        handles[victim].shutdown();
        after_kill.wait();
    }
    let overall = LogHistogram::new();
    let per_tenant: Vec<LogHistogram> = (0..args.tenants).map(|_| LogHistogram::new()).collect();
    let (mut errors, mut stale) = (0u64, 0u64);
    for t in threads {
        let (o, p, e, s) = t.join().expect("client panicked");
        overall.merge_from(&o);
        for (mine, theirs) in per_tenant.iter().zip(&p) {
            mine.merge_from(theirs);
        }
        errors += e;
        stale += s;
    }
    let wall = t0.elapsed().as_secs_f64();

    // The router and a surviving node must still render valid Prometheus
    // expositions covering the cpm_fleet_* families.
    let router_stats = request(raddr, "{\"verb\":\"stats\"}");
    let rtext = request(raddr, "{\"verb\":\"stats\",\"format\":\"text\"}");
    let rtext = rtext
        .get("text")
        .and_then(Value::as_str)
        .expect("router text stats");
    match cpm_obs::validate_exposition(rtext) {
        Ok(samples) => assert!(samples > 0, "empty router exposition"),
        Err(e) => panic!("invalid router metrics exposition: {e}"),
    }
    assert!(
        rtext.contains("cpm_fleet_router_forwards"),
        "router exposition lacks cpm_fleet_router_forwards"
    );
    let survivor = (0..args.fleet)
        .find(|i| Some(*i) != args.kill_node)
        .expect("a surviving node");
    let ntext = request(
        handles[survivor].addr(),
        "{\"verb\":\"stats\",\"format\":\"text\"}",
    );
    let ntext = ntext
        .get("text")
        .and_then(Value::as_str)
        .expect("node text stats");
    match cpm_obs::validate_exposition(ntext) {
        Ok(samples) => assert!(samples > 0, "empty node exposition"),
        Err(e) => panic!("invalid node metrics exposition: {e}"),
    }

    router.shutdown();
    for h in &mut handles {
        h.shutdown(); // idempotent, covers the killed node too
    }

    let h = overall.snapshot();
    let total = args.clients * args.requests;
    let per_tenant: Vec<TenantResult> = per_tenant
        .iter()
        .enumerate()
        .map(|(rank, hist)| {
            let s = hist.snapshot();
            TenantResult {
                rank,
                fingerprint: fps[rank].clone(),
                requests: s.count,
                p50_ns: s.quantile(0.50),
                p99_ns: s.quantile(0.99),
            }
        })
        .collect();
    let hottest = &per_tenant[0];
    println!(
        "fleet      wall={:.3}s throughput={:.0} req/s errors={errors} stale={stale} \
         client p50/p95/p99={:.1}/{:.1}/{:.1}µs hottest tenant {} reqs p99={:.1}µs",
        wall,
        (total as u64 - errors) as f64 / wall,
        h.quantile(0.50) as f64 / 1e3,
        h.quantile(0.95) as f64 / 1e3,
        h.quantile(0.99) as f64 / 1e3,
        hottest.requests,
        hottest.p99_ns as f64 / 1e3,
    );

    let report = FleetReport {
        fleet: args.fleet,
        replication: args.replication,
        tenants: args.tenants,
        zipf: args.zipf,
        clients: args.clients,
        requests_per_client: args.requests,
        think_us: args.think_us,
        killed_node: args.kill_node,
        wall_seconds: wall,
        throughput_rps: (total as u64 - errors) as f64 / wall,
        errors,
        stale,
        client_p50_ns: h.quantile(0.50),
        client_p95_ns: h.quantile(0.95),
        client_p99_ns: h.quantile(0.99),
        router_stats,
        per_tenant,
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| cpm_bench::results_dir().join("fleet_load.json"));
    write_report(&out, &report);

    if errors > 0 {
        eprintln!("FAIL: {errors} client-visible errors (want 0)");
        std::process::exit(1);
    }
    println!("ok: zero client-visible errors across {total} requests");
    if args.kill_node.is_some() && stale == 0 {
        eprintln!("FAIL: node killed but no stale-flagged responses — failover never engaged");
        std::process::exit(1);
    }
    if let Some(max_ms) = args.p99_max_ms {
        let p99_ms = h.quantile(0.99) as f64 / 1e6;
        if p99_ms > max_ms {
            eprintln!("FAIL: client p99 {p99_ms:.2}ms exceeds {max_ms:.2}ms");
            std::process::exit(1);
        }
        println!("ok: client p99 {p99_ms:.2}ms <= {max_ms:.2}ms");
    }
}

/// Fleet distributed-tracing smoke: spin up an in-process fleet plus
/// router, send one estimate carrying an explicit trace context through
/// the router, dump the fleet-wide flight-recorder merge from the
/// router, and assert the merged Chrome trace contains spans reported by
/// at least two distinct nodes linked by that trace id. Panics (exit
/// code != 0) on any violated expectation — the CI smoke gate.
fn main_trace_fleet(nodes: usize, store: &std::path::Path) {
    assert!(nodes >= 2, "--trace-fleet needs at least 2 nodes");
    println!("loadgen: fleet trace smoke over {nodes} nodes + router");
    let (mut handles, mut router, _map) = start_fleet(store, nodes, 2.min(nodes));
    let raddr = router.addr();

    let trace_id = "00000000c0ffee42";
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), 4242);
    let est = request(
        raddr,
        &format!(
            "{{\"ctx\":{{\"trace\":\"{trace_id}\",\"parent\":\"0000000000000001\"}},\
             \"verb\":\"estimate\",\"config\":{},\"id\":\"trace-smoke\"}}",
            serde_json::to_string(&config).expect("config json")
        ),
    );
    assert_eq!(est.get("ok"), Some(&Value::Bool(true)), "{est:?}");

    let dump = request(raddr, "{\"verb\":\"trace\"}");
    assert_eq!(dump.get("ok"), Some(&Value::Bool(true)), "{dump:?}");
    let merged = dump
        .get("nodes")
        .and_then(Value::as_u64)
        .expect("router trace response carries a fleet merge");
    assert!(
        merged as usize > nodes,
        "merge covers the router and all {nodes} members, got {merged}"
    );
    if let Some(Value::Seq(missing)) = dump.get("missing") {
        assert!(missing.is_empty(), "unreachable members: {missing:?}");
    }
    let events = match dump.get("trace").and_then(|t| t.get("traceEvents")) {
        Some(Value::Seq(events)) => events,
        other => panic!("merged trace lacks traceEvents: {other:?}"),
    };
    let mut span_nodes = std::collections::BTreeSet::new();
    for e in events {
        let args = e.get("args");
        if args.and_then(|a| a.get("trace")).and_then(Value::as_str) == Some(trace_id) {
            if let Some(node) = args.and_then(|a| a.get("node")).and_then(Value::as_str) {
                span_nodes.insert(node.to_string());
            }
        }
    }
    assert!(
        span_nodes.len() >= 2,
        "traced spans must come from >=2 distinct nodes, got {span_nodes:?}"
    );

    router.shutdown();
    for h in &mut handles {
        h.shutdown();
    }
    println!(
        "ok: merged {merged} recorders; trace {trace_id} spans on {} nodes: {}",
        span_nodes.len(),
        span_nodes.into_iter().collect::<Vec<_>>().join(", ")
    );
}

fn main() {
    let args = parse_args();
    let store = std::env::temp_dir().join(format!("cpm-loadgen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    if let Some(nodes) = args.trace_fleet {
        main_trace_fleet(nodes, &store);
    } else if args.tenants > 0 {
        main_fleet(&args, &store);
    } else {
        main_serve(&args, &store);
    }
    let _ = std::fs::remove_dir_all(&store);
}
