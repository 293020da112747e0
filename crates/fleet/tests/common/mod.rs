//! Shared scaffolding for the fleet integration tests: spin a real
//! N-node fleet (TCP servers with FleetNode handlers) plus helpers to
//! talk JSON-lines to any address.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_estimate::EstimateConfig;
use cpm_fleet::{FleetMap, FleetNode};
use cpm_reactor::ClientConfig;
use cpm_serve::{LineHandler, Server, ServerHandle, Service, ServiceConfig};
use serde_json::Value;

/// Service config tuned for tests: one estimation repetition, seeded.
pub fn test_service_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        est: EstimateConfig {
            reps: 1,
            ..EstimateConfig::with_seed(seed)
        },
        ..ServiceConfig::default()
    }
}

/// A unique temp dir for one test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpm-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running in-process fleet.
pub struct Fleet {
    /// One handle per node, in map order. Shut one down to "kill" it.
    pub handles: Vec<ServerHandle>,
    /// The shared topology.
    pub map: FleetMap,
    /// Each node's service, for direct inspection.
    pub services: Vec<Arc<Service>>,
}

impl Fleet {
    /// The address of node `i`.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.handles[i].addr()
    }

    /// The node index of a member name.
    pub fn index_of(&self, name: &str) -> usize {
        self.map
            .nodes
            .iter()
            .position(|n| n.name == name)
            .expect("member name")
    }
}

/// Binds `n` listeners first (so every address is known), then starts
/// each node with a [`FleetNode`] handler over its own store.
pub fn start_fleet(tmp: &Path, n: usize, replication: usize) -> Fleet {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect();
    let map = FleetMap::new(&addrs, replication, 64);
    let mut handles = Vec::new();
    let mut services = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let service = Arc::new(
            Service::open(
                tmp.join(format!("node-{i}")),
                test_service_cfg(11 + i as u64),
            )
            .expect("open service"),
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
        let server = Server::from_listener(Arc::clone(&service), node, listener)
            .expect("server")
            .workers(2);
        services.push(service);
        handles.push(server.spawn());
    }
    Fleet {
        handles,
        map,
        services,
    }
}

/// A persistent JSON-lines client connection.
pub struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        LineClient { stream, reader }
    }

    /// One request/response round trip.
    pub fn call(&mut self, line: &str) -> Value {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read");
        serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }
}

/// One-shot request to `addr`.
pub fn request(addr: SocketAddr, line: &str) -> Value {
    LineClient::connect(addr).call(line)
}

/// A deterministic tenant: a small ideal cluster config and its
/// fingerprint.
pub fn tenant(seed: u64) -> (ClusterConfig, String) {
    let config = ClusterConfig::ideal(ClusterSpec::homogeneous(4), seed);
    let fp = cpm_serve::fingerprint(&config);
    (config, fp)
}

/// Compact (single-line) JSON for a config — `to_json()` pretty-prints,
/// which JSON-lines framing would split at the first newline.
pub fn config_json(config: &ClusterConfig) -> String {
    serde_json::to_string(config).expect("config json")
}

/// Finds a tenant whose leader is the given member name.
pub fn tenant_led_by(map: &FleetMap, leader: &str) -> (ClusterConfig, String) {
    let ring = map.ring();
    for seed in 100..10_000 {
        let (config, fp) = tenant(seed);
        if ring.primary(&fp) == Some(leader) {
            return (config, fp);
        }
    }
    panic!("no tenant led by {leader} in seed range");
}

/// `true` if the response says ok.
pub fn is_ok(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(true))
}
