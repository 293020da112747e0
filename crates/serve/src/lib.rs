//! # cpm-serve
//!
//! A concurrent prediction service.
//!
//! Content-addresses cluster specifications into a persistent parameter
//! registry, serves batched predictions from an estimate-once cache, and
//! exposes the whole pipeline over a JSON-lines (or length-prefixed
//! binary) TCP protocol served by the `cpm-reactor` event loop.
//!
//! Layering:
//!
//! - [`registry`] — stable fingerprints for [`cpm_cluster::ClusterConfig`]
//!   and a versioned on-disk store of estimated [`registry::ParamSet`]s;
//! - [`service`] — the estimate-once prediction service: sharded LRU cache,
//!   single-flight estimation dedup, service metrics with per-verb latency
//!   histograms, and the verb table ([`Verb`]): every wire verb declared
//!   once, with how the router treats it, whether a batch may carry it
//!   and which cluster key it takes;
//! - [`protocol`] — the JSON-lines request/response vocabulary and the one
//!   request envelope every serving layer shares, including the `batch`
//!   verb (many requests per round trip) and the extended `stats` verb
//!   (latency quantiles, text exposition);
//! - [`server`] — the TCP server: the protocol seam ([`LineHandler`])
//!   on the `cpm-reactor` epoll event loop (all connections multiplexed
//!   over `workers` shards, pipelined, backpressured), which negotiates
//!   JSON-lines or binary length-prefixed framing from the connection's
//!   first byte, enforces the request size bound and an idle-connection
//!   timeout, isolates errors per request and per connection, and drains
//!   gracefully on shutdown.

#![warn(missing_docs)]

pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;

pub use protocol::{
    handle_line, id_tag, obj, parse_request, Answer, BatchItem, Fields, Request, Response,
    MAX_BATCH,
};
pub use registry::{
    fingerprint, fingerprint_json, Lineage, ParamSet, Registry, ResidualSummary, Result,
    ServeError, FORMAT_VERSION, HISTORY_RING,
};
pub use server::{
    Engine, LineHandler, Server, ServerHandle, DEFAULT_IDLE_TIMEOUT, DEFAULT_WORKERS, MAX_LINE,
};
pub use service::{
    Algorithm, ClusterKey, ClusterRef, Collective, Fidelity, Layer, Metrics, MetricsSnapshot,
    ModelKind, PlannedWorkload, Prediction, PublishHook, Query, Route, Service, ServiceConfig,
    Verb, VERBS,
};
