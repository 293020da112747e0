//! Serving the router on the reactor engine.
//!
//! The router is pure request/response state, so it plugs straight
//! into the reactor's [`cpm_reactor::Handler`] seam and gets both wire
//! framings (JSON-lines and length-prefixed binary), pipelining, and
//! idle reaping for free — the same engine the nodes themselves run on.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use crate::router::Router;

/// Controls a router serving on background threads: the reactor's own
/// running-handle (`addr`, `shutdown`, `join`). Dropping it stops the
/// router.
pub type RouterHandle = cpm_reactor::Running;

/// Starts `router` on the reactor over `listener` with `shards`
/// event-loop threads. Connection and frame telemetry lands in the
/// router's own metrics registry (`cpm_fleet_router_connections`,
/// `cpm_fleet_router_frames{format}`).
pub fn serve_router(
    listener: TcpListener,
    router: Arc<Router>,
    shards: usize,
    idle_timeout: Option<Duration>,
) -> io::Result<RouterHandle> {
    let registry = router.registry();
    let telemetry = cpm_reactor::Telemetry {
        connections_active: Some(registry.gauge(
            "cpm_fleet_router_connections",
            "Open client connections on the router",
            &[],
        )),
        frames_json: Some(registry.counter(
            "cpm_fleet_router_frames",
            "Requests handled by the router, by wire format",
            &[("format", "json")],
        )),
        frames_binary: Some(registry.counter(
            "cpm_fleet_router_frames",
            "Requests handled by the router, by wire format",
            &[("format", "binary")],
        )),
    };
    let cfg = cpm_reactor::Config {
        shards,
        idle_timeout,
        ..cpm_reactor::Config::default()
    };
    cpm_reactor::spawn(listener, router, cfg, telemetry)
}
