//! cpm-reactor: the dependency-free epoll event loop every cpm server
//! runs on (`cpm serve` nodes and the fleet router alike).
//!
//! A thread per live connection makes a few dozen mostly-idle clients
//! the bottleneck, not the model evaluation. This crate multiplexes
//! every connection over a handful of event-loop shards instead:
//!
//! * [`sys`] — raw `epoll`/`eventfd` syscall bindings (the workspace
//!   builds offline, so no `libc`/`mio`; the handful of entry points
//!   are declared `extern "C"` and wrapped in owning types).
//! * [`poll`] — a mio-style [`Poll`]/[`Token`]/[`Interest`] readiness
//!   API, edge-triggered.
//! * [`frame`] — wire framing: JSON-lines or length-prefixed binary
//!   frames, negotiated per connection by the first byte
//!   ([`frame::BINARY_PREAMBLE`]).
//! * [`conn`] — the per-connection state machine: non-blocking reads,
//!   pipelined in-order request handling, write-buffer backpressure.
//! * [`reactor`] — the sharded event loop itself: shared accept,
//!   round-robin connection hand-off, idle-timeout sweep, graceful
//!   drain on shutdown; [`spawn`] starts it and returns the
//!   [`Running`] handle (`addr`, `shutdown`, `join`, stop on drop) that
//!   `cpm_serve::ServerHandle` and `cpm_fleet::RouterHandle` both are.
//! * [`client`] — the other end of the wire: blocking framed
//!   [`ClientConn`]s and a per-upstream [`ClientPool`], used by the
//!   fleet router to forward requests over pooled connections.
//!
//! The engine is protocol-agnostic: it hands each decoded request
//! payload to a [`Handler`] and writes back whatever the handler
//! returns, re-encoded in the connection's negotiated framing.
//! `cpm-serve` plugs its line handler (request-id propagation,
//! `serve.request` spans, per-verb latency histograms) straight in. A
//! handler that panics costs its own request (answered
//! `{"ok":false,"error":"internal error"}`), not the shard.

pub mod client;
pub mod conn;
pub mod frame;
pub mod poll;
pub mod reactor;
pub mod sys;

pub use client::{ClientConfig, ClientConn, ClientPool};
pub use conn::{Conn, FrameCounts, Status};
pub use frame::{encode_request, encode_response, Decoder, Framing, Msg, BINARY_PREAMBLE};
pub use poll::{Event, Events, Interest, Poll, Token};
pub use reactor::{spawn, Config, Running, Telemetry};

/// Answers one request payload. The reactor calls this from shard
/// threads, pipelined and in order per connection.
///
/// Returns the response payload and a shutdown flag: `true` asks the
/// whole server to stop (after draining).
pub trait Handler: Send + Sync + 'static {
    /// Handles one request, returning `(response, shutdown)`.
    fn handle(&self, payload: &str) -> (String, bool);
}

impl<F> Handler for F
where
    F: Fn(&str) -> (String, bool) + Send + Sync + 'static,
{
    fn handle(&self, payload: &str) -> (String, bool) {
        self(payload)
    }
}
