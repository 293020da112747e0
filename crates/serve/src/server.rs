//! The TCP server over [`Service`]: the protocol seam ([`LineHandler`])
//! plugged into the one serving engine, the `cpm-reactor` event loop.
//!
//! `workers` epoll event-loop shards multiplex *all* connections, with
//! pipelined in-order request handling and write-buffer backpressure —
//! hundreds of mostly-idle clients cost a few file descriptors, not
//! threads. Everything about the wire lives in `cpm-reactor` and nowhere
//! else: a connection negotiates its framing by its first byte (anything
//! but `0x00` is JSON lines, `0x00` selects the binary length-prefixed
//! framing, see `cpm_reactor::frame`); requests are bounded at
//! [`MAX_LINE`]; a connection that delivers no *complete* request for
//! the idle timeout ([`DEFAULT_IDLE_TIMEOUT`], anti-slowloris) is closed.
//! Errors are isolated per request and per connection: a malformed
//! request or a panicking handler gets an `{"ok": false}` response, an
//! I/O error drops only that connection.
//!
//! A shard answers its connections' requests one at a time, so a request
//! that computes for long — a cold `estimate`, a `des`-fidelity `plan` —
//! occupies its shard for its duration and the other connections of that
//! shard wait behind it (the other shards keep serving). That is the
//! whole head-of-line story; there is no offload pool.
//!
//! Shutdown — via the `shutdown` verb or [`ServerHandle::shutdown`] — is
//! graceful and deterministic: no new connections are admitted, every
//! request whose bytes already reached the server is fully processed and
//! its response written, then connections close and every shard thread
//! is joined before the listener drops. [`ServerHandle`] is the
//! reactor's own running-handle plus the [`Service`]; the fleet router's
//! handle is the same type without the service.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use cpm_reactor::Telemetry;

use crate::protocol::{envelope, Answer, Fields, Response};
use crate::registry::Result;
use crate::service::{Metrics, Service, Verb};

/// One serving layer: the core protocol over [`Service`], or an extension
/// wrapped around the layer below it (cpm-drift's verbs, a fleet node's).
/// A layer implements [`LineHandler::answer`] and keeps the default
/// [`LineHandler::handle_line`], the one request envelope (see
/// [`crate::protocol`]).
pub trait LineHandler: Send + Sync + 'static {
    /// Produces the response line (no trailing newline) for `line`, and
    /// whether the server should begin a graceful shutdown afterwards.
    fn handle_line(&self, line: &str) -> (String, bool) {
        envelope(self, line)
    }

    /// Answers one scanned request whose verb is `verb`, streaming the
    /// answer's fields into `w` (whose `"ok"` head is written), or hands
    /// it to the layer below.
    fn answer(&self, verb: Verb, fields: &Fields, w: &mut Response) -> Answer;

    /// The metrics the envelope times each verb into.
    fn metrics(&self) -> &Metrics;
}

/// Default number of event-loop shards.
pub const DEFAULT_WORKERS: usize = 8;

/// Default idle-connection timeout: a connection that has not delivered
/// a *complete* request in this long is closed. Trickling bytes without
/// finishing a request (slowloris) does not reset the clock.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on one request, bytes (the line without its newline, or
/// the binary frame's payload): the reactor's own limit, under the name
/// the protocol layer knows it by. A longer request gets a structured
/// protocol error instead of growing the connection's buffer without
/// bound, and the connection stays open.
pub const MAX_LINE: usize = cpm_reactor::frame::MAX_PAYLOAD;

/// The serving engine. There is one; this enum and [`Server::engine`]
/// remain only because `benchmark/` (which a PR may not edit alongside
/// other code) still names them, and go with the next benchmark PR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The sharded epoll event loop (`cpm-reactor`).
    Reactor,
}

/// A bound server, not yet running. Call [`Server::spawn`] to start the
/// event loop. Dropping a [`ServerHandle`] stops the server.
pub struct Server {
    service: Arc<Service>,
    handler: Arc<dyn LineHandler>,
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    idle_timeout: Option<Duration>,
}

/// Controls a server running on background threads: the reactor's
/// running-handle, plus the service behind the server.
pub struct ServerHandle {
    running: cpm_reactor::Running,
    service: Arc<Service>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port), speaking the
    /// core protocol on [`DEFAULT_WORKERS`] shards.
    pub fn bind(service: Arc<Service>, addr: &str) -> Result<Server> {
        let handler: Arc<dyn LineHandler> = Arc::clone(&service) as Arc<dyn LineHandler>;
        Self::bind_with(service, handler, addr)
    }

    /// Binds with a custom line handler (extended verb vocabulary).
    /// `service` is still carried for [`ServerHandle::service`].
    pub fn bind_with(
        service: Arc<Service>,
        handler: Arc<dyn LineHandler>,
        addr: &str,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Self::from_listener(service, handler, listener)
    }

    /// Builds a server over an already-bound listener. Fleet start-up
    /// needs this: every node's address must be known (to build the
    /// shard map each node's handler embeds) before any handler can be
    /// constructed, so the listeners are bound first and handed over.
    pub fn from_listener(
        service: Arc<Service>,
        handler: Arc<dyn LineHandler>,
        listener: TcpListener,
    ) -> Result<Server> {
        let addr = listener.local_addr()?;
        Ok(Server {
            service,
            handler,
            listener,
            addr,
            workers: DEFAULT_WORKERS,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
        })
    }

    /// Sets how many event-loop shards (threads) multiplex the
    /// connections. Clamped to at least 1.
    pub fn workers(mut self, workers: usize) -> Server {
        self.workers = workers.max(1);
        self
    }

    /// Does nothing: see [`Engine`].
    pub fn engine(self, _: Engine) -> Server {
        self
    }

    /// Sets the idle-connection timeout (default:
    /// [`DEFAULT_IDLE_TIMEOUT`]); `None` disables it. The clock resets
    /// only when a complete request arrives, so a trickling sender
    /// (slowloris) is still closed.
    pub fn idle_timeout(mut self, idle: Option<Duration>) -> Server {
        self.idle_timeout = idle;
        self
    }

    /// The bound address (resolves the actual port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the event loop on background threads and returns a handle.
    ///
    /// # Panics
    /// Panics when the kernel refuses the reactor its epoll instances or
    /// eventfds (descriptor exhaustion at start-up): there is no server
    /// to hand back.
    pub fn spawn(self) -> ServerHandle {
        let metrics = self.service.metrics();
        let telemetry = Telemetry {
            connections_active: Some(metrics.connections_active().clone()),
            frames_json: Some(metrics.frames_json().clone()),
            frames_binary: Some(metrics.frames_binary().clone()),
        };
        let cfg = cpm_reactor::Config {
            shards: self.workers,
            idle_timeout: self.idle_timeout,
            ..cpm_reactor::Config::default()
        };
        let handler: Arc<dyn cpm_reactor::Handler> = Arc::new(ReactorLines(self.handler));
        let running = cpm_reactor::spawn(self.listener, handler, cfg, telemetry)
            .expect("start the reactor (epoll and eventfd creation)");
        ServerHandle {
            running,
            service: self.service,
        }
    }
}

/// Adapts the serve-layer [`LineHandler`] to the reactor's
/// payload-handler seam.
struct ReactorLines(Arc<dyn LineHandler>);

impl cpm_reactor::Handler for ReactorLines {
    fn handle(&self, payload: &str) -> (String, bool) {
        self.0.handle_line(payload)
    }
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.running.addr()
    }

    /// The service behind the server (shared).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Requests a graceful shutdown and blocks until every shard has
    /// drained and been joined. Idempotent.
    pub fn shutdown(&mut self) {
        self.running.shutdown();
    }

    /// Waits for the server to stop on its own (e.g. a `shutdown` verb).
    pub fn join(&mut self) {
        self.running.join();
    }
}
