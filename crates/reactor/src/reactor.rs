//! The sharded event loop: N shards, each one thread running one epoll
//! instance, multiplexing its share of the connections.
//!
//! Shard 0 additionally owns the (non-blocking, edge-triggered)
//! listener and runs the **shared accept loop**: accepted sockets are
//! dealt round-robin across shards, crossing threads through a mutexed
//! hand-off queue plus an eventfd wake. Every other wake-up is also an
//! eventfd: shutdown (the `stop` flag raised by a handled request or by
//! [`Running::shutdown`]) and connection hand-off share the same waker.
//!
//! Shutdown drains: no new connection is admitted, each shard answers
//! every request whose bytes it has already received, flushes the
//! responses (reverting the socket to blocking with a bounded write
//! timeout so a stalled peer cannot wedge the drain), and only then
//! closes.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conn::{Conn, Status};
use crate::frame::MAX_PAYLOAD;
use crate::poll::{Events, Interest, Poll, Token};
use crate::sys::EventFd;
use crate::Handler;

/// Tuning for a [`spawn`] call.
#[derive(Clone)]
pub struct Config {
    /// Event-loop shards (threads). Clamped to at least 1.
    pub shards: usize,
    /// Close a connection when no complete request arrives within this
    /// window. `None` disables the idle timeout.
    pub idle_timeout: Option<Duration>,
    /// Upper bound on one request payload, bytes.
    pub max_payload: usize,
    /// Write-buffer backpressure cap per connection, bytes: past this,
    /// the connection stops reading until the buffer drains.
    pub write_cap: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            shards: 1,
            idle_timeout: Some(Duration::from_secs(30)),
            max_payload: MAX_PAYLOAD,
            write_cap: 4 << 20,
        }
    }
}

/// Optional metric handles the reactor keeps honest while serving.
/// All handles come from the caller's unified registry.
#[derive(Clone, Default)]
pub struct Telemetry {
    /// Gauge of currently open client connections.
    pub connections_active: Option<cpm_obs::Gauge>,
    /// Counter of JSON-lines frames handled.
    pub frames_json: Option<cpm_obs::Counter>,
    /// Counter of binary frames handled.
    pub frames_binary: Option<cpm_obs::Counter>,
}

impl Telemetry {
    fn conn_opened(&self) {
        if let Some(g) = &self.connections_active {
            g.inc();
        }
    }

    fn conn_closed(&self) {
        if let Some(g) = &self.connections_active {
            g.dec();
        }
    }

    fn frames(&self, counts: crate::conn::FrameCounts) {
        if counts.json > 0 {
            if let Some(c) = &self.frames_json {
                c.add(counts.json);
            }
        }
        if counts.binary > 0 {
            if let Some(c) = &self.frames_binary {
                c.add(counts.binary);
            }
        }
    }
}

/// Cross-thread face of one shard: its waker and hand-off queue.
struct ShardShared {
    waker: EventFd,
    inject: Mutex<Vec<TcpStream>>,
}

const TOKEN_WAKER: Token = Token(0);
const TOKEN_LISTENER: Token = Token(1);
const TOKEN_CONN_BASE: u64 = 2;

/// Longest a shard sleeps in `epoll_wait` with nothing scheduled: the
/// fallback tick that notices a raised stop flag even if every waker
/// signal were lost.
const FALLBACK_TICK: Duration = Duration::from_millis(500);

/// How long the shutdown drain will block per connection flushing its
/// final responses before giving up on that peer.
const DRAIN_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Raises the stop flag and signals every shard's waker, so each event
/// loop leaves `epoll_wait` at once and drains.
fn signal_stop(stop: &AtomicBool, shared: &[ShardShared]) {
    stop.store(true, Ordering::SeqCst);
    for s in shared {
        s.waker.wake();
    }
}

/// A reactor serving on background threads. Dropping it stops the
/// reactor.
pub struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<Vec<ShardShared>>,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop and blocks until every shard has drained
    /// and been joined. Idempotent.
    pub fn shutdown(&mut self) {
        signal_stop(&self.stop, &self.shared);
        self.join();
    }

    /// Waits for the reactor to stop on its own (a handled request that
    /// asked for shutdown), without initiating a stop.
    pub fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the reactor over `listener` on `cfg.shards` background
/// threads, one event loop each. Everything that can fail (the epoll
/// instances, the wakers, the listener registration) is set up before
/// the first thread starts, so an `Ok` means every shard is serving. A
/// handled request returning shutdown stops the reactor from inside;
/// [`Running::shutdown`] stops it from outside.
pub fn spawn(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    cfg: Config,
    telemetry: Telemetry,
) -> std::io::Result<Running> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared: Arc<Vec<ShardShared>> = Arc::new(
        (0..cfg.shards.max(1))
            .map(|_| {
                Ok(ShardShared {
                    waker: EventFd::new()?,
                    inject: Mutex::new(Vec::new()),
                })
            })
            .collect::<std::io::Result<_>>()?,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mut listener = Some(listener); // shard 0 takes it
    let mut shards = (0..shared.len())
        .map(|id| {
            Shard::new(
                id,
                listener.take(),
                Arc::clone(&handler),
                cfg.clone(),
                telemetry.clone(),
                Arc::clone(&shared),
                Arc::clone(&stop),
            )
        })
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter();
    let first = shards.next().expect("at least one shard");
    let thread = {
        let (stop, shared) = (Arc::clone(&stop), Arc::clone(&shared));
        std::thread::spawn(move || {
            let helpers: Vec<_> = shards
                .map(|shard| {
                    std::thread::spawn(move || {
                        let _ = shard.run();
                    })
                })
                .collect();
            // Shard 0 only exits on stop (or a failed `epoll_wait`, which
            // ends serving just the same): make sure the helpers see it,
            // and join them before this thread's exit reports "stopped".
            let _ = first.run();
            signal_stop(&stop, &shared);
            for h in helpers {
                let _ = h.join();
            }
        })
    };
    Ok(Running {
        addr,
        stop,
        shared,
        thread: Some(thread),
    })
}

struct Shard {
    id: usize,
    listener: Option<TcpListener>,
    handler: Arc<dyn Handler>,
    cfg: Config,
    telemetry: Telemetry,
    shared: Arc<Vec<ShardShared>>,
    stop: Arc<AtomicBool>,
    poll: Poll,
    conns: Vec<Option<Conn<TcpStream>>>,
    free: Vec<usize>,
    /// Round-robin cursor for accept distribution (shard 0 only).
    next_shard: usize,
}

impl Shard {
    fn new(
        id: usize,
        listener: Option<TcpListener>,
        handler: Arc<dyn Handler>,
        cfg: Config,
        telemetry: Telemetry,
        shared: Arc<Vec<ShardShared>>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<Shard> {
        let poll = Poll::new()?;
        poll.register(shared[id].waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        if let Some(l) = &listener {
            poll.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        }
        Ok(Shard {
            id,
            listener,
            handler,
            cfg,
            telemetry,
            shared,
            stop,
            poll,
            conns: Vec::new(),
            free: Vec::new(),
            next_shard: 0,
        })
    }

    fn run(mut self) -> std::io::Result<()> {
        let mut events = Events::with_capacity(256);
        loop {
            let timeout = self.next_timeout();
            self.poll.poll(&mut events, Some(timeout))?;
            let mut stop_requested = false;
            for ev in events.iter() {
                match ev.token() {
                    TOKEN_WAKER => {
                        self.shared[self.id].waker.drain();
                        self.adopt_injected(&mut stop_requested);
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    Token(t) => {
                        let idx = (t - TOKEN_CONN_BASE) as usize;
                        self.drive(idx, &mut stop_requested);
                    }
                }
            }
            // A waker signal can race ahead of the event: adopt
            // stragglers opportunistically so none wait a full tick.
            self.adopt_injected(&mut stop_requested);
            if stop_requested {
                signal_stop(&self.stop, &self.shared);
            }
            if self.stop.load(Ordering::SeqCst) {
                self.drain_all();
                return Ok(());
            }
            self.sweep_idle();
        }
    }

    /// The poll timeout: time until the nearest idle deadline, capped
    /// by the fallback tick.
    fn next_timeout(&self) -> Duration {
        let Some(idle) = self.cfg.idle_timeout else {
            return FALLBACK_TICK;
        };
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .map(|c| {
                (c.last_request + idle)
                    .checked_duration_since(now)
                    .unwrap_or(Duration::ZERO)
            })
            .min()
            .unwrap_or(FALLBACK_TICK)
            .min(FALLBACK_TICK)
    }

    /// Accepts until `WouldBlock`, dealing connections round-robin.
    fn accept_burst(&mut self) {
        let stopping = self.stop.load(Ordering::SeqCst);
        loop {
            let Some(l) = &self.listener else { return };
            match l.accept() {
                Ok((stream, _)) => {
                    if stopping {
                        continue; // refused: dropped here, closed
                    }
                    let target = self.next_shard % self.shared.len();
                    self.next_shard = self.next_shard.wrapping_add(1);
                    if target == self.id {
                        self.register(stream);
                    } else {
                        self.shared[target].inject.lock().unwrap().push(stream);
                        self.shared[target].waker.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED, EMFILE burst):
                // drop the attempt, keep serving.
                Err(_) => return,
            }
        }
    }

    /// Pulls handed-off connections from this shard's inject queue.
    fn adopt_injected(&mut self, stop_requested: &mut bool) {
        let streams = std::mem::take(&mut *self.shared[self.id].inject.lock().unwrap());
        for stream in streams {
            let idx = self.register(stream);
            // A freshly-registered edge-triggered socket reports no
            // prior edge; drive it once so already-buffered bytes (a
            // fast client may have written immediately) are served.
            if let Some(idx) = idx {
                self.drive(idx, stop_requested);
            }
        }
    }

    /// Registers one accepted stream; returns its slab index.
    fn register(&mut self, stream: TcpStream) -> Option<usize> {
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = Token(TOKEN_CONN_BASE + idx as u64);
        if self
            .poll
            .register(fd, token, Interest::READABLE.or(Interest::WRITABLE))
            .is_err()
        {
            self.free.push(idx);
            return None;
        }
        self.conns[idx] = Some(Conn::new(stream, self.cfg.max_payload, self.cfg.write_cap));
        self.telemetry.conn_opened();
        Some(idx)
    }

    /// Runs one connection's readiness pass; closes it on error/EOF.
    fn drive(&mut self, idx: usize, stop_requested: &mut bool) {
        let handler = Arc::clone(&self.handler);
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return; // stale event for an already-closed slot
        };
        let status = conn.on_ready(handler.as_ref(), stop_requested);
        let frames = conn.take_frames();
        self.telemetry.frames(frames);
        match status {
            Ok(Status::Open) => {}
            // Per-connection isolation: an I/O error kills only this
            // connection.
            Ok(Status::Closed) | Err(_) => self.close(idx),
        }
    }

    fn close(&mut self, idx: usize) {
        if self.conns[idx].take().is_some() {
            // Dropping the TcpStream closes the fd, which the kernel
            // also deregisters from epoll.
            self.free.push(idx);
            self.telemetry.conn_closed();
        }
    }

    /// Closes every connection whose idle deadline has passed.
    fn sweep_idle(&mut self) {
        let Some(idle) = self.cfg.idle_timeout else {
            return;
        };
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let timed_out = self.conns[idx]
                .as_ref()
                .is_some_and(|c| now.duration_since(c.last_request) >= idle);
            if timed_out {
                cpm_obs::instant("reactor.idle_close", "shard", self.id as u64);
                self.close(idx);
            }
        }
    }

    /// Stop-time drain: answer every fully-received request, flush the
    /// responses (blocking, bounded), close everything.
    fn drain_all(&mut self) {
        // Connections still in the hand-off queue were never served;
        // dropping them is the same contract as the acceptor refusing
        // connections after stop.
        self.shared[self.id].inject.lock().unwrap().clear();
        let handler = Arc::clone(&self.handler);
        let telemetry = self.telemetry.clone();
        let mut ignored = false;
        for idx in 0..self.conns.len() {
            if let Some(conn) = self.conns[idx].as_mut() {
                let pending = conn.drain(handler.as_ref(), &mut ignored);
                telemetry.frames(conn.take_frames());
                if pending {
                    // Final flush outside the event loop: blocking with
                    // a bounded timeout so one wedged peer cannot hang
                    // shutdown.
                    let sock = conn.sock_mut();
                    let _ = sock.set_nonblocking(false);
                    let _ = sock.set_write_timeout(Some(DRAIN_WRITE_TIMEOUT));
                    let _ = conn.drain(handler.as_ref(), &mut ignored);
                }
                self.close(idx);
            }
        }
    }
}
