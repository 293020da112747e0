//! The per-connection state machine.
//!
//! A [`Conn`] owns one non-blocking socket and drives it through the
//! readiness protocol: read until `WouldBlock`, decode complete frames
//! ([`crate::frame`]), answer each through the [`Handler`], buffer the
//! responses, and write until `WouldBlock`. Requests are **pipelined**:
//! however many arrive in one readable burst are parsed and answered in
//! order, their responses coalescing into one write buffer (typically
//! one syscall for the whole burst).
//!
//! Backpressure: once the write buffer exceeds the configured cap the
//! connection stops reading and decoding until a writable event drains
//! it below the cap again, so a slow-reading client cannot balloon the
//! server's memory by pipelining requests faster than it consumes
//! responses.
//!
//! The type is generic over `S: Read + Write` so tests can script
//! arbitrary partial reads and writes; production uses `TcpStream`.

use std::io::{ErrorKind, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::frame::{encode_response, Decoder, Framing, Msg};
use crate::Handler;

/// What a readiness pass left the connection in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Keep the registration; more events will drive it.
    Open,
    /// Done (clean EOF, fatal protocol fault, or fully drained close):
    /// drop the connection.
    Closed,
}

/// Frames handled since the last [`Conn::take_frames`], per framing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCounts {
    /// JSON-lines requests answered.
    pub json: u64,
    /// Binary frames answered.
    pub binary: u64,
}

/// One connection's full state: socket, decoder, write buffer.
pub struct Conn<S> {
    sock: S,
    dec: Decoder,
    max_payload: usize,
    write_cap: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Flush what is buffered, then close (EOF seen or fault).
    closing: bool,
    /// When the last complete request was decoded (idle-timeout basis).
    pub last_request: Instant,
    frames: FrameCounts,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a non-blocking socket in a fresh (negotiating) connection.
    pub fn new(sock: S, max_payload: usize, write_cap: usize) -> Conn<S> {
        Conn {
            sock,
            dec: Decoder::new(max_payload),
            max_payload,
            write_cap,
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            last_request: Instant::now(),
            frames: FrameCounts::default(),
        }
    }

    /// Bytes buffered for write but not yet accepted by the socket.
    pub fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Takes (and resets) the per-framing handled-frame counts.
    pub fn take_frames(&mut self) -> FrameCounts {
        std::mem::take(&mut self.frames)
    }

    /// The socket, e.g. to reach `TcpStream` configuration at drain.
    pub fn sock_mut(&mut self) -> &mut S {
        &mut self.sock
    }

    /// Drives the connection as far as readiness allows: flush, read,
    /// decode, handle, repeat until nothing progresses. Sets `stop`
    /// (without clearing it) if a handled request asked for server
    /// shutdown. An `Err` means the connection is broken — callers drop
    /// it; the error never crosses to other connections.
    pub fn on_ready(&mut self, handler: &dyn Handler, stop: &mut bool) -> std::io::Result<Status> {
        loop {
            let mut progress = self.flush()? > 0;
            if self.closing {
                if self.pending_write() == 0 {
                    return Ok(Status::Closed);
                }
                if !progress {
                    return Ok(Status::Open); // writable event will resume
                }
                continue;
            }
            if self.pending_write() <= self.write_cap {
                let (n, eof) = self.fill()?;
                progress |= n > 0;
                if eof {
                    // Answer every fully-received request, then close.
                    self.closing = true;
                }
                progress |= self.process(handler, stop);
                if self.closing {
                    continue;
                }
            }
            if !progress {
                return Ok(Status::Open);
            }
        }
    }

    /// A final, stop-time pass: handle whatever complete frames are
    /// already buffered (without reading more) and report whether
    /// responses remain to be flushed.
    pub fn drain(&mut self, handler: &dyn Handler, stop: &mut bool) -> bool {
        self.process(handler, stop);
        let _ = self.flush();
        self.pending_write() > 0
    }

    /// Writes buffered responses until done or `WouldBlock`; returns
    /// bytes written.
    fn flush(&mut self) -> std::io::Result<usize> {
        let mut written = 0;
        while self.wpos < self.wbuf.len() {
            match self.sock.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    written += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= 1 << 16 {
            // Compact occasionally so a long-lived backpressured
            // connection does not keep dead prefix bytes around.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(written)
    }

    /// Reads until `WouldBlock`, EOF, or the decoder holds a payload's
    /// worth of unprocessed bytes (the caller interleaves processing).
    /// Returns (bytes read, eof).
    fn fill(&mut self) -> std::io::Result<(usize, bool)> {
        let mut scratch = [0u8; 16 * 1024];
        let mut total = 0;
        while self.dec.pending() <= self.max_payload {
            match self.sock.read(&mut scratch) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    self.dec.push(&scratch[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok((total, false))
    }

    /// Decodes and answers buffered requests, stopping at the write cap
    /// (backpressure). Returns whether any message was consumed.
    fn process(&mut self, handler: &dyn Handler, stop: &mut bool) -> bool {
        let mut any = false;
        while self.pending_write() <= self.write_cap {
            let Some(msg) = self.dec.next_msg() else {
                break;
            };
            any = true;
            // next() only returns once the framing is negotiated.
            let framing = self.dec.framing().expect("framing after first msg");
            match framing {
                Framing::JsonLines => self.frames.json += 1,
                Framing::Binary => self.frames.binary += 1,
            }
            self.last_request = Instant::now();
            match msg {
                Msg::Payload(payload) => {
                    if framing == Framing::JsonLines && payload.trim().is_empty() {
                        // Blank lines are keep-alive noise, not requests.
                        self.frames.json -= 1;
                        continue;
                    }
                    // A panicking handler costs its own request, not the
                    // shard thread under it (and with it every connection
                    // the shard multiplexes — on shard 0, the listener).
                    let answer = catch_unwind(AssertUnwindSafe(|| handler.handle(&payload)));
                    let (response, shutdown) = answer.unwrap_or_else(|_| {
                        cpm_obs::instant("reactor.handler_panic", "", 0);
                        ("{\"ok\":false,\"error\":\"internal error\"}".into(), false)
                    });
                    encode_response(framing, &response, &mut self.wbuf);
                    if shutdown {
                        *stop = true;
                    }
                }
                Msg::TooLong(len) => {
                    cpm_obs::instant("reactor.bad_frame.too_long", "bytes", len as u64);
                    let what = match framing {
                        Framing::JsonLines => "line",
                        Framing::Binary => "frame",
                    };
                    encode_response(
                        framing,
                        &format!(
                            "{{\"ok\":false,\"error\":\"request {what} too long \
                             ({len} bytes, limit {})\"}}",
                            self.max_payload
                        ),
                        &mut self.wbuf,
                    );
                }
                Msg::NotUtf8 => {
                    cpm_obs::instant("reactor.bad_frame.not_utf8", "", 0);
                    encode_response(
                        framing,
                        "{\"ok\":false,\"error\":\"request is not valid utf-8\"}",
                        &mut self.wbuf,
                    );
                }
                Msg::Corrupt(len) => {
                    cpm_obs::instant("reactor.bad_frame.corrupt", "bytes", len as u64);
                    encode_response(
                        framing,
                        &format!(
                            "{{\"ok\":false,\"error\":\"unrecoverable frame length \
                             {len}; closing connection\"}}"
                        ),
                        &mut self.wbuf,
                    );
                    self.closing = true;
                    break;
                }
            }
        }
        any
    }
}
