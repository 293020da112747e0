//! The load generator's side of the wire: framed connections, pre-rendered
//! request groups, and the checks every response goes through.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_reactor::{encode_request, Decoder, Framing, Msg, BINARY_PREAMBLE};
use cpm_serve::service::compute;
use cpm_serve::{Algorithm, Collective, ModelKind, ParamSet, Query};
use serde_json::Value;

use crate::gen::{self, Key, Req};
use crate::span::Tracer;

/// A stalled server must fail the run, not hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One blocking framed connection that can have several requests in flight.
pub struct Conn {
    stream: TcpStream,
    dec: Decoder,
    pub framing: Framing,
    chunk: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, framing: Framing) -> io::Result<Conn> {
        let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        if framing == Framing::Binary {
            stream.write_all(&[BINARY_PREAMBLE])?;
        }
        Ok(Conn {
            stream,
            dec: Decoder::with_framing(framing, cpm_reactor::frame::MAX_PAYLOAD),
            framing,
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Writes already-framed requests.
    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.stream.write_all(frames)
    }

    /// Blocks for the next response payload.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            match self.dec.next_msg() {
                Some(Msg::Payload(s)) => return Ok(s),
                Some(other) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad response frame: {other:?}"),
                    ))
                }
                None => {}
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.dec.push(&self.chunk[..n]);
        }
    }

    /// One round trip of an unframed payload.
    pub fn call(&mut self, payload: &str) -> io::Result<String> {
        let mut frame = Vec::with_capacity(payload.len() + 4);
        encode_request(self.framing, payload, &mut frame);
        self.send(&frame)?;
        self.recv()
    }
}

/// Operations attempted and failed, with the first few reasons kept.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checker {
    /// Counts one operation; `verdict` is `Err(reason)` when it failed.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }
}

/// What the harness knows about the tenants it generates traffic for: the
/// inputs it renders requests from and the oracles it checks answers with.
pub struct Tenants {
    pub fps: Vec<String>,
    /// Each tenant's served parameter set, for [`compute`] as the oracle.
    pub params: Vec<Arc<ParamSet>>,
    pub keys: Vec<Vec<Key>>,
    /// `,"trace":{...}` of the workload's `plan` request.
    pub plan_tail: String,
    /// Makespan the in-process planner gives each tenant for that trace.
    pub plan_makespans: Vec<f64>,
}

pub fn query_of(key: &Key) -> Query {
    Query {
        model: [
            ModelKind::Lmo,
            ModelKind::Hockney,
            ModelKind::Loggp,
            ModelKind::Plogp,
        ][key.model],
        collective: [Collective::Scatter, Collective::Gather, Collective::Bcast][key.collective],
        algorithm: [Algorithm::Linear, Algorithm::Binomial][key.algorithm],
        m: key.m,
        root: 0,
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("response lacks {key:?}"))
}

fn verify_predict(v: &Value, ps: &ParamSet, key: &Key) -> Result<(), String> {
    let want = compute(ps, &query_of(key)).map_err(|e| e.to_string())?;
    let got = f64_field(v, "seconds")?;
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("predict {key:?}: served {got:e}, oracle {want:e}"))
    }
}

impl Tenants {
    /// Compares a full response with the in-process oracle.
    pub fn verify(&self, req: &Req, resp: &str) -> Result<(), String> {
        let v: Value = serde_json::from_str(resp).map_err(|e| format!("bad json: {e}"))?;
        match req {
            Req::Predict { tenant, key } => verify_predict(&v, &self.params[*tenant], key),
            Req::Select { tenant, key } => {
                let ps = &self.params[*tenant];
                let side = |algorithm| {
                    compute(ps, &query_of(&Key { algorithm, ..*key })).map_err(|e| e.to_string())
                };
                let (lin, bin) = (side(0)?, side(1)?);
                let choice = if lin <= bin { "linear" } else { "binomial" };
                let same = f64_field(&v, "linear_seconds")?.to_bits() == lin.to_bits()
                    && f64_field(&v, "binomial_seconds")?.to_bits() == bin.to_bits()
                    && v.get("algorithm").and_then(Value::as_str) == Some(choice);
                same.then_some(())
                    .ok_or_else(|| format!("select {key:?} differs from the oracle: {resp}"))
            }
            Req::Plan { tenant } => {
                let got = f64_field(&v, "makespan_seconds")?;
                let want = self.plan_makespans[*tenant];
                (got.to_bits() == want.to_bits())
                    .then_some(())
                    .ok_or_else(|| format!("plan: served {got:e}, oracle {want:e}"))
            }
            Req::Batch(items) => {
                let Some(Value::Seq(subs)) = v.get("responses") else {
                    return Err("batch response lacks \"responses\"".into());
                };
                if subs.len() != items.len() {
                    return Err(format!(
                        "batch of {} answered with {}",
                        items.len(),
                        subs.len()
                    ));
                }
                for (i, ((tenant, key), sub)) in items.iter().zip(subs).enumerate() {
                    if sub.get("ok") != Some(&Value::Bool(true))
                        || sub.get("id").and_then(Value::as_u64) != Some(i as u64)
                    {
                        return Err(format!("batch element {i} failed or out of order: {resp}"));
                    }
                    verify_predict(sub, &self.params[*tenant], key)?;
                }
                Ok(())
            }
        }
    }
}

/// `true` when `resp` starts `{"ok":true,"id":<id>,`: the request succeeded
/// and this is the response to it (the server echoes the id right after
/// `ok`), which on an in-order connection also proves nothing was lost,
/// duplicated or reordered before it.
pub fn is_ok_echo(resp: &str, id: u64) -> bool {
    let Some(rest) = resp.strip_prefix("{\"ok\":true,\"id\":") else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse() == Ok(id) && rest[digits..].starts_with(',')
}

/// Requests rendered and framed ahead of the timed loop.
pub struct Prepared {
    bytes: Vec<u8>,
    frames: Vec<Range<usize>>,
    first_id: u64,
}

/// The load generator: one JSON-lines and one binary connection, used
/// alternately, closed loop.
pub struct Client {
    conns: [Conn; 2],
    next_id: u64,
    payload: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Ok(Client {
            conns: [
                Conn::connect(addr, Framing::JsonLines)?,
                Conn::connect(addr, Framing::Binary)?,
            ],
            next_id: 1,
            payload: String::new(),
        })
    }

    /// Renders `reqs` with consecutive ids; groups of `depth` requests
    /// alternate between the two connections and so between the framings.
    pub fn prepare(&mut self, tenants: &Tenants, reqs: &[Req], depth: usize) -> Prepared {
        let mut prepared = Prepared {
            bytes: Vec::with_capacity(reqs.len() * 192),
            frames: Vec::with_capacity(reqs.len()),
            first_id: self.next_id,
        };
        for (i, req) in reqs.iter().enumerate() {
            let id = self.next_id + i as u64;
            gen::render(&mut self.payload, req, id, &tenants.fps, &tenants.plan_tail);
            let start = prepared.bytes.len();
            let framing = self.conns[(i / depth) % 2].framing;
            encode_request(framing, &self.payload, &mut prepared.bytes);
            prepared.frames.push(start..prepared.bytes.len());
        }
        self.next_id += reqs.len() as u64;
        prepared
    }

    /// Sends `prepared` in groups of `depth`, each group in one write, and
    /// waits for the group's responses before the next: `depth` requests in
    /// flight. Every response is checked for success and its id; one in a
    /// hundred is compared with the oracle. `on_response(i, ns, response)` gets
    /// the time from a group's write to its i-th request's response. `tracer`
    /// records client-side spans (send, wait) when it is on.
    #[allow(clippy::too_many_arguments)]
    pub fn exchange(
        &mut self,
        tenants: &Tenants,
        reqs: &[Req],
        prepared: &Prepared,
        depth: usize,
        checker: &mut Checker,
        tracer: &mut Tracer,
        mut on_response: impl FnMut(usize, u64, &str),
    ) -> io::Result<()> {
        for (g, group) in prepared.frames.chunks(depth).enumerate() {
            let conn = &mut self.conns[g % 2];
            let span = group[0].start..group[group.len() - 1].end;
            let first = prepared.first_id + (g * depth) as u64;
            let round_trip = tracer.enter("harness.round_trip", first);
            let sent = Instant::now();
            let send = tracer.enter("harness.send", first);
            conn.send(&prepared.bytes[span])?;
            tracer.exit(send);
            for k in 0..group.len() {
                let i = g * depth + k;
                let id = prepared.first_id + i as u64;
                let wait = tracer.enter("harness.wait", id);
                let resp = conn.recv()?;
                tracer.exit(wait);
                let ns = sent.elapsed().as_nanos() as u64;
                on_response(i, ns, &resp);
                checker.record(if !is_ok_echo(&resp, id) {
                    Err(format!("request {id} answered with {resp}"))
                } else if id.is_multiple_of(100) {
                    tenants.verify(&reqs[i], &resp)
                } else {
                    Ok(())
                });
            }
            tracer.exit(round_trip);
        }
        Ok(())
    }
}

/// Sends one request on a fresh JSON-lines connection and parses the answer.
pub fn request(addr: SocketAddr, payload: &str) -> io::Result<Value> {
    let resp = Conn::connect(addr, Framing::JsonLines)?.call(payload)?;
    serde_json::from_str(&resp).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_check_needs_ok_and_the_exact_id() {
        assert!(is_ok_echo("{\"ok\":true,\"id\":42,\"seconds\":1.0}", 42));
        assert!(!is_ok_echo("{\"ok\":true,\"id\":421,\"seconds\":1.0}", 42));
        assert!(!is_ok_echo("{\"ok\":true,\"id\":4,\"seconds\":1.0}", 42));
        assert!(!is_ok_echo("{\"ok\":false,\"id\":42,\"error\":\"x\"}", 42));
        assert!(!is_ok_echo("{\"ok\":true,\"seconds\":1.0}", 42));
        assert!(!is_ok_echo("{\"ok\":true,\"id\":42}", 42));
    }

    #[test]
    fn checker_counts_and_keeps_reasons() {
        let mut c = Checker::default();
        c.record(Ok(()));
        c.record(Err("boom".into()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.reasons, vec!["boom".to_string()]);
    }
}
