//! The wire framings and their incremental decoder.
//!
//! Two request/response framings share one JSON request vocabulary:
//!
//! - **JSON lines** — one `\n`-terminated JSON object per request and
//!   per response. The first byte a client sends is anything but
//!   `0x00` (JSON text never starts with a NUL).
//! - **Binary** — the client's first byte is the preamble
//!   [`BINARY_PREAMBLE`] (`0x00`); after it, every request **and**
//!   every response is a `u32` little-endian payload length followed by
//!   exactly that many bytes of JSON text. No trailing newline.
//!
//! The [`Decoder`] consumes arbitrary byte chunks (whatever a
//! non-blocking read returned — a frame may arrive one byte at a time,
//! or fifty frames may arrive in one chunk) and yields complete
//! messages, so the transport layer never re-parses or copies more
//! than once. Oversized and non-UTF-8 payloads surface as structured
//! [`Msg`] variants instead of derailing the stream: a too-long JSON
//! line is discarded up to its newline and the stream stays aligned; a
//! too-long binary frame is unrecoverable only past [`HARD_SKIP_LIMIT`]
//! (the declared length itself keeps the stream aligned below it).

/// First byte of a connection that selects binary framing.
pub const BINARY_PREAMBLE: u8 = 0x00;

/// Default upper bound on one payload, bytes, in either framing
/// (`cpm_serve::MAX_LINE` is this constant).
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Largest oversized binary frame the decoder will skip to stay
/// aligned. A declared length beyond this is treated as a corrupt
/// stream ([`Msg::Corrupt`]) — the connection should close.
pub const HARD_SKIP_LIMIT: usize = 8 << 20;

/// Which framing a connection speaks, decided by its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// `\n`-terminated JSON objects.
    JsonLines,
    /// `u32` LE length-prefixed JSON payloads.
    Binary,
}

/// One decoded message (or stream-layer fault) from the peer.
#[derive(Debug, PartialEq, Eq)]
pub enum Msg {
    /// A complete, UTF-8 payload (newline / length prefix stripped).
    Payload(String),
    /// A payload over the size bound; the stream is still aligned.
    /// Carries the offending payload's length in bytes.
    TooLong(usize),
    /// A complete payload that was not valid UTF-8; stream aligned.
    NotUtf8,
    /// The stream can no longer be trusted (binary length beyond
    /// [`HARD_SKIP_LIMIT`]); the connection must close.
    Corrupt(usize),
}

/// Incremental frame decoder: push bytes, pull [`Msg`]s.
///
/// Starts in negotiation state; the first byte pushed selects the
/// framing (see [`BINARY_PREAMBLE`]). [`Decoder::with_framing`] skips
/// negotiation for client-side response parsing.
pub struct Decoder {
    framing: Option<Framing>,
    max_payload: usize,
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    pos: usize,
    /// Bytes of an oversized frame still to discard (both framings).
    skip: usize,
    /// For an oversized JSON line: total bytes seen so far (reported in
    /// [`Msg::TooLong`] once the newline arrives).
    line_overflow: usize,
}

impl Decoder {
    /// A negotiating decoder (server side of a fresh connection).
    pub fn new(max_payload: usize) -> Decoder {
        Decoder {
            framing: None,
            max_payload,
            buf: Vec::new(),
            pos: 0,
            skip: 0,
            line_overflow: 0,
        }
    }

    /// A decoder pinned to a known framing (client side, or tests).
    pub fn with_framing(framing: Framing, max_payload: usize) -> Decoder {
        let mut d = Decoder::new(max_payload);
        d.framing = Some(framing);
        d
    }

    /// The negotiated framing, once the first byte has arrived.
    pub fn framing(&self) -> Option<Framing> {
        self.framing
    }

    /// Appends a chunk of received bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet decoded into a message.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pulls the next complete message, if the buffer holds one.
    pub fn next_msg(&mut self) -> Option<Msg> {
        // Negotiation: the very first byte picks the framing.
        if self.framing.is_none() {
            let first = *self.buf.get(self.pos)?;
            if first == BINARY_PREAMBLE {
                self.pos += 1;
                self.framing = Some(Framing::Binary);
            } else {
                self.framing = Some(Framing::JsonLines);
            }
        }
        match self.framing.unwrap() {
            Framing::JsonLines => self.next_line(),
            Framing::Binary => self.next_frame(),
        }
    }

    fn next_line(&mut self) -> Option<Msg> {
        let avail = &self.buf[self.pos..];
        let nl = avail.iter().position(|b| *b == b'\n');
        if self.line_overflow > 0 {
            // Discarding an oversized line: drain to its newline.
            return match nl {
                Some(i) => {
                    self.line_overflow += i;
                    self.pos += i + 1;
                    let len = std::mem::take(&mut self.line_overflow);
                    Some(Msg::TooLong(len))
                }
                None => {
                    self.line_overflow += avail.len();
                    self.pos = self.buf.len();
                    None
                }
            };
        }
        match nl {
            Some(i) => {
                if i > self.max_payload {
                    self.pos += i + 1;
                    return Some(Msg::TooLong(i));
                }
                let mut line = avail[..i].to_vec();
                self.pos += i + 1;
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                Some(match String::from_utf8(line) {
                    Ok(s) => Msg::Payload(s),
                    Err(_) => Msg::NotUtf8,
                })
            }
            None => {
                if avail.len() > self.max_payload {
                    // Overflowed without a newline yet: switch to
                    // discard mode so the buffer stays bounded.
                    self.line_overflow = avail.len();
                    self.pos = self.buf.len();
                }
                None
            }
        }
    }

    fn next_frame(&mut self) -> Option<Msg> {
        // Finish discarding an oversized frame's payload first.
        if self.skip > 0 {
            let avail = self.buf.len() - self.pos;
            let take = avail.min(self.skip);
            self.pos += take;
            self.skip -= take;
            if self.skip > 0 {
                return None;
            }
            // Fall through: the next frame may already be buffered.
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > self.max_payload {
            if len > HARD_SKIP_LIMIT {
                return Some(Msg::Corrupt(len));
            }
            // Consume the header now, discard the payload as it arrives.
            self.pos += 4;
            let avail = self.buf.len() - self.pos;
            let take = avail.min(len);
            self.pos += take;
            // Report immediately — any remainder is discarded by the
            // skip path above as it streams in.
            self.skip = len - take;
            return Some(Msg::TooLong(len));
        }
        if avail.len() < 4 + len {
            return None;
        }
        let payload = avail[4..4 + len].to_vec();
        self.pos += 4 + len;
        Some(match String::from_utf8(payload) {
            Ok(s) => Msg::Payload(s),
            Err(_) => Msg::NotUtf8,
        })
    }
}

/// Appends one response payload to `out` in the connection's framing:
/// `payload\n` for JSON lines, `u32 LE length + payload` for binary.
pub fn encode_response(framing: Framing, payload: &str, out: &mut Vec<u8>) {
    match framing {
        Framing::JsonLines => {
            out.reserve(payload.len() + 1);
            out.extend_from_slice(payload.as_bytes());
            out.push(b'\n');
        }
        Framing::Binary => {
            out.reserve(payload.len() + 4);
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload.as_bytes());
        }
    }
}

/// Appends one request in the connection's framing. Identical to
/// [`encode_response`] — the wire is symmetric — but named so client
/// code reads honestly.
pub fn encode_request(framing: Framing, payload: &str, out: &mut Vec<u8>) {
    encode_response(framing, payload, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut Decoder) -> Vec<Msg> {
        std::iter::from_fn(|| d.next_msg()).collect()
    }

    #[test]
    fn negotiates_json_lines_from_first_byte() {
        let mut d = Decoder::new(MAX_PAYLOAD);
        d.push(b"{\"verb\":\"stats\"}\n");
        assert_eq!(
            drain(&mut d),
            vec![Msg::Payload("{\"verb\":\"stats\"}".into())]
        );
        assert_eq!(d.framing(), Some(Framing::JsonLines));
    }

    #[test]
    fn negotiates_binary_from_preamble() {
        let mut d = Decoder::new(MAX_PAYLOAD);
        let mut wire = vec![BINARY_PREAMBLE];
        encode_request(Framing::Binary, "{\"verb\":\"stats\"}", &mut wire);
        d.push(&wire);
        assert_eq!(
            drain(&mut d),
            vec![Msg::Payload("{\"verb\":\"stats\"}".into())]
        );
        assert_eq!(d.framing(), Some(Framing::Binary));
    }

    #[test]
    fn crlf_is_stripped_and_empty_lines_pass_through() {
        let mut d = Decoder::with_framing(Framing::JsonLines, MAX_PAYLOAD);
        d.push(b"abc\r\n\n");
        assert_eq!(
            drain(&mut d),
            vec![Msg::Payload("abc".into()), Msg::Payload(String::new())]
        );
    }

    #[test]
    fn oversized_line_is_discarded_to_its_newline() {
        let mut d = Decoder::with_framing(Framing::JsonLines, 8);
        d.push(b"0123456789abcdef\nok\n");
        let msgs = drain(&mut d);
        assert_eq!(msgs, vec![Msg::TooLong(16), Msg::Payload("ok".into())]);
    }

    #[test]
    fn oversized_line_split_across_chunks_stays_aligned() {
        let mut d = Decoder::with_framing(Framing::JsonLines, 4);
        d.push(b"0123456");
        assert_eq!(d.next_msg(), None);
        d.push(b"89\nok\n");
        assert_eq!(d.next_msg(), Some(Msg::TooLong(9)));
        assert_eq!(d.next_msg(), Some(Msg::Payload("ok".into())));
    }

    #[test]
    fn oversized_binary_frame_reports_then_resyncs() {
        let mut d = Decoder::with_framing(Framing::Binary, 4);
        let mut wire = Vec::new();
        encode_request(Framing::Binary, "longer than four", &mut wire);
        encode_request(Framing::Binary, "ok", &mut wire);
        // Feed byte by byte: the TooLong must come once, then "ok".
        let mut msgs = Vec::new();
        for b in wire {
            d.push(&[b]);
            msgs.extend(std::iter::from_fn(|| d.next_msg()));
        }
        assert_eq!(msgs, vec![Msg::TooLong(16), Msg::Payload("ok".into())]);
    }

    #[test]
    fn insane_binary_length_is_corrupt() {
        let mut d = Decoder::with_framing(Framing::Binary, MAX_PAYLOAD);
        d.push(&u32::MAX.to_le_bytes());
        assert_eq!(d.next_msg(), Some(Msg::Corrupt(u32::MAX as usize)));
    }

    #[test]
    fn non_utf8_payloads_are_reported_in_both_framings() {
        let mut d = Decoder::with_framing(Framing::JsonLines, MAX_PAYLOAD);
        d.push(&[0xff, 0xfe, b'\n']);
        assert_eq!(d.next_msg(), Some(Msg::NotUtf8));
        let mut d = Decoder::with_framing(Framing::Binary, MAX_PAYLOAD);
        d.push(&2u32.to_le_bytes());
        d.push(&[0xff, 0xfe]);
        assert_eq!(d.next_msg(), Some(Msg::NotUtf8));
    }
}
