//! The workload IR: a JSON-lines trace of communication operations.
//!
//! A trace is a header line followed by one operation per line:
//!
//! ```text
//! {"trace":"cpm-workload","version":1,"name":"train","n":4}
//! {"id":0,"phase":"layer0","op":"compute","ranks":[0,1,2,3],"seconds":0.001}
//! {"id":1,"phase":"layer0","op":"reduce","root":0,"m":65536,"gamma":4e-9}
//! {"id":2,"phase":"layer0","op":"bcast","root":0,"m":65536}
//! ```
//!
//! Dependencies are per-rank program order: an op depends, on each
//! participating rank, on that rank's previous op in trace order. That is
//! exactly the ordering an MPI program written as a sequence of calls
//! would impose, and it is the order plan and replay both execute (see
//! [`mod@crate::lower`]).
//!
//! The trace hash mirrors the registry fingerprint of `cpm-serve`:
//! canonical JSON (recursively sorted map keys) hashed twice with FNV-1a
//! from independent offset bases into a 128-bit hex string. Equal traces
//! hash equally regardless of field order in their serialized form, and
//! the JSON-lines and single-object forms hash identically.

use std::collections::HashMap;
use std::fmt;

use cpm_collectives::cost::{Op, Rooted, MAX_DURATION};
use cpm_core::canon::{CanonHasher, Fields};
use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use serde_json::Value;

/// Format marker emitted in the trace header line.
pub const TRACE_FORMAT: &str = "cpm-workload";
/// Schema version emitted in the trace header line.
pub const TRACE_VERSION: u64 = 1;

/// Errors raised by trace parsing, validation, planning or replay.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// The trace text could not be parsed.
    Parse(String),
    /// The trace parsed but is not executable (rank out of range, ...).
    Invalid(String),
    /// The DES replay failed (deadlock, simulator error).
    Sim(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Parse(m) => write!(f, "trace parse error: {m}"),
            WorkloadError::Invalid(m) => write!(f, "invalid trace: {m}"),
            WorkloadError::Sim(m) => write!(f, "replay error: {m}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One communication (or local) operation.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// A single point-to-point message.
    P2p {
        /// Sender.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// Message size, bytes.
        m: Bytes,
    },
    /// Scatter of one `m`-byte block per non-root process.
    Scatter {
        /// Root rank.
        root: Rank,
        /// Per-process block size, bytes.
        m: Bytes,
    },
    /// Gather of one `m`-byte block per non-root process.
    Gather {
        /// Root rank.
        root: Rank,
        /// Per-process block size, bytes.
        m: Bytes,
    },
    /// Broadcast of an `m`-byte payload.
    Bcast {
        /// Root rank.
        root: Rank,
        /// Payload size, bytes.
        m: Bytes,
    },
    /// Reduction of `m`-byte vectors; `gamma` is the combine cost per
    /// byte (seconds/byte) charged wherever two vectors meet.
    Reduce {
        /// Root rank receiving the combined vector.
        root: Rank,
        /// Vector size, bytes.
        m: Bytes,
        /// Combine cost per byte, seconds.
        gamma: f64,
    },
    /// Ring allgather of one `m`-byte block per process.
    Allgather {
        /// Per-process block size, bytes.
        m: Bytes,
    },
    /// Rotation alltoall of one `m`-byte block per pair.
    Alltoall {
        /// Per-pair block size, bytes.
        m: Bytes,
    },
    /// Local computation on the listed ranks.
    Compute {
        /// The ranks that compute.
        ranks: Vec<Rank>,
        /// Duration, seconds.
        seconds: f64,
    },
    /// Full barrier.
    Barrier,
}

impl OpKind {
    /// The `"op"` field value for this kind.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::P2p { .. } => "p2p",
            OpKind::Scatter { .. } => "scatter",
            OpKind::Gather { .. } => "gather",
            OpKind::Bcast { .. } => "bcast",
            OpKind::Reduce { .. } => "reduce",
            OpKind::Allgather { .. } => "allgather",
            OpKind::Alltoall { .. } => "alltoall",
            OpKind::Compute { .. } => "compute",
            OpKind::Barrier => "barrier",
        }
    }

    /// The op as a rooted collective to price and emit, if it is one.
    pub fn rooted(&self) -> Option<Op> {
        let (kind, root, m) = match *self {
            OpKind::Scatter { root, m } => (Rooted::Scatter, root, m),
            OpKind::Gather { root, m } => (Rooted::Gather, root, m),
            OpKind::Bcast { root, m } => (Rooted::Bcast, root, m),
            OpKind::Reduce { root, m, gamma } => (Rooted::Reduce { gamma }, root, m),
            _ => return None,
        };
        Some(Op { kind, root, m })
    }

    /// The ranks that execute at least one primitive of this op.
    pub fn participants(&self, n: usize) -> Vec<Rank> {
        match self {
            OpKind::P2p { src, dst, .. } => vec![*src, *dst],
            OpKind::Compute { ranks, .. } => ranks.clone(),
            _ => (0..n as u32).map(Rank).collect(),
        }
    }
}

/// One trace line: a stable id, a phase label, and the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOp {
    /// Stable op id, unique within the trace.
    pub id: u64,
    /// Phase label (ops aggregate into per-phase plan breakdowns).
    pub phase: String,
    /// The operation.
    pub kind: OpKind,
}

/// A complete workload trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Human-readable workload name (from the generator or the author).
    pub name: String,
    /// Number of processes the trace is written for.
    pub n: usize,
    /// Operations in trace order.
    pub ops: Vec<TraceOp>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn bad(msg: impl Into<String>) -> WorkloadError {
    WorkloadError::Parse(msg.into())
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, WorkloadError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| bad(format!("missing or non-string field {key:?}")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, WorkloadError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field {key:?}")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, WorkloadError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric field {key:?}")))
}

fn rank_field(v: &Value, key: &str) -> Result<Rank, WorkloadError> {
    let raw = u64_field(v, key)?;
    u32::try_from(raw)
        .map(Rank)
        .map_err(|_| bad(format!("field {key:?} is not a valid rank")))
}

fn rank_u64(r: Rank) -> Value {
    Value::U64(r.0 as u64)
}

impl TraceOp {
    /// The op as a single JSON object (one trace line).
    pub fn to_value(&self) -> Value {
        let mut entries = vec![
            ("id".to_string(), Value::U64(self.id)),
            ("phase".to_string(), Value::Str(self.phase.clone())),
            ("op".to_string(), Value::Str(self.kind.name().to_string())),
        ];
        match &self.kind {
            OpKind::P2p { src, dst, m } => {
                entries.push(("src".to_string(), rank_u64(*src)));
                entries.push(("dst".to_string(), rank_u64(*dst)));
                entries.push(("m".to_string(), Value::U64(*m)));
            }
            OpKind::Scatter { root, m }
            | OpKind::Gather { root, m }
            | OpKind::Bcast { root, m } => {
                entries.push(("root".to_string(), rank_u64(*root)));
                entries.push(("m".to_string(), Value::U64(*m)));
            }
            OpKind::Reduce { root, m, gamma } => {
                entries.push(("root".to_string(), rank_u64(*root)));
                entries.push(("m".to_string(), Value::U64(*m)));
                entries.push(("gamma".to_string(), Value::F64(*gamma)));
            }
            OpKind::Allgather { m } | OpKind::Alltoall { m } => {
                entries.push(("m".to_string(), Value::U64(*m)));
            }
            OpKind::Compute { ranks, seconds } => {
                entries.push((
                    "ranks".to_string(),
                    Value::Seq(ranks.iter().map(|r| rank_u64(*r)).collect()),
                ));
                entries.push(("seconds".to_string(), Value::F64(*seconds)));
            }
            OpKind::Barrier => {}
        }
        Value::Map(entries)
    }

    /// Writes [`TraceOp::to_value`]'s entries into a canonical hash, keys
    /// in byte order: `dst < gamma < id < m < op < phase < ranks < root <
    /// seconds < src`.
    fn canon(&self, o: &mut Fields<'_>) {
        let rank = |r: &Rank| u64::from(r.0);
        let common = |o: &mut Fields<'_>, m: Option<Bytes>| {
            o.u64("id", self.id);
            if let Some(m) = m {
                o.u64("m", m);
            }
            o.str("op", self.kind.name());
            o.str("phase", &self.phase);
        };
        match &self.kind {
            OpKind::P2p { src, dst, m } => {
                o.u64("dst", rank(dst));
                common(o, Some(*m));
                o.u64("src", rank(src));
            }
            OpKind::Scatter { root, m }
            | OpKind::Gather { root, m }
            | OpKind::Bcast { root, m } => {
                common(o, Some(*m));
                o.u64("root", rank(root));
            }
            OpKind::Reduce { root, m, gamma } => {
                o.f64("gamma", *gamma);
                common(o, Some(*m));
                o.u64("root", rank(root));
            }
            OpKind::Allgather { m } | OpKind::Alltoall { m } => common(o, Some(*m)),
            OpKind::Compute { ranks, seconds } => {
                common(o, None);
                o.key("ranks").seq(ranks, |h, r| h.u64(rank(r)));
                o.f64("seconds", *seconds);
            }
            OpKind::Barrier => common(o, None),
        }
    }

    /// Parses one trace line.
    pub fn from_value(v: &Value) -> Result<TraceOp, WorkloadError> {
        let id = u64_field(v, "id")?;
        let phase = str_field(v, "phase")?.to_string();
        let kind = match str_field(v, "op")? {
            "p2p" => OpKind::P2p {
                src: rank_field(v, "src")?,
                dst: rank_field(v, "dst")?,
                m: u64_field(v, "m")?,
            },
            "scatter" => OpKind::Scatter {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
            },
            "gather" => OpKind::Gather {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
            },
            "bcast" => OpKind::Bcast {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
            },
            "reduce" => OpKind::Reduce {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
                gamma: f64_field(v, "gamma")?,
            },
            "allgather" => OpKind::Allgather {
                m: u64_field(v, "m")?,
            },
            "alltoall" => OpKind::Alltoall {
                m: u64_field(v, "m")?,
            },
            "compute" => {
                let Some(Value::Seq(raw)) = v.get("ranks") else {
                    return Err(bad("missing or non-array field \"ranks\""));
                };
                let mut ranks = Vec::with_capacity(raw.len());
                for item in raw {
                    let r = item
                        .as_u64()
                        .and_then(|u| u32::try_from(u).ok())
                        .ok_or_else(|| bad("non-rank entry in \"ranks\""))?;
                    ranks.push(Rank(r));
                }
                OpKind::Compute {
                    ranks,
                    seconds: f64_field(v, "seconds")?,
                }
            }
            "barrier" => OpKind::Barrier,
            other => {
                return Err(bad(format!(
                    "unknown op {other:?} (p2p|scatter|gather|bcast|reduce|\
                     allgather|alltoall|compute|barrier)"
                )))
            }
        };
        Ok(TraceOp { id, phase, kind })
    }
}

impl Trace {
    /// The trace as a single JSON object (the wire form of the `plan`
    /// verb): header fields plus an `"ops"` array of trace lines.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("trace", Value::Str(TRACE_FORMAT.to_string())),
            ("version", Value::U64(TRACE_VERSION)),
            ("name", Value::Str(self.name.clone())),
            ("n", Value::U64(self.n as u64)),
            (
                "ops",
                Value::Seq(self.ops.iter().map(TraceOp::to_value).collect()),
            ),
        ])
    }

    /// Parses the single-object form.
    pub fn from_value(v: &Value) -> Result<Trace, WorkloadError> {
        let format = str_field(v, "trace")?;
        if format != TRACE_FORMAT {
            return Err(bad(format!(
                "unknown trace format {format:?} (expected {TRACE_FORMAT:?})"
            )));
        }
        let version = u64_field(v, "version")?;
        if version != TRACE_VERSION {
            return Err(bad(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let name = str_field(v, "name")?.to_string();
        let n = u64_field(v, "n")? as usize;
        let Some(Value::Seq(raw_ops)) = v.get("ops") else {
            return Err(bad("missing or non-array field \"ops\""));
        };
        let ops = raw_ops
            .iter()
            .map(TraceOp::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { name, n, ops })
    }

    /// Serializes to the JSON-lines form: header line, then one op per
    /// line, trailing newline included.
    pub fn to_jsonl(&self) -> String {
        let header = obj(vec![
            ("trace", Value::Str(TRACE_FORMAT.to_string())),
            ("version", Value::U64(TRACE_VERSION)),
            ("name", Value::Str(self.name.clone())),
            ("n", Value::U64(self.n as u64)),
        ]);
        let mut out = serde_json::to_string(&header).expect("header serializes");
        out.push('\n');
        for op in &self.ops {
            out.push_str(&serde_json::to_string(&op.to_value()).expect("op serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses the JSON-lines form. Blank lines are ignored.
    pub fn from_jsonl(text: &str) -> Result<Trace, WorkloadError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .enumerate();
        let Some((_, header_line)) = lines.next() else {
            return Err(bad("empty trace"));
        };
        let header: Value =
            serde_json::from_str(header_line).map_err(|e| bad(format!("header line: {e:?}")))?;
        let format = str_field(&header, "trace")?;
        if format != TRACE_FORMAT {
            return Err(bad(format!(
                "unknown trace format {format:?} (expected {TRACE_FORMAT:?})"
            )));
        }
        let version = u64_field(&header, "version")?;
        if version != TRACE_VERSION {
            return Err(bad(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let name = str_field(&header, "name")?.to_string();
        let n = u64_field(&header, "n")? as usize;
        let mut ops = Vec::new();
        for (lineno, line) in lines {
            let v: Value = serde_json::from_str(line)
                .map_err(|e| bad(format!("line {}: {e:?}", lineno + 1)))?;
            ops.push(
                TraceOp::from_value(&v).map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?,
            );
        }
        Ok(Trace { name, n, ops })
    }

    /// The stable 128-bit trace hash, hex-encoded.
    ///
    /// The [`cpm_core::canonical_hash`] of [`Trace::to_value`] — the
    /// construction the `cpm-serve` registry fingerprint uses — so it is
    /// invariant under field reordering and under the JSON-lines vs
    /// single-object representation. The canonical text is streamed into
    /// the hash, keys in byte order, without building the tree.
    pub fn hash(&self) -> String {
        let mut h = CanonHasher::new();
        h.object(|o| {
            o.u64("n", self.n as u64);
            o.str("name", &self.name);
            o.key("ops")
                .seq(&self.ops, |h, op| h.object(|o| op.canon(o)));
            o.str("trace", TRACE_FORMAT);
            o.u64("version", TRACE_VERSION);
        });
        h.finish()
    }

    /// Checks that the trace is executable: at least two processes, all
    /// ranks in range, no self-messages, positive message sizes, finite
    /// non-negative costs, unique op ids.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |msg: String| Err(WorkloadError::Invalid(msg));
        if self.n < 2 {
            return invalid(format!("trace needs n >= 2 processes, got {}", self.n));
        }
        let in_range = |r: Rank| (r.idx()) < self.n;
        // Ids that only increase are unique: only a trace numbered out of
        // order pays for a set.
        let increasing = self.ops.windows(2).all(|w| w[0].id < w[1].id);
        let mut seen = std::collections::HashSet::new();
        for op in &self.ops {
            if !increasing && !seen.insert(op.id) {
                return invalid(format!("duplicate op id {}", op.id));
            }
            let ctx = |msg: String| format!("op {}: {msg}", op.id);
            match &op.kind {
                OpKind::P2p { src, dst, m } => {
                    if !in_range(*src) || !in_range(*dst) {
                        return invalid(ctx(format!("rank out of range (n={})", self.n)));
                    }
                    if src == dst {
                        return invalid(ctx("self-message".into()));
                    }
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                }
                OpKind::Scatter { root, m }
                | OpKind::Gather { root, m }
                | OpKind::Bcast { root, m } => {
                    if !in_range(*root) {
                        return invalid(ctx(format!("root out of range (n={})", self.n)));
                    }
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                }
                OpKind::Reduce { root, m, gamma } => {
                    if !in_range(*root) {
                        return invalid(ctx(format!("root out of range (n={})", self.n)));
                    }
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                    // The combine time `gamma * m` is charged as a duration.
                    if !(0.0..=MAX_DURATION).contains(&(gamma * *m as f64)) {
                        return invalid(ctx(format!("bad gamma {gamma}")));
                    }
                }
                OpKind::Allgather { m } | OpKind::Alltoall { m } => {
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                }
                OpKind::Compute { ranks, seconds } => {
                    if ranks.is_empty() {
                        return invalid(ctx("compute with no ranks".into()));
                    }
                    if let Some(r) = ranks.iter().find(|r| !in_range(**r)) {
                        return invalid(ctx(format!(
                            "rank {} out of range (n={})",
                            r.idx(),
                            self.n
                        )));
                    }
                    if !(0.0..=MAX_DURATION).contains(seconds) {
                        return invalid(ctx(format!("bad seconds {seconds}")));
                    }
                }
                OpKind::Barrier => {}
            }
        }
        Ok(())
    }

    /// Phase labels in first-appearance order, and for each op the index
    /// of its label among them — one pass over the ops.
    pub fn phase_index(&self) -> (Vec<&str>, Vec<usize>) {
        let mut names: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut of = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let phase = op.phase.as_str();
            // Ops of one phase mostly come in runs: reuse the last label.
            let i = match of.last() {
                Some(&i) if names[i] == phase => i,
                _ => *index.entry(phase).or_insert_with(|| {
                    names.push(phase);
                    names.len() - 1
                }),
            };
            of.push(i);
        }
        (names, of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "sample".into(),
            n: 4,
            ops: vec![
                TraceOp {
                    id: 0,
                    phase: "a".into(),
                    kind: OpKind::Compute {
                        ranks: vec![Rank(0), Rank(1), Rank(2), Rank(3)],
                        seconds: 1e-3,
                    },
                },
                TraceOp {
                    id: 1,
                    phase: "a".into(),
                    kind: OpKind::Reduce {
                        root: Rank(0),
                        m: 4096,
                        gamma: 4e-9,
                    },
                },
                TraceOp {
                    id: 2,
                    phase: "b".into(),
                    kind: OpKind::P2p {
                        src: Rank(1),
                        dst: Rank(2),
                        m: 512,
                    },
                },
                TraceOp {
                    id: 3,
                    phase: "b".into(),
                    kind: OpKind::Barrier,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_the_trace() {
        let t = sample();
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn object_and_jsonl_forms_hash_identically() {
        let t = sample();
        let via_lines = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        let via_value = Trace::from_value(&t.to_value()).unwrap();
        assert_eq!(via_lines.hash(), via_value.hash());
        assert_eq!(t.hash(), via_lines.hash());
    }

    #[test]
    fn hash_is_sensitive_to_content() {
        let t = sample();
        let mut other = t.clone();
        other.ops[2].kind = OpKind::P2p {
            src: Rank(1),
            dst: Rank(3),
            m: 512,
        };
        assert_ne!(t.hash(), other.hash());
        let mut renamed = t.clone();
        renamed.name = "other".into();
        assert_ne!(t.hash(), renamed.hash());
    }

    #[test]
    fn hash_ignores_field_order() {
        let t = sample();
        // Rebuild op 2 with fields in a different order.
        let reordered = Value::Map(vec![
            ("m".to_string(), Value::U64(512)),
            ("op".to_string(), Value::Str("p2p".into())),
            ("dst".to_string(), Value::U64(2)),
            ("src".to_string(), Value::U64(1)),
            ("phase".to_string(), Value::Str("b".into())),
            ("id".to_string(), Value::U64(2)),
        ]);
        let op = TraceOp::from_value(&reordered).unwrap();
        let mut again = t.clone();
        again.ops[2] = op;
        assert_eq!(t.hash(), again.hash());
    }

    #[test]
    fn validation_rejects_bad_traces() {
        let mut t = sample();
        t.ops[2].kind = OpKind::P2p {
            src: Rank(1),
            dst: Rank(1),
            m: 512,
        };
        assert!(matches!(t.validate(), Err(WorkloadError::Invalid(_))));

        let mut t = sample();
        t.ops[2].kind = OpKind::P2p {
            src: Rank(1),
            dst: Rank(7),
            m: 512,
        };
        assert!(t.validate().is_err());

        let mut t = sample();
        t.ops[3].id = 0;
        assert!(t.validate().is_err());

        let mut t = sample();
        t.n = 1;
        assert!(t.validate().is_err());

        assert!(sample().validate().is_ok());
    }

    #[test]
    fn unknown_ops_and_formats_are_parse_errors() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(
            Trace::from_jsonl("{\"trace\":\"other\",\"version\":1,\"name\":\"x\",\"n\":2}")
                .is_err()
        );
        let bad_op = "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":2}\n\
                      {\"id\":0,\"phase\":\"p\",\"op\":\"warp\"}";
        let err = Trace::from_jsonl(bad_op).unwrap_err();
        assert!(err.to_string().contains("unknown op"), "{err}");
    }
}
