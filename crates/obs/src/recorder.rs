//! The flight recorder: a fixed-capacity ring buffer of structured
//! span/event records with lock-free concurrent writers and
//! snapshot-without-stopping readers.
//!
//! # Memory model
//!
//! Every slot is a small fixed set of `AtomicU64` fields guarded by a
//! per-slot *seqlock stamp*. A writer claims a globally unique sequence
//! number with one `fetch_add` on the ring head (wait-free), then owns
//! slot `seq % capacity` for the duration of the write:
//!
//! 1. claim: CAS the stamp from its current *even* value to `2*seq + 1`
//!    (odd = write in progress). A slot whose stamp already exceeds that
//!    value belongs to a *newer* record — the write is abandoned and
//!    counted in [`Recorder::dropped`] rather than clobbering fresher
//!    data. A slot mid-write by an *older* record is waited out with a
//!    bounded spin (this only happens once the ring has lapped, i.e.
//!    `capacity` records were written while one writer was stalled);
//!    if the bound ([`CLAIM_SPIN_LIMIT`]) is exhausted — the older
//!    writer was preempted mid-write — the record is likewise abandoned
//!    and counted dropped, so a stalled writer can delay a lapped slot
//!    but never wedge the write path;
//! 2. fence: a `Release` fence immediately after the successful claim
//!    CAS orders the odd stamp store before every payload store (the
//!    C11 seqlock writer pattern). Without it the CAS's store part is
//!    effectively `Relaxed`, and on weakly-ordered targets (aarch64) a
//!    payload store could become visible *before* the odd stamp — a
//!    reader could then see the old even stamp on both of its loads yet
//!    read payload mixed from two records;
//! 3. publish the payload with `Relaxed` stores — the fields are atomics,
//!    so there is no data race, only the *consistency* question of
//!    whether a reader observes fields from two different records;
//! 4. release: store `2*seq + 2` (even = complete) with `Release`
//!    ordering, making every payload store visible before the stamp.
//!
//! A reader never blocks writers: it loads the stamp with `Acquire`,
//! loads the payload fields `Relaxed`, issues an `Acquire` fence, and
//! re-loads the stamp. The record is accepted only if both stamp loads
//! agree on the same *complete* value; otherwise a writer raced the read
//! and the slot is retried a few times, then skipped. A torn record —
//! fields from two different writes — is therefore impossible to observe:
//! any intervening writer must pass through a distinct odd stamp and can
//! only complete at a *different* even value (sequence numbers are never
//! reused), so the equality check fails.
//!
//! The common-case write is wait-free: one `fetch_add`, one uncontended
//! CAS, a fence, ~a dozen `Relaxed` stores and one `Release` store, plus
//! a monotonic clock read — comfortably inside the 100 ns budget enforced
//! by the release-built test `one_record_costs_under_a_hundred_nanoseconds`.
//! The worst case (lapping a preempted writer) is bounded by the claim
//! spin limit, after which the record is dropped rather than blocking.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::ctx;

/// Default ring capacity (records) of the [global recorder].
///
/// [global recorder]: Recorder::global
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// How many times a writer re-polls a slot held mid-write by an *older*
/// record before abandoning its own record as dropped. Only reachable
/// once the ring has lapped a stalled writer; the bound keeps the write
/// path non-blocking even when that writer was preempted mid-write.
pub const CLAIM_SPIN_LIMIT: u32 = 1 << 10;

/// How a record marks time: the start of a span, its end, or a point
/// event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Span start (`"ph":"B"` in Chrome trace terms).
    Begin,
    /// Span end (`"ph":"E"`).
    End,
    /// Point event (`"ph":"i"`).
    Instant,
}

impl RecordKind {
    fn encode(self) -> u64 {
        match self {
            RecordKind::Begin => 0,
            RecordKind::End => 1,
            RecordKind::Instant => 2,
        }
    }

    fn decode(v: u64) -> RecordKind {
        match v {
            0 => RecordKind::Begin,
            1 => RecordKind::End,
            _ => RecordKind::Instant,
        }
    }
}

/// One decoded flight-recorder record, as returned by
/// [`Recorder::snapshot`].
#[derive(Clone, Debug)]
pub struct Record {
    /// Global sequence number (total order of record claims).
    pub seq: u64,
    /// Begin / end / instant.
    pub kind: RecordKind,
    /// Recorder-assigned thread id of the writer (dense, starts at 0).
    pub tid: u32,
    /// Monotonic nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// Internal request id the record is attributed to (0 = none).
    pub req: u64,
    /// Client-supplied request tag (NUL-padded, at most 16 bytes).
    pub tag: [u8; 16],
    /// Span/event name.
    pub name: &'static str,
    /// Optional structured field key (`""` = none).
    pub key: &'static str,
    /// Numeric field value (meaningful when `key` is non-empty and
    /// `sval` is empty).
    pub num: u64,
    /// String field value (`""` = none; wins over `num` when set).
    pub sval: &'static str,
    /// Distributed-tracing trace id (0 = recorded outside any trace).
    pub trace_id: u64,
    /// This span's own id within the trace (0 for instants and for
    /// records outside any trace).
    pub span_id: u64,
    /// Span id of the parent span — on a remote hop, the span id carried
    /// in on the wire (0 = trace root).
    pub parent_span: u64,
}

impl Record {
    /// The client tag as a string (empty when the record carries none).
    pub fn tag_str(&self) -> String {
        let end = self.tag.iter().position(|&b| b == 0).unwrap_or(16);
        String::from_utf8_lossy(&self.tag[..end]).into_owned()
    }
}

/// One ring slot. All payload fields are atomics, so concurrent access
/// is race-free; the `stamp` seqlock (see the module docs) guarantees a
/// reader only accepts fields written by a single record.
struct Slot {
    stamp: AtomicU64,
    /// kind (bits 32..) | tid (bits 0..32).
    meta: AtomicU64,
    t_ns: AtomicU64,
    req: AtomicU64,
    tag: [AtomicU64; 2],
    name_ptr: AtomicU64,
    name_len: AtomicU64,
    key_ptr: AtomicU64,
    key_len: AtomicU64,
    num: AtomicU64,
    sval_ptr: AtomicU64,
    sval_len: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            req: AtomicU64::new(0),
            tag: [AtomicU64::new(0), AtomicU64::new(0)],
            name_ptr: AtomicU64::new(0),
            name_len: AtomicU64::new(0),
            key_ptr: AtomicU64::new(0),
            key_len: AtomicU64::new(0),
            num: AtomicU64::new(0),
            sval_ptr: AtomicU64::new(0),
            sval_len: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span: AtomicU64::new(0),
        }
    }
}

/// Reconstructs a `&'static str` from a (ptr, len) pair previously
/// written by [`store_str`]. Sound because the seqlock stamp protocol
/// guarantees the pair was published together by a single writer, and
/// writers only ever store pointers derived from genuine `&'static str`
/// values (whose backing bytes live for the program's lifetime).
fn load_str(ptr: u64, len: u64) -> &'static str {
    if len == 0 {
        return "";
    }
    unsafe {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(
            ptr as usize as *const u8,
            len as usize,
        ))
    }
}

fn store_str(s: &'static str) -> (u64, u64) {
    (s.as_ptr() as usize as u64, s.len() as u64)
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32;
}

/// The recorder-assigned id of the calling thread (dense, starts at 0,
/// stable for the thread's lifetime).
pub fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// The flight recorder. See the [module docs](self) for the memory
/// model; see [`Recorder::global`] for the process-wide instance the
/// serve/drift/workload layers write to.
pub struct Recorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
    enabled: AtomicBool,
    epoch: Instant,
    next_request: AtomicU64,
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

impl Recorder {
    /// Creates a recorder with at least `capacity` slots (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Recorder {
        let capacity = capacity.max(8).next_power_of_two();
        Recorder {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            next_request: AtomicU64::new(1),
        }
    }

    /// The process-wide recorder (capacity [`DEFAULT_CAPACITY`]),
    /// created on first use.
    pub fn global() -> &'static Recorder {
        GLOBAL.get_or_init(|| Recorder::new(DEFAULT_CAPACITY))
    }

    /// Turns recording on or off. Disabled recorders drop records at the
    /// first branch of [`Recorder::record`] — the knob behind the
    /// recorder-on vs. recorder-off overhead gate in CI.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether records are currently accepted.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records *claimed* since creation. This counts every
    /// sequence number handed out, including claims that were later
    /// abandoned (see [`Recorder::dropped`]) and records since
    /// overwritten by ring wrap-around — so `recorded() - dropped()` is
    /// the number of records actually written, **not** the number
    /// retrievable from [`Recorder::snapshot`].
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records abandoned without being written: either a newer record
    /// had already claimed the same slot, or an older record held the
    /// slot mid-write past [`CLAIM_SPIN_LIMIT`]. Both are only possible
    /// once the ring has lapped a stalled writer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Monotonic nanoseconds since this recorder was created — the time
    /// base of every [`Record::t_ns`].
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates the next internal request id (1-based, monotone).
    pub fn next_request_id(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Writes one record. The request id and tag are taken from the
    /// calling thread's [request context](crate::ctx); the trace id from
    /// its tracing context (instants parent to the current span).
    pub fn record(
        &self,
        kind: RecordKind,
        name: &'static str,
        key: &'static str,
        num: u64,
        sval: &'static str,
    ) {
        let (trace_id, parent) = ctx::trace_current();
        self.record_traced(kind, name, key, num, sval, trace_id, 0, parent);
    }

    /// Writes one record with explicit trace/span ids (the span guard's
    /// path — [`Recorder::record`] fills them from the thread context).
    #[allow(clippy::too_many_arguments)]
    fn record_traced(
        &self,
        kind: RecordKind,
        name: &'static str,
        key: &'static str,
        num: u64,
        sval: &'static str,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let (req, tag) = ctx::current();
        let t_ns = self.now_ns();
        let tid = current_tid();
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        let writing = seq * 2 + 1;
        // Claim the slot (see the module docs): abandon if a newer record
        // owns it, wait out an older in-progress write up to the spin
        // limit. Abandoning never touches the payload, so the slot keeps
        // whatever complete record it already held — at quiescence every
        // claimed slot therefore still holds one untorn record (the
        // concurrent proptest's final assertion relies on this).
        let mut spins = 0u32;
        let mut cur = slot.stamp.load(Ordering::Relaxed);
        loop {
            if cur > writing {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if cur & 1 == 1 {
                if spins >= CLAIM_SPIN_LIMIT {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                spins += 1;
                std::hint::spin_loop();
                cur = slot.stamp.load(Ordering::Relaxed);
                continue;
            }
            match slot.stamp.compare_exchange_weak(
                cur,
                writing,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        // Seqlock writer fence: order the odd claim stamp before the
        // payload stores below. The CAS's store part is effectively
        // Relaxed, so without this a reader on a weakly-ordered target
        // could observe new payload under the slot's old even stamp and
        // assemble a torn record.
        fence(Ordering::Release);
        let (name_ptr, name_len) = store_str(name);
        let (key_ptr, key_len) = store_str(key);
        let (sval_ptr, sval_len) = store_str(sval);
        slot.meta
            .store(kind.encode() << 32 | u64::from(tid), Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.req.store(req, Ordering::Relaxed);
        slot.tag[0].store(
            u64::from_le_bytes(tag[..8].try_into().unwrap()),
            Ordering::Relaxed,
        );
        slot.tag[1].store(
            u64::from_le_bytes(tag[8..].try_into().unwrap()),
            Ordering::Relaxed,
        );
        slot.name_ptr.store(name_ptr, Ordering::Relaxed);
        slot.name_len.store(name_len, Ordering::Relaxed);
        slot.key_ptr.store(key_ptr, Ordering::Relaxed);
        slot.key_len.store(key_len, Ordering::Relaxed);
        slot.num.store(num, Ordering::Relaxed);
        slot.sval_ptr.store(sval_ptr, Ordering::Relaxed);
        slot.sval_len.store(sval_len, Ordering::Relaxed);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.span_id.store(span_id, Ordering::Relaxed);
        slot.parent_span.store(parent_span, Ordering::Relaxed);
        slot.stamp.store(seq * 2 + 2, Ordering::Release);
    }

    /// Records a point event with a numeric field (`key` may be `""`).
    pub fn instant(&self, name: &'static str, key: &'static str, num: u64) {
        self.record(RecordKind::Instant, name, key, num, "");
    }

    /// Records a point event with a string field.
    pub fn instant_str(&self, name: &'static str, key: &'static str, sval: &'static str) {
        self.record(RecordKind::Instant, name, key, sval.len() as u64, sval);
    }

    /// Opens a span: records the begin edge now, the end edge when the
    /// returned guard drops (with any field set on the guard). When the
    /// calling thread has an active [tracing context](crate::ctx), the
    /// span allocates its own span id, records the current span as its
    /// parent, and becomes the current span until the guard drops — so
    /// nested spans form a tree and spans on the next hop (which carry
    /// this span's id as their wire parent) link across processes.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let (trace_id, parent) = ctx::trace_current();
        // Id allocation is skipped when recording is off, so the
        // recorder-disabled path stays as close to free as the record
        // path itself (the CI obs-overhead gate measures exactly this).
        let (span_id, prev) = if trace_id != 0 && self.enabled() {
            let id = ctx::next_span_id();
            (id, ctx::set_trace_span(id))
        } else {
            (0, 0)
        };
        self.record_traced(
            RecordKind::Begin,
            name,
            "",
            0,
            "",
            trace_id,
            span_id,
            parent,
        );
        Span {
            rec: self,
            name,
            key: "",
            num: 0,
            sval: "",
            trace_id,
            span_id,
            parent_span: parent,
            prev_span: prev,
        }
    }

    /// Reads every decodable record without stopping writers, in
    /// sequence order. Slots mid-write are retried briefly, then
    /// skipped; the result is a consistent set of untorn records, not
    /// necessarily a gapless window (see the module docs).
    pub fn snapshot(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(
            self.slots
                .len()
                .min(usize::try_from(self.head.load(Ordering::Relaxed)).unwrap_or(usize::MAX)),
        );
        for slot in self.slots.iter() {
            for _attempt in 0..8 {
                let s1 = slot.stamp.load(Ordering::Acquire);
                if s1 == 0 {
                    break; // never written
                }
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue; // mid-write: retry
                }
                let meta = slot.meta.load(Ordering::Relaxed);
                let t_ns = slot.t_ns.load(Ordering::Relaxed);
                let req = slot.req.load(Ordering::Relaxed);
                let tag0 = slot.tag[0].load(Ordering::Relaxed);
                let tag1 = slot.tag[1].load(Ordering::Relaxed);
                let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
                let name_len = slot.name_len.load(Ordering::Relaxed);
                let key_ptr = slot.key_ptr.load(Ordering::Relaxed);
                let key_len = slot.key_len.load(Ordering::Relaxed);
                let num = slot.num.load(Ordering::Relaxed);
                let sval_ptr = slot.sval_ptr.load(Ordering::Relaxed);
                let sval_len = slot.sval_len.load(Ordering::Relaxed);
                let trace_id = slot.trace_id.load(Ordering::Relaxed);
                let span_id = slot.span_id.load(Ordering::Relaxed);
                let parent_span = slot.parent_span.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.stamp.load(Ordering::Relaxed) != s1 {
                    continue; // a writer raced us: retry
                }
                let mut tag = [0u8; 16];
                tag[..8].copy_from_slice(&tag0.to_le_bytes());
                tag[8..].copy_from_slice(&tag1.to_le_bytes());
                out.push(Record {
                    seq: (s1 - 2) / 2,
                    kind: RecordKind::decode(meta >> 32),
                    tid: (meta & u64::from(u32::MAX)) as u32,
                    t_ns,
                    req,
                    tag,
                    name: load_str(name_ptr, name_len),
                    key: load_str(key_ptr, key_len),
                    num,
                    sval: load_str(sval_ptr, sval_len),
                    trace_id,
                    span_id,
                    parent_span,
                });
                break;
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// RAII span guard: records the end edge (with any field set via
/// [`Span::field_u64`] / [`Span::field_str`]) when dropped.
pub struct Span<'a> {
    rec: &'a Recorder,
    name: &'static str,
    key: &'static str,
    num: u64,
    sval: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_span: u64,
    prev_span: u64,
}

impl Span<'_> {
    /// Attaches a numeric field, emitted on the span's end record.
    pub fn field_u64(&mut self, key: &'static str, num: u64) {
        self.key = key;
        self.num = num;
        self.sval = "";
    }

    /// Attaches a string field, emitted on the span's end record.
    pub fn field_str(&mut self, key: &'static str, sval: &'static str) {
        self.key = key;
        self.sval = sval;
    }

    /// This span's id within the active trace (0 when no trace was
    /// active at creation). The value a downstream hop must carry as its
    /// wire `parent` to appear as this span's child in a merged trace.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec.record_traced(
            RecordKind::End,
            self.name,
            self.key,
            self.num,
            self.sval,
            self.trace_id,
            self.span_id,
            self.parent_span,
        );
        if self.span_id != 0 {
            ctx::set_trace_span(self.prev_span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_a_snapshot() {
        let rec = Recorder::new(64);
        {
            let mut sp = rec.span("outer");
            sp.field_str("verb", "predict");
            rec.instant("tick", "m", 4096);
        }
        let records = rec.snapshot();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, RecordKind::Begin);
        assert_eq!(records[0].name, "outer");
        assert_eq!(records[1].kind, RecordKind::Instant);
        assert_eq!((records[1].key, records[1].num), ("m", 4096));
        assert_eq!(records[2].kind, RecordKind::End);
        assert_eq!(records[2].sval, "predict");
        assert!(records[1].t_ns >= records[0].t_ns);
        assert!(records[2].t_ns >= records[1].t_ns);
    }

    #[test]
    fn spans_form_a_tree_under_a_trace_context() {
        let rec = Recorder::new(64);
        let _t = ctx::with_trace(0xfeed, 0x77);
        let outer_id;
        {
            let outer = rec.span("outer");
            outer_id = outer.span_id();
            let inner = rec.span("inner");
            assert_ne!(outer_id, 0);
            assert_ne!(inner.span_id(), 0);
            rec.instant("tick", "", 0);
        }
        let records = rec.snapshot();
        assert!(records.iter().all(|r| r.trace_id == 0xfeed));
        // outer B, inner B, tick i, inner E, outer E.
        assert_eq!(records[0].parent_span, 0x77); // wire parent
        assert_eq!(records[1].parent_span, outer_id);
        assert_eq!(records[2].parent_span, records[1].span_id); // instant under inner
        assert_eq!(records[2].span_id, 0);
        assert_eq!(records[4].span_id, outer_id);
        // Guard restored: a fresh span parents to the wire parent again.
        let fresh = rec.span("fresh");
        assert_eq!(rec.snapshot().last().unwrap().parent_span, 0x77);
        drop(fresh);
    }

    #[test]
    fn untraced_spans_carry_no_trace_fields() {
        let rec = Recorder::new(8);
        drop(rec.span("plain"));
        for r in rec.snapshot() {
            assert_eq!((r.trace_id, r.span_id, r.parent_span), (0, 0, 0));
        }
    }

    #[test]
    fn ring_wraps_keeping_the_newest_records() {
        let rec = Recorder::new(8);
        for i in 0..100u64 {
            rec.instant("n", "i", i);
        }
        let records = rec.snapshot();
        assert_eq!(records.len(), 8);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<u64>>());
        assert_eq!(records.last().unwrap().num, 99);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = Recorder::new(8);
        rec.set_enabled(false);
        rec.instant("n", "", 0);
        assert_eq!(rec.recorded(), 0);
        assert!(rec.snapshot().is_empty());
        rec.set_enabled(true);
        rec.instant("n", "", 0);
        assert_eq!(rec.snapshot().len(), 1);
    }

    /// The recorder sits inside every served request, so one record —
    /// claim a sequence number, stamp the slot, store the payload,
    /// release — must stay under 100 ns for tracing to be affordable
    /// always-on. The budget is generous against the measured tens of ns:
    /// it catches an accidental lock or allocation, not machine noise.
    /// The million records are timed as nine equal batches and the median
    /// batch is judged: a lock or an allocation slows every batch, while a
    /// neighbour's burst on a shared host slows only some. Long batches
    /// amortize the clock reads; unoptimized builds are not timed.
    #[test]
    fn one_record_costs_under_a_hundred_nanoseconds() {
        const BUDGET_NS: f64 = 100.0;
        const BATCHES: u64 = 9;
        let rec = Recorder::new(1 << 16);
        let per_batch = 1_000_000u64.div_ceil(BATCHES);
        let mut batch_ns: Vec<f64> = (0..BATCHES)
            .map(|b| {
                let t0 = Instant::now();
                for i in b * per_batch..(b + 1) * per_batch {
                    rec.instant(
                        std::hint::black_box("gate.instant"),
                        "i",
                        std::hint::black_box(i),
                    );
                }
                t0.elapsed().as_nanos() as f64 / per_batch as f64
            })
            .collect();
        batch_ns.sort_by(f64::total_cmp);
        let per_record_ns = batch_ns[batch_ns.len() / 2];
        let n = BATCHES * per_batch;
        assert_eq!(rec.recorded(), n);
        if !cfg!(debug_assertions) {
            assert!(
                per_record_ns < BUDGET_NS,
                "recording one instant costs {per_record_ns:.1} ns in the median batch \
                 (batches {batch_ns:.1?}), budget {BUDGET_NS} ns"
            );
        }
    }
}
