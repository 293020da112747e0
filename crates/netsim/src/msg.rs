//! Messages and the syscall protocol between processes and the kernel.

use cpm_core::rank::Rank;
use cpm_core::time::Time;
use cpm_core::units::Bytes;

/// A message tag, as in MPI. The default tag is 0.
pub type Tag = u32;

/// What a `recv` returns: the envelope of a delivered message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgView {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: Bytes,
}

/// Kernel-side state of an in-flight message.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MsgState {
    pub view: MsgView,
    /// `true` while the sender is blocked on this transfer (large-message
    /// backpressure).
    pub sender_blocked: bool,
    /// Set when the rx engine finishes processing.
    pub delivered_at: Option<Time>,
}

/// A process's request to the kernel. Sent over the syscall channel; the
/// process then blocks until the kernel grants it again.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Syscall {
    /// Post a blocking send.
    Send { dst: Rank, tag: Tag, bytes: Bytes },
    /// Post a nonblocking (buffered) send; the grant returns immediately
    /// with a handle. Completion = the local tx engine slot ends.
    ISend { dst: Rank, tag: Tag, bytes: Bytes },
    /// Wait for an `ISend` to complete locally.
    WaitSend { handle: usize },
    /// Wait for the local tx engine to drain: every send posted so far has
    /// left it (a script's `WaitSend`, which carries no handle).
    WaitTx,
    /// Wait for a message. `src == None` matches any source; `tag == None`
    /// matches any tag.
    Recv { src: Option<Rank>, tag: Option<Tag> },
    /// Occupy the local CPU for `secs` of virtual time.
    Compute { secs: f64 },
    /// Zero-cost global synchronization of all living processes.
    Barrier,
    /// The rank program returned (or panicked, when `panicked`).
    Finish { panicked: bool },
}

/// The kernel's reply that unblocks a process.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grant {
    /// The process's new local time.
    pub now: Time,
    /// The received message, for grants completing a `Recv`.
    pub msg: Option<MsgView>,
    /// The request handle, for grants answering an `ISend`.
    pub handle: Option<usize>,
}
