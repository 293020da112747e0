//! The discrete-event kernel.
//!
//! The kernel owns the virtual clock, the event queue, the per-node
//! resources (tx engine, rx engine, ingress port) and the in-flight message
//! table. Rank programs run on their own OS threads but **exactly one runs
//! at a time**: the kernel grants the process with the earliest pending
//! wake, then blocks until that process issues its next syscall. All state
//! changes therefore happen in non-decreasing virtual time and every run is
//! deterministic for a given seed.
//!
//! ## Transfer timeline
//!
//! A blocking send of `M` bytes from `i` to `j` posted at local time `t₀`:
//!
//! ```text
//! tx engine i : [s₀, s₁]   s₀ = max(t₀, tx_free_i), s₁ = s₀ + C_i + M·t_i (+ leap stall)
//! fabric      : arrival a = s₁ + L_ij
//! ingress j   : M < M2 → done d = a + M/β_ij (+ possible incast escalation)
//!               M ≥ M2 → FIFO: d = max(a, ingress_free_j) + M/β_ij, sender blocked until d
//! rx engine j : [r₀, r₁]   r₀ = max(d, rx_free_j), r₁ = r₀ + C_j + M·t_j
//! ```
//!
//! `send` returns at `s₁` (or `d` in the large regime); `recv` completes at
//! `r₁`. Summed over a lone transfer this is exactly the extended LMO
//! point-to-point time `C_i + L_ij + C_j + M(t_i + 1/β_ij + t_j)`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use cpm_core::error::{CpmError, Result};
use cpm_core::rank::Rank;
use cpm_core::time::Time;

use crate::cluster::SimCluster;
use crate::event::{DesEventCounts, EventKind, EventQueue, MsgId, ProcId};
use crate::msg::{Grant, MsgState, MsgView, Syscall, Tag};
use crate::noise::NoiseSource;
use crate::pairs::PairTable;
use crate::proc::Proc;
use crate::script::ScriptProc;
use crate::trace::{Trace, TraceEvent};

/// Kernel counters, for conservation checks and performance analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages posted by `send`.
    pub msgs_sent: usize,
    /// Messages fully processed by an rx engine (visible to `recv`).
    pub msgs_delivered: usize,
    /// Messages consumed by a matching `recv`.
    pub msgs_received: usize,
    /// Events the kernel processed.
    pub events: usize,
    /// Peak number of simultaneously pending events: all the event queue
    /// ever held at once (the name dates from a separate slot pool). It
    /// tracks the ranks, not the length of the run.
    pub pool_slots: usize,
}

/// The value a simulation returns.
#[derive(Clone, Debug)]
pub struct SimOutcome<R> {
    /// Per-rank return values of the rank programs.
    pub results: Vec<R>,
    /// Virtual time at which the last process finished, seconds.
    pub end_time: f64,
    /// Per-rank finish times, seconds.
    pub finish_times: Vec<f64>,
    /// Kernel counters. In a program that receives everything it sends,
    /// `msgs_sent == msgs_delivered == msgs_received`.
    pub stats: SimStats,
}

/// A boxed rank program (MPMD form).
pub type RankProgram<'a, R> = Box<dyn FnOnce(&mut Proc) -> R + Send + 'a>;

/// Runs one SPMD program on every rank of the cluster (the usual MPI
/// shape: the closure branches on `p.rank()`).
pub fn simulate<R, F>(cluster: &SimCluster, f: F) -> Result<SimOutcome<R>>
where
    R: Send,
    F: Fn(&mut Proc) -> R + Sync,
{
    let progs: Vec<RankProgram<'_, R>> = (0..cluster.n())
        .map(|_| {
            let fr = &f;
            Box::new(move |p: &mut Proc| fr(p)) as RankProgram<'_, R>
        })
        .collect();
    simulate_mpmd(cluster, progs)
}

/// Runs one SPMD program on every rank, recording a full execution trace.
pub fn simulate_traced<R, F>(cluster: &SimCluster, f: F) -> Result<(SimOutcome<R>, Trace)>
where
    R: Send,
    F: Fn(&mut Proc) -> R + Sync,
{
    let progs: Vec<RankProgram<'_, R>> = (0..cluster.n())
        .map(|_| {
            let fr = &f;
            Box::new(move |p: &mut Proc| fr(p)) as RankProgram<'_, R>
        })
        .collect();
    let (out, trace) = simulate_mpmd_inner(cluster, progs, true)?;
    Ok((out, trace.expect("trace requested")))
}

/// Runs one distinct program per rank.
///
/// # Panics
/// Panics when `progs.len()` differs from the cluster size.
pub fn simulate_mpmd<'a, R: Send>(
    cluster: &SimCluster,
    progs: Vec<RankProgram<'a, R>>,
) -> Result<SimOutcome<R>> {
    Ok(simulate_mpmd_inner(cluster, progs, false)?.0)
}

fn simulate_mpmd_inner<'a, R: Send>(
    cluster: &SimCluster,
    progs: Vec<RankProgram<'a, R>>,
    traced: bool,
) -> Result<(SimOutcome<R>, Option<Trace>)> {
    let n = cluster.n();
    assert_eq!(progs.len(), n, "need one program per rank ({n})");
    assert!(n >= 1, "cluster must have at least one node");

    let (sys_tx, sys_rx) = unbounded::<(ProcId, Syscall)>();
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    let kernel_out = std::thread::scope(|scope| {
        let mut ports = Vec::with_capacity(n);
        for (idx, prog) in progs.into_iter().enumerate() {
            let (gtx, grx) = unbounded::<Grant>();
            ports.push(ProcPort::Thread(gtx));
            let sys_tx = sys_tx.clone();
            let results = &results;
            scope.spawn(move || {
                let mut proc = Proc {
                    id: idx,
                    n,
                    now: Time::ZERO,
                    grant_rx: grx,
                    sys_tx,
                };
                if !proc_wait_first_grant(&mut proc) {
                    // The kernel died before the simulation started; exit
                    // quietly so the scope can join.
                    return;
                }
                match catch_unwind(AssertUnwindSafe(|| prog(&mut proc))) {
                    Ok(v) => {
                        results.lock()[idx] = Some(v);
                        proc.finish(false);
                    }
                    Err(_) => proc.finish(true),
                }
            });
        }
        drop(sys_tx);
        Kernel::new(cluster, ports, sys_rx, traced).run()
    })?;

    if !kernel_out.panicked.is_empty() {
        return Err(CpmError::Simulation(format!(
            "rank program(s) panicked on rank(s) {:?}",
            kernel_out.panicked
        )));
    }
    let results = results
        .into_inner()
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| CpmError::Simulation(format!("rank {i} produced no result"))))
        .collect::<Result<Vec<R>>>()?;

    Ok((
        SimOutcome {
            results,
            end_time: kernel_out.end_time.secs(),
            finish_times: kernel_out.finish_times.iter().map(|t| t.secs()).collect(),
            stats: kernel_out.stats,
        },
        kernel_out.trace,
    ))
}

fn proc_wait_first_grant(proc: &mut Proc) -> bool {
    match proc.grant_rx.recv() {
        Ok(grant) => {
            proc.now = grant.now;
            true
        }
        Err(_) => false,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Blocked: waiting for a wake event, a matching message, or a large
    /// transfer to drain.
    Idle,
    /// Waiting at the global barrier.
    AtBarrier,
    Finished,
}

/// How the kernel drives a rank: a channel to a dedicated OS thread (the
/// general programming model), or an in-kernel script interpreter (the
/// threadless fast path for straight-line replay programs).
pub(crate) enum ProcPort<'c> {
    Thread(Sender<Grant>),
    Script(ScriptProc<'c>),
}

struct ProcState<'c> {
    port: ProcPort<'c>,
    status: Status,
    local: Time,
    pending_recv: Option<(Option<Rank>, Option<Tag>)>,
    ready_msg: Option<MsgView>,
    panicked: bool,
}

pub(crate) struct KernelOut {
    pub(crate) end_time: Time,
    pub(crate) finish_times: Vec<Time>,
    pub(crate) panicked: Vec<usize>,
    pub(crate) stats: SimStats,
    pub(crate) trace: Option<Trace>,
    /// Per-rank op windows for scripted ranks (empty for threaded ranks).
    pub(crate) windows: Vec<Vec<(f64, f64)>>,
    /// Per-kind counts of the events the kernel fired (traced runs only).
    pub(crate) des_events: Option<DesEventCounts>,
}

/// Runs scripted programs through the kernel (no rank threads; the dummy
/// syscall channel is never used because no `ProcPort::Thread` exists).
pub(crate) fn run_scripts_kernel<'c>(
    cluster: &'c SimCluster,
    scripts: Vec<ScriptProc<'c>>,
    traced: bool,
) -> Result<KernelOut> {
    let (_sys_tx, sys_rx) = unbounded::<(ProcId, Syscall)>();
    // The log holds three slots per send and one match per receive:
    // reserving them spares a large traced run its regrowth copies.
    let logged = traced.then(|| scripts.iter().map(ScriptProc::logged_events).sum());
    let ports = scripts.into_iter().map(ProcPort::Script).collect();
    let mut kernel = Kernel::new(cluster, ports, sys_rx, traced);
    if let (Some(trace), Some(logged)) = (&mut kernel.trace, logged) {
        trace.events.reserve(logged);
    }
    kernel.run()
}

struct Kernel<'c> {
    cl: &'c SimCluster,
    q: EventQueue,
    msgs: Vec<MsgState>,
    /// Delivered-but-unreceived messages per process, in delivery order.
    mailbox: Vec<Vec<MsgId>>,
    procs: Vec<ProcState<'c>>,
    tx_free: Vec<Time>,
    rx_free: Vec<Time>,
    ingress_free: Vec<Time>,
    /// When each ordered pair's connection is free again: one TCP
    /// connection delivers in order at link bandwidth, so back-to-back
    /// messages between the same endpoints serialize on the wire, while
    /// flows to different destinations cross the switch in parallel. An
    /// entry appears with a pair's first message: a run costs
    /// O(connections used), not `n²`.
    conn_free: PairTable<Time>,
    /// Shared uplink occupancy for cross-switch transfers (two-switch
    /// topology only; unused on a single switch).
    uplink_free: Time,
    /// The source of every inbound transfer currently crossing each node's
    /// ingress (`inbound[dst]`, unordered, one entry per transfer). Incast
    /// escalation requires a concurrent inbound transfer from a
    /// *different* source — a single back-to-back stream over one
    /// connection never trips it.
    inbound: Vec<Vec<Rank>>,
    barrier_waiters: usize,
    alive: usize,
    now: Time,
    rng: ChaCha8Rng,
    /// Dedicated stream for measurement noise, seeded from the cluster's
    /// `noise_seed` mixed with the run seed: pinning `noise_seed` makes the
    /// noise ensemble reproducible while escalation draws (on `rng`) stay
    /// independent, and reseeded runs still vary their noise.
    noise_rng: ChaCha8Rng,
    noise: NoiseSource,
    sys_rx: Receiver<(ProcId, Syscall)>,
    finish_times: Vec<Time>,
    stats: SimStats,
    trace: Option<Trace>,
    /// Per-kind counts of fired events, kept by the dispatch loop (traced
    /// runs only; `None` costs an untaken branch per event).
    des_counts: Option<DesEventCounts>,
    /// Per-message local send-completion time (end of the tx slot) —
    /// what `WaitSend` waits for.
    send_local_done: Vec<Time>,
}

impl<'c> Kernel<'c> {
    fn new(
        cl: &'c SimCluster,
        ports: Vec<ProcPort<'c>>,
        sys_rx: Receiver<(ProcId, Syscall)>,
        traced: bool,
    ) -> Self {
        let n = ports.len();
        Kernel {
            cl,
            q: EventQueue::with_fuzz(cl.fuzz_seed),
            msgs: Vec::new(),
            mailbox: vec![Vec::new(); n],
            procs: ports
                .into_iter()
                .map(|port| ProcState {
                    port,
                    status: Status::Idle,
                    local: Time::ZERO,
                    pending_recv: None,
                    ready_msg: None,
                    panicked: false,
                })
                .collect(),
            tx_free: vec![Time::ZERO; n],
            rx_free: vec![Time::ZERO; n],
            ingress_free: vec![Time::ZERO; n],
            conn_free: PairTable::new(n),
            uplink_free: Time::ZERO,
            inbound: vec![Vec::new(); n],
            barrier_waiters: 0,
            alive: n,
            now: Time::ZERO,
            rng: ChaCha8Rng::seed_from_u64(cl.seed ^ 0xc0ff_ee00_dead_beef),
            noise_rng: ChaCha8Rng::seed_from_u64(
                cl.noise_seed ^ cl.seed.rotate_left(17) ^ 0x0b5e_55ed_0000_5eed,
            ),
            noise: NoiseSource::new(cl.noise_rel),
            sys_rx,
            finish_times: vec![Time::ZERO; n],
            stats: SimStats::default(),
            trace: traced.then(Trace::default),
            des_counts: traced.then(DesEventCounts::default),
            send_local_done: Vec::new(),
        }
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.events.push(event);
        }
    }

    /// Books a message's tx-engine slot and fabric arrival; returns the
    /// message id. `block_sender` marks the sender as waiting for ingress
    /// admission (blocking large sends); nonblocking sends pass `false`.
    fn post_send(
        &mut self,
        p: ProcId,
        dst: Rank,
        tag: Tag,
        bytes: cpm_core::units::Bytes,
        block_sender: bool,
    ) -> MsgId {
        let t0 = self.procs[p].local;
        let (c, t) = self.cl.engine(p);
        let dur = self.noisy(c + bytes as f64 * t) + self.cl.profile.leap_stall(bytes);
        let s0 = self.tx_free[p].max(t0);
        let s1 = s0 + Time::from_secs(dur);
        self.tx_free[p] = s1;

        self.stats.msgs_sent += 1;
        let mid = self.msgs.len();
        self.msgs.push(MsgState {
            view: MsgView {
                src: Rank::from(p),
                dst,
                tag,
                bytes,
            },
            sender_blocked: block_sender,
            delivered_at: None,
        });
        self.send_local_done.push(s1);
        self.emit(TraceEvent::TxSlot {
            msg: mid,
            src: Rank::from(p),
            dst,
            bytes,
            start: s0.secs(),
            end: s1.secs(),
        });
        let mut lat = self.noisy(self.cl.latency(Rank::from(p), dst));
        if self.cl.topology.crosses(p, dst.idx()) {
            if let Some((_, uplink_lat)) = self.cl.topology.uplink() {
                lat += uplink_lat;
            }
        }
        self.q
            .push(s1 + Time::from_secs(lat), EventKind::Arrive(mid));
        mid
    }

    fn noisy(&mut self, d: f64) -> f64 {
        self.noise.apply(d, &mut self.noise_rng)
    }

    fn run(mut self) -> Result<KernelOut> {
        for p in 0..self.procs.len() {
            self.q.push(Time::ZERO, EventKind::Wake(p));
        }
        while self.alive > 0 {
            let Some(ev) = self.q.pop() else {
                return Err(CpmError::Simulation(self.deadlock_report()));
            };
            debug_assert!(ev.at >= self.now, "virtual time must not run backwards");
            self.now = ev.at;
            self.stats.events += 1;
            if let Some(counts) = &mut self.des_counts {
                counts.observe(&ev.kind);
            }
            match ev.kind {
                EventKind::Wake(p) => self.wake(p)?,
                EventKind::Arrive(m) => self.arrive(m),
                EventKind::TransferDone(m) => self.transfer_done(m),
                EventKind::Deliver(m) => self.deliver(m),
            }
        }
        let end_time = self
            .finish_times
            .iter()
            .copied()
            .max()
            .unwrap_or(Time::ZERO);
        let panicked = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.panicked)
            .map(|(i, _)| i)
            .collect();
        self.stats.pool_slots = self.q.stats().pool_slots;
        let windows = self
            .procs
            .iter_mut()
            .map(|p| match &mut p.port {
                ProcPort::Script(s) => std::mem::take(&mut s.windows),
                ProcPort::Thread(_) => Vec::new(),
            })
            .collect();
        Ok(KernelOut {
            end_time,
            finish_times: self.finish_times,
            panicked,
            stats: self.stats,
            trace: self.trace,
            windows,
            des_events: self.des_counts,
        })
    }

    fn deadlock_report(&self) -> String {
        let mut parts = Vec::new();
        for (i, p) in self.procs.iter().enumerate() {
            match p.status {
                Status::Finished => {}
                Status::AtBarrier => parts.push(format!("rank {i} at barrier")),
                Status::Idle => match &p.pending_recv {
                    Some((src, tag)) => parts.push(format!(
                        "rank {i} waiting to receive from {src:?} tag {tag:?}"
                    )),
                    None => parts.push(format!("rank {i} blocked")),
                },
            }
        }
        format!(
            "deadlock with {} live processes: {}",
            self.alive,
            parts.join("; ")
        )
    }

    /// Grants `p` at the current time and handles its next syscall — and,
    /// while that is a nonblocking send, the one after it: the rank keeps
    /// running, so it is granted again at once with the message handle, in
    /// this same handling (no DES event on either port).
    fn wake(&mut self, p: ProcId) -> Result<()> {
        if self.procs[p].status == Status::Finished {
            debug_assert!(false, "wake scheduled for finished rank {p}");
            return Ok(());
        }
        self.procs[p].local = self.now;
        let mut grant = Grant {
            now: self.now,
            msg: self.procs[p].ready_msg.take(),
            handle: None,
        };
        loop {
            let sc = match &mut self.procs[p].port {
                ProcPort::Thread(grant_tx) => {
                    grant_tx.send(grant).map_err(|_| {
                        CpmError::Simulation(format!("rank {p} died before its grant"))
                    })?;
                    let (from, sc) = self.sys_rx.recv().map_err(|_| {
                        CpmError::Simulation("all rank programs disappeared".to_string())
                    })?;
                    debug_assert_eq!(from, p, "only the granted process may issue a syscall");
                    sc
                }
                ProcPort::Script(s) => s.step(grant.now),
            };
            let Some(posted) = self.handle_syscall(p, sc) else {
                return Ok(());
            };
            grant = Grant {
                now: self.now,
                msg: None,
                handle: Some(posted),
            };
        }
    }

    /// Handles one syscall of `p`. Returns the message handle when the
    /// call was a nonblocking send, i.e. when `p` is still running.
    fn handle_syscall(&mut self, p: ProcId, sc: Syscall) -> Option<MsgId> {
        match sc {
            Syscall::ISend { dst, tag, bytes } => {
                // Same resource accounting as a blocking send, but the
                // process continues immediately, at the same local time,
                // holding the message handle. Buffered semantics:
                // completion is the end of the local tx slot even in the
                // large regime.
                return Some(self.post_send(p, dst, tag, bytes, false));
            }
            Syscall::WaitSend { handle } => {
                let done = self.send_local_done[handle];
                self.q
                    .push(done.max(self.procs[p].local), EventKind::Wake(p));
            }
            Syscall::WaitTx => {
                let done = self.tx_free[p];
                self.q
                    .push(done.max(self.procs[p].local), EventKind::Wake(p));
            }
            Syscall::Send { dst, tag, bytes } => {
                let large = self.cl.profile.is_large(bytes);
                let mid = self.post_send(p, dst, tag, bytes, large);
                if !large {
                    self.q.push(self.send_local_done[mid], EventKind::Wake(p));
                }
                // Large sends wake when the ingress admits the transfer
                // (see `arrive`).
            }
            Syscall::Recv { src, tag } => {
                if let Some(pos) = self.find_in_mailbox(p, src, tag) {
                    let mid = self.mailbox[p].remove(pos);
                    self.stats.msgs_received += 1;
                    self.emit(TraceEvent::Received {
                        msg: mid,
                        by: Rank::from(p),
                        at: self.procs[p].local.secs(),
                    });
                    self.procs[p].ready_msg = Some(self.msgs[mid].view);
                    self.q.push(self.procs[p].local, EventKind::Wake(p));
                } else {
                    self.procs[p].pending_recv = Some((src, tag));
                }
            }
            Syscall::Compute { secs } => {
                let d = self.noisy(secs);
                let at = self.procs[p].local + Time::from_secs(d);
                self.q.push(at, EventKind::Wake(p));
            }
            Syscall::Barrier => {
                self.procs[p].status = Status::AtBarrier;
                self.barrier_waiters += 1;
                self.try_release_barrier();
            }
            Syscall::Finish { panicked } => {
                self.procs[p].status = Status::Finished;
                self.procs[p].panicked = panicked;
                self.finish_times[p] = self.procs[p].local;
                self.alive -= 1;
                // A finishing process may have been the last one the
                // barrier was waiting for.
                self.try_release_barrier();
            }
        }
        None
    }

    fn try_release_barrier(&mut self) {
        if self.barrier_waiters == 0 || self.barrier_waiters != self.alive {
            return;
        }
        let release = self
            .procs
            .iter()
            .filter(|p| p.status == Status::AtBarrier)
            .map(|p| p.local)
            .max()
            .expect("at least one barrier waiter");
        for p in 0..self.procs.len() {
            if self.procs[p].status == Status::AtBarrier {
                self.procs[p].status = Status::Idle;
                self.q.push(release, EventKind::Wake(p));
            }
        }
        self.barrier_waiters = 0;
        self.emit(TraceEvent::BarrierRelease { at: release.secs() });
    }

    fn find_in_mailbox(&self, p: ProcId, src: Option<Rank>, tag: Option<Tag>) -> Option<usize> {
        self.mailbox[p].iter().position(|&mid| {
            let v = &self.msgs[mid].view;
            src.is_none_or(|s| s == v.src) && tag.is_none_or(|t| t == v.tag)
        })
    }

    /// A message reaches the receiver's ingress port.
    fn arrive(&mut self, m: MsgId) {
        let view = self.msgs[m].view;
        let j = view.dst.idx();
        let crossing = self.cl.topology.crosses(view.src.idx(), view.dst.idx());
        let beta = {
            let access = self.cl.rate(view.src, view.dst);
            match (crossing, self.cl.topology.uplink()) {
                (true, Some((uplink_beta, _))) => access.min(uplink_beta),
                _ => access,
            }
        };
        let wire = self.noisy(view.bytes as f64 / beta);

        let i = view.src.idx();
        let large = self.cl.profile.is_large(view.bytes);
        let conn_free = self.conn_free.slot(i, j);
        let mut start = (*conn_free).max(self.now);
        let mut extra = 0.0;
        if large {
            // TCP backpressure: the ingress port is a FIFO resource shared
            // by every inbound large flow. The sender's blocking send
            // returns once the transfer is *admitted* (starts crossing the
            // ingress): an uncongested receiver costs the sender nothing
            // extra, a congested one stalls it — which is why large-message
            // gather serializes while large-message scatter stays parallel.
            start = start.max(self.ingress_free[j]);
        } else if self.cl.profile.is_medium(view.bytes)
            && self.inbound[j].iter().any(|&s| s != view.src)
        {
            // Incast: concurrent inbound medium flows from distinct
            // sources can trip a TCP retransmission stall.
            let pr = self.cl.profile.escalation_probability(view.bytes);
            if self.rng.gen::<f64>() < pr {
                extra = self
                    .rng
                    .gen_range(self.cl.profile.escalation_min..=self.cl.profile.escalation_max);
            }
        }
        // A cross-switch transfer additionally serializes on the shared
        // uplink — the contention the single-switch model cannot see.
        if crossing {
            start = start.max(self.uplink_free);
        }
        let done = start + Time::from_secs(wire + extra);
        *conn_free = done;
        self.inbound[j].push(view.src);
        if crossing {
            self.uplink_free = done;
        }
        if large {
            self.ingress_free[j] = done;
            if self.msgs[m].sender_blocked {
                self.msgs[m].sender_blocked = false;
                self.q.push(start, EventKind::Wake(i));
            }
        }
        self.emit(TraceEvent::Wire {
            msg: m,
            src: view.src,
            dst: view.dst,
            start: start.secs(),
            end: done.secs(),
        });
        self.q.push(done, EventKind::TransferDone(m));
    }

    /// A message has fully crossed the ingress; the rx engine takes over.
    fn transfer_done(&mut self, m: MsgId) {
        let view = self.msgs[m].view;
        let j = view.dst.idx();
        let crossing = self.inbound[j]
            .iter()
            .position(|&s| s == view.src)
            .expect("a finishing transfer was crossing the ingress");
        self.inbound[j].swap_remove(crossing);

        let (c, t) = self.cl.engine(j);
        let dur = self.noisy(c + view.bytes as f64 * t);
        let r0 = self.rx_free[j].max(self.now);
        let r1 = r0 + Time::from_secs(dur);
        self.rx_free[j] = r1;
        self.emit(TraceEvent::RxSlot {
            msg: m,
            dst: view.dst,
            start: r0.secs(),
            end: r1.secs(),
        });
        self.q.push(r1, EventKind::Deliver(m));
    }

    /// The rx engine finished; the message becomes visible to `recv`.
    fn deliver(&mut self, m: MsgId) {
        let view = self.msgs[m].view;
        let j = view.dst.idx();
        self.msgs[m].delivered_at = Some(self.now);
        self.stats.msgs_delivered += 1;
        self.mailbox[j].push(m);

        if let Some((src, tag)) = self.procs[j].pending_recv {
            if let Some(pos) = self.find_in_mailbox(j, src, tag) {
                let mid = self.mailbox[j].remove(pos);
                self.stats.msgs_received += 1;
                self.emit(TraceEvent::Received {
                    msg: mid,
                    by: view.dst,
                    at: self.now.secs(),
                });
                self.procs[j].pending_recv = None;
                self.procs[j].ready_msg = Some(self.msgs[mid].view);
                self.q.push(self.now, EventKind::Wake(j));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;

    fn quiet_cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    fn het_cluster() -> SimCluster {
        let spec = ClusterSpec::paper_cluster();
        let truth = GroundTruth::synthesize(&spec, 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    #[test]
    fn roundtrip_time_matches_lmo_formula() {
        let cl = het_cluster();
        let truth = cl.truth.clone();
        let m = 32 * KIB;
        let out = simulate(&cl, |p| {
            if p.rank() == Rank(0) {
                let t0 = p.now();
                p.send(Rank(5), m);
                let _ = p.recv(Rank(5));
                p.now() - t0
            } else if p.rank() == Rank(5) {
                let _ = p.recv(Rank(0));
                p.send(Rank(0), m);
                0.0
            } else {
                0.0
            }
        })
        .unwrap();
        let expected = 2.0 * truth.p2p_time(Rank(0), Rank(5), m);
        let got = out.results[0];
        assert!(
            (got - expected).abs() / expected < 1e-9,
            "roundtrip {got} vs 2×p2p {expected}"
        );
    }

    #[test]
    fn empty_roundtrip_costs_only_fixed_parts() {
        let cl = het_cluster();
        let truth = cl.truth.clone();
        let out = simulate(&cl, |p| {
            if p.rank() == Rank(2) {
                let t0 = p.now();
                p.send(Rank(9), 0);
                let _ = p.recv(Rank(9));
                p.now() - t0
            } else if p.rank() == Rank(9) {
                let _ = p.recv(Rank(2));
                p.send(Rank(2), 0);
                0.0
            } else {
                0.0
            }
        })
        .unwrap();
        let expected = 2.0 * (truth.c[2] + *truth.l.get(Rank(2), Rank(9)) + truth.c[9]);
        assert!((out.results[2] - expected).abs() < 1e-12);
    }

    #[test]
    fn consecutive_sends_serialize_on_tx_engine() {
        // Root sends to two different destinations: the second transfer
        // starts one CPU slot later, but both cross the switch in parallel.
        let cl = quiet_cluster(3);
        let truth = cl.truth.clone();
        let m = 16 * KIB;
        let out = simulate(&cl, |p| match p.rank().idx() {
            0 => {
                let t0 = p.now();
                p.send(Rank(1), m);
                p.send(Rank(2), m);
                p.now() - t0
            }
            _ => {
                let _ = p.recv(Rank(0));
                p.now()
            }
        })
        .unwrap();
        let cpu = truth.c[0] + m as f64 * truth.t[0];
        // Send returns after the tx slot; two sends = two slots.
        assert!((out.results[0] - 2.0 * cpu).abs() < 1e-12);
        // Receiver 2's delivery = 2 tx slots + wire + rx cpu.
        let wire2 = *truth.l.get(Rank(0), Rank(2)) + m as f64 / *truth.beta.get(Rank(0), Rank(2));
        let rx2 = truth.c[2] + m as f64 * truth.t[2];
        let expected2 = 2.0 * cpu + wire2 + rx2;
        assert!(
            (out.results[2] - expected2).abs() < 1e-12,
            "{} vs {}",
            out.results[2],
            expected2
        );
        // Receiver 1 finishes earlier than receiver 2 (its transfer left
        // first).
        assert!(out.results[1] < out.results[2]);
    }

    #[test]
    fn rx_engine_serializes_many_to_one() {
        // Two senders to rank 0 with small messages: transfers run in
        // parallel, but the root's rx engine processes them one at a time.
        let cl = quiet_cluster(3);
        let truth = cl.truth.clone();
        let m = 2 * KIB;
        let out = simulate(&cl, |p| match p.rank().idx() {
            0 => {
                let _ = p.recv_any();
                let _ = p.recv_any();
                p.now()
            }
            _ => {
                p.send(Rank(0), m);
                0.0
            }
        })
        .unwrap();
        let tx = truth.c[1] + m as f64 * truth.t[1];
        let wire = *truth.l.get(Rank(1), Rank(0)) + m as f64 / *truth.beta.get(Rank(1), Rank(0));
        let rx = truth.c[0] + m as f64 * truth.t[0];
        // Both arrive at ~tx+wire (same parameters); the second finishes one
        // extra rx slot later.
        let expected = tx + wire + 2.0 * rx;
        assert!(
            (out.results[0] - expected).abs() < 1e-12,
            "{} vs {}",
            out.results[0],
            expected
        );
    }

    #[test]
    fn large_messages_block_sender_and_serialize_ingress() {
        // Profile with a tiny M2 so 8 KB counts as large.
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(3), 1);
        let mut profile = MpiProfile::ideal();
        profile.m2 = 4 * KIB;
        profile.m1 = KIB;
        let cl = SimCluster::new(truth.clone(), profile, 0.0, 1);
        let m = 8 * KIB;
        let out = simulate(&cl, |p| match p.rank().idx() {
            0 => {
                let _ = p.recv_any();
                let _ = p.recv_any();
                p.now()
            }
            _ => {
                let t0 = p.now();
                p.send(Rank(0), m);
                p.now() - t0
            }
        })
        .unwrap();
        // Per-sender timelines (the synthesized links carry jitter, so the
        // two flows differ slightly).
        let arr =
            |k: usize| truth.c[k] + m as f64 * truth.t[k] + *truth.l.get(Rank::from(k), Rank(0));
        let wire = |k: usize| m as f64 / *truth.beta.get(Rank::from(k), Rank(0));
        let (first, second) = if arr(1) <= arr(2) {
            (1usize, 2usize)
        } else {
            (2, 1)
        };
        // Ingress FIFO: the first arrival transfers immediately; the second
        // waits for the port.
        let done_first = arr(first) + wire(first);
        let done_second = arr(second).max(done_first) + wire(second);
        // The rx engine is free again before the second transfer completes
        // (wire time dominates rx time at this size), so the root finishes
        // one rx slot after the second transfer.
        let rx = truth.c[0] + m as f64 * truth.t[0];
        assert!(wire(second) > rx, "test premise: wire dominates rx");
        let expected = done_second + rx;
        assert!(
            (out.results[0] - expected).abs() < 1e-9,
            "{} vs {}",
            out.results[0],
            expected
        );
        // Backpressure: the second sender's send returns only when its
        // transfer is *admitted* to the congested ingress (= when the first
        // transfer drains); the first sender pays no penalty beyond its own
        // NIC exit + latency.
        let blocked = out.results[second];
        let admitted = arr(second).max(done_first);
        assert!(
            (blocked - admitted).abs() < 1e-9,
            "blocked sender took {blocked}, expected admission at {admitted}"
        );
        let free = out.results[first];
        assert!(
            (free - arr(first)).abs() < 1e-9,
            "uncongested sender took {free}, expected {}",
            arr(first)
        );
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let cl = quiet_cluster(4);
        let out = simulate(&cl, |p| {
            // Stagger ranks, then barrier.
            p.compute(0.01 * (p.rank().idx() as f64 + 1.0));
            p.barrier();
            p.now()
        })
        .unwrap();
        let t = out.results[0];
        assert!((t - 0.04).abs() < 1e-12, "release at the latest arrival");
        for r in &out.results {
            assert_eq!(*r, t);
        }
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let cl = quiet_cluster(2);
        let err = simulate(&cl, |p| {
            if p.rank() == Rank(0) {
                let _ = p.recv(Rank(1)); // nobody sends
            }
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("rank 0"), "{msg}");
    }

    #[test]
    fn rank_panic_is_reported() {
        let cl = quiet_cluster(2);
        let err = simulate(&cl, |p| {
            if p.rank() == Rank(1) {
                panic!("boom");
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn deterministic_across_runs_with_noise_and_escalations() {
        let spec = ClusterSpec::paper_cluster();
        let truth = GroundTruth::synthesize(&spec, 3);
        let cl = SimCluster::new(truth, MpiProfile::lam_7_1_3(), 0.01, 77);
        let run = || {
            simulate(&cl, |p| {
                let root = Rank(0);
                if p.rank() == root {
                    let mut ts = Vec::new();
                    for _ in 0..3 {
                        p.barrier();
                        let t0 = p.now();
                        for i in 1..p.size() {
                            let _ = p.recv(Rank::from(i));
                        }
                        ts.push(p.now() - t0);
                    }
                    ts
                } else {
                    for _ in 0..3 {
                        p.barrier();
                        p.send(root, 32 * KIB);
                    }
                    Vec::new()
                }
            })
            .unwrap()
            .results[0]
                .clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn escalations_fire_only_for_concurrent_medium_messages() {
        let spec = ClusterSpec::homogeneous(8);
        let truth = GroundTruth::synthesize(&spec, 3);
        let mut profile = MpiProfile::lam_7_1_3();
        profile.escalation_p_min = 1.0;
        profile.escalation_p_max = 1.0; // always escalate when concurrent
        let cl = SimCluster::new(truth.clone(), profile.clone(), 0.0, 5);

        let gather = |cl: &SimCluster, m: u64| {
            simulate(cl, move |p| {
                if p.rank() == Rank(0) {
                    let t0 = p.now();
                    for i in 1..p.size() {
                        let _ = p.recv(Rank::from(i));
                    }
                    p.now() - t0
                } else {
                    p.send(Rank(0), m);
                    0.0
                }
            })
            .unwrap()
            .results[0]
        };

        // Medium gather (concurrent inbound) escalates by ≥ escalation_min.
        let medium = gather(&cl, 32 * KIB);
        let ideal = gather(&cl.idealized(), 32 * KIB);
        assert!(
            medium > ideal + profile.escalation_min,
            "medium gather {medium} vs ideal {ideal}"
        );
        // Small gather does not escalate.
        let small = gather(&cl, KIB);
        let small_ideal = gather(&cl.idealized(), KIB);
        assert!((small - small_ideal).abs() < 1e-9);
    }

    #[test]
    fn leap_stall_applies_per_64k_segment() {
        let spec = ClusterSpec::homogeneous(2);
        let truth = GroundTruth::synthesize(&spec, 3);
        let mut profile = MpiProfile::ideal();
        profile.leap_segment = Some(64 * KIB);
        profile.leap_delay = 5e-3;
        let cl = SimCluster::new(truth.clone(), profile, 0.0, 5);
        let send_time = |cl: &SimCluster, m: u64| {
            simulate(cl, move |p| {
                if p.rank() == Rank(0) {
                    let t0 = p.now();
                    p.send(Rank(1), m);
                    p.now() - t0
                } else {
                    let _ = p.recv(Rank(0));
                    0.0
                }
            })
            .unwrap()
            .results[0]
        };
        let below = send_time(&cl, 63 * KIB);
        let above = send_time(&cl, 64 * KIB);
        // Crossing the segment boundary adds the stall on top of the ~1 KB
        // of extra per-byte cost.
        assert!(above - below > 4.9e-3, "leap {} vs {}", above, below);
    }

    #[test]
    fn same_connection_serializes_on_the_wire() {
        // Saturation: back-to-back messages between the same endpoints
        // serialize at link bandwidth (one TCP connection), so the ack of
        // the last message arrives no earlier than count·wire.
        let cl = quiet_cluster(2);
        let truth = cl.truth.clone();
        let m = 16 * KIB;
        let count = 8usize;
        let out = simulate(&cl, move |p| {
            if p.rank() == Rank(0) {
                let t0 = p.now();
                for _ in 0..count {
                    p.send(Rank(1), m);
                }
                let _ = p.recv(Rank(1)); // ack
                p.now() - t0
            } else {
                for _ in 0..count {
                    let _ = p.recv(Rank(0));
                }
                p.send(Rank(0), 0);
                0.0
            }
        })
        .unwrap();
        let wire = m as f64 / *truth.beta.get(Rank(0), Rank(1));
        let cpu = truth.c[0] + m as f64 * truth.t[0];
        // Pipeline steady state: per-message cost ≥ max(cpu, wire) = wire
        // on this cluster.
        assert!(wire > cpu, "test premise");
        assert!(
            out.results[0] > count as f64 * wire,
            "{} vs {}",
            out.results[0],
            count as f64 * wire
        );
        // …but not as slow as fully serialized end-to-end transfers.
        let p2p = truth.p2p_time(Rank(0), Rank(1), m);
        assert!(out.results[0] < count as f64 * p2p);
    }

    #[test]
    fn different_destinations_do_not_share_a_wire() {
        // Two messages from the same root to different receivers overlap in
        // the fabric: receiver 2's completion is bounded by tx serialization
        // only, not by receiver 1's wire.
        let cl = quiet_cluster(3);
        let truth = cl.truth.clone();
        let m = 64 * KIB;
        let out = simulate(&cl, |p| match p.rank().idx() {
            0 => {
                p.send(Rank(1), m);
                p.send(Rank(2), m);
                0.0
            }
            _ => {
                let _ = p.recv(Rank(0));
                p.now()
            }
        })
        .unwrap();
        let cpu = truth.c[0] + m as f64 * truth.t[0];
        let wire2 = *truth.l.get(Rank(0), Rank(2)) + m as f64 / *truth.beta.get(Rank(0), Rank(2));
        let rx2 = truth.c[2] + m as f64 * truth.t[2];
        let expected2 = 2.0 * cpu + wire2 + rx2;
        assert!(
            (out.results[2] - expected2).abs() < 1e-12,
            "{} vs {}",
            out.results[2],
            expected2
        );
    }

    #[test]
    fn mpmd_runs_distinct_programs() {
        let cl = quiet_cluster(2);
        let progs: Vec<RankProgram<'_, u32>> = vec![
            Box::new(|p: &mut Proc| {
                p.send(Rank(1), 1024);
                1
            }),
            Box::new(|p: &mut Proc| {
                let msg = p.recv(Rank(0));
                msg.bytes as u32
            }),
        ];
        let out = simulate_mpmd(&cl, progs).unwrap();
        assert_eq!(out.results, vec![1, 1024]);
        assert!(out.end_time > 0.0);
        assert_eq!(out.finish_times.len(), 2);
    }

    #[test]
    fn tagged_messages_match_by_tag() {
        let cl = quiet_cluster(2);
        let out = simulate(&cl, |p| {
            if p.rank() == Rank(0) {
                p.send_tagged(Rank(1), 7, 100);
                p.send_tagged(Rank(1), 8, 200);
                0
            } else {
                // Receive out of order by tag.
                let b = p.recv_tagged(Rank(0), 8);
                let a = p.recv_tagged(Rank(0), 7);
                assert_eq!((a.bytes, b.bytes), (100, 200));
                1
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 1);
    }

    #[test]
    fn stats_conserve_messages() {
        let cl = quiet_cluster(4);
        let out = simulate(&cl, |p| {
            // Everyone sends to rank 0; rank 0 receives everything.
            if p.rank() == Rank(0) {
                for _ in 0..3 {
                    let _ = p.recv_any();
                }
            } else {
                p.send(Rank(0), 1024);
            }
        })
        .unwrap();
        assert_eq!(out.stats.msgs_sent, 3);
        assert_eq!(out.stats.msgs_delivered, 3);
        assert_eq!(out.stats.msgs_received, 3);
        assert!(out.stats.events > 0);
    }

    #[test]
    fn stats_expose_unreceived_messages() {
        // A send with no matching recv: delivered but never received.
        let cl = quiet_cluster(2);
        let out = simulate(&cl, |p| {
            if p.rank() == Rank(0) {
                p.send(Rank(1), 64);
            }
            // Rank 1 exits without receiving; compute keeps it alive long
            // enough for delivery (not required for the counters, but makes
            // msgs_delivered deterministic here).
            p.compute(1.0);
        })
        .unwrap();
        assert_eq!(out.stats.msgs_sent, 1);
        assert_eq!(out.stats.msgs_delivered, 1);
        assert_eq!(out.stats.msgs_received, 0);
    }

    #[test]
    fn isend_returns_immediately_and_wait_blocks_to_tx_end() {
        let cl = quiet_cluster(2);
        let truth = cl.truth.clone();
        let m = 16 * KIB;
        let out = simulate(&cl, move |p| {
            if p.rank() == Rank(0) {
                let t0 = p.now();
                let req = p.isend(Rank(1), m);
                let t_post = p.now();
                p.wait_send(req);
                let t_done = p.now();
                (t_post - t0, t_done - t0)
            } else {
                let _ = p.recv(Rank(0));
                (0.0, 0.0)
            }
        })
        .unwrap();
        let (post, done) = out.results[0];
        assert_eq!(post, 0.0, "isend must not advance time");
        let tx = truth.c[0] + m as f64 * truth.t[0];
        assert!(
            (done - tx).abs() < 1e-12,
            "wait ends at the tx slot: {done} vs {tx}"
        );
    }

    #[test]
    fn overlapped_exchange_costs_one_p2p_not_two() {
        // Both ranks isend to each other then recv: the two directions
        // overlap fully, unlike blocking send-then-recv which serializes
        // them around the even/odd break.
        let cl = quiet_cluster(2);
        let truth = cl.truth.clone();
        let m = 8 * KIB;
        let out = simulate(&cl, move |p| {
            let peer = Rank::from(1 - p.rank().idx());
            let t0 = p.now();
            let req = p.isend(peer, m);
            let _ = p.recv(peer);
            p.wait_send(req);
            p.now() - t0
        })
        .unwrap();
        let p2p = truth.p2p_time(Rank(0), Rank(1), m);
        for t in &out.results {
            assert!(
                (*t - p2p).abs() < 1e-9,
                "overlapped exchange {t} should equal one p2p {p2p}"
            );
        }
    }

    #[test]
    fn irecv_wait_matches_like_recv() {
        let cl = quiet_cluster(2);
        let out = simulate(&cl, |p| {
            if p.rank() == Rank(0) {
                p.send(Rank(1), 2048);
                0
            } else {
                let req = p.irecv(Rank(0));
                p.compute(1e-3); // overlap something useful
                let msg = p.wait_recv(req);
                msg.bytes as u32
            }
        })
        .unwrap();
        assert_eq!(out.results[1], 2048);
    }

    #[test]
    fn many_outstanding_isends_serialize_on_the_tx_engine() {
        let cl = quiet_cluster(3);
        let truth = cl.truth.clone();
        let m = 4 * KIB;
        let out = simulate(&cl, move |p| {
            if p.rank() == Rank(0) {
                let t0 = p.now();
                let r1 = p.isend(Rank(1), m);
                let r2 = p.isend(Rank(2), m);
                p.wait_send(r1);
                p.wait_send(r2);
                p.now() - t0
            } else {
                let _ = p.recv(Rank(0));
                0.0
            }
        })
        .unwrap();
        let tx = truth.c[0] + m as f64 * truth.t[0];
        assert!(
            (out.results[0] - 2.0 * tx).abs() < 1e-12,
            "{}",
            out.results[0]
        );
    }

    #[test]
    fn single_rank_simulation() {
        let cl = quiet_cluster(1);
        let out = simulate(&cl, |p| {
            p.compute(0.5);
            p.barrier();
            p.now()
        })
        .unwrap();
        assert_eq!(out.results[0], 0.5);
        assert_eq!(out.end_time, 0.5);
    }
}
