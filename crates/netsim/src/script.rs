//! Threadless rank programs ("scripts").
//!
//! The thread-based programming model ([`crate::simulate`]) spawns one OS
//! thread per rank and round-trips a channel per syscall — it can express
//! arbitrary closures, but the context switches dominate the host time of
//! every run and cap it at a few hundred ranks. Nothing the workspace
//! measures or replays needs arbitrary code: a collective algorithm, a
//! lowered workload, a communication experiment of the estimation
//! procedure and a drift probe are all, per rank, a straight-line sequence
//! of send/recv/compute/barrier primitives. [`run_script`] interprets such
//! sequences directly inside the kernel's event loop — no threads, no
//! channels, no per-event allocation, the programs borrowed from the
//! caller rather than copied — with *identical* event semantics and
//! therefore identical virtual timings. This is what makes 1000-rank
//! replay a subsecond operation and a cold 16-node estimation (1 640 runs)
//! a tenth of a second instead of a thread-rendezvous stress test.
//!
//! [`ScriptOp`] is the one vocabulary of the workspace, six ops: blocking
//! `Send`/`Recv`, `Compute`, `Barrier`, and the nonblocking pair
//! `Isend`/`WaitSend`. `cpm-collectives` writes every collective algorithm
//! in it, once; `cpm-workload` lowers traces through those emitters, and
//! `cpm-estimate`, `cpm-vmpi`'s probes and the collectives' observation
//! harness generate it through [`TimedScript`], which also records which
//! op spans a threaded rank would have bracketed with `wtime()` and reads
//! the measured durations back from the op windows.
//!
//! `Isend` books the tx engine like `Send` but returns at once (buffered:
//! no large-message backpressure), and the rank's next op is issued in the
//! same kernel handling — no DES event; `WaitSend` blocks until the rank's
//! tx engine has drained (the latest `Isend`'s slot, tx slots being FIFO),
//! so it carries no handle and the interpreter keeps none.
//! `Isend → Recv → WaitSend` is
//! `MPI_Sendrecv`, which the overlapped ring allgather needs and nothing
//! else does: there are no tags and no any-source receive because no
//! collective uses them. No fused three-field exchange op exists because
//! an op must stay 16 bytes
//! (`script_ops_stay_sixteen_bytes`): a lowered 1000-rank trace holds
//! millions of them.

use cpm_core::error::Result;
use cpm_core::rank::Rank;
use cpm_core::time::Time;
use cpm_core::units::Bytes;

use crate::cluster::SimCluster;
use crate::event::DesEventCounts;
use crate::kernel::{run_scripts_kernel, SimStats};
use crate::msg::Syscall;
use crate::trace::Trace;

/// One straight-line primitive of a scripted rank program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScriptOp {
    /// Blocking send of `bytes` to `dst` (tag 0), exactly like
    /// [`crate::Proc::send`].
    Send {
        /// Destination rank.
        dst: Rank,
        /// Message size in bytes.
        bytes: Bytes,
    },
    /// Blocking receive of the next message from `src` (any tag), exactly
    /// like [`crate::Proc::recv`].
    Recv {
        /// Source rank to match.
        src: Rank,
    },
    /// Occupy the local CPU for `secs` of virtual time.
    Compute {
        /// Duration in seconds.
        secs: f64,
    },
    /// Global barrier across all ranks.
    Barrier,
    /// Nonblocking buffered send of `bytes` to `dst`, exactly like
    /// [`crate::Proc::isend`]: the tx engine is booked, the rank continues
    /// at the same instant.
    Isend {
        /// Destination rank.
        dst: Rank,
        /// Message size in bytes.
        bytes: Bytes,
    },
    /// Blocks until this rank's tx engine has drained: every send it has
    /// posted has left. After `Isend → … → WaitSend` with no send in
    /// between, exactly [`crate::Proc::wait_send`] on that request; a no-op
    /// when nothing is pending.
    WaitSend,
}

impl ScriptOp {
    /// A blocking send of `bytes` to `dst`.
    pub fn send(dst: Rank, bytes: Bytes) -> Self {
        ScriptOp::Send { dst, bytes }
    }

    /// A blocking receive of the next message from `src`.
    pub fn recv(src: Rank) -> Self {
        ScriptOp::Recv { src }
    }

    /// A nonblocking send of `bytes` to `dst`.
    pub fn isend(dst: Rank, bytes: Bytes) -> Self {
        ScriptOp::Isend { dst, bytes }
    }
}

/// What a scripted simulation returns.
#[derive(Clone, Debug)]
pub struct ScriptOutcome {
    /// Per-rank, per-op `(start, end)` windows in virtual seconds: op `k`
    /// of rank `r` ran over `windows[r][k]`.
    pub windows: Vec<Vec<(f64, f64)>>,
    /// Virtual time at which the last rank finished, seconds.
    pub end_time: f64,
    /// Per-rank finish times, seconds.
    pub finish_times: Vec<f64>,
    /// Kernel counters.
    pub stats: SimStats,
    /// Semantic kernel trace (tx slots, wire crossings, rx slots) —
    /// `Some` only for [`run_script_traced`] runs.
    pub trace: Option<Trace>,
    /// Per-kind counts of the events the kernel fired — `Some` only for
    /// [`run_script_traced`] runs.
    pub des_events: Option<DesEventCounts>,
}

/// Kernel-side interpreter state for one scripted rank. The program is
/// borrowed from the caller for the length of the run.
pub(crate) struct ScriptProc<'a> {
    ops: &'a [ScriptOp],
    pc: usize,
    started: bool,
    pub(crate) windows: Vec<(f64, f64)>,
}

impl<'a> ScriptProc<'a> {
    pub(crate) fn new(ops: &'a [ScriptOp]) -> Self {
        let windows = vec![(0.0, 0.0); ops.len()];
        ScriptProc {
            ops,
            pc: 0,
            started: false,
            windows,
        }
    }

    /// How many events a traced run logs for this program: a `TxSlot`, a
    /// `Wire` and an `RxSlot` per send, a `Received` per receive (barrier
    /// releases aside).
    pub(crate) fn logged_events(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                ScriptOp::Send { .. } | ScriptOp::Isend { .. } => 3,
                ScriptOp::Recv { .. } => 1,
                _ => 0,
            })
            .sum()
    }

    /// Called on every kernel grant of this rank: closes the in-flight
    /// op's window (every grant after the first means the previous op
    /// completed — the moment a threaded program would regain control),
    /// then issues the next op as a syscall.
    pub(crate) fn step(&mut self, now: Time) -> Syscall {
        if self.started {
            if let Some(w) = self.windows.get_mut(self.pc) {
                w.1 = now.secs();
            }
            self.pc += 1;
        }
        self.started = true;
        match self.ops.get(self.pc) {
            None => Syscall::Finish { panicked: false },
            Some(op) => {
                self.windows[self.pc].0 = now.secs();
                match *op {
                    ScriptOp::Send { dst, bytes } => Syscall::Send { dst, tag: 0, bytes },
                    ScriptOp::Recv { src } => Syscall::Recv {
                        src: Some(src),
                        tag: None,
                    },
                    ScriptOp::Compute { secs } => Syscall::Compute { secs },
                    ScriptOp::Barrier => Syscall::Barrier,
                    ScriptOp::Isend { dst, bytes } => Syscall::ISend { dst, tag: 0, bytes },
                    ScriptOp::WaitSend => Syscall::WaitTx,
                }
            }
        }
    }
}

/// Runs one scripted program per rank through the kernel's event loop —
/// same timing semantics as the threaded [`crate::simulate`], no threads.
///
/// # Errors
/// Returns a simulation error on deadlock (e.g. a `Recv` nobody answers).
///
/// # Panics
/// Panics when `programs.len()` differs from the cluster size.
pub fn run_script(cluster: &SimCluster, programs: &[Vec<ScriptOp>]) -> Result<ScriptOutcome> {
    run_script_inner(cluster, programs, false)
}

/// [`run_script`] with recording enabled: the outcome additionally carries
/// the kernel's semantic trace and its per-kind event counts. Virtual
/// timings are identical to the untraced path — recording reads what the
/// kernel does, never a scheduling input.
///
/// # Errors
/// Returns a simulation error on deadlock (e.g. a `Recv` nobody answers).
///
/// # Panics
/// Panics when `programs.len()` differs from the cluster size.
pub fn run_script_traced(
    cluster: &SimCluster,
    programs: &[Vec<ScriptOp>],
) -> Result<ScriptOutcome> {
    run_script_inner(cluster, programs, true)
}

fn run_script_inner(
    cluster: &SimCluster,
    programs: &[Vec<ScriptOp>],
    traced: bool,
) -> Result<ScriptOutcome> {
    assert_eq!(
        programs.len(),
        cluster.n(),
        "need one script per rank ({})",
        cluster.n()
    );
    let scripts = programs.iter().map(|ops| ScriptProc::new(ops)).collect();
    let out = run_scripts_kernel(cluster, scripts, traced)?;
    Ok(ScriptOutcome {
        windows: out.windows,
        end_time: out.end_time.secs(),
        finish_times: out.finish_times.iter().map(|t| t.secs()).collect(),
        stats: out.stats,
        trace: out.trace,
        des_events: out.des_events,
    })
}

/// One scripted program per rank, built op by op, that remembers which op
/// spans are *measured* — the shape of every communication experiment: a
/// straight-line SPMD loop whose only observation is how long some of its
/// ops took on one rank.
///
/// A threaded rank reads `wtime()` before the first and after the last op
/// of a measured span. Here the span is recorded while the program is
/// built ([`TimedScript::timed`]) and its duration read from the op
/// windows of the run: `windows[rank][last].1 − windows[rank][first].0`,
/// the same two clock readings, so the samples are bit-identical to the
/// threaded measurement.
#[derive(Clone, Debug)]
pub struct TimedScript {
    programs: Vec<Vec<ScriptOp>>,
    /// Per rank, the `[first, end)` op ranges of its measured spans in
    /// program order.
    spans: Vec<Vec<(usize, usize)>>,
}

impl TimedScript {
    /// Empty programs for `n` ranks.
    pub fn new(n: usize) -> Self {
        TimedScript {
            programs: vec![Vec::new(); n],
            spans: vec![Vec::new(); n],
        }
    }

    /// Appends unmeasured `ops` to `rank`'s program.
    pub fn extend(&mut self, rank: Rank, ops: impl IntoIterator<Item = ScriptOp>) {
        self.programs[rank.idx()].extend(ops);
    }

    /// Appends `ops` to `rank`'s program as one measured span. An empty
    /// span is allowed and measures `0.0` (a gather on a one-rank cluster:
    /// two clock readings with nothing between them).
    pub fn timed(&mut self, rank: Rank, ops: impl IntoIterator<Item = ScriptOp>) {
        let program = &mut self.programs[rank.idx()];
        let first = program.len();
        program.extend(ops);
        self.spans[rank.idx()].push((first, program.len()));
    }

    /// Appends whatever `emit` hands the sink — `(rank, op)` pairs, ranks
    /// interleaved freely — as one measured span per rank: the shape of an
    /// observed collective, where every rank brackets its part with
    /// `wtime()`.
    pub fn timed_all(&mut self, emit: impl FnOnce(&mut dyn FnMut(Rank, ScriptOp))) {
        let first: Vec<usize> = self.programs.iter().map(Vec::len).collect();
        emit(&mut |rank, op| self.programs[rank.idx()].push(op));
        for ((spans, program), first) in self.spans.iter_mut().zip(&self.programs).zip(first) {
            spans.push((first, program.len()));
        }
    }

    /// Appends a global barrier to every rank's program.
    pub fn barrier(&mut self) {
        for program in &mut self.programs {
            program.push(ScriptOp::Barrier);
        }
    }

    /// The duration of every measured span of a run of the programs, per
    /// rank in program order.
    fn durations(&self, out: &ScriptOutcome) -> Vec<Vec<f64>> {
        self.spans
            .iter()
            .zip(&out.windows)
            .map(|(spans, windows)| {
                spans
                    .iter()
                    .map(|&(first, end)| {
                        if end > first {
                            windows[end - 1].1 - windows[first].0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs the programs on `cluster`; returns the measured durations per
    /// rank and the virtual time the run consumed.
    ///
    /// # Errors
    /// Returns a simulation error on deadlock.
    ///
    /// # Panics
    /// Panics when built for a different rank count than the cluster's.
    pub fn run(&self, cluster: &SimCluster) -> Result<(Vec<Vec<f64>>, f64)> {
        let out = run_script(cluster, &self.programs)?;
        Ok((self.durations(&out), out.end_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;

    fn cluster(n: usize, noise: f64) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 1);
        SimCluster::new(truth, MpiProfile::lam_7_1_3(), noise, 1)
    }

    /// The defining property: a script and the equivalent threaded program
    /// produce bit-identical virtual timings.
    #[test]
    fn script_matches_threaded_simulation_exactly() {
        let cl = cluster(4, 0.01);
        let m = 32 * KIB;
        // Rank 0 gathers from everyone, then all barrier, then rank 0
        // scatters back.
        let threaded = simulate(&cl, |p| {
            if p.rank() == Rank(0) {
                for i in 1..p.size() {
                    let _ = p.recv(Rank::from(i));
                }
                p.barrier();
                for i in 1..p.size() {
                    p.send(Rank::from(i), m);
                }
            } else {
                p.compute(1e-4);
                p.send(Rank(0), m);
                p.barrier();
                let _ = p.recv(Rank(0));
            }
        })
        .unwrap();

        let programs: Vec<Vec<ScriptOp>> = (0..4)
            .map(|r| {
                if r == 0 {
                    let mut ops: Vec<ScriptOp> =
                        (1..4).map(|i| ScriptOp::Recv { src: Rank(i) }).collect();
                    ops.push(ScriptOp::Barrier);
                    ops.extend((1..4).map(|i| ScriptOp::Send {
                        dst: Rank(i),
                        bytes: m,
                    }));
                    ops
                } else {
                    vec![
                        ScriptOp::Compute { secs: 1e-4 },
                        ScriptOp::Send {
                            dst: Rank(0),
                            bytes: m,
                        },
                        ScriptOp::Barrier,
                        ScriptOp::Recv { src: Rank(0) },
                    ]
                }
            })
            .collect();
        let scripted = run_script(&cl, &programs).unwrap();

        assert_eq!(
            scripted.end_time, threaded.end_time,
            "timings must be bit-identical"
        );
        assert_eq!(scripted.finish_times, threaded.finish_times);
        assert_eq!(scripted.stats, threaded.stats);
    }

    /// The size is pinned: `replay_scale` holds ~95 MiB of lowered ops, and
    /// a seventh variant or a third field would grow every one of them.
    #[test]
    fn script_ops_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<ScriptOp>(), 16);
    }

    /// `Isend → Recv → WaitSend` is the threaded `isend`/`recv`/`wait_send`
    /// to the bit, event for event (an `Isend` costs no DES event), and a
    /// `WaitSend` with nothing pending returns at once.
    #[test]
    fn nonblocking_exchange_matches_the_threaded_one_exactly() {
        let cl = cluster(4, 0.01);
        for m in [0, 4 * KIB, 100 * KIB] {
            let threaded = simulate(&cl, |p| {
                let n = p.size();
                let right = Rank::from((p.rank().idx() + 1) % n);
                let left = Rank::from((p.rank().idx() + n - 1) % n);
                for _ in 0..3 {
                    let req = p.isend(right, m);
                    let _ = p.recv(left);
                    p.wait_send(req);
                }
            })
            .unwrap();
            let programs: Vec<Vec<ScriptOp>> = (0..4u32)
                .map(|r| {
                    let (right, left) = (Rank((r + 1) % 4), Rank((r + 3) % 4));
                    [
                        ScriptOp::isend(right, m),
                        ScriptOp::recv(left),
                        ScriptOp::WaitSend,
                    ]
                    .repeat(3)
                })
                .collect();
            let scripted = run_script(&cl, &programs).unwrap();
            assert_eq!(scripted.end_time, threaded.end_time, "m={m}");
            assert_eq!(scripted.finish_times, threaded.finish_times, "m={m}");
            assert_eq!(scripted.stats, threaded.stats, "m={m}");
            let w = &scripted.windows[0];
            assert_eq!(w[0].0, w[0].1, "an isend returns at once");
        }
        let idle = run_script(&cl, &[vec![ScriptOp::WaitSend], vec![], vec![], vec![]]).unwrap();
        assert_eq!(idle.end_time, 0.0);
    }

    #[test]
    fn windows_cover_each_op_in_order() {
        let cl = cluster(2, 0.0);
        let programs = vec![
            vec![
                ScriptOp::Compute { secs: 0.5 },
                ScriptOp::Send {
                    dst: Rank(1),
                    bytes: KIB,
                },
            ],
            vec![ScriptOp::Recv { src: Rank(0) }],
        ];
        let out = run_script(&cl, &programs).unwrap();
        let w0 = &out.windows[0];
        assert_eq!(w0.len(), 2);
        assert_eq!(w0[0].0, 0.0);
        assert_eq!(w0[0].1, 0.5, "compute occupies exactly its duration");
        assert!(w0[1].0 >= w0[0].1 && w0[1].1 >= w0[1].0, "ops run in order");
        let w1 = &out.windows[1];
        assert_eq!(w1[0].0, 0.0);
        assert!(w1[0].1 > 0.5, "recv completes after the send posted at 0.5");
        assert!((out.end_time - w1[0].1).abs() < 1e-15);
    }

    /// Recording is observational: the traced run reproduces the untraced
    /// timings bit-for-bit, and additionally carries a semantic trace plus
    /// DES event counts consistent with the kernel's own event counter.
    #[test]
    fn traced_script_matches_untraced_and_records() {
        let cl = cluster(3, 0.01);
        let programs: Vec<Vec<ScriptOp>> = (0..3)
            .map(|r| {
                if r == 0 {
                    vec![
                        ScriptOp::Send {
                            dst: Rank(1),
                            bytes: 4 * KIB,
                        },
                        ScriptOp::Barrier,
                        ScriptOp::Recv { src: Rank(2) },
                    ]
                } else if r == 1 {
                    vec![ScriptOp::Recv { src: Rank(0) }, ScriptOp::Barrier]
                } else {
                    vec![
                        ScriptOp::Compute { secs: 1e-4 },
                        ScriptOp::Barrier,
                        ScriptOp::Send {
                            dst: Rank(0),
                            bytes: KIB,
                        },
                    ]
                }
            })
            .collect();
        let plain = run_script(&cl, &programs).unwrap();
        let traced = run_script_traced(&cl, &programs).unwrap();
        assert_eq!(traced.end_time, plain.end_time, "timings bit-identical");
        assert_eq!(traced.finish_times, plain.finish_times);
        assert_eq!(traced.windows, plain.windows);
        assert_eq!(traced.stats, plain.stats);
        assert!(plain.trace.is_none() && plain.des_events.is_none());
        let trace = traced.trace.expect("traced run records a trace");
        assert!(!trace.events.is_empty());
        let counts = traced.des_events.expect("traced run counts DES events");
        assert_eq!(
            counts.total() as usize,
            traced.stats.events,
            "the counts cover exactly the events the kernel processed"
        );
    }

    /// A measured span reads the clock where a threaded rank would: before
    /// its first op and after its last; an empty span measures nothing.
    #[test]
    fn timed_spans_read_the_op_windows() {
        let cl = cluster(2, 0.0);
        let mut script = TimedScript::new(2);
        for _ in 0..2 {
            script.barrier();
            script.timed(
                Rank(0),
                [ScriptOp::send(Rank(1), 4 * KIB), ScriptOp::recv(Rank(1))],
            );
            script.extend(
                Rank(1),
                [ScriptOp::recv(Rank(0)), ScriptOp::send(Rank(0), 4 * KIB)],
            );
            script.timed(Rank(1), []);
        }
        let out = run_script(&cl, &script.programs).unwrap();
        let times = script.durations(&out);
        let roundtrip = 2.0 * cl.truth.p2p_time(Rank(0), Rank(1), 4 * KIB);
        assert_eq!(times[0].len(), 2);
        for t in &times[0] {
            assert!((t - roundtrip).abs() < 1e-12, "{t} vs {roundtrip}");
        }
        assert_eq!(times[0][1], out.windows[0][5].1 - out.windows[0][4].0);
        assert_eq!(times[1], vec![0.0, 0.0], "empty spans measure 0.0");
        let (again, end) = script.run(&cl).unwrap();
        assert_eq!((again, end), (times, out.end_time));

        // The same programs through one sink for all ranks.
        let mut all = TimedScript::new(2);
        for _ in 0..2 {
            all.barrier();
            all.timed_all(|emit| {
                emit(Rank(0), ScriptOp::send(Rank(1), 4 * KIB));
                emit(Rank(1), ScriptOp::recv(Rank(0)));
                emit(Rank(1), ScriptOp::send(Rank(0), 4 * KIB));
                emit(Rank(0), ScriptOp::recv(Rank(1)));
            });
        }
        assert_eq!(all.programs, script.programs);
        assert_eq!(all.spans[0], script.spans[0]);
        assert_eq!(all.spans[1], vec![(1, 3), (4, 6)]);
    }

    /// Pending events are bounded by the ranks, not by the length of the
    /// run: a 64-rank ring shifting 256 messages per rank fires 100 k
    /// events through a queue that never holds more than a few per rank.
    #[test]
    fn pending_events_stay_bounded_by_the_ranks() {
        let (n, rounds) = (64usize, 256usize);
        let cl = cluster(n, 0.0);
        let programs: Vec<Vec<ScriptOp>> = (0..n)
            .map(|r| {
                let right = Rank::from((r + 1) % n);
                let left = Rank::from((r + n - 1) % n);
                [ScriptOp::send(right, KIB), ScriptOp::recv(left)].repeat(rounds)
            })
            .collect();
        let out = run_script(&cl, &programs).unwrap();
        assert_eq!(out.stats.msgs_received, n * rounds);
        assert!(
            out.stats.pool_slots <= 2 * n && out.stats.pool_slots * 8 <= out.stats.events,
            "{} pending at peak for {} events",
            out.stats.pool_slots,
            out.stats.events
        );
    }

    #[test]
    fn script_deadlock_is_reported() {
        let cl = cluster(2, 0.0);
        let programs = vec![vec![ScriptOp::Recv { src: Rank(1) }], vec![]];
        let err = run_script(&cl, &programs).unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn empty_scripts_finish_at_zero() {
        let cl = cluster(3, 0.0);
        let out = run_script(&cl, &[vec![], vec![], vec![]]).unwrap();
        assert_eq!(out.end_time, 0.0);
        assert_eq!(out.stats.msgs_sent, 0);
    }
}
