//! The communicator handle.

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_netsim::{MsgView, Proc};

/// An MPI-like communicator bound to one simulated process.
///
/// `Comm` is a thin, deliberately MPI-shaped veneer over
/// [`cpm_netsim::Proc`], cut down to what the differential tests' reference
/// closures use: `rank`/`size`/`wtime`/`barrier`, blocking send/recv,
/// `MPI_Sendrecv`, `compute`, and the barrier-separated repetition loop.
pub struct Comm<'p> {
    proc_: &'p mut Proc,
}

impl<'p> Comm<'p> {
    /// Wraps a simulated process.
    pub fn new(proc_: &'p mut Proc) -> Self {
        Comm { proc_ }
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.proc_.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.proc_.size()
    }

    /// Virtual `MPI_Wtime`, seconds.
    pub fn wtime(&self) -> f64 {
        self.proc_.now()
    }

    /// Blocking send (tag 0).
    pub fn send(&mut self, dst: Rank, bytes: Bytes) {
        self.proc_.send(dst, bytes);
    }

    /// Blocking receive from `src` (tag 0).
    pub fn recv(&mut self, src: Rank) -> MsgView {
        self.proc_.recv(src)
    }

    /// `MPI_Sendrecv`: posts a nonblocking send to `dst` and receives from
    /// `src` concurrently — both directions overlap, unlike a blocking
    /// send-then-recv sequence.
    pub fn sendrecv_exchange(&mut self, dst: Rank, send_bytes: Bytes, src: Rank) -> MsgView {
        let req = self.proc_.isend(dst, send_bytes);
        let msg = self.proc_.recv(src);
        self.proc_.wait_send(req);
        msg
    }

    /// Local computation for `secs` of virtual time.
    pub fn compute(&mut self, secs: f64) {
        self.proc_.compute(secs);
    }

    /// Zero-cost benchmark barrier across all ranks.
    pub fn barrier(&mut self) {
        self.proc_.barrier();
    }

    /// The benchmark loop of the paper's methodology: `reps` repetitions of
    /// `op`, each preceded by a global barrier; the duration of each
    /// repetition is measured locally.
    ///
    /// Every rank gets the same number of barrier/op calls, so all ranks of
    /// a collective must call this together; only the timing side of the
    /// caller matters (the paper measures collectives on the root/sender
    /// side).
    pub fn timed_reps(
        &mut self,
        reps: usize,
        mut op: impl FnMut(&mut Comm<'_>, usize),
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(reps);
        for rep in 0..reps {
            self.barrier();
            let t0 = self.wtime();
            op(&mut Comm { proc_: self.proc_ }, rep);
            out.push(self.wtime() - t0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_netsim::{simulate, SimCluster};

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    #[test]
    fn sendrecv_roundtrip() {
        let cl = cluster(2);
        let truth = cl.truth.clone();
        let out = simulate(&cl, |p| {
            let mut c = Comm::new(p);
            if c.rank() == Rank(0) {
                let t0 = c.wtime();
                c.send(Rank(1), 1024);
                let reply = c.recv(Rank(1));
                assert_eq!(reply.src, Rank(1));
                c.wtime() - t0
            } else {
                let m = c.recv(Rank(0));
                c.send(Rank(0), m.bytes);
                0.0
            }
        })
        .unwrap();
        let expected = 2.0 * truth.p2p_time(Rank(0), Rank(1), 1024);
        assert!((out.results[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn timed_reps_counts_and_measures() {
        let cl = cluster(2);
        let out = simulate(&cl, |p| {
            let mut c = Comm::new(p);
            if c.rank() == Rank(0) {
                c.timed_reps(5, |c, _| {
                    c.send(Rank(1), 512);
                })
            } else {
                c.timed_reps(5, |c, _| {
                    let _ = c.recv(Rank(0));
                })
            }
        })
        .unwrap();
        assert_eq!(out.results[0].len(), 5);
        // Without noise every rep takes the same time.
        let first = out.results[0][0];
        assert!(first > 0.0);
        for t in &out.results[0] {
            assert!((t - first).abs() < 1e-12);
        }
    }

    #[test]
    fn wtime_advances_with_compute() {
        let cl = cluster(1);
        let out = simulate(&cl, |p| {
            let mut c = Comm::new(p);
            let t0 = c.wtime();
            c.compute(0.25);
            c.wtime() - t0
        })
        .unwrap();
        assert_eq!(out.results[0], 0.25);
    }
}
