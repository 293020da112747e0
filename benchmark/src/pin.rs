//! CPU pinning: the harness and every thread the program spawns share one
//! CPU, the last one the process is allowed.
//!
//! Unpinned, the thread-backed rank handoff of an estimation and the
//! client/server wake-ups of a round trip land on whichever CPU the
//! scheduler picks, and the same code moved by up to 5x between
//! back-to-back runs. Putting the load generator and the server on two
//! CPUs was measured and dropped: on a 2-vCPU virtual machine each
//! cross-CPU wake-up costs about 25 us, which made a 13 us round trip 62 us
//! (92 % of it outside the program) and its run-to-run spread 5 % instead
//! of under 1 %. The first CPU is avoided because it takes the interrupts:
//! on it the same runs fell into two modes a third apart. With one thread
//! in a closed loop the client and the server never need the CPU at once.

use std::os::raw::{c_int, c_ulong};

const WORDS: usize = 16; // 1024 CPUs, the size of glibc's cpu_set_t

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The CPUs the process may use.
#[derive(Clone, Debug)]
pub struct Cpus {
    allowed: Vec<usize>,
}

impl Cpus {
    /// Reads the calling thread's affinity mask. An unreadable mask is
    /// treated as "cannot pin": every call below becomes a no-op.
    pub fn detect() -> Cpus {
        let mut mask = [0 as c_ulong; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        let bits = c_ulong::BITS as usize;
        let allowed = if rc == 0 {
            (0..WORDS * bits)
                .filter(|cpu| mask[cpu / bits] >> (cpu % bits) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { allowed }
    }

    /// Number of CPUs the process may run on.
    pub fn count(&self) -> usize {
        self.allowed.len()
    }

    fn pin(&self, cpus: &[usize]) {
        if cpus.is_empty() {
            return;
        }
        let mut mask = [0 as c_ulong; WORDS];
        let bits = c_ulong::BITS as usize;
        for &cpu in cpus {
            mask[cpu / bits] |= 1 << (cpu % bits);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed, and
        // pid 0 names the calling thread. A refusal leaves the thread where
        // it was, which is the unpinned behaviour.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }

    /// Pins the calling thread, and so every thread it spawns from now on,
    /// to the benchmark's CPU.
    pub fn pin_all(&self) {
        self.pin(self.allowed.last().map_or(&[], std::slice::from_ref));
    }

    /// Lets the calling thread (and threads it spawns) run on every allowed
    /// CPU again: the unpinned comparison.
    pub fn unpin(&self) {
        self.pin(&self.allowed);
    }
}
