//! Raw Linux syscall bindings for the reactor: `epoll` and `eventfd`.
//!
//! The workspace builds offline with no external crates, so instead of
//! `libc`/`mio` this module declares the handful of C library entry
//! points the event loop needs and wraps them in owning types
//! ([`EpollFd`], [`EventFd`]) that close on drop. Everything here is
//! Linux-only; [`crate::poll`] builds the portable-looking API on top.

#![allow(non_camel_case_types)]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;

/// `EPOLLIN`: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// `EPOLLET`: edge-triggered readiness.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86 so the 64-bit data
/// word sits at offset 4, matching the kernel ABI (`__EPOLL_PACKED`).
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    /// Ready-state bitmask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-owned cookie, returned verbatim with each event.
    pub data: u64,
}

type ssize_t = isize;
type size_t = usize;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut epoll_event, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance (`epoll_create1`), closed on drop.
pub struct EpollFd(RawFd);

impl EpollFd {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<EpollFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(EpollFd(fd))
    }

    /// Registers `fd` for the `events` mask with `data` as its cookie.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Re-arms an existing registration with a new mask/cookie.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = epoll_event { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        cvt(unsafe { epoll_ctl(self.0, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks for up to `timeout_ms` (-1 = forever) and fills `events`.
    /// Returns the number of ready entries; retries `EINTR` internally.
    pub fn wait(&self, events: &mut [epoll_event], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer pointer/len pair describes `events`.
            let n = unsafe {
                epoll_wait(
                    self.0,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for EpollFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop is the only closer.
        unsafe { close(self.0) };
    }
}

/// A non-blocking eventfd used to wake a shard's `epoll_wait` from
/// another thread (connection hand-off, shutdown).
pub struct EventFd(RawFd);

impl EventFd {
    /// Creates a non-blocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd(fd))
    }

    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.0
    }

    /// Adds 1 to the counter, making the fd readable. Signal-safe and
    /// callable from any thread; a full counter (never in practice) or
    /// `EINTR` is ignored — the reader is level-woken either way.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: 8-byte write from a live stack value, as eventfd requires.
        unsafe { write(self.0, (&one as *const u64).cast(), 8) };
    }

    /// Drains the counter so the next `wake` produces a fresh edge.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: 8-byte read into a live stack value.
        unsafe { read(self.0, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop is the only closer.
        unsafe { close(self.0) };
    }
}
