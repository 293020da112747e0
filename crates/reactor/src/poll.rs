//! A mio-style readiness API over raw epoll: [`Poll`], [`Token`],
//! [`Interest`], [`Events`].
//!
//! Registrations are **edge-triggered**: an event fires once per
//! readiness transition, so the owner must exhaust the fd (read/write
//! until `WouldBlock`) before the next event can arrive. The shard loop
//! in [`crate::reactor`] is written around that contract.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys::{self, epoll_event, EpollFd};

/// Identifies one registration; returned verbatim with each event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// What readiness to watch for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Readable (plus peer-hangup, which epoll folds into reads).
    pub const READABLE: Interest = Interest(sys::EPOLLIN | sys::EPOLLRDHUP);
    /// Writable.
    pub const WRITABLE: Interest = Interest(sys::EPOLLOUT);

    /// Combines two interests.
    pub fn or(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    fn mask(self) -> u32 {
        self.0 | sys::EPOLLET
    }
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    mask: u32,
}

impl Event {
    /// Whose registration fired.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The fd has bytes to read, or the peer hung up (which reads as
    /// EOF — the read path discovers it).
    pub fn readable(&self) -> bool {
        self.mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// The fd accepts writes again (or errored — the write discovers it).
    pub fn writable(&self) -> bool {
        self.mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// Error or hangup condition (always delivered, never registered).
    pub fn closed(&self) -> bool {
        self.mask & (sys::EPOLLHUP | sys::EPOLLERR) != 0
    }
}

/// A reusable event buffer for [`Poll::poll`].
pub struct Events {
    raw: Vec<epoll_event>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            raw: vec![epoll_event { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates over the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.len].iter().map(|e| Event {
            token: Token(e.data),
            mask: e.events,
        })
    }

    /// Number of events delivered by the last poll.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the last poll timed out with no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An epoll instance with edge-triggered registrations.
pub struct Poll {
    epoll: EpollFd,
}

impl Poll {
    /// Creates a fresh epoll instance.
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            epoll: EpollFd::new()?,
        })
    }

    /// Registers `fd` under `token` for `interest`, edge-triggered.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.epoll.add(fd, interest.mask(), token.0)
    }

    /// Replaces an existing registration's interest/token.
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.epoll.modify(fd, interest.mask(), token.0)
    }

    /// Waits for events, blocking at most `timeout` (`None` = forever).
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            // Zero stays zero (a non-blocking sweep); any other
            // sub-millisecond timeout rounds up so it still sleeps.
            Some(t) if t.is_zero() => 0,
            Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
        };
        events.len = self.epoll.wait(&mut events.raw, timeout_ms)?;
        Ok(())
    }
}
