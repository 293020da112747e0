//! The event queue of the discrete-event kernel — a thin facade over the
//! [`cpm_des`] engine (one binary heap on a packed `(time, tie)` key, the
//! payload inline), keeping the kernel's push/pop API and naming the
//! kernel's event kinds. Determinism contract: events pop in time order,
//! ties broken by insertion order — unless the cluster enables schedule
//! fuzzing, in which case same-time events permute deterministically per
//! seed (time order is never affected).

use cpm_core::time::Time;
use cpm_des::{Engine, EngineStats};

/// Index of a simulated process.
pub type ProcId = usize;

/// Index of an in-flight message in the kernel's message table.
pub type MsgId = usize;

/// What happens when an event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A blocked process becomes runnable.
    Wake(ProcId),
    /// A message reaches the receiver's ingress port after crossing the
    /// switch fabric (sender NIC exit + link latency).
    Arrive(MsgId),
    /// The last byte of a message has crossed the receiver's ingress port.
    TransferDone(MsgId),
    /// The receiver's rx engine has finished processing a message; it is
    /// now visible to `recv`.
    Deliver(MsgId),
}

/// An event as the kernel consumes it: what fires, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// What fires.
    pub kind: EventKind,
}

/// Per-kind counts of fired kernel events, counted by the kernel as it
/// dispatches them (traced runs only). Traced runs expose these so
/// timeline consumers can cross-check the semantic trace against what the
/// scheduler actually fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesEventCounts {
    /// `Wake` events fired.
    pub wakes: u64,
    /// `Arrive` events fired.
    pub arrivals: u64,
    /// `TransferDone` events fired.
    pub transfers: u64,
    /// `Deliver` events fired.
    pub delivers: u64,
}

impl DesEventCounts {
    /// Total events fired across all kinds.
    pub fn total(&self) -> u64 {
        self.wakes + self.arrivals + self.transfers + self.delivers
    }

    /// Folds one fired event into the counts.
    pub fn observe(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Wake(_) => self.wakes += 1,
            EventKind::Arrive(_) => self.arrivals += 1,
            EventKind::TransferDone(_) => self.transfers += 1,
            EventKind::Deliver(_) => self.delivers += 1,
        }
    }
}

/// A deterministic time-ordered event queue backed by [`cpm_des::Engine`].
pub struct EventQueue {
    engine: Engine<Time, EventKind>,
}

impl EventQueue {
    /// An empty queue with FIFO tie-breaking.
    pub fn new() -> Self {
        EventQueue {
            engine: Engine::new(),
        }
    }

    /// An empty queue; `Some(seed)` permutes same-time events
    /// deterministically per seed (the schedule fuzzer).
    pub fn with_fuzz(fuzz_seed: Option<u64>) -> Self {
        EventQueue {
            engine: match fuzz_seed {
                Some(seed) => Engine::with_fuzz(seed),
                None => Engine::new(),
            },
        }
    }

    /// Schedules `kind` at time `at`.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        self.engine.schedule(at, kind);
    }

    /// Pops the earliest event (ties broken by insertion order, or by the
    /// fuzz permutation when enabled).
    pub fn pop(&mut self) -> Option<Event> {
        self.engine.pop().map(|(at, kind)| Event { at, kind })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Scheduling counters from the underlying engine (events scheduled and
    /// fired, peak pending).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(3.0), EventKind::Wake(3));
        q.push(Time::from_secs(1.0), EventKind::Wake(1));
        q.push(Time::from_secs(2.0), EventKind::Wake(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.secs() as u32)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_secs(1.0);
        for i in 0..10 {
            q.push(t, EventKind::Wake(i));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake(p) => p,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_secs(5.0), EventKind::Wake(5));
        q.push(Time::from_secs(1.0), EventKind::Wake(1));
        assert_eq!(q.pop().unwrap().at, Time::from_secs(1.0));
        q.push(Time::from_secs(2.0), EventKind::Wake(2));
        assert_eq!(q.pop().unwrap().at, Time::from_secs(2.0));
        assert_eq!(q.pop().unwrap().at, Time::from_secs(5.0));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fuzz_permutes_ties_but_not_times() {
        let run = |fuzz: Option<u64>| -> Vec<(u32, usize)> {
            let mut q = EventQueue::with_fuzz(fuzz);
            for i in 0..20 {
                q.push(Time::from_secs((i / 5) as f64), EventKind::Wake(i));
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| {
                    let EventKind::Wake(p) = e.kind else {
                        unreachable!()
                    };
                    (e.at.secs() as u32, p)
                })
                .collect()
        };
        let plain = run(None);
        let fuzzed = run(Some(42));
        assert_eq!(fuzzed, run(Some(42)), "fuzz is deterministic per seed");
        assert_ne!(plain, fuzzed, "fuzz permutes same-time events");
        let times = |v: &[(u32, usize)]| v.iter().map(|(t, _)| *t).collect::<Vec<_>>();
        assert_eq!(times(&plain), times(&fuzzed), "time order untouched");
    }
}
