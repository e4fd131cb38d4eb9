//! symtensor-flight: the one per-rank event log every [`crate::Comm`]
//! records into.
//!
//! Every send, receive, phase edge, counter sample, injected fault and
//! observed alert is written here exactly once, as a [`CommEvent`]. The
//! log has two shapes:
//!
//! * **a bounded ring** (the default, [`FlightRecorder::new`]) — always
//!   on, so the last window of activity on every rank survives a crash
//!   and can be handed over, by value, into a post-mortem dump;
//! * **an unbounded log** ([`FlightRecorder::unbounded`], used by
//!   [`crate::Universe::run_traced`]) — the complete run, for span trees,
//!   comm matrices and Perfetto traces. A traced run's log *is* its window.
//!
//! The ring's design constraints, in order:
//!
//! 1. **never allocate after construction** — the ring is allocated once;
//!    recording into a full ring overwrites the oldest record at the
//!    write head (counted in [`FlightOverhead::dropped`]), preserving the
//!    compiled-plan steady-state zero-allocation property witnessed by the
//!    counting global-allocator test;
//! 2. **bounded memory** — [`DEFAULT_FLIGHT_CAPACITY`] records are 80 KiB
//!    per rank;
//! 3. **measured self-overhead** — every record costs two clock reads,
//!    both in [`FlightRecorder::record`]; the second one charges the
//!    recording cost to [`FlightOverhead::overhead_ns`] so the recorder
//!    reports its own tax.

use crate::cost::{CommEvent, CommEventKind};
use std::time::Instant;

/// Default ring capacity (records per rank) used by
/// [`crate::Universe::new`]: 80 KiB of [`CommEvent`] records per rank —
/// enough to hold the final schedule window of every experiment in this
/// repository.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 80 * 1024 / std::mem::size_of::<CommEvent>();

/// The recorder's self-accounting: how much it recorded, lost and cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightOverhead {
    /// Records the log can hold: the ring size, or — for an unbounded
    /// (traced) log — the number it holds, since it grew to fit every
    /// record. 0 = recorder disabled.
    pub capacity: usize,
    /// Total records ever offered to the log.
    pub recorded: u64,
    /// Records evicted by ring wraparound (oldest-first). When non-zero
    /// the ring holds only the final `capacity`-record window and word-sum
    /// reconciliation against the cost counters is no longer exact.
    pub dropped: u64,
    /// Nanoseconds spent inside [`FlightRecorder::record`], measured by
    /// the recorder itself (one extra clock read per record).
    pub overhead_ns: u64,
}

/// One rank's log, oldest record first, handed over at the end of a run
/// (or at a crash).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// The rank this log belonged to.
    pub rank: usize,
    /// Recorded events, oldest first, timestamps non-decreasing.
    pub events: Vec<CommEvent>,
    /// Self-accounting counters.
    pub overhead: FlightOverhead,
}

impl FlightSnapshot {
    /// Total words in `Send` events — reconciled against the comm matrix
    /// and hot-path counters by the post-mortem pipeline (exact only when
    /// `overhead.dropped == 0`).
    pub fn words_sent(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, CommEventKind::Send { .. }))
            .map(CommEvent::words)
            .sum()
    }

    /// Total words in `Recv` events.
    pub fn words_recv(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, CommEventKind::Recv { .. }))
            .map(CommEvent::words)
            .sum()
    }
}

/// One rank's event log: a ring allocated once, or an unbounded log.
pub struct FlightRecorder {
    log: Vec<CommEvent>,
    /// Ring size; `None` for an unbounded log.
    ring: Option<usize>,
    /// Next write position once the ring is full (== the oldest record).
    head: usize,
    recorded: u64,
    dropped: u64,
    overhead_ns: u64,
}

impl FlightRecorder {
    /// A ring with room for `capacity` records, allocated here and never
    /// again; `capacity == 0` disables recording entirely (no clock reads).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::with_log(Vec::with_capacity(capacity), Some(capacity))
    }

    /// A log that keeps every record (a traced run).
    pub fn unbounded() -> Self {
        FlightRecorder::with_log(Vec::new(), None)
    }

    fn with_log(log: Vec<CommEvent>, ring: Option<usize>) -> Self {
        FlightRecorder { log, ring, head: 0, recorded: 0, dropped: 0, overhead_ns: 0 }
    }

    /// Whether anything is recorded. A disabled recorder costs one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring != Some(0)
    }

    /// Whether this log keeps every record.
    #[inline]
    pub fn is_unbounded(&self) -> bool {
        self.ring.is_none()
    }

    /// Records one event stamped with nanoseconds since `epoch`, charging
    /// the measured recording cost to the self-overhead counter. No-op
    /// when disabled; never allocates into a ring.
    ///
    /// The overhead is `Instant::elapsed` of a single monotonic anchor —
    /// non-negative by construction, so the recorder's self-tax (and the
    /// telemetry gauge fed from it) can never go negative on coarse
    /// clocks, unlike a difference of two epoch reads.
    #[inline]
    pub fn record(
        &mut self,
        epoch: Instant,
        phase: Option<&'static str>,
        round: Option<u64>,
        request: Option<u64>,
        kind: CommEventKind,
    ) {
        if !self.enabled() {
            return;
        }
        // lint: clock-anchor — the record's timestamp and overhead origin.
        let anchor = Instant::now();
        let t_ns = anchor.saturating_duration_since(epoch).as_nanos() as u64;
        self.push(CommEvent { t_ns, phase, round, request, kind });
        self.overhead_ns = self.overhead_ns.saturating_add(anchor.elapsed().as_nanos() as u64);
    }

    /// Appends `event`; a full ring overwrites its oldest record.
    fn push(&mut self, event: CommEvent) {
        self.recorded += 1;
        match self.ring {
            Some(cap) if self.log.len() == cap => {
                self.log[self.head] = event;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.log.push(event),
        }
    }

    /// The accumulated self-overhead in nanoseconds — the lightweight
    /// getter behind the telemetry plane's recorder-overhead gauge.
    #[inline]
    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns
    }

    /// The log in chronological order, taken by value: a wrapped ring is
    /// rotated in place so its oldest record comes first; nothing is
    /// allocated or copied.
    pub fn into_snapshot(mut self, rank: usize) -> FlightSnapshot {
        self.log.rotate_left(self.head);
        FlightSnapshot {
            rank,
            overhead: FlightOverhead {
                capacity: self.ring.unwrap_or(self.log.len()),
                recorded: self.recorded,
                dropped: self.dropped,
                overhead_ns: self.overhead_ns,
            },
            events: self.log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(t_ns: u64, words: u64) -> CommEvent {
        CommEvent {
            t_ns,
            phase: Some("gather-x"),
            round: Some(3),
            request: Some(42),
            kind: CommEventKind::Send { dst: 1, tag: 0, words },
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_window_and_counts_drops() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.push(send(i * 10, i));
        }
        let snap = rec.into_snapshot(0);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.overhead.capacity, 4);
        assert_eq!(snap.overhead.recorded, 10);
        assert_eq!(snap.overhead.dropped, 6);
        // The surviving window is the last four records, in order.
        let words: Vec<u64> = snap.events.iter().map(CommEvent::words).collect();
        assert_eq!(words, vec![6, 7, 8, 9]);
        assert_eq!(snap.words_sent(), 30);
        assert_eq!(snap.words_recv(), 0);
    }

    #[test]
    fn roundtrip_preserves_fields_and_absolute_times() {
        let epoch = Instant::now();
        let mut rec = FlightRecorder::new(8);
        let kind = CommEventKind::Send { dst: 1, tag: 4, words: u64::MAX };
        rec.record(epoch, Some("gather-x"), Some(u64::MAX), Some(u64::MAX), kind);
        let before_second = epoch.elapsed().as_nanos() as u64;
        rec.record(epoch, None, Some(1), None, CommEventKind::Recv { src: 2, tag: 5, words: 9 });
        let snap = rec.into_snapshot(5);
        assert_eq!(snap.rank, 5);
        assert_eq!(snap.events.len(), 2);
        // Every field is kept at full width: no clamping, no aliasing.
        let first = snap.events[0];
        assert_eq!(first.kind, kind);
        assert_eq!(first.phase, Some("gather-x"));
        assert_eq!((first.round, first.request), (Some(u64::MAX), Some(u64::MAX)));
        // Timestamps are absolute nanoseconds since the epoch.
        assert!(first.t_ns <= before_second && before_second <= snap.events[1].t_ns);
        assert_eq!(snap.events[1].round, Some(1));
        assert_eq!((snap.words_sent(), snap.words_recv()), (u64::MAX, 9));
        assert_eq!((snap.overhead.recorded, snap.overhead.dropped), (2, 0));
    }

    #[test]
    fn fault_kind_roundtrips() {
        let mut rec = FlightRecorder::new(4);
        let fault = crate::InjectedFault::Drop;
        rec.record(
            Instant::now(),
            Some("gather-x"),
            Some(1),
            None,
            CommEventKind::Fault { fault, peer: 2, words: 9 },
        );
        let snap = rec.into_snapshot(1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, CommEventKind::Fault { fault, peer: 2, words: 9 });
        // Fault records are not Send records: word sums stay clean.
        assert_eq!(snap.words_sent(), 0);
    }

    #[test]
    fn alert_kind_roundtrips_with_its_id() {
        let mut rec = FlightRecorder::new(4);
        rec.record(Instant::now(), Some("reduce-y"), None, None, CommEventKind::Alert { id: 3 });
        let snap = rec.into_snapshot(2);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, CommEventKind::Alert { id: 3 });
        assert_eq!(snap.events[0].phase, Some("reduce-y"));
        // Alert records are neither sends nor receives: word sums stay clean.
        assert_eq!(snap.words_sent() + snap.words_recv(), 0);
    }

    #[test]
    fn overhead_counter_is_monotone_and_saturates() {
        let epoch = Instant::now();
        let mut rec = FlightRecorder::new(4);
        assert_eq!(rec.overhead_ns(), 0);
        let mut last = 0;
        for id in 0..8 {
            rec.record(epoch, None, None, None, CommEventKind::Alert { id });
            assert!(rec.overhead_ns() >= last, "self-overhead went backwards");
            last = rec.overhead_ns();
        }
        rec.overhead_ns = u64::MAX;
        rec.record(epoch, None, None, None, CommEventKind::Alert { id: 8 });
        assert_eq!(rec.overhead_ns(), u64::MAX, "saturates instead of wrapping");
        assert_eq!(rec.into_snapshot(0).overhead.overhead_ns, u64::MAX);
    }

    #[test]
    fn unbounded_log_keeps_everything() {
        let mut rec = FlightRecorder::unbounded();
        assert!(rec.enabled() && rec.is_unbounded());
        for i in 0..100u64 {
            rec.push(send(i, 1));
        }
        let snap = rec.into_snapshot(0);
        assert_eq!(snap.events.len(), 100);
        assert_eq!((snap.overhead.capacity, snap.overhead.dropped), (100, 0));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = FlightRecorder::new(0);
        assert!(!rec.enabled());
        rec.record(Instant::now(), None, None, None, CommEventKind::Alert { id: 0 });
        let snap = rec.into_snapshot(0);
        assert!(snap.events.is_empty());
        assert_eq!(snap.overhead, FlightOverhead::default());
    }
}
