//! The per-rank communicator handle: point-to-point messaging with tags
//! over one inbox per rank (`mailbox.rs`), cost counting,
//! deadlock-surfacing timeouts and one timestamped, annotated event log
//! per rank ([`crate::flight`]).

use crate::cost::{CommEventKind, SharedCounters};
use crate::fault::{FaultPlan, FaultState, InjectedFault, SendAction};
use crate::flight::FlightRecorder;
use crate::mailbox::{Mailbox, Missed};
use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use symtensor_telemetry::{keys as telemetry_keys, TelemetryPlane};

/// A point-to-point message: source rank, user tag, payload of words.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: u64,
    /// Payload words.
    pub data: Vec<f64>,
    /// Marks a chaos-injected duplicate delivery. Receivers discard marked
    /// copies on intake (the model of sequence-number deduplication), so a
    /// duplicate can never be claimed by a later tag-matched receive.
    pub dup: bool,
}

/// Identity and last phase/round annotations of the rank whose panic
/// aborted the universe — attached to the
/// [`CommError::Disconnected`] errors surviving peers observe, so a
/// failure is attributable without a debugger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbortInfo {
    /// The rank that panicked.
    pub rank: usize,
    /// The innermost phase it was in when it panicked ([`Comm::with_phase`]
    /// restores the previous label only on normal return, so the label at
    /// the panic site survives in the cell).
    pub phase: Option<&'static str>,
    /// Its last schedule-round annotation, if any.
    pub round: Option<u64>,
}

impl std::fmt::Display for AbortInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} aborted", self.rank)?;
        if let Some(phase) = self.phase {
            write!(f, " in phase {phase}")?;
        }
        if let Some(round) = self.round {
            write!(f, ", round {round}")?;
        }
        Ok(())
    }
}

/// Who aborted a universe run and where: written once (first writer
/// wins) before any mailbox is aborted.
pub(crate) type AbortSlot = Arc<Mutex<Option<AbortInfo>>>;

/// Errors surfaced by communication operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived before the configured timeout — the MPI
    /// analogue of a deadlock or a schedule mismatch.
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// Expected source rank.
        from: usize,
        /// Expected tag.
        tag: u64,
    },
    /// A peer rank panicked (or called [`Comm::fail_fast`]): the universe
    /// aborted while this rank waited.
    Disconnected {
        /// The waiting rank.
        rank: usize,
        /// Expected source rank.
        from: usize,
        /// Expected tag.
        tag: u64,
        /// Who aborted the universe and where. [`Comm::recv`] always fills
        /// it: the attribution is written before any mailbox is aborted.
        abort: Option<AbortInfo>,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, from, tag } => write!(
                f,
                "rank {rank}: timed out waiting for message from rank {from} with tag {tag}"
            ),
            CommError::Disconnected { rank, from, tag, abort } => {
                write!(
                    f,
                    "rank {rank}: peer disconnected while waiting for rank {from} tag {tag}"
                )?;
                if let Some(info) = abort {
                    write!(f, " ({info})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CommError {}

/// The communicator owned by one rank for the duration of a
/// [`crate::Universe::run`] call.
pub struct Comm {
    rank: usize,
    /// Every rank's inbox, indexed by rank; this rank receives from its own.
    mailboxes: Arc<[Mailbox]>,
    counters: SharedCounters,
    recv_timeout: Duration,
    /// The aborting rank's identity and last phase/round, once any rank
    /// has panicked or called [`Comm::fail_fast`].
    abort: AbortSlot,
    /// Shared start instant of the universe — event timestamps are
    /// nanoseconds since this epoch.
    epoch: Instant,
    /// Innermost phase label currently active (see [`Comm::with_phase`]).
    phase: Cell<Option<&'static str>>,
    /// Schedule-round annotation currently active.
    round: Cell<Option<u64>>,
    /// Request-id annotation currently active (batched serving paths tag
    /// per-vector work so recorded events are attributable to a request).
    request: Cell<Option<u64>>,
    /// This rank's event log: a bounded ring by default, unbounded in a
    /// traced run.
    log: RefCell<FlightRecorder>,
    /// Chaos state when the universe has a [`FaultPlan`] installed that can
    /// actually inject something this attempt; `None` otherwise, so an
    /// inert plan costs one branch per send and nothing per receive.
    faults: Option<RefCell<FaultState>>,
    /// Live-metrics handle when the universe has a telemetry plane
    /// attached; `None` costs one branch per send/recv.
    telemetry: Option<TelemetryHandle>,
}

/// This rank's view of the shared [`TelemetryPlane`]: the plane, a
/// one-entry phase-slot cache (so a publish costs a label compare, not a
/// registry scan) and the high-water mark of alerts already stamped into
/// the rank's log.
struct TelemetryHandle {
    plane: Arc<TelemetryPlane>,
    cached_label: Cell<Option<&'static str>>,
    cached_slot: Cell<usize>,
    seen_alerts: Cell<u64>,
}

impl Comm {
    // Crate-internal constructor invoked once per rank by the universe;
    // the argument list *is* the wiring diagram.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        mailboxes: Arc<[Mailbox]>,
        counters: SharedCounters,
        recv_timeout: Duration,
        abort: AbortSlot,
        epoch: Instant,
        log: FlightRecorder,
        faults: Option<FaultPlan>,
        telemetry: Option<Arc<TelemetryPlane>>,
    ) -> Self {
        Comm {
            rank,
            mailboxes,
            counters,
            recv_timeout,
            abort,
            epoch,
            phase: Cell::new(None),
            round: Cell::new(None),
            request: Cell::new(None),
            log: RefCell::new(log),
            faults: faults
                .filter(FaultPlan::is_active)
                .map(|plan| RefCell::new(FaultState::new(plan, rank))),
            telemetry: telemetry.map(|plane| TelemetryHandle {
                plane,
                // `None` → slot 0 is the plane's standing invariant
                // (UNPHASED is always slot 0), so the initial cache entry
                // is already correct.
                cached_label: Cell::new(None),
                cached_slot: Cell::new(0),
                seen_alerts: Cell::new(0),
            }),
        }
    }

    /// Whether this run keeps every event (a traced run) rather than a
    /// bounded window.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.log.borrow().is_unbounded()
    }

    /// Nanoseconds since the universe epoch — the same clock every
    /// recorded event uses, exposed so serving layers can timestamp
    /// request spans on a comparable axis.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes this rank's mailbox and hands its log over by value, once
    /// the rank's closure has returned. A later send to this rank is
    /// refused and not charged.
    pub(crate) fn into_log(self) -> FlightRecorder {
        self.mailboxes[self.rank].close();
        self.log.into_inner()
    }

    /// Records one event, annotated with the active phase, round and
    /// request, into this rank's log, and feeds sends and receives to the
    /// attached telemetry plane. The one record call: nothing else writes
    /// the log or the plane's traffic counters.
    #[inline]
    fn record(&self, kind: CommEventKind) {
        self.log.borrow_mut().record(
            self.epoch,
            self.phase.get(),
            self.round.get(),
            self.request.get(),
            kind,
        );
        if let Some(h) = &self.telemetry {
            match kind {
                CommEventKind::Send { words, .. } => {
                    h.plane.rank_cell(self.rank).on_send(self.tele_slot(h), words)
                }
                CommEventKind::Recv { words, .. } => {
                    h.plane.rank_cell(self.rank).on_recv(self.tele_slot(h), words)
                }
                _ => return,
            }
            self.poll_alerts(h);
        }
    }

    /// Runs `f` inside a named phase: a `PhaseEnter`/`PhaseExit` pair with
    /// counter snapshots brackets the call and every event recorded inside
    /// carries the phase label. Phases nest — the innermost label wins for
    /// event attribution.
    pub fn with_phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let prev = self.phase.replace(Some(name));
        let snapshot = self.counters.rank(self.rank).snapshot();
        self.record(CommEventKind::PhaseEnter { name, snapshot });
        let result = f();
        let snapshot = self.counters.rank(self.rank).snapshot();
        self.record(CommEventKind::PhaseExit { name, snapshot });
        self.phase.set(prev);
        result
    }

    /// Like [`Comm::with_phase`] but only applies when no phase is already
    /// active. Collectives use this so that stand-alone calls are labelled
    /// (`coll:all-gather`, …) while calls nested inside an algorithm phase
    /// keep the algorithm's attribution.
    pub fn with_fallback_phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.phase.get().is_some() {
            f()
        } else {
            self.with_phase(name, f)
        }
    }

    /// The phase label currently in effect, if any.
    #[inline]
    pub fn current_phase(&self) -> Option<&'static str> {
        self.phase.get()
    }

    /// Sets the schedule-round annotation attached to subsequently recorded
    /// events (step-counted schedules, Theorem 7.2). Clear with
    /// [`Comm::clear_round`].
    #[inline]
    pub fn annotate_round(&self, round: u64) {
        self.round.set(Some(round));
    }

    /// Clears the schedule-round annotation.
    #[inline]
    pub fn clear_round(&self) {
        self.round.set(None);
    }

    /// The schedule-round annotation currently in effect, if any.
    /// Collectives that step-annotate their internal rounds use this to
    /// save and restore an enclosing algorithm's annotation.
    #[inline]
    pub fn current_round(&self) -> Option<u64> {
        self.round.get()
    }

    /// Tags subsequently recorded events with a request id, so the
    /// per-vector work of a batched serving run is attributable to the
    /// concrete request it serves. Clear with [`Comm::clear_request`].
    #[inline]
    pub fn annotate_request(&self, id: u64) {
        self.request.set(Some(id));
    }

    /// Clears the request-id annotation.
    #[inline]
    pub fn clear_request(&self) {
        self.request.set(None);
    }

    /// The request-id annotation currently in effect, if any.
    #[inline]
    pub fn current_request(&self) -> Option<u64> {
        self.request.get()
    }

    /// Records a named numeric sample ([`CommEventKind::Counter`]) in the
    /// rank's log, attributed to the innermost active phase — e.g. the
    /// compiled-plan kernel's `plan:arena_bytes` / `plan:fresh_allocs`
    /// gauges. Never touches the cost counters.
    #[inline]
    pub fn annotate_counter(&self, key: &'static str, value: u64) {
        self.record(CommEventKind::Counter { key, value });
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks `P`.
    #[inline]
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// Records one injected fault, so a post-mortem can tell chaos apart
    /// from organic failures.
    fn record_fault(&self, fault: InjectedFault, peer: usize, words: u64) {
        self.record(CommEventKind::Fault { fault, peer, words });
    }

    /// Aborts the universe, attributed to this rank at its current
    /// phase/round — the fail-fast signal. Every mailbox is aborted, so a
    /// peer parked in [`Comm::recv`] wakes at once and returns
    /// [`CommError::Disconnected`]. The first caller wins the attribution;
    /// a later call only aborts the mailboxes again.
    ///
    /// Collectives call this on their first receive failure so a deserted
    /// collective errors on *every* surviving rank instead of leaving the
    /// others to block out their own full timeouts. The universe calls it
    /// for a rank whose closure panicked.
    pub fn fail_fast(&self) {
        let mut slot = self.abort.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(AbortInfo {
            rank: self.rank,
            phase: self.phase.get(),
            round: self.round.get(),
        });
        drop(slot);
        for mailbox in self.mailboxes.iter() {
            mailbox.abort();
        }
    }

    /// Who aborted the universe and where, if it has aborted.
    pub(crate) fn abort_info(&self) -> Option<AbortInfo> {
        *self.abort.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sends `data` to `dst` with a user `tag`. Non-blocking (a mailbox is
    /// unbounded); counts `data.len()` words and one message. The send
    /// wakes `dst` only if `dst` is parked on exactly this `(src, tag)`.
    ///
    /// Counters and the log's send record are charged only for messages
    /// that actually enter the network: a send to a rank that has already
    /// exited (its mailbox is closed) and a chaos-injected drop both leave
    /// the word counters untouched, so a post-mortem's counter/matrix
    /// reconciliation stays exact on failure paths.
    ///
    /// # Panics
    /// Panics on self-sends — local data movement is free in the model and
    /// should not go through the network. Panics with a `chaos:` message
    /// when an installed [`FaultPlan`] crashes this rank here.
    pub fn send(&self, dst: usize, tag: u64, data: Vec<f64>) {
        assert_ne!(
            dst, self.rank,
            "rank {}: self-send (local copies are not communication)",
            self.rank
        );
        if let Some(faults) = &self.faults {
            let mut st = faults.borrow_mut();
            if st.crash_due(self.rank, self.phase.get(), self.round.get()) {
                drop(st);
                self.record_fault(InjectedFault::Crash, dst, data.len() as u64);
                self.fail_fast();
                panic!("chaos: injected crash on rank {} (send)", self.rank);
            }
            let action = st.on_send(self.rank);
            drop(st);
            match action {
                SendAction::Deliver => {}
                SendAction::Drop => {
                    // Discarded before reaching the network: no counters, no
                    // send record — only the fault record shows the intent.
                    self.record_fault(InjectedFault::Drop, dst, data.len() as u64);
                    return;
                }
                SendAction::Duplicate => {
                    self.record_fault(InjectedFault::Duplicate, dst, data.len() as u64);
                    // The duplicate is a network artifact the receiver
                    // dedups on intake; it is not charged as traffic.
                    self.mailboxes[dst].deliver(Msg {
                        src: self.rank,
                        tag,
                        data: data.clone(),
                        dup: true,
                    });
                }
            }
        }
        let words = data.len() as u64;
        // A refusal means the destination already exited; the message never
        // entered the network, so it must not appear in the cost counters.
        if self.mailboxes[dst].deliver(Msg { src: self.rank, tag, data, dup: false }) {
            let counters = self.counters.rank(self.rank);
            // ordering: Relaxed — monotone single-writer cost counters.
            counters.words_sent.fetch_add(words, Ordering::Relaxed);
            counters.msgs_sent.fetch_add(1, Ordering::Relaxed);
            self.record(CommEventKind::Send { dst, tag, words });
        }
    }

    /// Receives the earliest message from `src` carrying `tag`; messages
    /// that arrive first stay queued without waking this rank. Errors after
    /// the configured timeout, or with [`CommError::Disconnected`] as soon
    /// as the universe aborts because a peer rank panicked (the abort wakes
    /// this rank, so a dead peer never costs the full timeout).
    ///
    /// # Panics
    /// Panics with a `chaos:` message when an installed [`FaultPlan`]
    /// crashes this rank here.
    pub fn recv(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        if let Some(faults) = &self.faults {
            if faults.borrow().crash_due(self.rank, self.phase.get(), self.round.get()) {
                self.record_fault(InjectedFault::Crash, src, 0);
                self.fail_fast();
                panic!("chaos: injected crash on rank {} (recv)", self.rank);
            }
        }
        match self.mailboxes[self.rank].take(src, tag, self.recv_timeout) {
            Ok(msg) => Ok(self.account_recv(msg)),
            Err(Missed::Aborted) => Err(CommError::Disconnected {
                rank: self.rank,
                from: src,
                tag,
                abort: self.abort_info(),
            }),
            Err(Missed::TimedOut) => Err(CommError::Timeout { rank: self.rank, from: src, tag }),
        }
    }

    fn account_recv(&self, msg: Msg) -> Vec<f64> {
        let counters = self.counters.rank(self.rank);
        // ordering: Relaxed — monotone counters, as on the send path.
        counters.words_recv.fetch_add(msg.data.len() as u64, Ordering::Relaxed);
        counters.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.record(CommEventKind::Recv {
            src: msg.src,
            tag: msg.tag,
            words: msg.data.len() as u64,
        });
        msg.data
    }

    /// The telemetry phase slot for the innermost active phase, via the
    /// handle's one-entry cache: the common case (same phase as the last
    /// publish) is a single pointer compare; a miss resolves the label
    /// through the plane's registry once and re-primes the cache.
    #[inline]
    fn tele_slot(&self, h: &TelemetryHandle) -> usize {
        let label = self.phase.get();
        if label != h.cached_label.get() {
            h.cached_label.set(label);
            h.cached_slot.set(match label {
                // `None` → UNPHASED, which is always slot 0.
                None => 0,
                Some(name) => h.plane.phase_slot(name),
            });
        }
        h.cached_slot.get()
    }

    /// Stamps any alerts raised on the plane since this rank last looked
    /// into the rank's own log ([`CommEventKind::Alert`]). The
    /// steady-state cost — no new alerts — is one relaxed load.
    fn poll_alerts(&self, h: &TelemetryHandle) {
        let count = h.plane.alert_count();
        if count == h.seen_alerts.get() {
            return;
        }
        for alert in h.plane.alerts_since(h.seen_alerts.get()) {
            self.record(CommEventKind::Alert { id: alert.id });
        }
        h.seen_alerts.set(count);
    }

    /// Publishes the flight recorder's accumulated self-overhead as the
    /// `flight:overhead_ns` gauge — called by the universe after the
    /// rank's closure returns, so scrapes see the final figure.
    pub(crate) fn publish_flight_overhead(&self) {
        if let Some(h) = &self.telemetry {
            let slot = h.plane.gauge_slot(telemetry_keys::FLIGHT_OVERHEAD_NS);
            h.plane.rank_cell(self.rank).gauge_set(slot, self.log.borrow().overhead_ns());
        }
    }

    /// Simultaneous send to and receive from `partner` (the "sendrecv"
    /// exchange used by pairwise schedules).
    pub fn exchange(
        &self,
        partner: usize,
        tag: u64,
        data: Vec<f64>,
    ) -> Result<Vec<f64>, CommError> {
        self.send(partner, tag, data);
        self.recv(partner, tag)
    }

    /// Records participation in one synchronous communication round (for
    /// step-counted schedules, Theorem 7.2).
    pub fn count_round(&self) {
        // ordering: Relaxed — monotone round counter.
        self.counters.rank(self.rank).rounds.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;
    use std::time::Duration;

    #[test]
    fn exchange_swaps_payloads() {
        let (results, report) = Universe::new(2).run(|comm| {
            let partner = 1 - comm.rank();
            let got = comm.exchange(partner, 0, vec![comm.rank() as f64]).unwrap();
            got[0]
        });
        assert_eq!(results, vec![1.0, 0.0]);
        assert_eq!(report.per_rank[0].words_sent, 1);
        assert_eq!(report.per_rank[0].words_recv, 1);
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_panics() {
        Universe::new(1).run(|comm| comm.send(0, 0, vec![1.0]));
    }

    #[test]
    fn timeout_error_mentions_parties() {
        let universe = Universe::new(2).with_recv_timeout(Duration::from_millis(20));
        let (results, _) = universe.run(|comm| {
            if comm.rank() == 0 {
                format!("{}", comm.recv(1, 5).unwrap_err())
            } else {
                String::new()
            }
        });
        assert!(results[0].contains("rank 0"));
        assert!(results[0].contains("rank 1"));
        assert!(results[0].contains("tag 5"));
    }

    #[test]
    fn rounds_counter() {
        let (_, report) = Universe::new(3).run(|comm| {
            for _ in 0..comm.rank() {
                comm.count_round();
            }
        });
        assert_eq!(report.per_rank[2].rounds, 2);
        assert_eq!(report.max_rounds(), 2);
    }

    #[test]
    fn many_messages_in_flight() {
        // Unbounded links: a rank may send many messages before the peer
        // receives any.
        let (results, _) = Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..100u64 {
                    comm.send(1, i, vec![i as f64]);
                }
                0.0
            } else {
                // Drain in reverse order to exercise the mailbox heavily.
                let mut total = 0.0;
                for i in (0..100u64).rev() {
                    total += comm.recv(0, i).unwrap()[0];
                }
                total
            }
        });
        assert_eq!(results[1], 4950.0);
    }

    #[test]
    fn mailbox_preserves_arrival_order_for_same_src_tag() {
        // Four messages buffer in the mailbox while rank 0 claims tag 30
        // first; claiming tag 20 from the *front* of the mailbox must not
        // reorder the two remaining tag-10 messages (a swap-remove would
        // hand back 2.0 before 1.0). The pipelined serving path depends on
        // this: consecutive batches reuse the same (src, tag) pair.
        let (results, _) = Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                comm.send(0, 20, vec![9.0]);
                comm.send(0, 10, vec![1.0]);
                comm.send(0, 10, vec![2.0]);
                comm.send(0, 30, vec![7.0]);
                vec![]
            } else {
                let c = comm.recv(1, 30).unwrap(); // buffers 20, 10, 10
                let b = comm.recv(1, 20).unwrap(); // removes the front entry
                let first = comm.recv(1, 10).unwrap();
                let second = comm.recv(1, 10).unwrap();
                vec![c[0], b[0], first[0], second[0]]
            }
        });
        assert_eq!(results[0], vec![7.0, 9.0, 1.0, 2.0]);
    }

    #[test]
    fn only_the_awaited_message_wakes_a_parked_rank() {
        // Rank 0 parks on (1, 7). Ranks 2..5 send it tag 7 while it is
        // parked, then rank 1 does. The mailbox must queue the first four
        // silently and notify at most once, for rank 1's message.
        use std::sync::Barrier;
        let p = 5;
        let senders_done = Barrier::new(p - 1);
        let universe = Universe::new(p);
        let (results, _) = universe.run(|comm| {
            let inbox = &comm.mailboxes[0];
            let wait_until_parked = || {
                while inbox.parked_on() != Some((1, 7)) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            };
            match comm.rank() {
                0 => {
                    let got = comm.recv(1, 7).unwrap();
                    for src in 2..p {
                        assert_eq!(comm.recv(src, 7).unwrap(), vec![src as f64]);
                    }
                    (got, inbox.woken_by())
                }
                1 => {
                    senders_done.wait();
                    wait_until_parked();
                    comm.send(0, 7, vec![1.0]);
                    (vec![], vec![])
                }
                r => {
                    wait_until_parked();
                    comm.send(0, 7, vec![r as f64]);
                    senders_done.wait();
                    (vec![], vec![])
                }
            }
        });
        let (got, woken_by) = &results[0];
        assert_eq!(got, &vec![1.0]);
        assert!(woken_by.iter().all(|&src| src == 1), "woken by {woken_by:?}");
        assert!(woken_by.len() <= 1, "woken by {woken_by:?}");
    }

    #[test]
    fn a_panicking_peer_fails_a_parked_receiver_quickly() {
        use std::time::Instant;
        // The abort wakes a receiver parked on the panicking peer, so the
        // failure surfaces in milliseconds instead of the 60 s timeout —
        // the chaos suites rely on this to keep wall-clock down.
        let start = Instant::now();
        let universe = Universe::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            universe.run(|comm| {
                if comm.rank() == 1 {
                    panic!("deliberate failure");
                }
                assert!(matches!(comm.recv(1, 0), Err(crate::CommError::Disconnected { .. })));
            })
        }));
        assert!(outcome.is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn abort_wakes_a_parked_receiver_once() {
        // Rank 0 parks on (1, 7); rank 1 waits until it is parked, sleeps,
        // then panics. The abort alone must end rank 0's wait: it returns
        // once, with `Disconnected` naming rank 1, and nothing wakes it
        // while rank 1 sleeps.
        use crate::{AbortInfo, CommError};
        use std::sync::Mutex;
        let seen = Mutex::new(None);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Universe::new(2).run(|comm| {
                let inbox = &comm.mailboxes[0];
                if comm.rank() == 1 {
                    while inbox.parked_on() != Some((1, 7)) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(200));
                    panic!("deliberate failure");
                }
                let err = comm.recv(1, 7).unwrap_err();
                *seen.lock().unwrap() = Some((err, inbox.wakes()));
            })
        }));
        assert!(outcome.is_err(), "the rank panic must still propagate");
        let (err, wakes) = seen.into_inner().unwrap().expect("rank 0 returned from recv");
        assert!(
            matches!(
                err,
                CommError::Disconnected {
                    rank: 0,
                    from: 1,
                    tag: 7,
                    abort: Some(AbortInfo { rank: 1, .. })
                }
            ),
            "got {err:?}"
        );
        assert!(wakes <= 1, "the parked receive woke {wakes} times");
    }

    #[test]
    fn phases_nest_and_restore() {
        use crate::cost::CommEventKind;
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            assert_eq!(comm.current_phase(), None);
            comm.with_phase("outer", || {
                assert_eq!(comm.current_phase(), Some("outer"));
                comm.with_phase("inner", || {
                    assert_eq!(comm.current_phase(), Some("inner"));
                });
                assert_eq!(comm.current_phase(), Some("outer"));
                if comm.rank() == 0 {
                    comm.send(1, 9, vec![1.0, 2.0]);
                } else {
                    comm.recv(0, 9).unwrap();
                }
            });
            assert_eq!(comm.current_phase(), None);
        });
        // Each rank: enter(outer), enter(inner), exit(inner), send/recv
        // labelled "outer", exit(outer).
        for trace in &traces {
            let labels: Vec<_> = trace
                .iter()
                .map(|e| match e.kind {
                    CommEventKind::PhaseEnter { name, .. } => format!("+{name}"),
                    CommEventKind::PhaseExit { name, .. } => format!("-{name}"),
                    CommEventKind::Send { .. } => "send".to_string(),
                    CommEventKind::Recv { .. } => "recv".to_string(),
                    CommEventKind::Counter { key, .. } => format!("#{key}"),
                    CommEventKind::Fault { fault, .. } => format!("!{}", fault.label()),
                    CommEventKind::Alert { id } => format!("@{id}"),
                })
                .collect();
            assert_eq!(labels[..3], ["+outer", "+inner", "-inner"]);
            assert_eq!(labels[4], "-outer");
            let xfer = &trace[3];
            assert_eq!(xfer.phase, Some("outer"));
        }
    }

    #[test]
    fn round_annotation_attaches_to_events() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.annotate_round(4);
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0]);
            } else {
                comm.recv(0, 0).unwrap();
            }
            comm.clear_round();
        });
        for trace in &traces {
            assert_eq!(trace.len(), 1);
            assert_eq!(trace[0].round, Some(4));
        }
    }

    #[test]
    fn counters_attach_to_the_active_phase() {
        use crate::cost::CommEventKind;
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("compute:kernel", || {
                comm.annotate_counter("plan:arena_bytes", 4096);
            });
            comm.annotate_counter("loose", 1);
        });
        for trace in &traces {
            let samples: Vec<_> = trace
                .iter()
                .filter_map(|e| match e.kind {
                    CommEventKind::Counter { key, value } => Some((key, value, e.phase)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                samples,
                vec![("plan:arena_bytes", 4096, Some("compute:kernel")), ("loose", 1, None)]
            );
        }
        // Counters never touch the cost counters.
        let (_, report) = Universe::new(2).run(|comm| {
            comm.annotate_counter("plan:fresh_allocs", 7);
        });
        for cost in &report.per_rank {
            assert_eq!(cost.words_sent, 0);
            assert_eq!(cost.msgs_sent, 0);
        }
    }

    #[test]
    fn with_fallback_phase_defers_to_active_phase() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("algo", || {
                comm.with_fallback_phase("coll", || {
                    if comm.rank() == 0 {
                        comm.send(1, 0, vec![1.0]);
                    } else {
                        comm.recv(0, 0).unwrap();
                    }
                });
            });
        });
        for trace in &traces {
            let xfer = trace.iter().find(|e| e.words() > 0).unwrap();
            assert_eq!(xfer.phase, Some("algo"));
        }
    }
}
