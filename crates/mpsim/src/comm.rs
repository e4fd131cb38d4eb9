//! The per-rank communicator handle: point-to-point messaging with tags,
//! an out-of-order mailbox, cost counting, deadlock-surfacing timeouts and
//! (when enabled) timestamped event tracing with phase/round annotation.

use crate::cost::{CommEvent, CommEventKind, SharedCounters};
use crate::fault::{FaultPlan, FaultState, InjectedFault, SendAction};
use crate::flight::{FlightKind, FlightRecorder, FlightSnapshot};
use crate::sync::{AtomicBool, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use symtensor_telemetry::{keys as telemetry_keys, TelemetryPlane};

/// Default granularity at which a blocked [`Comm::recv`] re-checks the
/// universe's abort flag. A panicking peer therefore surfaces as
/// [`CommError::Disconnected`] within this bound (sub-100 ms) instead of
/// after the full receive timeout (60 s by default). Configurable per
/// universe via [`crate::Universe::with_poll_interval`] — chaos suites
/// drop it to ~2 ms so fail-fast paths cost milliseconds, not tens of
/// them.
pub(crate) const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(25);

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
/// tripped the universe's abort flag — attached to the
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

/// Shared abort state for one universe run: the fail-fast flag peers poll
/// from blocked receives, plus first-write-wins attribution of which rank
/// tripped it and where it was.
pub(crate) struct AbortState {
    flag: AtomicBool,
    info: Mutex<Option<AbortInfo>>,
}

impl AbortState {
    pub(crate) fn new() -> Self {
        AbortState { flag: AtomicBool::new(false), info: Mutex::new(None) }
    }

    /// Records `info` (first writer wins — concurrent panics keep the
    /// earliest attribution) and raises the flag.
    pub(crate) fn trip(&self, info: AbortInfo) {
        let mut slot = self.info.lock().unwrap();
        if slot.is_none() {
            *slot = Some(info);
        }
        // Verified by the `abort-flag` model in symtensor-check.
        // ordering: Release — publishes the info write above; pairs
        // with the Acquire load in `tripped`.
        self.flag.store(true, Ordering::Release);
    }

    pub(crate) fn tripped(&self) -> bool {
        // ordering: Acquire — pairs with `trip`'s Release store so an
        // observed flag implies the attribution is visible.
        self.flag.load(Ordering::Acquire)
    }

    pub(crate) fn info(&self) -> Option<AbortInfo> {
        *self.info.lock().unwrap()
    }
}

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
    /// The peer's channel is gone (its rank panicked).
    Disconnected {
        /// The waiting rank.
        rank: usize,
        /// Expected source rank.
        from: usize,
        /// Expected tag.
        tag: u64,
        /// Who tripped the abort flag and where, when known (the mpsc
        /// channel-disconnect path has no attribution).
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
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Messages received but not yet claimed by a matching `recv`.
    mailbox: RefCell<Vec<Msg>>,
    counters: SharedCounters,
    barrier: Arc<Barrier>,
    recv_timeout: Duration,
    /// Granularity at which blocked receives re-check the abort flag.
    poll_interval: Duration,
    /// Tripped by the universe when any rank panics; blocked receives poll
    /// it (at [`Comm::poll_interval`] granularity) so surviving ranks fail
    /// fast instead of waiting out the full timeout — surviving sender
    /// clones keep the mpsc channels alive, so the `Disconnected` state
    /// would otherwise never be observed. Carries the aborting rank's
    /// identity and last phase/round for error attribution.
    abort: Arc<AbortState>,
    /// Shared start instant of the universe — event timestamps are
    /// nanoseconds since this epoch.
    epoch: Instant,
    /// Innermost phase label currently active (see [`Comm::with_phase`]).
    phase: Cell<Option<&'static str>>,
    /// Schedule-round annotation currently active.
    round: Cell<Option<u64>>,
    /// Request-id annotation currently active (batched serving paths tag
    /// per-vector work so flight records are attributable to a request).
    request: Cell<Option<u64>>,
    /// Event log, populated only when the universe enables tracing.
    trace: Option<RefCell<Vec<CommEvent>>>,
    /// Always-on bounded flight recorder (capacity 0 disables).
    flight: RefCell<FlightRecorder>,
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
/// the flight ring.
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
        senders: Vec<Sender<Msg>>,
        receiver: Receiver<Msg>,
        counters: SharedCounters,
        barrier: Arc<Barrier>,
        recv_timeout: Duration,
        poll_interval: Duration,
        abort: Arc<AbortState>,
        epoch: Instant,
        tracing: bool,
        flight_capacity: usize,
        faults: Option<FaultPlan>,
        telemetry: Option<Arc<TelemetryPlane>>,
    ) -> Self {
        Comm {
            rank,
            senders,
            receiver,
            mailbox: RefCell::new(Vec::new()),
            counters,
            barrier,
            recv_timeout,
            poll_interval,
            abort,
            epoch,
            phase: Cell::new(None),
            round: Cell::new(None),
            request: Cell::new(None),
            trace: tracing.then(|| RefCell::new(Vec::new())),
            flight: RefCell::new(FlightRecorder::new(flight_capacity)),
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

    /// Whether event tracing is enabled for this run.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Crate-internal trace drain: the universe calls this exactly once
    /// per rank, after the rank's closure has returned, to collect the
    /// full event log for [`crate::Universe::run_traced`].
    pub(crate) fn drain_trace(&self) -> Vec<CommEvent> {
        self.trace.as_ref().map(|t| t.borrow_mut().split_off(0)).unwrap_or_default()
    }

    /// Nanoseconds since the universe epoch (monotonic).
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the universe epoch — the same clock every trace
    /// and flight record uses, exposed so serving layers can timestamp
    /// request spans on a comparable axis.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Appends one record to the always-on flight ring, charging the
    /// measured recording cost (one extra clock read) to the recorder's
    /// self-overhead counter. One branch and no clock read when the
    /// recorder is disabled.
    ///
    /// The overhead is measured as `Instant::elapsed` of a single
    /// monotonic anchor — non-negative by construction, so the recorder's
    /// self-tax (and the telemetry gauge fed from it) can never go
    /// negative on coarse clocks, unlike a difference of two epoch reads.
    #[inline]
    fn record_flight(&self, kind: FlightKind, peer: Option<usize>, words: u64) {
        let mut flight = self.flight.borrow_mut();
        if !flight.enabled() {
            return;
        }
        let anchor = Instant::now();
        // Saturating: `anchor` was read after `epoch`, but be explicit
        // that a record timestamp can never underflow.
        let t0 = anchor.saturating_duration_since(self.epoch).as_nanos() as u64;
        flight.record(
            t0,
            kind,
            self.phase.get(),
            self.round.get(),
            peer,
            words,
            self.request.get(),
        );
        flight.add_overhead(anchor.elapsed().as_nanos() as u64);
    }

    /// Drains (non-destructively decodes) this rank's flight ring.
    pub fn flight_snapshot(&self) -> FlightSnapshot {
        self.flight.borrow().snapshot(self.rank)
    }

    #[inline]
    fn record(&self, kind: CommEventKind) {
        // Tracing disabled ⇒ a single branch, no clock read, no allocation.
        if let Some(trace) = &self.trace {
            trace.borrow_mut().push(CommEvent {
                t_ns: self.now_ns(),
                phase: self.phase.get(),
                round: self.round.get(),
                kind,
            });
        }
    }

    /// Runs `f` inside a named phase. When tracing is enabled, a
    /// `PhaseEnter`/`PhaseExit` pair with counter snapshots brackets the
    /// call and every event recorded inside carries the phase label; when
    /// tracing is disabled this is two `Cell` stores. Phases nest — the
    /// innermost label wins for event attribution.
    pub fn with_phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let prev = self.phase.replace(Some(name));
        if self.trace.is_some() {
            let snapshot = self.counters.rank(self.rank).snapshot();
            self.record(CommEventKind::PhaseEnter { name, snapshot });
        }
        self.record_flight(FlightKind::PhaseEnter, None, 0);
        let result = f();
        if self.trace.is_some() {
            let snapshot = self.counters.rank(self.rank).snapshot();
            self.record(CommEventKind::PhaseExit { name, snapshot });
        }
        self.record_flight(FlightKind::PhaseExit, None, 0);
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

    /// Tags subsequently recorded flight events with a request id, so the
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
    /// event trace, attributed to the innermost active phase — e.g. the
    /// compiled-plan kernel's `plan:arena_bytes` / `plan:fresh_allocs`
    /// gauges. Free when tracing is disabled (one branch, no clock read,
    /// no allocation) — the zero-cost-tracing guarantee extends to
    /// counters.
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
        self.senders.len()
    }

    /// Records one injected fault in the trace and the flight ring, so a
    /// post-mortem can tell chaos apart from organic failures.
    fn record_fault(&self, fault: InjectedFault, peer: usize, words: u64) {
        self.record(CommEventKind::Fault { fault, peer, words });
        self.record_flight(FlightKind::Fault, Some(peer), words);
    }

    /// Trips the universe's shared abort flag, attributed to this rank at
    /// its current phase/round — the fail-fast signal. Every peer blocked
    /// in [`Comm::recv`] observes it within one abort-poll interval
    /// (sub-100 ms) and returns [`CommError::Disconnected`]. First caller
    /// wins the attribution; later trips are no-ops on the info slot.
    ///
    /// Collectives call this on their first receive failure so a deserted
    /// collective errors on *every* surviving rank instead of leaving the
    /// others to block out their own full timeouts.
    pub fn fail_fast(&self) {
        self.abort.trip(AbortInfo {
            rank: self.rank,
            phase: self.phase.get(),
            round: self.round.get(),
        });
    }

    /// Sends `data` to `dst` with a user `tag`. Non-blocking (links are
    /// unbounded); counts `data.len()` words and one message.
    ///
    /// Counters, trace and flight records are charged only for messages
    /// that actually enter the network: a send to a rank that has already
    /// exited (its receiver is gone) and a chaos-injected drop both leave
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
                    let _ = self.senders[dst].send(Msg {
                        src: self.rank,
                        tag,
                        data: data.clone(),
                        dup: true,
                    });
                }
                SendAction::Delay(delay) => {
                    self.record_fault(InjectedFault::Delay, dst, data.len() as u64);
                    std::thread::sleep(delay);
                }
            }
        }
        let words = data.len() as u64;
        // An Err means the destination already exited; the message never
        // entered the network, so it must not appear in the cost counters.
        if self.senders[dst].send(Msg { src: self.rank, tag, data, dup: false }).is_ok() {
            let counters = self.counters.rank(self.rank);
            // ordering: Relaxed — monotone single-writer cost counters.
            counters.words_sent.fetch_add(words, Ordering::Relaxed);
            counters.msgs_sent.fetch_add(1, Ordering::Relaxed);
            self.record(CommEventKind::Send { dst, tag, words });
            self.record_flight(FlightKind::Send, Some(dst), words);
            if let Some(h) = &self.telemetry {
                h.plane.rank_cell(self.rank).on_send(self.tele_slot(h), words);
                self.poll_alerts(h);
            }
        }
    }

    /// Receives the message from `src` carrying `tag`, buffering any other
    /// messages that arrive first. Errors after the configured timeout, or
    /// with [`CommError::Disconnected`] as soon as the universe's abort
    /// flag reports that a peer rank panicked (polled at the universe's
    /// poll interval while blocked, so a dead peer never costs the full
    /// timeout).
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
        let matches = |m: &Msg| m.src == src && m.tag == tag;
        // Claim the earliest buffered match. `Vec::remove` (not
        // `swap_remove`) is load-bearing: two messages with the same
        // `(src, tag)` — e.g. the pipelined serving path's back-to-back
        // gather batches — must be claimed in the order they arrived.
        let claimed = {
            let mut mailbox = self.mailbox.borrow_mut();
            mailbox.iter().position(matches).map(|pos| mailbox.remove(pos))
        };
        if let Some(msg) = claimed {
            return Ok(self.account_recv(msg));
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            if self.abort.tripped() {
                return Err(CommError::Disconnected {
                    rank: self.rank,
                    from: src,
                    tag,
                    abort: self.abort.info(),
                });
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CommError::Timeout { rank: self.rank, from: src, tag });
            }
            match self.receiver.recv_timeout(remaining.min(self.poll_interval)) {
                Ok(msg) => {
                    if msg.dup {
                        // Chaos-injected duplicate: the receiver-side dedup
                        // discards it before matching or accounting.
                        continue;
                    }
                    if matches(&msg) {
                        return Ok(self.account_recv(msg));
                    }
                    self.mailbox.borrow_mut().push(msg);
                }
                // Poll slice elapsed: loop to re-check abort and deadline.
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected {
                        rank: self.rank,
                        from: src,
                        tag,
                        abort: self.abort.info(),
                    });
                }
            }
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
        self.record_flight(FlightKind::Recv, Some(msg.src), msg.data.len() as u64);
        if let Some(h) = &self.telemetry {
            h.plane.rank_cell(self.rank).on_recv(self.tele_slot(h), msg.data.len() as u64);
            self.poll_alerts(h);
        }
        msg.data
    }

    /// Whether a live telemetry plane is attached to this run.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
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
    /// into the rank's own flight ring ([`FlightKind::Alert`], alert id in
    /// the word field). The steady-state cost — no new alerts — is one
    /// relaxed load.
    fn poll_alerts(&self, h: &TelemetryHandle) {
        let count = h.plane.alert_count();
        if count == h.seen_alerts.get() {
            return;
        }
        for alert in h.plane.alerts_since(h.seen_alerts.get()) {
            self.record_flight(FlightKind::Alert, None, alert.id);
        }
        h.seen_alerts.set(count);
    }

    /// Sets the named telemetry gauge on this rank's cell to `value`.
    /// No-op (one branch) when no plane is attached.
    #[inline]
    pub fn telemetry_gauge_set(&self, name: &'static str, value: u64) {
        if let Some(h) = &self.telemetry {
            let slot = h.plane.gauge_slot(name);
            h.plane.rank_cell(self.rank).gauge_set(slot, value);
        }
    }

    /// Records `value` into the named telemetry rolling histogram on this
    /// rank's cell. No-op (one branch) when no plane is attached.
    #[inline]
    pub fn telemetry_observe(&self, name: &'static str, value: u64) {
        if let Some(h) = &self.telemetry {
            let slot = h.plane.hist_slot(name);
            h.plane.rank_cell(self.rank).observe(slot, h.plane.now_ns(), value);
        }
    }

    /// Publishes the flight recorder's accumulated self-overhead as the
    /// `flight:overhead_ns` gauge — called by the universe after the
    /// rank's closure returns, so scrapes see the final figure.
    pub(crate) fn publish_flight_overhead(&self) {
        if let Some(h) = &self.telemetry {
            let slot = h.plane.gauge_slot(telemetry_keys::FLIGHT_OVERHEAD_NS);
            h.plane.rank_cell(self.rank).gauge_set(slot, self.flight.borrow().overhead_ns());
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

    /// Synchronizes all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
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
        let universe = Universe::new(2)
            .with_recv_timeout(Duration::from_millis(20))
            .with_poll_interval(Duration::from_millis(2));
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
    fn short_poll_interval_fails_fast_quickly() {
        use std::time::Instant;
        // With a 2 ms poll interval a panicking peer surfaces to blocked
        // receivers within a few milliseconds instead of the default 25 ms
        // granularity — the chaos suites rely on this to keep wall-clock
        // down.
        let start = Instant::now();
        let universe = Universe::new(2).with_poll_interval(Duration::from_millis(2));
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
        // Untraced, counters leave no trace and no cost.
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
