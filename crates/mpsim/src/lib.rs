#![warn(missing_docs)]
//! An in-process message-passing runtime implementing the α-β-γ (MPI) model
//! of parallel computation with **exact communication-cost accounting**.
//!
//! The paper analyzes distributed-memory algorithms in the MPI model: `P`
//! processors with private memories, connected by a fully connected network,
//! each able to send and receive one message at a time. Its results are
//! statements about the **bandwidth cost** — the number of words each
//! processor sends and receives — which is machine-independent. This crate
//! therefore substitutes a real cluster with an in-process simulator:
//!
//! * each rank is an OS thread; links are unbounded channels,
//! * every [`Comm::send`] / [`Comm::recv`] updates per-rank counters of
//!   words and messages moved,
//! * collectives ([`Comm::all_to_all_v`], [`Comm::all_gather`], …) are built
//!   from point-to-point operations using the standard algorithms cited by
//!   the paper (Thakur et al.), so their measured cost is what a real MPI
//!   run would charge,
//! * [`Universe::run`] returns both the per-rank results and a
//!   [`CostReport`] with the exact counts.
//!
//! Blocking receives carry a configurable timeout so that deadlocks
//! (mismatched schedules, missing sends) surface as errors instead of hangs.

pub mod collectives;
pub mod collectives_tree;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod flight;
pub mod matching;
pub(crate) mod sync;

pub use comm::{AbortInfo, Comm, CommError, Msg};
pub use cost::{CommEvent, CommEventKind, CostReport, RankCost};
pub use fault::{CrashSpec, FaultPlan, InjectedFault, XorShift64};
pub use flight::{
    FlightEvent, FlightKind, FlightOverhead, FlightRecorder, FlightSnapshot,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use matching::{match_messages, MatchReport, MessageMatch};

use comm::AbortState;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use symtensor_telemetry::TelemetryPlane;

/// Configuration and entry point for a simulated parallel machine.
#[derive(Clone, Debug)]
pub struct Universe {
    size: usize,
    recv_timeout: Duration,
    poll_interval: Duration,
    tracing: bool,
    flight_capacity: usize,
    faults: Option<FaultPlan>,
    telemetry: Option<Arc<TelemetryPlane>>,
}

impl Universe {
    /// A machine with `size` ranks, the default 60 s receive timeout and
    /// the always-on flight recorder at [`DEFAULT_FLIGHT_CAPACITY`].
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "need at least one rank");
        Universe {
            size,
            recv_timeout: Duration::from_secs(60),
            poll_interval: comm::DEFAULT_POLL_INTERVAL,
            tracing: false,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            faults: None,
            telemetry: None,
        }
    }

    /// Enables per-rank event tracing: every send/recv is recorded and
    /// collected at the end of the run by the traced entry points.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Overrides the receive timeout (use a short one in failure-injection
    /// tests so deadlocks surface quickly).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Overrides the abort-poll interval: how often a blocked receive
    /// re-checks the universe's fail-fast flag (default 25 ms). Chaos and
    /// fail-fast suites drop this to ~2 ms so an injected crash surfaces
    /// in milliseconds of wall-clock instead of tens of them.
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "poll interval must be non-zero");
        self.poll_interval = interval;
        self
    }

    /// Overrides the per-rank flight-recorder ring capacity (records, not
    /// bytes; 20 bytes each). `0` disables the recorder entirely — the
    /// recorder-off arm of overhead A/B measurements.
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// Installs a deterministic [`FaultPlan`] (symtensor-chaos): every rank
    /// consults it on send/recv to drop, delay or duplicate messages and to
    /// fire scheduled crashes. A plan that can inject nothing (all
    /// probabilities zero, no exact drops, no crash due this attempt) is
    /// observationally inert — counters, traces and flight windows are
    /// bit-identical to a universe without the plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a live telemetry plane: every rank publishes its send/recv
    /// word counts (per phase), gauges and rolling-window histograms into
    /// the plane's lock-free cells as it runs, so a concurrent
    /// [`symtensor_telemetry::Scraper`] can observe the run in flight. The
    /// plane must have at least as many rank cells as this universe has
    /// ranks. Without a plane, the cost is one branch per send/recv; the
    /// computed results and [`CostReport`] are bit-identical either way.
    ///
    /// # Panics
    /// Panics if the plane has fewer rank cells than this universe.
    pub fn with_telemetry(mut self, plane: Arc<TelemetryPlane>) -> Self {
        assert!(
            plane.ranks() >= self.size,
            "telemetry plane has {} rank cells, universe has {} ranks",
            plane.ranks(),
            self.size
        );
        self.telemetry = Some(plane);
        self
    }

    /// Number of ranks `P`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `f` on every rank concurrently and returns the per-rank results
    /// (indexed by rank) together with the communication-cost report.
    ///
    /// # Panics
    /// Propagates a panic from any rank.
    pub fn run<F, R>(&self, f: F) -> (Vec<R>, CostReport)
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let (outcomes, report) = self.run_inner(self.tracing, &f);
        let (results, _, _) = unwrap_outcomes(outcomes);
        (results, report)
    }

    /// Runs `f` on every rank with tracing forced **on** and returns, in
    /// addition to the results and cost report, each rank's complete event
    /// log (indexed by rank).
    ///
    /// The log is collected after every rank closure has returned, so it is
    /// complete and in recording order — rank code never observes or
    /// disturbs it mid-run.
    ///
    /// # Panics
    /// Propagates a panic from any rank.
    pub fn run_traced<F, R>(&self, f: F) -> (Vec<R>, CostReport, Vec<Vec<CommEvent>>)
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let (outcomes, report) = self.run_inner(true, &f);
        let (results, traces, _) = unwrap_outcomes(outcomes);
        (results, report, traces)
    }

    /// Like [`Universe::run`] but additionally returns every rank's
    /// decoded flight-recorder window (indexed by rank).
    ///
    /// # Panics
    /// Propagates a panic from any rank.
    pub fn run_flight<F, R>(&self, f: F) -> (Vec<R>, CostReport, Vec<FlightSnapshot>)
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let (outcomes, report) = self.run_inner(self.tracing, &f);
        let (results, _, flight) = unwrap_outcomes(outcomes);
        (results, report, flight)
    }

    /// [`Universe::run_traced`] plus the per-rank flight snapshots.
    ///
    /// # Panics
    /// Propagates a panic from any rank.
    pub fn run_traced_flight<F, R>(
        &self,
        f: F,
    ) -> (Vec<R>, CostReport, Vec<Vec<CommEvent>>, Vec<FlightSnapshot>)
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let (outcomes, report) = self.run_inner(true, &f);
        let (results, traces, flight) = unwrap_outcomes(outcomes);
        (results, report, traces, flight)
    }

    /// Runs `f` on every rank with tracing forced on, and converts a rank
    /// panic into a structured [`RankFailure`] instead of propagating it:
    /// the post-mortem path. The failure carries the aborting rank's
    /// identity, its last phase/round annotation, the panic message, the
    /// cost report accumulated up to the abort, and **every** rank's event
    /// log and flight-recorder window — the raw material for a crash dump.
    #[allow(clippy::type_complexity)]
    pub fn try_run_traced<F, R>(
        &self,
        f: F,
    ) -> Result<(Vec<R>, CostReport, Vec<Vec<CommEvent>>, Vec<FlightSnapshot>), Box<RankFailure>>
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let (outcomes, report) = self.run_inner(true, &f);
        let failed = outcomes.iter().position(|o| o.result.is_err());
        let Some(first_failed) = failed else {
            let (results, traces, flight) = unwrap_outcomes(outcomes);
            return Ok((results, report, traces, flight));
        };
        // Root-cause attribution: the abort state records the first rank
        // whose panic tripped the flag; fall back to the lowest failed
        // rank if it is somehow unset.
        let attribution = outcomes[first_failed].abort_info.or_else(|| {
            outcomes
                .iter()
                .find_map(|o| o.abort_info)
                .filter(|info| outcomes[info.rank].result.is_err())
        });
        let (rank, phase, round) = match attribution {
            Some(info) if outcomes[info.rank].result.is_err() => {
                (info.rank, info.phase, info.round)
            }
            _ => (first_failed, None, None),
        };
        let message = match &outcomes[rank].result {
            Err(payload) => panic_message(payload.as_ref()),
            Ok(_) => unreachable!("attributed rank must have failed"),
        };
        let mut traces = Vec::with_capacity(outcomes.len());
        let mut flight = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            traces.push(o.trace);
            flight.push(o.flight);
        }
        Err(Box::new(RankFailure { rank, phase, round, message, report, traces, flight }))
    }

    fn run_inner<F, R>(&self, tracing: bool, f: &F) -> (Vec<RankOutcome<R>>, CostReport)
    where
        F: Fn(&Comm) -> R + Sync,
        R: Send,
    {
        let p = self.size;
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(p);
        let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let counters = cost::SharedCounters::new(p);
        let barrier = Arc::new(Barrier::new(p));
        // Shared panic state: a rank that panics trips it (with its
        // identity and last phase/round annotation, first writer wins) so
        // that peers blocked in `recv` fail fast with an attributed
        // `CommError::Disconnected` instead of waiting out the full receive
        // timeout (the surviving sender clones keep every channel alive, so
        // the mpsc disconnect state alone never fires).
        let abort = Arc::new(AbortState::new());
        // One epoch shared by all ranks so per-rank timestamps are mutually
        // comparable in the merged trace.
        let epoch = Instant::now();
        let flight_capacity = self.flight_capacity;

        let outcomes: Vec<RankOutcome<R>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, rx_slot) in receivers.iter_mut().enumerate() {
                let rx = rx_slot.take().unwrap();
                let senders = senders.clone();
                let counters = counters.clone();
                let barrier = barrier.clone();
                let abort = abort.clone();
                let timeout = self.recv_timeout;
                let poll_interval = self.poll_interval;
                let faults = self.faults.clone();
                let telemetry = self.telemetry.clone();
                handles.push(scope.spawn(move || {
                    let comm = Comm::new(
                        rank,
                        senders,
                        rx,
                        counters,
                        barrier,
                        timeout,
                        poll_interval,
                        abort.clone(),
                        epoch,
                        tracing,
                        flight_capacity,
                        faults,
                        telemetry,
                    );
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm)));
                    if result.is_err() {
                        // `with_phase` restores the previous label only on
                        // normal return, so the cells still hold the
                        // innermost phase/round at the panic site.
                        abort.trip(AbortInfo {
                            rank,
                            phase: comm.current_phase(),
                            round: comm.current_round(),
                        });
                    }
                    // Final live-metrics flush: the recorder's self-tax is
                    // only known once the closure is done.
                    comm.publish_flight_overhead();
                    // Drain telemetry even from a failed rank — the crash
                    // dump needs its final window most of all.
                    RankOutcome {
                        result,
                        trace: comm.drain_trace(),
                        flight: comm.flight_snapshot(),
                        abort_info: abort.info(),
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread cannot panic outside catch_unwind"))
                .collect()
        });

        (outcomes, counters.report())
    }
}

/// Everything one rank thread hands back to the universe: its closure
/// outcome (panic payload preserved), telemetry, and the abort attribution
/// it observed at exit.
struct RankOutcome<R> {
    result: Result<R, Box<dyn std::any::Any + Send + 'static>>,
    trace: Vec<CommEvent>,
    flight: FlightSnapshot,
    abort_info: Option<AbortInfo>,
}

/// Unwraps per-rank outcomes, resuming the root-cause panic if any rank
/// failed (the rank named by the abort attribution when available, so the
/// panic the caller observes is the one that started the cascade).
fn unwrap_outcomes<R>(
    outcomes: Vec<RankOutcome<R>>,
) -> (Vec<R>, Vec<Vec<CommEvent>>, Vec<FlightSnapshot>) {
    if outcomes.iter().any(|o| o.result.is_err()) {
        let root = outcomes
            .iter()
            .find_map(|o| o.abort_info)
            .map(|info| info.rank)
            .filter(|&r| outcomes[r].result.is_err())
            .unwrap_or_else(|| outcomes.iter().position(|o| o.result.is_err()).unwrap());
        let payload = match outcomes.into_iter().nth(root).unwrap().result {
            Err(payload) => payload,
            Ok(_) => unreachable!("root rank was checked to have failed"),
        };
        std::panic::resume_unwind(payload);
    }
    let mut results = Vec::with_capacity(outcomes.len());
    let mut traces = Vec::with_capacity(outcomes.len());
    let mut flight = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        results.push(o.result.unwrap_or_else(|_| unreachable!()));
        traces.push(o.trace);
        flight.push(o.flight);
    }
    (results, traces, flight)
}

/// Best-effort extraction of a human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A structured rank failure produced by [`Universe::try_run_traced`]: the
/// aborting rank, where it was (last phase/round annotation), what it said,
/// and the full telemetry of **all** ranks up to the abort — everything a
/// post-mortem dump needs.
#[derive(Debug)]
pub struct RankFailure {
    /// The rank whose panic tripped the abort flag.
    pub rank: usize,
    /// Its innermost phase at the panic site.
    pub phase: Option<&'static str>,
    /// Its last schedule-round annotation.
    pub round: Option<u64>,
    /// The panic message.
    pub message: String,
    /// Cost counters accumulated up to the abort.
    pub report: CostReport,
    /// Per-rank event logs (tracing is forced on).
    pub traces: Vec<Vec<CommEvent>>,
    /// Per-rank flight-recorder windows, failed rank included.
    pub flight: Vec<FlightSnapshot>,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked", self.rank)?;
        if let Some(phase) = self.phase {
            write!(f, " in phase {phase}")?;
        }
        if let Some(round) = self.round {
            write!(f, ", round {round}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for RankFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let (results, report) = Universe::new(1).run(|comm| comm.rank() * 10 + comm.size());
        assert_eq!(results, vec![1]);
        assert_eq!(report.total_words_sent(), 0);
    }

    #[test]
    fn ring_pass_counts_words() {
        let p = 4;
        let (results, report) = Universe::new(p).run(|comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            comm.send(next, 7, vec![comm.rank() as f64; 3]);
            let got = comm.recv(prev, 7).unwrap();
            got[0] as usize
        });
        for (rank, &got) in results.iter().enumerate() {
            assert_eq!(got, (rank + p - 1) % p);
        }
        for rank in 0..p {
            assert_eq!(report.per_rank[rank].words_sent, 3);
            assert_eq!(report.per_rank[rank].words_recv, 3);
            assert_eq!(report.per_rank[rank].msgs_sent, 1);
            assert_eq!(report.per_rank[rank].msgs_recv, 1);
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let (results, _) = Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive in reverse tag order; the mailbox must buffer.
                let b = comm.recv(0, 2).unwrap();
                let a = comm.recv(0, 1).unwrap();
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn missing_send_times_out_instead_of_hanging() {
        let universe = Universe::new(2)
            .with_recv_timeout(Duration::from_millis(50))
            .with_poll_interval(Duration::from_millis(2));
        let (results, _) =
            universe.run(|comm| if comm.rank() == 1 { comm.recv(0, 99).is_err() } else { true });
        assert!(results[1], "recv with no matching send must time out");
    }

    #[test]
    fn panicking_rank_fails_peers_fast() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Rank 1 panics immediately; ranks 0 and 2 block in `recv` on it.
        // Without the abort flag the peers would sit out the full 60 s
        // default timeout (their sender clones keep the channels alive);
        // with it they observe `Disconnected` within the poll granularity.
        let start = Instant::now();
        let disconnected = Arc::new(AtomicUsize::new(0));
        let disconnected_in = disconnected.clone();
        let universe = Universe::new(3); // default 60 s timeout on purpose
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            universe.run(|comm| {
                if comm.rank() == 1 {
                    panic!("deliberate rank failure");
                }
                match comm.recv(1, 7) {
                    Err(CommError::Disconnected { rank, from, tag, abort }) => {
                        assert_eq!(rank, comm.rank());
                        assert_eq!(from, 1);
                        assert_eq!(tag, 7);
                        assert_eq!(abort.map(|a| a.rank), Some(1), "abort must name rank 1");
                        disconnected_in.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("expected Disconnected, got {other:?}"),
                }
            })
        }));
        assert!(outcome.is_err(), "the rank panic must still propagate");
        assert_eq!(disconnected.load(Ordering::SeqCst), 2, "both peers must fail fast");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "peers must not wait out the 60 s receive timeout (took {:?})",
            start.elapsed()
        );
    }

    #[test]
    fn disconnect_error_names_the_aborting_rank_phase_and_round() {
        // Rank 1 panics inside `with_phase("gather-x")` with round 3
        // annotated; rank 0's Disconnected error must say so in Display.
        let universe = Universe::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            universe.run(|comm| {
                if comm.rank() == 1 {
                    comm.with_phase("gather-x", || {
                        comm.annotate_round(3);
                        panic!("injected failure");
                    })
                } else {
                    let err = comm.recv(1, 0).unwrap_err();
                    let text = format!("{err}");
                    assert!(text.contains("rank 1 aborted"), "got: {text}");
                    assert!(text.contains("phase gather-x"), "got: {text}");
                    assert!(text.contains("round 3"), "got: {text}");
                }
            })
        }));
        assert!(outcome.is_err(), "the panic must still propagate from run()");
    }

    #[test]
    fn try_run_traced_converts_a_panic_into_an_attributed_failure() {
        let universe = Universe::new(3);
        let failure = universe
            .try_run_traced(|comm| {
                if comm.rank() == 2 {
                    comm.with_phase("reduce-y", || {
                        comm.send(0, 1, vec![1.0; 4]);
                        panic!("mid-exchange failure");
                    });
                }
                let _ = comm.recv(2, 1);
                comm.rank()
            })
            .unwrap_err();
        assert_eq!(failure.rank, 2);
        assert_eq!(failure.phase, Some("reduce-y"));
        assert!(failure.message.contains("mid-exchange failure"));
        assert_eq!(failure.traces.len(), 3, "every rank's trace is drained");
        assert_eq!(failure.flight.len(), 3, "every rank's flight ring is drained");
        // The failing rank's send made it into counters, trace and flight.
        assert_eq!(failure.report.per_rank[2].words_sent, 4);
        assert_eq!(failure.flight[2].words_sent(), 4);
        let text = format!("{failure}");
        assert!(text.contains("rank 2") && text.contains("reduce-y"), "got: {text}");
    }

    #[test]
    fn try_run_traced_returns_ok_on_a_clean_run() {
        let (results, report, traces, flight) = Universe::new(2)
            .try_run_traced(|comm| {
                let partner = 1 - comm.rank();
                comm.with_phase("swap", || comm.exchange(partner, 0, vec![0.5; 3]).unwrap());
                comm.rank()
            })
            .unwrap();
        assert_eq!(results, vec![0, 1]);
        assert_eq!(report.total_words_sent(), 6);
        assert_eq!(traces.len(), 2);
        assert_eq!(flight.len(), 2);
        for snap in &flight {
            assert_eq!(snap.words_sent(), 3);
            assert_eq!(snap.words_recv(), 3);
        }
    }

    #[test]
    fn flight_recorder_is_always_on_and_capacity_zero_disables_it() {
        let body = |comm: &Comm| {
            comm.with_phase("swap", || {
                let partner = 1 - comm.rank();
                comm.exchange(partner, 0, vec![1.0, 2.0]).unwrap();
            });
        };
        // Default universe: untraced run still records flight events.
        let (_, _, flight) = Universe::new(2).run_flight(body);
        for snap in &flight {
            // PhaseEnter, Send, Recv, PhaseExit.
            assert_eq!(snap.events.len(), 4);
            assert_eq!(snap.overhead.capacity, DEFAULT_FLIGHT_CAPACITY);
            assert!(snap.overhead.recorded == 4 && snap.overhead.dropped == 0);
            let send = snap.events.iter().find(|e| e.kind == FlightKind::Send).unwrap();
            assert_eq!(send.phase, Some("swap"));
            assert_eq!(send.peer, Some(1 - snap.rank));
            assert_eq!(send.words, 2);
            let times: Vec<u64> = snap.events.iter().map(|e| e.t_ns).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {times:?}");
        }
        // Capacity 0: recorder fully disabled.
        let (_, _, flight) = Universe::new(2).with_flight_capacity(0).run_flight(body);
        for snap in &flight {
            assert!(snap.events.is_empty());
            assert_eq!(snap.overhead.recorded, 0);
        }
    }

    #[test]
    fn request_annotation_tags_flight_events() {
        let (_, _, flight) = Universe::new(2).run_flight(|comm| {
            let partner = 1 - comm.rank();
            comm.annotate_request(7);
            comm.send(partner, 0, vec![1.0]);
            comm.clear_request();
            assert_eq!(comm.current_request(), None);
            comm.recv(partner, 0).unwrap();
        });
        for snap in &flight {
            let send = snap.events.iter().find(|e| e.kind == FlightKind::Send).unwrap();
            assert_eq!(send.request, Some(7));
            let recv = snap.events.iter().find(|e| e.kind == FlightKind::Recv).unwrap();
            assert_eq!(recv.request, None, "recv happened after clear_request");
        }
    }

    #[test]
    fn run_traced_event_shapes_are_deterministic_across_runs() {
        // Two independent traced runs of the same workload must report the
        // same event shapes (kinds, phases, rounds — timestamps differ
        // across runs). This replaces the retired destructive-vs-collected
        // comparison for the removed mid-run `take_trace` drain: the traced
        // runners are now the only way to observe the log, so shape
        // determinism is the property that matters.
        let workload = |comm: &Comm| {
            comm.with_phase("swap", || {
                comm.annotate_round(2);
                let partner = 1 - comm.rank();
                comm.exchange(partner, 3, vec![1.0, 2.0]).unwrap();
                comm.clear_round();
            });
        };
        let shape = |events: &[CommEvent]| -> Vec<(String, Option<&'static str>, Option<u64>)> {
            events
                .iter()
                .map(|e| {
                    let kind = match e.kind {
                        CommEventKind::PhaseEnter { name, .. } => format!("+{name}"),
                        CommEventKind::PhaseExit { name, .. } => format!("-{name}"),
                        CommEventKind::Send { dst, tag, words } => {
                            format!("send:{dst}:{tag}:{words}")
                        }
                        CommEventKind::Recv { src, tag, words } => {
                            format!("recv:{src}:{tag}:{words}")
                        }
                        CommEventKind::Counter { key, value } => format!("#{key}={value}"),
                        CommEventKind::Fault { fault, .. } => format!("!{}", fault.label()),
                    };
                    (kind, e.phase, e.round)
                })
                .collect()
        };
        let (_, _, first) = Universe::new(2).run_traced(workload);
        let (_, _, second) = Universe::new(2).run_traced(workload);
        for rank in 0..2 {
            assert!(!first[rank].is_empty(), "rank {rank}: traced run must record events");
            assert_eq!(
                shape(&first[rank]),
                shape(&second[rank]),
                "rank {rank}: traced runs of the same workload must agree in shape"
            );
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let p = 8;
        Universe::new(p).run(|comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), p);
        });
    }
}
