//! Flight-recorder export and post-mortem crash dumps.
//!
//! Three consumers of the per-rank ring buffers
//! ([`symtensor_mpsim::FlightSnapshot`]):
//!
//! * [`flight_json`] — the obs-JSON form of a clean run's final window
//!   (`symtensor-flight-v1`), including each recorder's self-overhead;
//! * [`chrome_from_flight`] — a Perfetto-loadable Chrome trace rebuilt
//!   purely from flight records (phase `X` spans from enter/exit pairing,
//!   send/recv instants), with the failing rank's track highlighted;
//! * [`postmortem_json`] — the crash dump (`symtensor-postmortem-v1`)
//!   assembled from a [`RankFailure`]: who failed, where (last
//!   phase/round), the panic message, every rank's final window, the cost
//!   counters up to the abort, and an embedded Chrome trace.
//!
//! [`reconcile_postmortem`] closes the loop the acceptance criteria ask
//! for: each surviving rank's recorded flight words must agree with the
//! trace-derived comm matrix *and* the hot-path counters up to the abort
//! point (exact only for ranks whose rings did not wrap).

use crate::json::Value;
use crate::matrix::CommMatrix;
use symtensor_mpsim::cost::CommEventKind;
use symtensor_mpsim::{FlightEvent, FlightKind, FlightSnapshot, RankFailure};

/// Process id used for all ranks (matches [`crate::chrome`]).
const PID: u64 = 1;

fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1_000.0
}

fn kind_str(kind: FlightKind) -> &'static str {
    match kind {
        FlightKind::Send => "send",
        FlightKind::Recv => "recv",
        FlightKind::PhaseEnter => "phase_enter",
        FlightKind::PhaseExit => "phase_exit",
        FlightKind::Fault => "fault",
        FlightKind::Alert => "alert",
    }
}

fn event_json(e: &FlightEvent) -> Value {
    let mut v = Value::object().with("t_ns", e.t_ns).with("kind", kind_str(e.kind));
    if let Some(phase) = e.phase {
        v.set("phase", phase);
    }
    if let Some(round) = e.round {
        v.set("round", round);
    }
    if let Some(peer) = e.peer {
        v.set("peer", peer);
    }
    if matches!(e.kind, FlightKind::Send | FlightKind::Recv | FlightKind::Fault) {
        v.set("words", e.words);
    }
    // An alert record carries the alert id in the packed word field.
    if e.kind == FlightKind::Alert {
        v.set("alert", e.words);
    }
    if let Some(request) = e.request {
        v.set("request", request);
    }
    if e.saturated {
        v.set("saturated", true);
    }
    v
}

fn overhead_json(snap: &FlightSnapshot) -> Value {
    Value::object()
        .with("capacity", snap.overhead.capacity)
        .with("recorded", snap.overhead.recorded)
        .with("dropped", snap.overhead.dropped)
        .with("saturated_deltas", snap.overhead.saturated_deltas)
        .with("overhead_ns", snap.overhead.overhead_ns)
}

fn rank_json(snap: &FlightSnapshot, failed: Option<usize>) -> Value {
    Value::object()
        .with("rank", snap.rank)
        .with("failed", failed == Some(snap.rank))
        .with("words_sent", snap.words_sent())
        .with("words_recv", snap.words_recv())
        .with("overhead", overhead_json(snap))
        .with("events", Value::Array(snap.events.iter().map(event_json).collect()))
}

/// The obs-JSON document for a set of per-rank flight windows
/// (`symtensor-flight-v1`).
pub fn flight_json(snapshots: &[FlightSnapshot]) -> Value {
    Value::object()
        .with("version", "symtensor-flight-v1")
        .with("ranks", Value::Array(snapshots.iter().map(|s| rank_json(s, None)).collect()))
}

/// Rebuilds a Chrome trace purely from flight records: `X` phase spans
/// from enter/exit pairing (spans still open at the end of the window —
/// e.g. the phase a rank panicked in — are closed at the window's last
/// timestamp and flagged `unterminated`), and send/recv instants. When
/// `failing` names a rank, its track is renamed `rank N [FAILED]` and a
/// `panic` instant is placed at its last recorded timestamp.
pub fn chrome_from_flight(snapshots: &[FlightSnapshot], failing: Option<usize>) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for snap in snapshots {
        let name = if failing == Some(snap.rank) {
            format!("rank {} [FAILED]", snap.rank)
        } else {
            format!("rank {}", snap.rank)
        };
        events.push(
            Value::object()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", PID)
                .with("tid", snap.rank)
                .with("args", Value::object().with("name", name)),
        );
        let window_end = snap.events.last().map_or(0, |e| e.t_ns);
        // Pair phase enters/exits into complete spans; a panic leaves the
        // enclosing phases unterminated, which is precisely the signal a
        // post-mortem reader needs.
        let mut stack: Vec<(Option<&'static str>, u64)> = Vec::new();
        fn push_span(
            events: &mut Vec<Value>,
            tid: usize,
            phase: Option<&'static str>,
            start: u64,
            end: u64,
            open: bool,
        ) {
            let mut args = Value::object();
            if open {
                args.set("unterminated", true);
            }
            events.push(
                Value::object()
                    .with("name", phase.unwrap_or("<unlabelled>"))
                    .with("cat", "phase")
                    .with("ph", "X")
                    .with("pid", PID)
                    .with("tid", tid)
                    .with("ts", us(start))
                    .with("dur", us(end.saturating_sub(start)))
                    .with("args", args),
            );
        }
        for e in &snap.events {
            match e.kind {
                FlightKind::PhaseEnter => stack.push((e.phase, e.t_ns)),
                FlightKind::PhaseExit => {
                    // The ring may have evicted the matching enter; only
                    // pop when one is present.
                    if let Some((phase, start)) = stack.pop() {
                        push_span(&mut events, snap.rank, phase, start, e.t_ns, false);
                    }
                }
                FlightKind::Send | FlightKind::Recv | FlightKind::Fault | FlightKind::Alert => {
                    let mut args = Value::object();
                    if let Some(peer) = e.peer {
                        args.set("peer", peer);
                    }
                    args.set("words", e.words);
                    if let Some(round) = e.round {
                        args.set("round", round);
                    }
                    if let Some(request) = e.request {
                        args.set("request", request);
                    }
                    // Injected faults and SLO alerts get their own
                    // categories so a post-mortem reader can separate
                    // chaos and burning SLOs from organic traffic at a
                    // glance.
                    let cat = match e.kind {
                        FlightKind::Fault => "fault",
                        FlightKind::Alert => "alert",
                        _ => "comm",
                    };
                    events.push(
                        Value::object()
                            .with("name", kind_str(e.kind))
                            .with("cat", cat)
                            .with("ph", "i")
                            .with("s", "t")
                            .with("pid", PID)
                            .with("tid", snap.rank)
                            .with("ts", us(e.t_ns))
                            .with("args", args),
                    );
                }
            }
        }
        while let Some((phase, start)) = stack.pop() {
            push_span(&mut events, snap.rank, phase, start, window_end, true);
        }
        if failing == Some(snap.rank) {
            events.push(
                Value::object()
                    .with("name", "panic")
                    .with("cat", "abort")
                    .with("ph", "i")
                    .with("s", "t")
                    .with("pid", PID)
                    .with("tid", snap.rank)
                    .with("ts", us(window_end))
                    .with("args", Value::object()),
            );
        }
    }
    // Metadata first, then chronological — same convention as
    // `crate::chrome`, so consumers can share a parser.
    events.sort_by(|a, b| {
        let key = |e: &Value| match e.get("ph").and_then(Value::as_str) {
            Some("M") => (0u8, 0.0f64),
            _ => (1, e.get("ts").and_then(Value::as_f64).unwrap_or(0.0)),
        };
        let (ka, kb) = (key(a), key(b));
        ka.0.cmp(&kb.0).then(ka.1.partial_cmp(&kb.1).unwrap_or(std::cmp::Ordering::Equal))
    });
    Value::object().with("traceEvents", Value::Array(events)).with("displayTimeUnit", "ns")
}

/// Assembles the post-mortem crash dump (`symtensor-postmortem-v1`) from a
/// structured rank failure: attribution, per-rank cost counters up to the
/// abort, every rank's flight window, and an embedded Chrome trace of the
/// final window with the failing rank highlighted.
pub fn postmortem_json(failure: &RankFailure) -> Value {
    let per_rank = Value::Array(
        failure
            .report
            .per_rank
            .iter()
            .enumerate()
            .map(|(rank, c)| {
                Value::object()
                    .with("rank", rank)
                    .with("words_sent", c.words_sent)
                    .with("words_recv", c.words_recv)
                    .with("msgs_sent", c.msgs_sent)
                    .with("msgs_recv", c.msgs_recv)
                    .with("rounds", c.rounds)
            })
            .collect(),
    );
    Value::object()
        .with("version", "symtensor-postmortem-v1")
        .with("failing_rank", failure.rank)
        .with("phase", failure.phase.map(Value::from).unwrap_or(Value::Null))
        .with("round", failure.round.map(Value::from).unwrap_or(Value::Null))
        .with("message", failure.message.as_str())
        .with("report", Value::object().with("per_rank", per_rank))
        .with(
            "ranks",
            Value::Array(failure.flight.iter().map(|s| rank_json(s, Some(failure.rank))).collect()),
        )
        .with("chrome", chrome_from_flight(&failure.flight, Some(failure.rank)))
}

/// Checks that each rank's flight-recorded traffic reconciles with the
/// trace-derived comm matrices and the hot-path cost counters, up to the
/// abort point.
///
/// An aborted run breaks the clean-run invariant that every send is
/// eventually received ([`CommMatrix::from_traces`] counts sends only), so
/// two matrices are reconciled independently: the send matrix's row
/// marginals against `words_sent`, and a receive matrix (built from `Recv`
/// events) column marginals against `words_recv` — both hold even mid-
/// abort because counters and trace records are written at the same call
/// sites. Then, for every rank whose ring did **not** wrap
/// (`dropped == 0`), the flight-recorded send/recv word sums must equal
/// those same marginals; ranks with evicted records are skipped — their
/// window is partial by design and says so in its overhead counters.
pub fn reconcile_postmortem(failure: &RankFailure) -> Result<(), String> {
    let send_matrix = CommMatrix::from_traces(&failure.traces);
    let mut recv_matrix = CommMatrix::new(failure.traces.len());
    for (dst, events) in failure.traces.iter().enumerate() {
        for event in events {
            if let CommEventKind::Recv { src, words, .. } = event.kind {
                recv_matrix.add(src, dst, words);
            }
        }
    }
    // No link can deliver more than was sent on it — injected duplicates
    // are deduplicated before accounting and injected drops never charge
    // the sender, so this holds even for chaos-injected aborted runs.
    let p = failure.traces.len();
    for src in 0..p {
        for dst in 0..p {
            if recv_matrix.words(src, dst) > send_matrix.words(src, dst) {
                return Err(format!(
                    "link {src}->{dst}: {} words received but only {} sent",
                    recv_matrix.words(src, dst),
                    send_matrix.words(src, dst)
                ));
            }
        }
    }
    for (rank, cost) in failure.report.per_rank.iter().enumerate() {
        if send_matrix.row_words(rank) != cost.words_sent {
            return Err(format!(
                "rank {rank}: trace says {} words sent but counters say {}",
                send_matrix.row_words(rank),
                cost.words_sent
            ));
        }
        if recv_matrix.col_words(rank) != cost.words_recv {
            return Err(format!(
                "rank {rank}: trace says {} words received but counters say {}",
                recv_matrix.col_words(rank),
                cost.words_recv
            ));
        }
    }
    for snap in &failure.flight {
        if snap.overhead.dropped > 0 {
            continue;
        }
        let checks = [
            ("words_sent", snap.words_sent(), send_matrix.row_words(snap.rank)),
            ("words_recv", snap.words_recv(), recv_matrix.col_words(snap.rank)),
        ];
        for (what, from_flight, from_matrix) in checks {
            if from_flight != from_matrix {
                return Err(format!(
                    "rank {}: flight {what} = {from_flight} but comm matrix says {from_matrix}",
                    snap.rank
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use symtensor_mpsim::Universe;

    fn crash_run() -> Box<RankFailure> {
        Universe::new(3)
            .try_run_traced(|comm| {
                comm.with_phase("gather-x", || {
                    comm.annotate_round(2);
                    let next = (comm.rank() + 1) % 3;
                    comm.send(next, 0, vec![1.0; 6]);
                    // No rank may exit before every send has reached a live
                    // mailbox: a send to an exited rank is not charged, and
                    // the reconciliation below counts every send.
                    comm.barrier();
                    let prev = (comm.rank() + 2) % 3;
                    let _ = comm.recv(prev, 0);
                    if comm.rank() == 1 {
                        panic!("injected mid-exchange failure");
                    }
                    comm.clear_round();
                });
            })
            .unwrap_err()
    }

    #[test]
    fn flight_json_has_version_and_per_rank_windows() {
        let (_, _, flight) = Universe::new(2).run_flight(|comm| {
            comm.with_phase("swap", || {
                comm.exchange(1 - comm.rank(), 0, vec![0.0; 3]).unwrap();
            });
        });
        let doc = flight_json(&flight);
        assert_eq!(doc.get("version").unwrap().as_str(), Some("symtensor-flight-v1"));
        let ranks = doc.get("ranks").unwrap().as_array().unwrap();
        assert_eq!(ranks.len(), 2);
        for r in ranks {
            assert_eq!(r.get("words_sent").unwrap().as_u64(), Some(3));
            assert!(r.get("overhead").unwrap().get("recorded").unwrap().as_u64().unwrap() >= 4);
            assert!(!r.get("events").unwrap().as_array().unwrap().is_empty());
        }
        // The document round-trips through the parser.
        assert!(json::parse(&doc.to_string_pretty()).is_ok());
    }

    #[test]
    fn postmortem_names_the_failure_and_embeds_a_valid_chrome_trace() {
        let failure = crash_run();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.phase, Some("gather-x"));
        assert_eq!(failure.round, Some(2));
        let dump = postmortem_json(&failure);
        assert_eq!(dump.get("version").unwrap().as_str(), Some("symtensor-postmortem-v1"));
        assert_eq!(dump.get("failing_rank").unwrap().as_u64(), Some(1));
        assert_eq!(dump.get("phase").unwrap().as_str(), Some("gather-x"));
        assert!(dump.get("message").unwrap().as_str().unwrap().contains("mid-exchange"));
        let chrome = dump.get("chrome").unwrap();
        let events = chrome.get("traceEvents").unwrap().as_array().unwrap();
        // The failing rank's track is renamed and carries a panic instant.
        assert!(events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .is_some_and(|n| n.contains("[FAILED]"))
        }));
        assert!(events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("panic")));
        // The failing rank's gather-x span exists and is unterminated.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("gather-x")
                && e.get("args").and_then(|a| a.get("unterminated")).is_some()
        }));
    }

    #[test]
    fn postmortem_reconciles_flight_against_matrix_and_report() {
        let failure = crash_run();
        reconcile_postmortem(&failure).unwrap();
        // Every rank sent exactly its 6-word gather message before the
        // abort could interrupt it.
        for snap in &failure.flight {
            assert_eq!(snap.overhead.dropped, 0);
            assert_eq!(snap.words_sent(), 6);
        }
    }

    #[test]
    fn postmortem_reconciles_after_injected_faults() {
        use std::time::Duration;
        use symtensor_mpsim::{CrashSpec, FaultPlan};
        // Chaos run: rank 1's only send is dropped, rank 2 crashes on
        // schedule. Counters, trace matrices and flight sums must still
        // reconcile — the dropped transfer appears in none of them.
        let plan = FaultPlan::seeded(11).drop_nth_send(1, 0).with_crash(CrashSpec {
            rank: 2,
            phase: "gather-x".into(),
            round: 2,
            on_attempt: None,
        });
        let failure = Universe::new(3)
            .with_recv_timeout(Duration::from_millis(200))
            .with_poll_interval(Duration::from_millis(2))
            .with_faults(plan)
            .try_run_traced(|comm| {
                comm.with_phase("gather-x", || {
                    comm.annotate_round(2);
                    let next = (comm.rank() + 1) % 3;
                    comm.send(next, 0, vec![1.0; 6]);
                    let prev = (comm.rank() + 2) % 3;
                    let _ = comm.recv(prev, 0);
                    comm.clear_round();
                });
            })
            .unwrap_err();
        assert_eq!(failure.rank, 2, "the scheduled crash is the root cause");
        assert!(failure.message.contains("chaos"), "got: {}", failure.message);
        reconcile_postmortem(&failure).unwrap();
        // Rank 1's send was dropped before the network: 0 accountable
        // words, but the injected fault is visible in its telemetry.
        assert_eq!(failure.report.per_rank[1].words_sent, 0);
        assert_eq!(failure.flight[1].words_sent(), 0);
        let rank1_faults: Vec<_> = failure.traces[1]
            .iter()
            .filter_map(|e| match e.kind {
                CommEventKind::Fault { fault, peer, words } => Some((fault, peer, words)),
                _ => None,
            })
            .collect();
        assert_eq!(
            rank1_faults,
            vec![(symtensor_mpsim::InjectedFault::Drop, 2, 6)],
            "the drop must be recorded as injected, not organic"
        );
        assert!(
            failure.flight[2].events.iter().any(|e| e.kind == FlightKind::Fault),
            "the crash leaves a fault record in rank 2's flight window"
        );
        // The dump renders and validates end to end.
        let dump = postmortem_json(&failure);
        assert_eq!(crate::validate(&dump), Ok(crate::ArtifactKind::Postmortem));
    }

    #[test]
    fn chrome_from_flight_is_monotone_per_track() {
        let failure = crash_run();
        let doc = chrome_from_flight(&failure.flight, Some(failure.rank));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut last_ts = std::collections::BTreeMap::new();
        for e in events {
            if e.get("ph").and_then(Value::as_str) == Some("M") {
                continue;
            }
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            if let Some(&prev) = last_ts.get(&tid) {
                assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
            }
            last_ts.insert(tid, ts);
        }
    }
}
