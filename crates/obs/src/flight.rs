//! Flight-recorder export and post-mortem crash dumps.
//!
//! Two consumers of the per-rank logs ([`symtensor_mpsim::FlightSnapshot`]):
//!
//! * [`flight_json`] — the obs-JSON form of a run's final window
//!   (`symtensor-flight-v1`), including each recorder's self-overhead;
//! * [`postmortem_json`] — the crash dump (`symtensor-postmortem-v1`)
//!   assembled from a [`RankFailure`]: who failed, where (last
//!   phase/round), the panic message, every rank's log, the cost counters
//!   up to the abort, and an embedded [`crate::chrome`] trace of the same
//!   events with the failing rank highlighted.
//!
//! [`reconcile_postmortem`] closes the loop: the send and receive matrices
//! of the crashed run's logs must agree with the hot-path counters up to
//! the abort point.

use crate::chrome::chrome_trace_failing;
use crate::json::Value;
use crate::matrix::CommMatrix;
use symtensor_mpsim::cost::CommEventKind;
use symtensor_mpsim::{CommEvent, FlightSnapshot, RankFailure};

fn event_json(e: &CommEvent) -> Value {
    let v = Value::object().with("t_ns", e.t_ns);
    let mut v = match e.kind {
        CommEventKind::Send { dst, tag, words } => {
            v.with("kind", "send").with("peer", dst).with("tag", tag).with("words", words)
        }
        CommEventKind::Recv { src, tag, words } => {
            v.with("kind", "recv").with("peer", src).with("tag", tag).with("words", words)
        }
        CommEventKind::PhaseEnter { .. } => v.with("kind", "phase_enter"),
        CommEventKind::PhaseExit { .. } => v.with("kind", "phase_exit"),
        CommEventKind::Counter { key, value } => {
            v.with("kind", "counter").with("key", key).with("value", value)
        }
        CommEventKind::Fault { fault, peer, words } => v
            .with("kind", "fault")
            .with("fault", fault.label())
            .with("peer", peer)
            .with("words", words),
        CommEventKind::Alert { id } => v.with("kind", "alert").with("alert", id),
    };
    if let Some(phase) = e.phase {
        v.set("phase", phase);
    }
    if let Some(round) = e.round {
        v.set("round", round);
    }
    if let Some(request) = e.request {
        v.set("request", request);
    }
    v
}

fn overhead_json(snap: &FlightSnapshot) -> Value {
    Value::object()
        .with("capacity", snap.overhead.capacity)
        .with("recorded", snap.overhead.recorded)
        .with("dropped", snap.overhead.dropped)
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

/// Assembles the post-mortem crash dump (`symtensor-postmortem-v1`) from a
/// structured rank failure: attribution, per-rank cost counters up to the
/// abort, every rank's log, and an embedded Chrome trace of those logs
/// with the failing rank highlighted.
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
        .with("chrome", chrome_trace_failing(&logs(failure), Some(failure.rank)))
}

fn logs(failure: &RankFailure) -> Vec<&[CommEvent]> {
    failure.flight.iter().map(|snap| &snap.events[..]).collect()
}

/// Checks that the crashed run's logs reconcile with the hot-path cost
/// counters, up to the abort point.
///
/// An aborted run breaks the clean-run invariant that every send is
/// eventually received, so two matrices are reconciled independently: the
/// send matrix's row marginals against `words_sent`, and the receive
/// matrix's column marginals against `words_recv` — both hold even
/// mid-abort because counters and events are written at the same call
/// sites.
pub fn reconcile_postmortem(failure: &RankFailure) -> Result<(), String> {
    let p = failure.flight.len();
    let (mut send_matrix, mut recv_matrix) = (CommMatrix::new(p), CommMatrix::new(p));
    for (rank, events) in logs(failure).into_iter().enumerate() {
        for event in events {
            match event.kind {
                CommEventKind::Send { dst, words, .. } => send_matrix.add(rank, dst, words),
                CommEventKind::Recv { src, words, .. } => recv_matrix.add(src, rank, words),
                _ => {}
            }
        }
    }
    // No link can deliver more than was sent on it — injected duplicates
    // are deduplicated before accounting and injected drops never charge
    // the sender, so this holds even for chaos-injected aborted runs.
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
                "rank {rank}: log says {} words sent but counters say {}",
                send_matrix.row_words(rank),
                cost.words_sent
            ));
        }
        if recv_matrix.col_words(rank) != cost.words_recv {
            return Err(format!(
                "rank {rank}: log says {} words received but counters say {}",
                recv_matrix.col_words(rank),
                cost.words_recv
            ));
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
        let sent = std::sync::Barrier::new(3);
        Universe::new(3)
            .try_run_traced(|comm| {
                comm.with_phase("gather-x", || {
                    comm.annotate_round(2);
                    let next = (comm.rank() + 1) % 3;
                    comm.send(next, 0, vec![1.0; 6]);
                    // No rank may exit before every send has reached a live
                    // mailbox: a send to an exited rank is not charged, and
                    // the reconciliation below counts every send.
                    sent.wait();
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
        let rank1_faults: Vec<_> = failure.flight[1]
            .events
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
            failure.flight[2].events.iter().any(|e| matches!(e.kind, CommEventKind::Fault { .. })),
            "the crash leaves a fault record in rank 2's flight window"
        );
        // The dump renders and validates end to end.
        let dump = postmortem_json(&failure);
        assert_eq!(crate::validate(&dump), Ok(crate::ArtifactKind::Postmortem));
    }

    #[test]
    fn postmortem_chrome_is_monotone_per_track() {
        let failure = crash_run();
        let doc = postmortem_json(&failure);
        let events = doc.get("chrome").unwrap().get("traceEvents").unwrap().as_array().unwrap();
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
