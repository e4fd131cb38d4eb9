//! Chrome trace-event (Perfetto-loadable) export.
//!
//! Emits the JSON object format `{"traceEvents": [...]}` understood by
//! `ui.perfetto.dev` and `chrome://tracing`:
//!
//! * one track per rank (`pid` 1, `tid` = rank, named via `M` metadata
//!   events),
//! * every completed phase as an `X` (complete) event with `ts`/`dur` in
//!   microseconds and the phase's exact word/message deltas in `args`;
//!   a phase still open at the end of a rank's log (the phase a rank
//!   panicked in) is closed at the log's last timestamp and flagged
//!   `unterminated`,
//! * every send and receive as an `i` (instant) event carrying peer, tag,
//!   word count and (when present) the schedule round and request, and
//!   every injected fault and SLO alert as an instant of its own category,
//! * every annotated counter as a `C` (counter) sample.
//!
//! The post-mortem dump ([`crate::flight::postmortem_json`]) embeds the
//! same trace over the crashed run's logs, with the failing rank's track
//! renamed `rank N [FAILED]` and a `panic` instant at its last event.
//!
//! Timestamps are the simulator's shared-epoch nanoseconds converted to the
//! fractional microseconds the format requires, so cross-rank ordering in
//! the UI matches real interleaving.

use crate::json::Value;
use crate::span::spans_of_rank;
use symtensor_mpsim::cost::CommEventKind;
use symtensor_mpsim::CommEvent;

/// Process id used for all ranks (the whole universe is one process).
const PID: u64 = 1;

fn us(t_ns: u64) -> f64 {
    t_ns as f64 / 1_000.0
}

/// Builds the Chrome trace document from per-rank event logs (indexed by
/// rank, as returned by [`symtensor_mpsim::Universe::run_traced`]).
pub fn chrome_trace(traces: &[Vec<CommEvent>]) -> Value {
    chrome_trace_failing(traces, None)
}

/// [`chrome_trace`] with `failing`'s track renamed `rank N [FAILED]` and a
/// `panic` instant at its last recorded event.
pub(crate) fn chrome_trace_failing<L: AsRef<[CommEvent]>>(
    traces: &[L],
    failing: Option<usize>,
) -> Value {
    Value::object()
        .with("traceEvents", Value::Array(chrome_trace_events(PID, None, traces, failing)))
        .with("displayTimeUnit", "ns")
}

/// Builds a single document containing several labeled runs, one Perfetto
/// *process* per run (`pid` = run index + 1, named by an `M`
/// `process_name` metadata event) with one thread track per rank inside
/// it. This is how the `experiment`/`sweep` binaries merge every traced
/// run of a session into one `--trace` file.
pub fn chrome_trace_multi(runs: &[(String, Vec<Vec<CommEvent>>)]) -> Value {
    let mut events = Vec::new();
    for (idx, (label, traces)) in runs.iter().enumerate() {
        events.extend(chrome_trace_events(idx as u64 + 1, Some(label), traces, None));
    }
    Value::object().with("traceEvents", Value::Array(events)).with("displayTimeUnit", "ns")
}

/// Phases still open at the end of one rank's log, as `(name, entry ns)`.
fn open_phases(events: &[CommEvent]) -> Vec<(&'static str, u64)> {
    let mut stack = Vec::new();
    for event in events {
        match event.kind {
            CommEventKind::PhaseEnter { name, .. } => stack.push((name, event.t_ns)),
            // A bounded window may have evicted the matching enter.
            CommEventKind::PhaseExit { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }
    stack
}

fn instant(name: &str, cat: &str, pid: u64, tid: usize, t_ns: u64, args: Value) -> Value {
    Value::object()
        .with("name", name)
        .with("cat", cat)
        .with("ph", "i")
        .with("s", "t") // thread-scoped instant
        .with("pid", pid)
        .with("tid", tid)
        .with("ts", us(t_ns))
        .with("args", args)
}

/// The flat event list for one run under process id `pid` (optionally
/// named `process_name`), with `failing`'s track flagged.
fn chrome_trace_events<L: AsRef<[CommEvent]>>(
    pid: u64,
    process_name: Option<&str>,
    traces: &[L],
    failing: Option<usize>,
) -> Vec<Value> {
    let mut events: Vec<Value> = Vec::new();

    if let Some(name) = process_name {
        events.push(
            Value::object()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", pid)
                .with("tid", 0u64)
                .with("args", Value::object().with("name", name)),
        );
    }
    for rank in 0..traces.len() {
        // Track naming metadata.
        let name = if failing == Some(rank) {
            format!("rank {rank} [FAILED]")
        } else {
            format!("rank {rank}")
        };
        events.push(
            Value::object()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", pid)
                .with("tid", rank)
                .with("args", Value::object().with("name", name)),
        );
    }

    for (rank, rank_events) in traces.iter().enumerate() {
        let rank_events = rank_events.as_ref();
        let window_end = rank_events.last().map_or(0, |e| e.t_ns);
        // Completed phases as X (complete) duration events.
        for span in spans_of_rank(rank, rank_events) {
            events.push(
                Value::object()
                    .with("name", span.name)
                    .with("cat", "phase")
                    .with("ph", "X")
                    .with("pid", pid)
                    .with("tid", rank)
                    .with("ts", us(span.start_ns))
                    .with("dur", us(span.end_ns.saturating_sub(span.start_ns)))
                    .with(
                        "args",
                        Value::object()
                            .with("words_sent", span.cost.words_sent)
                            .with("words_recv", span.cost.words_recv)
                            .with("msgs_sent", span.cost.msgs_sent)
                            .with("msgs_recv", span.cost.msgs_recv)
                            .with("rounds", span.cost.rounds),
                    ),
            );
        }
        // A panic leaves the enclosing phases open — precisely the signal
        // a post-mortem reader needs.
        for (name, start_ns) in open_phases(rank_events) {
            events.push(
                Value::object()
                    .with("name", name)
                    .with("cat", "phase")
                    .with("ph", "X")
                    .with("pid", pid)
                    .with("tid", rank)
                    .with("ts", us(start_ns))
                    .with("dur", us(window_end.saturating_sub(start_ns)))
                    .with("args", Value::object().with("unterminated", true)),
            );
        }
        if failing == Some(rank) {
            events.push(instant("panic", "abort", pid, rank, window_end, Value::object()));
        }
        // Sends/recvs, faults and alerts as instants, annotated counters as
        // counter tracks.
        for event in rank_events {
            let (name, cat, mut args) = match event.kind {
                CommEventKind::Send { dst, tag, words } => (
                    "send",
                    "comm",
                    Value::object().with("dst", dst).with("tag", tag).with("words", words),
                ),
                CommEventKind::Recv { src, tag, words } => (
                    "recv",
                    "comm",
                    Value::object().with("src", src).with("tag", tag).with("words", words),
                ),
                // Injected faults and SLO alerts get their own categories
                // so a reader can separate chaos and burning SLOs from
                // organic traffic at a glance.
                CommEventKind::Fault { fault, peer, words } => (
                    "fault",
                    "fault",
                    Value::object()
                        .with("fault", fault.label())
                        .with("peer", peer)
                        .with("words", words),
                ),
                CommEventKind::Alert { id } => ("alert", "alert", Value::object().with("id", id)),
                CommEventKind::Counter { key, value } => {
                    // `C` events render as a per-rank counter track in
                    // Perfetto; the args key names the series.
                    events.push(
                        Value::object()
                            .with("name", key)
                            .with("cat", "counter")
                            .with("ph", "C")
                            .with("pid", pid)
                            .with("tid", rank)
                            .with("ts", us(event.t_ns))
                            .with("args", Value::object().with(key, value)),
                    );
                    continue;
                }
                CommEventKind::PhaseEnter { .. } | CommEventKind::PhaseExit { .. } => continue,
            };
            if let Some(round) = event.round {
                args.set("round", round);
            }
            if let Some(phase) = event.phase {
                args.set("phase", phase);
            }
            if let Some(request) = event.request {
                args.set("request", request);
            }
            events.push(instant(name, cat, pid, rank, event.t_ns, args));
        }
    }

    // Emit a chronological stream: metadata first, then events by `ts`
    // (Perfetto sorts internally, but a sorted file is diffable and lets
    // simple consumers scan per-rank timelines without re-sorting).
    events.sort_by(|a, b| {
        let key = |e: &Value| match e.get("ph").and_then(Value::as_str) {
            Some("M") => (0u8, 0.0f64),
            _ => (1, e.get("ts").and_then(Value::as_f64).unwrap_or(0.0)),
        };
        let (ka, kb) = (key(a), key(b));
        ka.0.cmp(&kb.0).then(ka.1.partial_cmp(&kb.1).unwrap_or(std::cmp::Ordering::Equal))
    });

    events
}

/// Serializes [`chrome_trace`] to a pretty-printed JSON string ready to be
/// written to a `.json` file and opened in Perfetto.
pub fn chrome_trace_string(traces: &[Vec<CommEvent>]) -> String {
    chrome_trace(traces).to_string_pretty()
}

/// Like [`chrome_trace`], but with two additional *profile* counter tracks
/// derived from send/recv matching:
///
/// * `recv_wait_ns` — one `C` sample per matched message at its receive
///   time, valued at the message's measured transit (recv − send) time, on
///   the receiving rank's track;
/// * `round_step_ns` — one `C` sample per `(phase, round)` schedule step at
///   the step's last receive time, valued at the step's span (last receive
///   − first send), on `tid` 0.
///
/// These are the same quantities [`crate::ProfileHistograms`] aggregates;
/// the counter tracks let Perfetto plot them over virtual time.
pub fn chrome_trace_with_profile(traces: &[Vec<CommEvent>]) -> Value {
    let mut events = chrome_trace_events(PID, None, traces, None);
    events.extend(profile_counter_events(traces));
    Value::object().with("traceEvents", Value::Array(events)).with("displayTimeUnit", "ns")
}

/// The `C` (counter) events backing [`chrome_trace_with_profile`].
fn profile_counter_events(traces: &[Vec<CommEvent>]) -> Vec<Value> {
    use std::collections::BTreeMap;
    let report = symtensor_mpsim::match_messages(traces);
    let mut events = Vec::new();
    // (phase, round) → (first send ns, last recv ns).
    let mut steps: BTreeMap<(Option<&'static str>, u64), (u64, u64)> = BTreeMap::new();
    for m in &report.matches {
        events.push(
            Value::object()
                .with("name", "recv_wait_ns")
                .with("ph", "C")
                .with("cat", "profile")
                .with("ts", us(m.recv_t_ns))
                .with("pid", PID)
                .with("tid", m.dst)
                .with("args", Value::object().with("value", m.transit_ns())),
        );
        if let Some(round) = m.round {
            let entry = steps.entry((m.send_phase, round)).or_insert((m.send_t_ns, m.recv_t_ns));
            entry.0 = entry.0.min(m.send_t_ns);
            entry.1 = entry.1.max(m.recv_t_ns);
        }
    }
    for ((_, _), (first_send, last_recv)) in steps {
        events.push(
            Value::object()
                .with("name", "round_step_ns")
                .with("ph", "C")
                .with("cat", "profile")
                .with("ts", us(last_recv))
                .with("pid", PID)
                .with("tid", 0u64)
                .with("args", Value::object().with("value", last_recv - first_send)),
        );
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::validate;
    use symtensor_mpsim::Universe;

    fn sample_traces() -> Vec<Vec<CommEvent>> {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("exchange", || {
                comm.annotate_round(3);
                let other = 1 - comm.rank();
                comm.exchange(other, 9, vec![0.0; 4]).unwrap();
                comm.clear_round();
            });
        });
        traces
    }

    #[test]
    fn trace_is_valid_json_with_expected_events() {
        let traces = sample_traces();
        let text = chrome_trace_string(&traces);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + 2 phase spans + (2 sends + 2 recvs) instants.
        assert_eq!(events.len(), 2 + 2 + 4);
        let phases: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(phases.len(), 2);
        for phase in &phases {
            assert_eq!(phase.get("name").unwrap().as_str(), Some("exchange"));
            assert_eq!(phase.get("args").unwrap().get("words_sent").unwrap().as_u64(), Some(4));
        }
        let instants: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 4);
        for instant in &instants {
            let args = instant.get("args").unwrap();
            assert_eq!(args.get("round").unwrap().as_u64(), Some(3));
            assert_eq!(args.get("phase").unwrap().as_str(), Some("exchange"));
            assert_eq!(args.get("words").unwrap().as_u64(), Some(4));
        }
    }

    #[test]
    fn annotated_counters_become_counter_track_events() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("compute", || {
                comm.annotate_counter("arena_bytes", 1024 + comm.rank() as u64);
            });
        });
        let text = chrome_trace_string(&traces);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("C")).collect();
        assert_eq!(counters.len(), 2);
        for counter in &counters {
            assert_eq!(counter.get("name").unwrap().as_str(), Some("arena_bytes"));
            assert_eq!(counter.get("cat").unwrap().as_str(), Some("counter"));
            let rank = counter.get("tid").unwrap().as_u64().unwrap();
            assert_eq!(
                counter.get("args").unwrap().get("arena_bytes").unwrap().as_u64(),
                Some(1024 + rank)
            );
        }
    }

    #[test]
    fn per_rank_timestamps_are_monotone() {
        let traces = sample_traces();
        for events in &traces {
            let mut last = 0;
            for e in events {
                assert!(e.t_ns >= last, "timestamps must be non-decreasing per rank");
                last = e.t_ns;
            }
        }
    }

    #[test]
    fn multi_run_document_separates_processes() {
        let runs =
            vec![("first".to_string(), sample_traces()), ("second".to_string(), sample_traces())];
        let doc = chrome_trace_multi(&runs);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let process_names: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Value::as_str) == Some("process_name")
                    && e.get("ph").and_then(Value::as_str) == Some("M")
            })
            .map(|e| {
                (
                    e.get("pid").unwrap().as_u64().unwrap(),
                    e.get("args").unwrap().get("name").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(process_names, vec![(1, "first".to_string()), (2, "second".to_string())]);
        // Every non-metadata event belongs to pid 1 or 2.
        for e in events {
            let pid = e.get("pid").unwrap().as_u64().unwrap();
            assert!(pid == 1 || pid == 2);
        }
    }

    #[test]
    fn profile_counters_add_wait_and_step_tracks() {
        let traces = sample_traces();
        let doc = chrome_trace_with_profile(&traces);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let base = chrome_trace(&traces);
        let base_len = base.get("traceEvents").unwrap().as_array().unwrap().len();
        // 2 matched messages → 2 recv_wait samples + 1 (phase, round) step.
        assert_eq!(events.len(), base_len + 3);
        let waits: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("recv_wait_ns"))
            .collect();
        assert_eq!(waits.len(), 2);
        for w in &waits {
            assert_eq!(w.get("ph").unwrap().as_str(), Some("C"));
            assert!(w.get("args").unwrap().get("value").unwrap().as_u64().is_some());
        }
        let steps: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("round_step_ns"))
            .collect();
        assert_eq!(steps.len(), 1);
    }

    #[test]
    fn open_phases_are_closed_and_flagged_unterminated() {
        let failure = Universe::new(2)
            .try_run_traced(|comm| {
                comm.with_phase("gather-x", || {
                    if comm.rank() == 1 {
                        panic!("crash inside gather-x");
                    }
                })
            })
            .unwrap_err();
        let traces: Vec<_> = failure.flight.iter().map(|snap| snap.events.clone()).collect();
        let doc = chrome_trace(&traces);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let flagged = |tid: u64| {
            events.iter().any(|e| {
                e.get("name").and_then(Value::as_str) == Some("gather-x")
                    && e.get("tid").and_then(Value::as_u64) == Some(tid)
                    && e.get("args").and_then(|a| a.get("unterminated")) == Some(&Value::Bool(true))
            })
        };
        assert!(flagged(1), "the phase rank 1 crashed in must be an unterminated span");
        assert!(!flagged(0), "rank 0 closed its phase");
        assert_eq!(validate(&doc), Ok(crate::ArtifactKind::ChromeTrace));
    }

    #[test]
    fn metadata_names_every_rank_track() {
        let traces = sample_traces();
        let doc = chrome_trace(&traces);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["rank 0", "rank 1"]);
    }
}
