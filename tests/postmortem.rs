//! Tracing under failure: a rank panics mid-exchange, the surviving ranks
//! fail fast, and the runtime's abort attribution plus every rank's
//! flight-recorder window must assemble into a valid post-mortem dump.
//!
//! The dump is always written to `target/test-artifacts/` — on a CI test
//! failure that directory is uploaded, so the artifacts these tests leave
//! behind double as the debugging evidence for whatever else broke.

use symtensor_mpsim::Universe;
use symtensor_obs::json::Value;
use symtensor_obs::{postmortem_json, reconcile_postmortem, validate, ArtifactKind};

/// A 3-rank ring exchange in phase `gather-x`, round 2, where rank 1
/// panics after sending but before receiving — its inbound message is in
/// flight when the abort trips, exactly the mid-exchange wreckage a
/// post-mortem has to make sense of.
fn crash_run() -> Box<symtensor_mpsim::RankFailure> {
    Universe::new(3)
        .try_run_traced(|comm| {
            let p = comm.rank();
            comm.with_phase("gather-x", || {
                comm.annotate_round(2);
                comm.send((p + 1) % 3, 0, vec![1.0; 6]);
                // No rank may exit before every send has reached a live
                // mailbox: a send to an exited rank is not charged or
                // recorded, and the tests below count every send.
                comm.barrier();
                if p == 1 {
                    panic!("injected mid-exchange failure");
                }
                let _ = comm.recv((p + 2) % 3, 0);
                comm.clear_round();
            });
        })
        .expect_err("rank 1 panics; the run must fail")
}

fn artifact_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-artifacts");
    std::fs::create_dir_all(&dir).expect("can create target/test-artifacts");
    dir
}

#[test]
fn rank_panic_produces_a_postmortem_dump() {
    let failure = crash_run();
    assert_eq!(failure.rank, 1);
    assert_eq!(failure.phase, Some("gather-x"));
    assert_eq!(failure.round, Some(2));
    assert!(failure.message.contains("injected mid-exchange failure"));

    let dump = postmortem_json(&failure);
    let path = artifact_dir().join("postmortem_ring.json");
    std::fs::write(&path, dump.to_string_pretty()).expect("can write the dump");

    // The written artifact round-trips through the shared schema validator.
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = symtensor_obs::json::parse(&text).expect("dump is valid JSON");
    assert_eq!(validate(&doc), Ok(ArtifactKind::Postmortem));

    // The dump names the failing rank and its last phase/round.
    assert_eq!(doc.get("failing_rank").and_then(Value::as_u64), Some(1));
    assert_eq!(doc.get("phase").and_then(Value::as_str), Some("gather-x"));
    assert_eq!(doc.get("round").and_then(Value::as_u64), Some(2));
    assert!(doc
        .get("message")
        .and_then(Value::as_str)
        .unwrap()
        .contains("injected mid-exchange failure"));
}

#[test]
fn postmortem_chrome_trace_is_valid_and_monotone() {
    let failure = crash_run();
    let dump = postmortem_json(&failure);
    let chrome = dump.get("chrome").expect("dump embeds a chrome trace");
    assert_eq!(validate(chrome), Ok(ArtifactKind::ChromeTrace));

    let events = chrome.get("traceEvents").unwrap().as_array().unwrap();
    // Per-track timestamps are monotone (the sort contract every Chrome
    // consumer in this workspace relies on).
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            continue;
        }
        let tid = e.get("tid").and_then(Value::as_u64).unwrap();
        let ts = match e.get("ts").unwrap() {
            Value::Number(ts) => *ts,
            other => panic!("non-numeric ts {other:?}"),
        };
        if let Some(prev) = last_ts.get(&tid) {
            assert!(ts >= *prev, "track {tid}: ts went backwards ({prev} -> {ts})");
        }
        last_ts.insert(tid, ts);
    }

    // The failing rank's track is flagged, it carries a panic instant, and
    // the phase it died inside is an unterminated span.
    let failed_track = events.iter().any(|e| {
        e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .is_some_and(|n| n.contains("rank 1") && n.contains("FAILED"))
    });
    assert!(failed_track, "rank 1's thread_name must be flagged FAILED");
    assert!(events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("panic")
        && e.get("tid").and_then(Value::as_u64) == Some(1)));
    assert!(
        events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("gather-x")
                && e.get("tid").and_then(Value::as_u64) == Some(1)
                && matches!(
                    e.get("args").and_then(|a| a.get("unterminated")),
                    Some(Value::Bool(true))
                )
        }),
        "the phase rank 1 died inside must be an unterminated span"
    );
}

#[test]
fn surviving_ranks_words_reconcile_with_the_comm_matrix() {
    let failure = crash_run();
    // Each rank sent its 6 words before the abort; rank 1's inbound
    // message was never received. The reconciliation must hold send-side
    // and recv-side marginals separately (the every-send-is-received
    // invariant is broken by design in an aborted run).
    reconcile_postmortem(&failure).expect("recorded words reconcile with the comm matrix");
    for (p, snap) in failure.flight.iter().enumerate() {
        assert_eq!(snap.words_sent(), 6, "rank {p} recorded its send");
    }
}
