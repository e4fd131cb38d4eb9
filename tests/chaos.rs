//! Chaos-layer acceptance tests: deterministic fault injection must be
//! exactly reproducible from its seed, an inert plan must cost nothing,
//! dropped messages must surface as errors (never wrong answers, never
//! hangs), and the serving layer's retry/degrade recovery must return
//! outputs bit-identical to the fault-free run for every request it
//! recovers.
//!
//! The soak test writes its flight window to `target/test-artifacts/`, so
//! a CI failure uploads the evidence alongside the log.

use rand::prelude::*;
use std::time::{Duration, Instant};
use symtensor_core::generate::random_symmetric;
use symtensor_core::seq::sttsv_sym;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{CommEventKind, CrashSpec, FaultPlan, FlightKind, InjectedFault, Universe};
use symtensor_obs::{flight_json, validate, ArtifactKind};
use symtensor_parallel::{
    parallel_sttsv_serve, serve, ChaosPolicy, CommSchedule, Mode, RankContext, ServeConfig,
    ServeRequest, ServeRun, TetraPartition,
};
use symtensor_steiner::spherical;

fn setup(q: u64) -> (SymTensor3, TetraPartition) {
    let qs = q as usize;
    let n = (qs * qs + 1) * qs * (qs + 1);
    let part = TetraPartition::new(spherical(q), n).unwrap();
    let tensor = random_symmetric(n, &mut StdRng::seed_from_u64(7));
    (tensor, part)
}

fn requests(n: usize, count: usize) -> Vec<ServeRequest> {
    (0..count)
        .map(|v| {
            let x: Vec<f64> = (0..n).map(|i| ((i + 3 * v) % 11) as f64 - 4.0).collect();
            ServeRequest::new(100 + v as u64, x)
        })
        .collect()
}

fn policy(plan: FaultPlan) -> ChaosPolicy {
    ChaosPolicy {
        plan,
        max_retries: 2,
        backoff: Duration::from_millis(5),
        recv_timeout: Duration::from_millis(250),
    }
}

/// Serves `reqs` in batches of 2 under the chaos `policy`.
fn serve_chaos(
    tensor: &SymTensor3,
    part: &TetraPartition,
    reqs: &[ServeRequest],
    policy: &ChaosPolicy,
) -> ServeRun {
    let cfg = ServeConfig { chaos: Some(policy), ..ServeConfig::new(Mode::Scheduled, 2) };
    serve(tensor, part, reqs, cfg).unwrap()
}

/// One single-request scheduled plan-path run under `plan`, driven through
/// the same kernel entry the serving layer uses.
fn scheduled_run_with_faults(
    tensor: &SymTensor3,
    part: &TetraPartition,
    plan: FaultPlan,
    timeout: Duration,
) -> Result<(), String> {
    let n = part.dim();
    let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let schedule = CommSchedule::build(part);
    Universe::new(part.num_procs())
        .with_recv_timeout(timeout)
        .with_poll_interval(Duration::from_millis(2))
        .with_faults(plan)
        .try_run_traced(|comm| {
            let p = comm.rank();
            let ctx = RankContext::new(tensor, part, p, Mode::Scheduled, Some(&schedule));
            let shards = part.shards_of(p, &x);
            ctx.sttsv_multi_requests(comm, &[shards], &[1])
        })
        .map(|_| ())
        .map_err(|failure| failure.to_string())
}

/// Chaos criterion: with the layer installed but the plan inert
/// (`drop_prob = 0`, no crash), the serving path's outputs, records and
/// `CostReport` are bit-identical to a run without the chaos layer, and
/// no fault records exist anywhere.
#[test]
fn inert_plan_is_bit_identical_to_no_chaos() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 5);
    let base = parallel_sttsv_serve(&tensor, &part, &reqs, Mode::Scheduled, 1, 2).unwrap();
    let chaos = serve_chaos(&tensor, &part, &reqs, &policy(FaultPlan::seeded(42)));

    assert_eq!(chaos.report, base.report, "inert chaos must not change the cost report");
    assert_eq!(chaos.ternary_per_rank, base.ternary_per_rank);
    assert_eq!(chaos.ys.len(), base.ys.len());
    for (a, b) in chaos.ys.iter().zip(&base.ys) {
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    for rec in &chaos.records {
        assert_eq!(rec.retries, 0);
        assert!(!rec.degraded);
    }
    for snap in &chaos.flight {
        assert!(snap.events.iter().all(|e| e.kind != FlightKind::Fault));
    }
}

/// Property: any single dropped message in a Scheduled run, for q ∈ {2, 3},
/// yields `Err` — never a wrong `y`, never a hang past the timeout. Drop
/// sites are sampled across ranks and send indices.
#[test]
fn any_single_dropped_message_fails_the_run() {
    for q in [2u64, 3] {
        let (tensor, part) = setup(q);
        let p_count = part.num_procs();

        // Count each rank's sends in a fault-free run so drop indices are
        // sampled from real send sites.
        let schedule = CommSchedule::build(&part);
        let n = part.dim();
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let (_, _, traces, _) = Universe::new(p_count)
            .try_run_traced(|comm| {
                let p = comm.rank();
                let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
                let shards = part.shards_of(p, &x);
                ctx.sttsv_multi_requests(comm, &[shards], &[1])
            })
            .expect("fault-free run succeeds");
        let sends: Vec<usize> = traces
            .iter()
            .map(|t| t.iter().filter(|e| matches!(e.kind, CommEventKind::Send { .. })).count())
            .collect();

        let ranks = if q == 2 { vec![0, p_count / 2, p_count - 1] } else { vec![0, p_count - 1] };
        for rank in ranks {
            assert!(sends[rank] > 0, "rank {rank} sends nothing?");
            let nths = if q == 2 {
                vec![0, sends[rank] / 2, sends[rank] - 1]
            } else {
                vec![0, sends[rank] - 1]
            };
            for nth in nths {
                let plan = FaultPlan::seeded(9).drop_nth_send(rank, nth as u64);
                let started = Instant::now();
                let out =
                    scheduled_run_with_faults(&tensor, &part, plan, Duration::from_millis(150));
                let elapsed = started.elapsed();
                assert!(
                    out.is_err(),
                    "q={q}: dropping send {nth} of rank {rank} must fail the run"
                );
                assert!(
                    elapsed < Duration::from_secs(10),
                    "q={q} rank={rank} nth={nth}: abort took {elapsed:?} — fail-fast broken"
                );
            }
        }
    }
}

/// Same plan, same seed, twice: the injected-fault sequence on the
/// dropping rank is identical record for record.
#[test]
fn injected_fault_sequence_is_seed_deterministic() {
    let (tensor, part) = setup(2);
    let project = |plan: FaultPlan| -> Vec<(InjectedFault, usize, u64)> {
        let schedule = CommSchedule::build(&part);
        let n = part.dim();
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let failure = Universe::new(part.num_procs())
            .with_recv_timeout(Duration::from_millis(150))
            .with_poll_interval(Duration::from_millis(2))
            .with_faults(plan)
            .try_run_traced(|comm| {
                let p = comm.rank();
                let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
                let shards = part.shards_of(p, &x);
                ctx.sttsv_multi_requests(comm, &[shards], &[1])
            })
            .expect_err("a dropped message must fail the run");
        failure.traces[1]
            .iter()
            .filter_map(|e| match e.kind {
                CommEventKind::Fault { fault, peer, words } => Some((fault, peer, words)),
                _ => None,
            })
            .collect()
    };
    let plan = FaultPlan::seeded(31).drop_nth_send(1, 0);
    let a = project(plan.clone());
    let b = project(plan);
    assert!(!a.is_empty(), "rank 1 must record its injected drop");
    assert_eq!(a, b, "same seed must inject the identical fault sequence");
}

/// An attempt-0 crash is absorbed by one retry per batch and the
/// recovered outputs are bit-identical to the fault-free run.
#[test]
fn crash_on_first_attempt_recovers_bit_identically() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 4);
    let base = parallel_sttsv_serve(&tensor, &part, &reqs, Mode::Scheduled, 1, 2).unwrap();

    // Crash a rank at a (phase, round) where the schedule actually gives
    // it work, so the spec is guaranteed to fire.
    let schedule = CommSchedule::build(&part);
    let crash_rank = 1;
    let round = schedule
        .actions(crash_rank)
        .iter()
        .position(|a| a.send_to.is_some() || a.recv_from.is_some())
        .expect("rank 1 participates in some round") as u64;
    let spec = CrashSpec { rank: crash_rank, phase: "gather-x".into(), round, on_attempt: Some(0) };
    let chaos = serve_chaos(&tensor, &part, &reqs, &policy(FaultPlan::seeded(5).with_crash(spec)));

    for rec in &chaos.records {
        assert_eq!(rec.retries, 1, "request {}: every batch crashes once then recovers", rec.id);
        assert!(!rec.degraded);
    }
    for (a, b) in chaos.ys.iter().zip(&base.ys) {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "recovered outputs must be bit-identical to the fault-free run"
        );
    }
    // Retries moved real words: the merged report is strictly larger.
    assert!(chaos.report.total_words_sent() > base.report.total_words_sent());
}

/// Chaos records are on one serving clock: a retried request's latency
/// includes its failed attempt and the backoff before the retry, and
/// later batches never report a shorter queue wait than earlier ones,
/// although each attempt runs in a fresh universe with its own clock.
#[test]
fn chaos_records_share_one_serving_clock() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 6);
    let schedule = CommSchedule::build(&part);
    let round = schedule
        .actions(1)
        .iter()
        .position(|a| a.send_to.is_some() || a.recv_from.is_some())
        .expect("rank 1 participates in some round") as u64;
    let spec = CrashSpec { rank: 1, phase: "gather-x".into(), round, on_attempt: Some(0) };
    let mut pol = policy(FaultPlan::seeded(5).with_crash(spec));
    pol.backoff = Duration::from_millis(50);
    let chaos = serve_chaos(&tensor, &part, &reqs, &pol);

    let backoff_ns = pol.backoff.as_nanos() as u64;
    for rec in &chaos.records {
        assert_eq!(rec.retries, 1, "request {}: every batch crashes once", rec.id);
        assert!(
            rec.e2e_ns >= backoff_ns,
            "request {}: e2e {} ns leaves out the {backoff_ns} ns backoff",
            rec.id,
            rec.e2e_ns
        );
    }
    for pair in chaos.records.windows(2) {
        assert!(
            pair[1].queue_wait_ns >= pair[0].queue_wait_ns,
            "request {} queued {} ns, less than request {}'s {} ns",
            pair[1].id,
            pair[1].queue_wait_ns,
            pair[0].id,
            pair[0].queue_wait_ns
        );
    }
}

/// A persistent crash exhausts the retries and degrades every request to
/// the sequential fallback — deterministically, with the exact
/// `sttsv_sym` answer.
#[test]
fn persistent_crash_degrades_to_sequential_fallback() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 3);
    let schedule = CommSchedule::build(&part);
    let round = schedule
        .actions(0)
        .iter()
        .position(|a| a.send_to.is_some() || a.recv_from.is_some())
        .unwrap() as u64;
    let spec = CrashSpec { rank: 0, phase: "gather-x".into(), round, on_attempt: None };
    let mut pol = policy(FaultPlan::seeded(5).with_crash(spec));
    pol.max_retries = 1;
    pol.recv_timeout = Duration::from_millis(150);
    let chaos = serve_chaos(&tensor, &part, &reqs, &pol);

    for rec in &chaos.records {
        assert!(rec.degraded, "request {}: a persistent crash must degrade", rec.id);
        assert_eq!(rec.retries, 1);
    }
    for (req, y) in reqs.iter().zip(&chaos.ys) {
        let (expected, _) = sttsv_sym(&tensor, &req.x);
        assert!(
            y.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits()),
            "degraded output must be the sequential fallback's answer"
        );
    }
}

/// Two chaos serving runs with the same seed agree on every retry count,
/// every degraded flag and every output bit.
#[test]
fn chaos_serving_runs_are_seed_deterministic() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 4);
    let run = || {
        let mut pol = policy(FaultPlan::seeded(1234).with_drop_prob(0.02));
        pol.recv_timeout = Duration::from_millis(150);
        serve_chaos(&tensor, &part, &reqs, &pol)
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.retries, rb.retries, "request {}: retry counts must match", ra.id);
        assert_eq!(ra.degraded, rb.degraded, "request {}: degraded flags must match", ra.id);
    }
    for (ya, yb) in a.ys.iter().zip(&b.ys) {
        assert!(ya.iter().zip(yb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

/// The chaos soak: several seeds and drop rates through the full serving
/// recovery path. Every recovered request is bit-identical to the
/// fault-free run; every degraded request is exactly the sequential
/// fallback. The last flight window is written to `target/test-artifacts/`
/// and must validate against the shared artifact schema.
#[test]
fn chaos_soak_recovers_or_degrades_every_request() {
    let (tensor, part) = setup(2);
    let reqs = requests(part.dim(), 4);
    let base = parallel_sttsv_serve(&tensor, &part, &reqs, Mode::Scheduled, 1, 2).unwrap();

    let artifact_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-artifacts");
    std::fs::create_dir_all(&artifact_dir).expect("can create target/test-artifacts");

    for seed in 0..6u64 {
        let drop_prob = [0.0, 0.01, 0.05][seed as usize % 3];
        let mut pol = policy(FaultPlan::seeded(seed).with_drop_prob(drop_prob));
        pol.recv_timeout = Duration::from_millis(150);
        let chaos = serve_chaos(&tensor, &part, &reqs, &pol);

        assert_eq!(chaos.records.len(), reqs.len());
        for (i, rec) in chaos.records.iter().enumerate() {
            assert!(rec.retries <= pol.max_retries);
            if rec.degraded {
                let (expected, _) = sttsv_sym(&tensor, &reqs[i].x);
                assert!(
                    chaos.ys[i].iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "seed {seed}: degraded request {} diverged from the fallback",
                    rec.id
                );
            } else {
                assert!(
                    chaos.ys[i].iter().zip(&base.ys[i]).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "seed {seed}: recovered request {} is not bit-identical",
                    rec.id
                );
            }
        }

        let doc = flight_json(&chaos.flight);
        assert_eq!(validate(&doc), Ok(ArtifactKind::Flight), "seed {seed}");
        let path = artifact_dir.join(format!("chaos_soak_flight_{seed}.json"));
        std::fs::write(&path, doc.to_string_pretty()).expect("can write the soak artifact");
    }
}
