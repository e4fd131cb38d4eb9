//! Flight-recorder acceptance tests: the always-on recorder must never
//! change what the simulator computes (bit-identical outputs, identical
//! cost counters), the batched serving path must thread request ids all
//! the way into SLO readouts with real exemplars, and the exported window
//! must satisfy the shared artifact schema.

use rand::prelude::*;
use symtensor_core::generate::random_symmetric;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, Universe};
use symtensor_obs::{flight_json, validate, ArtifactKind, RequestLatency, SloReport};
use symtensor_parallel::{
    parallel_sttsv, serve, CommSchedule, Mode, RankContext, ServeConfig, ServeRequest,
    TetraPartition,
};
use symtensor_steiner::spherical;

fn setup(q: u64) -> (SymTensor3, TetraPartition) {
    let qs = q as usize;
    let n = (qs * qs + 1) * qs * (qs + 1);
    let part = TetraPartition::new(spherical(q), n).unwrap();
    let tensor = random_symmetric(n, &mut StdRng::seed_from_u64(7));
    (tensor, part)
}

fn input(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.01).sin()).collect()
}

/// Recorder-on and recorder-off runs of the same STTSV must produce
/// bit-identical per-rank outputs and identical `CostReport`s — the
/// recorder observes the run, it must never perturb it.
#[test]
fn recorder_on_and_off_runs_are_bit_identical() {
    let (tensor, part) = setup(2);
    let n = part.dim();
    let x = input(n);
    let p_count = part.num_procs();
    let schedule = CommSchedule::build(&part);

    let rank_main = |comm: &Comm| {
        let p = comm.rank();
        let ctx = RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
        let my_shards = part.shards_of(p, &x);
        ctx.sttsv(comm, &my_shards)
    };

    let (res_on, rep_on, flight_on) = Universe::new(p_count).run_flight(rank_main);
    let (res_off, rep_off, flight_off) =
        Universe::new(p_count).with_flight_capacity(0).run_flight(rank_main);

    // Capacity 0 disables the recorder entirely: nothing recorded, nothing
    // retained.
    for snap in &flight_off {
        assert_eq!(snap.overhead.recorded, 0);
        assert_eq!(snap.overhead.dropped, 0);
        assert!(snap.events.is_empty());
    }
    // The default recorder actually saw the traffic.
    assert!(flight_on.iter().all(|s| s.overhead.recorded > 0));
    assert!(flight_on.iter().any(|s| s.words_sent() > 0));

    assert_eq!(rep_on, rep_off, "cost counters must not depend on the recorder");
    for (p, (on, off)) in res_on.iter().zip(&res_off).enumerate() {
        assert_eq!(on.1, off.1, "rank {p}: ternary count changed");
        for (a, b) in on.0.iter().zip(&off.0) {
            let identical =
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(identical, "rank {p}: output shards are not bit-identical");
        }
    }
}

/// The serving path threads request ids end to end: every record's spans
/// feed an [`SloReport`] whose p99 exemplar is a request that was actually
/// served, and every served output matches the single-vector reference.
#[test]
fn serving_slo_report_links_p99_to_a_real_request() {
    let (tensor, part) = setup(2);
    let n = part.dim();
    let requests: Vec<ServeRequest> = (0..6)
        .map(|v| {
            let x: Vec<f64> = (0..n).map(|i| ((i + v) as f64 * 0.03).cos()).collect();
            ServeRequest { id: 100 + v as u64, arrival_ns: 0, x }
        })
        .collect();
    let run = serve(&tensor, &part, &requests, ServeConfig::new(Mode::Scheduled, 2)).unwrap();

    // Served outputs are the single-vector answers, bit for bit.
    for (req, y) in requests.iter().zip(&run.ys) {
        let reference = parallel_sttsv(&tensor, &part, &req.x, Mode::Scheduled);
        assert!(y.iter().zip(&reference.y).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    let mut slo = SloReport::default();
    for r in &run.records {
        slo.observe(&RequestLatency {
            id: r.id,
            queue_wait_ns: r.queue_wait_ns,
            batch_form_ns: r.batch_form_ns,
            compute_ns: r.compute_ns,
            exchange_ns: r.exchange_ns,
            e2e_ns: r.e2e_ns,
        });
    }
    assert_eq!(slo.count(), 6);
    let exemplar = slo.e2e.p99_exemplar().expect("six observations give a p99 bucket");
    assert!(
        requests.iter().any(|r| r.id == exemplar.request),
        "p99 exemplar {} is not a served request id",
        exemplar.request
    );
    // The exemplar is the worst e2e latency actually recorded (ties may
    // resolve to any of the equally-slow requests).
    let worst = run.records.iter().max_by_key(|r| r.e2e_ns).unwrap();
    assert_eq!(exemplar.value, worst.e2e_ns);
    assert!(run.records.iter().any(|r| r.id == exemplar.request && r.e2e_ns == exemplar.value));
    // The rendered table names the exemplar request.
    let text = slo.render();
    assert!(text.contains(&format!("request {}", exemplar.request)), "table:\n{text}");
}

/// The exported flight window passes the shared artifact validator and
/// carries the request annotations the serving layer threaded through.
#[test]
fn serve_flight_window_validates_and_carries_request_ids() {
    let (tensor, part) = setup(2);
    let n = part.dim();
    let requests: Vec<ServeRequest> = (0..3).map(|v| ServeRequest::new(7 + v, input(n))).collect();
    let run = serve(&tensor, &part, &requests, ServeConfig::new(Mode::Scheduled, 3)).unwrap();

    let doc = flight_json(&run.flight);
    assert_eq!(validate(&doc), Ok(ArtifactKind::Flight));

    // Every request id appears in every rank's recorded window (each rank
    // runs the kernel pass for each vector).
    for snap in &run.flight {
        for req in &requests {
            assert!(
                snap.events.iter().any(|e| e.request == Some(req.id)),
                "rank {}: request {} left no flight record",
                snap.rank,
                req.id
            );
        }
    }
}
