//! Batched serving of STTSV requests with request-scoped tracing.
//!
//! The throughput path ([`parallel_sttsv_multi_planned`]) amortizes the α
//! term by moving a whole batch through one exchange-phase pair — but it
//! answers only "how long did the batch take". A serving system needs the
//! *per-request* decomposition: how long did request 17 queue, how long
//! did its batch take to form, how long was the kernel pass and the
//! exchange it shared with its batch. [`serve`] runs a stream of
//! [`ServeRequest`]s through the compiled-plan batched kernel and measures
//! exactly that, with straggler semantics (a span is as slow as its
//! slowest rank — the time a client would actually observe). The
//! per-request work — cutting each request's shards — runs in its own
//! `batch-form` phase tagged with the request's id in the flight recorder
//! and the `CommEvent` log; the fused kernel pass and the exchange serve
//! the whole batch and stay unattributed.
//!
//! There is one serving loop, the double-buffered one, and one driver
//! scaffold; [`ServeConfig`] adds a telemetry plane, chaos recovery and an
//! SLO evaluator to it. Results are bit-identical to
//! [`parallel_sttsv_multi_planned`] over the same batches: the serving
//! layer changes *when* things are measured, never *what* is computed.
//!
//! [`parallel_sttsv_multi_planned`]: crate::algorithm5::parallel_sttsv_multi_planned

use crate::algorithm5::{check_dims, InputError, Machine, Mode, RankContext, ServedBatch};
use crate::partition::TetraPartition;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symtensor_core::seq::sttsv_sym;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, CostReport, FaultPlan, FlightSnapshot, RankCost, Universe};
use symtensor_telemetry::{keys as telemetry_keys, SloBurnRate, TelemetryPlane};

/// One STTSV request submitted to the serving layer.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// Caller-chosen request id — threaded through flight-recorder
    /// records and trace events while this request's shards are cut.
    pub id: u64,
    /// Arrival time on the serving clock (ns), which starts when [`serve`]
    /// is called. Queue wait is measured from here to the start of the
    /// batch that carries the request.
    pub arrival_ns: u64,
    /// The input vector (`part.dim()` long).
    pub x: Vec<f64>,
}

impl ServeRequest {
    /// A request that arrived at time 0.
    pub fn new(id: u64, x: Vec<f64>) -> Self {
        ServeRequest { id, arrival_ns: 0, x }
    }
}

/// A structured serving-layer error — invalid configurations and inputs
/// return this instead of panicking deep inside the batch loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// `batch_cap == 0`: the batch loop could never make progress.
    ZeroBatchCap,
    /// The tensor or a request vector does not match the partition's
    /// dimension, or a request vector holds a NaN or an infinity (the
    /// vector index is the request's position).
    Input(InputError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ZeroBatchCap => {
                write!(f, "batch capacity must be positive (got 0)")
            }
            ServeError::Input(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<InputError> for ServeError {
    fn from(e: InputError) -> Self {
        ServeError::Input(e)
    }
}

/// The measured latency decomposition of one served request. All values
/// are straggler-merged across ranks: a span is the slowest rank's,
/// because that is when the result (which needs every rank's shard)
/// actually became available.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request id.
    pub id: u64,
    /// Which batch carried the request.
    pub batch: usize,
    /// The request's slab index within its batch.
    pub batch_index: usize,
    /// Arrival → the carrying batch starting to form, on the serving
    /// clock that starts with the [`serve`] call.
    pub queue_wait_ns: u64,
    /// Shard extraction / batch assembly.
    pub batch_form_ns: u64,
    /// The batch's fused kernel pass (slowest rank) — shared by every
    /// request in the batch, like `exchange_ns`: each tensor row is applied
    /// to every request's vector in one pass.
    pub compute_ns: u64,
    /// The batch's *exposed* gather plus its reduce (slowest rank each) —
    /// shared by every request in the batch. The gather's sends were
    /// posted while the previous batch computed, so only its drain counts.
    pub exchange_ns: u64,
    /// Arrival → every rank finished extracting the batch's outputs.
    pub e2e_ns: u64,
    /// Failed attempts the carrying batch absorbed before it succeeded (or
    /// was degraded). Always 0 on the fault-free path.
    pub retries: u32,
    /// True when the batch exhausted its retries and this request's answer
    /// came from the sequential [`sttsv_sym`] fallback instead of the
    /// distributed kernel.
    pub degraded: bool,
}

/// The result of a serving run.
#[derive(Clone, Debug)]
pub struct ServeRun {
    /// `ys[i]` is the assembled output for `requests[i]`, in submission
    /// order — bit-identical to [`parallel_sttsv_multi_planned`] over the
    /// same batches.
    ///
    /// [`parallel_sttsv_multi_planned`]: crate::algorithm5::parallel_sttsv_multi_planned
    pub ys: Vec<Vec<f64>>,
    /// Exact communication costs of the whole run.
    pub report: CostReport,
    /// Per-rank ternary multiplications over all batches.
    pub ternary_per_rank: Vec<u64>,
    /// One latency record per request, in submission order.
    pub records: Vec<RequestRecord>,
    /// Every rank's flight-recorder window at the end of the run, with
    /// request-annotated records for each request's `batch-form` phase.
    pub flight: Vec<FlightSnapshot>,
}

/// Validates a serving run's inputs and splits `requests`, in submission
/// order, into batches of at most `batch_cap`.
fn batches<'r>(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &'r [ServeRequest],
    batch_cap: usize,
) -> Result<Vec<&'r [ServeRequest]>, ServeError> {
    if batch_cap == 0 {
        return Err(ServeError::ZeroBatchCap);
    }
    check_dims(part.dim(), tensor, requests.iter().map(|r| r.x.as_slice()))?;
    Ok(requests.chunks(batch_cap).collect())
}

/// One rank's shards and request ids for `batch`. Cutting a request's
/// shards is the batch's per-request work, so each request gets its own
/// `batch-form` phase, annotated with its id.
fn form_batch(
    comm: &Comm,
    part: &TetraPartition,
    batch: &[ServeRequest],
) -> (Vec<Vec<Vec<f64>>>, Vec<u64>) {
    let ids = batch.iter().map(|r| r.id).collect();
    let shards = batch
        .iter()
        .map(|r| {
            comm.annotate_request(r.id);
            let shards = comm.with_phase("batch-form", || part.shards_of(comm.rank(), &r.x));
            comm.clear_request();
            shards
        })
        .collect();
    (shards, ids)
}

/// Straggler-merges one batch's per-rank measurements into request
/// records and assembles its slice of the outputs. `clock_ns` is where the
/// batch's universe started on the serve-wide clock: each rank's spans are
/// on that universe's clock, and shifting them puts every record on the
/// one serving clock the request arrivals use. The batch's requests start
/// at `run.records.len()`, since records are kept in submission order.
fn merge_batch(
    run: &mut ServeRun,
    part: &TetraPartition,
    k: usize,
    batch: &[ServeRequest],
    per_rank: &[&ServedBatch],
    clock_ns: u64,
    retries: u32,
) {
    let begin = per_rank.iter().map(|b| b.begin_ns).max().unwrap_or(0) + clock_ns;
    let form = per_rank.iter().map(|b| b.formed_ns.saturating_sub(b.begin_ns)).max().unwrap_or(0);
    let gather = per_rank.iter().map(|b| b.spans.gather_ns).max().unwrap_or(0);
    let reduce = per_rank.iter().map(|b| b.spans.reduce_ns).max().unwrap_or(0);
    let end = per_rank.iter().map(|b| b.spans.end_ns).max().unwrap_or(0) + clock_ns;
    let compute = per_rank.iter().map(|b| b.spans.compute_ns).max().unwrap_or(0);
    let first = run.records.len();
    for (v, r) in batch.iter().enumerate() {
        run.records.push(RequestRecord {
            id: r.id,
            batch: k,
            batch_index: v,
            queue_wait_ns: begin.saturating_sub(r.arrival_ns),
            batch_form_ns: form,
            compute_ns: compute,
            exchange_ns: gather + reduce,
            e2e_ns: end.saturating_sub(r.arrival_ns),
            retries,
            degraded: false,
        });
    }
    for (p, rb) in per_rank.iter().enumerate() {
        run.ternary_per_rank[p] += rb.ternary;
        for (v, shards) in rb.ys.iter().enumerate() {
            part.place_shards(p, shards, &mut run.ys[first + v]);
        }
    }
}

/// Driver-side publisher for the plane's dedicated *serve* cell: queue
/// depth and batch occupancy as a batch is admitted, latency histograms
/// and completion counters as its records merge. One instance per serving
/// run keeps all the registry lookups in one place.
struct ServeTelemetry<'a> {
    plane: &'a Arc<TelemetryPlane>,
}

impl ServeTelemetry<'_> {
    /// A batch of `batch_len` requests begins forming with `queued`
    /// requests still waiting behind it.
    fn batch_admitted(&self, queued: usize, batch_len: usize, batch_cap: usize) {
        let cell = self.plane.serve_cell();
        cell.gauge_set(self.plane.gauge_slot(telemetry_keys::QUEUE_DEPTH), queued as u64);
        cell.gauge_set(
            self.plane.gauge_slot(telemetry_keys::BATCH_OCCUPANCY_PCT),
            (batch_len * 100 / batch_cap.max(1)) as u64,
        );
    }

    /// A segment's straggler-merged records are final: feed the latency
    /// histograms and bump the completion/degradation counters.
    fn batch_done(&self, records: &[RequestRecord], retries: u32) {
        let cell = self.plane.serve_cell();
        let now = self.plane.now_ns();
        let e2e = self.plane.hist_slot(telemetry_keys::E2E_NS);
        let queue_wait = self.plane.hist_slot(telemetry_keys::QUEUE_WAIT_NS);
        let mut degraded = 0u64;
        for rec in records {
            cell.observe(e2e, now, rec.e2e_ns);
            cell.observe(queue_wait, now, rec.queue_wait_ns);
            degraded += rec.degraded as u64;
        }
        // One vector per request in this serving model, so the two
        // counters advance in lockstep; both exist because the scraper's
        // budget ratio is defined over *vectors*.
        cell.gauge_add(self.plane.gauge_slot(telemetry_keys::VECTORS_DONE), records.len() as u64);
        cell.gauge_add(self.plane.gauge_slot(telemetry_keys::REQUESTS_DONE), records.len() as u64);
        if retries > 0 {
            cell.gauge_add(self.plane.gauge_slot(telemetry_keys::RETRIES), retries as u64);
        }
        if degraded > 0 {
            cell.gauge_add(self.plane.gauge_slot(telemetry_keys::DEGRADED), degraded);
        }
    }
}

/// How the chaos serving layer injects faults and recovers from them.
#[derive(Clone, Debug)]
pub struct ChaosPolicy {
    /// The deterministic fault plan installed into every batch attempt
    /// (re-keyed per attempt via [`FaultPlan::for_attempt`]).
    pub plan: FaultPlan,
    /// Failed attempts a batch may absorb before its requests degrade to
    /// the sequential fallback.
    pub max_retries: u32,
    /// Base backoff between attempts; attempt `k` sleeps `backoff << k`.
    pub backoff: Duration,
    /// Per-recv timeout inside each attempt — keeps a deserted collective
    /// from stalling the retry loop for the default 60 s.
    pub recv_timeout: Duration,
}

/// How [`serve`] runs.
pub struct ServeConfig<'a> {
    /// Communication strategy for the vector phases.
    pub mode: Mode,
    /// Worker threads per rank for the local-compute phase; `≤ 1` runs the
    /// sequential kernels. Results are bit-identical across thread counts
    /// above 1, and communication does not depend on it.
    pub threads: usize,
    /// Requests per batch, in submission order (the last batch may be
    /// smaller). Must be positive.
    pub batch_cap: usize,
    /// A live telemetry plane. Every rank publishes its per-phase word
    /// counts into its plane cell as it communicates, rank 0 publishes
    /// queue depth and batch occupancy into the serve cell as each batch
    /// is admitted, and the driver feeds the per-request latency
    /// histograms once each segment's straggler merge is done.
    pub telemetry: Option<&'a Arc<TelemetryPlane>>,
    /// Deterministic fault injection with bounded-retry recovery; `None`
    /// serves fault-free, and a rank panic then propagates.
    pub chaos: Option<&'a ChaosPolicy>,
    /// An SLO burn-rate evaluator, run against `telemetry` after each
    /// segment; ignored without a plane.
    pub slo: Option<&'a mut SloBurnRate>,
}

impl ServeConfig<'_> {
    /// Sequential kernels, no telemetry, no chaos, no SLO.
    pub fn new(mode: Mode, batch_cap: usize) -> Self {
        ServeConfig { mode, threads: 1, batch_cap, telemetry: None, chaos: None, slo: None }
    }
}

/// Serves `requests` with the fault-free defaults of [`ServeConfig`]:
/// `threads` workers per rank, `batch_cap` requests per batch. A one-line
/// wrapper over [`serve`], kept because the benchmark calls it by name.
pub fn parallel_sttsv_serve(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
) -> Result<ServeRun, ServeError> {
    serve(tensor, part, requests, ServeConfig { threads, ..ServeConfig::new(mode, batch_cap) })
}

/// [`parallel_sttsv_serve`] under its pipelined name. Every serve runs the
/// one double-buffered loop ([`RankContext::sttsv_serve_pipelined`]), so
/// the two are the same call; both stay because the benchmark calls them
/// by name.
///
/// [`RankContext::sttsv_serve_pipelined`]: crate::RankContext::sttsv_serve_pipelined
pub fn parallel_sttsv_serve_pipelined(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
) -> Result<ServeRun, ServeError> {
    parallel_sttsv_serve(tensor, part, requests, mode, threads, batch_cap)
}

/// Serves `requests` through the compiled-plan batched STTSV kernel, as
/// `cfg` says.
///
/// The requests are cut into batches of `cfg.batch_cap`, and the batches
/// run in *segments*, each in one [`Universe`] through the double-buffered
/// serving loop ([`RankContext::sttsv_serve_pipelined`]): while batch `k`
/// computes, batch `k + 1` is formed and, in scheduled mode, its gather
/// is in flight. Without `cfg.chaos` one segment carries every batch.
/// With it, each batch is its own segment, run with `chaos.plan`
/// installed: when a rank fails (injected crash, or a timeout forced by
/// dropped messages), the batch is retried with exponential backoff, up
/// to `chaos.max_retries` times, and each retry re-keys the plan's PRNG
/// streams via [`FaultPlan::for_attempt`], so an attempt-0 crash spec
/// lets the retry succeed. A batch that exhausts its retries is
/// *degraded*: every request in it is answered by the sequential
/// [`sttsv_sym`] fallback and its records carry `degraded = true` with
/// zeroed timing spans.
///
/// Every record is on one serving clock that starts with the call, the
/// clock `ServeRequest::arrival_ns` is on: queue wait and end-to-end
/// latency include earlier segments, failed attempts and backoff.
/// `exchange_ns` is the *exposed* gather plus the reduce.
///
/// Outputs are bit-identical to [`parallel_sttsv_multi_planned`] over the
/// same batches, with or without telemetry, and recovered (non-degraded)
/// chaos outputs are bit-identical to the fault-free run: a retried batch
/// recomputes from the original request vectors in a fresh universe, and
/// the arithmetic is deterministic. The merged [`CostReport`] includes the
/// words moved by *failed* attempts too: retries have a real
/// communication cost. `flight` holds the last segment's final attempt;
/// with an inert plan (`drop_prob = 0`, no crash) the costs equal the
/// fault-free run's.
///
/// After each segment the driver feeds the latency histograms and evaluates
/// `cfg.slo`. An alert raised there is stamped into *every* rank's flight
/// ring by the next segment's communicators (fresh ranks start with an
/// empty seen-alert mark), so a post-mortem window shows which alerts were
/// already burning when a batch failed.
///
/// Returns [`ServeError::ZeroBatchCap`] when `batch_cap == 0` and
/// [`ServeError::Input`] when the tensor or a request vector has the wrong
/// dimension, or a request vector is not finite.
///
/// [`RankContext::sttsv_serve_pipelined`]: crate::RankContext::sttsv_serve_pipelined
/// [`parallel_sttsv_multi_planned`]: crate::algorithm5::parallel_sttsv_multi_planned
pub fn serve(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    cfg: ServeConfig<'_>,
) -> Result<ServeRun, ServeError> {
    let ServeConfig { mode, threads, batch_cap, telemetry, chaos, mut slo } = cfg;
    let batches = batches(tensor, part, requests, batch_cap)?;
    let p_count = part.num_procs();
    let machine = Machine::new(tensor, part, mode, threads);
    let clock = Instant::now();
    let clock_ns = || clock.elapsed().as_nanos() as u64;
    let universe = || {
        let universe = Universe::new(p_count);
        match telemetry {
            Some(plane) => universe.with_telemetry(plane.clone()),
            None => universe,
        }
    };
    let segments: Vec<Range<usize>> = match chaos {
        Some(_) => (0..batches.len()).map(|k| k..k + 1).collect(),
        None => std::iter::once(0..batches.len()).collect(),
    };

    let mut run = ServeRun {
        ys: vec![vec![0.0; part.dim()]; requests.len()],
        report: CostReport { per_rank: vec![RankCost::default(); p_count] },
        ternary_per_rank: vec![0; p_count],
        records: Vec::with_capacity(requests.len()),
        flight: Vec::new(),
    };
    for segment in segments {
        let rank_main = |comm: &Comm, ctx: &RankContext<'_>| {
            ctx.sttsv_serve_pipelined(comm, segment.len(), |j| {
                let k = segment.start + j;
                // Batches are admitted inside the universe, so rank 0
                // publishes the live queue-depth view as each one forms.
                if let (0, Some(plane)) = (comm.rank(), telemetry) {
                    let queued = requests.len() - k * batch_cap;
                    ServeTelemetry { plane }.batch_admitted(queued, batches[k].len(), batch_cap);
                }
                form_batch(comm, part, batches[k])
            })
        };
        // The per-rank batches and where their universe started on the
        // serving clock, or `None` once a chaos batch is out of retries.
        let mut retries = 0u32;
        let served = match chaos {
            None => {
                let start_ns = clock_ns();
                let (served, report, flight) = machine.run(universe(), false, rank_main);
                run.report = report;
                run.flight = flight;
                Some((served, start_ns))
            }
            Some(policy) => loop {
                let attempt = universe()
                    .with_recv_timeout(policy.recv_timeout)
                    .with_faults(policy.plan.for_attempt(retries));
                let start_ns = clock_ns();
                let result = attempt
                    .try_run_traced(|comm| machine.with_rank(comm, |ctx| rank_main(comm, ctx)));
                match result {
                    Ok((served, report, flight)) => {
                        run.report = run.report.merged(&report);
                        run.flight = flight;
                        break Some((served, start_ns));
                    }
                    Err(failure) => {
                        // Failed attempts still moved real words — keep them.
                        run.report = run.report.merged(&failure.report);
                        run.flight = failure.flight;
                        if retries >= policy.max_retries {
                            break None;
                        }
                        std::thread::sleep(policy.backoff * (1u32 << retries.min(16)));
                        retries += 1;
                    }
                }
            },
        };

        let first = run.records.len();
        for (j, k) in segment.enumerate() {
            match &served {
                Some((per_rank, start_ns)) => {
                    let refs: Vec<&ServedBatch> = per_rank.iter().map(|b| &b[j]).collect();
                    merge_batch(&mut run, part, k, batches[k], &refs, *start_ns, retries);
                }
                None => {
                    for (v, r) in batches[k].iter().enumerate() {
                        run.ys[run.records.len()] = sttsv_sym(tensor, &r.x).0;
                        run.records.push(RequestRecord {
                            id: r.id,
                            batch: k,
                            batch_index: v,
                            retries,
                            degraded: true,
                            ..RequestRecord::default()
                        });
                    }
                }
            }
        }
        if let Some(plane) = telemetry {
            ServeTelemetry { plane }.batch_done(&run.records[first..], retries);
            if let Some(slo) = slo.as_deref_mut() {
                slo.evaluate(plane);
            }
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm5::{parallel_sttsv, parallel_sttsv_multi_planned};
    use crate::blocks::tests::{kernel_lock, with_baseline_plans};
    use rand::prelude::*;
    use symtensor_core::generate::random_symmetric;
    use symtensor_mpsim::{CommEventKind, RankCost};
    use symtensor_steiner::spherical;

    fn setup(q: u64) -> (SymTensor3, TetraPartition, usize) {
        let qs = q as usize;
        let n = (qs * qs + 1) * qs * (qs + 1); // block size divisible by P
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let tensor = random_symmetric(n, &mut rng);
        (tensor, part, n)
    }

    fn vectors(n: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count).map(|v| (0..n).map(|i| ((i + 3 * v) % 11) as f64 - 4.0).collect()).collect()
    }

    /// The kernel instance a plan runs changes no bit and no count: the
    /// serve over the detected instance equals the serve with every plan
    /// forced to the baseline, on the sequential and the pooled compute.
    #[test]
    fn forcing_the_baseline_kernel_changes_no_bit() {
        let n = 120;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(18);
        let tensor = random_symmetric(n, &mut rng);
        let requests: Vec<ServeRequest> = (0..20)
            .map(|i| ServeRequest::new(i, (0..n).map(|_| rng.gen::<f64>() - 0.5).collect()))
            .collect();
        let bits = |run: &ServeRun| -> Vec<Vec<u64>> {
            run.ys.iter().map(|y| y.iter().map(|v| v.to_bits()).collect()).collect()
        };
        for threads in [1, 4] {
            let serve = || {
                parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, threads, 8)
                    .unwrap()
            };
            let detected = {
                let _kernel = kernel_lock();
                serve()
            };
            let baseline = with_baseline_plans(serve);
            assert_eq!(bits(&detected), bits(&baseline), "threads = {threads}");
            assert_eq!(detected.report, baseline.report, "threads = {threads}");
        }
    }

    #[test]
    fn served_outputs_match_single_vector_runs() {
        let (tensor, part, n) = setup(2);
        let xs = vectors(n, 5);
        let requests: Vec<ServeRequest> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| ServeRequest::new(100 + i as u64, x.clone()))
            .collect();
        let run = parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, 1, 2).unwrap();
        assert_eq!(run.ys.len(), 5);
        for (x, y) in xs.iter().zip(&run.ys) {
            let reference = parallel_sttsv(&tensor, &part, x, Mode::Scheduled);
            assert_eq!(y, &reference.y, "served output must be bit-identical");
        }
        // Batches of [2, 2, 1]: the batched report equals the sum of the
        // equivalent multi-planned runs.
        let mut expected_words = 0;
        for chunk in xs.chunks(2) {
            let multi = parallel_sttsv_multi_planned(&tensor, &part, chunk, Mode::Scheduled, 1);
            expected_words += multi.report.total_words_sent();
        }
        assert_eq!(run.report.total_words_sent(), expected_words);
    }

    #[test]
    fn records_decompose_each_request() {
        let (tensor, part, n) = setup(2);
        let xs = vectors(n, 6);
        let requests: Vec<ServeRequest> =
            xs.iter().enumerate().map(|(i, x)| ServeRequest::new(i as u64, x.clone())).collect();
        let run = parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, 2, 4).unwrap();
        assert_eq!(run.records.len(), 6);
        for (i, rec) in run.records.iter().enumerate() {
            assert_eq!(rec.id, i as u64);
            assert_eq!(rec.batch, i / 4);
            assert_eq!(rec.batch_index, i % 4);
            assert!(rec.compute_ns > 0, "request {i} measured no compute");
            assert!(rec.e2e_ns >= rec.compute_ns);
            assert!(rec.e2e_ns >= rec.queue_wait_ns);
        }
        // Later batches queue behind earlier ones.
        assert!(run.records[4].queue_wait_ns >= run.records[0].queue_wait_ns);
    }

    #[test]
    fn served_batches_match_the_batched_oracle() {
        let (tensor, part, n) = setup(2);
        let xs = vectors(n, 7);
        let requests: Vec<ServeRequest> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| ServeRequest::new(200 + i as u64, x.clone()))
            .collect();
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            for threads in [1usize, 3] {
                let run =
                    parallel_sttsv_serve(&tensor, &part, &requests, mode, threads, 3).unwrap();
                // The oracle: one barrier call per batch of 3.
                let mut ys = Vec::new();
                let mut report =
                    CostReport { per_rank: vec![RankCost::default(); part.num_procs()] };
                let mut ternary = vec![0u64; part.num_procs()];
                for chunk in xs.chunks(3) {
                    let multi = parallel_sttsv_multi_planned(&tensor, &part, chunk, mode, threads);
                    ys.extend(multi.ys);
                    report = report.merged(&multi.report);
                    for (t, m) in ternary.iter_mut().zip(&multi.ternary_per_rank) {
                        *t += m;
                    }
                }
                assert_eq!(run.ys, ys, "{mode:?}/{threads}: outputs must be bit-identical");
                assert_eq!(run.ternary_per_rank, ternary, "{mode:?}/{threads}: ternary counts");
                assert_eq!(run.report, report, "{mode:?}/{threads}: serving must not move a word");
                assert_eq!(run.records.len(), requests.len());
                for (i, rec) in run.records.iter().enumerate() {
                    assert_eq!(
                        (rec.id, rec.batch, rec.batch_index),
                        (200 + i as u64, i / 3, i % 3)
                    );
                    assert!(rec.compute_ns > 0);
                    assert!(rec.e2e_ns >= rec.compute_ns);
                }
            }
        }
    }

    #[test]
    fn pipelined_serve_puts_the_same_messages_on_the_wire() {
        use symtensor_mpsim::CommEvent;
        type Wire = (&'static str, bool, usize, u64, u64, Option<u64>);
        // One rank's traffic as a sorted multiset of (phase, is-send,
        // peer, tag, words, round annotation).
        fn wire(trace: &[CommEvent]) -> Vec<Wire> {
            let mut out: Vec<Wire> = trace
                .iter()
                .filter_map(|e| {
                    let (send, peer, tag, words) = match e.kind {
                        CommEventKind::Send { dst, tag, words } => (true, dst, tag, words),
                        CommEventKind::Recv { src, tag, words } => (false, src, tag, words),
                        _ => return None,
                    };
                    Some((e.phase.unwrap_or(""), send, peer, tag, words, e.round))
                })
                .collect();
            out.sort_unstable();
            out
        }
        let bits = |ys: &[Vec<Vec<f64>>]| -> Vec<u64> {
            ys.iter().flatten().flatten().map(|v| v.to_bits()).collect()
        };
        let cases = [
            (2u64, Mode::Scheduled),
            (3, Mode::Scheduled),
            (2, Mode::AllToAllSparse),
            (2, Mode::AllToAllPadded),
        ];
        for (q, mode) in cases {
            let (tensor, part, n) = setup(q);
            let requests: Vec<ServeRequest> = vectors(n, 5)
                .into_iter()
                .enumerate()
                .map(|(i, x)| ServeRequest::new(i as u64, x))
                .collect();
            let batches: Vec<&[ServeRequest]> = requests.chunks(2).collect();
            let machine = Machine::new(&tensor, &part, mode, 1);
            let universe = || Universe::new(part.num_procs());
            // The reference: one barrier call per batch.
            let (barrier, _, barrier_logs) = machine.run(universe(), true, |comm, ctx| {
                let batch_ys: Vec<_> = batches
                    .iter()
                    .map(|batch| ctx.sttsv_multi(comm, &form_batch(comm, &part, batch).0).0)
                    .collect();
                batch_ys
            });
            let (pipe, _, pipe_logs) = machine.run(universe(), true, |comm, ctx| {
                ctx.sttsv_serve_pipelined(comm, batches.len(), |k| {
                    form_batch(comm, &part, batches[k])
                })
            });
            for p in 0..part.num_procs() {
                let expect = wire(&barrier_logs[p].events);
                let case = format!("q={q} {mode:?} rank {p}");
                assert!(expect.iter().any(|w| w.0 == "gather-x" && w.1), "{case}");
                assert!(expect.iter().any(|w| w.0 == "reduce-y" && !w.1), "{case}");
                assert_eq!(wire(&pipe_logs[p].events), expect, "{case}: wire traffic");
                assert_eq!(pipe[p].len(), batches.len());
                for (k, (a, b)) in pipe[p].iter().zip(&barrier[p]).enumerate() {
                    assert_eq!(bits(&a.ys), bits(b), "{case} batch {k}: output bits");
                }
            }
        }
    }

    #[test]
    fn non_finite_request_is_a_typed_error() {
        let (tensor, part, n) = setup(2);
        let mut requests: Vec<ServeRequest> = vectors(n, 3)
            .into_iter()
            .enumerate()
            .map(|(i, x)| ServeRequest::new(i as u64, x))
            .collect();
        requests[2].x[5] = f64::NAN;
        let err = parallel_sttsv_serve_pipelined(&tensor, &part, &requests, Mode::Scheduled, 1, 2)
            .unwrap_err();
        assert_eq!(err, ServeError::Input(InputError::NonFinite { index: 2, entry: 5 }));
        assert!(format!("{err}").contains("non-finite"));
    }

    #[test]
    fn pipelined_batches_overlap_in_time() {
        let (tensor, part, n) = setup(2);
        let xs = vectors(n, 8);
        let requests: Vec<ServeRequest> =
            xs.iter().enumerate().map(|(i, x)| ServeRequest::new(i as u64, x.clone())).collect();
        let run = parallel_sttsv_serve_pipelined(&tensor, &part, &requests, Mode::Scheduled, 1, 2)
            .unwrap();
        // Batch k+1 is admitted (queue wait ends) before batch k finishes:
        // with 4 batches, at least one successor must begin before its
        // predecessor's end-to-end completion — the pipeline's signature.
        let mut overlapped = false;
        for k in 1..4 {
            let prev_end = run.records[2 * (k - 1)].e2e_ns;
            let begin = run.records[2 * k].queue_wait_ns + requests[2 * k].arrival_ns;
            if begin < prev_end {
                overlapped = true;
            }
        }
        assert!(overlapped, "no batch was admitted before its predecessor completed");
    }

    #[test]
    fn flight_windows_carry_request_annotations() {
        let (tensor, part, n) = setup(2);
        let xs = vectors(n, 3);
        let requests: Vec<ServeRequest> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| ServeRequest::new(40 + i as u64, x.clone()))
            .collect();
        let run = parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, 1, 3).unwrap();
        assert_eq!(run.flight.len(), part.num_procs());
        for snap in &run.flight {
            assert!(snap.overhead.recorded > 0, "recorder is always on");
            // Every rank cuts every request's shards inside a batch-form
            // phase that carries the request's id.
            for id in 40..43u64 {
                assert!(
                    snap.events.iter().any(|e| e.request == Some(id)
                        && matches!(e.kind, CommEventKind::PhaseEnter { name: "batch-form", .. })),
                    "rank {} has no batch-form record for request {id}",
                    snap.rank
                );
            }
            // The fused kernel pass is shared by the batch: exactly one
            // unattributed compute:kernel enter for the one batch.
            let kernel: Vec<_> = snap
                .events
                .iter()
                .filter(|e| {
                    matches!(e.kind, CommEventKind::PhaseEnter { name: "compute:kernel", .. })
                })
                .collect();
            assert_eq!(kernel.len(), 1, "rank {}: one kernel pass per batch", snap.rank);
            assert!(kernel.iter().all(|e| e.request.is_none()));
            // Exchange records are batch-scoped: sends are unattributed.
            assert!(snap
                .events
                .iter()
                .filter(|e| matches!(e.kind, CommEventKind::Send { .. }))
                .all(|e| e.request.is_none()));
        }
    }
}
