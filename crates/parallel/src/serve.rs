//! Batched serving of STTSV requests with request-scoped tracing.
//!
//! The throughput path ([`parallel_sttsv_multi_planned`]) amortizes the α
//! term by moving a whole batch through one exchange-phase pair — but it
//! answers only "how long did the batch take". A serving system needs the
//! *per-request* decomposition: how long did request 17 queue, how long
//! did its batch take to form, how long was the kernel pass and the
//! exchange it shared with its batch. [`parallel_sttsv_serve`] runs a
//! stream of [`ServeRequest`]s through the compiled-plan batched kernel and
//! measures exactly that, with straggler semantics (a span is as slow as
//! its slowest rank — the time a client would actually observe). The
//! per-request work — cutting each request's shards — runs in its own
//! `batch-form` phase tagged with the request's id in the flight recorder
//! and the `CommEvent` log; the fused kernel pass and the exchange serve
//! the whole batch and stay unattributed.
//!
//! Results are bit-identical to [`parallel_sttsv_multi_planned`] over the
//! same batches: the serving layer changes *when* things are measured,
//! never *what* is computed.
//!
//! [`parallel_sttsv_multi_planned`]: crate::algorithm5::parallel_sttsv_multi_planned

use crate::algorithm5::{check_dims, InputError, Machine, Mode, ServedBatch};
use crate::partition::TetraPartition;
use std::sync::Arc;
use std::time::Duration;
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
    /// Arrival time on the serving clock (ns). Queue wait is measured
    /// from here to the start of the batch that carries the request.
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
    /// dimension (the vector index is the request's position).
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
    /// Arrival → the carrying batch starting to form.
    pub queue_wait_ns: u64,
    /// Shard extraction / batch assembly.
    pub batch_form_ns: u64,
    /// The batch's fused kernel pass (slowest rank) — shared by every
    /// request in the batch, like `exchange_ns`: each tensor row is applied
    /// to every request's vector in one pass.
    pub compute_ns: u64,
    /// The batch's gather + reduce exchange phases (slowest rank each) —
    /// shared by every request in the batch.
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
/// records and assembles its slice of the outputs.
#[allow(clippy::too_many_arguments)]
fn merge_batch(
    part: &TetraPartition,
    batch: &[ServeRequest],
    k: usize,
    per_rank: &[&ServedBatch],
    retries: u32,
    offset: usize,
    ys: &mut [Vec<f64>],
    ternary_per_rank: &mut [u64],
    records: &mut Vec<RequestRecord>,
) {
    let begin = per_rank.iter().map(|b| b.begin_ns).max().unwrap_or(0);
    let form = per_rank.iter().map(|b| b.formed_ns.saturating_sub(b.begin_ns)).max().unwrap_or(0);
    let gather = per_rank.iter().map(|b| b.spans.gather_ns).max().unwrap_or(0);
    let reduce = per_rank.iter().map(|b| b.spans.reduce_ns).max().unwrap_or(0);
    let end = per_rank.iter().map(|b| b.spans.end_ns).max().unwrap_or(0);
    let compute = per_rank.iter().map(|b| b.spans.compute_ns).max().unwrap_or(0);
    for (v, r) in batch.iter().enumerate() {
        records.push(RequestRecord {
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
        ternary_per_rank[p] += rb.ternary;
        for (v, shards) in rb.ys.iter().enumerate() {
            part.place_shards(p, shards, &mut ys[offset + v]);
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

    /// A batch's straggler-merged records are final: feed the latency
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

/// Serves `requests` through the compiled-plan batched STTSV kernel.
///
/// Requests are carried in submission order, `batch_cap` per batch (the
/// last batch may be smaller). `threads > 1` attaches a worker pool per
/// rank.
/// Returns [`ServeError::ZeroBatchCap`] when `batch_cap == 0` and
/// [`ServeError::Input`] when the tensor or a request vector has the wrong
/// dimension.
pub fn parallel_sttsv_serve(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
) -> Result<ServeRun, ServeError> {
    serve(tensor, part, requests, mode, threads, batch_cap, None, false)
}

/// [`parallel_sttsv_serve`] with an optional live telemetry plane.
///
/// When a plane is attached, every rank publishes its per-phase word
/// counts into its plane cell as it communicates, rank 0 publishes queue
/// depth and batch occupancy into the serve cell as each batch is
/// admitted, and the driver feeds the per-request latency histograms once
/// the straggler merge is done. The computed `ys` and [`CostReport`] are
/// bit-identical with and without the plane — telemetry observes, it
/// never steers.
pub fn parallel_sttsv_serve_with(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
    telemetry: Option<&Arc<TelemetryPlane>>,
) -> Result<ServeRun, ServeError> {
    serve(tensor, part, requests, mode, threads, batch_cap, telemetry, false)
}

/// [`parallel_sttsv_serve`] with the **double-buffered pipeline**: while
/// batch `k` computes, batch `k + 1` is formed and its gather-x messages
/// are already in flight, alternating between two plan workspaces per
/// rank ([`RankContext::sttsv_serve_pipelined`]). Outputs, ternary counts
/// and the [`CostReport`] are bit-identical to the sequential serving
/// loop — per-sender FIFO delivery keeps back-to-back batches on the same
/// round tags unambiguous — while each batch's recorded exchange span now
/// measures only its *exposed* gather time (the part its predecessor's
/// compute could not hide). Scheduled mode pipelines; the all-to-all
/// modes run sequential barrier batches (their collective is one
/// indivisible step) and produce records identical in structure.
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
    serve(tensor, part, requests, mode, threads, batch_cap, None, true)
}

/// The scaffold of the one-universe serving drivers: validate and chunk
/// the requests, run every batch in one universe (sequentially or
/// `pipelined`), then straggler-merge the per-rank batches.
#[allow(clippy::too_many_arguments)]
fn serve(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
    telemetry: Option<&Arc<TelemetryPlane>>,
    pipelined: bool,
) -> Result<ServeRun, ServeError> {
    let batches = batches(tensor, part, requests, batch_cap)?;
    let mut universe = Universe::new(part.num_procs());
    if let Some(plane) = telemetry {
        universe = universe.with_telemetry(plane.clone());
    }
    let machine = Machine::new(tensor, part, mode, threads);
    let (rank_results, report, _, flight) = machine.run(universe, false, |comm, ctx| {
        let form = |k: usize| {
            // All batches run inside one universe, so the live queue-depth
            // view has to come from within: rank 0 publishes it as each
            // batch is admitted.
            if let (0, Some(plane)) = (comm.rank(), telemetry) {
                let queued = requests.len() - k * batch_cap;
                ServeTelemetry { plane }.batch_admitted(queued, batches[k].len(), batch_cap);
            }
            form_batch(comm, part, batches[k])
        };
        if pipelined {
            ctx.sttsv_serve_pipelined(comm, batches.len(), form)
        } else {
            ctx.sttsv_serve(comm, batches.len(), form)
        }
    });

    let mut ys = vec![vec![0.0; part.dim()]; requests.len()];
    let mut ternary_per_rank = vec![0u64; part.num_procs()];
    let mut records = Vec::with_capacity(requests.len());
    for (k, batch) in batches.iter().enumerate() {
        let per_rank: Vec<&ServedBatch> = rank_results.iter().map(|b| &b[k]).collect();
        merge_batch(
            part,
            batch,
            k,
            &per_rank,
            0,
            k * batch_cap,
            &mut ys,
            &mut ternary_per_rank,
            &mut records,
        );
    }
    // The straggler merge needs every rank, so the latency histograms are
    // fed once, after the universe has returned.
    if let Some(plane) = telemetry {
        ServeTelemetry { plane }.batch_done(&records, 0);
    }
    Ok(ServeRun { ys, report, ternary_per_rank, records, flight })
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

impl ChaosPolicy {
    /// A policy with serving-friendly defaults: 2 retries, 10 ms base
    /// backoff, 250 ms recv timeout.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosPolicy {
            plan,
            max_retries: 2,
            backoff: Duration::from_millis(10),
            recv_timeout: Duration::from_millis(250),
        }
    }
}

/// [`parallel_sttsv_serve`] with deterministic fault injection and
/// bounded-retry recovery.
///
/// Each batch runs in its own [`Universe`] with `policy.plan` installed.
/// When a rank fails (injected crash, or a timeout forced by dropped
/// messages), the whole batch is retried with exponential backoff, up to
/// `policy.max_retries` times; each retry re-keys the plan's PRNG streams
/// via [`FaultPlan::for_attempt`], so an attempt-0 crash spec lets the
/// retry succeed. A batch that exhausts its retries is *degraded*: every
/// request in it is answered by the sequential [`sttsv_sym`] fallback and
/// its records carry `degraded = true` with zeroed timing spans.
///
/// Recovered (non-degraded) outputs are bit-identical to the fault-free
/// [`parallel_sttsv_serve`] run — a retried batch recomputes from the
/// original request vectors in a fresh universe, and the arithmetic is
/// deterministic. The merged [`CostReport`] includes the words actually
/// moved by *failed* attempts too: retries have a real communication
/// cost. `flight` holds the final attempt of the last batch (earlier
/// windows are superseded); with an inert plan (`drop_prob = 0`, no
/// crash) the per-batch costs equal the fault-free path's.
pub fn parallel_sttsv_serve_chaos(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
    policy: &ChaosPolicy,
) -> Result<ServeRun, ServeError> {
    parallel_sttsv_serve_chaos_with(
        tensor, part, requests, mode, threads, batch_cap, policy, None, None,
    )
}

/// [`parallel_sttsv_serve_chaos`] with an optional live telemetry plane
/// and an optional SLO burn-rate evaluator.
///
/// The chaos loop runs one universe per batch attempt, so the driver is
/// free between batches: it publishes queue depth / occupancy as each
/// batch is admitted, feeds the latency histograms and retry/degraded
/// counters as each batch's records merge, and — when `slo` is given —
/// evaluates the burn rate there too. An alert raised between batches is
/// stamped into *every* rank's flight ring by the next batch's
/// communicators (fresh ranks start with an empty seen-alert mark), so a
/// post-mortem window shows which alerts were already burning when the
/// batch failed.
#[allow(clippy::too_many_arguments)]
pub fn parallel_sttsv_serve_chaos_with(
    tensor: &SymTensor3,
    part: &TetraPartition,
    requests: &[ServeRequest],
    mode: Mode,
    threads: usize,
    batch_cap: usize,
    policy: &ChaosPolicy,
    telemetry: Option<&Arc<TelemetryPlane>>,
    mut slo: Option<&mut SloBurnRate>,
) -> Result<ServeRun, ServeError> {
    let batches = batches(tensor, part, requests, batch_cap)?;
    let p_count = part.num_procs();
    let machine = Machine::new(tensor, part, mode, threads);

    let mut ys = vec![vec![0.0; part.dim()]; requests.len()];
    let mut report = CostReport { per_rank: vec![RankCost::default(); p_count] };
    let mut ternary_per_rank = vec![0u64; p_count];
    let mut records = Vec::with_capacity(requests.len());
    let mut flight: Vec<FlightSnapshot> = Vec::new();
    let mut offset = 0usize;
    for (k, batch) in batches.iter().enumerate() {
        if let Some(plane) = telemetry {
            ServeTelemetry { plane }.batch_admitted(
                requests.len() - offset,
                batch.len(),
                batch_cap,
            );
        }
        let rank_main = |comm: &Comm| {
            machine.with_rank(comm, |ctx| {
                let mut served = ctx.sttsv_serve(comm, 1, |_| form_batch(comm, part, batch));
                served.pop().expect("one batch served")
            })
        };

        let mut attempt = 0u32;
        let survived = loop {
            let mut universe = Universe::new(p_count)
                .with_recv_timeout(policy.recv_timeout)
                .with_faults(policy.plan.for_attempt(attempt));
            if let Some(plane) = telemetry {
                universe = universe.with_telemetry(plane.clone());
            }
            match universe.try_run_traced(rank_main) {
                Ok((per_rank, batch_report, _traces, batch_flight)) => {
                    report = report.merged(&batch_report);
                    flight = batch_flight;
                    break Some(per_rank);
                }
                Err(failure) => {
                    // Failed attempts still moved real words — keep them.
                    report = report.merged(&failure.report);
                    flight = failure.flight;
                    if attempt >= policy.max_retries {
                        break None;
                    }
                    std::thread::sleep(policy.backoff * (1u32 << attempt.min(16)));
                    attempt += 1;
                }
            }
        };

        match survived {
            Some(per_rank) => {
                let refs: Vec<&ServedBatch> = per_rank.iter().collect();
                merge_batch(
                    part,
                    batch,
                    k,
                    &refs,
                    attempt,
                    offset,
                    &mut ys,
                    &mut ternary_per_rank,
                    &mut records,
                );
            }
            None => {
                for (v, r) in batch.iter().enumerate() {
                    let (y, _ops) = sttsv_sym(tensor, &r.x);
                    ys[offset + v] = y;
                    records.push(RequestRecord {
                        id: r.id,
                        batch: k,
                        batch_index: v,
                        retries: policy.max_retries,
                        degraded: true,
                        ..RequestRecord::default()
                    });
                }
            }
        }
        if let Some(plane) = telemetry {
            ServeTelemetry { plane }.batch_done(&records[records.len() - batch.len()..], attempt);
            // Evaluate the SLO between batches: an alert raised here is
            // stamped into the next batch's flight rings by every rank.
            if let Some(slo) = slo.as_deref_mut() {
                slo.evaluate(plane);
            }
        }
        offset += batch.len();
    }
    Ok(ServeRun { ys, report, ternary_per_rank, records, flight })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm5::{parallel_sttsv, parallel_sttsv_multi_planned};
    use rand::prelude::*;
    use symtensor_core::generate::random_symmetric;
    use symtensor_mpsim::FlightKind;
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
    fn pipelined_serve_is_bit_identical_to_sequential() {
        let (tensor, part, n) = setup(2);
        let xs = vectors(n, 7);
        let requests: Vec<ServeRequest> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| ServeRequest::new(200 + i as u64, x.clone()))
            .collect();
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            for threads in [1usize, 3] {
                let seq =
                    parallel_sttsv_serve(&tensor, &part, &requests, mode, threads, 3).unwrap();
                let pipe =
                    parallel_sttsv_serve_pipelined(&tensor, &part, &requests, mode, threads, 3)
                        .unwrap();
                assert_eq!(pipe.ys, seq.ys, "{mode:?}/{threads}: outputs must be bit-identical");
                assert_eq!(pipe.ternary_per_rank, seq.ternary_per_rank);
                assert_eq!(
                    pipe.report, seq.report,
                    "{mode:?}/{threads}: pipelining must not move a single word"
                );
                assert_eq!(pipe.records.len(), seq.records.len());
                for (pr, sr) in pipe.records.iter().zip(&seq.records) {
                    assert_eq!(
                        (pr.id, pr.batch, pr.batch_index),
                        (sr.id, sr.batch, sr.batch_index)
                    );
                    assert!(pr.compute_ns > 0);
                    assert!(pr.e2e_ns >= pr.compute_ns);
                }
            }
        }
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
                        && e.kind == FlightKind::PhaseEnter
                        && e.phase == Some("batch-form")),
                    "rank {} has no batch-form record for request {id}",
                    snap.rank
                );
            }
            // The fused kernel pass is shared by the batch: exactly one
            // unattributed compute:kernel enter for the one batch.
            let kernel: Vec<_> = snap
                .events
                .iter()
                .filter(|e| e.kind == FlightKind::PhaseEnter && e.phase == Some("compute:kernel"))
                .collect();
            assert_eq!(kernel.len(), 1, "rank {}: one kernel pass per batch", snap.rank);
            assert!(kernel.iter().all(|e| e.request.is_none()));
            // Exchange records are batch-scoped: sends are unattributed.
            assert!(snap
                .events
                .iter()
                .filter(|e| e.kind == FlightKind::Send)
                .all(|e| e.request.is_none()));
        }
    }
}
