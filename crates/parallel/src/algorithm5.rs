//! Algorithm 5: communication-optimal parallel STTSV.
//!
//! Each processor starts with its tetrahedral tensor blocks and `n/P` words
//! of `x`, and ends with `n/P` words of `y`. The algorithm is three phases:
//!
//! 1. **Gather x** — for every owned row block `i ∈ R_p`, collect the other
//!    `λ₁ − 1` shards from the processors of `Q_i` (lines 10–21),
//! 2. **Local compute** — run the symmetric block kernels over
//!    `TB₃(R_p) ∪ N_p ∪ D_p` (lines 24–36),
//! 3. **Reduce y** — send each peer its shard of the partial `y` row blocks
//!    and sum the incoming partials (lines 38–50).
//!
//! Every call runs on the rank's compiled [`RankPlan`]: the owned blocks
//! packed into one arena, every message layout precomputed. A batch of
//! `B` vectors moves through one exchange pair whose messages carry the
//! `B` pieces back-to-back; a single vector is a batch of one, and an
//! `r`-column MTTKRP is a batch of `r`. Every exchange goes through one
//! private dispatcher, shared by the barrier calls and the double-buffered
//! serving loop, and runs as two halves: post every send of the phase,
//! then drain its receives. In scheduled mode both halves walk the
//! edge-colored rounds in order, so a round is a pairing of ranks and a
//! label on its message, not a step a rank waits out. The dispatcher can
//! append a few scalars, a *rider*, to every message of a phase: the
//! eigen-solver ([`crate::hopm`]) carries its norms that way.
//!
//! Communication modes:
//!
//! * [`Mode::Scheduled`] — direct point-to-point exchanges following the
//!   edge-colored schedule; per vector each rank moves
//!   `n(q+1)/(q²+1) − n/P` words, matching the lower bound's leading term
//!   exactly (Section 7.2.2).
//! * [`Mode::AllToAllPadded`] — the paper's All-to-All collective variant:
//!   `P − 1` uniform messages of two shards each, costing
//!   `2n/(q+1)·(1 − 1/P)` per vector — twice the leading term.
//! * [`Mode::AllToAllSparse`] — ablation: the same pairwise collective but
//!   with exact (unpadded) message sizes; word counts equal the scheduled
//!   mode while still taking `P − 1` rounds.

use crate::blocks::OwnedBlocks;
use crate::partition::TetraPartition;
use crate::plan::{ExchangeKind, PlanWorkspace, RankPlan};
use crate::schedule::CommSchedule;
use std::cell::{RefCell, RefMut};
use symtensor_core::SymTensor3;
use symtensor_mpsim::{Comm, CommEvent, CostReport, FlightSnapshot, Universe};
use symtensor_pool::Pool;

/// Communication strategy for the two vector phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Edge-colored point-to-point schedule (optimal bandwidth and steps).
    Scheduled,
    /// Uniform (padded) All-to-All collective, as analyzed in §7.2.2.
    AllToAllPadded,
    /// All-to-All with exact message sizes (ablation).
    AllToAllSparse,
}

const TAG_X: u64 = 1 << 40;
const TAG_Y: u64 = 2 << 40;

/// A driver input whose dimension does not match the data distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputError {
    /// The tensor is `got`-dimensional; the partition covers `expected`.
    TensorDim {
        /// The partition's dimension.
        expected: usize,
        /// The tensor's dimension.
        got: usize,
    },
    /// Input vector `index` has `got` entries; the partition covers
    /// `expected`.
    VectorDim {
        /// Position of the vector among the inputs.
        index: usize,
        /// The partition's dimension.
        expected: usize,
        /// The vector's length.
        got: usize,
    },
    /// Input vector `index` holds a NaN or an infinity at position
    /// `entry`.
    NonFinite {
        /// Position of the vector among the inputs.
        index: usize,
        /// Position of the first non-finite entry within the vector.
        entry: usize,
    },
}

impl std::fmt::Display for InputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputError::TensorDim { expected, got } => {
                write!(f, "tensor dimension {got} does not match the partition's {expected}")
            }
            InputError::VectorDim { index, expected, got } => {
                write!(f, "vector {index} has {got} entries, the partition covers {expected}")
            }
            InputError::NonFinite { index, entry } => {
                write!(f, "vector {index} has a non-finite value at entry {entry}")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// The one input check every driver runs: the tensor and each vector must
/// be `n`-dimensional, and every vector entry finite. The tensor's values
/// are not scanned: that would cost as much as a whole contraction.
pub(crate) fn check_dims<'x>(
    n: usize,
    tensor: &SymTensor3,
    xs: impl IntoIterator<Item = &'x [f64]>,
) -> Result<(), InputError> {
    if tensor.dim() != n {
        return Err(InputError::TensorDim { expected: n, got: tensor.dim() });
    }
    for (index, x) in xs.into_iter().enumerate() {
        if x.len() != n {
            return Err(InputError::VectorDim { index, expected: n, got: x.len() });
        }
        if let Some(entry) = x.iter().position(|v| !v.is_finite()) {
            return Err(InputError::NonFinite { index, entry });
        }
    }
    Ok(())
}

/// Everything one rank needs to run STTSV repeatedly (the tensor blocks are
/// extracted once and reused across iterations, e.g. by HOPM).
pub struct RankContext<'a> {
    /// The shared data distribution.
    pub part: &'a TetraPartition,
    /// Communication strategy for the vector phases.
    pub mode: Mode,
    /// The point-to-point schedule (required for [`Mode::Scheduled`]).
    pub schedule: Option<&'a CommSchedule>,
    /// Optional shared-memory worker pool for the local-compute phase
    /// (see [`RankContext::with_pool`]); `None` runs the sequential
    /// kernels.
    pub pool: Option<&'a Pool>,
    /// The compiled plan, the rank's only copy of its tensor blocks.
    plan: RankPlan,
    /// The plan's reusable flat slabs and recycled message buffers.
    plan_ws: RefCell<PlanWorkspace>,
}

impl<'a> RankContext<'a> {
    /// Builds the context for `rank`, extracting its tensor blocks
    /// (never communicated) straight into the compiled plan's arena.
    pub fn new(
        tensor: &SymTensor3,
        part: &'a TetraPartition,
        rank: usize,
        mode: Mode,
        schedule: Option<&'a CommSchedule>,
    ) -> Self {
        Self::with_compiled(part, RankPlan::from_tensor(tensor, part, rank), mode, schedule)
    }

    /// Assembles the context for `rank` from its already-extracted blocks —
    /// the receiving end of a tensor scatter, or any caller that obtained
    /// [`OwnedBlocks`] without the global tensor. The blocks are packed
    /// into the plan's arena and released.
    pub fn from_parts(
        part: &'a TetraPartition,
        owned: OwnedBlocks,
        rank: usize,
        mode: Mode,
        schedule: Option<&'a CommSchedule>,
    ) -> Self {
        Self::with_compiled(part, RankPlan::build(part, &owned, rank), mode, schedule)
    }

    fn with_compiled(
        part: &'a TetraPartition,
        plan: RankPlan,
        mode: Mode,
        schedule: Option<&'a CommSchedule>,
    ) -> Self {
        assert!(
            mode != Mode::Scheduled || schedule.is_some(),
            "scheduled mode needs a CommSchedule"
        );
        RankContext {
            part,
            mode,
            schedule,
            pool: None,
            plan,
            plan_ws: RefCell::new(PlanWorkspace::new()),
        }
    }

    /// Attaches a shared-memory worker pool: the local-compute phase then
    /// splits each vector's blocks across the pool's threads (results
    /// bit-identical across thread counts) instead of running the
    /// sequential kernels. This is the node-level `threads` knob below the
    /// simulated distributed machine.
    pub fn with_pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Returns the context unchanged: every call already runs on the
    /// compiled rank plan (see [`RankContext::compile`]).
    pub fn with_plan(self) -> Self {
        self
    }

    /// Returns this rank's [`RankPlan`], compiled when the context was
    /// built: the owned blocks packed into one contiguous arena and every
    /// message layout precomputed. Every call reuses the plan, and the
    /// steady state performs zero heap allocations beyond the returned
    /// output shards.
    pub fn compile(&self, rank: usize) -> &RankPlan {
        assert_eq!(self.plan.rank(), rank, "one RankContext serves one rank");
        &self.plan
    }

    /// One distributed STTSV: `my_shards[t]` is this rank's shard of row
    /// block `R_p[t]` of `x`; returns this rank's shards of `y` (same
    /// keying) and the ternary-multiplication count.
    pub fn sttsv(&self, comm: &Comm, my_shards: &[Vec<f64>]) -> (Vec<Vec<f64>>, u64) {
        let (mut ys, ternary, _) = self.run_barrier(comm, std::slice::from_ref(&my_shards));
        (ys.pop().expect("one output per input"), ternary)
    }

    /// Batched distributed STTSV: runs `B = my_shards.len()` contractions
    /// through **one** pair of exchange phases — the serving/throughput
    /// path. `my_shards[v][t]` is this rank's shard of row block `R_p[t]`
    /// of input vector `v`; returns `ys[v][t]` keyed the same way, plus the
    /// total ternary-multiplication count (`B ×` the single-vector count).
    ///
    /// Each peer message carries the `B` vectors' pieces back-to-back, so
    /// the per-rank **message count and round count are those of a single
    /// STTSV** while words scale linearly with `B` — the α (latency) term
    /// of the α-β-γ cost is amortized across the batch, exactly like the
    /// multi-vector contractions in the Multi-TTM literature. Word counts
    /// are `B ×` the single-vector counts in every mode (the padded
    /// collective pads each message to `B ×` the single-vector pad).
    pub fn sttsv_multi(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
    ) -> (Vec<Vec<Vec<f64>>>, u64) {
        let (ys, ternary, _) = self.run_barrier(comm, my_shards);
        (ys, ternary)
    }

    /// [`RankContext::sttsv_multi`] for a batch of serving requests:
    /// `requests[v]` is the serving-layer id of vector `v`. The exchange
    /// phases and the fused kernel pass are timed as a whole, since each
    /// message carries every request's pieces back-to-back and each tensor
    /// row is applied to every request's vector in one pass; neither can
    /// be attributed to one request. Per-request attribution belongs to
    /// the work that is per request — the serving layer's `batch-form`
    /// phases.
    ///
    /// Returns the outputs and ternary count of [`RankContext::sttsv_multi`]
    /// (bit-identical) plus this rank's [`BatchSpans`].
    pub fn sttsv_multi_requests(
        &self,
        comm: &Comm,
        my_shards: &[Vec<Vec<f64>>],
        requests: &[u64],
    ) -> (Vec<Vec<Vec<f64>>>, u64, BatchSpans) {
        assert_eq!(my_shards.len(), requests.len(), "one request id per vector");
        self.run_barrier(comm, my_shards)
    }

    /// Loads the batch's shards into `ws`, growing it to the batch first.
    fn load<S: AsRef<[Vec<f64>]>>(&self, ws: &mut PlanWorkspace, plan: &RankPlan, shards: &[S]) {
        plan.ensure_capacity(ws, shards.len());
        for (v, s) in shards.iter().enumerate() {
            plan.load_shards(ws, v, s.as_ref());
        }
    }

    /// The barrier three-phase body behind every call but the pipelined
    /// serving loop: the batch is loaded, gathered, computed in one fused
    /// pass, reduced and extracted.
    fn run_barrier<S: AsRef<[Vec<f64>]>>(
        &self,
        comm: &Comm,
        my_shards: &[S],
    ) -> (Vec<Vec<Vec<f64>>>, u64, BatchSpans) {
        if my_shards.is_empty() {
            return (Vec::new(), 0, BatchSpans::empty(comm.elapsed_ns()));
        }
        let (ys, ternary, spans, _) = self.gather(comm, my_shards, &[]).finish(comm, &[]);
        (ys, ternary, spans)
    }

    /// Whether each exchange phase meets every other rank, so that a rider
    /// reaches every rank: always in the all-to-all modes (their collective
    /// sends `P − 1` messages), and in scheduled mode exactly when every
    /// pair of ranks shares a row block (spherical `q = 2`). The partition
    /// and mode alone decide it, so every rank gets the same answer.
    pub(crate) fn meets_every_peer(&self) -> bool {
        match self.mode {
            Mode::Scheduled => self.schedule.is_some_and(CommSchedule::meets_every_pair),
            Mode::AllToAllPadded | Mode::AllToAllSparse => true,
        }
    }

    /// The first half of a barrier STTSV: loads the batch and runs its
    /// gather-x, with `rider` appended to every gather message. The rider
    /// is empty, and the wire traffic that of a plain call, except where
    /// the solver carries its scalars ([`RankContext::meets_every_peer`]
    /// must hold for a non-empty rider to reach every rank).
    pub(crate) fn gather<S: AsRef<[Vec<f64>]>>(
        &self,
        comm: &Comm,
        my_shards: &[S],
        rider: &[f64],
    ) -> Gathered<'_> {
        let batch = my_shards.len();
        let start_ns = comm.elapsed_ns();
        let plan = self.compile(comm.rank());
        let mut ws = self.plan_ws.borrow_mut();
        self.load(&mut ws, plan, my_shards);
        let gather_t0 = comm.elapsed_ns();
        comm.with_phase("gather-x", || {
            self.exchange(comm, plan, &mut ws, ExchangeKind::Gather, batch, rider)
        });
        let gather_ns = comm.elapsed_ns().saturating_sub(gather_t0);
        let riders = ws.rider_sum(rider.len());
        Gathered { ctx: self, ws, batch, start_ns, gather_ns, riders }
    }

    /// The local-compute phase over slabs `0..batch`: one `compute:kernel`
    /// span for the batch's fused pass over the arena, carrying the plan's
    /// `plan:arena_bytes` / `plan:fresh_allocs` gauges. Returns the ternary
    /// count and the pass's nanoseconds.
    fn kernels(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        batch: usize,
    ) -> (u64, u64) {
        comm.with_phase("local-compute", || {
            let t0 = comm.elapsed_ns();
            let ternary = comm.with_phase("compute:kernel", || {
                let t = plan.compute(ws, batch, self.pool);
                comm.annotate_counter("plan:arena_bytes", plan.arena_bytes() as u64);
                comm.annotate_counter("plan:fresh_allocs", ws.fresh_allocs());
                t
            });
            (ternary, comm.elapsed_ns().saturating_sub(t0))
        })
    }

    /// Serves `n_batches` request batches through a **double-buffered
    /// pipeline**, the one serving loop: while batch `k` computes, batch
    /// `k + 1` is already formed and loaded, alternating between two
    /// leased [`PlanWorkspace`]s so the staged batch never clobbers the
    /// computing one. `form(k)` produces batch `k`'s shards and request
    /// ids the moment the pipeline is ready to admit it — which is when
    /// its queue wait ends.
    ///
    /// In scheduled mode a staged batch's gather-x messages also go on
    /// the wire before the current batch computes. Per-sender FIFO
    /// delivery makes that safe without new tags: batch `k`'s gather
    /// message on a given `(src, round)` link is always claimed before
    /// batch `k + 1`'s (the mailbox preserves arrival order per
    /// `(src, tag)`), so the wire traffic, cost counters and output bits
    /// are those of one [`RankContext::sttsv_multi`] per batch — only the
    /// *timing* moves. Every exchange, here and in the barrier calls, is
    /// a send-only `Post` followed by a receive-only `Drain`; the loop
    /// only splits the gather's two halves across the pipeline, while
    /// reduce-y runs them back to back. The all-to-all modes stage form +
    /// load only: their collective is one indivisible step, run when the
    /// batch drains.
    pub fn sttsv_serve_pipelined(
        &self,
        comm: &Comm,
        n_batches: usize,
        mut form: impl FnMut(usize) -> (Vec<Vec<Vec<f64>>>, Vec<u64>),
    ) -> Vec<ServedBatch> {
        let plan = self.compile(comm.rank());
        let mut wss = [PlanWorkspace::new(), PlanWorkspace::new()];
        // Admits batch `k` into workspace `ws`: form, load, and post its
        // gather. Receives are deferred to the batch's own turn — that
        // deferral is the pipeline.
        let mut stage = |k: usize, ws: &mut PlanWorkspace| -> (u64, u64, Vec<u64>) {
            let begin_ns = comm.elapsed_ns();
            let (shards, ids) = form(k);
            let batch = shards.len();
            self.load(ws, plan, &shards);
            let formed_ns = comm.elapsed_ns();
            comm.with_phase("gather-x", || {
                self.plan_exchange(comm, plan, ws, ExchangeKind::Gather, batch, Walk::Post, &[])
            });
            (begin_ns, formed_ns, ids)
        };
        let mut pending: [Option<(u64, u64, Vec<u64>)>; 2] = [None, None];
        let mut out = Vec::with_capacity(n_batches);
        if n_batches > 0 {
            pending[0] = Some(stage(0, &mut wss[0]));
        }
        for k in 0..n_batches {
            let cur = k % 2;
            let (begin_ns, formed_ns, ids) =
                pending[cur].take().expect("batch was staged before its turn");
            let batch = ids.len();
            // Drain this batch's gather — the *exposed* gather time; in
            // scheduled mode everything hidden behind the previous batch's
            // compute has already arrived and costs only a mailbox claim.
            let gather_t0 = comm.elapsed_ns();
            comm.with_phase("gather-x", || {
                let ws = &mut wss[cur];
                self.plan_exchange(comm, plan, ws, ExchangeKind::Gather, batch, Walk::Drain, &[])
            });
            let gather_ns = comm.elapsed_ns().saturating_sub(gather_t0);
            // Admit the next batch before this one computes: its forming,
            // and in scheduled mode its gather traffic, ride under our
            // kernel time.
            if k + 1 < n_batches {
                pending[1 - cur] = Some(stage(k + 1, &mut wss[1 - cur]));
            }
            let (ternary, compute_ns) = self.kernels(comm, plan, &mut wss[cur], batch);
            let reduce_t0 = comm.elapsed_ns();
            comm.with_phase("reduce-y", || {
                self.exchange(comm, plan, &mut wss[cur], ExchangeKind::Reduce, batch, &[])
            });
            let reduce_ns = comm.elapsed_ns().saturating_sub(reduce_t0);
            let ys = (0..batch).map(|v| plan.extract(&wss[cur], v)).collect();
            let spans = BatchSpans {
                start_ns: begin_ns,
                gather_ns,
                compute_ns,
                reduce_ns,
                end_ns: comm.elapsed_ns(),
            };
            out.push(ServedBatch { begin_ns, formed_ns, spans, ys, ternary });
        }
        out
    }

    /// One phase's whole exchange: the `Post` half, then the `Drain` half.
    fn exchange(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        kind: ExchangeKind,
        batch: usize,
        rider: &[f64],
    ) {
        self.plan_exchange(comm, plan, ws, kind, batch, Walk::Post, rider);
        self.plan_exchange(comm, plan, ws, kind, batch, Walk::Drain, rider);
    }

    /// The half of one phase's exchange that `walk` names: packs from /
    /// unpacks into the flat slabs using the precompiled piece layouts,
    /// with message buffers drawn from (and recycled into) the workspace
    /// free list. Scheduled mode walks the edge-colored rounds. The
    /// all-to-all modes run one collective on `Drain`, padded to
    /// `batch · pad_unit` words in [`Mode::AllToAllPadded`], and apply
    /// arrivals in ascending peer order; their `Post` is a no-op. Every
    /// message carries `rider` after its pieces (and padding); the riders
    /// received, and this rank's own, are kept in `ws` by rank.
    #[allow(clippy::too_many_arguments)]
    fn plan_exchange(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        kind: ExchangeKind,
        batch: usize,
        walk: Walk,
        rider: &[f64],
    ) {
        if !rider.is_empty() {
            ws.keep_rider(comm.rank(), rider);
        }
        match self.mode {
            Mode::Scheduled => self.walk_rounds(comm, plan, ws, kind, batch, walk, rider),
            Mode::AllToAllPadded | Mode::AllToAllSparse if walk == Walk::Post => {}
            Mode::AllToAllPadded | Mode::AllToAllSparse => {
                let p_count = self.part.num_procs();
                let pad_len = batch * plan.pad_unit();
                // Recycle the outer collective vector across calls.
                let mut sendbufs = std::mem::take(&mut ws.a2a_send);
                sendbufs.resize_with(p_count, Vec::new);
                for pidx in 0..plan.peers().len() {
                    let peer = plan.peers()[pidx].peer;
                    let mut buf = plan.pack(ws, kind, pidx, batch);
                    if self.mode == Mode::AllToAllPadded {
                        debug_assert!(buf.len() <= pad_len);
                        buf.resize(pad_len, 0.0);
                    }
                    ws.attach_rider(rider, &mut buf);
                    sendbufs[peer] = buf;
                }
                let mut recvd = comm.all_to_all_v(sendbufs).expect("all-to-all failed");
                for (peer, slot) in recvd.iter_mut().enumerate() {
                    if peer == comm.rank() {
                        continue;
                    }
                    let mut buf = std::mem::take(slot);
                    ws.detach_rider(peer, rider.len(), &mut buf);
                    let pidx = plan.peer_slot(peer).expect("every non-self rank is a peer");
                    plan.unpack(ws, kind, pidx, batch, buf);
                }
                ws.a2a_send = recvd;
            }
        }
    }

    /// The scheduled exchange: walks the edge-colored rounds, posting each
    /// round's send (packed from the slabs) on `Post` and taking each
    /// round's receive (unpacked into them) on `Drain`. Each round is
    /// annotated on the event stream while its message moves, and `Drain`
    /// counts every round in which this rank sends or receives. A round is
    /// a pairing and a label, not a timed step: every send of the phase is
    /// on the wire before its first receive, and the receives are taken,
    /// and unpacked, in round order.
    #[allow(clippy::too_many_arguments)]
    fn walk_rounds(
        &self,
        comm: &Comm,
        plan: &RankPlan,
        ws: &mut PlanWorkspace,
        kind: ExchangeKind,
        batch: usize,
        walk: Walk,
        rider: &[f64],
    ) {
        let schedule = self.schedule.expect("scheduled mode requires a schedule");
        let (tag_base, failed) = match kind {
            ExchangeKind::Gather => (TAG_X, "gather-x exchange failed"),
            ExchangeKind::Reduce => (TAG_Y, "reduce-y exchange failed"),
        };
        for (round, act) in schedule.actions(comm.rank()).iter().enumerate() {
            let tag = tag_base + round as u64;
            comm.annotate_round(round as u64);
            match walk {
                Walk::Post => {
                    if let Some(dst) = act.send_to {
                        let pidx = plan.peer_slot(dst).expect("scheduled peer is in the plan");
                        let mut buf = plan.pack(ws, kind, pidx, batch);
                        ws.attach_rider(rider, &mut buf);
                        comm.send(dst, tag, buf);
                    }
                }
                Walk::Drain => {
                    if let Some(src) = act.recv_from {
                        let mut buf = comm.recv(src, tag).expect(failed);
                        ws.detach_rider(src, rider.len(), &mut buf);
                        let pidx = plan.peer_slot(src).expect("scheduled peer is in the plan");
                        plan.unpack(ws, kind, pidx, batch, buf);
                    }
                    if act.send_to.is_some() || act.recv_from.is_some() {
                        comm.count_round();
                    }
                }
            }
        }
        comm.clear_round();
    }
}

/// A batch whose gather-x is in, between the exchange phases of one
/// barrier STTSV ([`RankContext::gather`]). Dropping it instead of
/// calling [`Gathered::finish`] stops the call before the kernels; every
/// rank must then stop.
pub(crate) struct Gathered<'c> {
    ctx: &'c RankContext<'c>,
    ws: RefMut<'c, PlanWorkspace>,
    batch: usize,
    start_ns: u64,
    gather_ns: u64,
    riders: Vec<f64>,
}

impl Gathered<'_> {
    /// Every rank's gather rider summed in rank order (empty without a
    /// rider): the same bits on every rank, and the bits
    /// [`Comm::all_reduce`] gives.
    pub(crate) fn riders(&self) -> &[f64] {
        &self.riders
    }

    /// Divides the gathered input of a one-vector batch by `divisor` and
    /// copies this rank's shards of the result into `out`.
    pub(crate) fn normalize(&mut self, divisor: f64, out: &mut [Vec<f64>]) {
        debug_assert_eq!(self.batch, 1, "one vector per normalized call");
        let plan = &self.ctx.plan;
        plan.scale_x(&mut self.ws, 0, divisor);
        plan.extract_x_into(&self.ws, 0, out);
    }

    /// The second half: the fused kernel pass and the reduce-y, with
    /// `rider` appended to every reduce message. Returns this rank's output
    /// shards `ys[v][t]`, the ternary count, the batch's spans and every
    /// rank's reduce rider summed in rank order.
    pub(crate) fn finish(
        mut self,
        comm: &Comm,
        rider: &[f64],
    ) -> (Vec<Vec<Vec<f64>>>, u64, BatchSpans, Vec<f64>) {
        let (ctx, batch) = (self.ctx, self.batch);
        let plan = &ctx.plan;
        let ws = &mut *self.ws;
        let (ternary, compute_ns) = ctx.kernels(comm, plan, ws, batch);
        let reduce_t0 = comm.elapsed_ns();
        comm.with_phase("reduce-y", || {
            ctx.exchange(comm, plan, ws, ExchangeKind::Reduce, batch, rider)
        });
        let reduce_ns = comm.elapsed_ns().saturating_sub(reduce_t0);
        let ys = (0..batch).map(|v| plan.extract(ws, v)).collect();
        let spans = BatchSpans {
            start_ns: self.start_ns,
            gather_ns: self.gather_ns,
            compute_ns,
            reduce_ns,
            end_ns: comm.elapsed_ns(),
        };
        (ys, ternary, spans, ws.rider_sum(rider.len()))
    }
}

/// Which half of one phase's exchange a [`RankContext`] call performs.
/// Every exchange runs `Post` and then `Drain`; only the serving loop
/// puts work between them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// Sends only. A no-op for the all-to-all collective.
    Post,
    /// Receives only, of the messages a `Post` announced, in round order.
    /// The all-to-all modes run their whole collective here.
    Drain,
}

/// How [`parallel_sttsv_with`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SttsvOptions {
    /// Communication strategy for the vector phases.
    pub mode: Mode,
    /// Worker threads per rank for the local-compute phase; `≤ 1` runs the
    /// sequential kernels. Results are bit-identical across thread counts
    /// above 1, and communication does not depend on it.
    pub threads: usize,
    /// Keep each rank's complete [`CommEvent`] log (phase-annotated
    /// sends and receives, round annotations) instead of the bounded
    /// flight window, ready for the `symtensor-obs` exporters. Tracing
    /// never touches the cost counters.
    pub trace: bool,
}

impl SttsvOptions {
    /// Sequential kernels, bounded event logs.
    pub fn new(mode: Mode) -> Self {
        SttsvOptions { mode, threads: 1, trace: false }
    }
}

/// One rank's results, the run's cost report, and every rank's event log.
pub(crate) type Ranks<R> = (Vec<R>, CostReport, Vec<FlightSnapshot>);

/// The simulated machine every driver runs on: one [`RankContext`] per
/// processor, with the tensor blocks extracted per rank (never
/// communicated), the schedule built once, and an optional worker pool of
/// `threads` threads per rank.
pub(crate) struct Machine<'a> {
    tensor: &'a SymTensor3,
    part: &'a TetraPartition,
    mode: Mode,
    threads: usize,
    schedule: Option<CommSchedule>,
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        tensor: &'a SymTensor3,
        part: &'a TetraPartition,
        mode: Mode,
        threads: usize,
    ) -> Self {
        let schedule = (mode == Mode::Scheduled).then(|| CommSchedule::build(part));
        Machine { tensor, part, mode, threads, schedule }
    }

    /// Runs `f` with this rank's context.
    pub(crate) fn with_rank<R>(&self, comm: &Comm, f: impl FnOnce(&RankContext<'_>) -> R) -> R {
        let pool = (self.threads > 1).then(|| Pool::new(self.threads));
        let mut ctx = RankContext::new(
            self.tensor,
            self.part,
            comm.rank(),
            self.mode,
            self.schedule.as_ref(),
        );
        if let Some(pool) = pool.as_ref() {
            ctx = ctx.with_pool(pool);
        }
        f(&ctx)
    }

    /// Runs `f` on every rank of `universe`. The event logs are complete
    /// when `trace`, the bounded flight windows otherwise.
    ///
    /// # Panics
    /// Propagates a rank's panic (a traced run reports the failing rank
    /// and its phase in the message).
    pub(crate) fn run<R: Send>(
        &self,
        universe: Universe,
        trace: bool,
        f: impl Fn(&Comm, &RankContext<'_>) -> R + Sync,
    ) -> Ranks<R> {
        let rank_main = |comm: &Comm| self.with_rank(comm, |ctx| f(comm, ctx));
        if trace {
            universe.try_run_traced(rank_main).unwrap_or_else(|failure| panic!("{failure}"))
        } else {
            universe.run_flight(rank_main)
        }
    }
}

/// The result of a driver-level parallel STTSV run.
#[derive(Clone, Debug)]
pub struct SttsvRun {
    /// The assembled output vector `y = 𝓐 ×₂ x ×₃ x`.
    pub y: Vec<f64>,
    /// Exact per-rank communication costs.
    pub report: CostReport,
    /// Per-rank ternary-multiplication counts (the §7.1 work measure).
    pub ternary_per_rank: Vec<u64>,
}

/// The result of a driver-level **batched** parallel STTSV run.
#[derive(Clone, Debug)]
pub struct SttsvMultiRun {
    /// One assembled output vector per input vector: `ys[v] = 𝓐 ×₂ x_v ×₃ x_v`.
    pub ys: Vec<Vec<f64>>,
    /// Exact per-rank communication costs for the whole batch.
    pub report: CostReport,
    /// Per-rank ternary-multiplication counts summed over the batch
    /// (`B ×` the single-vector counts).
    pub ternary_per_rank: Vec<u64>,
    /// Each rank's event log: the complete run under
    /// [`SttsvOptions::trace`], the always-on bounded flight window
    /// otherwise.
    pub flight: Vec<FlightSnapshot>,
}

impl SttsvMultiRun {
    /// Each rank's recorded events, in the shape the `symtensor-obs`
    /// exporters take (complete only under [`SttsvOptions::trace`]).
    pub fn traces(&self) -> Vec<Vec<CommEvent>> {
        self.flight.iter().map(|log| log.events.clone()).collect()
    }
}

/// One rank's timing decomposition of a request-annotated batch
/// ([`RankContext::sttsv_multi_requests`]), in the rank's own
/// [`Comm::elapsed_ns`] clock. The serving driver merges these across
/// ranks with straggler semantics (each span is as slow as its slowest
/// rank).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSpans {
    /// When this rank entered the batch (absolute).
    pub start_ns: u64,
    /// Duration of the gather-x exchange phase.
    pub gather_ns: u64,
    /// Duration of the batch's fused kernel pass, shared by every vector.
    pub compute_ns: u64,
    /// Duration of the reduce-y exchange phase.
    pub reduce_ns: u64,
    /// When this rank finished extracting the batch's outputs (absolute).
    pub end_ns: u64,
}

impl BatchSpans {
    fn empty(now_ns: u64) -> Self {
        BatchSpans { start_ns: now_ns, end_ns: now_ns, ..BatchSpans::default() }
    }
}

/// One rank's measurement of a batch served by
/// [`RankContext::sttsv_serve_pipelined`]: when the batch was admitted and
/// formed on this rank, its timing decomposition, and its outputs.
#[derive(Clone, Debug)]
pub struct ServedBatch {
    /// Batch admitted on this rank (absolute) — its queue wait ends here.
    pub begin_ns: u64,
    /// Shards extracted and loaded (absolute).
    pub formed_ns: u64,
    /// The batch's timing decomposition. `gather_ns` is the *exposed*
    /// gather time, the drain only: in scheduled mode the sends were
    /// posted while the previous batch computed.
    pub spans: BatchSpans,
    /// This rank's output shards, indexed `[v][t]`.
    pub ys: Vec<Vec<Vec<f64>>>,
    /// Ternary multiplications this rank performed for the batch.
    pub ternary: u64,
}

/// Runs Algorithm 5 on the simulated machine: one thread per processor,
/// with the tensor blocks extracted per-rank (never communicated) and the
/// input/output vectors distributed per Section 6.1.2.
///
/// `part.dim()` must equal `tensor.dim()` and `x.len()` (panics with the
/// [`InputError`] otherwise; [`parallel_sttsv_with`] returns it instead);
/// use [`parallel_sttsv_padded`] for arbitrary `n`.
///
/// ```
/// use symtensor_parallel::{parallel_sttsv, Mode, TetraPartition};
/// use symtensor_core::SymTensor3;
/// use symtensor_steiner::spherical;
///
/// let n = 30;                                  // m = 5 row blocks, b = 6
/// let part = TetraPartition::new(spherical(2), n).unwrap();
/// let mut a = SymTensor3::zeros(n);
/// for i in 0..n { a.set(i, i, i, 1.0); }       // y_i = x_i²
/// let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
/// let run = parallel_sttsv(&a, &part, &x, Mode::Scheduled);
/// assert!(run.y.iter().enumerate().all(|(i, &y)| y == (i * i) as f64));
/// assert!(run.report.bandwidth_cost() > 0);    // vectors moved, tensor did not
/// ```
pub fn parallel_sttsv(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
) -> SttsvRun {
    let run = parallel_sttsv_with(tensor, part, std::slice::from_ref(&x), SttsvOptions::new(mode))
        .unwrap_or_else(|e| panic!("{e}"));
    let SttsvMultiRun { mut ys, report, ternary_per_rank, .. } = run;
    SttsvRun { y: ys.pop().expect("one output per input"), report, ternary_per_rank }
}

/// Runs Algorithm 5 on the simulated machine for a batch of vectors: all
/// `B = xs.len()` contractions share one pair of exchange phases, so each
/// rank's message and round counts equal a **single** STTSV while words
/// scale with `B`. `opts` picks the communication mode, the per-rank worker
/// threads and whether to record the event logs; none of them changes an
/// output bit or a cost counter.
///
/// Returns [`InputError`] when the tensor or any vector is not
/// `part.dim()`-dimensional.
pub fn parallel_sttsv_with<X: AsRef<[f64]> + Sync>(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[X],
    opts: SttsvOptions,
) -> Result<SttsvMultiRun, InputError> {
    let n = part.dim();
    check_dims(n, tensor, xs.iter().map(AsRef::as_ref))?;
    let machine = Machine::new(tensor, part, opts.mode, opts.threads);
    let universe = Universe::new(part.num_procs());
    let (outs, report, flight) = machine.run(universe, opts.trace, |comm, ctx| {
        let shards: Vec<Vec<Vec<f64>>> =
            xs.iter().map(|x| part.shards_of(comm.rank(), x.as_ref())).collect();
        ctx.sttsv_multi(comm, &shards)
    });
    let mut ys = vec![vec![0.0; n]; xs.len()];
    let mut ternary_per_rank = Vec::with_capacity(outs.len());
    for (p, (shard_sets, ternary)) in outs.into_iter().enumerate() {
        ternary_per_rank.push(ternary);
        for (y, shards) in ys.iter_mut().zip(&shard_sets) {
            part.place_shards(p, shards, y);
        }
    }
    Ok(SttsvMultiRun { ys, report, ternary_per_rank, flight })
}

/// [`parallel_sttsv_with`] on the barrier exchange without event logs —
/// the high-throughput serving configuration: blocks packed once into the
/// arena, the whole batch moving through one allocation-free exchange-phase
/// pair, `threads` workers per rank. Panics with the [`InputError`] on a
/// dimension mismatch.
pub fn parallel_sttsv_multi_planned(
    tensor: &SymTensor3,
    part: &TetraPartition,
    xs: &[Vec<f64>],
    mode: Mode,
    threads: usize,
) -> SttsvMultiRun {
    let opts = SttsvOptions { threads, ..SttsvOptions::new(mode) };
    parallel_sttsv_with(tensor, part, xs, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs Algorithm 5 for an arbitrary dimension by zero-padding the tensor
/// and vector to [`TetraPartition::padded_dim`] (the paper's padding rule),
/// then truncating `y`. Panics with the [`InputError`] when `x.len()` is
/// not `tensor.dim()`.
pub fn parallel_sttsv_padded(
    tensor: &SymTensor3,
    system: symtensor_steiner::SteinerSystem,
    x: &[f64],
    mode: Mode,
) -> SttsvRun {
    let n = tensor.dim();
    check_dims(n, tensor, [x]).unwrap_or_else(|e| panic!("{e}"));
    let n_pad = TetraPartition::padded_dim(&system, n);
    let part = TetraPartition::new(system, n_pad).expect("padded dimension divides");
    if n_pad == n {
        return parallel_sttsv(tensor, &part, x, mode);
    }
    let mut big = SymTensor3::zeros(n_pad);
    for (i, j, k, v) in tensor.iter_lower() {
        big.set(i, j, k, v);
    }
    let mut x_pad = x.to_vec();
    x_pad.resize(n_pad, 0.0);
    let mut run = parallel_sttsv(&big, &part, &x_pad, mode);
    run.y.truncate(n);
    run
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::schedule::{spherical_round_count, RoundAction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_symmetric;
    use symtensor_core::seq::sttsv_sym;
    use symtensor_steiner::{spherical, sqs8};

    fn check_against_sequential(part: &TetraPartition, mode: Mode, seed: u64) -> SttsvRun {
        let n = part.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.01).sin()).collect();
        let run = parallel_sttsv(&tensor, part, &x, mode);
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!(
                (run.y[i] - y_seq[i]).abs() < 1e-9 * (1.0 + y_seq[i].abs()),
                "y[{i}]: {} vs {}",
                run.y[i],
                y_seq[i]
            );
        }
        run
    }

    #[test]
    fn scheduled_matches_sequential_q2() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 1);
    }

    #[test]
    fn all_to_all_padded_matches_sequential_q2() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        check_against_sequential(&part, Mode::AllToAllPadded, 2);
    }

    #[test]
    fn all_to_all_sparse_matches_sequential_q2() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        check_against_sequential(&part, Mode::AllToAllSparse, 3);
    }

    #[test]
    fn scheduled_matches_sequential_sqs8() {
        let part = TetraPartition::new(sqs8(), 56).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 4);
    }

    #[test]
    fn scheduled_matches_sequential_q3() {
        let part = TetraPartition::new(spherical(3), 60).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 5);
    }

    #[test]
    fn uneven_shards_still_correct() {
        // b = 6, λ₁ = 6 for q = 2 ... pick b not divisible by λ₁: n = 20,
        // b = 4, λ₁ = 6: some shards are empty.
        let part = TetraPartition::new(spherical(2), 20).unwrap();
        check_against_sequential(&part, Mode::Scheduled, 6);
        check_against_sequential(&part, Mode::AllToAllPadded, 7);
    }

    #[test]
    fn scheduled_words_match_closed_form_q3() {
        // n = 120, q = 3: per-vector words = n(q+1)/(q²+1) − n/P = 44,
        // both vectors = 88; rounds = 2 × 26.
        let n = 120;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::Scheduled, 8);
        let expect = 2 * bounds::scheduled_words_per_vector(n, 3) as u64;
        for (p, cost) in run.report.per_rank.iter().enumerate() {
            assert_eq!(cost.words_sent, expect, "rank {p} sent");
            assert_eq!(cost.words_recv, expect, "rank {p} recv");
            assert_eq!(cost.rounds, 2 * spherical_round_count(3) as u64, "rank {p} rounds");
        }
    }

    #[test]
    fn scheduled_phases_post_every_send_before_their_first_receive() {
        use symtensor_mpsim::CommEventKind;
        for (q, n) in [(2, 30), (3, 60)] {
            let part = TetraPartition::new(spherical(q), n).unwrap();
            let schedule = CommSchedule::build(&part);
            assert_eq!(schedule.num_rounds(), spherical_round_count(q as usize));
            let mut rng = StdRng::seed_from_u64(31);
            let tensor = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
            let opts = SttsvOptions { trace: true, ..SttsvOptions::new(Mode::Scheduled) };
            let run = parallel_sttsv_with(&tensor, &part, &[x], opts).unwrap();
            for (p, log) in run.flight.iter().enumerate() {
                let acts = schedule.actions(p);
                for (phase, tag_base) in [("gather-x", TAG_X), ("reduce-y", TAG_Y)] {
                    let at = format!("q = {q}, rank {p}, {phase}");
                    let events: Vec<&CommEvent> =
                        log.events.iter().filter(|e| e.phase == Some(phase)).collect();
                    let is_send = |e: &&CommEvent| matches!(e.kind, CommEventKind::Send { .. });
                    let is_recv = |e: &&CommEvent| matches!(e.kind, CommEventKind::Recv { .. });
                    let last_send = events.iter().rposition(is_send).expect("the phase sends");
                    let first_recv = events.iter().position(is_recv).expect("the phase receives");
                    assert!(last_send < first_recv, "{at}: a receive precedes a send");
                    // The labels, tags and peers are the compiled schedule's.
                    let compiled = |peer: fn(&RoundAction) -> Option<usize>| -> Vec<_> {
                        (acts.iter().enumerate())
                            .filter_map(|(r, a)| {
                                peer(a).map(|d| (Some(r as u64), tag_base + r as u64, d))
                            })
                            .collect()
                    };
                    let on_wire = |send: bool| -> Vec<_> {
                        (events.iter())
                            .filter_map(|e| match e.kind {
                                CommEventKind::Send { dst, tag, .. } if send => {
                                    Some((e.round, tag, dst))
                                }
                                CommEventKind::Recv { src, tag, .. } if !send => {
                                    Some((e.round, tag, src))
                                }
                                _ => None,
                            })
                            .collect()
                    };
                    assert_eq!(on_wire(true), compiled(|a| a.send_to), "{at}: sends");
                    assert_eq!(on_wire(false), compiled(|a| a.recv_from), "{at}: receives");
                    // The phase counts every round of the schedule once.
                    let rounds_at = |enter: bool| {
                        (log.events.iter())
                            .find_map(|e| match e.kind {
                                CommEventKind::PhaseEnter { name, snapshot }
                                    if enter && name == phase =>
                                {
                                    Some(snapshot.rounds)
                                }
                                CommEventKind::PhaseExit { name, snapshot }
                                    if !enter && name == phase =>
                                {
                                    Some(snapshot.rounds)
                                }
                                _ => None,
                            })
                            .expect("the phase is recorded")
                    };
                    let rounds = rounds_at(false) - rounds_at(true);
                    assert_eq!(rounds, schedule.num_rounds() as u64, "{at}: rounds");
                }
            }
        }
    }

    #[test]
    fn padded_all_to_all_words_match_closed_form_q3() {
        // 4n/(q+1)·(1−1/P) = 120·(29/30) = 116 words per rank.
        let n = 120;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::AllToAllPadded, 9);
        let expect = bounds::alltoall_words_total(n, 3) as u64;
        for (p, cost) in run.report.per_rank.iter().enumerate() {
            assert_eq!(cost.words_sent, expect, "rank {p}");
            assert_eq!(cost.words_recv, expect, "rank {p}");
        }
    }

    #[test]
    fn sparse_all_to_all_words_equal_scheduled_words() {
        let n = 120;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::AllToAllSparse, 10);
        let expect = 2 * bounds::scheduled_words_per_vector(n, 3) as u64;
        for cost in &run.report.per_rank {
            assert_eq!(cost.words_sent, expect);
        }
    }

    #[test]
    fn ternary_counts_sum_to_global_and_match_partition() {
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let run = check_against_sequential(&part, Mode::Scheduled, 11);
        let total: u64 = run.ternary_per_rank.iter().sum();
        let n64 = n as u64;
        assert_eq!(total, n64 * n64 * (n64 + 1) / 2);
        for (p, &t) in run.ternary_per_rank.iter().enumerate() {
            assert_eq!(t, part.ternary_mults(p), "rank {p}");
        }
    }

    #[test]
    fn multi_matches_per_vector_sequential_in_all_modes() {
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|v| (0..n).map(|i| ((i * 3 + v * 11 + 1) as f64 * 0.013).sin()).collect())
            .collect();
        for mode in [Mode::Scheduled, Mode::AllToAllPadded, Mode::AllToAllSparse] {
            let run = parallel_sttsv_multi_planned(&tensor, &part, &xs, mode, 1);
            assert_eq!(run.ys.len(), xs.len());
            for (v, x) in xs.iter().enumerate() {
                let (y_seq, _) = sttsv_sym(&tensor, x);
                for i in 0..n {
                    assert!(
                        (run.ys[v][i] - y_seq[i]).abs() < 1e-9 * (1.0 + y_seq[i].abs()),
                        "{mode:?} vector {v} y[{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_words_scale_with_batch_but_rounds_do_not() {
        // The batched exchange must amortize latency: per-rank words are
        // B × the single-vector closed forms while message/round counts
        // stay those of a single STTSV.
        let n = 120;
        let batch = 3usize;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..batch).map(|v| (0..n).map(|i| ((i + v) as f64 * 0.01).cos()).collect()).collect();

        let single = parallel_sttsv(&tensor, &part, &xs[0], Mode::Scheduled);
        let multi = parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::Scheduled, 1);
        for (p, (one, many)) in
            single.report.per_rank.iter().zip(&multi.report.per_rank).enumerate()
        {
            assert_eq!(many.words_sent, batch as u64 * one.words_sent, "rank {p} words");
            assert_eq!(many.msgs_sent, one.msgs_sent, "rank {p} messages");
            assert_eq!(many.rounds, one.rounds, "rank {p} rounds");
        }
        // Ternary work also scales with the batch, matching the partition.
        for (p, &t) in multi.ternary_per_rank.iter().enumerate() {
            assert_eq!(t, batch as u64 * part.ternary_mults(p), "rank {p}");
        }

        let single_pad = parallel_sttsv(&tensor, &part, &xs[0], Mode::AllToAllPadded);
        let multi_pad = parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::AllToAllPadded, 1);
        for (one, many) in single_pad.report.per_rank.iter().zip(&multi_pad.report.per_rank) {
            assert_eq!(many.words_sent, batch as u64 * one.words_sent);
            assert_eq!(many.msgs_sent, one.msgs_sent);
        }
    }

    #[test]
    fn mt_driver_matches_sequential_and_is_thread_count_invariant() {
        // The pooled local-compute phase uses a fixed chunk decomposition
        // and tree reduction, so it's bit-identical across *thread counts*
        // (and run-to-run); versus the sequential accumulation order it
        // agrees to rounding.
        let n = 60;
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) as f64 * 0.017).sin()).collect();
        let base = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
        let pooled_run = |threads: usize| {
            let opts = SttsvOptions { threads, ..SttsvOptions::new(Mode::Scheduled) };
            let run = parallel_sttsv_with(&tensor, &part, std::slice::from_ref(&x), opts).unwrap();
            SttsvRun {
                y: run.ys[0].clone(),
                report: run.report,
                ternary_per_rank: run.ternary_per_rank,
            }
        };
        let pooled = pooled_run(2);
        for threads in [2usize, 4, 8] {
            let run = pooled_run(threads);
            assert_eq!(run.ternary_per_rank, base.ternary_per_rank);
            for i in 0..n {
                assert!(
                    (run.y[i] - base.y[i]).abs() < 1e-12 * (1.0 + base.y[i].abs()),
                    "threads={threads} y[{i}]"
                );
                assert_eq!(run.y[i].to_bits(), pooled.y[i].to_bits(), "threads={threads} y[{i}]");
            }
            // Communication is untouched by the node-level pool.
            for (one, other) in base.report.per_rank.iter().zip(&run.report.per_rank) {
                assert_eq!(one.words_sent, other.words_sent);
                assert_eq!(one.rounds, other.rounds);
            }
        }
    }

    #[test]
    fn multi_with_pool_matches_multi_without() {
        let n = 40;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let tensor = random_symmetric(n, &mut rng);
        let xs: Vec<Vec<f64>> =
            (0..2).map(|v| (0..n).map(|i| ((i * 2 + v) as f64 * 0.03).cos()).collect()).collect();
        let seq = parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::AllToAllSparse, 1);
        let par4 = parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::AllToAllSparse, 4);
        let par8 = parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::AllToAllSparse, 8);
        assert_eq!(seq.ternary_per_rank, par4.ternary_per_rank);
        for (a, b) in seq.ys.iter().zip(&par4.ys) {
            for (va, vb) in a.iter().zip(b) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + va.abs()));
            }
        }
        // Thread-count invariance of the pooled path is exact.
        for (a, b) in par4.ys.iter().zip(&par8.ys) {
            for (va, vb) in a.iter().zip(b) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn multi_empty_batch_is_ok() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = SymTensor3::zeros(n);
        let run = parallel_sttsv_multi_planned(&tensor, &part, &[], Mode::AllToAllSparse, 1);
        assert!(run.ys.is_empty());
        assert!(run.ternary_per_rank.iter().all(|&t| t == 0));
    }

    #[test]
    fn wrong_dimensions_return_typed_errors() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = SymTensor3::zeros(n);
        let opts = SttsvOptions::new(Mode::Scheduled);
        let xs = vec![vec![1.0; n], vec![1.0; n - 1]];
        let err = parallel_sttsv_with(&tensor, &part, &xs, opts).unwrap_err();
        assert_eq!(err, InputError::VectorDim { index: 1, expected: n, got: n - 1 });
        let small = SymTensor3::zeros(20);
        let err = parallel_sttsv_with(&small, &part, &xs[..1], opts).unwrap_err();
        assert_eq!(err, InputError::TensorDim { expected: n, got: 20 });
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut xs = vec![vec![1.0; n], vec![1.0; n]];
            xs[1][7] = bad;
            let err = parallel_sttsv_with(&tensor, &part, &xs, opts).unwrap_err();
            assert_eq!(err, InputError::NonFinite { index: 1, entry: 7 });
        }
    }

    #[test]
    fn padded_driver_handles_arbitrary_dimension() {
        let n = 37;
        let mut rng = StdRng::seed_from_u64(12);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let run = parallel_sttsv_padded(&tensor, spherical(2), &x, Mode::Scheduled);
        assert_eq!(run.y.len(), n);
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!((run.y[i] - y_seq[i]).abs() < 1e-9);
        }
    }
}
