//! Compiled rank plans: the allocation-free steady state for iterated
//! STTSV.
//!
//! Under the owner-compute rule a rank's tetrahedral blocks, its exchange
//! partners and every message layout are **fixed for the lifetime of the
//! distribution** — yet the straightforward hot path rebuilds all of that
//! per call: nested `Vec<Vec<f64>>` exchange buffers, per-block row-slot
//! lookups, per-block local accumulators. A [`RankPlan`] resolves
//! everything once, at compile time:
//!
//! * **Contiguous block arena** — all of the rank's owned blocks packed
//!   into one `(i, j, k)`-sorted slab, with a per-block
//!   offset / kind / slot table ([`PlanBlock`]). The `row_pos` lookup is
//!   resolved *once* into precomputed x/y slot indices instead of being
//!   dispatched per block per call.
//! * **Flat exchange state** — one flat `x` slab and one flat `y` slab
//!   (`batch · |R_p| · b` words each) replace the nested per-row-block
//!   vectors, and every peer message's piece layout ([`PieceMeta`]) is
//!   precomputed from the partition's shard ranges.
//! * **Recycled message buffers** — a [`PlanWorkspace`] keeps a free list
//!   of message `Vec`s; received buffers are fed back as future send
//!   buffers (the exchange graph is balanced, so the list stays
//!   replenished). Buffers are promoted to the *global* maximum message
//!   capacity on first reuse, so every buffer grows at most once and the
//!   steady state performs **zero heap allocations** (the simulated
//!   transport's inbox queues excepted — those belong to the machine,
//!   not the algorithm).
//! * **Riders** — an exchange may append up to [`MAX_RIDER_WORDS`]
//!   scalars to every message, after the pieces (and after a padded
//!   message's zero tail). The workspace keeps one rider slot per rank
//!   and sums them in rank order, and the buffer target counts the rider
//!   words, so a rider never regrows a buffer.
//!
//! The plan computes a whole batch in one pass over the arena: each
//! block, and within it each packed tensor row, is loaded once and applied
//! to up to [`LANES`] vectors with independent accumulator chains
//! ([`crate::blocks`]' batch kernel, in the widest instruction-set
//! instance the host supports; every instance gives the same bits). The
//! arena is therefore read once per batch (once per `LANES` vectors for
//! larger batches), not once per vector. Every vector sees the
//! floating-point operations of [`OwnedBlocks::compute`]'s one-vector
//! kernels in the same order, so its bits do not depend on the batch it
//! rides in. The pass is the rank's only compute path: one thread per
//! rank, as in the paper's machine model, so no thread count can change a
//! bit. Every message carries, per shared row block in ascending order,
//! the batch's pieces back-to-back, so the per-rank words are exactly the
//! paper's closed forms.

#[cfg(doc)]
use crate::blocks::LANES;
use crate::blocks::{add_into, extract_block, lane_words, BatchKernel, OwnedBlocks};
use crate::partition::TetraPartition;
use crate::schedule::shared_row_blocks;
use crate::tetra::{BlockIdx, BlockKind};
use symtensor_core::SymTensor3;

/// The most scalars one exchange may append to each of its messages (see
/// the riders in the module docs).
pub const MAX_RIDER_WORDS: usize = 2;

/// One owned block inside the packed arena.
#[derive(Clone, Copy, Debug)]
pub struct PlanBlock {
    /// Offset of the block's data within the plan's packed arena.
    pub offset: usize,
    /// Stored words.
    pub len: usize,
    /// Block classification (selects the kernel).
    pub kind: BlockKind,
    /// Precomputed row slots (positions within `R_p`) of the block's
    /// `(i, j, k)` row blocks — the compiled form of the `row_pos` lookup.
    pub slots: [usize; 3],
}

/// The layout of one message piece: the shard geometry of a row block
/// shared with a peer, precomputed for both exchange phases.
#[derive(Clone, Copy, Debug)]
pub struct PieceMeta {
    /// The shared row block's slot (position within `R_p`).
    pub t: usize,
    /// Start of *this rank's* shard within the row block.
    pub my_start: usize,
    /// Length of this rank's shard.
    pub my_len: usize,
    /// Start of the *peer's* shard within the row block.
    pub peer_start: usize,
    /// Length of the peer's shard.
    pub peer_len: usize,
}

/// Precompiled exchange layout for one peer.
#[derive(Clone, Debug)]
pub struct PeerPlan {
    /// The peer's rank.
    pub peer: usize,
    /// One piece per shared row block, ascending block index — the order
    /// both ends pack and unpack in.
    pub pieces: Vec<PieceMeta>,
    /// Per-vector words this rank sends in gather (= receives in reduce).
    pub my_words: usize,
    /// Per-vector words this rank receives in gather (= sends in reduce).
    pub peer_words: usize,
}

/// Which exchange phase a pack/unpack call serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Phase 1: gather full `x` row blocks (send my shards, receive peers').
    Gather,
    /// Phase 3: reduce partial `y` (send peers' shards, accumulate mine).
    Reduce,
}

/// The compiled, immutable per-rank plan (see module docs). Built once by
/// [`RankPlan::build`] / [`crate::algorithm5::RankContext::compile`] and
/// reused across every subsequent `sttsv` / `sttsv_multi` / HOPM
/// iteration.
#[derive(Clone, Debug)]
pub struct RankPlan {
    rank: usize,
    b: usize,
    t_count: usize,
    /// All owned block data, packed contiguously in `(i, j, k)` order.
    arena: Vec<f64>,
    blocks: Vec<PlanBlock>,
    /// Every peer (all ranks but this one), in rank order — the all-to-all
    /// modes' accumulation order.
    peers: Vec<PeerPlan>,
    /// rank → index into `peers` (`usize::MAX` for self).
    peer_index: Vec<usize>,
    /// `(start, len)` of this rank's shard within each owned row block.
    my_shards: Vec<(usize, usize)>,
    /// Per-vector uniform message size of [`crate::Mode::AllToAllPadded`].
    pad_unit: usize,
    /// Global per-vector maximum message size over *all* rank pairs and
    /// both phases (incl. padding) — the buffer promotion target that
    /// makes recycled buffers grow at most once machine-wide.
    max_msg_unit: usize,
    /// The batch kernel instance every compute path runs: the widest the
    /// host supports, chosen once per process.
    kernel: BatchKernel,
}

impl RankPlan {
    /// Compiles the plan for `rank`: packs `owned`'s blocks into the arena,
    /// resolves the slot table and precomputes every peer's message layout.
    /// One-time cost; everything downstream is allocation-free reuse.
    pub fn build(part: &TetraPartition, owned: &OwnedBlocks, rank: usize) -> Self {
        let mut arena = Vec::with_capacity(owned.words());
        let layout = owned
            .blocks
            .iter()
            .map(|blk| {
                arena.extend_from_slice(&blk.data);
                (blk.idx, blk.data.len())
            })
            .collect();
        Self::assemble(part, rank, arena, layout)
    }

    /// Compiles the plan for `rank` straight from the global tensor: each
    /// owned block is extracted directly into the arena, with no
    /// intermediate [`OwnedBlocks`] copy. The result, arena bits included,
    /// equals [`RankPlan::build`] over [`OwnedBlocks::extract`].
    pub fn from_tensor(tensor: &SymTensor3, part: &TetraPartition, rank: usize) -> Self {
        assert_eq!(tensor.dim(), part.dim(), "tensor dimension mismatch");
        let b = part.block_size();
        let mut arena = Vec::with_capacity(part.tensor_words(rank));
        let layout = part
            .owned_blocks(rank)
            .into_iter()
            .map(|idx| {
                let start = arena.len();
                extract_block(tensor, idx, b, &mut arena);
                (idx, arena.len() - start)
            })
            .collect();
        Self::assemble(part, rank, arena, layout)
    }

    /// Compiles the plan around a packed `arena` whose blocks, in arena
    /// order, have the `(index, stored words)` given by `layout`.
    fn assemble(
        part: &TetraPartition,
        rank: usize,
        arena: Vec<f64>,
        layout: Vec<(BlockIdx, usize)>,
    ) -> Self {
        let b = part.block_size();
        let rp = part.r_set(rank);
        let t_count = rp.len();
        let row_pos = |i: usize| rp.binary_search(&i).expect("owned row block in R_p");
        debug_assert!(
            layout.windows(2).all(|w| {
                let (a, c) = (&w[0].0, &w[1].0);
                (a.i, a.j, a.k) <= (c.i, c.j, c.k)
            }),
            "owned blocks arrive (i, j, k)-sorted"
        );
        let mut offset = 0;
        let blocks: Vec<PlanBlock> = layout
            .iter()
            .map(|&(idx, len)| {
                let slots = [row_pos(idx.i), row_pos(idx.j), row_pos(idx.k)];
                let blk = PlanBlock { offset, len, kind: idx.kind(), slots };
                offset += len;
                blk
            })
            .collect();
        debug_assert_eq!(offset, arena.len());

        let my_shards: Vec<(usize, usize)> = rp
            .iter()
            .map(|&i| {
                let r = part.shard_range(i, rank);
                (r.start, r.len())
            })
            .collect();

        let p_count = part.num_procs();
        let mut peer_index = vec![usize::MAX; p_count];
        let mut peers = Vec::with_capacity(p_count.saturating_sub(1));
        for (peer, index_slot) in peer_index.iter_mut().enumerate() {
            if peer == rank {
                continue;
            }
            let pieces: Vec<PieceMeta> = shared_row_blocks(part, rank, peer)
                .into_iter()
                .map(|i| {
                    let my = part.shard_range(i, rank);
                    let pr = part.shard_range(i, peer);
                    PieceMeta {
                        t: row_pos(i),
                        my_start: my.start,
                        my_len: my.len(),
                        peer_start: pr.start,
                        peer_len: pr.len(),
                    }
                })
                .collect();
            let my_words = pieces.iter().map(|pc| pc.my_len).sum();
            let peer_words = pieces.iter().map(|pc| pc.peer_len).sum();
            *index_slot = peers.len();
            peers.push(PeerPlan { peer, pieces, my_words, peer_words });
        }

        let pad_unit = 2 * b.div_ceil(part.lambda1());
        // Global (machine-wide) per-vector message maximum: recycled
        // buffers migrate between ranks with every send, so promoting to
        // the *global* maximum guarantees each buffer grows at most once
        // anywhere in the machine.
        let mut max_msg_unit = pad_unit;
        for a in 0..p_count {
            for c in 0..p_count {
                if a == c {
                    continue;
                }
                let words: usize = shared_row_blocks(part, a, c)
                    .into_iter()
                    .map(|i| part.shard_range(i, a).len())
                    .sum();
                max_msg_unit = max_msg_unit.max(words);
            }
        }

        RankPlan {
            rank,
            b,
            t_count,
            arena,
            blocks,
            peers,
            peer_index,
            my_shards,
            pad_unit,
            max_msg_unit,
            kernel: BatchKernel::for_plan(),
        }
    }

    /// The rank this plan was compiled for.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Arena size in bytes (the `compute:kernel` span's
    /// `plan:arena_bytes` counter).
    #[inline]
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<f64>()
    }

    /// Number of packed blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The per-block offset / kind / slot table, in arena (`(i, j, k)`)
    /// order.
    #[inline]
    pub fn blocks(&self) -> &[PlanBlock] {
        &self.blocks
    }

    /// Tetrahedral block size `b` of the underlying partition.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Row blocks owned by this rank (`|R_p|`).
    #[inline]
    pub fn row_block_count(&self) -> usize {
        self.t_count
    }

    /// The compiled peer layouts, in rank order.
    #[inline]
    pub fn peers(&self) -> &[PeerPlan] {
        &self.peers
    }

    /// Index into [`RankPlan::peers`] for `peer`, or `None` for self.
    #[inline]
    pub fn peer_slot(&self, peer: usize) -> Option<usize> {
        self.peer_index.get(peer).copied().filter(|&s| s != usize::MAX)
    }

    /// Per-vector uniform message size of the padded all-to-all mode.
    #[inline]
    pub fn pad_unit(&self) -> usize {
        self.pad_unit
    }

    /// `x`/`y` slab stride of one vector: `|R_p| · b`.
    #[inline]
    fn stride(&self) -> usize {
        self.t_count * self.b
    }

    /// Grows `ws` (if needed) to hold `batch` vectors. Capacity only ever
    /// grows; shrinking a batch reuses the larger slabs. This is the only
    /// place the `x`/`y` slabs and the kernel's lane staging can allocate.
    pub fn ensure_capacity(&self, ws: &mut PlanWorkspace, batch: usize) {
        let batch = batch.max(1);
        if batch > ws.batch_cap {
            ws.fresh += 1;
            let stride = self.stride();
            ws.x.resize(batch * stride, 0.0);
            ws.y.resize(batch * stride, 0.0);
            ws.lanes.resize(lane_words(self.b), 0.0);
            ws.riders.resize((self.peers.len() + 1) * MAX_RIDER_WORDS, 0.0);
            ws.batch_cap = batch;
            ws.buf_target = self.max_msg_unit * batch + MAX_RIDER_WORDS;
        }
    }

    /// Loads this rank's shards of one input vector into slab `v` of the
    /// flat `x` state. The remaining shard ranges are filled by
    /// [`RankPlan::unpack`] during the gather phase (the shards of a row
    /// block tile it exactly, so the slab never needs zeroing).
    pub fn load_shards(&self, ws: &mut PlanWorkspace, v: usize, my_shards: &[Vec<f64>]) {
        assert_eq!(my_shards.len(), self.t_count, "one shard per owned row block");
        debug_assert!(v < ws.batch_cap);
        let base = v * self.stride();
        for (t, (&(start, len), shard)) in self.my_shards.iter().zip(my_shards).enumerate() {
            debug_assert_eq!(shard.len(), len);
            ws.x[base + t * self.b + start..base + t * self.b + start + len].copy_from_slice(shard);
        }
    }

    /// Loads *full* gathered row blocks into slab `v` of the `x` state —
    /// the post-gather picture, bypassing the exchange. Used by the
    /// comm-free kernel benchmarks and the equivalence tests.
    pub fn load_full(&self, ws: &mut PlanWorkspace, v: usize, x_full: &[Vec<f64>]) {
        assert_eq!(x_full.len(), self.t_count, "one row block per owned slot");
        debug_assert!(v < ws.batch_cap);
        let base = v * self.stride();
        for (t, block) in x_full.iter().enumerate() {
            assert_eq!(block.len(), self.b);
            ws.x[base + t * self.b..base + (t + 1) * self.b].copy_from_slice(block);
        }
    }

    /// Read-only view of output slab `v` (`|R_p| · b` words, row-slot
    /// major) — the pre-reduce picture, for the same callers as
    /// [`RankPlan::load_full`].
    pub fn output_slab<'a>(&self, ws: &'a PlanWorkspace, v: usize) -> &'a [f64] {
        &ws.y[v * self.stride()..(v + 1) * self.stride()]
    }

    /// Packs the outgoing message for peer slot `pidx`: for each shared
    /// row block (ascending), the `batch` vectors' pieces back-to-back. The
    /// buffer comes from
    /// the workspace free list (allocation-free in steady state); the
    /// caller sends it (and the peer's unpack recycles it on their side).
    pub fn pack(
        &self,
        ws: &mut PlanWorkspace,
        kind: ExchangeKind,
        pidx: usize,
        batch: usize,
    ) -> Vec<f64> {
        let stride = self.stride();
        let mut buf = ws.take_buf();
        let pp = &self.peers[pidx];
        for pc in &pp.pieces {
            let (src, start, len) = match kind {
                ExchangeKind::Gather => (&ws.x, pc.my_start, pc.my_len),
                ExchangeKind::Reduce => (&ws.y, pc.peer_start, pc.peer_len),
            };
            for v in 0..batch {
                let base = v * stride + pc.t * self.b + start;
                buf.extend_from_slice(&src[base..base + len]);
            }
        }
        buf
    }

    /// Unpacks a received message from peer slot `pidx` and recycles its
    /// buffer into the workspace free list. Gather copies the peer's
    /// shards into the `x` slabs; reduce accumulates the peer's partials
    /// into this rank's shard ranges of the `y` slabs. Padded messages may
    /// carry a zero tail beyond the packed pieces; it is ignored.
    pub fn unpack(
        &self,
        ws: &mut PlanWorkspace,
        kind: ExchangeKind,
        pidx: usize,
        batch: usize,
        buf: Vec<f64>,
    ) {
        let stride = self.stride();
        let pp = &self.peers[pidx];
        let mut offset = 0;
        for pc in &pp.pieces {
            let (dst, start, len) = match kind {
                ExchangeKind::Gather => (&mut ws.x, pc.peer_start, pc.peer_len),
                ExchangeKind::Reduce => (&mut ws.y, pc.my_start, pc.my_len),
            };
            for v in 0..batch {
                let base = v * stride + pc.t * self.b + start;
                let piece = &buf[offset..offset + len];
                match kind {
                    ExchangeKind::Gather => dst[base..base + len].copy_from_slice(piece),
                    ExchangeKind::Reduce => add_into(&mut dst[base..base + len], piece),
                }
                offset += len;
            }
        }
        ws.bufs.push(buf);
    }

    /// Runs the local kernels over the packed arena for slabs `0..batch`:
    /// zeroes the `y` slabs (a `fill`, not an allocation) and applies each
    /// [`PlanBlock`] in arena order to the whole batch, [`LANES`] vectors
    /// per pass, so the arena is read once per batch of up to `LANES`.
    /// This is the rank's only compute path. Each vector's bits equal a
    /// batch-of-one run on that vector.
    ///
    /// `_pool` is ignored and can only be `None`; it keeps the benchmark's
    /// pinned call compiling and is removed when the pins move.
    /// Returns the exact ternary-multiplication count.
    pub fn compute(
        &self,
        ws: &mut PlanWorkspace,
        batch: usize,
        _pool: Option<std::convert::Infallible>,
    ) -> u64 {
        debug_assert!(batch <= ws.batch_cap);
        let stride = self.stride();
        let len = batch * stride;
        let PlanWorkspace { x, y, lanes, .. } = ws;
        let (x, y) = (&x[..len], &mut y[..len]);
        y.fill(0.0);
        self.blocks
            .iter()
            .map(|blk| {
                self.kernel.run(
                    blk.kind,
                    &self.arena[blk.offset..blk.offset + blk.len],
                    self.b,
                    blk.slots,
                    stride,
                    batch,
                    x,
                    y,
                    lanes,
                )
            })
            .sum()
    }

    /// Copies this rank's shards of output slab `v` into caller-provided
    /// shard vectors (allocation-free when `out` has the right lengths).
    pub fn extract_into(&self, ws: &PlanWorkspace, v: usize, out: &mut [Vec<f64>]) {
        self.own_shards_into(&ws.y, v, out);
    }

    /// Divides input slab `v` elementwise by `divisor`: every rank holding
    /// a gathered row block divides it exactly as its owner would.
    pub(crate) fn scale_x(&self, ws: &mut PlanWorkspace, v: usize, divisor: f64) {
        for value in &mut ws.x[v * self.stride()..(v + 1) * self.stride()] {
            *value /= divisor;
        }
    }

    /// Copies this rank's shards of input slab `v` into `out`: after
    /// [`RankPlan::scale_x`], the owner's shards of the scaled vector.
    pub(crate) fn extract_x_into(&self, ws: &PlanWorkspace, v: usize, out: &mut [Vec<f64>]) {
        self.own_shards_into(&ws.x, v, out);
    }

    fn own_shards_into(&self, slab: &[f64], v: usize, out: &mut [Vec<f64>]) {
        assert_eq!(out.len(), self.t_count);
        let base = v * self.stride();
        for (t, (&(start, len), dst)) in self.my_shards.iter().zip(out).enumerate() {
            dst.clear();
            dst.extend_from_slice(
                &slab[base + t * self.b + start..base + t * self.b + start + len],
            );
        }
    }

    /// Allocating convenience form of [`RankPlan::extract_into`].
    pub fn extract(&self, ws: &PlanWorkspace, v: usize) -> Vec<Vec<f64>> {
        let base = v * self.stride();
        self.my_shards
            .iter()
            .enumerate()
            .map(|(t, &(start, len))| {
                ws.y[base + t * self.b + start..base + t * self.b + start + len].to_vec()
            })
            .collect()
    }
}

/// The mutable steady state paired with a [`RankPlan`]: flat `x`/`y`
/// slabs, the batch kernel's lane staging, and the recycled message
/// buffers. One allocation burst at warm-up, zero afterwards.
#[derive(Debug, Default)]
pub struct PlanWorkspace {
    /// Flat input slabs, `batch_cap · |R_p| · b` words, vector-major.
    x: Vec<f64>,
    /// Flat output slabs, same geometry.
    y: Vec<f64>,
    /// The batch kernel's lane-interleaved staging: gathered `x` rows and
    /// `y` locals of up to [`LANES`] vectors ([`lane_words`]`(b)` words).
    lanes: Vec<f64>,
    /// Free list of recycled message buffers.
    bufs: Vec<Vec<f64>>,
    /// Recycled outer vector for the all-to-all collective.
    pub(crate) a2a_send: Vec<Vec<f64>>,
    /// The running exchange's riders, [`MAX_RIDER_WORDS`] slots per rank,
    /// in rank order.
    riders: Vec<f64>,
    /// Vectors the slabs currently accommodate.
    batch_cap: usize,
    /// Capacity every leased message buffer is promoted to (the global
    /// maximum message size × batch, plus [`MAX_RIDER_WORDS`]), so each
    /// buffer grows at most once.
    buf_target: usize,
    /// Heap-touching events: slab growth + message-buffer promotions.
    /// Flat across iterations ⇔ allocation-free steady state.
    fresh: u64,
}

impl PlanWorkspace {
    /// An empty workspace; sized lazily by [`RankPlan::ensure_capacity`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a message buffer from the free list (or a fresh one),
    /// promoted to the global capacity target so it never grows again.
    fn take_buf(&mut self) -> Vec<f64> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        if buf.capacity() < self.buf_target {
            self.fresh += 1;
            buf.reserve(self.buf_target);
        }
        buf
    }

    /// Appends `rider` to the packed message `buf`. A rider that would
    /// regrow the buffer counts as a heap-touching event.
    #[inline]
    pub(crate) fn attach_rider(&mut self, rider: &[f64], buf: &mut Vec<f64>) {
        if rider.is_empty() {
            return;
        }
        if buf.capacity() < buf.len() + rider.len() {
            self.fresh += 1;
        }
        buf.extend_from_slice(rider);
    }

    /// Keeps `rider` as rank `rank`'s rider of the running exchange.
    pub(crate) fn keep_rider(&mut self, rank: usize, rider: &[f64]) {
        assert!(rider.len() <= MAX_RIDER_WORDS, "a rider carries at most {MAX_RIDER_WORDS} words");
        let slot = rank * MAX_RIDER_WORDS;
        self.riders[slot..slot + rider.len()].copy_from_slice(rider);
    }

    /// Splits the last `width` words, rank `src`'s rider, off the received
    /// message `buf`.
    #[inline]
    pub(crate) fn detach_rider(&mut self, src: usize, width: usize, buf: &mut Vec<f64>) {
        if width == 0 {
            return;
        }
        let at = buf.len() - width;
        let slot = src * MAX_RIDER_WORDS;
        self.riders[slot..slot + width].copy_from_slice(&buf[at..]);
        buf.truncate(at);
    }

    /// Every rank's `width`-word rider summed elementwise in rank order,
    /// starting from rank 0's: the fold `Comm::all_reduce` does at its
    /// root, so every rank gets the bits an all-reduce would give.
    pub(crate) fn rider_sum(&self, width: usize) -> Vec<f64> {
        if width == 0 {
            return Vec::new();
        }
        let mut slots = self.riders.chunks_exact(MAX_RIDER_WORDS);
        let mut acc = slots.next().map_or_else(Vec::new, |first| first[..width].to_vec());
        for slot in slots {
            for (a, b) in acc.iter_mut().zip(slot) {
                *a += b;
            }
        }
        acc
    }

    /// Returns a buffer to the free list (used for buffers that were
    /// taken but not sent, e.g. the padded mode's self slot).
    pub fn give_back(&mut self, buf: Vec<f64>) {
        self.bufs.push(buf);
    }

    /// Cumulative heap-touching events (slab growth and message-buffer
    /// promotions). A flat reading across iterations is the
    /// steady-state-zero-allocation witness (the `compute:kernel` span's
    /// `plan:fresh_allocs` counter).
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::tests::{kernel_lock, widest_isa, with_baseline_plans};
    use crate::partition::TetraPartition;
    use symtensor_core::generate::random_symmetric;
    use symtensor_steiner::spherical;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan_for(n: usize, q: u64, rank: usize) -> (TetraPartition, OwnedBlocks, RankPlan) {
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let mut rng = StdRng::seed_from_u64(1000 + rank as u64);
        let tensor = random_symmetric(n, &mut rng);
        let owned = OwnedBlocks::extract(&tensor, &part, rank);
        let plan = RankPlan::build(&part, &owned, rank);
        (part, owned, plan)
    }

    #[test]
    fn arena_is_contiguous_and_complete() {
        let (_part, owned, plan) = plan_for(30, 2, 3);
        assert_eq!(plan.arena.len(), owned.words());
        assert_eq!(plan.block_count(), owned.blocks.len());
        let mut expected_offset = 0;
        for (pb, ob) in plan.blocks.iter().zip(&owned.blocks) {
            assert_eq!(pb.offset, expected_offset, "blocks are packed back-to-back");
            assert_eq!(pb.len, ob.data.len());
            assert_eq!(pb.kind, ob.kind);
            assert_eq!(&plan.arena[pb.offset..pb.offset + pb.len], ob.data.as_slice());
            expected_offset += pb.len;
        }
        assert!(plan.arena_bytes() == owned.words() * 8);
    }

    #[test]
    fn from_tensor_equals_build_over_extracted_blocks() {
        // Both plans must pick the same kernel instance for the `Debug`
        // comparison below.
        let _kernel = kernel_lock();
        for (n, q) in [(30, 2u64), (60, 3)] {
            let part = TetraPartition::new(spherical(q), n).unwrap();
            let tensor = random_symmetric(n, &mut StdRng::seed_from_u64(q));
            for rank in 0..part.num_procs() {
                let owned = OwnedBlocks::extract(&tensor, &part, rank);
                let built = RankPlan::build(&part, &owned, rank);
                let direct = RankPlan::from_tensor(&tensor, &part, rank);
                let bits = |plan: &RankPlan| plan.arena.iter().map(|v| v.to_bits()).collect();
                let bits: (Vec<u64>, Vec<u64>) = (bits(&built), bits(&direct));
                assert_eq!(bits.0, bits.1, "q={q} rank {rank}");
                assert_eq!(format!("{built:?}"), format!("{direct:?}"), "q={q} rank {rank}");
            }
        }
    }

    #[test]
    fn plans_run_the_widest_supported_instance() {
        let (part, owned, _) = plan_for(30, 2, 0);
        let build = || RankPlan::build(&part, &owned, 0).kernel.isa();
        let widest = {
            let _kernel = kernel_lock();
            build()
        };
        assert_eq!(widest, widest_isa());
        assert_eq!(with_baseline_plans(build), "baseline");
    }

    #[test]
    fn peer_layout_matches_partition_shards() {
        let (part, _owned, plan) = plan_for(30, 2, 0);
        let rp = part.r_set(0);
        // Every non-self rank appears exactly once, in order.
        let peer_ranks: Vec<usize> = plan.peers().iter().map(|pp| pp.peer).collect();
        let expect: Vec<usize> = (0..part.num_procs()).filter(|&p| p != 0).collect();
        assert_eq!(peer_ranks, expect);
        for pp in plan.peers() {
            let shared = shared_row_blocks(&part, 0, pp.peer);
            assert_eq!(pp.pieces.len(), shared.len());
            for (pc, &i) in pp.pieces.iter().zip(&shared) {
                assert_eq!(rp[pc.t], i);
                let my = part.shard_range(i, 0);
                let pr = part.shard_range(i, pp.peer);
                assert_eq!((pc.my_start, pc.my_len), (my.start, my.len()));
                assert_eq!((pc.peer_start, pc.peer_len), (pr.start, pr.len()));
            }
            assert_eq!(plan.peer_slot(pp.peer), Some(plan.peer_index[pp.peer]));
        }
        assert_eq!(plan.peer_slot(0), None);
    }

    #[test]
    fn workspace_buffers_grow_at_most_once() {
        let (_part, _owned, plan) = plan_for(30, 2, 1);
        let mut ws = PlanWorkspace::new();
        plan.ensure_capacity(&mut ws, 2);
        let after_sizing = ws.fresh_allocs();
        // Simulate a message cycle: take, "send/recv", give back.
        for _ in 0..4 {
            let buf = ws.take_buf();
            assert!(buf.capacity() >= ws.buf_target);
            ws.give_back(buf);
        }
        // Only the very first take could promote; the rest are free.
        assert_eq!(ws.fresh_allocs(), after_sizing + 1);
        // Re-sizing to a smaller batch is a no-op.
        plan.ensure_capacity(&mut ws, 1);
        assert_eq!(ws.fresh_allocs(), after_sizing + 1);
    }
}
