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
//!   transport's channel nodes excepted — those belong to the machine,
//!   not the algorithm).
//!
//! The plan computes a whole batch in one pass over the arena: each
//! block, and within it each packed tensor row, is loaded once and applied
//! to up to [`LANES`] vectors with independent accumulator chains
//! ([`crate::blocks`]' batch kernel). The arena is therefore read once per
//! batch (once per `LANES` vectors for larger batches), not once per
//! vector. Every vector sees the floating-point operations of
//! [`OwnedBlocks::compute`]'s one-vector kernels in the same order, so its
//! bits do not depend on the batch it rides in. The pooled compute funnels
//! through one fixed chunk decomposition and
//! [`symtensor_pool::tree_reduce`] tree, so it is bit-identical across runs
//! and thread counts. Every message carries, per shared row block in
//! ascending order, the batch's pieces back-to-back, so the per-rank words
//! are exactly the paper's closed forms.

#[cfg(doc)]
use crate::blocks::LANES;
use crate::blocks::{
    add_into, block_kernel_batch, chunked_compute_flat, extract_block, lane_words, OwnedBlocks,
    MAX_COMPUTE_CHUNKS,
};
use crate::partition::TetraPartition;
use crate::schedule::shared_row_blocks;
use crate::tetra::{BlockIdx, BlockKind};
use symtensor_core::SymTensor3;
use symtensor_pool::Pool;

/// Classification of a [`PlanBlock`] by its gather-x dependency set: how
/// many distinct peers must deliver x pieces before the block's three row
/// slots are complete and the block is computable. The overlapped exchange
/// computes `OwnedOnly` blocks while the gather is still in flight and
/// unlocks the rest as their last contributing peer's message lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockClass {
    /// No peer contribution needed — computable from locally loaded shards
    /// before any gather message arrives.
    OwnedOnly,
    /// Unlocked by exactly one peer's gather message.
    SinglePeer,
    /// Needs pieces from two or more peers.
    MultiPeer,
}

/// One owned block inside the packed arena.
#[derive(Clone, Copy, Debug)]
pub struct PlanBlock {
    /// Offset of the block's data within [`RankPlan::arena`].
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
    /// Distinct contributing peers per block — the readiness partition of
    /// the overlapped exchange (0 ⇒ owned-only).
    block_deps: Vec<usize>,
    /// Per-block [`BlockClass`], in arena order.
    block_class: Vec<BlockClass>,
    /// Dependency table: peer slot → ascending block indices that need a
    /// piece of that peer's gather message.
    peer_unlocks: Vec<Vec<usize>>,
    /// row slot → peer slots holding a non-empty shard of that row (both
    /// the gather contributors to the row and the recipients of its
    /// reduce pieces — the shard geometry is symmetric across phases).
    row_peers: Vec<Vec<usize>>,
    /// row slot → number of owned blocks writing that row's `y` (the
    /// early-flush countdown base of the overlapped reduce).
    row_writers: Vec<usize>,
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

        // Readiness partition: which peers must deliver x pieces before a
        // block's three row slots are complete. A peer's gather message
        // carries *all* its pieces at once, so readiness is a per-block
        // count of distinct contributing peers — decremented per arriving
        // message, not per piece.
        let mut row_peers: Vec<Vec<usize>> = vec![Vec::new(); t_count];
        for (pidx, pp) in peers.iter().enumerate() {
            for pc in &pp.pieces {
                if pc.peer_len > 0 {
                    row_peers[pc.t].push(pidx);
                }
            }
        }
        let mut block_deps = Vec::with_capacity(blocks.len());
        let mut peer_unlocks = vec![Vec::new(); peers.len()];
        let mut row_writers = vec![0usize; t_count];
        for (bi, blk) in blocks.iter().enumerate() {
            let mut slots = blk.slots;
            slots.sort_unstable();
            let mut deps: Vec<usize> = Vec::new();
            for (s, &t) in slots.iter().enumerate() {
                if s > 0 && slots[s - 1] == t {
                    continue;
                }
                // Distinct slots are exactly the rows the kernel reads
                // from x *and* writes to y (central: i; iik/ikk: i,k;
                // off-diagonal: i,j,k).
                row_writers[t] += 1;
                deps.extend(row_peers[t].iter().copied());
            }
            deps.sort_unstable();
            deps.dedup();
            for &pidx in &deps {
                peer_unlocks[pidx].push(bi);
            }
            block_deps.push(deps.len());
        }
        let block_class = block_deps
            .iter()
            .map(|&d| match d {
                0 => BlockClass::OwnedOnly,
                1 => BlockClass::SinglePeer,
                _ => BlockClass::MultiPeer,
            })
            .collect();

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
            block_deps,
            block_class,
            peer_unlocks,
            row_peers,
            row_writers,
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
            ws.batch_cap = batch;
            ws.buf_target = self.max_msg_unit * batch;
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
    /// [`PlanBlock`] to the whole batch, [`LANES`] vectors per pass, so the
    /// arena is read once per batch of up to `LANES`. With a pool, the
    /// batch funnels through one fixed chunk decomposition, workspace
    /// leases and reduction tree — so the result is bit-identical across
    /// thread counts. Each vector's bits equal a batch-of-one run on that
    /// vector.
    /// Returns the exact ternary-multiplication count.
    pub fn compute(&self, ws: &mut PlanWorkspace, batch: usize, pool: Option<&Pool>) -> u64 {
        debug_assert!(batch <= ws.batch_cap);
        let len = batch * self.stride();
        let PlanWorkspace { x, y, lanes, .. } = ws;
        let (x, y) = (&x[..len], &mut y[..len]);
        y.fill(0.0);
        match pool {
            None => self.run_blocks(0..self.blocks.len(), batch, x, y, lanes),
            Some(pool) => {
                chunked_compute_flat(self.blocks.len(), self.b, y, pool, |range, partial, lanes| {
                    self.run_blocks(range, batch, x, partial, lanes)
                })
            }
        }
    }

    /// Applies blocks `range` (arena order) to slabs `0..batch` of `x`,
    /// accumulating into the matching slabs of `y`. Returns the exact
    /// ternary count.
    fn run_blocks(
        &self,
        range: std::ops::Range<usize>,
        batch: usize,
        x: &[f64],
        y: &mut [f64],
        lanes: &mut [f64],
    ) -> u64 {
        let stride = self.stride();
        self.blocks[range]
            .iter()
            .map(|blk| {
                block_kernel_batch(
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

    /// Per-block gather-dependency classification, in arena order.
    #[inline]
    pub fn block_classes(&self) -> &[BlockClass] {
        &self.block_class
    }

    /// Block indices (ascending) that need a piece of peer slot `pidx`'s
    /// gather message — the dependency table of the overlapped exchange.
    #[inline]
    pub fn peer_unlocks(&self, pidx: usize) -> &[usize] {
        &self.peer_unlocks[pidx]
    }

    /// Counts of `(owned-only, single-peer, multi-peer)` blocks.
    pub fn readiness_histogram(&self) -> (usize, usize, usize) {
        let mut h = (0, 0, 0);
        for c in &self.block_class {
            match c {
                BlockClass::OwnedOnly => h.0 += 1,
                BlockClass::SinglePeer => h.1 += 1,
                BlockClass::MultiPeer => h.2 += 1,
            }
        }
        h
    }

    /// Creates the runtime readiness state for one overlapped STTSV
    /// invocation over `batch` vectors. `pooled` must match the `pool`
    /// argument of the subsequent [`RankPlan::compute_overlapped`] /
    /// [`RankPlan::finish_overlapped`] calls: without a pool the
    /// overlapped compute extends the arena-order prefix block by block;
    /// with one it mirrors [`chunked_compute_flat`]'s fixed chunk
    /// decomposition so the reduction tree — and therefore every output
    /// bit — matches the barrier path.
    pub fn overlap_state(&self, batch: usize, pooled: bool) -> OverlapState {
        let batch = batch.max(1);
        let n = self.blocks.len();
        let block_pending = self.block_deps.clone();
        let mut chunk_of = None;
        let mut chunk_pending = Vec::new();
        let mut ready_chunks = Vec::new();
        let mut chunks = 0;
        let mut partials = Vec::new();
        if pooled {
            chunks = n.min(MAX_COMPUTE_CHUNKS);
            let mut of = vec![0usize; n];
            chunk_pending = vec![0usize; chunks];
            for (c, pending) in chunk_pending.iter_mut().enumerate() {
                let lo = c * n / chunks;
                let hi = (c + 1) * n / chunks;
                for slot in &mut of[lo..hi] {
                    *slot = c;
                }
                *pending = hi - lo;
            }
            for bi in 0..n {
                if block_pending[bi] == 0 {
                    chunk_pending[of[bi]] -= 1;
                    if chunk_pending[of[bi]] == 0 {
                        ready_chunks.push(of[bi]);
                    }
                }
            }
            chunk_of = Some(of);
            partials = vec![None; chunks];
        }
        let mut peer_rows_pending = vec![0usize; self.peers.len()];
        for (t, peers) in self.row_peers.iter().enumerate() {
            if self.row_writers[t] > 0 {
                for &pidx in peers {
                    peer_rows_pending[pidx] += 1;
                }
            }
        }
        OverlapState {
            batch,
            started: false,
            block_pending,
            next_block: 0,
            chunks,
            chunk_of,
            chunk_pending,
            ready_chunks,
            partials,
            row_pending: self.row_writers.clone(),
            peer_rows_pending,
            flushable: Vec::new(),
            computed: 0,
            ternary: 0,
        }
    }

    /// Records the arrival of peer slot `pidx`'s gather message (call
    /// right after [`RankPlan::unpack`]ing it): decrements the pending
    /// count of every block in its dependency table, promoting blocks —
    /// and, in pooled mode, whole chunks — to ready.
    pub fn note_gather_arrival(&self, st: &mut OverlapState, pidx: usize) {
        for &bi in &self.peer_unlocks[pidx] {
            st.block_pending[bi] -= 1;
            if st.block_pending[bi] == 0 {
                if let Some(chunk_of) = &st.chunk_of {
                    let c = chunk_of[bi];
                    st.chunk_pending[c] -= 1;
                    if st.chunk_pending[c] == 0 {
                        st.ready_chunks.push(c);
                    }
                }
            }
        }
    }

    /// Advances the overlapped compute over everything currently ready.
    /// Call once before draining the gather (computes owned-only work)
    /// and after each [`RankPlan::note_gather_arrival`]. Without a pool
    /// this extends the arena-order prefix (block-major over the batch —
    /// bit-identical to the barrier order because distinct vectors write
    /// disjoint slabs) and finalizes rows for the early reduce flush; with
    /// a pool it computes ready chunks into leased zeroed partials that
    /// [`RankPlan::finish_overlapped`] reduces in canonical chunk order.
    pub fn compute_overlapped(
        &self,
        ws: &mut PlanWorkspace,
        st: &mut OverlapState,
        pool: Option<&Pool>,
    ) {
        if !st.started {
            st.started = true;
            let stride = self.stride();
            ws.y[..st.batch * stride].fill(0.0);
            // Peers whose reduce pieces touch only writer-less rows are
            // flushable immediately: those y ranges are final (zero).
            for (pidx, &pending) in st.peer_rows_pending.iter().enumerate() {
                if pending == 0 {
                    st.flushable.push(pidx);
                }
            }
        }
        match pool {
            None => self.advance_prefix(ws, st),
            Some(pool) => self.advance_chunks(ws, st, pool),
        }
    }

    /// Completes the overlapped compute after every gather message has
    /// been received and noted: computes any remaining chunks on the pool,
    /// runs the canonical per-vector reduction tree (pooled mode), marks
    /// every remaining peer's reduce message flushable, and returns the
    /// exact ternary-multiplication count — equal to what
    /// [`RankPlan::compute`] reports for the same inputs.
    pub fn finish_overlapped(
        &self,
        ws: &mut PlanWorkspace,
        st: &mut OverlapState,
        pool: Option<&Pool>,
    ) -> u64 {
        self.compute_overlapped(ws, st, pool);
        match pool {
            None => {
                assert_eq!(
                    st.next_block,
                    self.blocks.len(),
                    "finish_overlapped before all gather arrivals were noted"
                );
            }
            Some(pool) => {
                // Tail chunks (typically unlocked by the final arrivals)
                // run in parallel on the pool, like the barrier path.
                let tail = std::mem::take(&mut st.ready_chunks);
                let (batch, chunk_count) = (st.batch, st.chunks);
                let len = batch * self.stride();
                let wsp = pool.workspaces();
                if !tail.is_empty() {
                    let x = &ws.x[..len];
                    let results = pool.run_chunks(tail.len(), |i| {
                        let c = tail[i];
                        let mut buf = wsp.lease_zeroed(len + lane_words(self.b));
                        let (partial, lanes) = buf.split_at_mut(len);
                        let ternary = self.run_chunk(c, chunk_count, batch, x, partial, lanes);
                        (c, buf, ternary)
                    });
                    let n = self.blocks.len();
                    for (c, buf, ternary) in results {
                        st.ternary += ternary;
                        st.computed += (c + 1) * n / chunk_count - c * n / chunk_count;
                        st.partials[c] = Some(buf);
                    }
                }
                // Canonical reduction: the same fixed pairwise tree over
                // the per-chunk partials in chunk order as
                // `chunked_compute_flat` (elementwise, so per vector too)
                // — chunk *completion* order never leaks into the result.
                let parts: Vec<Vec<f64>> = st
                    .partials
                    .iter_mut()
                    .map(|p| p.take().expect("every chunk computed before finish"))
                    .collect();
                if let Some(acc) = symtensor_pool::tree_reduce(parts, |mut a, bb| {
                    add_into(&mut a[..len], &bb[..len]);
                    wsp.give_back(bb);
                    a
                }) {
                    add_into(&mut ws.y[..len], &acc[..len]);
                    wsp.give_back(acc);
                }
                // All rows are final now; release every unflushed peer.
                for (pidx, pending) in st.peer_rows_pending.iter_mut().enumerate() {
                    if *pending > 0 {
                        *pending = 0;
                        st.flushable.push(pidx);
                    }
                }
            }
        }
        st.ternary
    }

    /// No-pool overlapped compute: extend the computed prefix of the
    /// arena while the next block's dependencies are satisfied, each block
    /// applied to the whole batch at once.
    fn advance_prefix(&self, ws: &mut PlanWorkspace, st: &mut OverlapState) {
        let len = st.batch * self.stride();
        let PlanWorkspace { x, y, lanes, .. } = ws;
        while st.next_block < self.blocks.len() && st.block_pending[st.next_block] == 0 {
            let bi = st.next_block;
            st.ternary += self.run_blocks(bi..bi + 1, st.batch, &x[..len], &mut y[..len], lanes);
            st.next_block += 1;
            st.computed += 1;
            self.note_block_done(st, bi);
        }
    }

    /// Pooled overlapped compute: run chunks that became fully ready,
    /// inline on the calling (comm) thread, each into one leased zeroed
    /// partial holding the whole batch's slabs.
    fn advance_chunks(&self, ws: &mut PlanWorkspace, st: &mut OverlapState, pool: &Pool) {
        let len = st.batch * self.stride();
        let ready = std::mem::take(&mut st.ready_chunks);
        let wsp = pool.workspaces();
        let n = self.blocks.len();
        for c in ready {
            let mut buf = wsp.lease_zeroed(len + lane_words(self.b));
            let (partial, lanes) = buf.split_at_mut(len);
            st.ternary += self.run_chunk(c, st.chunks, st.batch, &ws.x[..len], partial, lanes);
            st.partials[c] = Some(buf);
            st.computed += (c + 1) * n / st.chunks - c * n / st.chunks;
        }
    }

    /// Runs chunk `c` of the canonical `chunks`-way decomposition over
    /// slabs `0..batch`, accumulating into `partial` (same bounds
    /// arithmetic as [`chunked_compute_flat`]).
    fn run_chunk(
        &self,
        c: usize,
        chunks: usize,
        batch: usize,
        x: &[f64],
        partial: &mut [f64],
        lanes: &mut [f64],
    ) -> u64 {
        let n = self.blocks.len();
        self.run_blocks(c * n / chunks..(c + 1) * n / chunks, batch, x, partial, lanes)
    }

    /// Bookkeeping after a block finished for all batch vectors: count
    /// down its rows; a row hitting zero finalizes the corresponding y
    /// ranges, releasing peers whose reduce pieces are now all final.
    fn note_block_done(&self, st: &mut OverlapState, bi: usize) {
        let mut slots = self.blocks[bi].slots;
        slots.sort_unstable();
        for (s, &t) in slots.iter().enumerate() {
            if s > 0 && slots[s - 1] == t {
                continue;
            }
            st.row_pending[t] -= 1;
            if st.row_pending[t] == 0 {
                for &pidx in &self.row_peers[t] {
                    st.peer_rows_pending[pidx] -= 1;
                    if st.peer_rows_pending[pidx] == 0 {
                        st.flushable.push(pidx);
                    }
                }
            }
        }
    }

    /// Copies this rank's shards of output slab `v` into caller-provided
    /// shard vectors (allocation-free when `out` has the right lengths).
    pub fn extract_into(&self, ws: &PlanWorkspace, v: usize, out: &mut [Vec<f64>]) {
        assert_eq!(out.len(), self.t_count);
        let base = v * self.stride();
        for (t, (&(start, len), dst)) in self.my_shards.iter().zip(out).enumerate() {
            dst.clear();
            dst.extend_from_slice(
                &ws.y[base + t * self.b + start..base + t * self.b + start + len],
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

/// Runtime readiness state of one overlapped exchange: per-block pending
/// counts driven by [`RankPlan::note_gather_arrival`], the compute cursor
/// (arena prefix without a pool, chunk partials with one), and the
/// early-flush countdowns that release peers' reduce messages as their y
/// rows finalize. Created fresh per invocation by
/// [`RankPlan::overlap_state`]; all advancement goes through
/// [`RankPlan::compute_overlapped`] / [`RankPlan::finish_overlapped`].
#[derive(Debug)]
pub struct OverlapState {
    /// Vectors in this invocation (fixed at creation).
    batch: usize,
    /// First `compute_overlapped` call zeroes the y slabs and seeds the
    /// initially flushable peers.
    started: bool,
    /// Un-arrived contributing peers per block.
    block_pending: Vec<usize>,
    /// Arena cursor of the no-pool prefix extension.
    next_block: usize,
    /// Canonical chunk count (pooled mode; 0 otherwise).
    chunks: usize,
    /// block index → chunk (pooled mode only).
    chunk_of: Option<Vec<usize>>,
    /// Not-yet-ready blocks per chunk (pooled mode).
    chunk_pending: Vec<usize>,
    /// Chunks whose blocks are all unlocked but not yet computed.
    ready_chunks: Vec<usize>,
    /// Computed per-chunk partials over the whole batch, indexed by
    /// chunk (pooled mode).
    partials: Vec<Option<Vec<f64>>>,
    /// Uncomputed blocks per row slot.
    row_pending: Vec<usize>,
    /// Unfinalized rows per peer's reduce message.
    peer_rows_pending: Vec<usize>,
    /// Peer slots whose reduce message became flushable and has not been
    /// taken yet.
    flushable: Vec<usize>,
    /// Blocks computed so far (across all batch vectors at once).
    computed: usize,
    /// Ternary multiplications accumulated so far.
    ternary: u64,
}

impl OverlapState {
    /// Drains the peer slots whose reduce message became flushable since
    /// the last call (each peer appears exactly once over the whole
    /// invocation). The caller may pack and send those y contributions
    /// immediately — their piece ranges are final.
    pub fn take_flushable(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.flushable)
    }

    /// Blocks whose dependencies have not all arrived yet.
    pub fn pending_blocks(&self) -> usize {
        self.block_pending.iter().filter(|&&p| p > 0).count()
    }

    /// Blocks already computed (prefix length in no-pool mode; sum of
    /// computed chunks' spans in pooled mode).
    pub fn computed_blocks(&self) -> usize {
        self.computed
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
    /// Vectors the slabs currently accommodate.
    batch_cap: usize,
    /// Capacity every leased message buffer is promoted to (the global
    /// maximum message size × batch), so each buffer grows at most once.
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

    /// Returns a buffer to the free list (used for buffers that were
    /// taken but not sent, e.g. the padded mode's self slot).
    pub fn give_back(&mut self, buf: Vec<f64>) {
        self.bufs.push(buf);
    }

    /// Buffers currently in the free list.
    pub fn pooled_bufs(&self) -> usize {
        self.bufs.len()
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
    fn readiness_partition_covers_every_block() {
        let (_part, _owned, plan) = plan_for(30, 2, 2);
        let (owned_only, single, multi) = plan.readiness_histogram();
        assert_eq!(owned_only + single + multi, plan.block_count());
        // peer_unlocks inverts block_deps: each block appears in exactly
        // `deps` peers' tables, ascending.
        let mut appearances = vec![0usize; plan.block_count()];
        for pidx in 0..plan.peers().len() {
            let unlocks = plan.peer_unlocks(pidx);
            assert!(unlocks.windows(2).all(|w| w[0] < w[1]), "ascending, no dups");
            for &bi in unlocks {
                appearances[bi] += 1;
            }
        }
        for (bi, (&count, class)) in appearances.iter().zip(plan.block_classes()).enumerate() {
            match class {
                BlockClass::OwnedOnly => assert_eq!(count, 0, "block {bi}"),
                BlockClass::SinglePeer => assert_eq!(count, 1, "block {bi}"),
                BlockClass::MultiPeer => assert!(count >= 2, "block {bi}"),
            }
        }
    }

    #[test]
    fn overlapped_compute_is_bitwise_identical_to_barrier() {
        use rand::Rng;
        for (threads, batch) in [(0usize, 1usize), (0, 3), (3, 1), (3, 2)] {
            let (_part, _owned, plan) = plan_for(30, 2, 1);
            let pool = (threads > 0).then(|| Pool::new(threads));
            let mut rng = StdRng::seed_from_u64(42 + threads as u64);
            let x_full: Vec<Vec<Vec<f64>>> = (0..batch)
                .map(|v| {
                    (0..plan.row_block_count())
                        .map(|t| {
                            (0..plan.block_size())
                                .map(|w| ((v * 131 + t * 17 + w) % 23) as f64 - 11.0)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            // Barrier reference.
            let mut ws_ref = PlanWorkspace::new();
            plan.ensure_capacity(&mut ws_ref, batch);
            for (v, xf) in x_full.iter().enumerate() {
                plan.load_full(&mut ws_ref, v, xf);
            }
            let ternary_ref = plan.compute(&mut ws_ref, batch, pool.as_ref());
            // Overlapped, with peer arrivals in a shuffled order.
            let mut ws = PlanWorkspace::new();
            plan.ensure_capacity(&mut ws, batch);
            for (v, xf) in x_full.iter().enumerate() {
                plan.load_full(&mut ws, v, xf);
            }
            let mut st = plan.overlap_state(batch, pool.is_some());
            plan.compute_overlapped(&mut ws, &mut st, pool.as_ref());
            let mut order: Vec<usize> = (0..plan.peers().len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut flushed = Vec::new();
            flushed.extend(st.take_flushable());
            for pidx in order {
                plan.note_gather_arrival(&mut st, pidx);
                plan.compute_overlapped(&mut ws, &mut st, pool.as_ref());
                flushed.extend(st.take_flushable());
            }
            let ternary = plan.finish_overlapped(&mut ws, &mut st, pool.as_ref());
            flushed.extend(st.take_flushable());
            assert_eq!(ternary, ternary_ref, "threads={threads} batch={batch}");
            assert_eq!(st.pending_blocks(), 0);
            assert_eq!(st.computed_blocks(), plan.block_count());
            // Every peer's reduce message flushes exactly once.
            flushed.sort_unstable();
            let expect: Vec<usize> = (0..plan.peers().len()).collect();
            assert_eq!(flushed, expect, "threads={threads} batch={batch}");
            for v in 0..batch {
                let got = plan.output_slab(&ws, v);
                let want = plan.output_slab(&ws_ref, v);
                assert!(
                    got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "slab {v} differs (threads={threads} batch={batch})"
                );
            }
        }
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
