//! Per-rank owned tensor storage and the local STTSV kernels.
//!
//! Under the owner-compute rule each processor extracts its blocks from the
//! global tensor **once** and never communicates them. Storage layouts:
//!
//! * off-diagonal block `(I, J, K)`, `I > J > K`: dense `b³`, index
//!   `(li·b + lj)·b + lk` with `li/lj/lk` local to `I/J/K`,
//! * non-central `(I, I, K)`: the `li ≥ lj` triangle over `I` crossed with
//!   `K`, index `tri(li, lj)·b + lk`,
//! * non-central `(I, K, K)`: `I` crossed with the `lj ≥ lk` triangle over
//!   `K`, index `li·tri_len + tri(lj, lk)`,
//! * central `(I, I, I)`: the packed `li ≥ lj ≥ lk` tetrahedron.
//!
//! The kernels perform, per stored element, exactly the updates of the
//! paper's Algorithm 4 case analysis (lines 24–36 of Algorithm 5), and
//! count ternary multiplications in the paper's model (3 / 2 / 1 updates
//! per element depending on index coincidences).
//!
//! Two kernel families share those updates. `block_kernel_flat` applies
//! a block to one vector; it is the bit-reference behind
//! [`OwnedBlocks::compute`]. `block_kernel_batch` is the compiled plan's
//! kernel: it loads each packed tensor row once and applies it to up to
//! [`LANES`] vectors in one pass, each vector with its own accumulator
//! chain. A batch therefore reads the block once per `LANES` vectors
//! instead of once per vector, and every vector sees exactly the
//! floating-point operations of the one-vector kernel, in the same order,
//! so the output bits do not depend on the batch.
//!
//! The batch kernel is compiled three times: for the baseline target and,
//! on x86-64, inside `avx2` and `avx512f` `#[target_feature]` wrappers
//! (one [`LANES`] group of `f64` fills one `zmm` register). The widest
//! instance the host supports is detected once per process, and each
//! compiled plan calls it through its kernel pointer; [`kernel_isa`] names
//! it. The instances return the same bits: the body uses no intrinsics,
//! and Rust never contracts `a * b + c` into a fused multiply-add, even
//! when the target has FMA, so each lane keeps the baseline's operations
//! and rounding.

use crate::partition::TetraPartition;
use crate::tetra::{BlockIdx, BlockKind};
use symtensor_core::seq::row_segment;
use symtensor_core::storage::packed_index;
use symtensor_core::SymTensor3;

#[inline]
fn tet_idx(a: usize, b: usize, c: usize) -> usize {
    debug_assert!(a >= b && b >= c);
    a * (a + 1) * (a + 2) / 6 + b * (b + 1) / 2 + c
}

/// One extracted tensor block with its data in the kind-specific layout.
#[derive(Clone, Debug)]
pub struct OwnedBlock {
    /// The block's (sorted) row-block triple.
    pub idx: BlockIdx,
    /// Its classification (off-diagonal / non-central / central).
    pub kind: BlockKind,
    /// Entries in the kind-specific layout documented at module level.
    pub data: Vec<f64>,
}

/// All tensor blocks owned by one rank.
#[derive(Clone, Debug)]
pub struct OwnedBlocks {
    /// The extracted blocks, sorted by block index.
    pub blocks: Vec<OwnedBlock>,
    b: usize,
}

/// Appends block `idx`'s entries to `out` in its kind's layout (see the
/// module docs); `b` is the block size. Every layout's innermost `lk` run
/// is one contiguous run of the packed tetrahedron, `b` long for
/// off-diagonal and `(I, I, K)` blocks and `lj + 1` long for `(I, K, K)`
/// and central blocks, so each run is copied whole.
pub(crate) fn extract_block(tensor: &SymTensor3, idx: BlockIdx, b: usize, out: &mut Vec<f64>) {
    let packed = tensor.packed();
    let mut run = |i: usize, j: usize, k: usize, len: usize| {
        let at = packed_index(i, j, k);
        out.extend_from_slice(&packed[at..at + len]);
    };
    let (gi, gj, gk) = (idx.i * b, idx.j * b, idx.k * b);
    match idx.kind() {
        BlockKind::OffDiagonal => {
            for li in 0..b {
                for lj in 0..b {
                    run(gi + li, gj + lj, gk, b);
                }
            }
        }
        BlockKind::NonCentralIIK => {
            for li in 0..b {
                for lj in 0..=li {
                    run(gi + li, gi + lj, gk, b);
                }
            }
        }
        BlockKind::NonCentralIKK => {
            for li in 0..b {
                for lj in 0..b {
                    run(gi + li, gk + lj, gk, lj + 1);
                }
            }
        }
        BlockKind::CentralDiagonal => {
            for li in 0..b {
                for lj in 0..=li {
                    run(gi + li, gi + lj, gi, lj + 1);
                }
            }
        }
    }
}

impl OwnedBlocks {
    /// Extracts processor `p`'s blocks from the global tensor.
    pub fn extract(tensor: &SymTensor3, part: &TetraPartition, p: usize) -> Self {
        assert_eq!(tensor.dim(), part.dim(), "tensor dimension mismatch");
        let b = part.block_size();
        let blocks = part
            .owned_blocks(p)
            .into_iter()
            .map(|idx| {
                let kind = idx.kind();
                let mut data = Vec::with_capacity(crate::tetra::entries_in_block(kind, b));
                extract_block(tensor, idx, b, &mut data);
                OwnedBlock { idx, kind, data }
            })
            .collect();
        OwnedBlocks { blocks, b }
    }

    /// Builds processor `p`'s block *structure* with zeroed data — used by
    /// receivers of a tensor scatter, which fill the data in afterwards.
    /// The block order and per-block lengths are deterministic functions of
    /// the partition, so sender and receiver agree without metadata.
    pub fn extract_empty(part: &TetraPartition, p: usize) -> Self {
        let b = part.block_size();
        let blocks = part
            .owned_blocks(p)
            .into_iter()
            .map(|idx| {
                let kind = idx.kind();
                let len = crate::tetra::entries_in_block(kind, b);
                OwnedBlock { idx, kind, data: vec![0.0; len] }
            })
            .collect();
        OwnedBlocks { blocks, b }
    }

    /// Total stored words.
    pub fn words(&self) -> usize {
        self.blocks.iter().map(|blk| blk.data.len()).sum()
    }

    /// The block edge length `b` these blocks were extracted with.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Resolves every block's `(i, j, k)` row-block triple into row *slots*
    /// (positions within `R_p`) **once**, so the kernels index flat `x`/`y`
    /// slabs directly instead of dispatching a lookup closure per block.
    pub(crate) fn slot_table<F>(&self, row_pos: &F) -> Vec<[usize; 3]>
    where
        F: Fn(usize) -> usize,
    {
        self.blocks
            .iter()
            .map(|blk| [row_pos(blk.idx.i), row_pos(blk.idx.j), row_pos(blk.idx.k)])
            .collect()
    }

    /// Runs the local STTSV kernels: `x_full` maps row-block index → the
    /// gathered full row block (length `b`); contributions accumulate into
    /// `y_acc` (same keying). Returns the ternary-multiplication count in
    /// the paper's model.
    ///
    /// `x_full`/`y_acc` are indexed by *position within `R_p`*; the
    /// `row_pos` lookup supplied by the caller is resolved **once** into a
    /// slot table up front (not dispatched per block), and the kernels run
    /// over flat `t_count·b` slabs.
    pub fn compute<F>(&self, x_full: &[Vec<f64>], y_acc: &mut [Vec<f64>], row_pos: F) -> u64
    where
        F: Fn(usize) -> usize,
    {
        let b = self.b;
        let slots = self.slot_table(&row_pos);
        let t_count = x_full.len();
        let mut x_flat = vec![0.0; t_count * b];
        for (t, row) in x_full.iter().enumerate() {
            debug_assert_eq!(row.len(), b);
            x_flat[t * b..t * b + b].copy_from_slice(row);
        }
        let mut y_flat = vec![0.0; t_count * b];
        let mut scratch = vec![0.0; 3 * b];
        let mut ternary: u64 = 0;
        for (blk, &s) in self.blocks.iter().zip(&slots) {
            ternary +=
                block_kernel_flat(blk.kind, &blk.data, b, s, &x_flat, &mut y_flat, &mut scratch);
        }
        for (t, row) in y_acc.iter_mut().enumerate() {
            add_into(row, &y_flat[t * b..t * b + b]);
        }
        ternary
    }
}

/// Dispatches one block's data to its kind-specific flat kernel.
///
/// `x`/`y` are flat `t_count·b` slabs keyed by row slot (`slots` holds the
/// precomputed slots of the block's `(i, j, k)` rows); `scratch` is a
/// caller-provided `3b`-word buffer, re-zeroed here so it can be reused
/// across blocks without reallocation. Returns the block's exact ternary
/// count.
#[inline]
pub(crate) fn block_kernel_flat(
    kind: BlockKind,
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    match kind {
        BlockKind::OffDiagonal => off_diagonal_flat(data, b, slots, x, y, scratch),
        BlockKind::NonCentralIIK => iik_flat(data, b, slots, x, y, scratch),
        BlockKind::NonCentralIKK => ikk_flat(data, b, slots, x, y, scratch),
        BlockKind::CentralDiagonal => central_flat(data, b, slots, x, y, scratch),
    }
}

/// Off-diagonal block: all global indices strictly ordered, so every element
/// performs the full 3-update with symmetry factor 2 (3 ternary mults in the
/// model). The inner loop is one fused contiguous pass over `lk`: the
/// `y_K` update and the `Σ_k a·x_k` dot product share a single load of the
/// tensor element.
#[inline]
fn off_diagonal_flat(
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let [pi, pj, pk] = slots;
    let (yi_local, rest) = scratch.split_at_mut(b);
    let (yj_local, yk_local) = rest.split_at_mut(b);
    yi_local.fill(0.0);
    yj_local.fill(0.0);
    yk_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let xj = &x[pj * b..pj * b + b];
    let xk = &x[pk * b..pk * b + b];
    for (li, &xia) in xi.iter().enumerate() {
        for (lj, &xjb) in xj.iter().enumerate() {
            let row = &data[(li * b + lj) * b..(li * b + lj) * b + b];
            let pref = 2.0 * xia * xjb;
            let mut dot_k = 0.0;
            for ((&v, &xkv), ykv) in row.iter().zip(xk).zip(yk_local.iter_mut()) {
                *ykv += pref * v;
                dot_k += v * xkv;
            }
            yi_local[li] += 2.0 * dot_k * xjb;
            yj_local[lj] += 2.0 * dot_k * xia;
        }
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    add_into(&mut y[pj * b..pj * b + b], yj_local);
    add_into(&mut y[pk * b..pk * b + b], yk_local);
    3 * (b as u64).pow(3)
}

/// Non-central (I, I, K): elements `(gi+li, gi+lj, gk+lk)` with `li ≥ lj`.
#[inline]
fn iik_flat(
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let (pi, pk) = (slots[0], slots[2]);
    let (yi_local, rest) = scratch.split_at_mut(b);
    let (yk_local, _) = rest.split_at_mut(b);
    yi_local.fill(0.0);
    yk_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let xk = &x[pk * b..pk * b + b];
    let mut ternary = 0u64;
    let mut pos = 0;
    for li in 0..b {
        for lj in 0..=li {
            let row = &data[pos..pos + b];
            pos += b;
            if li != lj {
                // Global i > j > k: full 3-update.
                let pref = 2.0 * xi[li] * xi[lj];
                let mut dot_k = 0.0;
                for ((&v, &xkv), ykv) in row.iter().zip(xk).zip(yk_local.iter_mut()) {
                    *ykv += pref * v;
                    dot_k += v * xkv;
                }
                yi_local[li] += 2.0 * dot_k * xi[lj];
                yi_local[lj] += 2.0 * dot_k * xi[li];
                ternary += 3 * b as u64;
            } else {
                // Global i == j > k: y_i += 2·a·x_i·x_k ; y_k += a·x_i².
                let sq = xi[li] * xi[li];
                let mut dot_k = 0.0;
                for ((&v, &xkv), ykv) in row.iter().zip(xk).zip(yk_local.iter_mut()) {
                    *ykv += sq * v;
                    dot_k += v * xkv;
                }
                yi_local[li] += 2.0 * dot_k * xi[li];
                ternary += 2 * b as u64;
            }
        }
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    add_into(&mut y[pk * b..pk * b + b], yk_local);
    ternary
}

/// Non-central (I, K, K): elements `(gi+li, gk+lj, gk+lk)` with `lj ≥ lk`.
///
/// Fused like [`row_segment`]: per packed row `(li, lj)` the strict
/// `lk < lj` run shares one pass between the `y_K` update and the dot
/// product, with the `lj == lk` diagonal element peeled as an epilogue.
#[inline]
fn ikk_flat(
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let (pi, pk) = (slots[0], slots[2]);
    let (yi_local, rest) = scratch.split_at_mut(b);
    let (yk_local, _) = rest.split_at_mut(b);
    yi_local.fill(0.0);
    yk_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let xk = &x[pk * b..pk * b + b];
    let tri_len = b * (b + 1) / 2;
    let mut ternary = 0u64;
    for (li, &xia) in xi.iter().enumerate() {
        let slab = &data[li * tri_len..(li + 1) * tri_len];
        let mut pos = 0;
        let mut yi_row = 0.0;
        for (lj, &xjb) in xk.iter().enumerate() {
            let row = &slab[pos..pos + lj + 1];
            pos += lj + 1;
            // Strict lk < lj (global i > j > k): fused 3-update.
            let pref = 2.0 * xia * xjb;
            let mut dot = 0.0;
            for ((&v, &xkv), ykv) in row[..lj].iter().zip(&xk[..lj]).zip(yk_local[..lj].iter_mut())
            {
                *ykv += pref * v;
                dot += v * xkv;
            }
            yi_row += 2.0 * xjb * dot;
            yk_local[lj] += 2.0 * xia * dot;
            // lj == lk epilogue (global i > j == k):
            // y_i += a·x_k² ; y_k += 2·a·x_i·x_k.
            let v = row[lj];
            yi_row += v * xjb * xjb;
            yk_local[lj] += 2.0 * v * xia * xjb;
            ternary += 3 * lj as u64 + 2;
        }
        yi_local[li] += yi_row;
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    add_into(&mut y[pk * b..pk * b + b], yk_local);
    ternary
}

/// Central (I, I, I): the packed `li ≥ lj ≥ lk` tetrahedron **is** a packed
/// symmetric `b`-tensor, so the kernel is a cursor walk delegating each
/// packed row to [`row_segment`] — literally the same inner loop as the
/// flat-slab sequential kernel in `core::seq`.
#[inline]
fn central_flat(
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    x: &[f64],
    y: &mut [f64],
    scratch: &mut [f64],
) -> u64 {
    let pi = slots[0];
    let (yi_local, _) = scratch.split_at_mut(b);
    yi_local.fill(0.0);
    let xi = &x[pi * b..pi * b + b];
    let mut ternary = 0u64;
    let mut pos = 0;
    for li in 0..b {
        for lj in 0..=li {
            debug_assert_eq!(pos, tet_idx(li, lj, 0));
            ternary += row_segment(&data[pos..pos + lj + 1], li, lj, 0, xi, yi_local);
            pos += lj + 1;
        }
    }
    add_into(&mut y[pi * b..pi * b + b], yi_local);
    ternary
}

#[inline]
pub(crate) fn add_into(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Vectors one pass of the compiled plan's batch kernel applies each
/// tensor row to; larger batches run in groups of `LANES`. Chosen by
/// measurement (EXPERIMENTS.md E20).
pub const LANES: usize = 8;

/// Words of lane staging one [`block_kernel_batch`] call needs for block
/// size `b`: three gathered `x` rows and three `y` locals, each `b`
/// elements of `LANES` interleaved vectors.
pub(crate) const fn lane_words(b: usize) -> usize {
    6 * b * LANES
}

/// The signature of every [`BatchKernel`] instance: [`block_kernel_batch`]'s,
/// `unsafe` because a `#[target_feature]` instance may only run on a host
/// that has its feature.
type BatchFn = unsafe fn(
    BlockKind,
    &[f64],
    usize,
    [usize; 3],
    usize,
    usize,
    &[f64],
    &mut [f64],
    &mut [f64],
) -> u64;

/// One compiled instance of the batch kernel: the same
/// [`block_kernel_batch`] body built for the baseline target or, on
/// x86-64, inside an `avx2` or `avx512f` `#[target_feature]` wrapper. A
/// [`RankPlan`](crate::RankPlan) holds the instance it runs and calls it
/// through [`BatchKernel::run`]. Every instance returns the same bits (see
/// the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BatchKernel {
    isa: &'static str,
    /// [`block_kernel_batch`] itself, or a `#[target_feature]` wrapper
    /// whose feature [`BatchKernel::supported`] saw the host report.
    call: BatchFn,
}

impl BatchKernel {
    /// The instance built for the baseline target, which every host runs.
    pub(crate) const BASELINE: Self = BatchKernel { isa: "baseline", call: block_kernel_batch };

    /// Every instance this host can run, widest first; the baseline is
    /// always last.
    pub(crate) fn supported() -> Vec<Self> {
        let mut kernels = Vec::with_capacity(3);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                kernels.push(BatchKernel { isa: "avx512f", call: block_kernel_batch_avx512f });
            }
            if is_x86_feature_detected!("avx2") {
                kernels.push(BatchKernel { isa: "avx2", call: block_kernel_batch_avx2 });
            }
        }
        kernels.push(Self::BASELINE);
        kernels
    }

    /// The widest instance the host supports, detected once per process.
    pub(crate) fn detected() -> Self {
        static DETECTED: std::sync::OnceLock<BatchKernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| Self::supported()[0])
    }

    /// The instance a newly built plan runs: [`BatchKernel::detected`],
    /// unless a test has forced the baseline.
    pub(crate) fn for_plan() -> Self {
        #[cfg(test)]
        if tests::FORCE_BASELINE.load(std::sync::atomic::Ordering::SeqCst) {
            return Self::BASELINE;
        }
        Self::detected()
    }

    /// The instruction set this instance was compiled for.
    pub(crate) fn isa(&self) -> &'static str {
        self.isa
    }

    /// Runs [`block_kernel_batch`] through this instance.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn run(
        &self,
        kind: BlockKind,
        data: &[f64],
        b: usize,
        slots: [usize; 3],
        stride: usize,
        batch: usize,
        x: &[f64],
        y: &mut [f64],
        lanes: &mut [f64],
    ) -> u64 {
        // SAFETY: `call` is either the baseline `block_kernel_batch`, which
        // has no requirement, or a `#[target_feature]` wrapper, which only
        // `BatchKernel::supported` constructs, right after
        // `is_x86_feature_detected!` reported that feature on this host.
        unsafe { (self.call)(kind, data, b, slots, stride, batch, x, y, lanes) }
    }
}

/// The instruction set of the batch kernel compiled plans run on this
/// host: `"avx512f"`, `"avx2"` or `"baseline"`. Detected once per
/// process; every instance returns the same bits.
pub fn kernel_isa() -> &'static str {
    BatchKernel::detected().isa()
}

/// [`block_kernel_batch`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn block_kernel_batch_avx2(
    kind: BlockKind,
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    stride: usize,
    batch: usize,
    x: &[f64],
    y: &mut [f64],
    lanes: &mut [f64],
) -> u64 {
    block_kernel_batch(kind, data, b, slots, stride, batch, x, y, lanes)
}

/// [`block_kernel_batch`] compiled for AVX-512F, where the [`LANES`]
/// `f64` of one group fill one `zmm` register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn block_kernel_batch_avx512f(
    kind: BlockKind,
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    stride: usize,
    batch: usize,
    x: &[f64],
    y: &mut [f64],
    lanes: &mut [f64],
) -> u64 {
    block_kernel_batch(kind, data, b, slots, stride, batch, x, y, lanes)
}

/// Applies one block to every vector of a batch. `x`/`y` hold `batch`
/// vector-major slabs of `stride` words, keyed by row slot like
/// [`block_kernel_flat`]'s; `lanes` is [`lane_words`]`(b)` words of
/// staging. Vectors run in groups of [`LANES`], the last group through the
/// instance of the same kernel for its size. Returns the batch's exact
/// ternary count. Every vector's `y` bits equal those of
/// [`block_kernel_flat`] on that vector alone.
///
/// The group-size `match` calls the lane instances directly, so the whole
/// body inlines into each [`BatchKernel`] wrapper and compiles for its
/// instruction set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_kernel_batch(
    kind: BlockKind,
    data: &[f64],
    b: usize,
    slots: [usize; 3],
    stride: usize,
    batch: usize,
    x: &[f64],
    y: &mut [f64],
    lanes: &mut [f64],
) -> u64 {
    let mut ternary = 0;
    let mut v0 = 0;
    while v0 < batch {
        let n = (batch - v0).min(LANES);
        let group = v0 * stride..(v0 + n) * stride;
        let (x, y) = (&x[group.clone()], &mut y[group]);
        ternary += match n {
            1 => block_kernel_lanes::<1>(kind, data, b, slots, stride, x, y, lanes),
            2 => block_kernel_lanes::<2>(kind, data, b, slots, stride, x, y, lanes),
            3 => block_kernel_lanes::<3>(kind, data, b, slots, stride, x, y, lanes),
            4 => block_kernel_lanes::<4>(kind, data, b, slots, stride, x, y, lanes),
            5 => block_kernel_lanes::<5>(kind, data, b, slots, stride, x, y, lanes),
            6 => block_kernel_lanes::<6>(kind, data, b, slots, stride, x, y, lanes),
            7 => block_kernel_lanes::<7>(kind, data, b, slots, stride, x, y, lanes),
            8 => block_kernel_lanes::<8>(kind, data, b, slots, stride, x, y, lanes),
            _ => unreachable!("group size {n} exceeds LANES"),
        };
        v0 += n;
    }
    ternary
}

// `block_kernel_batch` dispatches group sizes 1..=8.
const _: () = assert!(LANES >= 1 && LANES <= 8);

/// One group of `N` vectors: gathers the block's `x` rows into
/// lane-interleaved staging (element `e` of vector `l` at `e·N + l`), runs
/// the kind's lane kernel into zeroed interleaved `y` locals, and adds the
/// locals into each vector's slab in the row order of
/// [`block_kernel_flat`].
///
/// Each lane kernel repeats its one-vector counterpart expression by
/// expression, with the same operand order and association, per lane.
/// That is what keeps every vector's bits independent of the batch; a
/// change to either family must be made to both.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_kernel_lanes<const N: usize>(
    kind: BlockKind,
    data: &[f64],
    b: usize,
    [pi, pj, pk]: [usize; 3],
    stride: usize,
    x: &[f64],
    y: &mut [f64],
    lanes: &mut [f64],
) -> u64 {
    let slots: &[usize] = match kind {
        BlockKind::OffDiagonal => &[pi, pj, pk],
        BlockKind::NonCentralIIK | BlockKind::NonCentralIKK => &[pi, pk],
        BlockKind::CentralDiagonal => &[pi],
    };
    let w = b * N;
    let (lx, ly) = lanes[..6 * w].split_at_mut(3 * w);
    for (&slot, dst) in slots.iter().zip(lx.chunks_exact_mut(w)) {
        for l in 0..N {
            let src = &x[l * stride + slot * b..l * stride + slot * b + b];
            for (e, &v) in src.iter().enumerate() {
                dst[e * N + l] = v;
            }
        }
    }
    ly[..slots.len() * w].fill(0.0);
    let (xi, rest) = lx.split_at(w);
    let (xj, xk) = rest.split_at(w);
    let (yi, rest) = ly.split_at_mut(w);
    let (yj, yk) = rest.split_at_mut(w);
    let per_vector = match kind {
        BlockKind::OffDiagonal => off_diagonal_lanes::<N>(data, b, xi, xj, xk, yi, yj, yk),
        BlockKind::NonCentralIIK => iik_lanes::<N>(data, b, xi, xj, yi, yj),
        BlockKind::NonCentralIKK => ikk_lanes::<N>(data, b, xi, xj, yi, yj),
        BlockKind::CentralDiagonal => central_lanes::<N>(data, b, xi, yi),
    };
    for (&slot, src) in slots.iter().zip(ly.chunks_exact(w)) {
        for l in 0..N {
            let dst = &mut y[l * stride + slot * b..l * stride + slot * b + b];
            for (e, d) in dst.iter_mut().enumerate() {
                *d += src[e * N + l];
            }
        }
    }
    N as u64 * per_vector
}

/// The fused inner pass shared by every lane kernel: for each element `v`
/// of `row`, `y[k] += coef · v` and `dot += v · x[k]` on all `N` lanes,
/// with `x`/`y` lane-interleaved. Returns the `N` dot products.
#[inline(always)]
fn fused_row<const N: usize>(row: &[f64], coef: &[f64; N], x: &[f64], y: &mut [f64]) -> [f64; N] {
    let mut dot = [0.0; N];
    for ((&v, xv), yv) in row.iter().zip(x.chunks_exact(N)).zip(y.chunks_exact_mut(N)) {
        for l in 0..N {
            yv[l] += coef[l] * v;
            dot[l] += v * xv[l];
        }
    }
    dot
}

/// Element `e` of an interleaved row, as an array over its `N` lanes.
#[inline(always)]
fn lanes_at<const N: usize>(row: &[f64], e: usize) -> [f64; N] {
    row[e * N..e * N + N].try_into().expect("N lanes")
}

/// [`off_diagonal_flat`] on `N` interleaved vectors. Returns the
/// per-vector ternary count.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn off_diagonal_lanes<const N: usize>(
    data: &[f64],
    b: usize,
    xi: &[f64],
    xj: &[f64],
    xk: &[f64],
    yi: &mut [f64],
    yj: &mut [f64],
    yk: &mut [f64],
) -> u64 {
    for li in 0..b {
        let xia = lanes_at::<N>(xi, li);
        for lj in 0..b {
            let xjb = lanes_at::<N>(xj, lj);
            let row = &data[(li * b + lj) * b..(li * b + lj) * b + b];
            let pref: [f64; N] = std::array::from_fn(|l| 2.0 * xia[l] * xjb[l]);
            let dot = fused_row::<N>(row, &pref, xk, yk);
            for l in 0..N {
                yi[li * N + l] += 2.0 * dot[l] * xjb[l];
                yj[lj * N + l] += 2.0 * dot[l] * xia[l];
            }
        }
    }
    3 * (b as u64).pow(3)
}

/// [`iik_flat`] on `N` interleaved vectors.
#[inline(always)]
fn iik_lanes<const N: usize>(
    data: &[f64],
    b: usize,
    xi: &[f64],
    xk: &[f64],
    yi: &mut [f64],
    yk: &mut [f64],
) -> u64 {
    let mut ternary = 0u64;
    let mut pos = 0;
    for li in 0..b {
        let xia = lanes_at::<N>(xi, li);
        for lj in 0..=li {
            let row = &data[pos..pos + b];
            pos += b;
            let xjb = lanes_at::<N>(xi, lj);
            if li != lj {
                let pref: [f64; N] = std::array::from_fn(|l| 2.0 * xia[l] * xjb[l]);
                let dot = fused_row::<N>(row, &pref, xk, yk);
                for l in 0..N {
                    yi[li * N + l] += 2.0 * dot[l] * xjb[l];
                    yi[lj * N + l] += 2.0 * dot[l] * xia[l];
                }
                ternary += 3 * b as u64;
            } else {
                let sq: [f64; N] = std::array::from_fn(|l| xia[l] * xia[l]);
                let dot = fused_row::<N>(row, &sq, xk, yk);
                for l in 0..N {
                    yi[li * N + l] += 2.0 * dot[l] * xia[l];
                }
                ternary += 2 * b as u64;
            }
        }
    }
    ternary
}

/// [`ikk_flat`] on `N` interleaved vectors.
#[inline(always)]
fn ikk_lanes<const N: usize>(
    data: &[f64],
    b: usize,
    xi: &[f64],
    xk: &[f64],
    yi: &mut [f64],
    yk: &mut [f64],
) -> u64 {
    let tri_len = b * (b + 1) / 2;
    let mut ternary = 0u64;
    for li in 0..b {
        let xia = lanes_at::<N>(xi, li);
        let slab = &data[li * tri_len..(li + 1) * tri_len];
        let mut pos = 0;
        let mut yi_row = [0.0; N];
        for lj in 0..b {
            let xjb = lanes_at::<N>(xk, lj);
            let row = &slab[pos..pos + lj + 1];
            pos += lj + 1;
            let pref: [f64; N] = std::array::from_fn(|l| 2.0 * xia[l] * xjb[l]);
            let dot = fused_row::<N>(&row[..lj], &pref, &xk[..lj * N], &mut yk[..lj * N]);
            let v = row[lj];
            for l in 0..N {
                yi_row[l] += 2.0 * xjb[l] * dot[l];
                yk[lj * N + l] += 2.0 * xia[l] * dot[l];
                yi_row[l] += v * xjb[l] * xjb[l];
                yk[lj * N + l] += 2.0 * v * xia[l] * xjb[l];
            }
            ternary += 3 * lj as u64 + 2;
        }
        for l in 0..N {
            yi[li * N + l] += yi_row[l];
        }
    }
    ternary
}

/// [`central_flat`] on `N` interleaved vectors: [`row_segment`]'s updates
/// over the packed tetrahedron, row by row.
#[inline(always)]
fn central_lanes<const N: usize>(data: &[f64], b: usize, x: &[f64], y: &mut [f64]) -> u64 {
    let mut ternary = 0u64;
    let mut pos = 0;
    for i in 0..b {
        let xi = lanes_at::<N>(x, i);
        for j in 0..=i {
            let row = &data[pos..pos + j + 1];
            pos += j + 1;
            let xj = lanes_at::<N>(x, j);
            let a = row[j];
            if i != j {
                let pref: [f64; N] = std::array::from_fn(|l| 2.0 * xi[l] * xj[l]);
                let dot = fused_row::<N>(&row[..j], &pref, &x[..j * N], &mut y[..j * N]);
                for l in 0..N {
                    y[i * N + l] += 2.0 * xj[l] * dot[l];
                    y[j * N + l] += 2.0 * xi[l] * dot[l];
                    y[i * N + l] += a * xj[l] * xj[l];
                    y[j * N + l] += 2.0 * a * xi[l] * xj[l];
                }
                ternary += 3 * j as u64 + 2;
            } else {
                let sq: [f64; N] = std::array::from_fn(|l| xi[l] * xi[l]);
                let dot = fused_row::<N>(&row[..i], &sq, &x[..i * N], &mut y[..i * N]);
                for l in 0..N {
                    y[i * N + l] += 2.0 * xi[l] * dot[l];
                    y[i * N + l] += a * sq[l];
                }
                ternary += 2 * i as u64 + 1;
            }
        }
    }
    ternary
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tetra::{entries_in_block, ternary_mults_in_block};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};
    use symtensor_core::generate::random_symmetric;
    use symtensor_core::seq::sttsv_sym;
    use symtensor_steiner::{spherical, sqs8};

    /// While set, newly built plans run [`BatchKernel::BASELINE`].
    pub(crate) static FORCE_BASELINE: AtomicBool = AtomicBool::new(false);

    static KERNEL_LOCK: Mutex<()> = Mutex::new(());

    /// Serializes the tests that force or observe the instance a plan
    /// runs; other tests may build plans meanwhile, and every instance
    /// gives them the same bits.
    pub(crate) fn kernel_lock() -> MutexGuard<'static, ()> {
        KERNEL_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` with every plan it builds on the baseline instance.
    pub(crate) fn with_baseline_plans<R>(f: impl FnOnce() -> R) -> R {
        struct Forced(#[allow(dead_code)] MutexGuard<'static, ()>);
        impl Drop for Forced {
            fn drop(&mut self) {
                FORCE_BASELINE.store(false, Ordering::SeqCst);
            }
        }
        let _forced = Forced(kernel_lock());
        FORCE_BASELINE.store(true, Ordering::SeqCst);
        f()
    }

    /// The widest instance the host reports, by direct feature detection.
    pub(crate) fn widest_isa() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return "avx512f";
            }
            if is_x86_feature_detected!("avx2") {
                return "avx2";
            }
        }
        "baseline"
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn detection_picks_the_widest_supported_instance() {
        let supported: Vec<&str> = BatchKernel::supported().iter().map(|k| k.isa()).collect();
        assert_eq!(supported[0], widest_isa());
        assert_eq!(supported.last(), Some(&"baseline"));
        assert_eq!(kernel_isa(), widest_isa());
        assert_eq!(BatchKernel::detected().isa(), widest_isa());
    }

    /// Every instance the host runs gives the baseline's bits and ternary
    /// count, and the baseline gives [`block_kernel_flat`]'s per vector:
    /// every block kind, batches `1..=LANES + 2` (full and remainder
    /// groups), and block sizes that are not multiples of 8 (tails).
    #[test]
    fn every_supported_instance_matches_the_baseline_bitwise() {
        let mut rng = StdRng::seed_from_u64(76);
        let kinds = [
            (BlockKind::OffDiagonal, [0, 1, 2]),
            (BlockKind::NonCentralIIK, [2, 2, 0]),
            (BlockKind::NonCentralIKK, [2, 1, 1]),
            (BlockKind::CentralDiagonal, [1, 1, 1]),
        ];
        let t_count = 3;
        for b in [1, 3, 7, 12] {
            let stride = t_count * b;
            for (kind, slots) in kinds {
                let data: Vec<f64> =
                    (0..entries_in_block(kind, b)).map(|_| rng.gen::<f64>() - 0.5).collect();
                for batch in 1..=LANES + 2 {
                    let x: Vec<f64> = (0..batch * stride).map(|_| rng.gen::<f64>() - 0.5).collect();
                    let y0: Vec<f64> = (0..batch * stride).map(|_| rng.gen::<f64>()).collect();
                    let run = |kernel: BatchKernel| {
                        let (mut y, mut lanes) = (y0.clone(), vec![0.0; lane_words(b)]);
                        let ternary = kernel
                            .run(kind, &data, b, slots, stride, batch, &x, &mut y, &mut lanes);
                        (bits(&y), ternary)
                    };
                    let case = format!("b = {b}, {kind:?}, batch = {batch}");
                    let baseline = run(BatchKernel::BASELINE);
                    for v in 0..batch {
                        let slab = v * stride..(v + 1) * stride;
                        let (mut y, mut scratch) = (y0[slab.clone()].to_vec(), vec![0.0; 3 * b]);
                        let ternary = block_kernel_flat(
                            kind,
                            &data,
                            b,
                            slots,
                            &x[slab.clone()],
                            &mut y,
                            &mut scratch,
                        );
                        assert_eq!(bits(&y), baseline.0[slab], "{case}, vector {v}");
                        assert_eq!(batch as u64 * ternary, baseline.1, "{case}");
                    }
                    for kernel in BatchKernel::supported() {
                        assert_eq!(run(kernel), baseline, "{} on {case}", kernel.isa());
                    }
                }
            }
        }
    }

    /// Reference: run every rank's kernels serially and assemble the global
    /// y; must equal sequential Algorithm 4.
    fn run_all_ranks(part: &TetraPartition, tensor: &SymTensor3, x: &[f64]) -> (Vec<f64>, u64) {
        let n = part.dim();
        let b = part.block_size();
        let mut y = vec![0.0; n];
        let mut total_ternary = 0;
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(tensor, part, p);
            let rp = part.r_set(p);
            let x_full: Vec<Vec<f64>> =
                rp.iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
            let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            let pos = |i: usize| rp.binary_search(&i).unwrap();
            total_ternary += owned.compute(&x_full, &mut y_acc, pos);
            for (t, &i) in rp.iter().enumerate() {
                for (off, g) in part.block_range(i).enumerate() {
                    y[g] += y_acc[t][off];
                }
            }
        }
        (y, total_ternary)
    }

    #[test]
    fn kernels_reproduce_sequential_sttsv_q2() {
        let mut rng = StdRng::seed_from_u64(71);
        let part = TetraPartition::new(spherical(2), 20).unwrap();
        let tensor = random_symmetric(20, &mut rng);
        let x: Vec<f64> = (0..20).map(|i| ((i + 1) as f64 * 0.31).sin()).collect();
        let (y_par, ternary) = run_all_ranks(&part, &tensor, &x);
        let (y_seq, ops) = sttsv_sym(&tensor, &x);
        for i in 0..20 {
            assert!((y_par[i] - y_seq[i]).abs() < 1e-10, "y[{i}]: {} vs {}", y_par[i], y_seq[i]);
        }
        assert_eq!(ternary, ops.ternary_mults);
    }

    #[test]
    fn kernels_reproduce_sequential_sttsv_q3() {
        let mut rng = StdRng::seed_from_u64(72);
        let n = 40; // b = 4.
        let part = TetraPartition::new(spherical(3), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        let (y_par, ternary) = run_all_ranks(&part, &tensor, &x);
        let (y_seq, ops) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!((y_par[i] - y_seq[i]).abs() < 1e-9, "y[{i}]");
        }
        assert_eq!(ternary, ops.ternary_mults);
    }

    #[test]
    fn kernels_reproduce_sequential_sttsv_sqs8() {
        let mut rng = StdRng::seed_from_u64(73);
        let n = 24; // m = 8, b = 3.
        let part = TetraPartition::new(sqs8(), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 2) as f64).collect();
        let (y_par, _) = run_all_ranks(&part, &tensor, &x);
        let (y_seq, _) = sttsv_sym(&tensor, &x);
        for i in 0..n {
            assert!((y_par[i] - y_seq[i]).abs() < 1e-10, "y[{i}]");
        }
    }

    #[test]
    fn per_block_ternary_counts_match_formulas() {
        let mut rng = StdRng::seed_from_u64(74);
        let n = 30; // q = 2, b = 6.
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let b = part.block_size();
        let x = vec![1.0; n];
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(&tensor, &part, p);
            let rp = part.r_set(p);
            let x_full: Vec<Vec<f64>> =
                rp.iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
            let mut y_acc: Vec<Vec<f64>> = vec![vec![0.0; b]; rp.len()];
            let pos = |i: usize| rp.binary_search(&i).unwrap();
            let measured = owned.compute(&x_full, &mut y_acc, pos);
            let formula: u64 =
                part.owned_blocks(p).iter().map(|blk| ternary_mults_in_block(blk.kind(), b)).sum();
            assert_eq!(measured, formula, "processor {p}");
            assert_eq!(measured, part.ternary_mults(p));
        }
    }

    #[test]
    fn extraction_word_counts_match_partition() {
        let mut rng = StdRng::seed_from_u64(75);
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        for p in 0..part.num_procs() {
            let owned = OwnedBlocks::extract(&tensor, &part, p);
            assert_eq!(owned.words(), part.tensor_words(p));
        }
    }

    /// Block `idx`'s layout built one `get_sorted` element at a time.
    fn extract_by_element(tensor: &SymTensor3, idx: BlockIdx, b: usize) -> Vec<f64> {
        let (gi, gj, gk) = (idx.i * b, idx.j * b, idx.k * b);
        let mut out = Vec::new();
        for li in 0..b {
            for lj in 0..b {
                for lk in 0..b {
                    let (i, j, k) = match idx.kind() {
                        BlockKind::OffDiagonal => (gi + li, gj + lj, gk + lk),
                        BlockKind::NonCentralIIK if lj <= li => (gi + li, gi + lj, gk + lk),
                        BlockKind::NonCentralIKK if lk <= lj => (gi + li, gk + lj, gk + lk),
                        BlockKind::CentralDiagonal if lk <= lj && lj <= li => {
                            (gi + li, gi + lj, gi + lk)
                        }
                        _ => continue,
                    };
                    out.push(tensor.get_sorted(i, j, k));
                }
            }
        }
        out
    }

    #[test]
    fn run_extraction_matches_the_per_element_oracle() {
        for q in [2u64, 3] {
            for b in [1, 2, 3, 5, 12] {
                let n = (q * q + 1) as usize * b;
                let part = TetraPartition::new(spherical(q), n).unwrap();
                assert_eq!(part.block_size(), b);
                let tensor = random_symmetric(n, &mut StdRng::seed_from_u64(q * 100 + b as u64));
                let mut kinds = Vec::new();
                for p in 0..part.num_procs() {
                    for idx in part.owned_blocks(p) {
                        let mut runs = Vec::new();
                        extract_block(&tensor, idx, b, &mut runs);
                        assert_eq!(bits(&runs), bits(&extract_by_element(&tensor, idx, b)));
                        assert_eq!(runs.len(), entries_in_block(idx.kind(), b));
                        if !kinds.contains(&idx.kind()) {
                            kinds.push(idx.kind());
                        }
                    }
                }
                assert_eq!(kinds.len(), 4, "q={q} b={b}: every block kind extracted");
            }
        }
    }
}
