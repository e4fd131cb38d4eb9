//! One-time data distribution from a root rank.
//!
//! The paper's cost model assumes the computation *begins* with the tensor
//! already distributed in tetrahedral blocks and one copy of `x` sharded
//! (Theorem 5.2's starting condition). This module implements and prices
//! that setup step: rank 0 holds everything and ships each processor its
//! `TB₃(R_p) ∪ N_p ∪ D_p` blocks plus its vector shards. The cost is
//! `Θ(n³/6)` words at the root — amortized away over the many STTSV
//! invocations of HOPM/CP, which is exactly why the paper separates it
//! from the per-iteration analysis.

use crate::algorithm5::check_dims;
use crate::blocks::OwnedBlocks;
use crate::partition::TetraPartition;
use symtensor_core::SymTensor3;
use symtensor_mpsim::{CostReport, Universe};

const TAG_SCATTER_T: u64 = 21 << 40;
const TAG_SCATTER_X: u64 = 22 << 40;

/// Per-rank scatter result: the rank's tensor blocks and its `x` shards.
pub type ScatteredRank = (OwnedBlocks, Vec<Vec<f64>>);

/// Scatters the tensor blocks and `x` shards from rank 0; every rank ends
/// with its [`OwnedBlocks`] and shard vector. Returns the per-rank results
/// and the scatter's cost report. Panics with the
/// [`InputError`](crate::InputError) on a dimension mismatch.
pub fn scatter_from_root(
    tensor: &SymTensor3,
    part: &TetraPartition,
    x: &[f64],
) -> (Vec<ScatteredRank>, CostReport) {
    check_dims(part.dim(), tensor, [x]).unwrap_or_else(|e| panic!("{e}"));
    let p_count = part.num_procs();

    Universe::new(p_count).run(|comm| {
        comm.with_phase("scatter", || {
            let p = comm.rank();
            if p == 0 {
                // Root: extract and ship every other rank's data.
                for dst in 1..p_count {
                    let owned = OwnedBlocks::extract(tensor, part, dst);
                    // Ship all blocks as one concatenated message (the block
                    // structure is deterministic, so the receiver can re-split).
                    let mut payload = Vec::with_capacity(owned.words());
                    for blk in &owned.blocks {
                        payload.extend_from_slice(&blk.data);
                    }
                    comm.send(dst, TAG_SCATTER_T, payload);
                    comm.send(dst, TAG_SCATTER_X, part.shards_of(dst, x).concat());
                }
                let owned = OwnedBlocks::extract(tensor, part, 0);
                (owned, part.shards_of(0, x))
            } else {
                let payload = comm.recv(0, TAG_SCATTER_T).expect("tensor scatter");
                // Rebuild the block structure from the deterministic layout.
                let mut owned = OwnedBlocks::extract_empty(part, p);
                let mut offset = 0;
                for blk in &mut owned.blocks {
                    let len = blk.data.len();
                    blk.data.copy_from_slice(&payload[offset..offset + len]);
                    offset += len;
                }
                assert_eq!(offset, payload.len(), "scatter payload length mismatch");
                let flat = comm.recv(0, TAG_SCATTER_X).expect("vector scatter");
                let mut shards = Vec::new();
                let mut pos = 0;
                for &i in part.r_set(p) {
                    let len = part.shard_range(i, p).len();
                    shards.push(flat[pos..pos + len].to_vec());
                    pos += len;
                }
                (owned, shards)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor_core::generate::random_symmetric;
    use symtensor_steiner::spherical;

    #[test]
    fn scatter_delivers_exactly_the_extraction() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(110);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let (results, report) = scatter_from_root(&tensor, &part, &x);
        for (p, (owned, shards)) in results.iter().enumerate() {
            let reference = OwnedBlocks::extract(&tensor, &part, p);
            assert_eq!(owned.blocks.len(), reference.blocks.len());
            for (got, want) in owned.blocks.iter().zip(&reference.blocks) {
                assert_eq!(got.idx, want.idx, "rank {p}");
                assert_eq!(got.data, want.data, "rank {p} block {:?}", got.idx);
            }
            let want_shards = part.shards_of(p, &x);
            assert_eq!(shards, &want_shards, "rank {p} shards");
        }
        // Root send cost: everything except its own data.
        let total_tensor: usize = (1..part.num_procs()).map(|p| part.tensor_words(p)).sum();
        let total_vec: usize = (1..part.num_procs()).map(|p| part.vector_words(p)).sum();
        assert_eq!(report.per_rank[0].words_sent as usize, total_tensor + total_vec);
        // Setup traffic ≈ n³/6 ≫ per-iteration traffic — the reason the
        // paper's model charges it once, not per STTSV.
        assert!(report.per_rank[0].words_sent as usize > n * n);
    }

    #[test]
    fn non_root_ranks_send_nothing() {
        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let tensor = SymTensor3::zeros(n);
        let x = vec![0.0; n];
        let (_, report) = scatter_from_root(&tensor, &part, &x);
        for p in 1..part.num_procs() {
            assert_eq!(report.per_rank[p].words_sent, 0);
        }
    }
}
