#![warn(missing_docs)]
//! Steiner `(n, r, 3)` systems for tetrahedral block partitioning.
//!
//! A Steiner `(n, r, s)` system is a collection of `r`-subsets ("blocks") of
//! `{0, …, n−1}` such that every `s`-subset lies in exactly one block
//! (Definition 6.1 of the paper). The paper needs `s = 3`:
//!
//! * the infinite spherical family `(q² + 1, q + 1, 3)` built from
//!   `PGL₂(q²)` acting on `PG(1, q²)` ([`spherical`](fn@spherical), Theorem 6.5), used for
//!   the main algorithm with `P = q(q² + 1)` processors;
//! * the Boolean quadruple system `SQS(8) = S(8, 4, 3)` ([`sqs8`]) used in
//!   the paper's Appendix A example (`m = 8`, `P = 14`);
//! * the general `(q^α + 1, q + 1, 3)` family ([`spherical_alpha`]).
//!
//! [`SteinerSystem::verify`] checks the defining property exhaustively, and
//! the counting helpers mirror the paper's Lemmas 6.3 and 6.4.

pub mod counting;
pub mod doubling;
pub mod plane;
pub mod spherical;

use std::collections::HashMap;

pub use counting::{blocks_through_element, blocks_through_pair, num_blocks};
pub use doubling::{double_sqs, one_factorization};
pub use plane::{bose_triple_system, projective_plane, Steiner2};
pub use spherical::{spherical, spherical_alpha};

/// A Steiner `(n, r, 3)` system: blocks of size `r` on points `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SteinerSystem {
    n: usize,
    r: usize,
    blocks: Vec<Vec<usize>>,
}

/// Errors returned by [`SteinerSystem::verify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SteinerError {
    /// A block has the wrong size or out-of-range / duplicated points.
    MalformedBlock {
        /// Index of the offending block.
        block_index: usize,
    },
    /// A 3-subset is covered `count` times instead of exactly once.
    BadCoverage {
        /// The offending (sorted) triple.
        triple: [usize; 3],
        /// How many blocks contain it.
        count: usize,
    },
    /// The number of blocks disagrees with the counting formula.
    WrongBlockCount {
        /// `n(n−1)(n−2)/(r(r−1)(r−2))`.
        expected: usize,
        /// Blocks actually present.
        actual: usize,
    },
}

impl std::fmt::Display for SteinerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteinerError::MalformedBlock { block_index } => {
                write!(f, "block {block_index} is malformed")
            }
            SteinerError::BadCoverage { triple, count } => {
                write!(f, "triple {triple:?} covered {count} times (expected 1)")
            }
            SteinerError::WrongBlockCount { expected, actual } => {
                write!(f, "expected {expected} blocks, found {actual}")
            }
        }
    }
}

impl std::error::Error for SteinerError {}

impl SteinerSystem {
    /// Wraps a block list as a Steiner system **without** verifying the
    /// covering property; blocks are sorted canonically. Call
    /// [`SteinerSystem::verify`] to check.
    pub fn from_blocks(n: usize, r: usize, mut blocks: Vec<Vec<usize>>) -> Self {
        for b in &mut blocks {
            b.sort_unstable();
        }
        blocks.sort();
        SteinerSystem { n, r, blocks }
    }

    /// Number of points `n`.
    pub fn num_points(&self) -> usize {
        self.n
    }

    /// Block size `r`.
    pub fn block_size(&self) -> usize {
        self.r
    }

    /// The blocks, each sorted ascending; the block list itself is sorted.
    pub fn blocks(&self) -> &[Vec<usize>] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// For each point, the (sorted) list of blocks containing it. The sets
    /// `Q_i` of the paper's Table 2 are exactly these lists.
    pub fn point_to_blocks(&self) -> Vec<Vec<usize>> {
        let mut map = vec![Vec::new(); self.n];
        for (bi, block) in self.blocks.iter().enumerate() {
            for &pt in block {
                map[pt].push(bi);
            }
        }
        map
    }

    /// The block index containing a given (distinct) triple, if any.
    pub fn block_containing(&self, mut triple: [usize; 3]) -> Option<usize> {
        triple.sort_unstable();
        self.blocks.iter().position(|b| triple.iter().all(|t| b.binary_search(t).is_ok()))
    }

    /// Exhaustively verifies the Steiner property: every 3-subset of the
    /// point set is contained in exactly one block.
    pub fn verify(&self) -> Result<(), SteinerError> {
        for (bi, block) in self.blocks.iter().enumerate() {
            let ok = block.len() == self.r
                && block.windows(2).all(|w| w[0] < w[1])
                && block.iter().all(|&p| p < self.n);
            if !ok {
                return Err(SteinerError::MalformedBlock { block_index: bi });
            }
        }
        let expected = num_blocks(self.n, self.r);
        if self.blocks.len() != expected {
            return Err(SteinerError::WrongBlockCount { expected, actual: self.blocks.len() });
        }
        let mut cover: HashMap<[usize; 3], usize> = HashMap::new();
        for block in &self.blocks {
            for a in 0..block.len() {
                for b in a + 1..block.len() {
                    for c in b + 1..block.len() {
                        *cover.entry([block[a], block[b], block[c]]).or_insert(0) += 1;
                    }
                }
            }
        }
        for i in 0..self.n {
            for j in i + 1..self.n {
                for k in j + 1..self.n {
                    let count = cover.get(&[i, j, k]).copied().unwrap_or(0);
                    if count != 1 {
                        return Err(SteinerError::BadCoverage { triple: [i, j, k], count });
                    }
                }
            }
        }
        Ok(())
    }
}

/// The Boolean Steiner quadruple system `SQS(8) = S(8, 4, 3)`.
///
/// Points are the vectors of `F₂³` (encoded `0..8`); blocks are the 4-subsets
/// whose XOR is zero (affine planes of `AG(3, 2)`). With 1-based labels this
/// is exactly the system of the paper's Table 3.
pub fn sqs8() -> SteinerSystem {
    let mut blocks = Vec::new();
    for a in 0..8usize {
        for b in a + 1..8 {
            for c in b + 1..8 {
                let d = a ^ b ^ c;
                if d > c {
                    blocks.push(vec![a, b, c, d]);
                }
            }
        }
    }
    SteinerSystem::from_blocks(8, 4, blocks)
}

/// Returns true if `(n, r)` satisfies Wilson's necessary divisibility
/// conditions for a Steiner `(n, r, 3)` system (Theorem 6.2):
/// `r−2 | n−2`, `(r−1)(r−2) | (n−1)(n−2)` and
/// `r(r−1)(r−2) | n(n−1)(n−2)`.
pub fn wilson_divisibility(n: usize, r: usize) -> bool {
    if r < 3 || n < r {
        return false;
    }
    (n - 2) % (r - 2) == 0
        && ((n - 1) * (n - 2)) % ((r - 1) * (r - 2)) == 0
        && (n * (n - 1) * (n - 2)) % (r * (r - 1) * (r - 2)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqs8_is_a_steiner_system() {
        let s = sqs8();
        assert_eq!(s.num_points(), 8);
        assert_eq!(s.block_size(), 4);
        assert_eq!(s.num_blocks(), 14);
        s.verify().expect("SQS(8) must verify");
    }

    #[test]
    fn sqs8_matches_paper_table3() {
        // Table 3 lists these R_p sets (1-based); our construction must give
        // the same system (0-based).
        let paper: Vec<Vec<usize>> = vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 5, 6],
            vec![1, 2, 7, 8],
            vec![1, 3, 5, 7],
            vec![1, 3, 6, 8],
            vec![1, 4, 5, 8],
            vec![1, 4, 6, 7],
            vec![2, 3, 5, 8],
            vec![2, 3, 6, 7],
            vec![2, 4, 5, 7],
            vec![2, 4, 6, 8],
            vec![3, 4, 5, 6],
            vec![3, 4, 7, 8],
            vec![5, 6, 7, 8],
        ];
        let expect: Vec<Vec<usize>> =
            paper.into_iter().map(|b| b.into_iter().map(|x| x - 1).collect()).collect();
        let sys = SteinerSystem::from_blocks(8, 4, expect);
        assert_eq!(sqs8(), sys);
    }

    #[test]
    fn sqs8_point_to_blocks_counts() {
        // Each point lies in (n-1)(n-2)/((r-1)(r-2)) = 7 blocks (Lemma 6.4).
        let s = sqs8();
        for q in s.point_to_blocks() {
            assert_eq!(q.len(), 7);
        }
    }

    #[test]
    fn block_containing_finds_unique_blocks() {
        let s = sqs8();
        // {0,1,2} lies in {0,1,2,3}.
        let bi = s.block_containing([2, 0, 1]).unwrap();
        assert_eq!(s.blocks()[bi], vec![0, 1, 2, 3]);
    }

    #[test]
    fn verify_detects_bad_coverage() {
        // Remove one block from SQS(8): its triples are now uncovered.
        let s = sqs8();
        let mut blocks = s.blocks().to_vec();
        blocks.pop();
        let broken = SteinerSystem::from_blocks(8, 4, blocks);
        assert!(matches!(
            broken.verify(),
            Err(SteinerError::WrongBlockCount { .. }) | Err(SteinerError::BadCoverage { .. })
        ));
    }

    #[test]
    fn verify_detects_duplicate_blocks() {
        let s = sqs8();
        let mut blocks = s.blocks().to_vec();
        let last = blocks.last().unwrap().clone();
        blocks[0] = last;
        let broken = SteinerSystem::from_blocks(8, 4, blocks);
        assert!(broken.verify().is_err());
    }

    #[test]
    fn verify_detects_malformed_block() {
        let broken = SteinerSystem::from_blocks(8, 4, vec![vec![0, 1, 2]]);
        assert!(matches!(
            broken.verify(),
            Err(SteinerError::MalformedBlock { .. }) | Err(SteinerError::WrongBlockCount { .. })
        ));
    }

    #[test]
    fn wilson_conditions() {
        // Spherical parameters always satisfy the conditions.
        for q in [2usize, 3, 4, 5, 7, 8, 9] {
            assert!(wilson_divisibility(q * q + 1, q + 1), "q={q}");
        }
        // SQS(8).
        assert!(wilson_divisibility(8, 4));
        // A failing example: S(9, 4, 3) fails r-2 | n-2 (2 | 7 false).
        assert!(!wilson_divisibility(9, 4));
    }
}
