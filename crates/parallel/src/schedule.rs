//! Point-to-point communication schedules (Section 7.2 / Figure 1).
//!
//! Two processors must exchange vector data iff their Steiner blocks
//! intersect; the intersection has size 1 or 2 (three shared points would
//! force equal blocks). The paper observes that the directed "sharing"
//! graph splits into a `d₂`-regular subgraph of pairs sharing **two** row
//! blocks and a `d₁`-regular subgraph of pairs sharing **one**, with
//!
//! * `d₂ = C(r,2)·(λ₂ − 1)`  (spherical family: `q²(q+1)/2`),
//! * `d₁ = r·(λ₁ − 1) − 2·d₂` (spherical family: `q² − 1`),
//!
//! so by Lemma 7.1 / Theorem 7.2 all exchanges fit in `d₁ + d₂` rounds
//! (spherical: `q³/2 + 3q²/2 − 1`, e.g. 12 rounds for the `P = 14` system
//! of Figure 1) in which every processor sends one message and receives one
//! message. We build the rounds by edge-coloring each regular subgraph.

use crate::partition::TetraPartition;
use symtensor_matching::edge_color_regular;

/// What one rank does in one communication round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundAction {
    /// Peer to send this rank's shards to.
    pub send_to: Option<usize>,
    /// Peer to receive shards from.
    pub recv_from: Option<usize>,
}

/// A complete schedule: `rounds[r]` is a set of directed `(sender,
/// receiver)` pairs in which each rank appears at most once per role.
#[derive(Clone, Debug)]
pub struct CommSchedule {
    rounds: Vec<Vec<(usize, usize)>>,
    /// `actions[rank][round]`.
    actions: Vec<Vec<RoundAction>>,
}

impl CommSchedule {
    /// Builds the schedule for a partition by edge-coloring the share-2 and
    /// share-1 subgraphs.
    pub fn build(part: &TetraPartition) -> Self {
        let p_count = part.num_procs();
        let mut edges_share1 = Vec::new();
        let mut edges_share2 = Vec::new();
        for a in 0..p_count {
            for b in 0..p_count {
                if a == b {
                    continue;
                }
                match shared_row_blocks(part, a, b).len() {
                    0 => {}
                    1 => edges_share1.push((a, b)),
                    2 => edges_share2.push((a, b)),
                    s => unreachable!("blocks share {s} > 2 points — not a Steiner system"),
                }
            }
        }
        let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
        for edges in [&edges_share2, &edges_share1] {
            if edges.is_empty() {
                continue;
            }
            for round in edge_color_regular(p_count, edges) {
                rounds.push(round.into_iter().map(|ei| edges[ei]).collect());
            }
        }

        let mut actions = vec![vec![RoundAction::default(); rounds.len()]; p_count];
        for (r, round) in rounds.iter().enumerate() {
            for &(src, dst) in round {
                debug_assert!(actions[src][r].send_to.is_none());
                debug_assert!(actions[dst][r].recv_from.is_none());
                actions[src][r].send_to = Some(dst);
                actions[dst][r].recv_from = Some(src);
            }
        }
        CommSchedule { rounds, actions }
    }

    /// Number of rounds (the paper's step count).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The directed pairs of round `r`.
    pub fn round(&self, r: usize) -> &[(usize, usize)] {
        &self.rounds[r]
    }

    /// All rounds.
    pub fn rounds(&self) -> &[Vec<(usize, usize)>] {
        &self.rounds
    }

    /// Whether every rank sends to and receives from every other rank
    /// within one pass over the rounds: true exactly when every pair of
    /// processors shares a row block (spherical `q = 2`; not `q ≥ 3`
    /// or SQS(8)).
    pub(crate) fn meets_every_pair(&self) -> bool {
        let p = self.actions.len();
        self.rounds.iter().map(Vec::len).sum::<usize>() == p * p.saturating_sub(1)
    }

    /// Per-round actions for one rank.
    pub fn actions(&self, rank: usize) -> &[RoundAction] {
        &self.actions[rank]
    }

    /// Planned per-round occupancy: `(senders, receivers)` counts for each
    /// round. By Lemma 7.1 both are `≤ P` with equality exactly when a
    /// round is a perfect pairing; the runtime-observed occupancy (built by
    /// `symtensor-obs` from round-annotated traces) must match this plan
    /// exactly in scheduled mode.
    pub fn planned_occupancy(&self) -> Vec<(usize, usize)> {
        self.rounds
            .iter()
            .map(|round| {
                // Each rank appears at most once per role, so the pair
                // count *is* the distinct sender/receiver count.
                (round.len(), round.len())
            })
            .collect()
    }

    /// Mean planned sender utilization: `avg_r(senders_r / P)` where `P` is
    /// inferred from `actions`.
    pub fn planned_utilization(&self) -> f64 {
        if self.rounds.is_empty() || self.actions.is_empty() {
            return 0.0;
        }
        let total: usize = self.rounds.iter().map(Vec::len).sum();
        total as f64 / (self.rounds.len() * self.actions.len()) as f64
    }
}

/// Row blocks shared by processors `a` and `b`: `R_a ∩ R_b` (sorted).
pub fn shared_row_blocks(part: &TetraPartition, a: usize, b: usize) -> Vec<usize> {
    let ra = part.r_set(a);
    let rb = part.r_set(b);
    ra.iter().copied().filter(|i| rb.binary_search(i).is_ok()).collect()
}

/// Closed-form round count for the spherical family:
/// `q³/2 + 3q²/2 − 1` (Section 7.2.2).
pub fn spherical_round_count(q: usize) -> usize {
    // q²(q+3) is always even, so this is exact integer arithmetic.
    q * q * (q + 3) / 2 - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_steiner::{spherical, sqs8};

    fn check_schedule(part: &TetraPartition, schedule: &CommSchedule) {
        let p_count = part.num_procs();
        // Every round: each rank sends ≤ 1 and receives ≤ 1.
        for round in schedule.rounds() {
            let mut senders = vec![false; p_count];
            let mut receivers = vec![false; p_count];
            for &(s, d) in round {
                assert!(!senders[s], "double send");
                assert!(!receivers[d], "double recv");
                senders[s] = true;
                receivers[d] = true;
            }
        }
        // Coverage: every ordered sharing pair appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for round in schedule.rounds() {
            for &e in round {
                assert!(seen.insert(e), "pair {e:?} scheduled twice");
            }
        }
        for a in 0..p_count {
            for b in 0..p_count {
                if a != b && !shared_row_blocks(part, a, b).is_empty() {
                    assert!(seen.contains(&(a, b)), "pair ({a},{b}) not scheduled");
                }
            }
        }
        assert_eq!(
            seen.len(),
            (0..p_count)
                .flat_map(|a| (0..p_count).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && !shared_row_blocks(part, a, b).is_empty())
                .count()
        );
    }

    #[test]
    fn sqs8_schedule_is_figure_1() {
        // P = 14: 12 rounds, strictly fewer than P − 1 = 13, every round a
        // perfect pairing (each rank both sends and receives).
        let part = TetraPartition::new(sqs8(), 56).unwrap();
        let schedule = CommSchedule::build(&part);
        assert_eq!(schedule.num_rounds(), 12);
        for round in schedule.rounds() {
            assert_eq!(round.len(), 14, "each round covers all processors");
        }
        check_schedule(&part, &schedule);
    }

    #[test]
    fn spherical_round_counts_match_formula() {
        for (q, n) in [(2usize, 30usize), (3, 120)] {
            let part = TetraPartition::new(spherical(q as u64), n).unwrap();
            let schedule = CommSchedule::build(&part);
            assert_eq!(schedule.num_rounds(), spherical_round_count(q), "q = {q}");
            check_schedule(&part, &schedule);
        }
    }

    #[test]
    fn sharing_sizes_match_section_7_2() {
        // q = 3: each processor shares 2 blocks with q²(q+1)/2 = 18 peers
        // and 1 block with q²−1 = 8 peers.
        let part = TetraPartition::new(spherical(3), 120).unwrap();
        for p in 0..30 {
            let mut two = 0;
            let mut one = 0;
            for other in 0..30 {
                if other == p {
                    continue;
                }
                match shared_row_blocks(&part, p, other).len() {
                    2 => two += 1,
                    1 => one += 1,
                    _ => {}
                }
            }
            assert_eq!(two, 18, "processor {p}");
            assert_eq!(one, 8, "processor {p}");
        }
    }

    #[test]
    fn paper_example_processor_1_and_26_disjoint() {
        // Section 7.2.2 observes processor 1 and 26 (1-based) share nothing
        // in Table 1. Our labels differ (isomorphic system), but disjoint
        // pairs must exist for q = 3: 30 − 1 − 18 − 8 = 3 of them per rank.
        let part = TetraPartition::new(spherical(3), 120).unwrap();
        for p in 0..30 {
            let disjoint =
                (0..30).filter(|&o| o != p && shared_row_blocks(&part, p, o).is_empty()).count();
            assert_eq!(disjoint, 3);
        }
    }

    #[test]
    fn only_q2_meets_every_pair() {
        // q = 2: 9 rounds for 9 peers; q = 3: 26 rounds for 29 peers, so
        // some pairs never meet; SQS(8): 12 rounds for 13 peers.
        for (system, n, every) in
            [(spherical(2), 30, true), (spherical(3), 60, false), (sqs8(), 56, false)]
        {
            let part = TetraPartition::new(system, n).unwrap();
            assert_eq!(CommSchedule::build(&part).meets_every_pair(), every, "n={n}");
        }
    }

    #[test]
    fn planned_occupancy_matches_rounds() {
        let part = TetraPartition::new(sqs8(), 56).unwrap();
        let schedule = CommSchedule::build(&part);
        let occ = schedule.planned_occupancy();
        assert_eq!(occ.len(), schedule.num_rounds());
        // Figure 1's schedule: every round is a perfect pairing of P = 14.
        assert!(occ.iter().all(|&(s, r)| s == 14 && r == 14));
        assert!((schedule.planned_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_actions_are_consistent() {
        let part = TetraPartition::new(spherical(2), 30).unwrap();
        let schedule = CommSchedule::build(&part);
        for rank in 0..part.num_procs() {
            for (r, act) in schedule.actions(rank).iter().enumerate() {
                if let Some(dst) = act.send_to {
                    assert!(schedule.round(r).contains(&(rank, dst)));
                }
                if let Some(src) = act.recv_from {
                    assert!(schedule.round(r).contains(&(src, rank)));
                }
            }
        }
    }
}
