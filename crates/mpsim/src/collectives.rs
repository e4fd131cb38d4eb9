//! Collective operations built from point-to-point messages.
//!
//! Algorithms follow the standard MPI implementations (Thakur, Rabenseifner
//! & Gropp 2005, cited by the paper for the All-to-All cost model):
//!
//! * [`Comm::all_to_all_v`] — pairwise exchange, `P − 1` steps; this is the
//!   collective Algorithm 5 uses, whose bandwidth-optimal implementation the
//!   paper charges `P − 1` rounds,
//! * [`Comm::all_gather`] — ring, `P − 1` steps, each rank moves
//!   `total − own` words,
//! * [`Comm::all_reduce`] — a star through rank 0; used only for tiny
//!   payloads (the solver's norms and convergence scalars) where the
//!   asymmetric root cost is irrelevant.
//!
//! These are the only collectives a workload calls: Algorithm 5 itself is
//! point-to-point rounds, its comparison modes use the All-to-All, and the
//! eigen-solver adds the all-reduce.
//!
//! All collectives must be called by **every** rank with consistent
//! arguments; mismatches surface as [`crate::CommError::Timeout`].

use crate::comm::{Comm, CommError};

/// Tag namespaces so collectives cannot collide with user tags. Per-pair
/// FIFO ordering makes tag reuse across successive collectives safe.
const TAG_ALL_TO_ALL: u64 = 1 << 48;
const TAG_ALL_GATHER: u64 = 2 << 48;
const TAG_STAR: u64 = 4 << 48;

impl Comm {
    /// `recv` for collective steps: the first rank whose receive fails
    /// aborts the universe ([`Comm::fail_fast`]) before propagating the
    /// error, so every other participant parked inside the deserted
    /// collective wakes and returns `Err` at once instead of waiting out
    /// its own full timeout.
    fn recv_or_abort(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        let out = self.recv(src, tag);
        if out.is_err() {
            self.fail_fast();
        }
        out
    }

    /// Personalized all-to-all: rank `r` sends `sendbufs[d]` to rank `d` and
    /// returns `recv` with `recv[s]` = the buffer rank `s` addressed to `r`.
    /// Buffers may be empty and of varying sizes (the "v" variant).
    ///
    /// Pairwise-exchange algorithm: `P − 1` steps; at step `s`, rank `r`
    /// sends to `(r + s) mod P` and receives from `(r − s) mod P`.
    ///
    /// Each step is round-annotated (`round = s − 1`, i.e. `0..P−1`) so
    /// traced collective traffic participates in round-occupancy reports
    /// and the happens-before DAG built by [`crate::matching`] — the
    /// All-to-All modes of Algorithm 5 are thereby as analyzable as the
    /// edge-colored schedule. Any enclosing round annotation is saved and
    /// restored.
    pub fn all_to_all_v(&self, mut sendbufs: Vec<Vec<f64>>) -> Result<Vec<Vec<f64>>, CommError> {
        self.with_fallback_phase("coll:all-to-all", || {
            let p = self.size();
            assert_eq!(sendbufs.len(), p, "all_to_all_v needs one buffer per rank");
            let rank = self.rank();
            let saved = self.current_round();
            let mut recv: Vec<Vec<f64>> = vec![Vec::new(); p];
            recv[rank] = std::mem::take(&mut sendbufs[rank]);
            let mut run_steps = || -> Result<(), CommError> {
                for step in 1..p {
                    self.annotate_round(step as u64 - 1);
                    let dst = (rank + step) % p;
                    let src = (rank + p - step) % p;
                    self.send(
                        dst,
                        TAG_ALL_TO_ALL + step as u64,
                        std::mem::take(&mut sendbufs[dst]),
                    );
                    recv[src] = self.recv_or_abort(src, TAG_ALL_TO_ALL + step as u64)?;
                    self.count_round();
                }
                Ok(())
            };
            let outcome = run_steps();
            match saved {
                Some(r) => self.annotate_round(r),
                None => self.clear_round(),
            }
            outcome?;
            Ok(recv)
        })
    }

    /// All-gather: returns `out` with `out[r]` = rank `r`'s `local`
    /// contribution, on every rank. Ring algorithm, `P − 1` steps.
    pub fn all_gather(&self, local: Vec<f64>) -> Result<Vec<Vec<f64>>, CommError> {
        self.with_fallback_phase("coll:all-gather", || {
            let p = self.size();
            let rank = self.rank();
            let mut out: Vec<Option<Vec<f64>>> = vec![None; p];
            out[rank] = Some(local);
            if p > 1 {
                let next = (rank + 1) % p;
                let prev = (rank + p - 1) % p;
                for step in 0..p - 1 {
                    // Forward the block that originated at (rank - step) mod p.
                    let fwd_origin = (rank + p - step) % p;
                    let block = out[fwd_origin].clone().expect("ring invariant");
                    self.send(next, TAG_ALL_GATHER + step as u64, block);
                    let recv_origin = (rank + p - step - 1) % p;
                    out[recv_origin] =
                        Some(self.recv_or_abort(prev, TAG_ALL_GATHER + step as u64)?);
                    self.count_round();
                }
            }
            Ok(out.into_iter().map(Option::unwrap).collect())
        })
    }

    /// All-reduce (element-wise sum): star algorithm through rank 0 with a
    /// deterministic rank-ascending summation order. Intended for small
    /// payloads only.
    pub fn all_reduce(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        self.with_fallback_phase("coll:all-reduce", || {
            let p = self.size();
            if p == 1 {
                return Ok(local);
            }
            let rank = self.rank();
            if rank == 0 {
                let mut acc = local;
                for src in 1..p {
                    let piece = self.recv_or_abort(src, TAG_STAR)?;
                    assert_eq!(
                        piece.len(),
                        acc.len(),
                        "all_reduce length mismatch from rank {src}"
                    );
                    for (a, b) in acc.iter_mut().zip(&piece) {
                        *a += b;
                    }
                }
                for dst in 1..p {
                    self.send(dst, TAG_STAR + 1, acc.clone());
                }
                Ok(acc)
            } else {
                self.send(0, TAG_STAR, local);
                self.recv_or_abort(0, TAG_STAR + 1)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn all_to_all_v_routes_every_buffer() {
        let p = 5;
        let (results, report) = Universe::new(p).run(|comm| {
            let rank = comm.rank();
            // Rank r sends [r*10 + d] to rank d, with varying lengths.
            let bufs: Vec<Vec<f64>> =
                (0..p).map(|d| vec![(rank * 10 + d) as f64; (d % 3) + 1]).collect();
            comm.all_to_all_v(bufs).unwrap()
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, buf) in recv.iter().enumerate() {
                assert_eq!(buf.len(), (rank % 3) + 1);
                assert!(buf.iter().all(|&v| v == (src * 10 + rank) as f64));
            }
        }
        // Each rank sends Σ_{d≠r} len(d) words.
        for rank in 0..p {
            let expected: u64 = (0..p).filter(|&d| d != rank).map(|d| (d % 3) as u64 + 1).sum();
            assert_eq!(report.per_rank[rank].words_sent, expected);
        }
        assert_eq!(report.max_rounds(), (p - 1) as u64);
    }

    #[test]
    fn all_gather_collects_in_rank_order() {
        let p = 6;
        let (results, report) =
            Universe::new(p).run(|comm| comm.all_gather(vec![comm.rank() as f64; 2]).unwrap());
        for recv in &results {
            for (src, buf) in recv.iter().enumerate() {
                assert_eq!(buf, &vec![src as f64; 2]);
            }
        }
        // Ring: each rank sends (P-1)*len words.
        for rank in 0..p {
            assert_eq!(report.per_rank[rank].words_sent, 2 * (p as u64 - 1));
        }
    }

    #[test]
    fn all_reduce_and_broadcast() {
        let p = 7;
        let (results, _) =
            Universe::new(p).run(|comm| comm.all_reduce(vec![comm.rank() as f64]).unwrap()[0]);
        let total = (p * (p - 1) / 2) as f64;
        assert!(results.iter().all(|&s| s == total));
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let (results, report) = Universe::new(1).run(|comm| {
            let a2a = comm.all_to_all_v(vec![vec![1.0]]).unwrap();
            let ag = comm.all_gather(vec![2.0]).unwrap();
            let ar = comm.all_reduce(vec![4.0]).unwrap();
            (a2a[0][0], ag[0][0], ar[0])
        });
        assert_eq!(results[0], (1.0, 2.0, 4.0));
        assert_eq!(report.total_words_sent(), 0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use crate::Universe;

    #[test]
    fn all_to_all_with_empty_buffers() {
        let p = 4;
        let (results, report) = Universe::new(p).run(|comm| {
            let bufs: Vec<Vec<f64>> = vec![Vec::new(); p];
            comm.all_to_all_v(bufs).unwrap()
        });
        for recv in &results {
            assert!(recv.iter().all(Vec::is_empty));
        }
        assert_eq!(report.total_words_sent(), 0);
        // Messages still flow (empty payloads), rounds counted.
        assert_eq!(report.max_rounds(), (p - 1) as u64);
    }

    #[test]
    fn all_gather_of_empty_vectors() {
        let (results, report) = Universe::new(3).run(|comm| comm.all_gather(Vec::new()).unwrap());
        for recv in &results {
            assert_eq!(recv.len(), 3);
            assert!(recv.iter().all(Vec::is_empty));
        }
        assert_eq!(report.total_words_sent(), 0);
    }

    #[test]
    fn two_rank_collectives() {
        let (results, _) = Universe::new(2).run(|comm| {
            let r = comm.rank() as f64;
            let ag = comm.all_gather(vec![r]).unwrap();
            let ar = comm.all_reduce(vec![r]).unwrap();
            (ag[0][0], ag[1][0], ar[0])
        });
        assert_eq!(results, vec![(0.0, 1.0, 1.0); 2]);
    }
}
