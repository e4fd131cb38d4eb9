//! Send/recv message matching over recorded traces.
//!
//! The profiler (`symtensor-obs`) needs to know, for every received
//! message, *which* send produced it: that pairing is the happens-before
//! edge set of the run, from which the measured per-message transit and
//! round-step latency histograms follow. The simulator queues messages in one
//! arrival-ordered inbox per destination (waking the destination only for
//! the `(src, tag)` it is parked on) and [`crate::Comm::recv`] claims the
//! earliest match, so within a `(src, dst, tag)` triple
//! message order is FIFO — matching the k-th send to the k-th recv of the
//! same triple reconstructs the exact pairing the run performed.

use crate::cost::{CommEvent, CommEventKind};
use std::collections::{HashMap, VecDeque};

/// One matched send/recv pair — a happens-before edge of the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageMatch {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload length in words.
    pub words: u64,
    /// Send timestamp (ns since the universe epoch).
    pub send_t_ns: u64,
    /// Recv timestamp (ns since the universe epoch).
    pub recv_t_ns: u64,
    /// Index of the `Send` event in `traces[src]`.
    pub send_index: usize,
    /// Index of the `Recv` event in `traces[dst]`.
    pub recv_index: usize,
    /// Schedule-round annotation: the sender's if present, else the
    /// receiver's (pair schedules annotate both sides identically).
    pub round: Option<u64>,
    /// The sender's phase annotation at send time.
    pub send_phase: Option<&'static str>,
    /// The receiver's phase annotation at recv time.
    pub recv_phase: Option<&'static str>,
}

impl MessageMatch {
    /// Wall-clock interval between matching send and recv — an upper bound
    /// on how long the receiver sat blocked on this message (it includes
    /// any useful work the receiver did before posting the recv).
    pub fn transit_ns(&self) -> u64 {
        self.recv_t_ns.saturating_sub(self.send_t_ns)
    }
}

/// The result of matching a run's traces: the happens-before edges plus
/// whatever could not be paired.
#[derive(Clone, Debug, Default)]
pub struct MatchReport {
    /// All matched pairs, ordered by `(dst, recv_index)` — i.e. in each
    /// receiver's program order.
    pub matches: Vec<MessageMatch>,
    /// Sends with no matching recv in the traces (messages a peer never
    /// claimed, e.g. dropped on early exit).
    pub unmatched_sends: usize,
    /// Recvs with no matching send in the traces (only possible when the
    /// matcher is fed a truncated or partial sender log, e.g. a flight
    /// window that wrapped).
    pub unmatched_recvs: usize,
}

impl MatchReport {
    /// `true` when every send found its recv and vice versa — the normal
    /// state for a run collected with [`crate::Universe::run_traced`].
    pub fn complete(&self) -> bool {
        self.unmatched_sends == 0 && self.unmatched_recvs == 0
    }
}

/// Matches every `Send` event to its consuming `Recv` across per-rank
/// traces (indexed by rank, as returned by
/// [`crate::Universe::run_traced`]), FIFO per `(src, dst, tag)`.
///
/// # Panics
/// Panics if a matched pair disagrees on payload length — that would mean
/// the traces are not from one run.
pub fn match_messages(traces: &[Vec<CommEvent>]) -> MatchReport {
    // (src, dst, tag) -> queue of pending sends in sender program order.
    struct PendingSend {
        send_index: usize,
        t_ns: u64,
        words: u64,
        round: Option<u64>,
        phase: Option<&'static str>,
    }
    let mut pending: HashMap<(usize, usize, u64), VecDeque<PendingSend>> = HashMap::new();
    for (src, trace) in traces.iter().enumerate() {
        for (send_index, event) in trace.iter().enumerate() {
            if let CommEventKind::Send { dst, tag, words } = event.kind {
                pending.entry((src, dst, tag)).or_default().push_back(PendingSend {
                    send_index,
                    t_ns: event.t_ns,
                    words,
                    round: event.round,
                    phase: event.phase,
                });
            }
        }
    }

    let mut report = MatchReport::default();
    for (dst, trace) in traces.iter().enumerate() {
        for (recv_index, event) in trace.iter().enumerate() {
            if let CommEventKind::Recv { src, tag, words } = event.kind {
                match pending.get_mut(&(src, dst, tag)).and_then(VecDeque::pop_front) {
                    Some(send) => {
                        assert_eq!(
                            send.words, words,
                            "matched pair {src}->{dst} tag {tag} disagrees on length"
                        );
                        report.matches.push(MessageMatch {
                            src,
                            dst,
                            tag,
                            words,
                            send_t_ns: send.t_ns,
                            recv_t_ns: event.t_ns,
                            send_index: send.send_index,
                            recv_index,
                            round: send.round.or(event.round),
                            send_phase: send.phase,
                            recv_phase: event.phase,
                        });
                    }
                    None => report.unmatched_recvs += 1,
                }
            }
        }
    }
    report.unmatched_sends = pending.values().map(VecDeque::len).sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn ring_pass_matches_completely() {
        let p = 4;
        let (_, _, traces) = Universe::new(p).run_traced(|comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            comm.annotate_round(7);
            comm.send(next, 3, vec![comm.rank() as f64; 2]);
            comm.recv(prev, 3).unwrap();
            comm.clear_round();
        });
        let report = match_messages(&traces);
        assert!(report.complete());
        assert_eq!(report.matches.len(), p);
        for m in &report.matches {
            assert_eq!(m.dst, (m.src + 1) % p);
            assert_eq!(m.words, 2);
            assert_eq!(m.round, Some(7));
            assert!(m.recv_t_ns >= m.send_t_ns || m.transit_ns() == 0);
        }
    }

    #[test]
    fn fifo_per_triple_preserves_order() {
        // Two same-tag messages on one (src, dst) pair must match in send
        // order even though their payloads differ.
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![1.0]);
                comm.send(1, 9, vec![2.0, 2.0]);
            } else {
                comm.recv(0, 9).unwrap();
                comm.recv(0, 9).unwrap();
            }
        });
        let report = match_messages(&traces);
        assert!(report.complete());
        let mut words: Vec<u64> = report.matches.iter().map(|m| m.words).collect();
        words.sort_unstable();
        assert_eq!(words, vec![1, 2]);
        // First recv (index order) pairs with the 1-word first send.
        let first = report.matches.iter().min_by_key(|m| m.recv_index).unwrap();
        assert_eq!(first.words, 1);
    }

    #[test]
    fn unclaimed_send_is_reported() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1.0]);
                comm.send(1, 6, vec![2.0]); // never received
            } else {
                comm.recv(0, 5).unwrap();
            }
        });
        let report = match_messages(&traces);
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.unmatched_sends, 1);
        assert_eq!(report.unmatched_recvs, 0);
        assert!(!report.complete());
    }

    #[test]
    fn all_to_all_steps_are_round_annotated() {
        let p = 4;
        let (_, _, traces) = Universe::new(p).run_traced(|comm| {
            let bufs: Vec<Vec<f64>> = (0..p).map(|d| vec![0.0; d + 1]).collect();
            comm.all_to_all_v(bufs).unwrap()
        });
        let report = match_messages(&traces);
        assert!(report.complete());
        assert_eq!(report.matches.len(), p * (p - 1));
        for m in &report.matches {
            let round = m.round.expect("collective steps must be round-annotated");
            assert!(round < (p - 1) as u64);
            // Step s: dst = src + s + 1 (mod p) with round = s.
            assert_eq!(m.dst, (m.src + round as usize + 1) % p);
        }
        // Enclosing annotations survive the collective.
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.annotate_round(42);
            comm.all_to_all_v(vec![vec![1.0]; 2]).unwrap();
            let partner = 1 - comm.rank();
            comm.send(partner, 1, vec![1.0]);
            comm.recv(partner, 1).unwrap();
            comm.clear_round();
        });
        let report = match_messages(&traces);
        let after = report.matches.iter().find(|m| m.tag == 1).unwrap();
        assert_eq!(after.round, Some(42));
    }
}
