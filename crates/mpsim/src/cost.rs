//! Per-rank communication-cost counters, reports and trace events.
//!
//! In the α-β-γ model the bandwidth cost of an algorithm is the maximum over
//! processors of the number of words sent or received. These counters record
//! exactly that, plus message counts (the latency term) and the number of
//! synchronous communication rounds a rank participated in.
//!
//! Every send, receive, phase transition, counter sample, injected fault
//! and observed alert is also recorded, once, as a [`CommEvent`] carrying
//! a monotonic timestamp and the phase/round/request annotation active at
//! the time (see [`crate::flight`]: a bounded ring by default, the whole
//! run under [`crate::Universe::run_traced`]). The `symtensor-obs` crate
//! consumes these logs to build span trees, communication matrices,
//! Perfetto traces and post-mortem dumps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What happened in one recorded event.
///
/// All payloads are `Copy` so that recording an event is a single store
/// into the rank's log with no further allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommEventKind {
    /// A message left this rank.
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Payload length in words.
        words: u64,
    },
    /// A message was consumed by a matching `recv` on this rank.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Payload length in words.
        words: u64,
    },
    /// A named phase was entered on this rank (see [`crate::Comm::with_phase`]).
    PhaseEnter {
        /// Phase name.
        name: &'static str,
        /// This rank's counters at entry — exit minus entry is the phase's
        /// exact [`RankCost`] delta.
        snapshot: RankCost,
    },
    /// The matching phase exit.
    PhaseExit {
        /// Phase name.
        name: &'static str,
        /// This rank's counters at exit.
        snapshot: RankCost,
    },
    /// A named numeric sample annotated by the algorithm (see
    /// [`crate::Comm::annotate_counter`]) — e.g. a kernel's arena bytes or
    /// steady-state allocation count. Attributed to the innermost active
    /// phase via [`CommEvent::phase`].
    Counter {
        /// Counter name (a static key, like phase names).
        key: &'static str,
        /// The sampled value.
        value: u64,
    },
    /// A chaos-injected fault (see [`crate::fault::FaultPlan`]) — recorded
    /// so post-mortems can separate injected failures from organic ones.
    /// Injected drops and duplicates move no accountable traffic, so this
    /// event contributes 0 to [`CommEvent::words`].
    Fault {
        /// What was injected.
        fault: crate::fault::InjectedFault,
        /// The peer the affected message addressed (destination for send-
        /// side faults, expected source for a crash inside `recv`).
        peer: usize,
        /// Words in the affected message (0 for a crash inside `recv`).
        words: u64,
    },
    /// An SLO burn-rate alert raised on the live telemetry plane, stamped
    /// by this rank when it noticed it (ranks poll the plane's alert count
    /// on every send and receive), so a post-mortem window shows what the
    /// live plane saw — and when each rank saw it — before a failure.
    Alert {
        /// The plane's alert id.
        id: u64,
    },
}

/// One timestamped, annotated event in a rank's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommEvent {
    /// Nanoseconds since the universe's epoch (monotonic within a rank).
    pub t_ns: u64,
    /// Innermost phase active when the event was recorded, if any.
    pub phase: Option<&'static str>,
    /// Schedule round annotation active when the event was recorded, if any
    /// (see [`crate::Comm::annotate_round`]).
    pub round: Option<u64>,
    /// Request-id annotation active when the event was recorded, if any
    /// (see [`crate::Comm::annotate_request`]).
    pub request: Option<u64>,
    /// The event payload.
    pub kind: CommEventKind,
}

impl CommEvent {
    /// Words moved by this event (0 for phase markers).
    pub fn words(&self) -> u64 {
        match self.kind {
            CommEventKind::Send { words, .. } | CommEventKind::Recv { words, .. } => words,
            _ => 0,
        }
    }
}

/// Internal shared counters, one set per rank.
#[derive(Clone)]
pub(crate) struct SharedCounters {
    inner: Arc<Vec<RankAtomics>>,
}

pub(crate) struct RankAtomics {
    pub words_sent: AtomicU64,
    pub words_recv: AtomicU64,
    pub msgs_sent: AtomicU64,
    pub msgs_recv: AtomicU64,
    pub rounds: AtomicU64,
}

impl RankAtomics {
    /// A consistent-enough snapshot of this rank's own counters (only the
    /// owning rank mutates them, so relaxed loads are exact here).
    pub fn snapshot(&self) -> RankCost {
        RankCost {
            // ordering: Relaxed — single-writer counters, exact when
            // read by the owner or after the join.
            words_sent: self.words_sent.load(Ordering::Relaxed),
            // ordering: Relaxed — same single-writer contract.
            words_recv: self.words_recv.load(Ordering::Relaxed),
            // ordering: Relaxed — same single-writer contract.
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            // ordering: Relaxed — same single-writer contract.
            rounds: self.rounds.load(Ordering::Relaxed),
        }
    }
}

impl SharedCounters {
    pub fn new(p: usize) -> Self {
        SharedCounters {
            inner: Arc::new(
                (0..p)
                    .map(|_| RankAtomics {
                        words_sent: AtomicU64::new(0),
                        words_recv: AtomicU64::new(0),
                        msgs_sent: AtomicU64::new(0),
                        msgs_recv: AtomicU64::new(0),
                        rounds: AtomicU64::new(0),
                    })
                    .collect(),
            ),
        }
    }

    #[inline]
    pub fn rank(&self, r: usize) -> &RankAtomics {
        &self.inner[r]
    }

    pub fn report(&self) -> CostReport {
        CostReport { per_rank: self.inner.iter().map(RankAtomics::snapshot).collect() }
    }
}

/// Communication cost incurred by one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankCost {
    /// Words (tensor/vector elements) pushed onto the network.
    pub words_sent: u64,
    /// Words pulled from the network.
    pub words_recv: u64,
    /// Number of messages sent.
    pub msgs_sent: u64,
    /// Number of messages received.
    pub msgs_recv: u64,
    /// Synchronous communication rounds participated in.
    pub rounds: u64,
}

impl RankCost {
    /// `max(sent, received)` — the per-rank bandwidth cost in the model
    /// where sends and receives overlap.
    pub fn bandwidth(&self) -> u64 {
        self.words_sent.max(self.words_recv)
    }

    /// Componentwise `self − earlier` (saturating); the exact cost incurred
    /// between two snapshots, e.g. across a phase.
    pub fn delta_since(&self, earlier: &RankCost) -> RankCost {
        RankCost {
            words_sent: self.words_sent.saturating_sub(earlier.words_sent),
            words_recv: self.words_recv.saturating_sub(earlier.words_recv),
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            msgs_recv: self.msgs_recv.saturating_sub(earlier.msgs_recv),
            rounds: self.rounds.saturating_sub(earlier.rounds),
        }
    }
}

/// Communication cost of a whole run, indexed by rank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Per-rank counters, indexed by rank id.
    pub per_rank: Vec<RankCost>,
}

impl CostReport {
    /// Maximum words sent by any rank.
    pub fn max_words_sent(&self) -> u64 {
        self.per_rank.iter().map(|c| c.words_sent).max().unwrap_or(0)
    }

    /// Maximum words received by any rank.
    pub fn max_words_recv(&self) -> u64 {
        self.per_rank.iter().map(|c| c.words_recv).max().unwrap_or(0)
    }

    /// The bandwidth cost of the algorithm: `max_p max(sent_p, recv_p)`.
    /// This is the quantity the paper's lower bound constrains.
    pub fn bandwidth_cost(&self) -> u64 {
        self.per_rank.iter().map(RankCost::bandwidth).max().unwrap_or(0)
    }

    /// Total words sent across all ranks (equals total received).
    pub fn total_words_sent(&self) -> u64 {
        self.per_rank.iter().map(|c| c.words_sent).sum()
    }

    /// Total words received across all ranks.
    pub fn total_words_recv(&self) -> u64 {
        self.per_rank.iter().map(|c| c.words_recv).sum()
    }

    /// Maximum messages sent by any rank (the latency term).
    pub fn max_msgs_sent(&self) -> u64 {
        self.per_rank.iter().map(|c| c.msgs_sent).max().unwrap_or(0)
    }

    /// Maximum rounds any rank participated in.
    pub fn max_rounds(&self) -> u64 {
        self.per_rank.iter().map(|c| c.rounds).max().unwrap_or(0)
    }

    /// Elementwise sum of two reports (e.g. setup + main phases).
    pub fn merged(&self, other: &CostReport) -> CostReport {
        assert_eq!(self.per_rank.len(), other.per_rank.len());
        CostReport {
            per_rank: self
                .per_rank
                .iter()
                .zip(&other.per_rank)
                .map(|(a, b)| RankCost {
                    words_sent: a.words_sent + b.words_sent,
                    words_recv: a.words_recv + b.words_recv,
                    msgs_sent: a.msgs_sent + b.msgs_sent,
                    msgs_recv: a.msgs_recv + b.msgs_recv,
                    rounds: a.rounds + b.rounds,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates() {
        let report = CostReport {
            per_rank: vec![
                RankCost { words_sent: 10, words_recv: 4, msgs_sent: 2, msgs_recv: 1, rounds: 3 },
                RankCost { words_sent: 3, words_recv: 12, msgs_sent: 1, msgs_recv: 2, rounds: 5 },
            ],
        };
        assert_eq!(report.max_words_sent(), 10);
        assert_eq!(report.max_words_recv(), 12);
        assert_eq!(report.bandwidth_cost(), 12);
        assert_eq!(report.total_words_sent(), 13);
        assert_eq!(report.max_msgs_sent(), 2);
        assert_eq!(report.max_rounds(), 5);
    }

    #[test]
    fn empty_report() {
        let report = CostReport::default();
        assert_eq!(report.bandwidth_cost(), 0);
        assert_eq!(report.max_rounds(), 0);
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = CostReport {
            per_rank: vec![RankCost {
                words_sent: 1,
                words_recv: 2,
                msgs_sent: 3,
                msgs_recv: 4,
                rounds: 5,
            }],
        };
        let b = CostReport {
            per_rank: vec![RankCost {
                words_sent: 10,
                words_recv: 20,
                msgs_sent: 30,
                msgs_recv: 40,
                rounds: 50,
            }],
        };
        let m = a.merged(&b);
        assert_eq!(m.per_rank[0].words_sent, 11);
        assert_eq!(m.per_rank[0].rounds, 55);
    }

    #[test]
    fn delta_since_subtracts() {
        let early =
            RankCost { words_sent: 2, words_recv: 1, msgs_sent: 1, msgs_recv: 1, rounds: 0 };
        let late = RankCost { words_sent: 9, words_recv: 4, msgs_sent: 3, msgs_recv: 2, rounds: 2 };
        let d = late.delta_since(&early);
        assert_eq!(
            d,
            RankCost { words_sent: 7, words_recv: 3, msgs_sent: 2, msgs_recv: 1, rounds: 2 }
        );
    }

    #[test]
    fn event_words_accessor() {
        let send = CommEvent {
            t_ns: 1,
            phase: Some("gather-x"),
            round: Some(0),
            request: None,
            kind: CommEventKind::Send { dst: 1, tag: 0, words: 7 },
        };
        assert_eq!(send.words(), 7);
        let marker = CommEvent {
            t_ns: 2,
            phase: None,
            round: None,
            request: None,
            kind: CommEventKind::PhaseEnter { name: "x", snapshot: RankCost::default() },
        };
        assert_eq!(marker.words(), 0);
    }
}
