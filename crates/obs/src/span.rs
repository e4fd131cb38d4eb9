//! Phase-span extraction from per-rank event logs.
//!
//! [`crate::Comm::with_phase`](symtensor_mpsim::Comm::with_phase) brackets a
//! region with `PhaseEnter`/`PhaseExit` events carrying counter snapshots.
//! This module replays a rank's event log and reconstructs the tree of
//! phases as flat [`PhaseSpan`] records: wall-clock interval, nesting depth,
//! and the *exact* [`RankCost`] delta incurred inside the phase (exit
//! snapshot minus enter snapshot).

use std::collections::BTreeMap;
use symtensor_mpsim::cost::CommEventKind;
use symtensor_mpsim::{CommEvent, RankCost};

/// One completed phase on one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Rank the phase ran on.
    pub rank: usize,
    /// Phase label.
    pub name: &'static str,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Nanoseconds since the universe epoch at entry.
    pub start_ns: u64,
    /// Nanoseconds since the universe epoch at exit.
    pub end_ns: u64,
    /// Exact communication-cost delta incurred within the phase
    /// (including nested phases).
    pub cost: RankCost,
}

impl PhaseSpan {
    /// Wall-clock duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Reconstructs the completed phase spans of one rank's event log, in order
/// of phase *entry*. Unmatched `PhaseEnter`s (phases still open when the log
/// was collected) are dropped; unmatched `PhaseExit`s are ignored.
pub fn spans_of_rank(rank: usize, events: &[CommEvent]) -> Vec<PhaseSpan> {
    // (position in `out`, start time, enter snapshot)
    let mut stack: Vec<(usize, u64, RankCost)> = Vec::new();
    let mut out: Vec<Option<PhaseSpan>> = Vec::new();
    for event in events {
        match event.kind {
            CommEventKind::PhaseEnter { name, snapshot } => {
                let depth = stack.len();
                out.push(Some(PhaseSpan {
                    rank,
                    name,
                    depth,
                    start_ns: event.t_ns,
                    end_ns: event.t_ns,
                    cost: RankCost::default(),
                }));
                stack.push((out.len() - 1, event.t_ns, snapshot));
            }
            CommEventKind::PhaseExit { name, snapshot } => {
                if let Some((slot, start_ns, entered)) = stack.pop() {
                    let span = out[slot].as_mut().expect("span slot filled at enter");
                    debug_assert_eq!(span.name, name, "mismatched phase nesting");
                    span.start_ns = start_ns;
                    span.end_ns = event.t_ns;
                    span.cost = snapshot.delta_since(&entered);
                }
            }
            _ => {}
        }
    }
    // Drop phases never exited.
    while let Some((slot, _, _)) = stack.pop() {
        out[slot] = None;
    }
    out.into_iter().flatten().collect()
}

/// All ranks' spans, flattened (rank-major, entry order within a rank).
pub fn spans(traces: &[Vec<CommEvent>]) -> Vec<PhaseSpan> {
    traces.iter().enumerate().flat_map(|(rank, events)| spans_of_rank(rank, events)).collect()
}

/// Aggregate statistics for one phase label across ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of spans with this label (across all ranks and repetitions).
    pub count: u64,
    /// Total wall-clock nanoseconds across spans.
    pub total_ns: u64,
    /// Maximum single-span duration.
    pub max_ns: u64,
    /// Summed communication cost across spans.
    pub total_cost: RankCost,
    /// Maximum over spans of `max(words_sent, words_recv)` — the per-phase
    /// bandwidth-cost contribution in the α-β-γ model.
    pub max_bandwidth: u64,
}

/// Per-phase aggregate over a set of spans, keyed by label.
///
/// Only **top-level** spans (`depth == 0`) are aggregated so that word
/// totals partition the run: nested phases would otherwise double-count
/// their parents' traffic.
pub fn phase_stats(spans: &[PhaseSpan]) -> BTreeMap<&'static str, PhaseStats> {
    let mut map: BTreeMap<&'static str, PhaseStats> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.depth == 0) {
        let entry = map.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.max_ns = entry.max_ns.max(span.duration_ns());
        entry.total_cost = RankCost {
            words_sent: entry.total_cost.words_sent + span.cost.words_sent,
            words_recv: entry.total_cost.words_recv + span.cost.words_recv,
            msgs_sent: entry.total_cost.msgs_sent + span.cost.msgs_sent,
            msgs_recv: entry.total_cost.msgs_recv + span.cost.msgs_recv,
            rounds: entry.total_cost.rounds + span.cost.rounds,
        };
        entry.max_bandwidth = entry.max_bandwidth.max(span.cost.bandwidth());
    }
    map
}

/// Per-phase aggregate over **all** spans with a given label, at any
/// nesting depth.
///
/// Complement to [`phase_stats`]: use this to pull out *nested*
/// instrumentation such as the `compute:kernel` span that Algorithm 5 opens
/// inside its `local-compute` phase — e.g. to compare pure kernel time
/// against the enclosing phase, or to sum kernel time across a batched
/// run's repeated invocations. Because nested spans overlap their parents,
/// the returned totals do **not** partition the run; they answer "how much
/// time/traffic happened under this label", not "what share of the run was
/// this".
pub fn phase_stats_by_name(spans: &[PhaseSpan], name: &str) -> PhaseStats {
    let mut stats = PhaseStats::default();
    for span in spans.iter().filter(|s| s.name == name) {
        stats.count += 1;
        stats.total_ns += span.duration_ns();
        stats.max_ns = stats.max_ns.max(span.duration_ns());
        stats.total_cost = RankCost {
            words_sent: stats.total_cost.words_sent + span.cost.words_sent,
            words_recv: stats.total_cost.words_recv + span.cost.words_recv,
            msgs_sent: stats.total_cost.msgs_sent + span.cost.msgs_sent,
            msgs_recv: stats.total_cost.msgs_recv + span.cost.msgs_recv,
            rounds: stats.total_cost.rounds + span.cost.rounds,
        };
        stats.max_bandwidth = stats.max_bandwidth.max(span.cost.bandwidth());
    }
    stats
}

/// Aggregate of one annotated counter key (see
/// [`symtensor_mpsim::Comm::annotate_counter`]) across event logs.
///
/// Counters are point samples, not deltas: `last` is the most recent value
/// observed (useful for gauges such as arena bytes), `max`/`min` bound the
/// series, and `total` sums every sample (useful for per-call counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterStats {
    /// Number of samples recorded under this key.
    pub count: u64,
    /// The most recently sampled value.
    pub last: u64,
    /// Maximum sample.
    pub max: u64,
    /// Minimum sample.
    pub min: u64,
    /// Sum of all samples.
    pub total: u64,
}

impl Default for CounterStats {
    fn default() -> Self {
        CounterStats { count: 0, last: 0, max: 0, min: u64::MAX, total: 0 }
    }
}

impl CounterStats {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.last = value;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.total += value;
    }
}

/// Per-key aggregates of every [`CommEventKind::Counter`] sample across all
/// ranks' event logs. Pass `phase: Some(name)` to restrict to samples taken
/// while `name` was the *innermost* active phase (the attribution recorded
/// on the event itself) — e.g. `Some("compute:kernel")` pulls out the
/// arena-bytes and steady-state-allocation gauges the compiled-plan kernel
/// annotates.
pub fn counter_stats(
    traces: &[Vec<CommEvent>],
    phase: Option<&str>,
) -> BTreeMap<&'static str, CounterStats> {
    let mut map: BTreeMap<&'static str, CounterStats> = BTreeMap::new();
    for events in traces {
        for event in events {
            if let CommEventKind::Counter { key, value } = event.kind {
                if phase.is_none_or(|p| event.phase == Some(p)) {
                    map.entry(key).or_default().record(value);
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_mpsim::Universe;

    #[test]
    fn spans_reconstruct_nesting_and_cost() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("outer", || {
                comm.with_phase("inner", || {
                    if comm.rank() == 0 {
                        comm.send(1, 0, vec![0.0; 5]);
                    } else {
                        comm.recv(0, 0).unwrap();
                    }
                });
            });
        });
        let spans0 = spans_of_rank(0, &traces[0]);
        assert_eq!(spans0.len(), 2);
        let outer = spans0.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans0.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        // Nested traffic is included in the parent's delta.
        assert_eq!(outer.cost.words_sent, 5);
        assert_eq!(inner.cost.words_sent, 5);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        let spans1 = spans_of_rank(1, &traces[1]);
        assert_eq!(spans1.iter().find(|s| s.name == "inner").unwrap().cost.words_recv, 5);
    }

    #[test]
    fn stats_aggregate_top_level_only() {
        let (_, report, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("a", || {
                comm.with_phase("a-sub", || {
                    let other = 1 - comm.rank();
                    comm.exchange(other, 1, vec![1.0; 3]).unwrap();
                });
            });
            comm.with_phase("b", || {
                let other = 1 - comm.rank();
                comm.exchange(other, 2, vec![1.0; 4]).unwrap();
            });
        });
        let stats = phase_stats(&spans(&traces));
        // Nested "a-sub" is not a top-level key.
        assert!(!stats.contains_key("a-sub"));
        assert_eq!(stats["a"].total_cost.words_sent, 6); // 3 words × 2 ranks
        assert_eq!(stats["b"].total_cost.words_sent, 8);
        // Top-level phases partition the run: per-phase totals sum to the
        // whole run's totals.
        let sum: u64 = stats.values().map(|s| s.total_cost.words_sent).sum();
        assert_eq!(sum, report.total_words_sent());
    }

    #[test]
    fn by_name_stats_see_nested_spans() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("a", || {
                comm.with_phase("kernel", || {});
            });
            comm.with_phase("b", || {
                comm.with_phase("kernel", || {});
                comm.with_phase("kernel", || {});
            });
        });
        let all = spans(&traces);
        // Top-level aggregation hides the nested label entirely...
        assert!(!phase_stats(&all).contains_key("kernel"));
        // ...but the by-name view counts every occurrence: 3 per rank.
        let kernel = phase_stats_by_name(&all, "kernel");
        assert_eq!(kernel.count, 6);
        assert_eq!(phase_stats_by_name(&all, "a").count, 2);
        assert_eq!(phase_stats_by_name(&all, "nope").count, 0);
    }

    #[test]
    fn algorithm5_traces_expose_the_nested_kernel_span() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use symtensor_core::generate::random_symmetric;
        use symtensor_parallel::{parallel_sttsv_with, Mode, SttsvOptions, TetraPartition};
        use symtensor_steiner::spherical;

        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let opts = SttsvOptions { trace: true, ..SttsvOptions::new(Mode::Scheduled) };
        let traces = parallel_sttsv_with(&tensor, &part, &[x], opts).unwrap().traces();

        let all = spans(&traces);
        // Every rank opens exactly one compute:kernel span, nested at depth
        // 1 inside local-compute — so the top-level partition is untouched.
        let kernels: Vec<_> = all.iter().filter(|s| s.name == "compute:kernel").collect();
        assert_eq!(kernels.len(), part.num_procs());
        assert!(kernels.iter().all(|s| s.depth == 1));
        assert!(kernels.iter().all(|s| s.cost.words_sent == 0), "kernels must not communicate");
        let stats = phase_stats(&all);
        assert!(!stats.contains_key("compute:kernel"));
        assert!(stats.contains_key("local-compute"));
        // The kernel time is contained in the local-compute phase time.
        let kernel = phase_stats_by_name(&all, "compute:kernel");
        let local = phase_stats_by_name(&all, "local-compute");
        assert_eq!(kernel.count, local.count);
        assert!(kernel.total_ns <= local.total_ns);
    }

    #[test]
    fn counter_stats_aggregate_and_filter_by_phase() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("compute", || {
                comm.annotate_counter("arena_bytes", 4096);
                comm.annotate_counter("fresh_allocs", 2);
                comm.annotate_counter("fresh_allocs", 2);
            });
            comm.annotate_counter("fresh_allocs", 7); // outside any phase
        });
        let all = counter_stats(&traces, None);
        assert_eq!(all["arena_bytes"].count, 2); // one per rank
        assert_eq!(all["arena_bytes"].last, 4096);
        assert_eq!(all["arena_bytes"].max, 4096);
        assert_eq!(all["arena_bytes"].min, 4096);
        assert_eq!(all["fresh_allocs"].count, 6);
        assert_eq!(all["fresh_allocs"].total, 2 * (2 + 2 + 7));
        assert_eq!(all["fresh_allocs"].max, 7);
        assert_eq!(all["fresh_allocs"].min, 2);
        // Phase filter keeps only samples attributed to that innermost phase.
        let inside = counter_stats(&traces, Some("compute"));
        assert_eq!(inside["fresh_allocs"].count, 4);
        assert_eq!(inside["fresh_allocs"].total, 8);
        assert!(counter_stats(&traces, Some("nope")).is_empty());
    }

    #[test]
    fn planned_sttsv_annotates_kernel_counters() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use symtensor_core::generate::random_symmetric;
        use symtensor_mpsim::Universe;
        use symtensor_parallel::{Mode, RankContext, TetraPartition};
        use symtensor_steiner::spherical;

        let n = 30;
        let part = TetraPartition::new(spherical(2), n).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let iterations = 3;

        let (_, _, traces) = Universe::new(part.num_procs()).run_traced(|comm| {
            let p = comm.rank();
            let ctx = RankContext::new(&tensor, &part, p, Mode::AllToAllSparse, None);
            let mut shards = part.shards_of(p, &x);
            for _ in 0..iterations {
                let (y, _) = ctx.sttsv(comm, &shards);
                shards = y;
            }
        });
        // A batch of 8 — one full group of the fused kernel's lanes, whose
        // staging lives in the plan workspace — is allocation-free too.
        let batch = 8;
        let (_, _, traces_multi) = Universe::new(part.num_procs()).run_traced(|comm| {
            let p = comm.rank();
            let ctx = RankContext::new(&tensor, &part, p, Mode::AllToAllSparse, None);
            let mut shards: Vec<_> = (0..batch).map(|_| part.shards_of(p, &x)).collect();
            for _ in 0..iterations {
                let (ys, _) = ctx.sttsv_multi(comm, &shards);
                shards = ys;
            }
        });
        for traces in [&traces, &traces_multi] {
            // The kernel gauges live inside the nested compute:kernel span,
            // one sample per call.
            let kernel = counter_stats(traces, Some("compute:kernel"));
            let arena = kernel["plan:arena_bytes"];
            assert_eq!(arena.count as usize, iterations * part.num_procs());
            assert!(arena.last > 0);
            assert_eq!(kernel["plan:fresh_allocs"].count, arena.count);
            // Per rank: the arena gauge never moves (it is sized once at
            // compile time) and the cumulative fresh-allocation gauge is
            // *flat* across iterations — all buffer growth happens during
            // the first iteration's warm-up, before the first kernel
            // sample.
            for events in traces.iter() {
                let per = counter_stats(std::slice::from_ref(events), Some("compute:kernel"));
                let rank_arena = per["plan:arena_bytes"];
                assert_eq!(rank_arena.count as usize, iterations);
                assert_eq!(rank_arena.min, rank_arena.max, "the arena never reallocates");
                let fresh = per["plan:fresh_allocs"];
                assert_eq!(fresh.count as usize, iterations);
                assert_eq!(fresh.min, fresh.max, "fresh allocs must not grow after warm-up");
            }
        }
    }

    #[test]
    fn unclosed_phase_is_dropped() {
        use symtensor_mpsim::cost::CommEventKind;
        let events = vec![CommEvent {
            t_ns: 1,
            phase: None,
            round: None,
            request: None,
            kind: CommEventKind::PhaseEnter { name: "open", snapshot: RankCost::default() },
        }];
        assert!(spans_of_rank(0, &events).is_empty());
    }
}
