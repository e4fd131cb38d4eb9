//! Virtual-clock replay of a traced run under a configurable α-β-γ cost
//! model.
//!
//! The simulator's traces record *what happened in which order* (per-rank
//! program order plus the send→recv pairing); wall-clock timestamps on a
//! single oversubscribed host are noisy and machine-dependent. Replay
//! discards the timestamps' absolute values and re-executes the run's
//! happens-before DAG on a virtual clock where costs come from the model
//! the paper analyzes:
//!
//! * a send occupies its sender for `α + β·words`,
//! * a receive completes at `max(receiver clock, matched send's end)` —
//!   the *postal* model: messages are in flight the moment they are sent,
//!   and a receiver only pays when it would outrun a message that has not
//!   arrived yet (`recv-wait`),
//! * compute is charged `γ ×` the **measured** duration of each
//!   designated compute-phase span (default `local-compute`) — the only
//!   place wall time enters, scaled so `γ = 0` gives pure communication
//!   schedules and `γ = 1` replays measured compute under ideal
//!   communication.
//!
//! The replayed op list (every op with modeled start/end and its *binding
//! predecessor* — the dependency that actually determined its start time)
//! is what [`crate::critical`] walks to extract the critical path.

use crate::json::Value;
use crate::span::{spans, PhaseSpan};
use std::collections::{BTreeMap, HashMap, VecDeque};
use symtensor_mpsim::cost::CommEventKind;
use symtensor_mpsim::CommEvent;

/// The α-β-γ machine model: per-message latency, per-word inverse
/// bandwidth (both in virtual nanoseconds), and a dimensionless multiplier
/// on measured compute-span durations. The optional `link_ns` term is a
/// one-way network flight time: the sender is released after `α + β·w`,
/// but the message only becomes receivable `link_ns` later. With
/// `link_ns = 0` (the default and every pre-existing construction) the
/// model is unchanged — a message is available the instant the sender's
/// clock finishes the send, which makes perfectly regular round-paired
/// schedules lockstep (zero modeled recv-wait). A nonzero `link_ns` models
/// the wire itself, so even a lockstep schedule pays `link_ns` of recv-wait
/// per message **unless the receiver has other work to do in the meantime**.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlphaBetaModel {
    /// Cost charged to the sender per message (latency term), in virtual ns.
    pub alpha: f64,
    /// Cost charged to the sender per word (bandwidth term), in virtual ns.
    pub beta: f64,
    /// Multiplier on each measured compute-phase span duration.
    pub gamma: f64,
    /// One-way network flight time per message, in virtual ns: a message
    /// sent at sender-clock `t` with `w` words becomes receivable at
    /// `t + α + β·w + link_ns`. Occupies neither endpoint — pure pipeline
    /// depth, hideable by overlapping independent work.
    pub link_ns: f64,
}

impl Default for AlphaBetaModel {
    /// `bandwidth_only()` — the unit the paper's bounds are stated in.
    fn default() -> Self {
        AlphaBetaModel::bandwidth_only()
    }
}

impl AlphaBetaModel {
    /// Pure bandwidth accounting: `α = 0, β = 1, γ = 0` — the virtual
    /// clock then reads directly in *words*, the unit of the paper's
    /// bandwidth cost and of `symtensor_parallel::bounds::
    /// scheduled_words_per_vector`.
    pub fn bandwidth_only() -> Self {
        AlphaBetaModel { alpha: 0.0, beta: 1.0, gamma: 0.0, link_ns: 0.0 }
    }

    /// Pure compute accounting: `α = β = 0, γ = 1` — makespan equals the
    /// maximum per-rank measured compute total (communication is free).
    pub fn compute_only() -> Self {
        AlphaBetaModel { alpha: 0.0, beta: 0.0, gamma: 1.0, link_ns: 0.0 }
    }

    /// The same model with a one-way network flight time of `link_ns`
    /// virtual nanoseconds per message.
    pub fn with_link(self, link_ns: f64) -> Self {
        AlphaBetaModel { link_ns, ..self }
    }
}

/// The phase whose measured span durations are charged as compute when no
/// override is given — Algorithm 5's local ternary-multiplication phase.
pub const DEFAULT_COMPUTE_PHASE: &str = "local-compute";

/// Identifies one replayed op: `ranks[rank].ops[index]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpId {
    /// The owning rank.
    pub rank: usize,
    /// Index into that rank's op list.
    pub index: usize,
}

/// What a replayed op is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpKind {
    /// A designated compute-phase span (measured `dur_ns`, charged
    /// `γ × dur_ns`).
    Compute {
        /// Measured span duration in wall ns.
        dur_ns: u64,
    },
    /// A message send (charged `α + β·words` on the sender).
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Payload words.
        words: u64,
    },
    /// A message receive (completes at the matched send's modeled end).
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Payload words.
        words: u64,
    },
}

/// One op with its modeled schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayOp {
    /// What the op is.
    pub kind: OpKind,
    /// Phase annotation carried over from the trace.
    pub phase: Option<&'static str>,
    /// Round annotation carried over from the trace.
    pub round: Option<u64>,
    /// Modeled start time (virtual ns).
    pub start: f64,
    /// Modeled end time (virtual ns).
    pub end: f64,
    /// The dependency that determined `start`/`end`: the matched send for
    /// a receive that had to wait, otherwise the previous op on the same
    /// rank (`None` for a rank's first op).
    pub pred: Option<OpId>,
    /// For a receive: the send it was matched to (recorded whether or not
    /// the receive had to wait — `pred` only names the sender when it was
    /// binding). `None` for sends and compute ops.
    pub matched_send: Option<OpId>,
}

/// One rank's replay: its op schedule and the per-rank decomposition of
/// modeled time.
#[derive(Clone, Debug, Default)]
pub struct RankReplay {
    /// Ops in program order with modeled times.
    pub ops: Vec<ReplayOp>,
    /// Total modeled compute (`γ × Σ` measured compute spans).
    pub compute_ns: f64,
    /// Total modeled send occupancy (`Σ α + β·words`).
    pub send_busy_ns: f64,
    /// Total modeled blocking on not-yet-arrived messages.
    pub recv_wait_ns: f64,
    /// This rank's modeled finish time.
    pub finish_ns: f64,
}

impl RankReplay {
    /// Time this rank sat finished while the slowest rank still ran:
    /// `makespan − finish`.
    pub fn idle_ns(&self, makespan: f64) -> f64 {
        (makespan - self.finish_ns).max(0.0)
    }
}

/// Replay failures (only possible on incomplete traces).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A rank's receive has no matching send anywhere in the traces —
    /// the virtual machine would deadlock.
    Starved {
        /// The blocked rank.
        rank: usize,
        /// Index of the blocked op.
        op_index: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Starved { rank, op_index } => write!(
                f,
                "replay starved: rank {rank} op {op_index} waits for a send absent from the trace"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The full replay of a run.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// The model that produced the virtual times.
    pub model: AlphaBetaModel,
    /// Per-rank schedules, indexed by rank.
    pub ranks: Vec<RankReplay>,
    /// Modeled makespan: `max_p finish_p`.
    pub makespan_ns: f64,
}

/// Per-phase modeled vs measured totals — the model-drift table.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseDrift {
    /// Phase name.
    pub phase: String,
    /// Modeled time attributed to the phase, summed across ranks.
    pub modeled_ns: f64,
    /// Measured wall time of the phase's spans, summed across ranks.
    pub measured_ns: f64,
}

impl PhaseDrift {
    /// `modeled / measured` (how fast the model thinks this phase should
    /// be relative to what the host delivered); ∞-free: 0 when unmeasured.
    pub fn ratio(&self) -> f64 {
        if self.measured_ns <= 0.0 {
            0.0
        } else {
            self.modeled_ns / self.measured_ns
        }
    }
}

impl ReplayReport {
    /// Maximum modeled send occupancy over ranks — under
    /// [`AlphaBetaModel::bandwidth_only`] this is exactly `β ×` the
    /// per-rank words-sent maximum, i.e. the paper's bandwidth cost in
    /// virtual ns.
    pub fn max_send_busy_ns(&self) -> f64 {
        self.ranks.iter().map(|r| r.send_busy_ns).fold(0.0, f64::max)
    }

    /// Maximum modeled compute over ranks.
    pub fn max_compute_ns(&self) -> f64 {
        self.ranks.iter().map(|r| r.compute_ns).fold(0.0, f64::max)
    }

    /// Sum of every op's modeled weight (`end − start` contributions that
    /// advance a rank clock) — a trivial upper bound on any path length.
    pub fn total_weight_ns(&self) -> f64 {
        self.ranks.iter().map(|r| r.compute_ns + r.send_busy_ns + r.recv_wait_ns).sum()
    }

    /// Per-phase modeled totals (clock advance attributed to the phase
    /// annotation of each op, summed across ranks), in phase-name order.
    pub fn phase_modeled_ns(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for rank in &self.ranks {
            for op in &rank.ops {
                let advance = op.end - op.start;
                if advance > 0.0 {
                    let name = match op.kind {
                        OpKind::Compute { .. } => op.phase.unwrap_or(DEFAULT_COMPUTE_PHASE),
                        _ => op.phase.unwrap_or("(unphased)"),
                    };
                    *out.entry(name.to_string()).or_insert(0.0) += advance;
                }
            }
        }
        out
    }

    /// The model-drift table: per phase, modeled total vs the measured
    /// wall time of the same phase's **top-level** spans (which partition
    /// the run). Phases appear if either side is nonzero.
    pub fn drift(&self, spans: &[PhaseSpan]) -> Vec<PhaseDrift> {
        let modeled = self.phase_modeled_ns();
        let mut measured: BTreeMap<String, f64> = BTreeMap::new();
        for span in spans.iter().filter(|s| s.depth == 0) {
            *measured.entry(span.name.to_string()).or_insert(0.0) += span.duration_ns() as f64;
        }
        let mut names: Vec<String> = modeled.keys().chain(measured.keys()).cloned().collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .map(|phase| PhaseDrift {
                modeled_ns: modeled.get(&phase).copied().unwrap_or(0.0),
                measured_ns: measured.get(&phase).copied().unwrap_or(0.0),
                phase,
            })
            .collect()
    }

    /// JSON form: the model, makespan, per-rank decomposition.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with(
                "model",
                Value::object()
                    .with("alpha", self.model.alpha)
                    .with("beta", self.model.beta)
                    .with("gamma", self.model.gamma),
            )
            .with("makespan_ns", self.makespan_ns)
            .with("max_send_busy_ns", self.max_send_busy_ns())
            .with("max_compute_ns", self.max_compute_ns())
            .with(
                "ranks",
                Value::Array(
                    self.ranks
                        .iter()
                        .enumerate()
                        .map(|(rank, r)| {
                            Value::object()
                                .with("rank", rank)
                                .with("compute_ns", r.compute_ns)
                                .with("send_busy_ns", r.send_busy_ns)
                                .with("recv_wait_ns", r.recv_wait_ns)
                                .with("finish_ns", r.finish_ns)
                                .with("idle_ns", r.idle_ns(self.makespan_ns))
                        })
                        .collect(),
                ),
            )
    }
}

/// One extracted op: `(kind, phase, round)`, as recorded on the trace
/// event that produced it.
pub type ExtractedOp = (OpKind, Option<&'static str>, Option<u64>);

/// Extracts each rank's replayable op list from its trace: sends and
/// receives in program order, plus one `Compute` op per **outermost**
/// span of the designated compute phase (nested re-entries of the same
/// name are folded into the outer span).
pub fn extract_ops(traces: &[Vec<CommEvent>], compute_phase: &str) -> Vec<Vec<ExtractedOp>> {
    traces
        .iter()
        .map(|trace| {
            let mut ops = Vec::new();
            let mut depth = 0usize;
            let mut entered_at = 0u64;
            for event in trace {
                match event.kind {
                    CommEventKind::Send { dst, tag, words } => {
                        ops.push((OpKind::Send { dst, tag, words }, event.phase, event.round));
                    }
                    CommEventKind::Recv { src, tag, words } => {
                        ops.push((OpKind::Recv { src, tag, words }, event.phase, event.round));
                    }
                    CommEventKind::PhaseEnter { name, .. } if name == compute_phase => {
                        if depth == 0 {
                            entered_at = event.t_ns;
                        }
                        depth += 1;
                    }
                    CommEventKind::PhaseExit { name, .. } if name == compute_phase => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            ops.push((
                                OpKind::Compute { dur_ns: event.t_ns.saturating_sub(entered_at) },
                                Some(name),
                                event.round,
                            ));
                        }
                    }
                    _ => {}
                }
            }
            ops
        })
        .collect()
}

/// Replays the traces under `model` with the default compute phase
/// ([`DEFAULT_COMPUTE_PHASE`]).
pub fn replay(
    traces: &[Vec<CommEvent>],
    model: AlphaBetaModel,
) -> Result<ReplayReport, ReplayError> {
    replay_with_compute_phase(traces, model, DEFAULT_COMPUTE_PHASE)
}

/// Replays the traces under `model`, charging `γ ×` the measured duration
/// of every outermost `compute_phase` span as compute.
///
/// Sends are matched to receives FIFO per `(src, dst, tag)` — the exact
/// pairing the simulator performed (see [`symtensor_mpsim::matching`]).
/// The replay is deterministic and independent of host timing except
/// through the measured compute durations (which `γ = 0` removes).
pub fn replay_with_compute_phase(
    traces: &[Vec<CommEvent>],
    model: AlphaBetaModel,
    compute_phase: &str,
) -> Result<ReplayReport, ReplayError> {
    let raw = extract_ops(traces, compute_phase);
    let p = raw.len();
    let mut ranks: Vec<RankReplay> = raw
        .iter()
        .map(|ops| RankReplay {
            ops: ops
                .iter()
                .map(|&(kind, phase, round)| ReplayOp {
                    kind,
                    phase,
                    round,
                    start: 0.0,
                    end: 0.0,
                    pred: None,
                    matched_send: None,
                })
                .collect(),
            ..RankReplay::default()
        })
        .collect();

    // In-flight messages: (src, dst, tag) -> FIFO of (modeled send end,
    // sender op id). A send enqueues the moment it is replayed; a receive
    // can only be replayed once its match is in the queue.
    let mut in_flight: HashMap<(usize, usize, u64), VecDeque<(f64, OpId)>> = HashMap::new();
    let mut cursor = vec![0usize; p];
    let mut clock = vec![0.0f64; p];
    let mut remaining: usize = ranks.iter().map(|r| r.ops.len()).sum();

    while remaining > 0 {
        let mut progressed = false;
        for rank in 0..p {
            while cursor[rank] < ranks[rank].ops.len() {
                let index = cursor[rank];
                let program_pred = (index > 0).then(|| OpId { rank, index: index - 1 });
                let op_kind = ranks[rank].ops[index].kind;
                match op_kind {
                    OpKind::Compute { dur_ns } => {
                        let weight = model.gamma * dur_ns as f64;
                        let op = &mut ranks[rank].ops[index];
                        op.start = clock[rank];
                        op.end = op.start + weight;
                        op.pred = program_pred;
                        clock[rank] = op.end;
                        ranks[rank].compute_ns += weight;
                    }
                    OpKind::Send { dst, tag, words } => {
                        let weight = model.alpha + model.beta * words as f64;
                        let start = clock[rank];
                        let end = start + weight;
                        let op = &mut ranks[rank].ops[index];
                        op.start = start;
                        op.end = end;
                        op.pred = program_pred;
                        clock[rank] = end;
                        ranks[rank].send_busy_ns += weight;
                        in_flight
                            .entry((rank, dst, tag))
                            .or_default()
                            .push_back((end + model.link_ns, OpId { rank, index }));
                    }
                    OpKind::Recv { src, tag, .. } => {
                        let Some(&(arrival, sender)) =
                            in_flight.get(&(src, rank, tag)).and_then(VecDeque::front)
                        else {
                            break; // sender not replayed yet — try other ranks
                        };
                        in_flight.get_mut(&(src, rank, tag)).unwrap().pop_front();
                        let start = clock[rank];
                        let (end, pred, wait) = if arrival > start {
                            (arrival, Some(sender), arrival - start)
                        } else {
                            (start, program_pred, 0.0)
                        };
                        let op = &mut ranks[rank].ops[index];
                        op.start = start;
                        op.end = end;
                        op.pred = pred;
                        op.matched_send = Some(sender);
                        clock[rank] = end;
                        ranks[rank].recv_wait_ns += wait;
                    }
                }
                cursor[rank] += 1;
                remaining -= 1;
                progressed = true;
            }
        }
        if !progressed {
            // Every unfinished rank is blocked on a receive whose send is
            // absent from the traces.
            let rank = (0..p).find(|&r| cursor[r] < ranks[r].ops.len()).unwrap();
            return Err(ReplayError::Starved { rank, op_index: cursor[rank] });
        }
    }

    for (rank, r) in ranks.iter_mut().enumerate() {
        r.finish_ns = clock[rank];
    }
    let makespan_ns = clock.iter().copied().fold(0.0, f64::max);
    Ok(ReplayReport { model, ranks, makespan_ns })
}

/// Convenience: replay plus the drift table in one call (spans are
/// reconstructed from the same traces).
pub fn replay_with_drift(
    traces: &[Vec<CommEvent>],
    model: AlphaBetaModel,
) -> Result<(ReplayReport, Vec<PhaseDrift>), ReplayError> {
    let report = replay(traces, model)?;
    let all_spans: Vec<PhaseSpan> = spans(traces);
    let drift = report.drift(&all_spans);
    Ok((report, drift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_mpsim::Universe;

    fn ring_traces(p: usize, words: usize, rounds: u64) -> Vec<Vec<CommEvent>> {
        let (_, _, traces) = Universe::new(p).run_traced(|comm| {
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            for round in 0..rounds {
                comm.annotate_round(round);
                comm.send(next, round, vec![0.0; words]);
                comm.recv(prev, round).unwrap();
            }
            comm.clear_round();
        });
        traces
    }

    #[test]
    fn bandwidth_only_ring_makespan_is_exact() {
        // Uniform lockstep ring: every rank sends `words` each round, so
        // under α=0, β=1, γ=0 every clock advances `words` per round and
        // the makespan is rounds × words, equal to every rank's send-busy.
        let (p, words, rounds) = (4usize, 7usize, 3u64);
        let traces = ring_traces(p, words, rounds);
        let report = replay(&traces, AlphaBetaModel::bandwidth_only()).unwrap();
        let expect = (rounds * words as u64) as f64;
        assert_eq!(report.makespan_ns, expect);
        for r in &report.ranks {
            assert_eq!(r.send_busy_ns, expect);
            assert_eq!(r.recv_wait_ns, 0.0, "lockstep ⇒ nothing waits");
            assert_eq!(r.finish_ns, expect);
        }
    }

    #[test]
    fn alpha_counts_messages() {
        let traces = ring_traces(3, 5, 2);
        let model = AlphaBetaModel { alpha: 100.0, beta: 0.0, gamma: 0.0, link_ns: 0.0 };
        let report = replay(&traces, model).unwrap();
        // 2 messages per rank, 100 ns each, lockstep.
        assert_eq!(report.makespan_ns, 200.0);
    }

    #[test]
    fn straggler_chain_is_modeled() {
        // Rank 0 sends to 1, 1 forwards to 2: the chain serializes, so the
        // makespan is the sum of both send costs even though each rank's
        // own busy time is one send.
        let (_, _, traces) = Universe::new(3).run_traced(|comm| match comm.rank() {
            0 => comm.send(1, 0, vec![0.0; 10]),
            1 => {
                let got = comm.recv(0, 0).unwrap();
                comm.send(2, 1, got);
            }
            _ => {
                comm.recv(1, 1).unwrap();
            }
        });
        let report = replay(&traces, AlphaBetaModel::bandwidth_only()).unwrap();
        assert_eq!(report.makespan_ns, 20.0);
        assert_eq!(report.ranks[1].recv_wait_ns, 10.0);
        assert_eq!(report.ranks[2].recv_wait_ns, 20.0);
        // The receive that waited binds to its sender, not program order.
        let recv_op =
            report.ranks[1].ops.iter().find(|o| matches!(o.kind, OpKind::Recv { .. })).unwrap();
        assert_eq!(recv_op.pred, Some(OpId { rank: 0, index: 0 }));
    }

    #[test]
    fn compute_only_makespan_is_max_rank_compute() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("local-compute", || {
                // Rank 1 computes ~3× longer.
                let spins = if comm.rank() == 0 { 20_000 } else { 60_000 };
                let mut acc = 0.0f64;
                for i in 0..spins {
                    acc += (i as f64).sqrt();
                }
                std::hint::black_box(acc);
            });
            let partner = 1 - comm.rank();
            comm.send(partner, 0, vec![1.0; 64]);
            comm.recv(partner, 0).unwrap();
        });
        let report = replay(&traces, AlphaBetaModel::compute_only()).unwrap();
        let max_compute = report.max_compute_ns();
        assert!(max_compute > 0.0);
        assert_eq!(
            report.makespan_ns, max_compute,
            "α=β=0 ⇒ makespan equals the max per-rank compute total"
        );
        for r in &report.ranks {
            assert_eq!(r.send_busy_ns, 0.0);
        }
    }

    #[test]
    fn starved_recv_is_an_error() {
        // Hand-build a trace with a recv whose send never happened.
        let recv_only = vec![CommEvent {
            t_ns: 5,
            phase: None,
            round: None,
            kind: CommEventKind::Recv { src: 0, tag: 9, words: 3 },
        }];
        let traces = vec![Vec::new(), recv_only];
        let err = replay(&traces, AlphaBetaModel::bandwidth_only()).unwrap_err();
        assert_eq!(err, ReplayError::Starved { rank: 1, op_index: 0 });
    }

    #[test]
    fn drift_table_covers_phases() {
        let (_, _, traces) = Universe::new(2).run_traced(|comm| {
            comm.with_phase("gather-x", || {
                let partner = 1 - comm.rank();
                comm.send(partner, 0, vec![0.0; 8]);
                comm.recv(partner, 0).unwrap();
            });
            comm.with_phase("local-compute", || {
                std::hint::black_box((0..2000).map(|i| i as f64).sum::<f64>());
            });
        });
        let (report, drift) = replay_with_drift(
            &traces,
            AlphaBetaModel { alpha: 0.0, beta: 1.0, gamma: 1.0, link_ns: 0.0 },
        )
        .unwrap();
        assert!(report.makespan_ns > 0.0);
        let gather = drift.iter().find(|d| d.phase == "gather-x").unwrap();
        assert_eq!(gather.modeled_ns, 16.0, "two ranks × 8 words");
        assert!(gather.measured_ns > 0.0);
        let compute = drift.iter().find(|d| d.phase == "local-compute").unwrap();
        assert!(compute.modeled_ns > 0.0);
        assert!((compute.ratio() - 1.0).abs() < 0.5, "γ=1 compute drift ≈ 1");
    }
}
