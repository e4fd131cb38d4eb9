//! The benchmark's own rank loop: each driver's work repeated through the
//! public `RankContext` calls, in a `Universe` the benchmark configures.
//!
//! The traced run times it with a span around each call. The correctness
//! gate runs it once with event tracing on, which gives the exact words
//! each rank call moved, and reconciles them with the paper's schedule.

use crate::e2e::Prepared;
use crate::spans::{Recorder, DRIVER};
use crate::spec::{self, CallOut, Kind, Spec, ALPHA, P, TOL};
use symtensor_core::hopm::HopmOptions;
use symtensor_mpsim::{Comm, CommEvent, CommEventKind, CostReport, RankCost, Universe};
use symtensor_parallel::{CommSchedule, Mode, RankContext, TetraPartition};

/// Phase label the loop puts around every `RankContext` STTSV call.
const STTSV_PHASE: &str = "perfbench.sttsv";

/// How the loop's `Universe` is configured.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The default flight recorder.
    Flight,
    /// The flight recorder off: `with_flight_capacity(0)`.
    NoFlight,
    /// The default flight recorder and per-rank event tracing, which
    /// counts the words of every rank call.
    Counted,
}

/// This rank's shards of `x`, one per owned row block.
fn shards_of(part: &TetraPartition, p: usize, x: &[f64]) -> Vec<Vec<f64>> {
    part.r_set(p).iter().map(|&i| x[part.block_range(i)][part.shard_range(i, p)].to_vec()).collect()
}

type BatchShards = Vec<Vec<Vec<f64>>>;

/// One batch's shards and request ids on rank `p`; request ids are the
/// requests' positions, as the driver numbers them.
fn form(part: &TetraPartition, p: usize, xs: &[Vec<f64>], first: usize) -> (BatchShards, Vec<u64>) {
    let shards = xs.iter().map(|x| shards_of(part, p, x)).collect();
    (shards, (first..first + xs.len()).map(|i| i as u64).collect())
}

/// One rank's result: output shards per batch (`[batch][v][t]`; the solve
/// has one batch of one vector), the vectors of each STTSV call in call
/// order, the ternary multiplications the calls returned, and the solve's
/// `(λ, converged, iterations)`.
struct RankOut {
    ys: Vec<BatchShards>,
    calls: Vec<usize>,
    ternary: u64,
    eigen: Option<(f64, bool, usize)>,
}

/// Span context of one rank inside one loop call.
#[derive(Clone, Copy)]
struct Ctx<'r> {
    rec: &'r Recorder,
    call: u64,
    rank: i64,
}

impl Ctx<'_> {
    fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.rec.span(name, parent, self.call, self.rank, f)
    }

    /// A `RankContext` STTSV call, in a `rank.call` span and the
    /// [`STTSV_PHASE`].
    fn sttsv<R>(&self, comm: &Comm, parent: u64, f: impl FnOnce() -> R) -> R {
        self.span("rank.call", parent, |_| comm.with_phase(STTSV_PHASE, f))
    }
}

/// The shifted power iteration of `parallel_shifted_hopm_planned`, step
/// for step, with a span around each STTSV and each all-reduce.
fn solve_rank(comm: &Comm, rc: &RankContext<'_>, x0: &[f64], cx: Ctx<'_>, main: u64) -> RankOut {
    let opts = HopmOptions { tol: TOL, max_iters: 4 * spec::SOLVE_ITERS };
    let all_reduce = |parent: u64, v: Vec<f64>| {
        cx.span("collectives.all_reduce", parent, |_| comm.all_reduce(v).expect("all-reduce"))
    };
    let mut x_shards = shards_of(rc.part, comm.rank(), x0);
    let local_sq: f64 = x_shards.iter().flatten().map(|&v| v * v).sum();
    let norm0 = all_reduce(main, vec![local_sq])[0].sqrt();
    for shard in &mut x_shards {
        for v in shard.iter_mut() {
            *v /= norm0;
        }
    }
    let (mut lambda, mut iters, mut converged, mut ternary) = (0.0, 0, false, 0);
    while iters < opts.max_iters {
        let stop = cx.span("rank.step", main, |step| {
            let (mut y_raw, count) = cx.sttsv(comm, step, || rc.sttsv(comm, &x_shards));
            ternary += count;
            let raw_sq: f64 = y_raw.iter().flatten().map(|&v| v * v).sum();
            let x_dot_raw: f64 =
                x_shards.iter().flatten().zip(y_raw.iter().flatten()).map(|(&a, &b)| a * b).sum();
            for (shard, xs) in y_raw.iter_mut().zip(&x_shards) {
                for (v, &xv) in shard.iter_mut().zip(xs) {
                    *v += ALPHA * xv;
                }
            }
            let shift_sq: f64 = y_raw.iter().flatten().map(|&v| v * v).sum();
            let global = all_reduce(step, vec![shift_sq, x_dot_raw, raw_sq]);
            let y_norm = global[0].sqrt();
            lambda = global[1];
            if y_norm == 0.0 {
                return true;
            }
            let (mut diff_pos, mut diff_neg) = (0.0, 0.0);
            let mut new_shards = y_raw;
            for (shard, old) in new_shards.iter_mut().zip(&x_shards) {
                for (v, &o) in shard.iter_mut().zip(old) {
                    *v /= y_norm;
                    diff_pos += (o - *v) * (o - *v);
                    diff_neg += (o + *v) * (o + *v);
                }
            }
            let diffs = all_reduce(step, vec![diff_pos, diff_neg]);
            x_shards = new_shards;
            iters += 1;
            converged = diffs[0].min(diffs[1]).sqrt() < opts.tol;
            converged
        });
        if stop {
            break;
        }
    }
    RankOut {
        ys: vec![vec![x_shards]],
        calls: vec![1; iters],
        ternary,
        eigen: Some((lambda, converged, iters)),
    }
}

/// `parallel_sttsv_serve`'s rank loop: one `sttsv_multi_requests` per batch.
fn stream_rank(
    comm: &Comm,
    rc: &RankContext<'_>,
    xs: &[Vec<f64>],
    b: usize,
    cx: Ctx<'_>,
    main: u64,
) -> RankOut {
    let p = comm.rank();
    let mut out = RankOut { ys: Vec::new(), calls: Vec::new(), ternary: 0, eigen: None };
    for (k, batch) in xs.chunks(b).enumerate() {
        cx.span("rank.step", main, |step| {
            let (shards, ids) =
                cx.span("rank.batch_form", step, |_| form(rc.part, p, batch, k * b));
            let (ys, ternary, _) =
                cx.sttsv(comm, step, || rc.sttsv_multi_requests(comm, &shards, &ids));
            out.ys.push(ys);
            out.calls.push(batch.len());
            out.ternary += ternary;
        });
    }
    out
}

/// `parallel_sttsv_serve_pipelined`'s rank loop: one `sttsv_serve_pipelined`
/// over every batch, forming each batch when the pipeline admits it.
fn pipeline_rank(
    comm: &Comm,
    rc: &RankContext<'_>,
    xs: &[Vec<f64>],
    b: usize,
    cx: Ctx<'_>,
    main: u64,
) -> RankOut {
    let p = comm.rank();
    let batches = xs.len().div_ceil(b);
    let served = cx.span("rank.call", main, |id| {
        comm.with_phase(STTSV_PHASE, || {
            rc.sttsv_serve_pipelined(comm, batches, |k| {
                let batch = &xs[k * b..(k * b + b).min(xs.len())];
                cx.span("rank.batch_form", id, |_| form(rc.part, p, batch, k * b))
            })
        })
    });
    let ternary = served.iter().map(|s| s.ternary).sum();
    RankOut {
        ys: served.into_iter().map(|s| s.ys).collect(),
        calls: vec![xs.len()],
        ternary,
        eigen: None,
    }
}

/// One call of the rank loop.
pub struct LoopOut {
    pub out: CallOut,
    /// Id of the call's `loop.call` span.
    pub top: u64,
    /// Per rank, the exact cost and the vectors of each STTSV call (empty
    /// unless the arm is [`Arm::Counted`]).
    pub sttsv: Vec<Vec<(RankCost, usize)>>,
}

/// One call of the rank loop: the driver's work through the public
/// `RankContext` calls, in a `Universe` of its own.
pub fn rank_loop(prep: &Prepared, rec: &Recorder, call: u64, arm: Arm) -> LoopOut {
    let spec = prep.spec;
    let part = &prep.part;
    let tensor = &prep.inputs.tensor;
    let xs = &prep.inputs.xs;
    rec.span("loop.call", 0, call, DRIVER, |top| {
        let schedule = rec.span("loop.schedule", top, call, DRIVER, |_| CommSchedule::build(part));
        let mut universe = Universe::new(P);
        if arm == Arm::NoFlight {
            universe = universe.with_flight_capacity(0);
        }
        let rank = |comm: &Comm| {
            let p = comm.rank();
            let cx = Ctx { rec, call, rank: p as i64 };
            cx.span("rank.main", top, |main| {
                let rc = cx.span("rank.setup", main, |_| {
                    let rc = RankContext::new(tensor, part, p, Mode::Scheduled, Some(&schedule))
                        .with_plan();
                    rc.compile(p);
                    rc
                });
                match spec.kind {
                    Kind::Solve => solve_rank(comm, &rc, &xs[0], cx, main),
                    Kind::Stream => stream_rank(comm, &rc, xs, spec.batch, cx, main),
                    Kind::Pipeline => pipeline_rank(comm, &rc, xs, spec.batch, cx, main),
                }
            })
        };
        let (outs, report, events) = if arm == Arm::Counted {
            universe.run_traced(rank)
        } else {
            let (outs, report) = universe.run(rank);
            (outs, report, Vec::new())
        };
        let sttsv = events.iter().zip(&outs).map(|(ev, o)| sttsv_costs(ev, &o.calls)).collect();
        let out = rec.span("loop.assemble", top, call, DRIVER, |_| assemble(part, outs, report));
        LoopOut { out, top, sttsv }
    })
}

/// Pairs each [`STTSV_PHASE`] of one rank's event log with its vectors.
fn sttsv_costs(events: &[CommEvent], calls: &[usize]) -> Vec<(RankCost, usize)> {
    let mut entered = None;
    let mut costs = Vec::new();
    for e in events {
        match e.kind {
            CommEventKind::PhaseEnter { name, snapshot } if name == STTSV_PHASE => {
                entered = Some(snapshot)
            }
            CommEventKind::PhaseExit { name, snapshot } if name == STTSV_PHASE => {
                costs.extend(entered.take().map(|at| snapshot.delta_since(&at)))
            }
            _ => {}
        }
    }
    costs.into_iter().zip(calls.iter().copied()).collect()
}

/// Assembles global outputs from rank shards, as the drivers do.
fn assemble(part: &TetraPartition, outs: Vec<RankOut>, report: CostReport) -> CallOut {
    let n = part.dim();
    let count: usize = outs[0].ys.iter().map(|b| b.len()).sum();
    let mut ys = vec![vec![0.0; n]; count];
    for (p, out) in outs.iter().enumerate() {
        for (v, shards) in out.ys.iter().flatten().enumerate() {
            for (t, &i) in part.r_set(p).iter().enumerate() {
                let (g, l) = (part.block_range(i), part.shard_range(i, p));
                ys[v][g.start + l.start..g.start + l.end].copy_from_slice(&shards[t]);
            }
        }
    }
    let (vectors, eigen) = match outs[0].eigen {
        Some((lambda, converged, iters)) => (iters, Some((lambda, converged))),
        None => (count, None),
    };
    let ternary = outs.iter().map(|o| o.ternary).sum();
    CallOut { vectors, ys, report, ternary, eigen }
}

/// The loop's result against the driver's. Serving: the same outputs to
/// the bit. Solve: converged, with λ within 1e-8 of the driver's and the
/// eigenvector within 1e-6 (max-norm, up to sign). Its communication is
/// not compared: the loop repeats the driver's collectives, which the
/// driver may change.
pub fn matches_driver(driver: &CallOut, out: &CallOut) -> Result<(), String> {
    match (driver.eigen, out.eigen) {
        (Some((lambda, _)), Some((got, converged))) => {
            let dist = |sign: f64| {
                driver.ys[0]
                    .iter()
                    .zip(&out.ys[0])
                    .fold(0.0f64, |m, (a, b)| m.max((a - sign * b).abs()))
            };
            if !converged || (got - lambda).abs() > 1e-8 || dist(1.0).min(dist(-1.0)) > 1e-6 {
                return Err(format!("rank loop solve gives λ = {got}, the driver {lambda}"));
            }
            Ok(())
        }
        _ => {
            let bits = |ys: &[Vec<f64>]| -> Vec<u64> {
                ys.iter().flatten().map(|v| v.to_bits()).collect()
            };
            if out.vectors != driver.vectors || bits(&out.ys) != bits(&driver.ys) {
                return Err("rank loop outputs differ from the driver's".into());
            }
            Ok(())
        }
    }
}

/// Every STTSV call of every rank must send and receive exactly
/// `2·scheduled_words_per_vector` words per vector, and the calls must do
/// exactly `n²(n+1)/2` ternary multiplications per vector.
fn reconcile(spec: &Spec, run: &LoopOut) -> Result<(), String> {
    if run.sttsv.len() != P {
        return Err(format!("{} ranks counted, expected {P}", run.sttsv.len()));
    }
    for (p, calls) in run.sttsv.iter().enumerate() {
        let vectors: usize = calls.iter().map(|c| c.1).sum();
        if vectors != run.out.vectors {
            return Err(format!("rank {p}: {vectors} vectors counted, {} served", run.out.vectors));
        }
        for (k, (cost, v)) in calls.iter().enumerate() {
            let want = spec.words_per_vector() * *v as u64;
            if cost.words_sent != want || cost.words_recv != want {
                return Err(format!(
                    "rank {p}, call {k}: sent {} / received {} words for {v} vectors, expected {want}",
                    cost.words_sent, cost.words_recv
                ));
            }
        }
    }
    let want = spec.ternary_per_vector() * run.out.vectors as u64;
    if run.out.ternary != want {
        return Err(format!(
            "rank loop: {} ternary multiplications, expected {want}",
            run.out.ternary
        ));
    }
    Ok(())
}

/// The gate's rank-loop check: one counted call must match the driver's
/// reference call and reconcile with the schedule to the word.
pub fn check(prep: &Prepared) -> Result<(), String> {
    let run = spec::guarded(|| rank_loop(prep, &Recorder::new(), 1, Arm::Counted))?;
    matches_driver(&prep.reference, &run.out)?;
    reconcile(prep.spec, &run)
}
