//! The traced run: per-layer metrics of one workload.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions:
//!
//! * single-threaded probes time the set-up layers (`TetraPartition::new`,
//!   `CommSchedule::build`, `OwnedBlocks::extract`, `RankPlan::build`),
//!   the comm-free kernel (`RankPlan::compute`), `RankPlan::pack`/`unpack`,
//!   `Comm::send`/`recv` round trips, `Comm::all_reduce` and the spawn of an
//!   empty `Universe`;
//! * the benchmark's rank loop (`rankloop.rs`) repeats the driver's work
//!   through the public `RankContext` calls, with a span around each call.
//!   It alternates with the same loop under the flight recorder off
//!   (`with_flight_capacity(0)`) and with untraced driver calls.

use crate::e2e::Prepared;
use crate::host::Scale;
use crate::rankloop::{self, rank_loop, Arm};
use crate::report::{median, Metric, Tally};
use crate::spans::{self, Recorder, Span};
use crate::spec::{self, Kind, P, Q};
use crate::sys;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use symtensor_mpsim::Universe;
use symtensor_parallel::blocks::OwnedBlocks;
use symtensor_parallel::bounds::lower_bound_words;
use symtensor_parallel::plan::ExchangeKind;
use symtensor_parallel::schedule::{shared_row_blocks, spherical_round_count};
use symtensor_parallel::{CommSchedule, PlanWorkspace, RankPlan, TetraPartition};
use symtensor_steiner::spherical;

/// The α-β sweep ends at the largest message of the `n = 480`, batch-8
/// serving workload.
const SWEEP_N: usize = 480;
const SWEEP_BATCH: usize = 8;
/// Kernel share of CPU per iteration the solve workload must stay under.
const SOLVE_KERNEL_SHARE_MAX: f64 = 0.10;

/// Repeats `f` until both `min_reps` runs and `budget` have passed and
/// returns the median of its results, scaled to the reference host speed
/// as the end-to-end timings are. Runs are grouped into rounds of at least
/// 20 ms with the host loop between rounds, so that short probes do not
/// all start with caches the loop has just evicted.
fn repeat(min_reps: usize, budget: Duration, mut f: impl FnMut() -> f64) -> f64 {
    const ROUND: Duration = Duration::from_millis(20);
    let t0 = Instant::now();
    let mut scale = Scale::new();
    let mut xs = Vec::new();
    while xs.len() < min_reps || t0.elapsed() < budget {
        let r0 = Instant::now();
        let mut round = Vec::new();
        while round.is_empty() || r0.elapsed() < ROUND {
            round.push(f());
        }
        let factor = scale.after_sample();
        xs.extend(round.into_iter().map(|x| x * factor));
    }
    median(&xs)
}

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Figures of the layer probes: medians in ns at the reference host speed.
/// "Rank-summed" figures add up every rank's share, as one core would run
/// them.
struct Probes {
    partition_ns: f64,
    schedule_ns: f64,
    rounds: usize,
    spawn_ns: f64,
    spawn_cpu_ns: f64,
    /// Rank-summed `OwnedBlocks::extract`.
    extract_ns: f64,
    /// Rank-summed `RankPlan::build`.
    plan_ns: f64,
    arena_bytes: usize,
    /// Rank-summed `RankPlan::compute`, per vector.
    kernel_ns: f64,
    ternary_per_vector: u64,
    /// Computed bytes one vector streams through the kernel: every arena
    /// word, plus the x and y slabs.
    kernel_bytes: f64,
    /// Rank-summed pack + unpack of every scheduled message, per vector.
    pack_ns: f64,
    pingpong_ns: f64,
    alpha_ns: f64,
    beta_ns: f64,
    allreduce_ns: f64,
    allreduce_cpu_ns: f64,
}

fn probe(prep: &Prepared) -> Probes {
    let (n, batch) = (prep.spec.n, prep.spec.batch);
    let short = Duration::from_millis(150);

    let system = spherical(Q as u64);
    let partition_ns = repeat(20, short, || {
        let s = system.clone();
        let t0 = Instant::now();
        black_box(TetraPartition::new(s, n).expect("n is a multiple of 30"));
        elapsed_ns(t0)
    });
    let part = &prep.part;
    let schedule_ns = repeat(20, short, || {
        let t0 = Instant::now();
        black_box(CommSchedule::build(part));
        elapsed_ns(t0)
    });
    let schedule = CommSchedule::build(part);

    let spawn_ns = repeat(30, short, || {
        let t0 = Instant::now();
        Universe::new(P).run(|_| ());
        elapsed_ns(t0)
    });
    let spawn_cpu_ns = repeat(30, short, || {
        let c0 = sys::cpu_ns();
        Universe::new(P).run(|_| ());
        (sys::cpu_ns() - c0) as f64
    });

    let tensor = &prep.inputs.tensor;
    let mut owned = Vec::new();
    let extract_ns = repeat(3, short, || {
        owned.clear();
        let t0 = Instant::now();
        owned.extend((0..P).map(|p| OwnedBlocks::extract(tensor, part, p)));
        elapsed_ns(t0)
    });
    let mut plans = Vec::new();
    let plan_ns = repeat(3, short, || {
        plans.clear();
        let t0 = Instant::now();
        plans.extend(owned.iter().enumerate().map(|(p, o)| RankPlan::build(part, o, p)));
        elapsed_ns(t0)
    });
    drop(owned);
    let arena_bytes = plans.iter().map(|pl| pl.arena_bytes()).sum();

    // Comm-free kernel: each rank's slabs hold the full gathered row
    // blocks of the workload's first `batch` vectors.
    let xs = &prep.inputs.xs;
    let mut wss: Vec<PlanWorkspace> = plans
        .iter()
        .enumerate()
        .map(|(p, plan)| {
            let mut ws = PlanWorkspace::new();
            plan.ensure_capacity(&mut ws, batch);
            for v in 0..batch {
                let x = &xs[v % xs.len()];
                let full: Vec<Vec<f64>> =
                    part.r_set(p).iter().map(|&i| x[part.block_range(i)].to_vec()).collect();
                plan.load_full(&mut ws, v, &full);
            }
            ws
        })
        .collect();
    let mut ternary = 0;
    let kernel_ns = repeat(3, Duration::from_millis(300), || {
        let t0 = Instant::now();
        ternary = plans.iter().zip(&mut wss).map(|(pl, ws)| pl.compute(ws, batch, None)).sum();
        elapsed_ns(t0)
    }) / batch as f64;
    let slab_words: usize = (0..P).map(|p| part.r_set(p).len() * part.block_size()).sum();

    // Pack on the sender and unpack on the receiver, for every message the
    // schedule sends in both phases. Gather unpacks rewrite the values the
    // slabs already hold; reduce unpacks add into y ranges no pack reads,
    // so the values grow only linearly.
    let sends: Vec<(usize, usize)> = (0..P)
        .flat_map(|p| schedule.actions(p).iter().filter_map(move |a| a.send_to.map(|d| (p, d))))
        .collect();
    let pack_ns = repeat(20, Duration::from_millis(200), || {
        let t0 = Instant::now();
        for kind in [ExchangeKind::Gather, ExchangeKind::Reduce] {
            for &(src, dst) in &sends {
                let out_slot = plans[src].peer_slot(dst).expect("scheduled peer");
                let buf = plans[src].pack(&mut wss[src], kind, out_slot, batch);
                let in_slot = plans[dst].peer_slot(src).expect("scheduled peer");
                plans[dst].unpack(&mut wss[dst], kind, in_slot, batch, buf);
            }
        }
        elapsed_ns(t0)
    }) / batch as f64;
    drop((plans, wss));

    let mut scale = Scale::new();
    let (pingpong_ns, alpha_ns, beta_ns) = sweep();
    let f = scale.after_sample();
    let (allreduce_ns, allreduce_cpu_ns) = all_reduce_probe();
    let g = scale.after_sample();

    Probes {
        partition_ns,
        schedule_ns,
        rounds: schedule.num_rounds(),
        spawn_ns,
        spawn_cpu_ns,
        extract_ns,
        plan_ns,
        arena_bytes,
        kernel_ns,
        ternary_per_vector: ternary / batch as u64,
        kernel_bytes: (arena_bytes + 2 * 8 * slab_words) as f64,
        pack_ns,
        pingpong_ns: pingpong_ns * f,
        alpha_ns: alpha_ns * f,
        beta_ns: beta_ns * f,
        allreduce_ns: allreduce_ns * g,
        allreduce_cpu_ns: allreduce_cpu_ns * g,
    }
}

/// Largest per-peer message of the `n = 480`, batch-8 serving workload.
fn sweep_max_words() -> usize {
    let part = spec::partition(SWEEP_N);
    let per_vector = (0..P)
        .flat_map(|a| (0..P).filter(move |&c| c != a).map(move |c| (a, c)))
        .map(|(a, c)| -> usize {
            shared_row_blocks(&part, a, c).into_iter().map(|i| part.shard_range(i, a).len()).sum()
        })
        .max()
        .unwrap_or(1);
    per_vector * SWEEP_BATCH
}

/// `Comm::send`/`recv` round trips between two ranks over message sizes
/// from 1 word to the largest serving message. Returns the 1-word round
/// trip and the least-squares fit `one_way = α + β·words`, all in ns. A
/// send moves its buffer without copying it, so β is near zero; copying
/// is the pack/unpack layer's.
fn sweep() -> (f64, f64, f64) {
    const TRIPS: usize = 200;
    let max_words = sweep_max_words();
    let mut sizes = vec![1usize];
    while sizes[sizes.len() - 1] < max_words {
        sizes.push((sizes[sizes.len() - 1] * 4).min(max_words));
    }
    let (results, _) = Universe::new(2).run(|comm| {
        let mut rtts = Vec::new();
        for &words in &sizes {
            let mut reps = Vec::new();
            let mut msg = vec![1.0; words];
            // The first repetition warms the channel up.
            for rep in 0..6 {
                let t0 = Instant::now();
                for _ in 0..TRIPS {
                    if comm.rank() == 0 {
                        comm.send(1, 7, msg);
                        msg = comm.recv(1, 8).expect("pong");
                    } else {
                        let ping = comm.recv(0, 7).expect("ping");
                        comm.send(0, 8, ping);
                    }
                }
                if rep > 0 {
                    reps.push(elapsed_ns(t0) / TRIPS as f64);
                }
            }
            rtts.push(median(&reps));
        }
        rtts
    });
    let rtts = &results[0];
    let pts: Vec<(f64, f64)> = sizes.iter().zip(rtts).map(|(&w, &r)| (w as f64, r / 2.0)).collect();
    let k = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / k;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / k;
    let sxx: f64 = pts.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    let sxy: f64 = pts.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let beta = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (rtts[0], my - beta * mx, beta)
}

/// 3-word `Comm::all_reduce` on `P` ranks: median wall ns on rank 0, and
/// process CPU ns per all-reduce.
fn all_reduce_probe() -> (f64, f64) {
    const ROUNDS: usize = 8;
    const PER_ROUND: usize = 50;
    let c0 = sys::cpu_ns();
    let (results, _) = Universe::new(P).run(|comm| {
        let mut per = Vec::new();
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for _ in 0..PER_ROUND {
                black_box(comm.all_reduce(vec![1.0, 2.0, 3.0]).expect("all-reduce"));
            }
            per.push(elapsed_ns(t0) / PER_ROUND as f64);
        }
        median(&per)
    });
    (results[0], (sys::cpu_ns() - c0) as f64 / (ROUNDS * PER_ROUND) as f64)
}

/// Per-call samples of the alternating measurement, scaled to the
/// reference host speed.
#[derive(Default)]
struct Samples {
    driver_ms: Vec<f64>,
    /// `(loop.call span id, wall ms, CPU ns per vector, vectors, host
    /// factor)` per traced call.
    on: Vec<(u64, f64, f64, usize, f64)>,
    off_cpu_per_vector: Vec<f64>,
    off_ms: Vec<f64>,
}

/// Alternates untraced driver calls, traced rank-loop calls and rank-loop
/// calls with the flight recorder off, for `seconds`.
fn measure(prep: &Prepared, rec: &Recorder, seconds: f64, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut call = 0u64;
    let mut scale = Scale::new();
    while s.on.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        let timed = prep.timed_call(tally);
        let f = scale.after_sample();
        if let Some((dt, _)) = timed {
            s.driver_ms.push(dt.as_secs_f64() * 1e3 * f);
        }
        for arm in [Arm::Flight, Arm::NoFlight] {
            call += 1;
            let (w0, c0) = (Instant::now(), sys::cpu_ns());
            let run = spec::guarded(|| rank_loop(prep, rec, call, arm));
            let (ms, cpu) = (w0.elapsed().as_secs_f64() * 1e3, (sys::cpu_ns() - c0) as f64);
            let f = scale.after_sample();
            let checked = run.and_then(|run| {
                rankloop::matches_driver(&prep.reference, &run.out)
                    .map_err(|e| format!("traced rank loop: {e}"))
                    .map(|_| (run.out.vectors, run.top))
            });
            if let Ok((v, top)) = checked {
                if arm == Arm::Flight {
                    s.on.push((top, ms * f, cpu / v as f64 * f, v, f));
                } else {
                    s.off_cpu_per_vector.push(cpu / v as f64 * f);
                    s.off_ms.push(ms * f);
                }
            }
            tally.record(checked);
        }
        if tally.failed > 3 {
            break;
        }
    }
    s
}

/// Figures derived from the spans of the traced (recorder-on) calls.
struct SpanFigures {
    /// Mean self time of one `rank.call`, ns.
    rank_call_ns: f64,
    /// Max over ranks of total `rank.call` self time, over the mean.
    rank_skew: f64,
    /// Rank-summed `rank.call` self time per vector, ns.
    rank_call_per_vector_ns: f64,
    /// Median over calls of `loop.call` minus the slowest rank's closure:
    /// spawn, join, schedule build and output assembly, ns.
    overhead_ns: f64,
    /// Median share of `loop.call` wall time covered by no other span.
    unaccounted: f64,
    /// Total self time and count per span name.
    by_name: BTreeMap<&'static str, (u64, usize)>,
}

impl SpanFigures {
    /// The time figures scaled by a host factor; shares are left alone.
    fn scaled(self, factor: f64) -> Self {
        SpanFigures {
            rank_call_ns: self.rank_call_ns * factor,
            rank_call_per_vector_ns: self.rank_call_per_vector_ns * factor,
            overhead_ns: self.overhead_ns * factor,
            ..self
        }
    }
}

fn span_figures(spans: &[Span], on: &[(u64, f64, f64, usize, f64)]) -> SpanFigures {
    let self_ns = spans::self_times(spans);
    let traced: BTreeMap<u64, usize> = on
        .iter()
        .filter_map(|&(top, _, _, v, _)| spans.iter().find(|s| s.id == top).map(|s| (s.call, v)))
        .collect();

    let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    let mut call_self = [0u64; P];
    let mut call_count = 0usize;
    let mut tops: BTreeMap<u64, &Span> = BTreeMap::new();
    // Per call: the slowest rank's closure, and every interval but the top.
    let mut slowest_rank: BTreeMap<u64, u64> = BTreeMap::new();
    let mut covered: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| traced.contains_key(&s.call)) {
        let own = self_ns[&s.id];
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
        match s.name {
            "loop.call" => {
                tops.insert(s.call, s);
                continue;
            }
            "rank.main" => {
                let slowest = slowest_rank.entry(s.call).or_default();
                *slowest = (*slowest).max(s.dur_ns());
            }
            "rank.call" => {
                call_self[s.rank as usize] += own;
                call_count += 1;
            }
            _ => {}
        }
        covered.entry(s.call).or_default().push((s.start_ns, s.end_ns));
    }
    let mut overhead = Vec::new();
    let mut unaccounted = Vec::new();
    for (call, top) in &tops {
        let dur = top.dur_ns().max(1);
        overhead.push(dur.saturating_sub(slowest_rank.get(call).copied().unwrap_or(0)) as f64);
        let mut iv = covered.remove(call).unwrap_or_default();
        let gap = dur - spans::covered_ns(top.start_ns, top.end_ns, &mut iv).min(dur);
        unaccounted.push(gap as f64 / dur as f64);
    }
    let vectors: usize = traced.values().sum();
    let total: u64 = call_self.iter().sum();
    let mean = total as f64 / P as f64;
    SpanFigures {
        rank_call_ns: total as f64 / call_count.max(1) as f64,
        rank_skew: call_self.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
        rank_call_per_vector_ns: total as f64 / vectors.max(1) as f64,
        overhead_ns: median(&overhead),
        unaccounted: median(&unaccounted),
        by_name,
    }
}

/// Where the spans are written: next to the benchmark's build output.
fn spans_path(workload: &str) -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe.parent().and_then(|d| d.parent()).map(|d| d.to_path_buf()).unwrap_or_default();
    target.join("perfbench-spans").join(format!("{workload}.jsonl"))
}

/// Runs the probes and the traced loop; returns every per-layer metric
/// and whether the layer-separation check passed.
pub fn run(prep: &Prepared, seconds: f64, tally: &mut Tally) -> (Vec<Metric>, bool) {
    let spec = prep.spec;
    let pr = probe(prep);
    let rec = Recorder::new();
    let s = measure(prep, &rec, seconds, tally);
    let spans = rec.spans();
    let f = span_figures(&spans, &s.on);
    let path = spans_path(spec.name);
    match spans::write_jsonl(&path, &spans) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
    }

    // Exact counts pinned against closed forms.
    let mut ok = true;
    let mut pin = |what: &str, got: u64, want: u64| {
        if got != want {
            eprintln!("perfbench: FAILED: {what} = {got}, expected {want}");
            ok = false;
        }
    };
    pin("plan.ternary_per_vector", pr.ternary_per_vector, spec.ternary_per_vector());
    pin("schedule.rounds", pr.rounds as u64, spherical_round_count(Q) as u64);

    let per_call = prep.reference.vectors as f64;
    let on_ms: Vec<f64> = s.on.iter().map(|x| x.1).collect();
    let on_cpu: Vec<f64> = s.on.iter().map(|x| x.2).collect();
    let on_factor: Vec<f64> = s.on.iter().map(|x| x.4).collect();
    let cpu_per_vector = median(&on_cpu);
    let (on_ms, off_ms) = (median(&on_ms), median(&s.off_ms));
    let driver_ms = median(&s.driver_ms);
    // Span figures are raw sums over the traced calls; scale them by the
    // calls' median host factor.
    let f = f.scaled(median(&on_factor));
    // The schedule's STTSV words per vector, which the gate reconciles
    // with every rank call's counted words, to the word.
    let words = spec.words_per_vector() as f64;
    let kernel_share = pr.kernel_ns / cpu_per_vector;

    ok &= ledger(prep, &pr, cpu_per_vector, &f);
    eprintln!(
        "perfbench: rank loop {on_ms:.3} ms/call traced, {off_ms:.3} ms/call recorder off, \
         driver {driver_ms:.3} ms/call"
    );

    let n_on = s.on.len();
    let metrics = vec![
        Metric::new("partition.new_us", pr.partition_ns / 1e3, "us", 20),
        Metric::new("schedule.build_us", pr.schedule_ns / 1e3, "us", 20),
        Metric::new("schedule.rounds", pr.rounds as f64, "count", 1),
        Metric::new("mpsim.spawn_us", pr.spawn_ns / 1e3, "us", 30),
        Metric::new("blocks.extract_ms", pr.extract_ns / 1e6, "ms", 3),
        Metric::new("plan.build_ms", pr.plan_ns / 1e6, "ms", 3),
        Metric::new("plan.arena_mib", pr.arena_bytes as f64 / (1u64 << 20) as f64, "MiB", 1),
        Metric::new("plan.kernel_ns_per_vector", pr.kernel_ns, "ns", 3),
        Metric::new(
            "plan.kernel_gflops",
            3.0 * pr.ternary_per_vector as f64 / pr.kernel_ns,
            "GFLOP/s",
            3,
        ),
        Metric::new("plan.kernel_bytes_per_vector", pr.kernel_bytes, "bytes", 1),
        Metric::new("plan.ternary_per_vector", pr.ternary_per_vector as f64, "count", 1),
        Metric::new("plan.pack_ns_per_vector", pr.pack_ns, "ns", 20),
        Metric::new("comm.pingpong_us", pr.pingpong_ns / 1e3, "us", 5),
        Metric::new("comm.alpha_us", pr.alpha_ns / 1e3, "us", 5),
        Metric::new("comm.beta_ns_per_word", pr.beta_ns, "ns/word", 5),
        Metric::new("collectives.allreduce_us", pr.allreduce_ns / 1e3, "us", 8),
        Metric::new("algorithm5.rank_call_us", f.rank_call_ns / 1e3, "us", n_on),
        Metric::new("algorithm5.rank_skew", f.rank_skew, "ratio", n_on),
        Metric::new(
            "algorithm5.exchange_ns_per_vector",
            (f.rank_call_per_vector_ns - pr.kernel_ns - pr.pack_ns) / P as f64,
            "ns",
            n_on,
        ),
        Metric::new(
            "mpsim.flight_overhead_pct",
            (cpu_per_vector / median(&s.off_cpu_per_vector) - 1.0) * 100.0,
            "%",
            n_on,
        ),
        Metric::new("serve.overhead_ms", f.overhead_ns / 1e6, "ms", n_on),
        Metric::new("solver.iters", per_call, "count", 1),
        Metric::new("schedule.words_vs_bound", words / lower_bound_words(spec.n, P), "ratio", 1),
        Metric::new("trace.overhead_pct", (on_ms / driver_ms - 1.0) * 100.0, "%", n_on),
        Metric::new("trace.unaccounted_pct", f.unaccounted * 100.0, "%", n_on),
        Metric::new("ledger.kernel_cpu_pct", kernel_share * 100.0, "%", n_on),
        Metric::new("ledger.cpu_us_per_vector", cpu_per_vector / 1e3, "us", n_on),
    ];
    (metrics, ok)
}

/// Prints each layer's share of process CPU per vector and the span
/// self-time table, and applies the layer-separation check:
/// the kernel must be the largest layer on `stream-q2-b8`, and at most a
/// tenth of the CPU per iteration on `solve-q2`.
fn ledger(prep: &Prepared, pr: &Probes, cpu_per_vector: f64, f: &SpanFigures) -> bool {
    let spec = prep.spec;
    let per_call = prep.reference.vectors as f64;
    let mut layers = vec![
        ("kernel (RankPlan::compute)", pr.kernel_ns),
        ("pack/unpack", pr.pack_ns),
        (
            "setup (extract + plan build + schedule)",
            (pr.extract_ns + pr.plan_ns + pr.schedule_ns) / per_call,
        ),
        ("spawn (empty Universe)", pr.spawn_cpu_ns / per_call),
    ];
    if spec.kind == Kind::Solve {
        layers.push(("collectives (2 all-reduces)", 2.0 * pr.allreduce_cpu_ns));
    }
    let named: f64 = layers.iter().map(|l| l.1).sum();
    layers
        .push(("residual: transport, recv-wait, recorder, batch forming", cpu_per_vector - named));

    println!("layer ledger, {}: share of {:.1} us CPU per vector", spec.name, cpu_per_vector / 1e3);
    for (name, ns) in &layers {
        println!("  {:<56} {:>12.1} ns {:>6.1}%", name, ns, 100.0 * ns / cpu_per_vector);
    }
    println!("span self time, {} (traced calls, raw):", spec.name);
    for (name, (ns, count)) in &f.by_name {
        println!(
            "  {:<28} {:>10} spans {:>12.3} ms {:>12.1} ns/vector",
            name,
            count,
            *ns as f64 / 1e6,
            *ns as f64 / per_call
        );
    }

    let kernel = layers[0].1;
    let largest_other = layers[1..].iter().map(|l| l.1).fold(f64::MIN, f64::max);
    let ok = match spec.kind {
        Kind::Stream if kernel < largest_other => {
            eprintln!("perfbench: FAILED: layer separation: kernel is not the largest layer");
            false
        }
        Kind::Solve if kernel > SOLVE_KERNEL_SHARE_MAX * cpu_per_vector => {
            eprintln!(
                "perfbench: FAILED: layer separation: kernel is over a tenth of CPU per iteration"
            );
            false
        }
        _ => true,
    };
    println!("  layer separation check: {}", if ok { "pass" } else { "FAIL" });
    ok
}
