//! Paper-vs-measured experiment driver.
//!
//! Usage: `experiment [comm|baselines|balance|memory|schedule|hopm|kernels|all]
//!                    [--batch B] [--flight]
//!                    [--trace out.json] [--metrics out.json]`
//!
//! Any other argument is a usage error (exit 2).
//!
//! `experiment chaos [--seed S] [--drop-prob P] [--crash rank@phase:round]`
//! runs the E15 chaos A/B: the batched serving path fault-free vs the same
//! requests under deterministic fault injection with retry/degrade
//! recovery, reporting retry counts and the degraded-request rate.
//!
//! Each subcommand executes the relevant algorithms on the simulated
//! machine, prints measured quantities next to the paper's closed forms,
//! and asserts the claims it verifies. `EXPERIMENTS.md` records the output.
//!
//! With `--trace`/`--metrics`, every measured Algorithm-5 run is re-run in
//! traced mode and collected into a Perfetto-loadable trace (one named
//! process per run) and/or a flat metrics JSON (per-phase word totals,
//! message-size histograms, comm matrix, round occupancy).

use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor_cli::obsout::ObsSink;
use symtensor_core::generate::{random_odeco, random_symmetric};
use symtensor_core::hopm::HopmOptions;
use symtensor_obs::RunObservation;
use symtensor_parallel::baselines::{baseline_1d_words, baseline_3d_words, sttsv_1d, sttsv_3d};
use symtensor_parallel::bounds;
use symtensor_parallel::hopm::parallel_hopm;
use symtensor_parallel::schedule::spherical_round_count;
use symtensor_parallel::{
    parallel_sttsv, parallel_sttsv_multi_planned, parallel_sttsv_with, CommSchedule, Mode,
    SttsvOptions, SttsvRun, TetraPartition,
};
use symtensor_steiner::spherical;

fn main() {
    let (sink, rest) = ObsSink::from_args(std::env::args().skip(1));
    // The batch size of the `kernels` subcommand's batched runs.
    let mut batch = 4usize;
    let mut flight = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(b) => batch = b,
                None => usage("--batch expects a non-negative integer"),
            },
            "--flight" => flight = true,
            _ => positional.push(a),
        }
    }
    let arg = positional.first().cloned().unwrap_or_else(|| "all".to_string());
    // `chaos` and `regress` parse their own arguments; every other
    // experiment takes none beyond the flags above.
    if !matches!(arg.as_str(), "chaos" | "regress") && positional.len() > 1 {
        usage(&format!("unexpected argument '{}'", positional[1]));
    }
    match arg.as_str() {
        "comm" => comm(&sink),
        "baselines" => baselines(),
        "balance" => balance(),
        "memory" => memory(),
        "schedule" => schedule(),
        "hopm" => hopm(),
        "seqio" => seqio(),
        "ablation" => ablation(),
        "triangle" => triangle(),
        "kernels" => kernels(batch, flight),
        "chaos" => chaos(&positional[1..]),
        "telemetry" => telemetry_ab(),
        "regress" => regress(&positional[1..]),
        "all" => {
            comm(&sink);
            baselines();
            balance();
            memory();
            schedule();
            hopm();
            seqio();
            ablation();
            triangle();
            kernels(batch, flight);
        }
        other => usage(&format!("unknown experiment '{other}'")),
    }
    sink.flush();
}

/// Prints `msg` and the usage lines, and exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiment [comm|baselines|balance|memory|schedule|hopm|seqio|ablation|triangle|kernels|telemetry|all] [--batch B] [--flight] [--trace out.json] [--metrics out.json]"
    );
    eprintln!("       experiment chaos [--seed S] [--drop-prob P] [--crash rank@phase:round]");
    eprintln!(
        "       experiment regress --baseline BENCH.json --current NEW.json [--threshold 0.15] [--out diff.json]"
    );
    std::process::exit(2);
}

/// E15: the chaos A/B. Serves one request stream twice — fault-free, then
/// under a seeded [`symtensor_mpsim::FaultPlan`] with bounded-retry
/// recovery — and reports per-request retries, the degraded rate, and that
/// every recovered output is bit-identical to the fault-free run.
fn chaos(args: &[String]) {
    use std::time::Duration;
    use symtensor_core::seq::sttsv_sym;
    use symtensor_mpsim::{CrashSpec, FaultPlan};
    use symtensor_parallel::{parallel_sttsv_serve, serve, ChaosPolicy, ServeConfig};

    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!("usage: experiment chaos [--seed S] [--drop-prob P] [--crash rank@phase:round]");
        std::process::exit(2);
    };
    let mut seed = 2025u64;
    let mut drop_prob = 0.01f64;
    let mut crash: Option<CrashSpec> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => fail("--seed expects an unsigned integer"),
            },
            "--drop-prob" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if (0.0..=1.0).contains(&p) => drop_prob = p,
                _ => fail("--drop-prob expects a probability in [0, 1]"),
            },
            "--crash" => match it.next().map(|v| CrashSpec::parse(v)) {
                Some(Ok(spec)) => crash = Some(spec),
                Some(Err(e)) => fail(&format!("--crash: {e}")),
                None => fail("--crash needs a rank@phase:round value"),
            },
            other => fail(&format!("unknown chaos argument '{other}'")),
        }
    }

    println!(
        "== E15: chaos A/B (q = 2, P = 10; seed = {seed}, drop-prob = {drop_prob}{}) ==",
        crash
            .as_ref()
            .map(|c| format!(", crash = {}@{}:{}", c.rank, c.phase, c.round))
            .unwrap_or_default()
    );
    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(1015);
    let tensor = random_symmetric(n, &mut rng);
    let requests: Vec<symtensor_parallel::ServeRequest> = (0..8)
        .map(|v| {
            let x: Vec<f64> = (0..n).map(|i| ((i + 5 * v) as f64 * 0.017).sin()).collect();
            symtensor_parallel::ServeRequest::new(v as u64, x)
        })
        .collect();

    let base = parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, 1, 2)
        .expect("fault-free serving run");
    let mut fault_plan = FaultPlan::seeded(seed).with_drop_prob(drop_prob);
    if let Some(spec) = crash.clone() {
        fault_plan = fault_plan.with_crash(spec);
    }
    let policy = ChaosPolicy {
        plan: fault_plan,
        max_retries: 2,
        backoff: Duration::from_millis(10),
        recv_timeout: Duration::from_millis(250),
    };
    // Injected rank failures are caught and retried by the serving layer;
    // keep the default hook from dumping a backtrace for each one.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let cfg = ServeConfig { chaos: Some(&policy), ..ServeConfig::new(Mode::Scheduled, 2) };
    let chaotic = serve(&tensor, &part, &requests, cfg).expect("chaos serving run");
    std::panic::set_hook(prev_hook);

    println!("{:>4} {:>6} {:>8} {:>9} | {:>10}", "id", "batch", "retries", "degraded", "output");
    let mut total_retries = 0u64;
    let mut degraded = 0usize;
    for (i, rec) in chaotic.records.iter().enumerate() {
        let verdict = if rec.degraded {
            degraded += 1;
            let (expected, _) = sttsv_sym(&tensor, &requests[i].x);
            let exact =
                chaotic.ys[i].iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(exact, "degraded request {} must be the sequential answer", rec.id);
            "fallback"
        } else {
            let exact =
                chaotic.ys[i].iter().zip(&base.ys[i]).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(exact, "recovered request {} must be bit-identical", rec.id);
            "identical"
        };
        total_retries += u64::from(rec.retries);
        println!(
            "{:>4} {:>6} {:>8} {:>9} | {:>10}",
            rec.id, rec.batch, rec.retries, rec.degraded, verdict
        );
    }
    println!(
        "fault-free words: {}; with faults (incl. failed attempts): {}",
        base.report.total_words_sent(),
        chaotic.report.total_words_sent()
    );
    println!(
        "total retries: {total_retries}; degraded: {degraded}/{} ({:.1}%)",
        chaotic.records.len(),
        degraded as f64 / chaotic.records.len() as f64 * 100.0
    );
    println!("(recovered outputs bit-identical to the fault-free run ✓)");
    println!();
}

/// E17: the telemetry scrape-overhead A/B. Serves one request stream
/// without a telemetry plane, then with a plane and a background scraper
/// at several intervals, asserting the outputs and [`symtensor_mpsim::CostReport`]s
/// are bit-identical and reporting the wall-clock delta per interval.
fn telemetry_ab() {
    use std::sync::Arc;
    use std::time::Instant;
    use symtensor_parallel::{parallel_sttsv_serve, serve, ServeConfig};
    use symtensor_telemetry::{ScrapeConfig, Scraper, TelemetryPlane};

    println!("== E17: telemetry scrape-overhead A/B (q = 2, P = 10) ==");
    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(1015);
    let tensor = random_symmetric(n, &mut rng);
    let requests: Vec<symtensor_parallel::ServeRequest> = (0..12)
        .map(|v| {
            let x: Vec<f64> = (0..n).map(|i| ((i + 5 * v) as f64 * 0.017).sin()).collect();
            symtensor_parallel::ServeRequest::new(v as u64, x)
        })
        .collect();

    let t0 = Instant::now();
    let base = parallel_sttsv_serve(&tensor, &part, &requests, Mode::Scheduled, 1, 3)
        .expect("baseline serving run");
    let base_ns = t0.elapsed().as_nanos() as u64;
    let budget = 2 * bounds::scheduled_words_per_vector(n, 2) as u64;

    println!(
        "{:>12} {:>9} {:>11} {:>9} {:>13}",
        "interval", "samples", "wall (ms)", "Δ vs off", "budget ratio"
    );
    println!("{:>12} {:>9} {:>11.3} {:>9} {:>13}", "off", "-", base_ns as f64 / 1e6, "-", "-");
    for interval_ms in [50u64, 5, 1] {
        let plane = Arc::new(TelemetryPlane::new(part.num_procs()));
        let cfg = ScrapeConfig::default()
            .with_interval(std::time::Duration::from_millis(interval_ms))
            .with_budget_words_per_vector(budget);
        let t0 = Instant::now();
        let (run, series) = Scraper::run_scoped(plane.clone(), cfg, || {
            let cfg =
                ServeConfig { telemetry: Some(&plane), ..ServeConfig::new(Mode::Scheduled, 3) };
            serve(&tensor, &part, &requests, cfg).expect("telemetry serving run")
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        // The tentpole invariant: telemetry observes, it never steers.
        for (y, base_y) in run.ys.iter().zip(&base.ys) {
            assert!(
                y.iter().zip(base_y).all(|(a, b)| a.to_bits() == b.to_bits()),
                "telemetry must not change a single output bit"
            );
        }
        assert_eq!(run.report, base.report, "telemetry must not move a single word");
        let last = series.last().expect("final sample");
        println!(
            "{:>10}ms {:>9} {:>11.3} {:>8.1}% {:>13.3}",
            interval_ms,
            series.samples.len(),
            wall_ns as f64 / 1e6,
            (wall_ns as f64 / base_ns as f64 - 1.0) * 100.0,
            last.derived.budget_ratio.unwrap_or(f64::NAN),
        );
    }
    println!("(ys and CostReports bit-identical with telemetry on, every interval ✓)");
    println!(
        "(single-host caveat: scraper threads share cores with the rank threads, so the \
         wall-clock deltas are upper bounds — on a real cluster the scrape runs beside, \
         not inside, the compute)"
    );
    println!();
}

/// The perf-regression gate: diffs two `BENCH_*.json` snapshots on
/// `(kernel, n, q)` / `ns_per_iter` and exits nonzero when any kernel got
/// slower than the threshold (default +15%) or silently disappeared.
fn regress(args: &[String]) -> ! {
    let mut baseline_path: Option<String> = None;
    let mut current_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut threshold = 0.15f64;
    let mut it = args.iter();
    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: experiment regress --baseline BENCH.json --current NEW.json [--threshold 0.15] [--out diff.json]"
        );
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_path = it.next().cloned(),
            "--current" => current_path = it.next().cloned(),
            "--out" => out_path = it.next().cloned(),
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t > 0.0 => threshold = t,
                _ => fail("--threshold expects a positive number (e.g. 0.15 for +15%)"),
            },
            other => fail(&format!("unknown regress argument '{other}'")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| fail("--baseline is required"));
    let current_path = current_path.unwrap_or_else(|| fail("--current is required"));
    let load = |path: &str| -> Vec<symtensor_obs::BenchRecord> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        symtensor_obs::parse_snapshot(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(&baseline_path);
    let current = load(&current_path);
    let report = symtensor_obs::RegressionReport::evaluate(&baseline, &current, threshold);
    println!("== perf regression gate: {baseline_path} -> {current_path} ==");
    print!("{}", report.render_table());
    if let Some(out) = out_path {
        std::fs::write(&out, report.to_json().to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(2);
        });
        println!("diff written to {out}");
    }
    if report.regressed() {
        eprintln!("FAIL: performance regression beyond +{:.0}%", threshold * 100.0);
        std::process::exit(1);
    }
    println!("PASS: no regression beyond +{:.0}%", threshold * 100.0);
    std::process::exit(0);
}

/// Runs Algorithm 5, additionally recording the traced observation when
/// `--trace`/`--metrics` was requested.
fn run_alg5(
    sink: &ObsSink,
    label: String,
    tensor: &symtensor_core::SymTensor3,
    part: &TetraPartition,
    x: &[f64],
    mode: Mode,
) -> SttsvRun {
    if sink.enabled() {
        let opts = SttsvOptions { trace: true, ..SttsvOptions::new(mode) };
        let mut run = parallel_sttsv_with(tensor, part, std::slice::from_ref(&x), opts)
            .expect("inputs match the partition");
        sink.record(label, RunObservation::new(run.report.clone(), run.traces()));
        SttsvRun { y: run.ys.remove(0), report: run.report, ternary_per_rank: run.ternary_per_rank }
    } else {
        parallel_sttsv(tensor, part, x, mode)
    }
}

/// E1/E2: measured per-processor communication of Algorithm 5 vs the
/// Theorem 5.2 lower bound, in scheduled and padded-All-to-All modes.
fn comm(sink: &ObsSink) {
    println!("== E1/E2: communication optimality (measured vs Theorem 5.2 bound) ==");
    println!(
        "{:>3} {:>5} {:>6} | {:>12} {:>12} {:>12} | {:>9} {:>9}",
        "q", "P", "n", "LB (words)", "sched", "all-to-all", "sch/LB", "a2a/LB"
    );
    let mut rng = StdRng::seed_from_u64(1001);
    for q in [2usize, 3] {
        let p = bounds::spherical_procs(q);
        let m = q * q + 1;
        let lam1 = q * (q + 1);
        for scale in [1usize, 2, 4] {
            let n = m * lam1 * scale;
            let part = TetraPartition::new(spherical(q as u64), n).unwrap();
            let tensor = random_symmetric(n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.01).sin()).collect();
            let sched = run_alg5(
                sink,
                format!("comm q={q} n={n} scheduled"),
                &tensor,
                &part,
                &x,
                Mode::Scheduled,
            );
            let a2a = run_alg5(
                sink,
                format!("comm q={q} n={n} all-to-all"),
                &tensor,
                &part,
                &x,
                Mode::AllToAllPadded,
            );
            let lb = bounds::lower_bound_words(n, p);
            let sw = sched.report.bandwidth_cost() as f64;
            let aw = a2a.report.bandwidth_cost() as f64;
            println!(
                "{q:>3} {p:>5} {n:>6} | {lb:>12.1} {sw:>12.0} {aw:>12.0} | {:>9.3} {:>9.3}",
                sw / lb,
                aw / lb
            );
            assert!(sw >= lb * 0.999, "no algorithm may beat the bound");
            assert_eq!(sw as usize, bounds::scheduled_words_total(n, q));
            assert_eq!(aw as usize, bounds::alltoall_words_total(n, q));
        }
    }
    // Larger q via closed forms (execution at q ≥ 5 is thread-heavy;
    // the formulas are validated against measurement at q ≤ 3 above).
    println!("-- closed-form extension (validated formulas) --");
    for q in [4usize, 5, 7, 9, 13] {
        let p = bounds::spherical_procs(q);
        let n = (q * q + 1) * q * (q + 1) * 4;
        let lb = bounds::lower_bound_words(n, p);
        let sw = bounds::scheduled_words_total(n, q) as f64;
        let aw = bounds::alltoall_words_total(n, q) as f64;
        println!(
            "{q:>3} {p:>5} {n:>6} | {lb:>12.1} {sw:>12.0} {aw:>12.0} | {:>9.3} {:>9.3}",
            sw / lb,
            aw / lb
        );
    }
    println!();
}

/// E3: Algorithm 5 vs the 1-D and 3-D baselines, showing the crossover:
/// at P = 10 (q = 2) the 1-D all-gather is still cheapest (its cost is
/// n(1−1/P) vs Algorithm 5's 2n(q+1)/(q²+1) = n at q = 2), but from
/// q = 3 (P ≈ 30) on, Algorithm 5 wins and its lead grows like P^{1/3}.
fn baselines() {
    println!("== E3: Algorithm 5 vs baselines (max per-rank words moved, per n) ==");
    println!(
        "{:>6} {:>5} | {:>10} {:>10} {:>10} | {:>9} {:>9} {:>9}",
        "n", "~P", "alg5", "3d-cubic", "1d-rows", "alg5/n", "3d/n", "1d/n"
    );
    let mut rng = StdRng::seed_from_u64(1002);
    // Measured rows: q = 2 vs g = 2 vs 1-D P = 10, then q = 3 vs g = 3 vs
    // 1-D P = 30 (the closest sizes the three families allow).
    for (q, g, p1d, n) in [(2usize, 2usize, 10usize, 120usize), (3, 3, 30, 240)] {
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.02).cos()).collect();
        let alg5 = parallel_sttsv(&tensor, &part, &x, Mode::Scheduled);
        let cubic = sttsv_3d(&tensor, &x, g);
        let rows = sttsv_1d(&tensor, &x, p1d);
        let (a, c, r) = (
            alg5.report.bandwidth_cost(),
            cubic.report.bandwidth_cost(),
            rows.report.bandwidth_cost(),
        );
        println!(
            "{:>6} {:>5} | {:>10} {:>10} {:>10} | {:>9.3} {:>9.3} {:>9.3}",
            n,
            p1d,
            a,
            c,
            r,
            a as f64 / n as f64,
            c as f64 / n as f64,
            r as f64 / n as f64,
        );
        if q == 2 {
            // Crossover: at P = 10 the 1-D baseline still wins.
            assert!(r < a, "1-D must win at q = 2");
        } else {
            // From q = 3 Algorithm 5 beats both baselines.
            assert!(a < c && a < r, "alg5 must win at q = 3: {a} vs {c} vs {r}");
        }
        let _ = (baseline_3d_words(n, g), baseline_1d_words(n, p1d));
    }
    // Model rows for larger machines: the gap grows like P^{1/3}.
    println!("-- closed-form extension --");
    for q in [5usize, 7, 9, 13] {
        let p = bounds::spherical_procs(q);
        let g = (p as f64).cbrt().round() as usize;
        let n = (q * q + 1) * q * (q + 1) * 4;
        let a = bounds::scheduled_words_total(n, q) as f64;
        let c = baseline_3d_words(n, g);
        let r = baseline_1d_words(n, p);
        println!(
            "{:>6} {:>5} | {:>10.0} {:>10.0} {:>10.0} | {:>9.3} {:>9.3} {:>9.3}",
            n,
            p,
            a,
            c,
            r,
            a / n as f64,
            c / n as f64,
            r / n as f64,
        );
        assert!(a < c && c < r);
    }
    println!();
}

/// E4: computational load balance — max per-rank ternary mults vs n³/(2P).
fn balance() {
    println!("== E4: computational load balance (ternary multiplications) ==");
    println!(
        "{:>3} {:>5} {:>6} | {:>14} {:>14} {:>8}",
        "q", "P", "n", "max per rank", "n^3/(2P)", "ratio"
    );
    let mut rng = StdRng::seed_from_u64(1003);
    for (q, scale) in [(2usize, 4usize), (2, 8), (3, 1), (3, 2)] {
        let p = bounds::spherical_procs(q);
        let n = (q * q + 1) * q * (q + 1) * scale;
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let x = vec![1.0; n];
        let run = parallel_sttsv(&tensor, &part, &x, Mode::AllToAllSparse);
        let max = *run.ternary_per_rank.iter().max().unwrap() as f64;
        let ideal = bounds::comp_cost_leading(n, p);
        println!("{q:>3} {p:>5} {n:>6} | {max:>14.0} {ideal:>14.1} {:>8.4}", max / ideal);
        assert!(max / ideal < 1.35, "imbalance must stay bounded");
        let total: u64 = run.ternary_per_rank.iter().sum();
        let n64 = n as u64;
        assert_eq!(total, n64 * n64 * (n64 + 1) / 2, "total work = n²(n+1)/2");
    }
    println!("(ratio → 1 as b grows; the paper notes imbalance only in lower-order terms)");
    println!();
}

/// E5: memory footprint — per-rank tensor and vector words vs §6.1.3.
fn memory() {
    println!("== E5: per-processor memory (words) vs §6.1.3 ==");
    println!(
        "{:>3} {:>5} {:>6} | {:>12} {:>12} {:>8} | {:>8} {:>8}",
        "q", "P", "n", "max tensor", "n^3/(6P)", "ratio", "vec", "n/P"
    );
    for (q, scale) in [(2usize, 4usize), (3, 1), (3, 3)] {
        let p = bounds::spherical_procs(q);
        let n = (q * q + 1) * q * (q + 1) * scale;
        let part = TetraPartition::new(spherical(q as u64), n).unwrap();
        let max_tensor = (0..p).map(|pr| part.tensor_words(pr)).max().unwrap() as f64;
        let ideal = (n as f64).powi(3) / (6.0 * p as f64);
        let vec_words = part.vector_words(0);
        for pr in 0..p {
            assert_eq!(part.vector_words(pr), n / p, "each rank owns exactly n/P per vector");
        }
        println!(
            "{q:>3} {p:>5} {n:>6} | {max_tensor:>12.0} {ideal:>12.1} {:>8.4} | {vec_words:>8} {:>8}",
            max_tensor / ideal,
            n / p
        );
    }
    println!();
}

/// E6: point-to-point schedule length vs `q³/2 + 3q²/2 − 1`.
fn schedule() {
    println!("== E6: schedule length (steps) vs q³/2 + 3q²/2 − 1 ==");
    println!("{:>8} {:>5} | {:>9} {:>9} {:>7}", "system", "P", "measured", "formula", "P-1");
    for q in [2usize, 3, 4, 5] {
        let m = q * q + 1;
        let part = TetraPartition::new(spherical(q as u64), m * q * (q + 1)).unwrap();
        let sched = CommSchedule::build(&part);
        let formula = spherical_round_count(q);
        println!(
            "{:>8} {:>5} | {:>9} {:>9} {:>7}",
            format!("q={q}"),
            part.num_procs(),
            sched.num_rounds(),
            formula,
            part.num_procs() - 1
        );
        assert_eq!(sched.num_rounds(), formula);
    }
    let part = TetraPartition::new(symtensor_steiner::sqs8(), 56).unwrap();
    let sched = CommSchedule::build(&part);
    println!("{:>8} {:>5} | {:>9} {:>9} {:>7}", "SQS(8)", 14, sched.num_rounds(), 12, 13);
    assert_eq!(sched.num_rounds(), 12);
    println!();
}

/// E8: end-to-end HOPM with the communication-optimal kernel.
fn hopm() {
    println!("== E8: parallel HOPM on an odeco tensor (q = 2, P = 10) ==");
    let n = 60;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(1004);
    let odeco = random_odeco(n, 5, &mut rng);
    let mut x0 = odeco.vectors[0].clone();
    x0[3] += 0.05;
    let opts = HopmOptions { tol: 1e-12, max_iters: 500 };
    let (res, report) = parallel_hopm(&odeco.tensor, &part, &x0, opts, Mode::Scheduled);
    println!(
        "converged: {} in {} iterations; lambda = {:.12} (planted {:.12}); residual = {:.2e}",
        res.converged, res.iters, res.lambda, odeco.eigenvalues[0], res.residual
    );
    println!(
        "per-iteration comm ≈ {} words/rank (2 × scheduled STTSV cost {} + O(1) reductions)",
        report.bandwidth_cost() / (res.iters as u64 + 1).max(1),
        bounds::scheduled_words_total(n, 2)
    );
    assert!(res.converged);
    assert!((res.lambda - odeco.eigenvalues[0]).abs() < 1e-8);
    println!();
}

/// E10 (extension): sequential I/O of STTSV under an LRU cache — blocked
/// (tetrahedral) vs row-major order. The sequential shadow of the paper's
/// reuse analysis: blocking pays exactly when the cache is smaller than
/// the vectors but holds a block's working set.
fn seqio() {
    use symtensor_cachesim::{sttsv_io_blocked, sttsv_io_rowmajor};
    println!("== E10: sequential vector I/O (LRU cache, line = 1 word) ==");
    println!(
        "{:>5} {:>7} | {:>12} {:>12} {:>8}",
        "n", "cache", "row-major", "blocked b=8", "ratio"
    );
    let n = 96;
    for cache_words in [64usize, 128, 192, 512, 4096] {
        let row = sttsv_io_rowmajor(n, cache_words, 1);
        let blk = sttsv_io_blocked(n, 8, cache_words, 1);
        println!(
            "{n:>5} {cache_words:>7} | {:>12} {:>12} {:>8.2}",
            row.vector_misses,
            blk.vector_misses,
            row.vector_misses as f64 / blk.vector_misses.max(1) as f64
        );
        // Tensor traffic is compulsory either way.
        assert_eq!(row.tensor_misses, blk.tensor_misses);
    }
    println!("(blocking wins while the cache is smaller than the two vectors = {} words)", 2 * n);
    println!();
}

/// E11: local kernel throughput — the flat-slab cursor kernel vs the seed
/// per-point kernel and the batched multi-vector path, plus the
/// distributed batched STTSV whose exchange phases amortize latency across
/// the batch.
fn kernels(batch: usize, flight: bool) {
    use std::time::Instant;
    use symtensor_core::seq::{sttsv_sym, sttsv_sym_multi, sttsv_sym_ref};

    /// Best-of-3 wall time in seconds.
    fn time<R>(mut f: impl FnMut() -> R) -> (R, f64) {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let t = Instant::now();
            out = Some(f());
            best = best.min(t.elapsed().as_secs_f64());
        }
        (out.unwrap(), best)
    }
    let rate = |n: usize, secs: f64| {
        let n = n as f64;
        n * n * (n + 1.0) / 2.0 / secs / 1e6
    };

    println!("== E11: local kernel throughput (batch = {batch}) ==");
    println!(
        "{:>5} | {:>10} {:>10} {:>12} {:>14} | {:>8}",
        "n", "per-point", "flat slab", "indep x batch", "multi x batch", "flat/pp"
    );
    let mut rng = StdRng::seed_from_u64(1006);
    for n in [96usize, 160, 256] {
        let tensor = random_symmetric(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.013).sin() + 0.2).collect();
        let xs: Vec<Vec<f64>> = (0..batch)
            .map(|v| (0..n).map(|i| ((i * 3 + v + 1) as f64 * 0.017).sin()).collect())
            .collect();
        let ((y_ref, c_ref), t_ref) = time(|| sttsv_sym_ref(&tensor, &x));
        let ((y_flat, c_flat), t_flat) = time(|| sttsv_sym(&tensor, &x));
        let ((ys_ind, _), t_ind) =
            time(|| (xs.iter().map(|x| sttsv_sym(&tensor, x)).collect::<Vec<_>>(), ()));
        let ((ys_multi, c_multi), t_multi) = time(|| sttsv_sym_multi(&tensor, &xs));

        // Agreement and exact paper op counts.
        let n64 = n as u64;
        assert_eq!(c_ref.ternary_mults, n64 * n64 * (n64 + 1) / 2);
        assert_eq!(c_flat.ternary_mults, c_ref.ternary_mults);
        assert_eq!(c_multi.ternary_mults, batch as u64 * c_ref.ternary_mults);
        for i in 0..n {
            assert!((y_ref[i] - y_flat[i]).abs() < 1e-12 * (1.0 + y_ref[i].abs()));
        }
        for (v, (y_one, _)) in ys_ind.iter().enumerate() {
            for i in 0..n {
                assert_eq!(y_one[i].to_bits(), ys_multi[v][i].to_bits(), "multi must be exact");
            }
        }
        println!(
            "{n:>5} | {:>8.1}Me {:>8.1}Me {:>10.1}Me {:>12.1}Me | {:>8.2}",
            rate(n, t_ref),
            rate(n, t_flat),
            batch as f64 * rate(n, t_ind),
            batch as f64 * rate(n, t_multi),
            t_ref / t_flat
        );
    }
    println!("(Me = 1e6 ternary multiplications per second, best of 3)");

    // Distributed batched STTSV: one pair of exchange phases for the whole
    // batch — same messages and rounds as a single STTSV, words × batch.
    let n = 120;
    let q = 2usize;
    let part = TetraPartition::new(spherical(q as u64), n).unwrap();
    let tensor = random_symmetric(n, &mut rng);
    let xs: Vec<Vec<f64>> = (0..batch.max(1))
        .map(|v| (0..n).map(|i| ((i + v) as f64 * 0.01).cos()).collect())
        .collect();
    let single = parallel_sttsv(&tensor, &part, &xs[0], Mode::Scheduled);
    let multi = parallel_sttsv_multi_planned(&tensor, &part, &xs, Mode::Scheduled, 1);
    let (sw, mw) = (single.report.bandwidth_cost(), multi.report.bandwidth_cost());
    let (sr, mr) = (single.report.max_rounds(), multi.report.max_rounds());
    println!(
        "distributed batch (q={q}, n={n}): words {sw} -> {mw} ({}x), rounds {sr} -> {mr} (1x)",
        mw / sw
    );
    assert_eq!(mw, xs.len() as u64 * sw, "words scale with the batch");
    assert_eq!(mr, sr, "rounds must not scale with the batch");
    println!();

    if flight {
        flight_ab();
    }
}

/// E14 (`kernels --flight`): the always-on flight recorder vs recording
/// disabled — steady-state per-iteration wall time of the compiled-plan
/// batched STTSV with the default ring ([`DEFAULT_FLIGHT_CAPACITY`]
/// records) in every rank vs `with_flight_capacity(0)`. Outputs and [`CostReport`]s are asserted
/// bit-identical between the two configurations; the wall-clock delta
/// (single host, 10–30 oversubscribed simulated ranks, so expect noise)
/// and the recorder's own self-measured overhead are printed side by side.
///
/// [`CostReport`]: symtensor_mpsim::CostReport
/// [`DEFAULT_FLIGHT_CAPACITY`]: symtensor_mpsim::DEFAULT_FLIGHT_CAPACITY
fn flight_ab() {
    use std::time::Instant;
    use symtensor_mpsim::{CommEvent, Universe, DEFAULT_FLIGHT_CAPACITY};
    use symtensor_parallel::RankContext;

    println!(
        "== E14: flight recorder on (ring = {DEFAULT_FLIGHT_CAPACITY} records, {} B per rank) \
         vs off (plan path, Mode::Scheduled) ==",
        DEFAULT_FLIGHT_CAPACITY * std::mem::size_of::<CommEvent>()
    );
    println!(
        "{:>3} {:>4} {:>5} {:>6} | {:>12} {:>12} {:>9} | {:>12} {:>10}",
        "q", "P", "n", "batch", "on/iter", "off/iter", "delta", "self ns/rank", "records"
    );

    let mut rng = StdRng::seed_from_u64(1014);
    for q in [2u64, 3] {
        let qq = q as usize;
        let n = (qq * qq + 1) * qq * (qq + 1);
        let part = TetraPartition::new(spherical(q), n).unwrap();
        let tensor = random_symmetric(n, &mut rng);
        let schedule = CommSchedule::build(&part);
        for batch in [1usize, 8] {
            let xs: Vec<Vec<f64>> = (0..batch)
                .map(|v| (0..n).map(|i| ((i * 7 + v + 1) as f64 * 0.011).sin()).collect())
                .collect();

            // One measured universe run at the given ring capacity;
            // returns wall seconds plus everything needed for the
            // identical-results assertions.
            let run_once = |capacity: usize, iters: usize| {
                let t0 = Instant::now();
                let (results, report, flight) = Universe::new(part.num_procs())
                    .with_flight_capacity(capacity)
                    .run_flight(|comm| {
                        let p = comm.rank();
                        let ctx =
                            RankContext::new(&tensor, &part, p, Mode::Scheduled, Some(&schedule));
                        let shard_sets: Vec<Vec<Vec<f64>>> =
                            xs.iter().map(|x| part.shards_of(p, x)).collect();
                        // Same input every iteration: the measured steady
                        // state stays numerically fixed (feeding y back in
                        // would cube the magnitudes into overflow).
                        let mut last = Vec::new();
                        for _ in 0..iters {
                            let (ys, _) = ctx.sttsv_multi(comm, &shard_sets);
                            last = ys;
                        }
                        last
                    });
                (t0.elapsed().as_secs_f64(), results, report, flight)
            };

            // Difference a short and a long run to cancel setup cost.
            let (lo, hi) = (2usize, 12);
            let span = (hi - lo) as f64;
            let measure = |capacity: usize| {
                let best = |iters: usize| {
                    let (t1, results, report, flight) = run_once(capacity, iters);
                    let (t2, _, _, _) = run_once(capacity, iters);
                    (t1.min(t2), results, report, flight)
                };
                let (t_lo, _, _, _) = best(lo);
                let (t_hi, results, report, flight) = best(hi);
                (((t_hi - t_lo).max(0.0) / span) * 1e9, results, report, flight)
            };
            let (on_ns, on_results, on_report, on_flight) = measure(DEFAULT_FLIGHT_CAPACITY);
            let (off_ns, off_results, off_report, off_flight) = measure(0);

            // The recorder must be invisible in everything but the window.
            assert_eq!(on_report, off_report, "recorder must not change the CostReport");
            for (p, (a, b)) in on_results.iter().zip(&off_results).enumerate() {
                assert_eq!(a, b, "rank {p}: recorder-on outputs must be bit-identical");
            }
            assert!(off_flight.iter().all(|s| s.events.is_empty() && s.overhead.recorded == 0));
            let self_ns: u64 = on_flight.iter().map(|s| s.overhead.overhead_ns).sum();
            let recorded: u64 = on_flight.iter().map(|s| s.overhead.recorded).sum();
            println!(
                "{q:>3} {:>4} {n:>5} {batch:>6} | {:>10.0}ns {:>10.0}ns {:>8.1}% | {:>12.0} {:>10}",
                part.num_procs(),
                on_ns,
                off_ns,
                (on_ns - off_ns) / off_ns.max(1.0) * 100.0,
                self_ns as f64 / part.num_procs() as f64,
                recorded,
            );
        }
    }
    println!(
        "(outputs and CostReports bit-identical on vs off ✓; wall-clock delta is single-host \
         noise-bound, the recorder's self-measured cost is the `self ns/rank` column)"
    );
    println!();
}

/// Ablation: matching-based diagonal assignment (the paper's §6.1.3) vs
/// least-loaded greedy.
fn ablation() {
    use symtensor_parallel::ablation::GreedyDiagonals;
    println!("== Ablation: diagonal-block assignment (matching vs greedy) ==");
    println!(
        "{:>8} {:>5} | {:>14} {:>18} {:>14}",
        "system", "P", "matching |N_p|", "greedy |N_p| range", "greedy max D_p"
    );
    for (label, system, d) in [
        ("q=2", spherical(2), 2usize),
        ("q=3", spherical(3), 3),
        ("SQS(8)", symtensor_steiner::sqs8(), 4),
    ] {
        let greedy = GreedyDiagonals::assign(&system);
        assert!(greedy.verify_compatibility(&system));
        println!(
            "{label:>8} {:>5} | {:>14} {:>18} {:>14}",
            system.num_blocks(),
            format!("= {d}"),
            format!("[{}, {}]", greedy.min_non_central(), greedy.max_non_central()),
            greedy.max_central()
        );
    }
    println!("(the matching guarantees perfect balance; greedy only approximates it)");
    println!();
}

/// Extension: the 2-D (matrix) triangle scheme next to the 3-D tetrahedral
/// one — both meet their respective lower bounds' leading terms, with the
/// P-scaling moving from P^{1/2} to P^{1/3}.
fn triangle() {
    use symtensor_core::symmat::{random_symmetric_matrix, symv_sym};
    use symtensor_parallel::triangle::{
        parallel_symv, symv_lower_bound, symv_words_per_vector, TrianglePartition,
    };
    println!("== 2-D vs 3-D: triangle (SYMV) next to tetrahedral (STTSV) ==");
    println!(
        "{:>4} {:>5} {:>6} | {:>12} {:>12} {:>8}",
        "q", "P", "n", "measured", "2-D bound", "ratio"
    );
    let mut rng = StdRng::seed_from_u64(1005);
    for q in [2usize, 3, 4] {
        let m = q * q + q + 1;
        let n = m * (q + 1) * 2;
        let part = TrianglePartition::new(q as u64, n).unwrap();
        part.verify().unwrap();
        let matrix = random_symmetric_matrix(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.03).cos()).collect();
        let run = parallel_symv(&matrix, &part, &x);
        let (y_ref, _) = symv_sym(&matrix, &x);
        for (got, want) in run.y.iter().zip(&y_ref) {
            assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()));
        }
        let lb = symv_lower_bound(n, part.num_procs());
        let measured = run.report.bandwidth_cost() as f64;
        println!(
            "{q:>4} {:>5} {n:>6} | {measured:>12.0} {lb:>12.1} {:>8.3}",
            part.num_procs(),
            measured / lb
        );
        assert_eq!(measured as usize, 2 * symv_words_per_vector(n, q));
        assert!(measured >= lb * 0.999);
    }
    println!("(2-D comm scales as n/P^(1/2); the paper's 3-D scheme as n/P^(1/3))");
    println!();
}
