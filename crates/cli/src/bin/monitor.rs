//! Live monitor for the batched serving path: a `top`-style refreshing
//! rank×phase view of a serving run, driven by the lock-free telemetry
//! plane.
//!
//! Usage:
//! `monitor [--q Q] [--requests R] [--batch B] [--interval-ms MS]
//!          [--frames N] [--plain]
//!          [--chaos] [--seed S] [--drop-prob P]
//!          [--slo-budget-us US] [--out telemetry.json]`
//!
//! The serving workload (q ∈ {2, 3}, `P = q(q²+1)` ranks) loops in a
//! background thread while the foreground samples the plane every
//! `--interval-ms` and redraws the table. `--frames N --plain` renders
//! exactly N frames without ANSI clears — the snapshot-testable mode CI
//! uses. `--chaos` serves under a seeded fault plan with retry/degrade
//! recovery and an SLO burn-rate evaluator between batches, so alert
//! lines appear in the view. `--out` writes the scraped series as a
//! `symtensor-telemetry-v1` artifact, validated before it is written.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use symtensor_core::generate::random_symmetric;
use symtensor_mpsim::FaultPlan;
use symtensor_obs::telemetry_json;
use symtensor_parallel::{
    bounds, serve, ChaosPolicy, Mode, ServeConfig, ServeRequest, TetraPartition,
};
use symtensor_steiner::spherical;
use symtensor_telemetry::{
    render_table, sample_plane, ScrapeConfig, Scraper, SloBurnRate, TelemetryPlane,
};

struct Options {
    q: u64,
    requests: usize,
    batch: usize,
    interval: Duration,
    frames: Option<usize>,
    plain: bool,
    chaos: bool,
    seed: u64,
    drop_prob: f64,
    slo_budget: Duration,
    out: Option<String>,
}

fn parse_args() -> Options {
    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: monitor [--q Q] [--requests R] [--batch B] \
             [--interval-ms MS] [--frames N] [--plain] [--chaos] [--seed S] \
             [--drop-prob P] [--slo-budget-us US] [--out telemetry.json]"
        );
        std::process::exit(2);
    };
    let mut opts = Options {
        q: 2,
        requests: 8,
        batch: 2,
        interval: Duration::from_millis(50),
        frames: None,
        plain: false,
        chaos: false,
        seed: 2025,
        drop_prob: 0.01,
        slo_budget: Duration::from_micros(500),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--q" => match it.next().and_then(|v| v.parse().ok()) {
                Some(q) if (2..=3).contains(&q) => opts.q = q,
                _ => fail("--q expects 2 or 3"),
            },
            "--requests" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) if r > 0 => opts.requests = r,
                _ => fail("--requests expects a positive integer"),
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(b) if b > 0 => opts.batch = b,
                _ => fail("--batch expects a positive integer"),
            },
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms > 0u64 => opts.interval = Duration::from_millis(ms),
                _ => fail("--interval-ms expects a positive integer"),
            },
            "--frames" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => opts.frames = Some(n),
                _ => fail("--frames expects a positive integer"),
            },
            "--plain" => opts.plain = true,
            "--chaos" => opts.chaos = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = s,
                None => fail("--seed expects an unsigned integer"),
            },
            "--drop-prob" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if (0.0..=1.0).contains(&p) => opts.drop_prob = p,
                _ => fail("--drop-prob expects a probability in [0, 1]"),
            },
            "--slo-budget-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(us) if us > 0u64 => opts.slo_budget = Duration::from_micros(us),
                _ => fail("--slo-budget-us expects a positive integer"),
            },
            "--out" => match it.next() {
                Some(path) => opts.out = Some(path),
                None => fail("--out needs a path"),
            },
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let qs = opts.q as usize;
    let n = (qs * qs + 1) * qs * (qs + 1); // block size divisible by P
    let part = TetraPartition::new(spherical(opts.q), n).expect("spherical partition");
    let ranks = part.num_procs();
    let mut rng = StdRng::seed_from_u64(1015);
    let tensor = random_symmetric(n, &mut rng);
    let requests: Vec<ServeRequest> = (0..opts.requests)
        .map(|v| {
            let x: Vec<f64> = (0..n).map(|i| ((i + 5 * v) as f64 * 0.017).sin()).collect();
            ServeRequest::new(v as u64, x)
        })
        .collect();

    let plane = Arc::new(TelemetryPlane::new(ranks));
    // The per-rank budget the scraper reconciles live word counts
    // against: two exchange phases per served vector.
    let budget = 2 * bounds::scheduled_words_per_vector(n, qs) as u64;
    let cfg =
        ScrapeConfig::default().with_interval(opts.interval).with_budget_words_per_vector(budget);

    // Serving loops in the background until the monitor has its frames.
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let plane = plane.clone();
        let stop = stop.clone();
        let tensor = tensor.clone();
        let part = part.clone();
        let opts_chaos = opts.chaos;
        let seed = opts.seed;
        let drop_prob = opts.drop_prob;
        let batch = opts.batch;
        let slo_budget = opts.slo_budget;
        std::thread::spawn(move || {
            let mut slo = SloBurnRate::serve_e2e(slo_budget.as_nanos() as u64);
            let policy = ChaosPolicy {
                plan: FaultPlan::seeded(seed).with_drop_prob(drop_prob),
                max_retries: 2,
                backoff: Duration::from_millis(5),
                recv_timeout: Duration::from_millis(250),
            };
            // Injected rank failures are caught and retried by the chaos
            // serving layer; keep the default hook from spamming
            // backtraces over the monitor view.
            if opts_chaos {
                std::panic::set_hook(Box::new(|_| {}));
            }
            let mut passes = 0u64;
            while !stop.load(Ordering::Acquire) {
                let cfg = ServeConfig {
                    telemetry: Some(&plane),
                    chaos: opts_chaos.then_some(&policy),
                    slo: opts_chaos.then_some(&mut slo),
                    ..ServeConfig::new(Mode::Scheduled, batch)
                };
                serve(&tensor, &part, &requests, cfg).expect("serving run");
                passes += 1;
            }
            passes
        })
    };

    let mut scraper = Scraper::new(plane.clone(), cfg.clone());
    let mut frame = 0usize;
    loop {
        std::thread::sleep(opts.interval);
        let snap = sample_plane(&plane, &cfg);
        if !opts.plain {
            // Clear screen + home, like top.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_table(&snap));
        if opts.plain {
            println!("--- frame {frame} ---");
        }
        scraper.sample();
        frame += 1;
        if let Some(frames) = opts.frames {
            if frame >= frames {
                break;
            }
        }
    }
    stop.store(true, Ordering::Release);
    let passes = worker.join().expect("serving worker panicked");
    scraper.sample(); // final, completed-run state
    let series = scraper.into_series();
    let last = series.last().expect("at least one sample");
    println!(
        "serving passes: {passes}; words sent: {}; alerts: {}",
        last.derived.total_words_sent,
        series.alerts.len()
    );

    if let Some(path) = &opts.out {
        let doc = telemetry_json(&series);
        let kind = symtensor_obs::validate(&doc)
            .unwrap_or_else(|e| panic!("emitted telemetry artifact is invalid: {e}"));
        assert_eq!(kind, symtensor_obs::ArtifactKind::Telemetry);
        std::fs::write(path, doc.to_string_pretty()).expect("write telemetry artifact");
        println!("telemetry artifact ({kind}) written to {path}");
    }
}
