//! Host-speed normalisation of the end-to-end timings.
//!
//! The measuring host is a 2-vCPU virtual machine whose cores are shared:
//! for stretches of seconds to tens of minutes everything on it runs up to
//! 1.8× slower, the fast state itself drifts between runs, and no quantile
//! of raw call times stays put (see `README.md`). A fixed arithmetic loop
//! that calls nothing in the repository is timed on both vCPUs around
//! every timed sample. Each raw time is scaled by `REFERENCE_NS` over the
//! loop's time, which expresses it at the host speed at which the loop
//! takes `REFERENCE_NS`. The loop is the benchmark's own code, so a change
//! to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Words in each of the loop's two arrays: 2 × 128 KiB, resident in L2.
const WORDS: usize = 16 * 1024;
const PASSES: usize = 200;
/// The loop's time on the measuring host at full speed (two vCPUs of an
/// Intel Xeon VM with a 105 MiB L3).
pub const REFERENCE_NS: f64 = 1.0e6;

fn loop_ns(a: &[f64], b: &[f64]) -> f64 {
    let t0 = Instant::now();
    let mut acc = [0.0f64; 4];
    for _ in 0..PASSES {
        for (x, y) in black_box(a).chunks_exact(4).zip(black_box(b).chunks_exact(4)) {
            for k in 0..4 {
                acc[k] += x[k] * y[k];
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64
}

/// Times the loop on two threads at once and returns the mean, in ns.
pub fn probe_ns() -> f64 {
    let a: Vec<f64> = (0..WORDS).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect();
    let b: Vec<f64> = (0..WORDS).map(|i| 1.0 - (i % 5) as f64 * 1e-3).collect();
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..2).map(|_| s.spawn(|| loop_ns(&a, &b))).collect();
        threads.into_iter().map(|t| t.join().expect("the loop cannot panic")).sum::<f64>() / 2.0
    })
}

/// Scales consecutive samples: the host loop runs after every sample, and
/// a sample is scaled by `REFERENCE_NS` over the mean of the loop times
/// just before and just after it.
pub struct Scale {
    last_ns: f64,
    /// Every loop time taken, in ns.
    pub probes: Vec<f64>,
}

impl Scale {
    pub fn new() -> Self {
        let last_ns = probe_ns();
        Scale { last_ns, probes: vec![last_ns] }
    }

    /// Runs the loop after a sample and returns that sample's factor.
    pub fn after_sample(&mut self) -> f64 {
        let now = probe_ns();
        let factor = REFERENCE_NS / ((self.last_ns + now) / 2.0);
        self.last_ns = now;
        self.probes.push(now);
        factor
    }
}
