//! The untraced run: end-to-end metrics of one workload.

use crate::host;
use crate::rankloop;
use crate::report::{median, Metric, Tally};
use crate::spec::{self, CallOut, Inputs, Kind, Spec};
use crate::sys;
use std::time::{Duration, Instant};
use symtensor_parallel::TetraPartition;

/// Fewest timed calls a run makes, however long they take.
const MIN_CALLS: usize = 10;

/// A workload with its inputs generated and its reference calls made.
pub struct Prepared {
    pub spec: &'static Spec,
    pub inputs: Inputs,
    pub part: TetraPartition,
    /// The full driver call every timed call must repeat.
    pub reference: CallOut,
    /// The one-vector driver call every set-up sample must repeat.
    pub one: CallOut,
    /// `(words, messages)` per call, max over ranks, collectives included.
    pub cost: (u64, u64),
}

/// Generates the inputs and makes the reference calls. `None` if one of
/// them failed. The correctness gate runs later, in [`Prepared::gate`], so
/// that nothing but the workload's own calls runs before the timed ones.
pub fn prepare(spec: &'static Spec, seed: u64, tally: &mut Tally) -> Option<Prepared> {
    let inputs = spec::generate(spec, seed);
    let part = spec::partition(spec.n);
    let mut call = |limit: bool| {
        let out = spec::guarded(|| spec::call(spec, &inputs, &part, limit));
        let what = if limit { "one-vector" } else { "reference" };
        let out = out.map_err(|e| format!("{what} call panicked: {e}"));
        tally.record(out.clone()).then(|| out.ok()).flatten()
    };
    let reference = call(false)?;
    let one = call(true)?;
    let single = match spec.kind {
        Kind::Solve if one.vectors != 1 => Err("one-vector solve ran more than one iteration"),
        Kind::Solve => Ok(()),
        Kind::Stream | Kind::Pipeline if one.ys[0] != reference.ys[0] => {
            Err("one-request call differs from the reference call")
        }
        Kind::Stream | Kind::Pipeline => Ok(()),
    };
    tally.record(single.map_err(String::from));
    let cost = spec::cost(&reference);
    Some(Prepared { spec, inputs, part, reference, one, cost })
}

impl Prepared {
    /// One more driver call, checked against the reference call. Returns
    /// its wall time and vectors, or `None` if it failed.
    pub fn timed_call(&self, tally: &mut Tally) -> Option<(Duration, usize)> {
        let t0 = Instant::now();
        let out = spec::guarded(|| spec::call(self.spec, &self.inputs, &self.part, false));
        let dt = t0.elapsed();
        let check = out.and_then(|out| spec::same_as(&self.reference, &out).map(|_| out.vectors));
        tally.record(check.clone()).then(|| (dt, check.unwrap_or(0)))
    }

    /// One `setup_s` sample: a fresh partition plus the driver on one
    /// vector, checked against the one-vector reference call. `None` if
    /// the call failed.
    pub fn setup_sample(&self, tally: &mut Tally) -> Option<f64> {
        let t0 = Instant::now();
        let out = spec::guarded(|| {
            let part = spec::partition(self.spec.n);
            spec::call(self.spec, &self.inputs, &part, true)
        });
        let dt = t0.elapsed().as_secs_f64();
        tally.record(out.and_then(|out| spec::same_as(&self.one, &out))).then_some(dt)
    }

    /// The correctness gate, outside the timed region: the reference call
    /// against the sequential oracles and the batched driver, and the
    /// benchmark's rank loop against the driver and the schedule's words.
    pub fn gate(&self, tally: &mut Tally) {
        let driver =
            spec::guarded(|| spec::gate(self.spec, &self.inputs, &self.part, &self.reference))
                .unwrap_or_else(|e| Err(format!("gate panicked: {e}")));
        tally.record(driver);
        tally.record(rankloop::check(self));
    }
}

/// Measures every end-to-end metric but `ok_frac` over `seconds` of timed
/// calls.
///
/// A fresh-call setup sample follows every timed call, so both kinds of
/// sample spread over the whole run. Each time is scaled to the reference
/// host speed (see [`host`]). `peak_rss_mib` is read at the end, before
/// the correctness gate runs.
pub fn run(prep: &Prepared, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let mut setup_s = Vec::new();
    let mut calls_ms = Vec::new();
    let mut cpu_ms_per_vector = Vec::new();
    let mut raw_ms = Vec::new();
    let mut vectors = 0;
    let mut busy = 0.0;
    let mut scale = host::Scale::new();
    while calls_ms.len() < MIN_CALLS || busy < seconds {
        let c0 = sys::cpu_ns();
        let timed = prep.timed_call(tally);
        let cpu_ms = (sys::cpu_ns() - c0) as f64 / 1e6;
        let f = scale.after_sample();
        match timed {
            Some((dt, v)) => {
                cpu_ms_per_vector.push(cpu_ms / v.max(1) as f64 * f);
                calls_ms.push(dt.as_secs_f64() * 1e3 * f);
                raw_ms.push(dt.as_secs_f64() * 1e3);
                vectors += v;
                busy += dt.as_secs_f64();
            }
            None if tally.failed > MIN_CALLS as u64 => break,
            None => {}
        }
        let setup = prep.setup_sample(tally);
        let f = scale.after_sample();
        setup_s.extend(setup.map(|s| s * f));
    }
    let peak_rss_mib = sys::peak_rss_mib();
    eprintln!(
        "perfbench: call ms p50 {:.2} raw, {:.2} at reference host speed; host loop p50 {:.0} ns",
        median(&raw_ms),
        median(&calls_ms),
        median(&scale.probes)
    );
    let per_call = prep.reference.vectors as f64;
    let calls = calls_ms.len();
    let total_s = calls_ms.iter().sum::<f64>() / 1e3;

    vec![
        Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
        Metric::new("vectors_per_s", vectors as f64 / total_s, "1/s", calls),
        Metric::new("call_ms_p50", median(&calls_ms), "ms", calls),
        Metric::new("cpu_ms_per_vector", median(&cpu_ms_per_vector), "ms", calls),
        Metric::new("words_per_vector", prep.cost.0 as f64 / per_call, "count", 1),
        Metric::new("msgs_per_vector", prep.cost.1 as f64 / per_call, "count", 1),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB", 1),
    ]
}

/// `ok_frac`, once every check of the run has been counted.
pub fn ok_frac(tally: &Tally) -> Metric {
    Metric::new("ok_frac", 1.0 - tally.failed_frac(), "ratio", tally.attempted as usize)
}
