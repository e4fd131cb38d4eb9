//! Metrics, failure accounting and the result line.

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (1 for exact counts).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name, value, unit, samples }
    }
}

/// Attempted operations and failures. Every failure is kept with its
/// message and printed; none is dropped.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one attempt; returns whether it succeeded.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(_) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED: {e}");
                self.errors.push(e);
                false
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of `xs` (NaN for no samples).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// JSON number: finite values with every digit, anything else `null`.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Prints the human-readable table, then the result line as the last line
/// of standard output.
pub fn emit(workload: &str, metrics: &[Metric], tally: &Tally, correct: bool) {
    println!("workload {workload}");
    for m in metrics {
        println!("  {:<36} {:>18.6} {:<8} n={}", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "  attempted {} failed {} failed_frac {} correct {correct}",
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
