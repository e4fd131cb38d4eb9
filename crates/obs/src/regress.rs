//! The perf-regression gate over `BENCH_*.json` snapshots.
//!
//! A bench snapshot is the JSON document the `symtensor-bench` harness
//! writes: `{"benchmark": ..., "results": [{"kernel", "n", "q",
//! "ns_per_iter", ...}, ...]}`. This module parses two snapshots (a
//! checked-in baseline and a freshly measured current), joins their rows on
//! the `(kernel, n, q)` key, and flags every row whose `ns_per_iter` grew by
//! more than a configurable threshold.
//!
//! Two snapshot dialects are accepted for `q`:
//! * the legacy sentinel `"q": 0` (sequential kernels have no schedule
//!   parameter, older snapshots wrote a zero), and
//! * the current shape, where `q` is `null` or omitted for sequential
//!   kernels.
//!
//! Both normalize to [`BenchKey::q`]` == None`, so a new snapshot gates
//! cleanly against an old baseline and vice versa.
//!
//! Gate semantics ([`RegressionReport::regressed`]):
//! * a row slower than `baseline × (1 + threshold)` **fails**;
//! * a row present in the baseline but missing from the current run
//!   **fails** (a silently dropped benchmark must not pass the gate);
//! * a row new in the current run is reported but does **not** fail;
//! * everything else (faster, or within the noise band) passes.

use crate::json::{self, Value};
use std::fmt;

/// Join key for one benchmark row.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BenchKey {
    /// Kernel name (e.g. `"flat_slab"`).
    pub kernel: String,
    /// Problem size.
    pub n: u64,
    /// Schedule parameter; `None` for sequential kernels (accepts the
    /// legacy `"q": 0` sentinel, `null`, or an absent field).
    pub q: Option<u64>,
}

impl fmt::Display for BenchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.q {
            Some(q) => write!(f, "{} n={} q={}", self.kernel, self.n, q),
            None => write!(f, "{} n={}", self.kernel, self.n),
        }
    }
}

/// One parsed benchmark row.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Join key.
    pub key: BenchKey,
    /// Nanoseconds per iteration (the gated quantity).
    pub ns_per_iter: f64,
}

/// Error produced when a snapshot cannot be parsed into bench records.
#[derive(Debug)]
pub struct SnapshotError(String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Parses a bench snapshot document into its rows.
///
/// Accepts both `q` dialects (see the module docs) and ignores fields it
/// does not know about, so snapshots can grow columns without breaking the
/// gate.
pub fn parse_snapshot(text: &str) -> Result<Vec<BenchRecord>, SnapshotError> {
    let doc = json::parse(text).map_err(|e| SnapshotError(format!("invalid JSON: {e}")))?;
    let results = doc
        .get("results")
        .and_then(Value::as_array)
        .ok_or_else(|| SnapshotError("missing \"results\" array".into()))?;
    let mut records = Vec::with_capacity(results.len());
    for (i, row) in results.iter().enumerate() {
        let kernel = row
            .get("kernel")
            .and_then(Value::as_str)
            .ok_or_else(|| SnapshotError(format!("results[{i}]: missing \"kernel\"")))?
            .to_string();
        let n = row
            .get("n")
            .and_then(Value::as_u64)
            .ok_or_else(|| SnapshotError(format!("results[{i}]: missing \"n\"")))?;
        let q = match row.get("q") {
            None | Some(Value::Null) => None,
            Some(v) => match v.as_u64() {
                Some(0) => None, // legacy sentinel for "no schedule parameter"
                Some(q) => Some(q),
                None => {
                    return Err(SnapshotError(format!("results[{i}]: \"q\" is not an integer")))
                }
            },
        };
        let ns_per_iter = row
            .get("ns_per_iter")
            .and_then(Value::as_f64)
            .ok_or_else(|| SnapshotError(format!("results[{i}]: missing \"ns_per_iter\"")))?;
        records.push(BenchRecord { key: BenchKey { kernel, n, q }, ns_per_iter });
    }
    Ok(records)
}

/// Verdict for one joined row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Slower by more than the threshold — fails the gate.
    Regressed,
    /// Within ±threshold of the baseline.
    Unchanged,
    /// Faster by more than the threshold (reported, never fails).
    Improved,
    /// In the baseline but not in the current run — fails the gate.
    Missing,
    /// In the current run but not in the baseline — reported, never fails.
    New,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unchanged => "ok",
            Verdict::Improved => "improved",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One row of the diff table.
#[derive(Clone, Debug)]
pub struct RegressionRow {
    /// Join key.
    pub key: BenchKey,
    /// Baseline `ns_per_iter` (`None` for rows new in the current run).
    pub baseline_ns: Option<f64>,
    /// Current `ns_per_iter` (`None` for rows missing from the current run).
    pub current_ns: Option<f64>,
    /// Verdict under the report's threshold.
    pub verdict: Verdict,
}

impl RegressionRow {
    /// `current / baseline`, when both sides exist.
    pub fn ratio(&self) -> Option<f64> {
        match (self.baseline_ns, self.current_ns) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        }
    }
}

/// The joined diff of two snapshots under one threshold.
#[derive(Clone, Debug)]
pub struct RegressionReport {
    /// Relative slowdown tolerated before a row fails (0.15 = +15%).
    pub threshold: f64,
    /// All joined rows, sorted by key.
    pub rows: Vec<RegressionRow>,
}

impl RegressionReport {
    /// Joins `baseline` and `current` rows on `(kernel, n, q)` and assigns
    /// verdicts under `threshold`.
    pub fn evaluate(
        baseline: &[BenchRecord],
        current: &[BenchRecord],
        threshold: f64,
    ) -> RegressionReport {
        let mut keys: Vec<&BenchKey> =
            baseline.iter().chain(current.iter()).map(|r| &r.key).collect();
        keys.sort();
        keys.dedup();
        let find = |records: &[BenchRecord], key: &BenchKey| {
            records.iter().find(|r| r.key == *key).map(|r| r.ns_per_iter)
        };
        let rows = keys
            .into_iter()
            .map(|key| {
                let baseline_ns = find(baseline, key);
                let current_ns = find(current, key);
                let verdict = match (baseline_ns, current_ns) {
                    (Some(b), Some(c)) => {
                        if c > b * (1.0 + threshold) {
                            Verdict::Regressed
                        } else if c < b * (1.0 - threshold) {
                            Verdict::Improved
                        } else {
                            Verdict::Unchanged
                        }
                    }
                    (Some(_), None) => Verdict::Missing,
                    (None, Some(_)) => Verdict::New,
                    (None, None) => unreachable!("key came from one of the two sets"),
                };
                RegressionRow { key: key.clone(), baseline_ns, current_ns, verdict }
            })
            .collect();
        RegressionReport { threshold, rows }
    }

    /// `true` when any row fails the gate (regressed or missing).
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
    }

    /// Rows that fail the gate.
    pub fn failures(&self) -> Vec<&RegressionRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
            .collect()
    }

    /// Renders the diff as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>14} {:>14} {:>8}  {}\n",
            "kernel", "baseline ns", "current ns", "ratio", "verdict"
        ));
        for row in &self.rows {
            let fmt_ns = |v: Option<f64>| match v {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            };
            let ratio = match row.ratio() {
                Some(r) => format!("{r:.3}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<28} {:>14} {:>14} {:>8}  {}\n",
                row.key.to_string(),
                fmt_ns(row.baseline_ns),
                fmt_ns(row.current_ns),
                ratio,
                row.verdict.label(),
            ));
        }
        let failures = self.failures().len();
        out.push_str(&format!(
            "{} rows, {} failure(s) at threshold +{:.0}%\n",
            self.rows.len(),
            failures,
            self.threshold * 100.0
        ));
        out
    }

    /// Serializes the diff (one object per row) for artifact upload.
    pub fn to_json(&self) -> Value {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                let opt = |v: Option<f64>| v.map(Value::Number).unwrap_or(Value::Null);
                Value::object()
                    .with("kernel", Value::String(row.key.kernel.clone()))
                    .with("n", Value::from(row.key.n))
                    .with("q", row.key.q.map(Value::from).unwrap_or(Value::Null))
                    .with("baseline_ns", opt(row.baseline_ns))
                    .with("current_ns", opt(row.current_ns))
                    .with("ratio", row.ratio().map(Value::Number).unwrap_or(Value::Null))
                    .with("verdict", Value::String(row.verdict.label().to_string()))
            })
            .collect();
        Value::object()
            .with("threshold", Value::Number(self.threshold))
            .with("regressed", Value::Bool(self.regressed()))
            .with("rows", Value::Array(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kernel: &str, n: u64, q: Option<u64>, ns: f64) -> BenchRecord {
        BenchRecord { key: BenchKey { kernel: kernel.into(), n, q }, ns_per_iter: ns }
    }

    #[test]
    fn parses_legacy_q0_and_null_q_identically() {
        let legacy =
            r#"{"results": [{"kernel": "flat_slab", "n": 128, "q": 0, "ns_per_iter": 100.0}]}"#;
        let modern =
            r#"{"results": [{"kernel": "flat_slab", "n": 128, "q": null, "ns_per_iter": 100.0}]}"#;
        let omitted = r#"{"results": [{"kernel": "flat_slab", "n": 128, "ns_per_iter": 100.0}]}"#;
        let a = parse_snapshot(legacy).unwrap();
        let b = parse_snapshot(modern).unwrap();
        let c = parse_snapshot(omitted).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a[0].key.q, None);
    }

    #[test]
    fn top_level_kernel_isa_is_ignored() {
        let rows = r#"[{"kernel": "plan_arena_x8", "n": 120, "q": 2, "ns_per_iter": 5.0}]"#;
        let plain = format!(r#"{{"benchmark": "kernels", "results": {rows}}}"#);
        let tagged =
            format!(r#"{{"benchmark": "kernels", "kernel_isa": "avx512f", "results": {rows}}}"#);
        assert_eq!(parse_snapshot(&tagged).unwrap(), parse_snapshot(&plain).unwrap());
        assert_eq!(parse_snapshot(&tagged).unwrap(), vec![rec("plan_arena_x8", 120, Some(2), 5.0)]);
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(parse_snapshot("not json").is_err());
        assert!(parse_snapshot("{}").is_err());
        let no_ns = r#"{"results": [{"kernel": "k", "n": 1}]}"#;
        let err = parse_snapshot(no_ns).unwrap_err().to_string();
        assert!(err.contains("ns_per_iter"), "{err}");
    }

    #[test]
    fn gate_fails_on_regression_and_missing_only() {
        let baseline = vec![
            rec("a", 64, None, 100.0),
            rec("b", 64, None, 100.0),
            rec("c", 64, Some(3), 100.0),
            rec("gone", 64, None, 50.0),
        ];
        let current = vec![
            rec("a", 64, None, 130.0),    // +30% → regressed
            rec("b", 64, None, 104.0),    // +4% → within noise
            rec("c", 64, Some(3), 60.0),  // −40% → improved
            rec("fresh", 64, None, 10.0), // new → ok
        ];
        let report = RegressionReport::evaluate(&baseline, &current, 0.15);
        assert!(report.regressed());
        let verdicts: Vec<(String, Verdict)> =
            report.rows.iter().map(|r| (r.key.to_string(), r.verdict)).collect();
        assert!(verdicts.contains(&("a n=64".into(), Verdict::Regressed)));
        assert!(verdicts.contains(&("b n=64".into(), Verdict::Unchanged)));
        assert!(verdicts.contains(&("c n=64 q=3".into(), Verdict::Improved)));
        assert!(verdicts.contains(&("gone n=64".into(), Verdict::Missing)));
        assert!(verdicts.contains(&("fresh n=64".into(), Verdict::New)));
        assert_eq!(report.failures().len(), 2);
    }

    #[test]
    fn checked_in_snapshot_covers_plan_kernels() {
        // The repository's BENCH_kernels.json is the perf-gate baseline;
        // the compiled-plan kernel rows must be present there (so a
        // vanished `plan_arena` or `plan_arena_x8` is a Missing verdict,
        // not silence) and must join cleanly against themselves.
        const PLAN_KERNELS: [&str; 2] = ["plan_arena", "plan_arena_x8"];
        let snapshot = include_str!("../../../BENCH_kernels.json");
        let rows = parse_snapshot(snapshot).unwrap();
        for kernel in PLAN_KERNELS {
            for q in [2u64, 3] {
                assert!(
                    rows.iter().any(|r| r.key.kernel == kernel && r.key.q == Some(q)),
                    "baseline snapshot must carry a {kernel} row for q={q}"
                );
            }
        }
        let report = RegressionReport::evaluate(&rows, &rows, 0.15);
        assert!(!report.regressed());
        let mut dropped = rows.clone();
        dropped.retain(|r| !PLAN_KERNELS.contains(&r.key.kernel.as_str()));
        let report = RegressionReport::evaluate(&rows, &dropped, 0.15);
        assert!(report.regressed(), "losing the plan rows must trip the gate");
        assert_eq!(report.failures().len(), 4, "one Missing verdict per kernel and q");
        assert!(report.failures().iter().all(|r| {
            PLAN_KERNELS.contains(&r.key.kernel.as_str()) && r.verdict == Verdict::Missing
        }));
    }

    #[test]
    fn identical_snapshots_pass() {
        let rows = vec![rec("a", 64, None, 100.0), rec("b", 128, Some(2), 7.5)];
        let report = RegressionReport::evaluate(&rows, &rows, 0.15);
        assert!(!report.regressed());
        assert!(report.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
    }

    #[test]
    fn table_and_json_round_out() {
        let baseline = vec![rec("a", 64, None, 100.0)];
        let current = vec![rec("a", 64, None, 140.0)];
        let report = RegressionReport::evaluate(&baseline, &current, 0.15);
        let table = report.render_table();
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("1.400"));
        let doc = report.to_json();
        assert_eq!(doc.get("regressed"), Some(&Value::Bool(true)));
        let reparsed = json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(
            reparsed.get("rows").unwrap().as_array().unwrap()[0].get("verdict").unwrap().as_str(),
            Some("REGRESSED")
        );
    }
}
