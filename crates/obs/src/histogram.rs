//! Log-bucketed latency histograms: power-of-two buckets, mergeable, with
//! p50/p90/p99/max readouts, plus the profiler's standard set
//! ([`ProfileHistograms`]) recording per-round step latency and
//! per-message recv-wait from a traced run.

use crate::json::Value;
use std::collections::BTreeMap;
use symtensor_mpsim::matching::match_messages;
use symtensor_mpsim::CommEvent;

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v` with `2^(i-1) < v ≤ 2^i` (bucket 0
/// counts `v ≤ 1`), i.e. upper bounds 1, 2, 4, 8, … Sum/min/max/count are
/// tracked exactly; quantiles are read from the buckets and therefore
/// resolve to a bucket upper bound (≤ one octave of error), clamped to the
/// exact `[min, max]` range.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Power-of-two bucket counts; `buckets[i]` has upper bound `2^i`.
    pub buckets: Vec<u64>,
}

/// The power-of-two bucket index for observation `v` — shared by
/// [`Histogram`] and the exemplar histograms in [`crate::slo`] so the two
/// always agree on which bucket an observation lands in.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        64 - ((v - 1).leading_zeros() as usize)
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = bucket_index(v);
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Folds `other` into `self` — the result is exactly the histogram of
    /// the union of both observation streams (power-of-two buckets align
    /// across instances by construction). This is what makes per-rank or
    /// per-shard histograms aggregatable.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a bucket upper bound clamped to
    /// `[min, max]`, or `None` when the histogram is empty — an empty
    /// histogram has no quantiles, and reporting 0 would be
    /// indistinguishable from a real 0 ns measurement. `try_quantile(1.0)`
    /// is the exact max.
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        let i = self.quantile_bucket(q)?;
        if q >= 1.0 {
            return Some(self.max);
        }
        Some((1u64 << i).clamp(self.min, self.max))
    }

    /// The bucket index holding the `q`-quantile observation (`None` when
    /// empty) — exemplar histograms use this to link a quantile readout to
    /// a concrete request recorded in that bucket.
    pub(crate) fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0));
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(i);
            }
        }
        Some(self.buckets.len().saturating_sub(1))
    }

    /// Infallible form of [`Histogram::try_quantile`]: 0 when empty. Kept
    /// for call sites that fold the empty case into "no latency"; report
    /// rendering should prefer `try_quantile` and print `-` for `None`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.try_quantile(q).unwrap_or(0)
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket-resolution).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// JSON form: exact stats, the percentile readouts (`null` when the
    /// histogram is empty — there is no quantile to report), and the
    /// non-empty buckets as `{le, count}` pairs.
    pub fn to_json(&self) -> Value {
        let quantile = |q: f64| self.try_quantile(q).map(Value::from).unwrap_or(Value::Null);
        Value::object()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min)
            .with("max", self.max)
            .with("mean", self.mean())
            .with("p50", quantile(0.50))
            .with("p90", quantile(0.90))
            .with("p99", quantile(0.99))
            .with(
                "buckets",
                Value::Array(
                    self.buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| Value::object().with("le", 1u64 << i).with("count", c))
                        .collect(),
                ),
            )
    }
}

/// The profiler's standard latency histograms, computed from one traced
/// run's matched messages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileHistograms {
    /// Per-round step latency: for every `(phase, round)` group of matched
    /// messages, `max(recv time) − min(send time)` — how long the whole
    /// round took wall-clock, across all participating ranks.
    pub round_step_ns: Histogram,
    /// Per-message recv-wait: `recv time − send time` for every matched
    /// pair (an upper bound on receiver blocking; see
    /// [`symtensor_mpsim::MessageMatch::transit_ns`]).
    pub recv_wait_ns: Histogram,
    /// Per-message payload sizes in words (the β term's distribution).
    pub message_words: Histogram,
}

impl ProfileHistograms {
    /// Builds all three histograms from per-rank traces (send/recv pairs
    /// matched FIFO per `(src, dst, tag)`; rounds grouped per phase so the
    /// gather and reduce exchanges of one schedule don't alias).
    pub fn from_traces(traces: &[Vec<CommEvent>]) -> Self {
        let report = match_messages(traces);
        let mut out = ProfileHistograms::default();
        // (phase, round) -> (min send t, max recv t).
        let mut rounds: BTreeMap<(Option<&'static str>, u64), (u64, u64)> = BTreeMap::new();
        for m in &report.matches {
            out.recv_wait_ns.observe(m.transit_ns());
            out.message_words.observe(m.words);
            if let Some(round) = m.round {
                let entry =
                    rounds.entry((m.send_phase, round)).or_insert((m.send_t_ns, m.recv_t_ns));
                entry.0 = entry.0.min(m.send_t_ns);
                entry.1 = entry.1.max(m.recv_t_ns);
            }
        }
        for (start, end) in rounds.into_values() {
            out.round_step_ns.observe(end.saturating_sub(start));
        }
        out
    }

    /// Folds another run's histograms into this one (e.g. aggregating a
    /// sweep).
    pub fn merge(&mut self, other: &ProfileHistograms) {
        self.round_step_ns.merge(&other.round_step_ns);
        self.recv_wait_ns.merge(&other.recv_wait_ns);
        self.message_words.merge(&other.message_words);
    }

    /// JSON form, one object per histogram.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("round_step_ns", self.round_step_ns.to_json())
            .with("recv_wait_ns", self.recv_wait_ns.to_json())
            .with("message_words", self.message_words.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_mpsim::Universe;

    #[test]
    fn quantiles_read_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count, 100);
        // p50 target = observation #50 → bucket with upper bound 64
        // (values 33..=64 live there; cumulative through 32 is 32).
        assert_eq!(h.p50(), 64);
        assert_eq!(h.p90(), 128.min(h.max)); // clamped to max = 100
        assert_eq!(h.p99(), 100);
        assert_eq!(h.try_quantile(0.50), Some(64));
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1); // clamps to min
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.try_quantile(0.5), None, "empty histogram has no quantiles");
        assert_eq!(h.try_quantile(1.0), None);
        assert_eq!(h.to_json().get("p99"), Some(&Value::Null), "JSON renders null, not 0");
        assert_eq!(h.mean(), 0.0);
        let mut other = Histogram::default();
        other.observe(5);
        let mut merged = h.clone();
        merged.merge(&other);
        assert_eq!(merged, other);
        let mut back = other.clone();
        back.merge(&h);
        assert_eq!(back, other);
    }

    #[test]
    fn merge_equals_union_stream() {
        let observations_a = [1u64, 7, 9, 130, 4096];
        let observations_b = [2u64, 7, 888, 1_000_000];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut union = Histogram::default();
        for v in observations_a {
            a.observe(v);
            union.observe(v);
        }
        for v in observations_b {
            b.observe(v);
            union.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
        assert_eq!(a.p99(), union.p99());
    }

    #[test]
    fn profile_histograms_from_a_ring_run() {
        let p = 4;
        let (_, _, traces) = Universe::new(p).run_traced(|comm| {
            comm.with_phase("shift", || {
                let next = (comm.rank() + 1) % p;
                let prev = (comm.rank() + p - 1) % p;
                for round in 0..3u64 {
                    comm.annotate_round(round);
                    comm.send(next, round, vec![0.0; 5]);
                    comm.recv(prev, round).unwrap();
                }
                comm.clear_round();
            });
        });
        let h = ProfileHistograms::from_traces(&traces);
        assert_eq!(h.message_words.count, (p * 3) as u64);
        assert_eq!(h.message_words.min, 5);
        assert_eq!(h.message_words.max, 5);
        assert_eq!(h.recv_wait_ns.count, (p * 3) as u64);
        assert_eq!(h.round_step_ns.count, 3, "three annotated rounds in one phase");
        let json = h.to_json();
        assert_eq!(
            json.get("message_words").unwrap().get("count").unwrap().as_u64(),
            Some((p * 3) as u64)
        );
        assert!(json.get("round_step_ns").unwrap().get("p99").is_some());
    }
}
