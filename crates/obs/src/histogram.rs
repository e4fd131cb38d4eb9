//! Latency histograms: the JSON form of the shared
//! [`symtensor_telemetry::Histogram`] (re-exported here as [`Histogram`]),
//! plus the profiler's standard set ([`ProfileHistograms`]) recording
//! per-round step latency and per-message recv-wait from a traced run.

use crate::json::Value;
use std::collections::BTreeMap;
use symtensor_mpsim::matching::match_messages;
use symtensor_mpsim::CommEvent;
use symtensor_telemetry::bucket_upper_bound;
pub use symtensor_telemetry::Histogram;

/// JSON form of a [`Histogram`]: exact stats, the percentile readouts
/// (`null` when the histogram is empty — there is no quantile to report),
/// and the non-empty buckets as `{le, count}` pairs. Every histogram the
/// workspace exports — metrics registry, profiler, SLO report, telemetry
/// windows — is rendered by this one function.
pub fn histogram_json(h: &Histogram) -> Value {
    let quantile = |q: f64| h.try_quantile(q).map(Value::from).unwrap_or(Value::Null);
    Value::object()
        .with("count", h.count)
        .with("sum", h.sum)
        .with("min", h.min)
        .with("max", h.max)
        .with("mean", h.mean())
        .with("p50", quantile(0.50))
        .with("p90", quantile(0.90))
        .with("p99", quantile(0.99))
        .with(
            "buckets",
            Value::Array(
                h.buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        Value::object().with("le", bucket_upper_bound(i)).with("count", c)
                    })
                    .collect(),
            ),
        )
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
            .with("round_step_ns", histogram_json(&self.round_step_ns))
            .with("recv_wait_ns", histogram_json(&self.recv_wait_ns))
            .with("message_words", histogram_json(&self.message_words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symtensor_mpsim::Universe;

    #[test]
    fn empty_histogram_json_renders_null_quantiles() {
        let json = histogram_json(&Histogram::default());
        for q in ["p50", "p90", "p99"] {
            assert_eq!(json.get(q), Some(&Value::Null), "JSON renders null, not 0");
        }
        assert_eq!(json.get("buckets").and_then(Value::as_array).map(<[Value]>::len), Some(0));
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
