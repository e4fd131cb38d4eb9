//! The one latency histogram type of the workspace: power-of-two buckets,
//! mergeable, with exact count/sum/min/max and bucket-resolution
//! quantiles. Rolling windows ([`crate::RollingHistogram::window`]), the
//! profiler's post-hoc histograms and the exemplar SLO report in
//! `symtensor-obs` all read out as this type, so they share one bucket
//! rule and one quantile rule by construction.

/// Bucket index for an observation: bucket 0 counts `v ≤ 1`, bucket `i`
/// counts `2^(i−1) < v ≤ 2^i`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        64 - (v - 1).leading_zeros() as usize
    }
}

/// Upper bound (inclusive) of bucket `i`: `2^i`, saturating at `2^63` for
/// the topmost bucket (which also holds everything larger).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    1u64 << i.min(63)
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v` with `2^(i-1) < v ≤ 2^i` (bucket 0
/// counts `v ≤ 1`), i.e. upper bounds 1, 2, 4, 8, … Sum/min/max/count are
/// tracked exactly; quantiles are read from the buckets and therefore
/// resolve to a bucket upper bound (≤ one octave of error), clamped to the
/// exact `[min, max]` range. `buckets` ends at the last non-empty bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Power-of-two bucket counts; `buckets[i]` has upper bound `2^i`.
    pub buckets: Vec<u64>,
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
        // `max(min).min(max)`, not `clamp`: a window read racing its
        // writer can see a sample's count before its min/max, and a
        // readout must not panic on that.
        Some(bucket_upper_bound(i).max(self.min).min(self.max))
    }

    /// The bucket index holding the `q`-quantile observation (`None` when
    /// empty) — exemplar histograms use this to link a quantile readout to
    /// a concrete request recorded in that bucket.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
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

    /// Fraction of observations whose value exceeds `threshold`, at bucket
    /// resolution: observations in buckets strictly above `threshold`'s
    /// bucket count as over (so a slight *under*-estimate — values sharing
    /// the threshold's bucket are counted as within budget). Returns 0.0
    /// when empty.
    pub fn frac_over(&self, threshold: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let over: u64 = self.buckets.iter().skip(bucket_index(threshold) + 1).sum();
        over as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.frac_over(1), 0.0);
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
}
