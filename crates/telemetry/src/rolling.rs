//! Rolling-window histograms: fixed power-of-two buckets over a ring of
//! time slices, so "the last 100 ms" and "the whole run" can be read from
//! the same structure — the raw material for multi-window burn rates.

use crate::histogram::Histogram;

/// Number of buckets per slice, with [`Histogram`]'s bucket boundaries.
/// Bucket `i` has upper bound `2^i` ns, so the last bucket tops out at
/// `2^39` ns ≈ 9 minutes — far beyond any simulated request latency;
/// larger values clamp into it.
pub const BUCKETS: usize = 40;

/// Number of time slices in the ring. A slice is `slice_ns` wide, so the
/// longest window the histogram can answer for is `SLICES·slice_ns`.
pub const SLICES: usize = 8;

/// A histogram over a ring of [`SLICES`] time slices of `slice_ns` each.
///
/// Ring position `i` holds the slice whose absolute index (`now_ns /
/// slice_ns`) is congruent to `i`; a write into a position still holding
/// an older slice starts it afresh. Callers that share one across
/// threads put it behind a lock, as [`crate::TelemetryCell`] does.
pub struct RollingHistogram {
    slice_ns: u64,
    /// `(absolute slice index, that slice's observations)`, one per ring
    /// position. An unwritten position holds an empty histogram, which
    /// merges as nothing whatever its index.
    slices: Vec<(u64, Histogram)>,
}

impl RollingHistogram {
    /// A histogram with the given slice width (must be non-zero).
    pub fn new(slice_ns: u64) -> Self {
        assert!(slice_ns > 0, "slice width must be non-zero");
        RollingHistogram { slice_ns, slices: vec![(0, Histogram::default()); SLICES] }
    }

    /// Slice width in nanoseconds.
    #[inline]
    pub fn slice_ns(&self) -> u64 {
        self.slice_ns
    }

    /// Records `v` at time `now_ns` (nanoseconds on the plane's clock).
    pub fn observe(&mut self, now_ns: u64, v: u64) {
        let idx = now_ns / self.slice_ns;
        let (slice_idx, hist) = &mut self.slices[(idx % SLICES as u64) as usize];
        if *slice_idx != idx {
            // The ring wrapped: this position still holds a stale slice.
            *slice_idx = idx;
            *hist = Histogram::default();
        }
        hist.observe(v);
        if hist.buckets.len() > BUCKETS {
            // Fold everything past the last bucket into it.
            let over: u64 = hist.buckets.drain(BUCKETS..).sum();
            hist.buckets[BUCKETS - 1] += over;
        }
    }

    /// Merges the last `n_slices` slices (ending at the slice containing
    /// `now_ns`) into one [`Histogram`], its buckets trimmed to the last
    /// non-empty one. `n_slices` is clamped to [`SLICES`]; pass `SLICES`
    /// for the longest available window.
    pub fn window(&self, now_ns: u64, n_slices: usize) -> Histogram {
        let n = n_slices.clamp(1, SLICES) as u64;
        let cur = now_ns / self.slice_ns;
        let lo = cur.saturating_sub(n - 1);
        let mut out = Histogram::default();
        for (idx, hist) in &self.slices {
            if (lo..=cur).contains(idx) {
                out.merge(hist);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{bucket_index, bucket_upper_bound};

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), 1 << 63);
        // A slice clamps everything past its last bucket into it.
        let mut h = RollingHistogram::new(1_000);
        h.observe(0, u64::MAX);
        assert_eq!(h.window(0, SLICES).buckets.len(), BUCKETS);
    }

    #[test]
    fn observe_and_window_roundtrip() {
        let mut h = RollingHistogram::new(1_000);
        h.observe(100, 7);
        h.observe(200, 9);
        h.observe(1_500, 100);
        let w = h.window(1_500, SLICES);
        assert_eq!(w.count, 3);
        assert_eq!(w.sum, 116);
        assert_eq!(w.min, 7);
        assert_eq!(w.max, 100);
        // Short window sees only the second slice.
        let short = h.window(1_500, 1);
        assert_eq!(short.count, 1);
        assert_eq!(short.sum, 100);
    }

    #[test]
    fn window_equals_a_histogram_fed_the_same_observations() {
        let values = [0u64, 1, 3, 7, 9, 130, 4096, 4097, 1_000_000, 1 << 39];
        let mut h = RollingHistogram::new(1_000);
        let mut one_slice = Histogram::default();
        for v in values {
            h.observe(500, v);
            one_slice.observe(v);
        }
        assert_eq!(h.window(500, 1), one_slice, "within one slice");
        // One observation per slice in slices 1..=10: the ring keeps 3..=10.
        for (s, v) in values.iter().rev().enumerate() {
            h.observe(1_000 * (s as u64 + 1) + 7, v / 2);
        }
        let now = 1_000 * values.len() as u64 + 7;
        assert_eq!(h.window(now, SLICES).count, SLICES as u64, "the oldest slices left the ring");
        let mut last_slices = Histogram::default();
        for v in values.iter().rev().skip(values.len() - 3) {
            last_slices.observe(v / 2);
        }
        assert_eq!(h.window(now, 3), last_slices, "across slices");
        // Merging per-slice windows gives the multi-slice window.
        let mut merged = Histogram::default();
        for back in 0..SLICES as u64 {
            merged.merge(&h.window(now - 1_000 * back, 1));
        }
        assert_eq!(h.window(now, SLICES), merged);
        assert_eq!(RollingHistogram::new(10).window(0, SLICES), Histogram::default());
    }

    #[test]
    fn ring_wraparound_resets_stale_slices() {
        let mut h = RollingHistogram::new(100);
        h.observe(50, 1); // slice 0
        for s in 1..=SLICES as u64 {
            h.observe(s * 100 + 50, 2); // slices 1..=SLICES; SLICES wraps onto 0
        }
        let w = h.window(SLICES as u64 * 100 + 50, SLICES);
        // The original slice-0 sample was overwritten by the wrap.
        assert_eq!(w.count, SLICES as u64);
        assert_eq!(w.sum, 2 * SLICES as u64);
    }

    #[test]
    fn quantile_is_a_bucketed_upper_bound() {
        let mut h = RollingHistogram::new(1_000_000);
        for v in [10u64, 20, 30, 40, 1000] {
            h.observe(0, v);
        }
        let w = h.window(0, SLICES);
        let p50 = w.try_quantile(0.5).unwrap();
        assert!((20..=32).contains(&p50), "p50={p50}");
        // p100 is clamped to the observed max, not the bucket bound.
        assert_eq!(w.try_quantile(1.0), Some(1000));
        assert_eq!(Histogram::default().try_quantile(0.99), None);
    }

    #[test]
    fn frac_over_counts_strictly_above_the_threshold_bucket() {
        let mut h = RollingHistogram::new(1_000_000);
        for v in [1u64, 1, 1, 1000, 1000] {
            h.observe(0, v);
        }
        let w = h.window(0, SLICES);
        assert_eq!(w.frac_over(1), 0.4);
        assert_eq!(w.frac_over(1 << 12), 0.0);
        assert_eq!(Histogram::default().frac_over(1), 0.0);
    }
}
