//! Rolling-window histograms: fixed power-of-two buckets over a ring of
//! time slices, so "the last 100 ms" and "the whole run" can be read from
//! the same structure — the raw material for multi-window burn rates.

use crate::histogram::{bucket_index, Histogram};
use crate::sync::{fence, AtomicU64, Ordering};

/// Number of buckets per slice, with [`Histogram`]'s bucket boundaries.
/// Bucket `i` has upper bound `2^i` ns, so the last bucket tops out at
/// `2^39` ns ≈ 9 minutes — far beyond any simulated request latency;
/// larger values clamp into it.
pub const BUCKETS: usize = 40;

/// Number of time slices in the ring. A slice is `slice_ns` wide, so the
/// longest window the histogram can answer for is `SLICES·slice_ns`.
pub const SLICES: usize = 8;

/// One time slice: an epoch tag plus the slice's counters. The epoch is
/// the absolute slice index + 1 (0 marks "reset in progress / never
/// written"), which is what makes reads epoch-consistent: a reader
/// checks the epoch before and after reading the counters and discards
/// the slice if a reset raced it.
struct Slice {
    epoch: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Slice {
    fn new() -> Self {
        Slice {
            epoch: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A histogram over a ring of [`SLICES`] time slices of `slice_ns` each.
///
/// Single writer (the owning rank/driver thread), any number of
/// concurrent readers. The writer never blocks and never takes a lock:
/// recording is a handful of relaxed atomic adds, plus — at most once
/// per slice turn-over — an epoch-guarded reset of the stale slice.
/// Readers merge the slices whose epochs fall inside the requested
/// window, retrying (bounded) any slice whose epoch changed mid-read.
/// Counter adds racing a read can skew a window by the in-flight sample;
/// windows are monotone-approximate, never torn across a reset.
pub struct RollingHistogram {
    slice_ns: u64,
    slices: Vec<Slice>,
}

impl RollingHistogram {
    /// A histogram with the given slice width (must be non-zero).
    pub fn new(slice_ns: u64) -> Self {
        assert!(slice_ns > 0, "slice width must be non-zero");
        RollingHistogram { slice_ns, slices: (0..SLICES).map(|_| Slice::new()).collect() }
    }

    /// Slice width in nanoseconds.
    #[inline]
    pub fn slice_ns(&self) -> u64 {
        self.slice_ns
    }

    /// Records `v` at time `now_ns` (nanoseconds on the plane's clock).
    /// Writer-side only — at most one thread may call this at a time.
    pub fn observe(&self, now_ns: u64, v: u64) {
        let idx = now_ns / self.slice_ns;
        let slice = &self.slices[(idx % SLICES as u64) as usize];
        // ordering: Relaxed — this thread is the only writer; the value
        // it reads back is its own last epoch store.
        if slice.epoch.load(Ordering::Relaxed) != idx + 1 {
            // The ring wrapped: this slot still holds a stale slice.
            // Publish "invalid" first so a concurrent reader can never
            // merge half-cleared counters, then the new epoch last.
            // ordering: Relaxed — the fence below orders this store.
            slice.epoch.store(0, Ordering::Relaxed);
            // A release *store* on epoch alone would not do this:
            // later stores may be hoisted above a release store.
            // ordering: Release fence — orders the invalid-epoch store
            // above before the clears below.
            fence(Ordering::Release);
            // ordering: Relaxed — bracketed by the two fences.
            slice.count.store(0, Ordering::Relaxed);
            slice.sum.store(0, Ordering::Relaxed);
            // ordering: Relaxed — same bracket as the clears above.
            slice.min.store(u64::MAX, Ordering::Relaxed);
            slice.max.store(0, Ordering::Relaxed);
            for b in &slice.buckets {
                // ordering: Relaxed — see the clear block above.
                b.store(0, Ordering::Relaxed);
            }
            // ordering: Release — publishes the completed clears before
            // the new epoch; pairs with the reader's Acquire epoch load.
            slice.epoch.store(idx + 1, Ordering::Release);
        }
        debug_assert_eq!(
            // ordering: Relaxed — debug-only single-writer probe.
            slice.epoch.load(Ordering::Relaxed),
            idx + 1,
            "concurrent RollingHistogram::observe: the writer side is single-writer by contract"
        );
        // ordering: Relaxed — single-writer adds into the live slice.
        slice.count.fetch_add(1, Ordering::Relaxed);
        slice.sum.fetch_add(v, Ordering::Relaxed);
        // ordering: Relaxed — same as the adds above.
        slice.min.fetch_min(v, Ordering::Relaxed);
        slice.max.fetch_max(v, Ordering::Relaxed);
        // ordering: Relaxed — same as the adds above.
        slice.buckets[bucket_index(v).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
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
        let mut merged = [0u64; BUCKETS];
        for slice in &self.slices {
            for _ in 0..4 {
                // ordering: Acquire — pairs with the writer's release
                // epoch publish: a valid epoch implies complete clears.
                let e1 = slice.epoch.load(Ordering::Acquire);
                if e1 == 0 || e1 - 1 < lo || e1 - 1 > cur {
                    break; // never written, mid-reset, or outside the window
                }
                // ordering: Relaxed — the epoch re-check catches resets.
                let count = slice.count.load(Ordering::Relaxed);
                let sum = slice.sum.load(Ordering::Relaxed);
                // ordering: Relaxed — see the counter reads above.
                let min = slice.min.load(Ordering::Relaxed);
                let max = slice.max.load(Ordering::Relaxed);
                let mut buckets = [0u64; BUCKETS];
                for (dst, src) in buckets.iter_mut().zip(&slice.buckets) {
                    // ordering: Relaxed — see the counter reads above.
                    *dst = src.load(Ordering::Relaxed);
                }
                // A bare acquire re-load would let the reads sink past
                // the check; pairs with the writer's release fence.
                // ordering: Acquire fence — keeps the counter reads
                // above the epoch re-check below.
                fence(Ordering::Acquire);
                // ordering: Relaxed — the fence above orders this load.
                if slice.epoch.load(Ordering::Relaxed) != e1 {
                    continue; // a reset raced the read: retry the slice
                }
                if count > 0 {
                    let first = out.count == 0;
                    out.min = if first { min } else { out.min.min(min) };
                    out.max = if first { max } else { out.max.max(max) };
                }
                out.count += count;
                out.sum += sum;
                for (dst, src) in merged.iter_mut().zip(buckets) {
                    *dst += src;
                }
                break;
            }
        }
        let len = merged.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        out.buckets = merged[..len].to_vec();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::bucket_upper_bound;

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
        let h = RollingHistogram::new(1_000);
        h.observe(0, u64::MAX);
        assert_eq!(h.window(0, SLICES).buckets.len(), BUCKETS);
    }

    #[test]
    fn observe_and_window_roundtrip() {
        let h = RollingHistogram::new(1_000);
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
        let h = RollingHistogram::new(1_000);
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
        let h = RollingHistogram::new(100);
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
        let h = RollingHistogram::new(1_000_000);
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
        let h = RollingHistogram::new(1_000_000);
        for v in [1u64, 1, 1, 1000, 1000] {
            h.observe(0, v);
        }
        let w = h.window(0, SLICES);
        assert_eq!(w.frac_over(1), 0.4);
        assert_eq!(w.frac_over(1 << 12), 0.0);
        assert_eq!(Histogram::default().frac_over(1), 0.0);
    }
}
