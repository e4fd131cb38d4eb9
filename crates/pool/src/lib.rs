#![warn(missing_docs)]
//! A dependency-free scoped work-stealing thread pool with deterministic
//! reduction, in the same philosophy as the `shims/` crates: exactly the
//! API surface this workspace needs, built on `std` alone (the build
//! environment is offline, so no `rayon`/`crossbeam`).
//!
//! # Design
//!
//! Work is expressed as `chunks` numbered `0..c`: the caller picks the
//! decomposition (e.g. row-panels of a tetrahedron), the pool executes
//! `work(chunk)` once per chunk across its workers and returns the results
//! **in chunk order**, regardless of which worker computed what.
//!
//! * **Per-worker chunk deques** — each worker starts with a contiguous
//!   stripe of the chunk range in its own deque (good locality: stripes
//!   walk adjacent memory). A worker pops from the *front* of its own
//!   deque and, when empty, steals from the *back* of a victim's, so
//!   stolen work is the work its owner would have reached last.
//! * **Scoped execution** — workers are scoped threads spawned per call
//!   ([`std::thread::scope`]), so `work` may borrow from the caller's
//!   stack with no `'static` bounds and no channel plumbing. For the
//!   kernel sizes this workspace targets (≥ 10⁵ points per call) the
//!   spawn cost is noise; a persistent pool would buy nothing but
//!   complexity.
//! * **Deterministic reduction** — [`tree_reduce`] combines per-chunk
//!   results pairwise in fixed chunk order. Because the tree shape depends
//!   only on the chunk count — never on thread count or scheduling — a
//!   caller whose chunk decomposition is a function of the problem alone
//!   gets bit-identical floating-point results run-to-run *and across
//!   thread counts*.
//!
//! ```
//! use symtensor_pool::{Pool, tree_reduce};
//! let pool = Pool::new(4);
//! // Sum of squares over 0..1000, chunked by hundreds.
//! let partial = pool.run_chunks(10, |c| -> u64 {
//!     (c as u64 * 100..(c as u64 + 1) * 100).map(|v| v * v).sum()
//! });
//! let total = tree_reduce(partial, |a, b| a + b).unwrap();
//! assert_eq!(total, (0..1000u64).map(|v| v * v).sum());
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

pub(crate) mod sync;
use crate::sync::{AtomicU64, Ordering};

/// How many chunks a worker claims from its own deque per lock
/// acquisition. 1 keeps stealing granularity maximal; the deques are so
/// cheap (one uncontended `Mutex` lock per chunk) that batching is not
/// worth the imbalance it can cause.
const OWN_POP: usize = 1;

/// A free-list of reusable `Vec<f64>` scratch buffers.
///
/// The compute hot paths need per-worker partial accumulators every call;
/// allocating (and zero-filling freshly allocated pages of) those each
/// invocation is pure steady-state overhead. A `WorkspacePool` amortizes
/// it: [`WorkspacePool::lease_zeroed`] hands out a zeroed buffer, reusing
/// a previously returned one when its capacity suffices, and
/// [`WorkspacePool::give_back`] returns it for the next lease.
///
/// Two counters make the steady state observable (and testable):
/// * `lease_count` — total leases served;
/// * `fresh_count` — leases that had to **grow** a buffer (i.e. touched
///   the heap). In steady state this stays flat: after warm-up every
///   lease is served from the free list with sufficient capacity.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Vec<f64>>>,
    leases: AtomicU64,
    fresh: AtomicU64,
}

impl WorkspacePool {
    /// An empty workspace pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Leases a buffer of exactly `len` zeroed elements.
    ///
    /// Reuses a returned buffer when one is available (largest-capacity
    /// first would need a heap; plain LIFO is enough because the hot paths
    /// lease uniform sizes). Counts a *fresh* allocation whenever the
    /// served buffer's capacity had to grow.
    pub fn lease_zeroed(&self, len: usize) -> Vec<f64> {
        // ordering: Relaxed — independent monotone counters; nothing
        // synchronizes on them.
        self.leases.fetch_add(1, Ordering::Relaxed);
        // A poisoned free list only means some lease-holder panicked;
        // the list itself (a Vec of owned buffers) is still valid, so
        // recover it rather than cascading the abort.
        let mut buf = self.free.lock().unwrap_or_else(|p| p.into_inner()).pop().unwrap_or_default();
        if buf.capacity() < len {
            // ordering: Relaxed — monotone counter.
            self.fresh.fetch_add(1, Ordering::Relaxed);
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a leased buffer to the free list for reuse.
    pub fn give_back(&self, buf: Vec<f64>) {
        // Poison recovery: the free list stays structurally valid (see
        // `lease_zeroed`).
        self.free.lock().unwrap_or_else(|p| p.into_inner()).push(buf);
    }

    /// Total leases served since construction.
    pub fn lease_count(&self) -> u64 {
        // ordering: Relaxed — monotone counter read; staleness is fine.
        self.leases.load(Ordering::Relaxed)
    }

    /// Leases that required growing a buffer (touching the heap). Flat
    /// across iterations ⇔ allocation-free steady state.
    pub fn fresh_count(&self) -> u64 {
        // ordering: Relaxed — monotone counter read.
        self.fresh.load(Ordering::Relaxed)
    }

    /// Buffers currently sitting in the free list.
    pub fn pooled(&self) -> usize {
        // Poison recovery: see `lease_zeroed`.
        self.free.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// A work-stealing pool of `threads` workers.
///
/// The pool itself is tiny — it holds the thread count, cumulative
/// statistics and a [`WorkspacePool`] of reusable scratch buffers;
/// workers are scoped threads spawned per [`Pool::run_chunks`]
/// call so that work closures can borrow caller state.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    steals: AtomicU64,
    runs: AtomicU64,
    workspaces: WorkspacePool,
}

impl Pool {
    /// A pool that runs work on `threads` workers. `threads == 1` (or `0`,
    /// normalized to 1) executes inline on the calling thread with zero
    /// synchronization.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            steals: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            workspaces: WorkspacePool::new(),
        }
    }

    /// The pool's shared [`WorkspacePool`] of reusable scratch buffers.
    #[inline]
    pub fn workspaces(&self) -> &WorkspacePool {
        &self.workspaces
    }

    /// Worker count this pool was built with.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cumulative number of successful steals across all
    /// [`Pool::run_chunks`] calls (0 while everything stays balanced).
    pub fn steal_count(&self) -> u64 {
        // ordering: Relaxed — statistics counter read.
        self.steals.load(Ordering::Relaxed)
    }

    /// Cumulative number of `run_chunks` invocations.
    pub fn run_count(&self) -> u64 {
        // ordering: Relaxed — statistics counter read.
        self.runs.load(Ordering::Relaxed)
    }

    /// Executes `work(chunk)` for every `chunk in 0..chunks` across the
    /// pool's workers and returns the results **in chunk order**.
    ///
    /// Each worker starts with a contiguous stripe of chunks and steals
    /// from peers once its own stripe is drained. Every chunk is executed
    /// exactly once; which worker executes it is scheduling-dependent, but
    /// the returned `Vec` is always indexed by chunk, so callers composing
    /// results in chunk order are deterministic.
    ///
    /// # Panics
    /// Propagates the first panic raised inside `work`.
    pub fn run_chunks<T, F>(&self, chunks: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // ordering: Relaxed — statistics counter.
        self.runs.fetch_add(1, Ordering::Relaxed);
        if chunks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(chunks);
        if workers <= 1 {
            return (0..chunks).map(work).collect();
        }

        // Per-worker deques seeded with contiguous stripes.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * chunks / workers;
                let hi = (w + 1) * chunks / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let steals = AtomicU64::new(0);

        let mut slots: Vec<Option<T>> = (0..chunks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    let work = &work;
                    let steals = &steals;
                    scope.spawn(move || {
                        let mut done: Vec<(usize, T)> = Vec::new();
                        loop {
                            // Drain our own deque front-first (stripe order).
                            let mut own = {
                                // Poison recovery: a panicking peer
                                // poisons the deques, but the chunk
                                // queues stay structurally valid and the
                                // panic itself is re-raised at `join`.
                                let mut dq = deques[w].lock().unwrap_or_else(|p| p.into_inner());
                                let take = OWN_POP.min(dq.len());
                                dq.drain(..take).collect::<Vec<_>>()
                            };
                            if !own.is_empty() {
                                for c in own.drain(..) {
                                    done.push((c, work(c)));
                                }
                                continue;
                            }
                            // Steal from the back of the first non-empty
                            // victim, scanning round-robin from our right
                            // neighbour so contention spreads out.
                            let mut stolen = None;
                            for off in 1..workers {
                                let victim = (w + off) % workers;
                                // Poison recovery: same as above.
                                if let Some(c) = deques[victim]
                                    .lock()
                                    .unwrap_or_else(|p| p.into_inner())
                                    .pop_back()
                                {
                                    stolen = Some(c);
                                    break;
                                }
                            }
                            match stolen {
                                Some(c) => {
                                    // ordering: Relaxed — statistics.
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    done.push((c, work(c)));
                                }
                                // All deques empty: any remaining chunks are
                                // already executing on other workers (chunks
                                // are fixed up-front, never re-enqueued), so
                                // this worker is finished.
                                None => break,
                            }
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                let done = match handle.join() {
                    Ok(done) => done,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                for (c, value) in done {
                    debug_assert!(slots[c].is_none(), "chunk {c} executed twice");
                    slots[c] = Some(value);
                }
            }
        });
        // ordering: Relaxed — statistics roll-up; the scope join above
        // already ordered the workers' writes.
        self.steals.fetch_add(steals.load(Ordering::Relaxed), Ordering::Relaxed);
        slots
            .into_iter()
            .enumerate()
            // lint: allow-panic — designed invariant: every chunk was
            // seeded into exactly one deque and each deque was drained.
            .map(|(c, s)| s.unwrap_or_else(|| panic!("chunk {c} never executed")))
            .collect()
    }

    /// [`Pool::run_chunks`] followed by a deterministic [`tree_reduce`] of
    /// the per-chunk results. `None` only when `chunks == 0`.
    pub fn map_reduce<T, F, R>(&self, chunks: usize, work: F, combine: R) -> Option<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        R: FnMut(T, T) -> T,
    {
        tree_reduce(self.run_chunks(chunks, work), combine)
    }
}

/// Pairwise tree reduction in fixed order: round 1 combines `(0,1)`,
/// `(2,3)`, …; round 2 combines the results of those pairs; and so on.
/// The association tree depends only on `items.len()`, so a fixed chunk
/// decomposition yields bit-identical floating-point reductions regardless
/// of how many threads produced the items. Returns `None` for no items.
pub fn tree_reduce<T, F>(mut items: Vec<T>, mut combine: F) -> Option<T>
where
    F: FnMut(T, T) -> T,
{
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        items = next;
    }
    items.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_and_single_chunk() {
        let pool = Pool::new(4);
        let none: Vec<u32> = pool.run_chunks(0, |_| unreachable!());
        assert!(none.is_empty());
        assert_eq!(pool.run_chunks(1, |c| c + 10), vec![10]);
    }

    #[test]
    fn zero_threads_normalizes_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run_chunks(3, |c| c), vec![0, 1, 2]);
    }

    #[test]
    fn results_are_in_chunk_order() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let got = pool.run_chunks(97, |c| c * c);
            let want: Vec<usize> = (0..97).map(|c| c * c).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = Pool::new(4);
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        pool.run_chunks(64, |c| counts[c].fetch_add(1, Ordering::SeqCst));
        for (c, count) in counts.iter().enumerate() {
            assert_eq!(count.load(Ordering::SeqCst), 1, "chunk {c}");
        }
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Front-loaded work: chunk 0 is much heavier than the rest. With a
        // contiguous-stripe seed, worker 0 owns the heavy chunk and the
        // other workers must steal to finish the stripe; assert the run
        // completes and (on any scheduler) the results stay correct.
        let pool = Pool::new(4);
        let got = pool.run_chunks(32, |c| {
            if c == 0 {
                // Busy work.
                let mut acc = 0u64;
                for i in 0..2_000_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                (c as u64) + (acc & 1)
            } else {
                c as u64
            }
        });
        for (c, &v) in got.iter().enumerate().skip(1) {
            assert_eq!(v, c as u64);
        }
    }

    #[test]
    fn tree_reduce_shape_is_fixed() {
        // Association: ((0+1)+(2+3)) + (4): verify with a non-associative
        // "combine" that records the tree.
        let items: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let tree = tree_reduce(items, |a, b| format!("({a}+{b})")).unwrap();
        assert_eq!(tree, "(((0+1)+(2+3))+4)");
        assert_eq!(tree_reduce(Vec::<u8>::new(), |a, _| a), None);
    }

    #[test]
    fn map_reduce_sums() {
        let pool = Pool::new(3);
        let total = pool.map_reduce(100, |c| c as u64, |a, b| a + b).unwrap();
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn float_reduction_is_identical_across_thread_counts() {
        // The per-chunk values are products of irrationals whose sum is
        // association-sensitive; the fixed tree must make every thread
        // count agree bitwise.
        let work = |c: usize| ((c as f64) * 0.7310585).sin() * 1.0e-3 + (c as f64).sqrt();
        let reference = tree_reduce(Pool::new(1).run_chunks(777, work), |a, b| a + b).unwrap();
        for threads in [2usize, 3, 5, 8] {
            let got = tree_reduce(Pool::new(threads).run_chunks(777, work), |a, b| a + b).unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn work_can_borrow_caller_state() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let pool = Pool::new(4);
        let sums = pool.run_chunks(10, |c| data[c * 100..(c + 1) * 100].iter().sum::<f64>());
        let total: f64 = sums.iter().sum();
        assert_eq!(total, (0..1000).sum::<i64>() as f64);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        let pool = Pool::new(2);
        pool.run_chunks(8, |c| {
            if c == 5 {
                panic!("worker boom");
            }
            c
        });
    }

    #[test]
    fn workspace_pool_reuses_buffers() {
        let ws = WorkspacePool::new();
        let a = ws.lease_zeroed(64);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&v| v == 0.0));
        assert_eq!(ws.lease_count(), 1);
        assert_eq!(ws.fresh_count(), 1);
        ws.give_back(a);
        assert_eq!(ws.pooled(), 1);
        // Same-size lease reuses the buffer: no fresh allocation.
        let mut b = ws.lease_zeroed(64);
        assert_eq!(ws.lease_count(), 2);
        assert_eq!(ws.fresh_count(), 1);
        b[3] = 7.0;
        ws.give_back(b);
        // The returned buffer comes back zeroed on the next lease.
        let c = ws.lease_zeroed(64);
        assert!(c.iter().all(|&v| v == 0.0));
        ws.give_back(c);
        // Growing past capacity counts as fresh again.
        let d = ws.lease_zeroed(1 << 16);
        assert_eq!(ws.fresh_count(), 2);
        ws.give_back(d);
        // ... after which the large buffer serves small leases for free.
        let e = ws.lease_zeroed(64);
        assert_eq!(ws.fresh_count(), 2);
        ws.give_back(e);
    }

    #[test]
    fn pool_exposes_workspaces() {
        let pool = Pool::new(2);
        let w = pool.workspaces().lease_zeroed(8);
        pool.workspaces().give_back(w);
        assert_eq!(pool.workspaces().lease_count(), 1);
        assert_eq!(pool.workspaces().pooled(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let pool = Pool::new(2);
        pool.run_chunks(4, |c| c);
        pool.run_chunks(4, |c| c);
        assert_eq!(pool.run_count(), 2);
        // Steal count is scheduling-dependent; it must at least be readable.
        let _ = pool.steal_count();
    }
}
