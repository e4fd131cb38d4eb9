//! The explorer's abstract memory: per-location store histories with
//! release clocks, per-thread vector clocks, and the FastTrack-style
//! metadata behind the non-atomic race detector.
//!
//! The model is a pragmatic operational fragment of the C11 memory model,
//! chosen so that every behaviour it *admits* is admitted by C11 for the
//! orderings in question, and so that the classic fence disciplines
//! (seqlock, epoch reset, flag publication) verify exactly when they are
//! written correctly:
//!
//! * every atomic location keeps its full **store history**; a load may
//!   read any store that is neither older than what the thread has already
//!   observed for that location (coherence) nor overwritten by a store
//!   that happens-before the load;
//! * `Release` stores (and relaxed stores issued after a `Release` fence)
//!   carry the writer's **vector clock**; `Acquire` loads join it,
//!   `Relaxed` loads stash it until an `Acquire` fence;
//! * read-modify-writes always read the newest store (RMW atomicity);
//! * modification order is the order stores are executed in (a
//!   simplification: it forbids a store being placed *earlier* in
//!   modification order, which only removes behaviours);
//! * `SeqCst` is modelled as "AcqRel + reads the newest store" — stronger
//!   than C11's total order, which is fine for a checker whose job is to
//!   catch orderings that are *too weak*, and none of the checked
//!   primitives rely on SeqCst-only subtleties.

use std::sync::atomic::Ordering;

/// A vector clock over the execution's model threads (plus the finale
/// pseudo-thread).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Vc(pub Vec<u32>);

impl Vc {
    /// The zero clock for `n` threads.
    pub fn new(n: usize) -> Self {
        Vc(vec![0; n])
    }

    /// Pointwise maximum (the happens-before join).
    pub fn join(&mut self, other: &Vc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Whether component `tid` is at least `clock` (the event `(tid,
    /// clock)` happens-before a thread holding this clock).
    pub fn covers(&self, tid: usize, clock: u32) -> bool {
        self.0.get(tid).is_some_and(|&c| c >= clock)
    }
}

/// One store in a location's history.
#[derive(Clone, Debug)]
pub struct Store {
    /// The stored value.
    pub val: u64,
    /// Position in modification order (history index).
    pub pos: usize,
    /// The writing thread, `None` for the initial value.
    pub writer: Option<usize>,
    /// The writer's own clock component at the store.
    pub writer_clock: u32,
    /// The clock an acquire reader of this store synchronizes with:
    /// the writer's full clock for `Release`-or-stronger stores, the
    /// writer's last `Release`-fence clock for relaxed stores after a
    /// release fence, `None` for plain relaxed stores.
    pub rel_vc: Option<Vc>,
}

/// One atomic location: a name for traces plus the store history.
#[derive(Clone, Debug)]
pub struct Loc {
    /// Model-assigned label (the shim's `named` constructor), for traces.
    pub name: &'static str,
    /// All stores, in modification order. Index 0 is the initial value.
    pub stores: Vec<Store>,
}

/// Read/write metadata for one non-atomic [`crate::sync::UnsafeCellShim`].
#[derive(Clone, Debug)]
pub struct CellMeta {
    /// Label for race reports.
    pub name: &'static str,
    /// Last write, as `(thread, clock)`.
    pub last_write: Option<(usize, u32)>,
    /// Per-thread clock of each thread's latest read.
    pub read_vc: Vc,
    /// Hash of the current value (fed into state hashing so pruning
    /// cannot merge states whose non-atomic data differs).
    pub val_hash: u64,
}

/// Per-thread view of the abstract memory.
#[derive(Clone, Debug)]
pub struct ThreadMem {
    /// The thread's vector clock.
    pub vc: Vc,
    /// Per-location history index of the newest store this thread has
    /// read or written (coherence floor).
    pub last_seen: Vec<usize>,
    /// Release clocks picked up by relaxed loads, pending an `Acquire`
    /// fence.
    pub acq_stash: Vc,
    /// The thread's clock at its last `Release` fence, if any.
    pub rel_fence: Option<Vc>,
    /// Rolling hash of every value this thread has read (captures the
    /// thread's locals for state hashing).
    pub read_hist: u64,
}

/// A data race found by the vector-clock detector.
#[derive(Clone, Debug)]
pub struct Race {
    /// The racy cell's label.
    pub cell: &'static str,
    /// Description of the earlier access.
    pub prior: String,
    /// Description of the access that raced it.
    pub access: String,
}

/// The whole abstract memory for one execution.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Atomic locations, indexed by registration order.
    pub locs: Vec<Loc>,
    /// Non-atomic cells, indexed by registration order.
    pub cells: Vec<CellMeta>,
    threads: Vec<ThreadMem>,
    addr_locs: Vec<(usize, usize)>,
    addr_cells: Vec<(usize, usize)>,
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix64 finalizer — cheap, well distributed, dependency-free.
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn ord_code(ord: Ordering) -> u64 {
    match ord {
        Ordering::Relaxed => 0,
        Ordering::Acquire => 1,
        Ordering::Release => 2,
        Ordering::AcqRel => 3,
        Ordering::SeqCst => 4,
        _ => 5,
    }
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Memory {
    /// Fresh memory for an execution with `threads` model threads (the
    /// finale pseudo-thread is `threads`, hence `+ 1` clock components).
    pub fn new(threads: usize) -> Self {
        let n = threads + 1;
        Memory {
            locs: Vec::new(),
            cells: Vec::new(),
            threads: (0..n)
                .map(|_| ThreadMem {
                    vc: Vc::new(n),
                    last_seen: Vec::new(),
                    acq_stash: Vc::new(n),
                    rel_fence: None,
                    read_hist: 0,
                })
                .collect(),
            addr_locs: Vec::new(),
            addr_cells: Vec::new(),
        }
    }

    /// Interns the atomic at `addr`, seeding its history with `initial`.
    pub fn register_loc(&mut self, addr: usize, initial: u64, name: &'static str) -> usize {
        if let Some(&(_, id)) = self.addr_locs.iter().find(|(a, _)| *a == addr) {
            return id;
        }
        let id = self.locs.len();
        self.locs.push(Loc {
            name,
            stores: vec![Store {
                val: initial,
                pos: 0,
                writer: None,
                writer_clock: 0,
                rel_vc: None,
            }],
        });
        self.addr_locs.push((addr, id));
        for t in &mut self.threads {
            t.last_seen.resize(self.locs.len(), 0);
        }
        id
    }

    /// Interns the non-atomic cell at `addr`.
    pub fn register_cell(&mut self, addr: usize, name: &'static str, val_hash: u64) -> usize {
        if let Some(&(_, id)) = self.addr_cells.iter().find(|(a, _)| *a == addr) {
            return id;
        }
        let id = self.cells.len();
        let n = self.threads.len();
        self.cells.push(CellMeta { name, last_write: None, read_vc: Vc::new(n), val_hash });
        self.addr_cells.push((addr, id));
        id
    }

    /// The newest value of location `loc` (what an RMW would read).
    pub fn latest(&self, loc: usize) -> u64 {
        self.locs[loc].stores.last().expect("history never empty").val
    }

    /// History indices a load of `loc` by `tid` with `ord` may read from,
    /// oldest candidate first. Always non-empty (the newest store is
    /// always readable).
    pub fn load_candidates(&self, tid: usize, loc: usize, ord: Ordering) -> Vec<usize> {
        let stores = &self.locs[loc].stores;
        if matches!(ord, Ordering::SeqCst) {
            return vec![stores.len() - 1];
        }
        let t = &self.threads[tid];
        let mut floor = t.last_seen[loc];
        for s in stores {
            // A store that happens-before the load forbids reading
            // anything older than it.
            let hb = match s.writer {
                None => true,
                Some(w) => w == tid || t.vc.covers(w, s.writer_clock),
            };
            if hb {
                floor = floor.max(s.pos);
            }
        }
        (floor..stores.len()).collect()
    }

    /// Executes the read of candidate `pos` of `loc`, applying coherence
    /// and synchronization. Returns the value read.
    pub fn load_from(&mut self, tid: usize, loc: usize, pos: usize, ord: Ordering) -> u64 {
        let (val, rel_vc) = {
            let s = &self.locs[loc].stores[pos];
            (s.val, s.rel_vc.clone())
        };
        let t = &mut self.threads[tid];
        t.last_seen[loc] = t.last_seen[loc].max(pos);
        if let Some(rel) = rel_vc {
            if is_acquire(ord) {
                t.vc.join(&rel);
            } else {
                t.acq_stash.join(&rel);
            }
        }
        t.read_hist = mix(t.read_hist, mix(val, loc as u64));
        val
    }

    /// Appends a store of `val` to `loc` by `tid` with `ord`.
    pub fn store(&mut self, tid: usize, loc: usize, val: u64, ord: Ordering) {
        self.bump(tid);
        let t = &self.threads[tid];
        let rel_vc = if is_release(ord) {
            let mut vc = t.vc.clone();
            if let Some(f) = &t.rel_fence {
                vc.join(f);
            }
            Some(vc)
        } else {
            t.rel_fence.clone()
        };
        let pos = self.locs[loc].stores.len();
        let clock = t.vc.0[tid];
        self.locs[loc].stores.push(Store {
            val,
            pos,
            writer: Some(tid),
            writer_clock: clock,
            rel_vc,
        });
        self.threads[tid].last_seen[loc] = pos;
    }

    /// An atomic read-modify-write: reads the newest store (RMW
    /// atomicity), applies `f`, appends the result. Returns the old value.
    pub fn rmw(
        &mut self,
        tid: usize,
        loc: usize,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let pos = self.locs[loc].stores.len() - 1;
        let old = self.load_from(tid, loc, pos, ord);
        self.store(tid, loc, f(old), ord);
        old
    }

    /// `compare_exchange`: RMW when the newest value equals `expect`, a
    /// plain newest-store load otherwise. Returns `(old, succeeded)`.
    pub fn cas(
        &mut self,
        tid: usize,
        loc: usize,
        expect: u64,
        new: u64,
        ord: Ordering,
    ) -> (u64, bool) {
        if self.latest(loc) == expect {
            (self.rmw(tid, loc, ord, |_| new), true)
        } else {
            let pos = self.locs[loc].stores.len() - 1;
            // Failed CAS is a load; acquire semantics at most.
            let fail_ord = if is_acquire(ord) { Ordering::Acquire } else { Ordering::Relaxed };
            (self.load_from(tid, loc, pos, fail_ord), false)
        }
    }

    /// A memory fence. `Relaxed` is a no-op (the mutation harness uses it
    /// as the "fence removed" state).
    pub fn fence(&mut self, tid: usize, ord: Ordering) {
        let t = &mut self.threads[tid];
        if is_acquire(ord) {
            let stash = t.acq_stash.clone();
            t.vc.join(&stash);
        }
        if is_release(ord) {
            let mut vc = t.vc.clone();
            if let Some(f) = &t.rel_fence {
                vc.join(f);
            }
            t.rel_fence = Some(vc);
        }
    }

    /// Race-checks a non-atomic read of cell `cell` by `tid`.
    pub fn cell_read(&mut self, tid: usize, cell: usize) -> Option<Race> {
        self.bump(tid);
        let t_vc = self.threads[tid].vc.clone();
        let c = &mut self.cells[cell];
        let race = c.last_write.and_then(|(w, clock)| {
            if w != tid && !t_vc.covers(w, clock) {
                Some(Race {
                    cell: c.name,
                    prior: format!("write by thread {w} (clock {clock})"),
                    access: format!("unsynchronized read by thread {tid}"),
                })
            } else {
                None
            }
        });
        c.read_vc.0[tid] = self.threads[tid].vc.0[tid];
        race
    }

    /// Race-checks a non-atomic write of cell `cell` by `tid`.
    pub fn cell_write(&mut self, tid: usize, cell: usize) -> Option<Race> {
        self.bump(tid);
        let t_vc = self.threads[tid].vc.clone();
        let c = &mut self.cells[cell];
        if let Some((w, clock)) = c.last_write {
            if w != tid && !t_vc.covers(w, clock) {
                return Some(Race {
                    cell: c.name,
                    prior: format!("write by thread {w} (clock {clock})"),
                    access: format!("unsynchronized write by thread {tid}"),
                });
            }
        }
        for (r, &clock) in c.read_vc.0.iter().enumerate() {
            if r != tid && clock > 0 && !t_vc.covers(r, clock) {
                return Some(Race {
                    cell: c.name,
                    prior: format!("read by thread {r} (clock {clock})"),
                    access: format!("unsynchronized write by thread {tid}"),
                });
            }
        }
        c.last_write = Some((tid, self.threads[tid].vc.0[tid]));
        c.read_vc = Vc::new(self.threads.len());
        c.val_hash = 0; // refreshed by the shim after the closure runs
        None
    }

    /// Records the post-write value hash of `cell` (state-hash input).
    pub fn set_cell_hash(&mut self, cell: usize, h: u64) {
        self.cells[cell].val_hash = h;
    }

    /// Folds the value a thread read from a cell into its local-state
    /// hash.
    pub fn note_cell_read(&mut self, tid: usize, h: u64) {
        let t = &mut self.threads[tid];
        t.read_hist = mix(t.read_hist, h);
    }

    /// Joins every model thread's clock into the finale pseudo-thread
    /// (`thread::join` edges), so finale reads see the final state and
    /// race-check clean.
    pub fn begin_finale(&mut self, finale_tid: usize) {
        let mut vc = self.threads[finale_tid].vc.clone();
        for t in &self.threads {
            vc.join(&t.vc);
        }
        self.threads[finale_tid].vc = vc;
    }

    fn bump(&mut self, tid: usize) {
        self.threads[tid].vc.0[tid] += 1;
    }

    /// Hashes the complete abstract state (histories, clocks, coherence
    /// floors, stashes, cell metadata, per-thread read histories). Two
    /// equal hashes ⇒ the continuations are identical, which is what
    /// makes prefix pruning sound (modulo the usual 64-bit collision
    /// caveat — pruning can be disabled per model).
    pub fn state_hash(&self, seed: u64) -> u64 {
        let mut h = seed;
        for loc in &self.locs {
            h = mix(h, loc.stores.len() as u64);
            for s in &loc.stores {
                h = mix(h, s.val);
                h = mix(h, s.writer.map_or(u64::MAX, |w| w as u64));
                h = mix(h, s.writer_clock as u64);
                match &s.rel_vc {
                    None => h = mix(h, 0x5eed),
                    Some(vc) => {
                        for &c in &vc.0 {
                            h = mix(h, c as u64);
                        }
                    }
                }
            }
        }
        for t in &self.threads {
            for &c in &t.vc.0 {
                h = mix(h, c as u64);
            }
            for &s in &t.last_seen {
                h = mix(h, s as u64);
            }
            for &c in &t.acq_stash.0 {
                h = mix(h, c as u64);
            }
            match &t.rel_fence {
                None => h = mix(h, 0xfe4ce),
                Some(vc) => {
                    for &c in &vc.0 {
                        h = mix(h, c as u64);
                    }
                }
            }
            h = mix(h, t.read_hist);
        }
        for c in &self.cells {
            h = mix(h, c.val_hash);
            h = mix(h, c.last_write.map_or(u64::MAX, |(w, cl)| ((w as u64) << 32) | cl as u64));
            for &r in &c.read_vc.0 {
                h = mix(h, r as u64);
            }
        }
        h
    }

    /// Hash of an ordering for op fingerprints.
    pub fn ord_hash(ord: Ordering) -> u64 {
        ord_code(ord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_loads_may_read_stale_but_coherence_holds() {
        let mut m = Memory::new(2);
        let l = m.register_loc(0x10, 0, "x");
        m.store(0, l, 1, Ordering::Relaxed);
        m.store(0, l, 2, Ordering::Relaxed);
        // Thread 1 has no ordering with thread 0: all three stores are
        // candidates.
        assert_eq!(m.load_candidates(1, l, Ordering::Relaxed), vec![0, 1, 2]);
        // Reading the middle store moves the coherence floor.
        m.load_from(1, l, 1, Ordering::Relaxed);
        assert_eq!(m.load_candidates(1, l, Ordering::Relaxed), vec![1, 2]);
        // The writer always reads its own newest store.
        assert_eq!(m.load_candidates(0, l, Ordering::Relaxed), vec![2]);
    }

    #[test]
    fn acquire_of_a_release_store_forces_freshness_elsewhere() {
        let mut m = Memory::new(2);
        let data = m.register_loc(0x10, 0, "data");
        let flag = m.register_loc(0x20, 0, "flag");
        m.store(0, data, 7, Ordering::Relaxed);
        m.store(0, flag, 1, Ordering::Release);
        // Thread 1 acquires the flag: the data store now happens-before
        // any later load, so the stale initial value is no longer
        // readable.
        let c = m.load_candidates(1, flag, Ordering::Acquire);
        m.load_from(1, flag, *c.last().expect("non-empty"), Ordering::Acquire);
        assert_eq!(m.load_candidates(1, data, Ordering::Relaxed), vec![1]);
    }

    #[test]
    fn relaxed_read_plus_acquire_fence_synchronizes() {
        let mut m = Memory::new(2);
        let data = m.register_loc(0x10, 0, "data");
        let flag = m.register_loc(0x20, 0, "flag");
        m.store(0, data, 7, Ordering::Relaxed);
        m.store(0, flag, 1, Ordering::Release);
        let c = m.load_candidates(1, flag, Ordering::Relaxed);
        m.load_from(1, flag, *c.last().expect("non-empty"), Ordering::Relaxed);
        // Without the fence the stale data value is still readable…
        assert_eq!(m.load_candidates(1, data, Ordering::Relaxed), vec![0, 1]);
        // …after an acquire fence it is not.
        m.fence(1, Ordering::Acquire);
        assert_eq!(m.load_candidates(1, data, Ordering::Relaxed), vec![1]);
    }

    #[test]
    fn release_fence_makes_later_relaxed_stores_carry_the_clock() {
        let mut m = Memory::new(2);
        let data = m.register_loc(0x10, 0, "data");
        let flag = m.register_loc(0x20, 0, "flag");
        m.store(0, data, 7, Ordering::Relaxed);
        m.fence(0, Ordering::Release);
        m.store(0, flag, 1, Ordering::Relaxed);
        let c = m.load_candidates(1, flag, Ordering::Acquire);
        m.load_from(1, flag, *c.last().expect("non-empty"), Ordering::Acquire);
        assert_eq!(m.load_candidates(1, data, Ordering::Relaxed), vec![1]);
    }

    #[test]
    fn rmw_reads_newest_and_unsynchronized_cells_race() {
        let mut m = Memory::new(2);
        let l = m.register_loc(0x10, 5, "ctr");
        m.store(0, l, 9, Ordering::Relaxed);
        assert_eq!(m.rmw(1, l, Ordering::Relaxed, |v| v + 1), 9);
        assert_eq!(m.latest(l), 10);

        let c = m.register_cell(0x30, "cell", 0);
        assert!(m.cell_write(0, c).is_none());
        let race = m.cell_write(1, c).expect("unsynchronized write-write races");
        assert_eq!(race.cell, "cell");
    }
}
