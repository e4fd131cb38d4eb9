//! Executable models of the repo's lock-free primitives.
//!
//! Each model is a two/three-thread distillation of one production
//! protocol, built on the instrumented shim and parameterized by an
//! [`Orderings`] table so the mutation harness can weaken each ordering
//! individually:
//!
//! * `seqlock` — the telemetry cell's sequence-lock: one writer
//!   publishing a two-word gauge snapshot vs. one reader that must never
//!   accept a torn read (`crates/telemetry/src/cell.rs`);
//! * `deque` — the pool's lock-protected chunk deque: owner pushes and
//!   pops front, a thief steals back, every chunk is executed exactly
//!   once (`crates/pool/src/lib.rs`);
//! * `abort_flag` — mpsim's abort protocol: a peer that observes the
//!   flag must also observe the attribution written before it
//!   (`crates/mpsim/src/comm.rs`).
//!
//! The invariants are asserted inside the model threads and in the
//! post-join finale; the vector-clock detector additionally rejects any
//! interleaving with an unsynchronized access to the non-atomic state.

use std::sync::Arc;

use crate::model::{Config, ModelRun, Outcome};
use crate::mutate::{ModelDef, Orderings};
use crate::sync::{fence, AtomicBool, AtomicU64, Ordering, UnsafeCellShim};

/// All three primitive models with their correct ordering tables.
pub fn defs() -> Vec<ModelDef> {
    vec![seqlock(), deque(), abort_flag()]
}

// --- seqlock ----------------------------------------------------------

struct SeqLock {
    o: Orderings,
    seq: AtomicU64,
    d0: AtomicU64,
    d1: AtomicU64,
}

impl ModelRun for SeqLock {
    fn threads(&self) -> usize {
        2
    }

    fn thread(&self, tid: usize) {
        if tid == 0 {
            // Writer: odd/even sequence brackets around the data words.
            self.seq.fetch_add(1, self.o.get("writer-enter"));
            fence(self.o.get("writer-rel-fence"));
            // ordering: data words are Relaxed by design; the release
            // fence above orders them after the odd marker, the Release
            // exit below orders them before the even marker.
            self.d0.store(1, Ordering::Relaxed);
            // ordering: see d0 above — same publication bracket.
            self.d1.store(1, Ordering::Relaxed);
            self.seq.fetch_add(1, self.o.get("writer-exit"));
        } else {
            // Reader: one optimistic attempt; accepting requires the
            // sequence to be even and unchanged across the data reads.
            let s1 = self.seq.load(self.o.get("reader-load1"));
            if s1 % 2 == 1 {
                return;
            }
            // ordering: data reads are Relaxed by design; the acquire
            // fence below orders them before the validating re-read.
            let v0 = self.d0.load(Ordering::Relaxed);
            // ordering: see v0 above — same validation bracket.
            let v1 = self.d1.load(Ordering::Relaxed);
            fence(self.o.get("reader-acq-fence"));
            let s2 = self.seq.load(self.o.get("reader-load2"));
            if s1 == s2 {
                assert_eq!(v0, v1, "seqlock accepted a torn snapshot (d0={v0}, d1={v1}, seq={s1})");
            }
        }
    }

    fn finale(&self) {
        // ordering: post-join reads; the finale clock covers all threads.
        assert_eq!(self.seq.load(Ordering::Relaxed), 2, "writer did not complete its bracket");
        // ordering: post-join read, as above.
        assert_eq!(self.d0.load(Ordering::Relaxed), 1);
        // ordering: post-join read, as above.
        assert_eq!(self.d1.load(Ordering::Relaxed), 1);
    }
}

fn seqlock() -> ModelDef {
    ModelDef {
        name: "seqlock",
        orderings: Orderings::new(&[
            // ordering: the odd marker needs no release of its own — the
            // dedicated release fence after it is what orders the data.
            ("writer-enter", Ordering::Relaxed),
            // ordering: release fence — relaxed data stores below may not
            // become visible before the odd marker.
            ("writer-rel-fence", Ordering::Release),
            // ordering: the even marker publishes the snapshot; readers
            // that acquire it see both data words.
            ("writer-exit", Ordering::Release),
            // ordering: acquiring the first sequence read pins the data
            // reads at or after this snapshot.
            ("reader-load1", Ordering::Acquire),
            // ordering: acquire fence — promotes the relaxed data reads
            // so the validating re-read cannot pass on stale sequence.
            ("reader-acq-fence", Ordering::Acquire),
            // ordering: the re-read needs no acquire of its own; the
            // fence above supplies the ordering.
            ("reader-load2", Ordering::Relaxed),
        ]),
        build: |o| {
            Arc::new(SeqLock {
                o,
                seq: AtomicU64::named(0, "seq"),
                d0: AtomicU64::named(0, "d0"),
                d1: AtomicU64::named(0, "d1"),
            })
        },
    }
}

// --- work-stealing deque ----------------------------------------------

const DEQUE_CHUNKS: u64 = 3;

struct Deque {
    o: Orderings,
    lock: AtomicU64,
    q: UnsafeCellShim<Vec<u64>>,
    taken_owner: UnsafeCellShim<Vec<u64>>,
    taken_thief: UnsafeCellShim<Vec<u64>>,
}

impl Deque {
    fn lock(&self) {
        self.lock.cas_or_block(0, 1, self.o.get("deque-lock-acquire"));
    }

    fn unlock(&self) {
        self.lock.store(0, self.o.get("deque-lock-release"));
    }
}

impl ModelRun for Deque {
    fn threads(&self) -> usize {
        2
    }

    fn thread(&self, tid: usize) {
        if tid == 0 {
            // Owner: push all chunks, then drain from the front.
            for v in 1..=DEQUE_CHUNKS {
                self.lock();
                self.q.with_mut(|q| q.push(v));
                self.unlock();
            }
            loop {
                self.lock();
                let got = self.q.with_mut(|q| if q.is_empty() { None } else { Some(q.remove(0)) });
                self.unlock();
                match got {
                    Some(v) => self.taken_owner.with_mut(|t| t.push(v)),
                    None => break,
                }
            }
        } else {
            // Thief: two steals from the back.
            for _ in 0..2 {
                self.lock();
                let got = self.q.with_mut(Vec::pop);
                self.unlock();
                if let Some(v) = got {
                    self.taken_thief.with_mut(|t| t.push(v));
                }
            }
        }
    }

    fn finale(&self) {
        let mut all = self.taken_owner.with(Vec::clone);
        all.extend(self.taken_thief.with(Vec::clone));
        all.sort_unstable();
        assert_eq!(
            all,
            (1..=DEQUE_CHUNKS).collect::<Vec<_>>(),
            "chunks lost or executed more than once"
        );
        self.q.with(|q| assert!(q.is_empty(), "chunks left in the deque"));
    }
}

fn deque() -> ModelDef {
    ModelDef {
        name: "deque",
        orderings: Orderings::new(&[
            // ordering: taking the lock acquires the previous holder's
            // release, making its deque writes visible.
            ("deque-lock-acquire", Ordering::Acquire),
            // ordering: freeing the lock releases this holder's deque
            // writes to the next taker.
            ("deque-lock-release", Ordering::Release),
        ]),
        build: |o| {
            Arc::new(Deque {
                o,
                lock: AtomicU64::named(0, "deque-lock"),
                q: UnsafeCellShim::named(Vec::new(), "deque"),
                taken_owner: UnsafeCellShim::named(Vec::new(), "taken-owner"),
                taken_thief: UnsafeCellShim::named(Vec::new(), "taken-thief"),
            })
        },
    }
}

// --- abort flag -------------------------------------------------------

struct AbortFlag {
    o: Orderings,
    flag: AtomicBool,
    info: UnsafeCellShim<u64>,
}

impl ModelRun for AbortFlag {
    fn threads(&self) -> usize {
        3
    }

    fn thread(&self, tid: usize) {
        if tid == 0 {
            // Tripper: write the attribution, then raise the flag.
            self.info.with_mut(|i| *i = 42);
            self.flag.store(true, self.o.get("abort-publish"));
        } else {
            // Pollers: a peer that observes the flag must also observe
            // the attribution — the documented AbortState invariant.
            for _ in 0..3 {
                if self.flag.load(self.o.get("abort-poll")) {
                    self.info.with(|i| {
                        assert_eq!(*i, 42, "abort observed without its attribution");
                    });
                    return;
                }
            }
        }
    }

    fn finale(&self) {
        // ordering: post-join read; the finale clock covers all threads.
        assert!(self.flag.load(Ordering::Relaxed), "tripper did not raise the flag");
        self.info.with(|i| assert_eq!(*i, 42));
    }
}

fn abort_flag() -> ModelDef {
    ModelDef {
        name: "abort-flag",
        orderings: Orderings::new(&[
            // ordering: raising the flag releases the attribution write,
            // the invariant `AbortState::trip` documents.
            ("abort-publish", Ordering::Release),
            // ordering: observing the flag acquires the attribution.
            ("abort-poll", Ordering::Acquire),
        ]),
        build: |o| {
            Arc::new(AbortFlag {
                o,
                flag: AtomicBool::named(false, "abort-flag"),
                info: UnsafeCellShim::named(0, "abort-info"),
            })
        },
    }
}

// --- deliberate race demo ---------------------------------------------

struct RacyCounter {
    ctr: UnsafeCellShim<u64>,
}

impl ModelRun for RacyCounter {
    fn threads(&self) -> usize {
        2
    }

    fn thread(&self, _tid: usize) {
        // Classic lost-update: both threads bump the counter with no
        // synchronization at all.
        self.ctr.with_mut(|c| *c += 1);
    }
}

/// Explores a deliberately racy counter; the vector-clock detector must
/// report it. Exists to prove the detector is live, not as a protocol.
pub fn race_demo(cfg: &Config) -> Outcome {
    crate::model::explore("racy-counter-demo", cfg, &|| {
        Arc::new(RacyCounter { ctr: UnsafeCellShim::named(0, "racy-counter") })
    })
}
