//! The acceptance witness for the compiled-plan steady state: after
//! `compile()` and one warm-up iteration, every comm-free plan step
//! (`load_shards` → pack → unpack → `compute` → `extract_into`) performs
//! **zero heap allocations**, measured by a counting global allocator.
//!
//! The simulated transport's inbox queues are excluded by construction —
//! this test drives the plan's own state machine directly, standing in for
//! both exchange phases with length-matched pack/unpack pairs (a
//! `Gather`-pack produces exactly the words a `Reduce`-unpack consumes and
//! vice versa), so the measured region contains only algorithm work.
//!
//! This file intentionally holds a single `#[test]`: the counting
//! allocator is process-global, and a lone test per binary keeps the
//! measured window free of concurrent test-harness allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symtensor_core::generate::random_symmetric;
use symtensor_mpsim::{CommEvent, CommEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use symtensor_parallel::blocks::OwnedBlocks;
use symtensor_parallel::plan::ExchangeKind;
use symtensor_parallel::{PlanWorkspace, RankPlan, TetraPartition};
use symtensor_steiner::spherical;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// One full iteration's worth of comm-free plan steps on `plan`/`ws`.
fn iteration(
    plan: &RankPlan,
    ws: &mut PlanWorkspace,
    batch: usize,
    shards: &[Vec<Vec<f64>>],
    out: &mut [Vec<Vec<f64>>],
) -> u64 {
    for (v, sh) in shards.iter().enumerate() {
        plan.load_shards(ws, v, sh);
    }
    // Gather phase stand-in: what I pack for a peer in `Reduce` layout has
    // exactly the piece lengths their gather message to me carries.
    for pidx in 0..plan.peers().len() {
        let buf = plan.pack(ws, ExchangeKind::Gather, pidx, batch);
        ws.give_back(buf);
        let incoming = plan.pack(ws, ExchangeKind::Reduce, pidx, batch);
        plan.unpack(ws, ExchangeKind::Gather, pidx, batch, incoming);
    }
    let ternary = plan.compute(ws, batch, None);
    // Reduce phase stand-in, mirrored.
    for pidx in 0..plan.peers().len() {
        let buf = plan.pack(ws, ExchangeKind::Reduce, pidx, batch);
        ws.give_back(buf);
        let incoming = plan.pack(ws, ExchangeKind::Gather, pidx, batch);
        plan.unpack(ws, ExchangeKind::Reduce, pidx, batch, incoming);
    }
    for (v, slot) in out.iter_mut().enumerate() {
        plan.extract_into(ws, v, slot);
    }
    ternary
}

#[test]
fn steady_state_sttsv_performs_zero_heap_allocations() {
    let n = 30;
    let batch = 2;
    let part = TetraPartition::new(spherical(2), n).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let tensor = random_symmetric(n, &mut rng);

    for rank in [0, part.num_procs() / 2, part.num_procs() - 1] {
        let rp = part.r_set(rank);
        let owned = OwnedBlocks::extract(&tensor, &part, rank);
        let plan = RankPlan::build(&part, &owned, rank);
        let mut ws = PlanWorkspace::new();
        plan.ensure_capacity(&mut ws, batch);

        let shards: Vec<Vec<Vec<f64>>> = (0..batch)
            .map(|_| {
                rp.iter()
                    .map(|&i| {
                        (0..part.shard_range(i, rank).len())
                            .map(|_| rng.gen::<f64>() - 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Output shard vectors are reused across iterations; the warm-up
        // sizes them once.
        let mut out: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); rp.len()]; batch];

        // Warm-up: promotes every message buffer to the global target and
        // sizes the output shards.
        let warm = iteration(&plan, &mut ws, batch, &shards, &mut out);
        let fresh_after_warmup = ws.fresh_allocs();

        // Steady state: zero heap allocations and a flat fresh counter.
        // (The synthetic exchange feeds the evolving `y` slab back in as
        // peer input, so output *values* evolve by design; bit-stability
        // of the real pipeline is pinned by the plan_equivalence and HOPM
        // tests.)
        let before = allocs();
        for _ in 0..3 {
            let ternary = iteration(&plan, &mut ws, batch, &shards, &mut out);
            assert_eq!(ternary, warm, "exact ternary count is iteration-invariant");
        }
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "rank {rank}: steady-state plan steps must not touch the heap"
        );
        assert_eq!(ws.fresh_allocs(), fresh_after_warmup, "no buffer growth after warm-up");
        assert!(out.iter().flatten().flatten().all(|v| v.is_finite()));
    }

    // The always-on flight recorder shares the steady state's zero-alloc
    // contract: once constructed, recording never touches the heap — not
    // even when the ring wraps and starts evicting — and neither does
    // handing the log over at exit. Ten and a third rings' worth of
    // records into the default 80 KiB ring exercise the fill and the wrap
    // regimes and leave the write head mid-ring, so the by-value
    // conversion has a real rotation to do.
    let cap = DEFAULT_FLIGHT_CAPACITY;
    assert!(cap * std::mem::size_of::<CommEvent>() <= 80 * 1024, "ring exceeds 80 KiB");
    let total = 10 * cap as u64 + cap as u64 / 3;
    let mut rec = FlightRecorder::new(cap);
    let epoch = std::time::Instant::now();
    let before = allocs();
    for i in 0..total {
        // The tag carries the record's sequence number.
        let kind = if i % 2 == 0 {
            CommEventKind::Send { dst: (i % 5) as usize, tag: i, words: 6 }
        } else {
            CommEventKind::Recv { src: (i % 5) as usize, tag: i, words: 6 }
        };
        rec.record(epoch, Some("gather-x"), Some(i % 7), (i % 3 == 0).then_some(i), kind);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "flight recording must not touch the heap");
    let before = allocs();
    let snap = rec.into_snapshot(0);
    assert_eq!(allocs() - before, 0, "converting the ring by value must not touch the heap");
    assert_eq!(snap.events.len(), cap, "the ring retains exactly its capacity");
    assert_eq!(snap.overhead.recorded, total);
    assert_eq!(snap.overhead.dropped, total - cap as u64);
    // Oldest first: exactly the last `cap` records, in recording order.
    let tags: Vec<u64> = snap
        .events
        .iter()
        .map(|e| match e.kind {
            CommEventKind::Send { tag, .. } | CommEventKind::Recv { tag, .. } => tag,
            other => panic!("unexpected record {other:?}"),
        })
        .collect();
    assert!(tags.iter().copied().eq(total - cap as u64..total), "chronological order");
    assert!(snap.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
}
