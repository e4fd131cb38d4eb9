//! The deterministic schedule explorer.
//!
//! Loom-style stateless model checking on real OS threads: exactly one
//! model thread runs at a time (a token handed over under a
//! `Mutex`+`Condvar`), every shim operation is a scheduling point, and
//! every nondeterministic decision — which thread runs next, which store
//! a weak load reads — is recorded on a **trail**. After an execution
//! terminates, the explorer backtracks to the deepest decision with an
//! unexplored alternative and replays the prefix as a **script**,
//! guaranteeing a depth-first enumeration of the whole schedule tree.
//!
//! Three bounding devices keep exploration finite and fast:
//!
//! * **state-hash pruning** — once past the scripted prefix, a state
//!   whose full abstract hash (store histories, clocks, thread locals,
//!   statuses) was already visited freezes the rest of the run to a
//!   single default path; the first visit's subtree already covers every
//!   continuation (64-bit collision caveat: pruning can be disabled);
//! * **preemption bounding** — an optional cap on involuntary context
//!   switches, the classic CHESS-style bound;
//! * **op budget** — a hard per-execution operation cap that converts a
//!   runaway model loop into a reported violation instead of a hang.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::Instant;

use crate::mem::{Memory, Race};

/// Exploration limits. The defaults are sized for the in-repo primitive
/// models (two/three threads, a handful of ops each).
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum involuntary context switches per execution; `None` is
    /// fully exhaustive.
    pub preemption_bound: Option<u32>,
    /// Enable state-hash pruning.
    pub prune: bool,
    /// Hard cap on executions; hitting it sets [`Outcome::capped`].
    pub max_execs: u64,
    /// Hard cap on shim operations per execution.
    pub op_budget: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { preemption_bound: None, prune: true, max_execs: 250_000, op_budget: 4_000 }
    }
}

/// One recorded nondeterministic decision: `chosen` out of `n`
/// alternatives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Number of alternatives at this point.
    pub n: u32,
    /// Index taken.
    pub chosen: u32,
    /// Decision site fingerprint (`tid * 8 + kind`), used to detect
    /// replay drift: a scripted decision replayed at a different site
    /// means the execution is not deterministic and the whole DFS is
    /// invalid.
    pub site: u32,
}

/// Why an execution was rejected.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A model assertion (or any panic in model code) fired.
    Assert(String),
    /// The vector-clock detector found a data race on a non-atomic cell.
    Race {
        /// The racy cell's label.
        cell: String,
        /// The earlier access.
        prior: String,
        /// The racing access.
        access: String,
    },
    /// An execution exceeded [`Config::op_budget`].
    OpBudget(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Assert(m) => write!(f, "assertion failed: {m}"),
            Violation::Race { cell, prior, access } => {
                write!(f, "data race on `{cell}`: {access} races {prior}")
            }
            Violation::OpBudget(m) => write!(f, "op budget exceeded: {m}"),
        }
    }
}

/// Result of exploring one model.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Model name.
    pub name: String,
    /// Distinct complete executions (interleavings) explored.
    pub interleavings: u64,
    /// Executions cut short by state-hash pruning.
    pub pruned: u64,
    /// True when `max_execs` stopped exploration before exhaustion.
    pub capped: bool,
    /// First violation found, if any; `None` means every explored
    /// interleaving satisfied the model's invariants.
    pub violation: Option<Violation>,
    /// The decision trail of the violating execution (for reproduction).
    pub schedule: Vec<Decision>,
    /// Wall time of the exploration.
    pub wall_ms: u64,
}

impl Outcome {
    /// True when exploration finished with no violation.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// One model: fresh shared state per execution, a body per thread, and a
/// post-join finale that asserts the terminal state.
pub trait ModelRun: Send + Sync + 'static {
    /// Number of model threads.
    fn threads(&self) -> usize;
    /// Body of thread `tid`. Runs under the scheduler; every shim op is
    /// a scheduling point. Plain `assert!` failures become
    /// [`Violation::Assert`].
    fn thread(&self, tid: usize);
    /// Runs after all threads joined, with full visibility of the final
    /// state (the pseudo-thread's clock is the join of all threads').
    fn finale(&self) {}
}

#[derive(Clone, Copy, Debug)]
enum TState {
    Ready,
    Done,
}

struct ExecState {
    mem: Memory,
    status: Vec<TState>,
    active: usize,
    announced: usize,
    running: usize,
    done: bool,
    aborting: bool,
    violation: Option<Violation>,
    script: Vec<Decision>,
    cursor: usize,
    trail: Vec<Decision>,
    frozen: bool,
    preemptions: u32,
    ops: u32,
    /// Per-thread executed-op counts: the program-counter proxy folded
    /// into the pruning hash. Two states with equal memory but different
    /// thread progress are NOT the same state.
    thread_ops: Vec<u32>,
    cfg: Config,
    seen: Arc<Mutex<HashSet<u64>>>,
}

struct Shared {
    st: Mutex<ExecState>,
    cv: Condvar,
}

/// Sentinel panic payload used to unwind model threads when an execution
/// aborts; never reported as an assertion failure.
struct AbortToken;

/// Per-thread handle linking shim operations to the active execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    shared: Arc<Shared>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The shim's entry point: `Some` inside a model execution, `None` in
/// passthrough mode.
pub(crate) fn current() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Installs a panic hook (once per process) that silences panics raised
/// inside model threads — expected under mutation testing — while
/// delegating everything else to the previous hook.
fn quiet_model_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if current().is_none() {
                prev(info);
            }
        }));
    });
}

impl ExecState {
    fn enabled(&self, tid: usize) -> bool {
        matches!(self.status[tid], TState::Ready)
    }

    /// Takes (or records) one decision with `n` alternatives at decision
    /// site `site`.
    fn choose(&mut self, n: usize, site: u32) -> usize {
        let d = if self.cursor < self.script.len() {
            let mut d = self.script[self.cursor];
            self.cursor += 1;
            assert_eq!(
                (d.n, d.site),
                (n as u32, site),
                "nondeterministic replay: decision {} drifted",
                self.cursor - 1
            );
            d.site = site;
            d
        } else if self.frozen {
            Decision { n: 1, chosen: 0, site }
        } else {
            Decision { n: n as u32, chosen: 0, site }
        };
        if std::env::var_os("SYMCHECK_TRACE").is_some() {
            eprintln!(
                "  [{}] n={} site={} chosen={}{}",
                self.trail.len(),
                d.n,
                d.site,
                d.chosen,
                if self.cursor > 0 && self.trail.len() < self.script.len() {
                    " (scripted)"
                } else {
                    ""
                }
            );
        }
        self.trail.push(d);
        d.chosen as usize
    }

    /// State-hash pruning: freeze the rest of the run when the full
    /// abstract state has been visited before (fresh territory only).
    fn maybe_prune(&mut self) {
        if !self.cfg.prune || self.frozen || self.cursor < self.script.len() {
            return;
        }
        let mut seed = u64::from(self.preemptions).wrapping_add(1);
        seed = seed.rotate_left(11) ^ (self.active as u64 + 0x9e37);
        for &c in &self.thread_ops {
            seed = seed.rotate_left(13) ^ u64::from(c).wrapping_mul(0x9e3779b97f4a7c15);
        }
        for s in &self.status {
            let code = match s {
                TState::Ready => 1u64,
                TState::Done => 2,
            };
            seed = seed.rotate_left(7) ^ code;
        }
        let h = self.mem.state_hash(seed);
        let mut seen = self.seen.lock().unwrap_or_else(|p| p.into_inner());
        if !seen.insert(h) {
            self.frozen = true;
        }
    }

    /// Picks the next thread to run. `current` is the caller when its
    /// own pending op is a legal continuation. Some thread is always
    /// ready: the caller, or a thread that has not finished.
    fn pick_next(&mut self) -> usize {
        let cur = self.active;
        // Before the first op the initial pick is free: starting with
        // any thread is not a preemption of thread 0.
        let cur_enabled = self.ops > 0 && self.enabled(cur);
        self.maybe_prune();
        let mut alts: Vec<usize> = (0..self.status.len()).filter(|&i| self.enabled(i)).collect();
        if let Some(bound) = self.cfg.preemption_bound {
            if cur_enabled && self.preemptions >= bound {
                alts = vec![cur];
            }
        }
        assert!(!alts.is_empty(), "no ready thread while the execution runs");
        let site = self.active as u32 * 8;
        let k = self.choose(alts.len(), site);
        let next = alts[k];
        if cur_enabled && next != cur {
            self.preemptions += 1;
        }
        self.active = next;
        next
    }
}

impl Ctx {
    fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.shared.st.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn abort(&self, mut st: MutexGuard<'_, ExecState>, v: Violation) -> ! {
        if st.violation.is_none() {
            st.violation = Some(v);
        }
        st.aborting = true;
        self.shared.cv.notify_all();
        drop(st);
        panic::panic_any(AbortToken);
    }

    /// Scheduling point: announce the pending op, pick the next runner,
    /// park until granted. Every op is enabled, so the caller stays ready.
    fn sched(&self) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            panic::panic_any(AbortToken);
        }
        st.ops += 1;
        st.thread_ops[self.tid] += 1;
        if st.ops > st.cfg.op_budget {
            let budget = st.cfg.op_budget;
            self.abort(
                st,
                Violation::OpBudget(format!(
                    "execution exceeded {budget} shim operations (unbounded model loop?)"
                )),
            );
        }
        if st.pick_next() == self.tid {
            return;
        }
        self.shared.cv.notify_all();
        while st.active != self.tid && !st.aborting {
            st = self.shared.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.aborting {
            drop(st);
            panic::panic_any(AbortToken);
        }
    }

    fn race_abort(&self, st: MutexGuard<'_, ExecState>, r: Race) -> ! {
        self.abort(
            st,
            Violation::Race { cell: r.cell.to_string(), prior: r.prior, access: r.access },
        );
    }

    // --- operations called by the sync shim ---------------------------

    pub(crate) fn op_load(&self, addr: usize, init: u64, name: &'static str, ord: Ordering) -> u64 {
        self.sched();
        let mut st = self.lock();
        let loc = st.mem.register_loc(addr, init, name);
        let cands = st.mem.load_candidates(self.tid, loc, ord);
        let site = self.tid as u32 * 8 + 1;
        let k = if cands.len() > 1 { st.choose(cands.len(), site) } else { 0 };
        st.mem.load_from(self.tid, loc, cands[k], ord)
    }

    pub(crate) fn op_store(
        &self,
        addr: usize,
        init: u64,
        name: &'static str,
        val: u64,
        ord: Ordering,
    ) {
        self.sched();
        let mut st = self.lock();
        let loc = st.mem.register_loc(addr, init, name);
        st.mem.store(self.tid, loc, val, ord);
    }

    pub(crate) fn op_rmw(
        &self,
        addr: usize,
        init: u64,
        name: &'static str,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        self.sched();
        let mut st = self.lock();
        let loc = st.mem.register_loc(addr, init, name);
        st.mem.rmw(self.tid, loc, ord, f)
    }

    pub(crate) fn op_cas(
        &self,
        addr: usize,
        init: u64,
        name: &'static str,
        expect: u64,
        new: u64,
        ord: Ordering,
    ) -> (u64, bool) {
        self.sched();
        let mut st = self.lock();
        let loc = st.mem.register_loc(addr, init, name);
        st.mem.cas(self.tid, loc, expect, new, ord)
    }

    pub(crate) fn op_fence(&self, ord: Ordering) {
        self.sched();
        let mut st = self.lock();
        st.mem.fence(self.tid, ord);
    }

    pub(crate) fn op_cell_read(&self, addr: usize, name: &'static str, val_hash: u64) {
        self.sched();
        let mut st = self.lock();
        let cell = st.mem.register_cell(addr, name, val_hash);
        if let Some(r) = st.mem.cell_read(self.tid, cell) {
            self.race_abort(st, r);
        }
        st.mem.note_cell_read(self.tid, val_hash);
    }

    pub(crate) fn op_cell_write_begin(
        &self,
        addr: usize,
        name: &'static str,
        val_hash: u64,
    ) -> usize {
        self.sched();
        let mut st = self.lock();
        let cell = st.mem.register_cell(addr, name, val_hash);
        if let Some(r) = st.mem.cell_write(self.tid, cell) {
            self.race_abort(st, r);
        }
        cell
    }

    pub(crate) fn op_cell_write_end(&self, cell: usize, val_hash: u64) {
        let mut st = self.lock();
        st.mem.set_cell_hash(cell, val_hash);
    }
}

fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked with a non-string payload".to_string()
    }
}

struct FinaleGuard;

impl Drop for FinaleGuard {
    fn drop(&mut self) {
        set_ctx(None);
    }
}

fn run_once(
    cfg: &Config,
    run: &Arc<dyn ModelRun>,
    script: Vec<Decision>,
    seen: &Arc<Mutex<HashSet<u64>>>,
) -> (Vec<Decision>, Option<Violation>, bool) {
    let n = run.threads();
    let shared = Arc::new(Shared {
        st: Mutex::new(ExecState {
            mem: Memory::new(n),
            // Slot `n` is the finale pseudo-thread: Done until the
            // finale phase so the scheduler never picks it early.
            status: (0..=n).map(|i| if i < n { TState::Ready } else { TState::Done }).collect(),
            // `active` starts on the finale pseudo-slot so that *no*
            // model thread's park condition (`active == tid`) holds
            // until the initial pick below grants the token. Starting at
            // 0 would let thread 0 skip the park and race the scheduler.
            active: n,
            announced: 0,
            running: n,
            done: false,
            aborting: false,
            violation: None,
            script,
            cursor: 0,
            trail: Vec::new(),
            frozen: false,
            preemptions: 0,
            ops: 0,
            thread_ops: vec![0; n + 1],
            cfg: cfg.clone(),
            seen: Arc::clone(seen),
        }),
        cv: Condvar::new(),
    });

    let handles: Vec<_> = (0..n)
        .map(|tid| {
            let shared = Arc::clone(&shared);
            let run = Arc::clone(run);
            std::thread::spawn(move || {
                let ctx = Ctx { shared: Arc::clone(&shared), tid };
                set_ctx(Some(ctx.clone()));
                // Announce and park until the scheduler grants the token.
                {
                    let mut st = ctx.lock();
                    st.announced += 1;
                    shared.cv.notify_all();
                    while st.active != tid && !st.aborting {
                        st = shared.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                    }
                    if st.aborting {
                        drop(st);
                        panic::panic_any(AbortToken);
                    }
                }
                let r = panic::catch_unwind(AssertUnwindSafe(|| run.thread(tid)));
                match r {
                    Ok(()) => {
                        // Retire and hand the token onward.
                        let mut st = ctx.lock();
                        st.status[tid] = TState::Done;
                        st.running -= 1;
                        if st.running == 0 {
                            st.done = true;
                            shared.cv.notify_all();
                            return;
                        }
                        st.pick_next();
                        shared.cv.notify_all();
                    }
                    Err(p) => {
                        if p.downcast_ref::<AbortToken>().is_some() {
                            return;
                        }
                        let msg = payload_msg(p.as_ref());
                        let st = ctx.lock();
                        ctx.abort(st, Violation::Assert(msg));
                    }
                }
            })
        })
        .collect();

    // Wait for all threads to announce, then make the initial pick.
    {
        let mut st = shared.st.lock().unwrap_or_else(|p| p.into_inner());
        while st.announced < n {
            st = shared.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        // `active` is the finale pseudo-slot here, and `ops == 0` keeps
        // pick_next from consulting it, so the first choice is a free
        // pick among all (Ready) model threads.
        st.pick_next();
        shared.cv.notify_all();
        while !st.done && !st.aborting {
            st = shared.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
    for h in handles {
        let _ = h.join();
    }

    let mut violation = {
        let st = shared.st.lock().unwrap_or_else(|p| p.into_inner());
        st.violation.clone()
    };

    // Finale: runs on this thread as pseudo-thread `n` with join edges
    // from every model thread.
    if violation.is_none() {
        let ctx = Ctx { shared: Arc::clone(&shared), tid: n };
        {
            let mut st = ctx.lock();
            st.status[n] = TState::Ready;
            st.active = n;
            st.mem.begin_finale(n);
        }
        set_ctx(Some(ctx));
        let _guard = FinaleGuard;
        let r = panic::catch_unwind(AssertUnwindSafe(|| run.finale()));
        drop(_guard);
        if let Err(p) = r {
            let st = shared.st.lock().unwrap_or_else(|pe| pe.into_inner());
            violation = st.violation.clone();
            drop(st);
            if violation.is_none() && p.downcast_ref::<AbortToken>().is_none() {
                violation = Some(Violation::Assert(payload_msg(p.as_ref())));
            }
        }
    }

    let st = shared.st.lock().unwrap_or_else(|p| p.into_inner());
    (st.trail.clone(), violation, st.frozen)
}

/// Depth-first exploration of every schedule of `mk`'s model under
/// `cfg`. `mk` is called once per execution and must return fresh state.
pub fn explore(name: &str, cfg: &Config, mk: &dyn Fn() -> Arc<dyn ModelRun>) -> Outcome {
    quiet_model_panics();
    let start = Instant::now();
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let mut script: Vec<Decision> = Vec::new();
    let mut interleavings = 0u64;
    let mut pruned = 0u64;
    let mut capped = false;

    loop {
        if std::env::var_os("SYMCHECK_TRACE").is_some() {
            eprintln!(
                "=== exec {} script={:?}",
                interleavings,
                script.iter().map(|d| (d.n, d.site, d.chosen)).collect::<Vec<_>>()
            );
        }
        let run = mk();
        let (trail, violation, frozen) = run_once(cfg, &run, script.clone(), &seen);
        interleavings += 1;
        if frozen {
            pruned += 1;
        }
        if violation.is_some() {
            return Outcome {
                name: name.to_string(),
                interleavings,
                pruned,
                capped,
                violation,
                schedule: trail,
                wall_ms: start.elapsed().as_millis() as u64,
            };
        }
        // Backtrack: deepest decision with an unexplored alternative.
        let next = (0..trail.len()).rev().find(|&i| trail[i].chosen + 1 < trail[i].n);
        match next {
            None => break,
            Some(i) => {
                script = trail[..i].to_vec();
                script.push(Decision {
                    n: trail[i].n,
                    chosen: trail[i].chosen + 1,
                    site: trail[i].site,
                });
            }
        }
        if interleavings >= cfg.max_execs {
            capped = true;
            break;
        }
    }

    Outcome {
        name: name.to_string(),
        interleavings,
        pruned,
        capped,
        violation: None,
        schedule: Vec::new(),
        wall_ms: start.elapsed().as_millis() as u64,
    }
}
