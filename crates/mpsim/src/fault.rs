//! symtensor-chaos: deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes which messages to drop or duplicate and
//! (optionally) which rank to crash at which `(phase, round)`. Install it
//! with [`crate::Universe::with_faults`]; the communicator consults the
//! plan on every send and receive. Every injected fault is recorded, once,
//! as a [`crate::CommEventKind::Fault`] event in the rank's log, so a
//! post-mortem dump can distinguish *injected* failures from *organic*
//! ones.
//!
//! Determinism is the whole point: the plan carries a seed for a xorshift
//! PRNG (no ambient entropy anywhere), each rank derives its own stream
//! from `seed ⊕ rank ⊕ attempt`, and one draw is consumed per send — so
//! the same plan against the same algorithm injects the same fault
//! sequence, run after run. A retry layer re-seeds per attempt with
//! [`FaultPlan::for_attempt`] so successive attempts see *different*
//! (still deterministic) faults.
//!
//! With every probability at zero and no crash scheduled, the layer is
//! observationally inert: counters and event logs are bit-identical to a
//! run without the plan installed.

/// A tiny xorshift64* PRNG — deterministic, seedable, no global state.
/// Used for fault decisions only; quality requirements are mild.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator. A zero seed (which xorshift cannot escape) is
    /// remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed } }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Crash a chosen rank at a chosen `(phase, round)`: the first send or
/// receive that rank executes while the phase label and round annotation
/// match panics with an attributable `chaos:` message. Parsed from the CLI
/// syntax `rank@phase:round` by [`CrashSpec::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank to crash.
    pub rank: usize,
    /// Phase label that must be active ([`crate::Comm::with_phase`]).
    pub phase: String,
    /// Round annotation that must be active
    /// ([`crate::Comm::annotate_round`]).
    pub round: u64,
    /// Restrict the crash to one retry attempt (`None` = every attempt).
    /// Recovery tests use `Some(0)` so the first attempt dies and the
    /// retry succeeds.
    pub on_attempt: Option<u32>,
}

impl CrashSpec {
    /// Parses the CLI syntax `rank@phase:round`, e.g. `3@gather-x:2`.
    /// The phase label may itself contain `:` (e.g. `compute:kernel`) —
    /// the round is split off at the *last* colon.
    pub fn parse(s: &str) -> Result<CrashSpec, String> {
        let (rank_s, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("crash spec `{s}`: expected rank@phase:round"))?;
        let (phase, round_s) = rest
            .rsplit_once(':')
            .ok_or_else(|| format!("crash spec `{s}`: expected rank@phase:round"))?;
        let rank = rank_s.parse().map_err(|_| format!("crash spec `{s}`: bad rank `{rank_s}`"))?;
        let round =
            round_s.parse().map_err(|_| format!("crash spec `{s}`: bad round `{round_s}`"))?;
        if phase.is_empty() {
            return Err(format!("crash spec `{s}`: empty phase label"));
        }
        Ok(CrashSpec { rank, phase: phase.to_string(), round, on_attempt: None })
    }
}

/// What the chaos layer did to one message (or rank). Recorded in trace
/// events and flight records so post-mortems can separate injected faults
/// from organic failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The message was silently discarded before reaching the network.
    Drop,
    /// A second, receiver-deduplicated copy was delivered.
    Duplicate,
    /// The rank was crashed at its scheduled `(phase, round)`.
    Crash,
}

impl InjectedFault {
    /// Stable lower-case label used in exported artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            InjectedFault::Drop => "drop",
            InjectedFault::Duplicate => "duplicate",
            InjectedFault::Crash => "crash",
        }
    }
}

/// A deterministic fault-injection plan, installed on a universe with
/// [`crate::Universe::with_faults`]. Cloneable and cheap; each rank
/// derives an independent PRNG stream from the shared seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Master seed for the per-rank PRNG streams.
    pub seed: u64,
    /// Per-message probability of an injected drop.
    pub drop_prob: f64,
    /// Per-message probability of an injected duplicate delivery.
    pub dup_prob: f64,
    /// Deterministic crash of one rank at one `(phase, round)`.
    pub crash: Option<CrashSpec>,
    /// Exact drops: `(rank, nth)` discards the `nth` send (0-based, counted
    /// per rank) regardless of probabilities — the workhorse of the
    /// single-dropped-message property tests.
    pub drop_exact: Vec<(usize, u64)>,
    /// Which retry attempt this plan instance is serving (folded into the
    /// per-rank seeds; see [`FaultPlan::for_attempt`]).
    pub attempt: u32,
}

impl FaultPlan {
    /// A plan with the given seed and no faults — inert until a builder
    /// turns something on.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            crash: None,
            drop_exact: Vec::new(),
            attempt: 0,
        }
    }

    /// Sets the per-message drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0, 1]");
        self.drop_prob = p;
        self
    }

    /// Sets the per-message duplicate probability.
    pub fn with_dup_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate probability must be in [0, 1]");
        self.dup_prob = p;
        self
    }

    /// Schedules a deterministic rank crash.
    pub fn with_crash(mut self, crash: CrashSpec) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Discards `rank`'s `nth` send (0-based) unconditionally.
    pub fn drop_nth_send(mut self, rank: usize, nth: u64) -> Self {
        self.drop_exact.push((rank, nth));
        self
    }

    /// The same plan re-keyed for retry attempt `attempt`: probabilistic
    /// faults draw from fresh streams, and crashes restricted with
    /// [`CrashSpec::on_attempt`] fire only on their attempt.
    pub fn for_attempt(&self, attempt: u32) -> Self {
        let mut plan = self.clone();
        plan.attempt = attempt;
        plan
    }

    /// Whether the plan can inject anything at all on this attempt. When
    /// false the communicator skips per-message bookkeeping entirely, so an
    /// inert plan is observationally identical to no plan.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || !self.drop_exact.is_empty()
            || self.crash.as_ref().is_some_and(|c| c.on_attempt.is_none_or(|a| a == self.attempt))
    }
}

/// What to do with one outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendAction {
    Deliver,
    Drop,
    Duplicate,
}

/// Per-rank chaos state held by the communicator: the plan, this rank's
/// PRNG stream, and a send counter for exact drops.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: XorShift64,
    sends: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, rank: usize) -> Self {
        // Independent per-rank, per-attempt stream from the shared seed.
        let seed = plan.seed
            ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ ((plan.attempt as u64) << 32).wrapping_mul(0xD1B54A32D192ED03);
        FaultState { rng: XorShift64::new(seed), plan, sends: 0 }
    }

    /// One decision per outgoing message: exactly one PRNG draw, plus the
    /// exact-drop list. Deterministic in (seed, rank, attempt, send index).
    pub(crate) fn on_send(&mut self, rank: usize) -> SendAction {
        let nth = self.sends;
        self.sends += 1;
        let u = self.rng.next_f64();
        if self.plan.drop_exact.iter().any(|&(r, n)| r == rank && n == nth) {
            return SendAction::Drop;
        }
        if u < self.plan.drop_prob {
            SendAction::Drop
        } else if u < self.plan.drop_prob + self.plan.dup_prob {
            SendAction::Duplicate
        } else {
            SendAction::Deliver
        }
    }

    /// Whether the scheduled crash fires here and now.
    pub(crate) fn crash_due(
        &self,
        rank: usize,
        phase: Option<&'static str>,
        round: Option<u64>,
    ) -> bool {
        let Some(crash) = &self.plan.crash else { return false };
        crash.rank == rank
            && crash.on_attempt.is_none_or(|a| a == self.plan.attempt)
            && phase == Some(crash.phase.as_str())
            && round == Some(crash.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_escapes_zero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed must be remapped");
        for _ in 0..100 {
            let u = z.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn send_actions_are_deterministic_per_rank_and_attempt() {
        let plan = FaultPlan::seeded(7).with_drop_prob(0.3).with_dup_prob(0.2);
        let actions = |rank: usize, attempt: u32| -> Vec<SendAction> {
            let mut st = FaultState::new(plan.for_attempt(attempt), rank);
            (0..50).map(|_| st.on_send(rank)).collect()
        };
        assert_eq!(actions(0, 0), actions(0, 0), "same stream must replay identically");
        assert_ne!(actions(0, 0), actions(1, 0), "ranks draw from independent streams");
        assert_ne!(actions(0, 0), actions(0, 1), "attempts draw from independent streams");
        assert!(actions(0, 0).contains(&SendAction::Drop), "p=0.3 over 50 sends must drop");
    }

    #[test]
    fn inert_plan_always_delivers() {
        let mut st = FaultState::new(FaultPlan::seeded(9), 3);
        assert!(!st.plan.is_active());
        for _ in 0..100 {
            assert_eq!(st.on_send(3), SendAction::Deliver);
        }
    }

    #[test]
    fn exact_drop_hits_the_nth_send_only() {
        let plan = FaultPlan::seeded(1).drop_nth_send(2, 3);
        assert!(plan.is_active());
        let mut st = FaultState::new(plan, 2);
        let actions: Vec<SendAction> = (0..6).map(|_| st.on_send(2)).collect();
        assert_eq!(actions[3], SendAction::Drop);
        assert_eq!(actions.iter().filter(|&&a| a == SendAction::Drop).count(), 1);
    }

    #[test]
    fn crash_spec_parses_cli_syntax() {
        let spec = CrashSpec::parse("3@gather-x:2").unwrap();
        assert_eq!(
            spec,
            CrashSpec { rank: 3, phase: "gather-x".into(), round: 2, on_attempt: None }
        );
        // Phase labels may contain colons; the round splits at the last one.
        let spec = CrashSpec::parse("0@compute:kernel:5").unwrap();
        assert_eq!(spec.phase, "compute:kernel");
        assert_eq!(spec.round, 5);
        assert!(CrashSpec::parse("nope").is_err());
        assert!(CrashSpec::parse("x@p:1").is_err());
        assert!(CrashSpec::parse("1@p:y").is_err());
        assert!(CrashSpec::parse("1@:2").is_err());
    }

    #[test]
    fn crash_due_matches_phase_round_and_attempt() {
        let spec = CrashSpec { rank: 1, phase: "gather-x".into(), round: 4, on_attempt: Some(1) };
        let plan = FaultPlan::seeded(0).with_crash(spec);
        let st = FaultState::new(plan.for_attempt(1), 1);
        assert!(st.crash_due(1, Some("gather-x"), Some(4)));
        assert!(!st.crash_due(0, Some("gather-x"), Some(4)), "wrong rank");
        assert!(!st.crash_due(1, Some("reduce-y"), Some(4)), "wrong phase");
        assert!(!st.crash_due(1, Some("gather-x"), Some(3)), "wrong round");
        assert!(!st.crash_due(1, None, Some(4)), "no phase active");
        let st0 = FaultState::new(plan.for_attempt(0), 1);
        assert!(!st0.crash_due(1, Some("gather-x"), Some(4)), "restricted to attempt 1");
    }
}
