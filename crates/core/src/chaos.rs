//! Fault-injection campaigns: the chaos client loop with retry/backoff.
//!
//! The paper's client (§4.4) fires transactions at a fixed rate and simply
//! counts what comes back; a lost transaction is a lost transaction. This
//! module extends that client for fault campaigns: a declarative
//! [`FaultPlan`](coconut_simnet::FaultPlan) is replayed in virtual-time
//! order while the schedule runs, and the client re-sends transactions that
//! were rejected at ingress or missed their finalization timeout — bounded
//! retries with exponential backoff and seeded jitter, so runs stay
//! deterministic per seed.
//!
//! Number-of-transactions accounting separates the failure modes the paper
//! lumps together: [`DeliveryAccounting`] splits unconfirmed transactions
//! into `rejected` (the system said no and retries ran out), `timed_out`
//! (accepted but never confirmed), `lost_in_fault` (the submission itself
//! was swallowed by an active loss burst), `backpressured` (the system
//! answered `Busy` and the client gave up or was held off), and `unsent`
//! (the send slot fell outside the listen window).
//!
//! For overload campaigns the client can additionally arm
//! [`ClientProtection`]: a [`RetryBudget`] token bucket bounding total
//! re-sends, a [`CircuitBreaker`] that stops hammering a system answering
//! `Busy`, and an optional [`AimdPolicy`] rate controller. All three are
//! seeded-deterministic; with [`ClientProtection::disabled`] the loop is
//! bit-identical to the unprotected client.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use coconut_chains::BlockchainSystem;
use coconut_consensus::{LivenessReport, SafetyReport};
use coconut_simnet::{ByzantineBehaviour, FaultEvent, FaultPlan, FaultScheduler};
use coconut_types::{SeedDeriver, SimDuration, SimRng, SimTime, TxId};

use crate::client::{build_schedule, ScheduledTx};
use crate::runner::BenchmarkSpec;
use crate::stats::percentile;

/// Bounded retry with exponential backoff and seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-sends allowed per transaction (0 disables retrying).
    pub max_retries: u32,
    /// How long the client waits for a confirmation before concluding the
    /// transaction is lost and re-sending it.
    pub finalization_timeout: SimDuration,
    /// Backoff before retry `k` is `base_backoff * 2^(k−1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: SimDuration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: SimDuration,
    /// Jitter fraction: a seeded uniform draw in `[0, jitter)` of the
    /// backoff is added so retry bursts decorrelate across threads.
    pub jitter: f64,
}

impl RetryPolicy {
    /// No retries, no timeout tracking — the paper's fire-and-forget client.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            finalization_timeout: SimDuration::from_secs(3600),
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// The chaos-suite default: three retries, 8 s finalization timeout,
    /// 250 ms base backoff capped at 4 s, 20% jitter.
    pub fn chaos_default() -> Self {
        RetryPolicy {
            max_retries: 3,
            finalization_timeout: SimDuration::from_secs(8),
            base_backoff: SimDuration::from_millis(250),
            max_backoff: SimDuration::from_secs(4),
            jitter: 0.2,
        }
    }

    /// `true` if the policy re-sends at all.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The delay before retry attempt `attempt` (1-based), jittered.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        assert!(attempt > 0, "attempt numbers are 1-based");
        let doubling = 1u64 << (attempt - 1).min(16);
        let exp = (self.base_backoff * doubling).min(self.max_backoff);
        exp + exp.mul_f64(self.jitter.max(0.0) * rng.gen_f64())
    }
}

/// A token bucket bounding the *total* re-sends the client may issue in
/// one run. Every retry (from a rejection, a `Busy` answer, or a
/// finalization timeout) spends one token; when the bucket is dry the
/// transaction is abandoned instead of re-sent. This is what breaks the
/// retry-amplification loop behind metastable failures: without a budget,
/// an overload pulse makes every client re-send, which sustains the
/// overload after the pulse ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last: SimTime,
}

impl RetryBudget {
    /// A bucket holding `capacity` tokens, regaining `refill_per_sec`
    /// tokens per virtual second (capped at `capacity`). Starts full.
    pub fn new(capacity: u32, refill_per_sec: f64) -> Self {
        RetryBudget {
            capacity: capacity as f64,
            refill_per_sec,
            tokens: capacity as f64,
            last: SimTime::ZERO,
        }
    }

    /// Takes one token at virtual time `now`, refilling first. `false`
    /// means the budget is exhausted and the retry must be dropped.
    pub fn try_spend(&mut self, now: SimTime) -> bool {
        if now > self.last {
            let gained = (now - self.last).as_secs_f64() * self.refill_per_sec;
            self.tokens = (self.tokens + gained).min(self.capacity);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (before any refill due at a later time).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Parameters of the client-side circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive `Busy`/timeout responses that trip the breaker.
    pub failure_threshold: u32,
    /// Base cooldown once tripped; a server `retry_after` hint extends it.
    pub open_for: SimDuration,
    /// Jitter fraction applied (from the seeded `breaker` stream) when
    /// deferred sends re-queue at the cooldown's end, so the reopening
    /// breaker is not hit by a synchronized thundering herd.
    pub jitter: f64,
}

impl BreakerPolicy {
    /// The overload-suite default: trip after 5 consecutive failures,
    /// hold off for 1 s, 20% reopen jitter.
    pub fn overload_default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            open_for: SimDuration::from_secs(1),
            jitter: 0.2,
        }
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Sends flow freely; consecutive failures are counted.
    Closed,
    /// Sends are held back until the cooldown expires.
    Open,
    /// The cooldown expired; sends probe the system. One success closes
    /// the breaker, one failure re-opens it.
    HalfOpen,
}

/// A seeded-deterministic circuit breaker: `Closed → Open` after
/// [`BreakerPolicy::failure_threshold`] consecutive `Busy`/timeout
/// responses, `Open → HalfOpen` once the cooldown elapses, and
/// `HalfOpen → Closed` (probe confirmed) or `HalfOpen → Open` (probe
/// failed). Rejections are semantic refusals, not overload, and do not
/// count as failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    opens: u64,
    open_secs: f64,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            opens: 0,
            open_secs: 0.0,
        }
    }

    /// Whether a send may proceed at `now`. An open breaker whose
    /// cooldown has elapsed transitions to `HalfOpen` and lets the send
    /// through as a probe.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open if now >= self.open_until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// When sends are denied, the earliest time to try again.
    pub fn retry_at(&self) -> SimTime {
        self.open_until
    }

    /// Records an accepted submission. A half-open probe's success closes
    /// the breaker; any success resets the consecutive-failure count.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
        }
    }

    /// Records a `Busy` or finalization-timeout failure at `now`;
    /// `retry_after` is the server's hold-off hint, which extends the
    /// cooldown beyond [`BreakerPolicy::open_for`] when longer.
    pub fn on_failure(&mut self, now: SimTime, retry_after: Option<SimDuration>) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.failure_threshold {
                    self.trip(now, retry_after);
                }
            }
            BreakerState::HalfOpen => self.trip(now, retry_after),
            // Stragglers failing while already open don't extend the
            // cooldown (they were sent before the trip).
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime, retry_after: Option<SimDuration>) {
        let cooldown = self
            .policy
            .open_for
            .max(retry_after.unwrap_or(SimDuration::ZERO));
        self.state = BreakerState::Open;
        self.open_until = now + cooldown;
        self.opens += 1;
        self.open_secs += cooldown.as_secs_f64();
        self.consecutive_failures = 0;
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The policy the breaker was built with.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Total virtual seconds of cooldown the breaker imposed.
    pub fn open_secs(&self) -> f64 {
        self.open_secs
    }
}

/// Additive-increase / multiplicative-decrease client rate control: the
/// client paces its sends at an adaptive rate that grows on accepted
/// submissions and collapses on `Busy`/timeouts (TCP-style congestion
/// avoidance applied to the benchmark client).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdPolicy {
    /// Initial pacing rate (sends per virtual second).
    pub start_rate: f64,
    /// Floor the rate never drops below.
    pub min_rate: f64,
    /// Ceiling the rate never exceeds.
    pub max_rate: f64,
    /// Additive rate gain per accepted submission (per second).
    pub increase_per_success: f64,
    /// Multiplicative factor applied on each failure (in `(0, 1)`).
    pub decrease_factor: f64,
}

impl AimdPolicy {
    /// A controller starting at `rate` sends/s, halving on failure and
    /// regaining 2% of the start rate per success.
    pub fn for_rate(rate: f64) -> Self {
        AimdPolicy {
            start_rate: rate,
            min_rate: (rate / 100.0).max(0.1),
            max_rate: rate * 4.0,
            increase_per_success: rate / 50.0,
            decrease_factor: 0.5,
        }
    }
}

/// The adaptive state of an [`AimdPolicy`] during a run.
#[derive(Debug, Clone, Copy)]
struct AimdState {
    policy: AimdPolicy,
    rate: f64,
    gate: SimTime,
}

impl AimdState {
    fn new(policy: AimdPolicy) -> Self {
        AimdState {
            policy,
            rate: policy.start_rate.clamp(policy.min_rate, policy.max_rate),
            gate: SimTime::ZERO,
        }
    }

    /// Advances the pacing gate after a send goes out at `now`.
    fn pace(&mut self, now: SimTime) {
        self.gate = now + SimDuration::from_secs_f64(1.0 / self.rate);
    }

    fn on_success(&mut self) {
        self.rate = (self.rate + self.policy.increase_per_success).min(self.policy.max_rate);
    }

    fn on_failure(&mut self) {
        self.rate = (self.rate * self.policy.decrease_factor).max(self.policy.min_rate);
    }
}

/// The client-side overload protections, all optional. With everything
/// `None` ([`ClientProtection::disabled`]) the chaos loop draws no extra
/// randomness and behaves bit-identically to the classic client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientProtection {
    /// Cap on total re-sends per run.
    pub budget: Option<RetryBudget>,
    /// Circuit breaker on consecutive `Busy`/timeout responses.
    pub breaker: Option<BreakerPolicy>,
    /// AIMD send-rate controller.
    pub aimd: Option<AimdPolicy>,
}

impl ClientProtection {
    /// No protection: the classic chaos client.
    pub fn disabled() -> Self {
        ClientProtection::default()
    }

    /// The overload-suite default: a retry budget of 100 tokens refilling
    /// at 10/s plus a [`BreakerPolicy::overload_default`] breaker. AIMD
    /// stays off so the protected arm differs from the unprotected one by
    /// exactly the two mechanisms under test.
    pub fn overload_default() -> Self {
        ClientProtection {
            budget: Some(RetryBudget::new(100, 10.0)),
            breaker: Some(BreakerPolicy::overload_default()),
            aimd: None,
        }
    }

    /// `true` when any protection is armed.
    pub fn enabled(&self) -> bool {
        self.budget.is_some() || self.breaker.is_some() || self.aimd.is_some()
    }
}

/// Number-of-transactions accounting for one chaos run. Every scheduled
/// transaction lands in exactly one terminal class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeliveryAccounting {
    /// Transactions the client scheduled.
    pub scheduled: u64,
    /// Transactions confirmed at least once within the listen window.
    pub confirmed: u64,
    /// Transactions whose every submission was rejected at ingress and
    /// whose retry allowance ran out.
    pub rejected: u64,
    /// Transactions the system accepted but never confirmed before the
    /// client terminated.
    pub timed_out: u64,
    /// Transactions whose last submission was swallowed by an active loss
    /// burst before reaching the system.
    pub lost_in_fault: u64,
    /// Transactions whose send slot fell outside the listen window, so
    /// the client terminated before ever attempting them.
    pub unsent: u64,
    /// Transactions whose last answer was `Busy` (and the client gave up
    /// or ran out of budget), or that the circuit breaker held back until
    /// the run ended.
    pub backpressured: u64,
    /// Total re-sends performed (not counted in `scheduled`).
    pub retries: u64,
    /// `Busy` answers received across all submissions.
    pub busy_responses: u64,
    /// Retries wanted but dropped because the [`RetryBudget`] was dry.
    pub budget_exhausted: u64,
    /// Times the [`CircuitBreaker`] tripped open.
    pub breaker_opens: u64,
    /// Total virtual seconds of breaker-imposed cooldown.
    pub breaker_open_secs: f64,
}

impl DeliveryAccounting {
    /// Fraction of scheduled transactions confirmed.
    pub fn delivery_ratio(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.scheduled as f64
        }
    }

    /// Sends per scheduled transaction: `(scheduled + retries) /
    /// scheduled`. 1.0 means no transaction was ever re-sent; values well
    /// above 1 during an overload pulse are the amplification that
    /// sustains metastable failures.
    pub fn retry_amplification(&self) -> f64 {
        if self.scheduled == 0 {
            0.0
        } else {
            (self.scheduled + self.retries) as f64 / self.scheduled as f64
        }
    }

    /// `true` when every scheduled transaction is classified exactly once.
    pub fn is_complete(&self) -> bool {
        self.confirmed
            + self.rejected
            + self.timed_out
            + self.lost_in_fault
            + self.unsent
            + self.backpressured
            == self.scheduled
    }
}

/// The client-side observations of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Terminal per-transaction classification.
    pub accounting: DeliveryAccounting,
    /// Committed operations per virtual-time bucket (for throughput
    /// timelines and recovery detection). Bucket `i` covers
    /// `[i, i+1) * bucket_len` from the schedule base.
    pub buckets: Vec<u64>,
    /// Width of each bucket.
    pub bucket_len: SimDuration,
    /// Mean throughput over the active span (ops/s, formula 2).
    pub mtps: f64,
    /// Mean finalization latency over confirmed transactions (s).
    pub mfls: f64,
    /// 95th-percentile finalization latency (s).
    pub p95: f64,
    /// 99th-percentile finalization latency (s) — the gray-failure tail.
    pub p99: f64,
    /// Whether the system still served confirmations at the end.
    pub live: bool,
    /// The consensus safety monitor's verdict, for systems that carry one
    /// (the BFT chains). `None` means safety invariants are not applicable.
    pub safety: Option<SafetyReport>,
    /// The consensus liveness monitor's verdict at run end, for systems
    /// that carry one. `None` only for test doubles.
    pub liveness: Option<LivenessReport>,
}

impl ChaosRun {
    /// Mean bucket throughput (ops/s) over buckets fully inside
    /// `[from, to)`, or 0.0 if the range covers no full bucket.
    pub fn window_mtps(&self, from: SimTime, to: SimTime) -> f64 {
        let lo = (from.as_secs_f64() / self.bucket_len.as_secs_f64()).ceil() as usize;
        let hi = (to.as_secs_f64() / self.bucket_len.as_secs_f64()).floor() as usize;
        let hi = hi.min(self.buckets.len());
        if lo >= hi {
            return 0.0;
        }
        let ops: u64 = self.buckets[lo..hi].iter().sum();
        ops as f64 / ((hi - lo) as f64 * self.bucket_len.as_secs_f64())
    }

    /// Virtual seconds from `heal` until throughput first sustains at
    /// least `threshold` × the pre-fault mean over a three-bucket sliding
    /// window (summed, so block cadences longer than a bucket — Fabric's
    /// 2 s batch timeout against 1 s buckets — don't defeat detection).
    /// `None` if throughput never recovers (or never existed).
    pub fn recovery_secs(&self, crash: SimTime, heal: SimTime, threshold: f64) -> Option<f64> {
        const SUSTAIN: usize = 3;
        let pre = self.window_mtps(SimTime::ZERO, crash);
        if pre <= 0.0 {
            return None;
        }
        let needed = pre * self.bucket_len.as_secs_f64() * SUSTAIN as f64 * threshold;
        let heal_bucket = (heal.as_secs_f64() / self.bucket_len.as_secs_f64()).ceil() as usize;
        let n = self.buckets.len();
        (heal_bucket..n.saturating_sub(SUSTAIN - 1))
            .find(|&b| {
                (b..b + SUSTAIN)
                    .map(|i| self.buckets[i] as f64)
                    .sum::<f64>()
                    >= needed
            })
            .map(|b| (b as f64 * self.bucket_len.as_secs_f64() - heal.as_secs_f64()).max(0.0))
    }
}

/// What a pending client action is. Faults are not queued here: the
/// [`FaultScheduler`] is drained before each action, so a fault at `t`
/// always precedes a submission at `t`.
///
/// Each action names its transaction by original id and by schedule
/// position. The derived order is part of the client's contract: at one
/// instant timeouts run before submissions, then the lower `TxId` goes
/// first. The position rides *after* the id so it never decides a tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    /// Check a transaction's finalization timeout (may schedule a re-send).
    Timeout(TxId, u32),
    /// Send (or re-send) a transaction.
    Submit(TxId, u32),
}

#[derive(Debug, Clone)]
struct Track {
    created: SimTime,
    attempts: u32,
    accepted_once: bool,
    last_was_client_lost: bool,
    last_was_busy: bool,
    confirmed: bool,
}

/// Spends a retry token, counting the drop when the bucket is dry. A run
/// without a budget always allows the retry.
fn take_retry_token(
    budget: &mut Option<RetryBudget>,
    now: SimTime,
    accounting: &mut DeliveryAccounting,
) -> bool {
    match budget {
        None => true,
        Some(b) => {
            if b.try_spend(now) {
                true
            } else {
                accounting.budget_exhausted += 1;
                false
            }
        }
    }
}

/// Runs `spec`'s schedule against `system` while replaying `plan`, with
/// `policy` governing re-sends. All randomness (ingress loss, backoff
/// jitter) derives from `seed`; identical inputs give identical runs.
///
/// Fault semantics: `CrashNode`/`RestartNode` route to
/// [`BlockchainSystem::crash_node`] / [`BlockchainSystem::recover_node`];
/// `EquivocateProposer`/`DoubleVote` route to
/// [`BlockchainSystem::inject_byzantine`] with the event's window converted
/// to an absolute expiry (CFT systems decline the injection and the run's
/// [`ChaosRun::safety`] stays `None`);
/// `JoinNode`/`LeaveNode` route to [`BlockchainSystem::join_node`] /
/// [`BlockchainSystem::leave_node`] (membership churn — the join starts the
/// catch-up path, the engine admits the voter only after sync completes);
/// network faults route to [`BlockchainSystem::apply_net_fault`]. A
/// [`FaultEvent::LossBurst`] additionally applies to the *client ingress*:
/// while the burst is active each submission is dropped with probability
/// `p` before reaching the system (the client cannot tell — only the
/// finalization timeout recovers such transactions).
pub fn run_chaos(
    system: &mut (dyn BlockchainSystem + Send),
    spec: &BenchmarkSpec,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    seed: u64,
) -> ChaosRun {
    run_chaos_protected(
        system,
        spec,
        plan,
        policy,
        &ClientProtection::disabled(),
        seed,
    )
}

/// [`run_chaos`] with client-side overload protections armed. The
/// schedule is the spec's own; see [`run_chaos_with_schedule`] for
/// campaigns that overlay extra traffic (overload pulses).
pub fn run_chaos_protected(
    system: &mut (dyn BlockchainSystem + Send),
    spec: &BenchmarkSpec,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    protection: &ClientProtection,
    seed: u64,
) -> ChaosRun {
    let schedule = build_schedule(
        spec.benchmark,
        spec.rate,
        spec.ops_per_tx,
        spec.windows,
        SeedDeriver::new(seed).seed("schedule", 0),
    );
    run_chaos_with_schedule(system, spec, plan, policy, protection, &schedule, seed)
}

/// The chaos loop against an explicit, already-sorted `schedule` (must be
/// ordered by `(at, tx.id())` with distinct ids). This is the overload
/// experiment's entry point: it merges a baseline schedule with a pulse
/// overlay before handing both to the same client.
pub fn run_chaos_with_schedule(
    system: &mut (dyn BlockchainSystem + Send),
    spec: &BenchmarkSpec,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    protection: &ClientProtection,
    schedule: &[ScheduledTx],
    seed: u64,
) -> ChaosRun {
    let seeds = SeedDeriver::new(seed);
    let mut loss_rng = seeds.rng("client-loss", 0);
    let mut backoff_rng = seeds.rng("backoff", 0);
    // Drawn from only when a breaker defers sends, so unprotected runs
    // stay bit-identical.
    let mut breaker_rng = seeds.rng("breaker", 0);

    let mut budget = protection.budget;
    let mut breaker = protection.breaker.map(CircuitBreaker::new);
    let mut aimd = protection.aimd.map(AimdState::new);

    let listen_end = SimTime::ZERO + spec.windows.listen;
    let bucket_len = SimDuration::from_secs(1);
    let n_buckets = (spec.windows.listen.as_secs_f64() / bucket_len.as_secs_f64()).ceil() as usize;

    // Per-transaction state by schedule position (`None` until its first
    // send slot comes up), and every wire id sent so far — originals and
    // derived retry ids alike — mapped back to that position.
    let mut tracks: Vec<Option<Track>> = vec![None; schedule.len()];
    let mut positions: HashMap<TxId, u32> = HashMap::with_capacity(schedule.len());
    let mut scheduler = FaultScheduler::new(plan.clone());
    let mut client_loss: Option<(f64, SimTime)> = None;

    // One queue of timed client actions; ties resolve fault < timeout <
    // submit, then by original `TxId`, then by insertion order via the
    // sequence number.
    let mut queue: BinaryHeap<Reverse<(SimTime, Action, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, sched) in schedule.iter().enumerate() {
        let i = u32::try_from(i).expect("schedule positions fit in u32");
        queue.push(Reverse((sched.at, Action::Submit(sched.tx.id(), i), seq)));
        seq += 1;
    }

    let mut accounting = DeliveryAccounting {
        scheduled: schedule.len() as u64,
        ..DeliveryAccounting::default()
    };
    let mut buckets = vec![0u64; n_buckets];
    let mut latencies: Vec<f64> = Vec::new();
    let mut t_fstx: Option<SimTime> = None;
    let mut t_lrtx: Option<SimTime> = None;

    let harvest = |outcomes: Vec<coconut_types::TxOutcome>,
                   tracks: &mut [Option<Track>],
                   positions: &HashMap<TxId, u32>,
                   accounting: &mut DeliveryAccounting,
                   buckets: &mut [u64],
                   latencies: &mut Vec<f64>,
                   t_lrtx: &mut Option<SimTime>| {
        for o in outcomes {
            if !o.is_committed() || o.finalized_at > listen_end {
                continue;
            }
            let Some(track) = positions
                .get(&o.tx)
                .and_then(|&i| tracks[i as usize].as_mut())
            else {
                continue;
            };
            if track.confirmed {
                continue; // a retry raced its original; count once
            }
            track.confirmed = true;
            accounting.confirmed += 1;
            latencies.push((o.finalized_at - track.created).as_secs_f64());
            *t_lrtx = Some(t_lrtx.map_or(o.finalized_at, |t| t.max(o.finalized_at)));
            let b = (o.finalized_at.as_secs_f64() / bucket_len.as_secs_f64()) as usize;
            if let Some(slot) = buckets.get_mut(b) {
                *slot += o.ops_confirmed() as u64;
            }
        }
    };

    while let Some(&Reverse((at, _, _))) = queue.peek() {
        // Interleave faults strictly before client actions at the same time.
        let fault_due = scheduler.next_due().filter(|&f| f <= at);
        if let Some(fat) = fault_due {
            harvest(
                system.run_until(fat),
                &mut tracks,
                &positions,
                &mut accounting,
                &mut buckets,
                &mut latencies,
                &mut t_lrtx,
            );
            while let Some((fat, event)) = scheduler.pop_due(fat) {
                match event {
                    FaultEvent::CrashNode(node) => {
                        system.crash_node(node);
                    }
                    FaultEvent::RestartNode(node) => {
                        system.recover_node(node);
                    }
                    FaultEvent::EquivocateProposer { node, window } => {
                        system.inject_byzantine(
                            node,
                            ByzantineBehaviour::EquivocateProposer,
                            fat + window,
                        );
                    }
                    FaultEvent::DoubleVote { node, window } => {
                        system.inject_byzantine(node, ByzantineBehaviour::DoubleVote, fat + window);
                    }
                    FaultEvent::JoinNode(node) => {
                        system.join_node(fat, node);
                    }
                    FaultEvent::LeaveNode(node) => {
                        system.leave_node(fat, node);
                    }
                    ref net_fault => {
                        if let FaultEvent::LossBurst { p, window } = *net_fault {
                            client_loss = Some((p, fat + window));
                        }
                        system.apply_net_fault(fat, net_fault);
                    }
                }
            }
            continue;
        }

        let Reverse((at, action, _)) = queue.pop().expect("peeked");
        if at > listen_end {
            break;
        }
        harvest(
            system.run_until(at),
            &mut tracks,
            &positions,
            &mut accounting,
            &mut buckets,
            &mut latencies,
            &mut t_lrtx,
        );

        match action {
            Action::Submit(orig, i) => {
                let track = tracks[i as usize].get_or_insert_with(|| {
                    positions.insert(orig, i);
                    Track {
                        created: at,
                        attempts: 0,
                        accepted_once: false,
                        last_was_client_lost: false,
                        last_was_busy: false,
                        confirmed: false,
                    }
                });
                if track.confirmed {
                    continue; // confirmed while this retry was queued
                }
                // Client-side gates run before the attempt is counted: a
                // deferred send is re-queued, not consumed.
                if let Some(a) = aimd.as_mut() {
                    if at < a.gate {
                        queue.push(Reverse((a.gate, Action::Submit(orig, i), seq)));
                        seq += 1;
                        continue;
                    }
                    a.pace(at);
                }
                if let Some(b) = breaker.as_mut() {
                    if !b.allow(at) {
                        // Re-queue at the cooldown's end, jittered so the
                        // reopening breaker isn't hit by a synchronized
                        // herd of deferred sends.
                        let jitter = b
                            .policy()
                            .open_for
                            .mul_f64(b.policy().jitter.max(0.0) * breaker_rng.gen_f64());
                        queue.push(Reverse((
                            b.retry_at().max(at) + jitter,
                            Action::Submit(orig, i),
                            seq,
                        )));
                        seq += 1;
                        continue;
                    }
                }
                track.attempts += 1;
                t_fstx.get_or_insert(at);

                // Derive a fresh wire id per re-send so the system treats
                // it as a new transaction; confirmations map back.
                let wire_id = if track.attempts == 1 {
                    orig
                } else {
                    accounting.retries += 1;
                    let derived =
                        TxId::new(orig.client(), orig.seq() | (track.attempts as u64) << 56);
                    positions.insert(derived, i);
                    derived
                };
                let template = &schedule[i as usize].tx;
                let tx = coconut_types::ClientTx::new(
                    wire_id,
                    template.thread(),
                    template.payloads().to_vec(),
                    at,
                );

                // Client-side ingress loss during an active burst window.
                if let Some((p, until)) = client_loss {
                    if at < until && loss_rng.gen_bool(p) {
                        track.last_was_client_lost = true;
                        if policy.enabled() {
                            queue.push(Reverse((
                                at + policy.finalization_timeout,
                                Action::Timeout(orig, i),
                                seq,
                            )));
                            seq += 1;
                        }
                        continue;
                    }
                }
                track.last_was_client_lost = false;
                track.last_was_busy = false;

                let outcome = system.submit(at, tx);
                if outcome.is_accepted() {
                    track.accepted_once = true;
                    if let Some(b) = breaker.as_mut() {
                        b.on_success();
                    }
                    if let Some(a) = aimd.as_mut() {
                        a.on_success();
                    }
                    if policy.enabled() {
                        queue.push(Reverse((
                            at + policy.finalization_timeout,
                            Action::Timeout(orig, i),
                            seq,
                        )));
                        seq += 1;
                    }
                } else if let Some(retry_after) = outcome.retry_after() {
                    // Busy: overload backpressure. The client honors the
                    // hold-off hint and the breaker counts the failure.
                    accounting.busy_responses += 1;
                    track.last_was_busy = true;
                    if let Some(b) = breaker.as_mut() {
                        b.on_failure(at, Some(retry_after));
                    }
                    if let Some(a) = aimd.as_mut() {
                        a.on_failure();
                    }
                    if policy.enabled()
                        && track.attempts <= policy.max_retries
                        && take_retry_token(&mut budget, at, &mut accounting)
                    {
                        let delay = policy
                            .backoff(track.attempts, &mut backoff_rng)
                            .max(retry_after);
                        queue.push(Reverse((at + delay, Action::Submit(orig, i), seq)));
                        seq += 1;
                    }
                } else if policy.enabled()
                    && track.attempts <= policy.max_retries
                    && take_retry_token(&mut budget, at, &mut accounting)
                {
                    // Rejected: a semantic refusal, not overload — the
                    // breaker ignores it.
                    let delay = policy.backoff(track.attempts, &mut backoff_rng);
                    queue.push(Reverse((at + delay, Action::Submit(orig, i), seq)));
                    seq += 1;
                }
                // else: terminal rejection, classified at the end.
            }
            Action::Timeout(orig, i) => {
                let track = tracks[i as usize].as_mut().expect("timeout implies track");
                if track.confirmed || track.attempts > policy.max_retries {
                    continue;
                }
                if let Some(b) = breaker.as_mut() {
                    b.on_failure(at, None);
                }
                if let Some(a) = aimd.as_mut() {
                    a.on_failure();
                }
                if !take_retry_token(&mut budget, at, &mut accounting) {
                    continue;
                }
                let delay = policy.backoff(track.attempts, &mut backoff_rng);
                queue.push(Reverse((at + delay, Action::Submit(orig, i), seq)));
                seq += 1;
            }
        }
    }

    harvest(
        system.run_until(listen_end),
        &mut tracks,
        &positions,
        &mut accounting,
        &mut buckets,
        &mut latencies,
        &mut t_lrtx,
    );

    if let Some(b) = &breaker {
        accounting.breaker_opens = b.opens();
        accounting.breaker_open_secs = b.open_secs();
    }

    // Terminal classification of everything unconfirmed.
    for track in &tracks {
        match track {
            // The client terminated before the send slot came up: the
            // transaction was never attempted, which is a distinct class
            // from a submission swallowed mid-fault.
            None => accounting.unsent += 1,
            Some(t) if t.confirmed => {}
            Some(t) if t.last_was_client_lost => accounting.lost_in_fault += 1,
            Some(t) if t.accepted_once => accounting.timed_out += 1,
            // Popped at least once but every send was deferred by the
            // breaker (attempts == 0), or the last answer was `Busy`:
            // the transaction was backpressured away.
            Some(t) if t.last_was_busy || t.attempts == 0 => accounting.backpressured += 1,
            Some(_) => accounting.rejected += 1,
        }
    }
    debug_assert!(accounting.is_complete());

    let mtps = match (t_fstx, t_lrtx) {
        (Some(first), Some(last)) if last > first => {
            let ops: u64 = buckets.iter().sum();
            ops as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    };
    let mfls = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    ChaosRun {
        accounting,
        buckets,
        bucket_len,
        mtps,
        mfls,
        p95,
        p99,
        live: system.is_live(),
        safety: system.safety_report(),
        liveness: system.liveness_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Windows;
    use crate::params::{build_system, SystemKind, SystemSetup};
    use coconut_types::PayloadKind;

    fn quick_spec(system: SystemKind, rate: f64) -> BenchmarkSpec {
        // A listen margin generous enough that the send-window tail can
        // confirm (and time-outed retries can land) before termination.
        BenchmarkSpec::new(system, PayloadKind::DoNothing)
            .rate(rate)
            .windows(Windows {
                send: SimDuration::from_secs(15),
                listen: SimDuration::from_secs(25),
            })
            .repetitions(1)
    }

    fn run(kind: SystemKind, plan: &FaultPlan, policy: &RetryPolicy, seed: u64) -> ChaosRun {
        let spec = quick_spec(kind, 100.0);
        let mut sys = build_system(kind, &SystemSetup::default(), seed);
        run_chaos(sys.as_mut(), &spec, plan, policy, seed)
    }

    #[test]
    fn fault_free_run_confirms_everything() {
        let r = run(
            SystemKind::Fabric,
            &FaultPlan::new(),
            &RetryPolicy::disabled(),
            7,
        );
        assert!(r.accounting.is_complete());
        assert_eq!(r.accounting.confirmed, r.accounting.scheduled);
        assert_eq!(r.accounting.retries, 0);
        assert!(r.mtps > 0.0);
        assert!(r.live);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_secs(4),
                FaultEvent::LossBurst {
                    p: 0.05,
                    window: SimDuration::from_secs(4),
                },
            )
            .crash_window(
                &[coconut_types::NodeId(1)],
                SimTime::from_secs(5),
                SimTime::from_secs(9),
            );
        let a = run(SystemKind::Quorum, &plan, &RetryPolicy::chaos_default(), 3);
        let b = run(SystemKind::Quorum, &plan, &RetryPolicy::chaos_default(), 3);
        assert_eq!(a.accounting, b.accounting);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.mtps, b.mtps);
    }

    #[test]
    fn loss_burst_without_retry_loses_transactions() {
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            FaultEvent::LossBurst {
                p: 0.5,
                window: SimDuration::from_secs(8),
            },
        );
        let r = run(SystemKind::Fabric, &plan, &RetryPolicy::disabled(), 11);
        assert!(
            r.accounting.lost_in_fault > 0,
            "half the burst window is dropped"
        );
        assert!(r.accounting.delivery_ratio() < 0.95);
    }

    #[test]
    fn retry_recovers_loss_burst_transactions() {
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            FaultEvent::LossBurst {
                p: 0.05,
                window: SimDuration::from_secs(6),
            },
        );
        let r = run(SystemKind::Fabric, &plan, &RetryPolicy::chaos_default(), 11);
        assert!(r.accounting.retries > 0);
        assert!(
            r.accounting.delivery_ratio() >= 0.99,
            "retry must recover the burst: {:?}",
            r.accounting
        );
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::chaos_default()
        };
        let mut rng = SimRng::seed_from_u64(0);
        let b1 = p.backoff(1, &mut rng);
        let b2 = p.backoff(2, &mut rng);
        let b9 = p.backoff(9, &mut rng);
        assert_eq!(b2, b1 * 2);
        assert_eq!(b9, p.max_backoff);
    }

    #[test]
    fn recovery_detection_finds_heal_point() {
        let r = ChaosRun {
            accounting: DeliveryAccounting::default(),
            buckets: vec![10, 10, 10, 0, 0, 0, 0, 10, 10, 10, 10],
            bucket_len: SimDuration::from_secs(1),
            mtps: 0.0,
            mfls: 0.0,
            p95: 0.0,
            p99: 0.0,
            live: true,
            safety: None,
            liveness: None,
        };
        let rec = r
            .recovery_secs(SimTime::from_secs(3), SimTime::from_secs(6), 0.7)
            .expect("recovers");
        assert_eq!(rec, 1.0, "buckets 7..10 sustain; heal at 6 → 1 s");
        // A run that never recovers reports None.
        let dead = ChaosRun {
            buckets: vec![10, 10, 0, 0, 0, 0, 0, 0],
            ..r
        };
        assert_eq!(
            dead.recovery_secs(SimTime::from_secs(2), SimTime::from_secs(4), 0.7),
            None
        );
    }

    /// A bare run with the given 1 s buckets, for windowing edge cases.
    fn synthetic(buckets: Vec<u64>) -> ChaosRun {
        ChaosRun {
            accounting: DeliveryAccounting::default(),
            buckets,
            bucket_len: SimDuration::from_secs(1),
            mtps: 0.0,
            mfls: 0.0,
            p95: 0.0,
            p99: 0.0,
            live: true,
            safety: None,
            liveness: None,
        }
    }

    #[test]
    fn window_mtps_empty_and_degenerate_windows_are_zero() {
        let r = synthetic(vec![10, 20, 30, 40]);
        // Empty and inverted ranges cover no full bucket.
        assert_eq!(
            r.window_mtps(SimTime::from_secs(2), SimTime::from_secs(2)),
            0.0
        );
        assert_eq!(
            r.window_mtps(SimTime::from_secs(3), SimTime::from_secs(1)),
            0.0
        );
        // A sub-bucket window straddling a boundary contains no full
        // bucket either — partial buckets never count.
        let half = SimDuration::from_secs_f64(0.5);
        assert_eq!(
            r.window_mtps(SimTime::ZERO + half, SimTime::from_secs(1) + half),
            0.0
        );
        // A range reaching past the recorded buckets clamps to their end …
        assert_eq!(
            r.window_mtps(SimTime::from_secs(2), SimTime::from_secs(100)),
            35.0
        );
        // … and one entirely past it is empty.
        assert_eq!(
            r.window_mtps(SimTime::from_secs(50), SimTime::from_secs(100)),
            0.0
        );
        // Exact bucket edges include exactly the covered buckets.
        assert_eq!(r.window_mtps(SimTime::ZERO, SimTime::from_secs(2)), 15.0);
    }

    #[test]
    fn recovery_that_never_sustains_threshold_is_none() {
        // Post-heal throughput flickers but no three consecutive buckets
        // reach 70 % of the pre-fault mean (needed sum: 10 × 3 × 0.7 = 21).
        let r = synthetic(vec![10, 10, 10, 0, 0, 0, 9, 0, 0, 9, 0, 0]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(3), SimTime::from_secs(6), 0.7),
            None
        );
    }

    #[test]
    fn recovery_without_pre_fault_throughput_is_none() {
        // Nothing committed before the crash: there is no baseline to
        // recover to.
        let r = synthetic(vec![0, 0, 0, 10, 10, 10]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(2), SimTime::from_secs(3), 0.7),
            None
        );
        // A crash at t = 0 leaves an empty pre-fault window: same verdict.
        let r = synthetic(vec![10, 10, 10, 10]);
        assert_eq!(
            r.recovery_secs(SimTime::ZERO, SimTime::from_secs(1), 0.7),
            None
        );
    }

    #[test]
    fn recovery_at_exact_bucket_boundaries_is_instant() {
        // Crash and heal on exact bucket edges with an immediate comeback:
        // the heal bucket itself sustains, so recovery is 0 s.
        let r = synthetic(vec![10, 10, 0, 0, 10, 10, 10]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(2), SimTime::from_secs(4), 0.7),
            Some(0.0)
        );
    }

    #[test]
    fn recovery_with_heal_past_recorded_buckets_is_none() {
        // The heal lands beyond the recorded timeline: no sliding window
        // exists to sustain, so the run never counts as recovered.
        let r = synthetic(vec![10, 10, 0, 0]);
        assert_eq!(
            r.recovery_secs(SimTime::from_secs(1), SimTime::from_secs(9), 0.7),
            None
        );
    }

    #[test]
    fn breaker_trips_only_at_consecutive_failure_threshold() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..4 {
            b.on_failure(t, None);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // A success resets the consecutive count: four more failures still
        // stay below the threshold of five.
        b.on_success();
        for _ in 0..4 {
            b.on_failure(t, None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(t, None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allow(t), "sends are held while the cooldown runs");
        assert_eq!(b.retry_at(), t + SimDuration::from_secs(1));
    }

    #[test]
    fn breaker_half_open_probe_success_closes() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..5 {
            b.on_failure(t, None);
        }
        // The cooldown elapses: the next allow() transitions to HalfOpen
        // and lets one probe through.
        let after = b.retry_at() + SimDuration::from_millis(1);
        assert!(b.allow(after));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn breaker_half_open_probe_failure_reopens_immediately() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..5 {
            b.on_failure(t, None);
        }
        let after = b.retry_at() + SimDuration::from_millis(1);
        assert!(b.allow(after));
        // One failed probe re-opens without needing five more failures.
        b.on_failure(after, None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert_eq!(b.retry_at(), after + SimDuration::from_secs(1));
    }

    #[test]
    fn breaker_cooldown_honors_retry_after_hint_and_accumulates_open_secs() {
        let mut b = CircuitBreaker::new(BreakerPolicy::overload_default());
        let t = SimTime::from_secs(1);
        for _ in 0..5 {
            b.on_failure(t, Some(SimDuration::from_secs(3)));
        }
        // The server's 3 s hold-off hint beats the 1 s policy cooldown.
        assert_eq!(b.retry_at(), t + SimDuration::from_secs(3));
        assert!((b.open_secs() - 3.0).abs() < 1e-9);
        // Stragglers failing while already open don't extend the cooldown.
        b.on_failure(
            t + SimDuration::from_secs(1),
            Some(SimDuration::from_secs(30)),
        );
        assert_eq!(b.retry_at(), t + SimDuration::from_secs(3));
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn retry_budget_drains_and_refills_in_virtual_time() {
        let mut budget = RetryBudget::new(2, 1.0);
        let t = SimTime::from_secs(1);
        assert!(budget.try_spend(t));
        assert!(budget.try_spend(t));
        assert!(!budget.try_spend(t), "the bucket starts with two tokens");
        // Half a virtual second refills half a token: still empty.
        assert!(!budget.try_spend(t + SimDuration::from_millis(500)));
        // Another second refills past one whole token ...
        assert!(budget.try_spend(t + SimDuration::from_millis(1500)));
        // ... and a long idle stretch caps at capacity, not beyond.
        let late = t + SimDuration::from_secs(60);
        assert!(budget.try_spend(late));
        assert!(budget.try_spend(late));
        assert!(!budget.try_spend(late));
    }

    #[test]
    fn aimd_rate_adapts_within_bounds() {
        let mut a = AimdState::new(AimdPolicy::for_rate(100.0));
        // Failures halve the rate down to the floor ...
        for _ in 0..20 {
            a.on_failure();
        }
        assert_eq!(a.rate, a.policy.min_rate);
        // ... successes regain it additively up to the ceiling.
        for _ in 0..1000 {
            a.on_success();
        }
        assert_eq!(a.rate, a.policy.max_rate);
        // Pacing schedules the next send one inter-send gap out.
        a.pace(SimTime::from_secs(2));
        assert_eq!(
            a.gate,
            SimTime::from_secs(2) + SimDuration::from_secs_f64(1.0 / a.rate)
        );
    }

    /// A system that sheds every submission with the same `Busy` hint and
    /// records the order in which sends reach it.
    struct BusyRecorder {
        retry_after: SimDuration,
        sends: Vec<(SimTime, TxId)>,
    }

    impl BlockchainSystem for BusyRecorder {
        fn name(&self) -> &str {
            "busy-recorder"
        }

        fn node_count(&self) -> u32 {
            1
        }

        fn submit(
            &mut self,
            now: SimTime,
            tx: coconut_types::ClientTx,
        ) -> coconut_chains::SubmitOutcome {
            self.sends.push((now, tx.id()));
            coconut_chains::SubmitOutcome::Busy {
                retry_after: self.retry_after,
            }
        }

        fn run_until(&mut self, _deadline: SimTime) -> Vec<coconut_types::TxOutcome> {
            Vec::new()
        }

        fn stats(&self) -> coconut_chains::SystemStats {
            coconut_chains::SystemStats::default()
        }
    }

    #[test]
    fn same_instant_sends_go_in_tx_id_order_not_schedule_order() {
        // A is scheduled at 0 and B at R, but B has the lower id. A's
        // `Busy` answer holds its retry off until exactly R (the hint
        // exceeds the backoff cap), so at R both sends are due: the lower
        // `TxId` must reach the system first, whatever the schedule
        // positions say.
        use coconut_types::{ClientId, Payload, ThreadId};
        let r = SimDuration::from_secs(1);
        let tx = |seq: u64, at: SimTime| ScheduledTx {
            at,
            tx: coconut_types::ClientTx::single(
                TxId::new(ClientId(0), seq),
                ThreadId(0),
                Payload::DoNothing,
                at,
            ),
        };
        let (a, b) = (TxId::new(ClientId(0), 7), TxId::new(ClientId(0), 3));
        let schedule = [tx(7, SimTime::ZERO), tx(3, SimTime::ZERO + r)];
        let policy = RetryPolicy {
            max_retries: 1,
            finalization_timeout: SimDuration::from_secs(60),
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(100),
            jitter: 0.0,
        };
        let mut sys = BusyRecorder {
            retry_after: r,
            sends: Vec::new(),
        };
        let spec = quick_spec(SystemKind::Fabric, 1.0);
        let run = run_chaos_with_schedule(
            &mut sys,
            &spec,
            &FaultPlan::new(),
            &policy,
            &ClientProtection::disabled(),
            &schedule,
            7,
        );
        let retry_of_a = TxId::new(ClientId(0), 7 | 2 << 56);
        let retry_of_b = TxId::new(ClientId(0), 3 | 2 << 56);
        let at_r = SimTime::ZERO + r;
        assert_eq!(
            sys.sends,
            vec![
                (SimTime::ZERO, a),
                (at_r, b),
                (at_r, retry_of_a),
                (at_r + r, retry_of_b),
            ]
        );
        assert_eq!(run.accounting.backpressured, 2);
        assert!(run.accounting.is_complete());
    }
}
