//! Seeded fault injection and the resilience policies wrapped around it:
//! per-request retries, a per-key circuit breaker, and precision brownout.
//!
//! Everything here is deterministic and clock-injected. The
//! [`FaultInjector`] decides panics and delays as a pure function of
//! `(seed, job)` — never of timing, batch composition, or thread width —
//! so a chaos run poisons the *same* request set in the live threaded
//! server, the virtual-clock harness, and the cluster DES, and the digest
//! over non-poisoned responses stays byte-identical at any `FNR_THREADS`.
//! [`CircuitBreaker`] and [`Brownout`] take time and pressure through
//! method arguments, so every state transition is unit-testable without
//! threads or sleeps.

use std::collections::HashMap;

use crate::request::{job_hash, BatchKey, RenderPrecision, Workload};
use fnr_tensor::Precision;

/// SplitMix64 finalizer (bijective avalanche), shared by the fault roll,
/// the retry jitter, the hash ring and the synthetic payload so each is a
/// pure function of its seed.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fault the injector decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The request poisons its batch: execution panics until quarantine
    /// has bisected it down to a singleton and exhausted its retry
    /// budget, at which point it completes as
    /// [`crate::WaitOutcome::Failed`].
    Panic,
    /// Execution of any batch holding the request is slowed by this many
    /// nanoseconds (a real sleep live, added service time virtually).
    /// Timing-only: payload bytes are unaffected.
    Delay(u64),
}

/// Seeded, rate-controlled fault injection keyed by job hash.
///
/// Rates are in per-mille (‰) of the job-hash space: `panic_per_mille: 10`
/// poisons ~1 % of distinct jobs. Because the roll hashes the *job* (not
/// the request id or arrival time), the poisoned set is identical across
/// live/virtual/cluster modes and across retries — a poisoned request
/// stays poisoned, which is what lets the chaos soak predict exactly
/// which requests must resolve `Failed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjector {
    /// Mixed into every roll; changing it re-draws the poisoned set.
    pub seed: u64,
    /// Per-mille of jobs whose execution panics (0..=1000).
    pub panic_per_mille: u32,
    /// Per-mille of jobs whose execution is delayed (0..=1000), drawn
    /// from the range just above the panic band so the two never overlap.
    pub delay_per_mille: u32,
    /// Injected delay length in nanoseconds.
    pub delay_ns: u64,
}

impl FaultInjector {
    /// An injector that never fires (both rates zero).
    pub fn none() -> Self {
        FaultInjector { seed: 0, panic_per_mille: 0, delay_per_mille: 0, delay_ns: 0 }
    }

    /// Whether both rates are zero.
    pub fn is_empty(&self) -> bool {
        self.panic_per_mille == 0 && self.delay_per_mille == 0
    }

    /// The fault (if any) this injector assigns to `job` — a pure
    /// function of `(seed, job)`.
    pub fn decide(&self, job: &Workload) -> Option<InjectedFault> {
        if self.is_empty() {
            return None;
        }
        let roll = (mix(self.seed ^ job_hash(job)) % 1000) as u32;
        if roll < self.panic_per_mille {
            Some(InjectedFault::Panic)
        } else if roll < self.panic_per_mille + self.delay_per_mille {
            Some(InjectedFault::Delay(self.delay_ns))
        } else {
            None
        }
    }

    /// Whether `job` is in the poisoned (panic) set.
    pub fn poisons(&self, job: &Workload) -> bool {
        matches!(self.decide(job), Some(InjectedFault::Panic))
    }

    /// Parses a chaos spec of the form `panic=P,delay=D:DUR,seed=S` where
    /// `P` and `D` are per-mille rates, `DUR` is a duration with an
    /// optional `ns`/`us`/`ms`/`s` suffix (bare integers are nanoseconds)
    /// and every field is optional (`panic=10` alone is valid).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let grammar = "expected `panic=PER_MILLE`, `delay=PER_MILLE:DURATION`, `seed=N` \
                       separated by commas (e.g. `panic=10,delay=30:150us,seed=7`)";
        let mut inj = FaultInjector::none();
        for field in spec.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("fault field `{field}` has no `=`: {grammar}"))?;
            match key.trim() {
                "panic" => {
                    inj.panic_per_mille = parse_per_mille("panic", value)?;
                }
                "delay" => {
                    let (rate, dur) = value.split_once(':').ok_or_else(|| {
                        format!("delay field `{value}` has no `:DURATION` part: {grammar}")
                    })?;
                    inj.delay_per_mille = parse_per_mille("delay", rate)?;
                    inj.delay_ns = crate::cluster::parse_time_ns(dur.trim()).ok_or_else(|| {
                        format!(
                            "delay duration `{dur}` has a bad suffix or value (expected an \
                             integer with an optional ns/us/ms/s suffix)"
                        )
                    })?;
                }
                "seed" => {
                    inj.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault seed `{value}` is not an integer"))?;
                }
                other => {
                    return Err(format!("unknown fault field `{other}`: {grammar}"));
                }
            }
        }
        if inj.panic_per_mille + inj.delay_per_mille > 1000 {
            return Err(format!(
                "fault rates sum to {}‰ — panic + delay must not exceed 1000‰",
                inj.panic_per_mille + inj.delay_per_mille
            ));
        }
        Ok(inj)
    }
}

fn parse_per_mille(what: &str, value: &str) -> Result<u32, String> {
    let rate: u32 = value
        .trim()
        .parse()
        .map_err(|_| format!("{what} rate `{value}` is not an integer per-mille"))?;
    if rate > 1000 {
        return Err(format!("{what} rate {rate}‰ exceeds 1000‰"));
    }
    Ok(rate)
}

/// Per-request retry policy with seeded deterministic backoff + jitter.
///
/// A request gets `max_attempts` executions in total (1 = no retries).
/// Backoff between attempts is exponential from `backoff_ns` with jitter
/// drawn from `mix(seed ^ job_hash ^ attempt)` — a pure function, so two
/// runs with the same seed back off identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed per request (>= 1).
    pub max_attempts: u32,
    /// Base backoff before the first retry, in nanoseconds.
    pub backoff_ns: u64,
    /// Seed for the jitter draw.
    pub seed: u64,
}

/// Backoff never exceeds this (10 ms): retries must not stall drain.
const MAX_BACKOFF_NS: u64 = 10_000_000;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, backoff_ns: 500_000, seed: 0 }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (1-based: the first retry
    /// is attempt 1) of the request hashing to `job_hash`, in nanoseconds.
    pub fn backoff_for(&self, job_hash: u64, attempt: u32) -> u64 {
        let base = self
            .backoff_ns
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(MAX_BACKOFF_NS);
        let jitter_span = (base / 2).max(1);
        let jitter = mix(self.seed ^ job_hash ^ u64::from(attempt)) % jitter_span;
        (base + jitter).min(MAX_BACKOFF_NS)
    }
}

/// Breaker tuning. The default `failure_threshold` of 0 disables the
/// breaker entirely: persistent injected faults are isolated per-request
/// by quarantine, and tripping a whole `(scene, precision)` key on them
/// would make which *innocent* requests fast-fail depend on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures of one key that open its breaker; 0 disables.
    pub failure_threshold: u32,
    /// How long an open breaker blocks before half-opening a probe, in
    /// nanoseconds.
    pub cooldown_ns: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 0, cooldown_ns: 50_000_000 }
    }
}

/// Observable state of one key's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are being counted.
    Closed,
    /// Traffic fast-fails until the cooldown elapses.
    Open,
    /// One probe is in flight; everything else fast-fails until it
    /// resolves.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct KeyBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ns: u64,
}

/// Per-[`BatchKey`] circuit breaker — for renders that is per
/// `(scene, precision)`. Clock-injected and lock-free internally: the
/// caller serializes access (the server keeps it behind one mutex).
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    keys: HashMap<BatchKey, KeyBreaker>,
    opened: usize,
    half_open_probes: usize,
}

impl CircuitBreaker {
    /// A breaker with the given tuning (threshold 0 = disabled).
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker { cfg, keys: HashMap::new(), opened: 0, half_open_probes: 0 }
    }

    /// Whether the breaker does anything at all.
    pub fn enabled(&self) -> bool {
        self.cfg.failure_threshold > 0
    }

    /// Whether a batch of `key` may execute at time `now_ns`. An open
    /// breaker whose cooldown has elapsed half-opens and admits exactly
    /// one probe; further calls fast-fail until the probe resolves.
    pub fn allow(&mut self, key: &BatchKey, now_ns: u64) -> bool {
        if !self.enabled() {
            return true;
        }
        let Some(kb) = self.keys.get_mut(key) else { return true };
        match kb.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if now_ns.saturating_sub(kb.opened_at_ns) >= self.cfg.cooldown_ns {
                    kb.state = BreakerState::HalfOpen;
                    self.half_open_probes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful execution of `key`: closes a half-open
    /// breaker and resets the failure streak.
    pub fn record_success(&mut self, key: &BatchKey) {
        if !self.enabled() {
            return;
        }
        if let Some(kb) = self.keys.get_mut(key) {
            kb.state = BreakerState::Closed;
            kb.consecutive_failures = 0;
        }
    }

    /// Records a failed execution of `key` at time `now_ns`: re-opens a
    /// half-open breaker immediately, or opens a closed one once the
    /// streak reaches the threshold.
    pub fn record_failure(&mut self, key: &BatchKey, now_ns: u64) {
        if !self.enabled() {
            return;
        }
        let kb = self.keys.entry(key.clone()).or_insert(KeyBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_ns: 0,
        });
        kb.consecutive_failures = kb.consecutive_failures.saturating_add(1);
        let reopen = kb.state == BreakerState::HalfOpen
            || (kb.state == BreakerState::Closed
                && kb.consecutive_failures >= self.cfg.failure_threshold);
        if reopen {
            kb.state = BreakerState::Open;
            kb.opened_at_ns = now_ns;
            self.opened += 1;
        }
    }

    /// Current state of `key`'s breaker (Closed if never tripped).
    pub fn state(&self, key: &BatchKey) -> BreakerState {
        self.keys.get(key).map_or(BreakerState::Closed, |kb| kb.state)
    }

    /// How many times any key's breaker has opened (including re-opens).
    pub fn opened(&self) -> usize {
        self.opened
    }

    /// How many half-open probes have been admitted.
    pub fn half_open_probes(&self) -> usize {
        self.half_open_probes
    }
}

/// Brownout tuning. Disabled by default; `engage_depth: 0` with
/// `enabled: true` means "always engaged" (a deterministic test posture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Master switch.
    pub enabled: bool,
    /// Total queued requests (across lanes) at or above which the
    /// brownout engages.
    pub engage_depth: usize,
    /// Total queued requests strictly below which an engaged brownout
    /// releases. Keep below `engage_depth` for hysteresis; values above
    /// `engage_depth` are clamped to it at observation time (see
    /// [`Brownout::observe`]).
    pub release_depth: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig { enabled: false, engage_depth: 64, release_depth: 16 }
    }
}

/// The brownout controller: a two-threshold (hysteresis) comparator over
/// the scheduler's observed queue depth. While engaged, Standard/Batch
/// render requests are downgraded one precision step at dispatch and
/// counted `degraded`; Interactive traffic is never touched. Pressure
/// clearing releases the brownout and full precision resumes.
#[derive(Debug, Clone, Copy)]
pub struct Brownout {
    cfg: BrownoutConfig,
    engaged: bool,
}

impl Brownout {
    /// A controller in the released state.
    pub fn new(cfg: BrownoutConfig) -> Self {
        Brownout { cfg, engaged: false }
    }

    /// Feeds one queue-depth observation; returns whether the brownout is
    /// engaged afterwards.
    ///
    /// The comparator is inclusive on exactly one side: depth ≥
    /// `engage_depth` engages, depth < the release threshold releases, so
    /// a depth sitting on a boundary maps to exactly one state and a
    /// constant queue can never flap the controller. A misconfigured
    /// `release_depth > engage_depth` would break that (depths in
    /// `[engage, release)` would engage and release on alternate
    /// observations), so the release threshold is clamped to
    /// `engage_depth`; `release_depth == engage_depth` degenerates to a
    /// plain threshold comparator, which is stable.
    pub fn observe(&mut self, queued: usize) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        if self.engaged {
            if queued < self.cfg.release_depth.min(self.cfg.engage_depth) {
                self.engaged = false;
            }
        } else if queued >= self.cfg.engage_depth {
            self.engaged = true;
        }
        self.engaged
    }

    /// Whether the brownout is currently engaged.
    pub fn engaged(&self) -> bool {
        self.cfg.enabled && self.engaged
    }
}

/// The next-cheaper precision on the brownout ladder
/// (fp32 → int16 → int8 → int4), or `None` from the floor.
pub fn degrade_precision(p: RenderPrecision) -> Option<RenderPrecision> {
    match p {
        RenderPrecision::Fp32 | RenderPrecision::Quantized(Precision::Fp32) => {
            Some(RenderPrecision::Quantized(Precision::Int16))
        }
        RenderPrecision::Quantized(Precision::Int16) => {
            Some(RenderPrecision::Quantized(Precision::Int8))
        }
        RenderPrecision::Quantized(Precision::Int8) => {
            Some(RenderPrecision::Quantized(Precision::Int4))
        }
        RenderPrecision::Quantized(Precision::Int4) => None,
    }
}

/// A parser fuzz input from `words`: each word picks one of `pieces`
/// or, one time in five, an arbitrary `char`.
#[cfg(test)]
pub(crate) fn fuzz_spec(words: &[u64], pieces: &[&str]) -> String {
    let piece = |w: u64| match w % 5 {
        0 => char::from_u32((w >> 8) as u32 % 0x11_0000).unwrap_or('?').to_string(),
        _ => pieces[(w >> 8) as usize % pieces.len()].to_string(),
    };
    words.iter().map(|&w| piece(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RenderJob, SceneKind};

    fn render_job(seed: u64) -> Workload {
        Workload::Render(RenderJob {
            scene: SceneKind::Mic,
            precision: RenderPrecision::Fp32,
            width: 8,
            height: 8,
            spp: 2,
            camera_seed: seed,
        })
    }

    #[test]
    fn injector_decisions_are_pure_and_rate_shaped() {
        let inj = FaultInjector { seed: 7, panic_per_mille: 100, delay_per_mille: 100, delay_ns: 5 };
        let mut panics = 0;
        let mut delays = 0;
        for s in 0..2000 {
            let job = render_job(s);
            assert_eq!(inj.decide(&job), inj.decide(&job), "decision must be pure");
            match inj.decide(&job) {
                Some(InjectedFault::Panic) => panics += 1,
                Some(InjectedFault::Delay(d)) => {
                    assert_eq!(d, 5);
                    delays += 1;
                }
                None => {}
            }
        }
        // ~10% each; generous bounds, the point is "roughly the dialed rate".
        assert!((100..400).contains(&panics), "panic count {panics} far from 10%");
        assert!((100..400).contains(&delays), "delay count {delays} far from 10%");
        let reseeded = FaultInjector { seed: 8, ..inj };
        assert!(
            (0..2000).any(|s| inj.decide(&render_job(s)) != reseeded.decide(&render_job(s))),
            "seed must move the poisoned set"
        );
    }

    #[test]
    fn injector_spec_round_trips() {
        let inj = FaultInjector::parse("panic=12, delay=30:150us, seed=7").unwrap();
        assert_eq!(
            inj,
            FaultInjector { seed: 7, panic_per_mille: 12, delay_per_mille: 30, delay_ns: 150_000 }
        );
        assert!(FaultInjector::parse("").unwrap().is_empty());
        assert!(FaultInjector::parse("panic=0").unwrap().is_empty());
    }

    #[test]
    fn injector_spec_errors_are_descriptive() {
        for (spec, needle) in [
            ("panic", "no `=`"),
            ("panic=many", "not an integer"),
            ("panic=1001", "exceeds 1000"),
            ("delay=5", "no `:DURATION`"),
            ("delay=5:12parsecs", "suffix"),
            ("seed=x", "not an integer"),
            ("jitter=3", "unknown fault field"),
            ("panic=600,delay=600:1ms", "must not exceed 1000"),
        ] {
            let err = FaultInjector::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec `{spec}`: error `{err}` misses `{needle}`");
        }
    }

    #[test]
    fn retry_backoff_is_deterministic_capped_and_growing() {
        let p = RetryPolicy { max_attempts: 4, backoff_ns: 1_000_000, seed: 3 };
        assert_eq!(p.backoff_for(42, 1), p.backoff_for(42, 1));
        assert!(p.backoff_for(42, 2) >= p.backoff_for(42, 1) / 2, "roughly growing");
        for attempt in 1..40 {
            assert!(p.backoff_for(42, attempt) <= MAX_BACKOFF_NS);
        }
        assert_ne!(p.backoff_for(42, 1), p.backoff_for(43, 1), "jitter keyed by job hash");
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_open_probe_recovers() {
        let key = BatchKey::Table("t".into());
        let mut br =
            CircuitBreaker::new(BreakerConfig { failure_threshold: 2, cooldown_ns: 1000 });
        assert!(br.allow(&key, 0));
        br.record_failure(&key, 0);
        assert_eq!(br.state(&key), BreakerState::Closed, "one failure below threshold");
        br.record_failure(&key, 10);
        assert_eq!(br.state(&key), BreakerState::Open);
        assert_eq!(br.opened(), 1);
        assert!(!br.allow(&key, 500), "cooldown still running");
        assert!(br.allow(&key, 1_010), "cooldown elapsed: one probe admitted");
        assert_eq!(br.state(&key), BreakerState::HalfOpen);
        assert!(!br.allow(&key, 1_020), "only one probe until it resolves");
        assert_eq!(br.half_open_probes(), 1);
        br.record_success(&key);
        assert_eq!(br.state(&key), BreakerState::Closed);
        assert!(br.allow(&key, 1_030));
    }

    #[test]
    fn half_open_failure_reopens_and_threshold_zero_disables() {
        let key = BatchKey::Table("t".into());
        let mut br =
            CircuitBreaker::new(BreakerConfig { failure_threshold: 1, cooldown_ns: 1000 });
        br.record_failure(&key, 0);
        assert!(br.allow(&key, 2_000), "probe");
        br.record_failure(&key, 2_000);
        assert_eq!(br.state(&key), BreakerState::Open, "failed probe reopens");
        assert_eq!(br.opened(), 2);
        assert!(!br.allow(&key, 2_500));

        let mut off = CircuitBreaker::new(BreakerConfig::default());
        for t in 0..100 {
            off.record_failure(&key, t);
            assert!(off.allow(&key, t), "threshold 0 never trips");
        }
        assert_eq!(off.opened(), 0);
    }

    #[test]
    fn brownout_hysteresis_engages_and_releases() {
        let mut b = Brownout::new(BrownoutConfig {
            enabled: true,
            engage_depth: 10,
            release_depth: 4,
        });
        assert!(!b.observe(9), "below engage threshold");
        assert!(b.observe(10), "at threshold: engaged");
        assert!(b.observe(5), "hysteresis: stays engaged between thresholds");
        assert!(!b.observe(3), "below release threshold: released");
        let mut off = Brownout::new(BrownoutConfig::default());
        assert!(!off.observe(usize::MAX), "disabled controller never engages");
    }

    /// A queue pinned exactly at `engage_depth` maps to one state — the
    /// comparator is inclusive on the engage side only, so repeated
    /// observations of the boundary depth never flip the controller.
    #[test]
    fn brownout_is_stable_at_the_engage_boundary() {
        let mut b = Brownout::new(BrownoutConfig {
            enabled: true,
            engage_depth: 10,
            release_depth: 4,
        });
        assert!(b.observe(10), "boundary engages");
        for _ in 0..8 {
            assert!(b.observe(10), "boundary depth must stay engaged, never flap");
        }
    }

    /// Coinciding watermarks degenerate to a plain threshold comparator:
    /// still stable at every depth, including the shared boundary.
    #[test]
    fn brownout_with_equal_watermarks_does_not_flap() {
        let mut b = Brownout::new(BrownoutConfig {
            enabled: true,
            engage_depth: 8,
            release_depth: 8,
        });
        assert!(!b.observe(7), "below threshold stays released");
        for _ in 0..8 {
            assert!(b.observe(8), "at threshold: engaged and stable");
        }
        assert!(!b.observe(7), "dropping below releases");
        assert!(!b.observe(7), "and stays released");
    }

    /// An inverted configuration (`release_depth > engage_depth`) used to
    /// engage and release on alternate observations of a constant depth in
    /// `[engage, release)`; the release threshold is now clamped to
    /// `engage_depth`, so the controller is stable for every config.
    #[test]
    fn brownout_with_inverted_watermarks_is_clamped_stable() {
        let mut b = Brownout::new(BrownoutConfig {
            enabled: true,
            engage_depth: 5,
            release_depth: 20,
        });
        let mut states = Vec::new();
        for _ in 0..6 {
            states.push(b.observe(10));
        }
        assert!(states.iter().all(|&s| s), "constant depth 10 ≥ engage must hold engaged: {states:?}");
        assert!(!b.observe(4), "below engage releases under the clamped threshold");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Fragments of the chaos grammar, numbers around the per-mille
        /// and `u64` edges, and separators.
        const PIECES: [&str; 21] = [
            "panic", "delay", "seed", "=", ":", ",", "ns", "us", "ms", "s", "0", "12", "1000",
            "1001", "4294967296", "18446744073709551616", "-1", " ", "‰", "\n", "",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `--faults-live` reaches `FaultInjector::parse` with any
            /// string: it returns a value or an error, never panics, and
            /// an injector it accepts keeps its rates within 1000‰.
            #[test]
            fn prop_injector_parse_never_panics(words in proptest::collection::vec(0u64..u64::MAX, 0..24)) {
                if let Ok(inj) = FaultInjector::parse(&fuzz_spec(&words, &PIECES)) {
                    prop_assert!(inj.panic_per_mille + inj.delay_per_mille <= 1000);
                }
            }

            /// The post-jitter backoff can never exceed `MAX_BACKOFF_NS`,
            /// for any attempt number (including the out-of-contract 0)
            /// and any base — including `u64::MAX`, where the exponential
            /// saturates before the cap applies.
            #[test]
            fn prop_backoff_never_exceeds_cap(
                backoff_ns in 0u64..=u64::MAX,
                attempt in 0u32..100,
                seed in 0u64..=u64::MAX,
                job_hash in 0u64..=u64::MAX,
            ) {
                let p = RetryPolicy { max_attempts: 5, backoff_ns, seed };
                let b = p.backoff_for(job_hash, attempt);
                prop_assert!(
                    b <= MAX_BACKOFF_NS,
                    "backoff {b} > cap for base {backoff_ns}, attempt {attempt}"
                );
            }

            /// Attempt 0 and attempt 1 share the exponent (saturating_sub)
            /// — pinned here so a refactor can't turn attempt 0 into a
            /// shifted-by-minus-one overflow.
            #[test]
            fn prop_backoff_attempt_zero_is_bounded_by_attempt_one_base(
                backoff_ns in 1u64..=MAX_BACKOFF_NS,
                seed in 0u64..=u64::MAX,
                job_hash in 0u64..=u64::MAX,
            ) {
                let p = RetryPolicy { max_attempts: 5, backoff_ns, seed };
                for attempt in [0u32, 1] {
                    let b = p.backoff_for(job_hash, attempt);
                    prop_assert!(b >= backoff_ns.min(MAX_BACKOFF_NS));
                    prop_assert!(b <= MAX_BACKOFF_NS);
                }
            }
        }
    }

    #[test]
    fn degrade_ladder_bottoms_out_at_int4() {
        let mut p = RenderPrecision::Fp32;
        let mut steps = Vec::new();
        while let Some(next) = degrade_precision(p) {
            steps.push(next.name());
            p = next;
        }
        assert_eq!(steps, ["int16", "int8", "int4"]);
        assert_eq!(degrade_precision(RenderPrecision::Quantized(Precision::Fp32)), Some(RenderPrecision::Quantized(Precision::Int16)));
    }
}
