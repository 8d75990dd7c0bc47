//! Gray-failure resilience primitives for the cluster DES: a
//! deterministic, virtual-clock failure detector, hedged-request policy,
//! and a CoDel-style overload admission controller.
//!
//! A dead replica is easy — it stops answering and the fault plan says
//! so. The failure mode that dominates real fleets is the replica that is
//! merely *slow* (a saturated disk, a throttled core, our `slow@T:R:F`
//! fault): it keeps accepting work and misses every deadline. The
//! [`HealthDetector`] watches each replica's **completion progress** on
//! the shared virtual clock and scores it phi-accrual style: the
//! suspicion score is the time since the replica last completed a batch,
//! as a multiple of its smoothed inter-completion gap. A replica that is
//! busy but not completing degrades `Healthy → Suspect → Dead`; the
//! front door prefers Healthy replicas, falls back to Suspect, and
//! touches a gray-Dead replica only when nothing better exists. An idle
//! replica owes no progress and is never suspected.
//!
//! Everything here is integer arithmetic on virtual nanoseconds —
//! observed only at event-processing points, in event order — so every
//! score, state transition, hedge and admission decision is a pure
//! function of the schedule and the fault plan, byte-identical at any
//! `FNR_THREADS`.

use crate::sched::Priority;

/// A replica's detector state, in degradation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Completing on pace (or idle — an idle replica owes no progress).
    Healthy,
    /// Busy but behind pace: the front door routes around it when it can,
    /// and pending un-started requests on it are hedged.
    Suspect,
    /// So far behind pace it is treated as gray-dead: it takes new work
    /// only when no Healthy or Suspect replica accepts.
    Dead,
}

impl HealthState {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
        }
    }
}

/// Failure-detector policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Master switch: disabled (the default) means every replica always
    /// reads Healthy and routing is byte-identical to the pre-detector
    /// cluster.
    pub enabled: bool,
    /// Initial estimate of a replica's inter-completion gap before any
    /// observation; `0` derives it from the cluster's virtual service
    /// time. The per-replica estimate then tracks reality as an integer
    /// EWMA (α = 1/8).
    pub baseline_gap_ns: u64,
    /// Suspicion score (in thousandths: elapsed-since-progress over the
    /// smoothed gap × 1000) at or above which a busy replica is Suspect.
    pub suspect_milli: u64,
    /// Score at or above which a busy replica is gray-Dead.
    pub dead_milli: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: false,
            baseline_gap_ns: 0,
            suspect_milli: 4_000,
            dead_milli: 16_000,
        }
    }
}

/// One replica's progress book-keeping.
#[derive(Debug, Clone, Copy)]
struct ReplicaHealth {
    /// Smoothed inter-completion gap (integer EWMA, never below 1 ns).
    mean_gap_ns: u64,
    /// Virtual time of the last completion (or of going busy).
    last_progress_ns: u64,
    /// Whether any virtual worker is in service — only a busy replica
    /// owes progress.
    busy: bool,
    /// Cached state as of the last [`HealthDetector::refresh`], so
    /// transitions can be counted exactly once.
    state: HealthState,
    /// Time since last progress at which the score reaches
    /// `suspect_milli` (`None`: never), kept in step with `mean_gap_ns`.
    suspect_after_ns: Option<u64>,
    /// The same for `dead_milli`.
    dead_after_ns: Option<u64>,
}

impl ReplicaHealth {
    /// A replica that has made no progress since `now_ns`, at `gap_ns`.
    fn new(cfg: &HealthConfig, gap_ns: u64, now_ns: u64) -> Self {
        let mut h = ReplicaHealth {
            mean_gap_ns: gap_ns,
            last_progress_ns: now_ns,
            busy: false,
            state: HealthState::Healthy,
            suspect_after_ns: None,
            dead_after_ns: None,
        };
        h.set_crossings(cfg);
        h
    }

    /// Re-derives both threshold crossings from `mean_gap_ns`.
    fn set_crossings(&mut self, cfg: &HealthConfig) {
        self.suspect_after_ns = crossing_ns(cfg.suspect_milli, self.mean_gap_ns);
        self.dead_after_ns = crossing_ns(cfg.dead_milli, self.mean_gap_ns);
    }
}

/// The least elapsed time `e` at which the score `⌊min(e · 1000, u64::MAX)
/// / gap⌋` reaches `milli`: `⌈milli · gap / 1000⌉`, or `None` when that
/// product overflows (the saturated score `⌊u64::MAX / gap⌋` then stays
/// below `milli` forever).
fn crossing_ns(milli: u64, gap_ns: u64) -> Option<u64> {
    milli.checked_mul(gap_ns).map(|p| p.div_ceil(1_000))
}

/// The deterministic phi-accrual-style failure detector: per-replica
/// completion heartbeats on the virtual clock. See the module docs for
/// the model.
#[derive(Debug, Clone)]
pub struct HealthDetector {
    cfg: HealthConfig,
    baseline_gap_ns: u64,
    replicas: Vec<ReplicaHealth>,
}

impl HealthDetector {
    /// A detector over `replicas` replicas; `default_gap_ns` seeds the
    /// per-replica gap estimate when the config does not pin one.
    pub fn new(cfg: HealthConfig, replicas: usize, default_gap_ns: u64) -> Self {
        let baseline_gap_ns = if cfg.baseline_gap_ns > 0 {
            cfg.baseline_gap_ns
        } else {
            default_gap_ns.max(1)
        };
        HealthDetector {
            cfg,
            baseline_gap_ns,
            replicas: vec![ReplicaHealth::new(&cfg, baseline_gap_ns, 0); replicas],
        }
    }

    /// Whether the detector influences routing at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Registers a newly joined replica (scale-out), starting Healthy
    /// with the baseline gap estimate.
    pub fn push_replica(&mut self, now_ns: u64) {
        self.replicas.push(ReplicaHealth::new(&self.cfg, self.baseline_gap_ns, now_ns));
    }

    /// One observation of replica `r` at an event-processing point:
    /// whether any of its workers is in service, and whether it completed
    /// a batch at this instant (the heartbeat). A heartbeat moves the
    /// smoothed gap, and with it the replica's threshold crossings.
    pub fn observe(&mut self, r: usize, busy: bool, progressed: bool, now_ns: u64) {
        let h = &mut self.replicas[r];
        if progressed {
            let gap = now_ns.saturating_sub(h.last_progress_ns);
            // Integer EWMA, α = 1/8: adapts to the replica's real pace so
            // a legitimately slow service model is not forever Suspect.
            h.mean_gap_ns = (h.mean_gap_ns - h.mean_gap_ns / 8 + gap / 8).max(1);
            h.last_progress_ns = now_ns;
            h.set_crossings(&self.cfg);
        }
        if busy && !h.busy {
            // Going busy arms the clock: suspicion accrues from here.
            h.last_progress_ns = now_ns;
        }
        h.busy = busy;
    }

    /// The suspicion score of replica `r` at `now_ns`, in thousandths:
    /// time since last progress over the smoothed gap, × 1000. Zero while
    /// idle; monotone in elapsed time while busy (the phi-accrual shape,
    /// pinned by `tests/cluster_health.rs`).
    pub fn score_milli(&self, r: usize, now_ns: u64) -> u64 {
        let h = &self.replicas[r];
        if !h.busy {
            return 0;
        }
        now_ns.saturating_sub(h.last_progress_ns).saturating_mul(1_000) / h.mean_gap_ns
    }

    /// The state of replica `r` at `now_ns`: Dead once
    /// [`HealthDetector::score_milli`] reaches `dead_milli`, else Suspect
    /// once it reaches `suspect_milli`, else Healthy. With the detector
    /// disabled everything reads Healthy.
    ///
    /// No division: the time since last progress (zero while idle) is
    /// compared with the elapsed times at which the score crosses each
    /// threshold, which [`HealthDetector::observe`] re-derives whenever
    /// the smoothed gap moves. The verdict equals the score comparison
    /// for every gap, clock and threshold, overflow included.
    pub fn state(&self, r: usize, now_ns: u64) -> HealthState {
        if !self.cfg.enabled {
            return HealthState::Healthy;
        }
        let h = &self.replicas[r];
        let elapsed = if h.busy { now_ns.saturating_sub(h.last_progress_ns) } else { 0 };
        let reached = |after: Option<u64>| after.is_some_and(|after| elapsed >= after);
        if reached(h.dead_after_ns) {
            HealthState::Dead
        } else if reached(h.suspect_after_ns) {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        }
    }

    /// Re-evaluates replica `r`'s cached state at `now_ns` and returns
    /// `Some((old, new))` on a transition — called at event-processing
    /// points so transition counters (and suspect-triggered hedges) fire
    /// exactly once per crossing, in event order. Like
    /// [`HealthDetector::state`], it compares integers and never divides,
    /// so the cluster can re-check every replica after every event.
    pub fn refresh(&mut self, r: usize, now_ns: u64) -> Option<(HealthState, HealthState)> {
        let new = self.state(r, now_ns);
        let old = self.replicas[r].state;
        if new == old {
            return None;
        }
        self.replicas[r].state = new;
        Some((old, new))
    }

    /// Number of replicas the detector tracks.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the detector tracks no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }
}

/// Hedged-request policy: a routed request that has not *started service*
/// within `delay_ns` of admission (or whose replica turns Suspect) is
/// speculatively cloned to the next accepting ring replica. First
/// completion wins; the losing copy is cancelled (removed from its queue)
/// or suppressed (its in-service work completes but is discarded).
/// `u64::MAX` disables hedging — the disabled path is byte-identical to
/// the pre-hedging cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Virtual nanoseconds a request may sit un-started before its hedge
    /// fires; `u64::MAX` = never (hedging off).
    pub delay_ns: u64,
}

impl HedgeConfig {
    /// Hedging off.
    pub fn disabled() -> Self {
        HedgeConfig { delay_ns: u64::MAX }
    }

    /// Whether hedging is on.
    pub fn enabled(&self) -> bool {
        self.delay_ns != u64::MAX
    }
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig::disabled()
    }
}

/// CoDel-style front-door admission policy: per-replica queue-delay
/// control that sheds Batch-class arrivals early instead of letting every
/// class miss its deadline under overload.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Master switch: disabled (the default) admits everything the router
    /// accepts, byte-identical to the pre-controller cluster.
    pub enabled: bool,
    /// Target queue delay: a replica whose observed request queue delays
    /// stay at or above this for a full interval enters the dropping
    /// state.
    pub target_ns: u64,
    /// How long delays must continuously exceed the target before
    /// dropping starts (CoDel's interval).
    pub interval_ns: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { enabled: false, target_ns: 2_000_000, interval_ns: 10_000_000 }
    }
}

/// One replica's CoDel control state.
#[derive(Debug, Clone, Copy, Default)]
struct CoDelLane {
    /// When observed delays first went (and stayed) above target.
    above_since: Option<u64>,
    /// Whether the replica is currently shedding Batch-class arrivals.
    dropping: bool,
}

/// The per-replica CoDel-style admission controller. Observations are the
/// queue delays of requests at the instant a virtual worker takes them —
/// the same deterministic event stream the failure detector rides — so
/// the dropping state is a pure function of the schedule.
#[derive(Debug, Clone)]
pub struct CoDelAdmission {
    cfg: AdmissionConfig,
    lanes: Vec<CoDelLane>,
}

impl CoDelAdmission {
    /// A controller over `replicas` replicas.
    pub fn new(cfg: AdmissionConfig, replicas: usize) -> Self {
        CoDelAdmission { cfg, lanes: vec![CoDelLane::default(); replicas] }
    }

    /// Whether the controller sheds at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Registers a newly joined replica (scale-out).
    pub fn push_replica(&mut self) {
        self.lanes.push(CoDelLane::default());
    }

    /// One queue-delay observation for replica `r`: a request started
    /// service after waiting `queue_delay_ns`. A below-target observation
    /// resets the controller (the standing queue drained); delays that
    /// stay above target for a full interval flip it into dropping.
    pub fn observe(&mut self, r: usize, queue_delay_ns: u64, now_ns: u64) {
        if !self.cfg.enabled {
            return;
        }
        let lane = &mut self.lanes[r];
        if queue_delay_ns < self.cfg.target_ns {
            lane.above_since = None;
            lane.dropping = false;
        } else {
            match lane.above_since {
                None => lane.above_since = Some(now_ns),
                Some(t0) if now_ns.saturating_sub(t0) >= self.cfg.interval_ns => {
                    lane.dropping = true
                }
                Some(_) => {}
            }
        }
    }

    /// Whether a fresh arrival of `priority` routed to replica `r` should
    /// be shed at the front door. Only Batch-class work is sacrificed —
    /// the point is to keep Interactive/Standard deadlines alive.
    pub fn should_shed(&self, r: usize, priority: Priority) -> bool {
        self.cfg.enabled && priority == Priority::Batch && self.lanes[r].dropping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(suspect: u64, dead: u64) -> HealthDetector {
        let cfg = HealthConfig {
            enabled: true,
            baseline_gap_ns: 1_000,
            suspect_milli: suspect,
            dead_milli: dead,
        };
        HealthDetector::new(cfg, 2, 500)
    }

    #[test]
    fn idle_replicas_owe_no_progress() {
        let mut d = detector(4_000, 16_000);
        assert_eq!(d.score_milli(0, 1_000_000), 0);
        assert_eq!(d.state(0, 1_000_000), HealthState::Healthy);
        // Going busy arms the clock at that instant, not at zero.
        d.observe(0, true, false, 1_000_000);
        assert_eq!(d.score_milli(0, 1_000_000), 0);
        assert!(d.score_milli(0, 1_004_000) >= 4_000);
        // Going idle again disarms.
        d.observe(0, false, false, 1_010_000);
        assert_eq!(d.score_milli(0, 2_000_000), 0);
    }

    #[test]
    fn states_degrade_with_missed_progress_and_recover_on_completion() {
        let mut d = detector(4_000, 16_000);
        d.observe(0, true, false, 0);
        assert_eq!(d.state(0, 3_999), HealthState::Healthy);
        assert_eq!(d.state(0, 4_000), HealthState::Suspect);
        assert_eq!(d.state(0, 16_000), HealthState::Dead);
        assert!(d.refresh(0, 16_000).is_some(), "crossing is a transition");
        assert!(d.refresh(0, 17_000).is_none(), "no re-count without a crossing");
        // A completion is progress: the score collapses to zero.
        d.observe(0, true, true, 20_000);
        assert_eq!(d.score_milli(0, 20_000), 0);
        assert_eq!(d.refresh(0, 20_000), Some((HealthState::Dead, HealthState::Healthy)));
    }

    #[test]
    fn ewma_tracks_the_replicas_real_pace() {
        let mut d = detector(4_000, 16_000);
        d.observe(0, true, false, 0);
        // Steady 10 µs completion gaps: the smoothed gap climbs toward
        // 10 µs, so a 20 µs silence stops looking alarming.
        let mut t = 0;
        for _ in 0..64 {
            t += 10_000;
            d.observe(0, true, true, t);
        }
        assert!(d.score_milli(0, t + 20_000) < 4_000, "2x the real pace is not Suspect");
        // The untouched replica keeps its baseline estimate.
        d.observe(1, true, false, t);
        assert_eq!(d.state(1, t + 3_999), HealthState::Healthy);
        assert_eq!(d.state(1, t + 4_000), HealthState::Suspect);
    }

    #[test]
    fn disabled_detector_reads_healthy_forever() {
        let mut d = HealthDetector::new(HealthConfig::default(), 1, 500);
        d.observe(0, true, false, 0);
        assert_eq!(d.state(0, u64::MAX / 2), HealthState::Healthy);
        assert!(d.refresh(0, u64::MAX / 2).is_none());
    }

    mod division_free {
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::super::*;

        /// The state as the score formula gives it: the oracle
        /// [`HealthDetector::state`] must match without dividing.
        fn scored_state(d: &HealthDetector, r: usize, now_ns: u64) -> HealthState {
            let score = d.score_milli(r, now_ns);
            if score >= d.cfg.dead_milli {
                HealthState::Dead
            } else if score >= d.cfg.suspect_milli {
                HealthState::Suspect
            } else {
                HealthState::Healthy
            }
        }

        /// One of `edges` half the time, else a small, mid-sized or
        /// full-range value.
        fn pick(rng: &mut StdRng, edges: &[u64]) -> u64 {
            if rng.gen_bool(0.5) {
                return edges[rng.gen_range(0..edges.len())];
            }
            match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0..5_000),
                1 => rng.gen_range(0..1 << 40),
                _ => rng.gen_range(0..=u64::MAX),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random gaps (1 and `u64::MAX` included), thresholds (0 and
            /// values whose product with the gap overflows included),
            /// busy and idle observations, heartbeats that move the gap,
            /// and query clocks at `u64::MAX`, below the last progress and
            /// one either side of each crossing: the integer comparison
            /// always agrees with the score formula.
            #[test]
            fn prop_state_matches_the_score_formula(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let gap = pick(&mut rng, &[1, 2, 7, 999, 1_000, 1_001, u64::MAX / 1_000, u64::MAX]).max(1);
                let overflow = (u64::MAX / gap).saturating_add(1);
                let milli_edges = [0, 1, 999, 1_000, 4_000, 16_000, u64::MAX / gap, overflow, u64::MAX];
                let cfg = HealthConfig {
                    enabled: true,
                    baseline_gap_ns: gap,
                    suspect_milli: pick(&mut rng, &milli_edges),
                    dead_milli: pick(&mut rng, &milli_edges),
                };
                let mut d = HealthDetector::new(cfg, 1, 1);
                let mut cached = HealthState::Healthy;
                for _ in 0..24 {
                    let at = pick(&mut rng, &[0, 1, d.replicas[0].last_progress_ns, u64::MAX]);
                    d.observe(0, rng.gen_bool(0.7), rng.gen_bool(0.3), at);
                    let h = d.replicas[0];
                    let mut probes = vec![0, u64::MAX, h.last_progress_ns.saturating_sub(1), h.last_progress_ns];
                    for after in [h.suspect_after_ns, h.dead_after_ns].into_iter().flatten() {
                        let t = h.last_progress_ns.saturating_add(after);
                        probes.extend([t.saturating_sub(1), t, t.saturating_add(1)]);
                    }
                    probes.push(pick(&mut rng, &[h.last_progress_ns.saturating_add(h.mean_gap_ns)]));
                    for now in probes {
                        let want = scored_state(&d, 0, now);
                        prop_assert_eq!(d.state(0, now), want, "gap {} cfg {:?} at {}", h.mean_gap_ns, cfg, now);
                        let moved = d.refresh(0, now);
                        prop_assert_eq!(moved, (cached != want).then_some((cached, want)));
                        cached = want;
                    }
                }
            }
        }
    }

    #[test]
    fn codel_drops_batch_class_only_after_a_sustained_standing_queue() {
        let cfg = AdmissionConfig { enabled: true, target_ns: 1_000, interval_ns: 5_000 };
        let mut c = CoDelAdmission::new(cfg, 1);
        // Above target but not yet for a full interval: no dropping.
        c.observe(0, 2_000, 0);
        c.observe(0, 2_000, 4_999);
        assert!(!c.should_shed(0, Priority::Batch));
        // Sustained past the interval: Batch sheds, the rest never does.
        c.observe(0, 2_000, 5_000);
        assert!(c.should_shed(0, Priority::Batch));
        assert!(!c.should_shed(0, Priority::Interactive));
        assert!(!c.should_shed(0, Priority::Standard));
        // One below-target observation (queue drained) resets everything.
        c.observe(0, 500, 6_000);
        assert!(!c.should_shed(0, Priority::Batch));
    }

    #[test]
    fn disabled_admission_never_sheds() {
        let mut c = CoDelAdmission::new(AdmissionConfig::default(), 1);
        for t in 0..20u64 {
            c.observe(0, u64::MAX / 4, t * 1_000_000);
        }
        assert!(!c.should_shed(0, Priority::Batch));
    }

    #[test]
    fn hedge_config_sentinel_is_disabled() {
        assert!(!HedgeConfig::default().enabled());
        assert!(!HedgeConfig::disabled().enabled());
        assert!(HedgeConfig { delay_ns: 300_000 }.enabled());
    }
}
