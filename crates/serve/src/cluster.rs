//! Deterministic cluster discrete-event simulation: N replica serving
//! pipelines behind a seeded consistent-hash front door, with fault
//! injection, on one shared virtual clock.
//!
//! Each replica is one record: the scheduling core (`Pipeline` — lanes,
//! weighted-deficit scheduler, brownout, batcher, the `2 × workers` ready
//! queue, and the ledger every terminal outcome folds into), the virtual
//! workers that take its ready batches and report back in virtual
//! nanoseconds, their service model (flat and per-member cost, stretched
//! by a gray-failure slow factor, plus a cold-start cost whenever the
//! modeled per-`(scene, precision)` model cache misses), the seeded chaos
//! injector (same seeds, same poisoned set as live mode), and the front
//! door's lifecycle and counters for it. Every externally visible step —
//! a chunk starting service, completing, or lost to a shed or an injected
//! failure — is queued as a `PipeEvent` and drained by the front door
//! after every fire or pump. The drain feeds the failure detector, CoDel
//! admission and the hedge arbiter, and is the only place a loss is
//! recorded.
//!
//! The front door routes every arrival by its coalescing key over a
//! [`HashRing`] (scene affinity: same key, same replica, warm cache, fat
//! batches), skipping replicas that are dead or at their inflight bound.
//! A [`FaultPlan`] kills and restarts replicas on the virtual clock: a
//! kill orphans everything in flight on that replica and the front door
//! immediately re-routes the orphans over the surviving ring (failover)
//! or drops them; the replica restarts with a cold cache.
//!
//! Everything that *decides* — routing, admission, scheduling, batching,
//! cache hits, fault handling — runs single-threaded in event order, so
//! for a fixed schedule and fault plan the cluster digest, per-replica
//! counters, cache ratios and latency histograms are byte-identical at
//! any `FNR_THREADS`; the decided batches then render for real over
//! `fnr_par` (or produce tiny synthetic hash payloads for
//! million-request runs). This is the only virtual-clock event loop:
//! `run_virtual` is this simulator over one replica with no faults, a free
//! model cache and an unbounded front door, so the 1-replica equivalence
//! holds by construction.
//!
//! Hedging is the front door's duplicate-request policy: a slow chunk
//! gets a second copy on another replica, and whichever copy completes
//! first wins. The front door alone keeps the books on which copies are
//! live (`Tracked`), and records a lost chunk unless another copy still
//! owns it.

use std::collections::{HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::Batch;
use crate::fault::{FaultInjector, InjectedFault};
use crate::health::{AdmissionConfig, CoDelAdmission, HealthConfig, HealthDetector, HealthState, HedgeConfig};
use crate::metrics::{ClusterMetrics, FrontDoorTotals, ReplicaStats};
use crate::pipeline::Pipeline;
use crate::request::{
    assemble_chunks, clock_ns, effective_chunks, fnv1a, response_set_digest, set_digest,
    synthetic_chunk_payload, BatchKey, ChunkResponse, ChunkSpan, Request, Response,
};
use crate::router::{HashRing, RouterConfig};
use crate::server::{execute_batch, ServerConfig};
use crate::workload::TimedJob;

/// Virtual service model for the cluster simulator.
#[derive(Debug, Clone, Copy)]
pub struct ClusterService {
    /// Virtual time one batch occupies one virtual worker.
    pub service_ns: u64,
    /// Size-aware cost: extra virtual time per batch *member*, so a fat
    /// batch costs more than a singleton. Zero (the default) reproduces
    /// the flat per-batch model exactly.
    pub per_item_ns: u64,
    /// Extra virtual time the *first* batch of a `(scene, precision)`
    /// model pays after a cold start (quantize + calibrate + upload);
    /// subsequent batches hit the replica's model cache.
    pub cold_start_ns: u64,
}

impl Default for ClusterService {
    fn default() -> Self {
        ClusterService { service_ns: 500_000, per_item_ns: 0, cold_start_ns: 2_000_000 }
    }
}

/// What a fault event does to its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash: orphan all in-flight work, reset scheduler/batcher state,
    /// drop the model cache. Ignored if the replica is already dead.
    Kill,
    /// Bring a dead (or departed) replica back (cold), rejoining the
    /// ring if it had left. Ignored if already alive.
    Restart,
    /// Gray failure: multiply the replica's virtual service times by
    /// `factor` from this instant on (factor 1 restores nominal speed).
    /// The replica stays alive and keeps accepting work — exactly the
    /// failure the health detector exists to catch.
    Slow {
        /// Service-time multiplier (≥ 1).
        factor: u32,
    },
    /// Scale-out: add a brand-new replica (next free index, cold cache)
    /// to the cluster and the ring. The event's `replica` field is
    /// ignored — a join always takes the next index.
    Join,
    /// Graceful scale-in: the replica leaves the ring immediately,
    /// admits nothing new, finishes everything in flight, then departs.
    Leave,
}

/// One scheduled fault on the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// Virtual time the fault fires.
    pub at_ns: u64,
    /// Target replica index.
    pub replica: usize,
    /// Kill or restart.
    pub kind: FaultKind,
}

/// A time-sorted schedule of replica faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan over the given events, sorted by time (stable, so
    /// same-instant events keep their listed order — a kill listed
    /// before a restart at the same tick stays kill-first).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_ns);
        FaultPlan { events }
    }

    /// Parses the CLI fault grammar: a comma-separated list of
    /// `kill@TIME:REPLICA` / `restart@TIME:REPLICA` /
    /// `slow@TIME:REPLICA:FACTOR` / `join@TIME` / `leave@TIME:REPLICA`,
    /// where `TIME` takes an `ns`/`us`/`ms`/`s` suffix — e.g.
    /// `kill@500ms:1,restart@900ms:1,slow@1s:2:8,join@2s,leave@3s:0`.
    /// An empty string is no faults.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        let mut left = Vec::new();
        let mut joins = 0usize;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind_s, rest) = part.split_once('@').ok_or_else(|| {
                format!("fault `{part}`: expected KIND@TIME:REPLICA (e.g. `kill@500ms:1`)")
            })?;
            let bad_time = |time_s: &str| {
                format!(
                    "fault `{part}`: bad time `{time_s}` (expected an integer with an \
                     optional ns/us/ms/s suffix)"
                )
            };
            let bad_replica = |replica_s: &str| {
                format!("fault `{part}`: bad replica `{replica_s}` (expected a replica index)")
            };
            let time_replica = |shape: &str| {
                let (time_s, replica_s) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("fault `{part}`: expected {shape}"))?;
                let at_ns = parse_time_ns(time_s).ok_or_else(|| bad_time(time_s))?;
                Ok::<(u64, &str), String>((at_ns, replica_s))
            };
            let (at_ns, replica, kind) = match kind_s {
                "kill" | "restart" | "leave" => {
                    let (at_ns, replica_s) =
                        time_replica(&format!("{kind_s}@TIME:REPLICA (e.g. `{kind_s}@500ms:1`)"))?;
                    let replica: usize =
                        replica_s.parse().map_err(|_| bad_replica(replica_s))?;
                    let kind = match kind_s {
                        "kill" => FaultKind::Kill,
                        "restart" => FaultKind::Restart,
                        _ => {
                            if left.contains(&replica) {
                                return Err(format!(
                                    "fault `{part}`: replica {replica} already has a `leave` \
                                     event (a replica can leave at most once)"
                                ));
                            }
                            left.push(replica);
                            FaultKind::Leave
                        }
                    };
                    (at_ns, replica, kind)
                }
                "slow" => {
                    let (at_ns, rest_s) =
                        time_replica("slow@TIME:REPLICA:FACTOR (e.g. `slow@500ms:1:8`)")?;
                    let (replica_s, factor_s) = rest_s.split_once(':').ok_or_else(|| {
                        format!(
                            "fault `{part}`: expected slow@TIME:REPLICA:FACTOR \
                             (e.g. `slow@500ms:1:8`)"
                        )
                    })?;
                    let replica: usize =
                        replica_s.parse().map_err(|_| bad_replica(replica_s))?;
                    let factor: u32 = factor_s.parse().ok().filter(|&f| f >= 1).ok_or_else(|| {
                        format!(
                            "fault `{part}`: bad slow factor `{factor_s}` (expected an \
                             integer ≥ 1; 1 restores nominal speed)"
                        )
                    })?;
                    (at_ns, replica, FaultKind::Slow { factor })
                }
                "join" => {
                    if rest.contains(':') {
                        return Err(format!(
                            "fault `{part}`: expected join@TIME (a join always adds the next \
                             replica index — it takes no replica argument)"
                        ));
                    }
                    let at_ns = parse_time_ns(rest).ok_or_else(|| bad_time(rest))?;
                    joins += 1;
                    if joins > crate::router::MAX_REPLICAS {
                        return Err(format!(
                            "fault `{part}`: {joins} `join` events exceed the ring capacity \
                             of {} replicas",
                            crate::router::MAX_REPLICAS
                        ));
                    }
                    (at_ns, usize::MAX, FaultKind::Join)
                }
                other => {
                    return Err(format!(
                        "fault `{part}`: unknown fault kind `{other}` (expected `kill`, \
                         `restart`, `slow`, `join` or `leave`)"
                    ))
                }
            };
            events.push(FaultEvent { at_ns, replica, kind });
        }
        Ok(FaultPlan::new(events))
    }

    /// Number of `join` (scale-out) events in the plan.
    pub fn joins(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, FaultKind::Join)).count()
    }

    /// Checks the plan against a concrete cluster size: the base replica
    /// count plus every scale-out join must fit the ring. The CLI calls
    /// this before a run so the error points at the plan, not at a panic
    /// deep in the simulator.
    pub fn validate_for(&self, base_replicas: usize) -> Result<(), String> {
        let joins = self.joins();
        if base_replicas.saturating_add(joins) > crate::router::MAX_REPLICAS {
            return Err(format!(
                "fault plan: {base_replicas} base replicas + {joins} `join` events exceed \
                 the ring capacity of {} replicas",
                crate::router::MAX_REPLICAS
            ));
        }
        Ok(())
    }

    /// A seeded random plan: `kills` kill events at uniform times in the
    /// middle of `[0, horizon_ns)`, each followed by a restart after a
    /// seeded downtime — the chaos suite's generator. Total on every
    /// horizon: the 80 % bound is taken in `u128`, and every restart
    /// lands before `0.925 · horizon`, so no sum can wrap.
    pub fn seeded(seed: u64, replicas: usize, horizon_ns: u64, kills: usize) -> Self {
        let horizon = horizon_ns.max(1_000);
        let late = (horizon as u128 * 8 / 10) as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for _ in 0..kills {
            let replica = rng.gen_range(0usize..replicas.max(1));
            let at_ns = rng.gen_range(horizon / 10..late);
            let downtime = rng.gen_range(horizon / 50..horizon / 8);
            events.push(FaultEvent { at_ns, replica, kind: FaultKind::Kill });
            events.push(FaultEvent { at_ns: at_ns + downtime, replica, kind: FaultKind::Restart });
        }
        FaultPlan::new(events)
    }

    /// The schedule, time-sorted.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Parses `500ms` / `250us` / `3s` / `1200ns` into nanoseconds. Shared
/// with the chaos-injector spec grammar ([`crate::fault::FaultInjector`]).
pub(crate) fn parse_time_ns(s: &str) -> Option<u64> {
    let (num, mul) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000)
    } else {
        (s, 1)
    };
    num.parse::<u64>().ok().map(|v| v.saturating_mul(mul))
}

/// How decided batches turn into response bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    /// Render for real through the production batch executor (pixels /
    /// table bytes) — the default, digest-compatible with the threaded
    /// server and `run_virtual`.
    Render,
    /// 16-byte deterministic hash payloads ([`crate::synthetic_payload`]):
    /// the same purity and digest-equivalence contract at a cost that
    /// lets CI replay millions of requests.
    Synthetic,
}

impl PayloadMode {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "render" => Some(PayloadMode::Render),
            "synthetic" => Some(PayloadMode::Synthetic),
            _ => None,
        }
    }
}

/// Cluster shape and policy.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Replica count (1..=128).
    pub replicas: usize,
    /// Per-replica server configuration (lanes, workers, batcher).
    pub server: ServerConfig,
    /// Consistent-hash ring shape.
    pub router: RouterConfig,
    /// Per-replica inflight bound: the front door walks past a replica
    /// holding this many un-terminated requests.
    pub max_inflight: usize,
    /// Virtual service model (per-batch cost + cache cold-start cost).
    pub service: ClusterService,
    /// Replica kill/restart schedule.
    pub faults: FaultPlan,
    /// Per-request chaos injection, shared with live mode: the same seeds
    /// poison the same requests in both. `None` falls back to the server
    /// config's injector.
    pub injector: Option<FaultInjector>,
    /// Real renders or synthetic hash payloads.
    pub payload: PayloadMode,
    /// Failure detector (gray-failure suspicion scoring). Disabled by
    /// default: routing is byte-identical to the pre-detector cluster.
    pub health: HealthConfig,
    /// Hedged-request policy. Disabled by default (`delay_ns ==
    /// u64::MAX`): the disabled path reproduces pre-hedging digests
    /// exactly.
    pub hedge: HedgeConfig,
    /// CoDel-style overload admission at the front door. Disabled by
    /// default.
    pub admission: AdmissionConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 4,
            server: ServerConfig::default(),
            router: RouterConfig::default(),
            max_inflight: 1024,
            service: ClusterService::default(),
            faults: FaultPlan::none(),
            injector: None,
            payload: PayloadMode::Render,
            health: HealthConfig::default(),
            hedge: HedgeConfig::disabled(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// What [`run_cluster`] returns.
#[derive(Debug)]
pub struct ClusterReport {
    /// All responses served anywhere in the cluster, sorted by request id.
    pub responses: Vec<Response>,
    /// Cluster-wide and per-replica metrics.
    pub metrics: ClusterMetrics,
}

/// A replica's lifecycle in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    /// Alive and (unless it left the ring) taking work.
    Up,
    /// Left the ring gracefully (`leave@T:R`): admits nothing new,
    /// finishes everything in flight.
    Draining,
    /// Finished draining after a leave: idle, out of the ring.
    Departed,
    /// Crashed (fault-plan kill).
    Down,
}

/// A batch in service on a virtual worker.
struct Running {
    batch: Batch,
    start_ns: u64,
    service_ns: u64,
}

impl Running {
    /// Virtual time the batch completes and its worker frees up
    /// (saturating: the clock ends at `u64::MAX`).
    fn done_at(&self) -> u64 {
        self.start_ns.saturating_add(self.service_ns)
    }
}

/// One replica event, queued at the instant it happens, in event order,
/// and drained by the front door after every fire/pump of the replica.
#[derive(Debug)]
enum PipeEvent {
    /// A virtual worker took the chunk's batch after `queue_ns` waiting.
    Started { id: u64, chunk: u32, queue_ns: u64 },
    /// The chunk's batch completed service (it will be served).
    Completed { id: u64, chunk: u32 },
    /// `req` was shed by the scheduler, or `failed` by the chaos
    /// injector, at virtual time `at_ns`, and is not yet recorded:
    /// [`ClusterState::settle_loss`] records it.
    Lost { req: Request, at_ns: u64, failed: bool },
}

/// One replica: its scheduling core, virtual workers, service model,
/// modeled model cache and chaos injector, plus its lifecycle and the
/// cluster-layer counters its [`ReplicaStats`] reports.
struct Replica {
    /// The scheduling core and its ledger.
    core: Pipeline,
    /// Scratch for the core's sheds, drained after every pump.
    shed: Vec<Request>,
    /// The service model (`service_ns` is at least 1).
    service: ClusterService,
    /// Gray-failure injection: every batch's virtual service time is
    /// multiplied by this (the `slow@T:R:F` fault). 1 = nominal speed;
    /// batches already in service keep their committed completion time.
    slow_factor: u64,
    /// The warm `(scene, precision)` render keys of the modeled model
    /// cache. A kill empties it; the hit/miss totals survive, because
    /// restarts are exactly what makes hit ratios interesting.
    warm: HashSet<BatchKey>,
    cache_hits: u64,
    cache_misses: u64,
    /// Seeded chaos: a poisoned request fails the moment a worker would
    /// take its batch (the live quarantine outcome, minus the real-time
    /// retry loop); a delayed one stretches its batch's service time.
    injector: Option<FaultInjector>,
    /// The batch each virtual worker is serving, if any (so a kill can
    /// orphan in-service work instead of silently completing it).
    workers: Vec<Option<Running>>,
    /// Requests admitted and not yet terminal (served, lost, or orphaned
    /// by a kill) — the router's per-replica admission-control gauge.
    inflight: usize,
    /// Events not yet drained by [`ClusterState::drain_events`].
    events: Vec<PipeEvent>,
    /// Losing hedge copies currently in service: their completion is
    /// dropped — no request metric, no response, the work was wasted.
    suppressed: HashSet<(u64, u32)>,
    /// The earliest worker completion or linger deadline, unclamped:
    /// [`Replica::scan_timer`] as of the last call that could move it.
    next_timer: Option<u64>,
    /// Every batch that completed service, in completion order.
    decided: Vec<Batch>,
    /// Total virtual time the workers spent serving completed batches.
    busy_ns: u64,
    life: Life,
    /// Whether the replica currently owns ring points (a leave removes
    /// them, a restart-after-leave or join adds them back).
    in_ring: bool,
    routed: usize,
    failed_over_out: usize,
    failed_over_in: usize,
    kills: usize,
    restarts: usize,
    suspects: usize,
}

impl Replica {
    /// A fresh replica for `cfg`: up, in the ring, cold cache, nominal
    /// speed, idle workers.
    fn new(cfg: &ClusterConfig) -> Self {
        let service = cfg.service;
        Replica {
            core: Pipeline::new(&cfg.server),
            shed: Vec::new(),
            service: ClusterService { service_ns: service.service_ns.max(1), ..service },
            slow_factor: 1,
            warm: HashSet::new(),
            cache_hits: 0,
            cache_misses: 0,
            injector: cfg.injector.or(cfg.server.injector).filter(|i| !i.is_empty()),
            workers: (0..cfg.server.workers.max(1)).map(|_| None).collect(),
            inflight: 0,
            events: Vec::new(),
            suppressed: HashSet::new(),
            next_timer: None,
            decided: Vec::new(),
            busy_ns: 0,
            life: Life::Up,
            in_ring: true,
            routed: 0,
            failed_over_out: 0,
            failed_over_in: 0,
            kills: 0,
            restarts: 0,
            suspects: 0,
        }
    }

    /// Whether any virtual worker is in service right now (the failure
    /// detector only expects progress from a busy replica).
    fn is_busy(&self) -> bool {
        self.workers.iter().any(Option::is_some)
    }

    /// Cancels the live copy of `req`, wherever it sits: removed outright
    /// if still queued, suppressed (completes without a trace) if already
    /// in service. The hedging layer calls this on the losing copy the
    /// instant the winning copy completes.
    fn cancel(&mut self, req: &Request) {
        let (id, chunk) = (req.id, req.chunk);
        if self.core.cancel(req) {
            self.inflight -= 1;
            // Pulling a linger group's oldest member moves its deadline.
            self.refresh_timer();
        } else if self
            .workers
            .iter()
            .flatten()
            .any(|run| run.batch.requests.iter().any(|r| r.id == id && r.chunk == chunk))
        {
            self.suppressed.insert((id, chunk.index));
        }
    }

    /// Admits `req`. A full (or zero-capacity) lane rejects — a virtual
    /// open-loop submitter cannot park. Returns whether the chunk entered
    /// its lane. A request failed over from a kill keeps its original
    /// `arrival_ns` and deadline, so its queue latency honestly includes
    /// the time it wasted on the dead replica.
    fn admit_request(&mut self, req: Request) -> bool {
        let lane = self.core.lane_of(req.priority);
        let admitted = self.admit_hedge(req);
        if !admitted {
            self.core.reject(lane, 1);
        }
        admitted
    }

    /// Admits a hedge clone **without** counting a rejection on failure:
    /// a clone that finds no lane room simply never existed (the primary
    /// copy still owns the request), so it must not perturb the
    /// conservation law. Admission only queues in a lane, so the cached
    /// timer stands until the next pump.
    fn admit_hedge(&mut self, req: Request) -> bool {
        if !self.core.admit(req) {
            return false;
        }
        self.inflight += 1;
        true
    }

    /// Earliest pending timer: a busy worker finishing or a linger expiry.
    /// Every timer before `now` has fired, so a busy worker only finishes
    /// at `now` when its completion saturated at the end of the clock.
    ///
    /// Reads the cached timer, so the event loop can ask every replica at
    /// every step without rescanning workers and batcher. Every method
    /// that can move the timer (`pump`, and through it `fire`; `cancel`;
    /// `kill`) refreshes the cache; debug builds check it against
    /// [`Replica::scan_timer`] at every step of the event loop.
    fn next_event(&self, now: u64) -> Option<u64> {
        self.next_timer.map(|t| t.max(now))
    }

    /// The earliest worker completion or linger deadline, by a fresh scan.
    fn scan_timer(&self) -> Option<u64> {
        let completion = self.workers.iter().flatten().map(Running::done_at).min();
        let linger = self.core.next_deadline();
        completion.into_iter().chain(linger).min()
    }

    fn refresh_timer(&mut self) {
        self.next_timer = self.scan_timer();
    }

    /// One timer firing at `t`: finished batches complete, linger-expired
    /// groups flush, then the replica pumps to its fixpoint. Lingers are
    /// expired only here: the event loop visits every linger deadline in
    /// time order, so a pump between timers never finds one overdue.
    fn fire(&mut self, t: u64) {
        self.complete_finished(t);
        self.core.expire(t);
        self.pump(t);
    }

    /// Retires every in-service batch whose completion time has passed:
    /// records it served on the core's ledger (against its stored start
    /// time) and locks it into the decided trace. Runs before any new work
    /// is assigned, so a kill at `t` can only orphan batches still
    /// genuinely in service.
    fn complete_finished(&mut self, now: u64) {
        for w in &mut self.workers {
            if let Some(run) = w.take_if(|run| run.done_at() <= now) {
                let full_size = run.batch.requests.len();
                let mut batch = run.batch;
                if !self.suppressed.is_empty() {
                    // Losing hedge copies finish without a trace: the
                    // winner already carries the request's record.
                    let suppressed = &mut self.suppressed;
                    batch.requests.retain(|req| !suppressed.remove(&(req.id, req.chunk.index)));
                }
                self.core.record_served(&batch, full_size, run.start_ns, run.service_ns);
                for req in &batch.requests {
                    self.events.push(PipeEvent::Completed { id: req.id, chunk: req.chunk.index });
                }
                self.busy_ns = self.busy_ns.saturating_add(run.service_ns);
                self.inflight -= full_size;
                if !batch.requests.is_empty() {
                    self.decided.push(batch);
                }
            }
        }
    }

    /// The virtual service time of `batch`: the flat per-batch cost, plus
    /// the size-aware per-member cost, plus the cold-start cost when the
    /// modeled cache misses on a render key (table batches carry no model
    /// and never pay it) — all stretched by the gray-failure slow factor.
    /// Chaos-injected delays are added by the caller, unscaled.
    fn service_for(&mut self, batch: &Batch) -> u64 {
        let mut svc = self
            .service
            .service_ns
            .saturating_add(self.service.per_item_ns.saturating_mul(batch.requests.len() as u64));
        if matches!(batch.key, BatchKey::Render(..)) {
            if self.warm.insert(batch.key.clone()) {
                self.cache_misses += 1;
                svc = svc.saturating_add(self.service.cold_start_ns);
            } else {
                self.cache_hits += 1;
            }
        }
        svc.saturating_mul(self.slow_factor)
    }

    /// Applies the chaos injector to a batch a worker is about to take:
    /// poisoned members fail on the spot (the virtual analogue of the live
    /// worker's quarantine verdict), delayed members stretch the
    /// batch's service time by the largest member delay. Returns `None`
    /// when no member survives, else the surviving batch and the extra
    /// service nanoseconds.
    fn apply_faults(&mut self, mut batch: Batch, now: u64) -> Option<(Batch, u64)> {
        let Some(inj) = self.injector else { return Some((batch, 0)) };
        let mut delay_ns = 0u64;
        let mut survivors = Vec::with_capacity(batch.requests.len());
        for req in batch.requests.drain(..) {
            match inj.decide(&req.job) {
                Some(InjectedFault::Panic) => {
                    if self.suppressed.remove(&(req.id, req.chunk.index)) {
                        self.inflight -= 1; // a cancelled loser leaves no record
                    } else {
                        self.lose(req, now, true);
                    }
                }
                Some(InjectedFault::Delay(d)) => {
                    delay_ns = delay_ns.max(d);
                    survivors.push(req);
                }
                None => survivors.push(req),
            }
        }
        if survivors.is_empty() {
            return None;
        }
        batch.requests = survivors;
        Some((batch, delay_ns))
    }

    /// A chunk shed (or `failed` by the injector) here at `now` leaves the
    /// replica unrecorded, as a [`PipeEvent::Lost`].
    fn lose(&mut self, req: Request, now: u64, failed: bool) {
        self.inflight -= 1;
        self.events.push(PipeEvent::Lost { req, at_ns: now, failed });
    }

    /// One fixpoint pass of the replica at time `now`: the core pumps (its
    /// sheds are lost), idle workers take its ready batches (in queue
    /// order), and every take frees a ready slot the next pump can refill.
    fn pump(&mut self, now: u64) {
        self.complete_finished(now);
        loop {
            self.core.pump(now, &mut self.shed);
            let mut shed = std::mem::take(&mut self.shed);
            for req in shed.drain(..) {
                self.lose(req, now, false);
            }
            self.shed = shed;
            let mut took = false;
            while let Some(wi) = self.workers.iter().position(Option::is_none) {
                let Some(batch) = self.core.take() else { break };
                took = true;
                let Some((batch, delay_ns)) = self.apply_faults(batch, now) else {
                    continue; // every member was poisoned: nothing to run
                };
                let service_ns = self.service_for(&batch).saturating_add(delay_ns);
                for req in &batch.requests {
                    self.events.push(PipeEvent::Started {
                        id: req.id,
                        chunk: req.chunk.index,
                        queue_ns: now - req.arrival_ns,
                    });
                }
                self.workers[wi] = Some(Running { batch, start_ns: now, service_ns });
            }
            if !took {
                break;
            }
        }
        self.refresh_timer();
    }

    /// Whether any admitted request is still queued, pending, or in
    /// service.
    fn has_pending(&self) -> bool {
        !self.core.is_empty() || self.is_busy()
    }

    /// Kills the replica at virtual time `t`: everything in flight —
    /// queued in a lane, pending in the batcher, stalled, queued for a
    /// worker, or in service — is orphaned and returned (in admission-id
    /// order) for the front door to fail over or shed. Scheduler and
    /// batcher state restart fresh and the model cache goes cold; the
    /// core's ledger and the cache hit/miss totals survive, because a
    /// crash cannot un-serve history.
    fn kill(&mut self, t: u64) -> Vec<Request> {
        // Work that finished strictly by `t` completed before the crash.
        self.complete_finished(t);
        let mut orphans = self.core.drain_all();
        for run in self.workers.iter_mut().filter_map(Option::take) {
            orphans.extend(run.batch.requests);
        }
        if !self.suppressed.is_empty() {
            // A losing hedge copy orphaned by the crash stays a loser:
            // the winner already carries the request, so it just vanishes.
            let suppressed = &mut self.suppressed;
            orphans.retain(|r| !suppressed.remove(&(r.id, r.chunk.index)));
        }
        orphans.sort_unstable_by_key(|r| (r.id, r.chunk.index));
        self.warm.clear();
        self.inflight = 0;
        self.refresh_timer();
        orphans
    }
}

/// One request chunk the hedging arbiter is tracking: where its live
/// copies are and whether it was hedged. Exactly one terminal record is
/// committed per tracked chunk, no matter how many copies raced.
struct Tracked {
    /// A clone of the admitted chunk request, for hedge placement.
    req: Request,
    /// The request's ring position, hashed once at arrival so a hedge
    /// placement never hashes.
    key_hash: u64,
    /// Replicas currently holding a live copy.
    copies: Copies,
    /// Whether any copy has started service — a started chunk is not
    /// worth hedging, the work is already running.
    started: bool,
    /// The hedge clone's replica, if one was placed (each chunk hedges
    /// at most once; `hedged == hedge_won + hedge_wasted` is an
    /// invariant).
    clone_replica: Option<usize>,
}

/// The replicas holding a live copy of one tracked chunk: the primary and
/// at most one hedge clone, inline, in insertion order.
#[derive(Debug, Clone, Copy)]
struct Copies {
    slots: [usize; 2],
    len: u8,
}

impl Copies {
    /// The primary copy alone.
    fn one(r: usize) -> Self {
        Copies { slots: [r, 0], len: 1 }
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The replica of the only copy, unless there are two.
    fn only(&self) -> Option<usize> {
        (self.len == 1).then_some(self.slots[0])
    }

    /// The copies' replicas, oldest first.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..self.len()].iter().copied()
    }

    /// Adds a copy on `r`.
    ///
    /// # Panics
    ///
    /// Panics on a third copy: a chunk hedges at most once.
    fn push(&mut self, r: usize) {
        assert!(self.len < 2, "a tracked chunk holds at most two live copies");
        self.slots[self.len()] = r;
        self.len += 1;
    }

    /// Keeps the copies `keep` accepts, in order.
    fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(self.slots[i]) {
                self.slots[kept] = self.slots[i];
                kept += 1;
            }
        }
        self.len = kept as u8;
    }
}

/// The hedge arbiter's book of tracked chunks, by key `id × stride +
/// chunk index` (`stride` is the largest chunk count of any arrival, so
/// keys are unique and ordered id-then-chunk). Keys are inserted in
/// increasing order, only by the arrival loop, and each chunk settles
/// soon after, so the live keys span a short window: `window[k - base]`
/// holds the slab index of key `k` (or [`TrackedBook::VACANT`]), and the
/// front is popped while vacant. Lookups are O(1), iteration is in key
/// order, and each `Tracked` lives in a slab slot reused through a free
/// list, so holes in the window cost four bytes each.
struct TrackedBook {
    stride: u64,
    /// Key of `window[0]`.
    base: u64,
    window: VecDeque<u32>,
    slab: Vec<Option<Tracked>>,
    free: Vec<u32>,
}

impl TrackedBook {
    const VACANT: u32 = u32::MAX;

    /// An empty book for arrivals split into at most `stride` chunks.
    fn new(stride: u32) -> Self {
        TrackedBook {
            stride: u64::from(stride.max(1)),
            base: 0,
            window: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The window position of `(id, chunk)`, if it is tracked.
    fn position(&self, (id, chunk): (u64, u32)) -> Option<usize> {
        let offset = (id * self.stride + u64::from(chunk)).checked_sub(self.base)?;
        let pos = usize::try_from(offset).ok()?;
        (*self.window.get(pos)? != Self::VACANT).then_some(pos)
    }

    fn get(&self, key: (u64, u32)) -> Option<&Tracked> {
        let pos = self.position(key)?;
        self.slab[self.window[pos] as usize].as_ref()
    }

    fn get_mut(&mut self, key: (u64, u32)) -> Option<&mut Tracked> {
        let pos = self.position(key)?;
        self.slab[self.window[pos] as usize].as_mut()
    }

    /// Tracks `tr` under its request's `(id, chunk)`, which must follow
    /// every key tracked so far.
    fn insert(&mut self, tr: Tracked) {
        let key = tr.req.id * self.stride + u64::from(tr.req.chunk.index);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(tr);
                slot
            }
            None => {
                self.slab.push(Some(tr));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 chunks in flight")
            }
        };
        if self.window.is_empty() {
            self.base = key;
        }
        let end = self.base + self.window.len() as u64;
        assert!(key >= end, "tracked keys are inserted in increasing order");
        self.window.extend(std::iter::repeat_n(Self::VACANT, (key - end) as usize));
        self.window.push_back(slot);
    }

    fn remove(&mut self, key: (u64, u32)) -> Option<Tracked> {
        let pos = self.position(key)?;
        let slot = std::mem::replace(&mut self.window[pos], Self::VACANT);
        self.free.push(slot);
        while self.window.front() == Some(&Self::VACANT) {
            self.window.pop_front();
            self.base += 1;
        }
        self.slab[slot as usize].take()
    }

    /// Every tracked chunk, in id-then-chunk order.
    fn iter(&self) -> impl Iterator<Item = &Tracked> {
        let live = self.window.iter().filter(|&&slot| slot != Self::VACANT);
        live.map(|&slot| self.slab[slot as usize].as_ref().expect("a window slot names a live entry"))
    }
}

/// The mutable cluster state the event loop advances.
struct ClusterState<'c> {
    cfg: &'c ClusterConfig,
    ring: HashRing,
    replicas: Vec<Replica>,
    /// The counters only the front door knows.
    front_door: FrontDoorTotals,
    /// Replicas currently in `Life::Draining` (gates the drain check).
    draining: usize,
    health: HealthDetector,
    codel: CoDelAdmission,
    /// Hedge-arbitrated chunks by `(id, chunk index)`, empty unless
    /// hedging is on (iterated in id-then-chunk order, so suspect-triggered
    /// hedges fire deterministically).
    tracked: TrackedBook,
    /// Pending hedge timers `(due_ns, (id, chunk))` — arrivals are
    /// monotone, so this stays sorted by construction.
    hedge_timers: VecDeque<(u64, (u64, u32))>,
    /// Index of the next unapplied fault in the sorted plan.
    next_fault: usize,
    /// Virtual time of the last event that touched a replica.
    last_event_ns: u64,
}

impl<'c> ClusterState<'c> {
    /// Whether the front door may send work to replica `r` at all.
    fn routable(&self, r: usize) -> bool {
        let rep = &self.replicas[r];
        rep.life == Life::Up && rep.inflight < self.cfg.max_inflight
    }

    /// Picks the replica for `key_hash`, walking the ring clockwise and
    /// skipping `exclude` (a hedge's primary copy). With the failure
    /// detector on this is a three-pass preference: Healthy replicas
    /// first, then Suspect, then anything routable — gray failures lose
    /// traffic without ever making the cluster refuse work it could still
    /// do.
    fn pick(&self, key_hash: u64, now: u64, exclude: Option<usize>) -> Option<usize> {
        let ok = |r: usize| Some(r) != exclude && self.routable(r);
        if !self.health.enabled() {
            return self.ring.route(key_hash, ok);
        }
        self.ring
            .route(key_hash, |r| ok(r) && self.health.state(r, now) == HealthState::Healthy)
            .or_else(|| {
                self.ring
                    .route(key_hash, |r| ok(r) && self.health.state(r, now) < HealthState::Dead)
            })
            .or_else(|| self.ring.route(key_hash, ok))
    }

    /// A tracked chunk's terminal happened outside any replica (front
    /// door drop or lane-full reject on failover): close its book.
    fn settle_terminal(&mut self, key: (u64, u32)) {
        if let Some(tr) = self.tracked.remove(key) {
            if tr.clone_replica.is_some() {
                self.front_door.hedge_wasted += 1;
            }
        }
    }

    /// Fails an orphaned chunk over to a surviving replica (or drops it
    /// at the front door). The chunk keeps its original arrival time
    /// and deadline: time lost on the dead replica stays on its clock.
    /// Only unserved chunks ever reach here — a kill cannot orphan (and
    /// this cannot re-admit) a chunk whose completion already committed.
    fn reroute(&mut self, req: Request, t: u64, from: usize) {
        let key = (req.id, req.chunk.index);
        let key_hash = HashRing::job_key_hash(&req.job);
        match self.pick(key_hash, t, None) {
            Some(r) => {
                if self.replicas[r].admit_request(req) {
                    self.replicas[r].failed_over_in += 1;
                    self.replicas[from].failed_over_out += 1;
                    if let Some(tr) = self.tracked.get_mut(key) {
                        tr.copies.retain(|c| c != from);
                        tr.copies.push(r);
                    }
                } else {
                    // A lane-full reject is counted by the target
                    // replica's admission accounting — that is the
                    // chunk's terminal.
                    self.settle_terminal(key);
                }
            }
            None => {
                self.front_door.front_door_shed += 1;
                self.settle_terminal(key);
            }
        }
    }

    /// `req` was shed (or `failed`) on replica `r` at `at_ns`: record the
    /// loss there, unless it is a tracked chunk with another live copy —
    /// the survivor then owns the chunk, and only the last copy's loss
    /// records. This is the only place a virtual loss is recorded; an
    /// untracked chunk records at once.
    fn settle_loss(&mut self, r: usize, req: Request, at_ns: u64, failed: bool) {
        let key = (req.id, req.chunk.index);
        if let Some(tr) = self.tracked.get_mut(key) {
            tr.copies.retain(|c| c != r);
            if !tr.copies.is_empty() {
                return;
            }
            self.settle_terminal(key);
        }
        let core = &mut self.replicas[r].core;
        if failed {
            core.record_failed(&req, at_ns);
        } else {
            core.record_shed(&req, at_ns);
        }
    }

    /// Drains replica `r`'s events at time `t`: settles its losses, feeds
    /// the CoDel controller (queue delays at service start), arbitrates
    /// hedge copies (first completion wins, losers are cancelled or
    /// suppressed), and gives the failure detector its heartbeat
    /// observation. Called after every fire/pump of `r`, so same-tick
    /// races resolve in replica-index order — deterministically.
    fn drain_events(&mut self, r: usize, t: u64) {
        // Keep the queue's buffer: nothing below queues an event on `r`.
        let mut events = std::mem::take(&mut self.replicas[r].events);
        let mut progressed = false;
        for ev in events.drain(..) {
            match ev {
                PipeEvent::Started { id, chunk, queue_ns } => {
                    self.codel.observe(r, queue_ns, t);
                    if let Some(tr) = self.tracked.get_mut((id, chunk)) {
                        tr.started = true;
                    }
                }
                PipeEvent::Completed { id, chunk } => {
                    progressed = true;
                    if let Some(tr) = self.tracked.remove((id, chunk)) {
                        for other in tr.copies.iter().filter(|&c| c != r) {
                            // The losing copy is pulled from its queue,
                            // or suppressed if already in service.
                            self.replicas[other].cancel(&tr.req);
                        }
                        match tr.clone_replica {
                            Some(c) if c == r => self.front_door.hedge_won += 1,
                            Some(_) => self.front_door.hedge_wasted += 1,
                            None => {}
                        }
                    }
                }
                PipeEvent::Lost { req, at_ns, failed } => self.settle_loss(r, req, at_ns, failed),
            }
        }
        self.replicas[r].events = events;
        self.health.observe(r, self.replicas[r].is_busy(), progressed, t);
    }

    /// Places a hedge clone for the tracked chunk `key` if it is still
    /// worth it (un-started, un-hedged, single copy). Returns whether a
    /// clone was placed.
    fn fire_hedge(&mut self, key: (u64, u32), t: u64) -> bool {
        let Some(tr) = self.tracked.get(key) else { return false };
        if tr.started || tr.clone_replica.is_some() {
            return false;
        }
        let Some(primary) = tr.copies.only() else { return false };
        let Some(r2) = self.pick(tr.key_hash, t, Some(primary)) else { return false };
        let req = tr.req.clone();
        if !self.replicas[r2].admit_hedge(req) {
            // No lane room on the alternate: the clone never existed.
            return false;
        }
        let tr = self.tracked.get_mut(key).expect("still tracked");
        tr.clone_replica = Some(r2);
        tr.copies.push(r2);
        self.front_door.hedged += 1;
        self.last_event_ns = self.last_event_ns.max(t);
        self.replicas[r2].pump(t);
        self.drain_events(r2, t);
        true
    }

    /// Hedges every pending un-started chunk whose only copy sits on
    /// `r` — fired the instant the detector turns `r` Suspect, in
    /// id-then-chunk order.
    fn hedge_suspect_replica(&mut self, r: usize, t: u64) {
        let keys: Vec<(u64, u32)> = self
            .tracked
            .iter()
            .filter(|tr| {
                !tr.started
                    && tr.clone_replica.is_none()
                    && tr.copies.only() == Some(r)
            })
            .map(|tr| (tr.req.id, tr.req.chunk.index))
            .collect();
        for key in keys {
            self.fire_hedge(key, t);
        }
    }

    /// Re-scores every replica at `t`, counting `Healthy → Suspect`
    /// crossings once and hedging the suspect's pending work.
    fn refresh_health(&mut self, t: u64) {
        if !self.health.enabled() {
            return;
        }
        for r in 0..self.replicas.len() {
            if let Some((old, new)) = self.health.refresh(r, t) {
                if old == HealthState::Healthy && new >= HealthState::Suspect {
                    self.replicas[r].suspects += 1;
                    self.hedge_suspect_replica(r, t);
                }
            }
        }
    }

    /// Promotes drained leavers: a `Draining` replica with nothing
    /// pending becomes `Departed`.
    fn settle_drained(&mut self) {
        if self.draining == 0 {
            return;
        }
        for rep in &mut self.replicas {
            if rep.life == Life::Draining && !rep.has_pending() {
                rep.life = Life::Departed;
                self.draining -= 1;
            }
        }
    }

    /// Applies one fault at its scheduled time.
    fn apply_fault(&mut self, ev: FaultEvent) {
        if matches!(ev.kind, FaultKind::Join) {
            // Scale-out: a brand-new replica at the next index, cold.
            if self.replicas.len() >= crate::router::MAX_REPLICAS {
                return;
            }
            let r = self.replicas.len();
            self.replicas.push(Replica::new(self.cfg));
            self.ring.join(r).expect("index capacity checked above");
            self.health.push_replica(ev.at_ns);
            self.codel.push_replica();
            self.front_door.joins += 1;
            self.last_event_ns = self.last_event_ns.max(ev.at_ns);
            return;
        }
        let r = ev.replica;
        if r >= self.replicas.len() {
            return; // plan may name more replicas than the cluster has
        }
        match ev.kind {
            FaultKind::Kill if self.replicas[r].life != Life::Down => {
                if self.replicas[r].life == Life::Draining {
                    self.draining -= 1;
                }
                self.replicas[r].life = Life::Down;
                self.replicas[r].kills += 1;
                self.last_event_ns = self.last_event_ns.max(ev.at_ns);
                for req in self.replicas[r].kill(ev.at_ns) {
                    if let Some(tr) = self.tracked.get_mut((req.id, req.chunk.index)) {
                        if tr.copies.len() > 1 {
                            // The other copy is live: this orphan
                            // silently dies, no failover needed.
                            tr.copies.retain(|c| c != r);
                            continue;
                        }
                    }
                    self.reroute(req, ev.at_ns, r);
                }
            }
            FaultKind::Restart if matches!(self.replicas[r].life, Life::Down | Life::Departed) => {
                // The replica was reset at kill time (or drained dry by
                // a leave); it comes back empty with a cold cache, and
                // rejoins the ring if it had left it.
                self.replicas[r].life = Life::Up;
                self.replicas[r].restarts += 1;
                if !self.replicas[r].in_ring {
                    self.ring.join(r).expect("index was a member before");
                    self.replicas[r].in_ring = true;
                }
            }
            FaultKind::Slow { factor } => {
                self.replicas[r].slow_factor = u64::from(factor).max(1);
                self.last_event_ns = self.last_event_ns.max(ev.at_ns);
            }
            FaultKind::Leave if self.replicas[r].life == Life::Up => {
                self.replicas[r].life = Life::Draining;
                self.draining += 1;
                self.front_door.leaves += 1;
                self.last_event_ns = self.last_event_ns.max(ev.at_ns);
                if self.replicas[r].in_ring {
                    self.ring.leave(r).expect("was a member");
                    self.replicas[r].in_ring = false;
                }
            }
            _ => {} // kill of a dead replica / restart of a live one: no-op
        }
    }

    /// Advances the cluster through every timer, fault and hedge deadline
    /// up to `target` (faults win ties, then replica timers, then hedge
    /// timers). Returns the clock position (`target`, unless `target` is
    /// the drain sentinel `u64::MAX`, in which case the last event time).
    ///
    /// A step reads each replica's cached timer and each replica's cached
    /// health crossings; neither is rescanned nor re-divided per event.
    fn process_until(&mut self, target: u64, now: u64) -> u64 {
        let mut now = now;
        loop {
            // Every step (and every arrival since the last call) left each
            // cached replica timer equal to a fresh scan.
            debug_assert!(
                self.replicas.iter().all(|rep| rep.next_timer == rep.scan_timer()),
                "a replica's cached timer went stale"
            );
            let pipe_next = self
                .replicas
                .iter()
                .filter_map(|rep| rep.next_event(now))
                .min()
                .filter(|&t| t <= target);
            let fault_next = self
                .cfg
                .faults
                .events()
                .get(self.next_fault)
                .map(|e| e.at_ns)
                .filter(|&t| t <= target);
            let hedge_next = self
                .hedge_timers
                .front()
                .map(|&(due, _)| due)
                .filter(|&t| t <= target);
            let t = match [fault_next, pipe_next, hedge_next].into_iter().flatten().min() {
                None => break,
                Some(t) => t,
            };
            if fault_next == Some(t) {
                now = now.max(t);
                while let Some(&ev) = self.cfg.faults.events().get(self.next_fault) {
                    if ev.at_ns != t {
                        break;
                    }
                    self.next_fault += 1;
                    self.apply_fault(ev);
                }
                // Failover re-admissions (and survivors) pump at the
                // fault instant, in replica-index order.
                for i in 0..self.replicas.len() {
                    if self.replicas[i].life != Life::Down {
                        self.replicas[i].pump(t);
                        self.drain_events(i, t);
                    }
                }
            } else if pipe_next == Some(t) {
                // Fire this tick on every replica that owns it, in index
                // order, draining events after each so a completion on a
                // lower-index replica cancels its hedge twin before that
                // twin's own tick runs — the tie-break is deterministic.
                for i in 0..self.replicas.len() {
                    if self.replicas[i].next_event(now) == Some(t) {
                        self.replicas[i].fire(t);
                        self.drain_events(i, t);
                    }
                }
                now = now.max(t);
                self.last_event_ns = self.last_event_ns.max(t);
            } else {
                // Hedge timers due at t. A timer whose request already
                // settled (or started) is a pure no-op and must not
                // advance the clock — the drain would otherwise report
                // wall time with no event behind it.
                let mut acted = false;
                while let Some(&(due, key)) = self.hedge_timers.front() {
                    if due != t {
                        break;
                    }
                    self.hedge_timers.pop_front();
                    acted |= self.fire_hedge(key, t);
                }
                if acted {
                    now = now.max(t);
                }
            }
            self.settle_drained();
            self.refresh_health(now.max(t));
        }
        if target == u64::MAX {
            now
        } else {
            target.max(now)
        }
    }
}

/// Replays `jobs` through an N-replica cluster on the virtual clock and
/// renders the decided batches. See the module docs for the model; see
/// [`ClusterMetrics::conserves_submitted`] for the accounting law the
/// result is guaranteed (and asserted) to satisfy.
///
/// The decision loop re-derives nothing that did not change: each
/// replica caches its next timer, the failure detector caches the
/// elapsed times at which each replica turns Suspect and Dead, a hedge
/// loser is looked for only in its own priority's lane, and a tracked
/// chunk keeps its copies inline.
pub fn run_cluster(cfg: &ClusterConfig, jobs: &[TimedJob]) -> ClusterReport {
    cfg.server.sched.validate();
    let replicas = cfg.replicas.max(1);
    let hedging = cfg.hedge.enabled();
    let chunk_stride = if hedging {
        jobs.iter().map(|tj| effective_chunks(cfg.server.chunks, &tj.job)).max().unwrap_or(1)
    } else {
        1
    };
    let mut state = ClusterState {
        ring: HashRing::new(replicas, &cfg.router),
        replicas: (0..replicas).map(|_| Replica::new(cfg)).collect(),
        front_door: FrontDoorTotals::default(),
        draining: 0,
        health: HealthDetector::new(cfg.health, replicas, cfg.service.service_ns),
        codel: CoDelAdmission::new(cfg.admission, replicas),
        tracked: TrackedBook::new(chunk_stride),
        hedge_timers: VecDeque::new(),
        next_fault: 0,
        last_event_ns: 0,
        cfg,
    };

    // The decision loop: single-threaded, in trace order. A job splits
    // into its row-band chunks at the front door; all chunks of one
    // arrival share one routing decision (same coalescing key, same
    // replica — scene affinity would pick the same target anyway), and
    // the front-door counters account in chunk units. Between arrivals,
    // `process_until` steps through the replicas' cached timers, and
    // every step re-checks health with integer compares only.
    let mut now = 0u64;
    let mut submitted_chunks = 0usize;
    for (id, tj) in jobs.iter().enumerate() {
        let at = now.saturating_add(clock_ns(tj.delay_before));
        // `process_until(u64::MAX, …)` reports the last event, not the
        // target: an arrival at the end of the clock must still move it.
        now = state.process_until(at, now).max(at);
        state.last_event_ns = state.last_event_ns.max(at);
        state.refresh_health(at);
        let of = effective_chunks(cfg.server.chunks, &tj.job);
        submitted_chunks += of as usize;
        let key_hash = HashRing::job_key_hash(&tj.job);
        match state.pick(key_hash, at, None) {
            Some(r) => {
                if state.codel.should_shed(r, tj.priority) {
                    // Overload admission: shed Batch-class work early at
                    // the front door instead of letting every class miss
                    // its deadline behind a standing queue. The whole
                    // arrival drops — all of its chunk units.
                    state.front_door.front_door_shed += of as usize;
                    state.front_door.overload_shed += of as usize;
                    continue;
                }
                state.replicas[r].routed += 1;
                let rid = id as u64;
                for index in 0..of {
                    let req = Request {
                        id: rid,
                        priority: tj.priority,
                        arrival_ns: at,
                        deadline_ns: tj.deadline.map(|d| at.saturating_add(clock_ns(d))),
                        chunk: ChunkSpan { index, of },
                        job: tj.job.clone(),
                    };
                    if !hedging {
                        state.replicas[r].admit_request(req);
                    } else if state.replicas[r].admit_request(req.clone()) {
                        state.tracked.insert(Tracked {
                            req,
                            key_hash,
                            copies: Copies::one(r),
                            started: false,
                            clone_replica: None,
                        });
                        state
                            .hedge_timers
                            .push_back((at.saturating_add(cfg.hedge.delay_ns), (rid, index)));
                    }
                }
                state.replicas[r].pump(at);
                state.drain_events(r, at);
            }
            None => state.front_door.front_door_shed += of as usize,
        }
    }
    // Drain: remaining timers, faults and hedge deadlines, to quiescence.
    let end = state.process_until(u64::MAX, now);
    // Each replica reports this wall clock: every admission, timer and
    // kill on a replica happens at an instant that raised `last_event_ns`.
    let wall_ns = state.last_event_ns.max(end);
    debug_assert!(state.tracked.is_empty(), "every tracked request must settle by drain");

    // Decisions locked in — produce payloads. Rendered payloads fan each
    // replica's decided batches out over `fnr_par` (thread width moves
    // wall time only); synthetic ones are a hash each, written straight
    // into place. Replicas serve *chunks*; whole responses are
    // reassembled across the fleet afterwards (a failover can scatter one
    // request's chunks over several replicas).
    let threads = fnr_par::current_num_threads();
    let workers = cfg.server.workers.max(1);
    let decided_chunks =
        state.replicas.iter().flat_map(|rep| &rep.decided).map(|b| b.requests.len()).sum();
    let mut all_chunks: Vec<ChunkResponse> = Vec::with_capacity(decided_chunks);
    let mut replica_stats: Vec<ReplicaStats> = Vec::new();
    for (i, rep) in state.replicas.iter().enumerate() {
        let first = all_chunks.len();
        match cfg.payload {
            PayloadMode::Render => all_chunks.extend(
                fnr_par::par_map(&rep.decided, |batch| execute_batch(batch, &cfg.server.tables))
                    .into_iter()
                    .flatten(),
            ),
            PayloadMode::Synthetic => all_chunks.extend(
                rep.decided.iter().flat_map(|batch| &batch.requests).map(|req| ChunkResponse {
                    id: req.id,
                    chunk: req.chunk,
                    bytes: synthetic_chunk_payload(&req.job, req.chunk),
                }),
            ),
        }
        // The per-replica digest is over the chunk payloads this replica
        // served (identical to the response set at chunk count 1).
        let digest = set_digest(all_chunks[first..].iter().map(|c| fnv1a(&c.bytes)).collect());
        replica_stats.push(ReplicaStats {
            replica: i,
            alive: rep.life != Life::Down,
            kills: rep.kills,
            restarts: rep.restarts,
            routed: rep.routed,
            failed_over_out: rep.failed_over_out,
            failed_over_in: rep.failed_over_in,
            cache_hits: rep.cache_hits,
            cache_misses: rep.cache_misses,
            busy_ns: rep.busy_ns,
            suspects: rep.suspects,
            slow_factor: rep.slow_factor,
            departed: matches!(rep.life, Life::Draining | Life::Departed),
            metrics: rep.core.ledger.report(digest, wall_ns, workers),
        });
    }
    // Cross-fleet reassembly: only parents whose every chunk was served
    // somewhere become responses; the digest is over those whole
    // responses, byte-identical to the unchunked digest at any chunk
    // count.
    let all_responses = assemble_chunks(all_chunks);
    let digest = response_set_digest(&all_responses);
    let metrics = ClusterMetrics::aggregate(
        replica_stats,
        jobs.len(),
        submitted_chunks,
        all_responses.len(),
        state.front_door,
        wall_ns,
        workers,
        threads,
        digest,
    );
    assert!(
        metrics.conserves_submitted(),
        "chunk conservation violated: served {} + shed {} + rejected {} + failed {} + front door {} != submitted chunks {} ({} jobs)",
        metrics.served,
        metrics.shed,
        metrics.rejected,
        metrics.failed,
        metrics.front_door_shed,
        metrics.submitted_chunks,
        metrics.submitted
    );
    assert!(
        metrics.hedged == metrics.hedge_won + metrics.hedge_wasted,
        "hedge accounting violated: hedged {} != won {} + wasted {}",
        metrics.hedged,
        metrics.hedge_won,
        metrics.hedge_wasted
    );
    ClusterReport { responses: all_responses, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::MAX_REPLICAS;
    use crate::workload::{generate, ArrivalPattern, WorkloadSpec};
    use std::time::Duration;

    fn spec(requests: usize, pattern: ArrivalPattern) -> WorkloadSpec {
        WorkloadSpec {
            requests,
            pattern,
            mean_gap: Duration::from_micros(30),
            deadline: Some(Duration::from_millis(8)),
            ..WorkloadSpec::default()
        }
    }

    fn synth_cfg(replicas: usize) -> ClusterConfig {
        ClusterConfig { replicas, payload: PayloadMode::Synthetic, ..ClusterConfig::default() }
    }

    #[test]
    fn copies_push_retain_and_iterate_in_insertion_order() {
        let mut copies = Copies::one(5);
        assert_eq!((copies.len(), copies.only()), (1, Some(5)));
        copies.push(2);
        assert_eq!(copies.iter().collect::<Vec<_>>(), [5, 2]);
        assert_eq!(copies.only(), None, "two copies have no only one");
        copies.retain(|c| c != 5);
        assert_eq!((copies.iter().collect::<Vec<_>>(), copies.only()), (vec![2], Some(2)));
        copies.push(7);
        assert_eq!(copies.iter().collect::<Vec<_>>(), [2, 7], "a refilled slot keeps the order");
        copies.retain(|_| false);
        assert!(copies.is_empty() && copies.iter().next().is_none());
    }

    #[test]
    #[should_panic(expected = "at most two live copies")]
    fn a_third_copy_panics() {
        let mut copies = Copies::one(0);
        copies.push(1);
        copies.push(2);
    }

    /// The all-lanes search [`Replica::cancel`] replaced, kept only as its
    /// test oracle: the core's scan (every lane, then batcher, then ready
    /// batches), then the workers. Returns where the copy was.
    fn cancel_by_scan(rep: &mut Replica, id: u64, chunk: ChunkSpan) -> String {
        if let Some(place) = rep.core.cancel_by_scan(id, chunk) {
            rep.inflight -= 1;
            rep.refresh_timer();
            return place;
        }
        let in_service = |run: &Running| run.batch.requests.iter().any(|r| r.id == id && r.chunk == chunk);
        if rep.workers.iter().flatten().any(in_service) {
            rep.suppressed.insert((id, chunk.index));
            return "in service".into();
        }
        "nowhere".into()
    }

    /// Everything a cancel can touch on `rep`, as a comparable string.
    fn replica_snapshot(rep: &Replica) -> String {
        let running: Vec<_> = rep.workers.iter().map(|w| w.as_ref().map(|run| &run.batch)).collect();
        let mut suppressed: Vec<_> = rep.suppressed.iter().collect();
        suppressed.sort_unstable();
        let timer = rep.next_timer;
        format!("{} {running:?} {suppressed:?} {} {timer:?}", rep.core.snapshot(), rep.inflight)
    }

    #[test]
    fn own_lane_cancel_takes_the_same_copy_from_the_same_place_as_the_all_lanes_search() {
        use crate::request::{RenderJob, RenderPrecision, SceneKind, Workload};
        use crate::sched::Priority;
        // Two workers, batches of three and a 50 µs linger: requests wait
        // in every lane, in batcher groups, in ready batches and in
        // service.
        let cfg = ClusterConfig {
            server: ServerConfig {
                max_batch: 3,
                linger: Duration::from_micros(50),
                ..ServerConfig::default()
            },
            ..synth_cfg(1)
        };
        let mut found = std::collections::BTreeMap::<String, usize>::new();
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut own, mut scan) = (Replica::new(&cfg), Replica::new(&cfg));
            let mut admitted: Vec<Request> = Vec::new();
            let mut now = 0u64;
            for step in 0..400 {
                match rng.gen_range(0u32..10) {
                    0..=4 => {
                        let id = admitted.len() as u64;
                        let req = Request {
                            id,
                            priority: Priority::ALL[rng.gen_range(0usize..3)],
                            arrival_ns: now,
                            deadline_ns: None,
                            chunk: ChunkSpan { index: rng.gen_range(0u32..3), of: 3 },
                            job: Workload::Render(RenderJob {
                                scene: SceneKind::ALL[rng.gen_range(0usize..3)],
                                precision: RenderPrecision::Fp32,
                                width: 4,
                                height: 4,
                                spp: 1,
                                camera_seed: id,
                            }),
                        };
                        admitted.push(req.clone());
                        assert_eq!(own.admit_hedge(req.clone()), scan.admit_hedge(req));
                    }
                    5 | 6 => {
                        now += rng.gen_range(0u64..30_000);
                        own.pump(now);
                        scan.pump(now);
                    }
                    7 => {
                        if let Some(t) = own.next_event(now) {
                            now = t;
                            own.fire(t);
                            scan.fire(t);
                        }
                    }
                    _ => {
                        let Some(req) = admitted.get(rng.gen_range(0..admitted.len().max(1))) else { continue };
                        own.cancel(req);
                        let place = cancel_by_scan(&mut scan, req.id, req.chunk);
                        *found.entry(place).or_default() += 1;
                    }
                }
                assert_eq!(replica_snapshot(&own), replica_snapshot(&scan), "seed {seed} step {step}");
                assert_eq!(own.next_timer, own.scan_timer(), "seed {seed} step {step}: stale timer");
                own.events.clear();
                scan.events.clear();
            }
        }
        for place in ["lane 0", "lane 1", "lane 2", "batcher", "ready", "in service", "nowhere"] {
            assert!(found.get(place).is_some_and(|&n| n > 0), "no cancel found a copy {place}: {found:?}");
        }
    }

    #[test]
    fn the_tracked_book_finds_iterates_and_compacts_by_id_then_chunk() {
        let tracked = |id: u64, index: u32| Tracked {
            req: Request {
                id,
                priority: crate::sched::Priority::Standard,
                arrival_ns: 0,
                deadline_ns: None,
                chunk: ChunkSpan { index, of: 3 },
                job: crate::request::Workload::Table("t".into()),
            },
            key_hash: 0,
            copies: Copies::one(0),
            started: false,
            clone_replica: None,
        };
        let keys = |book: &TrackedBook| -> Vec<(u64, u32)> {
            book.iter().map(|tr| (tr.req.id, tr.req.chunk.index)).collect()
        };
        // Three chunks per arrival; ids 1 and 4 were never tracked.
        let mut book = TrackedBook::new(3);
        for (id, index) in [(0, 0), (0, 2), (2, 0), (2, 1), (2, 2), (3, 1), (5, 0)] {
            book.insert(tracked(id, index));
        }
        assert_eq!(keys(&book), [(0, 0), (0, 2), (2, 0), (2, 1), (2, 2), (3, 1), (5, 0)]);
        assert!(book.get((0, 1)).is_none() && book.get((1, 0)).is_none() && book.get((9, 0)).is_none());
        book.get_mut((2, 1)).expect("tracked").started = true;
        assert!(book.get((2, 1)).expect("tracked").started);

        // Out-of-order removal: the front only advances once it is vacant.
        assert_eq!(book.remove((2, 1)).map(|tr| tr.req.id), Some(2));
        assert!(book.remove((2, 1)).is_none(), "already gone");
        assert_eq!(book.remove((0, 2)).map(|tr| tr.req.chunk.index), Some(2));
        assert_eq!(book.window.len(), 16, "keys 0..=15 still span the window");
        assert!(book.remove((0, 0)).is_some());
        assert_eq!((book.base, book.window.len()), (6, 10), "the front compacts to key 6 = (2, 0)");
        assert_eq!(keys(&book), [(2, 0), (2, 2), (3, 1), (5, 0)]);

        // Freed slab slots are reused; a later insert extends the window.
        book.insert(tracked(6, 1));
        assert_eq!(book.slab.len(), 7, "the new entry took a freed slot");
        assert_eq!(keys(&book), [(2, 0), (2, 2), (3, 1), (5, 0), (6, 1)]);
        for key in keys(&book) {
            assert!(book.remove(key).is_some());
        }
        assert!(book.is_empty() && book.iter().next().is_none());
        book.insert(tracked(7, 0));
        assert_eq!((book.base, keys(&book)), (21, vec![(7, 0)]), "an empty book rebases");
    }

    #[test]
    fn fault_plan_parses_and_sorts() {
        let plan = FaultPlan::parse("restart@900ms:1, kill@500ms:1").expect("valid");
        let evs = plan.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, FaultKind::Kill);
        assert_eq!(evs[0].at_ns, 500_000_000);
        assert_eq!(evs[1].kind, FaultKind::Restart);
        assert_eq!(evs[1].at_ns, 900_000_000);
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
        assert!(FaultPlan::parse("explode@1s:0").is_err());
        assert!(FaultPlan::parse("kill@xyz:0").is_err());
        assert!(FaultPlan::parse("kill@1s").is_err());
    }

    #[test]
    fn fault_plan_parse_errors_are_descriptive() {
        // Empty / whitespace / dangling-comma specs are "no faults", not
        // errors — the CLI default is an empty string.
        assert!(FaultPlan::parse("   ").expect("whitespace ok").is_empty());
        assert!(FaultPlan::parse("kill@1ms:0,").expect("trailing comma ok").events().len() == 1);
        // Unknown op: the message names the bad kind and the alternatives.
        let e = FaultPlan::parse("explode@1s:0").unwrap_err();
        assert!(
            e.contains("unknown fault kind `explode`")
                && ["`kill`", "`restart`", "`slow`", "`join`", "`leave`"]
                    .iter()
                    .all(|k| e.contains(k)),
            "{e}"
        );
        // Bad duration: the message names the bad time and the grammar.
        let e = FaultPlan::parse("kill@12parsecs:0").unwrap_err();
        assert!(e.contains("bad time `12parsecs`") && e.contains("ns/us/ms/s"), "{e}");
        let e = FaultPlan::parse("kill@:0").unwrap_err();
        assert!(e.contains("bad time ``"), "{e}");
        // Structural errors echo the expected shape with an example.
        let e = FaultPlan::parse("kill").unwrap_err();
        assert!(e.contains("KIND@TIME:REPLICA") && e.contains("kill@500ms:1"), "{e}");
        let e = FaultPlan::parse("kill@1s").unwrap_err();
        assert!(e.contains("kill@TIME:REPLICA"), "{e}");
        // Bad replica index.
        let e = FaultPlan::parse("kill@1s:minus-one").unwrap_err();
        assert!(e.contains("bad replica `minus-one`"), "{e}");
        // One bad element poisons the whole spec (no partial plans).
        assert!(FaultPlan::parse("kill@1ms:0,bogus").is_err());
    }

    #[test]
    fn fault_plan_parses_resilience_verbs() {
        let plan = FaultPlan::parse("slow@2ms:1:8,join@5ms,leave@9ms:0,slow@12ms:1:1")
            .expect("valid resilience plan");
        let kinds: Vec<FaultKind> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Slow { factor: 8 },
                FaultKind::Join,
                FaultKind::Leave,
                FaultKind::Slow { factor: 1 },
            ]
        );
        assert_eq!(plan.joins(), 1);
        // A join carries no replica index — the event slot is a sentinel.
        assert_eq!(plan.events()[1].replica, usize::MAX);
        assert!(plan.validate_for(4).is_ok());
    }

    #[test]
    fn fault_plan_rejects_bad_resilience_specs_descriptively() {
        // A slow factor must be an integer >= 1; the message says why 1
        // is the floor.
        let e = FaultPlan::parse("slow@1ms:0:0").unwrap_err();
        assert!(e.contains("bad slow factor `0`") && e.contains("nominal speed"), "{e}");
        let e = FaultPlan::parse("slow@1ms:0:fast").unwrap_err();
        assert!(e.contains("bad slow factor `fast`"), "{e}");
        // A truncated slow spec echoes the full three-field shape.
        let e = FaultPlan::parse("slow@1ms:0").unwrap_err();
        assert!(e.contains("slow@TIME:REPLICA:FACTOR"), "{e}");
        // A replica can leave at most once.
        let e = FaultPlan::parse("leave@1ms:2,leave@5ms:2").unwrap_err();
        assert!(e.contains("replica 2 already has a `leave` event"), "{e}");
        // A join takes no replica argument — the next index is implied.
        let e = FaultPlan::parse("join@1ms:3").unwrap_err();
        assert!(e.contains("join@TIME") && e.contains("no replica argument"), "{e}");
        // More joins than the ring can ever hold fail at parse time...
        let spec: Vec<String> = (0..=MAX_REPLICAS).map(|i| format!("join@{i}ms")).collect();
        let e = FaultPlan::parse(&spec.join(",")).unwrap_err();
        assert!(e.contains("exceed the ring capacity"), "{e}");
        // ...and a plan that only overflows against a given base fleet
        // fails validation with both terms of the sum named.
        let plan = FaultPlan::parse("join@1ms,join@2ms").expect("two joins parse");
        let e = plan.validate_for(MAX_REPLICAS - 1).unwrap_err();
        assert!(e.contains("127 base replicas") && e.contains("2 `join` events"), "{e}");
        assert!(plan.validate_for(MAX_REPLICAS - 2).is_ok());
    }

    #[test]
    fn time_suffixes_parse() {
        assert_eq!(parse_time_ns("1200ns"), Some(1_200));
        assert_eq!(parse_time_ns("250us"), Some(250_000));
        assert_eq!(parse_time_ns("500ms"), Some(500_000_000));
        assert_eq!(parse_time_ns("3s"), Some(3_000_000_000));
        assert_eq!(parse_time_ns("77"), Some(77));
        assert_eq!(parse_time_ns("soon"), None);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_kill_restart_paired() {
        let a = FaultPlan::seeded(7, 8, 1_000_000_000, 3);
        let b = FaultPlan::seeded(7, 8, 1_000_000_000, 3);
        assert_eq!(a.events().len(), 6);
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!((x.at_ns, x.replica, x.kind), (y.at_ns, y.replica, y.kind));
        }
        let kills = a.events().iter().filter(|e| e.kind == FaultKind::Kill).count();
        assert_eq!(kills, 3);
    }

    /// `horizon * 8 / 10` used to wrap above `u64::MAX / 8` and hand
    /// `gen_range` an empty range. Near `u64::MAX` every kill still
    /// lands in the middle of the horizon and every restart after it.
    #[test]
    fn seeded_plans_near_u64_max_stay_inside_the_horizon() {
        for horizon in [u64::MAX / 8 + 1, 4_611_686_018_427_388_000, u64::MAX - 1, u64::MAX] {
            let plan = FaultPlan::seeded(3, 4, horizon, 16);
            assert_eq!(plan.events().len(), 32);
            let (lo, hi) = (horizon / 10, (horizon as u128 * 8 / 10) as u64);
            for kill in plan.events().iter().filter(|e| e.kind == FaultKind::Kill) {
                assert!((lo..hi).contains(&kill.at_ns), "kill at {} for horizon {horizon}", kill.at_ns);
            }
            let restarts = plan.events().iter().filter(|e| e.kind == FaultKind::Restart);
            assert!(restarts.map(|e| e.at_ns).max().unwrap() < horizon);
        }
    }

    #[test]
    fn cluster_without_faults_serves_everything_or_accounts_for_it() {
        let jobs = generate(&spec(300, ArrivalPattern::Bursty));
        let report = run_cluster(&synth_cfg(4), &jobs);
        let m = &report.metrics;
        assert!(m.conserves_submitted());
        assert_eq!(m.submitted, 300);
        assert_eq!(m.kills, 0);
        assert_eq!(m.failed_over, 0);
        assert!(m.served > 0);
        assert_eq!(report.responses.len(), m.completed);
        // At the default chunk count of 1, chunk units and whole-request
        // units coincide.
        assert_eq!(m.submitted_chunks, m.submitted);
        assert_eq!(m.served, m.completed);
        // Scene affinity: each coalescing key is served by exactly one
        // replica, so the number of replicas that saw traffic is bounded
        // by the number of distinct keys but at least one.
        assert!(m.replicas.iter().any(|r| r.routed > 0));
    }

    #[test]
    fn kill_fails_over_and_restart_comes_back_cold() {
        let jobs = generate(&spec(600, ArrivalPattern::Bursty));
        // Kill every replica but 0 early, restart later: traffic must
        // fail over to replica 0 and the restarted replicas' caches
        // re-miss.
        let faults = FaultPlan::parse("kill@2ms:1,kill@2ms:2,kill@2ms:3,restart@9ms:1,restart@9ms:2,restart@9ms:3")
            .expect("valid");
        let cfg = ClusterConfig { faults, ..synth_cfg(4) };
        let report = run_cluster(&cfg, &jobs);
        let m = &report.metrics;
        assert!(m.conserves_submitted());
        assert_eq!(m.kills, 3);
        assert_eq!(m.restarts, 3);
        assert!(m.replicas.iter().all(|r| r.alive), "everyone restarted");
        // Identical replay.
        let again = run_cluster(&cfg, &jobs);
        assert_eq!(m.digest, again.metrics.digest);
        assert_eq!(m.served, again.metrics.served);
        assert_eq!(m.failed_over, again.metrics.failed_over);
    }

    #[test]
    fn single_dead_cluster_sheds_everything_at_the_front_door() {
        let jobs = generate(&spec(50, ArrivalPattern::Uniform));
        let faults = FaultPlan::parse("kill@0ns:0").expect("valid");
        let cfg = ClusterConfig { replicas: 1, faults, ..synth_cfg(1) };
        let report = run_cluster(&cfg, &jobs);
        let m = &report.metrics;
        assert!(m.conserves_submitted());
        assert_eq!(m.served, 0);
        assert_eq!(m.front_door_shed, 50);
        assert!(report.responses.is_empty());
    }

    #[test]
    fn cold_start_cost_is_observable_in_service_times() {
        let jobs = generate(&spec(80, ArrivalPattern::Bursty));
        let cheap = ClusterConfig {
            service: ClusterService { service_ns: 100_000, per_item_ns: 0, cold_start_ns: 0 },
            ..synth_cfg(2)
        };
        let costly = ClusterConfig {
            service: ClusterService {
                service_ns: 100_000,
                per_item_ns: 0,
                cold_start_ns: 50_000_000,
            },
            ..synth_cfg(2)
        };
        let a = run_cluster(&cheap, &jobs);
        let b = run_cluster(&costly, &jobs);
        assert!(
            b.metrics.wall_ns > a.metrics.wall_ns,
            "cold starts must cost virtual time: {} vs {}",
            b.metrics.wall_ns,
            a.metrics.wall_ns
        );
        let misses: u64 = b.metrics.replicas.iter().map(|r| r.cache_misses).sum();
        let hits: u64 = b.metrics.replicas.iter().map(|r| r.cache_hits).sum();
        assert!(misses > 0, "first batch of each render key misses");
        assert!(hits > 0, "affinity keeps later batches warm");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Fragments of the fault grammar, numbers at the edges of `u64`,
        /// and separators.
        const PIECES: [&str; 22] = [
            "kill", "restart", "slow", "join", "leave", "@", ":", ",", "ns", "us", "ms", "s", "0",
            "1", "8", "128", "18446744073709551615", "18446744073709551616", "-1", " ", "é", "",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `--faults` reaches `FaultPlan::parse` with any string: it
            /// returns a value or an error, never panics, and a plan it
            /// accepts is time-sorted and fits the ring.
            #[test]
            fn prop_fault_plan_parse_never_panics(words in proptest::collection::vec(0u64..u64::MAX, 0..24)) {
                if let Ok(plan) = FaultPlan::parse(&crate::fault::fuzz_spec(&words, &PIECES)) {
                    prop_assert!(plan.events().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
                    prop_assert!(plan.joins() <= MAX_REPLICAS);
                }
            }
        }
    }
}
