//! Deterministic cluster discrete-event simulation: N replica serving
//! pipelines behind a seeded consistent-hash front door, with fault
//! injection, on one shared virtual clock.
//!
//! Each replica is a full [`VirtualPipeline`] — its own lanes,
//! weighted-deficit scheduler, batcher, virtual workers and modeled
//! per-`(scene, precision)` model cache. The front door routes every
//! arrival by its coalescing key over a [`HashRing`] (scene affinity:
//! same key, same replica, warm cache, fat batches), skipping replicas
//! that are dead or at their inflight bound. A [`FaultPlan`] kills and
//! restarts replicas on the virtual clock: a kill orphans everything in
//! flight on that replica and the front door immediately re-routes the
//! orphans over the surviving ring (failover) or drops them; the
//! replica restarts with a cold cache.
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
//! live (`Tracked`); with event tracking on, a pipeline reports every
//! shed and injected failure as a loss event instead of recording it, and
//! the front door records the loss unless another copy still owns the
//! chunk.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::FaultInjector;
use crate::health::{AdmissionConfig, CoDelAdmission, HealthConfig, HealthDetector, HealthState, HedgeConfig};
use crate::metrics::{ClusterMetrics, FrontDoorTotals, ReplicaStats};
use crate::request::{
    assemble_chunks, effective_chunks, response_set_digest, synthetic_chunk_payload, ChunkResponse,
    ChunkSpan, Request, Response,
};
use crate::router::{HashRing, RouterConfig};
use crate::server::{execute_batch, ServerConfig};
use crate::vclock::{PipeEvent, VirtualPipeline};
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
    /// seeded downtime — the chaos suite's generator.
    pub fn seeded(seed: u64, replicas: usize, horizon_ns: u64, kills: usize) -> Self {
        let horizon = horizon_ns.max(1_000);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for _ in 0..kills {
            let replica = rng.gen_range(0usize..replicas.max(1));
            let at_ns = rng.gen_range(horizon / 10..horizon * 8 / 10);
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
    /// 16-byte deterministic hash payloads ([`synthetic_payload`]):
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

/// One replica as the front door sees it: its pipeline, its lifecycle,
/// and the cluster-layer counters its [`ReplicaStats`] reports.
struct Replica {
    pipe: VirtualPipeline,
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
    /// speed.
    fn new(cfg: &ClusterConfig, track: bool) -> Self {
        let injector = cfg.injector.or(cfg.server.injector);
        Replica {
            pipe: VirtualPipeline::new(&cfg.server, cfg.service, injector, track),
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
}

/// One request chunk the hedging arbiter is tracking: where its live
/// copies are and whether it was hedged. Exactly one terminal record is
/// committed per tracked chunk, no matter how many copies raced.
struct Tracked {
    /// A clone of the admitted chunk request, for hedge placement.
    req: Request,
    /// Replicas currently holding a live copy (one or two entries).
    copies: Vec<usize>,
    /// Whether any copy has started service — a started chunk is not
    /// worth hedging, the work is already running.
    started: bool,
    /// The hedge clone's replica, if one was placed (each chunk hedges
    /// at most once; `hedged == hedge_won + hedge_wasted` is an
    /// invariant).
    clone_replica: Option<usize>,
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
    /// Whether pipelines emit [`PipeEvent`]s (any resilience feature on).
    track: bool,
    /// Hedge-arbitrated chunks by `(id, chunk index)`, empty unless
    /// hedging is on (`BTreeMap` so suspect-triggered hedges fire in
    /// deterministic id-then-chunk order).
    tracked: BTreeMap<(u64, u32), Tracked>,
    /// Pending hedge timers `(due_ns, (id, chunk))` — arrivals are
    /// monotone, so this stays sorted by construction.
    hedge_timers: VecDeque<(u64, (u64, u32))>,
    /// Index of the next unapplied fault in the sorted plan.
    next_fault: usize,
    /// Virtual time of the last event that touched a pipeline.
    last_event_ns: u64,
}

impl<'c> ClusterState<'c> {
    /// Whether the front door may send work to replica `r` at all.
    fn routable(&self, r: usize) -> bool {
        let rep = &self.replicas[r];
        rep.life == Life::Up && rep.pipe.inflight() < self.cfg.max_inflight
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

    /// A tracked chunk's terminal happened outside any pipeline (front
    /// door drop or lane-full reject on failover): close its book.
    fn settle_terminal(&mut self, key: (u64, u32)) {
        if let Some(tr) = self.tracked.remove(&key) {
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
        let key_hash = HashRing::key_hash(&req.job.key());
        match self.pick(key_hash, t, None) {
            Some(r) => {
                if self.replicas[r].pipe.admit_request(req, t) {
                    self.replicas[r].failed_over_in += 1;
                    self.replicas[from].failed_over_out += 1;
                    if let Some(tr) = self.tracked.get_mut(&key) {
                        tr.copies.retain(|&c| c != from);
                        tr.copies.push(r);
                    }
                } else {
                    // A lane-full reject is counted by the target
                    // pipeline's admission accounting — that is the
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
    /// records.
    fn settle_loss(&mut self, r: usize, req: Request, at_ns: u64, failed: bool) {
        let key = (req.id, req.chunk.index);
        if let Some(tr) = self.tracked.get_mut(&key) {
            tr.copies.retain(|&c| c != r);
            if !tr.copies.is_empty() {
                return;
            }
            self.settle_terminal(key);
        }
        let core = &mut self.replicas[r].pipe.core;
        if failed {
            core.record_failed(&req, at_ns);
        } else {
            core.record_shed(&req, at_ns);
        }
    }

    /// Drains replica `r`'s pipeline events at time `t`: feeds the CoDel
    /// controller (queue delays at service start), arbitrates hedge
    /// copies (first completion wins, losers are cancelled or
    /// suppressed), and gives the failure detector its heartbeat
    /// observation. Called after every fire/pump of `r`, so same-tick
    /// races resolve in replica-index order — deterministically.
    fn drain_events(&mut self, r: usize, t: u64) {
        if !self.track {
            return;
        }
        let events = self.replicas[r].pipe.take_events();
        let mut progressed = false;
        for ev in events {
            match ev {
                PipeEvent::Started { id, chunk, queue_ns } => {
                    self.codel.observe(r, queue_ns, t);
                    if let Some(tr) = self.tracked.get_mut(&(id, chunk)) {
                        tr.started = true;
                    }
                }
                PipeEvent::Completed { id, chunk } => {
                    progressed = true;
                    if let Some(tr) = self.tracked.remove(&(id, chunk)) {
                        for &other in tr.copies.iter().filter(|&&c| c != r) {
                            // The losing copy is pulled from its queue,
                            // or suppressed if already in service.
                            self.replicas[other].pipe.cancel(id, tr.req.chunk);
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
        self.health.observe(r, self.replicas[r].pipe.is_busy(), progressed, t);
    }

    /// Places a hedge clone for the tracked chunk `key` if it is still
    /// worth it (un-started, un-hedged, single copy). Returns whether a
    /// clone was placed.
    fn fire_hedge(&mut self, key: (u64, u32), t: u64) -> bool {
        let Some(tr) = self.tracked.get(&key) else { return false };
        if tr.started || tr.clone_replica.is_some() || tr.copies.len() != 1 {
            return false;
        }
        let primary = tr.copies[0];
        let key_hash = HashRing::key_hash(&tr.req.job.key());
        let Some(r2) = self.pick(key_hash, t, Some(primary)) else { return false };
        let req = tr.req.clone();
        if !self.replicas[r2].pipe.admit_hedge(req, t) {
            // No lane room on the alternate: the clone never existed.
            return false;
        }
        let tr = self.tracked.get_mut(&key).expect("still tracked");
        tr.clone_replica = Some(r2);
        tr.copies.push(r2);
        self.front_door.hedged += 1;
        self.last_event_ns = self.last_event_ns.max(t);
        self.replicas[r2].pipe.pump(t);
        self.drain_events(r2, t);
        true
    }

    /// Hedges every pending un-started chunk whose only copy sits on
    /// `r` — fired the instant the detector turns `r` Suspect, in
    /// id-then-chunk order (deterministic by `BTreeMap` iteration).
    fn hedge_suspect_replica(&mut self, r: usize, t: u64) {
        let keys: Vec<(u64, u32)> = self
            .tracked
            .iter()
            .filter(|(_, tr)| {
                !tr.started
                    && tr.clone_replica.is_none()
                    && tr.copies.len() == 1
                    && tr.copies[0] == r
            })
            .map(|(&key, _)| key)
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
            if rep.life == Life::Draining && !rep.pipe.has_pending() {
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
            self.replicas.push(Replica::new(self.cfg, self.track));
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
                for req in self.replicas[r].pipe.kill(ev.at_ns) {
                    if let Some(tr) = self.tracked.get_mut(&(req.id, req.chunk.index)) {
                        if tr.copies.len() > 1 {
                            // The other copy is live: this orphan
                            // silently dies, no failover needed.
                            tr.copies.retain(|&c| c != r);
                            continue;
                        }
                    }
                    self.reroute(req, ev.at_ns, r);
                }
            }
            FaultKind::Restart if matches!(self.replicas[r].life, Life::Down | Life::Departed) => {
                // The pipeline was reset at kill time (or drained dry by
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
                self.replicas[r].pipe.set_slow_factor(factor);
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
    /// up to `target` (faults win ties, then pipeline timers, then hedge
    /// timers). Returns the clock position (`target`, unless `target` is
    /// the drain sentinel `u64::MAX`, in which case the last event time).
    fn process_until(&mut self, target: u64, now: u64) -> u64 {
        let mut now = now;
        loop {
            let pipe_next = self
                .replicas
                .iter()
                .filter_map(|rep| rep.pipe.next_event(now))
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
                        self.replicas[i].pipe.pump(t);
                        self.drain_events(i, t);
                    }
                }
            } else if pipe_next == Some(t) {
                // Fire this tick on every pipe that owns it, in index
                // order, draining events after each so a completion on a
                // lower-index replica cancels its hedge twin before that
                // twin's own tick runs — the tie-break is deterministic.
                for i in 0..self.replicas.len() {
                    if self.replicas[i].pipe.next_event(now) == Some(t) {
                        self.replicas[i].pipe.fire(t);
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
pub fn run_cluster(cfg: &ClusterConfig, jobs: &[TimedJob]) -> ClusterReport {
    cfg.server.sched.validate();
    let replicas = cfg.replicas.max(1);
    let hedging = cfg.hedge.enabled();
    let track = hedging || cfg.health.enabled || cfg.admission.enabled;
    let mut state = ClusterState {
        ring: HashRing::new(replicas, &cfg.router),
        replicas: (0..replicas).map(|_| Replica::new(cfg, track)).collect(),
        front_door: FrontDoorTotals::default(),
        draining: 0,
        health: HealthDetector::new(cfg.health, replicas, cfg.service.service_ns),
        codel: CoDelAdmission::new(cfg.admission, replicas),
        track,
        tracked: BTreeMap::new(),
        hedge_timers: VecDeque::new(),
        next_fault: 0,
        last_event_ns: 0,
        cfg,
    };

    // The decision loop: single-threaded, in trace order. A job splits
    // into its row-band chunks at the front door; all chunks of one
    // arrival share one routing decision (same coalescing key, same
    // replica — scene affinity would pick the same target anyway), and
    // the front-door counters account in chunk units.
    let mut now = 0u64;
    let mut submitted_chunks = 0usize;
    for (id, tj) in jobs.iter().enumerate() {
        let at = now + tj.delay_before.as_nanos() as u64;
        now = state.process_until(at, now);
        state.last_event_ns = state.last_event_ns.max(at);
        state.refresh_health(at);
        let of = effective_chunks(cfg.server.chunks, &tj.job);
        submitted_chunks += of as usize;
        let key_hash = HashRing::key_hash(&tj.job.key());
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
                    let req = state.replicas[r].pipe.request(rid, at, tj, ChunkSpan { index, of });
                    if !hedging {
                        state.replicas[r].pipe.admit_request(req, at);
                    } else if state.replicas[r].pipe.admit_request(req.clone(), at) {
                        state.tracked.insert(
                            (rid, index),
                            Tracked { req, copies: vec![r], started: false, clone_replica: None },
                        );
                        state
                            .hedge_timers
                            .push_back((at.saturating_add(cfg.hedge.delay_ns), (rid, index)));
                    }
                }
                state.replicas[r].pipe.pump(at);
                state.drain_events(r, at);
            }
            None => state.front_door.front_door_shed += of as usize,
        }
    }
    // Drain: remaining timers, faults and hedge deadlines, to quiescence.
    let end = state.process_until(u64::MAX, now);
    let wall_ns = state.last_event_ns.max(end);
    for rep in &mut state.replicas {
        rep.pipe.finalize(wall_ns);
    }
    debug_assert!(state.tracked.is_empty(), "every tracked request must settle by drain");

    // Decisions locked in — produce payloads. Per replica, fan the
    // decided batches out over `fnr_par`; thread width moves wall time
    // only. Replicas serve *chunks*; whole responses are reassembled
    // across the fleet afterwards (a failover can scatter one request's
    // chunks over several replicas).
    let threads = fnr_par::current_num_threads();
    let workers = cfg.server.workers.max(1);
    let mut all_chunks: Vec<ChunkResponse> = Vec::new();
    let mut replica_stats: Vec<ReplicaStats> = Vec::new();
    for (i, rep) in state.replicas.iter().enumerate() {
        let pipe = &rep.pipe;
        let nested: Vec<Vec<ChunkResponse>> = match cfg.payload {
            PayloadMode::Render => {
                fnr_par::par_map(&pipe.decided, |batch| execute_batch(batch, &cfg.server.tables))
            }
            PayloadMode::Synthetic => fnr_par::par_map(&pipe.decided, |batch| {
                batch
                    .requests
                    .iter()
                    .map(|req| ChunkResponse {
                        id: req.id,
                        chunk: req.chunk,
                        bytes: synthetic_chunk_payload(&req.job, req.chunk),
                    })
                    .collect()
            }),
        };
        let mut chunks: Vec<ChunkResponse> = nested.into_iter().flatten().collect();
        chunks.sort_unstable_by_key(|c| (c.id, c.chunk.index));
        // The per-replica digest is over the chunk payloads this replica
        // served (identical to the response set at chunk count 1).
        let responses: Vec<Response> =
            chunks.iter().map(|c| Response { id: c.id, bytes: c.bytes.clone() }).collect();
        let metrics = pipe.metrics(&responses);
        let (cache_hits, cache_misses) = pipe.cache_stats();
        replica_stats.push(ReplicaStats {
            replica: i,
            alive: rep.life != Life::Down,
            kills: rep.kills,
            restarts: rep.restarts,
            routed: rep.routed,
            failed_over_out: rep.failed_over_out,
            failed_over_in: rep.failed_over_in,
            cache_hits,
            cache_misses,
            busy_ns: pipe.busy_ns,
            suspects: rep.suspects,
            slow_factor: pipe.slow_factor(),
            departed: matches!(rep.life, Life::Draining | Life::Departed),
            metrics,
        });
        all_chunks.extend(chunks);
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
}
