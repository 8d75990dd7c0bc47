//! The single-threaded discrete-event server behind every virtual-clock
//! run: the scheduling core ([`Pipeline`] — lanes,
//! [`crate::LaneScheduler`], brownout, [`crate::Batcher`], the
//! `2 × workers` ready queue, and the ledger every terminal outcome folds
//! into) driven on one injected virtual clock, with virtual workers taking
//! its ready batches and reporting their outcomes back to it in virtual
//! nanoseconds. The cluster simulator ([`crate::cluster::run_cluster`])
//! owns the only event loop that advances these pipelines; the one-server
//! harness ([`crate::run_virtual`]) is that loop over one replica.
//!
//! What lives here is only what is virtual: the workers and their service
//! model (flat, per-item, slow factor, modeled cold cache) and the seeded
//! chaos injector. Every scheduling decision is a deterministic function
//! of the admitted schedule and the clock; batches are only *decided*
//! here and rendered for real afterwards, so thread width can never move
//! an outcome. Every pipeline models a per-`(scene, precision)` model
//! cache whose cold misses stretch the batch's virtual service time (by
//! zero in the one-server harness, which models no cold start). The
//! cluster layer adds a per-replica inflight gauge (router admission
//! control), reads the cache's hit/miss counts, arbitrates hedge copies
//! from the pipeline's [`PipeEvent`]s, and uses [`VirtualPipeline::kill`]
//! — the fault-injection hook that orphans everything in flight so the
//! front door can fail it over.

use std::collections::HashSet;

use crate::batch::Batch;
use crate::cluster::ClusterService;
use crate::fault::{FaultInjector, InjectedFault};
use crate::metrics::ServeMetrics;
use crate::pipeline::Pipeline;
use crate::request::{BatchKey, ChunkSpan, Request, Response};
use crate::server::ServerConfig;
use crate::workload::TimedJob;

/// A batch in service on a virtual worker.
struct Running {
    batch: Batch,
    start_ns: u64,
    service_ns: u64,
}

impl Running {
    /// Virtual time the batch completes and its worker frees up.
    fn done_at(&self) -> u64 {
        self.start_ns + self.service_ns
    }
}

/// One externally visible pipeline event, emitted (only when event
/// tracking is on) at the instant it happens, in event order. The
/// cluster layer drains these after every fire/pump to feed the failure
/// detector (completions are the heartbeat), the CoDel admission
/// controller (queue delays at service start) and the hedging arbiter
/// (who started/completed/lost first).
#[derive(Debug)]
pub(crate) enum PipeEvent {
    /// A virtual worker took the chunk's batch after `queue_ns` waiting.
    Started { id: u64, chunk: u32, queue_ns: u64 },
    /// The chunk's batch completed service (it will be served).
    Completed { id: u64, chunk: u32 },
    /// `req` was shed by the scheduler, or `failed` by the chaos
    /// injector, at virtual time `at_ns`. The pipeline leaves it
    /// unrecorded: the cluster records it on this replica unless another
    /// hedge copy of the chunk is still live.
    Lost { req: Request, at_ns: u64, failed: bool },
}

/// The modeled per-replica model cache: which `(scene, precision)` render
/// keys are warm, plus cumulative hit/miss counters. A cold key stretches
/// its first batch by the configured cold-start cost (quantize, calibrate,
/// weight upload); a kill empties the warm set but keeps the counters —
/// restarts are exactly what makes hit ratios interesting.
struct ModelCache {
    warm: HashSet<BatchKey>,
    hits: u64,
    misses: u64,
}

/// The deterministic virtual pipeline for one (replica) server.
pub(crate) struct VirtualPipeline {
    /// The scheduling core and its ledger.
    pub(crate) core: Pipeline,
    /// Scratch for the core's sheds, drained after every pump.
    shed: Vec<Request>,
    /// The service model: flat per-batch cost, size-aware per-member cost
    /// (so overload is a function of batch composition) and cold-start
    /// cost.
    service: ClusterService,
    /// Gray-failure injection: every batch's virtual service time is
    /// multiplied by this (the `slow@T:R:F` fault). 1 = nominal speed.
    slow_factor: u64,
    cache: ModelCache,
    /// Seeded chaos: a poisoned request fails the moment a worker would
    /// take its batch (mirroring the live quarantine outcome, minus the
    /// real-time retry loop); a delayed one stretches its batch's virtual
    /// service time. Same seeds as live mode, same poisoned set.
    injector: Option<FaultInjector>,
    /// The batch each virtual worker is serving, if any (so a kill can
    /// orphan in-service work instead of silently completing it).
    workers: Vec<Option<Running>>,
    /// Requests admitted and not yet terminal (served, shed, or orphaned
    /// by a kill) — the router's per-replica admission-control gauge.
    inflight: usize,
    /// Whether to emit [`PipeEvent`]s (health, hedging or admission
    /// control on). Off by default: the single-server harness and the
    /// plain cluster pay nothing, and losses are recorded on the spot.
    track_events: bool,
    /// Events since the last [`VirtualPipeline::take_events`].
    events: Vec<PipeEvent>,
    /// Losing hedge copies currently in service: their completion is
    /// dropped — no request metric, no response, the work was wasted.
    suppressed: HashSet<(u64, u32)>,
    pub(crate) decided: Vec<Batch>,
    /// Total virtual time the workers spent serving completed batches.
    pub(crate) busy_ns: u64,
    pub(crate) wall_ns: u64,
}

impl VirtualPipeline {
    /// A pipeline for `cfg` under the `service` model (cold render keys
    /// pay `service.cold_start_ns` extra on their first batch after a
    /// cold start). `injector` optionally adds seeded chaos (the same
    /// injector type — and seeds — the live server takes), and
    /// `track_events` turns on [`PipeEvent`] emission (cluster
    /// resilience mode).
    pub(crate) fn new(
        cfg: &ServerConfig,
        service: ClusterService,
        injector: Option<FaultInjector>,
        track_events: bool,
    ) -> Self {
        VirtualPipeline {
            core: Pipeline::new(cfg),
            shed: Vec::new(),
            service: ClusterService { service_ns: service.service_ns.max(1), ..service },
            slow_factor: 1,
            cache: ModelCache { warm: HashSet::new(), hits: 0, misses: 0 },
            injector: injector.filter(|i| !i.is_empty()),
            workers: (0..cfg.workers.max(1)).map(|_| None).collect(),
            inflight: 0,
            track_events,
            events: Vec::new(),
            suppressed: HashSet::new(),
            decided: Vec::new(),
            busy_ns: 0,
            wall_ns: 0,
        }
    }

    /// Requests admitted and not yet terminal.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    /// This pipeline's serving metrics over `responses`, the payloads it
    /// served: the core's ledger over the virtual wall clock.
    pub(crate) fn metrics(&self, responses: &[Response]) -> ServeMetrics {
        self.core.ledger.report(responses, self.wall_ns, self.workers.len())
    }

    /// Sets the gray-failure service-time multiplier (`slow@T:R:F`);
    /// factor 1 restores nominal speed. Batches already in service keep
    /// their committed completion time — only future takes slow down.
    pub(crate) fn set_slow_factor(&mut self, factor: u32) {
        self.slow_factor = u64::from(factor).max(1);
    }

    /// The current gray-failure multiplier.
    pub(crate) fn slow_factor(&self) -> u64 {
        self.slow_factor
    }

    /// Drains the events emitted since the last call, in event order.
    pub(crate) fn take_events(&mut self) -> Vec<PipeEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether any virtual worker is in service right now (the failure
    /// detector only expects progress from a busy replica).
    pub(crate) fn is_busy(&self) -> bool {
        self.workers.iter().any(Option::is_some)
    }

    /// Cancels the live copy of `(id, chunk)`, wherever it sits: removed
    /// outright if still queued, suppressed (completes without a trace) if
    /// already in service. The hedging layer calls this on the losing copy
    /// the instant the winning copy completes.
    pub(crate) fn cancel(&mut self, id: u64, chunk: ChunkSpan) {
        if self.core.cancel(id, chunk) {
            self.inflight -= 1;
        } else if self
            .workers
            .iter()
            .flatten()
            .any(|run| run.batch.requests.iter().any(|r| r.id == id && r.chunk == chunk))
        {
            self.suppressed.insert((id, chunk.index));
        }
    }

    /// Cumulative `(hits, misses)` of the modeled model cache.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// Chunk `chunk` of the scheduled job `tj` as request `id` arriving at
    /// virtual time `at` (its deadline is relative to the arrival).
    pub(crate) fn request(&self, id: u64, at: u64, tj: &TimedJob, chunk: ChunkSpan) -> Request {
        Request {
            id,
            priority: tj.priority,
            arrival_ns: at,
            deadline_ns: tj.deadline.map(|d| at + d.as_nanos() as u64),
            chunk,
            job: tj.job.clone(),
        }
    }

    /// Admits `req` at virtual time `at`. A full (or zero-capacity) lane
    /// rejects — a virtual open-loop submitter cannot park. Returns
    /// whether the chunk entered its lane. A request failed over from a
    /// kill keeps its original `arrival_ns` and deadline, so its queue
    /// latency honestly includes the time it wasted on the dead replica.
    pub(crate) fn admit_request(&mut self, req: Request, at: u64) -> bool {
        let lane = self.core.lane_of(req.priority);
        self.wall_ns = self.wall_ns.max(at);
        let admitted = self.admit_hedge(req, at);
        if !admitted {
            self.core.reject(lane, 1);
        }
        admitted
    }

    /// Admits a hedge clone at virtual time `at` **without** counting a
    /// rejection on failure: a clone that finds no lane room simply never
    /// existed (the primary copy still owns the request), so it must not
    /// perturb the conservation law.
    pub(crate) fn admit_hedge(&mut self, req: Request, at: u64) -> bool {
        if !self.core.admit(req) {
            return false;
        }
        self.wall_ns = self.wall_ns.max(at);
        self.inflight += 1;
        true
    }

    /// Earliest pending timer: a busy worker finishing or a linger expiry.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        let completion = self.workers.iter().flatten().map(Running::done_at).filter(|&t| t > now).min();
        let linger = self.core.next_deadline().map(|d| d.max(now));
        completion.into_iter().chain(linger).min()
    }

    /// One timer firing at `t`: finished batches complete, linger-expired
    /// groups flush, then the pipeline pumps to its fixpoint. Lingers are
    /// expired only here: the event loop visits every linger deadline in
    /// time order, so a pump between timers never finds one overdue.
    pub(crate) fn fire(&mut self, t: u64) {
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
                if self.track_events {
                    for req in &batch.requests {
                        self.events
                            .push(PipeEvent::Completed { id: req.id, chunk: req.chunk.index });
                    }
                }
                self.busy_ns += run.service_ns;
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
            if self.cache.warm.insert(batch.key.clone()) {
                self.cache.misses += 1;
                svc = svc.saturating_add(self.service.cold_start_ns);
            } else {
                self.cache.hits += 1;
            }
        }
        svc.saturating_mul(self.slow_factor)
    }

    /// Applies the chaos injector to a batch a worker is about to take:
    /// poisoned members fail on the spot (the virtual analogue of the live
    /// supervisor's quarantine verdict), delayed members stretch the
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
    /// pipeline: with event tracking on it travels to the cluster as
    /// [`PipeEvent::Lost`] unrecorded, otherwise it is recorded at once.
    fn lose(&mut self, req: Request, now: u64, failed: bool) {
        self.inflight -= 1;
        if self.track_events {
            self.events.push(PipeEvent::Lost { req, at_ns: now, failed });
        } else if failed {
            self.core.record_failed(&req, now);
        } else {
            self.core.record_shed(&req, now);
        }
    }

    /// Pumps the core at `now` and settles its sheds.
    fn pump_core(&mut self, now: u64) {
        self.core.pump(now, &mut self.shed);
        let mut shed = std::mem::take(&mut self.shed);
        for req in shed.drain(..) {
            self.lose(req, now, false);
        }
        self.shed = shed;
    }

    /// One fixpoint pass of the virtual pipeline at time `now`: the core
    /// pumps, idle workers take its ready batches (in queue order), and
    /// every take frees a ready slot the next pump can refill.
    pub(crate) fn pump(&mut self, now: u64) {
        self.complete_finished(now);
        loop {
            self.pump_core(now);
            let mut took = false;
            while let Some(wi) =
                self.workers.iter().position(Option::is_none)
            {
                let Some(batch) = self.core.take() else { break };
                took = true;
                let Some((batch, delay_ns)) = self.apply_faults(batch, now) else {
                    continue; // every member was poisoned: nothing to run
                };
                let service_ns = self.service_for(&batch) + delay_ns;
                if self.track_events {
                    for req in &batch.requests {
                        self.events.push(PipeEvent::Started {
                            id: req.id,
                            chunk: req.chunk.index,
                            queue_ns: now - req.arrival_ns,
                        });
                    }
                }
                self.workers[wi] = Some(Running { batch, start_ns: now, service_ns });
            }
            if !took {
                break;
            }
        }
    }

    /// Whether any admitted request is still queued, pending, or in
    /// service.
    pub(crate) fn has_pending(&self) -> bool {
        !self.core.is_empty() || self.is_busy()
    }

    /// Locks in the final wall clock once no more events will reach this
    /// pipeline.
    pub(crate) fn finalize(&mut self, now: u64) {
        self.wall_ns = self.wall_ns.max(now);
    }

    /// Kills the replica at virtual time `t`: everything in flight —
    /// queued in a lane, pending in the batcher, stalled, queued for a
    /// worker, or in service — is orphaned and returned (in admission-id
    /// order) for the front door to fail over or shed. Scheduler and
    /// batcher state restart fresh and the model cache goes cold; the
    /// core's ledger and the cache hit/miss totals survive, because a
    /// crash cannot un-serve history.
    pub(crate) fn kill(&mut self, t: u64) -> Vec<Request> {
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
        self.cache.warm.clear();
        self.inflight = 0;
        self.wall_ns = self.wall_ns.max(t);
        orphans
    }
}
