//! The clock-free scheduling core both serving clocks drive: bounded
//! per-lane admission → [`LaneScheduler`], which owns the lane queues
//! (with the [`Brownout`] precision downgrade) → [`Batcher`] → a bounded
//! ready queue of `2 × workers` batches — plus the ledger every terminal
//! outcome folds into.
//!
//! [`Pipeline`] is a pure state machine on one clock: time comes in as
//! `u64` nanoseconds on the caller's clock (real elapsed time since the
//! server epoch in the live [`crate::Server`], virtual ticks in
//! [`crate::cluster`]). The policy exists once:
//!
//! * a full or zero-capacity lane refuses admission and counts the
//!   refusal per lane;
//! * the scheduler drains lanes only while no flushed batch is *stalled*
//!   behind a full ready queue — the same backpressure a scheduler thread
//!   blocked on a bounded hand-off exerts, and where queueing (and
//!   therefore deadline shedding) comes from under saturation;
//! * once closed, the scheduler keeps draining the lanes and then flushes
//!   every pending group as a [`FlushReason::Drain`] batch.
//!
//! So does the accounting: the core's [`Ledger`] folds every terminal
//! outcome into counters, totals and percentile samples as it lands, and
//! [`Ledger::report`] is the one place a [`crate::ServeMetrics`] is
//! built. [`Pipeline::pump`] records downgrades itself but hands sheds
//! back for the caller to post (live) or defer to the hedge arbiter
//! (cluster) before it records them; workers report served batches and
//! failed chunks. The ledger survives [`Pipeline::drain_all`]: a crash
//! cannot un-serve history.

use std::collections::VecDeque;

use crate::batch::{Batch, Batcher, BatcherConfig};
use crate::fault::{degrade_precision, Brownout, BrownoutConfig};
use crate::metrics::Ledger;
use crate::request::{Request, Workload};
use crate::sched::{LaneScheduler, Priority, SchedConfig, SchedStep};
use crate::server::ServerConfig;

#[cfg(doc)]
use crate::batch::FlushReason;

/// The scheduling core of one server (see the module docs).
pub(crate) struct Pipeline {
    sched_cfg: SchedConfig,
    batcher_cfg: BatcherConfig,
    brownout_cfg: BrownoutConfig,
    caps: Vec<usize>,
    /// The lanes and the policy that drains them.
    sched: LaneScheduler,
    brownout: Brownout,
    batcher: Batcher,
    /// Flushed batches in flush order. The first `ready_cap` are ready
    /// for workers; any beyond are *stalled*, and the scheduler does not
    /// step while one is.
    flushed: VecDeque<Batch>,
    ready_cap: usize,
    closed: bool,
    /// Every terminal outcome, folded as it lands; survives
    /// [`Pipeline::drain_all`].
    pub(crate) ledger: Ledger,
}

impl Pipeline {
    /// An empty core for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed [`SchedConfig`].
    pub(crate) fn new(cfg: &ServerConfig) -> Self {
        let caps = cfg.sched.capacities(cfg.queue_capacity);
        let batcher_cfg = BatcherConfig { max_batch: cfg.max_batch, linger: cfg.linger };
        Pipeline {
            sched: LaneScheduler::new(&cfg.sched),
            sched_cfg: cfg.sched.clone(),
            batcher: Batcher::new(batcher_cfg),
            batcher_cfg,
            brownout: Brownout::new(cfg.brownout),
            brownout_cfg: cfg.brownout,
            caps,
            flushed: VecDeque::new(),
            ready_cap: cfg.workers.max(1) * 2,
            closed: false,
            ledger: Ledger::new(&cfg.sched),
        }
    }

    /// The lane a traffic class is admitted to.
    pub(crate) fn lane_of(&self, priority: Priority) -> usize {
        self.sched_cfg.lane_of(priority)
    }

    /// Admission capacity of `lane` (zero hard-rejects the lane's class).
    pub(crate) fn capacity(&self, lane: usize) -> usize {
        self.caps[lane]
    }

    /// Whether `lane` has a free slot.
    pub(crate) fn has_room(&self, lane: usize) -> bool {
        self.sched.queued(lane).len() < self.caps[lane]
    }

    /// Enqueues `req` in its lane. Returns `false` (dropping `req`,
    /// counting nothing) when the lane is full or zero-capacity — the
    /// caller decides whether that is a rejection ([`Pipeline::reject`]).
    pub(crate) fn admit(&mut self, req: Request) -> bool {
        let lane = self.lane_of(req.priority);
        if !self.has_room(lane) {
            return false;
        }
        self.sched.admit(lane, req);
        true
    }

    /// Counts `chunks` chunk units refused admission on `lane`.
    pub(crate) fn reject(&mut self, lane: usize, chunks: usize) {
        self.ledger.rejected(lane, chunks);
    }

    /// Flushes every batcher group whose oldest member lingered past the
    /// timeout at `now_ns` (oldest first) toward the ready queue.
    pub(crate) fn expire(&mut self, now_ns: u64) {
        self.flushed.extend(self.batcher.expire(now_ns));
    }

    /// Pumps the core to its fixpoint at `now_ns`: while nothing is
    /// stalled the scheduler steps — shedding the expired, downgrading
    /// (and recording the downgrade) under brownout, and offering the rest
    /// to the batcher. Once closed, an empty set of lanes flushes the
    /// batcher as drain batches. Shed requests are appended to `shed`
    /// unrecorded (see the module docs). Returns how many requests left
    /// the lanes (a caller with parked submitters wakes them when
    /// non-zero).
    pub(crate) fn pump(&mut self, now_ns: u64, shed: &mut Vec<Request>) -> usize {
        let mut stepped = 0;
        loop {
            if self.flushed.len() > self.ready_cap {
                return stepped;
            }
            // The brownout's pressure signal: lane depth before the step.
            // Summed only when brownout is on — the off path stays free.
            let depth = if self.brownout_cfg.enabled { self.sched.depth() } else { 0 };
            match self.sched.step(now_ns) {
                Some(SchedStep::Serve { lane, mut req }) => {
                    stepped += 1;
                    if self.brownout.observe(depth) && req.priority != Priority::Interactive {
                        if let Workload::Render(j) = &mut req.job {
                            if let Some(lower) = degrade_precision(j.precision) {
                                j.precision = lower;
                                self.ledger.degraded(lane);
                            }
                        }
                    }
                    if let Some(b) = self.batcher.offer(req, now_ns) {
                        self.flushed.push_back(b);
                    }
                }
                Some(SchedStep::Shed { req, .. }) => {
                    stepped += 1;
                    self.brownout.observe(depth);
                    shed.push(req);
                }
                None if self.closed && !self.batcher.is_empty() => {
                    self.flushed.extend(self.batcher.drain());
                }
                None => return stepped,
            }
        }
    }

    /// Records `batch` as served: it started service at `start_ns` and ran
    /// for `service_ns`. `size` members executed together — more than
    /// `batch.requests` when losing hedge copies rode along unrecorded.
    pub(crate) fn record_served(
        &mut self,
        batch: &Batch,
        size: usize,
        start_ns: u64,
        service_ns: u64,
    ) {
        self.ledger.batch(&batch.key, size, service_ns, batch.flush);
        for req in &batch.requests {
            let lane = self.lane_of(req.priority);
            self.ledger.served(lane, req, start_ns, service_ns);
        }
    }

    /// Records `req` as failed at `now_ns`.
    pub(crate) fn record_failed(&mut self, req: &Request, now_ns: u64) {
        let lane = self.lane_of(req.priority);
        self.ledger.failed(lane, now_ns.saturating_sub(req.arrival_ns));
    }

    /// Records `req` as shed at `now_ns` (handed back by
    /// [`Pipeline::pump`]).
    pub(crate) fn record_shed(&mut self, req: &Request, now_ns: u64) {
        let lane = self.lane_of(req.priority);
        self.ledger.shed(lane, now_ns.saturating_sub(req.arrival_ns));
    }

    /// Takes the oldest ready batch for a worker.
    pub(crate) fn take(&mut self) -> Option<Batch> {
        self.flushed.pop_front()
    }

    /// Whether a batch is ready for a worker.
    pub(crate) fn has_ready(&self) -> bool {
        !self.flushed.is_empty()
    }

    /// The earliest pending linger deadline on this core's clock.
    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.batcher.next_deadline()
    }

    /// Removes the queued copy of `req` wherever it waits — batcher, a
    /// flushed batch (dropped if left empty), or its lane. The batcher and
    /// the flushed batches are searched first, being short; of the lanes,
    /// only `req.priority`'s is searched, since admission fixed it.
    /// Returns whether it was found.
    pub(crate) fn cancel(&mut self, req: &Request) -> bool {
        let (id, chunk) = (req.id, req.chunk);
        if self.batcher.remove(id, chunk).is_some() {
            return true;
        }
        let is = |r: &Request| r.id == id && r.chunk == chunk;
        for bi in 0..self.flushed.len() {
            if let Some(ri) = self.flushed[bi].requests.iter().position(is) {
                self.flushed[bi].requests.remove(ri);
                if self.flushed[bi].requests.is_empty() {
                    self.flushed.remove(bi);
                }
                return true;
            }
        }
        self.sched.cancel(self.lane_of(req.priority), id, chunk).is_some()
    }

    /// The all-lanes search [`Pipeline::cancel`] replaced, kept only as
    /// its test oracle: every lane in turn, then the batcher, then the
    /// flushed batches. Returns where it found `(id, chunk)`.
    #[cfg(test)]
    pub(crate) fn cancel_by_scan(&mut self, id: u64, chunk: crate::request::ChunkSpan) -> Option<String> {
        if let Some(lane) = (0..self.caps.len()).find(|&l| self.sched.cancel(l, id, chunk).is_some()) {
            return Some(format!("lane {lane}"));
        }
        if self.batcher.remove(id, chunk).is_some() {
            return Some("batcher".into());
        }
        let bi = self.flushed.iter().position(|b| b.requests.iter().any(|r| r.id == id && r.chunk == chunk))?;
        self.flushed[bi].requests.retain(|r| r.id != id || r.chunk != chunk);
        if self.flushed[bi].requests.is_empty() {
            self.flushed.remove(bi);
        }
        Some("ready".into())
    }

    /// Everything queued in the core, lanes through flushed batches, as
    /// a comparable string.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> String {
        let lanes: Vec<_> = (0..self.caps.len()).map(|l| self.sched.queued(l)).collect();
        format!("{lanes:?} {:?} {:?}", self.batcher, self.flushed)
    }

    /// Empties the core for a crash: returns every queued request (lanes,
    /// batcher, flushed — unsorted) and restarts scheduler, batcher
    /// and brownout fresh. The ledger survives.
    pub(crate) fn drain_all(&mut self) -> Vec<Request> {
        let mut out = self.sched.drain_all();
        for b in self.batcher.drain().into_iter().chain(self.flushed.drain(..)) {
            out.extend(b.requests);
        }
        self.batcher = Batcher::new(self.batcher_cfg);
        self.brownout = Brownout::new(self.brownout_cfg);
        out
    }

    /// Closes admission intent: later pumps drain the lanes, then flush
    /// the batcher. (Refusing new submits is the caller's job.)
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Whether [`Pipeline::close`] was called.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether nothing is queued anywhere in the core.
    pub(crate) fn is_empty(&self) -> bool {
        self.sched.is_empty()
            && self.batcher.is_empty()
            && self.flushed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::batch::FlushReason;
    use crate::metrics::LatencyHistogram;
    use crate::request::{ChunkSpan, RenderJob, RenderPrecision, SceneKind};

    fn cfg(queue_capacity: usize, max_batch: usize) -> ServerConfig {
        ServerConfig {
            queue_capacity,
            workers: 1,
            max_batch,
            linger: Duration::from_nanos(1_000),
            ..ServerConfig::default()
        }
    }

    fn req(id: u64, priority: Priority, deadline_ns: Option<u64>) -> Request {
        Request {
            id,
            priority,
            arrival_ns: 0,
            deadline_ns,
            chunk: ChunkSpan::WHOLE,
            job: Workload::Render(RenderJob {
                scene: SceneKind::Mic,
                precision: RenderPrecision::Fp32,
                width: 4,
                height: 4,
                spp: 2,
                camera_seed: id,
            }),
        }
    }

    fn ids(batch: &Batch) -> Vec<u64> {
        batch.requests.iter().map(|r| r.id).collect()
    }

    #[test]
    fn a_full_lane_refuses_until_a_pump_frees_a_slot() {
        let mut p = Pipeline::new(&cfg(1, 1));
        assert!(p.admit(req(0, Priority::Standard, None)));
        assert!(!p.admit(req(1, Priority::Standard, None)), "a 1-slot lane is full");
        assert_eq!(p.pump(0, &mut Vec::new()), 1, "the queued request stepped");
        assert!(p.admit(req(2, Priority::Standard, None)), "the step freed the slot");
    }

    #[test]
    fn backpressure_is_per_lane() {
        let mut p = Pipeline::new(&cfg(1, 1));
        assert!(p.admit(req(0, Priority::Standard, None)));
        assert!(!p.admit(req(1, Priority::Standard, None)), "the standard lane is full");
        p.reject(1, 1);
        assert!(p.admit(req(2, Priority::Interactive, None)), "other lanes keep their room");
        assert!(p.admit(req(3, Priority::Batch, None)));
        let m = p.ledger.report(0, 0, 1);
        let rejected: Vec<usize> = m.lanes.iter().map(|l| l.rejected).collect();
        assert_eq!(rejected, vec![0, 1, 0]);
    }

    #[test]
    fn zero_capacity_lane_refuses_every_admit() {
        let mut sched = SchedConfig::priority_lanes();
        sched.lanes[2].capacity = Some(0);
        let mut p = Pipeline::new(&ServerConfig { sched, ..cfg(4, 1) });
        assert!(!p.admit(req(0, Priority::Batch, None)), "a 0-slot lane refuses everything");
        assert_eq!(p.pump(0, &mut Vec::new()), 0);
        assert!(!p.admit(req(1, Priority::Batch, None)), "and keeps refusing after a pump");
        assert!(p.admit(req(2, Priority::Standard, None)), "other lanes keep their room");
    }

    #[test]
    fn a_full_ready_queue_stalls_the_scheduler_until_a_take() {
        // One worker: two ready slots. Singleton batches fill them, the
        // third flush stalls, and the fourth request stays in its lane.
        let mut p = Pipeline::new(&cfg(8, 1));
        for id in 0..4 {
            assert!(p.admit(req(id, Priority::Standard, None)));
        }
        let mut out = Vec::new();
        assert_eq!(p.pump(0, &mut out), 3, "the scheduler stops behind the stalled flush");
        assert_eq!(p.pump(0, &mut out), 0, "still stalled: request 3 waits in its lane");
        assert_eq!(ids(&p.take().unwrap()), vec![0]);
        assert_eq!(p.pump(0, &mut out), 1, "a take frees a slot: the stall moves up, 3 steps");
        let order: Vec<Vec<u64>> = std::iter::from_fn(|| p.take()).map(|b| ids(&b)).collect();
        assert_eq!(order, vec![vec![1], vec![2], vec![3]], "batches leave in flush order");
        assert!(p.is_empty() && out.is_empty());
    }

    #[test]
    fn pump_hands_back_sheds_and_brownout_downgrades() {
        let brownout = BrownoutConfig { enabled: true, engage_depth: 0, release_depth: 0 };
        let mut p = Pipeline::new(&ServerConfig { brownout, ..cfg(8, 8) });
        p.admit(req(0, Priority::Interactive, Some(50)));
        p.admit(req(1, Priority::Interactive, None));
        p.admit(req(2, Priority::Standard, None));
        let mut shed = Vec::new();
        assert_eq!(p.pump(100, &mut shed), 3);
        assert!(matches!(shed.as_slice(), [Request { id: 0, .. }]), "{shed:?}");
        let m = p.ledger.report(0, 0, 1);
        assert_eq!(m.shed, 0, "a shed is the caller's to record");
        // Request 2 is the standard lane's only request: the one downgrade
        // is its.
        let degraded: Vec<usize> = m.lanes.iter().map(|l| l.degraded).collect();
        assert_eq!((m.degraded, degraded), (1, vec![0, 1, 0]));
        p.record_shed(&shed[0], 100);
        let m = p.ledger.report(0, 0, 1);
        let shed_per_lane: Vec<usize> = m.lanes.iter().map(|l| l.shed).collect();
        assert_eq!((m.shed, shed_per_lane), (1, vec![1, 0, 0]), "request 0 shed from lane 0");
        assert_eq!(m.lanes[0].queue_hist, LatencyHistogram::from_samples(&[100]));
        assert_eq!(m.queue_ns.max, 0, "queue_ns stats cover served chunks only");
        assert_eq!(p.next_deadline(), Some(1_100), "linger anchored at the serve instant");
    }

    #[test]
    fn the_ledger_conserves_every_lane_and_survives_drain_all() {
        // Four workers (eight ready slots), brownout always engaged. Per
        // lane: interactive serves 1 and sheds 0; standard serves 2
        // (degraded) and fails the table 5; batch serves 4 (degraded) and
        // sheds 3.
        let brownout = BrownoutConfig { enabled: true, engage_depth: 0, release_depth: 0 };
        let mut p = Pipeline::new(&ServerConfig { brownout, workers: 4, ..cfg(8, 8) });
        let mut table = req(5, Priority::Standard, None);
        table.job = Workload::Table("t".into());
        let admitted = [
            req(0, Priority::Interactive, Some(50)),
            req(1, Priority::Interactive, None),
            req(2, Priority::Standard, None),
            req(3, Priority::Batch, Some(50)),
            req(4, Priority::Batch, None),
            table,
        ];
        for r in admitted {
            assert!(p.admit(r));
        }
        let mut shed = Vec::new();
        assert_eq!(p.pump(100, &mut shed), 6);
        for r in &shed {
            p.record_shed(r, 100);
        }
        p.expire(1_200);
        p.pump(1_200, &mut shed);
        let batches: Vec<Batch> = std::iter::from_fn(|| p.take()).collect();
        assert_eq!(batches.len(), 3, "fp32, degraded int16 and table groups");
        for b in &batches {
            if matches!(b.key, crate::request::BatchKey::Table(_)) {
                assert_eq!(ids(b), vec![5], "the table batch holds request 5 alone");
                for r in &b.requests {
                    p.record_failed(r, 1_300);
                }
            } else {
                p.record_served(b, b.requests.len(), 1_200, 500);
            }
        }
        // Per lane [submitted, served, shed, failed, degraded]; then the
        // totals [requests, shed, failed, degraded, batches].
        let tally = |p: &Pipeline| {
            let m = p.ledger.report(0, 2_000, 4);
            for l in &m.lanes {
                assert_eq!(l.submitted, l.served + l.shed + l.failed, "lane {} conserves", l.name);
            }
            let lanes: Vec<[usize; 5]> = m
                .lanes
                .iter()
                .map(|l| [l.submitted, l.served, l.shed, l.failed, l.degraded])
                .collect();
            (lanes, [m.requests, m.shed, m.failed, m.degraded, m.batches])
        };
        let before = tally(&p);
        assert_eq!(before.0, vec![[2, 1, 1, 0, 0], [2, 1, 0, 1, 1], [2, 1, 1, 0, 1]]);
        assert_eq!(before.1, [3, 2, 1, 2, 2]);
        let m = p.ledger.report(0, 2_000, 4);
        // Lane 1 queued served request 2 for 1_200 and failed request 5
        // for 1_300; every served chunk queued exactly 1_200 (mean ==
        // max) and none missed its deadline.
        assert_eq!(m.lanes[1].queue_hist, LatencyHistogram::from_samples(&[1_200, 1_300]));
        assert_eq!(
            (m.queue_ns.mean, m.queue_ns.max, m.expired),
            (1_200, 1_200, 0),
            "served latency is start minus arrival on the core's clock"
        );

        // A crash orphans what is still queued; it cannot un-serve history.
        p.admit(req(6, Priority::Interactive, None));
        p.admit(req(7, Priority::Interactive, None));
        p.pump(1_400, &mut shed);
        let mut orphans: Vec<u64> = p.drain_all().iter().map(|r| r.id).collect();
        orphans.sort_unstable();
        assert_eq!(orphans, vec![6, 7]);
        assert_eq!(tally(&p), before, "records survive drain_all");
    }

    #[test]
    fn expire_flushes_lingered_groups_and_close_flushes_the_rest_as_drain() {
        let mut p = Pipeline::new(&cfg(8, 8));
        let mut out = Vec::new();
        p.admit(req(0, Priority::Standard, None));
        p.pump(0, &mut out);
        let mut table = req(1, Priority::Interactive, None);
        table.job = Workload::Table("t".into());
        p.admit(table);
        p.pump(500, &mut out);
        p.expire(1_000);
        p.pump(1_000, &mut out);
        let first = p.take().expect("the lingered group flushed");
        assert_eq!((ids(&first), first.flush), (vec![0], FlushReason::Timeout));
        assert!(p.take().is_none(), "the younger group still lingers");
        p.close();
        p.pump(1_000, &mut out);
        let rest = p.take().expect("close flushes the batcher");
        assert_eq!((ids(&rest), rest.flush), (vec![1], FlushReason::Drain));
        assert!(p.is_empty() && p.is_closed());
    }

    #[test]
    fn cancel_and_drain_all_reach_every_stage() {
        // Pairs, one worker: after one pump a table waits in the batcher
        // (8), two render pairs are ready (0+1, 2+3), one is stalled
        // (4+5), and the last render is left in its lane (6).
        let mut p = Pipeline::new(&cfg(8, 2));
        let mut table = req(8, Priority::Standard, None);
        table.job = Workload::Table("t".into());
        p.admit(table);
        for id in 0..7 {
            p.admit(req(id, Priority::Standard, None));
        }
        p.pump(0, &mut Vec::new());
        for id in [6, 8, 5, 2] {
            assert!(p.cancel(&req(id, Priority::Standard, None)), "request {id} found");
        }
        assert!(!p.cancel(&req(2, Priority::Standard, None)), "already gone");
        let mut orphans: Vec<u64> = p.drain_all().iter().map(|r| r.id).collect();
        orphans.sort_unstable();
        assert_eq!(orphans, vec![0, 1, 3, 4]);
        assert!(p.is_empty());
    }
}
