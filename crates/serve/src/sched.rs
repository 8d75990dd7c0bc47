//! Priority-lane scheduling: a pure, clock-injected admission scheduler
//! that owns its lanes.
//!
//! The serving front-end classes traffic into lanes ([`Priority`]) and
//! drains them with a **weighted deficit round robin**: every replenish
//! round hands each non-empty lane credit equal to its weight, and a lane
//! is served while its credit lasts — so interactive traffic overtakes
//! batch by the configured ratio without ever starving it. Within a lane,
//! requests are served **per-key round robin** (oldest first within a
//! key), so one hot `(scene, precision)` key cannot monopolize the
//! batcher. On every dequeue the scheduler first **sheds** requests whose
//! deadline passed while they queued: an expired request is dropped and
//! counted, never rendered.
//!
//! [`LaneScheduler`] owns the lane queues: callers admit into it, cancel
//! from it and step it. Each lane keeps its queue in admission order plus
//! two indexes — a lower bound on its earliest deadline (the shed scan
//! skips a lane whose bound lies in the future) and one slot per key with
//! its queued count (the key rotation is a list of slot indices) — so a
//! step costs O(keys), not O(queue depth × keys).
//!
//! Like the batcher, the scheduler is a pure state machine: all time comes
//! in through method arguments (`now_ns`, nanoseconds on the caller's
//! clock — real elapsed time in the threaded server, virtual ticks in the
//! trace harness). Every decision is therefore a deterministic function of
//! the admitted requests and the injected clock, which is what the
//! scheduling test harness and the serve-equivalence suite pin down.

use std::collections::VecDeque;

use crate::request::{BatchKey, ChunkSpan, Request};

/// Traffic class of a render request, in descending urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-critical traffic (AR/VR frame loops): highest drain weight.
    Interactive,
    /// Ordinary request/response traffic — the default class.
    Standard,
    /// Throughput traffic (offline re-renders, table regeneration):
    /// lowest weight, but never starved.
    Batch,
}

impl Priority {
    /// All classes, most urgent first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Stable lowercase name (reports, lane labels).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "standard" => Some(Priority::Standard),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Index into [`Priority::ALL`]-shaped tables.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }
}

/// One scheduler lane.
#[derive(Debug, Clone)]
pub struct LaneConfig {
    /// Label used in reports and the JSON record.
    pub name: String,
    /// Drain weight: services granted per replenish round while non-empty.
    pub weight: u64,
    /// Admission capacity of this lane; `None` inherits the server's
    /// `queue_capacity`. An explicit `Some(0)` hard-rejects the lane's
    /// whole traffic class at admission (the per-class overload posture).
    pub capacity: Option<usize>,
}

/// The scheduling policy: the lane set and the class → lane mapping.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// The lanes, in drain-preference order (ties in the deficit scan
    /// resolve toward lower indices).
    pub lanes: Vec<LaneConfig>,
    /// Lane index per class, indexed by [`Priority::index`].
    pub lane_by_class: [usize; 3],
}

impl SchedConfig {
    /// The default three-lane policy: interactive/standard/batch with
    /// 4/2/1 drain weights, all inheriting the server's queue capacity.
    pub fn priority_lanes() -> Self {
        let lane = |name: &str, weight| LaneConfig { name: name.into(), weight, capacity: None };
        SchedConfig {
            lanes: vec![lane("interactive", 4), lane("standard", 2), lane("batch", 1)],
            lane_by_class: [0, 1, 2],
        }
    }

    /// The degenerate single-lane policy: every class shares one FIFO-fed
    /// lane — with no deadlines this reproduces the pre-scheduler FIFO
    /// server byte for byte (the serve-equivalence suite pins the digest).
    pub fn single_lane() -> Self {
        SchedConfig {
            lanes: vec![LaneConfig { name: "all".into(), weight: 1, capacity: None }],
            lane_by_class: [0, 0, 0],
        }
    }

    /// The lane a class is admitted to.
    pub fn lane_of(&self, p: Priority) -> usize {
        self.lane_by_class[p.index()]
    }

    /// Per-lane admission capacities with `None` resolved to `inherit`.
    pub fn capacities(&self, inherit: usize) -> Vec<usize> {
        self.lanes.iter().map(|l| l.capacity.unwrap_or(inherit)).collect()
    }

    /// Panics if the policy is malformed (no lanes, zero weight, or a
    /// class mapped out of range) — caught at server construction, not
    /// mid-drain.
    pub fn validate(&self) {
        assert!(!self.lanes.is_empty(), "SchedConfig requires at least one lane");
        assert!(self.lanes.iter().all(|l| l.weight >= 1), "lane weights must be >= 1");
        assert!(
            self.lane_by_class.iter().all(|&l| l < self.lanes.len()),
            "lane_by_class index out of range"
        );
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::priority_lanes()
    }
}

/// One scheduling decision from [`LaneScheduler::step`].
#[derive(Debug)]
pub enum SchedStep {
    /// `req` is next to serve, drained from `lane`.
    Serve {
        /// Lane the request was drained from.
        lane: usize,
        /// The request.
        req: Request,
    },
    /// `req`'s deadline passed while it queued: dropped, never rendered.
    Shed {
        /// Lane the request was shed from.
        lane: usize,
        /// The dropped request.
        req: Request,
    },
}

/// One lane: its queue in admission order plus the two indexes that keep a
/// scheduling step independent of the queue's depth.
#[derive(Debug)]
struct Lane {
    /// Queued requests, oldest first.
    queue: VecDeque<Request>,
    /// A lower bound on the earliest deadline in `queue` (`u64::MAX`: no
    /// deadline queued). The shed scan skips the lane while `now` is below
    /// it, and a scan that finds nothing expired resets it to the exact
    /// minimum it saw.
    deadline_floor: u64,
    /// One slot per coalescing key this lane has queued since it was
    /// created (or drained), with the key's queued count.
    slots: Vec<KeySlot>,
    /// The per-key round-robin rotation, as indices into `slots`.
    rotation: VecDeque<usize>,
}

#[derive(Debug)]
struct KeySlot {
    key: BatchKey,
    /// Requests of this key in the lane's queue.
    queued: usize,
    /// Whether the slot is in the rotation (exact right after a pop's
    /// retain; a slot whose count fell to zero since stays marked until
    /// the next pop drops it).
    rotating: bool,
}

impl Lane {
    fn new() -> Self {
        Lane { queue: VecDeque::new(), deadline_floor: u64::MAX, slots: Vec::new(), rotation: VecDeque::new() }
    }

    /// Appends `req`, lowering the deadline bound and counting its key. A
    /// key is only ever *constructed* (cloning a table name) the first time
    /// the lane sees it; later requests find their slot through the
    /// allocation-free [`crate::request::Workload::matches_key`].
    fn push(&mut self, req: Request) {
        if let Some(d) = req.deadline_ns {
            self.deadline_floor = self.deadline_floor.min(d);
        }
        match self.slots.iter_mut().find(|s| req.job.matches_key(&s.key)) {
            Some(slot) => slot.queued += 1,
            None => self.slots.push(KeySlot { key: req.job.key(), queued: 1, rotating: false }),
        }
        self.queue.push_back(req);
    }

    /// Removes the request at `pos`. The deadline bound stays a lower
    /// bound, so it is left alone.
    fn take(&mut self, pos: usize) -> Request {
        let req = self.queue.remove(pos).expect("position came from a scan");
        let slot = self.slots.iter_mut().find(|s| req.job.matches_key(&s.key));
        slot.expect("every queued key has a slot").queued -= 1;
        req
    }

    /// Removes the oldest request whose deadline passed at `now_ns`, if
    /// any. Skips the scan while `now_ns` is below the deadline bound.
    fn shed_expired(&mut self, now_ns: u64) -> Option<Request> {
        if now_ns < self.deadline_floor {
            return None;
        }
        let mut floor = u64::MAX;
        let pos = self.queue.iter().position(|r| match r.deadline_ns {
            Some(d) if now_ns >= d => true, // `Request::expired_at`
            Some(d) => {
                floor = floor.min(d);
                false
            }
            None => false,
        });
        match pos {
            Some(pos) => Some(self.take(pos)),
            None => {
                self.deadline_floor = floor;
                None
            }
        }
    }

    /// Pops the next request under per-key round robin: the rotation's
    /// front key yields its oldest request, then moves to the back. Keys
    /// enter the rotation in first-occurrence order and leave when their
    /// last request does. Costs O(keys) plus the scan to the front key's
    /// oldest request; the queue is only scanned further when a key
    /// (re)appeared since the last pop, and only until every such key is
    /// found.
    fn pop_key_fair(&mut self) -> Request {
        let slots = &mut self.slots;
        self.rotation.retain(|&s| {
            slots[s].rotating = slots[s].queued > 0;
            slots[s].rotating
        });
        let mut missing = slots.iter().filter(|s| s.queued > 0 && !s.rotating).count();
        for r in &self.queue {
            if missing == 0 {
                break;
            }
            let new = slots.iter().position(|s| s.queued > 0 && !s.rotating && r.job.matches_key(&s.key));
            if let Some(s) = new {
                slots[s].rotating = true;
                self.rotation.push_back(s);
                missing -= 1;
            }
        }
        let front = self.rotation[0];
        let key = &slots[front].key;
        let pos = self.queue.iter().position(|r| r.job.matches_key(key));
        self.rotation.rotate_left(1);
        slots[front].queued -= 1;
        self.queue.remove(pos.expect("rotation front is a present key")).expect("position came from the scan")
    }
}

/// The weighted-deficit lane scheduler. It owns the lane queues and the
/// policy state (deficits, the round-robin cursor, per-lane key
/// rotations). One scheduling core admits into it and steps it for every
/// serving mode — the live server (under its core lock, pumped by clients
/// and workers) and the single-threaded virtual-clock harness and cluster
/// replicas alike.
#[derive(Debug)]
pub struct LaneScheduler {
    weights: Vec<u64>,
    deficits: Vec<u64>,
    /// Lane the deficit scan starts from (stays on a lane while its
    /// credit lasts, so a lane's weight is spent in one contiguous run).
    cursor: usize,
    lanes: Vec<Lane>,
}

impl LaneScheduler {
    /// A scheduler with empty lanes for `cfg` (validated).
    pub fn new(cfg: &SchedConfig) -> Self {
        cfg.validate();
        LaneScheduler {
            weights: cfg.lanes.iter().map(|l| l.weight).collect(),
            deficits: vec![0; cfg.lanes.len()],
            cursor: 0,
            lanes: cfg.lanes.iter().map(|_| Lane::new()).collect(),
        }
    }

    /// Appends `req` to `lane`. Capacity is the caller's policy: the
    /// scheduler queues whatever it is given.
    pub fn admit(&mut self, lane: usize, req: Request) {
        self.lanes[lane].push(req);
    }

    /// The requests queued in `lane`, oldest first.
    pub fn queued(&self, lane: usize) -> &VecDeque<Request> {
        &self.lanes[lane].queue
    }

    /// Requests queued over all lanes (the brownout's pressure signal).
    pub fn depth(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.queue.is_empty())
    }

    /// Removes the queued chunk `(id, chunk)` from `lane`, the lane its
    /// priority was admitted to (a request never changes lanes), so the
    /// other lanes are not searched.
    pub fn cancel(&mut self, lane: usize, id: u64, chunk: ChunkSpan) -> Option<Request> {
        let lane = &mut self.lanes[lane];
        let pos = lane.queue.iter().position(|r| r.id == id && r.chunk == chunk)?;
        Some(lane.take(pos))
    }

    /// Empties every lane (lane by lane, oldest first) and restarts the
    /// policy state fresh, as a crash does.
    pub fn drain_all(&mut self) -> Vec<Request> {
        let mut out = Vec::new();
        for lane in &mut self.lanes {
            out.extend(std::mem::replace(lane, Lane::new()).queue);
        }
        self.deficits.fill(0);
        self.cursor = 0;
        out
    }

    /// One scheduling decision at scheduler time `now_ns`: sheds the first
    /// expired request it finds (highest-urgency lane first, oldest first
    /// within a lane), otherwise serves the next request under the
    /// weighted-deficit / per-key-round-robin policy. `None` means every
    /// lane is empty.
    ///
    /// Exactly one request leaves the lanes per `Some` return, so callers
    /// loop `step` to drain.
    pub fn step(&mut self, now_ns: u64) -> Option<SchedStep> {
        // Shed-on-dequeue: expired requests leave before any service
        // decision, so an expired request can never be picked.
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(req) = lane.shed_expired(now_ns) {
                return Some(SchedStep::Shed { lane: li, req });
            }
        }
        if self.is_empty() {
            return None;
        }
        let n = self.lanes.len();
        loop {
            // Scan from the cursor for a lane that still has credit.
            let mut picked = None;
            for k in 0..n {
                let li = (self.cursor + k) % n;
                if self.lanes[li].queue.is_empty() {
                    // Standard DRR: an emptied lane forfeits its credit,
                    // so idle time cannot be hoarded into a later burst.
                    self.deficits[li] = 0;
                    continue;
                }
                if self.deficits[li] >= 1 {
                    picked = Some(li);
                    break;
                }
            }
            match picked {
                Some(li) => {
                    self.deficits[li] -= 1;
                    self.cursor = li;
                    let req = self.lanes[li].pop_key_fair();
                    return Some(SchedStep::Serve { lane: li, req });
                }
                None => {
                    // Replenish round: every non-empty lane earns its
                    // weight; the scan restarts at the most urgent lane.
                    for (li, lane) in self.lanes.iter().enumerate() {
                        if lane.queue.is_empty() {
                            self.deficits[li] = 0;
                        } else {
                            self.deficits[li] += self.weights[li];
                        }
                    }
                    self.cursor = 0;
                }
            }
        }
    }
}

/// The scan-based scheduler the indexed [`LaneScheduler`] replaced, kept
/// only as a differential oracle: the same policy, recomputed from the
/// plain lane queues on every step.
#[cfg(test)]
mod oracle {
    use std::collections::VecDeque;

    use super::{SchedConfig, SchedStep};
    use crate::request::{BatchKey, Request};

    pub(super) struct ScanScheduler {
        weights: Vec<u64>,
        deficits: Vec<u64>,
        cursor: usize,
        rotations: Vec<VecDeque<BatchKey>>,
    }

    impl ScanScheduler {
        pub(super) fn new(cfg: &SchedConfig) -> Self {
            ScanScheduler {
                weights: cfg.lanes.iter().map(|l| l.weight).collect(),
                deficits: vec![0; cfg.lanes.len()],
                cursor: 0,
                rotations: cfg.lanes.iter().map(|_| VecDeque::new()).collect(),
            }
        }

        pub(super) fn step(&mut self, lanes: &mut [VecDeque<Request>], now_ns: u64) -> Option<SchedStep> {
            for (li, lane) in lanes.iter_mut().enumerate() {
                if let Some(pos) = lane.iter().position(|r| r.expired_at(now_ns)) {
                    let req = lane.remove(pos).expect("position came from iter");
                    return Some(SchedStep::Shed { lane: li, req });
                }
            }
            if lanes.iter().all(|l| l.is_empty()) {
                return None;
            }
            let n = lanes.len();
            loop {
                let mut picked = None;
                for k in 0..n {
                    let li = (self.cursor + k) % n;
                    if lanes[li].is_empty() {
                        self.deficits[li] = 0;
                        continue;
                    }
                    if self.deficits[li] >= 1 {
                        picked = Some(li);
                        break;
                    }
                }
                match picked {
                    Some(li) => {
                        self.deficits[li] -= 1;
                        self.cursor = li;
                        let req = self.pop_key_fair(&mut lanes[li], li);
                        return Some(SchedStep::Serve { lane: li, req });
                    }
                    None => {
                        for (li, lane) in lanes.iter().enumerate() {
                            if lane.is_empty() {
                                self.deficits[li] = 0;
                            } else {
                                self.deficits[li] += self.weights[li];
                            }
                        }
                        self.cursor = 0;
                    }
                }
            }
        }

        /// One scan for each distinct key's first request, in arrival
        /// order; the rotation keeps the present keys and appends new ones
        /// in that order; the front key serves and moves to the back.
        fn pop_key_fair(&mut self, lane: &mut VecDeque<Request>, li: usize) -> Request {
            let mut firsts: Vec<usize> = Vec::new();
            for (i, r) in lane.iter().enumerate() {
                if !firsts.iter().any(|&j| lane[j].job.same_key(&r.job)) {
                    firsts.push(i);
                }
            }
            let rotation = &mut self.rotations[li];
            rotation.retain(|k| firsts.iter().any(|&j| lane[j].job.matches_key(k)));
            for &j in &firsts {
                if !rotation.iter().any(|k| lane[j].job.matches_key(k)) {
                    rotation.push_back(lane[j].job.key());
                }
            }
            let pos = firsts
                .into_iter()
                .find(|&j| lane[j].job.matches_key(&rotation[0]))
                .expect("rotation front is a present key");
            rotation.rotate_left(1);
            lane.remove(pos).expect("position came from the scan")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RenderJob, RenderPrecision, SceneKind, Workload};

    fn req(id: u64, scene: SceneKind, priority: Priority, deadline_ns: Option<u64>) -> Request {
        Request {
            id,
            priority,
            arrival_ns: 0,
            deadline_ns,
            chunk: crate::request::ChunkSpan::WHOLE,
            job: Workload::Render(RenderJob {
                scene,
                precision: RenderPrecision::Fp32,
                width: 4,
                height: 4,
                spp: 2,
                camera_seed: id,
            }),
        }
    }

    /// A scheduler for `cfg` with `reqs[i]` admitted to lane `i`, in order.
    fn sched_with(cfg: &SchedConfig, reqs: Vec<Vec<Request>>) -> LaneScheduler {
        let mut sched = LaneScheduler::new(cfg);
        for (lane, queue) in reqs.into_iter().enumerate() {
            for r in queue {
                sched.admit(lane, r);
            }
        }
        sched
    }

    fn drain_ids(sched: &mut LaneScheduler) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Some(step) = sched.step(0) {
            match step {
                SchedStep::Serve { lane, req } => out.push((lane, req.id)),
                SchedStep::Shed { .. } => panic!("no deadlines in this test"),
            }
        }
        out
    }

    #[test]
    fn weighted_deficit_interleaves_lanes_by_weight() {
        let cfg = SchedConfig::priority_lanes();
        let mut sched = sched_with(
            &cfg,
            vec![
                (0..8).map(|i| req(i, SceneKind::Mic, Priority::Interactive, None)).collect(),
                (8..16).map(|i| req(i, SceneKind::Mic, Priority::Standard, None)).collect(),
                (16..24).map(|i| req(i, SceneKind::Mic, Priority::Batch, None)).collect(),
            ],
        );
        let order = drain_ids(&mut sched);
        assert_eq!(order.len(), 24);
        // First replenish round: 4 interactive, 2 standard, 1 batch.
        let first_round: Vec<usize> = order[..7].iter().map(|&(l, _)| l).collect();
        assert_eq!(first_round, vec![0, 0, 0, 0, 1, 1, 2], "4/2/1 drain ratio");
        // Batch is never starved: its lane appears within every 7 services.
        for window in order.chunks(7) {
            if window.len() == 7 {
                assert!(window.iter().any(|&(l, _)| l == 2), "batch starved in {window:?}");
            }
        }
    }

    #[test]
    fn per_key_round_robin_breaks_hot_key_monopoly() {
        let cfg = SchedConfig::single_lane();
        // 6 hot-key (Mic) requests queued ahead of 2 cold-key requests.
        let mut queue: Vec<Request> =
            (0..6).map(|i| req(i, SceneKind::Mic, Priority::Standard, None)).collect();
        queue.push(req(6, SceneKind::Lego, Priority::Standard, None));
        queue.push(req(7, SceneKind::Palace, Priority::Standard, None));
        let mut sched = sched_with(&cfg, vec![queue]);
        let ids: Vec<u64> = drain_ids(&mut sched).into_iter().map(|(_, id)| id).collect();
        // Round robin across the 3 keys: the cold keys surface within the
        // first key-rotation sweep, not behind the whole hot backlog.
        assert_eq!(ids[..3], [0, 6, 7], "each queued key serves once before any repeats");
        assert_eq!(ids[3..], [1, 2, 3, 4, 5], "hot key then drains oldest-first");
    }

    #[test]
    fn expired_requests_shed_before_any_service() {
        let cfg = SchedConfig::priority_lanes();
        let mut sched = sched_with(
            &cfg,
            vec![
                vec![req(0, SceneKind::Mic, Priority::Interactive, Some(100))],
                vec![req(1, SceneKind::Mic, Priority::Standard, Some(10_000))],
                vec![],
            ],
        );
        // At t=100 the interactive request is exactly at its deadline →
        // expired (service must start strictly before the deadline).
        match sched.step(100) {
            Some(SchedStep::Shed { lane: 0, req }) => assert_eq!(req.id, 0),
            other => panic!("expected shed of request 0, got {other:?}"),
        }
        match sched.step(100) {
            Some(SchedStep::Serve { lane: 1, req }) => assert_eq!(req.id, 1, "unexpired serves"),
            other => panic!("expected serve of request 1, got {other:?}"),
        }
        assert!(sched.step(100).is_none());
    }

    #[test]
    fn the_deadline_bound_skips_a_lane_only_until_its_earliest_deadline() {
        let cfg = SchedConfig::single_lane();
        let mut sched = sched_with(
            &cfg,
            vec![vec![
                req(0, SceneKind::Mic, Priority::Standard, Some(500)),
                req(1, SceneKind::Mic, Priority::Standard, Some(300)),
                req(2, SceneKind::Mic, Priority::Standard, None),
            ]],
        );
        // Nothing expired at 100: the scan tightens the bound to 300.
        match sched.step(100) {
            Some(SchedStep::Serve { req, .. }) => assert_eq!(req.id, 0),
            other => panic!("expected serve of request 0, got {other:?}"),
        }
        sched.admit(0, req(3, SceneKind::Mic, Priority::Standard, Some(200)));
        // An admission lowers the bound: request 3 sheds at its deadline,
        // ahead of the older request 1.
        match sched.step(200) {
            Some(SchedStep::Shed { req, .. }) => assert_eq!(req.id, 3),
            other => panic!("expected shed of request 3, got {other:?}"),
        }
        match sched.step(300) {
            Some(SchedStep::Shed { req, .. }) => assert_eq!(req.id, 1),
            other => panic!("expected shed of request 1, got {other:?}"),
        }
        match sched.step(300) {
            Some(SchedStep::Serve { req, .. }) => assert_eq!(req.id, 2),
            other => panic!("expected serve of request 2, got {other:?}"),
        }
        assert!(sched.is_empty() && sched.step(u64::MAX).is_none());
    }

    #[test]
    fn empty_lane_forfeits_deficit() {
        let cfg = SchedConfig::priority_lanes();
        // Interactive drains alone first (earning and spending credit)…
        let mut sched =
            sched_with(&cfg, vec![vec![req(0, SceneKind::Mic, Priority::Interactive, None)], vec![], vec![]]);
        drain_ids(&mut sched);
        // …then goes idle; a later batch-only phase must not be taxed by
        // credit interactive hoarded while idle.
        for i in 0..3 {
            sched.admit(2, req(i, SceneKind::Mic, Priority::Batch, None));
        }
        let order = drain_ids(&mut sched);
        assert_eq!(order.iter().map(|&(l, _)| l).collect::<Vec<_>>(), vec![2, 2, 2]);
    }

    #[test]
    fn single_lane_without_keys_is_fifo() {
        let cfg = SchedConfig::single_lane();
        // All requests share one key → per-key RR degenerates to FIFO.
        let mut sched =
            sched_with(&cfg, vec![(0..5).map(|i| req(i, SceneKind::Mic, Priority::Batch, None)).collect()]);
        let ids: Vec<u64> = drain_ids(&mut sched).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_lane_set_is_rejected() {
        SchedConfig { lanes: vec![], lane_by_class: [0, 0, 0] }.validate();
    }

    mod differential {
        use std::collections::VecDeque;

        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        use super::super::oracle::ScanScheduler;
        use super::super::*;
        use crate::request::{RenderJob, RenderPrecision, SceneKind, Workload};

        /// A step as a comparable string (`Request` has no `PartialEq`;
        /// its `Debug` form covers every field).
        fn show(step: &Option<SchedStep>) -> String {
            format!("{step:?}")
        }

        fn lanes_of(sched: &LaneScheduler, n: usize) -> Vec<String> {
            (0..n).map(|li| format!("{:?}", sched.queued(li))).collect()
        }

        /// A random request: one of 3 lanes, one of 4 render keys or 3
        /// table keys, a deadline that is absent, already past or in the
        /// future, and one chunk of a 3-way split.
        fn random_req(rng: &mut StdRng, id: u64, now: u64) -> Request {
            let job = if rng.gen_bool(0.7) {
                Workload::Render(RenderJob {
                    scene: SceneKind::ALL[rng.gen_range(0usize..2)],
                    precision: [RenderPrecision::Fp32, RenderPrecision::Quantized(fnr_tensor::Precision::Int8)]
                        [rng.gen_range(0usize..2)],
                    width: 4,
                    height: 4,
                    spp: 2,
                    camera_seed: id,
                })
            } else {
                Workload::Table(["a", "b", "c"][rng.gen_range(0usize..3)].into())
            };
            let deadline_ns = match rng.gen_range(0u32..3) {
                0 => None,
                1 => Some(now.saturating_sub(rng.gen_range(0u64..50))),
                _ => Some(now + rng.gen_range(1u64..400)),
            };
            Request {
                id,
                priority: Priority::ALL[rng.gen_range(0usize..3)],
                arrival_ns: now,
                deadline_ns,
                chunk: ChunkSpan { index: rng.gen_range(0u32..3), of: 3 },
                job,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random admits, cancels, crashes and steps at a
            /// non-decreasing clock: the indexed scheduler takes the same
            /// decision as the scan-based oracle at every step, and the
            /// lanes it leaves behind hold the same requests in the same
            /// order.
            #[test]
            fn prop_indexed_scheduler_matches_the_scan_oracle(seed in 0u64..u64::MAX, ops in 1usize..400) {
                let mut rng = StdRng::seed_from_u64(seed);
                let cfg = if rng.gen_bool(0.8) { SchedConfig::priority_lanes() } else { SchedConfig::single_lane() };
                let n = cfg.lanes.len();
                let mut sched = LaneScheduler::new(&cfg);
                let mut oracle = ScanScheduler::new(&cfg);
                let mut lanes: Vec<VecDeque<Request>> = vec![VecDeque::new(); n];
                let mut now = 0u64;
                let mut next_id = 0u64;
                // Each admitted id's lane: a cancel searches only that one.
                let mut lane_of_id = Vec::new();
                for _ in 0..ops {
                    match rng.gen_range(0u32..100) {
                        0..=44 => {
                            let r = random_req(&mut rng, next_id, now);
                            next_id += 1;
                            let lane = cfg.lane_of(r.priority);
                            lane_of_id.push(lane);
                            lanes[lane].push_back(r.clone());
                            sched.admit(lane, r);
                        }
                        45..=52 => {
                            let id = rng.gen_range(0..next_id.max(1));
                            let chunk = ChunkSpan { index: rng.gen_range(0u32..3), of: 3 };
                            let lane = lane_of_id.get(id as usize).copied().unwrap_or(0);
                            // The oracle searches every lane.
                            let expected = lanes.iter_mut().find_map(|lane| {
                                let pos = lane.iter().position(|r| r.id == id && r.chunk == chunk)?;
                                lane.remove(pos)
                            });
                            prop_assert_eq!(
                                format!("{:?}", sched.cancel(lane, id, chunk)),
                                format!("{expected:?}"),
                                "cancel ({}, {:?})", id, chunk
                            );
                        }
                        53..=54 => {
                            let expected: Vec<Request> = lanes.iter_mut().flat_map(|l| l.drain(..)).collect();
                            oracle = ScanScheduler::new(&cfg);
                            prop_assert_eq!(format!("{:?}", sched.drain_all()), format!("{expected:?}"));
                        }
                        _ => {
                            now += rng.gen_range(0u64..60);
                            let got = sched.step(now);
                            let want = oracle.step(&mut lanes, now);
                            prop_assert_eq!(show(&got), show(&want), "step at {}", now);
                        }
                    }
                    let want: Vec<String> = lanes.iter().map(|l| format!("{l:?}")).collect();
                    prop_assert_eq!(lanes_of(&sched, n), want);
                    prop_assert_eq!(sched.depth(), lanes.iter().map(VecDeque::len).sum::<usize>());
                    prop_assert_eq!(sched.is_empty(), lanes.iter().all(VecDeque::is_empty));
                }
                // Drain both to empty at a clock that keeps moving.
                loop {
                    now += 7;
                    let got = sched.step(now);
                    let want = oracle.step(&mut lanes, now);
                    prop_assert_eq!(show(&got), show(&want), "drain step at {}", now);
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
