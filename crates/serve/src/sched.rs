//! Priority-lane scheduling: a pure, clock-injected admission scheduler.
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
//! Like the batcher, the scheduler is a pure state machine: all time comes
//! in through method arguments (`now_ns`, nanoseconds on the caller's
//! clock — real elapsed time in the threaded server, virtual ticks in the
//! trace harness), and [`LaneScheduler::step`] operates on plain
//! `VecDeque` lane queues. Every decision is therefore a deterministic
//! function of the queue contents and the injected clock, which is what
//! the scheduling test harness and the serve-equivalence suite pin down.

use std::collections::VecDeque;

use crate::request::{BatchKey, Request};

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

/// The weighted-deficit lane scheduler. Holds only policy state (deficits,
/// the round-robin cursor, per-lane key rotations); the queues themselves
/// are passed into [`LaneScheduler::step`]. One scheduling core owns the
/// lanes and steps this state machine for every serving mode — the live
/// server (under its core lock, pumped by clients and workers) and the
/// single-threaded virtual-clock harness and cluster replicas alike.
#[derive(Debug)]
pub struct LaneScheduler {
    weights: Vec<u64>,
    deficits: Vec<u64>,
    /// Lane the deficit scan starts from (stays on a lane while its
    /// credit lasts, so a lane's weight is spent in one contiguous run).
    cursor: usize,
    /// Per-lane round-robin rotation of the keys currently queued.
    rotations: Vec<VecDeque<BatchKey>>,
}

impl LaneScheduler {
    /// A scheduler for `cfg` (validated).
    pub fn new(cfg: &SchedConfig) -> Self {
        cfg.validate();
        LaneScheduler {
            weights: cfg.lanes.iter().map(|l| l.weight).collect(),
            deficits: vec![0; cfg.lanes.len()],
            cursor: 0,
            rotations: cfg.lanes.iter().map(|_| VecDeque::new()).collect(),
        }
    }

    /// One scheduling decision over `lanes` at scheduler time `now_ns`:
    /// sheds the first expired request it finds (highest-urgency lane
    /// first, oldest first within a lane), otherwise serves the next
    /// request under the weighted-deficit / per-key-round-robin policy.
    /// `None` means every lane is empty.
    ///
    /// Exactly one request leaves `lanes` per `Some` return, so callers
    /// loop `step` to drain.
    pub fn step(&mut self, lanes: &mut [VecDeque<Request>], now_ns: u64) -> Option<SchedStep> {
        debug_assert_eq!(lanes.len(), self.weights.len(), "lane count mismatch");
        // Shed-on-dequeue: expired requests leave before any service
        // decision, so an expired request can never be picked.
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
            // Scan from the cursor for a lane that still has credit.
            let mut picked = None;
            for k in 0..n {
                let li = (self.cursor + k) % n;
                if lanes[li].is_empty() {
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
                    let req = self.pop_key_fair(&mut lanes[li], li);
                    return Some(SchedStep::Serve { lane: li, req });
                }
                None => {
                    // Replenish round: every non-empty lane earns its
                    // weight; the scan restarts at the most urgent lane.
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

    /// Pops the next request of lane `li` under per-key round robin: the
    /// rotation's front key yields its oldest request, then moves to the
    /// back. Keys enter the rotation in arrival order and leave when their
    /// last request does.
    ///
    /// Runs under the scheduling-core lock in the threaded server, so key
    /// comparisons go through the allocation-free [`Workload::matches_key`]
    /// / [`Workload::same_key`] forms; a key is only ever *constructed*
    /// (cloning a table name) when it first enters the rotation.
    fn pop_key_fair(&mut self, lane: &mut VecDeque<Request>, li: usize) -> Request {
        // One scan: the position of each distinct key's first (oldest)
        // request, in arrival order.
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

    fn lanes_of(reqs: Vec<Vec<Request>>) -> Vec<VecDeque<Request>> {
        reqs.into_iter().map(VecDeque::from).collect()
    }

    fn drain_ids(sched: &mut LaneScheduler, lanes: &mut [VecDeque<Request>]) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Some(step) = sched.step(lanes, 0) {
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
        let mut sched = LaneScheduler::new(&cfg);
        let mut lanes = lanes_of(vec![
            (0..8).map(|i| req(i, SceneKind::Mic, Priority::Interactive, None)).collect(),
            (8..16).map(|i| req(i, SceneKind::Mic, Priority::Standard, None)).collect(),
            (16..24).map(|i| req(i, SceneKind::Mic, Priority::Batch, None)).collect(),
        ]);
        let order = drain_ids(&mut sched, &mut lanes);
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
        let mut sched = LaneScheduler::new(&cfg);
        // 6 hot-key (Mic) requests queued ahead of 2 cold-key requests.
        let mut queue: Vec<Request> =
            (0..6).map(|i| req(i, SceneKind::Mic, Priority::Standard, None)).collect();
        queue.push(req(6, SceneKind::Lego, Priority::Standard, None));
        queue.push(req(7, SceneKind::Palace, Priority::Standard, None));
        let mut lanes = lanes_of(vec![queue]);
        let ids: Vec<u64> = drain_ids(&mut sched, &mut lanes).into_iter().map(|(_, id)| id).collect();
        // Round robin across the 3 keys: the cold keys surface within the
        // first key-rotation sweep, not behind the whole hot backlog.
        assert_eq!(ids[..3], [0, 6, 7], "each queued key serves once before any repeats");
        assert_eq!(ids[3..], [1, 2, 3, 4, 5], "hot key then drains oldest-first");
    }

    #[test]
    fn expired_requests_shed_before_any_service() {
        let cfg = SchedConfig::priority_lanes();
        let mut sched = LaneScheduler::new(&cfg);
        let mut lanes = lanes_of(vec![
            vec![req(0, SceneKind::Mic, Priority::Interactive, Some(100))],
            vec![req(1, SceneKind::Mic, Priority::Standard, Some(10_000))],
            vec![],
        ]);
        // At t=100 the interactive request is exactly at its deadline →
        // expired (service must start strictly before the deadline).
        match sched.step(&mut lanes, 100) {
            Some(SchedStep::Shed { lane: 0, req }) => assert_eq!(req.id, 0),
            other => panic!("expected shed of request 0, got {other:?}"),
        }
        match sched.step(&mut lanes, 100) {
            Some(SchedStep::Serve { lane: 1, req }) => assert_eq!(req.id, 1, "unexpired serves"),
            other => panic!("expected serve of request 1, got {other:?}"),
        }
        assert!(sched.step(&mut lanes, 100).is_none());
    }

    #[test]
    fn empty_lane_forfeits_deficit() {
        let cfg = SchedConfig::priority_lanes();
        let mut sched = LaneScheduler::new(&cfg);
        // Interactive drains alone first (earning and spending credit)…
        let mut lanes =
            lanes_of(vec![vec![req(0, SceneKind::Mic, Priority::Interactive, None)], vec![], vec![]]);
        drain_ids(&mut sched, &mut lanes);
        // …then goes idle; a later batch-only phase must not be taxed by
        // credit interactive hoarded while idle.
        let mut lanes =
            lanes_of(vec![vec![], vec![], (0..3).map(|i| req(i, SceneKind::Mic, Priority::Batch, None)).collect()]);
        let order = drain_ids(&mut sched, &mut lanes);
        assert_eq!(order.iter().map(|&(l, _)| l).collect::<Vec<_>>(), vec![2, 2, 2]);
    }

    #[test]
    fn single_lane_without_keys_is_fifo() {
        let cfg = SchedConfig::single_lane();
        let mut sched = LaneScheduler::new(&cfg);
        // All requests share one key → per-key RR degenerates to FIFO.
        let mut lanes =
            lanes_of(vec![(0..5).map(|i| req(i, SceneKind::Mic, Priority::Batch, None)).collect()]);
        let ids: Vec<u64> = drain_ids(&mut sched, &mut lanes).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_lane_set_is_rejected() {
        SchedConfig { lanes: vec![], lane_by_class: [0, 0, 0] }.validate();
    }
}
