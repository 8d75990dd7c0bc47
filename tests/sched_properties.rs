//! Property suite for the `fnr_serve` scheduler core: weighted-deficit
//! drain order, starvation-freedom under sustained high-priority load,
//! and deadline-shed correctness under the virtual clock. The scheduler
//! is a pure state machine (`LaneScheduler::step` over the lanes it owns,
//! with an injected clock), so every property replays deterministically
//! from its seed.

use fnr_serve::sched::{LaneScheduler, Priority, SchedConfig, SchedStep};
use fnr_serve::{RenderJob, RenderPrecision, Request, SceneKind, Workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn req(id: u64, scene: SceneKind, priority: Priority, deadline_ns: Option<u64>) -> Request {
    Request {
        id,
        priority,
        arrival_ns: 0,
        deadline_ns,
        chunk: fnr_serve::ChunkSpan::WHOLE,
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

fn scene(rng: &mut StdRng) -> SceneKind {
    SceneKind::ALL[rng.gen_range(0usize..3)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weighted-deficit drain order: while every lane still holds work,
    /// the per-lane service counts stay locked to the 4/2/1 weights —
    /// each replenish round serves exactly (4, 2, 1), so any prefix can
    /// deviate from the ratio by at most one round's worth.
    #[test]
    fn prop_weighted_deficit_drain_order(seed in 0u64..1000, per_lane in 8usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SchedConfig::priority_lanes();
        let mut sched = LaneScheduler::new(&cfg);
        let mut id = 0u64;
        for (lane, &p) in Priority::ALL.iter().enumerate() {
            for _ in 0..per_lane {
                id += 1;
                sched.admit(lane, req(id, scene(&mut rng), p, None));
            }
        }
        let mut served = [0usize; 3];
        let mut order = Vec::new();
        while let Some(step) = sched.step(0) {
            match step {
                SchedStep::Serve { lane, .. } => {
                    served[lane] += 1;
                    order.push(lane);
                    if (0..3).any(|l| sched.queued(l).is_empty()) {
                        continue; // ratio invariant only holds while all lanes feed
                    }
                    let (s0, s1, s2) = (served[0] as i64, served[1] as i64, served[2] as i64);
                    prop_assert!(
                        4 * (s2 - 1) <= s0 && s0 <= 4 * (s2 + 1),
                        "interactive/batch ratio broke: {served:?} after {order:?}"
                    );
                    prop_assert!(
                        2 * (s2 - 1) <= s1 && s1 <= 2 * (s2 + 1),
                        "standard/batch ratio broke: {served:?} after {order:?}"
                    );
                }
                SchedStep::Shed { .. } => prop_assert!(false, "no deadlines, no sheds"),
            }
        }
        prop_assert_eq!(served.iter().sum::<usize>(), per_lane * 3, "everything drains");
    }

    /// Starvation-freedom: with the interactive lane refilled after every
    /// single service (sustained overload), the batch lane still drains
    /// at no worse than its weight share — one service per 7-service
    /// round — so all of it completes within a bounded schedule.
    #[test]
    fn prop_batch_lane_survives_sustained_interactive_load(
        seed in 0u64..1000,
        batch_backlog in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SchedConfig::priority_lanes();
        let mut sched = LaneScheduler::new(&cfg);
        let mut id = 0u64;
        let mut next = |p: Priority, rng: &mut StdRng| {
            id += 1;
            req(id, scene(rng), p, None)
        };
        for _ in 0..8 {
            let r = next(Priority::Interactive, &mut rng);
            sched.admit(0, r);
        }
        for _ in 0..batch_backlog {
            let r = next(Priority::Batch, &mut rng);
            sched.admit(2, r);
        }
        let mut batch_served = 0usize;
        let mut total = 0usize;
        // 4 interactive per 1 batch per round, plus slack for round
        // boundaries: if batch ever waits past this, it starved.
        let budget = 7 * batch_backlog + 14;
        while batch_served < batch_backlog {
            prop_assert!(
                total <= budget,
                "batch starved: {batch_served}/{batch_backlog} after {total} services"
            );
            match sched.step(0) {
                Some(SchedStep::Serve { lane, .. }) => {
                    total += 1;
                    if lane == 2 {
                        batch_served += 1;
                    }
                    // Sustain the overload: the interactive lane never runs dry.
                    while sched.queued(0).len() < 8 {
                        let r = next(Priority::Interactive, &mut rng);
                        sched.admit(0, r);
                    }
                }
                other => prop_assert!(false, "drain stalled: {other:?}"),
            }
        }
    }

    /// Deadline-shed correctness under the virtual clock: stepping a
    /// random backlog through a random non-decreasing clock trace must
    /// never serve an expired request, never shed an unexpired one, and
    /// must account for every request exactly once.
    #[test]
    fn prop_shed_exactly_the_expired(
        seed in 0u64..1000,
        n in 1usize..60,
        horizon in 1u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SchedConfig::priority_lanes();
        let mut sched = LaneScheduler::new(&cfg);
        let mut submitted = 0usize;
        for i in 0..n {
            let p = Priority::ALL[rng.gen_range(0usize..3)];
            let deadline = if rng.gen_bool(0.6) { Some(rng.gen_range(0u64..horizon * 2)) } else { None };
            sched.admit(cfg.lane_of(p), req(i as u64, scene(&mut rng), p, deadline));
            submitted += 1;
        }
        let mut now = 0u64;
        let mut served = 0usize;
        let mut shed = 0usize;
        loop {
            // The clock only moves forward, by random strides.
            now += rng.gen_range(0u64..horizon / 2 + 1);
            match sched.step(now) {
                Some(SchedStep::Serve { req, .. }) => {
                    prop_assert!(
                        !req.expired_at(now),
                        "served request {} expired at {now} (deadline {:?})",
                        req.id,
                        req.deadline_ns
                    );
                    served += 1;
                }
                Some(SchedStep::Shed { req, .. }) => {
                    prop_assert!(
                        req.expired_at(now),
                        "shed request {} not expired at {now} (deadline {:?})",
                        req.id,
                        req.deadline_ns
                    );
                    shed += 1;
                }
                None => break,
            }
        }
        prop_assert_eq!(served + shed, submitted, "every request leaves exactly once");
        prop_assert!(sched.is_empty());
    }

    /// Per-key fairness: under one lane, a hot key with a deep backlog
    /// cannot push a cold key's lone request beyond one key-rotation
    /// sweep.
    #[test]
    fn prop_cold_key_never_waits_behind_a_hot_backlog(
        hot in 2usize..50,
        cold_pos in 0usize..2,
    ) {
        let cfg = SchedConfig::single_lane();
        let mut sched = LaneScheduler::new(&cfg);
        let mut queue: Vec<Request> = (0..hot)
            .map(|i| req(i as u64, SceneKind::Mic, Priority::Standard, None))
            .collect();
        let cold_id = 1000;
        let insert_at = cold_pos * hot / 2; // head or middle of the backlog
        queue.insert(insert_at, req(cold_id, SceneKind::Lego, Priority::Standard, None));
        for r in queue {
            sched.admit(0, r);
        }
        let mut position = None;
        for served in 0.. {
            match sched.step(0) {
                Some(SchedStep::Serve { req, .. }) => {
                    if req.id == cold_id {
                        position = Some(served);
                        break;
                    }
                }
                _ => break,
            }
        }
        // Two keys in rotation: the cold key serves first or second.
        prop_assert!(
            position.is_some_and(|p| p <= 1),
            "cold key served at position {position:?} behind a {hot}-deep hot backlog"
        );
    }
}
