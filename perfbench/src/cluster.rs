//! The `cluster-resilience` workload: a virtual-clock replay of a
//! quarter-million-request flash crowd on eight replicas with a slow
//! replica, a join and a leave, the health detector, hedged requests and
//! CoDel admission.
//!
//! It is the 1 M-request resilience scenario scaled down by four, fault
//! times included, so the crowd, the slow spell, the join and the leave
//! fall at the same points of the schedule. A replay then takes under a
//! second, and a run holds enough of them for its fastest to be steady.

use std::time::Duration;

use fnr_serve::workload::{generate, ArrivalPattern, TimedJob, WorkloadSpec};
use fnr_serve::{
    run_cluster, AdmissionConfig, ClusterConfig, ClusterMetrics, ClusterService, FaultPlan,
    HealthConfig, HedgeConfig, PayloadMode, RouterConfig, ServerConfig,
};

use crate::util::timed;

/// Requests in the replayed schedule.
pub const REQUESTS: usize = 250_000;

/// Membership faults: replica 3 runs 8× slow from 125 ms, a replica joins
/// at 500 ms and replica 1 leaves at 1 s.
const FAULTS: &str = "slow@125ms:3:8,join@500ms,leave@1s:1";

/// The seeded flash-crowd schedule (tables included; payloads are
/// synthetic, so tables cost no generator work).
pub fn jobs(seed: u64, requests: usize) -> Vec<TimedJob> {
    generate(&WorkloadSpec {
        requests,
        seed,
        pattern: ArrivalPattern::FlashCrowd,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(5),
        priority_mix: [0.3, 0.4, 0.3],
        deadline: Some(Duration::from_millis(8)),
        ..WorkloadSpec::default()
    })
}

/// The cluster under test. `resilient = false` is the same cluster and
/// fault plan with health detection, hedging and CoDel admission off.
pub fn config(resilient: bool) -> ClusterConfig {
    ClusterConfig {
        replicas: 8,
        server: ServerConfig {
            queue_capacity: 256,
            tables: fnr_bench::serving::table_registry(),
            ..ServerConfig::default()
        },
        router: RouterConfig::default(),
        max_inflight: 1024,
        service: ClusterService::default(),
        faults: FaultPlan::parse(FAULTS).expect("valid fault plan"),
        injector: None,
        payload: PayloadMode::Synthetic,
        health: HealthConfig {
            enabled: resilient,
            ..HealthConfig::default()
        },
        hedge: if resilient {
            HedgeConfig {
                delay_ns: 2_000_000,
            }
        } else {
            HedgeConfig::disabled()
        },
        admission: AdmissionConfig {
            enabled: resilient,
            target_ns: 2_000_000,
            interval_ns: 10_000_000,
        },
    }
}

/// One timed `run_cluster` call.
pub struct Replay {
    /// Host wall seconds of the call.
    pub wall_s: f64,
    /// Process CPU seconds of the call.
    pub cpu_s: f64,
    /// The simulated cluster's metrics.
    pub metrics: ClusterMetrics,
    /// Responses returned (payloads are dropped straight away).
    pub responses: usize,
}

impl Replay {
    /// Simulated `completed / submitted`.
    pub fn goodput(&self) -> f64 {
        self.metrics.completed as f64 / self.metrics.submitted as f64
    }

    /// Output checks: conservation of submitted chunks, one response per
    /// completed request, and the digest equal to `expected`.
    pub fn check(&self, expected: u64) -> Vec<String> {
        let m = &self.metrics;
        let mut problems = Vec::new();
        if !m.conserves_submitted() || self.responses != m.completed {
            problems.push(format!(
                "cluster accounting broken: {} served + {} shed + {} rejected + {} failed + {} \
                 front-door != {} submitted chunks ({} responses, {} completed)",
                m.served,
                m.shed,
                m.rejected,
                m.failed,
                m.front_door_shed,
                m.submitted_chunks,
                self.responses,
                m.completed
            ));
        }
        if m.digest != expected {
            problems.push(format!(
                "cluster digest {:#018x} != expected {expected:#018x}",
                m.digest
            ));
        }
        problems
    }
}

/// Replays `jobs` through `cfg` once.
pub fn replay(cfg: &ClusterConfig, jobs: &[TimedJob]) -> Replay {
    let (wall_s, cpu_s, report) = timed(|| run_cluster(cfg, jobs));
    Replay {
        wall_s,
        cpu_s,
        responses: report.responses.len(),
        metrics: report.metrics,
    }
}

/// Requests in the warm-up schedule [`setup`] replays.
pub const WARM_REQUESTS: usize = 20_000;

/// One-time work before the first replay: start the pool and replay a
/// short schedule through the same cluster, which pays every first-call
/// initialisation on the replay path.
pub fn setup(warm_jobs: &[TimedJob]) {
    fnr_par::par_map(&[0u8, 1], |&x| x);
    std::hint::black_box(run_cluster(&config(true), warm_jobs).metrics.digest);
}
