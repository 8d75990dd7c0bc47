//! Load generators: open-loop (arrival-timed) and closed-loop (response-
//! gated) drivers over a generated workload schedule, plus the
//! deterministic **virtual-clock harness** ([`run_virtual`]) that replays
//! a schedule against the scheduling layer without real time. The harness
//! has no event loop of its own: it is the cluster simulator
//! ([`crate::run_cluster`]) over one replica with an unbounded front door
//! and a free model cache, so the two agree by construction.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{run_cluster, ClusterConfig, ClusterReport, ClusterService};
use crate::metrics::ServeMetrics;
use crate::server::{run, ServeReport, ServerConfig, WaitOutcome};
use crate::workload::TimedJob;

/// How long a closed-loop client "thinks" between receiving a response and
/// submitting its next request. `None` reproduces the pure soak shape
/// (arrival rate tracks service rate exactly); the distributions model
/// interactive clients, whose pauses let the batcher see sparser arrivals.
///
/// Think times are drawn from a per-client seeded stream, so a run's sleep
/// schedule is a pure function of `(seed, clients)` — timing moves
/// metrics, never response bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThinkTime {
    /// No pause: submit the next request as soon as the response lands.
    None,
    /// A fixed pause after every response.
    Constant(Duration),
    /// Exponentially-distributed pauses with the given mean (capped at
    /// 50× the mean so one unlucky draw cannot stall a client forever).
    Exponential {
        /// Mean of the distribution.
        mean: Duration,
    },
}

impl ThinkTime {
    /// Draws the next pause from this model.
    fn sample(&self, rng: &mut StdRng) -> Duration {
        match *self {
            ThinkTime::None => Duration::ZERO,
            ThinkTime::Constant(d) => d,
            ThinkTime::Exponential { mean } => {
                // Inverse-CDF sampling; u ∈ (0, 1) keeps ln finite.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let pause = -(1.0 - u).ln() * mean.as_nanos() as f64;
                let cap = mean.as_nanos() as f64 * 50.0;
                Duration::from_nanos(pause.min(cap) as u64)
            }
        }
    }
}

/// Open-loop driver: submits each job after its scheduled inter-arrival
/// delay, never waiting for responses — arrival rate is independent of
/// service rate, so queueing and coalescing behave like production
/// traffic. Jobs carry their schedule's traffic class and deadline.
/// Single submitter ⇒ request ids equal schedule order.
pub fn run_open_loop(cfg: &ServerConfig, jobs: &[TimedJob]) -> ServeReport {
    let (_submitted, report) = run(cfg, |client| {
        let mut ok = 0usize;
        for tj in jobs {
            if !tj.delay_before.is_zero() {
                std::thread::sleep(tj.delay_before);
            }
            if client.submit_with(tj.job.clone(), tj.priority, tj.deadline).is_ok() {
                ok += 1;
            }
        }
        ok
    });
    report
}

/// Closed-loop driver: `clients` threads share the schedule round-robin;
/// each submits its next job only after the previous one's outcome
/// arrives (arrival rate tracks service rate — the soak-test shape).
/// A shed outcome releases the client just like a response does; only
/// shutdown stops it. Scheduled delays are ignored; the outcome wait is
/// the pacing.
pub fn run_closed_loop(cfg: &ServerConfig, jobs: &[TimedJob], clients: usize) -> ServeReport {
    run_closed_loop_thinking(cfg, jobs, clients, ThinkTime::None, 0)
}

/// Closed-loop driver with a think-time model: like [`run_closed_loop`],
/// but every client pauses per `think` between its outcome and its next
/// submission, from a deterministic per-client stream derived from `seed`.
pub fn run_closed_loop_thinking(
    cfg: &ServerConfig,
    jobs: &[TimedJob],
    clients: usize,
    think: ThinkTime,
    seed: u64,
) -> ServeReport {
    let clients = clients.max(1);
    let (_done, report) = run(cfg, |client| {
        std::thread::scope(|s| {
            for ci in 0..clients {
                let client = &*client;
                s.spawn(move || {
                    // SplitMix-style per-client stream: nearby client
                    // indices get uncorrelated schedules.
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ci as u64 + 1),
                    );
                    let mut stride = jobs.iter().skip(ci).step_by(clients).peekable();
                    while let Some(tj) = stride.next() {
                        match client.submit_with(tj.job.clone(), tj.priority, tj.deadline) {
                            Ok(id) => {
                                if client.wait_outcome(id) == WaitOutcome::Closed {
                                    break; // server shut down under us
                                }
                            }
                            Err(_) => break,
                        }
                        // Think only *between* requests: a pause after the
                        // final response would pad wall time (and every
                        // throughput figure derived from it) with dead tail
                        // sleep.
                        if stride.peek().is_some() {
                            let pause = think.sample(&mut rng);
                            if !pause.is_zero() {
                                std::thread::sleep(pause);
                            }
                        }
                    }
                });
            }
        });
    });
    report
}

/// Virtual service model for [`run_virtual`].
#[derive(Debug, Clone, Copy)]
pub struct VirtualService {
    /// Virtual wall time one batch occupies one of the
    /// `ServerConfig::workers` virtual workers.
    pub service_ns: u64,
    /// Size-aware cost: extra virtual time per batch member, so a fat
    /// batch costs more than a singleton. Zero (the default) reproduces
    /// the flat per-batch model exactly.
    pub per_item_ns: u64,
}

impl Default for VirtualService {
    fn default() -> Self {
        VirtualService { service_ns: 500_000, per_item_ns: 0 }
    }
}

/// Replays `jobs` through the scheduling layer under a **virtual clock**:
/// arrivals advance time by their scheduled gaps, batches occupy virtual
/// workers for `service.service_ns`, and every scheduling decision —
/// lane order, per-key fairness, linger flushes, deadline shedding,
/// admission rejects — is made single-threaded in trace order against
/// that clock. The decided batches are then rendered for real (fanning
/// out over `fnr_par`), so payload bytes are the production ones.
///
/// This is the deterministic scheduling harness: for a fixed schedule the
/// response-set digest, the per-lane served/shed/expired/rejected
/// counters, the queue-latency histograms and the virtual wall clock are
/// all byte-identical at any `FNR_THREADS` or machine — real parallelism
/// only accelerates the rendering of already-decided batches. The serve
/// equivalence suite and CI's mixed-priority leg diff exactly that.
///
/// A seeded `cfg.injector` adds chaos: poisoned requests fail at the
/// instant a virtual worker would take their batch (the virtual analogue
/// of the live worker's quarantine verdict), delayed batches stretch
/// their virtual service time. The injector takes the same seeds as the
/// live server's, so the poisoned-request *set* is identical in both
/// modes — CI's chaos legs diff exactly that.
///
/// It drives the live server's own scheduling core and ledger. What
/// differs: a full lane *rejects* (an open-loop virtual submitter cannot
/// park), and `cfg.retry` and `cfg.breaker` are unused — retries and the
/// circuit breaker exist only on the live server, so a poisoned request
/// fails on its first take.
///
/// The run is [`run_cluster`] over one replica (no faults, no cold-start
/// cost, no inflight bound); the report is that replica's metrics with
/// the digest taken over whole responses (a replica's folds its chunk
/// payloads), reassembled in row order from chunks that may have ridden
/// different batches.
pub fn run_virtual(cfg: &ServerConfig, jobs: &[TimedJob], service: VirtualService) -> ServeReport {
    let ClusterReport { responses, metrics: cluster } = run_cluster(
        &ClusterConfig {
            replicas: 1,
            server: cfg.clone(),
            max_inflight: usize::MAX,
            service: ClusterService {
                service_ns: service.service_ns,
                per_item_ns: service.per_item_ns,
                cold_start_ns: 0,
            },
            ..ClusterConfig::default()
        },
        jobs,
    );
    let replica = cluster.replicas.into_iter().next().expect("one replica");
    ServeReport { metrics: ServeMetrics { digest: cluster.digest, ..replica.metrics }, responses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Priority, SchedConfig};
    use crate::workload::{generate, ArrivalPattern, WorkloadSpec};
    use std::time::Duration;

    fn tiny_spec(n: usize) -> WorkloadSpec {
        WorkloadSpec {
            requests: n,
            pattern: ArrivalPattern::Bursty,
            mean_gap: Duration::from_micros(20),
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn open_and_closed_loop_answer_every_request_with_equal_digests() {
        let jobs = generate(&tiny_spec(24));
        let cfg = ServerConfig::default();
        let open = run_open_loop(&cfg, &jobs);
        let closed = run_closed_loop(&cfg, &jobs, 4);
        assert_eq!(open.responses.len(), 24);
        assert_eq!(closed.responses.len(), 24);
        // Same job multiset ⇒ same order-canonical digest, even though id
        // assignment differs between the drivers.
        assert_eq!(open.metrics.digest, closed.metrics.digest);
    }

    #[test]
    fn think_time_only_moves_timing_never_payloads() {
        let jobs = generate(&tiny_spec(16));
        let cfg = ServerConfig::default();
        let baseline = run_closed_loop(&cfg, &jobs, 2);
        for think in [
            ThinkTime::Constant(Duration::from_micros(200)),
            ThinkTime::Exponential { mean: Duration::from_micros(150) },
        ] {
            let paused = run_closed_loop_thinking(&cfg, &jobs, 2, think, 42);
            assert_eq!(paused.responses.len(), 16, "{think:?} answered everything");
            assert_eq!(
                paused.metrics.digest, baseline.metrics.digest,
                "{think:?} must not move response bytes"
            );
        }
    }

    #[test]
    fn exponential_think_samples_are_seeded_and_bounded() {
        let mean = Duration::from_micros(100);
        let think = ThinkTime::Exponential { mean };
        let draw = |seed: u64| -> Vec<Duration> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| think.sample(&mut rng)).collect()
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|d| !d.is_zero()), "exponential draws are non-trivial");
        let cap = mean * 50;
        assert!(a.iter().all(|&d| d <= cap), "pauses are capped at 50x the mean");
        assert_ne!(a, draw(8), "different seed moves the schedule");
    }

    #[test]
    fn virtual_harness_is_deterministic_and_answers_everything_without_deadlines() {
        let jobs = generate(&tiny_spec(40));
        let cfg = ServerConfig::default();
        let a = run_virtual(&cfg, &jobs, VirtualService::default());
        let b = run_virtual(&cfg, &jobs, VirtualService::default());
        assert_eq!(a.responses.len(), 40, "no deadline, no shed: everything answers");
        assert_eq!(a.metrics.digest, b.metrics.digest);
        assert_eq!(a.metrics.wall_ns, b.metrics.wall_ns, "virtual wall clock is exact");
        for (x, y) in a.metrics.lanes.iter().zip(&b.metrics.lanes) {
            assert_eq!(x.served, y.served);
            assert_eq!(x.shed, y.shed);
            assert_eq!(x.queue_hist, y.queue_hist);
        }
        // The open-loop threaded server over the same schedule produces
        // the same response set: the harness decides scheduling, not
        // payloads.
        let threaded = run_open_loop(&cfg, &jobs);
        assert_eq!(a.metrics.digest, threaded.metrics.digest);
    }

    #[test]
    fn virtual_saturation_sheds_deadlined_requests_deterministically() {
        // 1 worker, slow virtual service, tight deadlines, dense arrivals:
        // the backlog must shed — and identically on every replay.
        let jobs = generate(&WorkloadSpec {
            requests: 60,
            mean_gap: Duration::from_micros(50),
            deadline: Some(Duration::from_millis(2)),
            ..tiny_spec(60)
        });
        let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
        let service = VirtualService { service_ns: 3_000_000, per_item_ns: 0 };
        let a = run_virtual(&cfg, &jobs, service);
        let b = run_virtual(&cfg, &jobs, service);
        assert!(a.metrics.shed > 0, "saturation must shed: {:?}", a.metrics.shed);
        assert!(a.metrics.requests > 0, "early arrivals are served");
        assert_eq!(a.metrics.requests + a.metrics.shed + a.metrics.rejected, 60);
        assert_eq!(a.metrics.digest, b.metrics.digest);
        let counts = |r: &ServeReport| -> Vec<(usize, usize, usize, usize)> {
            r.metrics.lanes.iter().map(|l| (l.served, l.shed, l.expired, l.rejected)).collect()
        };
        assert_eq!(counts(&a), counts(&b), "per-lane counters are exact");
    }

    #[test]
    fn virtual_priority_lanes_favour_interactive_queue_latency() {
        // A symmetric simultaneous backlog — one scene per class so each
        // class forms its own batches — on one slow worker: the 4/2/1
        // weights must drain interactive earlier than batch, visible as a
        // lower queue-latency distribution.
        use crate::request::{RenderJob, RenderPrecision, SceneKind, Workload};
        let class_job = |p: Priority, seed: u64| TimedJob {
            delay_before: Duration::ZERO,
            priority: p,
            deadline: None,
            job: Workload::Render(RenderJob {
                scene: match p {
                    Priority::Interactive => SceneKind::Mic,
                    Priority::Standard => SceneKind::Lego,
                    Priority::Batch => SceneKind::Palace,
                },
                precision: RenderPrecision::Fp32,
                width: 4,
                height: 4,
                spp: 2,
                camera_seed: seed,
            }),
        };
        let jobs: Vec<TimedJob> = (0..24)
            .flat_map(|i| Priority::ALL.map(|p| class_job(p, i)))
            .collect();
        let cfg = ServerConfig { workers: 1, queue_capacity: 256, ..ServerConfig::default() };
        let report = run_virtual(&cfg, &jobs, VirtualService { service_ns: 2_000_000, per_item_ns: 0 });
        assert_eq!(report.responses.len(), 72);
        // Deterministic order statistic over the fixed log-4 buckets:
        // higher score = more mass in slower buckets.
        let score = |lane: usize| {
            let hist = &report.metrics.lanes[lane].queue_hist;
            hist.counts().iter().enumerate().map(|(i, &c)| i as u64 * c).sum::<u64>() as f64
                / hist.total().max(1) as f64
        };
        assert!(
            score(0) < score(1) && score(1) <= score(2),
            "weighted drain must order queue waits interactive < standard <= batch: \
             {:.3} / {:.3} / {:.3}",
            score(0),
            score(1),
            score(2)
        );
    }

    #[test]
    fn virtual_single_lane_equals_priority_lane_digest() {
        // Scheduling may only reorder (no deadlines) — so lane policy must
        // never move the digest, single-lane degenerate config included.
        let jobs = generate(&tiny_spec(32));
        let multi = run_virtual(&ServerConfig::default(), &jobs, VirtualService::default());
        let single = run_virtual(
            &ServerConfig { sched: SchedConfig::single_lane(), ..ServerConfig::default() },
            &jobs,
            VirtualService::default(),
        );
        assert_eq!(multi.metrics.digest, single.metrics.digest);
        assert_eq!(single.metrics.lanes.len(), 1);
        assert_eq!(single.metrics.lanes[0].served, 32);
    }

    #[test]
    fn virtual_full_lane_rejects_open_loop_arrivals() {
        // Bursty arrivals into a 2-slot lane with a stalled pipeline must
        // reject the overflow (the virtual submitter cannot park).
        let mut jobs = generate(&tiny_spec(30));
        for tj in &mut jobs {
            tj.delay_before = Duration::ZERO; // one instantaneous burst
            tj.priority = Priority::Standard;
        }
        // max_batch 1 stalls the scheduler after 1 in-service + 2 queued +
        // 1 stalled singleton batches, so the 2-slot lane then overflows.
        let cfg = ServerConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 1,
            ..ServerConfig::default()
        };
        let report = run_virtual(&cfg, &jobs, VirtualService { service_ns: 10_000_000, per_item_ns: 0 });
        assert!(report.metrics.rejected > 0, "overflow must reject");
        assert_eq!(
            report.metrics.requests + report.metrics.rejected + report.metrics.shed,
            30,
            "every arrival is accounted for"
        );
    }
}
