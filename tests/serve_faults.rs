//! Chaos and resilience integration tests for the supervised serving
//! runtime: seeded panic injection with bisection quarantine, retry
//! accounting, live/virtual poisoned-set agreement, circuit-breaker
//! fast-fail, precision brownout, restart-budget exhaustion, and the
//! graceful [`Server::drain`] path.
//!
//! Determinism contract under chaos: the injector poisons requests as a
//! pure function of `(seed, job)`, so exactly the poisoned set resolves
//! [`WaitOutcome::Failed`] while every other response stays byte-identical
//! to the fault-free run — at any `FNR_THREADS`, live or virtual.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use fnr_par::width_test_guard as width_guard;
use fnr_serve::workload::{generate, ArrivalPattern, TimedJob, WorkloadSpec};
use fnr_serve::{
    response_set_digest, run, run_open_loop, run_virtual, BreakerConfig,
    BrownoutConfig, FaultInjector, Priority, RenderJob, RenderPrecision, Response, RetryPolicy,
    SceneKind, Server, ServerConfig, SubmitError, SuperviseConfig, VirtualService, WaitOutcome,
    Workload,
};

fn chaos_spec(requests: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        requests,
        seed,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(20),
        priority_mix: [0.3, 0.4, 0.3],
        ..WorkloadSpec::default()
    }
}

fn chaos_cfg(injector: Option<FaultInjector>, retry: RetryPolicy) -> ServerConfig {
    ServerConfig {
        queue_capacity: 256,
        tables: fnr_bench::serving::table_registry(),
        injector,
        retry,
        ..ServerConfig::default()
    }
}

fn poisoned_ids(jobs: &[TimedJob], inj: &FaultInjector) -> Vec<u64> {
    // Open-loop single submitter: request id == schedule index.
    jobs.iter()
        .enumerate()
        .filter(|(_, tj)| inj.poisons(&tj.job))
        .map(|(i, _)| i as u64)
        .collect()
}

fn tiny_render(priority_seed: u64, precision: RenderPrecision) -> Workload {
    Workload::Render(RenderJob {
        scene: SceneKind::Mic,
        precision,
        width: 4,
        height: 4,
        spp: 2,
        camera_seed: priority_seed,
    })
}

/// The tentpole contract, live: every injected panic resolves `Failed`
/// after quarantine + retries, every innocent request's bytes are
/// identical to the fault-free run's, retries are counted exactly, and
/// the accounting conserves the schedule.
#[test]
fn injected_panics_resolve_failed_and_innocents_stay_byte_identical() {
    let jobs = generate(&chaos_spec(400, 42));
    let inj = FaultInjector { seed: 7, panic_per_mille: 50, delay_per_mille: 50, delay_ns: 30_000 };
    let poisoned = poisoned_ids(&jobs, &inj);
    assert!(!poisoned.is_empty(), "5% of 400 must poison something");

    let baseline = run_open_loop(&chaos_cfg(None, RetryPolicy::default()), &jobs);
    let retry = RetryPolicy { max_attempts: 2, backoff_ns: 10_000, seed: 3 };
    let faulted = run_open_loop(&chaos_cfg(Some(inj), retry), &jobs);

    let m = &faulted.metrics;
    assert_eq!(m.failed, poisoned.len(), "exactly the poisoned set fails");
    assert_eq!(m.requests + m.failed, 400, "conservation: served + failed == submitted");
    assert_eq!(m.rejected, 0);
    assert_eq!(m.shed, 0);
    assert_eq!(
        m.retried,
        poisoned.len(),
        "max_attempts 2: each poisoned request retries exactly once"
    );
    let lane_failed: usize = m.lanes.iter().map(|l| l.failed).sum();
    assert_eq!(lane_failed, m.failed, "per-lane failure counts partition the total");

    // No poisoned id answered; every innocent id answered with the
    // fault-free bytes.
    let by_id = |rs: &[Response]| -> std::collections::HashMap<u64, Vec<u8>> {
        rs.iter().map(|r| (r.id, r.bytes.clone())).collect()
    };
    let base = by_id(&baseline.responses);
    let got = by_id(&faulted.responses);
    for &id in &poisoned {
        assert!(!got.contains_key(&id), "poisoned request {id} must not answer");
    }
    for (id, bytes) in &base {
        if !poisoned.contains(id) {
            assert_eq!(
                got.get(id),
                Some(bytes),
                "innocent request {id} moved bytes under chaos"
            );
        }
    }
}

/// Width invariance, virtual and cross-mode: the chaos digest equals the
/// fault-free digest with the poisoned responses removed — at
/// `FNR_THREADS` 1 and 4, in the virtual harness and the live server.
#[test]
fn chaos_digest_is_width_invariant_and_agrees_between_live_and_virtual() {
    let _g = width_guard();
    let jobs = generate(&chaos_spec(300, 11));
    let inj = FaultInjector { seed: 9, panic_per_mille: 40, delay_per_mille: 0, delay_ns: 0 };
    let poisoned = poisoned_ids(&jobs, &inj);
    assert!(!poisoned.is_empty());
    let cfg = chaos_cfg(Some(inj), RetryPolicy::default());

    // Expected digest: fault-free responses minus the poisoned ids.
    let baseline = run_open_loop(&chaos_cfg(None, RetryPolicy::default()), &jobs);
    let survivors: Vec<Response> = baseline
        .responses
        .iter()
        .filter(|r| !poisoned.contains(&r.id))
        .cloned()
        .collect();
    let expected = response_set_digest(&survivors);

    let service = VirtualService { service_ns: 200_000, per_item_ns: 0 };
    fnr_par::set_num_threads(1);
    let serial = run_virtual(&cfg, &jobs, service);
    fnr_par::set_num_threads(4);
    let parallel = run_virtual(&cfg, &jobs, service);
    let live = run_open_loop(&cfg, &jobs);
    fnr_par::set_num_threads(1);

    assert_eq!(serial.metrics.digest, expected, "virtual chaos digest != surviving baseline");
    assert_eq!(parallel.metrics.digest, expected, "digest moved with FNR_THREADS");
    assert_eq!(live.metrics.digest, expected, "live chaos digest != surviving baseline");
    assert_eq!(serial.metrics.failed, poisoned.len());
    assert_eq!(live.metrics.failed, poisoned.len());
    assert_eq!(serial.metrics.wall_ns, parallel.metrics.wall_ns, "virtual clock is exact");
}

/// Satellite: graceful drain. In-flight work completes, late submits are
/// rejected with `Closed` (never hung), and the returned metrics are
/// final and conserved.
#[test]
fn drain_completes_in_flight_work_and_rejects_late_submits() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut cfg = ServerConfig { queue_capacity: 64, ..ServerConfig::default() };
    let gate_in_worker = Arc::clone(&gate);
    cfg.tables.register(
        "gated",
        Arc::new(move || {
            let (lock, cv) = &*gate_in_worker;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            b"gated".to_vec()
        }),
    );

    let server = Server::start(&cfg);
    let client = server.client();
    let gated = client.submit(Workload::Table("gated".into())).unwrap();
    let mut renders = Vec::new();
    for p in Priority::ALL {
        renders.push(
            client
                .submit_with(tiny_render(p.index() as u64, RenderPrecision::Fp32), p, None)
                .unwrap(),
        );
    }

    // Open the gate from a side thread while drain() is already closing
    // admission: the in-flight gated request must still complete.
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        })
    };
    let report = server.drain();
    opener.join().unwrap();

    assert_eq!(report.metrics.requests, 4, "the gated request and all three renders served");
    assert_eq!(report.metrics.failed, 0);
    assert_eq!(report.responses.len(), 4, "responses survive the drain");
    assert!(report.responses.iter().any(|r| r.id == gated && r.bytes == b"gated"));
    for id in renders {
        assert!(report.responses.iter().any(|r| r.id == id), "render {id} lost in drain");
    }

    // The server is gone: late submits fail fast, and waits on never-
    // admitted ids resolve Closed instead of hanging.
    assert_eq!(
        client.submit(tiny_render(99, RenderPrecision::Fp32)),
        Err(SubmitError::Closed),
        "admission must be closed after drain"
    );
    assert_eq!(client.wait_outcome(u64::MAX), WaitOutcome::Closed);
}

/// The circuit breaker trips on a persistently failing key and fast-fails
/// the next request for it without burning a worker.
#[test]
fn breaker_opens_on_consecutive_failures_and_fast_fails_the_key() {
    // Empty registry: every table lookup panics, so the key fails
    // persistently. Threshold 1 + a long cooldown keeps the breaker open
    // for the whole test.
    let cfg = ServerConfig {
        breaker: BreakerConfig { failure_threshold: 1, cooldown_ns: 60_000_000_000 },
        ..ServerConfig::default()
    };
    let (reasons, report) = run(&cfg, |client| {
        let mut reasons = Vec::new();
        for _ in 0..2 {
            let id = client.submit(Workload::Table("boom".into())).unwrap();
            match client.wait_outcome(id) {
                WaitOutcome::Failed(reason) => reasons.push(reason),
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        reasons
    });
    assert!(reasons[0].contains("boom"), "first failure carries the panic reason: {}", reasons[0]);
    assert!(
        reasons[1].contains("circuit open"),
        "second request must fast-fail on the open breaker: {}",
        reasons[1]
    );
    assert_eq!(report.metrics.failed, 2);
    assert!(report.metrics.breaker_opened >= 1, "the opening was counted");
}

/// Brownout degrades Standard/Batch render precision while engaged and
/// never touches Interactive traffic — live and on the virtual clock
/// alike, since both drive the same scheduling core.
#[test]
fn brownout_degrades_standard_renders_but_never_interactive() {
    // engage_depth 0 = always engaged: a deterministic posture that
    // doesn't depend on winning a queue-depth race.
    let brown = ServerConfig {
        brownout: BrownoutConfig { enabled: true, engage_depth: 0, release_depth: 0 },
        ..ServerConfig::default()
    };
    let live = run(&brown, |client| {
        let std_id = client
            .submit_with(tiny_render(5, RenderPrecision::Fp32), Priority::Standard, None)
            .unwrap();
        let int_id = client
            .submit_with(tiny_render(5, RenderPrecision::Fp32), Priority::Interactive, None)
            .unwrap();
        let grab = |id| match client.wait_outcome(id) {
            WaitOutcome::Answered(r) => r.bytes,
            other => panic!("expected an answer, got {other:?}"),
        };
        (grab(std_id), grab(int_id))
    });
    let schedule: Vec<TimedJob> = [Priority::Standard, Priority::Interactive]
        .into_iter()
        .map(|priority| TimedJob {
            delay_before: Duration::ZERO,
            priority,
            deadline: None,
            job: tiny_render(5, RenderPrecision::Fp32),
        })
        .collect();
    let virt = {
        let report = run_virtual(&brown, &schedule, VirtualService::default());
        let grab = |id| report.responses.iter().find(|r| r.id == id).expect("answered").bytes.clone();
        ((grab(0), grab(1)), report)
    };

    // Reference renders at fixed precision, no brownout: the degraded
    // Standard request must match int16 bytes, the Interactive one fp32.
    let (reference, _) = run(&ServerConfig::default(), |client| {
        let fp32 = client.submit(tiny_render(5, RenderPrecision::Fp32)).unwrap();
        let int16 = client
            .submit(tiny_render(5, RenderPrecision::Quantized(fnr_tensor::Precision::Int16)))
            .unwrap();
        (client.wait(fp32).unwrap().bytes, client.wait(int16).unwrap().bytes)
    });
    assert_ne!(reference.0, reference.1, "the precision step must actually move bytes");
    for (mode, (bytes, report)) in [("live", live), ("virtual", virt)] {
        assert_eq!(report.metrics.degraded, 1, "{mode}: exactly the Standard request degrades");
        assert_eq!(report.metrics.lanes[1].degraded, 1, "{mode}: counted on the standard lane");
        assert_eq!(report.metrics.lanes[0].degraded, 0, "{mode}: interactive is never degraded");
        assert_eq!(bytes.0, reference.1, "{mode}: Standard under brownout must render at int16");
        assert_eq!(bytes.1, reference.0, "{mode}: Interactive under brownout must stay at fp32");
    }
}

/// Exhausting the restart budget must fail pending work loudly — never
/// hang the scheduler or the clients.
#[test]
fn restart_budget_exhaustion_fails_pending_work_instead_of_hanging() {
    let cfg = ServerConfig {
        workers: 1,
        supervise: SuperviseConfig { restart_budget: 0, backoff: Duration::from_micros(100) },
        ..ServerConfig::default() // empty registry: tables panic
    };
    let (reasons, report) = run(&cfg, |client| {
        let first = client.submit(Workload::Table("kaboom".into())).unwrap();
        let r1 = match client.wait_outcome(first) {
            WaitOutcome::Failed(reason) => reason,
            other => panic!("expected Failed, got {other:?}"),
        };
        // The lone worker is dead and may not respawn: follow-up work is
        // fail-drained by the supervisor, not left to rot in the queue.
        let second = client.submit(Workload::Table("kaboom".into())).unwrap();
        let r2 = match client.wait_outcome(second) {
            WaitOutcome::Failed(reason) => reason,
            other => panic!("expected Failed, got {other:?}"),
        };
        (r1, r2)
    });
    assert!(reasons.0.contains("kaboom"), "first failure names the panic: {}", reasons.0);
    assert!(
        reasons.1.contains("restart budget"),
        "post-extinction failures name the budget: {}",
        reasons.1
    );
    assert_eq!(report.metrics.failed, 2);
    assert_eq!(report.metrics.worker_restarts, 0, "budget 0 means no respawns");
}
