//! Serving determinism: with a fixed seed, the response *set* of a served
//! workload must be byte-identical at any `FNR_THREADS` — the same
//! contract `tests/parallel_equivalence.rs` enforces for the repro
//! pipeline, lifted to the request level. Batch composition and metrics
//! may move with timing; payload bytes may not. The scheduling layer
//! tightens this further: under the virtual-clock harness the per-lane
//! served/shed/expired counters, queue histograms and virtual wall clock
//! are *also* byte-identical at any width.
//!
//! Width flips are process-global, so every test here holds
//! `fnr_par::width_test_guard` for its whole body.

use std::time::Duration;

use fnr_par::width_test_guard as width_guard;
use fnr_serve::workload::{generate, ArrivalPattern, WorkloadSpec};
use fnr_serve::{
    run_cluster, run_open_loop, run_virtual, ClusterConfig, ClusterService, FaultInjector,
    FaultPlan, HealthConfig, PayloadMode, SchedConfig, ServeMetrics, ServeReport, ServerConfig,
    VirtualService,
};

fn bursty_spec(requests: usize) -> WorkloadSpec {
    WorkloadSpec {
        requests,
        seed: 42,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(30),
        ..WorkloadSpec::default()
    }
}

fn serve_bursty(requests: usize) -> ServeReport {
    let cfg = ServerConfig { tables: fnr_bench::serving::table_registry(), ..ServerConfig::default() };
    run_open_loop(&cfg, &generate(&bursty_spec(requests)))
}

#[test]
fn response_set_is_byte_identical_at_any_width() {
    let _g = width_guard();
    fnr_par::set_num_threads(1);
    let serial = serve_bursty(120);
    fnr_par::set_num_threads(4);
    let parallel = serve_bursty(120);
    fnr_par::set_num_threads(1);

    assert_eq!(serial.responses.len(), 120);
    assert_eq!(parallel.responses.len(), 120);
    assert_eq!(
        serial.metrics.digest, parallel.metrics.digest,
        "response-set digest must not depend on FNR_THREADS"
    );
    // Open-loop single-submitter ids equal schedule order, so the full
    // response vectors (ids + payload bytes) must also match exactly.
    for (a, b) in serial.responses.iter().zip(&parallel.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.bytes, b.bytes, "payload of request {} moved with thread width", a.id);
    }
}

#[test]
fn bursty_workload_actually_coalesces() {
    let _g = width_guard();
    fnr_par::set_num_threads(2);
    let report = serve_bursty(150);
    fnr_par::set_num_threads(1);
    let m = &report.metrics;
    assert_eq!(m.requests, 150, "every request answered");
    assert!(
        m.coalescable_occupancy > 1.0,
        "bursty same-key traffic must batch: coalescable occupancy {:.3} over {} batches",
        m.coalescable_occupancy,
        m.batches
    );
    assert!(m.batches < 150, "coalescing must produce fewer batches than requests");
}

#[test]
fn digest_is_independent_of_batching_policy() {
    let _g = width_guard();
    fnr_par::set_num_threads(2);
    let jobs = generate(&bursty_spec(60));
    let tables = fnr_bench::serving::table_registry();
    // Radically different batching outcomes: eager singletons vs patient
    // wide batches — payloads must not care.
    let singleton = ServerConfig {
        max_batch: 1,
        linger: Duration::ZERO,
        tables: tables.clone(),
        ..ServerConfig::default()
    };
    let wide = ServerConfig {
        max_batch: 64,
        linger: Duration::from_millis(20),
        workers: 4,
        tables,
        ..ServerConfig::default()
    };
    let a = run_open_loop(&singleton, &jobs);
    let b = run_open_loop(&wide, &jobs);
    fnr_par::set_num_threads(1);
    assert_eq!(a.metrics.digest, b.metrics.digest, "batch composition leaked into payloads");
    assert!((a.metrics.mean_occupancy - 1.0).abs() < 1e-9, "max_batch=1 forces singletons");
}

#[test]
fn digest_is_independent_of_lane_policy() {
    // With no deadlines the scheduler may only reorder, never drop: the
    // 4/2/1 priority lanes and the degenerate single lane must produce
    // the same response set as each other (and CI pins that set to the
    // pre-scheduler FIFO digest).
    let _g = width_guard();
    fnr_par::set_num_threads(2);
    let jobs = generate(&bursty_spec(90));
    let tables = fnr_bench::serving::table_registry();
    let multi = run_open_loop(
        &ServerConfig { tables: tables.clone(), ..ServerConfig::default() },
        &jobs,
    );
    let single = run_open_loop(
        &ServerConfig { sched: SchedConfig::single_lane(), tables, ..ServerConfig::default() },
        &jobs,
    );
    fnr_par::set_num_threads(1);
    assert_eq!(multi.responses.len(), 90);
    assert_eq!(
        multi.metrics.digest, single.metrics.digest,
        "lane policy leaked into payload bytes"
    );
    assert_eq!(multi.metrics.shed, 0);
    assert_eq!(single.metrics.shed, 0);
}

/// The scheduling fields of [`ServeMetrics`] that must be *exactly*
/// equal between two virtual-clock runs, whatever the pool width.
fn sched_fingerprint(m: &ServeMetrics) -> String {
    let mut out = format!(
        "digest={:#018x} requests={} shed={} expired={} rejected={} wall={}\n",
        m.digest, m.requests, m.shed, m.expired, m.rejected, m.wall_ns
    );
    for lane in &m.lanes {
        out.push_str(&format!(
            "lane {} w{} submitted={} served={} shed={} expired={} rejected={} hist={:?}\n",
            lane.name,
            lane.weight,
            lane.submitted,
            lane.served,
            lane.shed,
            lane.expired,
            lane.rejected,
            lane.queue_hist.counts()
        ));
    }
    out
}

#[test]
fn virtual_clock_scheduling_is_byte_identical_at_any_width() {
    // The acceptance contract of the scheduling layer: for a fixed seed
    // and virtual-clock trace, the response-set digest *and* the per-lane
    // shed/served counters are byte-identical across FNR_THREADS — the
    // harness decides scheduling single-threaded; width only renders the
    // decided batches faster.
    let _g = width_guard();
    let spec = WorkloadSpec {
        requests: 150,
        seed: 1905,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(50),
        priority_mix: [0.3, 0.4, 0.3],
        deadline: Some(Duration::from_millis(4)),
        ..WorkloadSpec::default()
    };
    let jobs = generate(&spec);
    // One slow virtual worker: saturation makes the deadline policy bite.
    let cfg = ServerConfig {
        workers: 1,
        tables: fnr_bench::serving::table_registry(),
        ..ServerConfig::default()
    };
    let service = VirtualService { service_ns: 1_500_000, per_item_ns: 0 };

    fnr_par::set_num_threads(1);
    let serial = run_virtual(&cfg, &jobs, service);
    fnr_par::set_num_threads(4);
    let parallel = run_virtual(&cfg, &jobs, service);
    fnr_par::set_num_threads(1);

    assert!(serial.metrics.shed > 0, "the trace must exercise shedding");
    assert!(serial.metrics.requests > 0, "the trace must serve something");
    assert_eq!(
        sched_fingerprint(&serial.metrics),
        sched_fingerprint(&parallel.metrics),
        "virtual-clock scheduling moved with FNR_THREADS"
    );
    // Full response vectors too: ids and payload bytes.
    assert_eq!(serial.responses.len(), parallel.responses.len());
    for (a, b) in serial.responses.iter().zip(&parallel.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.bytes, b.bytes, "payload of request {} moved with thread width", a.id);
    }
}

#[test]
fn single_replica_cluster_reproduces_run_virtual() {
    // Regression pin for the cluster refactor: a 1-replica cluster with
    // no faults, a free model cache and an unbounded front door is
    // *exactly* `run_virtual` — same per-lane counters, same histograms,
    // same virtual wall clock, same digest, same response bytes. If the
    // cluster layer ever perturbs the single-pipeline semantics it
    // extracted, this test names the field that moved.
    let _g = width_guard();
    fnr_par::set_num_threads(2);
    let spec = WorkloadSpec {
        requests: 200,
        seed: 777,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(40),
        priority_mix: [0.3, 0.4, 0.3],
        deadline: Some(Duration::from_millis(5)),
        ..WorkloadSpec::default()
    };
    let jobs = generate(&spec);
    let cfg = ServerConfig {
        workers: 2,
        tables: fnr_bench::serving::table_registry(),
        ..ServerConfig::default()
    };
    let service_ns = 1_200_000;

    let direct = run_virtual(&cfg, &jobs, VirtualService { service_ns, per_item_ns: 0 });
    let cluster = run_cluster(
        &ClusterConfig {
            replicas: 1,
            server: cfg,
            max_inflight: usize::MAX,
            service: ClusterService { service_ns, per_item_ns: 0, cold_start_ns: 0 },
            faults: FaultPlan::none(),
            payload: PayloadMode::Render,
            ..ClusterConfig::default()
        },
        &jobs,
    );
    fnr_par::set_num_threads(1);

    assert!(direct.metrics.shed > 0, "the pin trace must exercise shedding");
    let replica = &cluster.metrics.replicas[0];
    assert_eq!(
        sched_fingerprint(&direct.metrics),
        sched_fingerprint(&replica.metrics),
        "a 1-replica fault-free cluster diverged from run_virtual"
    );
    assert_eq!(cluster.metrics.digest, direct.metrics.digest);
    assert_eq!(cluster.metrics.served, direct.metrics.requests);
    assert_eq!(cluster.metrics.front_door_shed, 0);
    assert_eq!(cluster.metrics.failed_over, 0);
    assert_eq!(replica.routed as usize, jobs.len(), "every request routes to the only replica");
    assert_eq!(cluster.responses.len(), direct.responses.len());
    for (a, b) in cluster.responses.iter().zip(&direct.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.bytes, b.bytes, "cluster payload of request {} differs from run_virtual", a.id);
    }
}

#[test]
fn tracked_losses_settle_like_run_virtual() {
    // With the failure detector on, a one-replica cluster tracks events
    // (hedging stays off): every shed and injected failure leaves the
    // pipeline unrecorded as a loss event and is recorded by the cluster.
    // The ledger must come out exactly as `run_virtual`'s, which records
    // each loss on the spot.
    let _g = width_guard();
    fnr_par::set_num_threads(2);
    let spec = WorkloadSpec {
        requests: 200,
        seed: 4242,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(40),
        priority_mix: [0.3, 0.4, 0.3],
        deadline: Some(Duration::from_millis(5)),
        ..WorkloadSpec::default()
    };
    let jobs = generate(&spec);
    let injector = FaultInjector { seed: 11, panic_per_mille: 80, delay_per_mille: 0, delay_ns: 0 };
    let cfg = ServerConfig {
        workers: 2,
        tables: fnr_bench::serving::table_registry(),
        injector: Some(injector),
        ..ServerConfig::default()
    };
    let service_ns = 1_200_000;

    let direct = run_virtual(&cfg, &jobs, VirtualService { service_ns, per_item_ns: 0 });
    let tracked = run_cluster(
        &ClusterConfig {
            replicas: 1,
            server: cfg,
            max_inflight: usize::MAX,
            service: ClusterService { service_ns, per_item_ns: 0, cold_start_ns: 0 },
            health: HealthConfig { enabled: true, ..HealthConfig::default() },
            ..ClusterConfig::default()
        },
        &jobs,
    );
    fnr_par::set_num_threads(1);

    assert!(direct.metrics.shed > 0, "the trace must exercise shedding");
    assert!(direct.metrics.failed > 0, "the trace must exercise injected failures");
    let replica = &tracked.metrics.replicas[0];
    assert_eq!(
        sched_fingerprint(&direct.metrics),
        sched_fingerprint(&replica.metrics),
        "losses settled through the cluster diverged from run_virtual"
    );
    assert_eq!(replica.metrics.failed, direct.metrics.failed);
    assert_eq!(tracked.metrics.digest, direct.metrics.digest);
}
