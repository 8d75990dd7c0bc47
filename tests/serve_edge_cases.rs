//! Serving-runtime edge cases: admission under zero capacity, all-lanes-
//! full backpressure and the wakeups of parked submitters (drain, deadline
//! shed), shed-everything deadlines, the single-lane FIFO digest pin,
//! worker failure on every lane, flush-policy behaviour under real
//! threading, and a short closed-loop soak.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fnr_serve::workload::{generate, ArrivalPattern, WorkloadSpec};
use fnr_serve::{
    response_set_digest, run, run_closed_loop, run_open_loop, Priority, RenderJob,
    RenderPrecision, SceneKind, SchedConfig, Server, ServerConfig, SubmitError, WaitOutcome,
    Workload,
};

fn tiny_render(seed: u64) -> Workload {
    Workload::Render(RenderJob {
        scene: SceneKind::Mic,
        precision: RenderPrecision::Fp32,
        width: 4,
        height: 4,
        spp: 2,
        camera_seed: seed,
    })
}

#[test]
fn zero_capacity_queue_rejects_blocking_and_nonblocking_submits() {
    let cfg = ServerConfig { queue_capacity: 0, ..ServerConfig::default() };
    let (results, report) = run(&cfg, |client| {
        let blocking = client.submit(tiny_render(0));
        let nonblocking = client.try_submit(tiny_render(1));
        (blocking, nonblocking)
    });
    assert_eq!(results.0, Err(SubmitError::Rejected), "blocking submit must not park forever");
    assert_eq!(results.1, Err(SubmitError::Rejected));
    assert_eq!(report.metrics.rejected, 2);
    assert_eq!(report.metrics.requests, 0);
    assert!(report.responses.is_empty());
}

/// All lanes full: non-blocking submits must reject and blocking submits
/// must park (true backpressure) — then drain once capacity returns.
#[test]
fn all_lanes_full_backpressure_rejects_try_submit_and_parks_blocking_submit() {
    let (server, gate, mut admitted) = wedged_server(2);
    let client = server.client();
    // The pipeline absorbs a bounded handful; well before 32 submits the
    // standard lane must report Full.
    let saw_reject = (0..32).any(|_| match client.try_submit(gated()) {
        Ok(id) => {
            admitted.push(id);
            false
        }
        Err(SubmitError::Rejected) => true,
        Err(e) => panic!("unexpected submit error {e:?}"),
    });
    assert!(saw_reject, "a wedged pipeline must eventually reject try_submit");
    // A blocking submit on the full lane parks instead of rejecting.
    std::thread::scope(|s| {
        let parked = s.spawn(|| client.submit(gated()));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!parked.is_finished(), "blocking submit must park while every lane slot is taken");
        // Open the gate: the pipeline drains and the parked submit lands.
        gate.open();
        admitted.push(parked.join().expect("parked submitter").expect("parks, then admits"));
    });
    for &id in &admitted {
        assert!(
            matches!(client.wait_outcome(id), WaitOutcome::Answered(_)),
            "request {id} must answer after the gate opens"
        );
    }
    let report = server.drain();
    assert_eq!(report.metrics.requests, admitted.len(), "everything admitted was answered");
    assert!(report.metrics.rejected >= 1, "the rejection was counted");
    assert_eq!(report.metrics.shed, 0);
}

/// A table generator that wedges every execution until the gate opens,
/// and reports once the first execution has entered.
struct Gate {
    state: Mutex<(bool, bool)>, // (entered, open)
    cv: Condvar,
}

impl Gate {
    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

fn gated() -> Workload {
    Workload::Table("gated".into())
}

/// A one-worker, singleton-batch server (3 chunks per render) whose
/// standard lane holds `lane_slots` requests, with its worker wedged on a
/// gated request and the 2-slot ready queue plus one stalled flush filled
/// behind it: the pipeline is full up to the still-empty standard lane.
/// From here only client submits pump it, so its state is deterministic.
fn wedged_server(lane_slots: usize) -> (Server, Arc<Gate>, Vec<u64>) {
    let gate = Arc::new(Gate { state: Mutex::new((false, false)), cv: Condvar::new() });
    let mut cfg = ServerConfig {
        workers: 1,
        queue_capacity: lane_slots,
        max_batch: 1,
        chunks: 3,
        ..ServerConfig::default()
    };
    let in_worker = Arc::clone(&gate);
    cfg.tables.register(
        "gated",
        Arc::new(move || {
            let mut st = in_worker.state.lock().unwrap();
            st.0 = true;
            in_worker.cv.notify_all();
            while !st.1 {
                st = in_worker.cv.wait(st).unwrap();
            }
            b"gated".to_vec()
        }),
    );
    let server = Server::start(&cfg);
    let client = server.client();
    let mut ids = vec![client.submit(gated()).unwrap()];
    gate.wait_entered();
    ids.extend((0..3).map(|_| client.try_submit(gated()).expect("absorbed")));
    (server, gate, ids)
}

/// A blocking submit on a full lane parks until a worker consumes a
/// request and frees the slot, then admits and is answered.
#[test]
fn blocking_submit_parks_on_a_full_lane_until_a_worker_frees_a_slot() {
    let (server, gate, mut admitted) = wedged_server(1);
    let client = server.client();
    admitted.push(client.try_submit(gated()).expect("takes the lane slot"));
    assert_eq!(client.try_submit(gated()), Err(SubmitError::Rejected));
    std::thread::scope(|s| {
        let parked = s.spawn(|| client.submit(gated()));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!parked.is_finished(), "blocking submit must park while the lane is full");
        gate.open();
        admitted.push(parked.join().expect("parked submitter").expect("admitted once consumed"));
    });
    for &id in &admitted {
        assert!(matches!(client.wait_outcome(id), WaitOutcome::Answered(_)), "request {id}");
    }
    let report = server.drain();
    assert_eq!(report.metrics.requests, admitted.len(), "everything admitted was answered");
    assert_eq!(report.metrics.rejected, 1, "only the try_submit was refused");
}

/// A blocking submit parked on a full lane returns `Closed` as soon as the
/// server drains — not when the wedged worker finally frees a slot — and
/// every one of its chunks counts as rejected.
#[test]
fn parked_blocking_submit_returns_closed_when_the_server_drains() {
    let (server, gate, mut admitted) = wedged_server(1);
    let client = server.client();
    admitted.push(client.try_submit(gated()).expect("takes the lane slot"));
    assert_eq!(client.try_submit(gated()), Err(SubmitError::Rejected));
    let report = std::thread::scope(|s| {
        // A 3-chunk render on the full standard lane parks on chunk 0.
        let parked = s.spawn(|| client.submit(tiny_render(9)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!parked.is_finished(), "blocking submit must park on a full lane");
        let drainer = s.spawn(move || server.drain());
        assert_eq!(
            parked.join().expect("parked submitter"),
            Err(SubmitError::Closed),
            "drain must release the parked submitter while the worker is still wedged"
        );
        gate.open();
        drainer.join().expect("drain")
    });
    assert_eq!(report.metrics.requests, admitted.len(), "everything admitted was served");
    // One refused table chunk plus the parked render's three chunks.
    assert_eq!(report.metrics.lanes[1].rejected, 4);
    assert_eq!(report.metrics.rejected, 4);
}

/// A deadline shed frees a lane slot like a served request does: the pump
/// that sheds an expired request must wake a submitter parked on its lane.
#[test]
fn deadline_shed_that_frees_a_lane_slot_wakes_a_parked_submitter() {
    let (server, gate, _) = wedged_server(1);
    let client = server.client();
    // The lane's one slot goes to a request that expires while it waits.
    let doomed = client
        .submit_with(gated(), Priority::Standard, Some(Duration::from_millis(1)))
        .expect("takes the lane slot");
    assert_eq!(client.try_submit(gated()), Err(SubmitError::Rejected));
    std::thread::scope(|s| {
        let parked = s.spawn(|| client.submit(tiny_render(1)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!parked.is_finished(), "blocking submit must park on a full lane");
        // Unwedging lets the scheduler step again: its first step sheds
        // the expired request, and that freed slot admits the parked one.
        gate.open();
        let id = parked.join().expect("parked submitter").expect("admitted once the shed frees a slot");
        assert_eq!(client.wait_outcome(doomed), WaitOutcome::Shed);
        assert!(matches!(client.wait_outcome(id), WaitOutcome::Answered(_)));
    });
    let report = server.drain();
    assert_eq!(report.metrics.shed, 1);
    assert_eq!(report.metrics.lanes[1].shed, 1);
    assert_eq!(report.metrics.rejected, 1);
}

/// A render with more chunks than the pipeline holds (1-slot lane, 2-slot
/// ready queue, one stalled flush) parks its own submitter mid-request
/// while the lone worker sleeps idle. That submitter must wake the worker
/// before it parks, or nothing ever frees the lane. Checked for blocking
/// and non-blocking submits (only chunk 0 of a `try_submit` may reject).
#[test]
fn submitter_parked_mid_request_wakes_the_idle_worker() {
    let cfg = ServerConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 1,
        chunks: 8,
        ..ServerConfig::default()
    };
    let tall = Workload::Render(RenderJob {
        scene: SceneKind::Mic,
        precision: RenderPrecision::Fp32,
        width: 4,
        height: 8,
        spp: 2,
        camera_seed: 3,
    });
    for blocking in [true, false] {
        let (cfg, job) = (cfg.clone(), tall.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        // On a hang the test fails at the timeout; the wedged thread leaks.
        std::thread::spawn(move || {
            let (outcome, report) = run(&cfg, |client| {
                // Let the worker go idle first.
                std::thread::sleep(Duration::from_millis(20));
                let id = if blocking { client.submit(job) } else { client.try_submit(job) };
                client.wait_outcome(id.expect("admitted"))
            });
            let _ = tx.send((outcome, report.metrics.chunks_served));
        });
        let (outcome, chunks) = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("blocking={blocking}: render never answered"));
        assert!(matches!(outcome, WaitOutcome::Answered(_)), "blocking={blocking}: {outcome:?}");
        assert_eq!(chunks, 8);
    }
}

/// Deadline zero: the whole workload is expired on arrival — every
/// request sheds, none renders, and the digest is the empty set's.
#[test]
fn deadline_zero_sheds_the_entire_workload() {
    let spec = WorkloadSpec {
        requests: 40,
        seed: 11,
        pattern: ArrivalPattern::Bursty,
        mean_gap: Duration::from_micros(10),
        deadline: Some(Duration::ZERO),
        ..WorkloadSpec::default()
    };
    let report = run_open_loop(&ServerConfig::default(), &generate(&spec));
    assert!(report.responses.is_empty(), "an expired request is never rendered");
    assert_eq!(report.metrics.requests, 0);
    assert_eq!(report.metrics.shed + report.metrics.rejected, 40, "all 40 accounted");
    assert!(report.metrics.shed > 0, "sheds, not rejects, do the dropping here");
    assert_eq!(report.metrics.digest, response_set_digest(&[]), "empty-set digest");
    for lane in &report.metrics.lanes {
        assert_eq!(lane.served, 0, "lane {} served an expired request", lane.name);
        assert_eq!(lane.submitted, lane.shed);
    }
}

/// The degenerate single-lane no-deadline config is the pre-scheduler
/// FIFO server: on CI's exact 1000-request seed-42 bursty workload it
/// must reproduce the pre-PR response-set digest bit for bit.
#[test]
fn single_lane_no_deadline_reproduces_the_pre_scheduler_fifo_digest() {
    let spec = WorkloadSpec {
        requests: 1000,
        seed: 42,
        pattern: ArrivalPattern::Bursty,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: Duration::from_micros(150),
        ..WorkloadSpec::default()
    };
    let cfg = ServerConfig {
        queue_capacity: 256,
        sched: SchedConfig::single_lane(),
        tables: fnr_bench::serving::table_registry(),
        ..ServerConfig::default()
    };
    let report = run_open_loop(&cfg, &generate(&spec));
    assert_eq!(report.responses.len(), 1000);
    assert_eq!(
        report.metrics.digest, 0xda74_9e53_2f3d_ecd8,
        "single-lane scheduling moved the FIFO workload's response bytes"
    );
    assert_eq!(report.metrics.lanes.len(), 1);
    assert_eq!(report.metrics.lanes[0].served, 1000);
}

#[test]
fn worker_panic_is_quarantined_and_the_pool_keeps_serving() {
    // Unknown table name → the executing worker panics. The supervisor
    // must quarantine the poisoned request (a `Failed` outcome carrying
    // the panic reason — the waiter unblocks, nothing deadlocks),
    // respawn the worker, and keep every lane serving.
    let cfg = ServerConfig::default(); // empty registry: any table lookup panics
    let (_, report) = run(&cfg, |client| {
        let poisoned =
            client.submit(Workload::Table("definitely-not-registered".into())).unwrap();
        match client.wait_outcome(poisoned) {
            WaitOutcome::Failed(reason) => assert!(
                reason.contains("definitely-not-registered"),
                "original panic reason must surface in the failure: {reason}"
            ),
            other => panic!("poisoned request must resolve Failed, got {other:?}"),
        }
        // Follow-up submits on *every* lane must still be admitted and
        // answered — worker death is the supervisor's problem, not the
        // client's.
        for p in Priority::ALL {
            let id = client
                .submit_with(tiny_render(p.index() as u64), p, None)
                .unwrap_or_else(|e| panic!("lane {} stopped admitting: {e:?}", p.name()));
            assert!(
                client.wait(id).is_some(),
                "lane {} stopped serving after the quarantine",
                p.name()
            );
        }
    });
    assert_eq!(report.metrics.failed, 1, "exactly the poisoned request fails");
    assert_eq!(report.metrics.requests, 3, "the three follow-ups all serve");
    assert!(report.metrics.worker_restarts >= 1, "the crashed worker must respawn");
}

#[test]
fn drive_closure_panic_shuts_down_instead_of_deadlocking() {
    // A panic in the drive closure must close the admission queue on the
    // way out (otherwise run() joins role threads parked forever) and
    // resurface from run().
    let cfg = ServerConfig::default();
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run(&cfg, |client| {
            client.submit(tiny_render(0)).unwrap();
            panic!("driver exploded mid-flight");
        })
    }));
    assert!(start.elapsed() < Duration::from_secs(30), "run() must not hang on a drive panic");
    let payload = outcome.expect_err("drive panic must resurface");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("<other>");
    assert!(msg.contains("driver exploded"), "original panic preserved: {msg}");
}

#[test]
fn batcher_flushes_on_size_threshold_before_linger_expires() {
    // Huge linger: only the size threshold can flush. Submitting exactly
    // max_batch same-key requests must produce one full batch, quickly.
    let cfg = ServerConfig {
        max_batch: 4,
        linger: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let start = Instant::now();
    let (_, report) = run(&cfg, |client| {
        let ids: Vec<u64> = (0..4).map(|i| client.submit(tiny_render(i)).unwrap()).collect();
        for id in ids {
            assert!(client.wait(id).is_some(), "size-flushed batch answers before shutdown");
        }
    });
    assert!(start.elapsed() < Duration::from_secs(60), "must not wait out the linger");
    assert!(report.metrics.flushed_size >= 1, "size flush recorded");
    assert_eq!(report.metrics.requests, 4);
}

#[test]
fn batcher_flushes_on_linger_timeout_when_undersized() {
    // Huge size threshold: only the linger can flush. A single request
    // must still be answered (while the server is up — not at drain).
    let cfg = ServerConfig {
        max_batch: 1000,
        linger: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let (_, report) = run(&cfg, |client| {
        let id = client.submit(tiny_render(7)).unwrap();
        assert!(client.wait(id).is_some(), "linger flush answers a lone request");
    });
    assert!(
        report.metrics.flushed_timeout >= 1,
        "timeout flush recorded: {} size / {} timeout / {} drain",
        report.metrics.flushed_size,
        report.metrics.flushed_timeout,
        report.metrics.flushed_drain
    );
}

/// Closed-loop soak (~1 s budget): several clients hammering a small
/// server must neither deadlock nor skip requests, and admission ids must
/// be monotone.
#[test]
fn closed_loop_soak_completes_without_deadlock_and_ids_are_monotone() {
    let spec = WorkloadSpec {
        requests: 160,
        seed: 7,
        pattern: ArrivalPattern::Bursty,
        mean_gap: Duration::from_micros(10),
        ..WorkloadSpec::default()
    };
    let jobs = generate(&spec);
    let cfg = ServerConfig { workers: 3, queue_capacity: 8, ..ServerConfig::default() };
    let start = Instant::now();
    let report = run_closed_loop(&cfg, &jobs, 6);
    assert!(start.elapsed() < Duration::from_secs(30), "soak must terminate promptly");
    assert_eq!(report.metrics.requests, 160, "every request answered");
    assert_eq!(report.metrics.rejected, 0, "blocking submits never drop");
    let ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), 160);
    for w in ids.windows(2) {
        assert!(w[0] < w[1], "sorted response ids must be strictly increasing");
    }
    assert_eq!(*ids.last().unwrap(), 159, "admission ids are dense 0..n");
}

/// Per-client monotonicity under contention: ids observed by each client
/// thread must strictly increase in its own submission order.
#[test]
fn request_ids_are_monotone_per_client_under_contention() {
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let sequences: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let counter = AtomicU64::new(0);
    let (_, report) = run(&cfg, |client| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let seqs = Arc::clone(&sequences);
                let counter = &counter;
                let client = &*client;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for _ in 0..20 {
                        let seed = counter.fetch_add(1, Ordering::Relaxed);
                        if let Ok(id) = client.submit(tiny_render(seed)) {
                            mine.push(id);
                        }
                    }
                    seqs.lock().unwrap().push(mine);
                });
            }
        });
    });
    assert_eq!(report.metrics.requests, 80);
    let seqs = sequences.lock().unwrap();
    assert_eq!(seqs.len(), 4);
    let mut all: Vec<u64> = Vec::new();
    for seq in seqs.iter() {
        assert_eq!(seq.len(), 20);
        for w in seq.windows(2) {
            assert!(w[0] < w[1], "a client observed non-monotone ids: {seq:?}");
        }
        all.extend_from_slice(seq);
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 80, "ids are globally unique");
}
