//! The `serve-live` workload: open-loop bursty render traffic against a
//! live `fnr_serve::Server`, paced against absolute due times.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fnr_serve::workload::{generate, total_chunks, ArrivalPattern, TimedJob, WorkloadSpec};
use fnr_serve::{
    run_virtual, Client, RenderJob, RenderPrecision, SceneKind, ServeReport, Server, ServerConfig,
    VirtualService, WaitOutcome, Workload,
};
use fnr_tensor::Precision;

use crate::util::{percentile, process_cpu_s, tight_timer_slack};

/// Mean inter-arrival gap: about a third of saturation. The server plus
/// this harness (submitter and waiter threads) spends 250–290 µs of CPU per
/// request on a 2-vCPU host, so a 300 µs gap already loads it to 40–50 %
/// and a slow spell of a shared host pushes it into queueing.
pub const MEAN_GAP: Duration = Duration::from_micros(450);

/// Length of the schedule a traced run drives (13 333 requests).
pub const SHORT_SECONDS: f64 = 6.0;

/// Latency percentiles are taken per window of this many consecutive
/// requests (0.45 s of schedule) and the median over windows is reported:
/// a stall of the shared host then moves the windows it hits, not the run.
/// 1 000 is the smallest window with ten samples beyond its p99, and the
/// shorter the window, the more frequent the stalls the median rides out.
pub const WINDOW: usize = 1000;

/// Threads collecting outcomes. More than one, so a request that finishes
/// before an earlier one is still timed when it finishes.
const WAITERS: usize = 3;

/// The server under test: two workers and four row-band chunks per render.
/// The lanes hold over a second of arrivals, so even a long stall of the
/// host does not turn into admission rejections.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        chunks: 4,
        queue_capacity: 16_384,
        ..ServerConfig::default()
    }
}

/// Requests in a schedule that spans `seconds` at [`MEAN_GAP`].
pub fn requests_for(seconds: f64) -> usize {
    (seconds / MEAN_GAP.as_secs_f64()).round() as usize
}

/// The seeded schedule: bursty same-key arrivals, 40 % FP32 reference
/// renders and 60 % INT16/8/4 renders, no table traffic, no deadlines.
pub fn jobs(seed: u64, requests: usize) -> Vec<TimedJob> {
    generate(&WorkloadSpec {
        requests,
        seed,
        pattern: ArrivalPattern::Bursty,
        table_names: Vec::new(),
        mean_gap: MEAN_GAP,
        ..WorkloadSpec::default()
    })
}

/// Starts a throwaway server and renders one small frame per
/// `(scene, precision)` key, which fills the process-wide scene-model and
/// prepared-model caches, then drains it.
pub fn warm() {
    let server = Server::start(&server_config());
    let client = server.client();
    let precisions = [
        RenderPrecision::Fp32,
        RenderPrecision::Quantized(Precision::Int16),
        RenderPrecision::Quantized(Precision::Int8),
        RenderPrecision::Quantized(Precision::Int4),
    ];
    let ids: Vec<u64> = SceneKind::ALL
        .iter()
        .flat_map(|&scene| precisions.map(|precision| (scene, precision)))
        .map(|(scene, precision)| {
            let job = RenderJob {
                scene,
                precision,
                width: 8,
                height: 8,
                spp: 4,
                camera_seed: 1,
            };
            client
                .submit(Workload::Render(job))
                .expect("warm-up submit")
        })
        .collect();
    for id in ids {
        assert!(
            client.wait(id).is_some(),
            "warm-up request {id} was not answered"
        );
    }
    server.drain();
}

/// What one paced schedule produced.
pub struct ScheduleRun {
    /// Per request, ms from its due time to its outcome; `None` when it was
    /// rejected, shed or failed.
    pub latency_ms: Vec<Option<f64>>,
    /// Per request, ms the submitter ran behind the due time.
    pub late_ms: Vec<f64>,
    /// Per request, µs spent inside the submit call (traced runs only).
    pub submit_us: Vec<f64>,
    /// Process CPU seconds from the first due time to the last outcome.
    pub cpu_s: f64,
    /// Wall seconds of the same interval.
    pub wall_s: f64,
}

impl ScheduleRun {
    /// Requests that did not end with an answer.
    pub fn unanswered(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }

    /// Latency percentile `p` of each [`WINDOW`] of consecutive requests. An unanswered request counts as slower than every answered
    /// one (it is charged the whole run's wall time).
    pub fn window_percentiles(&self, p: f64) -> Vec<f64> {
        let worst = self.wall_s * 1e3;
        let latencies: Vec<f64> = self.latency_ms.iter().map(|l| l.unwrap_or(worst)).collect();
        let windows = (latencies.len() / WINDOW).max(1);
        latencies
            .chunks(latencies.len().div_ceil(windows))
            .map(|w| percentile(w, p))
            .collect()
    }
}

/// Drives `jobs` open-loop through `client`: one submitter thread sleeps
/// to each job's absolute due time and submits without parking; [`WAITERS`]
/// threads record when each outcome lands.
pub fn drive(client: &Client, jobs: &[TimedJob], traced: bool) -> ScheduleRun {
    let (tx, rx) = mpsc::channel::<(u64, usize, Instant)>();
    let rx = Arc::new(Mutex::new(rx));
    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let client = client.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    let next = rx
                        .lock()
                        .expect("no waiter panics holding the queue")
                        .recv();
                    let Ok((id, idx, due)) = next else { break };
                    let answered = matches!(client.wait_outcome(id), WaitOutcome::Answered(_));
                    seen.push((idx, answered.then(|| due.elapsed().as_secs_f64() * 1e3)));
                }
                seen
            })
        })
        .collect();

    tight_timer_slack();
    let mut late_ms = Vec::with_capacity(jobs.len());
    let mut submit_us = Vec::new();
    let mut latency_ms = vec![None; jobs.len()];
    let cpu0 = process_cpu_s();
    let start = Instant::now() + Duration::from_millis(1);
    let mut due = start;
    for (idx, tj) in jobs.iter().enumerate() {
        due += tj.delay_before;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        late_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
        let submitted = client.try_submit_with(tj.job.clone(), tj.priority, tj.deadline);
        if traced {
            submit_us.push(at.elapsed().as_secs_f64() * 1e6);
        }
        if let Ok(id) = submitted {
            tx.send((id, idx, due))
                .expect("waiters outlive the schedule");
        }
    }
    drop(tx);
    for w in waiters {
        for (idx, latency) in w.join().expect("waiter thread") {
            latency_ms[idx] = latency;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    ScheduleRun {
        latency_ms,
        late_ms,
        submit_us,
        cpu_s,
        wall_s,
    }
}

/// The response-set digest `jobs` must produce, replayed on the virtual
/// clock (every request answered, the same payload bytes).
pub fn oracle_digest(jobs: &[TimedJob]) -> u64 {
    run_virtual(&server_config(), jobs, VirtualService::default())
        .metrics
        .digest
}

/// Output checks of a drained server that ran `jobs`: the chunk
/// conservation law (every chunk unit served, rejected, shed or failed
/// exactly once; whole responses equal the served parents) and the
/// response-set digest against `expected`.
pub fn check(report: &ServeReport, jobs: &[TimedJob], expected: u64) -> Vec<String> {
    let m = &report.metrics;
    let mut problems = Vec::new();
    let units = total_chunks(jobs, server_config().chunks);
    if m.chunks_served + m.rejected + m.shed + m.failed != units
        || report.responses.len() != m.requests
    {
        problems.push(format!(
            "chunk conservation broken: {} served + {} rejected + {} shed + {} failed != {units} \
             ({} responses, {} whole requests)",
            m.chunks_served,
            m.rejected,
            m.shed,
            m.failed,
            report.responses.len(),
            m.requests
        ));
    }
    if m.digest != expected {
        problems.push(format!(
            "response digest {:#018x} != expected {expected:#018x}",
            m.digest
        ));
    }
    problems
}
