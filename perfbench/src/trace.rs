//! The traced run: per-layer metrics gathered from outside the program, by
//! timing calls into each module's public functions and reading the
//! reports the program returns.

use std::time::Instant;

use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::render::{BatchView, NgpModel};
use fnr_nerf::scene::MicScene;
use fnr_serve::{HashRing, RouterConfig, SceneKind, Server};
use fnr_tensor::Precision;

use crate::stages::{self, IterStats, TrainReplay, STAGES};
use crate::util::median;
use crate::{alloc_gate, cluster, repro, serve, Recorded, Report, WorkloadKind};

/// Iterations of the stage replay.
const REPLAY_ITERS: usize = 64;

/// Repetitions of each frame and table timing (median reported).
const FRAME_REPS: usize = 15;
const TABLE_REPS: usize = 3;

/// Gathers every per-layer metric. `workload` selects which end-to-end
/// metric `trace.overhead_frac` compares traced against untraced.
pub fn run(workload: WorkloadKind, seed: u64, seconds: f64, recorded: &Recorded, out: &mut Report) {
    // Allocation counting first, while no other thread is alive.
    let allocs = train_allocs();
    out.metric("train.allocs", allocs as f64);

    let repro_overhead = stage_metrics(out);
    frame_metrics(out);
    out.metric("sim.tables.ms", table_ms());

    let serve_overhead = serve_metrics(workload, seed, seconds, recorded, out);
    let cluster_overhead = cluster_metrics(workload, seed, recorded, out);

    out.metric(
        "trace.overhead_frac",
        match workload {
            WorkloadKind::Repro => repro_overhead,
            WorkloadKind::ServeLive => serve_overhead.expect("measured for serve-live"),
            WorkloadKind::ClusterResilience => cluster_overhead.expect("measured for cluster"),
        },
    );
}

/// Allocations of one Fig. 20(a) `train_ngp` call at pool width 1, where
/// the pool runs inline and the count is exact.
fn train_allocs() -> u64 {
    let width = fnr_par::current_num_threads();
    fnr_par::set_num_threads(1);
    let mut model = stages::fig20a_model();
    let cfg = repro::fig20a_config();
    let count = alloc_gate::count(|| {
        fnr_nerf::train::train_ngp(&MicScene, &mut model, &cfg);
    });
    fnr_par::set_num_threads(width);
    count
}

/// Replays [`REPLAY_ITERS`] Fig. 20(a) training iterations twice — once
/// with every stage call timed, once untimed, interleaved — checks both
/// against `train_ngp`, and reports the stage breakdown. Returns the
/// timers' overhead on the iteration wall time.
fn stage_metrics(out: &mut Report) -> f64 {
    let cfg = fnr_nerf::train::TrainConfig {
        iters: REPLAY_ITERS,
        ..repro::fig20a_config()
    };
    let mut timed = TrainReplay::new(stages::fig20a_model(), cfg);
    let mut plain = TrainReplay::new(stages::fig20a_model(), cfg);
    let mut its: Vec<IterStats> = Vec::with_capacity(REPLAY_ITERS);
    let mut ratios = Vec::with_capacity(REPLAY_ITERS);
    for i in 0..REPLAY_ITERS {
        // Alternate which replay goes first so drift hits both alike.
        let (a, b) = if i % 2 == 0 {
            let a = timed.step::<true>();
            (a, plain.step::<false>())
        } else {
            let b = plain.step::<false>();
            (timed.step::<true>(), b)
        };
        ratios.push(a.wall_ns as f64 / b.wall_ns as f64);
        its.push(a);
    }
    let mut reference = stages::fig20a_model();
    fnr_nerf::train::train_ngp(&MicScene, &mut reference, &cfg);
    if !stages::same_params(&timed.model, &reference)
        || !stages::same_params(&plain.model, &reference)
    {
        out.problem("stage replay diverged from train_ngp".to_string());
    }

    let wall_ns: u64 = its.iter().map(|it| it.wall_ns).sum();
    let wall_ticks: u64 = its.iter().map(|it| it.wall_ticks).sum();
    let ns_per_tick = wall_ns as f64 / wall_ticks as f64;
    let per_iter = |f: &dyn Fn(&IterStats) -> u64| -> f64 {
        median(
            &its.iter()
                .map(|it| f(it) as f64 * ns_per_tick)
                .collect::<Vec<_>>(),
        )
    };
    let iters = REPLAY_ITERS as f64;
    for (k, name) in STAGES.iter().enumerate() {
        out.metric(&format!("{name}.ns"), per_iter(&|it| it.stage_ticks[k]));
        let calls: u64 = its.iter().map(|it| it.calls[k]).sum();
        out.metric(&format!("{name}.calls"), calls as f64 / iters);
    }
    out.metric("train.merge.us", per_iter(&|it| it.merge_ticks) / 1e3);
    out.metric("train.adam.us", per_iter(&|it| it.adam_ticks) / 1e3);
    out.metric("train.pack.us", per_iter(&|it| it.pack_ticks) / 1e3);

    // Shares of the whole replay's wall time.
    let total = |f: &dyn Fn(&IterStats) -> u64| -> f64 {
        its.iter().map(|it| f(it) as f64).sum::<f64>() / wall_ticks as f64
    };
    let serial = total(&|it| it.merge_ticks + it.adam_ticks + it.pack_ticks);
    let gemm = total(&|it| it.stage_ticks[4] + it.stage_ticks[5]);
    let encoding = total(&|it| it.stage_ticks[1] + it.stage_ticks[2] + it.stage_ticks[3]);
    out.metric("train.serial_frac", serial);
    out.metric("breakdown.gemm_frac", gemm);
    out.metric("breakdown.encoding_frac", encoding);
    out.metric("breakdown.other_frac", 1.0 - gemm - encoding);

    median(&ratios) - 1.0
}

/// Median milliseconds of `f` over `reps` calls.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The Fig. 20(a) evaluation frame (32×32, 16 spp) at FP32 and through a
/// prepared INT8 model, and the cost of preparing one serving model.
fn frame_metrics(out: &mut Report) {
    let model = stages::fig20a_model();
    let cam = Camera::look_at(
        fnr_nerf::Vec3::new(1.05, 0.8, 1.05),
        fnr_nerf::Vec3::new(0.5, 0.45, 0.5),
        0.55,
    );
    let (size, spp) = (32, 16);
    out.metric(
        "render.fp32_frame.ms",
        median_ms(FRAME_REPS, || {
            std::hint::black_box(model.render(&cam, size, size, spp, None));
        }),
    );
    let prepared = model.prepare_quantized(Precision::Int8);
    let view = [BatchView {
        camera: cam,
        width: size,
        height: size,
        spp,
    }];
    out.metric(
        "render.quant_frame.ms",
        median_ms(FRAME_REPS, || {
            std::hint::black_box(prepared.render_batch(&view));
        }),
    );
    // The serving cache prepares one model per (scene, INT precision).
    let serving = NgpModel::new(HashGridConfig::small(), 16, SceneKind::Mic.model_seed());
    let precisions = [Precision::Int16, Precision::Int8, Precision::Int4];
    let all = median_ms(FRAME_REPS, || {
        for p in precisions {
            std::hint::black_box(serving.prepare_quantized(p));
        }
    });
    out.metric("render.prepare.ms", all / precisions.len() as f64);
}

/// The 17 fast generators run one after another.
fn table_ms() -> f64 {
    median_ms(TABLE_REPS, || {
        for &(_, generator) in fnr_bench::FAST_TABLE_GENERATORS {
            std::hint::black_box(generator());
        }
    })
}

/// Server-layer metrics from a traced schedule; for `serve-live` also an
/// untraced schedule, returning the traced p50 latency's overhead.
fn serve_metrics(
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    recorded: &Recorded,
    out: &mut Report,
) -> Option<f64> {
    serve::warm();
    let n = serve::requests_for(seconds.min(serve::SHORT_SECONDS));
    let jobs = serve::jobs(seed, n);
    let expected = recorded.serve_digest(seed, &jobs);
    // Each schedule runs on its own fresh server, drained before the next.
    let schedule = |traced: bool| {
        let server = Server::start(&serve::server_config());
        let run = serve::drive(&server.client(), &jobs, traced);
        (run, server.drain())
    };
    let untraced = (workload == WorkloadKind::ServeLive).then(|| schedule(false));
    let (run, report) = schedule(true);
    for (r, rep) in untraced
        .iter()
        .map(|(r, rep)| (r, rep))
        .chain([(&run, &report)])
    {
        out.attempt(n as u64, r.unanswered() as u64);
        for p in serve::check(rep, &jobs, expected) {
            out.problem(p);
        }
    }
    let m = &report.metrics;
    let ms = |ns: u64| ns as f64 / 1e6;
    out.metric(
        "server.submit.us_p99",
        crate::util::percentile(&run.submit_us, 99.0),
    );
    out.metric("server.queue.ms_p50", ms(m.queue_ns.p50));
    out.metric("server.queue.ms_p99", ms(m.queue_ns.p99));
    out.metric("server.service.ms_mean", ms(m.service_ns.mean));
    out.metric("server.service.ms_p95", ms(m.service_ns.p95));
    out.metric("server.occupancy", m.mean_occupancy);
    out.metric(
        "server.timeout_flush_frac",
        m.flushed_timeout as f64 / m.batches.max(1) as f64,
    );
    out.metric("server.first_chunk.ms_p99", ms(m.first_chunk_ns.p99));
    out.metric("server.cpu_us_per_req", run.cpu_s * 1e6 / n as f64);
    out.metric("render_p50_ms", median(&run.window_percentiles(50.0)));
    out.metric("render_p99_ms", median(&run.window_percentiles(99.0)));
    out.metric("render_samples", n as f64);
    out.metric(
        "driver.late.ms_p99",
        crate::util::percentile(&run.late_ms, 99.0),
    );
    let p50 = |r: &serve::ScheduleRun| median(&r.window_percentiles(50.0));
    untraced.map(|(u, _)| p50(&run) / p50(&u) - 1.0)
}

/// Cluster-layer metrics: the resilient replay's counters, the same
/// schedule with resilience off, and the router's per-call cost; for
/// `cluster-resilience` also the traced replay's wall overhead.
fn cluster_metrics(
    workload: WorkloadKind,
    seed: u64,
    recorded: &Recorded,
    out: &mut Report,
) -> Option<f64> {
    let jobs = cluster::jobs(seed, cluster::REQUESTS);
    let untraced = (workload == WorkloadKind::ClusterResilience)
        .then(|| cluster::replay(&cluster::config(true), &jobs));
    let run = cluster::replay(&cluster::config(true), &jobs);
    let plain = cluster::replay(&cluster::config(false), &jobs);
    let expected = recorded.cluster_digest(seed).unwrap_or(run.metrics.digest);
    for r in untraced.iter().chain([&run]) {
        out.attempt(1, 0);
        for p in r.check(expected) {
            out.problem(p);
        }
    }
    out.attempt(1, 0);
    if !plain.metrics.conserves_submitted() {
        out.problem("plain cluster replay broke conservation".to_string());
    }
    let m = &run.metrics;
    out.metric(
        "cluster.replay_us_per_req",
        run.wall_s * 1e6 / m.submitted as f64,
    );
    out.metric("cluster.plain_replay_s", plain.wall_s);
    out.metric("cluster.resilience_overhead_s", run.wall_s - plain.wall_s);
    out.metric("cluster.hedged", m.hedged as f64);
    out.metric(
        "cluster.hedge_won_frac",
        m.hedge_won as f64 / m.hedged.max(1) as f64,
    );
    out.metric("cluster.front_door_shed", m.front_door_shed as f64);
    out.metric("cluster.suspects", m.suspects as f64);

    // The router: one consistent-hash lookup per request key on the
    // cluster's ring.
    let ring = HashRing::new(8, &RouterConfig::default());
    let keys: Vec<u64> = jobs
        .iter()
        .map(|tj| HashRing::key_hash(&tj.job.key()))
        .collect();
    let route_ns = median(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                let hit: usize = keys.iter().filter_map(|&k| ring.route(k, |_| true)).sum();
                std::hint::black_box(hit);
                t.elapsed().as_nanos() as f64 / keys.len() as f64
            })
            .collect::<Vec<_>>(),
    );
    out.metric("router.route.ns", route_ns);
    untraced.map(|u| run.wall_s / u.wall_s - 1.0)
}
