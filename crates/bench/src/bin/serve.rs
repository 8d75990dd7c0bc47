//! Batched render-request serving: seeded load generation against the
//! `fnr_serve` runtime, with a determinism-checkable response digest and
//! priority-lane scheduling.
//!
//! ```text
//! cargo run --release --bin serve                            # 1000-request bursty workload
//! cargo run --release --bin serve -- --requests 200 --pattern uniform
//! cargo run --release --bin serve -- --mode closed --clients 8
//! cargo run --release --bin serve -- --mode virtual --deadline-us 4000
//! cargo run --release --bin serve -- --json SERVE.json      # metrics record
//! cargo run --release --bin serve -- --expect-coalescing    # exit 1 if occupancy <= 1
//! ```
//!
//! The workload is a pure function of `--seed`/`--pattern`/`--requests`
//! (traffic classes come from a separate seeded stream keyed by
//! `--priority-mix`), and every response payload is a pure function of its
//! request, so the `response digest` line is byte-identical at any
//! `FNR_THREADS`, worker count, or machine — CI runs two legs and diffs
//! it. Under `--mode virtual` the whole schedule replays on a virtual
//! clock: the digest *and* every `lane` counter line are deterministic,
//! which is what CI's mixed-priority deadline leg diffs.
//!
//! Knobs: `--requests N`, `--pattern bursty|uniform|heavy|diurnal|flash`,
//! `--seed S`, `--mode open|closed|virtual|cluster`, `--clients K`
//! (closed-loop), `--workers W`, `--queue-capacity C`, `--max-batch B`,
//! `--linger-us U`, `--mean-gap-us U`, `--sched lanes|fifo`,
//! `--priority-mix I,S,B`, `--deadline-us U`, `--service-us U` (virtual
//! batch service time), `--json PATH`, `--expect-coalescing`.
//!
//! Streaming: `--chunks K` splits each render at admission into a fixed
//! row-band partition of up to K independently scheduled chunks; the
//! response-set digest is invariant in K (CI diffs `--chunks 8` against
//! `--chunks 1` byte for byte), and the report gains a `first-chunk
//! latency:` line. `--expect-streaming` exits 1 unless the run actually
//! produced more chunks than whole responses.
//!
//! Robustness knobs: `--faults-live "panic=10,delay=30:150us,seed=7"`
//! seeds a chaos injector (per-mille panic/delay rolls keyed by job
//! hash — the same poisoned set live and virtual), `--retry N` allows N
//! attempts per poisoned request before it resolves `failed`, and
//! `--brownout DEPTH` downgrades Standard/Batch render precision when a
//! lane backlog exceeds DEPTH. Every non-poisoned response stays
//! byte-identical to the fault-free run; CI's chaos soak diffs exactly
//! that, plus the `outcomes:` line, across `FNR_THREADS` widths.
//!
//! Cluster mode (`--mode cluster`) replays the schedule through the
//! N-replica consistent-hash DES (`fnr_serve::cluster`): `--replicas N`,
//! `--faults SPEC` (`kill@500ms:1,restart@900ms:1,slow@1s:2:8,join@2s,`
//! `leave@3s:0`; ns/us/ms/s suffixes) or `--fault-seed S --fault-kills K`
//! for a seeded random plan, `--max-inflight N`, `--cold-start-us U`,
//! `--vnodes V`, `--router-seed S`, `--payload render|synthetic`,
//! `--service-per-item-us U` (size-aware virtual service). Resilience:
//! `--health` turns on the gray-failure detector (suspect replicas lose
//! routing preference), `--hedge-us U` hedges requests un-started after
//! U µs (first completion wins, losers cancelled), `--codel-target-us` /
//! `--codel-interval-us` arm CoDel-style overload admission that sheds
//! Batch-class arrivals at the front door. The `cluster ` / `replica rN:`
//! / `response digest:` lines and the `flexnerfer-cluster-bench/4` JSON
//! are all byte-deterministic at any `FNR_THREADS` — CI's cluster legs
//! diff them.

use std::time::Duration;

use fnr_serve::workload::{generate, total_chunks, ArrivalPattern, WorkloadSpec};
use fnr_serve::{
    run_closed_loop_thinking, run_cluster, run_open_loop, run_virtual,
    AdmissionConfig, BrownoutConfig, ClusterConfig, ClusterService, FaultInjector, FaultPlan,
    HealthConfig, HedgeConfig, PayloadMode, RetryPolicy, RouterConfig, SchedConfig, ServeReport,
    ServerConfig, ThinkTime, VirtualService, MAX_REPLICAS,
};

struct Args {
    requests: usize,
    pattern: ArrivalPattern,
    seed: u64,
    mode: Mode,
    clients: usize,
    workers: usize,
    queue_capacity: usize,
    max_batch: usize,
    linger: Duration,
    mean_gap: Duration,
    think: ThinkKind,
    think_us: u64,
    sched: SchedKind,
    priority_mix: [f64; 3],
    deadline: Option<Duration>,
    service: Duration,
    json: Option<String>,
    expect_coalescing: bool,
    replicas: usize,
    faults: Option<String>,
    fault_seed: u64,
    fault_kills: usize,
    max_inflight: usize,
    cold_start: Duration,
    vnodes: usize,
    router_seed: u64,
    payload: PayloadMode,
    faults_live: Option<String>,
    retry: u32,
    brownout: Option<usize>,
    service_per_item: Duration,
    hedge_us: Option<u64>,
    health: bool,
    codel_target_us: Option<u64>,
    codel_interval_us: Option<u64>,
    chunks: usize,
    expect_streaming: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Open,
    Closed,
    Virtual,
    Cluster,
}

#[derive(Clone, Copy, PartialEq)]
enum ThinkKind {
    None,
    Constant,
    Exponential,
}

#[derive(Clone, Copy, PartialEq)]
enum SchedKind {
    /// Three priority lanes with 4/2/1 weighted-deficit drain.
    Lanes,
    /// Single-lane degenerate config (the pre-scheduler FIFO posture).
    Fifo,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 1000,
        pattern: ArrivalPattern::Bursty,
        seed: 42,
        mode: Mode::Open,
        clients: 8,
        workers: 2,
        queue_capacity: 256,
        max_batch: 8,
        linger: Duration::from_millis(2),
        mean_gap: Duration::from_micros(150),
        think: ThinkKind::None,
        think_us: 200,
        sched: SchedKind::Lanes,
        priority_mix: [0.25, 0.5, 0.25],
        deadline: None,
        service: Duration::from_micros(500),
        json: None,
        expect_coalescing: false,
        replicas: 4,
        faults: None,
        fault_seed: 7,
        fault_kills: 0,
        max_inflight: 1024,
        cold_start: Duration::from_millis(2),
        vnodes: 64,
        router_seed: 0,
        payload: PayloadMode::Render,
        faults_live: None,
        retry: 1,
        brownout: None,
        service_per_item: Duration::ZERO,
        hedge_us: None,
        health: false,
        codel_target_us: None,
        codel_interval_us: None,
        chunks: 1,
        expect_streaming: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let operand = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i).unwrap_or_else(|| usage(&format!("{flag} requires an operand"))).clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--requests" => args.requests = parse_num(&operand(&mut i, "--requests")),
            "--pattern" => {
                let p = operand(&mut i, "--pattern");
                args.pattern = ArrivalPattern::parse(&p)
                    .unwrap_or_else(|| usage(&format!("unknown pattern `{p}`")));
            }
            "--seed" => args.seed = parse_num(&operand(&mut i, "--seed")) as u64,
            "--mode" => match operand(&mut i, "--mode").as_str() {
                "open" => args.mode = Mode::Open,
                "closed" => args.mode = Mode::Closed,
                "virtual" => args.mode = Mode::Virtual,
                "cluster" => args.mode = Mode::Cluster,
                m => usage(&format!("unknown mode `{m}` (open|closed|virtual|cluster)")),
            },
            "--clients" => args.clients = parse_num(&operand(&mut i, "--clients")).max(1),
            "--workers" => args.workers = parse_num(&operand(&mut i, "--workers")).max(1),
            "--queue-capacity" => args.queue_capacity = parse_num(&operand(&mut i, "--queue-capacity")),
            "--max-batch" => args.max_batch = parse_num(&operand(&mut i, "--max-batch")).max(1),
            "--linger-us" => {
                args.linger = Duration::from_micros(parse_num(&operand(&mut i, "--linger-us")) as u64)
            }
            "--mean-gap-us" => {
                args.mean_gap =
                    Duration::from_micros(parse_num(&operand(&mut i, "--mean-gap-us")) as u64)
            }
            "--think" => match operand(&mut i, "--think").as_str() {
                "none" => args.think = ThinkKind::None,
                "constant" => args.think = ThinkKind::Constant,
                "exp" | "exponential" => args.think = ThinkKind::Exponential,
                t => usage(&format!("unknown think model `{t}` (none|constant|exp)")),
            },
            "--think-us" => args.think_us = parse_num(&operand(&mut i, "--think-us")) as u64,
            "--sched" => match operand(&mut i, "--sched").as_str() {
                "lanes" | "priority" => args.sched = SchedKind::Lanes,
                "fifo" | "single" => args.sched = SchedKind::Fifo,
                s => usage(&format!("unknown scheduler `{s}` (lanes|fifo)")),
            },
            "--priority-mix" => {
                let spec = operand(&mut i, "--priority-mix");
                let parts: Vec<f64> = spec
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad weight `{p}` in --priority-mix")))
                    })
                    .collect();
                if parts.len() != 3 || parts.iter().any(|&w| w < 0.0) || parts.iter().sum::<f64>() <= 0.0 {
                    usage("--priority-mix wants three non-negative weights, e.g. 0.3,0.5,0.2");
                }
                args.priority_mix = [parts[0], parts[1], parts[2]];
            }
            "--deadline-us" => {
                args.deadline =
                    Some(Duration::from_micros(parse_num(&operand(&mut i, "--deadline-us")) as u64))
            }
            "--service-us" => {
                args.service =
                    Duration::from_micros(parse_num(&operand(&mut i, "--service-us")).max(1) as u64)
            }
            "--json" => args.json = Some(operand(&mut i, "--json")),
            "--expect-coalescing" => args.expect_coalescing = true,
            "--replicas" => {
                let n = parse_num(&operand(&mut i, "--replicas"));
                if !(1..=MAX_REPLICAS).contains(&n) {
                    usage(&format!(
                        "--replicas {n} is out of range (the ring supports 1..={MAX_REPLICAS} replicas)"
                    ));
                }
                args.replicas = n;
            }
            "--faults" => args.faults = Some(operand(&mut i, "--faults")),
            "--fault-seed" => args.fault_seed = parse_num(&operand(&mut i, "--fault-seed")) as u64,
            "--fault-kills" => args.fault_kills = parse_num(&operand(&mut i, "--fault-kills")),
            "--max-inflight" => {
                args.max_inflight = parse_num(&operand(&mut i, "--max-inflight")).max(1)
            }
            "--cold-start-us" => {
                args.cold_start =
                    Duration::from_micros(parse_num(&operand(&mut i, "--cold-start-us")) as u64)
            }
            "--vnodes" => args.vnodes = parse_num(&operand(&mut i, "--vnodes")).max(1),
            "--router-seed" => args.router_seed = parse_num(&operand(&mut i, "--router-seed")) as u64,
            "--payload" => {
                let p = operand(&mut i, "--payload");
                args.payload = PayloadMode::parse(&p)
                    .unwrap_or_else(|| usage(&format!("unknown payload mode `{p}` (render|synthetic)")));
            }
            "--faults-live" => args.faults_live = Some(operand(&mut i, "--faults-live")),
            "--retry" => args.retry = parse_num(&operand(&mut i, "--retry")).max(1) as u32,
            "--brownout" => args.brownout = Some(parse_num(&operand(&mut i, "--brownout"))),
            "--service-per-item-us" => {
                args.service_per_item = Duration::from_micros(
                    parse_num(&operand(&mut i, "--service-per-item-us")) as u64,
                )
            }
            "--hedge-us" => {
                args.hedge_us = Some(parse_num(&operand(&mut i, "--hedge-us")).max(1) as u64)
            }
            "--health" => args.health = true,
            "--codel-target-us" => {
                args.codel_target_us = Some(parse_num(&operand(&mut i, "--codel-target-us")) as u64)
            }
            "--codel-interval-us" => {
                args.codel_interval_us =
                    Some(parse_num(&operand(&mut i, "--codel-interval-us")) as u64)
            }
            "--chunks" => args.chunks = parse_num(&operand(&mut i, "--chunks")).max(1),
            "--expect-streaming" => args.expect_streaming = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    args
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| usage(&format!("`{s}` is not a number")))
}

fn usage(msg: &str) -> ! {
    eprintln!("[serve] {msg}");
    eprintln!(
        "usage: serve [--requests N] [--pattern bursty|uniform|heavy|diurnal|flash] [--seed S] \
         [--mode open|closed|virtual|cluster] [--clients K] [--workers W] [--queue-capacity C] \
         [--max-batch B] [--linger-us U] [--mean-gap-us U] \
         [--think none|constant|exp] [--think-us U] [--sched lanes|fifo] \
         [--priority-mix I,S,B] [--deadline-us U] [--service-us U] \
         [--json PATH] [--expect-coalescing] \
         [--replicas N] [--faults SPEC] [--fault-seed S] [--fault-kills K] \
         [--max-inflight N] [--cold-start-us U] [--vnodes V] [--router-seed S] \
         [--payload render|synthetic] [--service-per-item-us U] [--hedge-us U] [--health] \
         [--codel-target-us U] [--codel-interval-us U] \
         [--faults-live panic=PM,delay=PM:DUR,seed=S] [--retry N] [--brownout DEPTH] \
         [--chunks K] [--expect-streaming]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let spec = WorkloadSpec {
        requests: args.requests,
        seed: args.seed,
        pattern: args.pattern,
        table_names: fnr_bench::serving::table_names(),
        mean_gap: args.mean_gap,
        priority_mix: args.priority_mix,
        deadline: args.deadline,
        ..WorkloadSpec::default()
    };
    let jobs = generate(&spec);
    // A seeded chaos injector shared by live workers and the virtual
    // pipeline: the poisoned-request set is a pure function of the spec,
    // so CI can diff the surviving responses across thread widths.
    let injector = args
        .faults_live
        .as_deref()
        .map(|spec| FaultInjector::parse(spec).unwrap_or_else(|e| usage(&e)));
    let cfg = ServerConfig {
        queue_capacity: args.queue_capacity,
        workers: args.workers,
        max_batch: args.max_batch,
        linger: args.linger,
        sched: match args.sched {
            SchedKind::Lanes => SchedConfig::priority_lanes(),
            SchedKind::Fifo => SchedConfig::single_lane(),
        },
        tables: fnr_bench::serving::table_registry(),
        retry: RetryPolicy { max_attempts: args.retry, ..RetryPolicy::default() },
        brownout: match args.brownout {
            Some(depth) => BrownoutConfig {
                enabled: true,
                engage_depth: depth,
                release_depth: depth / 4,
            },
            None => BrownoutConfig::default(),
        },
        injector,
        chunks: args.chunks,
        ..ServerConfig::default()
    };

    eprintln!(
        "[serve] {} requests, {} arrivals, {} loop, {} workers, max batch {}, {} scheduler",
        args.requests,
        args.pattern.name(),
        match args.mode {
            Mode::Open => "open",
            Mode::Closed => "closed",
            Mode::Virtual => "virtual",
            Mode::Cluster => "cluster",
        },
        args.workers,
        args.max_batch,
        match args.sched {
            SchedKind::Lanes => "priority-lane",
            SchedKind::Fifo => "single-lane",
        },
    );
    if args.mode == Mode::Cluster {
        run_cluster_mode(&args, &jobs, cfg);
        return;
    }
    let think = match args.think {
        ThinkKind::None => ThinkTime::None,
        ThinkKind::Constant => ThinkTime::Constant(Duration::from_micros(args.think_us)),
        ThinkKind::Exponential => {
            ThinkTime::Exponential { mean: Duration::from_micros(args.think_us) }
        }
    };
    let report: ServeReport = match args.mode {
        Mode::Open => run_open_loop(&cfg, &jobs),
        // Think-time streams derive from the workload seed, so a closed-loop
        // run's sleep schedule is reproducible end to end.
        Mode::Closed => run_closed_loop_thinking(&cfg, &jobs, args.clients, think, args.seed),
        Mode::Virtual => run_virtual(
            &cfg,
            &jobs,
            VirtualService {
                service_ns: args.service.as_nanos() as u64,
                per_item_ns: args.service_per_item.as_nanos() as u64,
            },
        ),
        Mode::Cluster => unreachable!("cluster mode returned above"),
    };

    let m = &report.metrics;
    println!("# fnr_serve — batched render-request serving report\n");
    println!("workload: {} requests ({} arrivals, seed {})", args.requests, args.pattern.name(), args.seed);
    println!(
        "answered: {} responses in {} batches ({} rejected, {} shed, {} expired)",
        m.requests, m.batches, m.rejected, m.shed, m.expired
    );
    println!(
        "streaming: {} chunks requested, {} chunks served",
        args.chunks, m.chunks_served
    );
    // Greppable robustness roll-up: CI's chaos legs diff the
    // width-invariant fields (served/failed/degraded; retried is
    // deterministic too, worker restarts are timing-dependent and live
    // on their own line).
    println!(
        "outcomes: served {} failed {} retried {} degraded {}",
        m.requests, m.failed, m.retried, m.degraded
    );
    println!(
        "supervision: {} worker restarts, breaker opened {} (half-open probes {})",
        m.worker_restarts, m.breaker_opened, m.breaker_half_open_probes
    );
    for lane in &m.lanes {
        // One greppable line per lane: CI's virtual leg diffs these (and
        // the digest) byte for byte between its serial/parallel runs.
        println!(
            "lane {}[w{}]: submitted {} served {} shed {} expired {} rejected {} failed {} degraded {}",
            lane.name, lane.weight, lane.submitted, lane.served, lane.shed, lane.expired,
            lane.rejected, lane.failed, lane.degraded
        );
    }
    println!("batch occupancy: {:.3} mean ({:.3} on the coalescable portion)", m.mean_occupancy, m.coalescable_occupancy);
    println!("flushes: {} size / {} timeout / {} drain", m.flushed_size, m.flushed_timeout, m.flushed_drain);
    println!(
        "queue latency: mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        m.queue_ns.mean as f64 / 1e6,
        m.queue_ns.p50 as f64 / 1e6,
        m.queue_ns.p95 as f64 / 1e6,
        m.queue_ns.max as f64 / 1e6
    );
    println!(
        "batch service: mean {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        m.service_ns.mean as f64 / 1e6,
        m.service_ns.p95 as f64 / 1e6,
        m.service_ns.max as f64 / 1e6
    );
    // Time to first byte vs time to whole render — the streaming win CI
    // greps (`first-chunk latency: .* p99 `).
    println!(
        "first-chunk latency: mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        m.first_chunk_ns.mean as f64 / 1e6,
        m.first_chunk_ns.p50 as f64 / 1e6,
        m.first_chunk_ns.p95 as f64 / 1e6,
        m.first_chunk_ns.p99 as f64 / 1e6,
        m.first_chunk_ns.max as f64 / 1e6
    );
    println!(
        "full-render latency: mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        m.render_ns.mean as f64 / 1e6,
        m.render_ns.p50 as f64 / 1e6,
        m.render_ns.p95 as f64 / 1e6,
        m.render_ns.p99 as f64 / 1e6,
        m.render_ns.max as f64 / 1e6
    );
    println!("wall: {:.1} ms, workers {}, fnr_par threads {}", m.wall_ns as f64 / 1e6, m.workers, m.threads);
    println!("response digest: {:#018x} over {} responses", m.digest, report.responses.len());

    if let Some(path) = args.json {
        if let Err(e) = std::fs::write(&path, m.to_json()) {
            eprintln!("[serve] failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[serve] wrote metrics to {path}");
    }

    // Conservation is chunk-granular: every admitted chunk unit must be
    // served, rejected, shed, or failed, and whole responses must match
    // the fully-served parent count.
    let chunk_units = total_chunks(&jobs, args.chunks);
    if report.responses.len() != m.requests
        || m.chunks_served + m.rejected + m.shed + m.failed != chunk_units
    {
        eprintln!(
            "[serve] chunk accounting broken: {} served + {} rejected + {} shed + {} failed != {} \
             ({} responses, {} whole requests)",
            m.chunks_served,
            m.rejected,
            m.shed,
            m.failed,
            chunk_units,
            report.responses.len(),
            m.requests
        );
        std::process::exit(1);
    }
    if args.expect_coalescing && m.coalescable_occupancy <= 1.0 {
        eprintln!(
            "[serve] coalescable occupancy {:.3} <= 1.0 — the batcher failed to coalesce",
            m.coalescable_occupancy
        );
        std::process::exit(1);
    }
    if args.expect_streaming && (args.chunks < 2 || m.chunks_served <= m.requests) {
        eprintln!(
            "[serve] streaming expected but not observed: {} chunks served over {} responses \
             (--chunks {})",
            m.chunks_served, m.requests, args.chunks
        );
        std::process::exit(1);
    }
}

/// Cluster mode: replay the schedule through the N-replica DES, print the
/// greppable `cluster:` / `replica rN:` / digest lines CI diffs, and emit
/// the `flexnerfer-cluster-bench/4` record.
fn run_cluster_mode(args: &Args, jobs: &[fnr_serve::workload::TimedJob], server: ServerConfig) {
    let faults = if let Some(spec) = &args.faults {
        FaultPlan::parse(spec).unwrap_or_else(|e| usage(&e))
    } else if args.fault_kills > 0 {
        // Seeded plan over the schedule's nominal span (requests x mean
        // gap) — a pure function of the CLI arguments.
        let horizon_ns = args.requests as u64 * args.mean_gap.as_nanos() as u64;
        FaultPlan::seeded(args.fault_seed, args.replicas, horizon_ns, args.fault_kills)
    } else {
        FaultPlan::none()
    };
    faults.validate_for(args.replicas).unwrap_or_else(|e| usage(&e));
    let fault_events = faults.events().len();
    let admission_on = args.codel_target_us.is_some() || args.codel_interval_us.is_some();
    let cfg = ClusterConfig {
        replicas: args.replicas,
        server,
        router: RouterConfig { vnodes: args.vnodes, seed: args.router_seed },
        max_inflight: args.max_inflight,
        service: ClusterService {
            service_ns: args.service.as_nanos() as u64,
            per_item_ns: args.service_per_item.as_nanos() as u64,
            cold_start_ns: args.cold_start.as_nanos() as u64,
        },
        faults,
        payload: args.payload,
        // The live/virtual chaos injector rides in via `server.injector`;
        // a cluster-level override is only for programmatic callers.
        injector: None,
        health: HealthConfig { enabled: args.health, ..HealthConfig::default() },
        hedge: match args.hedge_us {
            Some(us) => HedgeConfig { delay_ns: us.saturating_mul(1_000) },
            None => HedgeConfig::disabled(),
        },
        admission: AdmissionConfig {
            enabled: admission_on,
            target_ns: args
                .codel_target_us
                .map_or(AdmissionConfig::default().target_ns, |us| us.saturating_mul(1_000)),
            interval_ns: args
                .codel_interval_us
                .map_or(AdmissionConfig::default().interval_ns, |us| us.saturating_mul(1_000)),
        },
    };
    eprintln!(
        "[serve] cluster: {} replicas, {} vnodes, inflight bound {}, {} fault events, {} payloads{}{}{}",
        cfg.replicas,
        cfg.router.vnodes,
        cfg.max_inflight,
        fault_events,
        match cfg.payload {
            PayloadMode::Render => "render",
            PayloadMode::Synthetic => "synthetic",
        },
        if cfg.health.enabled { ", health detector on" } else { "" },
        if cfg.hedge.enabled() { ", hedging on" } else { "" },
        if cfg.admission.enabled { ", codel admission on" } else { "" },
    );

    let report = run_cluster(&cfg, jobs);
    let m = &report.metrics;
    println!("# fnr_serve — cluster simulation report\n");
    println!(
        "workload: {} requests ({} arrivals, seed {})",
        args.requests,
        args.pattern.name(),
        args.seed
    );
    // Greppable, byte-deterministic lines: CI's cluster leg diffs every
    // `cluster ` / `replica ` / `response digest` line between its
    // FNR_THREADS=1 and default runs.
    println!(
        "cluster totals: submitted {} chunks {} completed {} served {} shed {} front-door {} \
         overload {} expired {} rejected {} failed {} failed-over {} kills {} restarts {}",
        m.submitted,
        m.submitted_chunks,
        m.completed,
        m.served,
        m.shed,
        m.front_door_shed,
        m.overload_shed,
        m.expired,
        m.rejected,
        m.failed,
        m.failed_over,
        m.kills,
        m.restarts
    );
    println!(
        "cluster resilience: hedged {} hedge-won {} hedge-wasted {} suspects {} joins {} leaves {}",
        m.hedged, m.hedge_won, m.hedge_wasted, m.suspects, m.joins, m.leaves
    );
    for r in &m.replicas {
        println!(
            "replica r{}: {} routed {} served {} shed {} expired {} rejected {} failed {} fo-in {} \
             fo-out {} cache {}/{} kills {} restarts {} suspects {} slow x{} digest {:#018x}",
            r.replica,
            if !r.alive {
                "dead"
            } else if r.departed {
                "departed"
            } else {
                "alive"
            },
            r.routed,
            r.metrics.chunks_served,
            r.metrics.shed,
            r.metrics.expired,
            r.metrics.rejected,
            r.metrics.failed,
            r.failed_over_in,
            r.failed_over_out,
            r.cache_hits,
            r.cache_misses,
            r.kills,
            r.restarts,
            r.suspects,
            r.slow_factor,
            r.metrics.digest
        );
    }
    println!(
        "cluster latency hist: {:?} over {} samples",
        m.latency_hist.counts(),
        m.latency_hist.total()
    );
    println!(
        "cluster first-chunk hist: {:?} over {} samples",
        m.first_chunk_hist.counts(),
        m.first_chunk_hist.total()
    );
    println!("wall: {:.1} ms (virtual), fnr_par threads {}", m.wall_ns as f64 / 1e6, m.threads);
    println!("response digest: {:#018x} over {} responses", m.digest, report.responses.len());

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, m.to_json()) {
            eprintln!("[serve] failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[serve] wrote cluster metrics to {path}");
    }

    if !m.conserves_submitted() || report.responses.len() != m.completed {
        eprintln!(
            "[serve] cluster accounting broken: {} served + {} shed + {} rejected + {} failed + \
             {} front-door != {} submitted chunks (responses {}, completed {})",
            m.served,
            m.shed,
            m.rejected,
            m.failed,
            m.front_door_shed,
            m.submitted_chunks,
            report.responses.len(),
            m.completed
        );
        std::process::exit(1);
    }
    if args.expect_streaming && (args.chunks < 2 || m.served <= m.completed) {
        eprintln!(
            "[serve] streaming expected but not observed: {} chunks served over {} completed \
             (--chunks {})",
            m.served, m.completed, args.chunks
        );
        std::process::exit(1);
    }
}
