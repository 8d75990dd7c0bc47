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
//! Every flag is one entry of the [`FLAGS`] table: its name, the operand
//! hint of the usage line, and the parser that writes it straight into
//! the `fnr_serve` config it sets. The parse loop and the usage line both
//! come from that table; a malformed flag or operand prints the reason
//! and the usage line (`serve --no-such-flag` shows it) and exits 2.
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
//! Streaming: `--chunks K` splits each render at admission into a fixed
//! row-band partition of up to K independently scheduled chunks; the
//! response-set digest is invariant in K (CI diffs `--chunks 8` against
//! `--chunks 1` byte for byte), and the report gains a `first-chunk
//! latency:` line. `--expect-streaming` exits 1 unless the run actually
//! produced more chunks than whole responses.
//!
//! Robustness: `--faults-live` seeds a chaos injector (per-mille
//! panic/delay rolls keyed by job hash — the same poisoned set live and
//! virtual), `--retry N` allows N attempts per poisoned request before it
//! resolves `failed`, and `--brownout DEPTH` downgrades Standard/Batch
//! render precision when a lane backlog exceeds DEPTH. Every non-poisoned
//! response stays byte-identical to the fault-free run; CI's chaos soak
//! diffs exactly that, plus the `outcomes:` line, across `FNR_THREADS`
//! widths.
//!
//! Cluster mode (`--mode cluster`) replays the schedule through the
//! N-replica consistent-hash DES (`fnr_serve::cluster`). Its fault plan is
//! `--faults SPEC` (`kill@500ms:1,restart@900ms:1,slow@1s:2:8,join@2s,`
//! `leave@3s:0`; ns/us/ms/s suffixes) or, with `--fault-kills K`, a plan
//! seeded by `--fault-seed` over the schedule's nominal span. `--health`
//! turns on the gray-failure detector, `--hedge-us U` hedges requests
//! un-started after U µs, and either CoDel flag arms overload admission
//! that sheds Batch-class arrivals at the front door. The `cluster ` /
//! `replica rN:` / `response digest:` lines and the
//! `flexnerfer-cluster-bench/4` JSON are all byte-deterministic at any
//! `FNR_THREADS` — CI's cluster legs diff them.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use fnr_serve::workload::{generate, total_chunks, ArrivalPattern, TimedJob, WorkloadSpec};
use fnr_serve::{
    run_closed_loop_thinking, run_cluster, run_open_loop, run_virtual, BrownoutConfig,
    ClusterConfig, FaultInjector, FaultPlan, HedgeConfig, NsStats, PayloadMode, SchedConfig,
    ServerConfig, ThinkTime, VirtualService, MAX_REPLICAS,
};

/// Upper bound on `--clients` and `--workers`: the closed loop starts one
/// OS thread per client and the live server one per worker.
const MAX_THREADS: usize = 1024;

/// Upper bound on `--requests`: the workload is generated up front, one
/// entry per request (2^24, above the million-request CI legs).
const MAX_REQUESTS: usize = 1 << 24;

/// Upper bound on `--vnodes`: the ring holds `replicas × vnodes` points.
const MAX_VNODES: usize = 4096;

/// Upper bound on `--fault-kills`: the seeded plan holds two events per kill.
const MAX_FAULT_KILLS: usize = 1 << 20;

/// A think-time model awaiting its `--think-us` mean.
type Think = fn(Duration) -> ThinkTime;

/// One `serve` invocation. Flags write straight into the library configs:
/// `spec` is the workload, `cluster.server` the server every mode runs,
/// `cluster.service` also the virtual mode's service times. The fault
/// plan alone is resolved after the parse (see [`cluster_plan`]).
struct Cli {
    spec: WorkloadSpec,
    cluster: ClusterConfig,
    /// `open`, `closed`, `virtual` or `cluster`.
    mode: &'static str,
    clients: usize,
    think: Think,
    think_mean: Duration,
    /// `--faults`, which wins over a seeded plan.
    faults: Option<FaultPlan>,
    fault_seed: u64,
    fault_kills: usize,
    json: Option<String>,
    expect_coalescing: bool,
    expect_streaming: bool,
}

impl Default for Cli {
    fn default() -> Self {
        let server = ServerConfig {
            queue_capacity: 256,
            tables: fnr_bench::serving::table_registry(),
            ..ServerConfig::default()
        };
        Cli {
            spec: WorkloadSpec { table_names: fnr_bench::serving::table_names(), ..Default::default() },
            cluster: ClusterConfig { server, ..ClusterConfig::default() },
            mode: "open",
            clients: 8,
            think: |_| ThinkTime::None,
            think_mean: Duration::from_micros(200),
            faults: None, fault_seed: 7, fault_kills: 0,
            json: None, expect_coalescing: false, expect_streaming: false,
        }
    }
}

/// Writes one flag's operand into the [`Cli`], or says why it cannot.
type Setter = fn(&mut Cli, &str) -> Result<(), String>;

/// Every flag: name, operand hint (empty for a switch, which takes no
/// operand) and parser.
static FLAGS: &[(&str, &str, Setter)] = &[
    ("--requests", "N", |c, s| upto(s, MAX_REQUESTS).map(|v| c.spec.requests = v)),
    ("--pattern", "bursty|uniform|heavy|diurnal|flash", |c, s| {
        ArrivalPattern::parse(s).map(|p| c.spec.pattern = p).ok_or_else(|| format!("unknown pattern `{s}`"))
    }),
    ("--seed", "S", |c, s| num(s).map(|v| c.spec.seed = v)),
    ("--mode", "open|closed|virtual|cluster", |c, s| {
        let mode = ["open", "closed", "virtual", "cluster"].into_iter().find(|&m| m == s);
        mode.map(|m| c.mode = m).ok_or_else(|| format!("unknown mode `{s}`"))
    }),
    ("--clients", "K", |c, s| upto(s, MAX_THREADS).map(|v| c.clients = v.max(1))),
    ("--workers", "W", |c, s| upto(s, MAX_THREADS).map(|v| c.cluster.server.workers = v.max(1))),
    ("--queue-capacity", "C", |c, s| num(s).map(|v| c.cluster.server.queue_capacity = v)),
    ("--max-batch", "B", |c, s| num(s).map(|v: usize| c.cluster.server.max_batch = v.max(1))),
    ("--linger-us", "U", |c, s| micros(s).map(|d| c.cluster.server.linger = d)),
    ("--mean-gap-us", "U", |c, s| micros(s).map(|d| c.spec.mean_gap = d)),
    ("--think", "none|constant|exp", |c, s| {
        c.think = match s {
            "none" => |_| ThinkTime::None,
            "constant" => ThinkTime::Constant,
            "exp" | "exponential" => |mean| ThinkTime::Exponential { mean },
            _ => return Err(format!("unknown think model `{s}`")),
        };
        Ok(())
    }),
    ("--think-us", "U", |c, s| micros(s).map(|d| c.think_mean = d)),
    ("--sched", "lanes|fifo", |c, s| {
        c.cluster.server.sched = match s {
            "lanes" | "priority" => SchedConfig::priority_lanes(),
            "fifo" | "single" => SchedConfig::single_lane(),
            _ => return Err(format!("unknown scheduler `{s}`")),
        };
        Ok(())
    }),
    ("--priority-mix", "I,S,B", |c, s| {
        let w: Vec<f64> = s.split(',').map(|p| num(p.trim())).collect::<Result<_, _>>()?;
        let sum: f64 = w.iter().sum();
        if w.len() != 3 || w.iter().any(|&x| x < 0.0) || !(sum > 0.0 && sum.is_finite()) {
            return Err("wants three finite non-negative weights, e.g. 0.3,0.5,0.2".into());
        }
        c.spec.priority_mix = [w[0], w[1], w[2]];
        Ok(())
    }),
    ("--deadline-us", "U", |c, s| micros(s).map(|d| c.spec.deadline = Some(d))),
    ("--service-us", "U", |c, s| {
        num(s).map(|us: u64| c.cluster.service.service_ns = us.max(1).saturating_mul(1_000))
    }),
    ("--json", "PATH", |c, s| { c.json = Some(s.to_string()); Ok(()) }),
    ("--expect-coalescing", "", |c, _| { c.expect_coalescing = true; Ok(()) }),
    ("--replicas", "N", |c, s| match num(s)? {
        n @ 1..=MAX_REPLICAS => {
            c.cluster.replicas = n;
            Ok(())
        }
        n => Err(format!("{n} is out of range (the ring supports 1..={MAX_REPLICAS} replicas)")),
    }),
    ("--faults", "SPEC", |c, s| FaultPlan::parse(s).map(|p| c.faults = Some(p))),
    ("--fault-seed", "S", |c, s| num(s).map(|v| c.fault_seed = v)),
    ("--fault-kills", "K", |c, s| upto(s, MAX_FAULT_KILLS).map(|v| c.fault_kills = v)),
    ("--max-inflight", "N", |c, s| num(s).map(|v: usize| c.cluster.max_inflight = v.max(1))),
    ("--cold-start-us", "U", |c, s| nanos(s).map(|ns| c.cluster.service.cold_start_ns = ns)),
    ("--vnodes", "V", |c, s| upto(s, MAX_VNODES).map(|v| c.cluster.router.vnodes = v.max(1))),
    ("--router-seed", "S", |c, s| num(s).map(|v| c.cluster.router.seed = v)),
    ("--payload", "render|synthetic", |c, s| {
        PayloadMode::parse(s).map(|p| c.cluster.payload = p).ok_or_else(|| format!("unknown payload `{s}`"))
    }),
    ("--service-per-item-us", "U", |c, s| nanos(s).map(|ns| c.cluster.service.per_item_ns = ns)),
    ("--hedge-us", "U", |c, s| {
        num(s).map(|us: u64| c.cluster.hedge = HedgeConfig { delay_ns: us.max(1).saturating_mul(1_000) })
    }),
    ("--health", "", |c, _| { c.cluster.health.enabled = true; Ok(()) }),
    ("--codel-target-us", "U", |c, s| {
        let a = &mut c.cluster.admission;
        nanos(s).map(|ns| (a.target_ns, a.enabled) = (ns, true))
    }),
    ("--codel-interval-us", "U", |c, s| {
        let a = &mut c.cluster.admission;
        nanos(s).map(|ns| (a.interval_ns, a.enabled) = (ns, true))
    }),
    ("--faults-live", "panic=PM,delay=PM:DUR,seed=S", |c, s| {
        FaultInjector::parse(s).map(|inj| c.cluster.server.injector = Some(inj))
    }),
    ("--retry", "N", |c, s| num(s).map(|n: u32| c.cluster.server.retry.max_attempts = n.max(1))),
    ("--brownout", "DEPTH", |c, s| {
        let on = |depth| BrownoutConfig { enabled: true, engage_depth: depth, release_depth: depth / 4 };
        num(s).map(|depth| c.cluster.server.brownout = on(depth))
    }),
    ("--chunks", "K", |c, s| num(s).map(|v: usize| c.cluster.server.chunks = v.max(1))),
    ("--expect-streaming", "", |c, _| { c.expect_streaming = true; Ok(()) }),
];

fn num<T: FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn upto(s: &str, max: usize) -> Result<usize, String> {
    match num(s)? {
        n if n <= max => Ok(n),
        n => Err(format!("{n} is out of range (at most {max})")),
    }
}

fn micros(s: &str) -> Result<Duration, String> {
    num(s).map(Duration::from_micros)
}

fn nanos(s: &str) -> Result<u64, String> {
    num(s).map(|us: u64| us.saturating_mul(1_000))
}

/// Why an argv was refused.
#[derive(Debug, PartialEq)]
enum ParseError {
    /// A flag the table does not have.
    Unknown(String),
    /// A flag that takes an operand came last.
    Missing(&'static str),
    /// The flag's parser refused its operand, for the given reason.
    Bad(&'static str, String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Unknown(flag) => write!(f, "unknown flag `{flag}`"),
            ParseError::Missing(flag) => write!(f, "{flag} requires an operand"),
            ParseError::Bad(flag, why) => write!(f, "{flag}: {why}"),
        }
    }
}

fn parse(argv: &[String]) -> Result<Cli, ParseError> {
    let mut cli = Cli::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let &(flag, hint, set) =
            FLAGS.iter().find(|f| f.0 == arg).ok_or_else(|| ParseError::Unknown(arg.clone()))?;
        let operand = if hint.is_empty() { "" } else { args.next().ok_or(ParseError::Missing(flag))? };
        set(&mut cli, operand).map_err(|why| ParseError::Bad(flag, why))?;
    }
    Ok(cli)
}

fn usage() -> String {
    let flag = |&(f, hint, _): &(&str, &str, Setter)| match hint {
        "" => format!(" [{f}]"),
        _ => format!(" [{f} {hint}]"),
    };
    format!("usage: serve{}", FLAGS.iter().map(flag).collect::<String>())
}

/// The cluster's fault plan: `--faults` if given, else `--fault-kills`
/// kills seeded by `--fault-seed` over the schedule's nominal span
/// (requests × mean gap), checked against the replica count.
fn cluster_plan(cli: &Cli) -> Result<FaultPlan, ParseError> {
    let plan = match &cli.faults {
        Some(plan) => plan.clone(),
        None if cli.fault_kills > 0 => {
            let gap_ns = u64::try_from(cli.spec.mean_gap.as_nanos()).unwrap_or(u64::MAX);
            let horizon_ns = (cli.spec.requests as u64).saturating_mul(gap_ns);
            FaultPlan::seeded(cli.fault_seed, cli.cluster.replicas, horizon_ns, cli.fault_kills)
        }
        None => FaultPlan::none(),
    };
    plan.validate_for(cli.cluster.replicas).map_err(|e| ParseError::Bad("--faults", e))?;
    Ok(plan)
}

/// What a mode hands `main`'s shared tail: its JSON record and label,
/// the self-checks it failed, and its served chunk and whole-response
/// counts for `--expect-streaming`.
struct Tail {
    json: String,
    label: &'static str,
    failures: Vec<String>,
    chunks: usize,
    whole: usize,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse(&argv).and_then(|mut cli| {
        if cli.mode == "cluster" {
            cli.cluster.faults = cluster_plan(&cli)?;
        }
        Ok(cli)
    });
    let cli = parsed.unwrap_or_else(|e| {
        eprintln!("[serve] {e}\n{}", usage());
        std::process::exit(2);
    });
    let jobs = generate(&cli.spec);
    let server = &cli.cluster.server;
    eprintln!(
        "[serve] {} requests, {} arrivals, {} loop, {} workers, max batch {}, {} scheduler",
        cli.spec.requests,
        cli.spec.pattern.name(),
        cli.mode,
        server.workers,
        server.max_batch,
        if server.sched.lanes.len() == 1 { "single-lane" } else { "priority-lane" },
    );
    let mut tail = if cli.mode == "cluster" { cluster_mode(&cli, &jobs) } else { serve_mode(&cli, &jobs) };

    if let Some(path) = &cli.json {
        if let Err(e) = std::fs::write(path, &tail.json) {
            eprintln!("[serve] failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[serve] wrote {} to {path}", tail.label);
    }
    if cli.expect_streaming && (server.chunks < 2 || tail.chunks <= tail.whole) {
        tail.failures.push(format!(
            "streaming expected but not observed: {} chunks served over {} whole responses \
             (--chunks {})",
            tail.chunks, tail.whole, server.chunks
        ));
    }
    if let Some(failure) = tail.failures.first() {
        eprintln!("[serve] {failure}");
        std::process::exit(1);
    }
}

/// `label: mean X ms, ...` over the named percentiles of `s`.
fn latency_line(label: &str, s: &NsStats, keys: &[&str]) {
    let all = [("mean", s.mean), ("p50", s.p50), ("p95", s.p95), ("p99", s.p99), ("max", s.max)];
    let ms = |&(k, ns): &(&str, u64)| keys.contains(&k).then(|| format!("{k} {:.3} ms", ns as f64 / 1e6));
    println!("{label}: {}", all.iter().filter_map(ms).collect::<Vec<_>>().join(", "));
}

/// Open, closed or virtual mode: one server, one report.
fn serve_mode(cli: &Cli, jobs: &[TimedJob]) -> Tail {
    let cfg = &cli.cluster.server;
    let service = &cli.cluster.service;
    let report = match cli.mode {
        "open" => run_open_loop(cfg, jobs),
        // Think-time streams derive from the workload seed, so a closed-loop
        // run's sleep schedule is reproducible end to end.
        "closed" => {
            let think = (cli.think)(cli.think_mean);
            run_closed_loop_thinking(cfg, jobs, cli.clients, think, cli.spec.seed)
        }
        _ => {
            let vs = VirtualService { service_ns: service.service_ns, per_item_ns: service.per_item_ns };
            run_virtual(cfg, jobs, vs)
        }
    };

    let m = &report.metrics;
    println!("# fnr_serve — batched render-request serving report\n");
    println!("workload: {} requests ({} arrivals, seed {})", cli.spec.requests, cli.spec.pattern.name(), cli.spec.seed);
    println!(
        "answered: {} responses in {} batches ({} rejected, {} shed, {} expired)",
        m.requests, m.batches, m.rejected, m.shed, m.expired
    );
    println!("streaming: {} chunks requested, {} chunks served", cfg.chunks, m.chunks_served);
    // Greppable robustness roll-up: CI's chaos legs diff the
    // width-invariant fields (served/failed/degraded; retried is
    // deterministic too, recovered batch panics are timing-dependent and
    // live on their own line).
    println!("outcomes: served {} failed {} retried {} degraded {}", m.requests, m.failed, m.retried, m.degraded);
    println!(
        "recovery: {} batch panics quarantined, breaker opened {} (half-open probes {})",
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
    latency_line("queue latency", &m.queue_ns, &["mean", "p50", "p95", "max"]);
    latency_line("batch service", &m.service_ns, &["mean", "p95", "max"]);
    // Time to first byte vs time to whole render — the streaming win CI
    // greps (`first-chunk latency: .* p99 `).
    let all = ["mean", "p50", "p95", "p99", "max"];
    latency_line("first-chunk latency", &m.first_chunk_ns, &all);
    latency_line("full-render latency", &m.render_ns, &all);
    println!("wall: {:.1} ms, workers {}, fnr_par threads {}", m.wall_ns as f64 / 1e6, m.workers, m.threads);
    println!("response digest: {:#018x} over {} responses", m.digest, report.responses.len());

    // Conservation is chunk-granular: every admitted chunk unit must be
    // served, rejected, shed, or failed, and whole responses must match
    // the fully-served parent count.
    let mut failures = Vec::new();
    let units = total_chunks(jobs, cfg.chunks);
    if report.responses.len() != m.requests || m.chunks_served + m.rejected + m.shed + m.failed != units {
        failures.push(format!(
            "chunk accounting broken: {} served + {} rejected + {} shed + {} failed != {units} \
             ({} responses, {} whole requests)",
            m.chunks_served, m.rejected, m.shed, m.failed, report.responses.len(), m.requests
        ));
    }
    if cli.expect_coalescing && m.coalescable_occupancy <= 1.0 {
        failures.push(format!(
            "coalescable occupancy {:.3} <= 1.0 — the batcher failed to coalesce",
            m.coalescable_occupancy
        ));
    }
    Tail { json: m.to_json(), label: "metrics", failures, chunks: m.chunks_served, whole: m.requests }
}

/// Cluster mode: replay the schedule through the N-replica DES and print
/// the greppable `cluster:` / `replica rN:` / digest lines CI diffs.
fn cluster_mode(cli: &Cli, jobs: &[TimedJob]) -> Tail {
    let cfg = &cli.cluster;
    eprintln!(
        "[serve] cluster: {} replicas, {} vnodes, inflight bound {}, {} fault events, {} payloads{}{}{}",
        cfg.replicas,
        cfg.router.vnodes,
        cfg.max_inflight,
        cfg.faults.events().len(),
        if cfg.payload == PayloadMode::Render { "render" } else { "synthetic" },
        if cfg.health.enabled { ", health detector on" } else { "" },
        if cfg.hedge.enabled() { ", hedging on" } else { "" },
        if cfg.admission.enabled { ", codel admission on" } else { "" },
    );

    let report = run_cluster(cfg, jobs);
    let m = &report.metrics;
    println!("# fnr_serve — cluster simulation report\n");
    println!("workload: {} requests ({} arrivals, seed {})", cli.spec.requests, cli.spec.pattern.name(), cli.spec.seed);
    // Greppable, byte-deterministic lines: CI's cluster leg diffs every
    // `cluster ` / `replica ` / `response digest` line between its
    // FNR_THREADS=1 and default runs.
    println!(
        "cluster totals: submitted {} chunks {} completed {} served {} shed {} front-door {} \
         overload {} expired {} rejected {} failed {} failed-over {} kills {} restarts {}",
        m.submitted, m.submitted_chunks, m.completed, m.served, m.shed, m.front_door_shed,
        m.overload_shed, m.expired, m.rejected, m.failed, m.failed_over, m.kills, m.restarts
    );
    println!(
        "cluster resilience: hedged {} hedge-won {} hedge-wasted {} suspects {} joins {} leaves {}",
        m.hedged, m.hedge_won, m.hedge_wasted, m.suspects, m.joins, m.leaves
    );
    for r in &m.replicas {
        let state = if !r.alive { "dead" } else if r.departed { "departed" } else { "alive" };
        let rm = &r.metrics;
        println!(
            "replica r{}: {state} routed {} served {} shed {} expired {} rejected {} failed {} fo-in {} \
             fo-out {} cache {}/{} kills {} restarts {} suspects {} slow x{} digest {:#018x}",
            r.replica, r.routed, rm.chunks_served, rm.shed, rm.expired, rm.rejected, rm.failed,
            r.failed_over_in, r.failed_over_out, r.cache_hits, r.cache_misses, r.kills, r.restarts,
            r.suspects, r.slow_factor, rm.digest
        );
    }
    let (lat, first) = (&m.latency_hist, &m.first_chunk_hist);
    println!("cluster latency hist: {:?} over {} samples", lat.counts(), lat.total());
    println!("cluster first-chunk hist: {:?} over {} samples", first.counts(), first.total());
    println!("wall: {:.1} ms (virtual), fnr_par threads {}", m.wall_ns as f64 / 1e6, m.threads);
    println!("response digest: {:#018x} over {} responses", m.digest, report.responses.len());

    let mut failures = Vec::new();
    if !m.conserves_submitted() || report.responses.len() != m.completed {
        failures.push(format!(
            "cluster accounting broken: {} served + {} shed + {} rejected + {} failed + \
             {} front-door != {} submitted chunks (responses {}, completed {})",
            m.served, m.shed, m.rejected, m.failed, m.front_door_shed, m.submitted_chunks,
            report.responses.len(), m.completed
        ));
    }
    Tail { json: m.to_json(), label: "cluster metrics", failures, chunks: m.served, whole: m.completed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn cli(line: &str) -> Cli {
        parse(&argv(line)).unwrap_or_else(|e| panic!("`{line}`: {e}"))
    }

    fn refused(line: &str) -> ParseError {
        parse(&argv(line)).err().unwrap_or_else(|| panic!("`{line}` was accepted"))
    }

    #[test]
    fn empty_argv_gives_the_defaults_field_by_field() {
        let c = cli("");
        let (s, k, v) = (&c.spec, &c.cluster, &c.cluster.server);
        assert_eq!((s.requests, s.seed, s.pattern, s.table_fraction), (1000, 42, ArrivalPattern::Bursty, 0.15));
        assert_eq!((s.mean_gap, s.priority_mix, s.deadline), (Duration::from_micros(150), [0.25, 0.5, 0.25], None));
        assert_eq!(s.table_names, fnr_bench::serving::table_names());
        assert_eq!((v.queue_capacity, v.workers, v.max_batch, v.linger), (256, 2, 8, Duration::from_millis(2)));
        assert_eq!((v.chunks, v.sched.lanes.len(), v.retry.max_attempts, v.brownout.enabled), (1, 3, 1, false));
        assert!(v.injector.is_none() && !v.tables.names().is_empty());
        assert_eq!((k.replicas, k.router.vnodes, k.router.seed, k.max_inflight), (4, 64, 0, 1024));
        let svc = &k.service;
        assert_eq!((svc.service_ns, svc.per_item_ns, svc.cold_start_ns), (500_000, 0, 2_000_000));
        assert_eq!((k.payload, k.health.enabled, k.hedge.enabled(), k.faults.is_empty()), (PayloadMode::Render, false, false, true));
        let a = &k.admission;
        assert_eq!((a.enabled, a.target_ns, a.interval_ns), (false, 2_000_000, 10_000_000));
        assert_eq!((c.mode, c.clients, (c.think)(c.think_mean), c.think_mean), ("open", 8, ThinkTime::None, Duration::from_micros(200)));
        assert_eq!((c.faults.is_none(), c.fault_seed, c.fault_kills, c.json.as_deref()), (true, 7, 0, None));
        assert!(!c.expect_coalescing && !c.expect_streaming);
    }

    /// The flags no CI leg passes each land in their config field.
    #[test]
    fn flags_without_a_ci_leg_land_in_their_fields() {
        let c = cli(
            "--clients 3 --max-batch 5 --linger-us 700 --think exp --think-us 300 --sched fifo \
             --fault-seed 9 --fault-kills 2 --max-inflight 33 --cold-start-us 900 --vnodes 16 \
             --router-seed 5 --service-per-item-us 40",
        );
        let (k, v) = (&c.cluster, &c.cluster.server);
        assert_eq!((c.clients, v.max_batch, v.linger), (3, 5, Duration::from_micros(700)));
        let mean = Duration::from_micros(300);
        assert_eq!(((c.think)(c.think_mean), v.sched.lanes.len()), (ThinkTime::Exponential { mean }, 1));
        assert_eq!((c.fault_seed, c.fault_kills, k.max_inflight, k.service.cold_start_ns), (9, 2, 33, 900_000));
        assert_eq!((k.router.vnodes, k.router.seed, k.service.per_item_ns), (16, 5, 40_000));
        // `--think` and `--think-us` compose in either order.
        let c = cli("--think-us 300 --think constant");
        assert_eq!((c.think)(c.think_mean), ThinkTime::Constant(mean));
    }

    #[test]
    fn out_of_range_and_malformed_input_is_a_typed_error() {
        let over = [
            "--clients 1025", "--workers 4096", "--vnodes 4097", "--fault-kills 1048577", "--replicas 0",
            "--requests 16777217", "--requests 18446744073709551615",
        ];
        for line in over.into_iter().chain(["--retry 4294967296", "--seed -1"]) {
            assert!(matches!(refused(line), ParseError::Bad(..)), "{line}");
        }
        assert_eq!((cli("--clients 1024").clients, cli("--workers 0").cluster.server.workers), (MAX_THREADS, 1));
        for mix in ["nan,1,1", "1,inf,1", "1e308,1e308,0", "0,0,0", "-1,1,1", "1,1"] {
            assert!(matches!(refused(&format!("--priority-mix {mix}")), ParseError::Bad("--priority-mix", _)), "{mix}");
        }
        assert_eq!(refused("--seed"), ParseError::Missing("--seed"));
        assert_eq!(refused("--no-such-flag"), ParseError::Unknown("--no-such-flag".into()));
        assert!(usage().contains(" [--health] [--codel-target-us U] "));
        // The seeded plan's horizon saturates instead of wrapping.
        let c = cli("--mode cluster --requests 16777216 --mean-gap-us 18446744073709551615 --fault-kills 2");
        assert_eq!(cluster_plan(&c).map(|p| p.events().len()), Ok(4));
        let joins = cli("--mode cluster --replicas 128 --faults join@1s");
        assert!(matches!(cluster_plan(&joins), Err(ParseError::Bad("--faults", _))));
    }

    #[test]
    fn service_and_linger_at_the_end_of_the_clock_still_finish_and_conserve() {
        // Virtual mode and the cluster both run on the saturating virtual
        // clock: batches that start at `u64::MAX` still complete there, and
        // every chunk is accounted for (a failed check is in `failures`).
        let max = u64::MAX;
        for mode in ["virtual", "cluster"] {
            for flag in ["--service-us", "--linger-us"] {
                let line = format!("--mode {mode} --requests 50 {flag} {max}");
                let c = cli(&line);
                let jobs = generate(&c.spec);
                let tail = if mode == "cluster" { cluster_mode(&c, &jobs) } else { serve_mode(&c, &jobs) };
                assert!(tail.failures.is_empty(), "`{line}`: {:?}", tail.failures);
                assert_eq!((tail.chunks, tail.whole), (50, 50), "`{line}` serves every request");
            }
        }
    }

    /// An argv token from `w`: a flag of the table, an edge-case operand,
    /// or a stray character.
    fn token(w: u64) -> String {
        const OPERANDS: [&str; 12] =
            ["0", "1", "-1", "18446744073709551616", "nan", "1,2,3", ",", "", "cluster", "kill@1s:0", "panic=9", "é"];
        match w % 3 {
            0 => FLAGS[(w >> 8) as usize % FLAGS.len()].0.to_string(),
            1 => OPERANDS[(w >> 8) as usize % OPERANDS.len()].to_string(),
            _ => char::from_u32((w >> 8) as u32 % 0x11_0000).unwrap_or('?').to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Parsing never panics, and in cluster mode neither does the
        /// fault plan resolved after it.
        #[test]
        fn prop_parse_never_panics(words in proptest::collection::vec(0u64..u64::MAX, 0..16)) {
            if let Ok(c) = parse(&words.iter().map(|&w| token(w)).collect::<Vec<_>>()) {
                let _ = cluster_plan(&c);
            }
        }
    }
}
