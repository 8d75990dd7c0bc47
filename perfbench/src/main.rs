//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro|serve-live|cluster-resilience --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload and prints every end-to-end metric;
//! `--trace 1` prints every per-layer metric instead. Either way the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See README.md for what each metric means.

mod cluster;
mod repro;
mod serve;
mod stages;
mod surfaces;
mod trace;
mod util;

use std::process::{Command, ExitCode};

use fnr_serve::workload::TimedJob;

use util::{fastest, peak_rss_mb, timed};

/// End-to-end metrics and their units, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
    ("repro_s", "s"),
    ("replay_s", "s"),
    ("goodput_frac", "ratio"),
];

/// Per-layer metrics and their units, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.sample_ray.ns", "ns"),
    ("sampling.sample_ray.calls", "count"),
    ("hashgrid.plan.ns", "ns"),
    ("hashgrid.plan.calls", "count"),
    ("hashgrid.encode.ns", "ns"),
    ("hashgrid.encode.calls", "count"),
    ("hashgrid.scatter.ns", "ns"),
    ("hashgrid.scatter.calls", "count"),
    ("mlp.fwd.ns", "ns"),
    ("mlp.fwd.calls", "count"),
    ("mlp.bwd.ns", "ns"),
    ("mlp.bwd.calls", "count"),
    ("render.composite.ns", "ns"),
    ("render.composite.calls", "count"),
    ("render.composite_bwd.ns", "ns"),
    ("render.composite_bwd.calls", "count"),
    ("train.merge.us", "us"),
    ("train.adam.us", "us"),
    ("train.pack.us", "us"),
    ("train.serial_frac", "ratio"),
    ("train.allocs", "count"),
    ("render.fp32_frame.ms", "ms"),
    ("render.quant_frame.ms", "ms"),
    ("render.prepare.ms", "ms"),
    ("sim.tables.ms", "ms"),
    ("breakdown.gemm_frac", "ratio"),
    ("breakdown.encoding_frac", "ratio"),
    ("breakdown.other_frac", "ratio"),
    ("server.submit.us_p99", "us"),
    ("server.queue.ms_p50", "ms"),
    ("server.queue.ms_p99", "ms"),
    ("server.service.ms_mean", "ms"),
    ("server.service.ms_p95", "ms"),
    ("server.occupancy", "req/batch"),
    ("server.timeout_flush_frac", "ratio"),
    ("server.first_chunk.ms_p99", "ms"),
    ("server.cpu_us_per_req", "us"),
    ("render_p50_ms", "ms"),
    ("render_p99_ms", "ms"),
    ("render_samples", "count"),
    ("driver.late.ms_p99", "ms"),
    ("cluster.replay_us_per_req", "us"),
    ("cluster.plain_replay_s", "s"),
    ("cluster.resilience_overhead_s", "s"),
    ("router.route.ns", "ns"),
    ("cluster.hedged", "count"),
    ("cluster.hedge_won_frac", "ratio"),
    ("cluster.front_door_shed", "count"),
    ("cluster.suspects", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Pool width every workload runs at.
const THREADS: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Regenerate all 18 paper tables.
    Repro,
    /// Open-loop render traffic against a live server.
    ServeLive,
    /// Virtual-clock replay of the resilient cluster.
    ClusterResilience,
}

impl WorkloadKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "repro" => Some(WorkloadKind::Repro),
            "serve-live" => Some(WorkloadKind::ServeLive),
            "cluster-resilience" => Some(WorkloadKind::ClusterResilience),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            WorkloadKind::Repro => "repro",
            WorkloadKind::ServeLive => "serve-live",
            WorkloadKind::ClusterResilience => "cluster-resilience",
        }
    }
}

/// Allocation counting that is off except around the call being counted,
/// so untraced runs pay nothing for it.
mod alloc_gate {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, Ordering};

    use fnr_bench::alloc_track::{self, CountingAllocator};

    static COUNTING: AtomicBool = AtomicBool::new(false);

    struct Gate;

    // SAFETY: every method forwards to `System`, directly or through the
    // pass-through `CountingAllocator`; blocks from either path are
    // interchangeable because both end in `System`.
    unsafe impl GlobalAlloc for Gate {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAllocator.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAllocator.alloc_zeroed(layout)
            } else {
                System.alloc_zeroed(layout)
            }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if COUNTING.load(Ordering::Relaxed) {
                CountingAllocator.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }

    #[global_allocator]
    static GLOBAL: Gate = Gate;

    /// Allocations (reallocations included) made while `f` runs.
    pub fn count(f: impl FnOnce()) -> u64 {
        let before = alloc_track::snapshot();
        COUNTING.store(true, Ordering::SeqCst);
        f();
        COUNTING.store(false, Ordering::SeqCst);
        alloc_track::snapshot().since(before).count
    }
}

/// Response digests recorded for known seeds (`digests.txt`).
pub struct Recorded(Vec<(String, u64, usize, u64)>);

impl Recorded {
    fn load() -> Recorded {
        let entries = include_str!("../digests.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let digest =
                    u64::from_str_radix(f[3].trim_start_matches("0x"), 16).expect("hex digest");
                (
                    f[0].to_string(),
                    f[1].parse().expect("seed"),
                    f[2].parse().expect("requests"),
                    digest,
                )
            })
            .collect();
        Recorded(entries)
    }

    fn get(&self, workload: &str, seed: u64, requests: usize) -> Option<u64> {
        self.0
            .iter()
            .find(|e| e.0 == workload && e.1 == seed && e.2 == requests)
            .map(|e| e.3)
    }

    /// The digest a `serve-live` schedule must produce: the recorded one,
    /// or for an unrecorded seed the same schedule replayed on the virtual
    /// clock.
    pub fn serve_digest(&self, seed: u64, jobs: &[TimedJob]) -> u64 {
        self.get("serve-live", seed, jobs.len()).unwrap_or_else(|| {
            eprintln!(
                "[perfbench] no recorded serve-live digest for seed {seed}; replaying virtually"
            );
            serve::oracle_digest(jobs)
        })
    }

    /// The digest a cluster replay must produce, if recorded; for an
    /// unrecorded seed the replays of a run must agree with the first.
    pub fn cluster_digest(&self, seed: u64) -> Option<u64> {
        let digest = self.get("cluster-resilience", seed, cluster::REQUESTS);
        if digest.is_none() {
            eprintln!(
                "[perfbench] no recorded cluster digest for seed {seed}; checking replays agree"
            );
        }
        digest
    }
}

/// Metrics, work counts and failed checks of one run.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// Counts `n` attempted operations, `failed` of which failed.
    pub fn attempt(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a failed output check.
    pub fn problem(&mut self, p: String) {
        eprintln!("[perfbench] check failed: {p}");
        self.problems.push(p);
    }

    /// Prints everything recorded as lines [`Report::receive`] reads back
    /// (how the companion process hands its results over).
    fn send(&self) {
        for (name, value) in &self.values {
            println!("metric {name} {value}");
        }
        for p in &self.problems {
            println!("problem {p}");
        }
        println!("attempt {} {}", self.attempted, self.failed);
    }

    /// Records one line written by [`Report::send`]; `None` if malformed.
    fn receive(&mut self, line: &str) -> Option<()> {
        let (kind, rest) = line.split_once(' ')?;
        match kind {
            "metric" => {
                let (name, value) = rest.split_once(' ')?;
                self.metric(name, value.parse().ok()?);
            }
            "attempt" => {
                let (n, failed) = rest.split_once(' ')?;
                self.attempt(n.parse().ok()?, failed.parse().ok()?);
            }
            "problem" => self.problem(rest.to_string()),
            _ => return None,
        }
        Some(())
    }

    /// Prints `catalogue` as readable lines, then the result as one JSON
    /// line. Fails if a metric is missing or not finite.
    fn print(&self, catalogue: &[(&str, &str)]) -> Result<(), String> {
        let mut json = Vec::new();
        for &(name, unit) in catalogue {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("{name:<32} {value:>18} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

/// One-time set-up of `workload`, in seconds. Input generation is the
/// benchmark's own work and happens before the clock starts.
fn setup(workload: WorkloadKind, seed: u64) -> f64 {
    match workload {
        WorkloadKind::Repro => timed(repro::setup).0,
        WorkloadKind::ServeLive => timed(serve::warm).0,
        WorkloadKind::ClusterResilience => {
            let warm = cluster::jobs(seed, cluster::WARM_REQUESTS);
            timed(|| cluster::setup(&warm)).0
        }
    }
}

/// Set-up time of `workload` in a fresh process, which pays every
/// process-wide one-time cost again.
fn child_setup(workload: WorkloadKind, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "set-up child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// The untraced run: set-up, then the workload's own surface in
/// [`surfaces::BLOCKS`] blocks, with the companion process measuring the
/// other surfaces between blocks. Set-up is repeated in a fresh process
/// before every block, so its samples span the whole run too.
fn end_to_end(
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    recorded: &Recorded,
    out: &mut Report,
) -> Result<(), String> {
    let mut setups = vec![setup(workload, seed)];
    let mut own = surfaces::Surface::new(workload, seed, seconds, recorded)?;
    let mut companion = surfaces::Companion::spawn(workload, seed)?;
    // Each block measures up to its share of `--seconds`, less what earlier
    // blocks overran, so steps longer than a block cannot stretch the run.
    let mut spent = 0.0;
    for block in 1..=surfaces::BLOCKS {
        setups.push(child_setup(workload, seed)?);
        let due = seconds * block as f64 / surfaces::BLOCKS as f64;
        spent += own.block(due - spent, out);
        companion.step(out)?;
    }
    eprintln!("[perfbench] set-ups (s): {setups:?}");
    out.metric("setup_s", fastest(&setups));
    out.metric("peak_rss_mb", peak_rss_mb());
    own.report(true, recorded, out);
    companion.finish(out)
}

/// Prints the recorded-digest lines `digests.txt` lacks for seeds
/// `from..=to`: `serve-live` at the schedule lengths of a `seconds` run and
/// of the short schedule, and `cluster-resilience`.
fn record(from: u64, to: u64, seconds: f64, recorded: &Recorded) {
    for seed in from..=to {
        for s in [seconds, serve::SHORT_SECONDS] {
            let jobs = serve::jobs(seed, serve::requests_for(s));
            if recorded.get("serve-live", seed, jobs.len()).is_none() {
                println!(
                    "serve-live {seed} {} {:#018x}",
                    jobs.len(),
                    serve::oracle_digest(&jobs)
                );
            }
        }
        if recorded
            .get("cluster-resilience", seed, cluster::REQUESTS)
            .is_none()
        {
            let jobs = cluster::jobs(seed, cluster::REQUESTS);
            let digest = cluster::replay(&cluster::config(true), &jobs)
                .metrics
                .digest;
            println!("cluster-resilience {seed} {} {digest:#018x}", jobs.len());
        }
    }
}

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    companion: bool,
    record: Option<(u64, u64)>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload repro|serve-live|cluster-resilience \
         --seed N --seconds S --trace 0|1\n       perfbench --record FROM TO --seconds S"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: WorkloadKind::Repro,
        seed: 0,
        seconds: 15.0,
        trace: false,
        setup_only: false,
        companion: false,
        record: None,
    };
    let mut workload = None;
    let mut i = 0;
    let operand = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| usage("missing operand"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = operand(&mut i);
                workload = Some(
                    WorkloadKind::parse(&w)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{w}`"))),
                );
            }
            "--seed" => {
                args.seed = operand(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = operand(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                args.trace = match operand(&mut i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--companion" => args.companion = true,
            "--record" => {
                let from = operand(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --record FROM"));
                let to = operand(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("bad --record TO"));
                args.record = Some((from, to));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !(args.seconds >= 1.0 && args.seconds.is_finite()) {
        usage("--seconds must be at least 1");
    }
    match (workload, args.record) {
        (Some(w), _) => args.workload = w,
        (None, Some(_)) => {}
        (None, None) => usage("--workload is required"),
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    fnr_par::set_num_threads(THREADS);
    let recorded = Recorded::load();
    if let Some((from, to)) = args.record {
        record(from, to, args.seconds, &recorded);
        return ExitCode::SUCCESS;
    }
    if args.setup_only {
        println!("setup_s {}", setup(args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    if args.companion {
        return match surfaces::companion_main(args.workload, args.seed, &recorded) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("[perfbench] companion: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut report = Report::default();
    let catalogue = if args.trace {
        trace::run(
            args.workload,
            args.seed,
            args.seconds,
            &recorded,
            &mut report,
        );
        PER_LAYER
    } else {
        if let Err(e) = end_to_end(
            args.workload,
            args.seed,
            args.seconds,
            &recorded,
            &mut report,
        ) {
            eprintln!("[perfbench] {e}");
            return ExitCode::FAILURE;
        }
        END_TO_END
    };
    match report.print(catalogue) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            ExitCode::FAILURE
        }
    }
}
