//! The three measured surfaces — repro passes, `serve-live` schedule
//! segments and cluster replays — and the companion process.
//!
//! Every run reports every end-to-end metric. The workload's own surface is
//! measured in the run's process, in [`BLOCKS`] blocks; between blocks a
//! companion child process takes one repro pass and one cluster replay,
//! whichever of the two the workload does not run itself, for `repro_s`,
//! `replay_s` and `goodput_frac`. Interleaving spreads every metric's
//! samples over the whole run, so each metric sees the host's fast and slow
//! spells alike; the separate process keeps the companion's memory and CPU
//! out of `peak_rss_mb` and `cpu_s`. Repeated timings report the fastest
//! repetition (see [`fastest`]).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use fnr_bench::NamedGenerator;
use fnr_serve::workload::TimedJob;
use fnr_serve::{ClusterConfig, Server};

use crate::util::fastest;
use crate::{cluster, repro, serve, Recorded, Report, WorkloadKind};

/// Blocks the workload's own measurement is split into.
pub const BLOCKS: usize = 12;

/// Accumulated measurements of one surface.
pub enum Surface {
    /// Repro passes, each checked against the goldens.
    Repro {
        goldens: repro::Goldens,
        order: Vec<NamedGenerator>,
        walls: Vec<f64>,
        cpus: Vec<f64>,
    },
    /// A schedule driven through one server in [`BLOCKS`] consecutive
    /// segments; the server idles between them.
    Serve {
        seed: u64,
        jobs: Vec<TimedJob>,
        server: Server,
        segment: usize,
        cpu_s: f64,
    },
    /// Replays of the resilient cluster, each checked against `expected`.
    Cluster {
        jobs: Vec<TimedJob>,
        cfg: Box<ClusterConfig>,
        expected: Option<u64>,
        walls: Vec<f64>,
        cpus: Vec<f64>,
        goodput: f64,
    },
}

impl Surface {
    /// Generates the inputs of `kind` from `seed`; `serve_seconds` sizes the
    /// `serve-live` schedule. A serve surface also warms the model caches.
    pub fn new(
        kind: WorkloadKind,
        seed: u64,
        serve_seconds: f64,
        recorded: &Recorded,
    ) -> Result<Self, String> {
        Ok(match kind {
            WorkloadKind::Repro => Surface::Repro {
                goldens: repro::Goldens::load()?,
                order: repro::generator_order(seed),
                walls: Vec::new(),
                cpus: Vec::new(),
            },
            WorkloadKind::ServeLive => {
                serve::warm();
                Surface::Serve {
                    seed,
                    jobs: serve::jobs(seed, serve::requests_for(serve_seconds)),
                    server: Server::start(&serve::server_config()),
                    segment: 0,
                    cpu_s: 0.0,
                }
            }
            WorkloadKind::ClusterResilience => Surface::Cluster {
                jobs: cluster::jobs(seed, cluster::REQUESTS),
                cfg: Box::new(cluster::config(true)),
                expected: recorded.cluster_digest(seed),
                walls: Vec::new(),
                cpus: Vec::new(),
                goodput: 0.0,
            },
        })
    }

    /// Measures one step: a repro pass, the next schedule segment, or a
    /// replay.
    pub fn step(&mut self, out: &mut Report) {
        match self {
            Surface::Repro {
                goldens,
                order,
                walls,
                cpus,
            } => {
                let pass = repro::pass(order);
                eprintln!(
                    "[perfbench] repro pass: {:.3} s wall, {:.3} s cpu",
                    pass.wall_s, pass.cpu_s
                );
                let bad = goldens.mismatches(&pass.tables);
                out.attempt(pass.tables.len() as u64, bad.len() as u64);
                for name in bad {
                    out.problem(format!("table {name} differs from tests/golden/{name}.md"));
                }
                walls.push(pass.wall_s);
                cpus.push(pass.cpu_s);
            }
            Surface::Serve {
                jobs,
                server,
                segment,
                cpu_s,
                ..
            } => {
                let per = jobs.len().div_ceil(BLOCKS);
                let slice =
                    &jobs[(*segment * per).min(jobs.len())..((*segment + 1) * per).min(jobs.len())];
                *segment += 1;
                let run = serve::drive(&server.client(), slice, false);
                eprintln!(
                    "[perfbench] serve segment: {} requests, {:.3} s cpu",
                    slice.len(),
                    run.cpu_s
                );
                out.attempt(slice.len() as u64, run.unanswered() as u64);
                *cpu_s += run.cpu_s;
            }
            Surface::Cluster {
                jobs,
                cfg,
                expected,
                walls,
                cpus,
                goodput,
            } => {
                let r = cluster::replay(cfg, jobs);
                eprintln!(
                    "[perfbench] cluster replay: {:.3} s wall, {:.3} s cpu",
                    r.wall_s, r.cpu_s
                );
                out.attempt(1, 0);
                for p in r.check(*expected.get_or_insert(r.metrics.digest)) {
                    out.problem(p);
                }
                walls.push(r.wall_s);
                cpus.push(r.cpu_s);
                *goodput = r.goodput();
            }
        }
    }

    /// Steps until `seconds` have passed, at least once, and returns the
    /// seconds taken; a serve surface runs exactly one segment.
    pub fn block(&mut self, seconds: f64, out: &mut Report) -> f64 {
        let start = Instant::now();
        loop {
            self.step(out);
            let elapsed = start.elapsed().as_secs_f64();
            if matches!(self, Surface::Serve { .. }) || elapsed >= seconds {
                return elapsed;
            }
        }
    }

    /// Reports this surface's end-to-end metrics (with `cpu_s` when it is
    /// the workload's own) and runs its end-of-run checks.
    pub fn report(self, own: bool, recorded: &Recorded, out: &mut Report) {
        match self {
            Surface::Repro { walls, cpus, .. } => {
                out.metric("repro_s", fastest(&walls));
                if own {
                    out.metric("cpu_s", fastest(&cpus));
                }
            }
            Surface::Serve {
                seed,
                jobs,
                server,
                cpu_s,
                ..
            } => {
                let report = server.drain();
                for p in serve::check(&report, &jobs, recorded.serve_digest(seed, &jobs)) {
                    out.problem(p);
                }
                if own {
                    out.metric("cpu_s", cpu_s);
                }
            }
            Surface::Cluster {
                walls,
                cpus,
                goodput,
                ..
            } => {
                out.metric("replay_s", fastest(&walls));
                out.metric("goodput_frac", goodput);
                if own {
                    out.metric("cpu_s", fastest(&cpus));
                }
            }
        }
    }
}

/// The parent's handle on the companion process.
pub struct Companion {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Companion {
    /// Starts the companion of `workload` and waits until its inputs are
    /// ready, so their generation never overlaps a measurement.
    pub fn spawn(workload: WorkloadKind, seed: u64) -> Result<Companion, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "--workload",
                workload.name(),
                "--seed",
                &seed.to_string(),
                "--companion",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("companion: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut companion = Companion {
            child,
            stdin,
            stdout,
        };
        companion.until("ready", &mut Report::default())?;
        Ok(companion)
    }

    fn send(&mut self, command: &str) -> Result<(), String> {
        writeln!(self.stdin, "{command}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("companion stdin: {e}"))
    }

    /// Reads replies into `out` until the line `last`.
    fn until(&mut self, last: &str, out: &mut Report) -> Result<(), String> {
        loop {
            let mut line = String::new();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err("companion exited early".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("companion stdout: {e}")),
            }
            let line = line.trim_end();
            if line == last {
                return Ok(());
            }
            out.receive(line)
                .ok_or_else(|| format!("unexpected companion reply `{line}`"))?;
        }
    }

    /// Measures one step of every companion surface.
    pub fn step(&mut self, out: &mut Report) -> Result<(), String> {
        self.send("step")?;
        self.until("ok", out)
    }

    /// Collects the companion's metrics, counts and failed checks, and
    /// waits for it to exit.
    pub fn finish(mut self, out: &mut Report) -> Result<(), String> {
        self.send("end")?;
        self.until("end", out)?;
        let status = self.child.wait().map_err(|e| format!("companion: {e}"))?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("companion exited with {status}"))
    }
}

impl Drop for Companion {
    /// A run that fails part-way still stops and reaps its companion.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The companion process: measures every surface except `workload`'s, one
/// step per `step` line on standard input, and reports on `end`.
pub fn companion_main(
    workload: WorkloadKind,
    seed: u64,
    recorded: &Recorded,
) -> Result<(), String> {
    // The serve surface is only ever a workload's own (its latency metrics
    // come from the traced run), so no schedule length is needed here.
    let order = [WorkloadKind::Repro, WorkloadKind::ClusterResilience];
    let mut surfaces: Vec<Surface> = order
        .into_iter()
        .filter(|&k| k != workload)
        .map(|k| Surface::new(k, seed, 0.0, recorded))
        .collect::<Result<_, _>>()?;
    println!("ready");
    let mut report = Report::default();
    for line in std::io::stdin().lock().lines() {
        match line.map_err(|e| format!("stdin: {e}"))?.trim() {
            "step" => {
                for s in &mut surfaces {
                    s.step(&mut report);
                }
                println!("ok");
            }
            "end" => {
                for s in surfaces {
                    s.report(false, recorded, &mut report);
                }
                report.send();
                println!("end");
                return Ok(());
            }
            other => return Err(format!("unknown companion command `{other}`")),
        }
    }
    Err("stdin closed before `end`".to_string())
}
