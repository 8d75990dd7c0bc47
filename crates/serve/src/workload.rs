//! Seeded workload generation: the request mixes and arrival patterns the
//! load generators drive the server with.
//!
//! Everything is a pure function of the spec (seed included), so two legs
//! of a CI run — or an open-loop and a closed-loop driver — operate on
//! the *same* job multiset and must produce the same response-set digest.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fnr_tensor::Precision;

use crate::request::{RenderJob, RenderPrecision, SceneKind, Workload};
use crate::sched::Priority;

/// Arrival-time shape of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalPattern {
    /// Constant inter-arrival gap, one request at a time.
    Uniform,
    /// Same-key bursts separated by idle gaps — the coalescable shape
    /// (many users requesting the same scene/model around an event).
    Bursty,
    /// Pareto-like gaps: long quiet stretches punctured by dense arrivals.
    HeavyTailed,
    /// Two sinusoidal day/night cycles over the schedule: the arrival
    /// rate swings 8× between trough and peak, with small same-key bursts
    /// at the peaks — the shape a planet-scale diurnal load curve
    /// compresses to.
    Diurnal,
    /// A bursty baseline with a flash crowd in the middle 10% of the
    /// schedule: dense zero-delay bursts at 8× the baseline rate, all
    /// requesting one seeded hot scene at FP32 — the everyone-watches-
    /// the-same-event shape that hammers a single consistent-hash owner.
    FlashCrowd,
}

impl ArrivalPattern {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(ArrivalPattern::Uniform),
            "bursty" => Some(ArrivalPattern::Bursty),
            "heavy" | "heavy-tailed" => Some(ArrivalPattern::HeavyTailed),
            "diurnal" => Some(ArrivalPattern::Diurnal),
            "flash" | "flash-crowd" => Some(ArrivalPattern::FlashCrowd),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalPattern::Uniform => "uniform",
            ArrivalPattern::Bursty => "bursty",
            ArrivalPattern::HeavyTailed => "heavy-tailed",
            ArrivalPattern::Diurnal => "diurnal",
            ArrivalPattern::FlashCrowd => "flash-crowd",
        }
    }
}

/// What to generate.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Total requests.
    pub requests: usize,
    /// RNG seed; same seed ⇒ same job sequence, byte for byte.
    pub seed: u64,
    /// Arrival shape.
    pub pattern: ArrivalPattern,
    /// Table-generator names eligible for table requests (empty disables
    /// table traffic).
    pub table_names: Vec<String>,
    /// Fraction of bursts (or single arrivals) that request a table
    /// instead of a render.
    pub table_fraction: f64,
    /// Pacing scale: mean inter-arrival gap an open-loop driver sleeps.
    pub mean_gap: Duration,
    /// Relative weights of the [`Priority`] classes (interactive,
    /// standard, batch) a burst's traffic class is drawn from. Priorities
    /// come from a *separate* seeded stream, so changing the mix never
    /// moves the job sequence itself (the response-set digest is a pure
    /// function of the jobs).
    pub priority_mix: [f64; 3],
    /// Relative deadline stamped on every generated job (`None` disables
    /// shedding — the pre-scheduler behaviour).
    pub deadline: Option<Duration>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            requests: 1000,
            seed: 42,
            pattern: ArrivalPattern::Bursty,
            table_names: Vec::new(),
            table_fraction: 0.15,
            mean_gap: Duration::from_micros(150),
            priority_mix: [0.25, 0.5, 0.25],
            deadline: None,
        }
    }
}

/// One scheduled job: how long an open-loop driver waits before
/// submitting it (closed-loop drivers ignore the delay), its traffic
/// class, and its relative deadline.
#[derive(Debug, Clone)]
pub struct TimedJob {
    /// Idle time before this submission.
    pub delay_before: Duration,
    /// Traffic class (burst members share their burst's class).
    pub priority: Priority,
    /// Relative deadline from admission; `None` never sheds.
    pub deadline: Option<Duration>,
    /// The work.
    pub job: Workload,
}

fn random_scene(rng: &mut StdRng) -> SceneKind {
    SceneKind::ALL[rng.gen_range(0usize..SceneKind::ALL.len())]
}

fn random_precision(rng: &mut StdRng) -> RenderPrecision {
    // FP32-heavy mix with a long integer tail, echoing the paper's
    // precision study: most traffic at reference quality, the rest
    // exercising the quantized datapath.
    match rng.gen_range(0u32..10) {
        0..=3 => RenderPrecision::Fp32,
        4..=6 => RenderPrecision::Quantized(Precision::Int8),
        7..=8 => RenderPrecision::Quantized(Precision::Int16),
        _ => RenderPrecision::Quantized(Precision::Int4),
    }
}

fn random_render(rng: &mut StdRng, scene: SceneKind, precision: RenderPrecision) -> Workload {
    const SIZES: [usize; 4] = [6, 8, 10, 12];
    const SPP: [usize; 3] = [4, 6, 8];
    Workload::Render(RenderJob {
        scene,
        precision,
        width: SIZES[rng.gen_range(0usize..SIZES.len())],
        height: SIZES[rng.gen_range(0usize..SIZES.len())],
        spp: SPP[rng.gen_range(0usize..SPP.len())],
        camera_seed: rng.gen_range(0u64..u64::MAX),
    })
}

/// Generates the job schedule for `spec`.
///
/// Jobs and arrival times come from the stream seeded by `spec.seed`
/// exactly as they always have; traffic classes come from a *separate*
/// stream (`assign_priorities`), so a priority-mix change can never move
/// the job multiset — and therefore never the response-set digest.
pub fn generate(spec: &WorkloadSpec) -> Vec<TimedJob> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Saturating, like every product below: `--mean-gap-us` near its bound
    // would otherwise wrap into short gaps. No schedule that fits in `u64`
    // nanoseconds changes.
    let gap_ns = u64::try_from(spec.mean_gap.as_nanos()).unwrap_or(u64::MAX);
    let mut out = Vec::with_capacity(spec.requests);
    let timed = |delay_before: Duration, job: Workload| TimedJob {
        delay_before,
        // Placeholder class; `assign_priorities` rewrites it below.
        priority: Priority::Standard,
        deadline: spec.deadline,
        job,
    };
    while out.len() < spec.requests {
        match spec.pattern {
            ArrivalPattern::Uniform => {
                let job = pick_job(&mut rng, spec, 1).remove(0);
                out.push(timed(Duration::from_nanos(gap_ns), job));
            }
            ArrivalPattern::Bursty => {
                let burst = rng.gen_range(2usize..=12).min(spec.requests - out.len());
                // The burst's members share one coalescing key and arrive
                // back to back; the idle gap before it preserves the mean
                // arrival rate.
                let jobs = pick_job(&mut rng, spec, burst);
                let idle = Duration::from_nanos(gap_ns.saturating_mul(burst as u64));
                for (i, job) in jobs.into_iter().enumerate() {
                    let delay = if i == 0 { idle } else { Duration::ZERO };
                    out.push(timed(delay, job));
                }
            }
            ArrivalPattern::HeavyTailed => {
                // Pareto(α = 1.5) gap, capped at 50× the mean: mostly short
                // gaps, occasionally a very long one.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let pareto = 1.0 / u.powf(1.0 / 1.5);
                let scaled = ((gap_ns as f64) * pareto.min(50.0) / 3.0) as u64;
                let job = pick_job(&mut rng, spec, 1).remove(0);
                out.push(timed(Duration::from_nanos(scaled), job));
            }
            ArrivalPattern::Diurnal => {
                // Phase by schedule position: two full cycles, gap scaled
                // from 2× the mean (trough) down to 0.25× (peak) — an 8×
                // rate swing — with small same-key bursts near the peaks.
                let p = out.len() as f64 / spec.requests.max(1) as f64;
                let s = 0.5 * (1.0 + (std::f64::consts::TAU * 2.0 * p).sin());
                let scale = 2.0 - 1.75 * s;
                let burst = if s > 0.75 { rng.gen_range(2usize..=6) } else { 1 }
                    .min(spec.requests - out.len());
                let jobs = pick_job(&mut rng, spec, burst);
                let idle = Duration::from_nanos(((gap_ns as f64 * scale) as u64).saturating_mul(burst as u64));
                for (i, job) in jobs.into_iter().enumerate() {
                    let delay = if i == 0 { idle } else { Duration::ZERO };
                    out.push(timed(delay, job));
                }
            }
            ArrivalPattern::FlashCrowd => {
                let lo = spec.requests * 45 / 100;
                let hi = spec.requests * 55 / 100;
                if (lo..hi).contains(&out.len()) {
                    // The crowd: dense bursts at 8× the baseline rate, all
                    // on one seeded hot scene at FP32 — a single
                    // coalescing key, so one ring owner takes the spike.
                    let burst = rng.gen_range(4usize..=16).min(spec.requests - out.len());
                    let scene = SceneKind::ALL[(spec.seed % 3) as usize];
                    let jobs: Vec<Workload> = (0..burst)
                        .map(|_| random_render(&mut rng, scene, RenderPrecision::Fp32))
                        .collect();
                    let idle = Duration::from_nanos(gap_ns.saturating_mul(burst as u64) / 8);
                    for (i, job) in jobs.into_iter().enumerate() {
                        let delay = if i == 0 { idle } else { Duration::ZERO };
                        out.push(timed(delay, job));
                    }
                } else {
                    // Outside the window: the bursty baseline.
                    let burst = rng.gen_range(2usize..=12).min(spec.requests - out.len());
                    let jobs = pick_job(&mut rng, spec, burst);
                    let idle = Duration::from_nanos(gap_ns.saturating_mul(burst as u64));
                    for (i, job) in jobs.into_iter().enumerate() {
                        let delay = if i == 0 { idle } else { Duration::ZERO };
                        out.push(timed(delay, job));
                    }
                }
            }
        }
    }
    out.truncate(spec.requests);
    assign_priorities(&mut out, spec);
    out
}

/// Total chunk units a schedule admits at the requested chunk count `k`:
/// the sum of [`effective_chunks`](crate::request::effective_chunks) over
/// every job. This is the right-hand side of the chunk-granular
/// conservation law (`served + shed + rejected + failed + front-door ==
/// total_chunks`), so drivers and benches can assert it without
/// re-deriving the per-job split.
pub fn total_chunks(jobs: &[TimedJob], k: usize) -> usize {
    jobs.iter()
        .map(|tj| crate::request::effective_chunks(k, &tj.job) as usize)
        .sum()
}

/// Seed salt separating the priority stream from the job stream.
const PRIORITY_STREAM_SALT: u64 = 0x70_72_69_6f_72_69_74_79; // "priority"

/// Stamps seeded traffic classes onto a generated schedule: one draw from
/// `spec.priority_mix` per burst (a zero-delay job continues its
/// predecessor's burst and inherits its class — the whole burst is one
/// user-visible event, so it travels in one lane).
fn assign_priorities(jobs: &mut [TimedJob], spec: &WorkloadSpec) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ PRIORITY_STREAM_SALT);
    let total: f64 = spec.priority_mix.iter().sum();
    let mut current = Priority::Standard;
    for (i, tj) in jobs.iter_mut().enumerate() {
        if i == 0 || !tj.delay_before.is_zero() {
            current = if total <= 0.0 {
                Priority::Standard
            } else {
                let mut u = rng.gen_range(0.0f64..1.0) * total;
                let mut drawn = *Priority::ALL.last().expect("non-empty");
                for (p, &w) in Priority::ALL.iter().zip(&spec.priority_mix) {
                    if u < w {
                        drawn = *p;
                        break;
                    }
                    u -= w;
                }
                drawn
            };
        }
        tj.priority = current;
    }
}

/// Picks one coalescing key and emits `n` jobs under it.
fn pick_job(rng: &mut StdRng, spec: &WorkloadSpec, n: usize) -> Vec<Workload> {
    let want_table = !spec.table_names.is_empty() && rng.gen_bool(spec.table_fraction);
    if want_table {
        let name = &spec.table_names[rng.gen_range(0usize..spec.table_names.len())];
        vec![Workload::Table(name.clone()); n]
    } else {
        let scene = random_scene(rng);
        let precision = random_precision(rng);
        (0..n).map(|_| random_render(rng, scene, precision)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        let spec = WorkloadSpec { requests: 64, ..WorkloadSpec::default() };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.delay_before, y.delay_before);
        }
        let c = generate(&WorkloadSpec { seed: 43, ..spec });
        assert!(a.iter().zip(&c).any(|(x, y)| x.job != y.job), "different seed moves the jobs");
    }

    #[test]
    fn bursty_workloads_share_keys_within_bursts() {
        let spec = WorkloadSpec { requests: 100, ..WorkloadSpec::default() };
        let jobs = generate(&spec);
        // Every zero-delay job continues the burst of its predecessor and
        // must share that key.
        let mut coalescable = 0;
        for w in jobs.windows(2) {
            if w[1].delay_before.is_zero() {
                assert_eq!(w[0].job.key(), w[1].job.key(), "burst member changed key");
                coalescable += 1;
            }
        }
        assert!(coalescable > 20, "bursty pattern must offer coalescing ({coalescable} pairs)");
    }

    #[test]
    fn table_traffic_appears_when_registered() {
        let spec = WorkloadSpec {
            requests: 200,
            table_names: vec!["t1".into(), "t2".into()],
            table_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        let jobs = generate(&spec);
        let tables = jobs.iter().filter(|t| matches!(t.job, Workload::Table(_))).count();
        assert!(tables > 10, "expected table traffic, got {tables}");
    }

    #[test]
    fn priorities_are_seeded_burst_coherent_and_job_neutral() {
        let spec = WorkloadSpec { requests: 120, ..WorkloadSpec::default() };
        let a = generate(&spec);
        let b = generate(&spec);
        assert!(a.iter().zip(&b).all(|(x, y)| x.priority == y.priority), "same seed, same classes");
        // Burst members inherit the burst head's class.
        for w in a.windows(2) {
            if w[1].delay_before.is_zero() {
                assert_eq!(w[0].priority, w[1].priority, "burst member changed class");
            }
        }
        // The default mix exercises more than one class.
        let distinct: std::collections::HashSet<_> = a.iter().map(|t| t.priority).collect();
        assert!(distinct.len() >= 2, "mix produced a single class: {distinct:?}");
        // Moving the mix must move classes but never the job sequence.
        let skewed = generate(&WorkloadSpec { priority_mix: [1.0, 0.0, 0.0], ..spec.clone() });
        assert!(skewed.iter().all(|t| t.priority == Priority::Interactive));
        for (x, y) in a.iter().zip(&skewed) {
            assert_eq!(x.job, y.job, "priority mix leaked into the job stream");
            assert_eq!(x.delay_before, y.delay_before);
        }
    }

    #[test]
    fn deadlines_stamp_every_job() {
        let spec = WorkloadSpec {
            requests: 16,
            deadline: Some(Duration::from_micros(500)),
            ..WorkloadSpec::default()
        };
        assert!(generate(&spec).iter().all(|t| t.deadline == Some(Duration::from_micros(500))));
        assert!(generate(&WorkloadSpec { deadline: None, ..spec }).iter().all(|t| t.deadline.is_none()));
    }

    #[test]
    fn patterns_parse() {
        assert_eq!(ArrivalPattern::parse("bursty"), Some(ArrivalPattern::Bursty));
        assert_eq!(ArrivalPattern::parse("heavy"), Some(ArrivalPattern::HeavyTailed));
        assert_eq!(ArrivalPattern::parse("uniform"), Some(ArrivalPattern::Uniform));
        assert_eq!(ArrivalPattern::parse("diurnal"), Some(ArrivalPattern::Diurnal));
        assert_eq!(ArrivalPattern::parse("flash"), Some(ArrivalPattern::FlashCrowd));
        assert_eq!(ArrivalPattern::parse("flash-crowd"), Some(ArrivalPattern::FlashCrowd));
        assert_eq!(ArrivalPattern::parse("nope"), None);
    }

    #[test]
    fn diurnal_rate_actually_swings() {
        let spec = WorkloadSpec {
            requests: 400,
            pattern: ArrivalPattern::Diurnal,
            ..WorkloadSpec::default()
        };
        let jobs = generate(&spec);
        assert_eq!(jobs.len(), 400);
        assert_eq!(generate(&spec).iter().map(|t| t.delay_before).collect::<Vec<_>>(),
                   jobs.iter().map(|t| t.delay_before).collect::<Vec<_>>(),
                   "diurnal schedule is seed-deterministic");
        // Two cycles over 400 requests put a peak (s≈1, gap scale 0.25)
        // near index 50 and a trough (s≈0, gap scale 2.0) near index 150:
        // the day/night swing must be visible in the mean per-request gap.
        let mean_gap = |slice: &[TimedJob]| {
            slice.iter().map(|t| t.delay_before.as_nanos()).sum::<u128>() / slice.len() as u128
        };
        let peak = mean_gap(&jobs[30..70]);
        let trough = mean_gap(&jobs[130..170]);
        assert!(
            trough > peak * 2,
            "diurnal trough gap {trough} must dwarf peak gap {peak}"
        );
    }

    #[test]
    fn flash_crowd_window_is_hot_keyed_and_dense() {
        let spec = WorkloadSpec {
            requests: 1000,
            pattern: ArrivalPattern::FlashCrowd,
            table_names: vec!["t1".into()],
            ..WorkloadSpec::default()
        };
        let jobs = generate(&spec);
        assert_eq!(jobs.len(), 1000);
        let hot = SceneKind::ALL[(spec.seed % 3) as usize];
        let window = &jobs[460..540]; // strictly inside the [45%, 55%) crowd
        let hot_key = window.iter().all(|t| match &t.job {
            Workload::Render(j) => j.scene == hot && j.precision == RenderPrecision::Fp32,
            Workload::Table(_) => false,
        });
        assert!(hot_key, "the crowd window must request only the seeded hot scene");
        // Dense: the window's total idle time is far below the baseline's.
        let idle = |slice: &[TimedJob]| {
            slice.iter().map(|t| t.delay_before.as_nanos()).sum::<u128>()
        };
        assert!(
            idle(window) * 4 < idle(&jobs[100..180]),
            "crowd arrivals must be much denser than baseline"
        );
    }
}
