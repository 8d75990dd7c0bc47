//! The serving ledger and its reports: [`Ledger`] folds every terminal
//! outcome of one scheduling core into counters, histograms, per-key
//! batch totals and percentile samples as it lands, and builds the one
//! [`ServeMetrics`] report from them; [`ClusterMetrics`] merges replica
//! reports.

use std::collections::HashMap;

use crate::batch::FlushReason;
use crate::request::{BatchKey, Request};
use crate::sched::{LaneConfig, SchedConfig};

/// Aggregated per-lane serving outcome: every admitted request of the lane
/// is `served`, `shed`, or `failed`; `expired` is the subset of `served`
/// that finished past its deadline and `degraded` the subset served at a
/// browned-out precision.
#[derive(Debug, Clone)]
pub struct LaneStats {
    /// Lane label.
    pub name: String,
    /// Drain weight.
    pub weight: u64,
    /// Requests admitted to this lane (`served + shed + failed`).
    pub submitted: usize,
    /// Requests rendered and answered.
    pub served: usize,
    /// Requests dropped at dequeue because their deadline passed while
    /// queued.
    pub shed: usize,
    /// Served requests that finished after their deadline.
    pub expired: usize,
    /// Requests rejected at admission.
    pub rejected: usize,
    /// Requests that terminated as `Failed` under quarantine (or against
    /// an open circuit breaker).
    pub failed: usize,
    /// Served requests the brownout downgraded to a cheaper precision.
    pub degraded: usize,
    /// Queue-latency histogram over every admitted request (served, shed
    /// and failed alike — all experienced the queue).
    pub queue_hist: LatencyHistogram,
}

/// Simple summary statistics over a set of nanosecond samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct NsStats {
    /// Arithmetic mean.
    pub mean: u64,
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl NsStats {
    /// Computes stats from samples (all zeros when empty).
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return NsStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        // Total on every input: `clamp(1, 0)` panics (min > max), so an
        // empty set short-circuits to 0 instead of relying on the guard
        // above staying in place.
        let rank = |p: f64| match sorted.len() {
            0 => 0,
            n => sorted[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1],
        };
        NsStats {
            mean: (sorted.iter().map(|&v| v as u128).sum::<u128>() / sorted.len() as u128) as u64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// The hand-rolled JSON of the serve and cluster records, as a value
/// tree that owns escaping, indentation, layout and commas, so each
/// record only lists its fields. Every value is a number, a bool or a
/// string this crate writes, except lane names: callers control those,
/// so [`Json::str`] escapes them and they cannot break the document.
enum Json {
    /// A number, a bool or an already-quoted string, written verbatim.
    Raw(String),
    /// An object. Its first `inline` fields share the opening line and
    /// the rest go one per line, two spaces deeper: `0` is the block
    /// layout, [`INLINE`] keeps every field on one line.
    Obj(Vec<(&'static str, Json)>, usize),
    /// An array, laid out like an object.
    Arr(Vec<Json>, usize),
}

/// Every item on the opening line.
const INLINE: usize = usize::MAX;

/// A value written verbatim: a number, a bool, or one already formatted.
fn raw(value: impl std::fmt::Display) -> Json {
    Json::Raw(value.to_string())
}

/// A ratio, at the records' four decimals.
fn ratio(value: f64) -> Json {
    raw(format!("{value:.4}"))
}

/// A digest, as a quoted zero-padded hex string.
fn hex(digest: u64) -> Json {
    raw(format!("\"{digest:#018x}\""))
}

/// An object's fields, each key written once: a bare `key` writes
/// `src.key` verbatim, `key = value` writes the [`Json`] `value`.
macro_rules! fields {
    (@value $src:expr, $key:ident) => { raw($src.$key) };
    (@value $src:expr, $key:ident, $value:expr) => { $value };
    ($src:expr; $($key:ident $(= $value:expr)?),* $(,)?) => {
        vec![$((stringify!($key), fields!(@value $src, $key $(, $value)?))),*]
    };
}

impl Json {
    /// A string value, quoted and escaped.
    fn str(s: &str) -> Json {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        Json::Raw(out + "\"")
    }

    /// A whole record: a block object, newline-terminated.
    fn document(fields: Vec<(&'static str, Json)>) -> String {
        let mut out = String::new();
        Json::Obj(fields, 0).write(&mut out, 0);
        out + "\n"
    }

    /// Writes the value with its container's items at `indent + 2`. Items
    /// after the first follow a comma; an item past `inline` starts a new
    /// line, and a block container (`inline == 0`) also closes on one.
    fn write(&self, out: &mut String, indent: usize) {
        let (brackets, pad, items, inline): (_, _, Vec<_>, _) = match self {
            Json::Raw(s) => return out.push_str(s),
            Json::Obj(f, inline) => (["{", "}"], " ", f.iter().map(|(k, v)| (*k, v)).collect(), *inline),
            Json::Arr(a, inline) => (["[", "]"], "", a.iter().map(|v| ("", v)).collect(), *inline),
        };
        out.push_str(brackets[0]);
        for (i, (key, value)) in items.into_iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            if i < inline {
                out.push_str(&format!("{comma}{}", if i == 0 { pad } else { " " }));
            } else {
                out.push_str(&format!("{comma}\n{:w$}", "", w = indent + 2));
            }
            if !key.is_empty() {
                out.push_str(&format!("\"{key}\": "));
            }
            value.write(out, indent + 2);
        }
        if inline == 0 {
            out.push_str(&format!("\n{:w$}", "", w = indent));
        } else {
            out.push_str(pad);
        }
        out.push_str(brackets[1]);
    }
}

/// Number of histogram buckets: one per edge plus the overflow bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_EDGES_NS.len() + 1;

/// Fixed upper edges (exclusive, ns) of the latency histogram: log-4
/// spaced from 1 µs to ~16.8 s. Fixed — never derived from the data — so
/// bucket counts from different runs, machines and CI legs are directly
/// comparable, and a tail shift shows up as counts migrating to higher
/// buckets.
pub const LATENCY_EDGES_NS: [u64; 13] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
];

/// Fixed-bucket latency histogram (see [`LATENCY_EDGES_NS`]). Bucket `i`
/// counts samples in `[edge(i-1), edge(i))`; the last bucket counts
/// everything at or above the final edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: [0; LATENCY_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Adds one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = LATENCY_EDGES_NS
            .iter()
            .position(|&edge| ns < edge)
            .unwrap_or(LATENCY_EDGES_NS.len());
        self.counts[bucket] += 1;
    }

    /// Builds a histogram from samples.
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut h = LatencyHistogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Per-bucket counts, lowest bucket first (overflow last).
    pub fn counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The exact bucketwise sum of two histograms — the fixed edges make
    /// merging lossless, so a cluster-wide histogram is *identical* to
    /// re-bucketing every underlying sample (the schema tests pin this).
    pub fn merge(&self, other: &LatencyHistogram) -> LatencyHistogram {
        let mut out = *self;
        for (a, b) in out.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        out
    }

    /// The `{ "edges_ns": [...], "counts": [...] }` JSON fragment.
    fn json(&self) -> Json {
        let list = |v: &[u64]| raw(format!("{v:?}"));
        Json::Obj(fields!(self; edges_ns = list(&LATENCY_EDGES_NS), counts = list(&self.counts)), INLINE)
    }
}

/// Aggregate metrics for one serving run.
///
/// With streaming on (`chunks > 1`) the per-lane counters, `shed`,
/// `rejected`, `failed` and the queue/service stats are **chunk units**;
/// `requests` counts whole answered renders and `chunks_served` the
/// served chunk units. At chunk count 1 the two units coincide and every
/// field reproduces its pre-streaming value exactly.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Whole requests answered (every chunk served and reassembled).
    pub requests: usize,
    /// Chunk units served, summed over requests (`== requests` at chunk
    /// count 1).
    pub chunks_served: usize,
    /// Requests rejected at admission (zero-capacity or full lane, or a
    /// closed queue), summed over lanes.
    pub rejected: usize,
    /// Requests shed at dequeue (deadline passed while queued), summed
    /// over lanes.
    pub shed: usize,
    /// Served requests that finished after their deadline, summed over
    /// lanes.
    pub expired: usize,
    /// Requests that terminated as `Failed` (quarantine exhausted their
    /// retries, or their key's breaker was open), summed over lanes.
    pub failed: usize,
    /// Served requests the brownout downgraded to a cheaper precision,
    /// summed over lanes.
    pub degraded: usize,
    /// Re-execution attempts of quarantined requests.
    pub retried: usize,
    /// Batch panics a worker caught and recovered from by quarantining
    /// the batch (re-executions under quarantine are not counted).
    /// Timing-dependent: how poisoned requests share batches decides it.
    pub worker_restarts: usize,
    /// Times a per-key circuit breaker tripped open.
    pub breaker_opened: usize,
    /// Half-open probes the breaker admitted after cooldowns.
    pub breaker_half_open_probes: usize,
    /// Per-lane outcome counters and queue-latency histograms.
    pub lanes: Vec<LaneStats>,
    /// Batches executed.
    pub batches: usize,
    /// Mean batch size over all batches.
    pub mean_occupancy: f64,
    /// Mean batch size restricted to the coalescable portion of the
    /// workload: batches whose key received more than one request over the
    /// whole run (a key requested once can never coalesce, so it says
    /// nothing about the batcher).
    pub coalescable_occupancy: f64,
    /// Batches flushed by the size threshold.
    pub flushed_size: usize,
    /// Batches flushed by linger timeout.
    pub flushed_timeout: usize,
    /// Batches flushed by shutdown drain.
    pub flushed_drain: usize,
    /// Queue-latency stats (submit → execution start), per chunk.
    pub queue_ns: NsStats,
    /// Batch service-time stats.
    pub service_ns: NsStats,
    /// Time-to-first-chunk stats: per answered request, the *smallest*
    /// chunk end-to-end latency — when the stream's first byte band was
    /// ready. Equals `render_ns` at chunk count 1.
    pub first_chunk_ns: NsStats,
    /// Full-render latency stats: per answered request, the *largest*
    /// chunk end-to-end latency — when the whole response was ready.
    pub render_ns: NsStats,
    /// Fixed-bucket histogram of per-request end-to-end latency (the
    /// `render_ns` samples: queue wait + batch service of the slowest
    /// chunk), for CI-diffable tail tracking.
    pub latency_hist: LatencyHistogram,
    /// Fixed-bucket histogram of the time-to-first-chunk samples.
    pub first_chunk_hist: LatencyHistogram,
    /// Whole-run wall time.
    pub wall_ns: u64,
    /// Worker threads the server ran.
    pub workers: usize,
    /// `fnr_par` width during the run (inner render parallelism).
    pub threads: usize,
    /// Order-canonical digest of the response set.
    pub digest: u64,
}

impl ServeMetrics {
    /// Renders the `flexnerfer-serve-bench/4` JSON record (hand-rolled,
    /// mirroring the `flexnerfer-repro-bench/2` trajectory format: every
    /// value is a number or a string this crate controls). Schema `/2`
    /// extended `/1` with the scheduler's `shed`/`expired` totals and the
    /// per-lane `lanes` array; `/3` added the robustness counters —
    /// `failed`/`retried`/`degraded`/`worker_restarts` totals, the
    /// `breaker` object, and per-lane `failed`/`degraded`; `/4` adds the
    /// streaming fields — `chunks_served`, the `first_chunk_ns` /
    /// `render_ns` stats, `first_chunk_hist`, a `p99` in every stats
    /// object — and re-bases the per-lane counters on chunk units
    /// (identical to `/3` at chunk count 1).
    pub fn to_json(&self) -> String {
        let stats = |s: &NsStats| Json::Obj(fields!(s; mean, p50, p95, p99, max), INLINE);
        let breaker = fields!(self;
            opened = raw(self.breaker_opened), half_open_probes = raw(self.breaker_half_open_probes));
        let flushes = fields!(self;
            size = raw(self.flushed_size), timeout = raw(self.flushed_timeout), drain = raw(self.flushed_drain));
        Json::document(fields!(self;
            schema = Json::str("flexnerfer-serve-bench/4"),
            threads, workers, requests, chunks_served, rejected, shed, expired, failed, retried,
            degraded, worker_restarts,
            breaker = Json::Obj(breaker, INLINE),
            lanes = lanes_json(&self.lanes),
            batches,
            mean_batch_occupancy = ratio(self.mean_occupancy),
            coalescable_occupancy = ratio(self.coalescable_occupancy),
            flushes = Json::Obj(flushes, INLINE),
            queue_ns = stats(&self.queue_ns),
            service_ns = stats(&self.service_ns),
            first_chunk_ns = stats(&self.first_chunk_ns),
            render_ns = stats(&self.render_ns),
            request_latency_hist = self.latency_hist.json(),
            first_chunk_hist = self.first_chunk_hist.json(),
            wall_ns,
            digest = hex(self.digest),
        ))
    }
}

/// A `lanes` array, one line per lane, shared by the serve and cluster
/// schemas so per-lane counter shapes stay identical between them.
fn lanes_json(lanes: &[LaneStats]) -> Json {
    let lane = |l: &LaneStats| {
        let f = fields!(l; name = Json::str(&l.name), weight, submitted, served, shed, expired,
            rejected, failed, degraded, queue_hist = l.queue_hist.json());
        Json::Obj(f, INLINE)
    };
    Json::Arr(lanes.iter().map(lane).collect(), 0)
}

/// The serving report as a fold: the scheduling core lands every terminal
/// outcome here the moment it happens, and [`Ledger::report`] is the one
/// place a [`ServeMetrics`] is built. It keeps counters, bucket counts
/// and integer totals, plus only the samples the exact nearest-rank
/// percentiles need — no per-chunk or per-batch record — so every
/// reported number is independent of the order outcomes land in (live
/// workers land them nondeterministically).
#[derive(Default)]
pub(crate) struct Ledger {
    /// Per-lane counters and queue histograms, in lane-index order.
    lanes: Vec<LaneStats>,
    /// Per coalescing key: `(batches, members)` executed.
    keys: HashMap<BatchKey, (usize, usize)>,
    /// Batches per [`FlushReason`], in declaration order.
    flushes: [usize; 3],
    /// One queue latency per served chunk.
    queue_samples: Vec<u64>,
    /// One service time per batch.
    service_samples: Vec<u64>,
    /// Per answered request: its fastest chunk's end-to-end latency.
    first_samples: Vec<u64>,
    /// Per answered request: its slowest chunk's end-to-end latency.
    full_samples: Vec<u64>,
    /// Chunked requests some but not all of whose chunks were served:
    /// `id → (chunks served, fastest, slowest)` latency so far.
    partial: HashMap<u64, (u32, u64, u64)>,
}

impl Ledger {
    /// An empty ledger over the lanes of `sched` (its order defines lane
    /// indices).
    pub(crate) fn new(sched: &SchedConfig) -> Self {
        let lane = |l: &LaneConfig| LaneStats {
            name: l.name.clone(),
            weight: l.weight,
            submitted: 0,
            served: 0,
            shed: 0,
            expired: 0,
            rejected: 0,
            failed: 0,
            degraded: 0,
            queue_hist: LatencyHistogram::new(),
        };
        Ledger { lanes: sched.lanes.iter().map(lane).collect(), ..Ledger::default() }
    }

    /// Counts `chunks` chunk units refused admission on `lane`.
    pub(crate) fn rejected(&mut self, lane: usize, chunks: usize) {
        self.lanes[lane].rejected += chunks;
    }

    /// Counts one request the brownout downgraded on `lane`.
    pub(crate) fn degraded(&mut self, lane: usize) {
        self.lanes[lane].degraded += 1;
    }

    /// Lands one batch of `size` members on `key` that ran `service_ns`.
    pub(crate) fn batch(&mut self, key: &BatchKey, size: usize, service_ns: u64, flush: FlushReason) {
        match self.keys.get_mut(key) {
            Some((batches, members)) => {
                *batches += 1;
                *members += size;
            }
            None => {
                self.keys.insert(key.clone(), (1, size));
            }
        }
        self.flushes[flush as usize] += 1;
        self.service_samples.push(service_ns);
    }

    /// Lands chunk `req` as served from `lane`: its batch started at
    /// `start_ns` and ran `service_ns`. The chunk's parent becomes an
    /// answered request when its last chunk lands.
    pub(crate) fn served(&mut self, lane: usize, req: &Request, start_ns: u64, service_ns: u64) {
        let queue_ns = start_ns.saturating_sub(req.arrival_ns);
        let l = self.admitted(lane, queue_ns);
        l.served += 1;
        l.expired += usize::from(req.deadline_ns.is_some_and(|d| start_ns.saturating_add(service_ns) >= d));
        self.queue_samples.push(queue_ns);
        let lat = queue_ns.saturating_add(service_ns);
        let (first, full) = if req.chunk.of == 1 {
            (lat, lat)
        } else {
            let e = self.partial.entry(req.id).or_insert((0, u64::MAX, 0));
            e.0 += 1;
            e.1 = e.1.min(lat);
            e.2 = e.2.max(lat);
            if e.0 < req.chunk.of {
                return;
            }
            let (_, first, full) = self.partial.remove(&req.id).expect("entry just updated");
            (first, full)
        };
        self.first_samples.push(first);
        self.full_samples.push(full);
    }

    /// Lands one request shed from `lane` after queueing `queue_ns`.
    pub(crate) fn shed(&mut self, lane: usize, queue_ns: u64) {
        self.admitted(lane, queue_ns).shed += 1;
    }

    /// Lands one request failed on `lane` after `queue_ns`.
    pub(crate) fn failed(&mut self, lane: usize, queue_ns: u64) {
        self.admitted(lane, queue_ns).failed += 1;
    }

    /// Counts one admitted request's terminal outcome on `lane`: served,
    /// shed and failed alike were submitted and waited `queue_ns`.
    fn admitted(&mut self, lane: usize, queue_ns: u64) -> &mut LaneStats {
        let l = &mut self.lanes[lane];
        l.submitted += 1;
        l.queue_hist.record(queue_ns);
        l
    }

    /// The serving report over what has landed so far: `digest` is the
    /// set digest of the payloads served, `wall_ns` the run's length on
    /// the caller's clock, `workers` the pool size. The recovery/breaker
    /// counters are zero — only the live server knows them, and fills
    /// them in.
    pub(crate) fn report(&self, digest: u64, wall_ns: u64, workers: usize) -> ServeMetrics {
        let sum = |f: fn(&LaneStats) -> usize| self.lanes.iter().map(f).sum();
        // Both occupancy means divide integer totals; the coalescable one
        // only counts keys that received more than one member in total (a
        // key requested once can never coalesce).
        let (mut batches, mut members, mut co_batches, mut co_members) = (0, 0, 0, 0);
        for &(b, m) in self.keys.values() {
            batches += b;
            members += m;
            if m > 1 {
                co_batches += b;
                co_members += m;
            }
        }
        let mean = |m: usize, b: usize| if b == 0 { 0.0 } else { m as f64 / b as f64 };
        ServeMetrics {
            requests: self.full_samples.len(),
            chunks_served: sum(|l| l.served),
            rejected: sum(|l| l.rejected),
            shed: sum(|l| l.shed),
            expired: sum(|l| l.expired),
            failed: sum(|l| l.failed),
            degraded: sum(|l| l.degraded),
            retried: 0,
            worker_restarts: 0,
            breaker_opened: 0,
            breaker_half_open_probes: 0,
            lanes: self.lanes.clone(),
            batches,
            mean_occupancy: mean(members, batches),
            coalescable_occupancy: mean(co_members, co_batches),
            flushed_size: self.flushes[FlushReason::Size as usize],
            flushed_timeout: self.flushes[FlushReason::Timeout as usize],
            flushed_drain: self.flushes[FlushReason::Drain as usize],
            queue_ns: NsStats::from_samples(&self.queue_samples),
            service_ns: NsStats::from_samples(&self.service_samples),
            first_chunk_ns: NsStats::from_samples(&self.first_samples),
            render_ns: NsStats::from_samples(&self.full_samples),
            latency_hist: LatencyHistogram::from_samples(&self.full_samples),
            first_chunk_hist: LatencyHistogram::from_samples(&self.first_samples),
            wall_ns,
            workers,
            threads: fnr_par::current_num_threads(),
            digest,
        }
    }
}

/// One replica's view of a cluster run: its full single-server metrics
/// plus the cluster-layer counters (routing, failover, faults, cache).
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Replica index (ring identity).
    pub replica: usize,
    /// Whether the replica was alive when the run ended.
    pub alive: bool,
    /// Kill events this replica absorbed.
    pub kills: usize,
    /// Restart events this replica absorbed.
    pub restarts: usize,
    /// Fresh submissions the router sent here (failovers excluded).
    pub routed: usize,
    /// Orphans of this replica's kills that were re-admitted elsewhere.
    pub failed_over_out: usize,
    /// Orphans of other replicas' kills re-admitted here.
    pub failed_over_in: usize,
    /// Model-cache hits (a batch whose `(scene, precision)` model was
    /// already resident).
    pub cache_hits: u64,
    /// Model-cache misses (the batch paid the modeled cold-start cost).
    pub cache_misses: u64,
    /// Virtual time this replica's workers spent serving batches.
    pub busy_ns: u64,
    /// Times the failure detector marked this replica Suspect (a
    /// `Healthy → Suspect` crossing, counted once per crossing).
    pub suspects: usize,
    /// Gray-failure service-time multiplier in effect when the run ended
    /// (1 = nominal; set by `slow@T:R:F` fault events).
    pub slow_factor: u64,
    /// Whether the replica left the ring gracefully (`leave@T:R`) and
    /// finished draining before the run ended.
    pub departed: bool,
    /// The replica's own single-server aggregate (lane counters, queue
    /// histograms, digest over the responses it served).
    pub metrics: ServeMetrics,
}

/// The counters only the cluster front door (router + hedging + admission
/// control) knows — the cluster state counts them in one field and hands
/// it whole to [`ClusterMetrics::aggregate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontDoorTotals {
    /// Requests dropped at the front door for any reason (no routable
    /// replica, or overload admission). Includes `overload_shed`.
    pub front_door_shed: usize,
    /// The CoDel-admission subset of `front_door_shed`: Batch-class
    /// arrivals shed because the target replica was in its dropping
    /// state.
    pub overload_shed: usize,
    /// Requests that got a hedge copy placed on a second replica.
    pub hedged: usize,
    /// Hedged requests whose *hedge* copy completed first.
    pub hedge_won: usize,
    /// Hedged requests where the hedge copy lost (primary won, or the
    /// request terminated non-served). `hedged == hedge_won +
    /// hedge_wasted` always.
    pub hedge_wasted: usize,
    /// Replicas added by `join@T` scale-out events.
    pub joins: usize,
    /// Replicas drained by `leave@T:R` scale-in events.
    pub leaves: usize,
}

/// Aggregate metrics for one cluster simulation run: cluster-wide totals
/// plus every replica's [`ReplicaStats`]. The cluster latency histogram
/// is the exact bucketwise merge of the replica histograms.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Per-replica stats, in replica-index order.
    pub replicas: Vec<ReplicaStats>,
    /// Jobs in the submitted schedule.
    pub submitted: usize,
    /// Chunk units across the submitted schedule (`== submitted` at
    /// chunk count 1). The conservation law balances in these units.
    pub submitted_chunks: usize,
    /// Chunk units served (answered with payload bytes), summed over
    /// replicas. With streaming on, one request's chunks may be served
    /// by different replicas after a failover.
    pub served: usize,
    /// Whole requests answered: parents whose every chunk was served
    /// somewhere in the cluster and reassembled (`== served` at chunk
    /// count 1).
    pub completed: usize,
    /// Requests shed by replica schedulers (deadline passed while
    /// queued), summed over replicas.
    pub shed: usize,
    /// Requests the front door dropped: no routable replica with
    /// inflight headroom existed (fresh submissions and failover
    /// re-admissions alike), or CoDel overload admission shed the
    /// arrival. Superset of `overload_shed`.
    pub front_door_shed: usize,
    /// The CoDel overload-admission subset of `front_door_shed`.
    pub overload_shed: usize,
    /// Requests that got a hedge copy placed on a second replica.
    pub hedged: usize,
    /// Hedged requests whose hedge copy completed first.
    pub hedge_won: usize,
    /// Hedged requests whose hedge copy lost or was wasted.
    pub hedge_wasted: usize,
    /// Replicas added by scale-out (`join@T`) events.
    pub joins: usize,
    /// Replicas drained by scale-in (`leave@T:R`) events.
    pub leaves: usize,
    /// `Healthy → Suspect` detector crossings, summed over replicas.
    pub suspects: usize,
    /// Served requests that finished past their deadline, summed over
    /// replicas.
    pub expired: usize,
    /// Requests rejected at a replica's admission (full lane), summed
    /// over replicas.
    pub rejected: usize,
    /// Requests that terminated as `Failed` (fault injection / quarantine)
    /// on a replica, summed over replicas.
    pub failed: usize,
    /// Orphaned requests successfully re-admitted on another replica.
    pub failed_over: usize,
    /// Kill events executed by the fault plan.
    pub kills: usize,
    /// Restart events executed by the fault plan.
    pub restarts: usize,
    /// Exact merge of the per-replica end-to-end latency histograms.
    pub latency_hist: LatencyHistogram,
    /// Exact merge of the per-replica time-to-first-chunk histograms.
    pub first_chunk_hist: LatencyHistogram,
    /// Virtual wall clock when the last replica went idle.
    pub wall_ns: u64,
    /// Virtual workers per replica.
    pub workers_per_replica: usize,
    /// `fnr_par` width during the run (render fan-out only).
    pub threads: usize,
    /// Order-canonical digest over the whole cluster's response set.
    pub digest: u64,
}

impl ClusterMetrics {
    /// Builds the cluster aggregate from per-replica stats plus the
    /// front-door counters only the router knows.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate(
        replicas: Vec<ReplicaStats>,
        submitted: usize,
        submitted_chunks: usize,
        completed: usize,
        front_door: FrontDoorTotals,
        wall_ns: u64,
        workers_per_replica: usize,
        threads: usize,
        digest: u64,
    ) -> Self {
        let mut latency_hist = LatencyHistogram::new();
        let mut first_chunk_hist = LatencyHistogram::new();
        for r in &replicas {
            latency_hist = latency_hist.merge(&r.metrics.latency_hist);
            first_chunk_hist = first_chunk_hist.merge(&r.metrics.first_chunk_hist);
        }
        ClusterMetrics {
            submitted,
            submitted_chunks,
            completed,
            served: replicas.iter().map(|r| r.metrics.chunks_served).sum(),
            shed: replicas.iter().map(|r| r.metrics.shed).sum(),
            front_door_shed: front_door.front_door_shed,
            overload_shed: front_door.overload_shed,
            hedged: front_door.hedged,
            hedge_won: front_door.hedge_won,
            hedge_wasted: front_door.hedge_wasted,
            joins: front_door.joins,
            leaves: front_door.leaves,
            suspects: replicas.iter().map(|r| r.suspects).sum(),
            expired: replicas.iter().map(|r| r.metrics.expired).sum(),
            rejected: replicas.iter().map(|r| r.metrics.rejected).sum(),
            failed: replicas.iter().map(|r| r.metrics.failed).sum(),
            failed_over: replicas.iter().map(|r| r.failed_over_in).sum(),
            kills: replicas.iter().map(|r| r.kills).sum(),
            restarts: replicas.iter().map(|r| r.restarts).sum(),
            latency_hist,
            first_chunk_hist,
            wall_ns,
            workers_per_replica,
            threads,
            digest,
            replicas,
        }
    }

    /// Every submitted chunk unit must terminate exactly once somewhere
    /// in the cluster: served, scheduler-shed, rejected at an admission
    /// edge, failed under fault injection, or dropped at the front door.
    /// Failover moves a chunk, it never duplicates or loses one — this
    /// is the conservation law the chaos suite (and the CLI self-check)
    /// enforce. At chunk count 1 the units are whole requests and the
    /// balance is against `submitted` itself.
    pub fn conserves_submitted(&self) -> bool {
        self.served + self.shed + self.rejected + self.failed + self.front_door_shed
            == self.submitted_chunks
    }

    /// Renders the `flexnerfer-cluster-bench/4` JSON record (hand-rolled
    /// like the serve/repro records: every value is a number or a string
    /// this crate controls). Schema `/3` added the resilience-layer totals
    /// (`overload_shed`, `hedged`/`hedge_won`/`hedge_wasted`, `joins`,
    /// `leaves`, `suspects`) and per-replica `suspects`/`slow_factor`/
    /// `departed`; `/2` added the `failed` totals (and the per-lane
    /// `failed`/`degraded` counters inherited from the serve lanes
    /// array); `/4` adds the streaming fields — `submitted_chunks`,
    /// `completed`, `first_chunk_hist` — and re-bases `served`/`shed`/
    /// `rejected`/`failed` on chunk units (identical to `/3` at chunk
    /// count 1).
    pub fn to_json(&self) -> String {
        let share = |a: u64, b: u64| ratio(if b == 0 { 0.0 } else { a as f64 / b as f64 });
        let replica = |r: &ReplicaStats| {
            let m = &r.metrics;
            let (hits, misses) = (r.cache_hits, r.cache_misses);
            let cache = fields!(r; hits = raw(hits), misses = raw(misses), hit_ratio = share(hits, hits + misses));
            let mut f = fields!(r; replica, alive, departed, kills, restarts, suspects, slow_factor,
                routed, failed_over_out, failed_over_in, served = raw(m.chunks_served));
            f.extend(fields!(m; shed, expired, rejected, failed));
            f.extend(fields!(r; cache = Json::Obj(cache, INLINE),
                utilization = share(r.busy_ns, self.wall_ns), digest = hex(m.digest)));
            // The counters share the opening line; the lanes array and
            // the histogram follow one per line.
            let inline = f.len();
            f.extend(fields!(m; lanes = lanes_json(&m.lanes), request_latency_hist = m.latency_hist.json()));
            Json::Obj(f, inline)
        };
        let hedging = fields!(self; hedged, won = raw(self.hedge_won), wasted = raw(self.hedge_wasted));
        Json::document(fields!(self;
            schema = Json::str("flexnerfer-cluster-bench/4"),
            threads,
            replicas = raw(self.replicas.len()),
            workers_per_replica, submitted, submitted_chunks, completed, served, shed,
            front_door_shed, overload_shed, expired, rejected, failed, failed_over,
            hedging = Json::Obj(hedging, INLINE),
            kills, restarts, joins, leaves, suspects,
            replica_stats = Json::Arr(self.replicas.iter().map(replica).collect(), 0),
            request_latency_hist = self.latency_hist.json(),
            first_chunk_hist = self.first_chunk_hist.json(),
            wall_ns,
            digest = hex(self.digest),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ChunkSpan, RenderPrecision, SceneKind, Workload};
    use crate::sched::Priority;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// A ledger over lanes with the given names, each of weight 1.
    fn ledger_named<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Ledger {
        let lane = |name: S| LaneConfig { name: name.into(), weight: 1, capacity: None };
        Ledger::new(&SchedConfig { lanes: names.into_iter().map(lane).collect(), lane_by_class: [0; 3] })
    }

    /// A ledger over `n` lanes named `lane0..`.
    fn ledger(n: usize) -> Ledger {
        ledger_named((0..n).map(|i| format!("lane{i}")))
    }

    /// The report with no responses, zero wall time and one worker.
    fn report(l: &Ledger) -> ServeMetrics {
        l.report(0, 0, 1)
    }

    /// Chunk `index` of `of` of request `id`, arriving at 0; a request
    /// `late` has a deadline every served chunk misses.
    fn chunk(id: u64, index: u32, of: u32, late: bool) -> Request {
        Request {
            id,
            priority: Priority::Standard,
            arrival_ns: 0,
            deadline_ns: late.then_some(0),
            chunk: ChunkSpan { index, of },
            job: Workload::Table("t".into()),
        }
    }

    /// Lands whole request `id` as served from `lane` after `queue_ns`
    /// queued and 50 µs of service.
    fn rm(l: &mut Ledger, id: u64, lane: usize, queue_ns: u64, deadline_missed: bool) {
        l.served(lane, &chunk(id, 0, 1, deadline_missed), queue_ns, 50_000);
    }


    #[test]
    fn ns_stats_percentiles() {
        let s = NsStats::from_samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 100);
        assert_eq!(s.p99, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean, 55);
        assert_eq!(NsStats::from_samples(&[]).max, 0);
        let wide: Vec<u64> = (1..=200).collect();
        assert_eq!(NsStats::from_samples(&wide).p99, 198, "nearest-rank p99 of 1..=200");
    }

    /// A run that served nothing must yield all-zero stats everywhere a
    /// percentile is computed — no panic from `clamp(1, 0)` on an empty
    /// sorted set.
    #[test]
    fn ns_stats_empty_and_singleton_are_total() {
        let empty = NsStats::from_samples(&[]);
        assert_eq!((empty.mean, empty.p50, empty.p95, empty.max), (0, 0, 0, 0));
        let one = NsStats::from_samples(&[7]);
        assert_eq!((one.mean, one.p50, one.p95, one.max), (7, 7, 7, 7));
    }

    /// Aggregating a run with zero requests of any kind (the zero-served
    /// case) must not panic and must report zeros.
    #[test]
    fn aggregate_of_zero_served_run_is_all_zero() {
        let m = report(&ledger(2));
        assert_eq!(m.requests, 0);
        assert_eq!(m.queue_ns.max, 0);
        assert_eq!(m.service_ns.p95, 0);
        assert!(!m.to_json().is_empty(), "empty run still serializes");
    }

    #[test]
    fn coalescable_occupancy_excludes_singleton_keys() {
        let k1 = BatchKey::Render(SceneKind::Mic, RenderPrecision::Fp32);
        let k2 = BatchKey::Table("lonely".into());
        // k1 got 4 requests over 2 batches (coalescable); k2 got exactly 1.
        let mut l = ledger(1);
        l.batch(&k1, 3, 1000, FlushReason::Size);
        l.batch(&k1, 1, 1000, FlushReason::Drain);
        l.batch(&k2, 1, 1000, FlushReason::Timeout);
        let m = report(&l);
        assert_eq!(m.batches, 3);
        assert!((m.mean_occupancy - 5.0 / 3.0).abs() < 1e-9);
        assert!((m.coalescable_occupancy - 2.0).abs() < 1e-9, "k2 excluded: (3+1)/2");
        assert_eq!(m.flushed_size, 1);
        assert_eq!(m.flushed_timeout, 1);
        assert_eq!(m.flushed_drain, 1);
    }

    #[test]
    fn json_contains_schema_lanes_and_digest() {
        let mut l = ledger(2);
        l.rejected(0, 2);
        l.shed(1, 5_000);
        l.failed(0, 7_000);
        l.degraded(0);
        rm(&mut l, 0, 0, 100, true);
        let mut m = l.report(0, 42, 3);
        // The recovery/breaker totals are the live server's to fill in.
        m.worker_restarts = 1;
        m.retried = 2;
        m.breaker_opened = 1;
        m.breaker_half_open_probes = 1;
        let j = m.to_json();
        assert!(j.contains("\n  \"workers\": 3,\n"));
        assert!(j.contains("\n  \"wall_ns\": 42,\n"));
        // The schema bump: /4 carries the streaming fields alongside
        // everything /3 had (robustness counters, lanes array, totals).
        assert!(j.contains("\"schema\": \"flexnerfer-serve-bench/4\""));
        assert!(j.contains("\"chunks_served\": 1,"));
        assert!(j.contains("\"first_chunk_ns\": {"));
        assert!(j.contains("\"render_ns\": {"));
        assert!(j.contains("\"first_chunk_hist\": { \"edges_ns\": [1000, "));
        assert!(j.contains("\"p99\": "));
        assert!(j.contains("\"rejected\": 2"));
        assert!(j.contains("\"shed\": 1,"));
        assert!(j.contains("\"expired\": 1,"));
        assert!(j.contains("\n  \"failed\": 1,"));
        assert!(j.contains("\n  \"retried\": 2,"));
        assert!(j.contains("\n  \"degraded\": 1,"));
        assert!(j.contains("\n  \"worker_restarts\": 1,"));
        assert!(j.contains("\"breaker\": { \"opened\": 1, \"half_open_probes\": 1 }"));
        assert!(j.contains("\"lanes\": ["));
        assert!(j.contains(
            "\"name\": \"lane0\", \"weight\": 1, \"submitted\": 2, \"served\": 1, \"shed\": 0, \
             \"expired\": 1, \"rejected\": 2, \"failed\": 1, \"degraded\": 1, \
             \"queue_hist\": { \"edges_ns\": [1000, "
        ));
        assert!(j.contains("\"name\": \"lane1\", \"weight\": 1, \"submitted\": 1, \"served\": 0, \"shed\": 1,"));
        assert!(j.contains("\"digest\": \"0x"));
        assert!(j.contains("\"request_latency_hist\": { \"edges_ns\": [1000, "));
    }

    #[test]
    fn lane_names_are_json_escaped() {
        let j = report(&ledger_named(["ti\"er\\1\n"])).to_json();
        assert!(
            j.contains("\"name\": \"ti\\\"er\\\\1\\u000a\""),
            "hostile lane name must not break the record: {j}"
        );
    }

    #[test]
    fn lane_stats_partition_admitted_requests() {
        let mut l = ledger(3);
        rm(&mut l, 0, 0, 100, false);
        rm(&mut l, 1, 0, 200, true);
        rm(&mut l, 2, 1, 300, false);
        l.shed(0, 400);
        l.shed(2, 500);
        l.failed(1, 600);
        let m = report(&l);
        assert_eq!(m.requests, 3);
        assert_eq!(m.shed, 2);
        assert_eq!(m.expired, 1);
        assert_eq!(m.failed, 1);
        for lane in &m.lanes {
            assert_eq!(lane.submitted, lane.served + lane.shed + lane.failed, "{}", lane.name);
            // Served, shed and failed all pass through the queue: the
            // histogram counts every admitted request.
            assert_eq!(lane.queue_hist.total() as usize, lane.submitted, "{}", lane.name);
        }
        assert_eq!(m.lanes[0].submitted, 3);
        assert_eq!(m.lanes[0].expired, 1);
        assert_eq!(m.lanes[1].submitted, 2);
        assert_eq!(m.lanes[1].failed, 1);
        assert_eq!(m.lanes[2].shed, 1);
    }

    #[test]
    fn first_chunk_and_full_render_latencies_group_per_parent() {
        // Parent 0: two chunks at latencies 50_100 / 50_300 (queue +
        // 50_000 service). Parent 1: one whole chunk at 50_200. Parent 2
        // is incomplete (1 of 2 chunks served) — chunk counted, request
        // not.
        let mut l = ledger(1);
        for (id, queue_ns, index, of) in [(0, 100, 0, 2), (0, 300, 1, 2), (1, 200, 0, 1), (2, 400, 0, 2)] {
            l.served(0, &chunk(id, index, of, false), queue_ns, 50_000);
        }
        let m = report(&l);
        assert_eq!(m.requests, 2, "only complete parents are answered requests");
        assert_eq!(m.chunks_served, 4);
        assert_eq!(m.first_chunk_ns.max, 50_200, "per-parent minima: 50_100 and 50_200");
        assert_eq!(m.render_ns.max, 50_300, "per-parent maxima: 50_300 and 50_200");
        assert_eq!(m.first_chunk_hist.total(), 2);
        assert_eq!(m.latency_hist.total(), 2);
        // The lane counters stay chunk-granular.
        assert_eq!(m.lanes[0].served, 4);
    }

    #[test]
    fn histogram_buckets_by_fixed_edges() {
        let mut h = LatencyHistogram::new();
        h.record(0); // below the first edge
        h.record(999);
        h.record(1_000); // exactly an edge → next bucket
        h.record(5_000_000); // 5 ms → the (4.096 ms, 16.384 ms] bucket
        h.record(u64::MAX); // overflow bucket
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[7], 1);
        assert_eq!(h.counts()[LATENCY_BUCKETS - 1], 1);
        assert_eq!(h.total(), 5);
    }

    /// A latency exactly at a log-4 bucket edge must land deterministically
    /// in the bucket *above* the edge (edges are exclusive upper bounds) on
    /// every recording path — `record`, `from_samples`, and a `merge` of
    /// partial histograms. Pins every one of the 13 edges so an off-by-one
    /// in any path shows up as a bucket migration.
    #[test]
    fn every_log4_edge_value_lands_in_one_deterministic_bucket() {
        for (i, &edge) in LATENCY_EDGES_NS.iter().enumerate() {
            let mut at = LatencyHistogram::new();
            at.record(edge);
            assert_eq!(at.counts()[i + 1], 1, "sample == edge {edge} lands above the edge");
            assert_eq!(at.total(), 1, "edge {edge} is counted exactly once");
            let mut below = LatencyHistogram::new();
            below.record(edge - 1);
            assert_eq!(below.counts()[i], 1, "edge-1 stays below edge {edge}");
            assert_eq!(
                LatencyHistogram::from_samples(&[edge, edge - 1]),
                at.merge(&below),
                "from_samples and record agree at edge {edge}"
            );
        }
    }

    /// Merging histograms whose samples straddle the edges is exactly the
    /// histogram of the combined sample set — the cluster-wide merge can
    /// never move an edge-valued sample to a different bucket.
    #[test]
    fn histogram_merge_is_exact_for_edge_valued_samples() {
        let samples: Vec<u64> =
            LATENCY_EDGES_NS.iter().flat_map(|&e| [e - 1, e, e + 1]).collect();
        for split in [1, 7, samples.len() / 2, samples.len() - 1] {
            let (a, b) = samples.split_at(split);
            let merged =
                LatencyHistogram::from_samples(a).merge(&LatencyHistogram::from_samples(b));
            assert_eq!(merged, LatencyHistogram::from_samples(&samples), "split at {split}");
        }
    }

    #[test]
    fn histogram_totals_match_request_count_in_aggregate() {
        let mut l = ledger(1);
        for i in 0..17 {
            rm(&mut l, i, 0, i * 100_000, false);
        }
        let m = report(&l);
        assert_eq!(m.latency_hist.total(), 17);
        // Edges are compile-time constants, so bucket identity is stable.
        assert_eq!(m.latency_hist.counts().len(), LATENCY_BUCKETS);
    }

    /// The `(id, index, of)` a served word lands: one of 16 parents,
    /// parent `id` split into `id % 4 + 1` chunks.
    fn parent_chunk(word: u64) -> (u64, u32, u32) {
        let id = (word >> 40) % 16;
        let of = (id % 4) as u32 + 1;
        (id, (word >> 44) as u32 % of, of)
    }

    /// Decodes `word` into one outcome over three lanes and lands it;
    /// latencies span several histogram buckets.
    fn land(l: &mut Ledger, word: u64) {
        let lane = (word >> 3) as usize % 3;
        let ns = (word >> 8) % 20_000_000;
        match word % 6 {
            0 => {
                let (id, index, of) = parent_chunk(word);
                let req = chunk(id, index, of, (word >> 5) & 1 == 1);
                l.served(lane, &req, ns, (word >> 48) % 5_000_000);
            }
            1 => l.shed(lane, ns),
            2 => l.failed(lane, ns),
            3 => l.degraded(lane),
            4 => l.rejected(lane, (word >> 40) as usize % 8 + 1),
            _ => {
                let key = BatchKey::Table(((word >> 40) % 3).to_string());
                let flush = [FlushReason::Size, FlushReason::Timeout, FlushReason::Drain]
                    [(word >> 44) as usize % 3];
                l.batch(&key, (word >> 48) as usize % 4 + 1, ns, flush);
            }
        }
    }

    fn fold(words: &[u64]) -> ServeMetrics {
        let mut l = ledger(3);
        for &w in words {
            land(&mut l, w);
        }
        report(&l)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Live workers land outcomes in a nondeterministic order, so
        /// the report must be a function of the outcome multiset
        /// alone: a shuffled order and its reverse give the same JSON
        /// record, and every lane conserves its admitted requests. A
        /// chunk is served at most once, so repeated served chunks are
        /// dropped.
        #[test]
        fn prop_report_is_independent_of_landing_order(
            words in proptest::collection::vec(0u64..u64::MAX, 1..96),
            seed in 0u64..u64::MAX,
        ) {
            let mut served = std::collections::HashSet::new();
            let mut words = words;
            words.retain(|&w| w % 6 != 0 || served.insert(parent_chunk(w)));
            let a = fold(&words);
            words.shuffle(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(a.to_json(), fold(&words).to_json());
            words.reverse();
            prop_assert_eq!(a.to_json(), fold(&words).to_json());
            for lane in &a.lanes {
                prop_assert_eq!(lane.submitted, lane.served + lane.shed + lane.failed);
                prop_assert_eq!(lane.queue_hist.total() as usize, lane.submitted);
            }
            // Answered requests: parents every chunk of which landed.
            let complete = |id: &u64| served.iter().filter(|c| c.0 == *id).count() == (id % 4) as usize + 1;
            let answered = (0..16u64).filter(complete).count();
            prop_assert_eq!((a.requests, a.latency_hist.total() as usize), (answered, answered));
        }
    }
}
