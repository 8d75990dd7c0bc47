//! Per-request / per-batch accounting and the aggregate serving report.

use std::collections::HashMap;

use crate::batch::FlushReason;
use crate::request::{BatchKey, Response};

/// Timing record for one completed request chunk. Unchunked requests are
/// a single chunk (`chunk` 0 of 1), so at chunk count 1 these records are
/// exactly the pre-streaming per-request records.
#[derive(Debug, Clone)]
pub struct RequestMetric {
    /// The parent request id.
    pub id: u64,
    /// Scheduler lane the chunk was served from.
    pub lane: usize,
    /// Submit → batch-execution-start latency.
    pub queue_ns: u64,
    /// Batch execution wall time (shared by every member of the batch).
    pub service_ns: u64,
    /// Members in the batch this chunk rode in.
    pub batch_size: usize,
    /// Zero-based index of this chunk within its parent request.
    pub chunk: u32,
    /// Total chunks the parent request was split into.
    pub chunk_of: u32,
    /// The chunk was answered, but only after its deadline had passed
    /// (it started in time — else it would have been shed — but finished
    /// late). Counted as `expired` in the per-lane stats.
    pub deadline_missed: bool,
}

/// Record for one request the scheduler shed at dequeue: its deadline
/// passed while it queued, so it was dropped and counted, never rendered.
#[derive(Debug, Clone)]
pub struct ShedMetric {
    /// The request id.
    pub id: u64,
    /// Scheduler lane the request was shed from.
    pub lane: usize,
    /// Submit → shed-decision latency (time spent queued).
    pub queue_ns: u64,
}

/// Record for one request that terminated as `Failed`: it kept panicking
/// under quarantine (or its key's circuit breaker was open), so the
/// supervisor failed it instead of answering or hanging it.
#[derive(Debug, Clone)]
pub struct FailMetric {
    /// The request id.
    pub id: u64,
    /// Scheduler lane the request was admitted to.
    pub lane: usize,
    /// Submit → final-failure latency.
    pub queue_ns: u64,
}

/// Record for one request the brownout controller downgraded to a cheaper
/// precision under overload (it was still served — with the downgraded
/// payload — and is also counted in its lane's `served`).
#[derive(Debug, Clone)]
pub struct DegradeMetric {
    /// The request id.
    pub id: u64,
    /// Scheduler lane the request was served from.
    pub lane: usize,
}

/// Robustness totals only the supervisor/breaker know — handed to
/// [`ServeMetrics::aggregate`] alongside the per-request records.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustTotals {
    /// Crashed workers the supervisor respawned.
    pub worker_restarts: usize,
    /// Re-execution attempts of quarantined requests (each retry counts).
    pub retried: usize,
    /// Times a per-key circuit breaker tripped open.
    pub breaker_opened: usize,
    /// Half-open probes the breaker admitted after cooldowns.
    pub breaker_half_open_probes: usize,
}

/// Per-lane admission accounting the server hands to
/// [`ServeMetrics::aggregate`] (the lane identity plus what never entered
/// the queue).
#[derive(Debug, Clone)]
pub struct LaneAccounting {
    /// Lane label.
    pub name: String,
    /// Drain weight.
    pub weight: u64,
    /// Requests rejected at admission (full or zero-capacity lane).
    pub rejected: usize,
}

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

/// Record for one executed batch.
#[derive(Debug, Clone)]
pub struct BatchMetric {
    /// The coalescing key.
    pub key: BatchKey,
    /// Members executed together.
    pub size: usize,
    /// Execution wall time.
    pub service_ns: u64,
    /// Why the batch flushed.
    pub flush: FlushReason,
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

/// Escapes a string for embedding in the hand-rolled JSON record. Lane
/// names are the one string callers control (every other string in the
/// record is a literal this crate owns), so they must not be able to
/// break the document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
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
    fn to_json(self) -> String {
        let join = |it: &mut dyn Iterator<Item = u64>| {
            it.map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        };
        format!(
            "{{ \"edges_ns\": [{}], \"counts\": [{}] }}",
            join(&mut LATENCY_EDGES_NS.iter().copied()),
            join(&mut self.counts.iter().copied())
        )
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
    /// Crashed workers the supervisor respawned.
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
    /// Builds the aggregate from raw per-request/per-batch/per-shed
    /// records plus the lane identities (`lane_acct` order defines lane
    /// indices).
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate(
        request_metrics: &[RequestMetric],
        batch_metrics: &[BatchMetric],
        shed_metrics: &[ShedMetric],
        fail_metrics: &[FailMetric],
        degrade_metrics: &[DegradeMetric],
        responses: &[Response],
        lane_acct: &[LaneAccounting],
        robust: RobustTotals,
        wall_ns: u64,
        workers: usize,
        threads: usize,
    ) -> Self {
        let lanes: Vec<LaneStats> = lane_acct
            .iter()
            .enumerate()
            .map(|(li, acct)| {
                let served: Vec<&RequestMetric> =
                    request_metrics.iter().filter(|m| m.lane == li).collect();
                let shed: Vec<&ShedMetric> = shed_metrics.iter().filter(|m| m.lane == li).collect();
                let failed: Vec<&FailMetric> =
                    fail_metrics.iter().filter(|m| m.lane == li).collect();
                let mut queue_hist = LatencyHistogram::new();
                for m in &served {
                    queue_hist.record(m.queue_ns);
                }
                for m in &shed {
                    queue_hist.record(m.queue_ns);
                }
                for m in &failed {
                    queue_hist.record(m.queue_ns);
                }
                LaneStats {
                    name: acct.name.clone(),
                    weight: acct.weight,
                    submitted: served.len() + shed.len() + failed.len(),
                    served: served.len(),
                    shed: shed.len(),
                    expired: served.iter().filter(|m| m.deadline_missed).count(),
                    rejected: acct.rejected,
                    failed: failed.len(),
                    degraded: degrade_metrics.iter().filter(|m| m.lane == li).count(),
                    queue_hist,
                }
            })
            .collect();
        let mut key_totals: HashMap<&BatchKey, usize> = HashMap::new();
        for b in batch_metrics {
            *key_totals.entry(&b.key).or_insert(0) += b.size;
        }
        let coalescable: Vec<&BatchMetric> =
            batch_metrics.iter().filter(|b| key_totals[&b.key] > 1).collect();
        let mean = |batches: &[&BatchMetric]| {
            if batches.is_empty() {
                0.0
            } else {
                batches.iter().map(|b| b.size).sum::<usize>() as f64 / batches.len() as f64
            }
        };
        let all: Vec<&BatchMetric> = batch_metrics.iter().collect();
        // Group chunk records by parent request: a parent every chunk of
        // which was served is an answered request. Its *fastest* chunk
        // latency is the time-to-first-chunk (the stream had bytes), its
        // *slowest* is the full-render latency (the stream completed). At
        // chunk count 1 both equal the single chunk's latency, so the
        // histograms and stats reproduce their pre-streaming values.
        let mut parents: HashMap<u64, (u32, u32, u64, u64)> = HashMap::new();
        for m in request_metrics {
            let lat = m.queue_ns + m.service_ns;
            let e = parents.entry(m.id).or_insert((0, m.chunk_of, u64::MAX, 0));
            e.0 += 1;
            e.2 = e.2.min(lat);
            e.3 = e.3.max(lat);
        }
        let mut first_samples = Vec::new();
        let mut full_samples = Vec::new();
        for &(count, of, min, max) in parents.values() {
            if count == of {
                first_samples.push(min);
                full_samples.push(max);
            }
        }
        ServeMetrics {
            requests: full_samples.len(),
            chunks_served: request_metrics.len(),
            rejected: lanes.iter().map(|l| l.rejected).sum(),
            shed: shed_metrics.len(),
            expired: lanes.iter().map(|l| l.expired).sum(),
            failed: fail_metrics.len(),
            degraded: degrade_metrics.len(),
            retried: robust.retried,
            worker_restarts: robust.worker_restarts,
            breaker_opened: robust.breaker_opened,
            breaker_half_open_probes: robust.breaker_half_open_probes,
            lanes,
            batches: batch_metrics.len(),
            mean_occupancy: mean(&all),
            coalescable_occupancy: mean(&coalescable),
            flushed_size: batch_metrics.iter().filter(|b| b.flush == FlushReason::Size).count(),
            flushed_timeout: batch_metrics.iter().filter(|b| b.flush == FlushReason::Timeout).count(),
            flushed_drain: batch_metrics.iter().filter(|b| b.flush == FlushReason::Drain).count(),
            queue_ns: NsStats::from_samples(
                &request_metrics.iter().map(|m| m.queue_ns).collect::<Vec<_>>(),
            ),
            service_ns: NsStats::from_samples(
                &batch_metrics.iter().map(|m| m.service_ns).collect::<Vec<_>>(),
            ),
            first_chunk_ns: NsStats::from_samples(&first_samples),
            render_ns: NsStats::from_samples(&full_samples),
            latency_hist: LatencyHistogram::from_samples(&full_samples),
            first_chunk_hist: LatencyHistogram::from_samples(&first_samples),
            wall_ns,
            workers,
            threads,
            digest: crate::request::response_set_digest(responses),
        }
    }

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
        let stats = |s: &NsStats| {
            format!(
                "{{ \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
                s.mean, s.p50, s.p95, s.p99, s.max
            )
        };
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"flexnerfer-serve-bench/4\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"chunks_served\": {},\n", self.chunks_served));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!("  \"expired\": {},\n", self.expired));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"retried\": {},\n", self.retried));
        out.push_str(&format!("  \"degraded\": {},\n", self.degraded));
        out.push_str(&format!("  \"worker_restarts\": {},\n", self.worker_restarts));
        out.push_str(&format!(
            "  \"breaker\": {{ \"opened\": {}, \"half_open_probes\": {} }},\n",
            self.breaker_opened, self.breaker_half_open_probes
        ));
        out.push_str("  \"lanes\": [\n");
        out.push_str(&lanes_json(&self.lanes, "    "));
        out.push_str("  ],\n");
        out.push_str(&format!("  \"batches\": {},\n", self.batches));
        out.push_str(&format!("  \"mean_batch_occupancy\": {:.4},\n", self.mean_occupancy));
        out.push_str(&format!("  \"coalescable_occupancy\": {:.4},\n", self.coalescable_occupancy));
        out.push_str(&format!(
            "  \"flushes\": {{ \"size\": {}, \"timeout\": {}, \"drain\": {} }},\n",
            self.flushed_size, self.flushed_timeout, self.flushed_drain
        ));
        out.push_str(&format!("  \"queue_ns\": {},\n", stats(&self.queue_ns)));
        out.push_str(&format!("  \"service_ns\": {},\n", stats(&self.service_ns)));
        out.push_str(&format!("  \"first_chunk_ns\": {},\n", stats(&self.first_chunk_ns)));
        out.push_str(&format!("  \"render_ns\": {},\n", stats(&self.render_ns)));
        out.push_str(&format!("  \"request_latency_hist\": {},\n", self.latency_hist.to_json()));
        out.push_str(&format!("  \"first_chunk_hist\": {},\n", self.first_chunk_hist.to_json()));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"digest\": \"{:#018x}\"\n", self.digest));
        out.push_str("}\n");
        out
    }
}

/// Renders a `lanes` array body (one line per lane, `indent`-prefixed),
/// shared by the serve and cluster schemas so per-lane counter shapes
/// stay identical between them.
fn lanes_json(lanes: &[LaneStats], indent: &str) -> String {
    let mut out = String::new();
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!(
            "{indent}{{ \"name\": \"{}\", \"weight\": {}, \"submitted\": {}, \"served\": {}, \
             \"shed\": {}, \"expired\": {}, \"rejected\": {}, \"failed\": {}, \"degraded\": {}, \
             \"queue_hist\": {} }}{}\n",
            json_escape(&lane.name),
            lane.weight,
            lane.submitted,
            lane.served,
            lane.shed,
            lane.expired,
            lane.rejected,
            lane.failed,
            lane.degraded,
            lane.queue_hist.to_json(),
            if i + 1 == lanes.len() { "" } else { "," }
        ));
    }
    out
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
/// control) knows — bundled so [`ClusterMetrics::aggregate`] stays
/// readable as the layer grows.
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
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"flexnerfer-cluster-bench/4\",\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"replicas\": {},\n", self.replicas.len()));
        out.push_str(&format!("  \"workers_per_replica\": {},\n", self.workers_per_replica));
        out.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        out.push_str(&format!("  \"submitted_chunks\": {},\n", self.submitted_chunks));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"served\": {},\n", self.served));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!("  \"front_door_shed\": {},\n", self.front_door_shed));
        out.push_str(&format!("  \"overload_shed\": {},\n", self.overload_shed));
        out.push_str(&format!("  \"expired\": {},\n", self.expired));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        out.push_str(&format!("  \"failed_over\": {},\n", self.failed_over));
        out.push_str(&format!(
            "  \"hedging\": {{ \"hedged\": {}, \"won\": {}, \"wasted\": {} }},\n",
            self.hedged, self.hedge_won, self.hedge_wasted
        ));
        out.push_str(&format!("  \"kills\": {},\n", self.kills));
        out.push_str(&format!("  \"restarts\": {},\n", self.restarts));
        out.push_str(&format!("  \"joins\": {},\n", self.joins));
        out.push_str(&format!("  \"leaves\": {},\n", self.leaves));
        out.push_str(&format!("  \"suspects\": {},\n", self.suspects));
        out.push_str("  \"replica_stats\": [\n");
        for (i, r) in self.replicas.iter().enumerate() {
            let m = &r.metrics;
            let hit_ratio = if r.cache_hits + r.cache_misses == 0 {
                0.0
            } else {
                r.cache_hits as f64 / (r.cache_hits + r.cache_misses) as f64
            };
            let utilization = if self.wall_ns == 0 {
                0.0
            } else {
                r.busy_ns as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(
                "    {{ \"replica\": {}, \"alive\": {}, \"departed\": {}, \"kills\": {}, \
                 \"restarts\": {}, \"suspects\": {}, \"slow_factor\": {}, \
                 \"routed\": {}, \"failed_over_out\": {}, \"failed_over_in\": {}, \
                 \"served\": {}, \"shed\": {}, \"expired\": {}, \"rejected\": {}, \
                 \"failed\": {}, \
                 \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_ratio\": {:.4} }}, \
                 \"utilization\": {:.4}, \"digest\": \"{:#018x}\",\n",
                r.replica,
                r.alive,
                r.departed,
                r.kills,
                r.restarts,
                r.suspects,
                r.slow_factor,
                r.routed,
                r.failed_over_out,
                r.failed_over_in,
                m.chunks_served,
                m.shed,
                m.expired,
                m.rejected,
                m.failed,
                r.cache_hits,
                r.cache_misses,
                hit_ratio,
                utilization,
                m.digest,
            ));
            out.push_str("      \"lanes\": [\n");
            out.push_str(&lanes_json(&m.lanes, "        "));
            out.push_str("      ],\n");
            out.push_str(&format!(
                "      \"request_latency_hist\": {} }}{}\n",
                m.latency_hist.to_json(),
                if i + 1 == self.replicas.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"request_latency_hist\": {},\n", self.latency_hist.to_json()));
        out.push_str(&format!("  \"first_chunk_hist\": {},\n", self.first_chunk_hist.to_json()));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!("  \"digest\": \"{:#018x}\"\n", self.digest));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SceneKind;

    fn bm(key: BatchKey, size: usize, flush: FlushReason) -> BatchMetric {
        BatchMetric { key, size, service_ns: 1000, flush }
    }

    fn acct(n: usize) -> Vec<LaneAccounting> {
        (0..n)
            .map(|i| LaneAccounting { name: format!("lane{i}"), weight: 1, rejected: 0 })
            .collect()
    }

    /// `aggregate` over the given records with no degrades, responses or
    /// robustness totals, zero wall time, one worker and one thread.
    fn agg(
        reqs: &[RequestMetric],
        batches: &[BatchMetric],
        sheds: &[ShedMetric],
        fails: &[FailMetric],
        lanes: &[LaneAccounting],
    ) -> ServeMetrics {
        let robust = RobustTotals::default();
        ServeMetrics::aggregate(reqs, batches, sheds, fails, &[], &[], lanes, robust, 0, 1, 1)
    }

    fn rm(id: u64, lane: usize, queue_ns: u64, deadline_missed: bool) -> RequestMetric {
        RequestMetric {
            id,
            lane,
            queue_ns,
            service_ns: 50_000,
            batch_size: 1,
            chunk: 0,
            chunk_of: 1,
            deadline_missed,
        }
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
        let m = agg(&[], &[], &[], &[], &acct(2));
        assert_eq!(m.requests, 0);
        assert_eq!(m.queue_ns.max, 0);
        assert_eq!(m.service_ns.p95, 0);
        assert!(!m.to_json().is_empty(), "empty run still serializes");
    }

    #[test]
    fn coalescable_occupancy_excludes_singleton_keys() {
        let k1 = BatchKey::Render(SceneKind::Mic, crate::request::RenderPrecision::Fp32);
        let k2 = BatchKey::Table("lonely".into());
        // k1 got 4 requests over 2 batches (coalescable); k2 got exactly 1.
        let batches = vec![
            bm(k1.clone(), 3, FlushReason::Size),
            bm(k1.clone(), 1, FlushReason::Drain),
            bm(k2, 1, FlushReason::Timeout),
        ];
        let m = agg(&[], &batches, &[], &[], &acct(1));
        assert!((m.mean_occupancy - 5.0 / 3.0).abs() < 1e-9);
        assert!((m.coalescable_occupancy - 2.0).abs() < 1e-9, "k2 excluded: (3+1)/2");
        assert_eq!(m.flushed_size, 1);
        assert_eq!(m.flushed_timeout, 1);
        assert_eq!(m.flushed_drain, 1);
    }

    #[test]
    fn json_contains_schema_lanes_and_digest() {
        let mut lanes = acct(2);
        lanes[0].rejected = 2;
        let sheds = vec![ShedMetric { id: 9, lane: 1, queue_ns: 5_000 }];
        let fails = vec![FailMetric { id: 10, lane: 0, queue_ns: 7_000 }];
        let degrades = vec![DegradeMetric { id: 0, lane: 0 }];
        let robust = RobustTotals {
            worker_restarts: 1,
            retried: 2,
            breaker_opened: 1,
            breaker_half_open_probes: 1,
        };
        let m = ServeMetrics::aggregate(
            &[rm(0, 0, 100, true)],
            &[],
            &sheds,
            &fails,
            &degrades,
            &[],
            &lanes,
            robust,
            42,
            3,
            4,
        );
        let j = m.to_json();
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
        let lanes = vec![LaneAccounting { name: "ti\"er\\1\n".into(), weight: 1, rejected: 0 }];
        let j = agg(&[], &[], &[], &[], &lanes).to_json();
        assert!(
            j.contains("\"name\": \"ti\\\"er\\\\1\\u000a\""),
            "hostile lane name must not break the record: {j}"
        );
    }

    #[test]
    fn lane_stats_partition_admitted_requests() {
        let reqs = vec![rm(0, 0, 100, false), rm(1, 0, 200, true), rm(2, 1, 300, false)];
        let sheds = vec![
            ShedMetric { id: 3, lane: 0, queue_ns: 400 },
            ShedMetric { id: 4, lane: 2, queue_ns: 500 },
        ];
        let fails = vec![FailMetric { id: 5, lane: 1, queue_ns: 600 }];
        let m = agg(&reqs, &[], &sheds, &fails, &acct(3));
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

    fn rmc(id: u64, queue_ns: u64, chunk: u32, chunk_of: u32) -> RequestMetric {
        RequestMetric { chunk, chunk_of, ..rm(id, 0, queue_ns, false) }
    }

    #[test]
    fn first_chunk_and_full_render_latencies_group_per_parent() {
        // Parent 0: two chunks at latencies 50_100 / 50_300 (queue +
        // 50_000 service). Parent 1: one whole chunk at 50_200. Parent 2
        // is incomplete (1 of 2 chunks served) — chunk counted, request
        // not.
        let reqs = vec![
            rmc(0, 100, 0, 2),
            rmc(0, 300, 1, 2),
            rmc(1, 200, 0, 1),
            rmc(2, 400, 0, 2),
        ];
        let m = agg(&reqs, &[], &[], &[], &acct(1));
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
        let reqs: Vec<RequestMetric> = (0..17).map(|i| rm(i, 0, i * 100_000, false)).collect();
        let m = agg(&reqs, &[], &[], &[], &acct(1));
        assert_eq!(m.latency_hist.total(), 17);
        // Edges are compile-time constants, so bucket identity is stable.
        assert_eq!(m.latency_hist.counts().len(), LATENCY_BUCKETS);
    }
}
