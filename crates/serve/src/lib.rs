//! Batched render-request serving front-end for the FlexNeRFer
//! reproduction.
//!
//! The ROADMAP's north star is serving heavy render traffic; this crate is
//! the request-level runtime above the data-parallel substrate:
//!
//! * one clock-free scheduling core shared by every mode: bounded
//!   per-class admission lanes with backpressure and a zero-capacity
//!   hard-reject posture, drained by a clock-injected weighted-deficit
//!   scheduler ([`sched`]) with per-key fairness and deadline shedding,
//!   and a bounded ready queue ahead of the workers. The live [`Server`]
//!   drives it on the real clock from its client and worker threads (no
//!   scheduler thread); [`run_virtual`] and [`cluster`] replicas drive it
//!   on a virtual clock,
//! * a [`Batcher`] that coalesces compatible requests — same
//!   scene/model/precision — into one batched render or one shared table
//!   regeneration (the per-batch format/precision amortization is exactly
//!   where the paper's adaptive datapath pays off per request),
//! * a panic-isolated worker pool driving `fnr_nerf`'s batched render
//!   entry points and registered `fnr_bench` table generators — the
//!   worker that catches a batch panic bisects the batch to isolate the
//!   poisoned requests and carries on, and the [`fault`] module adds
//!   retries, a per-key circuit breaker, precision brownout under
//!   overload, and seeded chaos injection,
//! * metrics folded as each outcome lands — per-lane counters and
//!   queue histograms, per-key batch totals, and only the samples the
//!   exact percentiles need — into one [`ServeMetrics`] report (queue
//!   latency, service time, first-chunk latency, batch occupancy,
//!   failure/degrade counters) with a JSON record in the
//!   `flexnerfer-serve-bench/4` schema, sibling to `repro --json`'s
//!   `flexnerfer-repro-bench/2`.
//!
//! # Streaming
//!
//! A render request is split at admission into a fixed row-band partition
//! of [`effective_chunks`] sub-jobs ([`ChunkSpan`]), each flowing through
//! lanes, scheduler, batcher, and workers independently; chunk payloads
//! ([`chunk_image_bytes`]) concatenate in row order to exactly the
//! unchunked image bytes, so the whole-render digest is invariant in the
//! chunk count. `chunks = 1` is byte-for-byte the old one-shot path.
//!
//! # Determinism
//!
//! Response bytes are a pure function of each request, so the response
//! *set* is byte-identical at any `FNR_THREADS`, worker count, batch
//! composition, or chunk count; [`response_set_digest`] is
//! order-canonical over the set and is what CI diffs between its serial
//! and parallel legs (and between its chunked and unchunked legs). Timing
//! only moves metrics, never payloads.
//!
//! ```
//! use fnr_serve::{run, ServerConfig, Workload, RenderJob, SceneKind, RenderPrecision};
//!
//! let cfg = ServerConfig::default();
//! let (_ids, report) = run(&cfg, |client| {
//!     let id = client
//!         .submit(Workload::Render(RenderJob {
//!             scene: SceneKind::Mic,
//!             precision: RenderPrecision::Fp32,
//!             width: 4,
//!             height: 4,
//!             spp: 2,
//!             camera_seed: 7,
//!         }))
//!         .unwrap();
//!     client.wait(id).expect("answered")
//! });
//! assert_eq!(report.responses.len(), 1);
//! ```

#![warn(missing_docs)]

mod batch;
pub mod cluster;
mod driver;
pub mod fault;
pub mod health;
mod metrics;
mod pipeline;
mod request;
pub mod router;
pub mod sched;
mod server;
mod supervise;
pub mod workload;

pub use batch::{Batch, Batcher, BatcherConfig, FlushReason};
pub use cluster::{
    run_cluster, ClusterConfig, ClusterReport, ClusterService, FaultEvent, FaultKind, FaultPlan,
    PayloadMode,
};
pub use driver::{
    run_closed_loop, run_closed_loop_thinking, run_open_loop, run_virtual, ThinkTime,
    VirtualService,
};
pub use fault::{
    degrade_precision, BreakerConfig, BreakerState, Brownout, BrownoutConfig, CircuitBreaker,
    FaultInjector, InjectedFault, RetryPolicy,
};
pub use health::{
    AdmissionConfig, CoDelAdmission, HealthConfig, HealthDetector, HealthState, HedgeConfig,
};
pub use metrics::{
    ClusterMetrics, FrontDoorTotals, LaneStats, LatencyHistogram, NsStats, ReplicaStats,
    ServeMetrics, LATENCY_BUCKETS, LATENCY_EDGES_NS,
};
pub use request::{
    assemble_chunks, chunk_image_bytes, effective_chunks, fnv1a, fnv1a_with, image_bytes,
    job_hash, response_set_digest, row_band, synthetic_chunk_payload, synthetic_payload, BatchKey,
    ChunkOutcome, ChunkResponse, ChunkSpan, RenderJob, RenderPrecision, Request, Response,
    SceneKind, Workload,
};
pub use router::{HashRing, RouterConfig, MAX_REPLICAS};
pub use sched::{LaneConfig, LaneScheduler, Priority, SchedConfig, SchedStep};
pub use server::{
    run, Client, ServeReport, Server, ServerConfig, SubmitError, TableFn, TableRegistry,
    WaitOutcome,
};
