//! Allocation pin for the cluster's per-request hashes: the ring position
//! of a coalescing key, of a job's key, and a job's identity hash fold the
//! key's bytes piece by piece and never format it, so none of them
//! allocates; a synthetic chunk payload allocates its 16 bytes for chunk 0
//! and nothing for later chunks.
//!
//! Like `render_alloc.rs`, this binary installs the counting global
//! allocator. Its one `#[test]` keeps the process-global counters free of
//! concurrent traffic.

use fnr_bench::alloc_track::{snapshot, CountingAllocator};
use fnr_serve::{
    job_hash, synthetic_chunk_payload, BatchKey, ChunkSpan, HashRing, RenderJob, RenderPrecision,
    SceneKind, Workload,
};
use fnr_tensor::Precision;

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// Allocations made by one call of `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = snapshot();
    std::hint::black_box(f());
    snapshot().since(before).count
}

#[test]
fn routing_and_job_hashes_allocate_nothing() {
    let render = Workload::Render(RenderJob {
        scene: SceneKind::Palace,
        precision: RenderPrecision::Quantized(Precision::Int8),
        width: 12,
        height: 9,
        spp: 6,
        camera_seed: 77,
    });
    let table = Workload::Table("fig20a_psnr".into());
    let (render_key, table_key) = (render.key(), table.key());

    for (job, key) in [(&render, &render_key), (&table, &table_key)] {
        assert_eq!(allocs(|| HashRing::key_hash(key)), 0, "key_hash({key})");
        assert_eq!(allocs(|| HashRing::job_key_hash(job)), 0, "job_key_hash({key})");
        assert_eq!(allocs(|| job_hash(job)), 0, "job_hash({key})");

        let first = ChunkSpan { index: 0, of: 3 };
        assert_eq!(allocs(|| synthetic_chunk_payload(job, first)), 1, "chunk 0 of {key}");
        for index in 1..3 {
            let later = ChunkSpan { index, of: 3 };
            assert_eq!(allocs(|| synthetic_chunk_payload(job, later)), 0, "chunk {index} of {key}");
        }
    }
    // The formatted key is the one thing here that allocates.
    assert!(allocs(|| BatchKey::to_string(&table_key)) > 0);
}
