//! Render-request model: what a client asks for, what the server answers,
//! and the digest that makes a whole run's response set comparable
//! byte-for-byte across thread widths and machines.

use std::fmt;
use std::time::Duration;

use fnr_nerf::camera::Camera;
use fnr_nerf::scene::{LegoScene, MicScene, PalaceScene, Scene};
use fnr_tensor::Precision;

/// Which stand-in dataset scene a render request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneKind {
    /// The simple mostly-empty scene (paper's *Mic*).
    Mic,
    /// The medium-complexity scene (paper's *Lego*).
    Lego,
    /// The complex scene (NSVF's *Palace*).
    Palace,
}

impl SceneKind {
    /// All scenes, in complexity order.
    pub const ALL: [SceneKind; 3] = [SceneKind::Mic, SceneKind::Lego, SceneKind::Palace];

    /// The analytic scene object.
    pub fn scene(self) -> &'static dyn Scene {
        match self {
            SceneKind::Mic => &MicScene,
            SceneKind::Lego => &LegoScene,
            SceneKind::Palace => &PalaceScene,
        }
    }

    /// Stable short name (batch keys, reports).
    pub fn name(self) -> &'static str {
        match self {
            SceneKind::Mic => "mic",
            SceneKind::Lego => "lego",
            SceneKind::Palace => "palace",
        }
    }

    /// Seed for the deterministic per-scene NGP model the quantized render
    /// path uses (untrained but fixed, so every batch of the same scene
    /// renders with identical weights).
    pub fn model_seed(self) -> u64 {
        match self {
            SceneKind::Mic => 101,
            SceneKind::Lego => 202,
            SceneKind::Palace => 303,
        }
    }
}

/// The numeric path a render request runs on: FP32 renders the analytic
/// reference scene; integer modes render the scene's NGP model through
/// the batched quantized path (weights quantized once per batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenderPrecision {
    /// FP32 reference render.
    Fp32,
    /// Quantized NGP render at an integer precision.
    Quantized(Precision),
}

impl RenderPrecision {
    /// Stable short name (batch keys, reports).
    pub fn name(self) -> &'static str {
        match self {
            RenderPrecision::Fp32 => "fp32",
            RenderPrecision::Quantized(Precision::Int4) => "int4",
            RenderPrecision::Quantized(Precision::Int8) => "int8",
            RenderPrecision::Quantized(Precision::Int16) => "int16",
            RenderPrecision::Quantized(Precision::Fp32) => "qfp32",
        }
    }
}

/// One render job: everything needed to produce the pixels, and nothing
/// that depends on when or where it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderJob {
    /// Scene to render.
    pub scene: SceneKind,
    /// Numeric path.
    pub precision: RenderPrecision,
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
    /// Samples per ray.
    pub spp: usize,
    /// Seed deriving the orbit camera (angle/radius/height), so every job
    /// is a deterministic function of its fields.
    pub camera_seed: u64,
}

impl RenderJob {
    /// The deterministic orbit camera this job renders from.
    pub fn camera(&self) -> Camera {
        // Spread seeds over the orbit: angle over the full circle, radius
        // and height over small safe bands. SplitMix-style mixing keeps
        // nearby seeds uncorrelated.
        let mut z = self.camera_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (z >> 31);
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let theta = (next() * std::f64::consts::TAU) as f32;
        let r = (1.4 + 0.4 * next()) as f32;
        let h = (0.7 + 0.4 * next()) as f32;
        Camera::orbit(theta, r, h)
    }
}

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Render one view (coalesced with same-scene/same-precision peers).
    Render(RenderJob),
    /// Regenerate a named repro table (coalesced by name: the generator
    /// runs once per batch and every member shares the bytes).
    Table(String),
}

/// The coalescing key: requests with equal keys may share one batched
/// invocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BatchKey {
    /// Render batches coalesce on scene and precision; geometry and
    /// cameras may differ per member.
    Render(SceneKind, RenderPrecision),
    /// Table batches coalesce on the generator name.
    Table(String),
}

impl Workload {
    /// This workload's coalescing key.
    pub fn key(&self) -> BatchKey {
        match self {
            Workload::Render(j) => BatchKey::Render(j.scene, j.precision),
            Workload::Table(name) => BatchKey::Table(name.clone()),
        }
    }

    /// Whether this workload coalesces under `key` — equivalent to
    /// `self.key() == *key`, but without constructing (and for table
    /// jobs, cloning) a key. Hot scheduler loops compare this way.
    pub fn matches_key(&self, key: &BatchKey) -> bool {
        match (self, key) {
            (Workload::Render(j), BatchKey::Render(s, p)) => j.scene == *s && j.precision == *p,
            (Workload::Table(name), BatchKey::Table(t)) => name == t,
            _ => false,
        }
    }

    /// Whether two workloads share a coalescing key (the allocation-free
    /// form of `a.key() == b.key()`).
    pub fn same_key(&self, other: &Workload) -> bool {
        match (self, other) {
            (Workload::Render(a), Workload::Render(b)) => {
                a.scene == b.scene && a.precision == b.precision
            }
            (Workload::Table(a), Workload::Table(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for BatchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchKey::Render(s, p) => write!(f, "render/{}/{}", s.name(), p.name()),
            BatchKey::Table(name) => write!(f, "table/{name}"),
        }
    }
}

/// Position of one row-band chunk within its parent render: chunk
/// `index` of `of`. The partition is a pure function of the job (see
/// [`effective_chunks`] / [`row_band`]), so the split is byte-stable
/// across machines, thread widths, and live-vs-virtual execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkSpan {
    /// Zero-based chunk index within the parent request.
    pub index: u32,
    /// Total number of chunks the parent request was split into.
    pub of: u32,
}

impl ChunkSpan {
    /// The unchunked span: one chunk covering the whole response.
    pub const WHOLE: ChunkSpan = ChunkSpan { index: 0, of: 1 };
}

/// How many chunks a job splits into under a configured chunk count `k`.
/// Tables never split (the generator runs once and every member shares
/// the bytes); renders split into at most one chunk per pixel row. A pure
/// function of `(k, job)`, so the partition is identical everywhere.
pub fn effective_chunks(k: usize, job: &Workload) -> u32 {
    match job {
        Workload::Table(_) => 1,
        Workload::Render(j) => k.max(1).min(j.height.max(1)) as u32,
    }
}

/// The row range `[row0, row0 + rows)` of chunk `index` in an `of`-way
/// split of a `height`-row image. Bands partition `[0, height)` exactly,
/// differ in size by at most one row, and depend only on the arguments.
pub fn row_band(height: usize, index: u32, of: u32) -> (usize, usize) {
    let of = of.max(1) as usize;
    let i = index as usize;
    let row0 = i * height / of;
    let end = (i + 1) * height / of;
    (row0, end - row0)
}

/// A request in flight: the id the server assigned at admission, its
/// traffic class and deadline, its admission time on the scheduling clock,
/// and the work itself.
#[derive(Debug, Clone)]
pub struct Request {
    /// Monotone admission id.
    pub id: u64,
    /// Traffic class — selects the scheduler lane.
    pub priority: crate::sched::Priority,
    /// Admission time on the scheduler's clock (nanoseconds since the
    /// server epoch; virtual ticks under the trace harness).
    pub arrival_ns: u64,
    /// Absolute deadline on the same clock as [`Request::arrival_ns`]:
    /// service must *start* strictly before this instant or the scheduler
    /// sheds the request at dequeue. `None` never sheds.
    pub deadline_ns: Option<u64>,
    /// Which row-band chunk of the parent render this request carries.
    /// [`ChunkSpan::WHOLE`] for unchunked requests and tables.
    pub chunk: ChunkSpan,
    /// The work.
    pub job: Workload,
}

impl Request {
    /// Whether this request's deadline has passed at scheduler time
    /// `now_ns` (a request popped exactly at its deadline is expired).
    pub fn expired_at(&self, now_ns: u64) -> bool {
        self.deadline_ns.is_some_and(|d| now_ns >= d)
    }
}

/// `d` in nanoseconds on a scheduling clock, saturating at `u64::MAX`
/// (the end of every clock) instead of truncating.
pub(crate) fn clock_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A completed request: the id plus the response payload. Render payloads
/// are `[width u32 LE][height u32 LE][pixels as f32 LE, RGB row-major]`;
/// table payloads are the rendered markdown bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Id of the request this answers.
    pub id: u64,
    /// Payload bytes (see type docs for the layout).
    pub bytes: Vec<u8>,
}

/// One completed chunk of a request: the parent id, the chunk's span,
/// and the chunk's slice of the payload. Concatenating a request's chunk
/// payloads in index order reproduces the unchunked [`Response`] bytes
/// exactly; the whole-render digest is the FNV fold of the chunk bytes
/// in that order (see [`fnv1a_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkResponse {
    /// Id of the parent request.
    pub id: u64,
    /// Which chunk of the parent this is.
    pub chunk: ChunkSpan,
    /// This chunk's slice of the payload bytes.
    pub bytes: Vec<u8>,
}

/// The terminal state of one chunk, observable while the rest of the
/// request is still in flight (see `Client::wait_chunk`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkOutcome {
    /// The chunk completed; these are its payload bytes.
    Served(Vec<u8>),
    /// The chunk was shed (deadline expired before service started).
    Shed,
    /// The chunk failed terminally (quarantine, breaker, budget).
    Failed(String),
    /// The server shut down before the chunk resolved.
    Closed,
}

/// Serializes an image into the response payload layout.
pub fn image_bytes(img: &fnr_nerf::psnr::Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + img.pixels().len() * 12);
    out.extend_from_slice(&(img.width() as u32).to_le_bytes());
    out.extend_from_slice(&(img.height() as u32).to_le_bytes());
    for px in img.pixels() {
        for c in px {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// Serializes one rendered row band into its chunk payload slice. `img`
/// holds only the band's rows; `full_height` is the parent frame height.
/// Chunk 0 carries the 8-byte `[width][height]` header (with the *full*
/// frame height) so the stream is self-describing from the first chunk;
/// later chunks carry bare pixel rows. Concatenating all chunks in index
/// order is byte-identical to [`image_bytes`] of the full frame.
pub fn chunk_image_bytes(img: &fnr_nerf::psnr::Image, full_height: usize, chunk: ChunkSpan) -> Vec<u8> {
    let header = if chunk.index == 0 { 8 } else { 0 };
    let mut out = Vec::with_capacity(header + img.pixels().len() * 12);
    if chunk.index == 0 {
        out.extend_from_slice(&(img.width() as u32).to_le_bytes());
        out.extend_from_slice(&(full_height as u32).to_le_bytes());
    }
    for px in img.pixels() {
        for c in px {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// A small deterministic stand-in payload for cluster-scale simulation:
/// a pure function of the job (like the real render, just 16 bytes of
/// hash instead of pixels), so million-request runs keep the exact
/// digest-equivalence contract without rendering a million images.
/// Distinct jobs get distinct payloads with overwhelming probability;
/// identical jobs always get identical bytes.
pub fn synthetic_payload(job: &Workload) -> Vec<u8> {
    let h = job_hash(job);
    // SplitMix finalize for a second uncorrelated word.
    let z = crate::fault::mix(h);
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&h.to_le_bytes());
    out.extend_from_slice(&z.to_le_bytes());
    out
}

/// The chunked form of [`synthetic_payload`]: chunk 0 carries the whole
/// 16-byte stand-in payload, later chunks are empty (empty slices leave
/// the FNV fold unchanged), so concatenation in index order reproduces
/// the unchunked bytes at any chunk count.
pub fn synthetic_chunk_payload(job: &Workload, chunk: ChunkSpan) -> Vec<u8> {
    if chunk.index == 0 { synthetic_payload(job) } else { Vec::new() }
}

/// Reassembles completed chunks into whole [`Response`]s: chunks are
/// sorted by `(id, chunk index)`, grouped by parent id, and a parent
/// whose every chunk arrived (count equals the span's `of`) concatenates
/// to one response in row order. Parents missing any chunk (shed, failed,
/// or still owned by a dead replica) are dropped — a partial render is
/// not a response. Output is in ascending id order.
pub fn assemble_chunks(mut chunks: Vec<ChunkResponse>) -> Vec<Response> {
    chunks.sort_unstable_by_key(|c| (c.id, c.chunk.index));
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chunks.len() {
        let id = chunks[i].id;
        let of = chunks[i].chunk.of as usize;
        let mut j = i;
        while j < chunks.len() && chunks[j].id == id {
            j += 1;
        }
        if j - i == of {
            // The first chunk's payload moves; later chunks append to it.
            let mut bytes = std::mem::take(&mut chunks[i].bytes);
            for c in &chunks[i + 1..j] {
                bytes.extend_from_slice(&c.bytes);
            }
            out.push(Response { id, bytes });
        }
        i = j;
    }
    out
}

/// Identity hash of a workload: FNV-1a over the coalescing key plus (for
/// renders) the per-request geometry and camera seed — a pure function of
/// the job, shared by [`synthetic_payload`] and the fault injector so the
/// chaos-poisoned set is mode- and timing-independent.
pub fn job_hash(job: &Workload) -> u64 {
    let h = fnv1a(job.key().to_string().as_bytes());
    match job {
        Workload::Render(j) => [j.width as u64, j.height as u64, j.spp as u64, j.camera_seed]
            .iter()
            .fold(h, |h, field| fnv1a_with(h, &field.to_le_bytes())),
        Workload::Table(_) => h,
    }
}

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with(FNV_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a fold from a prior state. Because FNV-1a is a byte
/// fold, hashing a payload in pieces reproduces the one-shot hash:
/// `fnv1a_with(fnv1a(a), b) == fnv1a(a ++ b)`. This is the whole-render
/// digest contract — folding a request's chunk payloads in row order
/// yields the same hash as the unchunked response bytes, at any chunk
/// count.
pub fn fnv1a_with(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-canonical digest of a response set: hash each payload, sort the
/// hashes, then hash the sorted sequence. Independent of request-id
/// assignment order, so open- and closed-loop drivers of the same job set
/// produce the same digest — and any `FNR_THREADS`/worker-count setting
/// must too (the serve equivalence suite enforces it).
pub fn response_set_digest(responses: &[Response]) -> u64 {
    set_digest(responses.iter().map(|r| fnv1a(&r.bytes)).collect())
}

/// The order-canonical fold behind [`response_set_digest`], over the
/// payloads' [`fnv1a`] hashes: sort them, then hash the sorted sequence.
pub(crate) fn set_digest(mut hashes: Vec<u64>) -> u64 {
    hashes.sort_unstable();
    hashes.iter().fold(FNV_OFFSET, |h, x| fnv1a_with(h, &x.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cameras_are_deterministic_and_seed_sensitive() {
        let job = |seed| RenderJob {
            scene: SceneKind::Mic,
            precision: RenderPrecision::Fp32,
            width: 8,
            height: 8,
            spp: 4,
            camera_seed: seed,
        };
        let a = job(1).camera();
        let b = job(1).camera();
        let c = job(2).camera();
        assert_eq!(a.position(), b.position(), "same seed, same camera");
        assert_ne!(a.position(), c.position(), "different seed, different camera");
    }

    #[test]
    fn batch_keys_ignore_geometry_but_not_precision() {
        let mk = |w, p| {
            Workload::Render(RenderJob {
                scene: SceneKind::Lego,
                precision: p,
                width: w,
                height: 8,
                spp: 4,
                camera_seed: 0,
            })
        };
        assert_eq!(mk(8, RenderPrecision::Fp32).key(), mk(16, RenderPrecision::Fp32).key());
        assert_ne!(
            mk(8, RenderPrecision::Fp32).key(),
            mk(8, RenderPrecision::Quantized(Precision::Int8)).key()
        );
        assert_eq!(
            Workload::Table("t1".into()).key(),
            Workload::Table("t1".into()).key()
        );
    }

    #[test]
    fn synthetic_payloads_are_pure_and_job_sensitive() {
        let job = |seed| {
            Workload::Render(RenderJob {
                scene: SceneKind::Mic,
                precision: RenderPrecision::Fp32,
                width: 8,
                height: 8,
                spp: 4,
                camera_seed: seed,
            })
        };
        assert_eq!(synthetic_payload(&job(1)), synthetic_payload(&job(1)));
        assert_ne!(synthetic_payload(&job(1)), synthetic_payload(&job(2)));
        assert_ne!(
            synthetic_payload(&Workload::Table("a".into())),
            synthetic_payload(&Workload::Table("b".into()))
        );
        assert_eq!(synthetic_payload(&job(7)).len(), 16);
    }

    #[test]
    fn digest_is_order_canonical() {
        let a = Response { id: 0, bytes: vec![1, 2, 3] };
        let b = Response { id: 1, bytes: vec![4, 5] };
        let d1 = response_set_digest(&[a.clone(), b.clone()]);
        let d2 = response_set_digest(&[b.clone(), a.clone()]);
        assert_eq!(d1, d2);
        // The cluster digests a replica's chunks through the same fold.
        assert_eq!(set_digest(vec![fnv1a(&b.bytes), fnv1a(&a.bytes)]), d1);
    }

    #[test]
    fn image_bytes_roundtrip_header() {
        let img = fnr_nerf::psnr::Image::new(3, 2);
        let bytes = image_bytes(&img);
        assert_eq!(bytes.len(), 8 + 3 * 2 * 12);
        assert_eq!(u32::from_le_bytes(bytes[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
    }

    #[test]
    fn fnv1a_fold_reproduces_one_shot_hash() {
        let payload: Vec<u8> = (0u16..997).map(|x| (x % 251) as u8).collect();
        for split in [0, 1, 13, 500, 996, 997] {
            let (a, b) = payload.split_at(split);
            assert_eq!(fnv1a_with(fnv1a(a), b), fnv1a(&payload), "split at {split}");
        }
        // Three-way fold, including an empty middle piece.
        let h = fnv1a_with(fnv1a_with(fnv1a(&payload[..100]), &[]), &payload[100..]);
        assert_eq!(h, fnv1a(&payload));
    }

    #[test]
    fn row_bands_partition_exactly() {
        for height in [0usize, 1, 2, 5, 7, 12, 13, 64] {
            for of in [1u32, 2, 3, 7, 16] {
                let mut next = 0usize;
                let mut total = 0usize;
                for i in 0..of {
                    let (row0, rows) = row_band(height, i, of);
                    assert_eq!(row0, next, "bands contiguous (h={height} of={of} i={i})");
                    next = row0 + rows;
                    total += rows;
                }
                assert_eq!(total, height, "bands cover [0, h) (h={height} of={of})");
            }
        }
    }

    #[test]
    fn effective_chunks_caps_at_height_and_skips_tables() {
        let render = |h| {
            Workload::Render(RenderJob {
                scene: SceneKind::Mic,
                precision: RenderPrecision::Fp32,
                width: 4,
                height: h,
                spp: 2,
                camera_seed: 0,
            })
        };
        assert_eq!(effective_chunks(1, &render(8)), 1);
        assert_eq!(effective_chunks(4, &render(8)), 4);
        assert_eq!(effective_chunks(16, &render(8)), 8, "at most one chunk per row");
        assert_eq!(effective_chunks(0, &render(8)), 1, "zero is clamped to one");
        assert_eq!(effective_chunks(4, &render(0)), 1, "empty frames stay whole");
        assert_eq!(effective_chunks(8, &Workload::Table("t".into())), 1);
    }

    #[test]
    fn chunk_payload_concat_matches_unchunked_image_bytes() {
        let mut img = fnr_nerf::psnr::Image::new(3, 7);
        for (i, px) in img.pixels_mut().iter_mut().enumerate() {
            *px = [i as f32, (i * 2) as f32, -(i as f32)];
        }
        let whole = image_bytes(&img);
        for of in [1u32, 2, 3, 7] {
            let mut concat = Vec::new();
            let mut folded = 0xcbf2_9ce4_8422_2325u64;
            for index in 0..of {
                let (row0, rows) = row_band(7, index, of);
                let mut band = fnr_nerf::psnr::Image::new(3, rows);
                for yy in 0..rows {
                    for x in 0..3 {
                        band.pixels_mut()[yy * 3 + x] = img.pixels()[(row0 + yy) * 3 + x];
                    }
                }
                let bytes = chunk_image_bytes(&band, 7, ChunkSpan { index, of });
                folded = fnv1a_with(folded, &bytes);
                concat.extend_from_slice(&bytes);
            }
            assert_eq!(concat, whole, "concat of {of} chunks == unchunked bytes");
            assert_eq!(folded, fnv1a(&whole), "chunk-digest fold == one-shot digest");
        }
    }

    #[test]
    fn assemble_drops_incomplete_parents_and_concats_in_row_order() {
        let chunk = |id, index, of, bytes: &[u8]| ChunkResponse {
            id,
            chunk: ChunkSpan { index, of },
            bytes: bytes.to_vec(),
        };
        // Parent 5 complete (out of order), parent 9 missing chunk 1 of 2,
        // parent 2 whole.
        let assembled = assemble_chunks(vec![
            chunk(5, 2, 3, b"c"),
            chunk(9, 0, 2, b"x"),
            chunk(5, 0, 3, b"a"),
            chunk(2, 0, 1, b"solo"),
            chunk(5, 1, 3, b"b"),
        ]);
        assert_eq!(assembled.len(), 2);
        assert_eq!(assembled[0], Response { id: 2, bytes: b"solo".to_vec() });
        assert_eq!(assembled[1], Response { id: 5, bytes: b"abc".to_vec() });
    }

    #[test]
    fn synthetic_chunks_concat_to_unchunked_payload() {
        let job = Workload::Table("t".into());
        let whole = synthetic_payload(&job);
        let mut concat = Vec::new();
        for index in 0..3u32 {
            concat.extend(synthetic_chunk_payload(&job, ChunkSpan { index, of: 3 }));
        }
        assert_eq!(concat, whole);
        assert_eq!(synthetic_chunk_payload(&job, ChunkSpan::WHOLE), whole);
    }
}
