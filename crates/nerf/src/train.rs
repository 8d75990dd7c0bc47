//! Gradient-descent training of the hash-grid NeRF against a procedural
//! ground truth — the substitute for the paper's pre-trained Instant-NGP
//! checkpoints (needed by the Fig. 20(a) quantization/PSNR study).

use crate::camera::Camera;
use crate::hashgrid::{accumulate_grad_level, LevelEncoder};
use crate::psnr::Image;
use crate::render::{composite, composite_backward_into, sigmoid, softplus, NgpModel, ShadedSample};
use crate::sampling::{sample_ray_into, RaySample};
use crate::scene::Scene;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Optimizer steps.
    pub iters: usize,
    /// Rays per step.
    pub batch_rays: usize,
    /// Samples per ray.
    pub samples_per_ray: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Training-view image resolution.
    pub image_size: usize,
    /// Number of orbit training views.
    pub views: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TrainConfig {
    /// A quick configuration used by tests (seconds, not minutes).
    pub fn quick() -> Self {
        TrainConfig {
            iters: 250,
            batch_rays: 96,
            samples_per_ray: 16,
            lr: 6e-3,
            image_size: 24,
            views: 4,
            seed: 42,
        }
    }

    /// The configuration used by the Fig. 20(a) bench.
    pub fn standard() -> Self {
        TrainConfig {
            iters: 1200,
            batch_rays: 160,
            samples_per_ray: 24,
            lr: 5e-3,
            image_size: 40,
            views: 6,
            seed: 42,
        }
    }
}

/// Loss curve and summary from a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean batch loss every 10 iterations.
    pub losses: Vec<f32>,
    /// Final smoothed loss.
    pub final_loss: f32,
}

const B1: f32 = 0.9;
const B2: f32 = 0.99;
const EPS: f32 = 1e-8;

/// Adam's bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)` for step `t` (1-based),
/// computed once per iteration and shared by every parameter range.
fn bias_corrections(t: usize) -> (f32, f32) {
    (1.0 - B1.powi(t as i32), 1.0 - B2.powi(t as i32))
}

/// One in-place Adam update of `params` against its own moment ranges.
/// The update is elementwise (vector div/sqrt are correctly rounded, so
/// the SIMD kernel is bit-identical to the scalar expression), which is
/// why the optimizer may run range by range, in any order, on any thread.
fn adam_update(params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32], lr: f32, bc: (f32, f32)) {
    fnr_tensor::simd::adam_step(params, grads, m, v, lr, bc.0, bc.1, B1, B2, EPS);
}

/// Scales a merged gradient by `1 / batch_rays` in place.
fn scale_in_place(grads: &mut [f32], scale: f32) {
    for g in grads {
        *g *= scale;
    }
}

/// The batch is always split into this many gradient shards, regardless of
/// how many threads run them. The shard partition and the merge order are
/// therefore pure functions of the config — which is what makes training
/// bit-identical under `FNR_THREADS=1` and `FNR_THREADS=N` (floating-point
/// accumulation order never depends on scheduling).
///
/// The hash-grid gradient is merged level by level rather than shard by
/// shard, with the same bits. Every table entry belongs to exactly one
/// level. Within a level, each entry receives the same `w · d` products,
/// in the same shard → ray → sample → corner → feature order, as a
/// whole-grid scatter would give it. Shard 0's sum starts from `+0.0`, and
/// every other shard's sum is added in shard order, `((s₀ + s₁) + s₂) +
/// …`, exactly as a dense per-shard merge adds them. Scaling and Adam are
/// elementwise. The encoding a level task computes for the next iteration
/// is a pure function of each sample's position and of the level's own
/// table after this iteration's Adam step, which no other task writes.
/// So which thread runs a shard or a level cannot change what it computes.
///
/// What a shard or a level task keeps across iterations is only what must
/// outlive it: a shard's samples, kept list and MLP partial
/// ([`ShardGrads`] and its samples), a level's records and Adam moments
/// ([`LevelRecords`] in a `Level`). Scratch that lives only while a task
/// runs — a shard's [`RayGroup`], a level task's [`LevelScratch`] — comes
/// from a pool of one entry per pool thread, because no more tasks than
/// threads run at once. Held per shard or per level instead, that scratch
/// would be the largest thing the step touches (the merge buffers alone
/// were 1 MB at fig20a's 8 levels), crowding the records and moments the
/// phases read out of cache and adding to RSS.
const TRAIN_SHARDS: usize = 8;

/// Per-ray RNG stream: every ray of every iteration draws from its own
/// seeded generator, so a ray's pixel choice is independent of which shard
/// or thread executes it.
fn ray_rng(seed: u64, iter: usize, ray: usize, batch_rays: usize) -> rand::rngs::StdRng {
    let stream = (iter * batch_rays + ray) as u64;
    rand::rngs::StdRng::seed_from_u64(
        seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)),
    )
}

/// Rows of a ray group: the samples that go through the MLP together. A
/// group holds whole rays, `max(GROUP_ROWS, samples_per_ray)` rows at
/// most, so every ray fits in one. 32 rows are four 8-sample tiles,
/// enough to keep the tile kernels busy, while a group's buffers (forward
/// cache, propagation rows) stay small. Sizing them for a shard's whole
/// sample count instead (256 rows at fig20a) would add about 300 KB per
/// group, which is why the group is bounded and not a setting.
const GROUP_ROWS: usize = 32;

/// One ray of a shard: its ground-truth pixel and its samples' range in
/// the shard's [`ShardSamples`].
struct ShardRay {
    gt: [f32; 3],
    samples: Range<usize>,
}

/// The samples of the iteration a shard runs next, in ray → sample order:
/// positions as three coordinate columns (the layout the level encode
/// loads 16 samples at a time from), segment lengths δ, and the rays they
/// belong to. Rays that miss the unit cube have no samples and are left
/// out. Sized once for the shard's largest sample count.
struct ShardSamples {
    xyz: [Vec<f32>; 3],
    delta: Vec<f32>,
    rays: Vec<ShardRay>,
}

impl ShardSamples {
    fn new(rays: usize, samples: usize) -> Self {
        ShardSamples {
            xyz: std::array::from_fn(|_| Vec::with_capacity(samples)),
            delta: Vec::with_capacity(samples),
            rays: Vec::with_capacity(rays),
        }
    }

    fn len(&self) -> usize {
        self.delta.len()
    }

    fn xyz(&self) -> [&[f32]; 3] {
        self.xyz.each_ref().map(Vec::as_slice)
    }

    /// Replaces the samples with those of rays `rays` at iteration `iter`.
    fn sample(
        &mut self,
        rays: Range<usize>,
        iter: usize,
        cfg: &TrainConfig,
        cameras: &[Camera],
        truths: &[Image],
        scratch: &mut Vec<RaySample>,
    ) {
        self.xyz.iter_mut().for_each(Vec::clear);
        self.delta.clear();
        self.rays.clear();
        for ray_idx in rays {
            let mut rng = ray_rng(cfg.seed, iter, ray_idx, cfg.batch_rays);
            let view = rng.gen_range(0..cfg.views);
            let px = rng.gen_range(0..cfg.image_size);
            let py = rng.gen_range(0..cfg.image_size);
            let ray = cameras[view].ray(px, py, cfg.image_size, cfg.image_size);
            sample_ray_into(&ray, cfg.samples_per_ray, None, scratch);
            if scratch.is_empty() {
                continue;
            }
            let start = self.len();
            for s in scratch.iter() {
                let [x, y, z] = &mut self.xyz;
                x.push(s.position.x);
                y.push(s.position.y);
                z.push(s.position.z);
                self.delta.push(s.delta);
            }
            self.rays.push(ShardRay { gt: truths[view].get(px, py), samples: start..self.len() });
        }
    }
}

/// What one shard phase produces, in buffers built once before the
/// training loop and cleared in place, so steady-state training allocates
/// nothing per step: the shard's partial MLP gradient and loss, and, for
/// the level phase, the samples whose head gradient is not all zero
/// (`kept`) with their ∂L/∂encoding.
///
/// A shard runs its samples group by group, in ray order, through a
/// [`RayGroup`] it borrows for the shard's duration:
///
/// 1. build each sample's MLP input row from the level-major encoding
///    columns the level phase wrote ([`LevelRecords`]);
/// 2. run the MLP forward over all rows at once, in sample tiles that
///    cross ray boundaries ([`crate::mlp::Mlp::forward_rows`]);
/// 3. per ray, in ray order: heads, composite, loss, composite backward
///    and head gradients, keeping the rows whose head gradient is not all
///    zero;
/// 4. run the MLP backward over the kept rows at once
///    ([`crate::mlp::Mlp::backward_rows`]) and write their ∂L/∂encoding
///    level-major, in ray → sample order.
///
/// The weights are frozen for the whole shard phase, so computing a
/// group's forward before any of its backward changes no value, and every
/// gradient entry still receives samples in ray → sample order. Then the
/// shard samples its rays for the next iteration into [`ShardSamples`].
///
/// A shard holds no grid-sized buffer and reads no table: the scatter into
/// the hash grid's gradient, and the encode, belong to the level phase of
/// [`train_ngp`].
struct ShardGrads {
    mlp: crate::mlp::MlpGrads,
    loss: f32,
    /// The kept samples' indices in the iteration's [`ShardSamples`],
    /// ascending.
    kept: Vec<usize>,
    /// ∂L/∂encoding of each kept sample, level-major: level `l`'s section
    /// starts at `l · cap · F` and holds `F` values per kept sample.
    d: Vec<f32>,
    /// Samples of the iteration `kept` refers to: the length of that
    /// iteration's corner columns in [`LevelRecords`].
    of: usize,
    /// Samples per level section of `d`.
    cap: usize,
    features: usize,
}

impl ShardGrads {
    /// A fresh slot sized for `model`, with room for `samples` samples.
    fn new(model: &NgpModel, samples: usize) -> Self {
        let grid = model.grid.config();
        ShardGrads {
            mlp: model.mlp.zero_grads(),
            loss: 0.0,
            kept: Vec::with_capacity(samples),
            d: vec![0.0; grid.levels * samples * grid.features],
            of: 0,
            cap: samples,
            features: grid.features,
        }
    }

    /// Clears the accumulators in place for an iteration of `of` samples.
    fn reset(&mut self, of: usize) {
        self.mlp.zero();
        self.loss = 0.0;
        self.kept.clear();
        self.of = of;
    }

    /// Keeps samples `s0 + r` for each row `r` of `rows`, with their
    /// ∂L/∂encoding rows `d_enc` (every level's `F` values per row),
    /// transposed into the level sections one level at a time and element
    /// by element: at `F = 2` a `copy_from_slice` is a library call per
    /// two floats.
    fn keep(&mut self, s0: usize, rows: &[usize], d_enc: &[f32]) {
        let (cap, f, k0, m) = (self.cap, self.features, self.kept.len(), rows.len());
        if m == 0 {
            return;
        }
        assert!(k0 + m <= cap, "more kept samples than the shard's samples");
        self.kept.extend(rows.iter().map(|&r| s0 + r));
        let dims = d_enc.len() / m;
        for (l, section) in self.d.chunks_exact_mut(cap * f).enumerate() {
            let out = section[k0 * f..][..m * f].chunks_exact_mut(f);
            for (o, d_row) in out.zip(d_enc.chunks_exact(dims)) {
                for (o, &v) in o.iter_mut().zip(&d_row[l * f..]) {
                    *o = v;
                }
            }
        }
    }

    /// Level `l`'s ∂L/∂encoding of every kept sample.
    fn level_d(&self, l: usize) -> &[f32] {
        let f = self.features;
        &self.d[l * self.cap * f..][..self.kept.len() * f]
    }
}

/// One of the [`TRAIN_SHARDS`] fixed slices of the ray batch, with every
/// buffer its shard phase uses.
struct Shard {
    /// The shard's rays in the batch.
    rays: Range<usize>,
    /// The shard's first sample slot in every level's [`LevelRecords`].
    base: usize,
    samples: ShardSamples,
    grads: ShardGrads,
}

impl Shard {
    /// The shard phase (see [`ShardGrads`]) over the samples the previous
    /// iteration drew, encoded by the level tasks into `levels`.
    fn run(
        &mut self,
        mlp: &crate::mlp::Mlp,
        packed: &crate::mlp::PackedMlp,
        levels: &[Level<'_>],
        group: &mut RayGroup,
    ) {
        let Shard { base, samples, grads, .. } = self;
        let n = samples.len();
        grads.reset(n);
        let rays = &samples.rays;
        let mut r = 0;
        while r < rays.len() {
            let s0 = rays[r].samples.start;
            let mut end = r;
            while end < rays.len() && rays[end].samples.end - s0 <= group.mlp.capacity() {
                end += 1;
            }
            assert!(end > r, "a group holds at least one whole ray");
            // Input row `j − s0` is column `l · F + f` ← level `l`'s
            // encoding column `f` at sample `j`, column by column.
            let rows = rays[end - 1].samples.end - s0;
            let inputs = group.mlp.push_rows(rows);
            let dims = inputs.len() / rows;
            for (l, level) in levels.iter().enumerate() {
                let enc = level.records.enc(*base, n);
                for (fi, col) in enc.chunks_exact(n).enumerate() {
                    let out = inputs[l * grads.features + fi..].iter_mut().step_by(dims);
                    for (o, &v) in out.zip(&col[s0..s0 + rows]) {
                        *o = v;
                    }
                }
            }
            group.flush(mlp, packed, samples, &rays[r..end], grads);
            r = end;
        }
    }
}

/// A bounded group of whole rays' MLP rows and every buffer the shard
/// phase needs around them, each allocated once (see [`ShardGrads`] for
/// the phases). A group is empty whenever no shard holds it, so the
/// training loop keeps one per pool thread rather than one per shard.
struct RayGroup {
    /// One ray's samples while a shard draws them.
    samples: Vec<RaySample>,
    /// MLP inputs and forward cache, one row per sample.
    mlp: crate::mlp::MlpRows,
    /// One ray's shaded samples and composite gradients.
    shaded: Vec<ShadedSample>,
    d_sigma: Vec<f32>,
    d_color: Vec<[f32; 3]>,
    /// The kept rows and their head gradients, row by row.
    kept: Vec<usize>,
    d_raw: Vec<f32>,
}

impl RayGroup {
    fn new(model: &NgpModel, rows: usize) -> Self {
        RayGroup {
            samples: Vec::with_capacity(rows),
            mlp: model.mlp.rows(rows),
            shaded: Vec::with_capacity(rows),
            d_sigma: Vec::with_capacity(rows),
            d_color: Vec::with_capacity(rows),
            kept: Vec::with_capacity(rows),
            d_raw: Vec::with_capacity(rows * model.mlp.outputs()),
        }
    }

    /// Runs the group's rows, one per sample of `rays` (consecutive rays of
    /// `samples`), through the model; adds their loss and MLP gradient to
    /// `grads`, keeps their kept samples there, and empties the group.
    fn flush(
        &mut self,
        mlp: &crate::mlp::Mlp,
        packed: &crate::mlp::PackedMlp,
        samples: &ShardSamples,
        rays: &[ShardRay],
        grads: &mut ShardGrads,
    ) {
        let s0 = rays[0].samples.start;
        mlp.forward_rows(packed, &mut self.mlp);
        self.kept.clear();
        self.d_raw.clear();
        for ray in rays {
            let rows = ray.samples.start - s0..ray.samples.end - s0;
            self.shaded.clear();
            self.shaded.extend(rows.clone().map(|r| {
                let raw = self.mlp.output_row(r);
                ShadedSample {
                    sigma: softplus(raw[0]),
                    color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                    delta: samples.delta[s0 + r],
                }
            }));
            let (c, gt) = (composite(&self.shaded), ray.gt);
            let d_out = [
                2.0 * (c[0] - gt[0]) / 3.0,
                2.0 * (c[1] - gt[1]) / 3.0,
                2.0 * (c[2] - gt[2]) / 3.0,
            ];
            grads.loss += ((c[0] - gt[0]).powi(2) + (c[1] - gt[1]).powi(2) + (c[2] - gt[2]).powi(2)) / 3.0;
            composite_backward_into(&self.shaded, d_out, &mut self.d_sigma, &mut self.d_color);
            for (i, r) in rows.enumerate() {
                // Head gradients: σ = softplus(z0), c = sigmoid(z1..3).
                let mut d_raw = [0.0f32; 4];
                d_raw[0] = self.d_sigma[i] * sigmoid(self.mlp.output_row(r)[0]);
                for ch in 0..3 {
                    let cch = self.shaded[i].color[ch];
                    d_raw[1 + ch] = self.d_color[i][ch] * cch * (1.0 - cch);
                }
                if d_raw.iter().all(|&v| v == 0.0) {
                    continue;
                }
                self.kept.push(r);
                self.d_raw.extend_from_slice(&d_raw);
            }
        }
        self.mlp.compact(&self.kept);
        let d_enc = mlp.backward_rows(&mut self.mlp, &self.d_raw, &mut grads.mlp);
        grads.keep(s0, &self.kept, d_enc);
        self.mlp.clear();
    }
}

/// One hash-grid level's records of an iteration, for every shard's
/// samples: the level's `F` encoding columns, which the shard phase builds
/// its MLP input rows from, and its 8 corner columns (level-relative
/// element index and trilinear weight), which the level phase scatters
/// from. The level task writes both in one pass
/// ([`crate::hashgrid::LevelEncoder::encode`]) right after its Adam step,
/// so the records are level-major from the start and no per-sample copy
/// moves them there. Shard `s`'s `n` samples sit at its base slot `b`,
/// structure-of-arrays: `enc[b·F + f·n + j]`, `idx[8b + ci·n + j]` and
/// `w[8b + ci·n + j]`. Sized once for the batch's largest sample count.
///
/// Records stay per level, not per pool thread like [`RayGroup`] and
/// [`LevelScratch`]: the shard phase reads every level's encoding columns,
/// and the next level phase scatters from the corners.
struct LevelRecords {
    enc: Vec<f32>,
    idx: Vec<u32>,
    w: Vec<f32>,
    features: usize,
}

impl LevelRecords {
    fn new(features: usize, samples: usize) -> Self {
        LevelRecords {
            enc: vec![0.0; features * samples],
            idx: vec![0; 8 * samples],
            w: vec![0.0; 8 * samples],
            features,
        }
    }

    /// The encoding columns of the `n` samples at base slot `base`.
    fn enc(&self, base: usize, n: usize) -> &[f32] {
        &self.enc[base * self.features..][..self.features * n]
    }

    /// The corner columns of the `n` samples at base slot `base`.
    fn corners(&self, base: usize, n: usize) -> (&[u32], &[f32]) {
        (&self.idx[8 * base..][..8 * n], &self.w[8 * base..][..8 * n])
    }
}

/// A hash-grid level task's state: the level's slice of the tables, its
/// lookup constants, its Adam moments over the level's live elements
/// ([`crate::hashgrid::HashGridConfig::live_entries`] × `F`), and its
/// [`LevelRecords`]. Allocated once before the training loop.
struct Level<'g> {
    params: &'g mut [f32],
    encoder: LevelEncoder,
    live: usize,
    /// Adam's first and second moments of the live parameters.
    m: Vec<f32>,
    v: Vec<f32>,
    records: LevelRecords,
}

impl Level<'_> {
    /// Scatters every shard's kept records at this level (`l`) into the
    /// level's accumulator, merging the shards in shard order, scales the
    /// sum and runs Adam in place on the level's live parameters.
    fn step(&mut self, l: usize, shards: &[Shard], scratch: &mut LevelScratch, scale: f32, lr: f32, bc: (f32, f32)) {
        let (n, f) = (self.live, self.records.features);
        let (acc, part) = (&mut scratch.acc[..n], &mut scratch.part[..n]);
        acc.fill(0.0);
        for (si, shard) in shards.iter().enumerate() {
            let (idx, w) = self.records.corners(shard.base, shard.grads.of);
            let (kept, d) = (&shard.grads.kept, shard.grads.level_d(l));
            if si == 0 {
                accumulate_grad_level(idx, w, kept, d, f, acc);
            } else {
                accumulate_grad_level(idx, w, kept, d, f, part);
                fnr_tensor::simd::add_assign(acc, part);
                part.fill(0.0);
            }
        }
        scale_in_place(acc, scale);
        adam_update(&mut self.params[..n], acc, &mut self.m, &mut self.v, lr, bc);
    }

    /// Plans and encodes every shard's samples at this level against the
    /// level's table as it stands, into the level's records.
    fn encode(&mut self, shards: &[Shard]) {
        let (f, records) = (self.records.features, &mut self.records);
        for shard in shards {
            let (b, n) = (shard.base, shard.samples.len());
            let enc = &mut records.enc[b * f..][..f * n];
            let idx = &mut records.idx[8 * b..][..8 * n];
            let w = &mut records.w[8 * b..][..8 * n];
            self.encoder.encode(self.params, shard.samples.xyz(), enc, idx, w);
        }
    }
}

/// The merge buffers of one level task, each a whole level long. A task
/// uses them only while it runs, so the training loop keeps one pair per
/// pool thread (at most one per level), not one per level: at fig20a's 8
/// levels that is 128 KB at width 1 instead of 1 MB, which keeps the pair
/// a running task sweeps warm in cache and the rest out of RSS.
struct LevelScratch {
    /// The level's merged gradient.
    acc: Vec<f32>,
    /// One shard's partial, zero between uses.
    part: Vec<f32>,
}

/// Locks an entry of a per-thread pool (one entry per pool thread, so a
/// free one exists unless the width rose mid-run): entry `hint % len`
/// first, else any free one, else waits for entry `hint % len`. A task
/// passes its index as the hint, so under `fnr_par`'s home-first claiming
/// the same thread takes the same entry every iteration and finds it in
/// its own cache.
fn lock_free<T>(pool: &[Mutex<T>], hint: usize) -> MutexGuard<'_, T> {
    let home = &pool[hint % pool.len()];
    home.try_lock()
        .ok()
        .or_else(|| pool.iter().find_map(|e| e.try_lock().ok()))
        .unwrap_or_else(|| home.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Splits `0..batch_rays` into [`TRAIN_SHARDS`] contiguous ranges (the
/// first `batch_rays % TRAIN_SHARDS` shards take the extra ray).
fn shard_ranges(batch_rays: usize) -> Vec<Range<usize>> {
    let base = batch_rays / TRAIN_SHARDS;
    let extra = batch_rays % TRAIN_SHARDS;
    let mut ranges = Vec::with_capacity(TRAIN_SHARDS);
    let mut lo = 0;
    for s in 0..TRAIN_SHARDS {
        let hi = lo + base + usize::from(s < extra);
        ranges.push(lo..hi);
        lo = hi;
    }
    ranges
}

/// Trains `model` to reproduce `scene` from `cfg.views` orbit viewpoints.
///
/// Ground-truth pixels come from the analytic reference renderer; the loss
/// is the MSE between composited and reference colors. Gradients flow
/// through the compositing equation, the sigmoid/softplus heads, the MLP
/// and the trilinear hash-grid interpolation.
///
/// Each iteration `t` runs two parallel phases, and the samples and
/// encodings of iteration 0 are drawn and computed once, before the loop:
///
/// 1. **S(t), one task per shard.** The ray batch is split into
///    `TRAIN_SHARDS` fixed shards. Each builds its samples' MLP input rows
///    from the level-major encoding columns, runs the MLP forward and
///    backward over bounded groups of whole rays in 8-sample tiles (the
///    GEMM form of the per-sample GEMV), and writes ∂L/∂encoding
///    level-major with the list of kept samples. Then it samples its rays
///    for iteration `t + 1` into the same buffers. The private
///    `ShardGrads` docs give the group phases.
/// 2. **L(t), one task per hash-grid level.** Each scatters every shard's
///    kept records at its level, in shard → ray → sample → corner order,
///    into the level's accumulator, merging the shards in shard order,
///    then scales it and runs Adam in place on the level's slice of the
///    tables. Then it plans and encodes every sample of `t + 1` at its
///    level, across samples (16 per AVX-512 register), writing the
///    level's encoding columns and corner records in one pass
///    ([`crate::hashgrid::LevelEncoder::encode`]).
///
/// So a level's table is touched only by its own task: Adam writes it and
/// the next encode reads it straight after, in the same task. With
/// `fnr_par`'s home-first claiming, level `l`'s task runs on the same
/// thread every iteration, as does shard `s`'s, so a level's table and a
/// shard's buffers stay in one core's cache; only the encoding columns
/// and the kept samples' ∂L/∂encoding cross between the phases. Moving the
/// encode from S(t + 1) to L(t) changes no bit: the encoding is a pure
/// function of the sample's position and of its level's table after
/// Adam(t), and S(t + 1) runs after L(t) either way.
///
/// The level phase works on a level's live elements only: the first
/// [`crate::hashgrid::HashGridConfig::live_entries`] × `F`. A dense level
/// indexes just its `(N_l + 1)³` grid corners (fig20a's level 0: 17³ = 4 913
/// of 8 192 entries), so its tail never receives a gradient. That tail's
/// gradient is `+0.0` on every step and its moments start at `+0.0`, and
/// Adam on a zero gradient with zero moments leaves the parameter (even
/// `−0.0`) and both moments bitwise unchanged
/// (`fnr_tensor::simd`'s `adam_step_on_a_zero_state_changes_no_bit`). By
/// induction the tail never moves, so skipping its merge and Adam, and
/// keeping no moments for it, changes no bit. The bound is a function of
/// the grid config, not a setting.
///
/// Only the MLP's shard merge and Adam step (O(MLP params)) run serially.
/// The private `TRAIN_SHARDS` docs say why both phases are bit-identical
/// at any thread count.
pub fn train_ngp(scene: &dyn Scene, model: &mut NgpModel, cfg: &TrainConfig) -> TrainStats {
    // Pre-render ground-truth views.
    let cameras: Vec<Camera> = (0..cfg.views)
        .map(|i| Camera::orbit(i as f32 * std::f32::consts::TAU / cfg.views as f32, 1.6, 0.95))
        .collect();
    let truths: Vec<Image> = cameras
        .iter()
        .map(|c| crate::render::render_reference(scene, c, cfg.image_size, cfg.image_size, 48))
        .collect();

    // The pooled per-shard and per-level arenas: every gradient/activation
    // buffer the two phases need, allocated once and reused by every
    // iteration.
    let mut base = 0;
    let mut shards: Vec<Shard> = shard_ranges(cfg.batch_rays)
        .into_iter()
        .map(|rays| {
            let samples = rays.len() * cfg.samples_per_ray;
            let shard = Shard {
                base,
                samples: ShardSamples::new(rays.len(), samples),
                grads: ShardGrads::new(model, samples),
                rays,
            };
            base += samples;
            shard
        })
        .collect();
    // At most one shard per pool thread runs at a time, and each takes a
    // free group; were the width raised mid-run, a shard would wait for one.
    let groups: Vec<Mutex<RayGroup>> = (0..fnr_par::current_num_threads().min(TRAIN_SHARDS))
        .map(|_| Mutex::new(RayGroup::new(model, GROUP_ROWS.max(cfg.samples_per_ray))))
        .collect();
    let grid_cfg = *model.grid.config();
    let stride = model.grid.level_stride();
    let level_scratch: Vec<Mutex<LevelScratch>> = (0..fnr_par::current_num_threads().min(grid_cfg.levels))
        .map(|_| Mutex::new(LevelScratch { acc: vec![0.0; stride], part: vec![0.0; stride] }))
        .collect();
    let NgpModel { grid, mlp } = model;
    let encoders: Vec<LevelEncoder> = (0..grid_cfg.levels).map(|l| grid.level_encoder(l)).collect();
    let mut levels: Vec<Level<'_>> = grid
        .tables_mut()
        .chunks_mut(stride)
        .zip(encoders)
        .enumerate()
        .map(|(l, (params, encoder))| {
            let live = grid_cfg.live_entries(l) * grid_cfg.features;
            Level {
                params,
                encoder,
                live,
                m: vec![0.0; live],
                v: vec![0.0; live],
                records: LevelRecords::new(grid_cfg.features, base),
            }
        })
        .collect();
    // MLP Adam moments, laid out layer by layer: weights, then bias.
    let mut mlp_m = vec![0.0f32; mlp.param_count()];
    let mut mlp_v = vec![0.0f32; mlp.param_count()];

    // Transposed-weight pack of the MLP, rebuilt (in place) after every
    // optimizer step so the shards' forward passes run the SIMD axpy path.
    let mut packed = mlp.pack();

    // Each shard writes only its own slot and each level task only its
    // own level, and what they compute is a pure function of the config
    // and the index (see `TRAIN_SHARDS`), so the partial gradients and
    // records are identical at any thread count.
    let sample = |shard: &mut Shard, iter: usize, group: &mut RayGroup| {
        let rays = shard.rays.clone();
        shard.samples.sample(rays, iter, cfg, &cameras, &truths, &mut group.samples);
    };
    if cfg.iters > 0 {
        fnr_par::par_for_chunks(&mut shards, 1, |si, s| sample(&mut s[0], 0, &mut lock_free(&groups, si)));
        let shards = &shards;
        fnr_par::par_for_chunks(&mut levels, 1, |_, lv| lv[0].encode(shards));
    }

    let mut losses = Vec::new();
    let mut running = 0.0f32;
    for iter in 0..cfg.iters {
        let next = iter + 1 < cfg.iters;
        mlp.pack_into(&mut packed);
        let (frozen, packed_ref, levels_ref) = (&*mlp, &packed, &levels);
        fnr_par::par_for_chunks(&mut shards, 1, |si, s| {
            let (shard, mut group) = (&mut s[0], lock_free(&groups, si));
            shard.run(frozen, packed_ref, levels_ref, &mut group);
            if next {
                sample(shard, iter + 1, &mut group);
            }
        });

        let scale = 1.0 / cfg.batch_rays as f32;
        let bc = bias_corrections(iter + 1);
        let shards_ref = &shards;
        fnr_par::par_for_chunks(&mut levels, 1, |l, lv| {
            let level = &mut lv[0];
            level.step(l, shards_ref, &mut lock_free(&level_scratch, l), scale, cfg.lr * 2.0, bc);
            if next {
                level.encode(shards_ref);
            }
        });

        // Merge the MLP partials in fixed shard order (into shard 0, whose
        // buffers double as the merged accumulator until the next reset),
        // then run its Adam in place, layer by layer.
        let (first, rest) = shards.split_first_mut().expect("TRAIN_SHARDS >= 1");
        let merged = &mut first.grads;
        for shard in rest.iter() {
            merged.mlp.add_assign(&shard.grads.mlp);
            merged.loss += shard.grads.loss;
        }
        let batch_loss = merged.loss;
        let mut off = 0;
        let grads = merged.mlp.weights.iter_mut().map(|w| w.as_mut_slice()).zip(merged.mlp.bias.iter_mut());
        for (layer, (g_w, g_b)) in mlp.layers_mut().iter_mut().zip(grads) {
            for (p, g) in [(layer.weights.as_mut_slice(), g_w), (&mut layer.bias[..], &mut g_b[..])] {
                let n = p.len();
                scale_in_place(g, scale);
                adam_update(p, g, &mut mlp_m[off..off + n], &mut mlp_v[off..off + n], cfg.lr, bc);
                off += n;
            }
        }

        running = batch_loss / cfg.batch_rays as f32;
        if iter % 10 == 0 {
            losses.push(running);
        }
    }
    TrainStats { losses, final_loss: running }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashgrid::HashGridConfig;
    use crate::psnr::psnr;
    use crate::render::render_reference;
    use crate::scene::MicScene;

    #[test]
    fn training_reduces_loss() {
        let mut model = NgpModel::new(HashGridConfig::small(), 16, 77);
        let cfg = TrainConfig { iters: 120, ..TrainConfig::quick() };
        let stats = train_ngp(&MicScene, &mut model, &cfg);
        let first = stats.losses.first().copied().unwrap();
        let last = stats.final_loss;
        assert!(
            last < first * 0.5,
            "loss should at least halve: {first} → {last} ({:?})",
            stats.losses
        );
    }

    #[test]
    fn trained_model_beats_untrained_on_psnr() {
        let cfg = TrainConfig::quick();
        let cam = Camera::orbit(0.5, 1.6, 0.95);
        let truth = render_reference(&MicScene, &cam, 20, 20, 32);

        let untrained = NgpModel::new(HashGridConfig::small(), 16, 5);
        let img_before = untrained.render(&cam, 20, 20, cfg.samples_per_ray, None);
        let psnr_before = psnr(&truth, &img_before);

        let mut model = NgpModel::new(HashGridConfig::small(), 16, 5);
        train_ngp(&MicScene, &mut model, &cfg);
        let img_after = model.render(&cam, 20, 20, cfg.samples_per_ray, None);
        let psnr_after = psnr(&truth, &img_after);

        assert!(
            psnr_after > psnr_before + 3.0,
            "training should gain >3 dB: {psnr_before:.1} → {psnr_after:.1}"
        );
    }
}
