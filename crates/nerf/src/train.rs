//! Gradient-descent training of the hash-grid NeRF against a procedural
//! ground truth — the substitute for the paper's pre-trained Instant-NGP
//! checkpoints (needed by the Fig. 20(a) quantization/PSNR study).

use crate::camera::Camera;
use crate::psnr::Image;
use crate::render::{composite, composite_backward, sigmoid, softplus, NgpModel, ShadedSample};
use crate::sampling::sample_ray;
use crate::scene::Scene;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

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
/// in the same ray → sample → corner → feature order, as a whole-grid
/// scatter would give it. Shard 0's sum starts from `+0.0`, and every
/// other shard's sum is added in shard order, `((s₀ + s₁) + s₂) + …`,
/// exactly as a dense per-shard merge adds them. Scaling and Adam are
/// elementwise. So which thread runs a level cannot change what that level
/// computes.
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

/// One shard's pooled working set: its partial MLP gradient, the records
/// its hash-grid gradient is scattered from, and every scratch buffer its
/// rays need. Slots are built once before the training loop and reused by
/// every iteration (cleared in place), so steady-state training performs
/// no per-step gradient/activation allocation.
///
/// A shard holds no grid-sized buffer: the scatter into the hash grid's
/// gradient is deferred to the level phase of [`train_ngp`], which reads
/// `records`.
struct ShardGrads {
    mlp: crate::mlp::MlpGrads,
    loss: f32,
    /// What the level phase scatters into the hash grid's gradient.
    records: LevelRecords,
    /// One forward-cache + backward scratch per concurrently-live sample
    /// along a ray (grown to `samples_per_ray` on first use).
    sample_scratch: Vec<crate::mlp::MlpScratch>,
    /// One hash-grid encode plan per concurrently-live sample: the corner
    /// hashes/weights computed once in the forward pass and recorded for
    /// the level scatter (same point, same lookups).
    plans: Vec<crate::hashgrid::EncodePlan>,
    /// Shaded samples of the ray in flight.
    shaded: Vec<ShadedSample>,
    /// Hash-grid encoding buffer.
    enc: Vec<f32>,
}

impl ShardGrads {
    /// A fresh slot sized for `model`, with room for `samples` records.
    fn new(model: &NgpModel, samples: usize) -> Self {
        let grid = model.grid.config();
        ShardGrads {
            mlp: model.mlp.zero_grads(),
            loss: 0.0,
            records: LevelRecords::new(grid.levels, grid.features, samples),
            sample_scratch: Vec::new(),
            plans: Vec::new(),
            shaded: Vec::new(),
            enc: vec![0.0; grid.output_dims()],
        }
    }

    /// Clears the accumulators in place for the next iteration.
    fn reset(&mut self) {
        self.mlp.zero();
        self.loss = 0.0;
        self.records.len = 0;
    }
}

/// A shard's hash-grid gradient records: one per sample whose head
/// gradient is not all zero, in ray-then-sample order, stored level-major
/// so a level task reads only its own level, contiguously. Section `l` of
/// `corners` holds each record's 8 level-`l` corners, and section `l` of
/// `d` its `F` values of ∂L/∂encoding at level `l`. Sized once for the
/// shard's largest sample count.
struct LevelRecords {
    corners: Vec<crate::hashgrid::LevelCorner>,
    d: Vec<f32>,
    /// Records per level section.
    cap: usize,
    features: usize,
    /// Records held this iteration.
    len: usize,
}

impl LevelRecords {
    fn new(levels: usize, features: usize, cap: usize) -> Self {
        LevelRecords {
            corners: vec![Default::default(); levels * cap * 8],
            d: vec![0.0; levels * cap * features],
            cap,
            features,
            len: 0,
        }
    }

    /// Records one sample: its encode plan and ∂L/∂encoding.
    fn push(&mut self, plan: &crate::hashgrid::EncodePlan, d_enc: &[f32]) {
        let (cap, f, r) = (self.cap, self.features, self.len);
        assert!(r < cap, "more records than the shard's samples");
        for (l, d_level) in d_enc.chunks_exact(f).enumerate() {
            plan.level_corners(l, &mut self.corners[(l * cap + r) * 8..][..8]);
            self.d[(l * cap + r) * f..][..f].copy_from_slice(d_level);
        }
        self.len += 1;
    }

    /// Scatters every record, in order, into level `l`'s gradient span.
    fn scatter_level(&self, l: usize, grad_level: &mut [f32]) {
        let (cap, f, n) = (self.cap, self.features, self.len);
        let corners = self.corners[l * cap * 8..][..n * 8].chunks_exact(8);
        for (c, d) in corners.zip(self.d[l * cap * f..][..n * f].chunks_exact(f)) {
            crate::hashgrid::accumulate_grad_level(c, d, grad_level);
        }
    }
}

/// One hash-grid level's gradient buffers and Adam moments, allocated once
/// before the training loop.
struct LevelGrads {
    /// The level's merged gradient.
    acc: Vec<f32>,
    /// One shard's partial, zero between uses.
    part: Vec<f32>,
    /// Adam's first and second moments of the level's parameters.
    m: Vec<f32>,
    v: Vec<f32>,
}

/// Splits `0..batch_rays` into [`TRAIN_SHARDS`] contiguous ranges (the
/// first `batch_rays % TRAIN_SHARDS` shards take the extra ray).
fn shard_ranges(batch_rays: usize) -> Vec<(usize, usize)> {
    let base = batch_rays / TRAIN_SHARDS;
    let extra = batch_rays % TRAIN_SHARDS;
    let mut ranges = Vec::with_capacity(TRAIN_SHARDS);
    let mut lo = 0;
    for s in 0..TRAIN_SHARDS {
        let hi = lo + base + usize::from(s < extra);
        ranges.push((lo, hi));
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
/// Each iteration runs two parallel phases:
///
/// 1. **Shards.** The ray batch fans out across the thread pool in
///    [`TRAIN_SHARDS`] fixed shards. Each samples, encodes, runs the MLP
///    forward and backward, and records each sample's corner lookups and
///    ∂L/∂encoding, level-major, instead of scattering them into a grid.
/// 2. **Levels.** One task per hash-grid level scatters every shard's
///    records for that level into the level's accumulator, merging the
///    shards in shard order, then scales it and runs Adam in place on the
///    level's slice of the tables.
///
/// Only the MLP's shard merge and Adam step (O(MLP params)) run serially.
/// See [`TRAIN_SHARDS`] for why both phases are bit-identical at any
/// thread count.
pub fn train_ngp(scene: &dyn Scene, model: &mut NgpModel, cfg: &TrainConfig) -> TrainStats {
    // Pre-render ground-truth views.
    let cameras: Vec<Camera> = (0..cfg.views)
        .map(|i| Camera::orbit(i as f32 * std::f32::consts::TAU / cfg.views as f32, 1.6, 0.95))
        .collect();
    let truths: Vec<Image> = cameras
        .iter()
        .map(|c| crate::render::render_reference(scene, c, cfg.image_size, cfg.image_size, 48))
        .collect();

    let ranges = shard_ranges(cfg.batch_rays);
    // The pooled per-shard and per-level arenas: every gradient/activation
    // buffer the two phases need, allocated once and reused by every
    // iteration. Each level's state sits behind its own (uncontended)
    // mutex: only the task that owns the level locks it.
    let mut slots: Vec<ShardGrads> =
        ranges.iter().map(|&(lo, hi)| ShardGrads::new(model, (hi - lo) * cfg.samples_per_ray)).collect();
    let stride = model.grid.level_stride();
    let level_grads: Vec<Mutex<LevelGrads>> = (0..model.grid.config().levels)
        .map(|_| {
            let zeros = || vec![0.0f32; stride];
            Mutex::new(LevelGrads { acc: zeros(), part: zeros(), m: zeros(), v: zeros() })
        })
        .collect();
    // MLP Adam moments, laid out layer by layer: weights, then bias.
    let mut mlp_m = vec![0.0f32; model.mlp.param_count()];
    let mut mlp_v = vec![0.0f32; model.mlp.param_count()];

    // Transposed-weight pack of the MLP, rebuilt (in place) after every
    // optimizer step so the shards' forward passes run the SIMD axpy path.
    let mut packed = model.mlp.pack();

    let mut losses = Vec::new();
    let mut running = 0.0f32;
    for iter in 0..cfg.iters {
        model.mlp.pack_into(&mut packed);
        let frozen: &NgpModel = model;
        let packed_ref = &packed;
        // One chunk = one shard slot: each slot is written only by the
        // pool task that claimed its index, and `ranges[si]` is a pure
        // function of the config, so the partial gradients and records
        // are identical at any thread count.
        fnr_par::par_for_chunks(&mut slots, 1, |si, slot| {
            let shard = &mut slot[0];
            shard.reset();
            // Split the slot into its independently-borrowed working sets.
            let ShardGrads { mlp: g_mlp, loss, records, sample_scratch, plans, shaded, enc } = shard;
            let (lo, hi) = ranges[si];
            for ray_idx in lo..hi {
                let mut rng = ray_rng(cfg.seed, iter, ray_idx, cfg.batch_rays);
                let view = rng.gen_range(0..cfg.views);
                let px = rng.gen_range(0..cfg.image_size);
                let py = rng.gen_range(0..cfg.image_size);
                let ray = cameras[view].ray(px, py, cfg.image_size, cfg.image_size);
                let gt = truths[view].get(px, py);
                let samples = sample_ray(&ray, cfg.samples_per_ray, None);
                if samples.is_empty() {
                    continue;
                }
                while sample_scratch.len() < samples.len() {
                    sample_scratch.push(frozen.mlp.scratch());
                }
                while plans.len() < samples.len() {
                    plans.push(crate::hashgrid::EncodePlan::default());
                }
                // Forward: encode → MLP → heads → composite. The encode
                // plan (corner hashes + trilinear weights) is built once
                // per sample and recorded for the level scatter below.
                shaded.clear();
                for ((s, scratch), plan) in
                    samples.iter().zip(sample_scratch.iter_mut()).zip(plans.iter_mut())
                {
                    frozen.grid.plan_into(s.position, plan);
                    frozen.grid.encode_planned(plan, enc);
                    let raw = frozen.mlp.forward_cached_into_packed(packed_ref, enc, scratch);
                    shaded.push(ShadedSample {
                        sigma: softplus(raw[0]),
                        color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                        delta: s.delta,
                    });
                }
                let c = composite(shaded);
                let d_out = [
                    2.0 * (c[0] - gt[0]) / 3.0,
                    2.0 * (c[1] - gt[1]) / 3.0,
                    2.0 * (c[2] - gt[2]) / 3.0,
                ];
                *loss += ((c[0] - gt[0]).powi(2) + (c[1] - gt[1]).powi(2)
                    + (c[2] - gt[2]).powi(2))
                    / 3.0;

                // Backward.
                let (d_sigma, d_color) = composite_backward(shaded, d_out);
                for (i, _s) in samples.iter().enumerate() {
                    let scratch = &mut sample_scratch[i];
                    // Head gradients: σ = softplus(z0), c = sigmoid(z1..3).
                    let mut d_raw = [0.0f32; 4];
                    d_raw[0] = d_sigma[i] * sigmoid(scratch.output()[0]);
                    for ch in 0..3 {
                        let cch = shaded[i].color[ch];
                        d_raw[1 + ch] = d_color[i][ch] * cch * (1.0 - cch);
                    }
                    if d_raw.iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    let d_enc = frozen.mlp.backward_into(scratch, &d_raw, g_mlp);
                    records.push(&plans[i], d_enc);
                }
            }
        });

        let scale = 1.0 / cfg.batch_rays as f32;
        let bc = bias_corrections(iter + 1);

        // Level phase: one task per hash-grid level, each touching only
        // its own slice of the tables and its own `LevelGrads`.
        fnr_par::par_for_chunks(model.grid.tables_mut(), stride, |l, params| {
            let mut level = level_grads[l].lock().unwrap_or_else(PoisonError::into_inner);
            let LevelGrads { acc, part, m, v } = &mut *level;
            acc.fill(0.0);
            slots[0].records.scatter_level(l, acc);
            for shard in &slots[1..] {
                shard.records.scatter_level(l, part);
                fnr_tensor::simd::add_assign(acc, part);
                part.fill(0.0);
            }
            scale_in_place(acc, scale);
            adam_update(params, acc, m, v, cfg.lr * 2.0, bc);
        });

        // Merge the MLP partials in fixed shard order (into slot 0, whose
        // buffers double as the merged accumulator until the next reset),
        // then run its Adam in place, layer by layer.
        let (merged, rest) = slots.split_first_mut().expect("TRAIN_SHARDS >= 1");
        for shard in rest.iter() {
            merged.mlp.add_assign(&shard.mlp);
            merged.loss += shard.loss;
        }
        let batch_loss = merged.loss;
        let mut off = 0;
        let grads = merged.mlp.weights.iter_mut().map(|w| w.as_mut_slice()).zip(merged.mlp.bias.iter_mut());
        for (layer, (g_w, g_b)) in model.mlp.layers_mut().iter_mut().zip(grads) {
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
