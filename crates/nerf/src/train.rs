//! Gradient-descent training of the hash-grid NeRF against a procedural
//! ground truth — the substitute for the paper's pre-trained Instant-NGP
//! checkpoints (needed by the Fig. 20(a) quantization/PSNR study).

use crate::camera::Camera;
use crate::psnr::Image;
use crate::render::{composite, composite_backward_into, sigmoid, softplus, NgpModel, ShadedSample};
use crate::sampling::{sample_ray_into, RaySample};
use crate::scene::Scene;
use rand::{Rng, SeedableRng};
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
/// in the same ray → sample → corner → feature order, as a whole-grid
/// scatter would give it. Shard 0's sum starts from `+0.0`, and every
/// other shard's sum is added in shard order, `((s₀ + s₁) + s₂) + …`,
/// exactly as a dense per-shard merge adds them. Scaling and Adam are
/// elementwise. So which thread runs a level cannot change what that level
/// computes.
///
/// What a shard or a level task keeps across iterations is only what must
/// outlive it: a shard's records ([`LevelRecords`]) and MLP partial, a
/// level's Adam moments ([`LevelGrads`]). Scratch that lives only while a
/// task runs — a shard's [`RayGroup`], a level task's [`LevelScratch`] —
/// comes from a pool of one entry per pool thread, because no more tasks
/// than threads run at once. Held per shard or per level instead, that
/// scratch would be the largest thing the step touches (the merge buffers
/// alone were 1 MB at fig20a's 8 levels), crowding the records and moments
/// the phases read out of cache and adding to RSS.
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
/// cache, encode plans, propagation rows) stay near 45 KB. Sizing them for
/// a shard's whole sample count instead (256 rows at fig20a) would add
/// about 300 KB per group, which is why the group is bounded and not a
/// setting.
const GROUP_ROWS: usize = 32;

/// One shard's pooled working set: its partial MLP gradient and the
/// records its hash-grid gradient is scattered from. Slots are built once
/// before the training loop and reused by every iteration (cleared in
/// place), so steady-state training allocates nothing per step.
///
/// A shard runs its rays group by group, in ray order, through a
/// [`RayGroup`] it borrows for the shard's duration:
///
/// 1. sample, plan and encode every ray of the group into MLP input rows;
/// 2. run the MLP forward over all rows at once, in sample tiles that
///    cross ray boundaries ([`crate::mlp::Mlp::forward_rows`]);
/// 3. per ray, in ray order: heads, composite, loss, composite backward
///    and head gradients, keeping the rows whose head gradient is not all
///    zero;
/// 4. run the MLP backward over the kept rows at once
///    ([`crate::mlp::Mlp::backward_rows`]) and push their records in ray →
///    sample order.
///
/// The weights are frozen for the whole shard phase, so computing a
/// group's forward before any of its backward changes no value, and every
/// gradient entry still receives samples in ray → sample order.
///
/// A shard holds no grid-sized buffer: the scatter into the hash grid's
/// gradient is deferred to the level phase of [`train_ngp`], which reads
/// `records`.
struct ShardGrads {
    mlp: crate::mlp::MlpGrads,
    loss: f32,
    /// What the level phase scatters into the hash grid's gradient.
    records: LevelRecords,
}

impl ShardGrads {
    /// A fresh slot sized for `model`, with room for `samples` records.
    fn new(model: &NgpModel, samples: usize) -> Self {
        let grid = model.grid.config();
        ShardGrads {
            mlp: model.mlp.zero_grads(),
            loss: 0.0,
            records: LevelRecords::new(grid.levels, grid.features, samples),
        }
    }

    /// Clears the accumulators in place for the next iteration.
    fn reset(&mut self) {
        self.mlp.zero();
        self.loss = 0.0;
        self.records.len = 0;
    }
}

/// One ray of a [`RayGroup`]: its ground-truth pixel and its rows.
struct GroupRay {
    gt: [f32; 3],
    rows: std::ops::Range<usize>,
}

/// A bounded group of whole rays and every buffer it needs, each
/// allocated once (see [`ShardGrads`] for the phases). A group is empty
/// whenever no shard holds it, so the training loop keeps one per pool
/// thread rather than one per shard.
struct RayGroup {
    rays: Vec<GroupRay>,
    /// The ray being added.
    samples: Vec<RaySample>,
    /// Per row: its encode plan (recorded for the level scatter) and its
    /// segment length δ.
    plans: Vec<crate::hashgrid::EncodePlan>,
    deltas: Vec<f32>,
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
            rays: Vec::with_capacity(rows),
            samples: Vec::with_capacity(rows),
            plans: vec![Default::default(); rows],
            deltas: vec![0.0; rows],
            mlp: model.mlp.rows(rows),
            shaded: Vec::with_capacity(rows),
            d_sigma: Vec::with_capacity(rows),
            d_color: Vec::with_capacity(rows),
            kept: Vec::with_capacity(rows),
            d_raw: Vec::with_capacity(rows * model.mlp.outputs()),
        }
    }

    /// Plans and encodes the samples in `self.samples` as new rows of one
    /// ray whose pixel is `gt`.
    fn add_ray(&mut self, grid: &crate::hashgrid::HashGrid, gt: [f32; 3]) {
        let start = self.mlp.len();
        for (i, s) in self.samples.iter().enumerate() {
            let plan = &mut self.plans[start + i];
            grid.plan_into(s.position, plan);
            grid.encode_planned(plan, self.mlp.push_row());
            self.deltas[start + i] = s.delta;
        }
        self.rays.push(GroupRay { gt, rows: start..self.mlp.len() });
    }

    /// Runs the group through the model, adds its loss and MLP gradient,
    /// pushes its records, and empties it.
    fn flush(
        &mut self,
        model: &NgpModel,
        packed: &crate::mlp::PackedMlp,
        loss: &mut f32,
        g_mlp: &mut crate::mlp::MlpGrads,
        records: &mut LevelRecords,
    ) {
        model.mlp.forward_rows(packed, &mut self.mlp);
        self.kept.clear();
        self.d_raw.clear();
        for ray in &self.rays {
            self.shaded.clear();
            self.shaded.extend(ray.rows.clone().map(|r| {
                let raw = self.mlp.output_row(r);
                ShadedSample {
                    sigma: softplus(raw[0]),
                    color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                    delta: self.deltas[r],
                }
            }));
            let (c, gt) = (composite(&self.shaded), ray.gt);
            let d_out = [
                2.0 * (c[0] - gt[0]) / 3.0,
                2.0 * (c[1] - gt[1]) / 3.0,
                2.0 * (c[2] - gt[2]) / 3.0,
            ];
            *loss += ((c[0] - gt[0]).powi(2) + (c[1] - gt[1]).powi(2) + (c[2] - gt[2]).powi(2)) / 3.0;
            composite_backward_into(&self.shaded, d_out, &mut self.d_sigma, &mut self.d_color);
            for (i, r) in ray.rows.clone().enumerate() {
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
        let d_enc = model.mlp.backward_rows(&mut self.mlp, &self.d_raw, g_mlp);
        let dims = model.mlp.inputs();
        for (&r, d) in self.kept.iter().zip(d_enc.chunks_exact(dims)) {
            records.push(&self.plans[r], d);
        }
        self.rays.clear();
        self.mlp.clear();
    }
}

/// A shard's hash-grid gradient records: one per sample whose head
/// gradient is not all zero, in ray-then-sample order, stored level-major
/// so a level task reads only its own level, contiguously. Section `l` of
/// `corners` holds each record's 8 level-`l` corners, and section `l` of
/// `d` its `F` values of ∂L/∂encoding at level `l`. Sized once for the
/// shard's largest sample count.
///
/// Records stay per shard, not per pool thread like [`RayGroup`] and
/// [`LevelScratch`]: every level task reads every shard's records, so they
/// must outlive the shard phase. They are also the most the step writes
/// per sample (576 B at fig20a: 8 levels × 8 corners × 8 B, plus `d`),
/// which is why [`LevelRecords::push`] is one copy per sample.
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

    /// Records one sample: its encode plan and ∂L/∂encoding. Every
    /// level's corners go in with one
    /// [`crate::hashgrid::EncodePlan::write_level_corners`] call, and `d`
    /// element by element: at `F = 2` a per-level `copy_from_slice` is a
    /// library call per two floats.
    fn push(&mut self, plan: &crate::hashgrid::EncodePlan, d_enc: &[f32]) {
        let (cap, f, r) = (self.cap, self.features, self.len);
        assert!(r < cap, "more records than the shard's samples");
        plan.write_level_corners(&mut self.corners[r * 8..], cap * 8);
        let d = &mut self.d[r * f..];
        for (l, d_level) in d_enc.chunks_exact(f).enumerate() {
            for (fi, &v) in d_level.iter().enumerate() {
                d[l * cap * f + fi] = v;
            }
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

/// One hash-grid level's Adam moments, allocated once before the training
/// loop over the level's live elements
/// ([`crate::hashgrid::HashGridConfig::live_entries`] × `F`).
struct LevelGrads {
    /// Adam's first and second moments of the level's parameters.
    m: Vec<f32>,
    v: Vec<f32>,
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

/// Locks a free entry of a per-thread pool (one entry per pool thread, so
/// a free one exists unless the width rose mid-run), or waits for entry
/// `hint % len`.
fn lock_free<T>(pool: &[Mutex<T>], hint: usize) -> MutexGuard<'_, T> {
    pool.iter()
        .find_map(|e| e.try_lock().ok())
        .unwrap_or_else(|| pool[hint % pool.len()].lock().unwrap_or_else(PoisonError::into_inner))
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
///    [`TRAIN_SHARDS`] fixed shards. Each walks its rays in bounded groups
///    of whole rays: it samples and encodes a group into MLP input rows,
///    runs the MLP forward and backward over the group in 8-sample tiles
///    (the GEMM form of the per-sample GEMV), and records each sample's
///    corner lookups and ∂L/∂encoding, level-major, instead of scattering
///    them into a grid. See [`ShardGrads`] for the group phases.
/// 2. **Levels.** One task per hash-grid level scatters every shard's
///    records for that level into the level's accumulator, merging the
///    shards in shard order, then scales it and runs Adam in place on the
///    level's slice of the tables.
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
    // At most one shard per pool thread runs at a time, and each takes a
    // free group; were the width raised mid-run, a shard would wait for one.
    let groups: Vec<Mutex<RayGroup>> = (0..fnr_par::current_num_threads().min(TRAIN_SHARDS))
        .map(|_| Mutex::new(RayGroup::new(model, GROUP_ROWS.max(cfg.samples_per_ray))))
        .collect();
    let stride = model.grid.level_stride();
    let grid_cfg = *model.grid.config();
    let live: Vec<usize> = (0..grid_cfg.levels).map(|l| grid_cfg.live_entries(l) * grid_cfg.features).collect();
    let level_grads: Vec<Mutex<LevelGrads>> =
        live.iter().map(|&n| Mutex::new(LevelGrads { m: vec![0.0; n], v: vec![0.0; n] })).collect();
    let level_scratch: Vec<Mutex<LevelScratch>> = (0..fnr_par::current_num_threads().min(grid_cfg.levels))
        .map(|_| Mutex::new(LevelScratch { acc: vec![0.0; stride], part: vec![0.0; stride] }))
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
            let ShardGrads { mlp: g_mlp, loss, records } = shard;
            let mut group = lock_free(&groups, si);
            let (lo, hi) = ranges[si];
            for ray_idx in lo..hi {
                let mut rng = ray_rng(cfg.seed, iter, ray_idx, cfg.batch_rays);
                let view = rng.gen_range(0..cfg.views);
                let px = rng.gen_range(0..cfg.image_size);
                let py = rng.gen_range(0..cfg.image_size);
                let ray = cameras[view].ray(px, py, cfg.image_size, cfg.image_size);
                sample_ray_into(&ray, cfg.samples_per_ray, None, &mut group.samples);
                if group.samples.is_empty() {
                    continue;
                }
                if group.mlp.len() + group.samples.len() > group.mlp.capacity() {
                    group.flush(frozen, packed_ref, loss, g_mlp, records);
                }
                group.add_ray(&frozen.grid, truths[view].get(px, py));
            }
            group.flush(frozen, packed_ref, loss, g_mlp, records);
        });

        let scale = 1.0 / cfg.batch_rays as f32;
        let bc = bias_corrections(iter + 1);

        // Level phase: one task per hash-grid level, each touching only
        // its own slice of the tables, its own `LevelGrads` and a free
        // `LevelScratch`, over the level's live elements.
        fnr_par::par_for_chunks(model.grid.tables_mut(), stride, |l, params| {
            let n = live[l];
            let mut level = level_grads[l].lock().unwrap_or_else(PoisonError::into_inner);
            let mut scratch = lock_free(&level_scratch, l);
            let LevelScratch { acc, part } = &mut *scratch;
            let (acc, part) = (&mut acc[..n], &mut part[..n]);
            acc.fill(0.0);
            slots[0].records.scatter_level(l, acc);
            for shard in &slots[1..] {
                shard.records.scatter_level(l, part);
                fnr_tensor::simd::add_assign(acc, part);
                part.fill(0.0);
            }
            scale_in_place(acc, scale);
            let LevelGrads { m, v } = &mut *level;
            adam_update(&mut params[..n], acc, m, v, cfg.lr * 2.0, bc);
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
