//! A replay of `fnr_nerf::train::train_ngp`'s iterations through the
//! public stage functions, timing each call from outside the library.
//!
//! The replay runs the shards one after another on the calling thread (a
//! width-1 iteration), does the same arithmetic in the same order as
//! `train_ngp`, and is checked bit-for-bit against it, so the stage times
//! describe the real training step.

use std::time::Instant;

use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::{EncodePlan, HashGridConfig};
use fnr_nerf::mlp::{MlpGrads, MlpScratch, PackedMlp};
use fnr_nerf::psnr::Image;
use fnr_nerf::render::{
    composite, composite_backward, render_reference, sigmoid, softplus, NgpModel, ShadedSample,
};
use fnr_nerf::sampling::sample_ray;
use fnr_nerf::scene::MicScene;
use fnr_nerf::train::TrainConfig;
use rand::{Rng, SeedableRng};

/// The timed stages, in the order their metrics are reported.
pub const STAGES: [&str; 8] = [
    "sampling.sample_ray",
    "hashgrid.plan",
    "hashgrid.encode",
    "hashgrid.scatter",
    "mlp.fwd",
    "mlp.bwd",
    "render.composite",
    "render.composite_bwd",
];
const SAMPLE: usize = 0;
const PLAN: usize = 1;
const ENCODE: usize = 2;
const SCATTER: usize = 3;
const FWD: usize = 4;
const BWD: usize = 5;
const COMPOSITE: usize = 6;
const COMPOSITE_BWD: usize = 7;

/// Gradient shards per batch, as in `train_ngp`.
const SHARDS: usize = 8;

/// The hidden width and seed of the Fig. 20(a) model.
pub fn fig20a_model() -> NgpModel {
    NgpModel::new(HashGridConfig::small(), 32, 2025)
}

/// A cycle counter: the time-stamp counter on x86-64 (a few ns per read),
/// the monotonic clock elsewhere. Converted to ns per iteration against the
/// wall clock.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Timer start: a tick stamp when timing, nothing otherwise.
#[inline(always)]
fn stamp<const T: bool>() -> u64 {
    if T {
        ticks()
    } else {
        0
    }
}

/// Charges the ticks since `since` to `stage` and counts one call.
#[inline(always)]
fn lap<const T: bool>(since: u64, it: &mut IterStats, stage: usize) {
    if T {
        it.stage_ticks[stage] += ticks() - since;
    }
    it.calls[stage] += 1;
}

/// What one replayed iteration spent, in ticks, and how often each stage
/// ran.
#[derive(Debug, Clone, Default)]
pub struct IterStats {
    /// Ticks per stage (zero in untimed replays).
    pub stage_ticks: [u64; 8],
    /// Calls per stage.
    pub calls: [u64; 8],
    /// Ticks of the serial shard merge.
    pub merge_ticks: u64,
    /// Ticks of both Adam updates, including the parameter staging copies.
    pub adam_ticks: u64,
    /// Ticks of the transposed-weight pack.
    pub pack_ticks: u64,
    /// The whole iteration, in ticks.
    pub wall_ticks: u64,
    /// The whole iteration, in ns.
    pub wall_ns: u64,
}

/// One shard's working set (the private `ShardGrads` of `train_ngp`).
struct Shard {
    mlp: MlpGrads,
    grid: Vec<f32>,
    loss: f32,
    scratch: Vec<MlpScratch>,
    plans: Vec<EncodePlan>,
    shaded: Vec<ShadedSample>,
    enc: Vec<f32>,
}

/// Adam over a flat parameter vector, with `train_ngp`'s constants.
struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: i32,
}

impl Adam {
    fn new(n: usize) -> Self {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.99;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t);
        let bc2 = 1.0 - B2.powi(self.t);
        fnr_tensor::simd::adam_step(
            params,
            grads,
            &mut self.m,
            &mut self.v,
            lr,
            bc1,
            bc2,
            B1,
            B2,
            1e-8,
        );
    }
}

/// Per-ray RNG stream, the same derivation `train_ngp` uses.
fn ray_rng(seed: u64, iter: usize, ray: usize, batch_rays: usize) -> rand::rngs::StdRng {
    let stream = (iter * batch_rays + ray) as u64;
    rand::rngs::StdRng::seed_from_u64(
        seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)),
    )
}

/// A training run advanced one iteration at a time.
pub struct TrainReplay {
    cfg: TrainConfig,
    cameras: Vec<Camera>,
    truths: Vec<Image>,
    /// The model being trained.
    pub model: NgpModel,
    packed: PackedMlp,
    shards: Vec<Shard>,
    ranges: Vec<(usize, usize)>,
    mlp_adam: Adam,
    grid_adam: Adam,
    flat_p: Vec<f32>,
    flat_g: Vec<f32>,
    grid_p: Vec<f32>,
    grid_g: Vec<f32>,
    iter: usize,
}

impl TrainReplay {
    /// A fresh run of `model` on the Mic scene under `cfg`.
    pub fn new(model: NgpModel, cfg: TrainConfig) -> Self {
        let cameras: Vec<Camera> = (0..cfg.views)
            .map(|i| {
                Camera::orbit(
                    i as f32 * std::f32::consts::TAU / cfg.views as f32,
                    1.6,
                    0.95,
                )
            })
            .collect();
        let truths = cameras
            .iter()
            .map(|c| render_reference(&MicScene, c, cfg.image_size, cfg.image_size, 48))
            .collect();
        let (base, extra) = (cfg.batch_rays / SHARDS, cfg.batch_rays % SHARDS);
        let mut lo = 0;
        let ranges = (0..SHARDS)
            .map(|s| {
                let hi = lo + base + usize::from(s < extra);
                let r = (lo, hi);
                lo = hi;
                r
            })
            .collect();
        let shards = (0..SHARDS)
            .map(|_| Shard {
                mlp: model.mlp.zero_grads(),
                grid: model.grid.zero_grad(),
                loss: 0.0,
                scratch: Vec::new(),
                plans: Vec::new(),
                shaded: Vec::new(),
                enc: vec![0.0; model.grid.config().output_dims()],
            })
            .collect();
        TrainReplay {
            cfg,
            cameras,
            truths,
            packed: model.mlp.pack(),
            mlp_adam: Adam::new(model.mlp.param_count()),
            grid_adam: Adam::new(model.grid.param_count()),
            flat_p: Vec::new(),
            flat_g: Vec::new(),
            grid_p: Vec::new(),
            grid_g: Vec::new(),
            model,
            shards,
            ranges,
            iter: 0,
        }
    }

    /// Runs the next iteration; with `T` every stage call is timed.
    pub fn step<const T: bool>(&mut self) -> IterStats {
        let mut it = IterStats::default();
        let wall0 = Instant::now();
        let tick0 = ticks();
        let TrainReplay {
            cfg,
            cameras,
            truths,
            model,
            packed,
            shards,
            ranges,
            mlp_adam,
            grid_adam,
            flat_p,
            flat_g,
            grid_p,
            grid_g,
            iter,
        } = self;
        let cfg = *cfg;

        let t = stamp::<T>();
        model.mlp.pack_into(packed);
        if T {
            it.pack_ticks = ticks() - t;
        }
        let frozen: &NgpModel = model;
        for (shard, &(lo, hi)) in shards.iter_mut().zip(ranges.iter()) {
            shard.mlp.zero();
            shard.grid.fill(0.0);
            shard.loss = 0.0;
            let Shard {
                mlp: g_mlp,
                grid: g_grid,
                loss,
                scratch,
                plans,
                shaded,
                enc,
            } = shard;
            for ray_idx in lo..hi {
                let mut rng = ray_rng(cfg.seed, *iter, ray_idx, cfg.batch_rays);
                let view = rng.gen_range(0..cfg.views);
                let px = rng.gen_range(0..cfg.image_size);
                let py = rng.gen_range(0..cfg.image_size);
                let ray = cameras[view].ray(px, py, cfg.image_size, cfg.image_size);
                let gt = truths[view].get(px, py);
                let t = stamp::<T>();
                let samples = sample_ray(&ray, cfg.samples_per_ray, None);
                lap::<T>(t, &mut it, SAMPLE);
                if samples.is_empty() {
                    continue;
                }
                while scratch.len() < samples.len() {
                    scratch.push(frozen.mlp.scratch());
                }
                while plans.len() < samples.len() {
                    plans.push(EncodePlan::default());
                }
                shaded.clear();
                for ((s, sc), plan) in samples.iter().zip(scratch.iter_mut()).zip(plans.iter_mut())
                {
                    let t = stamp::<T>();
                    frozen.grid.plan_into(s.position, plan);
                    lap::<T>(t, &mut it, PLAN);
                    let t = stamp::<T>();
                    frozen.grid.encode_planned(plan, enc);
                    lap::<T>(t, &mut it, ENCODE);
                    let t = stamp::<T>();
                    let out = frozen.mlp.forward_cached_into_packed(packed, enc, sc);
                    let raw = [out[0], out[1], out[2], out[3]];
                    lap::<T>(t, &mut it, FWD);
                    shaded.push(ShadedSample {
                        sigma: softplus(raw[0]),
                        color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                        delta: s.delta,
                    });
                }
                let t = stamp::<T>();
                let c = composite(shaded);
                lap::<T>(t, &mut it, COMPOSITE);
                let d_out = [
                    2.0 * (c[0] - gt[0]) / 3.0,
                    2.0 * (c[1] - gt[1]) / 3.0,
                    2.0 * (c[2] - gt[2]) / 3.0,
                ];
                *loss += ((c[0] - gt[0]).powi(2) + (c[1] - gt[1]).powi(2) + (c[2] - gt[2]).powi(2))
                    / 3.0;

                let t = stamp::<T>();
                let (d_sigma, d_color) = composite_backward(shaded, d_out);
                lap::<T>(t, &mut it, COMPOSITE_BWD);
                for i in 0..samples.len() {
                    let sc = &mut scratch[i];
                    let mut d_raw = [0.0f32; 4];
                    d_raw[0] = d_sigma[i] * sigmoid(sc.output()[0]);
                    for ch in 0..3 {
                        let cch = shaded[i].color[ch];
                        d_raw[1 + ch] = d_color[i][ch] * cch * (1.0 - cch);
                    }
                    if d_raw.iter().all(|&v| v == 0.0) {
                        continue;
                    }
                    let t = stamp::<T>();
                    let d_enc = frozen.mlp.backward_into(sc, &d_raw, g_mlp);
                    lap::<T>(t, &mut it, BWD);
                    let t = stamp::<T>();
                    frozen
                        .grid
                        .accumulate_grad_planned(&plans[i], d_enc, g_grid);
                    lap::<T>(t, &mut it, SCATTER);
                }
            }
        }

        let t = stamp::<T>();
        let (merged, rest) = shards.split_first_mut().expect("SHARDS >= 1");
        for shard in rest.iter() {
            merged.mlp.add_assign(&shard.mlp);
            fnr_tensor::simd::add_assign(&mut merged.grid, &shard.grid);
            merged.loss += shard.loss;
        }
        if T {
            it.merge_ticks = ticks() - t;
        }

        let t = stamp::<T>();
        let scale = 1.0 / cfg.batch_rays as f32;
        flat_p.clear();
        flat_g.clear();
        for (li, layer) in model.mlp.layers().iter().enumerate() {
            flat_p.extend_from_slice(layer.weights.as_slice());
            flat_p.extend_from_slice(&layer.bias);
            flat_g.extend(merged.mlp.weights[li].as_slice().iter().map(|&v| v * scale));
            flat_g.extend(merged.mlp.bias[li].iter().map(|&v| v * scale));
        }
        mlp_adam.step(flat_p, flat_g, cfg.lr);
        let mut off = 0;
        for layer in model.mlp.layers_mut() {
            let wn = layer.weights.len();
            layer
                .weights
                .as_mut_slice()
                .copy_from_slice(&flat_p[off..off + wn]);
            off += wn;
            let bn = layer.bias.len();
            layer.bias.copy_from_slice(&flat_p[off..off + bn]);
            off += bn;
        }
        grid_p.clear();
        grid_p.extend_from_slice(model.grid.tables());
        grid_g.clear();
        grid_g.extend(merged.grid.iter().map(|&g| g * scale));
        grid_adam.step(grid_p, grid_g, cfg.lr * 2.0);
        model.grid.tables_mut().copy_from_slice(grid_p);
        if T {
            it.adam_ticks = ticks() - t;
        }

        *iter += 1;
        it.wall_ticks = ticks() - tick0;
        it.wall_ns = wall0.elapsed().as_nanos() as u64;
        it
    }
}

/// Whether two models hold bit-identical parameters.
pub fn same_params(a: &NgpModel, b: &NgpModel) -> bool {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(a.grid.tables()) == bits(b.grid.tables())
        && a.mlp.layers().iter().zip(b.mlp.layers()).all(|(x, y)| {
            bits(x.weights.as_slice()) == bits(y.weights.as_slice())
                && bits(&x.bias) == bits(&y.bias)
        })
}
