//! Volume rendering (paper Eq. 3) and full-image rendering for both the
//! analytic reference scenes and the trainable hash-grid model.

use crate::camera::Camera;
use crate::hashgrid::{HashGrid, HashGridConfig, LevelColumns};
use crate::mlp::{Mlp, OutlierQuantizedMlp, PackedMlp, QuantScratch, QuantizedMlp, TileHead};
use crate::psnr::Image;
use crate::sampling::{sample_ray_into, OccupancyGrid, RaySample};
use crate::scene::Scene;
use fnr_tensor::{Matrix, Precision, Quantizer};

/// One shaded sample ready for compositing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadedSample {
    /// Volume density σᵢ.
    pub sigma: f32,
    /// Sample color cᵢ.
    pub color: [f32; 3],
    /// Segment length δᵢ.
    pub delta: f32,
}

/// Numerical quadrature of the volume-rendering integral (Eq. 3) with a
/// white background: `Ĉ = Σ Tᵢ(1−exp(−σᵢδᵢ))cᵢ + T_final·1`.
pub fn composite(samples: &[ShadedSample]) -> [f32; 3] {
    let mut t = 1.0f32;
    let mut c = [0.0f32; 3];
    for s in samples {
        let alpha = 1.0 - (-s.sigma * s.delta).exp();
        let w = t * alpha;
        for (cc, &sc) in c.iter_mut().zip(&s.color) {
            *cc += w * sc;
        }
        t *= 1.0 - alpha;
        if t < 1e-4 {
            t = 0.0;
            break;
        }
    }
    for ch in &mut c {
        *ch += t; // white background
    }
    c
}

/// Backward pass of [`composite`]: given `d_out = ∂L/∂Ĉ`, returns
/// `(∂L/∂σᵢ, ∂L/∂cᵢ)` per sample. The allocating form of
/// [`composite_backward_into`].
pub fn composite_backward(samples: &[ShadedSample], d_out: [f32; 3]) -> (Vec<f32>, Vec<[f32; 3]>) {
    let (mut d_sigma, mut d_color) = (Vec::new(), Vec::new());
    composite_backward_into(samples, d_out, &mut d_sigma, &mut d_color);
    (d_sigma, d_color)
}

/// [`composite_backward`] into caller buffers, which it resizes to one
/// entry per sample. The forward sweep parks each sample's transmittance
/// Tᵢ in `d_sigma[i]` and its opacity αᵢ in `d_color[i][0]`; the backward
/// sweep then runs from the last sample to the first, carrying the suffix
/// sum `Σ_{j>i} w_j c_j + T_n` (background included) in registers and
/// overwriting each slot with its gradient. Every value is computed by
/// the same expression as in a forward-then-backward pass over separate
/// buffers, so a warm pair of buffers is reused without allocating.
pub fn composite_backward_into(
    samples: &[ShadedSample],
    d_out: [f32; 3],
    d_sigma: &mut Vec<f32>,
    d_color: &mut Vec<[f32; 3]>,
) {
    let n = samples.len();
    d_sigma.clear();
    d_sigma.resize(n, 0.0);
    d_color.clear();
    d_color.resize(n, [0.0; 3]);
    // Forward quantities: Tᵢ into d_sigma, αᵢ into d_color[i][0].
    let mut t = 1.0f32;
    for ((s, ts), a) in samples.iter().zip(d_sigma.iter_mut()).zip(d_color.iter_mut()) {
        let alpha = 1.0 - (-s.sigma * s.delta).exp();
        *ts = t;
        a[0] = alpha;
        t *= 1.0 - alpha;
    }
    // The white background term T_n·1 also depends on every σᵢ.
    let mut suffix = [t; 3];
    for ((s, ds), dc) in samples.iter().zip(d_sigma.iter_mut()).zip(d_color.iter_mut()).rev() {
        let (t, alpha) = (*ds, dc[0]);
        let w = t * alpha;
        let trans = t * (1.0 - alpha); // T_i · e^{−σδ}
        let mut grad = 0.0f32;
        for ch in 0..3 {
            dc[ch] = d_out[ch] * w;
            grad += d_out[ch] * s.delta * (trans * s.color[ch] - suffix[ch]);
        }
        *ds = grad;
        suffix = std::array::from_fn(|ch| suffix[ch] + w * s.color[ch]);
    }
}

/// Renders the analytic scene directly (the ground-truth renderer standing
/// in for the dataset photographs). Pixel rows render in parallel across
/// the pool; every pixel is an independent deterministic computation, so
/// the image is byte-identical at any `FNR_THREADS`.
pub fn render_reference(scene: &dyn Scene, camera: &Camera, w: usize, h: usize, spp: usize) -> Image {
    frame_image(w, h, |y, row| reference_row(scene, camera, (w, h, spp), y, row))
}

/// Renders only the pixel rows `[row0, row0 + rows)` of the full `w×h`
/// analytic-scene frame, one row after another on the calling thread (a
/// serving worker renders its band itself; it never hands rows to the
/// pool). Rays are cast with absolute pixel coordinates against the
/// full-frame geometry, and every pixel is independent, so the band is
/// bit-identical to the same rows of [`render_reference`] — the property
/// the serving front-end's chunked response path relies on. The returned
/// image is `rows` tall.
pub fn render_reference_rows(
    scene: &dyn Scene,
    camera: &Camera,
    w: usize,
    h: usize,
    spp: usize,
    row0: usize,
    rows: usize,
) -> Image {
    band_image(w, rows, |yy, row| reference_row(scene, camera, (w, h, spp), row0 + yy, row))
}

/// Pixel row `y` of the analytic `w×h` frame at `spp` into `row`. The
/// calling thread's render tile lends its ray and shaded-sample buffers,
/// so a warm thread renders a row allocating nothing.
fn reference_row(
    scene: &dyn Scene,
    camera: &Camera,
    (w, h, spp): (usize, usize, usize),
    y: usize,
    row: &mut [[f32; 3]],
) {
    RENDER_TILE.with(|tile| {
        let RenderTile { samples, shaded, .. } = &mut *tile.borrow_mut();
        for (x, px) in row.iter_mut().enumerate() {
            let ray = camera.ray(x, y, w, h);
            sample_ray_into(&ray, spp, None, samples);
            shaded.clear();
            shaded.extend(samples.iter().map(|s| ShadedSample {
                sigma: scene.density(s.position),
                color: scene.color(s.position, s.dir),
                delta: s.delta,
            }));
            *px = composite(shaded);
        }
    });
}

/// A `rows`-tall, `w`-wide image whose pixel row `yy` is filled by
/// `row(yy, pixels)`, one row after another on the calling thread: the
/// driver of every band render.
fn band_image(w: usize, rows: usize, mut row: impl FnMut(usize, &mut [[f32; 3]])) -> Image {
    let mut img = Image::new(w, rows);
    for (yy, pixels) in img.pixels_mut().chunks_mut(w.max(1)).enumerate() {
        row(yy, pixels);
    }
    img
}

/// [`band_image`] of a whole `h`-tall frame, its pixel rows spread across
/// the pool: the driver of every whole-frame render. Each row is the same
/// call on whichever thread runs it, so the image does not depend on the
/// pool width.
fn frame_image(w: usize, h: usize, row: impl Fn(usize, &mut [[f32; 3]]) + Sync) -> Image {
    let mut img = Image::new(w, h);
    fnr_par::par_for_chunks(img.pixels_mut(), w.max(1), row);
    img
}

/// One view of a batched render call: camera plus output geometry. Batch
/// members may differ in every field — the serving front-end coalesces on
/// scene/model/precision only.
#[derive(Debug, Clone)]
pub struct BatchView {
    /// Camera for this view.
    pub camera: Camera,
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
    /// Samples per ray.
    pub spp: usize,
}

/// Renders several views of one analytic scene, fanning the views out
/// across the pool. Each image is byte-identical to the corresponding
/// single-view [`render_reference`] call at any `FNR_THREADS`.
pub fn render_reference_batch(scene: &dyn Scene, views: &[BatchView]) -> Vec<Image> {
    fnr_par::par_map(views, |v| render_reference(scene, &v.camera, v.width, v.height, v.spp))
}

/// An Instant-NGP-style model: multi-resolution hash grid + tiny MLP.
///
/// The MLP head outputs `[σ_raw, r_raw, g_raw, b_raw]`; density goes
/// through a softplus and color through a sigmoid.
///
/// # Example
///
/// ```
/// use fnr_nerf::hashgrid::HashGridConfig;
/// use fnr_nerf::render::NgpModel;
/// use fnr_nerf::camera::Camera;
///
/// let model = NgpModel::new(HashGridConfig::small(), 16, 7);
/// let cam = Camera::orbit(0.8, 1.6, 0.9);
/// let img = model.render(&cam, 8, 8, 8, None);
/// assert_eq!(img.width(), 8);
/// assert!(img.pixels().iter().all(|p| p.iter().all(|c| c.is_finite())));
/// ```
#[derive(Debug, Clone)]
pub struct NgpModel {
    /// The trainable hash grid.
    pub grid: HashGrid,
    /// The trainable MLP head.
    pub mlp: Mlp,
}

/// Softplus `ln(1+e^x)`, numerically stable.
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl NgpModel {
    /// A fresh model with the given grid configuration and hidden width.
    pub fn new(config: HashGridConfig, hidden: usize, seed: u64) -> Self {
        let grid = HashGrid::new(config, 1e-2, seed);
        let mlp = Mlp::new(&[config.output_dims(), hidden, hidden, 4], seed.wrapping_add(1));
        NgpModel { grid, mlp }
    }

    /// Renders an image with the FP32 model (optionally skipping empty
    /// space with `grid`; skipped samples contribute nothing, exactly as
    /// zero-padded batch slots do on the accelerator). Pixel rows render
    /// in parallel across the pool.
    pub fn render(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        occupancy: Option<&OccupancyGrid>,
    ) -> Image {
        self.with_packed(|head| render_frame_with(&self.grid, head, camera, w, h, spp, occupancy))
    }

    /// Renders only rows `[row0, row0 + rows)` of the full `w×h` FP32
    /// frame on the calling thread — bit-identical to the same rows of
    /// [`NgpModel::render`] (see [`render_reference_rows`] for why). The
    /// returned image is `rows` tall.
    #[allow(clippy::too_many_arguments)]
    pub fn render_rows(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        occupancy: Option<&OccupancyGrid>,
        row0: usize,
        rows: usize,
    ) -> Image {
        self.with_packed(|head| render_rows_with(&self.grid, head, camera, w, h, spp, occupancy, row0, rows))
    }

    /// Runs `render` with this model's FP32 head. The weights are
    /// transpose-packed once per render for the tile kernels, into the
    /// calling thread's pack when its shape fits. The pack is taken out
    /// for the render, so a nested render on this thread would pack afresh
    /// rather than share it.
    fn with_packed(&self, render: impl FnOnce(&(&Mlp, &PackedMlp)) -> Image) -> Image {
        let packed = match PACKED_MLP.take() {
            Some(mut p) if p.fits(&self.mlp) => {
                self.mlp.pack_into(&mut p);
                p
            }
            _ => self.mlp.pack(),
        };
        let img = render(&(&self.mlp, &packed));
        PACKED_MLP.set(Some(packed));
        img
    }

    /// Renders several views with this FP32 model in one call. The batch
    /// fans out across the pool; each image is byte-identical to the
    /// corresponding single-view [`NgpModel::render`].
    pub fn render_batch(&self, views: &[BatchView], occupancy: Option<&OccupancyGrid>) -> Vec<Image> {
        fnr_par::par_map(views, |v| self.render(&v.camera, v.width, v.height, v.spp, occupancy))
    }

    /// Renders several views with weights quantized to `precision`,
    /// quantizing and calibrating the model **once** for the whole batch —
    /// the amortization that makes request coalescing pay on the
    /// accelerator (and in the serving front-end). Images are
    /// byte-identical to per-view [`NgpModel::render_quantized`] calls,
    /// which perform the same quantization independently.
    ///
    /// Callers that render many batches from one model should
    /// [`NgpModel::prepare_quantized`] once and reuse the result (as the
    /// serving front-end's per-scene cache does) — this method is the
    /// one-shot wrapper.
    pub fn render_batch_quantized(&self, views: &[BatchView], precision: Precision) -> Vec<Image> {
        self.prepare_quantized(precision).render_batch(views)
    }

    /// Quantizes and calibrates this model for `precision` once, returning
    /// a handle that renders any number of batches with zero further
    /// quantize/calibrate work. Rendering through the handle is
    /// byte-identical to [`NgpModel::render_batch_quantized`].
    pub fn prepare_quantized(&self, precision: Precision) -> PreparedQuantized {
        let mut qmlp = QuantizedMlp::quantize(&self.mlp, precision);
        qmlp.calibrate(&self.mlp, &self.calibration_batch());
        PreparedQuantized { qmlp, grid: quantize_grid(&self.grid, precision, None) }
    }

    /// Encodings of a small calibration batch (corner-to-corner diagonal
    /// sweep through the volume), used to fix static activation scales.
    fn calibration_batch(&self) -> Vec<Vec<f32>> {
        let t: Vec<f32> = (0..128).map(|i| i as f32 / 127.0).collect();
        let y: Vec<f32> = t.iter().map(|t| (t * 7.3).fract()).collect();
        let z: Vec<f32> = t.iter().map(|t| (t * 3.1).fract()).collect();
        let dims = self.grid.config().output_dims();
        let mut rows = vec![0.0f32; t.len() * dims];
        self.grid.encode_rows([&t, &y, &z], &mut rows, &mut LevelColumns::default());
        rows.chunks_exact(dims).map(<[f32]>::to_vec).collect()
    }

    /// Renders with weights quantized to `precision` (Fig. 20(a), plain
    /// quantization: grid features, MLP weights and activations are all
    /// quantized, with static calibrated activation scales). A one-view
    /// batch, so the batched path is byte-identical by construction.
    pub fn render_quantized(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        precision: Precision,
    ) -> Image {
        let view = BatchView { camera: *camera, width: w, height: h, spp };
        self.render_batch_quantized(std::slice::from_ref(&view), precision)
            .pop()
            .expect("one view in, one image out")
    }

    /// Renders with outlier-aware quantization: the top `outlier_fraction`
    /// magnitudes of weights and activations stay INT16 (Fig. 20(a),
    /// "outliers: INT16" points).
    pub fn render_quantized_outlier_aware(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        precision: Precision,
        outlier_fraction: f64,
    ) -> Image {
        let mut qmlp = OutlierQuantizedMlp::quantize(&self.mlp, precision, outlier_fraction);
        qmlp.calibrate(&self.mlp, &self.calibration_batch());
        let grid = quantize_grid(&self.grid, precision, Some(outlier_fraction));
        render_frame_with(&grid, &qmlp, camera, w, h, spp, None)
    }
}

/// Rows of one render tile: the samples that go through the MLP head
/// together. A tile holds whole rays of one pixel row, `max(TILE_ROWS,
/// spp)` rows at most, so every ray fits in one. 128 rows are sixteen
/// 8-sample kernel tiles, and a serving band's pixel row (at most 96
/// samples) is a single tile, while a thread's tile buffers stay near
/// 66 KB at the Fig. 20(a) widths and 42 KB for the serving model (10 KB of
/// it the level-major encode columns).
const TILE_ROWS: usize = 128;

/// One thread's render tile, allocated once and reused by every pixel
/// row the thread renders: its buffers only grow, so a warm thread renders
/// any frame up to the largest tile it has seen without allocating. The
/// analytic reference renderer ([`reference_row`]) borrows its `samples`
/// and `shaded` buffers the same way.
///
/// Everything a tile does runs on the thread that owns it: the calling
/// thread of a band render, or whichever pool thread took the pixel row of
/// a whole-frame render. A flush encodes the tile's samples level by level
/// ([`HashGrid::encode_rows`], many samples per register) on that same
/// thread.
#[derive(Default)]
struct RenderTile {
    /// The ray being added.
    samples: Vec<RaySample>,
    /// The pending active samples' positions, one column per axis.
    xyz: [Vec<f32>; 3],
    /// Per pending sample: its segment length δ.
    deltas: Vec<f32>,
    /// Per pending pixel: the end of its samples in the tile.
    ends: Vec<usize>,
    /// The encoded samples, one head input row each.
    x: Vec<f32>,
    /// One level's encoding and corner columns; a render reads back only
    /// the encoding.
    cols: LevelColumns,
    /// One ray's shaded samples.
    shaded: Vec<ShadedSample>,
    head: QuantScratch,
}

thread_local! {
    /// The render tile of this thread.
    static RENDER_TILE: std::cell::RefCell<RenderTile> = std::cell::RefCell::new(RenderTile::default());
    /// The MLP weight pack of this thread's last FP32 render
    /// ([`NgpModel::render_rows`]), repacked in place by the next one.
    static PACKED_MLP: std::cell::Cell<Option<PackedMlp>> = const { std::cell::Cell::new(None) };
}

impl RenderTile {
    /// Drops every pending sample and pixel.
    fn clear(&mut self) {
        self.xyz.iter_mut().for_each(Vec::clear);
        self.deltas.clear();
        self.ends.clear();
        self.x.clear();
    }

    /// Empties the tile and sizes its buffers for `cap` samples of `dims`
    /// encoding values (`features` per level) and `w` pixels.
    fn reset(&mut self, cap: usize, dims: usize, features: usize, w: usize) {
        self.clear();
        self.xyz.iter_mut().for_each(|c| c.reserve(cap));
        self.deltas.reserve(cap);
        self.ends.reserve(w);
        self.x.reserve(cap * dims);
        self.cols.reserve(cap, features);
    }

    /// Adds the active samples of the ray in `samples` as one pending
    /// pixel.
    fn push_ray(&mut self) {
        for s in self.samples.iter().filter(|s| s.active) {
            self.xyz[0].push(s.position.x);
            self.xyz[1].push(s.position.y);
            self.xyz[2].push(s.position.z);
            self.deltas.push(s.delta);
        }
        self.ends.push(self.deltas.len());
    }

    /// Encodes the pending samples with `grid`, one level at a time across
    /// all of them ([`HashGrid::encode_rows`]), into the head input rows;
    /// runs the rows through `head`; shades and composites each pending
    /// pixel into `pixels` (one per pending pixel, in order) and empties
    /// the tile.
    fn flush(&mut self, grid: &HashGrid, head: &impl TileHead, pixels: &mut [[f32; 3]]) {
        let RenderTile { xyz, deltas, ends, x, cols, shaded, head: scratch, .. } = self;
        x.resize(deltas.len() * grid.config().output_dims(), 0.0);
        grid.encode_rows([&xyz[0], &xyz[1], &xyz[2]], x, cols);
        let outs = head.outputs();
        let raw = head.forward_tile(x, scratch);
        let mut start = 0;
        for (px, &end) in pixels.iter_mut().zip(ends.iter()) {
            shaded.clear();
            shaded.extend((start..end).map(|r| {
                let raw = &raw[r * outs..][..outs];
                ShadedSample {
                    sigma: softplus(raw[0]),
                    color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                    delta: deltas[r],
                }
            }));
            *px = composite(shaded);
            start = end;
        }
        self.clear();
    }
}

/// Rows `[row0, row0 + rows)` of the full `w×h` hash-grid model frame
/// into a `rows`-tall image, one pixel row after another on the calling
/// thread: the band render every serving member runs on the worker that
/// took it. Rays use absolute pixel coordinates, so each band pixel is the
/// same computation as in the full frame ([`render_frame_with`]).
#[allow(clippy::too_many_arguments)]
fn render_rows_with(
    grid: &HashGrid,
    head: &impl TileHead,
    camera: &Camera,
    w: usize,
    h: usize,
    spp: usize,
    occupancy: Option<&OccupancyGrid>,
    row0: usize,
    rows: usize,
) -> Image {
    band_image(w, rows, |yy, row| model_row(grid, head, camera, (w, h, spp), occupancy, row0 + yy, row))
}

/// The whole `w×h` hash-grid model frame, its pixel rows spread across the
/// pool: every whole-frame render ([`NgpModel::render`],
/// [`PreparedQuantized::render_batch`] and the outlier-aware render).
fn render_frame_with(
    grid: &HashGrid,
    head: &impl TileHead,
    camera: &Camera,
    w: usize,
    h: usize,
    spp: usize,
    occupancy: Option<&OccupancyGrid>,
) -> Image {
    frame_image(w, h, |y, row| model_row(grid, head, camera, (w, h, spp), occupancy, y, row))
}

/// The row body of every hash-grid model render: pixel row `y` of the
/// full `w×h` frame at `spp` into `row`, on the calling thread's
/// [`RenderTile`].
///
/// The row fills the tile ray by ray: it samples the pixel's ray and adds
/// its active samples' positions (skipped samples contribute nothing,
/// exactly as zero-padded batch slots do on the accelerator), first
/// flushing the tile if the ray would overflow it. A flush encodes every
/// pending sample level-major, runs `head` once over every row, then per
/// pixel in order applies softplus/sigmoid and [`composite`]. Each
/// encoding value equals the per-sample [`HashGrid::encode_into`] bit for
/// bit, and every row of the head is bit-identical to a forward of that
/// sample alone, so the image equals a per-sample render byte for byte.
fn model_row(
    grid: &HashGrid,
    head: &impl TileHead,
    camera: &Camera,
    (w, h, spp): (usize, usize, usize),
    occupancy: Option<&OccupancyGrid>,
    y: usize,
    row: &mut [[f32; 3]],
) {
    let (cap, config) = (TILE_ROWS.max(spp), grid.config());
    RENDER_TILE.with(|tile| {
        let tile = &mut *tile.borrow_mut();
        // A row that panicked mid-tile on this thread (the serving
        // workers survive a render panic) must not leak its samples here.
        tile.reset(cap, config.output_dims(), config.features, w);
        let mut first = 0; // the first pending pixel
        for x in 0..row.len() {
            let ray = camera.ray(x, y, w, h);
            sample_ray_into(&ray, spp, occupancy, &mut tile.samples);
            let active = tile.samples.iter().filter(|s| s.active).count();
            if tile.deltas.len() + active > cap {
                tile.flush(grid, head, &mut row[first..x]);
                first = x;
            }
            tile.push_ray();
        }
        tile.flush(grid, head, &mut row[first..]);
    });
}

/// A quantized-and-calibrated model ready for repeated batched rendering:
/// the output of [`NgpModel::prepare_quantized`]. Holds the calibrated
/// [`QuantizedMlp`] head and the quantized grid, so rendering performs no
/// quantize/calibrate work at all — the hot-path property the serving
/// front-end's per-(scene, precision) cache relies on.
#[derive(Debug, Clone)]
pub struct PreparedQuantized {
    qmlp: QuantizedMlp,
    grid: HashGrid,
}

impl PreparedQuantized {
    /// Renders several views through the prepared integer datapath, the
    /// views and each view's pixel rows fanning out across the pool.
    /// Byte-identical to [`NgpModel::render_batch_quantized`] on the source
    /// model.
    pub fn render_batch(&self, views: &[BatchView]) -> Vec<Image> {
        fnr_par::par_map(views, |v| {
            render_frame_with(&self.grid, &self.qmlp, &v.camera, v.width, v.height, v.spp, None)
        })
    }

    /// Renders only rows `[row0, row0 + rows)` of the full frame `view`
    /// describes, through the prepared integer datapath, on the calling
    /// thread — bit-identical to the same rows of the corresponding
    /// [`PreparedQuantized::render_batch`] image. The returned image is
    /// `rows` tall. Each pixel row's samples run through the
    /// [`QuantizedMlp`] as tiles, so every activation quantize is one
    /// [`fnr_tensor::simd::quantize_static`] call per tile and layer, on
    /// the thread's warm render tile.
    pub fn render_rows(&self, view: &BatchView, row0: usize, rows: usize) -> Image {
        let BatchView { camera, width, height, spp } = view;
        render_rows_with(&self.grid, &self.qmlp, camera, *width, *height, *spp, None, row0, rows)
    }
}

/// Quantizes the grid's feature tables and bakes the dequantized values
/// back into a new grid — numerically identical to running the integer
/// datapath with scales.
///
/// The plain path uses one *global* scale across every level, as a naive
/// INT-N storage format would: fine-level detail features (small) are
/// crushed by the coarse levels' larger magnitudes. The outlier-aware
/// path quantizes per level and keeps the largest magnitudes at INT16,
/// which is what recovers quality in Fig. 20(a).
pub fn quantize_grid(grid: &HashGrid, precision: Precision, outliers: Option<f64>) -> HashGrid {
    let mut out = grid.clone();
    match outliers {
        None => {
            let amax = grid.tables().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let (lo, hi) = precision.range();
            let scale = if amax == 0.0 { 1.0 } else { amax / hi as f32 };
            fnr_tensor::simd::quantize_static(out.tables_mut(), grid.tables(), scale, lo as f32, hi as f32);
        }
        Some(frac) => {
            let q = Quantizer::per_tensor(precision);
            let stride = grid.level_stride();
            for (t_out, t_in) in
                out.tables_mut().chunks_mut(stride).zip(grid.tables().chunks(stride))
            {
                let m = Matrix::from_vec(1, t_in.len(), t_in.to_vec()).expect("shape");
                let deq = q.quantize_outlier_aware(&m, frac).dequantize();
                t_out.copy_from_slice(deq.as_slice());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::MicScene;
    use crate::vec3::Vec3;

    fn shaded(sigma: f32, c: f32) -> ShadedSample {
        ShadedSample { sigma, color: [c, c, c], delta: 0.1 }
    }

    #[test]
    fn empty_ray_is_background_white() {
        let c = composite(&[]);
        assert_eq!(c, [1.0, 1.0, 1.0]);
        let c2 = composite(&[shaded(0.0, 0.3); 8]);
        for ch in c2 {
            assert!((ch - 1.0).abs() < 1e-5, "zero density → background");
        }
    }

    #[test]
    fn opaque_sample_dominates() {
        let c = composite(&[shaded(1000.0, 0.25), shaded(1000.0, 0.9)]);
        assert!((c[0] - 0.25).abs() < 1e-3, "first opaque sample wins: {c:?}");
    }

    #[test]
    fn compositing_weights_are_a_partition() {
        // Total transmittance + sum of weights = 1 → with equal colors the
        // output equals that color mixed with background.
        let samples = vec![shaded(2.0, 0.5); 16];
        let c = composite(&samples);
        assert!(c[0] > 0.5 && c[0] < 1.0);
    }

    #[test]
    fn composite_gradients_match_finite_difference() {
        let mut samples =
            vec![shaded(1.5, 0.2), shaded(0.5, 0.7), shaded(3.0, 0.4), shaded(0.1, 0.9)];
        let d_out = [1.0, 0.0, 0.0]; // dL/dC = e_red
        let (d_sigma, d_color) = composite_backward(&samples, d_out);
        let eps = 1e-3;
        for i in 0..samples.len() {
            let orig = samples[i].sigma;
            samples[i].sigma = orig + eps;
            let plus = composite(&samples)[0];
            samples[i].sigma = orig - eps;
            let minus = composite(&samples)[0];
            samples[i].sigma = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (d_sigma[i] - numeric).abs() < 1e-3,
                "dσ[{i}]: {} vs {numeric}",
                d_sigma[i]
            );

            let origc = samples[i].color[0];
            samples[i].color[0] = origc + eps;
            let plus = composite(&samples)[0];
            samples[i].color[0] = origc - eps;
            let minus = composite(&samples)[0];
            samples[i].color[0] = origc;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (d_color[i][0] - numeric).abs() < 1e-3,
                "dc[{i}]: {} vs {numeric}",
                d_color[i][0]
            );
        }
    }

    #[test]
    fn reference_render_shows_the_scene() {
        let cam = Camera::orbit(0.8, 1.6, 0.9);
        let img = render_reference(&MicScene, &cam, 16, 16, 24);
        let lum = img.mean_luminance();
        // Mostly white background with a dark object: luminance high but
        // not pure white.
        assert!(lum > 0.5 && lum < 0.9999, "luminance {lum}");
    }

    #[test]
    fn untrained_model_renders_finite_pixels() {
        let model = NgpModel::new(crate::hashgrid::HashGridConfig::small(), 16, 3);
        let cam = Camera::orbit(0.8, 1.6, 0.9);
        let img = model.render(&cam, 8, 8, 8, None);
        for p in img.pixels() {
            for c in p {
                assert!(c.is_finite() && *c >= 0.0 && *c <= 1.001, "pixel {c}");
            }
        }
    }

    #[test]
    fn activations_are_bounded() {
        assert!((softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-3);
        assert!(softplus(30.0) >= 30.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn batched_renders_match_single_view_calls() {
        let model = NgpModel::new(crate::hashgrid::HashGridConfig::small(), 16, 11);
        let views: Vec<BatchView> = (0..3)
            .map(|i| BatchView {
                camera: Camera::orbit(0.4 + i as f32 * 0.7, 1.6, 0.9),
                width: 6 + i,
                height: 5,
                spp: 6,
            })
            .collect();
        let batch = model.render_batch(&views, None);
        for (img, v) in batch.iter().zip(&views) {
            let single = model.render(&v.camera, v.width, v.height, v.spp, None);
            assert_eq!(img, &single, "FP32 batch view must match the single-view render");
        }
        let qbatch = model.render_batch_quantized(&views, Precision::Int8);
        for (img, v) in qbatch.iter().zip(&views) {
            let single = model.render_quantized(&v.camera, v.width, v.height, v.spp, Precision::Int8);
            assert_eq!(img, &single, "quantized batch view must match the single-view render");
        }
        let rbatch = render_reference_batch(&MicScene, &views);
        for (img, v) in rbatch.iter().zip(&views) {
            let single = render_reference(&MicScene, &v.camera, v.width, v.height, v.spp);
            assert_eq!(img, &single, "reference batch view must match the single-view render");
        }
    }

    /// Every band render (on the calling thread) is a bitwise slice of the
    /// whole-frame render (rows across the pool), for the reference, FP32,
    /// INT and outlier-INT heads, at pool widths 1, 2 and 3.
    #[test]
    fn row_band_renders_are_bitwise_slices_of_the_full_frame() {
        let _guard = fnr_par::width_test_guard();
        let model = NgpModel::new(crate::hashgrid::HashGridConfig::small(), 16, 9);
        let cam = Camera::orbit(1.1, 1.7, 0.8);
        let (w, h, spp) = (5usize, 7usize, 6usize);
        let view = BatchView { camera: cam, width: w, height: h, spp };
        let prepared = model.prepare_quantized(Precision::Int8);
        let (outlier_frac, outlier_p) = (0.03, Precision::Int4);
        let mut outlier = OutlierQuantizedMlp::quantize(&model.mlp, outlier_p, outlier_frac);
        outlier.calibrate(&model.mlp, &model.calibration_batch());
        let outlier_grid = quantize_grid(&model.grid, outlier_p, Some(outlier_frac));
        let before = fnr_par::current_num_threads();
        for width in 1..=3 {
            fnr_par::set_num_threads(width);
            let fulls = [
                render_reference(&MicScene, &cam, w, h, spp),
                model.render(&cam, w, h, spp, None),
                prepared.render_batch(std::slice::from_ref(&view)).pop().unwrap(),
                model.render_quantized_outlier_aware(&cam, w, h, spp, outlier_p, outlier_frac),
            ];
            for (row0, rows) in [(0usize, 3usize), (3, 2), (5, 2), (0, 7)] {
                let bands = [
                    render_reference_rows(&MicScene, &cam, w, h, spp, row0, rows),
                    model.render_rows(&cam, w, h, spp, None, row0, rows),
                    prepared.render_rows(&view, row0, rows),
                    render_rows_with(&outlier_grid, &outlier, &cam, w, h, spp, None, row0, rows),
                ];
                let heads = ["reference", "FP32", "INT8", "outlier INT4"];
                for (head, (band, full)) in heads.iter().zip(bands.iter().zip(&fulls)) {
                    assert_eq!(band.height(), rows);
                    assert_eq!(
                        band.pixels(),
                        &full.pixels()[row0 * w..(row0 + rows) * w],
                        "{head} at width {width}: band [{row0}, {}) must be a bitwise slice of the full frame",
                        row0 + rows
                    );
                }
            }
        }
        fnr_par::set_num_threads(before);
    }

    /// The per-sample render `render_rows_with` replaces: each active
    /// sample encoded and run through `head` alone, then shaded and
    /// composited.
    fn per_sample_render(
        grid: &HashGrid,
        mut head: impl FnMut(&[f32]) -> [f32; 4],
        cam: &Camera,
        (w, h, spp): (usize, usize, usize),
        occupancy: Option<&OccupancyGrid>,
    ) -> Image {
        let mut img = Image::new(w, h);
        let mut enc = vec![0.0f32; grid.config().output_dims()];
        for (i, px) in img.pixels_mut().iter_mut().enumerate() {
            let samples = crate::sampling::sample_ray(&cam.ray(i % w, i / w, w, h), spp, occupancy);
            let shaded: Vec<ShadedSample> = samples
                .iter()
                .filter(|s| s.active)
                .map(|s| {
                    grid.encode_into(s.position, &mut enc);
                    let raw = head(&enc);
                    ShadedSample {
                        sigma: softplus(raw[0]),
                        color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
                        delta: s.delta,
                    }
                })
                .collect();
            *px = composite(&shaded);
        }
        img
    }

    fn raw4(out: &[f32]) -> [f32; 4] {
        [out[0], out[1], out[2], out[3]]
    }

    #[test]
    fn tile_renders_match_per_sample_renders_bitwise() {
        let model = NgpModel::new(crate::hashgrid::HashGridConfig::small(), 16, 13);
        let calib = model.calibration_batch();
        let packed = model.mlp.pack();
        let quantized = |p, calibrated: bool| {
            let mut q = QuantizedMlp::quantize(&model.mlp, p);
            if calibrated {
                q.calibrate(&model.mlp, &calib);
            }
            (q, quantize_grid(&model.grid, p, None))
        };
        let outlier = |calibrated: bool| {
            let mut q = OutlierQuantizedMlp::quantize(&model.mlp, Precision::Int4, 0.03);
            if calibrated {
                q.calibrate(&model.mlp, &calib);
            }
            (q, quantize_grid(&model.grid, Precision::Int4, Some(0.03)))
        };
        let plain = [
            quantized(Precision::Int16, true),
            quantized(Precision::Int8, true),
            quantized(Precision::Int4, true),
            quantized(Precision::Int8, false),
        ];
        let outliers = [outlier(true), outlier(false)];
        let cam = Camera::orbit(0.9, 1.7, 0.85);
        let occupancy = OccupancyGrid::build(&MicScene, 16, 0.5);
        // Without occupancy every sample is active, so at spp 3 a pixel
        // row of width 1–8 is one tile of 3–24 rows: every row count mod 8.
        // Width 1 and spp 1; 2 and 3 rays of 50 and 40 samples per
        // 128-row tile; and a 130-sample ray, over the tile bound.
        let mut frames: Vec<((usize, usize, usize), bool)> = (1..=8).map(|w| ((w, 2, 3), false)).collect();
        frames.extend([((1, 3, 1), false), ((5, 2, 1), false), ((7, 2, 50), false), ((6, 1, 40), false)]);
        frames.extend([((2, 1, 130), false), ((8, 8, 6), true), ((9, 3, 17), true), ((1, 4, 1), true)]);

        let skipped = (0..64)
            .filter(|i| {
                let samples = crate::sampling::sample_ray(&cam.ray(i % 8, i / 8, 8, 8), 6, Some(&occupancy));
                samples.iter().all(|s| !s.active)
            })
            .count();
        assert!(skipped > 0 && skipped < 64, "{skipped} of 64 rays must have every sample skipped");
        let check = |label: &str, tile: Image, want: Image| {
            let bits = |img: &Image| img.pixels().iter().flatten().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&tile), bits(&want), "{label}: tile render drifted from the per-sample render");
        };
        let mut levels = vec![fnr_tensor::simd::SimdLevel::Scalar, fnr_tensor::simd::SimdLevel::Avx2];
        levels.push(fnr_tensor::simd::level());
        for lv in levels {
            fnr_tensor::simd::cap_level(lv);
            for &((w, h, spp), occ) in &frames {
                let occ = occ.then_some(&occupancy);
                let label = format!("{lv:?} {w}x{h}@{spp} occupancy={}", occ.is_some());
                let frame = (w, h, spp);
                let mut sc = model.mlp.scratch();
                check(
                    &format!("FP32 {label}"),
                    render_rows_with(&model.grid, &(&model.mlp, &packed), &cam, w, h, spp, occ, 0, h),
                    per_sample_render(
                        &model.grid,
                        |x| raw4(model.mlp.forward_into_packed(&packed, x, &mut sc)),
                        &cam,
                        frame,
                        occ,
                    ),
                );
                let mut qs = QuantScratch::default();
                for (k, (q, grid)) in plain.iter().enumerate() {
                    check(
                        &format!("plain #{k} {label}"),
                        render_rows_with(grid, q, &cam, w, h, spp, occ, 0, h),
                        per_sample_render(grid, |x| raw4(q.forward_into(x, &mut qs)), &cam, frame, occ),
                    );
                }
                for (k, (q, grid)) in outliers.iter().enumerate() {
                    check(
                        &format!("outlier #{k} {label}"),
                        render_rows_with(grid, q, &cam, w, h, spp, occ, 0, h),
                        per_sample_render(grid, |x| raw4(q.forward_into(x, &mut qs)), &cam, frame, occ),
                    );
                }
            }
        }
        fnr_tensor::simd::force_scalar(false);
    }

    #[test]
    fn grid_quantization_int16_is_nearly_lossless() {
        let model = NgpModel::new(crate::hashgrid::HashGridConfig::small(), 16, 4);
        let q = quantize_grid(&model.grid, Precision::Int16, None);
        let p = Vec3::splat(0.4);
        let a = model.grid.encode(p);
        let b = q.encode(p);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
