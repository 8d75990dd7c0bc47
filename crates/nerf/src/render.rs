//! Volume rendering (paper Eq. 3) and full-image rendering for both the
//! analytic reference scenes and the trainable hash-grid model.

use crate::camera::Camera;
use crate::hashgrid::{HashGrid, HashGridConfig};
use crate::mlp::{Mlp, MlpScratch, OutlierQuantizedMlp, QuantizedMlp};
use crate::psnr::Image;
use crate::sampling::{sample_ray, OccupancyGrid, RaySample};
use crate::scene::Scene;
use crate::vec3::Vec3;
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
/// `(∂L/∂σᵢ, ∂L/∂cᵢ)` per sample.
pub fn composite_backward(
    samples: &[ShadedSample],
    d_out: [f32; 3],
) -> (Vec<f32>, Vec<[f32; 3]>) {
    let n = samples.len();
    // Forward quantities.
    let mut t = vec![1.0f32; n + 1];
    let mut alpha = vec![0.0f32; n];
    for (i, s) in samples.iter().enumerate() {
        alpha[i] = 1.0 - (-s.sigma * s.delta).exp();
        t[i + 1] = t[i] * (1.0 - alpha[i]);
    }
    // Suffix sums of w_j c_j per channel, including the white background
    // term T_n·1 (which also depends on every σᵢ).
    let mut suffix = vec![[0.0f32; 3]; n + 1];
    suffix[n] = [t[n], t[n], t[n]]; // background contribution
    for i in (0..n).rev() {
        let w = t[i] * alpha[i];
        suffix[i] = std::array::from_fn(|ch| suffix[i + 1][ch] + w * samples[i].color[ch]);
    }
    let mut d_sigma = vec![0.0f32; n];
    let mut d_color = vec![[0.0f32; 3]; n];
    for i in 0..n {
        let w = t[i] * alpha[i];
        let trans = t[i] * (1.0 - alpha[i]); // T_i · e^{−σδ}
        let mut ds = 0.0f32;
        for ch in 0..3 {
            d_color[i][ch] = d_out[ch] * w;
            ds += d_out[ch] * samples[i].delta * (trans * samples[i].color[ch] - suffix[i + 1][ch]);
        }
        d_sigma[i] = ds;
    }
    (d_sigma, d_color)
}

/// Renders the analytic scene directly (the ground-truth renderer standing
/// in for the dataset photographs). Pixel rows render in parallel across
/// the pool; every pixel is an independent deterministic computation, so
/// the image is byte-identical at any `FNR_THREADS`.
pub fn render_reference(scene: &dyn Scene, camera: &Camera, w: usize, h: usize, spp: usize) -> Image {
    render_reference_rows(scene, camera, w, h, spp, 0, h)
}

/// Renders only the pixel rows `[row0, row0 + rows)` of the full `w×h`
/// analytic-scene frame. Rays are cast with absolute pixel coordinates
/// against the full-frame geometry, and every pixel is independent, so
/// the band is bit-identical to the same rows of [`render_reference`] —
/// the property the serving front-end's chunked response path relies on.
/// The returned image is `rows` tall.
pub fn render_reference_rows(
    scene: &dyn Scene,
    camera: &Camera,
    w: usize,
    h: usize,
    spp: usize,
    row0: usize,
    rows: usize,
) -> Image {
    let mut img = Image::new(w, rows);
    fnr_par::par_for_chunks(img.pixels_mut(), w.max(1), |yy, row| {
        let y = row0 + yy;
        for (x, px) in row.iter_mut().enumerate() {
            let ray = camera.ray(x, y, w, h);
            let shaded: Vec<ShadedSample> = sample_ray(&ray, spp, None)
                .iter()
                .map(|s| ShadedSample {
                    sigma: scene.density(s.position),
                    color: scene.color(s.position, s.dir),
                    delta: s.delta,
                })
                .collect();
            *px = composite(&shaded);
        }
    });
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

    /// Density and color at a point.
    pub fn query(&self, s: &RaySample) -> ShadedSample {
        let enc = self.grid.encode(s.position);
        let raw = self.mlp.forward(&enc);
        ShadedSample {
            sigma: softplus(raw[0]),
            color: [sigmoid(raw[1]), sigmoid(raw[2]), sigmoid(raw[3])],
            delta: s.delta,
        }
    }

    /// Renders an image with the FP32 model (optionally skipping empty
    /// space with `grid`; skipped samples contribute nothing, exactly as
    /// zero-padded batch slots do on the accelerator).
    pub fn render(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        occupancy: Option<&OccupancyGrid>,
    ) -> Image {
        // Transpose-pack the weights once per render; every per-sample
        // forward then runs the SIMD axpy path (bit-identical to the
        // row-major forward it replaces).
        let packed = self.mlp.pack();
        self.render_with(camera, w, h, spp, occupancy, |enc| {
            MLP_TLS.with(|s| head4(self.mlp.forward_into_packed(&packed, enc, &mut s.borrow_mut())))
        })
    }

    /// Renders only rows `[row0, row0 + rows)` of the full `w×h` FP32
    /// frame — bit-identical to the same rows of [`NgpModel::render`]
    /// (see [`render_reference_rows`] for why). The returned image is
    /// `rows` tall.
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
        let packed = self.mlp.pack();
        self.render_rows_with(camera, w, h, spp, occupancy, row0, rows, |enc| {
            MLP_TLS.with(|s| head4(self.mlp.forward_into_packed(&packed, enc, &mut s.borrow_mut())))
        })
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
        let qmodel = NgpModel {
            grid: quantize_grid(&self.grid, precision, None),
            mlp: self.mlp.clone(),
        };
        PreparedQuantized { qmlp, qmodel }
    }

    /// Encodings of a small calibration batch (corner-to-corner diagonal
    /// sweep through the volume), used to fix static activation scales.
    fn calibration_batch(&self) -> Vec<Vec<f32>> {
        (0..128)
            .map(|i| {
                let t = i as f32 / 127.0;
                self.grid.encode(Vec3::new(t, (t * 7.3).fract(), (t * 3.1).fract()))
            })
            .collect()
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
        let qmodel = NgpModel {
            grid: quantize_grid(&self.grid, precision, Some(outlier_fraction)),
            mlp: self.mlp.clone(),
        };
        qmodel.render_with(camera, w, h, spp, None, |enc| {
            crate::mlp::with_quant_tls(|s| head4(qmlp.forward_into(enc, s)))
        })
    }

    /// Shared image loop: pixel rows run in parallel on the pool (`head`
    /// must therefore be `Fn + Sync`, which every quantized/FP32 head is —
    /// they only read model weights and per-thread scratch).
    fn render_with(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        occupancy: Option<&OccupancyGrid>,
        head: impl Fn(&[f32]) -> [f32; 4] + Sync,
    ) -> Image {
        self.render_rows_with(camera, w, h, spp, occupancy, 0, h, head)
    }

    /// Band form of [`NgpModel::render_with`]: renders rows
    /// `[row0, row0 + rows)` of the full `w×h` frame into a `rows`-tall
    /// image. Rays use absolute pixel coordinates, so each band pixel is
    /// the same computation as in the full-frame loop.
    #[allow(clippy::too_many_arguments)]
    fn render_rows_with(
        &self,
        camera: &Camera,
        w: usize,
        h: usize,
        spp: usize,
        occupancy: Option<&OccupancyGrid>,
        row0: usize,
        rows: usize,
        head: impl Fn(&[f32]) -> [f32; 4] + Sync,
    ) -> Image {
        let mut img = Image::new(w, rows);
        fnr_par::par_for_chunks(img.pixels_mut(), w.max(1), |yy, row| {
            let y = row0 + yy;
            let mut enc = vec![0.0f32; self.grid.config().output_dims()];
            for (x, px) in row.iter_mut().enumerate() {
                let ray = camera.ray(x, y, w, h);
                let samples = sample_ray(&ray, spp, occupancy);
                let shaded: Vec<ShadedSample> = samples
                    .iter()
                    .filter(|s| s.active)
                    .map(|s| {
                        self.grid.encode_into(s.position, &mut enc);
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
        });
        img
    }
}

/// A quantized-and-calibrated model ready for repeated batched rendering:
/// the output of [`NgpModel::prepare_quantized`]. Holds the calibrated
/// [`QuantizedMlp`] and the grid-quantized model, so rendering performs no
/// quantize/calibrate work at all — the hot-path property the serving
/// front-end's per-(scene, precision) cache relies on.
#[derive(Debug, Clone)]
pub struct PreparedQuantized {
    qmlp: QuantizedMlp,
    qmodel: NgpModel,
}

impl PreparedQuantized {
    /// Renders several views through the prepared integer datapath,
    /// fanning out across the pool. Byte-identical to
    /// [`NgpModel::render_batch_quantized`] on the source model. The
    /// per-sample MLP forwards run allocation-free on per-thread
    /// [`QuantScratch`](crate::mlp::QuantScratch) buffers.
    pub fn render_batch(&self, views: &[BatchView]) -> Vec<Image> {
        fnr_par::par_map(views, |v| {
            self.qmodel.render_with(&v.camera, v.width, v.height, v.spp, None, |enc| {
                crate::mlp::with_quant_tls(|s| head4(self.qmlp.forward_into(enc, s)))
            })
        })
    }

    /// Renders only rows `[row0, row0 + rows)` of the full frame `view`
    /// describes, through the prepared integer datapath — bit-identical to
    /// the same rows of the corresponding [`PreparedQuantized::render_batch`]
    /// image. The returned image is `rows` tall.
    pub fn render_rows(&self, view: &BatchView, row0: usize, rows: usize) -> Image {
        self.qmodel
            .render_rows_with(&view.camera, view.width, view.height, view.spp, None, row0, rows, |enc| {
                crate::mlp::with_quant_tls(|s| head4(self.qmlp.forward_into(enc, s)))
            })
    }
}

/// First four outputs of a NeRF head (`[σ_raw, r_raw, g_raw, b_raw]`).
#[inline]
fn head4(out: &[f32]) -> [f32; 4] {
    [out[0], out[1], out[2], out[3]]
}

thread_local! {
    /// Per-thread FP32 MLP scratch for the per-sample render heads.
    static MLP_TLS: std::cell::RefCell<MlpScratch> =
        std::cell::RefCell::new(MlpScratch::default());
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

    #[test]
    fn row_band_renders_are_bitwise_slices_of_the_full_frame() {
        let model = NgpModel::new(crate::hashgrid::HashGridConfig::small(), 16, 9);
        let cam = Camera::orbit(1.1, 1.7, 0.8);
        let (w, h, spp) = (5usize, 7usize, 6usize);
        let view = BatchView { camera: cam, width: w, height: h, spp };
        let prepared = model.prepare_quantized(Precision::Int8);
        let fulls = [
            render_reference(&MicScene, &cam, w, h, spp),
            model.render(&cam, w, h, spp, None),
            prepared.render_batch(std::slice::from_ref(&view)).pop().unwrap(),
        ];
        for (row0, rows) in [(0usize, 3usize), (3, 2), (5, 2), (0, 7)] {
            let bands = [
                render_reference_rows(&MicScene, &cam, w, h, spp, row0, rows),
                model.render_rows(&cam, w, h, spp, None, row0, rows),
                prepared.render_rows(&view, row0, rows),
            ];
            for (band, full) in bands.iter().zip(&fulls) {
                assert_eq!(band.height(), rows);
                assert_eq!(
                    band.pixels(),
                    &full.pixels()[row0 * w..(row0 + rows) * w],
                    "band [{row0}, {}) must be a bitwise slice of the full frame",
                    row0 + rows
                );
            }
        }
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
