//! Rendering-quality integration tests: the trained hash-grid NeRF, its
//! quantized variants and the hardware encoding engines must compose into
//! a pipeline whose quality behaviour matches Fig. 20(a).

use flexnerfer::Pee;
use fnr_hw::TechParams;
use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::psnr::psnr;
use fnr_nerf::render::{render_reference, NgpModel};
use fnr_nerf::scene::{MicScene, Scene};
use fnr_nerf::train::{train_ngp, TrainConfig};
use fnr_nerf::Vec3;
use fnr_tensor::Precision;

#[test]
fn trained_model_quantization_ordering() {
    let cfg = TrainConfig { iters: 350, batch_rays: 128, image_size: 28, ..TrainConfig::quick() };
    let mut model = NgpModel::new(HashGridConfig::small(), 32, 77);
    train_ngp(&MicScene, &mut model, &cfg);

    let cam = Camera::look_at(Vec3::new(1.05, 0.8, 1.05), Vec3::new(0.5, 0.45, 0.5), 0.55);
    let truth = render_reference(&MicScene, &cam, 28, 28, 48);
    let p = |img| psnr(&truth, &img);

    let fp32 = p(model.render(&cam, 28, 28, 16, None));
    let int16 = p(model.render_quantized(&cam, 28, 28, 16, Precision::Int16));
    let int4 = p(model.render_quantized(&cam, 28, 28, 16, Precision::Int4));
    let int4_ol = p(model.render_quantized_outlier_aware(&cam, 28, 28, 16, Precision::Int4, 0.03));

    assert!(fp32 > 18.0, "model must learn something: {fp32:.1} dB");
    assert!((fp32 - int16).abs() < 0.3, "INT16 near-lossless: {int16:.2} vs {fp32:.2}");
    assert!(int4 < int16, "INT4 must degrade: {int4:.2} vs {int16:.2}");
    // At this small training budget the model's own error adds noise;
    // allow a small tolerance on the recovery check (the fnr-bench
    // Fig. 20(a) test asserts strict recovery at a larger budget).
    assert!(
        int4_ol > int4 - 0.3,
        "outliers must not hurt: {int4_ol:.2} vs {int4:.2}"
    );
}

#[test]
fn hardware_encoding_engines_are_functionally_faithful() {
    // The PEE's Eq.(5)/(6) approximation tracks exact sinusoids within the
    // published error bound. (The HEE reads the software hash grid's own
    // tables, so its lookups are the grid's by construction.)
    let pee = Pee::new(64, TechParams::CMOS_28NM);
    for i in 0..50 {
        let v = i as f32 / 50.0;
        let approx = pee.encode_scalar(v, 8);
        let exact = fnr_nerf::encoding::positional_encode(v, 8);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 0.08, "PEE error at {v}: {a} vs {e}");
        }
    }
}

#[test]
fn occupancy_skipping_preserves_image_quality() {
    // Empty-space skipping must not change what the camera sees — the
    // skipped samples were empty.
    let model = {
        let cfg = TrainConfig { iters: 250, ..TrainConfig::quick() };
        let mut m = NgpModel::new(HashGridConfig::small(), 24, 9);
        train_ngp(&MicScene, &mut m, &cfg);
        m
    };
    let grid = fnr_nerf::sampling::OccupancyGrid::build(&MicScene, 32, 0.5);
    let cam = Camera::orbit(0.9, 1.6, 0.95);
    let dense = model.render(&cam, 20, 20, 24, None);
    let skipped = model.render(&cam, 20, 20, 24, Some(&grid));
    let q = psnr(&dense, &skipped);
    assert!(q > 22.0, "skipping should be near-transparent: {q:.1} dB");
}

#[test]
fn scene_complexity_ordering_survives_the_pipeline() {
    // The palace-like scene needs more active samples than the mic-like
    // scene — the Fig. 20(b) complexity axis.
    use fnr_nerf::sampling::{batch_sparsity, sample_ray, OccupancyGrid};
    use fnr_nerf::scene::PalaceScene;
    let cam = Camera::orbit(1.1, 1.6, 0.95);
    let measure = |scene: &dyn Scene| {
        let grid = OccupancyGrid::build(scene, 32, 0.5);
        let batch: Vec<_> =
            cam.rays(24, 24).iter().map(|r| sample_ray(r, 24, Some(&grid))).collect();
        batch_sparsity(&batch)
    };
    let mic = measure(&MicScene);
    let palace = measure(&PalaceScene);
    assert!(mic > palace, "mic sparsity {mic:.2} must exceed palace {palace:.2}");
}
