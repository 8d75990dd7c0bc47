//! Allocation pin for the FP32, analytic-reference and quantized render
//! paths: once a thread has rendered a frame or band, the next one of the
//! same size allocates only its image.
//!
//! Like `quant_alloc.rs`, this binary installs the counting global
//! allocator and pins the pool width (1, then 2), so the counts are exact
//! and machine-independent. Its one `#[test]` keeps the process-global
//! counters free of concurrent traffic.
//!
//! At width 2 the pins also show that a band never touches the pool: each
//! `fnr_par` fan-out allocates its shared batch record, so a band that
//! handed its rows to the pool would count more than its image.

use fnr_bench::alloc_track::{snapshot, AllocSnapshot, CountingAllocator};
use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::render::{render_reference_rows, BatchView, NgpModel};
use fnr_nerf::scene::MicScene;
use fnr_tensor::Precision;

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// Runs `f` three times and returns the allocator traffic of the last
/// two runs, which must agree: the first run warms the thread's buffers.
fn warm(mut f: impl FnMut()) -> AllocSnapshot {
    f();
    let measure = |f: &mut dyn FnMut()| {
        let before = snapshot();
        f();
        snapshot().since(before)
    };
    let first = measure(&mut f);
    let second = measure(&mut f);
    assert_eq!(first, second, "steady-state render allocator traffic must be flat");
    first
}

#[test]
fn warm_fp32_and_reference_renders_allocate_only_their_image() {
    let _guard = fnr_par::width_test_guard();
    fnr_par::set_num_threads(1);
    let cam = Camera::orbit(0.8, 1.6, 0.9);

    // A 4-row band of an 8×8 reference frame at 4 spp: a ray buffer and a
    // shaded buffer per pixel row again would add 8.
    let band = warm(|| {
        std::hint::black_box(render_reference_rows(&MicScene, &cam, 8, 8, 4, 2, 4));
    });
    assert_eq!(band.count, 1, "a warm reference band allocates its image only: {band:?}");

    // An 8×8 FP32 frame at 4 spp: re-packing the MLP into fresh matrices
    // would add one allocation per layer and one for the layer list.
    let model = NgpModel::new(HashGridConfig::small(), 16, 5);
    let frame = warm(|| {
        std::hint::black_box(model.render(&cam, 8, 8, 4, None));
    });
    assert_eq!(frame.count, 1, "a warm FP32 frame allocates its image only: {frame:?}");

    // Width 2: the serving bands render on the calling thread, so the
    // pool's fan-out records never appear.
    fnr_par::set_num_threads(2);
    let band = warm(|| {
        std::hint::black_box(render_reference_rows(&MicScene, &cam, 8, 8, 4, 2, 4));
    });
    assert_eq!(band.count, 1, "a warm reference band at width 2 allocates its image only: {band:?}");
    let prepared = model.prepare_quantized(Precision::Int8);
    let view = BatchView { camera: cam, width: 8, height: 8, spp: 4 };
    let band = warm(|| {
        std::hint::black_box(prepared.render_rows(&view, 2, 4));
    });
    assert_eq!(band.count, 1, "a warm quantized band at width 2 allocates its image only: {band:?}");
    fnr_par::set_num_threads(1);
}
