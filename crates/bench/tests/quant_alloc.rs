//! Allocation regression pin for the quantized per-sample forward path.
//!
//! This binary installs the counting global allocator unconditionally (no
//! feature gate needed — the counters only tick where installed), pins the
//! pool serial, and asserts the PR 4 follow-up contract: per-sample
//! quantized inference runs allocation-free on its scratch, the `Vec`
//! wrappers allocate exactly their output, and steady-state quantized
//! *rendering* allocates only its image once warm (a reintroduced
//! per-row, per-pixel or per-sample buffer would multiply the count by
//! rows, pixels or samples).
//!
//! Everything here is measured at pool width 1, so the counts are exact
//! and machine-independent. All assertions live in one `#[test]` — the
//! counters are process-global, and a second concurrently-running test
//! would tick them mid-measurement.

use fnr_bench::alloc_track::{snapshot, AllocSnapshot, CountingAllocator};
use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::mlp::{Mlp, OutlierQuantizedMlp, QuantScratch, QuantizedMlp};
use fnr_nerf::render::{BatchView, NgpModel};
use fnr_tensor::Precision;

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn measure(f: impl FnOnce()) -> AllocSnapshot {
    let before = snapshot();
    f();
    snapshot().since(before)
}

#[test]
fn quantized_per_sample_forward_paths_are_allocation_free() {
    let _guard = fnr_par::width_test_guard();
    fnr_par::set_num_threads(1);

    let mlp = Mlp::new(&[32, 16, 16, 4], 7);
    let samples: Vec<Vec<f32>> = (0..32)
        .map(|i| (0..32).map(|j| ((i * 31 + j) as f32 * 0.01).sin()).collect())
        .collect();
    let mut plain = QuantizedMlp::quantize(&mlp, Precision::Int8);
    plain.calibrate(&mlp, &samples);
    let mut outlier = OutlierQuantizedMlp::quantize(&mlp, Precision::Int4, 0.05);
    outlier.calibrate(&mlp, &samples);

    // Explicit scratch: zero allocations once warm.
    let mut scratch = QuantScratch::default();
    plain.forward_into(&samples[0], &mut scratch);
    outlier.forward_into(&samples[0], &mut scratch);
    let delta = measure(|| {
        for x in &samples {
            assert_eq!(plain.forward_into(x, &mut scratch).len(), 4);
            assert_eq!(outlier.forward_into(x, &mut scratch).len(), 4);
        }
    });
    assert_eq!(delta.count, 0, "warm scratch forwards must not allocate: {delta:?}");

    // Vec wrappers ride the thread-local scratch: exactly one allocation
    // per call — the returned output Vec, nothing else.
    std::hint::black_box(plain.forward(&samples[0]));
    std::hint::black_box(outlier.forward(&samples[0]));
    let delta = measure(|| {
        for x in &samples[..16] {
            std::hint::black_box(plain.forward(x));
            std::hint::black_box(outlier.forward(x));
        }
    });
    assert_eq!(delta.count, 32, "one output Vec per wrapper call: {delta:?}");

    // Render level: the prepared-model hot path. 8×8 @ 4 spp is ≥256 MLP
    // forwards; per-sample staging would cost thousands of allocations,
    // and steady state must be flat. The ceiling is what one view costs
    // now: its image and the output `Vec`. The render tile (sample, input
    // row, shaded and head buffers) is per thread and warm after the
    // first frame, so a buffer per pixel row again would add at least 8
    // and one per pixel at least 64.
    let model = NgpModel::new(HashGridConfig::small(), 16, 5);
    let prepared = model.prepare_quantized(Precision::Int8);
    let views = [BatchView { camera: Camera::orbit(0.8, 1.6, 0.9), width: 8, height: 8, spp: 4 }];
    std::hint::black_box(prepared.render_batch(&views)); // warm thread-local scratch
    let first = measure(|| {
        std::hint::black_box(prepared.render_batch(&views));
    });
    let second = measure(|| {
        std::hint::black_box(prepared.render_batch(&views));
    });
    assert_eq!(first, second, "steady-state rendering allocator traffic must be flat");
    assert!(
        first.count <= 2,
        "quantized render of 8 rows / 64 px allocated {} times — \
         per-row, per-pixel or per-sample buffers are back on the hot path",
        first.count
    );
}
