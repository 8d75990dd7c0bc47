//! Serial-vs-parallel equivalence: everything the repro pipeline prints or
//! measures must be *byte-identical* whether it runs on one thread or many.
//!
//! The pool distributes work dynamically, so these tests are the guard
//! against accidentally introducing scheduling-dependent state: table
//! generators are independent and slot-addressed, rendering is per-pixel
//! pure, and training merges a fixed number of gradient shards in fixed
//! order (see `fnr_nerf::train::TRAIN_SHARDS`).
//!
//! `fnr_par::set_num_threads` is process-global, and the test harness runs
//! tests concurrently — every test here (and any future test touching the
//! width) must hold `fnr_par::width_test_guard` for its whole body.

use fnr_nerf::camera::Camera;
use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::render::{render_reference, NgpModel};
use fnr_nerf::sampling::OccupancyGrid;
use fnr_nerf::scene::{LegoScene, MicScene};
use fnr_nerf::train::{train_ngp, TrainConfig, TrainStats};
use fnr_nerf::vec3::Vec3;
use fnr_par::width_test_guard as width_guard;

/// Runs `f` at width 1 and width 4 and returns both results.
fn at_widths<R>(mut f: impl FnMut() -> R) -> (R, R) {
    fnr_par::set_num_threads(1);
    let serial = f();
    fnr_par::set_num_threads(4);
    let parallel = f();
    fnr_par::set_num_threads(1);
    (serial, parallel)
}

#[test]
fn sweep_tables_are_byte_identical() {
    let _g = width_guard();
    // The three generators that actually fan out wide inside (engine
    // sweeps + the batch study); rendering the full fast set here would
    // re-run fig19 three times for little extra coverage.
    let render = || {
        [
            fnr_bench::system_experiments::fig18_latency_density().to_string(),
            fnr_bench::system_experiments::fig19_speedup_efficiency().to_string(),
            fnr_bench::system_experiments::fig20b_batch_scaling().to_string(),
        ]
        .join("\n")
    };
    let (serial, parallel) = at_widths(render);
    assert_eq!(serial, parallel, "sweep tables must not depend on thread count");
}

#[test]
fn reference_render_is_byte_identical() {
    let _g = width_guard();
    let cam = Camera::orbit(0.8, 1.6, 0.9);
    let (serial, parallel) = at_widths(|| render_reference(&MicScene, &cam, 24, 24, 24));
    // Image: PartialEq over f32 pixels = exact bit equality (no NaNs).
    assert_eq!(serial, parallel, "reference renderer must be schedule-independent");
}

#[test]
fn model_render_is_byte_identical() {
    let _g = width_guard();
    let model = NgpModel::new(HashGridConfig::small(), 16, 7);
    let cam = Camera::orbit(0.3, 1.6, 0.9);
    let (serial, parallel) = at_widths(|| model.render(&cam, 20, 20, 12, None));
    assert_eq!(serial, parallel, "NGP renderer must be schedule-independent");
}

#[test]
fn occupancy_grid_build_is_byte_identical() {
    let _g = width_guard();
    // Both dilation passes and the density sampling run on the pool now
    // (the Fig. 13 path); the resulting bitset must be cell-for-cell
    // identical to the serial build.
    let (serial, parallel) = at_widths(|| {
        let mic = OccupancyGrid::build(&MicScene, 24, 0.5);
        let lego = OccupancyGrid::build(&LegoScene, 24, 0.5);
        (mic.cells().to_vec(), lego.cells().to_vec(), mic.occupancy())
    });
    assert_eq!(serial, parallel, "occupancy grids must be schedule-independent");
}

#[test]
fn hidden_sparsity_is_byte_identical() {
    let _g = width_guard();
    let model = NgpModel::new(HashGridConfig::small(), 16, 9);
    let xs: Vec<Vec<f32>> = (0..64)
        .map(|i| {
            let t = i as f32 / 63.0;
            model.grid.encode(Vec3::new(t, (t * 3.7).fract(), (t * 1.9).fract()))
        })
        .collect();
    let (serial, parallel) = at_widths(|| model.mlp.hidden_sparsity(&xs));
    // f64 ratios derive from integer zero counts merged in input order, so
    // exact equality must hold at any width.
    assert_eq!(serial, parallel, "hidden sparsity must be schedule-independent");
}

#[test]
fn training_is_bit_identical_and_psnr_matches() {
    let _g = width_guard();
    let cfg = TrainConfig { iters: 60, ..TrainConfig::quick() };
    let run = || -> (TrainStats, Vec<f32>) {
        let mut model = NgpModel::new(HashGridConfig::small(), 16, 5);
        let stats = train_ngp(&MicScene, &mut model, &cfg);
        let params: Vec<f32> = model
            .mlp
            .layers()
            .iter()
            .flat_map(|l| l.weights.as_slice().iter().chain(&l.bias).copied())
            .chain(model.grid.tables().iter().copied())
            .collect();
        (stats, params)
    };
    let ((stats_1, params_1), (stats_n, params_n)) = at_widths(run);
    assert_eq!(stats_1.losses, stats_n.losses, "loss curves must match exactly");
    assert_eq!(stats_1.final_loss, stats_n.final_loss);
    assert_eq!(params_1.len(), params_n.len());
    // Bit-level equality of every trained parameter: the fixed-shard merge
    // guarantees identical floating-point accumulation order.
    for (i, (a, b)) in params_1.iter().zip(&params_n).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "param {i}: {a} vs {b}");
    }
}

#[test]
fn arena_training_is_bit_identical_across_many_widths() {
    // Training now reuses pooled per-shard scratch arenas (gradients,
    // forward caches, backward buffers) across iterations; each arena slot
    // is written only by the pool task that claimed its shard index, so
    // widths that divide the shards unevenly — including widths above
    // TRAIN_SHARDS — must still produce bit-identical parameters.
    let _g = width_guard();
    let cfg = TrainConfig { iters: 25, ..TrainConfig::quick() };
    let run = || -> (TrainStats, Vec<f32>) {
        let mut model = NgpModel::new(HashGridConfig::small(), 16, 13);
        let stats = train_ngp(&MicScene, &mut model, &cfg);
        let params: Vec<f32> = model
            .mlp
            .layers()
            .iter()
            .flat_map(|l| l.weights.as_slice().iter().chain(&l.bias).copied())
            .chain(model.grid.tables().iter().copied())
            .collect();
        (stats, params)
    };
    fnr_par::set_num_threads(1);
    let (ref_stats, ref_params) = run();
    for width in [2, 3, 5, 8, 12] {
        fnr_par::set_num_threads(width);
        let (stats, params) = run();
        assert_eq!(ref_stats.losses, stats.losses, "width {width}: loss curve moved");
        assert_eq!(params.len(), ref_params.len());
        for (i, (a, b)) in ref_params.iter().zip(&params).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "width {width}, param {i}: {a} vs {b}");
        }
    }
    fnr_par::set_num_threads(1);
}

/// The `FNR_SIMD=off` A/B guarantee, in-process: training and rendering
/// with the SIMD dispatch pinned to the scalar twins produce bit-identical
/// parameters and pixels to the runtime-detected path. (The CI repro leg
/// checks the same property across processes by diffing the printed
/// tables; this test pins it at the API level and fails with a parameter
/// index instead of a table diff.)
///
/// `force_scalar` is process-global like the pool width, so the test holds
/// the width guard to serialize against the other global-state tests; a
/// concurrent test observing the pinned level still computes identical
/// bits — that is the property under test.
#[test]
fn training_and_render_are_bit_identical_with_simd_disabled() {
    let _g = width_guard();
    let cfg = TrainConfig { iters: 30, ..TrainConfig::quick() };
    let run = || -> (Vec<f32>, fnr_nerf::psnr::Image) {
        let mut model = NgpModel::new(HashGridConfig::small(), 16, 21);
        train_ngp(&MicScene, &mut model, &cfg);
        let params: Vec<f32> = model
            .mlp
            .layers()
            .iter()
            .flat_map(|l| l.weights.as_slice().iter().chain(&l.bias).copied())
            .chain(model.grid.tables().iter().copied())
            .collect();
        let cam = Camera::orbit(0.6, 1.6, 0.9);
        let img = model.render(&cam, 16, 16, 10, None);
        (params, img)
    };
    fnr_tensor::simd::force_scalar(true);
    assert_eq!(fnr_tensor::simd::level(), fnr_tensor::simd::SimdLevel::Scalar);
    let (scalar_params, scalar_img) = run();
    fnr_tensor::simd::force_scalar(false);
    let detected = fnr_tensor::simd::level();
    let (simd_params, simd_img) = run();
    // On AVX2 hosts this compares two genuinely different code paths; on
    // others it degenerates to scalar-vs-scalar (still a valid identity).
    assert_eq!(scalar_params.len(), simd_params.len());
    for (i, (a, b)) in scalar_params.iter().zip(&simd_params).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "param {i} differs under {detected:?}: {a} vs {b}");
    }
    assert_eq!(scalar_img, simd_img, "rendered pixels must not depend on the SIMD level");
}

/// FNV-1a (64-bit) over the little-endian bytes of every value's bits.
fn fnv1a64(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The trained bytes are pinned to a literal, not just compared between
/// two runs of the current code: a restructured training step that moved
/// every run's bits the same way would pass the width and SIMD identity
/// tests above, but not this one. The hash covers every MLP weight and
/// bias (layer by layer), then the hash-grid tables. `batch_rays: 100`
/// splits unevenly over the eight shards.
#[test]
fn trained_parameters_match_the_pinned_hash() {
    const PINNED: u64 = 0x3157_e57f_8973_865f;
    let _g = width_guard();
    let cfg = TrainConfig { batch_rays: 100, iters: 40, ..TrainConfig::quick() };
    let run = || {
        let mut model = NgpModel::new(HashGridConfig::small(), 16, 5);
        train_ngp(&MicScene, &mut model, &cfg);
        let mlp = model.mlp.layers().iter().flat_map(|l| l.weights.as_slice().iter().chain(&l.bias));
        fnv1a64(mlp.chain(model.grid.tables()).copied())
    };
    for width in [1, 3] {
        fnr_par::set_num_threads(width);
        let h = run();
        assert_eq!(h, PINNED, "width {width}: trained parameters hash to {h:#018x}");
    }
    fnr_par::set_num_threads(1);
    fnr_tensor::simd::force_scalar(true);
    let h = run();
    fnr_tensor::simd::force_scalar(false);
    assert_eq!(h, PINNED, "scalar kernels: trained parameters hash to {h:#018x}");
}

/// The trained bytes of two odd grid shapes, pinned like the one above.
/// Each runs the level-major encode's lane tails and its scalar path:
/// 11 levels is one 8-level chunk plus 3, with dense coarse levels and
/// hashed fine ones; 3 levels at `F = 3` take the scalar encode at every
/// SIMD level. `batch_rays: 45` is not a multiple of the eight shards or
/// of a vector's lanes.
#[test]
fn odd_grid_shapes_train_to_their_pinned_hashes() {
    let grid = |levels, features, log2_table_size, base_resolution| HashGridConfig {
        levels,
        features,
        log2_table_size,
        base_resolution,
        growth: 1.45,
    };
    let shapes = [(grid(11, 2, 12, 8), 0x4ca9_f56a_16cb_9014u64), (grid(3, 3, 8, 4), 0x4bb2_931c_06a5_4f8f)];
    let _g = width_guard();
    let cfg = TrainConfig { batch_rays: 45, iters: 12, ..TrainConfig::quick() };
    for (grid, pinned) in shapes {
        assert!(grid.is_dense_level(0) && !grid.is_dense_level(grid.levels - 1), "{grid:?}: dense and hashed");
        let run = || {
            let mut model = NgpModel::new(grid, 16, 11);
            train_ngp(&MicScene, &mut model, &cfg);
            let mlp = model.mlp.layers().iter().flat_map(|l| l.weights.as_slice().iter().chain(&l.bias));
            fnv1a64(mlp.chain(model.grid.tables()).copied())
        };
        for width in [1, 2, 3] {
            fnr_par::set_num_threads(width);
            let h = run();
            assert_eq!(h, pinned, "{grid:?}, width {width}: trained parameters hash to {h:#018x}");
        }
        fnr_par::set_num_threads(1);
        fnr_tensor::simd::force_scalar(true);
        let h = run();
        fnr_tensor::simd::force_scalar(false);
        assert_eq!(h, pinned, "{grid:?}, scalar kernels: trained parameters hash to {h:#018x}");
    }
}
