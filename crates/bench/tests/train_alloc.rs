//! Allocation pin for the training loop: `train_ngp` allocates its
//! buffers once, before the first iteration, so its allocator traffic
//! does not grow with `iters`.
//!
//! Like `quant_alloc.rs`, this binary installs the counting global
//! allocator and pins the pool to width 1, so the counts are exact and
//! machine-independent. Its one `#[test]` keeps the process-global
//! counters free of concurrent traffic.

use fnr_bench::alloc_track::{snapshot, AllocSnapshot, CountingAllocator};
use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::render::NgpModel;
use fnr_nerf::scene::MicScene;
use fnr_nerf::train::{train_ngp, TrainConfig};

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn train_allocs(iters: usize) -> AllocSnapshot {
    let cfg = TrainConfig { iters, ..TrainConfig::quick() };
    let mut model = NgpModel::new(HashGridConfig::small(), 16, 5);
    let before = snapshot();
    std::hint::black_box(train_ngp(&MicScene, &mut model, &cfg));
    snapshot().since(before)
}

#[test]
fn training_allocations_do_not_scale_with_iters() {
    let _guard = fnr_par::width_test_guard();
    fnr_par::set_num_threads(1);
    // A first run warms the thread's render tile, whose buffers the
    // ground-truth renders borrow and keep, so that neither measured run
    // pays its one-time growth.
    train_allocs(10);
    // Both runs record one loss (every 10 iterations, from iteration 0)
    // into a vector whose first allocation holds four.
    let short = train_allocs(10);
    let long = train_allocs(20);
    assert_eq!(short.count, long.count, "10 iters: {short:?}, 20 iters: {long:?}");
    assert_eq!(short.bytes, long.bytes, "10 iters: {short:?}, 20 iters: {long:?}");
}
