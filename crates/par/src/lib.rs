//! Dependency-free work-stealing thread pool with a rayon-like surface.
//!
//! The build environment has no crates.io access, so this crate vendors the
//! small slice of rayon's API the workspace needs: [`par_map`],
//! [`par_for_index`] and [`par_for_chunks`], all backed by one
//! lazily-spawned global pool of `std::thread` workers.
//!
//! # Sizing and determinism
//!
//! The parallel *width* (how many threads cooperate on a call) defaults to
//! `std::thread::available_parallelism` and can be pinned with the
//! `FNR_THREADS` environment variable (read once, at first use) or moved at
//! runtime with [`set_num_threads`] — the hook the serial-vs-parallel
//! equivalence suite uses. Every primitive here assigns work by index, so
//! callers that write results into index-addressed slots (as [`par_map`]
//! does) get output that is byte-identical at any width; reductions must
//! use a fixed shard structure (see `fnr_nerf::train`) to keep
//! floating-point merge order independent of the width.
//!
//! # Scheduling
//!
//! Work distribution is dynamic: each parallel call shares one atomic index
//! cursor, and every participating thread (the caller included) repeatedly
//! claims the next unclaimed item — idle threads therefore steal whatever
//! work a slow thread has not reached yet. Nested calls are safe: a caller
//! waiting for its batch first *revokes* the batch's unstarted queue
//! entries (running the items itself via the shared cursor), so no thread
//! ever blocks on work that only a blocked thread could run.
//!
//! ```
//! let squares = fnr_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard ceiling on pool workers (the width may not exceed this + 1).
const MAX_WORKERS: usize = 255;

// ---------------------------------------------------------------------------
// Width (the `FNR_THREADS` knob)
// ---------------------------------------------------------------------------

/// Current parallel width; 0 = not yet initialized from the environment.
static WIDTH: AtomicUsize = AtomicUsize::new(0);

fn width_from_env() -> usize {
    let configured = std::env::var("FNR_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    configured
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, MAX_WORKERS + 1)
}

/// The number of threads parallel calls currently spread across (caller
/// included). `1` means every primitive runs serially inline.
pub fn current_num_threads() -> usize {
    match WIDTH.load(Ordering::Relaxed) {
        0 => {
            let w = width_from_env();
            // First initializer wins so concurrent callers agree.
            match WIDTH.compare_exchange(0, w, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => w,
                Err(prev) => prev,
            }
        }
        w => w,
    }
}

/// Overrides the parallel width for subsequent calls (clamped to
/// `1..=256`). Process-global: intended for tests (serial-vs-parallel
/// equivalence) and benchmarks, not for scoping — parallel work already in
/// flight keeps the width it started with. Tests flipping the width must
/// hold [`width_test_guard`] for their whole body.
pub fn set_num_threads(n: usize) {
    WIDTH.store(n.clamp(1, MAX_WORKERS + 1), Ordering::Relaxed);
}

/// Serializes tests that flip the global width via [`set_num_threads`]:
/// the test harness runs tests concurrently within a binary, so every
/// width-touching test (in any crate) must hold this guard for its whole
/// body or widths race across tests. Poison-tolerant — a panicking test
/// must not wedge the rest of the suite.
pub fn width_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One parallel call in flight. Queue entries are `Arc` clones of this; each
/// entry a worker pops runs `work` once (the shared-cursor claim loop).
struct Batch {
    /// Lifetime-erased borrow of the caller's claim-loop closure.
    ///
    /// SAFETY invariant: the submitting thread keeps the closure alive until
    /// `pending` reaches zero (it blocks in [`Batch::wait`] before
    /// returning), so dereferencing from a worker is sound.
    work: *const (dyn Fn() + Sync),
    /// Queue entries not yet finished (queued + running).
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic observed in a worker, rethrown on the calling thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `work` is only dereferenced while the submitting thread keeps the
// closure alive (see the field invariant); the rest is synchronized.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Runs the claim loop once on this thread and retires one entry.
    fn run(&self) {
        // SAFETY: see the `work` field invariant.
        let work = unsafe { &*self.work };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
            self.panic.lock().unwrap().get_or_insert(payload);
        }
        self.retire(1);
    }

    /// Retires `n` entries (finished or revoked) and wakes the caller when
    /// none remain.
    fn retire(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut pending = self.pending.lock().unwrap();
        *pending -= n;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every entry has retired.
    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap();
        }
    }
}

struct PoolState {
    queue: VecDeque<Arc<Batch>>,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), workers: 0 }),
        work_ready: Condvar::new(),
    })
}

impl Pool {
    /// Enqueues `copies` entries of `batch`, growing the worker set to at
    /// least `copies` threads (capped at [`MAX_WORKERS`]; spawn failures
    /// degrade gracefully to fewer helpers).
    fn submit(&'static self, batch: &Arc<Batch>, copies: usize) {
        let mut st = self.state.lock().unwrap();
        while st.workers < copies.min(MAX_WORKERS) {
            let name = format!("fnr-par-{}", st.workers);
            let spawned = std::thread::Builder::new()
                .name(name)
                .spawn(worker_loop);
            if spawned.is_err() {
                break; // resource limit: run with the workers we have
            }
            st.workers += 1;
        }
        for _ in 0..copies {
            st.queue.push_back(Arc::clone(batch));
        }
        drop(st);
        self.work_ready.notify_all();
    }

    /// Removes `batch`'s unstarted queue entries. The caller runs that work
    /// itself through the shared cursor, which is what makes nested
    /// parallelism deadlock-free: waiting threads never depend on queue
    /// entries that only other blocked threads could pop.
    fn revoke(&'static self, batch: &Arc<Batch>) {
        let mut st = self.state.lock().unwrap();
        let before = st.queue.len();
        st.queue.retain(|b| !Arc::ptr_eq(b, batch));
        let removed = before - st.queue.len();
        drop(st);
        batch.retire(removed);
    }
}

fn worker_loop() {
    let p = pool();
    loop {
        let batch = {
            let mut st = p.state.lock().unwrap();
            loop {
                if let Some(b) = st.queue.pop_front() {
                    break b;
                }
                st = p.work_ready.wait(st).unwrap();
            }
        };
        batch.run();
    }
}

/// Runs `work` on this thread plus up to `helpers` pool workers, returning
/// after every participant has finished. Panics from any participant are
/// rethrown here.
fn run_batch(helpers: usize, work: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        work();
        return;
    }
    // SAFETY: only the trait-object lifetime is erased; `batch.wait()` below
    // keeps `work` borrowed until no worker can touch it again.
    let work_static: *const (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
    let batch = Arc::new(Batch {
        work: work_static,
        pending: Mutex::new(helpers),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let p = pool();
    p.submit(&batch, helpers);
    let caller_result = catch_unwind(AssertUnwindSafe(work));
    p.revoke(&batch);
    batch.wait();
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    let worker_panic = batch.panic.lock().unwrap().take();
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Public primitives
// ---------------------------------------------------------------------------

/// Raw pointer wrapper so index-disjoint writes can cross threads.
struct SendPtr<T>(*mut T);
// SAFETY: users of SendPtr only write through disjoint indices (each claimed
// exactly once from the shared cursor).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Calls `f(i)` exactly once for every `i in 0..n`, spread across the pool.
///
/// Distribution is dynamic (threads claim the next index from a shared
/// cursor) but which thread runs an index never affects *what* it computes,
/// so index-addressed output is deterministic at any width.
pub fn par_for_index(n: usize, f: impl Fn(usize) + Sync) {
    let width = current_num_threads();
    if width <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(i);
    };
    run_batch(width.min(n) - 1, &work);
}

/// Maps `f` over `0..n` in parallel, collecting results in index order.
pub fn par_map_index<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = SendPtr(out.as_mut_ptr());
    par_for_index(n, |i| {
        let r = f(i);
        // SAFETY: each index is claimed exactly once, so writes are disjoint;
        // the Vec outlives the call because par_for_index joins before
        // returning.
        unsafe { *slots.get().add(i) = Some(r) };
    });
    out.into_iter().map(|o| o.expect("par_map_index: every index claimed")).collect()
}

/// Maps `f` over `items` in parallel, preserving order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_index(items.len(), |i| f(&items[i]))
}

/// Splits `data` into consecutive chunks of at most `chunk_len` elements and
/// calls `f(chunk_index, chunk)` on each in parallel.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_for_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let total = data.len();
    let n_chunks = total.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    par_for_index(n_chunks, |ci| {
        let start = ci * chunk_len;
        let len = chunk_len.min(total - start);
        // SAFETY: chunks are disjoint ranges of `data`, each index claimed
        // exactly once, and `data` outlives the joined call.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        f(ci, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Tests mutate the global width; serialize them via the shared guard.
    fn width_lock() -> std::sync::MutexGuard<'static, ()> {
        width_test_guard()
    }

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let _g = width_lock();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for width in [1, 2, 4, 8] {
            set_num_threads(width);
            assert_eq!(par_map(&items, |&x| x * x + 1), expect, "width {width}");
        }
        set_num_threads(1);
    }

    #[test]
    fn par_for_index_claims_each_index_once() {
        let _g = width_lock();
        set_num_threads(4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        par_for_index(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        set_num_threads(1);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_chunks_covers_every_element() {
        let _g = width_lock();
        set_num_threads(3);
        let mut data: Vec<u32> = vec![0; 103];
        par_for_chunks(&mut data, 10, |ci, chunk| {
            for (o, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 10 + o) as u32;
            }
        });
        set_num_threads(1);
        let expect: Vec<u32> = (0..103).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn nested_parallelism_terminates() {
        let _g = width_lock();
        set_num_threads(4);
        let sums = par_map(&[10usize, 20, 30], |&n| {
            let inner: Vec<usize> = (0..n).collect();
            par_map(&inner, |&x| x).into_iter().sum::<usize>()
        });
        set_num_threads(1);
        assert_eq!(sums, vec![45, 190, 435]);
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        let _g = width_lock();
        set_num_threads(4);
        let result = catch_unwind(|| {
            par_for_index(64, |i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
            });
        });
        set_num_threads(1);
        assert!(result.is_err(), "panic must cross the pool boundary");
    }

    #[test]
    fn width_clamps_and_serial_fallback_works() {
        let _g = width_lock();
        set_num_threads(0); // clamps to 1
        assert_eq!(current_num_threads(), 1);
        assert_eq!(par_map(&[1, 2, 3], |&x: &i32| x + 1), vec![2, 3, 4]);
        set_num_threads(1);
    }
}
