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
//! Every thread that joins a parallel call is a *participant* with a fixed
//! number: the caller is 0 and pool worker `k` is `k + 1`. At width `w`,
//! participant `p < w` is the *home* of the indices `i ≡ p (mod w)` and
//! claims those first, in ascending order; then it steals unclaimed indices
//! from the other homes, so idle threads still take whatever work a slow
//! thread has not reached yet. A participant without a home (a worker whose
//! number is `w` or more, left over from a wider call) only steals. So when
//! a caller runs the same `n`-index loop every step, index `i` runs on the
//! same thread step after step unless that thread falls behind, and the
//! data index `i` owns stays in that core's cache. Nested calls are safe: a
//! caller waiting for its batch first *revokes* the batch's unstarted queue
//! entries (running the items itself through the shared claims), so no
//! thread ever blocks on work that only a blocked thread could run.
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
/// entry a worker pops runs `work` once (the claim loop), passing the
/// worker's participant number.
struct Batch {
    /// Lifetime-erased borrow of the caller's claim-loop closure.
    ///
    /// SAFETY invariant: the submitting thread keeps the closure alive until
    /// `pending` reaches zero (it blocks in [`Batch::wait`] before
    /// returning), so dereferencing from a worker is sound.
    work: *const (dyn Fn(usize) + Sync),
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
    /// Runs the claim loop once on this thread, as `participant`, and
    /// retires one entry.
    fn run(&self, participant: usize) {
        // SAFETY: see the `work` field invariant.
        let work = unsafe { &*self.work };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(participant))) {
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
            let k = st.workers;
            let spawned = std::thread::Builder::new()
                .name(format!("fnr-par-{k}"))
                .spawn(move || worker_loop(k + 1));
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

/// Pops batches forever, joining each as `participant` (worker `k` is
/// participant `k + 1`; the caller of a batch is participant 0).
fn worker_loop(participant: usize) {
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
        batch.run(participant);
    }
}

/// Runs `work` on this thread (as participant 0) plus up to `helpers` pool
/// workers (each as its own participant number), returning after every
/// participant has finished. Panics from any participant are rethrown here.
fn run_batch(helpers: usize, work: &(dyn Fn(usize) + Sync)) {
    if helpers == 0 {
        work(0);
        return;
    }
    // SAFETY: only the trait-object lifetime is erased; `batch.wait()` below
    // keeps `work` borrowed until no worker can touch it again.
    let work_static: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(work) };
    let batch = Arc::new(Batch {
        work: work_static,
        pending: Mutex::new(helpers),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    let p = pool();
    p.submit(&batch, helpers);
    let caller_result = catch_unwind(AssertUnwindSafe(|| work(0)));
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

/// The claims of one `n`-index call at width `w`: home `q < w` holds the
/// indices `q, q + w, q + 2w, …` below `n`, and its cursor counts how many
/// of them have been claimed. Every claim is one `fetch_add` on a cursor,
/// so each index goes to exactly one participant, whoever asks. The
/// cursors are `Relaxed`: they publish no data, and what `f` writes is
/// ordered by the batch's join (a mutex) before the caller returns.
struct HomeClaims {
    n: usize,
    width: usize,
    /// Cursor of home `q` at `[q]`; only the first `width` are used.
    taken: [AtomicUsize; MAX_WORKERS + 1],
}

impl HomeClaims {
    fn new(n: usize, width: usize) -> Self {
        HomeClaims { n, width, taken: std::array::from_fn(|_| AtomicUsize::new(0)) }
    }

    /// Claims the next unclaimed index of home `q`, if any is left. A
    /// participant stops asking a home after its first miss there, so a
    /// cursor counts at most one past its home's last index per
    /// participant.
    fn claim_from(&self, q: usize) -> Option<usize> {
        if q >= self.n {
            return None; // home `q` holds no index
        }
        let i = q + self.taken[q].fetch_add(1, Ordering::Relaxed) * self.width;
        (i < self.n).then_some(i)
    }

    /// Runs `f` on every index `participant` claims: its home indices in
    /// ascending order, then the other homes' leftovers, home by home
    /// (`participant + 1`, `+ 2`, … modulo the width). A participant
    /// numbered `width` or more has no home and starts stealing at home 0.
    fn run(&self, participant: usize, f: &impl Fn(usize)) {
        let first = if participant < self.width { participant } else { 0 };
        for q in (first..self.width).chain(0..first) {
            while let Some(i) = self.claim_from(q) {
                f(i);
            }
        }
    }
}

/// Calls `f(i)` exactly once for every `i in 0..n`, spread across the pool.
///
/// Each participant runs its home indices first, then steals (see the
/// crate's *Scheduling* docs), so which thread runs an index depends on
/// timing. That cannot change a result: `f(i)` is the same call whichever
/// thread makes it, each index runs exactly once, and callers write
/// results into index-addressed slots (as [`par_map`] does), never into
/// state shared by the order in which indices finish. So the output is
/// byte-identical at any width and under any partition.
pub fn par_for_index(n: usize, f: impl Fn(usize) + Sync) {
    let width = current_num_threads();
    if width <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let claims = HomeClaims::new(n, width);
    run_batch(width.min(n) - 1, &|participant| claims.run(participant, &f));
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
    fn every_index_runs_exactly_once_at_every_width_and_count() {
        let _g = width_lock();
        for width in 1..=9 {
            set_num_threads(width);
            for n in 0..=3 * width + 1 {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                par_for_index(n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                let counts: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
                assert!(counts.iter().all(|&c| c == 1), "width {width}, n {n}: {counts:?}");
            }
        }
        set_num_threads(1);
    }

    /// Claiming alone, on one thread: a participant takes its home
    /// indices in ascending order, then the other homes' leftovers, home
    /// by home; a participant without a home steals from home 0 on.
    #[test]
    fn participants_claim_home_indices_first_and_the_homeless_only_steal() {
        let order = |n: usize, width: usize, participant: usize| {
            let claims = HomeClaims::new(n, width);
            let seen = Mutex::new(Vec::new());
            claims.run(participant, &|i| seen.lock().unwrap().push(i));
            seen.into_inner().unwrap()
        };
        assert_eq!(order(10, 3, 0), [0, 3, 6, 9, 1, 4, 7, 2, 5, 8]);
        assert_eq!(order(10, 3, 1), [1, 4, 7, 2, 5, 8, 0, 3, 6, 9]);
        assert_eq!(order(10, 3, 2), [2, 5, 8, 0, 3, 6, 9, 1, 4, 7]);
        assert_eq!(order(10, 3, 7), [0, 3, 6, 9, 1, 4, 7, 2, 5, 8], "homeless: steals only");
        assert_eq!(order(2, 4, 3), [0, 1], "home 3 of 2 indices is empty");
        assert_eq!(order(0, 4, 0), Vec::<usize>::new());
        // Two participants sharing the claims: everything once, and the
        // second's first claim is still its own home's first index.
        let claims = HomeClaims::new(7, 2);
        assert_eq!(claims.claim_from(0), Some(0));
        assert_eq!(claims.claim_from(1), Some(1));
        assert_eq!(claims.claim_from(0), Some(2));
        let rest = Mutex::new(Vec::new());
        claims.run(1, &|i| rest.lock().unwrap().push(i));
        assert_eq!(rest.into_inner().unwrap(), [3, 5, 4, 6]);
    }

    #[test]
    fn nested_calls_and_panics_hold_at_every_width() {
        let _g = width_lock();
        for width in 1..=9 {
            set_num_threads(width);
            let sums = par_map_index(width + 2, |n| par_map_index(n * 3, |x| x).into_iter().sum::<usize>());
            let expect: Vec<usize> = (0..width + 2).map(|n| (n * 3) * (n * 3).saturating_sub(1) / 2).collect();
            assert_eq!(sums, expect, "width {width}");
            let result = catch_unwind(|| {
                par_for_index(3 * width + 1, |i| {
                    par_for_index(4, |j| assert!(i != width || j != 2, "boom at {i}, {j}"));
                });
            });
            assert!(result.is_err(), "width {width}: a nested panic must reach the caller");
        }
        set_num_threads(1);
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
