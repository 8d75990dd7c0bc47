//! The serving runtime: multi-lane admission → scheduler → batcher →
//! worker pool → completion board, with panic quarantine and metrics.
//!
//! Serving concurrency (client / worker threads) is decoupled
//! from data-parallel width: the roles run on dedicated `std::thread`s,
//! while the *work* inside a batch (pixel rows, batch views) fans out over
//! `fnr_par`'s pool and therefore honours `FNR_THREADS`. Response bytes
//! are a pure function of each request, so the response set is
//! byte-identical at any width, worker count, or batching outcome —
//! timing only moves metrics. With deadlines disabled (the default)
//! scheduling can only *reorder* requests, never drop them, so any lane
//! policy — including the degenerate single-lane config — reproduces the
//! FIFO server's response-set digest exactly.
//!
//! Scheduling is the same clock-free core the virtual harness drives
//! ([`Pipeline`]: per-class bounded lanes → [`crate::LaneScheduler`] →
//! brownout → [`crate::Batcher`] → a `2 × workers` ready queue), held in
//! one `Mutex`; there is no scheduler thread. A client pumps the core
//! inline after each admit, and every worker pumps it on each take; an
//! idle worker sleeps on the `work` condvar until the batcher's next
//! linger deadline, so lingering groups flush on time. Every pump expires
//! lingers before it steps the scheduler, so batch composition matches a
//! dedicated timer thread. Blocking submitters park on the `space`
//! condvar while their lane is full and wake when a pump frees a slot
//! (served or shed) or the server drains.
//!
//! The core also holds the server's one ledger: workers land served
//! batches and failed chunks in it on its clock (nanoseconds since the
//! server epoch), exactly as virtual mode does, and it folds each outcome
//! into the report as it lands; [`Server::drain`] adds only the
//! recovery/breaker counters it keeps outside. No
//! role takes a lock while it holds another: sheds are posted to waiters,
//! and reassembly slots opened, with the core lock released.
//!
//! # Fault tolerance
//!
//! A panicking batch does not take the run down. Workers execute every
//! batch under `catch_unwind`; the worker that catches a panic
//! **bisects** the batch itself to isolate the poisoned request(s), then
//! goes back to the pipeline for more work. Innocents are re-served with
//! byte-identical payloads, the culprits retry per [`RetryPolicy`] and
//! finally complete as [`WaitOutcome::Failed`] — every admitted request
//! terminates, so waiters never hang. A per-key
//! [`CircuitBreaker`] can fast-fail keys with persistent failure streaks,
//! and under queue-depth overload the [`Brownout`] controller downgrades
//! Standard/Batch renders one precision step instead of shedding them.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fnr_nerf::hashgrid::HashGridConfig;
use fnr_nerf::render::{render_reference_rows, BatchView, NgpModel, PreparedQuantized};
use fnr_tensor::Precision;

use crate::batch::Batch;
use crate::fault::{BrownoutConfig, CircuitBreaker, FaultInjector, InjectedFault, RetryPolicy};
use crate::metrics::ServeMetrics;
use crate::pipeline::Pipeline;
use crate::request::{
    chunk_image_bytes, clock_ns, effective_chunks, response_set_digest, row_band, BatchKey, ChunkOutcome,
    ChunkResponse, ChunkSpan, RenderPrecision, Request, Response, Workload,
};
use crate::sched::{Priority, SchedConfig};
use crate::supervise::{panic_reason, quarantine};

/// A named table generator the server can execute: `name → payload bytes`.
pub type TableFn = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// Registry of table generators servable through [`Workload::Table`].
#[derive(Default, Clone)]
pub struct TableRegistry {
    entries: Vec<(String, TableFn)>,
}

impl TableRegistry {
    /// An empty registry (render-only server).
    pub fn new() -> Self {
        TableRegistry::default()
    }

    /// Registers `name`; later registrations shadow earlier ones.
    pub fn register(&mut self, name: impl Into<String>, f: TableFn) {
        self.entries.insert(0, (name.into(), f));
    }

    /// Looks a generator up by name.
    pub fn resolve(&self, name: &str) -> Option<&TableFn> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    /// Registered names, most recently registered first.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// Serving-runtime knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Default per-lane admission capacity (lanes may override via
    /// [`SchedConfig`]). **Zero rejects every request** whose lane does
    /// not override it (the hard-overload posture); blocking submits
    /// otherwise park on a full lane (backpressure).
    pub queue_capacity: usize,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Flush a batch at this many members.
    pub max_batch: usize,
    /// Flush an undersized batch once its oldest member waited this long.
    pub linger: Duration,
    /// Row-band chunks a render request splits into at admission (clamped
    /// to the frame height per request; tables never split). Chunks flow
    /// through the lanes/scheduler/batcher independently and stream back
    /// in row order through a per-request reassembly slot; `1` (the
    /// default) reproduces the unchunked server byte-for-byte.
    pub chunks: usize,
    /// The scheduling policy: lanes, weights, class mapping.
    pub sched: SchedConfig,
    /// Table generators servable through [`Workload::Table`].
    pub tables: TableRegistry,
    /// Per-request retry policy for quarantined (panicking) requests.
    pub retry: RetryPolicy,
    /// Per-(scene, precision) circuit breaker (threshold 0 disables).
    pub breaker: crate::fault::BreakerConfig,
    /// Precision brownout under queue-depth overload (off by default).
    pub brownout: BrownoutConfig,
    /// Seeded chaos injection (None in production postures).
    pub injector: Option<FaultInjector>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            workers: 2,
            max_batch: 8,
            linger: Duration::from_millis(2),
            chunks: 1,
            sched: SchedConfig::priority_lanes(),
            tables: TableRegistry::new(),
            retry: RetryPolicy::default(),
            breaker: crate::fault::BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
            injector: None,
        }
    }
}

/// Why a submit was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The lane is at capacity (non-blocking submit) or has capacity zero.
    Rejected,
    /// The server is draining and no longer admits requests.
    Closed,
}

/// How a request left the server, as seen by its submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The request was rendered; here is the payload.
    Answered(Response),
    /// The request's deadline passed while it queued: the scheduler shed
    /// it without rendering.
    Shed,
    /// The request kept panicking (or its key's breaker was open): its
    /// worker quarantined it and exhausted its retry budget. The
    /// string is the final failure reason.
    Failed(String),
    /// The server shut down before answering.
    Closed,
}

/// Per-request reassembly slot: one cell per chunk (`None` while
/// pending), opened at admission. Chunks land in any order; the request
/// resolves once every cell is terminal. The cells are the only copy of
/// the request's payload: the whole-request outcome is derived from them
/// on every read, and they stay readable until [`Server::drain`] so
/// streaming clients can still collect chunks they have not consumed yet.
struct StreamSlot {
    cells: Vec<Option<ChunkOutcome>>,
    pending: usize,
}

impl StreamSlot {
    /// The whole-request outcome of request `id`, once every cell is
    /// terminal (`None` while any is pending): the first failed cell in
    /// row order fails the request, else any shed cell sheds it, else the
    /// payload is the row-order concatenation of the cells — byte-identical
    /// to the unchunked render.
    fn outcome(&self, id: u64) -> Option<WaitOutcome> {
        if self.pending > 0 {
            return None;
        }
        let mut shed = false;
        let mut len = 0usize;
        for c in &self.cells {
            match c {
                Some(ChunkOutcome::Failed(reason)) => return Some(WaitOutcome::Failed(reason.clone())),
                Some(ChunkOutcome::Shed) => shed = true,
                Some(ChunkOutcome::Served(b)) => len += b.len(),
                Some(ChunkOutcome::Closed) | None => unreachable!("every cell landed terminal"),
            }
        }
        if shed {
            return Some(WaitOutcome::Shed);
        }
        let mut bytes = Vec::with_capacity(len);
        for c in &self.cells {
            if let Some(ChunkOutcome::Served(b)) = c {
                bytes.extend_from_slice(b);
            }
        }
        Some(WaitOutcome::Answered(Response { id, bytes }))
    }
}

/// Completion board: one reassembly slot per admitted request, parked
/// until its submitter collects it. Workers post individual chunks into
/// the slot's cells; a whole-request wait derives its [`WaitOutcome`]
/// from the cells once the last one lands, so each served payload is held
/// once.
pub(crate) struct Board {
    state: Mutex<BoardState>,
    ready: Condvar,
}

struct BoardState {
    streams: HashMap<u64, StreamSlot>,
    closed: bool,
}

impl Board {
    fn new() -> Self {
        Board {
            state: Mutex::new(BoardState { streams: HashMap::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Opens the reassembly slot for request `id` with `of` chunk cells.
    /// Must happen before the first chunk is enqueued, so no completion
    /// can race the slot's existence.
    fn open(&self, id: u64, of: u32) {
        let mut st = self.state.lock().unwrap();
        st.streams.insert(id, StreamSlot { cells: vec![None; of as usize], pending: of as usize });
    }

    /// Discards a slot opened by [`Board::open`] when admission of the
    /// first chunk failed — the request was never in the server.
    fn abandon(&self, id: u64) {
        self.state.lock().unwrap().streams.remove(&id);
    }

    /// Posts a batch of served chunks (one board lock for the whole batch).
    pub(crate) fn post_served(&self, responses: Vec<ChunkResponse>) {
        let mut st = self.state.lock().unwrap();
        for r in responses {
            st.land(r.id, r.chunk.index, ChunkOutcome::Served(r.bytes));
        }
        drop(st);
        self.ready.notify_all();
    }

    /// Posts `outcome` (shed or failed) for each of `reqs`, under one
    /// board lock.
    fn post_outcome(&self, reqs: &[Request], outcome: &ChunkOutcome) {
        let mut st = self.state.lock().unwrap();
        for r in reqs {
            st.land(r.id, r.chunk.index, outcome.clone());
        }
        drop(st);
        self.ready.notify_all();
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    fn wait(&self, id: u64) -> WaitOutcome {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(outcome) = st.streams.get(&id).and_then(|slot| slot.outcome(id)) {
                return outcome;
            }
            if st.closed {
                return WaitOutcome::Closed;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Parks until chunk `index` of request `id` is terminal — the
    /// streaming read: chunk 0 typically resolves well before the full
    /// render, and chunks can be consumed in row order as they land.
    fn wait_chunk(&self, id: u64, index: u32) -> ChunkOutcome {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(slot) = st.streams.get(&id) {
                match slot.cells.get(index as usize) {
                    Some(Some(outcome)) => return outcome.clone(),
                    Some(None) => {}
                    None => return ChunkOutcome::Closed, // index out of range
                }
            }
            if st.closed {
                return ChunkOutcome::Closed;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Empties the board, returning the answered requests sorted by id.
    /// Each slot leaves the map as its response is assembled, so at most
    /// one payload is held twice at any moment.
    fn drain_sorted(&self) -> Vec<Response> {
        let mut st = self.state.lock().unwrap();
        let mut out: Vec<Response> = st
            .streams
            .drain()
            .filter_map(|(id, slot)| match slot.outcome(id) {
                Some(WaitOutcome::Answered(r)) => Some(r),
                _ => None,
            })
            .collect();
        out.sort_unstable_by_key(|r| r.id);
        out
    }
}

impl BoardState {
    /// Lands one terminal chunk cell and counts the slot down; the first
    /// outcome of a cell wins (a teardown race may post twice).
    fn land(&mut self, id: u64, index: u32, cell: ChunkOutcome) {
        let Some(slot) = self.streams.get_mut(&id) else { return };
        let Some(target) = slot.cells.get_mut(index as usize) else { return };
        if target.is_none() {
            *target = Some(cell);
            slot.pending -= 1;
        }
    }
}

/// The live server's scheduling state, behind [`ServerShared::core`]: the
/// shared [`Pipeline`] plus the sheds its pumps recorded but nobody has
/// posted yet and the counts of threads parked on each condvar (so a pump
/// only signals when someone is waiting).
pub(crate) struct LiveCore {
    pipe: Pipeline,
    /// Recorded sheds awaiting [`unlock_and_post`].
    shed: Vec<Request>,
    /// Blocking submitters parked on [`ServerShared::space`].
    parked: usize,
    /// Workers parked on [`ServerShared::work`].
    idle: usize,
}

impl LiveCore {
    /// Expires lingers, then pumps the pipeline at `now_ns` and records
    /// its sheds, keeping them for [`unlock_and_post`]. Returns whether any
    /// lane slot was freed.
    fn pump(&mut self, now_ns: u64) -> bool {
        self.pipe.expire(now_ns);
        let posted = self.shed.len();
        let stepped = self.pipe.pump(now_ns, &mut self.shed);
        for req in &self.shed[posted..] {
            self.pipe.record_shed(req, now_ns);
        }
        stepped > 0
    }
}

/// Releases the core lock, then posts the sheds it held to their waiters.
fn unlock_and_post(sh: &ServerShared, mut core: MutexGuard<'_, LiveCore>) {
    let shed = std::mem::take(&mut core.shed);
    drop(core);
    if !shed.is_empty() {
        sh.board.post_outcome(&shed, &ChunkOutcome::Shed);
    }
}

/// Everything the serving roles share: the scheduling core (and its
/// ledger), board, resilience policies and robustness counters. One `Arc`
/// of this is held by the [`Server`], every [`Client`], and every role
/// thread.
pub(crate) struct ServerShared {
    /// Zero of the server's clock.
    pub(crate) epoch: Instant,
    pub(crate) tables: TableRegistry,
    pub(crate) core: Mutex<LiveCore>,
    /// Signalled when a pump frees lane slots, and on drain.
    pub(crate) space: Condvar,
    /// Signalled when a batch is ready or the linger deadline moves, and
    /// on drain.
    pub(crate) work: Condvar,
    pub(crate) board: Board,
    pub(crate) next_id: AtomicU64,
    /// Batch panics a worker caught and quarantined.
    pub(crate) worker_restarts: AtomicUsize,
    pub(crate) retried: AtomicUsize,
    pub(crate) breaker: Mutex<CircuitBreaker>,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) retry: RetryPolicy,
    pub(crate) workers: usize,
    /// Configured row-band chunk count (see [`ServerConfig::chunks`]).
    pub(crate) chunks: usize,
}

impl ServerShared {
    /// Nanoseconds since the server epoch (the clock of the scheduling
    /// core, its ledger and the breaker).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Parks until the pipeline hands out a batch; `None` once it is closed
/// and empty. Pumps before every take (expiring lingers first) and again
/// after it (the freed ready slot admits a stalled flush), wakes parked
/// submitters when lane slots were freed, and hands the linger timer and
/// any further ready batch to an idle peer. Idle callers sleep until the
/// next linger deadline.
fn next_batch(shared: &ServerShared) -> Option<Batch> {
    let mut core = shared.core.lock().unwrap();
    loop {
        let now = shared.now_ns();
        let mut freed = core.pump(now);
        let batch = core.pipe.take();
        if batch.is_some() {
            freed |= core.pump(now);
        }
        if freed && core.parked > 0 {
            shared.space.notify_all();
        }
        let closed = core.pipe.is_closed();
        if batch.is_some() || (closed && core.pipe.is_empty()) {
            if core.idle > 0 {
                if closed {
                    // Draining: every idle peer re-checks, and exits once
                    // nothing is left.
                    shared.work.notify_all();
                } else if core.pipe.has_ready() || core.pipe.next_deadline().is_some() {
                    shared.work.notify_one();
                }
            }
            unlock_and_post(shared, core);
            return batch;
        }
        if !core.shed.is_empty() {
            // Post before sleeping, then look again: the world may have
            // moved while the lock was released.
            unlock_and_post(shared, core);
            core = shared.core.lock().unwrap();
            continue;
        }
        core.idle += 1;
        core = match core.pipe.next_deadline() {
            Some(d) => {
                let wait = Duration::from_nanos(d.saturating_sub(now));
                shared.work.wait_timeout(core, wait).unwrap().0
            }
            None => shared.work.wait(core).unwrap(),
        };
        core.idle -= 1;
    }
}

/// The submission handle handed out by [`Server::client`] (and to the
/// drive closure of [`run`]). `Sync`, so closed-loop drivers can share it
/// across client threads; cheap to clone.
#[derive(Clone)]
pub struct Client {
    shared: Arc<ServerShared>,
}

impl Client {
    fn admit(
        &self,
        job: Workload,
        priority: Priority,
        deadline: Option<Duration>,
        blocking: bool,
    ) -> Result<u64, SubmitError> {
        let sh = &*self.shared;
        let k = effective_chunks(sh.chunks, &job);
        let (id, lane) = {
            let mut core = sh.core.lock().unwrap();
            let lane = core.pipe.lane_of(priority);
            if core.pipe.capacity(lane) == 0 {
                core.pipe.reject(lane, k as usize);
                return Err(SubmitError::Rejected);
            }
            (sh.next_id.fetch_add(1, Ordering::Relaxed), lane)
        };
        // The reassembly slot must exist before the first chunk can reach
        // a worker, or a fast completion would have nowhere to land.
        sh.board.open(id, k);
        let mut core = sh.core.lock().unwrap();
        let arrival_ns = sh.now_ns();
        let deadline_ns = deadline.map(|d| arrival_ns.saturating_add(clock_ns(d)));
        let deadline_before = core.pipe.next_deadline();
        for index in 0..k {
            // Admission is atomic per request: only the first chunk can be
            // rejected for a full lane (non-blocking submits); once it is
            // in, the rest park on the lane until a pump frees a slot.
            let refused = loop {
                if core.pipe.is_closed() {
                    break Some(SubmitError::Closed);
                }
                if core.pipe.has_room(lane) {
                    break None;
                }
                if !blocking && index == 0 {
                    break Some(SubmitError::Rejected);
                }
                if !core.shed.is_empty() {
                    // Post this submitter's sheds before it parks, then
                    // look again.
                    unlock_and_post(sh, core);
                    core = sh.core.lock().unwrap();
                    continue;
                }
                // Only a take frees this lane, so idle workers must see
                // the chunks flushed so far before this submitter parks.
                if core.idle > 0 && (core.pipe.has_ready() || core.pipe.next_deadline().is_some()) {
                    sh.work.notify_all();
                }
                core.parked += 1;
                core = sh.space.wait(core).unwrap();
                core.parked -= 1;
            };
            if let Some(e) = refused {
                // Admission closed mid-request (drain race): the admitted
                // chunks terminate through the pipeline; the remainder
                // count as rejected and the waiter observes Closed.
                core.pipe.reject(lane, (k - index) as usize);
                unlock_and_post(sh, core);
                if index == 0 {
                    sh.board.abandon(id);
                }
                return Err(e);
            }
            core.pipe.admit(Request {
                id,
                priority,
                arrival_ns,
                deadline_ns,
                chunk: ChunkSpan { index, of: k },
                job: job.clone(),
            });
            if core.pump(sh.now_ns()) && core.parked > 0 {
                sh.space.notify_all();
            }
        }
        if core.idle > 0 && (core.pipe.has_ready() || core.pipe.next_deadline() != deadline_before) {
            sh.work.notify_one();
        }
        unlock_and_post(sh, core);
        Ok(id)
    }

    /// Admits `job` at [`Priority::Standard`] with no deadline, parking
    /// while its lane is full (backpressure). Returns the monotone
    /// request id.
    pub fn submit(&self, job: Workload) -> Result<u64, SubmitError> {
        self.admit(job, Priority::Standard, None, true)
    }

    /// Admits `job` with an explicit traffic class and optional relative
    /// deadline (measured from admission; service must *start* before it
    /// or the scheduler sheds the request). Parks while the class's lane
    /// is full.
    pub fn submit_with(
        &self,
        job: Workload,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<u64, SubmitError> {
        self.admit(job, priority, deadline, true)
    }

    /// Admits `job` at [`Priority::Standard`] without parking; a full
    /// lane rejects.
    pub fn try_submit(&self, job: Workload) -> Result<u64, SubmitError> {
        self.admit(job, Priority::Standard, None, false)
    }

    /// Non-parking [`Client::submit_with`].
    pub fn try_submit_with(
        &self,
        job: Workload,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<u64, SubmitError> {
        self.admit(job, priority, deadline, false)
    }

    /// Parks until request `id` completes (closed-loop clients). `None`
    /// if it was shed, failed, or the server shut down without answering —
    /// use [`Client::wait_outcome`] to tell the cases apart.
    pub fn wait(&self, id: u64) -> Option<Response> {
        match self.shared.board.wait(id) {
            WaitOutcome::Answered(r) => Some(r),
            WaitOutcome::Shed | WaitOutcome::Failed(_) | WaitOutcome::Closed => None,
        }
    }

    /// Parks until request `id` completes and reports how it left the
    /// server: answered, shed by the deadline policy, failed under
    /// quarantine, or lost to shutdown.
    pub fn wait_outcome(&self, id: u64) -> WaitOutcome {
        self.shared.board.wait(id)
    }

    /// Parks until chunk `index` of request `id` is terminal — the
    /// streaming consumption path. Chunks resolve independently, so chunk
    /// 0 (which carries the payload header) is typically available long
    /// before the full render; consuming chunks `0..of` in order yields
    /// exactly the bytes [`Client::wait`] would return, incrementally. An
    /// out-of-range index resolves as [`ChunkOutcome::Closed`].
    pub fn wait_chunk(&self, id: u64, index: u32) -> ChunkOutcome {
        self.shared.board.wait_chunk(id, index)
    }
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// All responses, sorted by request id.
    pub responses: Vec<Response>,
    /// Aggregate metrics (including the response-set digest and per-lane
    /// served/shed/expired/failed counters).
    pub metrics: ServeMetrics,
}

/// A live serving pipeline: scheduling core, panic-isolated worker pool, and
/// completion board. Create with [`Server::start`], submit through
/// [`Server::client`] handles, and finish with [`Server::drain`] —
/// admission closes, in-flight work completes, and the final metrics
/// come back. Dropping an undrained server shuts it down and discards
/// the metrics.
pub struct Server {
    shared: Arc<ServerShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns the `workers` worker threads and returns the running server.
    ///
    /// # Panics
    ///
    /// Panics on a malformed [`SchedConfig`].
    pub fn start(cfg: &ServerConfig) -> Server {
        cfg.sched.validate();
        let workers = cfg.workers.max(1);
        let shared = Arc::new(ServerShared {
            epoch: Instant::now(),
            tables: cfg.tables.clone(),
            core: Mutex::new(LiveCore {
                pipe: Pipeline::new(cfg),
                shed: Vec::new(),
                parked: 0,
                idle: 0,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            board: Board::new(),
            next_id: AtomicU64::new(0),
            worker_restarts: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            injector: cfg.injector,
            retry: cfg.retry,
            workers,
            chunks: cfg.chunks,
        });

        let workers = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Server { shared, workers }
    }

    /// A new submission handle. Handles share the server's id space and
    /// stay valid (returning [`SubmitError::Closed`] /
    /// [`WaitOutcome::Closed`]) after [`Server::drain`].
    pub fn client(&self) -> Client {
        Client { shared: Arc::clone(&self.shared) }
    }

    /// Graceful drain: closes admission, lets the pipeline flush what is
    /// queued (serving the unexpired, shedding the expired), waits for
    /// every in-flight batch — including quarantine re-executions — to
    /// terminate, and returns the final report. The report takes every
    /// reassembly slot off the board: late submits on surviving
    /// [`Client`] handles fail with [`SubmitError::Closed`], late waits
    /// observe [`WaitOutcome::Closed`], and late [`Client::wait_chunk`]
    /// reads resolve [`ChunkOutcome::Closed`] even for chunks that were
    /// served.
    pub fn drain(mut self) -> ServeReport {
        self.shutdown();
        let sh = &self.shared;
        let responses = sh.board.drain_sorted();
        let wall_ns = sh.now_ns();
        let digest = response_set_digest(&responses);
        let mut metrics = sh.core.lock().unwrap().pipe.ledger.report(digest, wall_ns, sh.workers);
        // The recovery/breaker counters live outside the core's ledger.
        metrics.worker_restarts = sh.worker_restarts.load(Ordering::Relaxed);
        metrics.retried = sh.retried.load(Ordering::Relaxed);
        let breaker = sh.breaker.lock().unwrap();
        metrics.breaker_opened = breaker.opened();
        metrics.breaker_half_open_probes = breaker.half_open_probes();
        ServeReport { responses, metrics }
    }

    /// Closes the pipeline and joins the workers (they exit once the
    /// drained pipeline is empty). Idempotent.
    fn shutdown(&mut self) {
        // Later pumps drain the lanes and flush the batcher, parked
        // submitters return `Closed`, and workers exit once it is empty.
        self.shared.core.lock().unwrap().pipe.close();
        self.shared.space.notify_all();
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            h.join().expect("worker thread panicked outside catch_unwind");
        }
        self.shared.board.close();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (undrained) server must not leak parked threads.
        self.shutdown();
    }
}

/// Runs a server for the lifetime of `drive`: starts the pipeline, hands
/// `drive` a [`Client`], and [`Server::drain`]s when it returns (pending
/// unexpired requests are served; pending expired requests are shed).
///
/// # Panics
///
/// Re-raises a panic from the drive closure (after draining the server so
/// nothing leaks). Worker panics do **not** propagate: they resolve the
/// affected requests as [`WaitOutcome::Failed`] under quarantine. Panics
/// on a malformed [`SchedConfig`].
pub fn run<R: Send>(cfg: &ServerConfig, drive: impl FnOnce(&Client) -> R + Send) -> (R, ServeReport) {
    let server = Server::start(cfg);
    let client = server.client();
    // A panicking drive closure must still drain the pipeline, or its
    // threads would leak parked; catch, drain, rethrow.
    let result = catch_unwind(AssertUnwindSafe(|| drive(&client)));
    let report = server.drain();
    match result {
        Ok(r) => (r, report),
        Err(payload) => resume_unwind(payload),
    }
}

/// The worker role: executes batches until the drained pipeline is empty.
/// A batch that panics is counted and quarantined by this worker, which
/// then carries on.
fn worker_loop(shared: &ServerShared) {
    while let Some(batch) = next_batch(shared) {
        if let Err(reason) = attempt_batch(shared, &batch) {
            shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
            quarantine(shared, batch, reason);
        }
    }
}

/// Executes one batch end-to-end: breaker gate, injected chaos, the real
/// work under `catch_unwind`, then ledger record + completion posting. `Ok`
/// means every member terminated (answered or fast-failed); `Err` carries
/// the panic reason, and nothing was posted, so the batch can be
/// quarantined. Shared by first runs and quarantine re-executions so both
/// paths stay identical.
pub(crate) fn attempt_batch(shared: &ServerShared, batch: &Batch) -> Result<(), String> {
    // Circuit-breaker gate: an open key fast-fails the whole batch
    // without executing (or crashing) anything.
    let allowed = {
        let mut breaker = shared.breaker.lock().unwrap();
        !breaker.enabled() || breaker.allow(&batch.key, shared.now_ns())
    };
    if !allowed {
        fail_batch(shared, batch, &format!("circuit open for key {}", batch.key));
        return Ok(());
    }
    // Injected delay: slow the batch down by the largest member delay.
    // Timing-only — payload bytes cannot move.
    if let Some(inj) = &shared.injector {
        let delay = batch
            .requests
            .iter()
            .filter_map(|r| match inj.decide(&r.job) {
                Some(InjectedFault::Delay(d)) => Some(d),
                _ => None,
            })
            .max();
        if let Some(d) = delay {
            std::thread::sleep(Duration::from_nanos(d));
        }
    }
    let start_ns = shared.now_ns();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(inj) = &shared.injector {
            if let Some(bad) = batch.requests.iter().find(|r| inj.poisons(&r.job)) {
                panic!("injected fault: request {} is poisoned", bad.id);
            }
        }
        execute_batch(batch, &shared.tables)
    }));
    match result {
        Ok(responses) => {
            let service_ns = shared.now_ns().saturating_sub(start_ns);
            let size = batch.requests.len();
            shared.core.lock().unwrap().pipe.record_served(batch, size, start_ns, service_ns);
            shared.breaker.lock().unwrap().record_success(&batch.key);
            shared.board.post_served(responses);
            Ok(())
        }
        Err(payload) => Err(panic_reason(payload)),
    }
}

/// Terminates every member of `batch` as [`WaitOutcome::Failed`] with
/// `reason`, recording each failure on the core's ledger. Waiters unblock
/// immediately.
pub(crate) fn fail_batch(shared: &ServerShared, batch: &Batch, reason: &str) {
    let now_ns = shared.now_ns();
    {
        let mut core = shared.core.lock().unwrap();
        for req in &batch.requests {
            core.pipe.record_failed(req, now_ns);
        }
    }
    shared.board.post_outcome(&batch.requests, &ChunkOutcome::Failed(reason.to_string()));
}

/// The per-scene NGP model, built once per process: it is a pure function
/// of the scene's fixed seed, so caching it cannot move response bytes —
/// it only takes hash-grid + MLP construction off the per-batch hot path.
fn scene_model(scene: crate::request::SceneKind) -> &'static NgpModel {
    use crate::request::SceneKind;
    static MODELS: OnceLock<[NgpModel; 3]> = OnceLock::new();
    let models = MODELS.get_or_init(|| {
        [SceneKind::Mic, SceneKind::Lego, SceneKind::Palace]
            .map(|s| NgpModel::new(HashGridConfig::small(), 16, s.model_seed()))
    });
    &models[scene as usize]
}

/// The process-wide memoized [`PreparedQuantized`] for `(scene,
/// precision)`: quantize+calibrate runs exactly once per key, even when
/// its first batches race (the first batch pays it; every later batch is
/// pure rendering). The prepared model is a deterministic function of the
/// scene's fixed-seed [`NgpModel`] and the precision, so caching cannot
/// move response bytes.
fn prepared_quantized(
    scene: crate::request::SceneKind,
    precision: Precision,
) -> &'static PreparedQuantized {
    static PREPARED: [[OnceLock<PreparedQuantized>; 4]; 3] =
        [const { [const { OnceLock::new() }; 4] }; 3];
    PREPARED[scene as usize][precision as usize]
        .get_or_init(|| scene_model(scene).prepare_quantized(precision))
}

/// Executes one coalesced batch. Render batches share one model (and for
/// quantized precisions, one quantization + calibration); table batches
/// run the generator once and share the bytes. Each render member renders
/// only its own row band — chunked members of different requests coalesce
/// under the same key, and every band is a bitwise slice of the member's
/// full frame, so reassembled payloads are byte-identical to unchunked
/// renders.
pub(crate) fn execute_batch(batch: &Batch, tables: &TableRegistry) -> Vec<ChunkResponse> {
    match &batch.key {
        BatchKey::Render(scene, precision) => {
            // (view, row0, rows) per member: the band is a pure function
            // of the job geometry and the member's chunk span.
            let members: Vec<(BatchView, usize, usize)> = batch
                .requests
                .iter()
                .map(|r| match &r.job {
                    Workload::Render(j) => {
                        let (row0, rows) = row_band(j.height, r.chunk.index, r.chunk.of);
                        let view = BatchView {
                            camera: j.camera(),
                            width: j.width,
                            height: j.height,
                            spp: j.spp,
                        };
                        (view, row0, rows)
                    }
                    Workload::Table(_) => unreachable!("table job under a render key"),
                })
                .collect();
            let images = match precision {
                RenderPrecision::Fp32 => fnr_par::par_map(&members, |(v, row0, rows)| {
                    render_reference_rows(scene.scene(), &v.camera, v.width, v.height, v.spp, *row0, *rows)
                }),
                RenderPrecision::Quantized(p) => {
                    let prepared = prepared_quantized(*scene, *p);
                    fnr_par::par_map(&members, |(v, row0, rows)| prepared.render_rows(v, *row0, *rows))
                }
            };
            batch
                .requests
                .iter()
                .zip(&images)
                .map(|(r, img)| {
                    let full_h = match &r.job {
                        Workload::Render(j) => j.height,
                        Workload::Table(_) => unreachable!("table job under a render key"),
                    };
                    ChunkResponse { id: r.id, chunk: r.chunk, bytes: chunk_image_bytes(img, full_h, r.chunk) }
                })
                .collect()
        }
        BatchKey::Table(name) => {
            let generator = tables
                .resolve(name)
                .unwrap_or_else(|| panic!("unknown table generator `{name}`"));
            let bytes = generator();
            batch
                .requests
                .iter()
                .map(|r| ChunkResponse { id: r.id, chunk: r.chunk, bytes: bytes.clone() })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RenderJob, SceneKind};

    fn tiny_render(seed: u64) -> Workload {
        Workload::Render(RenderJob {
            scene: SceneKind::Mic,
            precision: RenderPrecision::Fp32,
            width: 4,
            height: 4,
            spp: 2,
            camera_seed: seed,
        })
    }

    #[test]
    fn serves_render_and_table_requests() {
        let mut cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
        cfg.tables.register("hello", Arc::new(|| b"hello table".to_vec()));
        let (ids, report) = run(&cfg, |client| {
            let a = client.submit(tiny_render(1)).unwrap();
            let b = client.submit_with(tiny_render(2), Priority::Interactive, None).unwrap();
            let t = client.submit_with(Workload::Table("hello".into()), Priority::Batch, None).unwrap();
            let resp = client.wait(t).expect("table answered");
            assert_eq!(resp.bytes, b"hello table");
            (a, b, t)
        });
        assert_eq!(ids, (0, 1, 2), "ids are monotone from zero");
        assert_eq!(report.responses.len(), 3);
        assert_eq!(report.metrics.requests, 3);
        assert!(report.metrics.batches >= 1 && report.metrics.batches <= 3);
        // Per-lane accounting: one request per class, none shed.
        let served: Vec<usize> = report.metrics.lanes.iter().map(|l| l.served).collect();
        assert_eq!(served, vec![1, 1, 1]);
        assert_eq!(report.metrics.shed, 0);
        // Render payload header: 4×4.
        assert_eq!(&report.responses[0].bytes[0..4], &4u32.to_le_bytes());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let cfg = ServerConfig { queue_capacity: 0, ..ServerConfig::default() };
        let (result, report) = run(&cfg, |client| {
            let r = client.submit(tiny_render(0));
            let t = client.try_submit(tiny_render(1));
            (r, t)
        });
        assert_eq!(result, (Err(SubmitError::Rejected), Err(SubmitError::Rejected)));
        assert!(report.responses.is_empty());
        assert_eq!(report.metrics.rejected, 2);
        assert_eq!(report.metrics.requests, 0);
    }

    #[test]
    fn zero_capacity_lane_rejects_only_its_class() {
        // An explicit capacity-0 batch lane sheds that class at admission
        // while the other lanes keep serving.
        let mut sched = SchedConfig::priority_lanes();
        sched.lanes[2].capacity = Some(0);
        let cfg = ServerConfig { sched, ..ServerConfig::default() };
        let (results, report) = run(&cfg, |client| {
            let ok = client.submit_with(tiny_render(0), Priority::Interactive, None);
            let no = client.submit_with(tiny_render(1), Priority::Batch, None);
            (ok, no)
        });
        assert!(results.0.is_ok());
        assert_eq!(results.1, Err(SubmitError::Rejected));
        assert_eq!(report.responses.len(), 1);
        assert_eq!(report.metrics.lanes[2].rejected, 1);
        assert_eq!(report.metrics.lanes[0].rejected, 0);
    }

    #[test]
    fn worker_panic_is_quarantined_not_fatal() {
        // The recovery contract: an organically panicking request (an
        // unknown table generator) resolves as Failed with the panic
        // message, the worker that caught it quarantines the batch and
        // carries on, and the server keeps serving.
        let cfg = ServerConfig::default(); // empty registry: unknown table panics
        let (outcomes, report) = run(&cfg, |client| {
            let bad = client.submit(Workload::Table("no-such-generator".into())).unwrap();
            let bad_outcome = client.wait_outcome(bad);
            // The pool survived the crash: later requests still serve.
            let good = client.submit(tiny_render(1)).unwrap();
            let good_outcome = client.wait_outcome(good);
            (bad_outcome, good_outcome)
        });
        match &outcomes.0 {
            WaitOutcome::Failed(reason) => {
                assert!(reason.contains("no-such-generator"), "panic message surfaced: {reason}")
            }
            other => panic!("poisoned request must fail, got {other:?}"),
        }
        assert!(matches!(outcomes.1, WaitOutcome::Answered(_)), "server survived the panic");
        assert_eq!(report.metrics.failed, 1);
        assert_eq!(report.metrics.requests, 1);
        assert_eq!(report.metrics.worker_restarts, 1, "one batch panicked and was recovered from");
    }

    #[test]
    fn quantize_and_calibrate_run_once_per_scene_precision() {
        // The prepared model is a per-key process-wide cell: whichever test
        // (or concurrent batch) touches the key first builds it, and every
        // later batch renders through that same model.
        let key_scene = SceneKind::Palace;
        let key_precision = Precision::Int16;
        let job = |seed| {
            Workload::Render(RenderJob {
                scene: key_scene,
                precision: RenderPrecision::Quantized(key_precision),
                width: 4,
                height: 4,
                spp: 2,
                camera_seed: seed,
            })
        };
        let cfg = ServerConfig::default();
        let (bytes, _report) = run(&cfg, |client| {
            // Sequential submit+wait pairs force two separate batches.
            let a = client.submit(job(9)).unwrap();
            let first = client.wait(a).expect("answered").bytes;
            let b = client.submit(job(9)).unwrap();
            let second = client.wait(b).expect("answered").bytes;
            (first, second)
        });
        assert_eq!(bytes.0, bytes.1, "cached prepared model must not move response bytes");
        assert!(
            std::ptr::eq(
                prepared_quantized(key_scene, key_precision),
                prepared_quantized(key_scene, key_precision)
            ),
            "every lookup of the key returns the one prepared model"
        );
    }

    #[test]
    fn responses_survive_shutdown_drain() {
        // Submit with a huge linger and no waiting: shutdown must flush the
        // batcher (Drain) and still answer everything.
        let cfg = ServerConfig {
            linger: Duration::from_secs(60),
            max_batch: 1000,
            ..ServerConfig::default()
        };
        let (n, report) = run(&cfg, |client| {
            for i in 0..10 {
                client.submit(tiny_render(i)).unwrap();
            }
            10
        });
        assert_eq!(n, 10);
        assert_eq!(report.responses.len(), 10);
        assert!(report.metrics.flushed_drain >= 1, "drain flush recorded");
        let ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>(), "sorted by id");
    }

    #[test]
    fn deadline_zero_sheds_instead_of_rendering() {
        // A zero deadline is expired the instant it can be dequeued: the
        // scheduler must shed it (WaitOutcome::Shed), never render it.
        let cfg = ServerConfig::default();
        let (outcomes, report) = run(&cfg, |client| {
            (0..4)
                .map(|i| {
                    let id = client
                        .submit_with(tiny_render(i), Priority::Interactive, Some(Duration::ZERO))
                        .unwrap();
                    client.wait_outcome(id)
                })
                .collect::<Vec<_>>()
        });
        assert!(outcomes.iter().all(|o| *o == WaitOutcome::Shed), "all shed: {outcomes:?}");
        assert!(report.responses.is_empty(), "a shed request is never rendered");
        assert_eq!(report.metrics.shed, 4);
        assert_eq!(report.metrics.lanes[0].shed, 4);
        assert_eq!(report.metrics.requests, 0);
    }

    #[test]
    fn chunked_live_renders_reassemble_byte_identically() {
        let taller = |seed| {
            Workload::Render(RenderJob {
                scene: SceneKind::Lego,
                precision: RenderPrecision::Fp32,
                width: 4,
                height: 5,
                spp: 2,
                camera_seed: seed,
            })
        };
        let serve = |chunks: usize| {
            let mut cfg = ServerConfig { chunks, ..ServerConfig::default() };
            cfg.tables.register("t", Arc::new(|| b"table bytes".to_vec()));
            run(&cfg, |client| {
                for i in 0..4 {
                    client.submit(taller(i)).unwrap();
                }
                client.submit(Workload::Table("t".into())).unwrap();
            })
            .1
        };
        let whole = serve(1);
        let chunked = serve(3);
        assert_eq!(whole.responses.len(), 5);
        assert_eq!(
            whole.responses, chunked.responses,
            "reassembled chunked payloads must be byte-identical to unchunked renders"
        );
        assert_eq!(whole.metrics.digest, chunked.metrics.digest);
        assert_eq!(chunked.metrics.requests, 5);
        // 4 renders × 3 chunks + 1 table × 1 chunk.
        assert_eq!(chunked.metrics.chunks_served, 13);
        assert_eq!(whole.metrics.chunks_served, 5);
    }

    #[test]
    fn wait_chunk_streams_row_bands_in_order() {
        let cfg = ServerConfig { chunks: 2, ..ServerConfig::default() };
        let ((id, outcome), _report) = run(&cfg, |client| {
            let id = client.submit(tiny_render(5)).unwrap();
            let outcome = client.wait_outcome(id);
            (id, outcome)
        });
        let WaitOutcome::Answered(resp) = outcome else {
            panic!("chunked render must answer");
        };
        // Re-run to read the chunks while the server is live.
        let (chunks, _report) = run(&cfg, |client| {
            let id2 = client.submit(tiny_render(5)).unwrap();
            let c0 = client.wait_chunk(id2, 0);
            let c1 = client.wait_chunk(id2, 1);
            (c0, c1)
        });
        let (ChunkOutcome::Served(c0), ChunkOutcome::Served(c1)) = (&chunks.0, &chunks.1) else {
            panic!("both chunks must serve: {chunks:?}");
        };
        let mut concat = c0.clone();
        concat.extend_from_slice(c1);
        assert_eq!(concat, resp.bytes, "streamed chunks concatenate to the whole payload");
        assert_eq!(&c0[0..4], &4u32.to_le_bytes(), "chunk 0 carries the width header");
        assert_eq!(id, 0);
    }

    #[test]
    fn board_resolves_each_request_from_its_cells_alone() {
        const ORDERS: [[u32; 3]; 6] = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let board = Board::new();
        let land = |id: u64, index: u32, cell: &ChunkOutcome| {
            let chunk = ChunkSpan { index, of: 3 };
            match cell {
                ChunkOutcome::Served(bytes) => {
                    board.post_served(vec![ChunkResponse { id, chunk, bytes: bytes.clone() }])
                }
                other => {
                    let req = Request {
                        id,
                        priority: Priority::Standard,
                        arrival_ns: 0,
                        deadline_ns: None,
                        chunk,
                        job: tiny_render(id),
                    };
                    board.post_outcome(&[req], other);
                }
            }
        };
        let served = |b: &[u8]| ChunkOutcome::Served(b.to_vec());
        let failed = |why: &str| ChunkOutcome::Failed(why.to_string());
        // Row-order cells and the verdict they resolve to whatever order
        // they land in (`None`: answered with the row-order bytes).
        let mixes = [
            ([served(b"ab"), served(b"c"), served(b"def")], None),
            ([served(b"ab"), ChunkOutcome::Shed, served(b"def")], Some(WaitOutcome::Shed)),
            ([served(b"ab"), ChunkOutcome::Shed, failed("late")], Some(WaitOutcome::Failed("late".into()))),
            ([failed("first"), ChunkOutcome::Shed, failed("second")], Some(WaitOutcome::Failed("first".into()))),
        ];
        let mut answered = Vec::new();
        for (m, (cells, verdict)) in mixes.iter().enumerate() {
            for (o, order) in ORDERS.iter().enumerate() {
                let id = (m * 10 + o) as u64;
                board.open(id, 3);
                for &index in order {
                    land(id, index, &cells[index as usize]);
                }
                let want = verdict.clone().unwrap_or_else(|| {
                    answered.push(id);
                    WaitOutcome::Answered(Response { id, bytes: b"abcdef".to_vec() })
                });
                assert_eq!(board.wait(id), want, "mix {m} landed in order {order:?}");
                assert_eq!(board.wait(id), want, "a repeated wait returns identical bytes");
                for (index, cell) in cells.iter().enumerate() {
                    assert_eq!(board.wait_chunk(id, index as u32), *cell, "cells stay readable");
                }
            }
        }
        // A slot still pending at drain is not an answer.
        board.open(99, 2);
        land(99, 0, &served(b"half"));

        board.close();
        let drained = board.drain_sorted();
        assert_eq!(drained.iter().map(|r| r.id).collect::<Vec<_>>(), answered, "answered, by id");
        assert!(drained.iter().all(|r| r.bytes == b"abcdef"));
        for id in [0, 35, 99] {
            assert_eq!(board.wait(id), WaitOutcome::Closed, "late wait on {id}");
            assert_eq!(board.wait_chunk(id, 0), ChunkOutcome::Closed, "late wait_chunk on {id}");
        }
    }

    #[test]
    fn generous_deadline_serves_normally() {
        let cfg = ServerConfig::default();
        let (outcome, report) = run(&cfg, |client| {
            let id = client
                .submit_with(tiny_render(3), Priority::Interactive, Some(Duration::from_secs(300)))
                .unwrap();
            client.wait_outcome(id)
        });
        assert!(matches!(outcome, WaitOutcome::Answered(_)), "unexpired request served");
        assert_eq!(report.metrics.shed, 0);
        assert_eq!(report.metrics.lanes[0].served, 1);
    }
}
