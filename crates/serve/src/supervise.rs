//! Worker supervision: crash reports, bounded respawn, and
//! bisection quarantine of poisoned batches.
//!
//! The worker pool is panic-isolated (each batch executes under
//! `catch_unwind` in [`crate::server::attempt_batch`]), but a panic still
//! retires the worker thread — unwinding through arbitrary render state is
//! not worth trusting twice. The retired worker ships a [`CrashReport`]
//! (the intact batch plus the panic reason) to the supervisor thread,
//! which:
//!
//! 1. **Respawns** a replacement worker while the consecutive-crash streak
//!    stays within [`SuperviseConfig::restart_budget`], after a
//!    deterministic exponential backoff. A successfully served batch
//!    anywhere in the pool resets the streak.
//! 2. **Quarantines** the crashed batch by bisection: halves re-execute
//!    through the same `attempt_batch` path; a half that crashes again is
//!    split further, until the poisoned request(s) stand alone. Innocent
//!    batch-mates are re-served with byte-identical payloads (response
//!    bytes are a pure function of the request, so a re-execution cannot
//!    be told from a first run).
//! 3. **Retries** isolated culprits per [`crate::fault::RetryPolicy`] with
//!    seeded backoff, then terminates them as
//!    [`crate::server::WaitOutcome::Failed`] and records the failure with
//!    the per-key circuit breaker.
//!
//! If the pool goes extinct (budget exhausted with no workers left), the
//! supervisor takes the pipeline's ready batches itself and fails every
//! one — blocking submitters never wedge behind a full ready queue and
//! every admitted request still terminates.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::batch::Batch;
use crate::request::job_hash;
use crate::server::{attempt_batch, fail_batch, next_batch, worker_loop, ServerShared};

/// Worker supervision knobs.
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Maximum *consecutive* crashes (no successfully served batch in
    /// between) the supervisor will respawn after. Once exceeded, crashed
    /// workers stay down; if the whole pool is down, remaining batches
    /// fail fast instead of hanging. Zero never respawns.
    pub restart_budget: u32,
    /// Base respawn backoff; doubles per consecutive crash, capped at
    /// [`MAX_RESPAWN_BACKOFF`]. Deterministic — no jitter — so chaos runs
    /// replay identically.
    pub backoff: Duration,
}

/// Upper bound on the per-respawn backoff regardless of streak length.
pub const MAX_RESPAWN_BACKOFF: Duration = Duration::from_millis(50);

impl Default for SuperviseConfig {
    fn default() -> Self {
        // A budget of 6 tolerates bursts of adjacent poisoned batches
        // (each quarantine round can crash a fresh worker) without letting
        // a systematically crashing pool respawn forever.
        SuperviseConfig { restart_budget: 6, backoff: Duration::from_millis(1) }
    }
}

impl SuperviseConfig {
    /// The deterministic backoff before respawn number `streak` (1-based).
    pub fn respawn_backoff(&self, streak: u32) -> Duration {
        let doubled = self.backoff.saturating_mul(1u32 << streak.saturating_sub(1).min(16));
        doubled.min(MAX_RESPAWN_BACKOFF)
    }
}

/// What a retiring worker ships to the supervisor: the batch it was
/// executing (intact — nothing was posted) and the panic reason.
pub(crate) struct CrashReport {
    /// The batch whose execution panicked.
    pub(crate) batch: Batch,
    /// Human-readable panic payload.
    pub(crate) reason: String,
}

/// Renders a `catch_unwind` payload as a string.
pub(crate) fn panic_reason(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The supervisor role: parks on the crash channel, respawning workers
/// and quarantining crashed batches until shutdown. Holds a template
/// sender so the channel can never disconnect under it; exit is by the
/// shutdown flag once the pipeline threads are joined and its respawns
/// have finished.
pub(crate) fn supervisor_loop(
    shared: &Arc<ServerShared>,
    crash_rx: Receiver<CrashReport>,
    crash_tx: Sender<CrashReport>,
) {
    let mut respawned: Vec<JoinHandle<()>> = Vec::new();
    let mut workers_alive = shared.workers;
    let mut streak: u32 = 0;
    let mut last_served = shared.served_batches.load(Ordering::Relaxed);
    // Per-chunk attempt counts for quarantined culprits, keyed
    // `(request id, chunk index)` — each chunk of a poisoned request
    // retries and fails independently.
    let mut attempts: HashMap<(u64, u32), u32> = HashMap::new();
    loop {
        match crash_rx.recv_timeout(Duration::from_millis(2)) {
            Ok(report) => {
                workers_alive -= 1;
                let served = shared.served_batches.load(Ordering::Relaxed);
                if served != last_served {
                    last_served = served;
                    streak = 0;
                }
                streak += 1;
                quarantine(shared, report.batch, report.reason, &mut attempts);
                if streak <= shared.supervise.restart_budget {
                    std::thread::sleep(shared.supervise.respawn_backoff(streak));
                    shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    let sh = Arc::clone(shared);
                    let tx = crash_tx.clone();
                    respawned.push(std::thread::spawn(move || worker_loop(&sh, tx)));
                    workers_alive += 1;
                } else if workers_alive == 0 {
                    // Pool extinction: take the ready batches ourselves so
                    // the pipeline cannot wedge behind a full ready queue,
                    // failing everything fast. Ends once the drained
                    // pipeline is empty.
                    while let Some(batch) = next_batch(shared) {
                        fail_batch(
                            shared,
                            &batch,
                            "worker pool exhausted its restart budget",
                        );
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire)
                    && respawned.iter().all(|h| h.is_finished())
                {
                    break;
                }
            }
            // Unreachable while we hold `crash_tx`, but harmless.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for h in respawned {
        h.join().expect("respawned worker panicked outside catch_unwind");
    }
}

/// Bisection quarantine of a crashed batch. Multi-member batches split in
/// half and each half re-executes; singletons retry per the server's
/// [`crate::fault::RetryPolicy`] and finally terminate as `Failed`,
/// recording the failure with the per-key circuit breaker. Runs on the
/// supervisor thread; recursion depth is bounded by `log2(batch) +
/// max_attempts`.
pub(crate) fn quarantine(
    shared: &ServerShared,
    mut batch: Batch,
    reason: String,
    attempts: &mut HashMap<(u64, u32), u32>,
) {
    if batch.requests.len() <= 1 {
        let Some(req) = batch.requests.first() else { return };
        let key = (req.id, req.chunk.index);
        let hash = job_hash(&req.job);
        let attempt = {
            let n = attempts.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        if attempt < shared.retry.max_attempts {
            shared.retried.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_nanos(shared.retry.backoff_for(hash, attempt)));
            if let Err(crash) = attempt_batch(shared, batch) {
                quarantine(shared, crash.batch, crash.reason, attempts);
            }
        } else {
            let now = shared.now_ns();
            shared.breaker.lock().unwrap().record_failure(&batch.key, now);
            fail_batch(shared, &batch, &reason);
        }
        return;
    }
    let mid = batch.requests.len() / 2;
    let tail = batch.requests.split_off(mid);
    let tail_batch = Batch { key: batch.key.clone(), requests: tail, flush: batch.flush };
    for half in [batch, tail_batch] {
        if let Err(crash) = attempt_batch(shared, half) {
            quarantine(shared, crash.batch, crash.reason, attempts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respawn_backoff_is_exponential_and_capped() {
        let cfg = SuperviseConfig { restart_budget: 6, backoff: Duration::from_millis(1) };
        assert_eq!(cfg.respawn_backoff(1), Duration::from_millis(1));
        assert_eq!(cfg.respawn_backoff(2), Duration::from_millis(2));
        assert_eq!(cfg.respawn_backoff(3), Duration::from_millis(4));
        assert_eq!(cfg.respawn_backoff(7), MAX_RESPAWN_BACKOFF);
        assert_eq!(cfg.respawn_backoff(60), MAX_RESPAWN_BACKOFF, "huge streaks stay capped");
    }

    #[test]
    fn panic_reason_renders_common_payloads() {
        assert_eq!(panic_reason(Box::new("static str")), "static str");
        assert_eq!(panic_reason(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_reason(Box::new(17usize)), "worker panicked with a non-string payload");
    }
}
