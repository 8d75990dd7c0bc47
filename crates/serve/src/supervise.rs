//! Panic recovery: bisection quarantine of poisoned batches.
//!
//! Every batch executes under `catch_unwind` in the server's private
//! `attempt_batch`. A worker that catches a panic keeps running: it
//! quarantines the batch inline, then goes back for the next one.
//! Quarantine:
//!
//! 1. **Bisects** the batch: halves re-execute through the same
//!    `attempt_batch` path; a half that panics again is split further,
//!    until the poisoned request(s) stand alone. Innocent batch-mates are
//!    re-served with byte-identical payloads (response bytes are a pure
//!    function of the request, so a re-execution cannot be told from a
//!    first run).
//! 2. **Retries** isolated culprits per [`crate::fault::RetryPolicy`] with
//!    seeded backoff, then terminates them as
//!    [`crate::server::WaitOutcome::Failed`] and records the failure with
//!    the per-key circuit breaker.

use std::any::Any;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::batch::Batch;
use crate::request::job_hash;
use crate::server::{attempt_batch, fail_batch, ServerShared};

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

/// Bisection quarantine of a batch whose execution panicked with
/// `reason`. Multi-member batches split in half and each half
/// re-executes; a singleton retries per the server's
/// [`crate::fault::RetryPolicy`] and finally terminates as `Failed`,
/// recording the failure with the per-key circuit breaker. The panic that
/// isolated a singleton is its first attempt, and all its retries happen
/// inside this call. Runs on the worker that caught the panic; recursion
/// depth is bounded by `log2(batch)`.
pub(crate) fn quarantine(shared: &ServerShared, mut batch: Batch, mut reason: String) {
    if batch.requests.len() > 1 {
        let mid = batch.requests.len() / 2;
        let tail = batch.requests.split_off(mid);
        let tail_batch = Batch { key: batch.key.clone(), requests: tail, flush: batch.flush };
        for half in [batch, tail_batch] {
            if let Err(reason) = attempt_batch(shared, &half) {
                quarantine(shared, half, reason);
            }
        }
        return;
    }
    let Some(req) = batch.requests.first() else { return };
    let hash = job_hash(&req.job);
    for attempt in 1..shared.retry.max_attempts {
        shared.retried.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_nanos(shared.retry.backoff_for(hash, attempt)));
        match attempt_batch(shared, &batch) {
            Ok(()) => return,
            Err(again) => reason = again,
        }
    }
    let now = shared.now_ns();
    shared.breaker.lock().unwrap().record_failure(&batch.key, now);
    fail_batch(shared, &batch, &reason);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_reason_renders_common_payloads() {
        assert_eq!(panic_reason(Box::new("static str")), "static str");
        assert_eq!(panic_reason(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_reason(Box::new(17usize)), "worker panicked with a non-string payload");
    }
}
