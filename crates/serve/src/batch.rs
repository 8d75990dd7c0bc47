//! Request coalescing: a pure, clock-injected batching state machine.
//!
//! The batcher groups admitted requests by [`BatchKey`] and emits a
//! [`Batch`] when a group reaches the size threshold, when its oldest
//! member has lingered past the timeout, or when the server drains on
//! shutdown. All time comes in through method arguments as nanoseconds
//! on the caller's clock, so every flush policy is unit-testable without
//! threads or sleeps.

use std::time::Duration;

use crate::request::{BatchKey, ChunkSpan, Request};

/// Why a batch left the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The group reached `max_batch` members.
    Size,
    /// The group's oldest member waited past the linger timeout.
    Timeout,
    /// The server is shutting down and flushed everything pending.
    Drain,
}

impl FlushReason {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Timeout => "timeout",
            FlushReason::Drain => "drain",
        }
    }
}

/// A coalesced unit of work: same-key requests executed in one invocation.
#[derive(Debug)]
pub struct Batch {
    /// The shared coalescing key.
    pub key: BatchKey,
    /// Members, in admission order within the key.
    pub requests: Vec<Request>,
    /// Why this batch flushed.
    pub flush: FlushReason,
}

struct PendingGroup {
    key: BatchKey,
    // Each member keeps its own arrival time. The linger deadline is
    // always anchored to the *oldest member still present* — never to a
    // group-open timestamp that can outlive (or predate) its members.
    // With a single `opened_at`, removing the oldest member (hedge
    // cancellation) left the deadline anchored to a request no longer in
    // the group, flushing the survivors early; and any scheme that
    // re-anchors on arrival would let a continuous same-key trickle
    // starve the flush forever.
    entries: Vec<(Request, u64)>,
}

impl PendingGroup {
    /// Arrival time of the oldest member still in the group.
    fn oldest(&self) -> u64 {
        self.entries.first().expect("groups are never empty").1
    }

    fn into_batch(self, flush: FlushReason) -> Batch {
        Batch {
            key: self.key,
            requests: self.entries.into_iter().map(|(r, _)| r).collect(),
            flush,
        }
    }
}

/// Batching policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Flush a group as soon as it holds this many requests.
    pub max_batch: usize,
    /// Flush a group once its oldest member has waited this long.
    pub linger: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 8, linger: Duration::from_millis(2) }
    }
}

/// The coalescing state machine. Groups are kept in open order (a `Vec`,
/// not a hash map) so drain output is deterministic.
pub struct Batcher {
    max_batch: usize,
    /// The linger timeout in nanoseconds (saturating).
    linger_ns: u64,
    pending: Vec<PendingGroup>,
}

impl Batcher {
    /// A batcher with the given policy.
    pub fn new(cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let linger_ns = u64::try_from(cfg.linger.as_nanos()).unwrap_or(u64::MAX);
        Batcher { max_batch: cfg.max_batch, linger_ns, pending: Vec::new() }
    }

    /// Admits one request at time `now_ns`; returns a batch if the
    /// request's group just hit the size threshold.
    pub fn offer(&mut self, req: Request, now_ns: u64) -> Option<Batch> {
        let key = req.job.key();
        let group = match self.pending.iter_mut().find(|g| g.key == key) {
            Some(g) => g,
            None => {
                self.pending.push(PendingGroup { key: key.clone(), entries: Vec::new() });
                self.pending.last_mut().expect("just pushed")
            }
        };
        group.entries.push((req, now_ns));
        if group.entries.len() >= self.max_batch {
            return self.take_key(&key, FlushReason::Size);
        }
        None
    }

    /// The time at which the oldest pending group must flush, if any.
    /// Anchored to each group's oldest surviving member, so a trickle of
    /// later same-key arrivals can never push the deadline out.
    pub fn next_deadline(&self) -> Option<u64> {
        self.pending.iter().map(|g| g.oldest().saturating_add(self.linger_ns)).min()
    }

    /// Flushes every group whose oldest member lingered past the timeout
    /// at `now_ns`, oldest first.
    pub fn expire(&mut self, now_ns: u64) -> Vec<Batch> {
        let mut out = Vec::new();
        while let Some(pos) = self
            .pending
            .iter()
            .position(|g| now_ns.saturating_sub(g.oldest()) >= self.linger_ns)
        {
            let g = self.pending.remove(pos);
            out.push(g.into_batch(FlushReason::Timeout));
        }
        out
    }

    /// Flushes everything pending (shutdown), in group-open order.
    pub fn drain(&mut self) -> Vec<Batch> {
        self.pending.drain(..).map(|g| g.into_batch(FlushReason::Drain)).collect()
    }

    /// Whether any request is waiting in the batcher.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Removes (cancels) the pending chunk `(id, chunk)`, if present. A
    /// group emptied by the removal leaves the batcher entirely, so its
    /// linger deadline dies with it; removing the oldest member re-anchors
    /// the group's deadline to the next-oldest survivor. The hedging layer
    /// uses this to pull a losing hedge copy that has not flushed yet.
    pub fn remove(&mut self, id: u64, chunk: ChunkSpan) -> Option<Request> {
        let (gi, ri) = self.pending.iter().enumerate().find_map(|(gi, g)| {
            g.entries
                .iter()
                .position(|(r, _)| r.id == id && r.chunk == chunk)
                .map(|ri| (gi, ri))
        })?;
        let (req, _) = self.pending[gi].entries.remove(ri);
        if self.pending[gi].entries.is_empty() {
            self.pending.remove(gi);
        }
        Some(req)
    }

    fn take_key(&mut self, key: &BatchKey, flush: FlushReason) -> Option<Batch> {
        let pos = self.pending.iter().position(|g| &g.key == key)?;
        let g = self.pending.remove(pos);
        Some(g.into_batch(flush))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RenderJob, RenderPrecision, SceneKind, Workload};

    fn req(id: u64, scene: SceneKind) -> Request {
        Request {
            id,
            priority: crate::sched::Priority::Standard,
            arrival_ns: 0,
            deadline_ns: None,
            chunk: ChunkSpan::WHOLE,
            job: Workload::Render(RenderJob {
                scene,
                precision: RenderPrecision::Fp32,
                width: 8,
                height: 8,
                spp: 4,
                camera_seed: id,
            }),
        }
    }

    #[test]
    fn size_threshold_flushes_exactly_at_max_batch() {
        let t0 = 1_000u64;
        let mut b = Batcher::new(BatcherConfig { max_batch: 3, linger: Duration::from_secs(60) });
        assert!(b.offer(req(0, SceneKind::Mic), t0).is_none());
        assert!(b.offer(req(1, SceneKind::Mic), t0).is_none());
        let batch = b.offer(req(2, SceneKind::Mic), t0).expect("third member flushes");
        assert_eq!(batch.flush, FlushReason::Size);
        assert_eq!(batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(b.is_empty(), "flushed group leaves the batcher");
    }

    #[test]
    fn linger_timeout_flushes_undersized_groups() {
        let t0 = 1_000u64;
        let linger = 5_000_000u64;
        let cfg = BatcherConfig { max_batch: 100, linger: Duration::from_nanos(linger) };
        let mut b = Batcher::new(cfg);
        b.offer(req(0, SceneKind::Mic), t0);
        assert_eq!(b.next_deadline(), Some(t0 + linger));
        assert!(b.expire(t0 + 1_000_000).is_empty(), "not yet");
        let flushed = b.expire(t0 + linger);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].flush, FlushReason::Timeout);
        assert!(b.is_empty());
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let t0 = 1_000u64;
        let mut b = Batcher::new(BatcherConfig { max_batch: 2, linger: Duration::from_secs(1) });
        assert!(b.offer(req(0, SceneKind::Mic), t0).is_none());
        assert!(b.offer(req(1, SceneKind::Lego), t0).is_none(), "different scene, new group");
        let batch = b.offer(req(2, SceneKind::Mic), t0).expect("mic group full");
        assert_eq!(batch.requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2]);
        let rest = b.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].flush, FlushReason::Drain);
        assert_eq!(rest[0].requests[0].id, 1);
    }

    #[test]
    fn remove_cancels_a_pending_member_and_empties_its_group() {
        let t0 = 1_000u64;
        let mut b = Batcher::new(BatcherConfig { max_batch: 10, linger: Duration::from_secs(1) });
        b.offer(req(0, SceneKind::Mic), t0);
        b.offer(req(1, SceneKind::Mic), t0);
        b.offer(req(2, SceneKind::Lego), t0);
        assert_eq!(b.remove(1, ChunkSpan::WHOLE).map(|r| r.id), Some(1));
        assert!(b.remove(1, ChunkSpan::WHOLE).is_none(), "already gone");
        assert_eq!(
            b.remove(2, ChunkSpan::WHOLE).map(|r| r.id),
            Some(2),
            "sole member removes its group"
        );
        let drained = b.drain();
        assert_eq!(drained.len(), 1, "lego group died with its only member");
        assert_eq!(drained[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn continuous_trickle_cannot_starve_the_linger_flush() {
        // A same-key chunk arriving every linger/2 must not push the flush
        // out: the deadline is anchored to the oldest member's arrival, so
        // the group flushes exactly at t0 + linger no matter how many
        // younger members keep trickling in.
        let t0 = 1_000u64;
        let linger = 4_000_000u64;
        let step = 2_000_000u64;
        let cfg = BatcherConfig { max_batch: 100, linger: Duration::from_nanos(linger) };
        let mut b = Batcher::new(cfg);
        let mut flushed = Vec::new();
        for i in 0..6u64 {
            let at = t0 + step * i;
            if at < t0 + linger {
                assert!(b.expire(at).is_empty(), "no flush strictly before t0 + linger");
            } else {
                flushed.extend(b.expire(at));
            }
            assert!(b.offer(req(i, SceneKind::Mic), at).is_none());
            let deadline = b.next_deadline().expect("group pending");
            assert!(
                deadline <= at + linger,
                "trickle member {i} must not push the deadline past its own arrival + linger"
            );
        }
        // Members 0–1 flush at t0 + linger (while 2 arrives), 2–3 at
        // t0 + 2·linger (while 4 arrives): the trickle never starves the
        // timer because the deadline is pinned to the oldest survivor.
        assert_eq!(flushed.len(), 2, "two linger flushes fired mid-trickle");
        assert!(flushed.iter().all(|b| b.flush == FlushReason::Timeout));
        assert_eq!(flushed[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(flushed[1].requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2, 3]);
        let tail = b.expire(t0 + step * 5 + linger);
        assert_eq!(tail.len(), 1, "the tail of the trickle flushes on time too");
        assert_eq!(tail[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn removing_the_oldest_member_reanchors_the_deadline() {
        let t0 = 1_000u64;
        let linger = 10_000_000u64;
        let cfg = BatcherConfig { max_batch: 100, linger: Duration::from_nanos(linger) };
        let mut b = Batcher::new(cfg);
        b.offer(req(0, SceneKind::Mic), t0);
        let t1 = t0 + 6_000_000;
        b.offer(req(1, SceneKind::Mic), t1);
        assert_eq!(b.next_deadline(), Some(t0 + linger), "anchored to the oldest member");
        b.remove(0, ChunkSpan::WHOLE);
        assert_eq!(
            b.next_deadline(),
            Some(t1 + linger),
            "removing the oldest member re-anchors to the survivor"
        );
        assert!(
            b.expire(t0 + linger).is_empty(),
            "the survivor has not lingered yet — no early flush off a departed member's clock"
        );
        let flushed = b.expire(t1 + linger);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn drain_preserves_group_open_order() {
        let t0 = 1_000u64;
        let mut b = Batcher::new(BatcherConfig { max_batch: 10, linger: Duration::from_secs(1) });
        b.offer(req(0, SceneKind::Palace), t0);
        b.offer(req(1, SceneKind::Mic), t0);
        b.offer(req(2, SceneKind::Palace), t0);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].requests.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(drained[1].requests[0].id, 1);
    }
}
