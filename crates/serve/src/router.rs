//! Seeded consistent-hash routing for the cluster simulator: a vnode ring
//! mapping coalescing keys ([`BatchKey`]) to replicas.
//!
//! Routing by batch key gives the cluster *scene affinity*: every request
//! for the same `(scene, precision)` — or the same table — lands on the
//! same replica, so that replica's batcher coalesces them and its model
//! cache stays warm. Each replica owns `vnodes` points whose positions
//! are a pure function of `(seed, replica, vnode)` — independent of how
//! many replicas exist — so adding or removing a replica only moves the
//! keys that replica owned (the classic minimal-remap property, pinned by
//! `tests/cluster_properties.rs`).

use crate::fault::mix;
use crate::request::{fnv1a, BatchKey};

/// Ring shape knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Virtual nodes per replica: more vnodes, better key balance (at
    /// linear ring-size cost).
    pub vnodes: usize,
    /// Seed mixed into every vnode position; changing it reshuffles the
    /// whole key → replica assignment deterministically.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { vnodes: 64, seed: 0 }
    }
}

/// The consistent-hash ring: sorted vnode positions, each owned by a
/// replica. Supports at most [`MAX_REPLICAS`] replicas (the route walk
/// tracks visited replicas in a `u128` mask). Membership is dynamic:
/// [`HashRing::join`] and [`HashRing::leave`] add and remove a replica's
/// vnodes after construction — because every vnode position is a pure
/// function of `(seed, replica, vnode)`, a post-construction join is
/// byte-identical to having built the ring with that replica from the
/// start, which is what keeps remap minimal.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, replica)` sorted by position.
    points: Vec<(u64, u32)>,
    /// Ring shape, kept so joins can mint the newcomer's vnode positions.
    cfg: RouterConfig,
    /// Bitmask of member replica indices (one bit per replica).
    members: u128,
}

/// The most replicas a ring supports: the route walk tracks visited
/// replicas in a `u128` mask, one bit per replica.
pub const MAX_REPLICAS: usize = 128;

impl HashRing {
    /// A ring over `replicas` replicas with the given shape.
    ///
    /// # Panics
    ///
    /// Panics on a replica count [`HashRing::try_new`] would reject —
    /// infallible construction for callers that already validated.
    pub fn new(replicas: usize, cfg: &RouterConfig) -> Self {
        match Self::try_new(replicas, cfg) {
            Ok(ring) => ring,
            Err(e) => panic!("{e}"),
        }
    }

    /// A ring over `replicas` replicas with the given shape, validating
    /// the count: zero replicas cannot route, and more than
    /// [`MAX_REPLICAS`] overflows the route walk's visited mask. The
    /// error is a human-readable message for CLI surfaces.
    pub fn try_new(replicas: usize, cfg: &RouterConfig) -> Result<Self, String> {
        if replicas < 1 {
            return Err("a ring needs at least one replica".to_string());
        }
        if replicas > MAX_REPLICAS {
            return Err(format!(
                "{replicas} replicas exceed the supported maximum of {MAX_REPLICAS} \
                 (the route walk's visited mask holds {MAX_REPLICAS} replicas)"
            ));
        }
        let mut points = Vec::with_capacity(replicas * cfg.vnodes.max(1));
        for r in 0..replicas as u64 {
            points.extend(Self::points_of(r as usize, cfg));
        }
        points.sort_unstable();
        let members = if replicas == MAX_REPLICAS { u128::MAX } else { (1u128 << replicas) - 1 };
        Ok(HashRing { points, cfg: *cfg, members })
    }

    /// The vnode positions replica `r` owns — a pure function of
    /// `(seed, r, vnode)`, never of the member set.
    fn points_of(r: usize, cfg: &RouterConfig) -> impl Iterator<Item = (u64, u32)> + '_ {
        let r = r as u64;
        (0..cfg.vnodes.max(1) as u64).map(move |v| {
            // Position depends only on (seed, replica, vnode) — never
            // on the member set — which is what makes remap minimal when
            // the replica set changes.
            (mix(cfg.seed ^ mix(r << 32 | v)), r as u32)
        })
    }

    /// Number of member replicas currently on the ring.
    pub fn replicas(&self) -> usize {
        self.members.count_ones() as usize
    }

    /// Whether replica `r` is currently a ring member.
    pub fn is_member(&self, r: usize) -> bool {
        r < MAX_REPLICAS && self.members & (1u128 << r) != 0
    }

    /// Adds replica `r` to the ring (scale-out): its vnodes take exactly
    /// the key ranges they would own in a freshly built ring — no key
    /// moves between pre-existing members (pinned by
    /// `tests/cluster_properties.rs`). Errors if `r` is out of range or
    /// already a member.
    pub fn join(&mut self, r: usize) -> Result<(), String> {
        if r >= MAX_REPLICAS {
            return Err(format!(
                "replica {r} is out of range (the ring supports indices 0..{MAX_REPLICAS})"
            ));
        }
        if self.is_member(r) {
            return Err(format!("replica {r} is already a ring member"));
        }
        self.members |= 1u128 << r;
        self.points.extend(Self::points_of(r, &self.cfg));
        self.points.sort_unstable();
        Ok(())
    }

    /// Removes replica `r` from the ring (graceful leave): only the keys
    /// `r` owned remap, each to the member that owned it before `r`
    /// existed. Errors if `r` is not a member. Leaving the last member is
    /// allowed — an empty ring routes nothing.
    pub fn leave(&mut self, r: usize) -> Result<(), String> {
        if !self.is_member(r) {
            return Err(format!("replica {r} is not a ring member"));
        }
        self.members &= !(1u128 << r);
        self.points.retain(|&(_, p)| p as usize != r);
        Ok(())
    }

    /// The ring position of a coalescing key.
    pub fn key_hash(key: &BatchKey) -> u64 {
        mix(fnv1a(key.to_string().as_bytes()))
    }

    /// The replica owning `key_hash` ignoring liveness/capacity — the
    /// pure ownership map the balance and remap properties quantify.
    pub fn owner(&self, key_hash: u64) -> usize {
        self.route(key_hash, |_| true).expect("accept-all routing always lands")
    }

    /// Routes `key_hash` clockwise: the first replica at or after the hash
    /// that `accept`s (alive, inflight below bound, …). Each distinct
    /// replica is consulted at most once; `None` means no replica in the
    /// whole ring accepted.
    pub fn route(&self, key_hash: u64, accept: impl Fn(usize) -> bool) -> Option<usize> {
        let start = self.points.partition_point(|&(pos, _)| pos < key_hash);
        let mut tried: u128 = 0;
        for i in 0..self.points.len() {
            let (_, r) = self.points[(start + i) % self.points.len()];
            let bit = 1u128 << r;
            if tried & bit != 0 {
                continue;
            }
            tried |= bit;
            if accept(r as usize) {
                return Some(r as usize);
            }
            if tried.count_ones() == self.members.count_ones() {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RenderPrecision, SceneKind};

    #[test]
    fn ring_is_seed_deterministic() {
        let a = HashRing::new(5, &RouterConfig { vnodes: 32, seed: 9 });
        let b = HashRing::new(5, &RouterConfig { vnodes: 32, seed: 9 });
        let c = HashRing::new(5, &RouterConfig { vnodes: 32, seed: 10 });
        let keys: Vec<u64> = (0..200).map(|i| HashRing::key_hash(&BatchKey::Table(format!("t{i}")))).collect();
        assert!(keys.iter().all(|&k| a.owner(k) == b.owner(k)));
        assert!(keys.iter().any(|&k| a.owner(k) != c.owner(k)), "seed must move the map");
    }

    #[test]
    fn scene_affinity_same_key_same_owner() {
        let ring = HashRing::new(8, &RouterConfig::default());
        let k1 = HashRing::key_hash(&BatchKey::Render(SceneKind::Mic, RenderPrecision::Fp32));
        let k2 = HashRing::key_hash(&BatchKey::Render(SceneKind::Mic, RenderPrecision::Fp32));
        assert_eq!(ring.owner(k1), ring.owner(k2));
    }

    #[test]
    fn replica_count_is_validated_gracefully() {
        assert!(HashRing::try_new(1, &RouterConfig::default()).is_ok());
        assert!(HashRing::try_new(MAX_REPLICAS, &RouterConfig::default()).is_ok());
        let e = HashRing::try_new(0, &RouterConfig::default()).unwrap_err();
        assert!(e.contains("at least one replica"), "{e}");
        let e = HashRing::try_new(MAX_REPLICAS + 1, &RouterConfig::default()).unwrap_err();
        assert!(
            e.contains("129 replicas") && e.contains("maximum of 128"),
            "the error must name both the offending and the supported count: {e}"
        );
    }

    #[test]
    fn join_equals_construction_and_leave_inverts_it() {
        let cfg = RouterConfig { vnodes: 32, seed: 5 };
        let built = HashRing::new(5, &cfg);
        let mut grown = HashRing::new(4, &cfg);
        grown.join(4).expect("new index joins");
        assert_eq!(grown.replicas(), 5);
        let keys: Vec<u64> =
            (0..500).map(|i| HashRing::key_hash(&BatchKey::Table(format!("t{i}")))).collect();
        assert!(
            keys.iter().all(|&k| grown.owner(k) == built.owner(k)),
            "a post-construction join must be byte-identical to building with the replica"
        );
        grown.leave(4).expect("member leaves");
        let small = HashRing::new(4, &cfg);
        assert!(keys.iter().all(|&k| grown.owner(k) == small.owner(k)));
        assert!(!grown.is_member(4) && grown.is_member(3));
    }

    #[test]
    fn join_and_leave_validate_membership() {
        let mut ring = HashRing::new(2, &RouterConfig::default());
        let e = ring.join(1).unwrap_err();
        assert!(e.contains("already a ring member"), "{e}");
        let e = ring.join(MAX_REPLICAS).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = ring.leave(7).unwrap_err();
        assert!(e.contains("not a ring member"), "{e}");
        ring.leave(0).expect("member leaves");
        ring.leave(1).expect("last member may leave");
        assert_eq!(ring.replicas(), 0);
        let k = HashRing::key_hash(&BatchKey::Table("t".into()));
        assert_eq!(ring.route(k, |_| true), None, "an empty ring routes nothing");
        ring.join(1).expect("rejoin");
        assert_eq!(ring.route(k, |_| true), Some(1));
    }

    #[test]
    fn route_skips_rejecting_replicas_and_gives_up_cleanly() {
        let ring = HashRing::new(4, &RouterConfig::default());
        let k = HashRing::key_hash(&BatchKey::Table("t".into()));
        let home = ring.owner(k);
        let alt = ring.route(k, |r| r != home).expect("three other replicas");
        assert_ne!(alt, home);
        assert_eq!(ring.route(k, |_| false), None, "nobody accepts, nobody routes");
        assert_eq!(ring.route(k, |r| r == 2), Some(2), "a single acceptor is always found");
    }
}
