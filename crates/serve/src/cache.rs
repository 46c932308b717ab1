//! The keyed session cache: `content_hash → Arc<Session>`, LRU-evicted
//! under a `resident_bytes` budget.
//!
//! A `Session` already memoizes every artifact at most once and prices
//! itself via [`pba_driver::SessionStats::resident_bytes`]; the cache
//! adds the cross-request layer: requests for the same binary — from any
//! connection, in any order — share one live session, so the second
//! `struct` query recomputes *nothing*. Sessions are keyed by the image's
//! cached FNV-1a content hash, so the same binary arriving inline or by
//! path hits the same entry.
//!
//! Eviction is least-recently-used by total resident bytes: after each
//! analysis request (when artifact memoization may have grown a
//! session) the server calls [`SessionCache::enforce_cap`], which drops
//! coldest-first until the summed `resident_bytes` fits the cap. The
//! most-recently-used session is never evicted — a single binary larger
//! than the whole cap must still be servable — and in-flight requests
//! hold their own `Arc`, so eviction frees the *cache's* reference, not
//! the session under a live request.

use pba_concurrent::Counter;
use pba_driver::{Error, Session, SessionConfig};
use pba_elf::ImageBytes;
use std::sync::{Arc, Mutex};

/// A cache lookup result: the key, the session, and whether it was
/// already resident.
pub struct Cached {
    /// The image's content hash (the cache key).
    pub hash: u64,
    /// The live session (shared with the cache and other requests).
    pub session: Arc<Session>,
    /// True when the session was already resident.
    pub hit: bool,
}

/// Keyed map of live sessions behind an LRU bounded by resident bytes.
pub struct SessionCache {
    /// Budget for the summed `resident_bytes` of all cached sessions.
    cap_bytes: usize,
    /// Config every served session is opened with (one knob surface —
    /// responses are reproducible in-process with the same config).
    config: SessionConfig,
    /// LRU order: coldest first, most recently used last.
    lru: Mutex<Vec<(u64, Arc<Session>)>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl SessionCache {
    /// An empty cache with the given byte budget and session config.
    pub fn new(cap_bytes: usize, config: SessionConfig) -> SessionCache {
        SessionCache {
            cap_bytes,
            config,
            lru: Mutex::new(Vec::new()),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// The session config served sessions are opened with.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The resident-bytes budget.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Look up (or open) the session for an image. A hit moves the
    /// entry to the MRU position. Opening is cheap — a `Session` parses
    /// nothing until an artifact is requested — so it happens under the
    /// lock, which also makes racing requests for the same new binary
    /// agree on one session.
    pub fn get_or_open(&self, image: ImageBytes) -> Cached {
        let hash = image.content_hash();
        let mut lru = self.lru.lock().unwrap();
        if let Some(pos) = lru.iter().position(|(h, _)| *h == hash) {
            let entry = lru.remove(pos);
            let session = Arc::clone(&entry.1);
            lru.push(entry);
            self.hits.inc();
            return Cached { hash, session, hit: true };
        }
        let session = Arc::new(Session::open(image, self.config.clone()));
        lru.push((hash, Arc::clone(&session)));
        self.misses.inc();
        Cached { hash, session, hit: false }
    }

    /// [`SessionCache::get_or_open`] for a server-local path: the file
    /// is memory-mapped (so a resident session pins page cache, not
    /// heap) and then keyed by content, not by name — two paths to the
    /// same bytes share one session.
    pub fn open_path(&self, path: &str) -> Result<Cached, Error> {
        let image = ImageBytes::from_path(path)
            .map_err(|e| Error::Io { path: path.into(), message: e.to_string() })?;
        Ok(self.get_or_open(image))
    }

    /// Drop coldest sessions until the summed `resident_bytes` fits the
    /// cap (the MRU entry always stays). Returns how many were evicted.
    pub fn enforce_cap(&self) -> usize {
        self.enforce_cap_with(0)
    }

    /// [`enforce_cap`](Self::enforce_cap) with `reserved` bytes already
    /// spoken for — the daemon passes its corpus index footprint here,
    /// so sessions and index share one budget and a growing index
    /// squeezes the session LRU rather than blowing past the cap.
    pub fn enforce_cap_with(&self, reserved: usize) -> usize {
        let budget = self.cap_bytes.saturating_sub(reserved);
        let mut lru = self.lru.lock().unwrap();
        let mut sizes: Vec<usize> =
            lru.iter().map(|(_, s)| s.stats().resident_bytes as usize).collect();
        let mut total: usize = sizes.iter().sum();
        let mut evicted = 0;
        while total > budget && lru.len() > 1 {
            lru.remove(0);
            total -= sizes.remove(0);
            evicted += 1;
        }
        self.evictions.add(evicted as u64);
        evicted
    }

    /// Evict one session by content hash (or every session when `None`).
    /// Returns how many were dropped.
    pub fn evict(&self, hash: Option<u64>) -> usize {
        let mut lru = self.lru.lock().unwrap();
        let evicted = match hash {
            Some(h) => {
                let before = lru.len();
                lru.retain(|(k, _)| *k != h);
                before - lru.len()
            }
            None => std::mem::take(&mut *lru).len(),
        };
        self.evictions.add(evicted as u64);
        evicted
    }

    /// Resident sessions as `(hash, session)` pairs, coldest first.
    pub fn sessions(&self) -> Vec<(u64, Arc<Session>)> {
        self.lru.lock().unwrap().iter().map(|(h, s)| (*h, Arc::clone(s))).collect()
    }

    /// `(hits, misses, evictions, resident sessions, resident bytes)`.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        let (resident, bytes) = {
            let lru = self.lru.lock().unwrap();
            (lru.len() as u64, lru.iter().map(|(_, s)| s.stats().resident_bytes).sum())
        };
        (self.hits.get(), self.misses.get(), self.evictions.get(), resident, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_gen::{generate, GenConfig};

    fn image(seed: u64) -> ImageBytes {
        ImageBytes::from(
            generate(&GenConfig { num_funcs: 6, seed, debug_info: false, ..Default::default() })
                .elf,
        )
    }

    fn cache(cap: usize) -> SessionCache {
        SessionCache::new(cap, SessionConfig::default().with_threads(1))
    }

    #[test]
    fn hit_shares_the_live_session() {
        let c = cache(usize::MAX);
        let a = c.get_or_open(image(1));
        assert!(!a.hit);
        a.session.cfg().unwrap();
        let b = c.get_or_open(image(1));
        assert!(b.hit);
        assert!(Arc::ptr_eq(&a.session, &b.session), "one session per content hash");
        assert_eq!(b.session.stats().cfg_parses, 1, "no recomputation on the shared handle");
        let (hits, misses, ..) = c.counters();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn eviction_is_lru_ordered_and_cap_bounded() {
        let c = cache(usize::MAX);
        let a = c.get_or_open(image(1));
        let b = c.get_or_open(image(2));
        let d = c.get_or_open(image(3));
        for s in [&a, &b, &d] {
            s.session.cfg().unwrap(); // give each session a nonzero footprint
        }
        // Touch the oldest so the middle one becomes coldest.
        assert!(c.get_or_open(image(1)).hit);
        let one = a.session.stats().resident_bytes as usize;
        assert!(one > 0);
        // Cap fits roughly two sessions: the coldest (seed 2) must go.
        let c2 = SessionCache::new(one * 2 + one / 2, SessionConfig::default().with_threads(1));
        for s in [&a, &b, &d] {
            c2.get_or_open(s.session.input().clone()).session.cfg().unwrap();
        }
        assert!(c2.get_or_open(a.session.input().clone()).hit); // touch A: order is B, D, A
        let evicted = c2.enforce_cap();
        assert!(evicted >= 1, "cap must force eviction");
        let left: Vec<u64> = c2.sessions().iter().map(|(h, _)| *h).collect();
        assert!(left.contains(&a.session.content_hash()), "MRU survives");
        assert!(!left.contains(&b.session.content_hash()), "coldest (B) evicted first: {left:?}");
        let (.., resident, bytes) = c2.counters();
        assert!(resident >= 1);
        assert!(bytes as usize <= c2.cap_bytes() || resident == 1, "bound honored");
    }

    #[test]
    fn mru_survives_even_when_over_cap_alone() {
        let c = cache(1); // absurdly small: everything but the MRU goes
        c.get_or_open(image(1)).session.cfg().unwrap();
        c.get_or_open(image(2)).session.cfg().unwrap();
        c.enforce_cap();
        let left = c.sessions();
        assert_eq!(left.len(), 1, "a lone over-cap session is kept, not thrashed");
    }

    #[test]
    fn reserved_bytes_squeeze_the_session_budget() {
        let probe = cache(usize::MAX);
        let a = probe.get_or_open(image(1));
        a.session.cfg().unwrap();
        let one = a.session.stats().resident_bytes as usize;
        assert!(one > 0);
        let c = SessionCache::new(one * 4, SessionConfig::default().with_threads(1));
        for seed in 1..=3 {
            c.get_or_open(image(seed)).session.cfg().unwrap();
        }
        assert_eq!(c.enforce_cap(), 0, "three sessions fit the bare cap");
        assert!(c.enforce_cap_with(one * 3) >= 1, "reserved bytes must force eviction");
        assert!(!c.sessions().is_empty(), "MRU still survives");
    }

    #[test]
    fn explicit_evict_by_hash_and_all() {
        let c = cache(usize::MAX);
        let a = c.get_or_open(image(1));
        c.get_or_open(image(2));
        assert_eq!(c.evict(Some(a.hash)), 1);
        assert_eq!(c.evict(Some(a.hash)), 0, "already gone");
        assert_eq!(c.evict(None), 1);
        assert!(c.sessions().is_empty());
    }

    #[test]
    fn path_and_inline_share_a_key() {
        let g =
            generate(&GenConfig { num_funcs: 6, seed: 9, debug_info: false, ..Default::default() });
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pba-serve-cache-{}", std::process::id()));
        std::fs::write(&path, &g.elf).unwrap();
        let c = cache(usize::MAX);
        let by_path = c.open_path(path.to_str().unwrap()).unwrap();
        let inline = c.get_or_open(ImageBytes::from(g.elf));
        assert!(inline.hit, "same content, same session, regardless of transport");
        assert_eq!(by_path.hash, inline.hash);
        assert!(c.open_path("/nonexistent/definitely-not-here").is_err());
        std::fs::remove_file(&path).ok();
    }
}
