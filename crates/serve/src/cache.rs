//! The content-addressed session cache: live `Arc<Session>`s found by
//! their input bytes, LRU-evicted under a `resident_bytes` budget.
//!
//! A `Session` already memoizes every artifact at most once and prices
//! itself via [`pba_driver::SessionStats::resident_bytes`]; the cache
//! adds the cross-request layer: requests for the same binary — from any
//! connection, in any order — share one live session, so the second
//! `struct` query recomputes *nothing*. A request finds its session by
//! content: each entry stores an [`fx_hash_bytes`] fingerprint of its
//! input, and a lookup takes the entry whose fingerprint matches and
//! whose bytes compare equal. So the same binary arriving inline or by
//! path hits the same entry, and two binaries never share a session,
//! whatever their hashes. The fingerprint costs about a word-at-a-time
//! pass, far less than the byte-serial FNV-1a
//! ([`ImageBytes::content_hash`]) that names a session on the wire; that
//! one is computed only where a reply publishes it ([`sessions`] and
//! [`evict`]), once per image, outside the cache lock.
//!
//! ## What an entry holds
//!
//! An entry is the fingerprint, the session, and the session's reply
//! parts: what replies derive from the session and would
//! otherwise rebuild on every hit — the `struct` text rendered as a
//! JSON string, the `features` pairs rendered as a JSON array, and the
//! feature index's LSH signature under the daemon's fixed index config.
//! Each part is built once, on first use (concurrent callers wait for
//! the first), and lives and dies with its entry: an evicted entry's
//! parts go with it, and a session opened again for the same bytes gets
//! a fresh entry with parts of its own. Nothing is keyed by address.
//!
//! ## Eviction
//!
//! An entry's size is its session's `resident_bytes` plus the bytes of
//! the parts built so far, and the cache's resident bytes (reported in
//! [`ServeStats::resident_bytes`]) are the entries' sizes summed. A
//! rendered `struct` text can come to a fifth of its session's bytes,
//! so once it is built, fewer sessions fit the same cap.
//!
//! Eviction is least-recently-used by those resident bytes: after each
//! analysis request (when artifact memoization or a part may have grown
//! an entry) the server calls [`SessionCache::enforce_cap`], which drops
//! coldest-first until the summed sizes fit the cap less the bytes the
//! caller reserves (the daemon's corpus index). The most-recently-used
//! entry is never evicted — a single binary larger than the whole cap
//! must still be servable — and in-flight requests hold their own
//! `Arc`s, so eviction frees the *cache's* references, not the session
//! or parts under a live request.
//!
//! [`sessions`]: SessionCache::sessions
//! [`evict`]: SessionCache::evict
//! [`ServeStats::resident_bytes`]: crate::proto::ServeStats::resident_bytes

use pba_concurrent::{fx_hash_bytes, Counter};
use pba_driver::{Error, Session, SessionConfig};
use pba_elf::ImageBytes;
use std::sync::{Arc, Mutex, OnceLock};

/// A cache lookup result: the session, and whether it was already
/// resident.
pub struct Cached {
    /// The live session (shared with the cache and other requests).
    pub session: Arc<Session>,
    /// True when the session was already resident.
    pub hit: bool,
    /// The entry's reply parts (shared with the cache and other
    /// requests).
    pub(crate) parts: Arc<ReplyParts>,
}

/// What replies derive from an entry's session, each built on first
/// use by the handler (see the module docs).
#[derive(Default)]
pub(crate) struct ReplyParts {
    /// The structure text, rendered as a JSON string.
    pub(crate) text: OnceLock<Arc<str>>,
    /// The feature index as `[[hash,count],…]` JSON, sorted by hash.
    pub(crate) features: OnceLock<Arc<str>>,
    /// The feature index's LSH signature under the daemon's index
    /// config.
    pub(crate) signature: OnceLock<Vec<u64>>,
}

impl ReplyParts {
    /// Heap bytes of the parts built so far.
    fn heap_bytes(&self) -> usize {
        self.text.get().map_or(0, |t| t.len())
            + self.features.get().map_or(0, |f| f.len())
            + self.signature.get().map_or(0, |s| s.capacity() * std::mem::size_of::<u64>())
    }
}

/// One resident entry: the fingerprint of the input, the session, and
/// the session's reply parts.
struct Entry {
    print: u64,
    session: Arc<Session>,
    parts: Arc<ReplyParts>,
}

impl Entry {
    /// The entry's size under the cap: the session's resident bytes
    /// plus its parts'.
    fn bytes(&self) -> usize {
        self.session.stats().resident_bytes as usize + self.parts.heap_bytes()
    }

    fn cached(&self, hit: bool) -> Cached {
        Cached { session: Arc::clone(&self.session), hit, parts: Arc::clone(&self.parts) }
    }
}

/// Keyed map of live sessions behind an LRU bounded by resident bytes.
pub struct SessionCache {
    /// Budget for the summed `resident_bytes` of all cached sessions.
    cap_bytes: usize,
    /// Config every served session is opened with (one knob surface —
    /// responses are reproducible in-process with the same config).
    config: SessionConfig,
    /// The entries in LRU order: coldest first, most recently used
    /// last.
    lru: Mutex<Vec<Entry>>,
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

    /// Look up (or open) the session for an image: the resident one
    /// whose input has the image's fingerprint and bytes. A hit moves
    /// the entry to the MRU position. The fingerprint is taken before
    /// the lock; the byte comparison runs under it, on fingerprint
    /// matches only. Opening is cheap — a `Session` parses nothing
    /// until an artifact is requested — so it happens under the lock,
    /// which also makes racing requests for the same new binary agree
    /// on one session. Nothing here computes the FNV-1a content hash.
    pub fn get_or_open(&self, image: ImageBytes) -> Cached {
        let print = fx_hash_bytes(&image);
        let mut lru = self.lru.lock().unwrap();
        if let Some(pos) =
            lru.iter().position(|e| e.print == print && **e.session.input() == *image)
        {
            let entry = lru.remove(pos);
            let cached = entry.cached(true);
            lru.push(entry);
            self.hits.inc();
            return cached;
        }
        let session = Arc::new(Session::open(image, self.config.clone()));
        let entry = Entry { print, session, parts: Arc::default() };
        let cached = entry.cached(false);
        lru.push(entry);
        self.misses.inc();
        cached
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

    /// Drop coldest entries until their summed sizes (see the module
    /// docs) fit the cap less `reserved` bytes (the MRU entry always
    /// stays). Returns how many were evicted. The daemon reserves its
    /// corpus index footprint on every request, so sessions and index
    /// share one budget and a growing index squeezes the session LRU
    /// rather than blowing past the cap.
    pub fn enforce_cap(&self, reserved: usize) -> usize {
        let budget = self.cap_bytes.saturating_sub(reserved);
        let mut lru = self.lru.lock().unwrap();
        let mut sizes: Vec<usize> = lru.iter().map(Entry::bytes).collect();
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

    /// Evict the sessions whose input has FNV-1a content hash `hash`
    /// (or every session when `None`). Returns how many were dropped.
    /// The hashes are computed outside the lock.
    pub fn evict(&self, hash: Option<u64>) -> usize {
        let evicted = match hash {
            Some(h) => {
                let doomed: Vec<Arc<Session>> =
                    self.sessions().into_iter().filter(|(k, _)| *k == h).map(|(_, s)| s).collect();
                let mut lru = self.lru.lock().unwrap();
                let before = lru.len();
                lru.retain(|e| !doomed.iter().any(|d| Arc::ptr_eq(d, &e.session)));
                before - lru.len()
            }
            None => std::mem::take(&mut *self.lru.lock().unwrap()).len(),
        };
        self.evictions.add(evicted as u64);
        evicted
    }

    /// Resident sessions as `(content hash, session)` pairs, coldest
    /// first, keyed by FNV-1a ([`Session::content_hash`], memoized per
    /// image and computed outside the lock).
    pub fn sessions(&self) -> Vec<(u64, Arc<Session>)> {
        let resident: Vec<Arc<Session>> =
            self.lru.lock().unwrap().iter().map(|e| Arc::clone(&e.session)).collect();
        resident.into_iter().map(|s| (s.content_hash(), s)).collect()
    }

    /// `(hits, misses, evictions, resident sessions, resident bytes)`,
    /// where the bytes are the entries' sizes summed: each session's
    /// `resident_bytes` plus its reply parts'.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        let (resident, bytes) = {
            let lru = self.lru.lock().unwrap();
            (lru.len() as u64, lru.iter().map(|e| e.bytes() as u64).sum())
        };
        (self.hits.get(), self.misses.get(), self.evictions.get(), resident, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_elf::image::fnv1a_64;
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
        let evicted = c2.enforce_cap(0);
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
        c.enforce_cap(0);
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
        assert_eq!(c.enforce_cap(0), 0, "three sessions fit the bare cap");
        assert!(c.enforce_cap(one * 3) >= 1, "reserved bytes must force eviction");
        assert!(!c.sessions().is_empty(), "MRU still survives");
    }

    #[test]
    fn reply_parts_count_toward_the_cap_and_go_with_their_entry() {
        let c = cache(usize::MAX);
        let a = c.get_or_open(image(1));
        a.session.cfg().unwrap();
        let own = a.session.stats().resident_bytes;
        assert_eq!(c.counters().4, own, "no part built yet");
        a.parts.text.set(Arc::from("x".repeat(1000))).unwrap();
        a.parts.signature.set(vec![0; 10]).unwrap();
        assert_eq!(c.counters().4, own + 1000 + 80, "the parts' bytes count");
        let hit = c.get_or_open(image(1));
        assert!(Arc::ptr_eq(&hit.parts, &a.parts), "a hit shares the entry's parts");

        // A cap that fits two bare sessions, but not one with its parts.
        let b = c.get_or_open(image(2));
        b.session.cfg().unwrap();
        let bare = own + b.session.stats().resident_bytes;
        let capped = SessionCache::new(bare as usize, SessionConfig::default().with_threads(1));
        let a2 = capped.get_or_open(image(1));
        a2.session.cfg().unwrap();
        capped.get_or_open(image(2)).session.cfg().unwrap();
        assert_eq!(capped.enforce_cap(0), 0, "two bare sessions fit");
        a2.parts.text.set(Arc::from("x".repeat(1000))).unwrap();
        assert_eq!(capped.enforce_cap(0), 1, "the parts push the coldest out");

        c.evict(None);
        let fresh = c.get_or_open(image(1));
        assert!(!fresh.hit);
        assert!(fresh.parts.text.get().is_none(), "a reopened session gets fresh parts");
    }

    #[test]
    fn explicit_evict_by_hash_and_all() {
        let c = cache(usize::MAX);
        let a = c.get_or_open(image(1));
        c.get_or_open(image(2));
        assert_eq!(c.evict(Some(a.session.content_hash())), 1);
        assert_eq!(c.evict(Some(a.session.content_hash())), 0, "already gone");
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
        assert_eq!(by_path.session.content_hash(), inline.session.content_hash());
        assert!(c.open_path("/nonexistent/definitely-not-here").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_byte_difference_of_the_same_length_misses() {
        let c = cache(usize::MAX);
        let bytes = image(1).to_vec();
        let mut other = bytes.clone();
        let mid = other.len() / 2;
        other[mid] ^= 1;
        let a = c.get_or_open(ImageBytes::from(bytes));
        let b = c.get_or_open(ImageBytes::from(other));
        assert!(!b.hit, "different bytes, different session");
        assert!(!Arc::ptr_eq(&a.session, &b.session));
        assert_eq!(c.sessions().len(), 2);
    }

    /// `bytes` with words 0 and 4 (both lane 0 of [`fx_hash_bytes`])
    /// rewritten so that the lane, and so the fingerprint, ends where
    /// it did: a lane starts at zero, and word `w` takes it to what
    /// `FxHasher::write_u64(w)` gives from zero.
    fn fingerprint_twin(bytes: &[u8]) -> Vec<u8> {
        use std::hash::Hasher;
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let lane = |w: u64| {
            let mut h = pba_concurrent::FxHasher::default();
            h.write_u64(w);
            h.finish().rotate_left(5)
        };
        let (w0, w4) = (word(0), word(32));
        let twin0 = w0 ^ 0x80;
        let twin4 = w4 ^ lane(w0) ^ lane(twin0);
        let mut twin = bytes.to_vec();
        twin[0..8].copy_from_slice(&twin0.to_le_bytes());
        twin[32..40].copy_from_slice(&twin4.to_le_bytes());
        twin
    }

    #[test]
    fn a_fingerprint_collision_gets_its_own_session() {
        let bytes = image(1).to_vec();
        let twin = fingerprint_twin(&bytes);
        assert_ne!(bytes, twin);
        assert_eq!(fx_hash_bytes(&bytes), fx_hash_bytes(&twin), "the twin must collide");
        let c = cache(usize::MAX);
        let a = c.get_or_open(ImageBytes::from(bytes.clone()));
        let b = c.get_or_open(ImageBytes::from(twin));
        assert!(!b.hit, "a matching fingerprint alone is no hit");
        assert!(!Arc::ptr_eq(&a.session, &b.session));
        assert!(c.get_or_open(ImageBytes::from(bytes)).hit, "equal bytes still hit");
    }

    #[test]
    fn unhashed_inline_sessions_are_listed_and_evicted_by_fnv() {
        let c = cache(usize::MAX);
        let (a, b) = (image(1).to_vec(), image(2).to_vec());
        let sa = c.get_or_open(ImageBytes::from(a.clone())).session;
        let sb = c.get_or_open(ImageBytes::from(b.clone())).session;
        let listed = c.sessions();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].0, fnv1a_64(&a));
        assert!(Arc::ptr_eq(&listed[0].1, &sa));
        assert_eq!(listed[1].0, fnv1a_64(&b));
        assert!(Arc::ptr_eq(&listed[1].1, &sb));
        assert_eq!(c.evict(Some(fnv1a_64(&a))), 1);
        let left = c.sessions();
        assert_eq!(left.len(), 1);
        assert!(Arc::ptr_eq(&left[0].1, &sb), "only the named session goes");
    }
}
