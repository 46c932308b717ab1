//! Lock-striped concurrent address set.
//!
//! The parser tracks "has any thread already claimed this address as a
//! block start?" style facts. A full accessor map is overkill when the only
//! operations are insert-if-absent and membership probes, so this is a
//! striped `HashSet<u64>`: the same sharding scheme as
//! [`crate::ConcurrentHashMap`] minus the entry slabs and per-entry
//! locks, one shim `RwLock` per stripe.

use crate::fxhash::{fx_hash_u64, FxBuildHasher};
use parking_lot::RwLock;
use std::collections::HashSet;

type Stripe = RwLock<HashSet<u64, FxBuildHasher>>;

/// Stripe count; a power of two, since an address's stripe is the top
/// bits of its hash.
const STRIPES: usize = 128;

/// A concurrent set of 64-bit addresses.
pub struct AddressSet {
    stripes: Box<[Stripe]>,
    shift: u32,
}

impl Default for AddressSet {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSet {
    /// Create an empty set.
    pub fn new() -> Self {
        AddressSet {
            stripes: (0..STRIPES)
                .map(|_| RwLock::new(HashSet::with_hasher(FxBuildHasher::default())))
                .collect(),
            shift: 64 - STRIPES.trailing_zeros(),
        }
    }

    #[inline]
    fn stripe(&self, addr: u64) -> &Stripe {
        &self.stripes[(fx_hash_u64(addr) >> self.shift) as usize]
    }

    /// Insert `addr`; returns `true` iff it was not already present
    /// (the caller "claimed" the address).
    #[inline]
    pub fn insert(&self, addr: u64) -> bool {
        let s = self.stripe(addr);
        {
            if s.read().contains(&addr) {
                return false;
            }
        }
        s.write().insert(addr)
    }

    /// Membership probe. Racy with respect to concurrent inserts, which is
    /// exactly the hint semantics the thread-local decode cache needs.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.stripe(addr).read().contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn claim_semantics() {
        let s = AddressSet::new();
        assert!(s.insert(0x400));
        assert!(!s.insert(0x400));
        assert!(s.contains(0x400));
        assert!(!s.contains(0x401));
    }

    #[test]
    fn concurrent_claims_are_unique() {
        let s = Arc::new(AddressSet::new());
        let total = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let mut mine = 0;
                    for a in 0..1000u64 {
                        if s.insert(a) {
                            mine += 1;
                        }
                    }
                    total.fetch_add(mine, std::sync::atomic::Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 1000);
        assert!((0..1000u64).all(|a| s.contains(a)));
    }
}
