//! A from-scratch implementation of the FxHash algorithm (the rustc hasher).
//!
//! The parallel parser keys almost every table by a 64-bit virtual address,
//! and the Rust Performance Book notes that SipHash (the standard-library
//! default) is a poor fit for hot integer-keyed tables. FxHash is a
//! multiply-xor hash: very fast, low quality, and entirely adequate here
//! because keys are program addresses, not attacker-controlled input.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplication constant (`π`-derived, as used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Rotate-multiply-xor hasher; identical mixing to rustc's `FxHasher`.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `std::collections::HashMap` pre-configured with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `std::collections::HashSet` pre-configured with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash a single `u64` directly (used for shard selection).
#[inline]
pub fn fx_hash_u64(x: u64) -> u64 {
    (x.rotate_left(5)).wrapping_mul(SEED)
}

/// Fx-hash a whole byte string, a word at a time in four interleaved
/// lanes (word `i` feeds lane `i % 4`), so the four multiply chains
/// overlap instead of waiting on one another; the lanes, the length and
/// the tail are then folded through one [`FxHasher`]. A fingerprint for
/// telling large buffers apart quickly, not a collision-resistant
/// digest: callers that must not confuse two inputs compare the bytes
/// when fingerprints match.
pub fn fx_hash_bytes(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            *lane = (lane.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
    }
    let mut h = FxHasher::default();
    h.write_usize(bytes.len());
    for lane in lanes {
        h.write_u64(lane);
    }
    h.write(blocks.remainder());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(0x1234_5678u64), hash_of(0x1234_5678u64));
        assert_eq!(hash_of("block"), hash_of("block"));
    }

    #[test]
    fn distinguishes_nearby_addresses() {
        // Consecutive instruction addresses must not collide; the parser
        // keys shards by these.
        let a = fx_hash_u64(0x40_1000);
        let b = fx_hash_u64(0x40_1001);
        let c = fx_hash_u64(0x40_1008);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn zero_is_not_fixed_point_for_nonzero_input() {
        assert_ne!(fx_hash_u64(1), 0);
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn byte_stream_matches_word_writes_for_exact_chunks() {
        // write() consumes 8-byte little-endian chunks with the same mixing
        // as write_u64.
        let mut h1 = FxHasher::default();
        h1.write(&0xdead_beef_0000_0001u64.to_le_bytes());
        let mut h2 = FxHasher::default();
        h2.write_u64(0xdead_beef_0000_0001);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn short_tail_is_padded_not_dropped() {
        let mut h1 = FxHasher::default();
        h1.write(&[0xab]);
        let h1 = h1.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[]);
        let h2 = h2.finish();
        assert_ne!(h1, h2);
    }

    #[test]
    fn spread_over_shards_is_reasonable() {
        // 4096 sequential addresses over 64 shards: no shard should be
        // empty and none should hold more than 4x the mean. This is the
        // property the parser's shard selection relies on.
        let mut counts = [0usize; 64];
        for i in 0..4096u64 {
            let a = 0x40_0000 + i * 4;
            counts[(fx_hash_u64(a) >> 58) as usize] += 1;
        }
        let mean = 4096 / 64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {i} empty");
            assert!(c < mean * 4, "shard {i} holds {c} (> 4x mean)");
        }
    }

    #[test]
    fn byte_fingerprint_sees_every_byte_and_the_length() {
        // 77 bytes: two full four-lane blocks plus a 13-byte tail.
        let base: Vec<u8> = (0..77u8).map(|b| b.wrapping_mul(37)).collect();
        let h = fx_hash_bytes(&base);
        assert_eq!(h, fx_hash_bytes(&base.clone()), "deterministic");
        for at in 0..base.len() {
            let mut flipped = base.clone();
            flipped[at] ^= 1;
            assert_ne!(fx_hash_bytes(&flipped), h, "byte {at} ignored");
        }
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(fx_hash_bytes(&padded), h, "a trailing zero changes the length");
        assert_ne!(fx_hash_bytes(&[0; 64]), fx_hash_bytes(&[0; 96]), "zero blocks are counted");
    }
}
