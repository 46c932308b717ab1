//! Shared, possibly memory-mapped input bytes.
//!
//! Every consumer of a binary image — the ELF parser, the DWARF reader,
//! a resident analysis session — wants the same thing: a `&[u8]` over
//! the whole file that is cheap to share across threads and cheap to
//! keep resident. [`ImageBytes`] is that: an `Arc` over either owned
//! heap bytes or (on unix) a read-only private `mmap` of the file, so
//! cloning is a refcount bump and a mapped image costs no anonymous
//! heap at all. The mapping is done with hand-declared libc FFI — no
//! external crates — and [`ImageBytes::from_path`] falls back to
//! `std::fs::read` whenever mapping fails, so callers never see the
//! difference beyond the resident-size accounting.

use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, OnceLock};

#[cfg(unix)]
mod ffi {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only `mmap` region, unmapped on drop.
#[cfg(unix)]
struct MmapRegion {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// The region is immutable (PROT_READ) for its whole lifetime, so shared
// references from any thread are sound.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful mmap and nothing
        // else unmaps them; failure here is unrecoverable but harmless.
        unsafe {
            let _ = ffi::munmap(self.ptr, self.len);
        }
    }
}

enum Repr {
    Heap(Box<[u8]>),
    #[cfg(unix)]
    Mmap(MmapRegion),
}

struct Inner {
    repr: Repr,
    /// Lazily-computed content hash, shared by every clone, so one image
    /// is hashed at most once no matter how many sessions or requests
    /// publish its hash.
    hash: OnceLock<u64>,
}

impl Inner {
    fn new(repr: Repr) -> Inner {
        Inner { repr, hash: OnceLock::new() }
    }
}

/// Shared input bytes: heap-owned or file-mapped, cloned by refcount.
#[derive(Clone)]
pub struct ImageBytes(Arc<Inner>);

impl ImageBytes {
    /// Open `path`, preferring a read-only private memory map (unix)
    /// and falling back to reading the file into heap bytes.
    pub fn from_path(path: impl AsRef<Path>) -> std::io::Result<ImageBytes> {
        let path = path.as_ref();
        #[cfg(unix)]
        if let Ok(img) = ImageBytes::mmap_path(path) {
            return Ok(img);
        }
        Ok(ImageBytes::from(std::fs::read(path)?))
    }

    #[cfg(unix)]
    fn mmap_path(path: &Path) -> std::io::Result<ImageBytes> {
        use std::os::unix::io::AsRawFd;
        let f = std::fs::File::open(path)?;
        let len = f.metadata()?.len() as usize;
        if len == 0 {
            // Zero-length mmap is an error; an empty image is just heap.
            return Ok(ImageBytes::from(Vec::new()));
        }
        // SAFETY: plain PROT_READ/MAP_PRIVATE file mapping; the result
        // is checked against MAP_FAILED before use.
        let ptr = unsafe {
            ffi::mmap(std::ptr::null_mut(), len, ffi::PROT_READ, ffi::MAP_PRIVATE, f.as_raw_fd(), 0)
        };
        if ptr == ffi::MAP_FAILED || ptr.is_null() {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ImageBytes(Arc::new(Inner::new(Repr::Mmap(MmapRegion { ptr, len })))))
    }

    /// Whether the bytes are a file mapping rather than heap storage.
    pub fn is_mapped(&self) -> bool {
        match &self.0.repr {
            Repr::Heap(_) => false,
            #[cfg(unix)]
            Repr::Mmap(_) => true,
        }
    }

    /// Bytes of anonymous heap this image pins (a file mapping is
    /// page-cache backed and counts as zero).
    pub fn heap_bytes(&self) -> usize {
        match &self.0.repr {
            Repr::Heap(b) => b.len(),
            #[cfg(unix)]
            Repr::Mmap(_) => 0,
        }
    }

    /// 64-bit FNV-1a hash over the whole image, computed once per
    /// storage (clones share the cached value) — the stable name under
    /// which a daemon publishes a binary (corpus index keys, `stats`,
    /// `evict`). It costs a byte-serial pass over the image, so a lookup
    /// that only needs to find equal bytes should compare them instead.
    /// FNV-1a is not collision-resistant against adversarial inputs; it
    /// is a name, not an integrity check.
    pub fn content_hash(&self) -> u64 {
        *self.0.hash.get_or_init(|| fnv1a_64(self))
    }
}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

impl Deref for ImageBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0.repr {
            Repr::Heap(b) => b,
            #[cfg(unix)]
            // SAFETY: the region is mapped PROT_READ for the lifetime of
            // the Arc that owns it.
            Repr::Mmap(m) => unsafe { std::slice::from_raw_parts(m.ptr as *const u8, m.len) },
        }
    }
}

impl From<Vec<u8>> for ImageBytes {
    fn from(v: Vec<u8>) -> ImageBytes {
        ImageBytes(Arc::new(Inner::new(Repr::Heap(v.into_boxed_slice()))))
    }
}

impl From<&[u8]> for ImageBytes {
    fn from(s: &[u8]) -> ImageBytes {
        ImageBytes::from(s.to_vec())
    }
}

impl Default for ImageBytes {
    fn default() -> ImageBytes {
        ImageBytes::from(Vec::new())
    }
}

impl std::fmt::Debug for ImageBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImageBytes")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_roundtrip_and_sharing() {
        let img = ImageBytes::from(vec![1u8, 2, 3]);
        assert_eq!(&img[..], &[1, 2, 3]);
        assert!(!img.is_mapped());
        assert_eq!(img.heap_bytes(), 3);
        let clone = img.clone();
        assert_eq!(&clone[..], &img[..]);
        assert_eq!(clone.as_ptr(), img.as_ptr(), "clones share storage");
    }

    #[test]
    fn from_path_reads_file_contents() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pba-imagebytes-test-{}", std::process::id()));
        std::fs::write(&path, b"mapped contents").unwrap();
        let img = ImageBytes::from_path(&path).unwrap();
        assert_eq!(&img[..], b"mapped contents");
        #[cfg(unix)]
        assert!(img.is_mapped(), "unix opens should map");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pba-imagebytes-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let img = ImageBytes::from_path(&path).unwrap();
        assert!(img.is_empty());
        assert!(!img.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(ImageBytes::from_path("/nonexistent/definitely-not-here").is_err());
    }

    #[test]
    fn content_hash_is_stable_and_content_keyed() {
        let a = ImageBytes::from(vec![1u8, 2, 3]);
        let b = ImageBytes::from(vec![1u8, 2, 3]);
        let c = ImageBytes::from(vec![1u8, 2, 4]);
        assert_eq!(a.content_hash(), b.content_hash(), "same bytes, same key");
        assert_ne!(a.content_hash(), c.content_hash(), "different bytes, different key");
        assert_eq!(a.content_hash(), fnv1a_64(&[1, 2, 3]), "documented algorithm");
        assert_eq!(a.clone().content_hash(), a.content_hash(), "clones share the cache");
    }

    #[test]
    fn content_hash_agrees_across_heap_and_mmap() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pba-imagebytes-hash-{}", std::process::id()));
        std::fs::write(&path, b"hash me").unwrap();
        let mapped = ImageBytes::from_path(&path).unwrap();
        let heap = ImageBytes::from(b"hash me".as_slice());
        assert_eq!(mapped.content_hash(), heap.content_hash());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv_test_vectors() {
        // Standard FNV-1a 64 vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
