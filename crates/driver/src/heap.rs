//! A steady C heap for sessions.
//!
//! glibc's malloc serves each request of at least its mmap threshold
//! (128 KiB at start) from a mapping of its own, unmapped on free, and
//! gives a heap's free top back to the system once it passes the trim
//! threshold. Left alone it moves both: each mapped chunk freed raises
//! the mmap threshold to that chunk's size (up to 32 MiB) and the trim
//! threshold to twice that. A session builds and drops many buffers of
//! a few MiB (CFG and IR arrays, the structure text), so after the first
//! is freed the later ones land in the per-thread arenas, where how much
//! stays resident depends on which worker thread happened to free what.
//! The same run, repeated on the same build, then peaks at one of two
//! levels: 38 or 46 MiB of peak RSS on the suite's `struct_large`.
//!
//! [`steady`] sets both thresholds once per process, which turns the
//! adjustment off: buffers of 1 MiB and up keep their own mappings and
//! leave with their session, and a heap keeps up to 2 MiB of free top,
//! so that a daemon's request buffers are reused from one request to the
//! next and not faulted in again. Every [`crate::Session`] calls it.

/// Fix the allocator's mmap and trim thresholds (see the module docs).
/// Idempotent; a no-op off glibc.
pub(crate) fn steady() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            // SAFETY: mallopt only sets allocator parameters and may be
            // called at any time from any thread.
            unsafe {
                glibc::mallopt(glibc::M_MMAP_THRESHOLD, 1 << 20);
                glibc::mallopt(glibc::M_TRIM_THRESHOLD, 2 << 20);
            }
        });
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use core::ffi::c_int;

    // `<malloc.h>`'s parameter numbers.
    pub const M_TRIM_THRESHOLD: c_int = -1;
    pub const M_MMAP_THRESHOLD: c_int = -3;

    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
    }
}
