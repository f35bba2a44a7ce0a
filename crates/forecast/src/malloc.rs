//! Keeps a simulation's scratch inside glibc's heaps.
//!
//! Every forecast builds a [`simflow::Simulation`] and drops it with the
//! answer: about a dozen vectors with one element per platform resource
//! (link or host), the largest 8 B per resource, ≈ 72 B per resource
//! together — 3 MB on a 20 000-host platform. glibc's default
//! thresholds adjust themselves to the *largest block* a process frees,
//! not to a group of blocks freed together: once the biggest vector has
//! been freed the rest stop being `mmap`ed, but the trim threshold
//! settles at twice that one vector, a quarter of the scratch. So
//! whenever nothing longer-lived happens to sit above the scratch in a
//! thread's heap, the heap's free top is handed back to the kernel after
//! *every* forecast and faulted in again by the next. Which of the two
//! modes a thread is in flips with cache-eviction timing, for seconds at
//! a time; measured on the benchmark's `wide_platform` (20 000 hosts,
//! two HTTP workers): 0 against 360 000–820 000 minor faults/s, 0.75
//! against 1.9 ms per request, and run-to-run throughput anywhere
//! between 1 400 and 2 400 requests/s.
//!
//! [`keep_simulation_scratch`] pins both thresholds above one
//! simulation's needs, sized from the platform, so every thread stays in
//! the first mode. Delete this module when simulation set-up stops being
//! O(platform) (ROADMAP, "what is left of O(request) set-up").

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::os::raw::c_int;

    // <malloc.h>
    pub const M_TRIM_THRESHOLD: c_int = -1;
    pub const M_MMAP_THRESHOLD: c_int = -3;
    /// Both thresholds' built-in starting value.
    pub const DEFAULT_THRESHOLD: usize = 128 << 10;
    /// `mallopt` refuses an mmap threshold above half a heap (64 MiB).
    pub const MMAP_THRESHOLD_MAX: usize = 32 << 20;

    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
    }
}

/// Called with the resource count of every platform a session is built
/// for. Raises the process's `mmap` threshold to twice a simulation's
/// largest vector and its trim threshold to ≈ 3.5 × a whole simulation's
/// scratch, unless an earlier call for a platform at least as large
/// already did, or the platform is small enough for glibc's defaults
/// never to `mmap` its vectors. Setting either threshold also switches
/// off glibc's own adjustment of both, which is the point. Elsewhere
/// than on Linux/glibc this does nothing.
pub(crate) fn keep_simulation_scratch(resources: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use glibc::*;
        use std::os::raw::c_int;
        use std::sync::Mutex;

        /// Largest platform the thresholds were set for so far.
        static SIZED_FOR: Mutex<usize> = Mutex::new(0);

        let mmap_threshold = (16 * resources).min(MMAP_THRESHOLD_MAX);
        let trim_threshold = (256 * resources).min(c_int::MAX as usize);
        if mmap_threshold <= DEFAULT_THRESHOLD {
            return;
        }
        let mut sized_for = SIZED_FOR.lock().unwrap_or_else(|e| e.into_inner());
        if resources <= *sized_for {
            return;
        }
        *sized_for = resources;
        // SAFETY: mallopt takes two integers, serialises on the
        // allocator's own lock and may be called at any time from any
        // thread. A refused value (return 0) leaves the default in
        // place, which is only slower.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, mmap_threshold as c_int);
            mallopt(M_TRIM_THRESHOLD, trim_threshold as c_int);
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = resources;
}
