//! Exact heap counters: a counting global allocator for the whole
//! benchmark process.
//!
//! `crates/simulator/tests/trace_alloc.rs` counts allocations on one
//! thread to pin the traced hot path at zero. This generalises it: it
//! counts every thread (the campaign pool's workers allocate too), also
//! counts bytes, and tracks the net change in live heap bytes, so a
//! window can tell how much a finished result still holds. Counting is
//! gated by one relaxed load; outside a [`Window`] the allocator is the
//! system allocator plus that load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
    }
}

#[inline]
fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the heap did inside one [`Window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Net change of live heap bytes (allocated minus freed).
    pub live: i64,
}

/// A counting window. Only one may be open at a time; the benchmark
/// opens them from its driver thread while nothing else runs.
pub struct Window;

impl Window {
    pub fn open() -> Self {
        ALLOCS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        LIVE.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::SeqCst);
        Window
    }

    /// The counts so far; the window stays open.
    pub fn counts(&self) -> Counts {
        Counts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            live: LIVE.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        COUNTING.store(false, Ordering::SeqCst);
    }
}
