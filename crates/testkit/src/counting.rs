//! The counting global allocator of the allocation gates
//! (`alloc_budget`, `alloc_scaling`, `ingest_budget`): an exact count a
//! noisy host can check, where a stopwatch cannot.
//!
//! A gate is its own test binary with one test function, and installs
//! the counter as the process's global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: testkit::Counting = testkit::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation, and
/// the bytes each asks for.
pub struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) `f` performs. Counts only in a
/// binary whose global allocator is [`Counting`].
pub fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Heap allocations (and reallocations) `f` performs, and the bytes they
/// ask for (a reallocation counts its new size). Counts only in a binary
/// whose global allocator is [`Counting`].
pub fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (count, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - count;
    (count, BYTES.load(Ordering::Relaxed) - bytes, out)
}
