//! Counting global allocator: every allocation the calling thread makes is
//! counted, and the driver reads the counters around a timed block.
//!
//! The counters are per thread, so they are exact for the benchmark's one
//! thread whatever else a process does (a test harness runs tests side by
//! side). They are `const`-initialised `Cell`s without destructors: reading
//! them never allocates and never runs after thread-local teardown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed by the benchmark library.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count(new);
        // SAFETY: `p`/`l` describe a live `System` block, `new` is non-zero
        // by the trait's contract.
        unsafe { System.realloc(p, l, new) }
    }
}

/// `(allocations, bytes requested)` by this thread since it started.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
