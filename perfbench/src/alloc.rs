//! Counting global allocator: allocation calls, live heap bytes and the
//! live-heap high-water mark. Installed by `main.rs` for the whole
//! benchmark process, so every world's allocator traffic is observed
//! from outside the crates under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                grew(new - old);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        out
    }
}

/// Allocator state at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    calls: u64,
    live: u64,
}

/// Start a measurement window: restart the high-water mark at the
/// current live heap.
pub fn mark() -> Mark {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    Mark {
        calls: CALLS.load(Ordering::Relaxed),
        live,
    }
}

/// Allocation calls since `m`, and the live-heap high-water mark above
/// the level at `m`, in bytes.
pub fn since(m: Mark) -> (u64, u64) {
    let calls = CALLS.load(Ordering::Relaxed) - m.calls;
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(m.live);
    (calls, peak)
}
