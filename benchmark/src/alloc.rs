//! Counting allocator: the one module of the benchmark that needs `unsafe`.
//!
//! Counting is off by default, so the end-to-end runs pay one relaxed load
//! per allocation and nothing else. A [`Scope`] switches it on for the
//! duration of one measured call and reports what that call allocated.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Forwards to the system allocator, counting while a [`Scope`] is open.
pub struct Counting;

// Statistics only: no other memory is published through these, so
// `Relaxed` is enough.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// returned pointers or layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` with this
        // `layout`, as the caller of `dealloc` guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: same pointer, layout and size the caller vouches for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counted scope allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counted {
    /// Allocation calls (`alloc` + `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes still live when the scope closed (allocated minus freed
    /// inside the scope).
    pub live_bytes: i64,
}

/// An open counting scope. Scopes do not nest: the generator is one
/// thread and each measured call opens at most one.
pub struct Scope {
    allocs: u64,
    bytes: u64,
    live: i64,
}

impl Scope {
    /// Start counting.
    pub fn open() -> Scope {
        let scope = Scope {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            live: LIVE.load(Ordering::Relaxed),
        };
        ON.store(true, Ordering::Relaxed);
        scope
    }

    /// Stop counting and report the difference since [`Scope::open`].
    pub fn close(self) -> Counted {
        ON.store(false, Ordering::Relaxed);
        Counted {
            allocs: ALLOCS.load(Ordering::Relaxed) - self.allocs,
            bytes: BYTES.load(Ordering::Relaxed) - self.bytes,
            live_bytes: LIVE.load(Ordering::Relaxed) - self.live,
        }
    }
}
