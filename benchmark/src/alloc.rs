//! Counting global allocator: live bytes, their high-water mark, and the
//! number of allocations.
//!
//! A query allocates hundreds of thousands of times, from several threads.
//! Counters shared by all of them would bounce between cores on every call
//! and slow the program under test, so each thread counts privately and
//! folds its counts into the shared totals every [`FLUSH_BYTES`] of net
//! change or [`FLUSH_ALLOCS`] allocations. The totals therefore lag each
//! thread by at most that much: the high-water mark is good to about
//! `threads × 8 KiB`, which is what heap metrics in MiB need.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

const FLUSH_BYTES: i64 = 8 * 1024;
const FLUSH_ALLOCS: u64 = 1024;

// Statistics only: no other data is published through these counters.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// (net bytes, allocations) not yet folded into the totals. Constant
    /// initialiser and no destructor, so touching it from inside the
    /// allocator neither allocates nor can find it torn down.
    static PENDING: Cell<(i64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: i64, allocs: u64) {
    PENDING.with(|p| {
        let (b, a) = p.get();
        let (b, a) = (b + bytes, a + allocs);
        if b.abs() >= FLUSH_BYTES || a >= FLUSH_ALLOCS {
            let live = LIVE.fetch_add(b, Relaxed) + b;
            PEAK.fetch_max(live, Relaxed);
            ALLOCS.fetch_add(a, Relaxed);
            p.set((0, 0));
        } else {
            p.set((b, a));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// side bookkeeping and never influence the returned pointers or layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), 0);
        // SAFETY: `ptr` was returned by `System` through this allocator with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as `System::realloc`, forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64, 1);
        }
        p
    }
}

/// Allocations (and reallocations) folded into the totals so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Start a high-water measurement: the peak is reset to the current level,
/// which is returned.
pub fn reset_peak() -> i64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest level since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}
