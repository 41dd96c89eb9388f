//! Counting allocator: every heap allocation made by this binary (the
//! program under test included, since it is linked in) bumps a
//! process-wide and a per-thread counter. `allocs_per_op` reads the first;
//! trace spans read the second as before/after deltas.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // touch it at any point of a thread's life without allocating.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus two counters.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added counter updates neither
// allocate nor unwind (`try_with` returns an error instead of panicking
// while a thread is being torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by `System` for `layout` (we only ever
        // forward), which is what `System.realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    // Relaxed: a statistic that publishes no other data.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (including reallocations) by all threads since start.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations by the calling thread since it started.
pub fn on_this_thread() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_of_this_thread_exactly() {
        let before = on_this_thread();
        let total_before = total();
        let boxes: Vec<Box<u64>> = (0..100u64).map(Box::new).collect();
        let after = on_this_thread();
        // 100 boxes plus the vector's one exact-size allocation.
        assert_eq!(after - before, 101);
        assert!(total() - total_before >= 101);
        drop(boxes);
        assert_eq!(on_this_thread(), after, "frees are not counted");
    }

    #[test]
    fn other_threads_do_not_touch_this_threads_counter() {
        let before = on_this_thread();
        let child = std::thread::spawn(|| {
            let b = on_this_thread();
            let boxes: Vec<Box<u64>> = (0..1000u64).map(Box::new).collect();
            (on_this_thread() - b, boxes.len())
        })
        .join()
        .expect("counting thread panicked");
        assert_eq!(child, (1001, 1000));
        // Spawning and joining allocate a little on this thread; the
        // child's thousand boxes must not be among that.
        assert!(on_this_thread() - before < 100);
    }
}
