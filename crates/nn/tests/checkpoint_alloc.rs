//! A checkpoint whose tensor header claims far more data than the
//! stream holds must fail with a typed error before allocating what it
//! claimed. This file holds a single test on purpose: the counting
//! allocator is process-global, so a sibling test running concurrently
//! would move the high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};

use hs_nn::checkpoint;

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; recording a size touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn truncated_tensor_fails_without_allocating_its_claimed_size() {
    // Magic, format v2, one node, tag 7 (Linear), weight rank 2, dims
    // 16384 x 16384 (2^28 floats, 1 GiB), then the stream ends.
    let mut bytes = b"HSCK".to_vec();
    bytes.extend(2u32.to_le_bytes());
    bytes.extend(1u64.to_le_bytes());
    bytes.push(7);
    bytes.extend(2u32.to_le_bytes());
    bytes.extend(16384u64.to_le_bytes());
    bytes.extend(16384u64.to_le_bytes());
    assert_eq!(bytes.len(), 37);

    LARGEST.store(0, Ordering::Relaxed);
    let result = checkpoint::from_bytes(&bytes);
    let largest = LARGEST.load(Ordering::Relaxed);
    let err = result.expect_err("a truncated stream must not load");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert!(
        largest < 1 << 20,
        "a 37-byte input made a {largest}-byte allocation"
    );
}
