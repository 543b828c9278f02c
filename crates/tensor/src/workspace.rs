//! Reusable scratch memory for kernels.
//!
//! col2im buffers and GEMM packing panels are needed for a few
//! microseconds per call but were allocated fresh on every forward /
//! backward in the seed. This module gives each thread a small arena of
//! reusable `Vec<f32>` buffers: after warm-up, a training step or
//! evaluator rollout performs zero scratch heap allocations.
//!
//! Buffers are checked out with [`with_scratch`] / [`with_scratch_zeroed`]
//! and returned automatically; nested checkouts (e.g. conv output →
//! gemm packing) draw distinct buffers from the same arena. Capacities are
//! rounded up to powers of two so differently-sized layers share buffers
//! instead of thrashing.
//!
//! Kernel bookkeeping that is not `f32` (the GEMM's depth tables, col2im's
//! tap spans) lives in per-thread vectors that are emptied and reused the
//! same way; they do not count toward the scratch high-water gauge.
//!
//! Global counters ([`alloc_count`] / [`reuse_count`]) make "zero
//! allocations after warm-up" directly testable.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of fresh heap allocations performed by all arenas since process
/// start (or the last [`reset_stats`]).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Number of checkout requests served from an existing buffer.
static REUSES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently checked out across all threads; its peak feeds the
/// `hs_tensor_scratch_highwater_bytes` gauge.
static OUTSTANDING_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARENA: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Total scratch-buffer heap allocations across all threads.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total scratch checkouts served without allocating.
pub fn reuse_count() -> u64 {
    REUSES.load(Ordering::Relaxed)
}

/// Resets both counters to zero (test/bench hook).
pub fn reset_stats() {
    ALLOCS.store(0, Ordering::Relaxed);
    REUSES.store(0, Ordering::Relaxed);
}

fn checkout(len: usize) -> Vec<f32> {
    let want = len.next_power_of_two().max(64);
    let hit = ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        // Prefer the smallest buffer that fits to keep big panels available
        // for big requests.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in arena.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= want && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        best.map(|(i, _)| arena.swap_remove(i))
    });
    let buf = match hit {
        Some(mut buf) => {
            REUSES.fetch_add(1, Ordering::Relaxed);
            // SAFETY-free resize: set_len via resize keeps it simple; the
            // caller decides whether contents must be zeroed.
            buf.resize(len, 0.0);
            buf
        }
        None => {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let mut buf = Vec::with_capacity(want);
            buf.resize(len, 0.0);
            buf
        }
    };
    let bytes = (buf.capacity() * std::mem::size_of::<f32>()) as u64;
    let now = OUTSTANDING_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    crate::telem::scratch_highwater_bytes().record_max(now as f64);
    buf
}

fn give_back(buf: Vec<f32>) {
    let bytes = (buf.capacity() * std::mem::size_of::<f32>()) as u64;
    OUTSTANDING_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    const MAX_POOLED: usize = 16;
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        if arena.len() < MAX_POOLED {
            arena.push(buf);
        }
        // else: drop — bounds per-thread retained memory.
    });
}

/// Runs `f` with a scratch buffer of exactly `len` elements whose contents
/// are unspecified (stale data from a previous checkout is possible).
/// The buffer returns to this thread's arena afterwards.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = checkout(len);
    let out = f(&mut buf[..len]);
    give_back(buf);
    out
}

/// Like [`with_scratch`] but the buffer is zero-filled first.
pub fn with_scratch_zeroed<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = checkout(len);
    buf[..len].fill(0.0);
    let out = f(&mut buf[..len]);
    give_back(buf);
    out
}

/// Runs `f` with the calling thread's reusable vector in `cell`, emptied,
/// for kernel bookkeeping that is not `f32` (depth tables, tap spans).
/// A vector that had to grow counts as an allocation, one that did not as
/// a reuse, as [`with_scratch`]'s buffers do. A nested call on the same
/// cell starts from a fresh vector, and the outer call's is kept.
pub(crate) fn with_vec<T, R>(
    cell: &'static std::thread::LocalKey<Cell<Vec<T>>>,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    let mut v = cell.take();
    v.clear();
    let capacity = v.capacity();
    let out = f(&mut v);
    let counter = if v.capacity() > capacity {
        &ALLOCS
    } else {
        &REUSES
    };
    counter.fetch_add(1, Ordering::Relaxed);
    cell.set(v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_vectors_keep_their_capacity_and_nest() {
        thread_local! {
            static CELL: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
        }
        with_vec(&CELL, |v| v.extend(0..1000));
        with_vec(&CELL, |v| {
            assert!(v.is_empty() && v.capacity() >= 1000);
            v.push(7);
            // A nested checkout gets a vector of its own.
            with_vec(&CELL, |inner| {
                assert!(inner.capacity() == 0);
                inner.push(9);
            });
            assert_eq!(v[..], [7]);
        });
        with_vec(&CELL, |v| {
            assert!(v.capacity() >= 1000, "the outer vector is kept");
        });
    }

    #[test]
    fn second_checkout_reuses_first_buffer() {
        // Use an oddball size so other tests' buffers don't interfere with
        // the alloc/reuse accounting we assert on.
        let len = 12_345;
        let before_allocs = alloc_count();
        with_scratch(len, |s| s.fill(1.0));
        let after_first = alloc_count();
        assert!(after_first > before_allocs);
        let before_reuse = reuse_count();
        with_scratch(len, |s| {
            assert_eq!(s.len(), len);
        });
        assert_eq!(
            alloc_count(),
            after_first,
            "second checkout must not allocate"
        );
        assert!(reuse_count() > before_reuse);
    }

    #[test]
    fn zeroed_scratch_is_zeroed_even_after_reuse() {
        let len = 7_777;
        with_scratch(len, |s| s.fill(3.5));
        with_scratch_zeroed(len, |s| {
            assert!(s.iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    fn nested_checkouts_are_distinct() {
        with_scratch(100, |a| {
            a.fill(1.0);
            with_scratch(100, |b| {
                b.fill(2.0);
            });
            assert!(a.iter().all(|&x| x == 1.0));
        });
    }

    #[test]
    fn smaller_request_fits_in_pooled_buffer() {
        let big = 50_000;
        with_scratch(big, |_| {});
        let allocs = alloc_count();
        with_scratch(big / 2, |s| assert_eq!(s.len(), big / 2));
        assert_eq!(
            alloc_count(),
            allocs,
            "smaller request should reuse the larger buffer"
        );
    }
}
