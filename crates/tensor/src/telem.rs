//! Cached handles to this crate's telemetry metrics.
//!
//! Kernel call sites record through these accessors so the registry's
//! name-lookup lock is taken once per metric per process, leaving one
//! relaxed atomic op on the hot path. Metric names follow the workspace
//! convention `hs_<crate>_<what>[_total|_bytes|_secs]`.

use std::sync::OnceLock;

use hs_telemetry::metrics::{self, Counter, Gauge, Histogram, TIME_BUCKETS_SECS};

macro_rules! cached_counter {
    ($fn_name:ident, $metric:literal) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
            HANDLE.get_or_init(|| metrics::counter($metric))
        }
    };
}

cached_counter!(gemm_calls, "hs_tensor_gemm_calls_total");
cached_counter!(gemm_flops, "hs_tensor_gemm_flops_total");
cached_counter!(gemm_skipped_flops, "hs_tensor_gemm_skipped_flops_total");
cached_counter!(im2col_calls, "hs_tensor_im2col_calls_total");
cached_counter!(im2col_bytes, "hs_tensor_im2col_bytes_total");
cached_counter!(col2im_calls, "hs_tensor_col2im_calls_total");
cached_counter!(pool_batches, "hs_tensor_pool_batches_total");
cached_counter!(pool_tasks, "hs_tensor_pool_tasks_total");

/// Wall-clock seconds of blocked (non-naive) GEMM calls. The naive
/// small-problem path skips timing: two `Instant` reads would be
/// measurable against a few thousand multiply-accumulates.
pub(crate) fn gemm_secs() -> &'static Histogram {
    static HANDLE: OnceLock<&'static Histogram> = OnceLock::new();
    HANDLE.get_or_init(|| metrics::histogram("hs_tensor_gemm_secs", &TIME_BUCKETS_SECS))
}

/// High-water mark of scratch-arena bytes checked out across all threads.
pub(crate) fn scratch_highwater_bytes() -> &'static Gauge {
    static HANDLE: OnceLock<&'static Gauge> = OnceLock::new();
    HANDLE.get_or_init(|| metrics::gauge("hs_tensor_scratch_highwater_bytes"))
}
