//! `hs_tensor_im2col_bytes_total` counts the patch matrix a patch-operand
//! GEMM reads, as if it had been lowered, on the naive and the blocked
//! path alike, so `tensor.im2col_mb` stays comparable with runs that built
//! the matrix. The counters are process-global, so this check has a test
//! binary of its own: no other test can bump them while it measures.

use hs_telemetry::metrics::counter;
use hs_tensor::{gemm_patches, Conv2dGeometry, Patches, SMALL_THRESHOLD};

#[test]
fn patch_products_count_their_patch_bytes_on_both_paths() {
    let calls = counter("hs_tensor_im2col_calls_total");
    let bytes = counter("hs_tensor_im2col_bytes_total");
    // A 2×2 map of 2 channels is a naive product for 3 filters; 8×8 maps
    // of 16 channels, three samples at a time, are blocked.
    for (c, hw, samples, m, naive) in [(2, 2, 1, 3, true), (16, 8, 3, 32, false)] {
        let geom = Conv2dGeometry::new(c, hw, hw, 3, 1, 1);
        let input: Vec<f32> = (0..samples * geom.input_len())
            .map(|i| (i % 7) as f32 - 3.0)
            .collect();
        let patches = Patches::new(&input, &geom, samples);
        let (rows, cols) = (patches.rows(), patches.cols());
        assert_eq!(m * rows * cols < SMALL_THRESHOLD, naive);
        let lowered = (rows * cols * std::mem::size_of::<f32>()) as u64;
        for trans in [false, true] {
            let (k, n) = if trans { (cols, rows) } else { (rows, cols) };
            let a = vec![0.5f32; m * k];
            let mut out = vec![0.0f32; m * n];
            let (calls0, bytes0) = (calls.get(), bytes.get());
            gemm_patches(&mut out, &a, m, &patches, trans, false);
            assert_eq!(calls.get() - calls0, 1, "c={c} trans={trans}");
            assert_eq!(bytes.get() - bytes0, lowered, "c={c} trans={trans}");
        }
    }
}
