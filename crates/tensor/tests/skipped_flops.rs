//! `hs_tensor_gemm_skipped_flops_total` counts the multiply-adds a patch
//! product leaves out, and `hs_tensor_gemm_flops_total` keeps counting the
//! nominal ones. On a 1×1 map a 3×3 conv with padding 1 reads the image
//! only at its centre tap, so it skips exactly 8/9 of its work, whether
//! the panel holds one sample or `NR` of them position-major. The counters
//! are process-global, so this check has a test binary of its own.

use hs_telemetry::metrics::counter;
use hs_tensor::{gemm_patches, Conv2dGeometry, Patches, NR, SMALL_THRESHOLD};

#[test]
fn one_pixel_conv_skips_eight_ninths_of_its_flops() {
    let flops = counter("hs_tensor_gemm_flops_total");
    let skipped = counter("hs_tensor_gemm_skipped_flops_total");
    let (c, m) = (64, 16);
    let geom = Conv2dGeometry::new(c, 1, 1, 3, 1, 1);
    for (samples, position_major) in [(1, false), (NR, true), (NR + 3, true)] {
        let input: Vec<f32> = (0..samples * geom.input_len())
            .map(|i| (i % 7) as f32 - 2.5)
            .collect();
        let mut patches = Patches::new(&input, &geom, samples);
        if position_major {
            patches = patches.position_major();
        }
        let (k, n) = (patches.rows(), patches.cols());
        assert!(m * k * n >= SMALL_THRESHOLD, "the product must be blocked");
        let a = vec![0.5f32; m * k];
        let mut out = vec![0.0f32; m * n];
        let (flops0, skipped0) = (flops.get(), skipped.get());
        gemm_patches(&mut out, &a, m, &patches, false, false);
        let nominal = 2 * (m * k * n) as u64;
        assert_eq!(flops.get() - flops0, nominal, "g={samples}");
        assert_eq!(9 * (skipped.get() - skipped0), 8 * nominal, "g={samples}");
    }
}
