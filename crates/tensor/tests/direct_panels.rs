//! A blocked stride-1 conv product whose output rows are whole GEMM
//! panels reads them in place from a zero-padded copy of its image: its
//! scratch is that copy, not the packed panels, and it skips exactly the
//! depths the packer skips. The scratch high-water gauge and the
//! skipped-FLOP counter are process-global, so this check has a test
//! binary of its own.

use hs_telemetry::metrics::{counter, gauge};
use hs_tensor::{gemm_patches, Conv2dGeometry, Patches};

#[test]
fn rows_of_panels_are_read_in_place_not_packed() {
    let highwater = gauge("hs_tensor_scratch_highwater_bytes");
    let skipped = counter("hs_tensor_gemm_skipped_flops_total");
    // 64 channels of 32×32, every fourth zero: panels skip those channels
    // everywhere, and one row of taps on the top and bottom rows.
    let (c, hw, m) = (64, 32, 16);
    let geom = Conv2dGeometry::new(c, hw, hw, 3, 1, 1);
    let plane = hw * hw;
    let input: Vec<f32> = (0..geom.input_len())
        .map(|i| {
            if i / plane % 4 == 3 {
                0.0
            } else {
                (i % 7) as f32 - 2.5
            }
        })
        .collect();
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let a: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32 - 2.0).collect();
    let run = |patches: Patches<'_>| {
        let mut out = vec![0.0f32; m * n];
        let before = skipped.get();
        gemm_patches(&mut out, &a, m, &patches, false, false);
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        (bits, skipped.get() - before, highwater.get())
    };
    let patches = Patches::new(&input, &geom, 1);
    let (direct, direct_skips, direct_highwater) = run(patches);
    // One sample viewed position-major has the same columns, and packs.
    let (packed, packed_skips, packed_highwater) = run(patches.position_major());
    // Half the patch matrix: less than the packer's one column block
    // (2 MiB here), more than the padded image (about 290 KiB, rounded
    // up to 512 KiB by the arena).
    let half = (k * n * std::mem::size_of::<f32>() / 2) as f64;
    assert!(
        direct_highwater < half,
        "read in place, yet {direct_highwater} scratch bytes"
    );
    assert!(
        packed_highwater >= half,
        "packing must show in the gauge: {packed_highwater}"
    );
    assert!(direct == packed, "in place and packed products differ");
    assert!(direct_skips > 0);
    assert_eq!(direct_skips, packed_skips);
}
