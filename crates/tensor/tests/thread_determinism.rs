//! Bit-exact determinism across thread counts.
//!
//! The worker pool reads `HS_NUM_THREADS` once at startup, so the only
//! way to compare thread counts in one test run is to re-execute this
//! test binary as a subprocess per configuration. The hidden `#[ignore]`
//! test below computes a fingerprint over the parallel kernels (blocked
//! GEMM in all transpose variants, pooled reductions, elementwise maps,
//! the patch-operand forward and weight-gradient products, multi-sample
//! col2im)
//! and prints it; the driver runs it under `HS_NUM_THREADS=1` and `=4`
//! and asserts the fingerprints are identical bit for bit.

use std::process::Command;

use hs_tensor::{col2im_into, gemm_patches, Conv2dGeometry, Patches, Rng, Shape, Tensor};

fn fnv1a(hash: &mut u64, bits: u32) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(hash: &mut u64, t: &Tensor) {
    for &v in t.data() {
        fnv1a(hash, v.to_bits());
    }
}

/// Hidden worker: prints `FINGERPRINT:<hex>` for the parallel kernels.
/// Sized so every kernel takes its pooled path (products and lengths
/// above the parallel thresholds).
#[test]
#[ignore = "subprocess worker for thread_count_does_not_change_results"]
fn fingerprint() {
    let mut rng = Rng::seed_from(7);
    let a = Tensor::randn(Shape::d2(192, 160), &mut rng);
    let b = Tensor::randn(Shape::d2(160, 176), &mut rng);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    digest(&mut hash, &a.matmul(&b).unwrap());
    digest(
        &mut hash,
        &a.matmul_nt(&Tensor::randn(Shape::d2(176, 160), &mut rng))
            .unwrap(),
    );
    digest(
        &mut hash,
        &a.matmul_tn(&Tensor::randn(Shape::d2(192, 176), &mut rng))
            .unwrap(),
    );
    let mut big = Tensor::randn(Shape::d2(256, 300), &mut rng);
    big.map_inplace(|v| v.max(0.0) * 1.000_1);
    fnv1a(&mut hash, big.sum().to_bits());
    fnv1a(&mut hash, big.sq_norm().to_bits());
    fnv1a(&mut hash, big.l1_norm().to_bits());
    digest(&mut hash, &big);
    // Three samples' patches read side by side: the forward `W·col` and
    // the weight gradient `dW += dY·colᵀ`, both past the pooled size.
    let geom = Conv2dGeometry::new(8, 20, 20, 3, 1, 1);
    let samples = Tensor::randn(Shape::d4(3, 8, 20, 20), &mut rng);
    let patches = Patches::new(samples.data(), &geom, 3);
    let filters = 16;
    let w = Tensor::randn(Shape::d2(filters, geom.col_rows()), &mut rng);
    let mut y = vec![0.0f32; filters * patches.cols()];
    gemm_patches(&mut y, w.data(), filters, &patches, false, false);
    y.iter().for_each(|v| fnv1a(&mut hash, v.to_bits()));
    let dy = Tensor::randn(Shape::d2(filters, patches.cols()), &mut rng);
    let mut dw = w.data().to_vec();
    gemm_patches(&mut dw, dy.data(), filters, &patches, true, true);
    dw.iter().for_each(|v| fnv1a(&mut hash, v.to_bits()));
    let col: Vec<f32> = (0..3 * geom.col_len()).map(|_| rng.normal()).collect();
    let mut image = vec![0.0f32; samples.len()];
    col2im_into(&col, &mut image, &geom, 3, false);
    image.iter().for_each(|v| fnv1a(&mut hash, v.to_bits()));
    println!("FINGERPRINT:{hash:016x}");
}

fn fingerprint_with_threads(threads: &str) -> String {
    let exe = std::env::current_exe().expect("current test binary path");
    let out = Command::new(exe)
        .args(["--ignored", "--exact", "fingerprint", "--nocapture"])
        .env("HS_NUM_THREADS", threads)
        .output()
        .expect("spawn fingerprint subprocess");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "fingerprint subprocess failed under HS_NUM_THREADS={threads}:\n{stdout}"
    );
    stdout
        .lines()
        .find_map(|l| {
            // `--nocapture` interleaves the print with the harness's own
            // "test fingerprint ..." line, so search anywhere in the line.
            let idx = l.find("FINGERPRINT:")?;
            Some(l[idx + "FINGERPRINT:".len()..].trim().to_owned())
        })
        .unwrap_or_else(|| panic!("no fingerprint in output:\n{stdout}"))
}

#[test]
fn thread_count_does_not_change_results() {
    let serial = fingerprint_with_threads("1");
    let parallel = fingerprint_with_threads("4");
    assert_eq!(
        serial, parallel,
        "kernels produced different bits under HS_NUM_THREADS=1 vs 4"
    );
}
