//! A blocked `gemm_ex` submits one pool batch per packed column block of
//! B (one per call unless B is wide and deep), not one per `KC` block.
//! The pool counters are process-global, so this check has a test binary
//! of its own: no other test can submit work while it measures.

use hs_telemetry::metrics::counter;
use hs_tensor::{gemm_ex, KC};

#[test]
fn blocked_gemm_submits_one_pool_batch() {
    // A batch-1 conv of 128 filters over 128·3·3 inputs at a 4×4 map:
    // five KC blocks deep and two 64-row blocks tall.
    let (m, k, n) = (128usize, 1152usize, 16usize);
    assert_eq!(k.div_ceil(KC), 5);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 - 2.0).collect();
    let mut out = vec![0.0f32; m * n];
    let batches = counter("hs_tensor_pool_batches_total");
    let tasks = counter("hs_tensor_pool_tasks_total");
    let (batches0, tasks0) = (batches.get(), tasks.get());
    gemm_ex(&mut out, &a, &b, m, k, n, false, false, false);
    assert_eq!(batches.get() - batches0, 1, "pool batches per call");
    assert_eq!(tasks.get() - tasks0, 2, "one task per 64-row block");

    // Packed B is capped at KC×2048 floats: 257 rows by 2100 columns
    // overflow it, so the call runs as two column blocks, one batch each.
    let (m, k, n) = (64usize, KC + 1, 2100usize);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    let mut out = vec![0.0f32; m * n];
    let (batches0, tasks0) = (batches.get(), tasks.get());
    gemm_ex(&mut out, &a, &b, m, k, n, false, false, false);
    assert_eq!(batches.get() - batches0, 2, "one batch per column block");
    assert_eq!(tasks.get() - tasks0, 2, "one 64-row task per batch");
    assert!(out.iter().all(|&v| v == 0.125 * k as f32));
}
