//! Matrix multiplication: the workhorse kernel behind convolution
//! (via im2col lowering) and fully connected layers.
//!
//! The implementation is a BLIS-style cache-blocked GEMM: operands are
//! packed into contiguous panels (`MC`×`KC` strips of A, `KC`×`NC` panels
//! of B) and multiplied by an `MR`×`NR` register-tiled microkernel. Large
//! problems parallelize over disjoint row blocks of the output on the
//! persistent [`crate::pool`] — no per-call thread spawning — and small
//! problems fall back to a naive loop that skips packing overhead.
//!
//! All transpose variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are handled by
//! [`gemm_ex`] through the packing step, so backpropagation never
//! materializes a transposed copy, and `accumulate = true` adds into an
//! existing output buffer (used to accumulate weight gradients in place).
//!
//! # Determinism
//!
//! The `KC` reduction blocks are applied sequentially in a fixed order and
//! every output element is owned by exactly one parallel task, so results
//! are bit-identical for any `HS_NUM_THREADS` setting.

use crate::error::TensorError;
use crate::pool;
use crate::shape::Shape;
use crate::telem;
use crate::tensor::Tensor;
use crate::workspace::with_scratch;

/// Problems smaller than this many multiply-accumulates stay single
/// threaded; pool dispatch overhead dominates below it.
pub(crate) const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Below this many multiply-accumulates, packing overhead exceeds the
/// microkernel's cache benefit; use the naive loops instead. The naive
/// loops round differently from the blocked path, so a product's bits
/// depend on which side of this line it falls.
pub const SMALL_THRESHOLD: usize = 1 << 13;

/// Microkernel register tile: rows of A per strip.
const MR: usize = 8;
/// Microkernel register tile: columns of B per panel.
pub const NR: usize = 8;
/// Rows of A per cache block (must be a multiple of `MR` so strip
/// boundaries — and therefore results — do not depend on the block
/// partition).
const MC: usize = 64;
/// Depth of the shared-K cache block; one packed A strip (`KC`×`MR`) fits
/// comfortably in L1, a packed B panel (`KC`×`NR`) in L2. An output
/// element's rounding depends only on `k` and this split, never on `m`,
/// `n` or the thread count.
pub const KC: usize = 256;
/// Columns of B per outer block; bounds packed-B scratch at `KC`×`NC`.
const NC: usize = 2048;
/// Element budget of one grouped convolution lowering: a conv lowers as
/// many consecutive samples into one `[C·k·k, g·oh·ow]` matrix as fit in
/// this many floats (128 KiB, an L2-sized operand), so small deep layers
/// run one wide GEMM per group instead of one narrow GEMM per sample.
/// A constant, not a knob: the group size sets the weight-gradient
/// summation order, so it must not vary with machine, thread count or
/// environment.
pub const GROUP_ELEMS: usize = 1 << 15;

#[inline(always)]
fn a_at(a: &[f32], m: usize, k: usize, i: usize, p: usize, trans: bool) -> f32 {
    if trans {
        // Stored k×m, logical element (i, p) lives at row p, column i.
        a[p * m + i]
    } else {
        a[i * k + p]
    }
}

#[inline(always)]
fn b_at(b: &[f32], k: usize, n: usize, p: usize, j: usize, trans: bool) -> f32 {
    if trans {
        // Stored n×k, logical element (p, j) lives at row j, column p.
        b[j * k + p]
    } else {
        b[p * n + j]
    }
}

/// Naive fallback for problems too small to amortize packing. Skips zero
/// multipliers, which matters for pruned (masked) weight matrices.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a_at(a, m, k, i, p, trans_a);
            if a_ip == 0.0 {
                continue;
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += a_ip * b_at(b, k, n, p, j, trans_b);
            }
        }
    }
}

/// Packs the `mc`×`kc` block of A starting at (`ic`, `pc`) into `MR`-row
/// strips: `ap[strip][p * MR + r] = A(ic + strip·MR + r, pc + p)`,
/// zero-padding rows past `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ap: &mut [f32],
    a: &[f32],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    trans: bool,
) {
    for (si, strip) in (0..mc).step_by(MR).enumerate() {
        let dst = &mut ap[si * kc * MR..(si + 1) * kc * MR];
        let rows = MR.min(mc - strip);
        for p in 0..kc {
            let cell = &mut dst[p * MR..p * MR + MR];
            for (r, slot) in cell.iter_mut().enumerate() {
                *slot = if r < rows {
                    a_at(a, m, k, ic + strip + r, pc + p, trans)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs the `kc`×`nc` block of B starting at (`pc`, `jc`) into `NR`-column
/// panels: `bp[panel][p * NR + c] = B(pc + p, jc + panel·NR + c)`,
/// zero-padding columns past `nc`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bp: &mut [f32],
    b: &[f32],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    trans: bool,
) {
    for (pj, jr) in (0..nc).step_by(NR).enumerate() {
        let dst = &mut bp[pj * kc * NR..(pj + 1) * kc * NR];
        let cols = NR.min(nc - jr);
        for p in 0..kc {
            let cell = &mut dst[p * NR..p * NR + NR];
            for (c, slot) in cell.iter_mut().enumerate() {
                *slot = if c < cols {
                    b_at(b, k, n, pc + p, jc + jr + c, trans)
                } else {
                    0.0
                };
            }
        }
    }
}

/// The register-tiled core: `acc[MR×NR] += Ap-strip · Bp-panel` over `kc`
/// depth steps. Both operands are packed contiguously, so the inner loops
/// are unit stride and the accumulator stays in registers.
#[inline(always)]
fn microkernel_portable(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    for p in 0..kc {
        let a_cell = &ap[p * MR..p * MR + MR];
        let b_cell = &bp[p * NR..p * NR + NR];
        for r in 0..MR {
            let a_rp = a_cell[r];
            let row = &mut acc[r * NR..r * NR + NR];
            for c in 0..NR {
                row[c] += a_rp * b_cell[c];
            }
        }
    }
}

/// AVX2+FMA microkernel, selected at runtime when the CPU supports it.
/// Holds the whole `MR`×`NR` accumulator in eight YMM registers; each
/// depth step is one packed-B load plus `MR` broadcast-FMAs, so the only
/// memory traffic in the hot loop is the two packed panels streaming
/// from L1/L2.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};

    // The single packed-B load per depth step assumes one YMM register
    // spans the full panel width.
    const _: () = assert!(MR == 8 && NR == 8);

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA (see
    /// [`available`]) and that `ap`/`bp` hold at least `kc * 8` elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
        use std::arch::x86_64::*;
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        let mut rows = [_mm256_setzero_ps(); MR];
        let mut a_ptr = ap.as_ptr();
        let mut b_ptr = bp.as_ptr();
        for _ in 0..kc {
            let b_vec = _mm256_loadu_ps(b_ptr);
            for (r, row) in rows.iter_mut().enumerate() {
                let a_rp = _mm256_broadcast_ss(&*a_ptr.add(r));
                *row = _mm256_fmadd_ps(a_rp, b_vec, *row);
            }
            a_ptr = a_ptr.add(MR);
            b_ptr = b_ptr.add(NR);
        }
        for (r, row) in rows.iter().enumerate() {
            let sum = _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(r * NR)), *row);
            _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), sum);
        }
    }

    /// True when the running CPU has AVX2 and FMA (cached by std).
    pub fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
}

/// Dispatches to the fastest microkernel the CPU supports. Dispatch is a
/// property of the machine, not the thread count, so determinism across
/// `HS_NUM_THREADS` settings is unaffected.
#[inline(always)]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        // SAFETY: feature presence checked above; packed panels are
        // allocated at `kc * MR` / `kc * NR` by the callers.
        unsafe { x86::microkernel(kc, ap, bp, acc) };
        return;
    }
    microkernel_portable(kc, ap, bp, acc);
}

/// Multiplies one `mc`-row block of the output: packs the corresponding A
/// block and sweeps the microkernel over every (strip, panel) pair,
/// accumulating valid regions into `out_block` (full `n`-wide rows,
/// columns `jc..jc + nc`).
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    out_block: &mut [f32],
    a: &[f32],
    bp: &[f32],
    m: usize,
    k: usize,
    n: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    trans_a: bool,
) {
    let strips = mc.div_ceil(MR);
    with_scratch(strips * kc * MR, |ap| {
        pack_a(ap, a, m, k, ic, mc, pc, kc, trans_a);
        for (si, strip) in (0..mc).step_by(MR).enumerate() {
            let ap_strip = &ap[si * kc * MR..(si + 1) * kc * MR];
            let rows = MR.min(mc - strip);
            for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                let bp_panel = &bp[pj * kc * NR..(pj + 1) * kc * NR];
                let cols = NR.min(nc - jr);
                let mut acc = [0.0f32; MR * NR];
                microkernel(kc, ap_strip, bp_panel, &mut acc);
                for r in 0..rows {
                    let dst = &mut out_block[(strip + r) * n + jc + jr..][..cols];
                    let src = &acc[r * NR..r * NR + cols];
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += v;
                    }
                }
            }
        }
    });
}

/// General matrix multiply into a caller-owned buffer:
/// `out[m×n] (+)= op(a) · op(b)` where `op` optionally transposes.
///
/// - `trans_a = false`: `a` is `m×k` row-major; `true`: `a` is stored
///   `k×m` and used as its transpose.
/// - `trans_b = false`: `b` is `k×n` row-major; `true`: `b` is stored
///   `n×k` and used as its transpose.
/// - `accumulate = false` overwrites `out`; `true` adds to it (gradient
///   accumulation without a temporary).
///
/// Large problems run on the persistent worker pool; results are
/// bit-identical for every thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match `m`/`k`/`n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ex(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_ex: lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm_ex: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_ex: out length mismatch");
    if !accumulate {
        out.fill(0.0);
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let work = m * k * n;
    telem::gemm_calls().inc();
    telem::gemm_flops().add(2 * work as u64);
    if work < SMALL_THRESHOLD {
        // No timing here: two clock reads would be measurable against a
        // few thousand multiply-accumulates.
        gemm_small(out, a, b, m, k, n, trans_a, trans_b);
        return;
    }
    let timer = std::time::Instant::now();
    // Serial problems use one row block covering all of `m`; because MC is
    // a multiple of MR the strip decomposition (and hence every float
    // result) is identical either way.
    let block_rows = if work >= PARALLEL_THRESHOLD {
        MC
    } else {
        m.div_ceil(MR) * MR
    };
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            with_scratch(panels * kc * NR, |bp| {
                pack_b(bp, b, k, n, pc, kc, jc, nc, trans_b);
                let bp = &*bp;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                    .chunks_mut(block_rows * n)
                    .enumerate()
                    .map(|(bi, out_block)| {
                        let ic = bi * block_rows;
                        let mc = out_block.len() / n;
                        Box::new(move || {
                            gemm_block(out_block, a, bp, m, k, n, ic, mc, pc, kc, jc, nc, trans_a);
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool::run_tasks(tasks);
            });
        }
    }
    telem::gemm_secs().observe(timer.elapsed().as_secs_f64());
}

impl Tensor {
    /// Matrix product `self · rhs` of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if either operand is not
    /// rank 2 or the inner dimensions disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use hs_tensor::{Tensor, Shape};
    /// # fn main() -> Result<(), hs_tensor::TensorError> {
    /// let a = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
    /// let id = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0])?;
    /// assert_eq!(a.matmul(&id)?, a);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op: "matmul",
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out,
            self.data(),
            rhs.data(),
            m,
            k,
            n,
            false,
            false,
            false,
        );
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// With `self: k×m` and `rhs: k×n`, the result is `m×n`. This is the
    /// shape pattern of weight gradients (`Xᵀ·dY`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on rank or inner-dimension
    /// mismatch.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let (k, m) = (self.shape().dim(0), self.shape().dim(1));
        let (k2, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out,
            self.data(),
            rhs.data(),
            m,
            k,
            n,
            true,
            false,
            false,
        );
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// `self · rhsᵀ` without materializing the transpose.
    ///
    /// With `self: m×k` and `rhs: n×k`, the result is `m×n`. This is the
    /// shape pattern of input gradients (`dY·Wᵀ` for `Y = X·W`… stored
    /// row-major as `W: n×k`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on rank or inner-dimension
    /// mismatch.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let (n, k2) = (rhs.shape().dim(0), rhs.shape().dim(1));
        if k != k2 {
            return Err(mismatch());
        }
        let mut out = vec![0.0f32; m * n];
        gemm_ex(
            &mut out,
            self.data(),
            rhs.data(),
            m,
            k,
            n,
            false,
            true,
            false,
        );
        Tensor::from_vec(Shape::d2(m, n), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        Tensor::from_fn(Shape::d2(m, n), |idx| {
            (0..k)
                .map(|p| a.at(&[idx[0], p]) * b.at(&[p, idx[1]]))
                .sum()
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let mut rng = Rng::seed_from(1);
        let a = Tensor::randn(Shape::d2(5, 7), &mut rng);
        let b = Tensor::randn(Shape::d2(7, 4), &mut rng);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, &b), 1e-5);
    }

    #[test]
    fn matmul_matches_naive_parallel_path() {
        let mut rng = Rng::seed_from(2);
        // Big enough to exceed PARALLEL_THRESHOLD.
        let a = Tensor::randn(Shape::d2(128, 96), &mut rng);
        let b = Tensor::randn(Shape::d2(96, 64), &mut rng);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::randn(Shape::d2(6, 6), &mut rng);
        let id = Tensor::from_fn(Shape::d2(6, 6), |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_close(&a.matmul(&id).unwrap(), &a, 1e-6);
        assert_close(&id.matmul(&a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 5));
        assert!(a.matmul(&b).is_err());
        let c = Tensor::zeros(Shape::d1(3));
        assert!(a.matmul(&c).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::randn(Shape::d2(9, 5), &mut rng);
        let b = Tensor::randn(Shape::d2(9, 6), &mut rng);
        let expected = a.transpose2().matmul(&b).unwrap();
        assert_close(&a.matmul_tn(&b).unwrap(), &expected, 1e-5);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = Rng::seed_from(5);
        let a = Tensor::randn(Shape::d2(4, 7), &mut rng);
        let b = Tensor::randn(Shape::d2(6, 7), &mut rng);
        let expected = a.matmul(&b.transpose2()).unwrap();
        assert_close(&a.matmul_nt(&b).unwrap(), &expected, 1e-5);
    }

    #[test]
    fn transposed_variants_reject_mismatch() {
        let a = Tensor::zeros(Shape::d2(3, 4));
        let b = Tensor::zeros(Shape::d2(5, 6));
        assert!(a.matmul_tn(&b).is_err());
        assert!(a.matmul_nt(&b).is_err());
    }

    #[test]
    fn zero_dimension_edge_cases() {
        let a = Tensor::zeros(Shape::d2(0, 3));
        let b = Tensor::zeros(Shape::d2(3, 2));
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::d2(0, 2));
    }

    /// Scalar reference supporting every `gemm_ex` flag combination.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ta: bool,
        tb: bool,
        acc: bool,
    ) {
        if !acc {
            out.fill(0.0);
        }
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a_at(a, m, k, i, p, ta) * b_at(b, k, n, p, j, tb);
                }
                out[i * n + j] += s;
            }
        }
    }

    #[test]
    fn gemm_ex_all_variants_match_reference_on_awkward_dims() {
        let mut rng = Rng::seed_from(6);
        // Prime-ish dims exercise every edge-padding path in the packers;
        // 97·61·53 exceeds PARALLEL_THRESHOLD so the pooled path runs too.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (17, 13, 19),
            (31, 7, 29),
            (97, 61, 53),
        ] {
            let av: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let bv: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            for &(ta, tb) in &[(false, false), (true, false), (false, true)] {
                for &acc in &[false, true] {
                    let mut got: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
                    let mut want = got.clone();
                    gemm_ex(&mut got, &av, &bv, m, k, n, ta, tb, acc);
                    reference(&mut want, &av, &bv, m, k, n, ta, tb, acc);
                    for (g, w) in got.iter().zip(&want) {
                        assert!(
                            (g - w).abs() <= 1e-4 * (1.0 + g.abs().max(w.abs())),
                            "m={m} k={k} n={n} ta={ta} tb={tb} acc={acc}: {g} vs {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_ex_accumulate_adds_to_existing_output() {
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(Shape::d2(6, 4), &mut rng);
        let b = Tensor::randn(Shape::d2(4, 5), &mut rng);
        let product = a.matmul(&b).unwrap();
        let mut out = vec![1.0f32; 6 * 5];
        gemm_ex(&mut out, a.data(), b.data(), 6, 4, 5, false, false, true);
        for (o, p) in out.iter().zip(product.data()) {
            assert!((o - (p + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn repeated_calls_are_bit_identical() {
        // Same problem twice through the pooled path must produce the very
        // same bits (task partition is independent of scheduling).
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(Shape::d2(128, 80), &mut rng);
        let b = Tensor::randn(Shape::d2(80, 72), &mut rng);
        let first = a.matmul(&b).unwrap();
        for _ in 0..4 {
            assert_eq!(a.matmul(&b).unwrap().data(), first.data());
        }
    }
}
