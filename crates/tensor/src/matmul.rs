//! Matrix multiplication: the workhorse kernel behind convolution and
//! fully connected layers.
//!
//! The implementation is a BLIS-style cache-blocked GEMM. B is packed once
//! per call into `NR`-column panels spanning the whole depth; A is read in
//! place, one `MR`-row strip at a time, through per-row offsets and a
//! depth stride, so a conv forward never copies its filter bank. An
//! `MR`×`NR` register-tiled microkernel multiplies a strip by a panel over
//! one `KC` block. Large problems parallelize over disjoint row blocks of
//! the output on the persistent [`crate::pool`] — one batch per packed
//! block of B, so one per call unless B outgrows `KC`×`NC` floats — and
//! small problems fall back to a naive loop that skips packing overhead.
//!
//! B is either a dense matrix ([`gemm_ex`]) or a convolution's patch
//! matrix read straight from the image ([`gemm_patches`], the implicit
//! GEMM of cuDNN): the packer writes each panel from the `[g, C, H, W]`
//! input, and the naive loop reads the same packed panels, so the
//! `[C·k·k, g·oh·ow]` matrix is never built. Either way every packed
//! float lands in the same panel slot with the same value, and the
//! microkernel cannot tell the two apart.
//!
//! The microkernel walks a depth table rather than a depth range: a
//! whole block's table is `0, s, 2s, …`, and a forward patch panel may
//! leave out the depths it knows are zero (taps that read only padding,
//! channels zero across the group) and pack only its live cells, with a
//! table listing their depths. The `KC` blocks keep their boundaries and
//! every surviving product its place in the sum, so the bits do not
//! change.
//!
//! All transpose variants (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are handled through the
//! strip addressing and the B packing, so backpropagation never
//! materializes a transposed copy, and `accumulate = true` adds into an
//! existing output buffer (used to accumulate weight gradients in place).
//!
//! # Determinism
//!
//! Every output element is owned by exactly one parallel task. The task
//! adds the element's `KC`-block partial sums into it in block order, and
//! the microkernel sums each block's depth steps in order. Neither the row
//! block, the column block nor the strip lane changes those sums: a ragged
//! last strip re-reads the last valid row into its spare lanes and
//! discards them. Results are bit-identical for any `HS_NUM_THREADS`.

use crate::error::TensorError;
use crate::im2col::Patches;
use crate::pool;
use crate::shape::Shape;
use crate::telem;
use crate::tensor::Tensor;
use crate::workspace::{with_scratch, with_vec};
use crate::Conv2dGeometry;
use std::cell::Cell;

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
/// Rows of A per parallel row block (a multiple of `MR`, so strips never
/// straddle a block boundary).
const MC: usize = 64;
/// Depth of the shared-K cache block; one A strip (`KC`×`MR`) fits
/// comfortably in L1, a packed B panel block (`KC`×`NR`) in L2. An output
/// element's rounding depends only on `k` and this split, never on `m`,
/// `n` or the thread count.
pub const KC: usize = 256;
/// Packed B holds at most `KC`×`NC` floats: a call packs the widest
/// `NR`-multiple of columns whose full-depth panels fit, one column block
/// (and one pool batch) at a time.
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

/// The B operand of a GEMM: a dense `k`×`n` matrix (stored `n`×`k` when
/// transposed), or a patch matrix read from its image (transposed for the
/// weight gradient's `dY·colᵀ`).
#[derive(Clone, Copy)]
enum Rhs<'a> {
    Dense(&'a [f32]),
    Patches(Patches<'a>),
}

/// Naive fallback for problems too small to amortize packing, reading
/// B through `b_at(p, j)`. Skips zero multipliers, which matters for
/// pruned (masked) weight matrices.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    out: &mut [f32],
    a: &[f32],
    b_at: impl Fn(usize, usize) -> f32,
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a_at(a, m, k, i, p, trans_a);
            if a_ip == 0.0 {
                continue;
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += a_ip * b_at(p, j);
            }
        }
    }
}

/// One `MR`-row strip of op(A) over one `KC` block, read in place: lane
/// `r` at depth `p` is `a[rows[r] + p * stride]`. Lanes past a ragged last
/// strip repeat the last valid row; their results are discarded.
struct Strip<'a> {
    a: &'a [f32],
    rows: [usize; MR],
    stride: usize,
    kc: usize,
}

impl<'a> Strip<'a> {
    /// The strip of rows `i..i + MR` at depths `pc..pc + kc`: row offsets
    /// step by `k` and depth by 1 for `A` (`m`×`k`), and the other way
    /// round for `Aᵀ` (stored `k`×`m`).
    fn new(a: &'a [f32], m: usize, k: usize, i: usize, pc: usize, kc: usize, trans: bool) -> Self {
        let (row_step, stride) = if trans { (1, m) } else { (k, 1) };
        let a = &a[pc * stride..];
        let rows = std::array::from_fn(|r| (i + r).min(m - 1) * row_step);
        // Offsets never decrease, so this bounds every read of the strip;
        // the AVX2 kernel relies on it for its unchecked loads.
        assert!(rows[MR - 1] + (kc - 1) * stride < a.len());
        Strip {
            a,
            rows,
            stride,
            kc,
        }
    }

    /// The largest depth offset a table may hold for this strip: its last
    /// depth, `(kc - 1)·stride`.
    fn reach(&self) -> usize {
        (self.kc - 1) * self.stride
    }
}

/// A microkernel: `acc[MR×NR] += strip · panel` over a depth table. Step
/// `j` multiplies lane `r`'s `a[rows[r] + offs[j]]` by the panel's cell
/// `j`, `NR` floats at `j·NR`. A table is pre-multiplied by the strip's
/// depth stride: a dense block passes `0, stride, 2·stride, …`, and a
/// compacted one only the depths its panel keeps.
///
/// # Safety
///
/// `offs` must ascend: the AVX2 kernel bounds its unchecked loads by the
/// table's last entry alone.
type Kernel = unsafe fn(&Strip<'_>, &[u32], &[f32], &mut [f32; MR * NR]);

/// A column block of B packed for the microkernel: panel `pj`'s `KC`
/// block at depth `pc` starts at cell `pj·k + pc` of `cells` (a cell is
/// `NR` floats, one depth). When the packer left depths out, `tables`
/// starts with one entry per (panel, `KC` block): 0 for a block packed
/// whole, else the index `t` of its table, which holds the block's live
/// count at `tables[t]` and then the depth offset from `pc` of each live
/// cell, in the order the cells sit from the block's first. Without
/// tables every block is whole.
struct Packed<'a> {
    cells: &'a [f32],
    tables: &'a [u32],
}

impl Packed<'_> {
    /// The depth table and cells of panel `pj`'s `kc`-deep block at `pc`
    /// of a `k`-deep product; `dense` is the table of a whole block.
    fn block<'t>(
        &'t self,
        pj: usize,
        pc: usize,
        kc: usize,
        k: usize,
        dense: &'t [u32; KC],
    ) -> (&'t [u32], &'t [f32]) {
        let offs = match self.tables.get(pj * k.div_ceil(KC) + pc / KC) {
            Some(&t) if t != 0 => {
                let t = t as usize;
                &self.tables[t + 1..][..self.tables[t] as usize]
            }
            _ => &dense[..kc],
        };
        (offs, &self.cells[(pj * k + pc) * NR..][..offs.len() * NR])
    }
}

thread_local! {
    /// The calling thread's [`Packed::tables`].
    static TABLES: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    /// The channels of a patch group that hold a nonzero value.
    static LIVE_CHANNELS: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    /// The taps of a panel that some lane reads inside the image.
    static LIVE_TAPS: Cell<Vec<TapLanes>> = const { Cell::new(Vec::new()) };
}

/// Packs columns `jc..jc + nc` of op(B) into `NR`-column panels over the
/// full depth: `bp[panel][p * NR + c] = B(p, jc + panel·NR + c)`,
/// zero-padding columns past `nc`. Depth `pc` of panel `pj` therefore
/// starts at `(pj·k + pc)·NR`.
fn pack_b(bp: &mut [f32], b: Rhs<'_>, k: usize, n: usize, jc: usize, nc: usize, trans: bool) {
    let b = match b {
        Rhs::Dense(b) => b,
        Rhs::Patches(patches) if trans => return pack_patches_t(bp, &patches, jc, nc),
        Rhs::Patches(patches) => {
            pack_patches(bp, &patches, jc, nc, None);
            return;
        }
    };
    for (pj, jr) in (0..nc).step_by(NR).enumerate() {
        let dst = &mut bp[pj * k * NR..(pj + 1) * k * NR];
        let cols = NR.min(nc - jr);
        for p in 0..k {
            let cell = &mut dst[p * NR..p * NR + NR];
            for (c, slot) in cell.iter_mut().enumerate() {
                *slot = if c < cols {
                    b_at(b, k, n, p, jc + jr + c, trans)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Where the lanes of one patch panel read tap `tap = ky·k + kx`: each
/// lane's offset into channel 0 of the group, and a mask that keeps the
/// pixel's bits inside the image and none on padding or past the panel's
/// columns (a dropped lane loads pixel 0 and reads `+0.0`). With `run`,
/// the `NR` lanes read consecutive pixels from lane 0's offset.
#[derive(Clone, Copy)]
struct TapLanes {
    tap: usize,
    at: [usize; NR],
    keep: [u32; NR],
    run: bool,
}

impl TapLanes {
    /// Writes the tap's cell of one channel, `image` being that channel's
    /// plane in the group's first sample.
    #[inline(always)]
    fn fill(&self, cell: &mut [f32], image: &[f32]) {
        if self.run {
            cell.copy_from_slice(&image[self.at[0]..self.at[0] + NR]);
        } else {
            for l in 0..NR {
                cell[l] = f32::from_bits(image[self.at[l]].to_bits() & self.keep[l]);
            }
        }
    }
}

/// One patch panel's lanes: each lane's sample and the padded-image corner
/// of its window, the number of lanes inside the column block, and
/// whether all `NR` read one image row at stride 1.
struct PanelLanes {
    corner: [(usize, usize, usize); NR],
    lanes: usize,
    one_row: bool,
}

impl PanelLanes {
    /// The lanes of the panel whose first column is `col`, `lanes` of them
    /// inside the column block. Columns run sample-major (`s·oh·ow + q`) or,
    /// for a position-major view, position-major (`q·samples + s`).
    #[inline(always)]
    fn new(patches: &Patches<'_>, col: usize, lanes: usize) -> Self {
        let g = &patches.geom;
        let (oh, ow, samples) = (g.out_h(), g.out_w(), patches.samples);
        let (mut s, q) = if patches.position_major {
            (col % samples, col / samples)
        } else {
            (col / (oh * ow), col % (oh * ow))
        };
        let (mut oy, mut ox) = (q / ow, q % ow);
        let corner: [(usize, usize, usize); NR] = std::array::from_fn(|_| {
            let lane = (s, oy * g.stride, ox * g.stride);
            if patches.position_major {
                s += 1;
                if s == samples {
                    (s, ox) = (0, ox + 1);
                }
            } else {
                ox += 1;
            }
            if ox == ow {
                (oy, ox) = (oy + 1, 0);
                if oy == oh && !patches.position_major {
                    (s, oy) = (s + 1, 0);
                }
            }
            lane
        });
        let (s0, y0, x0) = corner[0];
        let one_row = g.stride == 1 && lanes == NR && corner[NR - 1] == (s0, y0, x0 + NR - 1);
        PanelLanes {
            corner,
            lanes,
            one_row,
        }
    }

    /// Where the lanes read tap `(ky, kx)`.
    #[inline(always)]
    fn tap(&self, g: &Conv2dGeometry, ky: usize, kx: usize) -> TapLanes {
        let (rows, cols) = (g.padding..g.padding + g.in_h, g.padding..g.padding + g.in_w);
        let (_, y0, x0) = self.corner[0];
        let run = self.one_row
            && rows.contains(&(y0 + ky))
            && cols.contains(&(x0 + kx))
            && cols.contains(&(x0 + kx + NR - 1));
        let mut lanes = TapLanes {
            tap: ky * g.kernel + kx,
            at: [0; NR],
            keep: [0; NR],
            run,
        };
        let take = if run { 1 } else { self.lanes };
        for (l, &(s, y, x)) in self.corner.iter().enumerate().take(take) {
            if rows.contains(&(y + ky)) && cols.contains(&(x + kx)) {
                let pixel = (y + ky - g.padding) * g.in_w + x + kx - g.padding;
                lanes.at[l] = s * g.input_len() + pixel;
                lanes.keep[l] = u32::MAX;
            }
        }
        lanes
    }

    /// Packs the panel whole, tap by tap: the tap's lanes are worked out
    /// once and reused across all `C` channels.
    #[inline(never)]
    fn pack_whole(&self, panel: &mut [f32], patches: &Patches<'_>) {
        let g = &patches.geom;
        let (taps, plane) = (g.kernel * g.kernel, g.in_h * g.in_w);
        for ky in 0..g.kernel {
            for kx in 0..g.kernel {
                let tap = self.tap(g, ky, kx);
                for c in 0..g.in_channels {
                    // Depth `c·k·k + tap`.
                    let cell = &mut panel[(c * taps + tap.tap) * NR..][..NR];
                    tap.fill(cell, &patches.input[c * plane..]);
                }
            }
        }
    }

    /// True when some lane reads tap `(ky, kx)` inside the image.
    #[inline(always)]
    fn reads_image(&self, g: &Conv2dGeometry, ky: usize, kx: usize) -> bool {
        let (rows, cols) = (g.padding..g.padding + g.in_h, g.padding..g.padding + g.in_w);
        self.corner[..self.lanes]
            .iter()
            .any(|&(_, y, x)| rows.contains(&(y + ky)) && cols.contains(&(x + kx)))
    }

    /// True when some lane's whole window lies inside the image, so no tap
    /// reads only padding.
    #[inline(always)]
    fn has_inner_window(&self, g: &Conv2dGeometry) -> bool {
        let (rows, cols) = (g.padding..g.padding + g.in_h, g.padding..g.padding + g.in_w);
        let last = g.kernel - 1;
        self.corner[..self.lanes].iter().any(|&(_, y, x)| {
            rows.contains(&y)
                && rows.contains(&(y + last))
                && cols.contains(&x)
                && cols.contains(&(x + last))
        })
    }
}

/// [`pack_b`] for the patch matrix, written from the image. A panel's
/// lanes are `NR` output positions. For each tap `(ky, kx)`, every lane's
/// offset into its sample, and whether it reads padding, is worked out
/// once and reused across all `C` channels; when the lanes read `NR`
/// consecutive interior pixels of one row (stride 1), each channel's
/// cell is one copy. Padding and lanes past `nc` read `+0.0`.
///
/// With `tables`, a panel also leaves out the depths it knows read only
/// zeros: the taps no lane reads inside the image, and the channels that
/// are zero in every sample of the group. Each `KC` block keeps its live
/// cells in depth order from its first cell and gets a depth table (see
/// [`Packed`]). A panel with no such depth is packed whole, as without
/// tables. Returns the left-out depths summed over the panels' lanes.
fn pack_patches(
    bp: &mut [f32],
    patches: &Patches<'_>,
    jc: usize,
    nc: usize,
    tables: Option<&mut Vec<u32>>,
) -> usize {
    let g = &patches.geom;
    let (k, depth) = (g.kernel, patches.rows());
    let (taps, plane, panels) = (k * k, g.in_h * g.in_w, nc.div_ceil(NR));
    let Some(tables) = tables else {
        if plane == 0 {
            // An empty image is all padding.
            bp[..panels * depth * NR].fill(0.0);
            return 0;
        }
        for (pj, jr) in (0..nc).step_by(NR).enumerate() {
            let lanes = PanelLanes::new(patches, jc + jr, NR.min(nc - jr));
            lanes.pack_whole(&mut bp[pj * depth * NR..(pj + 1) * depth * NR], patches);
        }
        return 0;
    };
    // One header entry per (panel, block), then a shared empty table that
    // every block of a left-out panel starts from.
    let blocks = depth.div_ceil(KC);
    tables.resize(panels * blocks, 0);
    let empty = tables.len() as u32;
    tables.push(0);
    if plane == 0 {
        tables[..panels * blocks].fill(empty);
        return nc * depth;
    }
    with_vec(&LIVE_CHANNELS, |channels| {
        patches.live_channels(channels);
        let all_channels = channels.len() == g.in_channels;
        with_vec(&LIVE_TAPS, |live_taps| {
            let mut skipped = 0;
            for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                let panel = &mut bp[pj * depth * NR..(pj + 1) * depth * NR];
                let lanes = PanelLanes::new(patches, jc + jr, NR.min(nc - jr));
                if all_channels && lanes.has_inner_window(g) {
                    lanes.pack_whole(panel, patches);
                    continue;
                }
                live_taps.clear();
                for ky in 0..k {
                    for kx in (0..k).filter(|&kx| lanes.reads_image(g, ky, kx)) {
                        live_taps.push(lanes.tap(g, ky, kx));
                    }
                }
                if all_channels && live_taps.len() == taps {
                    lanes.pack_whole(panel, patches);
                    continue;
                }
                // Room for a count per block and a depth per live cell.
                let start = tables.len();
                let live = channels.len() * live_taps.len();
                tables.resize(start + blocks + live, 0);
                let (header, region) = tables.split_at_mut(start);
                let header = &mut header[pj * blocks..(pj + 1) * blocks];
                header.fill(empty);
                // `at` is the block's count entry in `region`, `j` its cells.
                let (mut block, mut at, mut j, mut w) = (usize::MAX, 0, 0, 0);
                for &c in channels.iter() {
                    let image = &patches.input[c as usize * plane..];
                    for tap in live_taps.iter() {
                        let d = c as usize * taps + tap.tap;
                        if d / KC != block {
                            region[at] = j as u32;
                            (block, at, j) = (d / KC, w, 0);
                            header[block] = (start + w) as u32;
                            w += 1;
                        }
                        region[w] = (d - block * KC) as u32;
                        tap.fill(&mut panel[(block * KC + j) * NR..][..NR], image);
                        (j, w) = (j + 1, w + 1);
                    }
                }
                region[at] = j as u32;
                tables.truncate(start + w);
                skipped += (depth - live) * lanes.lanes;
            }
            if skipped == 0 {
                // Every panel is whole: no tables to read.
                tables.clear();
            }
            skipped
        })
    })
}

/// [`pack_b`] for the transposed patch matrix, the weight gradient's
/// `colᵀ`: its panels' lanes are `NR` patch rows and their depth runs over
/// every output position of every sample. Packs `NR` positions at a time
/// as one [`pack_patches`] panel, then writes that panel's `NR`×`NR`
/// tiles transposed; lanes past `nc` read `+0.0`.
fn pack_patches_t(bp: &mut [f32], patches: &Patches<'_>, jc: usize, nc: usize) {
    let (rows, depth) = (patches.rows(), patches.cols());
    with_scratch(rows * NR, |tile| {
        for q0 in (0..depth).step_by(NR) {
            let positions = NR.min(depth - q0);
            pack_patches(tile, patches, q0, positions, None);
            for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                let block: [[f32; NR]; NR] = std::array::from_fn(|c| {
                    if jr + c < nc {
                        std::array::from_fn(|l| tile[(jc + jr + c) * NR + l])
                    } else {
                        [0.0; NR]
                    }
                });
                let panel = &mut bp[(pj * depth + q0) * NR..][..positions * NR];
                for (l, cell) in panel.chunks_exact_mut(NR).enumerate() {
                    for (slot, row) in cell.iter_mut().zip(&block) {
                        *slot = row[l];
                    }
                }
            }
        }
    });
}

/// The portable register-tiled core. The panel is unit stride and the
/// accumulator stays in registers; A costs one table-offset scalar load
/// per lane and depth step.
fn microkernel_portable(s: &Strip<'_>, offs: &[u32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    for (&off, b_cell) in offs.iter().zip(bp.chunks_exact(NR)) {
        for r in 0..MR {
            let a_rp = s.a[s.rows[r] + off as usize];
            let row = &mut acc[r * NR..r * NR + NR];
            for c in 0..NR {
                row[c] += a_rp * b_cell[c];
            }
        }
    }
}

/// AVX2+FMA microkernel, selected at runtime when the CPU supports it.
/// Holds the whole `MR`×`NR` accumulator in eight YMM registers; each
/// depth step is one packed-B load plus `MR` broadcast-FMAs from the
/// strip's rows, so the hot loop streams the B panel and `MR` rows of A.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Strip, MR, NR};

    // The single packed-B load per depth step assumes one YMM register
    // spans the full panel width.
    const _: () = assert!(MR == 8 && NR == 8);

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA (see
    /// [`available`]), that `bp` holds at least `offs.len() * 8`
    /// elements, and that `offs` ascends with its last entry at most
    /// [`Strip::reach`]. The strip's loads `s.a[s.rows[r] + offs[j]]` are
    /// unchecked: they stay in bounds because [`Strip::new`] asserts the
    /// largest reachable one, `rows[MR - 1] + (kc - 1) * stride`, is below
    /// `s.a.len()`, and no entry exceeds the table's last.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn fma_kernel(s: &Strip<'_>, offs: &[u32], bp: &[f32], acc: &mut [f32; MR * NR]) {
        use std::arch::x86_64::*;
        let mut rows = [_mm256_setzero_ps(); MR];
        let a_rows = s.rows.map(|o| s.a.as_ptr().add(o));
        let mut b_ptr = bp.as_ptr();
        for &off in offs {
            let b_vec = _mm256_loadu_ps(b_ptr);
            for (row, a_row) in rows.iter_mut().zip(&a_rows) {
                let a_rp = _mm256_broadcast_ss(&*a_row.add(off as usize));
                *row = _mm256_fmadd_ps(a_rp, b_vec, *row);
            }
            b_ptr = b_ptr.add(NR);
        }
        for (r, row) in rows.iter().enumerate() {
            let sum = _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(r * NR)), *row);
            _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), sum);
        }
    }

    /// The AVX2+FMA kernel. Checks the table's last entry only: checking
    /// each entry on each call would cost the kernel its speed.
    ///
    /// # Safety
    ///
    /// `offs` must ascend, as [`super::Kernel`] requires.
    pub unsafe fn microkernel(s: &Strip<'_>, offs: &[u32], bp: &[f32], acc: &mut [f32; MR * NR]) {
        let last = offs.last().map_or(0, |&off| off as usize);
        assert!(available() && bp.len() >= offs.len() * NR && last <= s.reach());
        debug_assert!(offs.is_sorted());
        // SAFETY: features, panel length and the table's last entry are
        // checked above, and the caller guarantees that entry is the
        // largest; the strip's reads are bounded by `Strip::new`.
        unsafe { fma_kernel(s, offs, bp, acc) }
    }

    /// True when the running CPU has AVX2 and FMA (cached by std).
    pub fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
}

/// The fastest microkernel the CPU supports. Dispatch is a property of the
/// machine, not the thread count, so determinism across `HS_NUM_THREADS`
/// settings is unaffected.
fn best_kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return x86::microkernel;
    }
    microkernel_portable
}

/// Multiplies one row block of the output (`out_block`: full `n`-wide rows
/// from row `ic`) by packed columns `jc..jc + nc` of B. Walks the `KC`
/// blocks in order and sweeps the microkernel over every (strip, panel)
/// pair of each, through the panel block's depth table (`dense` for a
/// whole block), adding valid regions into `out_block`.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    kernel: Kernel,
    out_block: &mut [f32],
    a: &[f32],
    bp: &Packed<'_>,
    dense: &[u32; KC],
    m: usize,
    k: usize,
    n: usize,
    ic: usize,
    jc: usize,
    nc: usize,
    trans_a: bool,
) {
    let mc = out_block.len() / n;
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for strip in (0..mc).step_by(MR) {
            let a_strip = Strip::new(a, m, k, ic + strip, pc, kc, trans_a);
            let rows = MR.min(mc - strip);
            for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                let (offs, bp_panel) = bp.block(pj, pc, kc, k, dense);
                let cols = NR.min(nc - jr);
                let mut acc = [0.0f32; MR * NR];
                // SAFETY: every table ascends: `dense` is `0, s, 2s, …`,
                // and `pack_patches` lists a block's live depths in order.
                unsafe { kernel(&a_strip, offs, bp_panel, &mut acc) };
                for r in 0..rows {
                    let dst = &mut out_block[(strip + r) * n + jc + jr..][..cols];
                    let src = &acc[r * NR..r * NR + cols];
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += v;
                    }
                }
            }
        }
    }
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
    assert_eq!(b.len(), k * n, "gemm_ex: rhs length mismatch");
    gemm_with(
        best_kernel(),
        out,
        a,
        Rhs::Dense(b),
        m,
        k,
        n,
        trans_a,
        trans_b,
        accumulate,
    );
}

/// [`gemm_ex`] with B a convolution's patch matrix, read straight from the
/// image: `out[m×n] (+)= a[m×k] · col` with `col` the `[C·k·k, g·oh·ow]`
/// patch matrix of `patches`, or `· colᵀ` when `trans_b` is set (the
/// weight gradient `dW += dY·colᵀ`). The patch matrix is never built; the
/// product's bits equal [`gemm_ex`] over the materialized matrix for
/// finite `a`. A blocked `· col` leaves out the depths each panel reads
/// only as padding or from channels that are zero in every sample, and
/// counts them in `hs_tensor_gemm_skipped_flops_total`; skipping a zero
/// product changes no bits, but a non-finite weight no longer turns the
/// outputs it would have multiplied by those zeros into NaN.
///
/// # Panics
///
/// Panics if `a` is not `m×k` or `out` not `m×n` for the patch matrix's
/// `k` and `n`.
pub fn gemm_patches(
    out: &mut [f32],
    a: &[f32],
    m: usize,
    patches: &Patches<'_>,
    trans_b: bool,
    accumulate: bool,
) {
    let (rows, cols) = (patches.rows(), patches.cols());
    let (k, n) = if trans_b { (cols, rows) } else { (rows, cols) };
    // The patch bytes this product lowers: the size of the matrix an
    // explicit im2col would have built.
    telem::im2col_calls().inc();
    telem::im2col_bytes().add((rows * cols * std::mem::size_of::<f32>()) as u64);
    gemm_with(
        best_kernel(),
        out,
        a,
        Rhs::Patches(*patches),
        m,
        k,
        n,
        false,
        trans_b,
        accumulate,
    );
}

/// The GEMM behind both [`gemm_ex`] and [`gemm_patches`], with the
/// microkernel as a parameter so tests can run each kernel on any host
/// that supports it. `b`'s extent is checked by the callers.
#[allow(clippy::too_many_arguments)]
fn gemm_with(
    kernel: Kernel,
    out: &mut [f32],
    a: &[f32],
    b: Rhs<'_>,
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_ex: lhs length mismatch");
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
        match b {
            Rhs::Dense(b) => {
                let dense = |p, j| b_at(b, k, n, p, j, trans_b);
                gemm_small(out, a, dense, m, k, n, trans_a);
            }
            // A patch operand is read from its packed panels, which hold
            // the values the dense operand would.
            Rhs::Patches(_) => with_scratch(n.div_ceil(NR) * NR * k, |bp| {
                pack_b(bp, b, k, n, 0, n, trans_b);
                let packed = |p, j| bp[(j / NR * k + p) * NR + j % NR];
                gemm_small(out, a, packed, m, k, n, trans_a);
            }),
        }
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
    let block_cols = (KC * NC / k / NR * NR).max(NR);
    // The table of a whole block. A patch product's compacted tables hold
    // bare depths, so it must read A at depth stride 1.
    let stride = if trans_a { m } else { 1 };
    assert!(stride == 1 || matches!(b, Rhs::Dense(_)));
    assert!(
        (KC - 1) * stride <= u32::MAX as usize,
        "gemm_ex: A too tall"
    );
    let dense: [u32; KC] = std::array::from_fn(|p| (p * stride) as u32);
    let mut skipped = 0;
    with_vec(&TABLES, |tables| {
        for jc in (0..n).step_by(block_cols) {
            let nc = block_cols.min(n - jc);
            with_scratch(nc.div_ceil(NR) * NR * k, |bp| {
                tables.clear();
                skipped += match b {
                    Rhs::Patches(patches) if !trans_b => {
                        pack_patches(bp, &patches, jc, nc, Some(tables))
                    }
                    _ => {
                        pack_b(bp, b, k, n, jc, nc, trans_b);
                        0
                    }
                };
                let packed = Packed { cells: bp, tables };
                let (bp, dense) = (&packed, &dense);
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                    .chunks_mut(block_rows * n)
                    .enumerate()
                    .map(|(bi, out_block)| {
                        let ic = bi * block_rows;
                        Box::new(move || {
                            gemm_block(
                                kernel, out_block, a, bp, dense, m, k, n, ic, jc, nc, trans_a,
                            );
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool::run_tasks(tasks);
            });
        }
    });
    if skipped > 0 {
        telem::gemm_skipped_flops().add(2 * (m * skipped) as u64);
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
        self.product(rhs, "matmul", false, false)
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
        self.product(rhs, "matmul_tn", true, false)
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
        self.product(rhs, "matmul_nt", false, true)
    }

    /// `op(self) · op(rhs)` into a new tensor, checking ranks and the
    /// inner dimension first; `op` transposes where its flag is set.
    fn product(
        &self,
        rhs: &Tensor,
        op: &'static str,
        trans_a: bool,
        trans_b: bool,
    ) -> Result<Tensor, TensorError> {
        let mismatch = || TensorError::ShapeMismatch {
            op,
            lhs: self.shape().clone(),
            rhs: rhs.shape().clone(),
        };
        if self.shape().rank() != 2 || rhs.shape().rank() != 2 {
            return Err(mismatch());
        }
        let [(m, k), (k2, n)] = [(self, trans_a), (rhs, trans_b)].map(|(t, trans)| {
            let (rows, cols) = (t.shape().dim(0), t.shape().dim(1));
            if trans {
                (cols, rows)
            } else {
                (rows, cols)
            }
        });
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
            trans_a,
            trans_b,
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

    /// Every microkernel this host can run.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", microkernel_portable)];
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            kernels.push(("avx2", x86::microkernel));
        }
        kernels
    }

    #[test]
    fn every_kernel_matches_reference_on_ragged_shapes() {
        // Dims on and around the MR/NR/KC multiples: clamped last strips
        // (whose spare lanes read A's final element in both layouts),
        // zero-padded last panels and ragged last KC blocks. The products
        // run from the naive path to the pooled one. The last shape's
        // packed B outgrows KC×NC floats, so it runs as two column blocks.
        let grid = [1, 7, 8, 9, 63, 65, 129].into_iter().flat_map(|m| {
            [1, KC - 1, KC, KC + 1, 2 * KC + 3]
                .into_iter()
                .flat_map(move |k| [1, 4, 7, 8, 9, 33].map(|n| (m, k, n)))
        });
        const { assert!(SMALL_THRESHOLD > 9 * 9 * 9 && 129 * KC * 33 > PARALLEL_THRESHOLD) };
        const { assert!((KC + 1) * 2100 > KC * NC) };
        let mut rng = Rng::seed_from(10);
        for (m, k, n) in grid.chain([(9, KC + 1, 2100)]) {
            let av: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let bv: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            for (ta, tb) in [(false, false), (true, false), (false, true)] {
                for acc in [false, true] {
                    let init: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
                    let mut want = init.clone();
                    reference(&mut want, &av, &bv, m, k, n, ta, tb, acc);
                    for (name, kernel) in kernels() {
                        let mut got = init.clone();
                        gemm_with(kernel, &mut got, &av, Rhs::Dense(&bv), m, k, n, ta, tb, acc);
                        for (g, w) in got.iter().zip(&want) {
                            assert!(
                                (g - w).abs() <= 1e-4 * (1.0 + g.abs().max(w.abs())),
                                "{name} m={m} k={k} n={n} ta={ta} tb={tb} acc={acc}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn last_strip_bound_is_exactly_the_last_element() {
        // The bound `Strip::new` asserts is tight: the final strip of the
        // final KC block reaches A's last element, in either layout.
        for trans in [false, true] {
            let (m, k) = (13, KC + 5);
            let a = vec![0.0f32; m * k];
            let s = Strip::new(&a, m, k, m / MR * MR, KC, 5, trans);
            assert_eq!(KC * s.stride + s.rows[MR - 1] + 4 * s.stride, m * k - 1);
        }
    }

    /// `(C, H, W, k, stride, padding, samples)` for the patch-operand
    /// tests: k = 1, 3, 5 and 11 at strides 1, 2 and 4 and padding 0 to
    /// 2 on H ≠ W inputs, then 1×1 and 2×2 maps at padding 1 with
    /// C·k·k > `KC` and oh·ow < `NR`, groups of 7 and 33 samples, an
    /// empty image that is all padding, and a patch matrix larger than
    /// `KC`×`NC` floats, which packs in two column blocks either way
    /// round.
    fn patch_geometries() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
        let mut grid = Vec::new();
        for k in [1, 3, 5, 11] {
            for stride in [1, 2, 4] {
                for pad in 0..=2 {
                    grid.push((2, k + 2, k + 5, k, stride, pad, 1 + pad));
                }
            }
        }
        grid.extend([
            (32, 1, 1, 3, 1, 1, 7),
            (32, 2, 2, 3, 1, 1, 33),
            (3, 5, 4, 3, 2, 1, 7),
            (2, 0, 3, 3, 1, 2, 3),
            (16, 64, 64, 3, 1, 1, 1),
        ]);
        grid
    }

    #[test]
    fn patch_operand_equals_gemm_ex_over_the_materialized_patches_bit_for_bit() {
        const { assert!(16 * 9 * 64 * 64 > KC * NC) };
        let mut rng = Rng::seed_from(12);
        let (mut naive, mut blocked) = (false, false);
        for (c, h, w, k, stride, pad, samples) in patch_geometries() {
            let geom = crate::Conv2dGeometry::new(c, h, w, k, stride, pad);
            let x = Tensor::randn(Shape::d4(samples, c, h, w), &mut rng);
            let patches = Patches::new(x.data(), &geom, samples);
            let (rows, cols) = (patches.rows(), patches.cols());
            // The group's patch matrix, built sample by sample.
            let mut col = vec![0.0f32; rows * cols];
            for s in 0..samples {
                let sample = x.index_select(0, &[s]).unwrap();
                let own = crate::im2col(&sample.reshape(Shape::d3(c, h, w)).unwrap(), &geom);
                let own = own.unwrap();
                let per = geom.col_cols();
                for r in 0..rows {
                    col[r * cols + s * per..][..per].copy_from_slice(&own.data()[r * per..][..per]);
                }
            }
            for m in [3, 16] {
                for trans in [false, true] {
                    let (kk, n) = if trans { (cols, rows) } else { (rows, cols) };
                    // Every third weight zero, so the naive loop skips.
                    let a: Vec<f32> = (0..m * kk)
                        .map(|i| if i % 3 == 0 { 0.0 } else { rng.normal() })
                        .collect();
                    naive |= m * kk * n < SMALL_THRESHOLD;
                    blocked |= m * kk * n >= SMALL_THRESHOLD;
                    for acc in [false, true] {
                        let init: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
                        for (name, kernel) in kernels() {
                            let mut want = init.clone();
                            let dense = Rhs::Dense(&col);
                            gemm_with(kernel, &mut want, &a, dense, m, kk, n, false, trans, acc);
                            let mut got = init.clone();
                            let rhs = Rhs::Patches(patches);
                            gemm_with(kernel, &mut got, &a, rhs, m, kk, n, false, trans, acc);
                            let same = got
                                .iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            assert!(
                                same,
                                "{name} {geom:?} g={samples} m={m} trans={trans} acc={acc}"
                            );
                        }
                    }
                }
            }
        }
        assert!(naive && blocked, "both GEMM paths must run");
    }

    /// The `[C·k·k, samples·oh·ow]` patch matrix of `x`, element by
    /// element through [`crate::im2col`], its columns in `patches`' order.
    fn materialize(x: &Tensor, patches: &Patches<'_>) -> Vec<f32> {
        let (g, samples) = (&patches.geom, patches.samples);
        let (rows, cols, per) = (patches.rows(), patches.cols(), g.col_cols());
        let mut col = vec![0.0f32; rows * cols];
        for s in 0..samples {
            let sample = x.index_select(0, &[s]).unwrap();
            let shape = Shape::d3(g.in_channels, g.in_h, g.in_w);
            let own = crate::im2col(&sample.reshape(shape).unwrap(), g).unwrap();
            for r in 0..rows {
                for q in 0..per {
                    let j = if patches.position_major {
                        q * samples + s
                    } else {
                        s * per + q
                    };
                    col[r * cols + j] = own.data()[r * per + q];
                }
            }
        }
        col
    }

    #[test]
    fn skipped_depths_keep_the_bits_of_gemm_ex_over_the_materialized_patches() {
        // Every patch geometry, plus 1-px and 2-px maps of 7, 8, 9 and 33
        // samples, sample- and position-major (whose panels straddle two
        // positions unless the group is a multiple of `NR`), with random
        // channel subsets zeroed in every sample, some as -0.0. A channel
        // zero in every sample but the last stays live.
        let mut rng = Rng::seed_from(14);
        let mut cases = patch_geometries();
        for hw in [1, 2] {
            for samples in [7, 8, 9, 33] {
                cases.push((24, hw, hw, 3, 1, 1, samples));
            }
        }
        let (mut naive, mut blocked, mut skipped) = (false, false, false);
        let skips = || crate::telem::gemm_skipped_flops().get();
        for (c, h, w, k, stride, pad, samples) in cases {
            let geom = crate::Conv2dGeometry::new(c, h, w, k, stride, pad);
            let mut x = Tensor::randn(Shape::d4(samples, c, h, w), &mut rng);
            let dead: Vec<bool> = (0..c).map(|_| rng.uniform() < 0.4).collect();
            let partly = rng.below(c);
            let plane = h * w;
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                let (s, ch) = (i / (c * plane), i / plane % c);
                if dead[ch] {
                    *v = if i % 5 == 0 { -0.0 } else { 0.0 };
                } else if ch == partly && s + 1 < samples {
                    *v = 0.0;
                }
            }
            for order in [false, true] {
                let mut patches = Patches::new(x.data(), &geom, samples);
                if order {
                    patches = patches.position_major();
                }
                let col = materialize(&x, &patches);
                let (kk, n) = (patches.rows(), patches.cols());
                for m in [3, 16] {
                    let a: Vec<f32> = (0..m * kk)
                        .map(|i| if i % 3 == 0 { 0.0 } else { rng.normal() })
                        .collect();
                    naive |= m * kk * n < SMALL_THRESHOLD;
                    blocked |= m * kk * n >= SMALL_THRESHOLD;
                    for acc in [false, true] {
                        let init: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
                        for (name, kernel) in kernels() {
                            let mut want = init.clone();
                            let dense = Rhs::Dense(&col);
                            gemm_with(kernel, &mut want, &a, dense, m, kk, n, false, false, acc);
                            let mut got = init.clone();
                            let before = skips();
                            let rhs = Rhs::Patches(patches);
                            gemm_with(kernel, &mut got, &a, rhs, m, kk, n, false, false, acc);
                            skipped |= skips() > before;
                            let same = got
                                .iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits());
                            assert!(
                                same,
                                "{name} {geom:?} g={samples} position-major={order} m={m} acc={acc}"
                            );
                        }
                    }
                }
            }
        }
        assert!(naive && blocked && skipped, "both paths must run, and skip");
    }

    /// FNV-1a over `gemm_ex` at the infer workload's conv shapes, in every
    /// transpose variant, overwriting and accumulating.
    fn infer_shapes_fingerprint() -> u64 {
        let mut rng = Rng::seed_from(9);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &(m, k, n) in &[
            (128, 1152, 4),
            (128, 1152, 16),
            (128, 1152, 28),
            (16, 27, 1024),
            (64, 576, 64),
        ] {
            let av: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let bv: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            for &(ta, tb) in &[(false, false), (true, false), (false, true)] {
                for acc in [false, true] {
                    let mut out: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
                    gemm_ex(&mut out, &av, &bv, m, k, n, ta, tb, acc);
                    for v in out {
                        for byte in v.to_bits().to_le_bytes() {
                            hash ^= u64::from(byte);
                            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                        }
                    }
                }
            }
        }
        hash
    }

    #[test]
    fn avx2_bits_match_the_packed_a_kernel() {
        // Captured from the kernel that packed A before each KC block (the
        // same FMA order this one must keep). Only the AVX2+FMA kernel is
        // pinned; other hosts round differently.
        #[cfg(target_arch = "x86_64")]
        if x86::available() {
            assert_eq!(infer_shapes_fingerprint(), 0xeec1_ad4d_9ecd_f523);
        }
    }
}
