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
//! GEMM of cuDNN), so the `[C·k·k, g·oh·ow]` matrix is never built: the
//! packer writes each panel from the `[g, C, H, W]` input, and the naive
//! loop reads the same packed panels. A blocked stride-1 forward product
//! whose output rows are whole panels packs nothing: each panel is `NR`
//! consecutive positions of one output row, so its cell at depth
//! `(c, ky, kx)` is `NR` consecutive floats of a zero-padded copy of the
//! group, read in place. Either way every cell holds the same values in
//! the same lanes.
//!
//! The microkernel walks a table of steps rather than a depth range: step
//! `[a, b]` reads A at depth offset `a` and B's cell at offset `b`. A
//! whole packed block's table is `[0, 0], [s, NR], [2s, 2·NR], …`; a
//! forward patch panel leaves out the depths it knows are zero (taps that
//! read only padding, channels zero across the group), and a panel read
//! in place steps through the padded image. The `KC` blocks keep their
//! boundaries and every surviving product its place in the sum, so the
//! bits do not change.
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
use std::ops::Range;

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

/// A microkernel: `acc[MR×NR] += strip · panel` over a table of steps.
/// Step `[a, b]` multiplies lane `r`'s `a[rows[r] + a]` by the `NR`
/// floats of B at `b[b..]`; A-offsets are pre-multiplied by the strip's
/// depth stride. A whole packed block passes `[0, 0], [s, NR],
/// [2s, 2·NR], …`, a compacted one only the depths its panel keeps, and
/// a panel read in place the offsets of its cells in the padded image.
/// `packed` says the B-offsets step by `NR` from the first, as a packed
/// block's do, so the kernel may walk the cells instead of reading them.
///
/// # Safety
///
/// Both columns of `steps` must ascend, and with `packed` the B-offsets
/// must step by `NR`: the AVX2 kernel bounds its unchecked loads by the
/// table's last step alone.
type Kernel = unsafe fn(&Strip<'_>, &[[u32; 2]], &[f32], bool, &mut [f32; MR * NR]);

/// One panel's walk over one `KC` block: steps `start..end` of the call's
/// table, with B-offsets counted from `cells[base]`.
#[derive(Clone, Copy)]
struct Block {
    start: usize,
    end: usize,
    base: usize,
}

/// A column block of B laid out for the microkernel. `cells` holds packed
/// panels, panel `pj`'s cell at depth `p` (`NR` floats, one depth) at
/// `(pj·k + p)·NR`, or, `in_place`, the group's zero-padded image.
/// `steps` starts with the `KC` steps of a whole packed block,
/// `[p·s, p·NR]`. For a forward patch product `blocks` holds one
/// [`Block`] per (panel, `KC` block), in panel order; otherwise it is
/// empty and every block is whole and packed.
struct Layout<'a> {
    in_place: bool,
    cells: &'a [f32],
    blocks: &'a [Block],
    steps: &'a [[u32; 2]],
}

impl Layout<'_> {
    /// The steps and B cells of panel `pj`'s `kc`-deep block at `pc` of a
    /// `k`-deep product.
    fn block(&self, pj: usize, pc: usize, kc: usize, k: usize) -> (&[[u32; 2]], &[f32]) {
        match self.blocks.get(pj * k.div_ceil(KC) + pc / KC) {
            Some(b) => (&self.steps[b.start..b.end], &self.cells[b.base..]),
            None => (&self.steps[..kc], &self.cells[(pj * k + pc) * NR..]),
        }
    }
}

/// A call's [`Layout::blocks`] and [`Layout::steps`] under construction.
struct Tables<'t> {
    blocks: &'t mut Vec<Block>,
    steps: &'t mut Vec<[u32; 2]>,
}

impl Tables<'_> {
    /// Opens the next `depth`-deep panel with the steps of a whole packed
    /// block in every block, block `b` reading B from `base(b)`.
    fn whole(&mut self, depth: usize, base: impl Fn(usize) -> usize) {
        self.blocks.extend((0..depth.div_ceil(KC)).map(|b| Block {
            start: 0,
            end: KC.min(depth - b * KC),
            base: base(b),
        }));
    }

    /// Opens the next `depth`-deep panel with room for `live` steps, every
    /// block reading B from `base`; the steps are written through the
    /// returned [`PanelSteps`].
    fn open(&mut self, depth: usize, live: usize, base: usize) -> PanelSteps<'_> {
        let (first, start) = (self.blocks.len(), self.steps.len());
        self.blocks.extend((0..depth.div_ceil(KC)).map(|_| Block {
            start: 0,
            end: 0,
            base,
        }));
        self.steps.resize(start + live, [0; 2]);
        PanelSteps {
            blocks: &mut self.blocks[first..],
            steps: &mut self.steps[start..],
            start,
            block: usize::MAX,
            len: 0,
        }
    }

    /// Opens the next panel with the steps of the panel whose first block
    /// is `first`, reading B from `base`.
    fn repeat(&mut self, first: usize, depth: usize, base: usize) {
        let at = self.blocks.len();
        self.blocks
            .extend_from_within(first..first + depth.div_ceil(KC));
        for block in &mut self.blocks[at..] {
            block.base = base;
        }
    }
}

/// One panel's steps under construction, written in ascending depth
/// order into the room [`Tables::open`] made.
struct PanelSteps<'p> {
    blocks: &'p mut [Block],
    steps: &'p mut [[u32; 2]],
    /// Where `steps` starts in the call's table.
    start: usize,
    /// The block being written.
    block: usize,
    len: usize,
}

impl PanelSteps<'_> {
    /// The steps written so far.
    fn len(&self) -> usize {
        self.len
    }

    /// Writes the step of depth `d`, its B cell at `off` from the base.
    #[inline(always)]
    fn push(&mut self, d: usize, off: usize) {
        if d / KC != self.block {
            self.close();
            self.block = d / KC;
            self.blocks[self.block].start = self.start + self.len;
        }
        self.steps[self.len] = [(d % KC) as u32, off as u32];
        self.len += 1;
    }

    /// Ends the block being written at the last step written.
    fn close(&mut self) {
        if let Some(block) = self.blocks.get_mut(self.block) {
            block.end = self.start + self.len;
        }
    }
}

/// A panel's last block ends when its writer goes out of scope, so no
/// caller can leave it open; a block is closed once, not on every step.
impl Drop for PanelSteps<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

thread_local! {
    /// The calling thread's [`Layout::blocks`].
    static BLOCKS: Cell<Vec<Block>> = const { Cell::new(Vec::new()) };
    /// The calling thread's [`Layout::steps`].
    static STEPS: Cell<Vec<[u32; 2]>> = const { Cell::new(Vec::new()) };
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
/// are zero in every sample of the group. Its live cells are packed in
/// depth order from its first cell, and every panel gets its blocks (see
/// [`Layout`]); a panel with no such depth is packed whole, as without
/// tables. Returns the left-out depths summed over the panels' lanes.
fn pack_patches(
    bp: &mut [f32],
    patches: &Patches<'_>,
    jc: usize,
    nc: usize,
    tables: Option<&mut Tables<'_>>,
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
    // A compacted panel's B-offsets, `w·NR` for its `w`th live cell, must
    // fit the steps' `u32`.
    assert!(
        depth * NR <= u32::MAX as usize,
        "gemm_patches: patch matrix too deep"
    );
    with_vec(&LIVE_CHANNELS, |channels| {
        patches.live_channels(channels);
        let all_channels = channels.len() == g.in_channels;
        with_vec(&LIVE_TAPS, |live_taps| {
            let mut skipped = 0;
            for (pj, jr) in (0..nc).step_by(NR).enumerate() {
                let panel = &mut bp[pj * depth * NR..(pj + 1) * depth * NR];
                let lanes = PanelLanes::new(patches, jc + jr, NR.min(nc - jr));
                let base = |b: usize| (pj * depth + b * KC) * NR;
                if all_channels && lanes.has_inner_window(g) {
                    lanes.pack_whole(panel, patches);
                    tables.whole(depth, base);
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
                    tables.whole(depth, base);
                    continue;
                }
                // The live cells, in depth order from the panel's first.
                let live = channels.len() * live_taps.len();
                let mut steps = tables.open(depth, live, pj * depth * NR);
                for &c in channels.iter() {
                    let image = &patches.input[c as usize * plane..];
                    for tap in live_taps.iter() {
                        let w = steps.len();
                        tap.fill(&mut panel[w * NR..][..NR], image);
                        steps.push(c as usize * taps + tap.tap, w * NR);
                    }
                }
                skipped += (depth - live) * lanes.lanes;
            }
            skipped
        })
    })
}

/// Lays out a blocked forward product whose panels are rows of output
/// positions ([`Patches::rows_of_panels`]) to be read in place: copies
/// the group's live channels into `padded`, the zero-padded
/// `[g, C, H + 2p, W + 2p]` image, and gives each panel the steps of its
/// live depths. Panel `(s, oy, ox)` reads depth `(c, ky, kx)` at
/// `c·(H + 2p)(W + 2p) + ky·(W + 2p) + kx` from its window's corner,
/// `NR` consecutive floats. It leaves out what [`pack_patches`] leaves
/// out: the channels zero in every sample of the group, and the taps
/// whose row is padding or whose column is padding in every lane, so
/// the live taps are a rectangle. Consecutive panels with the same
/// rectangle share their steps. Returns the left-out depths summed over
/// the panels' lanes.
fn read_in_place(padded: &mut [f32], patches: &Patches<'_>, tables: &mut Tables<'_>) -> usize {
    let g = &patches.geom;
    let (k, pad, depth) = (g.kernel, g.padding, patches.rows());
    let (row, plane) = patches.padded_plane();
    assert!(
        g.in_channels * plane <= u32::MAX as usize,
        "gemm_patches: image too large"
    );
    with_vec(&LIVE_CHANNELS, |channels| {
        patches.live_channels(channels);
        patches.pad_into(padded, channels);
        let mut skipped = 0;
        // The last panel's live rows and columns of taps, and first block.
        let mut last: Option<(Range<usize>, Range<usize>, usize)> = None;
        for s in 0..patches.samples {
            for oy in 0..g.out_h() {
                let rows = pad.saturating_sub(oy)..(pad + g.in_h).saturating_sub(oy).min(k);
                for ox in (0..g.out_w()).step_by(NR) {
                    let cols =
                        pad.saturating_sub(ox + NR - 1)..(pad + g.in_w).saturating_sub(ox).min(k);
                    let base = s * g.in_channels * plane + oy * row + ox;
                    let live = channels.len() * rows.len() * cols.len();
                    let first = tables.blocks.len();
                    match &last {
                        Some((r, c, last)) if (r, c) == (&rows, &cols) => {
                            tables.repeat(*last, depth, base)
                        }
                        _ => {
                            let mut steps = tables.open(depth, live, base);
                            for &c in channels.iter() {
                                let c = c as usize;
                                for ky in rows.clone() {
                                    for kx in cols.clone() {
                                        let d = (c * k + ky) * k + kx;
                                        steps.push(d, c * plane + ky * row + kx);
                                    }
                                }
                            }
                        }
                    }
                    skipped += (depth - live) * NR;
                    last = Some((rows.clone(), cols, first));
                }
            }
        }
        skipped
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

/// The portable register-tiled core. The accumulator stays in registers;
/// each step costs one table-offset scalar load per lane of A and one
/// bounds-checked `NR`-float cell of B, read through its offset whether
/// or not the block is `packed`.
fn microkernel_portable(
    s: &Strip<'_>,
    steps: &[[u32; 2]],
    b: &[f32],
    _packed: bool,
    acc: &mut [f32; MR * NR],
) {
    for &[a_off, b_off] in steps {
        let b_cell = &b[b_off as usize..][..NR];
        for r in 0..MR {
            let a_rp = s.a[s.rows[r] + a_off as usize];
            let row = &mut acc[r * NR..r * NR + NR];
            for c in 0..NR {
                row[c] += a_rp * b_cell[c];
            }
        }
    }
}

/// AVX2+FMA microkernel, selected at runtime when the CPU supports it.
/// Holds the whole `MR`×`NR` accumulator in eight YMM registers; each
/// step is one B-cell load plus `MR` broadcast-FMAs from the strip's
/// rows, so the hot loop streams the B cells and `MR` rows of A.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Strip, MR, NR};

    // The single B-cell load per step assumes one YMM register spans the
    // full panel width.
    const _: () = assert!(MR == 8 && NR == 8);

    /// # Safety
    ///
    /// Caller must ensure the CPU supports AVX2 and FMA (see
    /// [`available`]) and keep [`super::Kernel`]'s contract, with the
    /// last step's A-offset at most [`Strip::reach`] and its B-offset at
    /// most `b.len() - NR`. The loads `s.a[s.rows[r] + a]` and
    /// `b[b..b + NR]` are unchecked: they stay in bounds because
    /// [`Strip::new`] asserts the largest reachable A read,
    /// `rows[MR - 1] + (kc - 1) * stride`, is below `s.a.len()`, and no
    /// step's offsets exceed the last step's. A `PACKED` walk reads the
    /// cells at the first B-offset plus `j·NR`, which the contract makes
    /// the steps' own B-offsets.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn fma_kernel<const PACKED: bool>(
        s: &Strip<'_>,
        steps: &[[u32; 2]],
        b: &[f32],
        acc: &mut [f32; MR * NR],
    ) {
        use std::arch::x86_64::*;
        let mut rows = [_mm256_setzero_ps(); MR];
        let a_rows = s.rows.map(|o| s.a.as_ptr().add(o));
        // A packed block's cells follow its first one: walk them rather
        // than read each step's B-offset.
        let mut cell = b
            .as_ptr()
            .add(steps.first().map_or(0, |&[_, o]| o as usize));
        for &[a_off, b_off] in steps {
            let b_vec = if PACKED {
                let cell_vec = _mm256_loadu_ps(cell);
                cell = cell.add(NR);
                cell_vec
            } else {
                _mm256_loadu_ps(b.as_ptr().add(b_off as usize))
            };
            for (row, a_row) in rows.iter_mut().zip(&a_rows) {
                let a_rp = _mm256_broadcast_ss(&*a_row.add(a_off as usize));
                *row = _mm256_fmadd_ps(a_rp, b_vec, *row);
            }
        }
        for (r, row) in rows.iter().enumerate() {
            let sum = _mm256_add_ps(_mm256_loadu_ps(acc.as_ptr().add(r * NR)), *row);
            _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), sum);
        }
    }

    /// The AVX2+FMA kernel. Checks the table's last step only, once per
    /// panel: checking each step would cost the kernel its speed.
    ///
    /// # Safety
    ///
    /// The caller must keep [`super::Kernel`]'s contract.
    pub unsafe fn microkernel(
        s: &Strip<'_>,
        steps: &[[u32; 2]],
        b: &[f32],
        packed: bool,
        acc: &mut [f32; MR * NR],
    ) {
        let in_bounds = steps
            .last()
            .is_none_or(|&[a, o]| a as usize <= s.reach() && o as usize + NR <= b.len());
        assert!(available() && in_bounds);
        debug_assert!(steps.is_sorted_by_key(|&[a, _]| a) && steps.is_sorted_by_key(|&[_, o]| o));
        debug_assert!(!packed || steps.windows(2).all(|w| w[1][1] == w[0][1] + NR as u32));
        // SAFETY: features and the last step's offsets are checked above,
        // and the caller guarantees that step is the largest in both
        // columns; the strip's reads are bounded by `Strip::new`.
        unsafe {
            if packed {
                fma_kernel::<true>(s, steps, b, acc)
            } else {
                fma_kernel::<false>(s, steps, b, acc)
            }
        }
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
/// from row `ic`) by columns `jc..jc + nc` of B as laid out in `bp`.
/// Walks the `KC` blocks in order and sweeps the microkernel over every
/// (strip, panel) pair of each, through the panel block's steps, adding
/// valid regions into `out_block`.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    kernel: Kernel,
    out_block: &mut [f32],
    a: &[f32],
    bp: &Layout<'_>,
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
                let (steps, b) = bp.block(pj, pc, kc, k);
                let cols = NR.min(nc - jr);
                let mut acc = [0.0f32; MR * NR];
                // SAFETY: both columns of every table ascend: a whole
                // packed block's are `p·s` and `p·NR`, a compacted block
                // lists its live depths in order with its consecutive
                // cells, and a panel read in place steps through the
                // padded image in depth order. Packed blocks' B-offsets
                // step by `NR`, as `packed` promises the kernel.
                unsafe { kernel(&a_strip, steps, b, !bp.in_place, &mut acc) };
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
/// outputs it would have multiplied by those zeros into NaN. When its
/// panels are rows of output positions (stride 1, sample-major, output
/// width a multiple of [`NR`]), it packs nothing and reads them in place
/// from a zero-padded copy of the image.
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
    // A patch product's compacted tables hold bare depths, so it must
    // read A at depth stride 1.
    let stride = if trans_a { m } else { 1 };
    assert!(stride == 1 || matches!(b, Rhs::Dense(_)));
    assert!(
        (KC - 1) * stride <= u32::MAX as usize,
        "gemm_ex: A too tall"
    );
    // Multiplies columns `jc..jc + nc` of B, laid out in `bp`, on the
    // pool: one task per row block of the output.
    let mut multiply = |bp: &Layout<'_>, jc: usize, nc: usize| {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(block_rows * n)
            .enumerate()
            .map(|(bi, out_block)| {
                let ic = bi * block_rows;
                Box::new(move || {
                    gemm_block(kernel, out_block, a, bp, m, k, n, ic, jc, nc, trans_a);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::run_tasks(tasks);
    };
    let mut skipped = 0;
    with_vec(&BLOCKS, |blocks| {
        with_vec(&STEPS, |steps| {
            // The steps of a whole packed block.
            steps.extend((0..KC).map(|p| [(p * stride) as u32, (p * NR) as u32]));
            if let Rhs::Patches(patches) = b {
                if !trans_b && patches.rows_of_panels() {
                    let len = patches.samples * patches.geom.in_channels * patches.padded_plane().1;
                    return with_scratch(len, |padded| {
                        skipped = read_in_place(padded, &patches, &mut Tables { blocks, steps });
                        multiply(
                            &Layout {
                                in_place: true,
                                cells: padded,
                                blocks,
                                steps,
                            },
                            0,
                            n,
                        );
                    });
                }
            }
            let block_cols = (KC * NC / k / NR * NR).max(NR);
            for jc in (0..n).step_by(block_cols) {
                let nc = block_cols.min(n - jc);
                with_scratch(nc.div_ceil(NR) * NR * k, |bp| {
                    blocks.clear();
                    steps.truncate(KC);
                    skipped += match b {
                        Rhs::Patches(patches) if !trans_b => {
                            pack_patches(bp, &patches, jc, nc, Some(&mut Tables { blocks, steps }))
                        }
                        _ => {
                            pack_b(bp, b, k, n, jc, nc, trans_b);
                            0
                        }
                    };
                    multiply(
                        &Layout {
                            in_place: false,
                            cells: bp,
                            blocks,
                            steps,
                        },
                        jc,
                        nc,
                    );
                });
            }
        })
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
    /// empty image that is all padding, a patch matrix larger than
    /// `KC`×`NC` floats, which packs in two column blocks either way
    /// round, and the [`row_geometries`].
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
        grid.extend(row_geometries());
        grid
    }

    /// Stride-1 "same" convs with output rows of 7, 8, 12, 16 and 32
    /// positions, whose blocked forward panels are read in place (8, 16,
    /// 32) or packed (7, 12): AlexNet's first conv (C = 3, k = 5, p = 2)
    /// on 6 rows, two of them border rows at each edge, and a 3×3 conv of
    /// 16 channels on 5 rows, in groups of 1, 3 and 32 samples.
    fn row_geometries() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
        let mut grid = Vec::new();
        for ow in [7, 8, 12, 16, 32] {
            for samples in [1, 3, 32] {
                grid.push((3, 6, ow, 5, 1, 2, samples));
                grid.push((16, 5, ow, 3, 1, 1, samples));
            }
        }
        grid
    }

    /// True when a `m`-row product over `patches` is a blocked forward
    /// product whose panels are read in place.
    fn reads_in_place(patches: &Patches<'_>, m: usize, trans: bool) -> bool {
        let work = m * patches.rows() * patches.cols();
        !trans && patches.rows_of_panels() && work >= SMALL_THRESHOLD
    }

    #[test]
    fn patch_operand_equals_gemm_ex_over_the_materialized_patches_bit_for_bit() {
        const { assert!(16 * 9 * 64 * 64 > KC * NC) };
        let mut rng = Rng::seed_from(12);
        let (mut naive, mut blocked, mut in_place) = (false, false, false);
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
                    in_place |= reads_in_place(&patches, m, trans);
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
        assert!(naive && blocked && in_place, "every GEMM path must run");
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
        let mut in_place = false;
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
                    in_place |= reads_in_place(&patches, m, false);
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
        assert!(
            naive && blocked && in_place && skipped,
            "every path must run, and skip"
        );
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
