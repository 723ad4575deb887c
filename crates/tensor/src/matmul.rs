//! Cache-blocked, register-tiled, pool-parallel matrix multiplication.
//!
//! The NN stack lowers convolutions onto GEMM via im2col, so this is the
//! hottest kernel in the whole reproduction. The layout follows the
//! Goto/BLIS scheme:
//!
//! * B is cut into `KC x NC` blocks, each packed once into `NR`-wide
//!   column panels (`[panel][p][c]`) that every row tile reuses — B is
//!   streamed from memory once per row band, not once per row tile.
//! * A is cut into `MC x KC` blocks packed into `MR`-row panels
//!   (`[tile][p][r]`).
//! * The micro-kernel holds an `MR x NR` (6 × 16) output tile in
//!   registers for one `KC` block: twelve `__m256` accumulators at the
//!   AVX2 level, a scalar body of the same shape otherwise.
//!
//! Operands are strided views ([`MatRef`]), so the transposed entry points
//! and the fused conv backward read Aᵀ or Bᵀ while packing and never
//! materialise a transpose.
//!
//! Determinism contract: every output element is one ascending fold over
//! `p = 0..k`, starting from 0.0. Between `KC` blocks the partial sum
//! passes exactly through the output buffer (an f32 store and reload), so
//! blocking over `k` does not change a single rounding step; the bias (0.0
//! when absent) joins each element after its last block. Threads split the
//! output by rows or by columns, never over `k`, so results are
//! bit-identical to the serial naive reference for any tile geometry and
//! any thread count.
//!
//! Kernel levels: at [`KernelLevel::Scalar`] the fold is `acc += a*b`
//! (mul-then-add, exact vs the naive reference); at [`KernelLevel::Avx2`]
//! every element is a sequential *FMA* fold (vectorised across output
//! columns, never across `k`), within a small relative tier of the scalar
//! reference. Partial edge tiles run the same kernel on a padded copy, so
//! an element's value never depends on where the tile boundaries fall.
//! The level is resolved once per public entry on the caller thread and
//! passed into pool closures.

use std::cell::RefCell;

use crate::pool::{self, SendPtr};
use crate::simd::KernelLevel;
use crate::{Result, Tensor, TensorError};

/// Micro-tile rows.
const MR: usize = 6;
/// Micro-tile columns: two `__m256` lanes. `MR x NR / 8` = 12 accumulator
/// registers plus two B loads and one A broadcast fit AVX2's 16.
const NR: usize = 16;
/// Reduction depth of one packed block: a `KC x NR` B panel (16 KB) stays
/// in L1 while a column of row tiles streams past it.
const KC: usize = 256;
/// Columns per packed B block: `KC x NC` is 512 KB, resident in L2.
const NC: usize = 512;
/// Rows per packed A block: `MC x KC` is 120 KB.
const MC: usize = 120;

/// Multiply-accumulates each pool task should own, at minimum. Waking a
/// worker costs more than it saves below this: on a 2-core AVX2 host a
/// 64³ product took 16 µs on one thread and 29 µs split over two, and
/// 128³ (2M MACs) 96 µs against 117 µs.
const WORK_PER_TASK: usize = 1 << 20;

/// Bias of a block on the last k block when the GEMM has none.
const ZEROS: [f32; MC] = [0.0; MC];

thread_local! {
    /// Per-thread packed A and B blocks, reused across calls.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Grows `buf` to hold at least `len` floats and returns them.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// A read-only strided matrix view: element `(r, c)` is
/// `data[r * rs + c * cs]`. A row-major `[rows, ld]` matrix is
/// [`MatRef::rows`]; its transpose, read in place, is [`MatRef::cols`].
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major view with row stride `ld`.
    pub(crate) fn rows(data: &'a [f32], ld: usize) -> Self {
        MatRef {
            data,
            rs: ld,
            cs: 1,
        }
    }

    /// Transposed view of a row-major matrix with row stride `ld`:
    /// element `(r, c)` is `data[c * ld + r]`.
    pub(crate) fn cols(data: &'a [f32], ld: usize) -> Self {
        MatRef::rows(data, ld).t()
    }

    /// The transpose of this view, without touching the data.
    fn t(self) -> Self {
        MatRef {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }
}

fn dims_2d(t: &Tensor) -> Result<[usize; 2]> {
    let d = t.dims();
    if d.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: d.len(),
        });
    }
    Ok([d[0], d[1]])
}

/// Computes `c = a * b` for 2-D tensors.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either input is not rank 2 and
/// [`TensorError::MatmulDimMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use litho_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &id)?, a);
/// # Ok::<(), litho_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let [m, k] = dims_2d(a)?;
    let [k2, n] = dims_2d(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: [m, k],
            right: [k2, n],
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    Ok(out)
}

/// Computes `c = aᵀ * b` where `a` is `[k, m]` and `b` is `[k, n]`.
///
/// Used for weight gradients (`dW = xᵀ · dy` style products).
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let [k, m] = dims_2d(a)?;
    let [k2, n] = dims_2d(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: [k, m],
            right: [k2, n],
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_transpose_a_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), k, m, n);
    Ok(out)
}

/// Computes `c = a * bᵀ` where `a` is `[m, k]` and `b` is `[n, k]`.
///
/// Used for input gradients (`dx = dy · Wᵀ` style products).
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let [m, k] = dims_2d(a)?;
    let [n, k2] = dims_2d(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left: [m, k],
            right: [n, k2],
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_transpose_b_into(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
    Ok(out)
}

/// Raw GEMM on slices: `out[m x n] = a[m x k] * b[k x n]`.
///
/// `out` is fully overwritten. Parallelises over disjoint row or column
/// bands on the shared worker pool when the work exceeds an internal
/// threshold.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n` and `m*n`.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_bias_into(a, b, out, m, k, n, None);
}

/// [`matmul_into`] with a fused per-row bias epilogue: when `bias` is
/// `Some`, `bias[i]` is added to every element of output row `i` as the
/// tile is stored, replacing a separate full-tensor sweep. The result is
/// bit-identical to computing the GEMM first and adding the bias after,
/// since the bias joins each element's fold only after the `k` reduction.
///
/// # Panics
///
/// Panics if slice lengths do not match `m*k`, `k*n`, `m*n` (and `m` for
/// the bias).
pub fn matmul_bias_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&[f32]>,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    let threads = pool::effective_threads();
    gemm(
        MatRef::rows(a, k),
        MatRef::rows(b, n),
        out,
        [m, k, n],
        bias,
        threads,
    );
}

/// Computes `out[m x n] = aᵀ b` on slices, where `a` is `[k, m]` and `b`
/// is `[k, n]`. Aᵀ is read in place while A is packed.
///
/// # Panics
///
/// Panics if slice lengths do not match `k*m`, `k*n` and `m*n`.
pub fn matmul_transpose_a_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    let threads = pool::effective_threads();
    gemm(
        MatRef::cols(a, m),
        MatRef::rows(b, n),
        out,
        [m, k, n],
        None,
        threads,
    );
}

/// Computes `out[m x n] = a bᵀ` on slices, where `a` is `[m, k]` and `b`
/// is `[n, k]`. Bᵀ is read in place while B is packed.
///
/// # Panics
///
/// Panics if slice lengths do not match `m*k`, `n*k` and `m*n`.
pub fn matmul_transpose_b_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    let threads = pool::effective_threads();
    gemm(
        MatRef::rows(a, k),
        MatRef::cols(b, k),
        out,
        [m, k, n],
        None,
        threads,
    );
}

/// Serial GEMM on strided views, `out[m x n] = a * b` with `out`
/// row-major and contiguous. Runs entirely on the calling thread — the
/// fused conv backward parallelises over batch items above this call, so
/// nesting the pool here would only add overhead.
pub(crate) fn gemm_serial(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    [m, k, n]: [usize; 3],
    level: KernelLevel,
) {
    assert_eq!(out.len(), m * n, "output length");
    let c = SendPtr::new(out.as_mut_ptr());
    // SAFETY: `out` is exclusively borrowed and holds the full `m x n`
    // output at row stride `n`.
    unsafe { gemm_range(a, b, c, n, 0..m, 0..n, k, None, level) };
}

/// Shared entry of every public GEMM: profiling span, level resolution
/// and the split of the output over `threads` pool tasks.
///
/// Rows are split when every task still gets a full `MC` block of them,
/// which keeps the duplicate packing of B (each task packs the B blocks
/// it needs) small next to the task's work. Below that, tasks take
/// disjoint `NR`-aligned column bands instead, so no task packs a B block
/// it does not use; each then repacks the (small) A.
fn gemm(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    [m, k, n]: [usize; 3],
    bias: Option<&[f32]>,
    threads: usize,
) {
    assert_eq!(out.len(), m * n, "output length");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), m, "bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let _span = crate::profile::kernel_span(
        || format!("gemm[{m}x{n}x{k}]"),
        crate::profile::KernelCost::gemm(m, n, k),
    );
    // Resolve the kernel level once, on the caller thread, so pool workers
    // inherit it and a single GEMM never mixes implementations.
    let level = crate::simd::active_level();
    let c = SendPtr::new(out.as_mut_ptr());

    let threads = threads.min(m * n * k.max(1) / WORK_PER_TASK);
    let panels = n.div_ceil(NR);
    if threads <= 1 {
        // SAFETY: `out` is exclusively borrowed and holds the full
        // `m x n` output at row stride `n`.
        unsafe { gemm_range(a, b, c, n, 0..m, 0..n, k, bias, level) };
    } else if m >= threads * MC || panels < threads {
        let band = m.div_ceil(MR).div_ceil(threads) * MR;
        pool::parallel_for(m.div_ceil(band), |t| {
            let rows = t * band..((t + 1) * band).min(m);
            // SAFETY: row bands are disjoint and inside `out`, which
            // outlives the blocking `parallel_for`.
            unsafe { gemm_range(a, b, c, n, rows, 0..n, k, bias, level) };
        });
    } else {
        let band = panels.div_ceil(threads) * NR;
        pool::parallel_for(n.div_ceil(band), |t| {
            let cols = t * band..((t + 1) * band).min(n);
            // SAFETY: column bands are disjoint and inside `out`, which
            // outlives the blocking `parallel_for`.
            unsafe { gemm_range(a, b, c, n, 0..m, cols, k, bias, level) };
        });
    }
}

/// Blocked GEMM over the output block `rows x cols` of `c` (row stride
/// `ldc`), on the calling thread.
///
/// # Safety
///
/// `c` must point at a live row-major buffer with row stride `ldc` that
/// covers every element of `rows x cols`, and no other thread may access
/// those elements during the call.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_range(
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: SendPtr<f32>,
    ldc: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    k: usize,
    bias: Option<&[f32]>,
    level: KernelLevel,
) {
    if k == 0 {
        for i in rows {
            let v = 0.0 + bias.map_or(0.0, |bias| bias[i]);
            for j in cols.clone() {
                // SAFETY: (i, j) lies in this caller's output block.
                unsafe { *c.get().add(i * ldc + j) = v };
            }
        }
        return;
    }
    PACK.with(|cell| {
        let mut guard = cell.borrow_mut();
        let (pack_a, pack_b) = &mut *guard;
        for jc in cols.clone().step_by(NC) {
            let nc = NC.min(cols.end - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let pb = grown(pack_b, nc.div_ceil(NR) * NR * kc);
                pack_panels::<NR>(b.t(), pb, jc, nc, pc, kc);
                for ic in rows.clone().step_by(MC) {
                    let mc = MC.min(rows.end - ic);
                    let pa = grown(pack_a, mc.div_ceil(MR) * MR * kc);
                    pack_panels::<MR>(a, pa, ic, mc, pc, kc);
                    // The bias joins on the last k block only: 0.0 when
                    // absent, exactly as an unblocked fold would add it.
                    let block_bias = (pc + kc == k)
                        .then(|| bias.map_or(&ZEROS[..mc], |bias| &bias[ic..ic + mc]));
                    // SAFETY: the block origin lies in this caller's
                    // output block, which covers `mc x nc` from there.
                    let block = unsafe { c.get().add(ic * ldc + jc) };
                    for (jp, jr) in (0..nc).step_by(NR).enumerate() {
                        let panel_b = &pb[jp * kc * NR..(jp + 1) * kc * NR];
                        for (ip, ir) in (0..mc).step_by(MR).enumerate() {
                            let panel_a = &pa[ip * kc * MR..(ip + 1) * kc * MR];
                            let tile_bias: Option<[f32; MR]> = block_bias.map(|bias| {
                                std::array::from_fn(|r| bias.get(ir + r).copied().unwrap_or(0.0))
                            });
                            let tile = Tile {
                                // SAFETY: as for `block`.
                                c: unsafe { block.add(ir * ldc + jr) },
                                ldc,
                                mr: MR.min(mc - ir),
                                nr: NR.min(nc - jr),
                                load: pc > 0,
                                bias: tile_bias.as_ref(),
                            };
                            // SAFETY: `tile` covers `mr x nr` in-bounds
                            // elements owned by this caller.
                            unsafe { run_tile(level, kc, panel_a, panel_b, &tile) };
                        }
                    }
                }
            }
        }
    });
}

/// Packs the block `[r0, r0+rows) x [p0, p0+kc)` of `v` into `W`-row
/// panels, `dst[(i/W)*kc*W + p*W + i%W] = v(r0+i, p0+p)`, zero past
/// `rows`. A packs into `MR`-row panels; B packs its transpose, whose
/// `NR`-row panels are B's `NR`-column panels.
fn pack_panels<const W: usize>(
    v: MatRef<'_>,
    dst: &mut [f32],
    r0: usize,
    rows: usize,
    p0: usize,
    kc: usize,
) {
    let tail = rows % W;
    if tail != 0 {
        // Zero the padding rows of the last panel. Their results are
        // discarded, but stale scratch could hold denormals or NaNs.
        let last = &mut dst[(rows / W) * kc * W..];
        for p in 0..kc {
            last[p * W + tail..(p + 1) * W].fill(0.0);
        }
    }
    if v.rs == 1 {
        // Each p is a contiguous run over the block's rows.
        for p in 0..kc {
            let run = &v.data[(p0 + p) * v.cs + r0..][..rows];
            for (ip, seg) in run.chunks(W).enumerate() {
                let at = ip * kc * W + p * W;
                dst[at..at + seg.len()].copy_from_slice(seg);
            }
        }
    } else {
        // Each row is a run over p at stride `cs` (1 when row-major).
        for i in 0..rows {
            let base = (r0 + i) * v.rs + p0 * v.cs;
            assert!(base + (kc - 1) * v.cs < v.data.len(), "operand too short");
            let at = (i / W) * kc * W + i % W;
            let run = v.data[base..].iter().step_by(v.cs).take(kc);
            for (p, &x) in run.enumerate() {
                dst[at + p * W] = x;
            }
        }
    }
}

/// One `MR x NR` output tile of a `KC` block.
struct Tile<'b> {
    /// Top-left output element; row stride `ldc`.
    c: *mut f32,
    ldc: usize,
    /// Valid rows and columns (`<= MR`, `<= NR`).
    mr: usize,
    nr: usize,
    /// Continue the fold from the partial sums already in the output
    /// (every `KC` block after the first) instead of from 0.0.
    load: bool,
    /// On the last `KC` block: the per-row bias (0.0 when absent), added
    /// once the fold is complete.
    bias: Option<&'b [f32; MR]>,
}

/// Runs the micro-kernel on one tile. Full tiles fold straight into the
/// output; partial tiles go through a padded `MR x NR` copy so they run
/// the very same kernel.
///
/// # Safety
///
/// `tile.c` must address `mr` rows of `nr` writable floats at stride
/// `ldc`, not accessed concurrently; `Avx2` implies host AVX2+FMA.
unsafe fn run_tile(level: KernelLevel, kc: usize, pa: &[f32], pb: &[f32], tile: &Tile<'_>) {
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    let full = tile.mr == MR && tile.nr == NR;
    let mut buf = [0.0f32; MR * NR];
    let (c, ldc) = if full {
        (tile.c, tile.ldc)
    } else {
        if tile.load {
            for r in 0..tile.mr {
                let src = std::slice::from_raw_parts(tile.c.add(r * tile.ldc), tile.nr);
                buf[r * NR..r * NR + tile.nr].copy_from_slice(src);
            }
        }
        (buf.as_mut_ptr(), NR)
    };
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `KernelLevel::Avx2` is only ever produced by
        // `simd::clamp_to_host`, which checked AVX2+FMA via CPUID.
        KernelLevel::Avx2 => avx2::kernel(kc, pa, pb, c, ldc, tile.load, tile.bias),
        _ => kernel_scalar(kc, pa, pb, c, ldc, tile.load, tile.bias),
    }
    if !full {
        for r in 0..tile.mr {
            let dst = std::slice::from_raw_parts_mut(tile.c.add(r * tile.ldc), tile.nr);
            dst.copy_from_slice(&buf[r * NR..r * NR + tile.nr]);
        }
    }
}

/// Scalar `MR x NR` micro-kernel: `acc += a*b` per element, ascending `p`.
///
/// # Safety
///
/// `c` must address an `MR x NR` writable block at row stride `ldc`.
#[inline]
unsafe fn kernel_scalar(
    kc: usize,
    pa: &[f32],
    pb: &[f32],
    c: *mut f32,
    ldc: usize,
    load: bool,
    bias: Option<&[f32; MR]>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if load {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(std::slice::from_raw_parts(c.add(r * ldc), NR));
        }
    }
    for (ap, bp) in pa[..kc * MR]
        .chunks_exact(MR)
        .zip(pb[..kc * NR].chunks_exact(NR))
    {
        for (acc_r, &av) in acc.iter_mut().zip(ap) {
            for (dst, &bv) in acc_r.iter_mut().zip(bp) {
                *dst += av * bv;
            }
        }
    }
    if let Some(bias) = bias {
        for (acc_r, &b) in acc.iter_mut().zip(bias) {
            for v in acc_r.iter_mut() {
                *v += b;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        std::slice::from_raw_parts_mut(c.add(r * ldc), NR).copy_from_slice(acc_r);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA micro-kernel. Lanes run across output *columns*; the `k`
    //! reduction stays a sequential per-element FMA fold, so the
    //! determinism contract (no split reductions) holds unchanged.
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// `MR x NR` tile: 12 × `__m256` accumulators, broadcast-A + FMA.
    ///
    /// # Safety
    ///
    /// Host must support AVX2 and FMA; `c` must address an `MR x NR`
    /// writable block at row stride `ldc`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn kernel(
        kc: usize,
        pa: &[f32],
        pb: &[f32],
        c: *mut f32,
        ldc: usize,
        load: bool,
        bias: Option<&[f32; MR]>,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        if load {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[0] = _mm256_loadu_ps(c.add(r * ldc));
                acc_r[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
            }
        }
        let (ap, bp) = (pa.as_ptr(), pb.as_ptr());
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(bp.add(p * NR));
            let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*ap.add(p * MR + r));
                acc_r[0] = _mm256_fmadd_ps(av, b0, acc_r[0]);
                acc_r[1] = _mm256_fmadd_ps(av, b1, acc_r[1]);
            }
        }
        if let Some(bias) = bias {
            for (acc_r, &b) in acc.iter_mut().zip(bias) {
                let bv = _mm256_set1_ps(b);
                acc_r[0] = _mm256_add_ps(acc_r[0], bv);
                acc_r[1] = _mm256_add_ps(acc_r[1], bv);
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.add(r * ldc), acc_r[0]);
            _mm256_storeu_ps(c.add(r * ldc + 8), acc_r[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_dim_check() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_rank_check() {
        let a = Tensor::zeros(&[2, 3, 1]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_bit_identical_to_naive() {
        // Shapes chosen to exercise full tiles, row/column remainders, and
        // degenerate m=1 / k=1 cases. Equality is exact at the scalar
        // level: the blocked kernel must reproduce the naive fold bit for
        // bit (the AVX2 level is covered by the epsilon-tier oracle).
        crate::simd::with_level(KernelLevel::Scalar, || {
            for (case, (m, k, n)) in [
                (0, (33, 47, 29)),
                (1, (1, 16, 8)),
                (2, (4, 1, 9)),
                (3, (5, 3, 1)),
                (4, (8, 32, 24)),
            ]
            .into_iter()
            {
                let a = random_vec(m * k, 7 + case);
                let b = random_vec(k * n, 100 + case);
                let expect = naive(&a, &b, m, k, n);
                let ta = Tensor::from_vec(a, &[m, k]).unwrap();
                let tb = Tensor::from_vec(b, &[k, n]).unwrap();
                let c = matmul(&ta, &tb).unwrap();
                assert_eq!(c.as_slice(), expect.as_slice(), "case {case}");
            }
        });
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough to split over two tasks (128^3 = 2M MACs).
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (128, 128, 128);
            let a = random_vec(m * k, 11);
            let b = random_vec(k * n, 12);
            let expect = naive(&a, &b, m, k, n);
            let mut out = vec![0.0; m * n];
            matmul_into(&a, &b, &mut out, m, k, n);
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn fused_bias_matches_separate_sweep() {
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (7, 13, 21);
            let a = random_vec(m * k, 21);
            let b = random_vec(k * n, 22);
            let bias = random_vec(m, 23);
            let mut expect = naive(&a, &b, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    expect[i * n + j] += bias[i];
                }
            }
            let mut out = vec![0.0; m * n];
            matmul_bias_into(&a, &b, &mut out, m, k, n, Some(&bias));
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn transpose_a_variant() {
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (k, m, n) = (13, 7, 9);
            let a = random_vec(k * m, 3);
            let b = random_vec(k * n, 4);
            // Explicit transpose as the oracle.
            let mut at = vec![0.0; m * k];
            for r in 0..k {
                for c in 0..m {
                    at[c * k + r] = a[r * m + c];
                }
            }
            let expect = naive(&at, &b, m, k, n);
            let got = matmul_transpose_a(
                &Tensor::from_vec(a, &[k, m]).unwrap(),
                &Tensor::from_vec(b, &[k, n]).unwrap(),
            )
            .unwrap();
            assert_eq!(got.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn transpose_b_variant() {
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (6, 11, 8);
            let a = random_vec(m * k, 5);
            let b = random_vec(n * k, 6);
            let mut bt = vec![0.0; k * n];
            for r in 0..n {
                for c in 0..k {
                    bt[c * n + r] = b[r * k + c];
                }
            }
            let expect = naive(&a, &bt, m, k, n);
            let got = matmul_transpose_b(
                &Tensor::from_vec(a, &[m, k]).unwrap(),
                &Tensor::from_vec(b, &[n, k]).unwrap(),
            )
            .unwrap();
            assert_eq!(got.as_slice(), expect.as_slice());
        });
    }

    #[test]
    fn avx2_level_within_relative_tier_of_scalar() {
        if crate::simd::detect_level() < KernelLevel::Avx2 {
            return; // host cannot exercise the AVX2 path
        }
        // FMA keeps *more* precision than mul-then-add, so the two levels
        // agree to a tight relative tier but not bit-for-bit.
        let (m, k, n) = (33, 47, 29);
        let a = random_vec(m * k, 41);
        let b = random_vec(k * n, 42);
        let mut scalar = vec![0.0; m * n];
        let mut vectored = vec![0.0; m * n];
        crate::simd::with_level(KernelLevel::Scalar, || {
            matmul_into(&a, &b, &mut scalar, m, k, n);
        });
        crate::simd::with_level(KernelLevel::Avx2, || {
            matmul_into(&a, &b, &mut vectored, m, k, n);
        });
        for (i, (&s, &v)) in scalar.iter().zip(vectored.iter()).enumerate() {
            let tol = 1e-5f32.max(s.abs() * 1e-5);
            assert!((s - v).abs() <= tol, "element {i}: scalar {s} vs avx2 {v}");
        }
    }

    /// The naive fold at `level`: ascending `p` from 0.0 with mul-then-add
    /// (scalar) or FMA (AVX2), then `+ bias` (0.0 when absent) — the exact
    /// per-element contract of every entry point.
    fn reference(
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        [m, k, n]: [usize; 3],
        level: KernelLevel,
    ) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (x, y) = (a[i * k + p], b[p * n + j]);
                    acc = match level {
                        KernelLevel::Scalar => acc + x * y,
                        _ => x.mul_add(y, acc),
                    };
                }
                out[i * n + j] = acc + bias.map_or(0.0, |bias| bias[i]);
            }
        }
        out
    }

    fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    #[test]
    fn block_edges_match_naive_exactly() {
        // k straddles one and two KC blocks (the partial sum passes
        // through the output between them); n spans more than one NC block
        // and ends mid-panel; m ends mid-tile, is 1, or spans several MC
        // blocks so rows split across tasks. Every entry point, at every
        // thread count, must reproduce the naive fold bit for bit at each
        // level the host runs.
        let wide = NC + NR + 3;
        let mut shapes = vec![
            ([2 * MR + 1, 0, wide], true),
            ([1, KC + 1, wide], false),
            ([2 * MC + 7, KC + 1, 2 * NR + 5], true),
        ];
        for k in [KC - 1, KC, KC + 1, 2 * KC + 3] {
            shapes.push(([2 * MR + 1, k, wide], k == KC + 1));
        }
        let mut levels = vec![KernelLevel::Scalar];
        if crate::simd::detect_level() >= KernelLevel::Avx2 {
            levels.push(KernelLevel::Avx2);
        }
        for (case, ([m, k, n], with_bias)) in shapes.into_iter().enumerate() {
            let seed = 1000 + 10 * case as u64;
            let a = random_vec(m * k, seed);
            let b = random_vec(k * n, seed + 1);
            let bias = with_bias.then(|| random_vec(m, seed + 2));
            let at = transposed(&a, m, k);
            let bt = transposed(&b, k, n);
            for &level in &levels {
                // The transposed entry points carry no bias.
                let with = reference(&a, &b, bias.as_deref(), [m, k, n], level);
                let plain = reference(&a, &b, None, [m, k, n], level);
                crate::simd::with_level(level, || {
                    for threads in 1..=3 {
                        let views = [
                            (
                                "a*b",
                                MatRef::rows(&a, k),
                                MatRef::rows(&b, n),
                                bias.as_deref(),
                                &with,
                            ),
                            (
                                "at*b",
                                MatRef::cols(&at, m),
                                MatRef::rows(&b, n),
                                None,
                                &plain,
                            ),
                            (
                                "a*bt",
                                MatRef::rows(&a, k),
                                MatRef::cols(&bt, k),
                                None,
                                &plain,
                            ),
                        ];
                        for (what, va, vb, bias, want) in views {
                            let mut out = vec![f32::NAN; m * n];
                            gemm(va, vb, &mut out, [m, k, n], bias, threads);
                            assert!(
                                out.iter()
                                    .zip(want)
                                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                                "{what} {m}x{k}x{n} at {level:?}, {threads} threads"
                            );
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn public_transposed_entries_read_views_in_place() {
        // The slice entry points must agree bit for bit with the plain
        // GEMM on an explicitly transposed copy, across KC and NC blocks.
        crate::simd::with_level(KernelLevel::Scalar, || {
            let (m, k, n) = (MR + 1, KC + 5, NC + 1);
            let a = random_vec(m * k, 51);
            let b = random_vec(k * n, 52);
            let mut want = vec![0.0; m * n];
            matmul_into(&a, &b, &mut want, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            matmul_transpose_a_into(&transposed(&a, m, k), &b, &mut got, k, m, n);
            assert_eq!(got, want, "transpose_a");
            let mut got = vec![f32::NAN; m * n];
            matmul_transpose_b_into(&a, &transposed(&b, k, n), &mut got, m, k, n);
            assert_eq!(got, want, "transpose_b");
        });
    }
}
