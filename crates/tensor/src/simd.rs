//! Runtime-detected SIMD kernels for the f32 inner loops.
//!
//! Everything here is dependency-free `core::arch` code behind one cached
//! dispatch decision: AVX-512F when the CPU has it, AVX2 otherwise
//! (detected once via `is_x86_feature_detected!`), the portable scalar
//! twins as the fallback — or when the `FNR_SIMD` environment variable
//! pins the level (`FNR_SIMD=off`, `0`, `false` or `scalar` disables
//! vectorization entirely — the A/B switch the bench legs use — and
//! `FNR_SIMD=avx2` caps an AVX-512 host at the 256-bit kernels).
//!
//! # Bit-identity contract
//!
//! Every vector kernel reproduces its scalar twin's result **bit for
//! bit**, not approximately: the repro tables and the serve response
//! digest are byte-compared in CI, so the kernels are restricted to
//! element-wise shapes (`out[j] ⊕= a·b[j]`) whose per-element operation
//! sequence is independent of the vector width. Consequences:
//!
//! - No horizontal reductions: a tree-summed dot product reorders IEEE
//!   additions. Callers that need a reduction restructure it into an
//!   accumulate-over-outputs ([`axpy`] / [`layer_forward`]) form instead.
//! - No fused multiply-add: FMA rounds once where `mul` + `add` round
//!   twice, so the vector kernels use separate `mul_ps` / `add_ps` even
//!   on FMA hardware (the feature is detected only so [`active`] can
//!   report it).
//! - Division and square root *are* used vectorized (in [`adam_step`] and
//!   [`quantize_static`]): `vdivps` / `vsqrtps` are IEEE correctly
//!   rounded, so they match the scalar `/` and `f32::sqrt` exactly.
//! - Round-to-integer is emulated exactly, never approximated: round half
//!   away from zero is `t = trunc(x)`, plus `copysign(1, x)` where
//!   `|x − t| ≥ 0.5`. `x − t` is exact and every `|x| ≥ 2²³` is already
//!   integral, so this is [`f32::round`] bit for bit, ±0, ±∞ and NaN
//!   included. The increment is blended in, never added as a masked
//!   `±0.0`, which would turn a `-0.0` result into `+0.0`.
//! - Clamps are `min(hi, max(lo, r))`, bounds first: `vminps` / `vmaxps`
//!   return their second operand when either is NaN or both are zeros,
//!   so a NaN or signed-zero `r` passes through exactly as [`f32::clamp`]
//!   returns it. The other operand order would clamp NaN to a bound.
//!
//! The whole-layer kernels ([`layer_forward`], [`layer_backward`]) exist
//! because per-stripe [`axpy`] calls on 16–32-element rows spend more
//! time in call overhead and accumulator load/store than in arithmetic:
//! hoisting the dispatch to one call per layer lets the output tile live
//! in vector registers across the whole input loop while performing the
//! exact per-element addition sequence of the stripe loop. The last
//! outputs that fill no whole vector (1–7 under AVX2, 1–15 under
//! AVX-512) run as one masked block with the same per-lane sequence, so a
//! 4-wide NeRF head layer is one vector, not four scalar loops.
//!
//! # Sample tiles
//!
//! [`layer_forward_rows`] and [`layer_backward_rows`] run one layer over a
//! row-major batch of samples, the GEMM form of the per-sample GEMV
//! kernels. Under AVX-512 they work in tiles of [`TILE_ROWS`] = 8 rows:
//! each weight vector is loaded once per tile, and the tile's 8
//! independent rows keep the vector units busy where one row's dependency
//! chain would leave them waiting. Rows are still independent
//! computations, so a tile changes where values live, never what is added
//! to what:
//!
//! - **Forward.** Each output element of each row starts at zero, adds
//!   `x_i · w_i` for ascending `i` (a separate `mul` and `add`), then adds
//!   the bias: the per-row kernels' sequence. Interleaving 8 rows
//!   interleaves 8 independent sums and reorders none of them.
//! - **Weight gradient.** Each entry `wg[o][j]` gets `δ[r][o] · x[r][j]`
//!   for rows `r` in ascending order, exactly as `rows` per-row calls in
//!   turn would add them; the tile only keeps the entry in a register
//!   between its 8 adds.
//! - **Input gradient.** The per-row kernel skips an output whose `δ` is
//!   exactly zero. The tile keeps that skip as a masked add (a `vcmpps`
//!   `NEQ_UQ` lane mask of the broadcast `δ`, then `mask_add`), never by
//!   dropping the branch: adding the zero product is not exact in
//!   general, because `0 · ±∞` and `0 · NaN` are NaN, so an unmasked add
//!   would turn a finite gradient into NaN wherever a weight is infinite.
//!
//! Ragged tail rows (fewer than 8) and the AVX2 and scalar levels run the
//! per-row kernels, so the tile kernels are bit-identical to per-row calls
//! at every level by construction where they do not tile and by the
//! arguments above where they do.
//!
//! The scalar twins are public so property suites can drive both paths
//! over random shapes and assert bitwise equality.

use std::sync::atomic::{AtomicU8, Ordering};

/// The dispatch decision: which kernel family runs. Ordered by
/// capability, so `level() >= SimdLevel::Avx2` asks "are 256-bit kernels
/// safe to call".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops (the proptest oracles).
    Scalar,
    /// 256-bit AVX2 kernels.
    Avx2,
    /// 512-bit AVX-512F kernels (AVX2 remains available for tails).
    Avx512,
}

const UNDECIDED: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;
const AVX512: u8 = 3;

/// Cached dispatch decision; 0 until the first [`level`] call.
static LEVEL: AtomicU8 = AtomicU8::new(UNDECIDED);

/// Detection: the environment pin wins, then the CPU decides.
fn detect() -> u8 {
    let cap = match std::env::var("FNR_SIMD") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            match v.as_str() {
                "off" | "0" | "false" | "scalar" => return SCALAR,
                "avx2" => AVX2,
                _ => AVX512,
            }
        }
        Err(_) => AVX512,
    };
    #[cfg(target_arch = "x86_64")]
    {
        if cap >= AVX512 && std::arch::is_x86_feature_detected!("avx512f") {
            return AVX512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return AVX2;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cap;
    SCALAR
}

/// The active dispatch level (feature-detect once, then cached).
#[inline]
pub fn level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        AVX512 => SimdLevel::Avx512,
        AVX2 => SimdLevel::Avx2,
        SCALAR => SimdLevel::Scalar,
        _ => {
            let detected = detect();
            LEVEL.store(detected, Ordering::Relaxed);
            match detected {
                AVX512 => SimdLevel::Avx512,
                AVX2 => SimdLevel::Avx2,
                _ => SimdLevel::Scalar,
            }
        }
    }
}

/// Human-readable name of the active level (for bench records and logs).
pub fn active() -> &'static str {
    let base = match level() {
        SimdLevel::Avx512 => "avx512f",
        SimdLevel::Avx2 => "avx2",
        SimdLevel::Scalar => return "scalar",
    };
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        // FMA present but deliberately unused — see the module docs'
        // bit-identity contract.
        return match level() {
            SimdLevel::Avx512 => "avx512f(+fma unused)",
            _ => "avx2(+fma unused)",
        };
    }
    base
}

/// Test hook: `true` pins the dispatch to the scalar twins, `false`
/// re-runs detection (environment + CPU). Process-global, so equivalence
/// tests comparing the two paths in one process must serialize around it;
/// because every kernel is bit-identical across levels, a concurrent test
/// observing the "wrong" level still sees correct results. Forcing
/// *upward* past what the CPU supports is deliberately impossible.
pub fn force_scalar(on: bool) {
    LEVEL.store(if on { SCALAR } else { detect() }, Ordering::Relaxed);
}

/// Test hook: caps the dispatch at `cap`, or at detection (environment +
/// CPU) where that is lower, so tests outside this crate can run each
/// level the host has in one process. Process-global like
/// [`force_scalar`]; `force_scalar(false)` lifts the cap.
pub fn cap_level(cap: SimdLevel) {
    let cap = match cap {
        SimdLevel::Scalar => SCALAR,
        SimdLevel::Avx2 => AVX2,
        SimdLevel::Avx512 => AVX512,
    };
    LEVEL.store(cap.min(detect()), Ordering::Relaxed);
}

/// `out[j] += a * b[j]` — the accumulate kernel under the dense GEMM
/// column stripes and the CSR Gustavson row scaling. Bit-identical to
/// [`axpy_scalar`] at every dispatch level.
///
/// # Panics
///
/// Panics (via the slice zip in the scalar twin / debug assert in the
/// vector path) if the slices differ in length.
#[inline]
pub fn axpy(out: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), b.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        let lv = level();
        // SAFETY: the matching CPU feature was runtime-detected.
        if lv == SimdLevel::Avx512 && out.len() >= 16 {
            unsafe { axpy_avx512(out, a, b) };
            return;
        }
        if lv >= SimdLevel::Avx2 && out.len() >= 8 {
            unsafe { axpy_avx2(out, a, b) };
            return;
        }
    }
    axpy_scalar(out, a, b);
}

/// The portable twin of [`axpy`] — also the proptest oracle.
#[inline]
pub fn axpy_scalar(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// `out[j] += b[j]` — the gradient-merge kernel (shard partials, MLP
/// grads, bias gradients). Bit-identical to [`add_assign_scalar`] at
/// every level.
#[inline]
pub fn add_assign(out: &mut [f32], b: &[f32]) {
    debug_assert_eq!(out.len(), b.len(), "add_assign length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        let lv = level();
        // SAFETY: the matching CPU feature was runtime-detected.
        if lv == SimdLevel::Avx512 && out.len() >= 16 {
            unsafe { add_assign_avx512(out, b) };
            return;
        }
        if lv >= SimdLevel::Avx2 && out.len() >= 8 {
            unsafe { add_assign_avx2(out, b) };
            return;
        }
    }
    add_assign_scalar(out, b);
}

/// The portable twin of [`add_assign`] — also the proptest oracle.
#[inline]
pub fn add_assign_scalar(out: &mut [f32], b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += bv;
    }
}

/// `out[j] += rows[r · n + j]` for each whole row `r` in ascending order,
/// `n = out.len()` — the bias-gradient sum over a batch of delta rows.
/// Each element receives the rows in the order one [`add_assign`] per row
/// adds them, so the result is bit-identical to [`add_rows_scalar`]; the
/// vector kernels keep `out` in registers across all the rows instead of
/// loading and storing it once per row.
#[inline]
pub fn add_rows(out: &mut [f32], rows: &[f32]) {
    add_rows_at(level(), out, rows);
}

/// The portable twin of [`add_rows`]: one [`add_assign_scalar`] per row.
pub fn add_rows_scalar(out: &mut [f32], rows: &[f32]) {
    add_rows_at(SimdLevel::Scalar, out, rows);
}

fn add_rows_at(lv: SimdLevel, out: &mut [f32], rows: &[f32]) {
    let n = out.len();
    if n == 0 {
        return;
    }
    debug_assert_eq!(rows.len() % n, 0, "add_rows: rows must be whole");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching CPU feature was runtime-detected; the
        // kernels read only the `rows.len() / n` whole rows.
        if lv == SimdLevel::Avx512 {
            unsafe { add_rows_avx512(out, rows) };
            return;
        }
        if lv == SimdLevel::Avx2 {
            unsafe { add_rows_avx2(out, rows) };
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lv;
    for row in rows.chunks_exact(n) {
        add_assign_scalar(out, row);
    }
}

/// One dense layer forward through a transposed (`in × out` row-major)
/// weight slice: `out[j] = (Σ_i x[i] · wt[i][j]) + bias[j]`, products
/// added in ascending `i` and the bias joined last — the exact addition
/// sequence of [`layer_forward_scalar`], which the whole-layer vector
/// kernels reproduce while keeping the output tile in registers.
///
/// `wt.len()` must equal `x.len() * out.len()` (row stride `out.len()`).
#[inline]
pub fn layer_forward(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    layer_forward_at(level(), out, wt, x, bias);
}

/// [`layer_forward`] at dispatch level `lv`, which must not exceed
/// [`level`]'s CPU detection.
#[inline]
fn layer_forward_at(lv: SimdLevel, out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    debug_assert_eq!(wt.len(), x.len() * out.len(), "packed weight shape mismatch");
    debug_assert_eq!(bias.len(), out.len(), "bias width mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching CPU feature was runtime-detected.
        if lv == SimdLevel::Avx512 {
            unsafe { layer_forward_avx512(out, wt, x, bias) };
            return;
        }
        if lv == SimdLevel::Avx2 {
            unsafe { layer_forward_avx2(out, wt, x, bias) };
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lv;
    layer_forward_scalar(out, wt, x, bias);
}

/// The portable twin of [`layer_forward`] — also the proptest oracle.
pub fn layer_forward_scalar(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    let n = out.len();
    out.fill(0.0);
    for (i, &xi) in x.iter().enumerate() {
        axpy_scalar(out, xi, &wt[i * n..(i + 1) * n]);
    }
    for (o, &b) in out.iter_mut().zip(bias) {
        *o += b;
    }
}

/// One dense layer backward: for each output `o` with upstream gradient
/// `delta[o]`, accumulates the weight gradient `wg[o][j] += delta[o] ·
/// input[j]` (always, like the scalar loop) and the input gradient
/// `d_in[j] += delta[o] · w[o][j]` (skipping `delta[o] == 0.0` exactly as
/// the scalar loop does — ReLU-masked rows). `w`/`wg` are `out × in`
/// row-major; `d_in` is accumulated into (callers zero it first).
/// Bit-identical to [`layer_backward_scalar`] at every level.
#[inline]
pub fn layer_backward(d_in: &mut [f32], w: &[f32], wg: &mut [f32], delta: &[f32], input: &[f32]) {
    layer_backward_at(level(), d_in, w, wg, delta, input);
}

/// [`layer_backward`] at dispatch level `lv`, which must not exceed
/// [`level`]'s CPU detection.
#[inline]
fn layer_backward_at(lv: SimdLevel, d_in: &mut [f32], w: &[f32], wg: &mut [f32], delta: &[f32], input: &[f32]) {
    debug_assert_eq!(d_in.len(), input.len(), "input width mismatch");
    debug_assert_eq!(w.len(), delta.len() * input.len(), "weight shape mismatch");
    debug_assert_eq!(w.len(), wg.len(), "weight grad shape mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching CPU feature was runtime-detected.
        if lv == SimdLevel::Avx512 {
            unsafe { layer_backward_avx512(d_in, w, wg, delta, input) };
            return;
        }
        if lv == SimdLevel::Avx2 {
            unsafe { layer_backward_avx2(d_in, w, wg, delta, input) };
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lv;
    layer_backward_scalar(d_in, w, wg, delta, input);
}

/// The portable twin of [`layer_backward`] — also the proptest oracle.
/// Two passes in the original backward order: all weight-gradient rows,
/// then the `d != 0.0`-gated input-gradient accumulation.
pub fn layer_backward_scalar(
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
) {
    let cols = d_in.len();
    for (o, &d) in delta.iter().enumerate() {
        axpy_scalar(&mut wg[o * cols..(o + 1) * cols], d, input);
    }
    for (o, &d) in delta.iter().enumerate() {
        if d != 0.0 {
            axpy_scalar(d_in, d, &w[o * cols..(o + 1) * cols]);
        }
    }
}

/// Rows per sample tile of [`layer_forward_rows`] and
/// [`layer_backward_rows`].
pub const TILE_ROWS: usize = 8;

/// [`layer_forward`] over a row-major batch: row `r` of `out` (`rows ×
/// n`, `n = bias.len()`) is `layer_forward` of row `r` of `x` (`rows ×
/// ins`, `ins = wt.len() / n`), bit for bit. Under AVX-512 the rows run in
/// tiles of [`TILE_ROWS`] that load each weight vector once for the whole
/// tile; ragged tail rows and the other levels take the per-row kernel.
#[inline]
pub fn layer_forward_rows(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    layer_forward_rows_at(level(), out, wt, x, bias);
}

/// The portable twin of [`layer_forward_rows`]: one
/// [`layer_forward_scalar`] per row.
pub fn layer_forward_rows_scalar(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    layer_forward_rows_at(SimdLevel::Scalar, out, wt, x, bias);
}

fn layer_forward_rows_at(lv: SimdLevel, out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    let n = bias.len();
    if n == 0 {
        return;
    }
    let (ins, rows) = (wt.len() / n, out.len() / n);
    debug_assert_eq!(wt.len(), ins * n, "packed weight shape mismatch");
    debug_assert_eq!(out.len(), rows * n, "output rows mismatch");
    debug_assert_eq!(x.len(), rows * ins, "input rows mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx512 {
        done = rows - rows % TILE_ROWS;
        // SAFETY: AVX-512F was runtime-detected; `ins` and `rows` are
        // derived from `wt` and `out`, so the kernel's `wt`, `bias` and
        // `out` indices are in bounds, and slicing `x` panics unless it
        // holds `done` whole rows.
        unsafe { layer_forward_rows_avx512(&mut out[..done * n], wt, &x[..done * ins], bias) };
    }
    for r in done..rows {
        layer_forward_at(lv, &mut out[r * n..][..n], wt, &x[r * ins..][..ins], bias);
    }
}

/// [`layer_backward`] over a row-major batch of `rows` samples, in
/// ascending row order: `d_in` and `input` are `rows × cols`, `delta` is
/// `rows × outs`, and `w`/`wg` are `outs × cols` as in `layer_backward`.
/// Bit-identical to calling `layer_backward` on each row in turn: every
/// weight-gradient entry receives the rows in ascending order, and each
/// row's input gradient skips its `delta == 0.0` outputs. Under AVX-512
/// the skip is a masked add rather than a branch (see the module docs);
/// ragged tail rows and the other levels take the per-row kernel.
#[inline]
pub fn layer_backward_rows(
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
    rows: usize,
) {
    layer_backward_rows_at(level(), d_in, w, wg, delta, input, rows);
}

/// The portable twin of [`layer_backward_rows`]: one
/// [`layer_backward_scalar`] per row.
pub fn layer_backward_rows_scalar(
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
    rows: usize,
) {
    layer_backward_rows_at(SimdLevel::Scalar, d_in, w, wg, delta, input, rows);
}

fn layer_backward_rows_at(
    lv: SimdLevel,
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
    rows: usize,
) {
    if rows == 0 {
        return;
    }
    let (cols, outs) = (d_in.len() / rows, delta.len() / rows);
    debug_assert_eq!(d_in.len(), rows * cols, "input-gradient rows mismatch");
    debug_assert_eq!(delta.len(), rows * outs, "delta rows mismatch");
    debug_assert_eq!(input.len(), rows * cols, "input rows mismatch");
    // The kernels index `w` and `wg` by `outs × cols`: checked always.
    assert_eq!(w.len(), outs * cols, "weight shape mismatch");
    assert_eq!(wg.len(), w.len(), "weight grad shape mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if lv == SimdLevel::Avx512 && outs > 0 && cols > 0 {
        done = rows - rows % TILE_ROWS;
        // SAFETY: AVX-512F was runtime-detected, `w` and `wg` hold
        // `outs × cols` values (asserted above), and the sliced rows hold
        // `done` whole rows (slicing panics otherwise).
        unsafe {
            layer_backward_rows_avx512(
                &mut d_in[..done * cols],
                w,
                wg,
                &delta[..done * outs],
                &input[..done * cols],
                outs,
                cols,
            )
        };
    }
    for r in done..rows {
        let rc = r * cols..(r + 1) * cols;
        layer_backward_at(lv, &mut d_in[rc.clone()], w, wg, &delta[r * outs..][..outs], &input[rc]);
    }
}

/// One Adam step over a flat parameter vector — the element-wise update
/// `m ← β₁m + (1−β₁)g`, `v ← β₂v + (1−β₂)g·g`, `p ← p − lr·(m/bc₁) /
/// (√(v/bc₂) + ε)`, exactly the scalar expression of
/// [`adam_step_scalar`] (vector `div`/`sqrt` are correctly rounded, so
/// every level produces the same bits).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn adam_step(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    b1: f32,
    b2: f32,
    eps: f32,
) {
    adam_step_at(level(), params, grads, m, v, lr, bc1, bc2, b1, b2, eps);
}

/// [`adam_step`] at dispatch level `lv`, which must not exceed
/// [`level`]'s CPU detection.
#[allow(clippy::too_many_arguments)]
#[inline]
fn adam_step_at(
    lv: SimdLevel,
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    b1: f32,
    b2: f32,
    eps: f32,
) {
    debug_assert_eq!(params.len(), grads.len(), "grad length mismatch");
    debug_assert_eq!(params.len(), m.len(), "m length mismatch");
    debug_assert_eq!(params.len(), v.len(), "v length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the matching CPU feature was runtime-detected.
        if lv == SimdLevel::Avx512 {
            unsafe { adam_step_avx512(params, grads, m, v, lr, bc1, bc2, b1, b2, eps) };
            return;
        }
        if lv == SimdLevel::Avx2 {
            unsafe { adam_step_avx2(params, grads, m, v, lr, bc1, bc2, b1, b2, eps) };
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lv;
    adam_step_scalar(params, grads, m, v, lr, bc1, bc2, b1, b2, eps);
}

/// The portable twin of [`adam_step`] — also the proptest oracle.
#[allow(clippy::too_many_arguments)]
pub fn adam_step_scalar(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    b1: f32,
    b2: f32,
    eps: f32,
) {
    for i in 0..params.len() {
        let g = grads[i];
        m[i] = b1 * m[i] + (1.0 - b1) * g;
        v[i] = b2 * v[i] + (1.0 - b2) * g * g;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        params[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// `out[j] = round(a[j] / scale).clamp(lo, hi) * scale` — the static
/// activation quantizer of the integer inference paths: divide by the
/// step, round half away from zero, clamp to the integer range, and
/// dequantize. Bit-identical to [`quantize_static_scalar`] at every level,
/// and so to the `(v / scale).round().clamp(lo, hi) * scale` expression it
/// replaces, for every input including ±0, ±∞, NaN and subnormals.
///
/// `lo <= hi` must hold and neither may be NaN, as for [`f32::clamp`]
/// (whose panic the scalar twin keeps).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn quantize_static(out: &mut [f32], a: &[f32], scale: f32, lo: f32, hi: f32) {
    assert_eq!(out.len(), a.len(), "quantize length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        let lv = level();
        // SAFETY: the matching CPU feature was runtime-detected, and the
        // lengths are equal (asserted above).
        if lv == SimdLevel::Avx512 {
            unsafe { quantize_static_avx512(out, a, scale, lo, hi) };
            return;
        }
        if lv == SimdLevel::Avx2 {
            unsafe { quantize_static_avx2(out, a, scale, lo, hi) };
            return;
        }
    }
    quantize_static_scalar(out, a, scale, lo, hi);
}

/// The portable twin of [`quantize_static`] — also the proptest oracle.
/// It spells out the exact per-lane operation sequence of the vector
/// kernels: a correctly rounded divide, round half away from zero as
/// `t = trunc(x)` plus `copysign(1, x)` where `|x − t| ≥ 0.5` (`x − t` is
/// exact, and any `|x| ≥ 2²³` is already integral, so this equals
/// [`f32::round`]), a NaN-preserving clamp, then the multiply.
pub fn quantize_static_scalar(out: &mut [f32], a: &[f32], scale: f32, lo: f32, hi: f32) {
    for (o, &v) in out.iter_mut().zip(a) {
        let x = v / scale;
        let t = x.trunc();
        let r = if (x - t).abs() >= 0.5 { t + 1.0f32.copysign(x) } else { t };
        *o = r.clamp(lo, hi) * scale;
    }
}

/// AVX2 `out[j] += a * b[j]`.
///
/// # Safety
///
/// The CPU must support AVX2 and the slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let va = _mm256_set1_ps(a);
    let mut j = 0;
    while j + 8 <= n {
        let vb = _mm256_loadu_ps(b.as_ptr().add(j));
        let vo = _mm256_loadu_ps(out.as_ptr().add(j));
        // mul then add, never fused: each element must round exactly as
        // the scalar twin's `o + a * b` does.
        let prod = _mm256_mul_ps(va, vb);
        _mm256_storeu_ps(out.as_mut_ptr().add(j), _mm256_add_ps(vo, prod));
        j += 8;
    }
    while j < n {
        *out.get_unchecked_mut(j) += a * *b.get_unchecked(j);
        j += 1;
    }
}

/// AVX-512 `out[j] += a * b[j]`.
///
/// # Safety
///
/// The CPU must support AVX-512F (and AVX2, for the 8-wide tail) and the
/// slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2")]
unsafe fn axpy_avx512(out: &mut [f32], a: f32, b: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let va = _mm512_set1_ps(a);
    let mut j = 0;
    while j + 16 <= n {
        let vb = _mm512_loadu_ps(b.as_ptr().add(j));
        let vo = _mm512_loadu_ps(out.as_ptr().add(j));
        let prod = _mm512_mul_ps(va, vb);
        _mm512_storeu_ps(out.as_mut_ptr().add(j), _mm512_add_ps(vo, prod));
        j += 16;
    }
    if j + 8 <= n {
        let va8 = _mm256_set1_ps(a);
        let vb = _mm256_loadu_ps(b.as_ptr().add(j));
        let vo = _mm256_loadu_ps(out.as_ptr().add(j));
        _mm256_storeu_ps(out.as_mut_ptr().add(j), _mm256_add_ps(vo, _mm256_mul_ps(va8, vb)));
        j += 8;
    }
    while j < n {
        *out.get_unchecked_mut(j) += a * *b.get_unchecked(j);
        j += 1;
    }
}

/// AVX2 `out[j] += b[j]`.
///
/// # Safety
///
/// The CPU must support AVX2 and the slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(out: &mut [f32], b: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let mut j = 0;
    while j + 8 <= n {
        let vb = _mm256_loadu_ps(b.as_ptr().add(j));
        let vo = _mm256_loadu_ps(out.as_ptr().add(j));
        _mm256_storeu_ps(out.as_mut_ptr().add(j), _mm256_add_ps(vo, vb));
        j += 8;
    }
    while j < n {
        *out.get_unchecked_mut(j) += *b.get_unchecked(j);
        j += 1;
    }
}

/// AVX-512 `out[j] += b[j]`.
///
/// # Safety
///
/// The CPU must support AVX-512F (and AVX2) and the slices must have
/// equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2")]
unsafe fn add_assign_avx512(out: &mut [f32], b: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let mut j = 0;
    while j + 16 <= n {
        let vb = _mm512_loadu_ps(b.as_ptr().add(j));
        let vo = _mm512_loadu_ps(out.as_ptr().add(j));
        _mm512_storeu_ps(out.as_mut_ptr().add(j), _mm512_add_ps(vo, vb));
        j += 16;
    }
    if j + 8 <= n {
        let vb = _mm256_loadu_ps(b.as_ptr().add(j));
        let vo = _mm256_loadu_ps(out.as_ptr().add(j));
        _mm256_storeu_ps(out.as_mut_ptr().add(j), _mm256_add_ps(vo, vb));
        j += 8;
    }
    while j < n {
        *out.get_unchecked_mut(j) += *b.get_unchecked(j);
        j += 1;
    }
}

/// AVX2 [`add_rows`]: column blocks of 16 and 8 held in registers across
/// the rows, then the last 1–7 columns in scalar, row by row.
///
/// # Safety
///
/// The CPU must support AVX2 and `out` must not be empty.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_rows_avx2(out: &mut [f32], rows: &[f32]) {
    let n = out.len();
    let count = rows.len() / n;
    let (op, rp) = (out.as_mut_ptr(), rows.as_ptr());
    let mut c = 0;
    while c + 16 <= n {
        add_rows_block_avx2::<2>(op.add(c), rp.add(c), n, count);
        c += 16;
    }
    if c + 8 <= n {
        add_rows_block_avx2::<1>(op.add(c), rp.add(c), n, count);
        c += 8;
    }
    if c < n {
        for row in rows.chunks_exact(n) {
            add_assign_scalar(&mut out[c..], &row[c..]);
        }
    }
}

/// `V` 8-lane vectors of [`add_rows_avx2`] starting at `op`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn add_rows_block_avx2<const V: usize>(op: *mut f32, rp: *const f32, n: usize, count: usize) {
    use std::arch::x86_64::*;
    let mut acc: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(op.add(8 * v)));
    for r in 0..count {
        let row = rp.add(r * n);
        for (v, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_loadu_ps(row.add(8 * v)));
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm256_storeu_ps(op.add(8 * v), *a);
    }
}

/// AVX-512 [`add_rows`]: each block of up to 32 columns (the last vector
/// masked) held in registers across the rows.
///
/// # Safety
///
/// The CPU must support AVX-512F and `out` must not be empty.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn add_rows_avx512(out: &mut [f32], rows: &[f32]) {
    let n = out.len();
    let count = rows.len() / n;
    let (op, rp) = (out.as_mut_ptr(), rows.as_ptr());
    for_column_blocks(n, |v, c, tail| match v {
        2 => add_rows_block_avx512::<2>(op.add(c), rp.add(c), n, count, tail),
        _ => add_rows_block_avx512::<1>(op.add(c), rp.add(c), n, count, tail),
    });
}

/// One `V`-vector column block of [`add_rows_avx512`] starting at `op`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn add_rows_block_avx512<const V: usize>(op: *mut f32, rp: *const f32, n: usize, count: usize, tail: u16) {
    use std::arch::x86_64::*;
    let mut acc: [__m512; V] =
        std::array::from_fn(|v| _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), op.add(16 * v)));
    for r in 0..count {
        let row = rp.add(r * n);
        for (v, a) in acc.iter_mut().enumerate() {
            *a = _mm512_add_ps(*a, _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), row.add(16 * v)));
        }
    }
    for (v, a) in acc.iter().enumerate() {
        _mm512_mask_storeu_ps(op.add(16 * v), block_mask::<V>(v, tail), *a);
    }
}

/// AVX2 whole-layer forward: output tiles of 4/2/1 × 256-bit, then one
/// masked 256-bit block for the last 1–7 outputs, held in registers across
/// the input loop, per-element addition order identical to
/// [`layer_forward_scalar`].
///
/// # Safety
///
/// The CPU must support AVX2; slice shapes as in [`layer_forward`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn layer_forward_avx2(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let wp = wt.as_ptr();
    let bp = bias.as_ptr();
    let op = out.as_mut_ptr();
    let mut j = 0;
    while j + 32 <= n {
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            let va = _mm256_set1_ps(xi);
            let row = wp.add(i * n + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, _mm256_loadu_ps(row)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, _mm256_loadu_ps(row.add(8))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(va, _mm256_loadu_ps(row.add(16))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(va, _mm256_loadu_ps(row.add(24))));
        }
        _mm256_storeu_ps(op.add(j), _mm256_add_ps(a0, _mm256_loadu_ps(bp.add(j))));
        _mm256_storeu_ps(op.add(j + 8), _mm256_add_ps(a1, _mm256_loadu_ps(bp.add(j + 8))));
        _mm256_storeu_ps(op.add(j + 16), _mm256_add_ps(a2, _mm256_loadu_ps(bp.add(j + 16))));
        _mm256_storeu_ps(op.add(j + 24), _mm256_add_ps(a3, _mm256_loadu_ps(bp.add(j + 24))));
        j += 32;
    }
    if j + 16 <= n {
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            let va = _mm256_set1_ps(xi);
            let row = wp.add(i * n + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(va, _mm256_loadu_ps(row)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(va, _mm256_loadu_ps(row.add(8))));
        }
        _mm256_storeu_ps(op.add(j), _mm256_add_ps(a0, _mm256_loadu_ps(bp.add(j))));
        _mm256_storeu_ps(op.add(j + 8), _mm256_add_ps(a1, _mm256_loadu_ps(bp.add(j + 8))));
        j += 16;
    }
    if j + 8 <= n {
        let mut a0 = _mm256_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(xi), _mm256_loadu_ps(wp.add(i * n + j))));
        }
        _mm256_storeu_ps(op.add(j), _mm256_add_ps(a0, _mm256_loadu_ps(bp.add(j))));
        j += 8;
    }
    if j < n {
        // The last 1–7 outputs as one masked block: masked-off lanes load
        // nothing and are never stored.
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let m = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j) as i32), lanes);
        let mut a0 = _mm256_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(xi), _mm256_maskload_ps(wp.add(i * n + j), m)));
        }
        _mm256_maskstore_ps(op.add(j), m, _mm256_add_ps(a0, _mm256_maskload_ps(bp.add(j), m)));
    }
}

/// AVX-512 whole-layer forward: 512-bit register tiles of 32 and 16
/// outputs, then one masked 512-bit block for the last 1–15 outputs, same
/// addition order as [`layer_forward_scalar`].
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX2; shapes as in
/// [`layer_forward`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2")]
unsafe fn layer_forward_avx512(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    let wp = wt.as_ptr();
    let bp = bias.as_ptr();
    let op = out.as_mut_ptr();
    let mut j = 0;
    while j + 32 <= n {
        let mut a0 = _mm512_setzero_ps();
        let mut a1 = _mm512_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            let va = _mm512_set1_ps(xi);
            let row = wp.add(i * n + j);
            a0 = _mm512_add_ps(a0, _mm512_mul_ps(va, _mm512_loadu_ps(row)));
            a1 = _mm512_add_ps(a1, _mm512_mul_ps(va, _mm512_loadu_ps(row.add(16))));
        }
        _mm512_storeu_ps(op.add(j), _mm512_add_ps(a0, _mm512_loadu_ps(bp.add(j))));
        _mm512_storeu_ps(op.add(j + 16), _mm512_add_ps(a1, _mm512_loadu_ps(bp.add(j + 16))));
        j += 32;
    }
    if j + 16 <= n {
        let mut a0 = _mm512_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            a0 = _mm512_add_ps(a0, _mm512_mul_ps(_mm512_set1_ps(xi), _mm512_loadu_ps(wp.add(i * n + j))));
        }
        _mm512_storeu_ps(op.add(j), _mm512_add_ps(a0, _mm512_loadu_ps(bp.add(j))));
        j += 16;
    }
    if j < n {
        // The last 1–15 outputs as one masked block: masked-off lanes load
        // zero and are never stored.
        let m = (1u16 << (n - j)) - 1;
        let mut a0 = _mm512_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            a0 = _mm512_add_ps(a0, _mm512_mul_ps(_mm512_set1_ps(xi), _mm512_maskz_loadu_ps(m, wp.add(i * n + j))));
        }
        _mm512_mask_storeu_ps(op.add(j), m, _mm512_add_ps(a0, _mm512_maskz_loadu_ps(m, bp.add(j))));
    }
}

/// AVX2 whole-layer backward: column tiles of the input gradient live in
/// registers across the output loop; weight-gradient rows stream through
/// memory. Per-element update order identical to
/// [`layer_backward_scalar`].
///
/// # Safety
///
/// The CPU must support AVX2; shapes as in [`layer_backward`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn layer_backward_avx2(
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
) {
    use std::arch::x86_64::*;
    let cols = d_in.len();
    let wp = w.as_ptr();
    let gp = wg.as_mut_ptr();
    let ip = input.as_ptr();
    let dp = d_in.as_mut_ptr();
    let mut c = 0;
    while c + 16 <= cols {
        let in0 = _mm256_loadu_ps(ip.add(c));
        let in1 = _mm256_loadu_ps(ip.add(c + 8));
        let mut a0 = _mm256_loadu_ps(dp.add(c));
        let mut a1 = _mm256_loadu_ps(dp.add(c + 8));
        for (o, &d) in delta.iter().enumerate() {
            let vd = _mm256_set1_ps(d);
            let grow = gp.add(o * cols + c);
            _mm256_storeu_ps(grow, _mm256_add_ps(_mm256_loadu_ps(grow), _mm256_mul_ps(vd, in0)));
            _mm256_storeu_ps(
                grow.add(8),
                _mm256_add_ps(_mm256_loadu_ps(grow.add(8)), _mm256_mul_ps(vd, in1)),
            );
            if d != 0.0 {
                let wrow = wp.add(o * cols + c);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(vd, _mm256_loadu_ps(wrow)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(vd, _mm256_loadu_ps(wrow.add(8))));
            }
        }
        _mm256_storeu_ps(dp.add(c), a0);
        _mm256_storeu_ps(dp.add(c + 8), a1);
        c += 16;
    }
    if c + 8 <= cols {
        let in0 = _mm256_loadu_ps(ip.add(c));
        let mut a0 = _mm256_loadu_ps(dp.add(c));
        for (o, &d) in delta.iter().enumerate() {
            let vd = _mm256_set1_ps(d);
            let grow = gp.add(o * cols + c);
            _mm256_storeu_ps(grow, _mm256_add_ps(_mm256_loadu_ps(grow), _mm256_mul_ps(vd, in0)));
            if d != 0.0 {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(vd, _mm256_loadu_ps(wp.add(o * cols + c))));
            }
        }
        _mm256_storeu_ps(dp.add(c), a0);
        c += 8;
    }
    while c < cols {
        let xv = *ip.add(c);
        let mut acc = *dp.add(c);
        for (o, &d) in delta.iter().enumerate() {
            *gp.add(o * cols + c) += d * xv;
            if d != 0.0 {
                acc += d * *wp.add(o * cols + c);
            }
        }
        *dp.add(c) = acc;
        c += 1;
    }
}

/// AVX-512 whole-layer backward — the 512-bit form of
/// [`layer_backward_avx2`].
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX2; shapes as in
/// [`layer_backward`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2")]
unsafe fn layer_backward_avx512(
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
) {
    use std::arch::x86_64::*;
    let cols = d_in.len();
    let wp = w.as_ptr();
    let gp = wg.as_mut_ptr();
    let ip = input.as_ptr();
    let dp = d_in.as_mut_ptr();
    let mut c = 0;
    while c + 32 <= cols {
        let in0 = _mm512_loadu_ps(ip.add(c));
        let in1 = _mm512_loadu_ps(ip.add(c + 16));
        let mut a0 = _mm512_loadu_ps(dp.add(c));
        let mut a1 = _mm512_loadu_ps(dp.add(c + 16));
        for (o, &d) in delta.iter().enumerate() {
            let vd = _mm512_set1_ps(d);
            let grow = gp.add(o * cols + c);
            _mm512_storeu_ps(grow, _mm512_add_ps(_mm512_loadu_ps(grow), _mm512_mul_ps(vd, in0)));
            _mm512_storeu_ps(
                grow.add(16),
                _mm512_add_ps(_mm512_loadu_ps(grow.add(16)), _mm512_mul_ps(vd, in1)),
            );
            if d != 0.0 {
                let wrow = wp.add(o * cols + c);
                a0 = _mm512_add_ps(a0, _mm512_mul_ps(vd, _mm512_loadu_ps(wrow)));
                a1 = _mm512_add_ps(a1, _mm512_mul_ps(vd, _mm512_loadu_ps(wrow.add(16))));
            }
        }
        _mm512_storeu_ps(dp.add(c), a0);
        _mm512_storeu_ps(dp.add(c + 16), a1);
        c += 32;
    }
    if c + 16 <= cols {
        let in0 = _mm512_loadu_ps(ip.add(c));
        let mut a0 = _mm512_loadu_ps(dp.add(c));
        for (o, &d) in delta.iter().enumerate() {
            let vd = _mm512_set1_ps(d);
            let grow = gp.add(o * cols + c);
            _mm512_storeu_ps(grow, _mm512_add_ps(_mm512_loadu_ps(grow), _mm512_mul_ps(vd, in0)));
            if d != 0.0 {
                a0 = _mm512_add_ps(a0, _mm512_mul_ps(vd, _mm512_loadu_ps(wp.add(o * cols + c))));
            }
        }
        _mm512_storeu_ps(dp.add(c), a0);
        c += 16;
    }
    if c + 8 <= cols {
        let in0 = _mm256_loadu_ps(ip.add(c));
        let mut a0 = _mm256_loadu_ps(dp.add(c));
        for (o, &d) in delta.iter().enumerate() {
            let vd = _mm256_set1_ps(d);
            let grow = gp.add(o * cols + c);
            _mm256_storeu_ps(grow, _mm256_add_ps(_mm256_loadu_ps(grow), _mm256_mul_ps(vd, in0)));
            if d != 0.0 {
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(vd, _mm256_loadu_ps(wp.add(o * cols + c))));
            }
        }
        _mm256_storeu_ps(dp.add(c), a0);
        c += 8;
    }
    while c < cols {
        let xv = *ip.add(c);
        let mut acc = *dp.add(c);
        for (o, &d) in delta.iter().enumerate() {
            *gp.add(o * cols + c) += d * xv;
            if d != 0.0 {
                acc += d * *wp.add(o * cols + c);
            }
        }
        *dp.add(c) = acc;
        c += 1;
    }
}

/// Lane mask of vector `v` of a column block whose last vector is `tail`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn block_mask<const V: usize>(v: usize, tail: u16) -> u16 {
    if v + 1 == V {
        tail
    } else {
        u16::MAX
    }
}

/// Splits `n` columns into blocks of `V` 16-lane vectors: calls `block(V,
/// c, tail)` for each, where `tail` masks the block's last vector. Full
/// 32-column blocks first, then one 1- or 2-vector remainder block.
#[cfg(target_arch = "x86_64")]
#[inline]
fn for_column_blocks(n: usize, mut block: impl FnMut(usize, usize, u16)) {
    let mut c = 0;
    while c + 32 <= n {
        block(2, c, u16::MAX);
        c += 32;
    }
    let rem = n - c;
    let tail = |k: usize| if k == 16 { u16::MAX } else { (1u16 << k) - 1 };
    if rem > 16 {
        block(2, c, tail(rem - 16));
    } else if rem > 0 {
        block(1, c, tail(rem));
    }
}

/// AVX-512 sample-tile forward: for each tile of [`TILE_ROWS`] rows and
/// each block of up to 32 output columns, the tile's 8 × 2 accumulators
/// stay in registers across the input loop while each weight vector is
/// loaded once and multiplied by every row's broadcast input. Each output
/// element sees zero, `+= x_i · w_i` for ascending `i`, then `+ bias`:
/// the per-row kernels' sequence.
///
/// # Safety
///
/// The CPU must support AVX-512F; `out` and `x` hold whole tiles of rows
/// (`out.len() = tiles · TILE_ROWS · n`) with shapes as in
/// [`layer_forward_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn layer_forward_rows_avx512(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    let n = bias.len();
    let ins = wt.len() / n;
    for t in 0..out.len() / (n * TILE_ROWS) {
        let op = out.as_mut_ptr().add(t * TILE_ROWS * n);
        let xp = x.as_ptr().add(t * TILE_ROWS * ins);
        for_column_blocks(n, |v, c, tail| match v {
            2 => forward_tile_block::<2>(op, xp, wt.as_ptr(), bias.as_ptr(), n, ins, c, tail),
            _ => forward_tile_block::<1>(op, xp, wt.as_ptr(), bias.as_ptr(), n, ins, c, tail),
        });
    }
}

/// One `V`-vector column block of [`layer_forward_rows_avx512`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn forward_tile_block<const V: usize>(
    op: *mut f32,
    xp: *const f32,
    wp: *const f32,
    bp: *const f32,
    n: usize,
    ins: usize,
    c: usize,
    tail: u16,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); V]; TILE_ROWS];
    for i in 0..ins {
        let row = wp.add(i * n + c);
        let wv: [__m512; V] =
            std::array::from_fn(|v| _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), row.add(16 * v)));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let xv = _mm512_set1_ps(*xp.add(r * ins + i));
            for (a, &w) in acc_r.iter_mut().zip(&wv) {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(xv, w));
            }
        }
    }
    for v in 0..V {
        let m = block_mask::<V>(v, tail);
        let b = _mm512_maskz_loadu_ps(m, bp.add(c + 16 * v));
        for (r, acc_r) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(op.add(r * n + c + 16 * v), m, _mm512_add_ps(acc_r[v], b));
        }
    }
}

/// AVX-512 sample-tile backward, in two passes per tile of
/// [`TILE_ROWS`] rows. The weight-gradient pass keeps the tile's input
/// rows in registers and adds the 8 rows' `δ · x` products to each
/// gradient vector in row order before storing it once. The
/// input-gradient pass keeps the tile's `d_in` rows in registers across
/// the output loop and adds `δ · w` under a `δ != 0` lane mask. The
/// passes write disjoint buffers, so splitting them reorders nothing.
///
/// # Safety
///
/// The CPU must support AVX-512F; `outs ≥ 1` and `cols ≥ 1`; `w` and
/// `wg` hold `outs × cols` values; `d_in` and `input` hold whole tiles of
/// `cols`-wide rows and `delta` as many `outs`-wide rows.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn layer_backward_rows_avx512(
    d_in: &mut [f32],
    w: &[f32],
    wg: &mut [f32],
    delta: &[f32],
    input: &[f32],
    outs: usize,
    cols: usize,
) {
    let wgp = wg.as_mut_ptr();
    for t in 0..d_in.len() / (cols * TILE_ROWS) {
        let dinp = d_in.as_mut_ptr().add(t * TILE_ROWS * cols);
        let ip = input.as_ptr().add(t * TILE_ROWS * cols);
        let dp = delta.as_ptr().add(t * TILE_ROWS * outs);
        for_column_blocks(cols, |v, c, tail| match v {
            2 => {
                weight_grad_tile_block::<2>(wgp, dp, ip, outs, cols, c, tail);
                input_grad_tile_block::<2>(dinp, w.as_ptr(), dp, outs, cols, c, tail);
            }
            _ => {
                weight_grad_tile_block::<1>(wgp, dp, ip, outs, cols, c, tail);
                input_grad_tile_block::<1>(dinp, w.as_ptr(), dp, outs, cols, c, tail);
            }
        });
    }
}

/// The weight-gradient pass of one `V`-vector column block:
/// `wg[o][c..] += δ[r][o] · x[r][c..]` for rows `r` ascending.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn weight_grad_tile_block<const V: usize>(
    gp: *mut f32,
    dp: *const f32,
    ip: *const f32,
    outs: usize,
    cols: usize,
    c: usize,
    tail: u16,
) {
    use std::arch::x86_64::*;
    let x: [[__m512; V]; TILE_ROWS] = std::array::from_fn(|r| {
        std::array::from_fn(|v| _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), ip.add(r * cols + c + 16 * v)))
    });
    for o in 0..outs {
        let grow = gp.add(o * cols + c);
        let mut g: [__m512; V] =
            std::array::from_fn(|v| _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), grow.add(16 * v)));
        for (r, x_r) in x.iter().enumerate() {
            let vd = _mm512_set1_ps(*dp.add(r * outs + o));
            for (gv, &xv) in g.iter_mut().zip(x_r) {
                *gv = _mm512_add_ps(*gv, _mm512_mul_ps(vd, xv));
            }
        }
        for (v, &gv) in g.iter().enumerate() {
            _mm512_mask_storeu_ps(grow.add(16 * v), block_mask::<V>(v, tail), gv);
        }
    }
}

/// The input-gradient pass of one `V`-vector column block:
/// `d_in[r][c..] += δ[r][o] · w[o][c..]` for `o` ascending, masked to the
/// outputs with `δ[r][o] != 0` (`NEQ_UQ`, so a NaN δ adds, as `!=` does).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn input_grad_tile_block<const V: usize>(
    dinp: *mut f32,
    wp: *const f32,
    dp: *const f32,
    outs: usize,
    cols: usize,
    c: usize,
    tail: u16,
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_ps();
    let mut acc: [[__m512; V]; TILE_ROWS] = std::array::from_fn(|r| {
        std::array::from_fn(|v| _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), dinp.add(r * cols + c + 16 * v)))
    });
    for o in 0..outs {
        let wrow = wp.add(o * cols + c);
        let wv: [__m512; V] =
            std::array::from_fn(|v| _mm512_maskz_loadu_ps(block_mask::<V>(v, tail), wrow.add(16 * v)));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let vd = _mm512_set1_ps(*dp.add(r * outs + o));
            let live = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(vd, zero);
            for (a, &w) in acc_r.iter_mut().zip(&wv) {
                *a = _mm512_mask_add_ps(*a, live, *a, _mm512_mul_ps(vd, w));
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (v, &a) in acc_r.iter().enumerate() {
            _mm512_mask_storeu_ps(dinp.add(r * cols + c + 16 * v), block_mask::<V>(v, tail), a);
        }
    }
}

/// AVX2 Adam step — element-wise, correctly-rounded `div`/`sqrt`, exact
/// expression of [`adam_step_scalar`].
///
/// # Safety
///
/// The CPU must support AVX2; all slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn adam_step_avx2(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    b1: f32,
    b2: f32,
    eps: f32,
) {
    use std::arch::x86_64::*;
    let n = params.len();
    let vb1 = _mm256_set1_ps(b1);
    let vo1 = _mm256_set1_ps(1.0 - b1);
    let vb2 = _mm256_set1_ps(b2);
    let vo2 = _mm256_set1_ps(1.0 - b2);
    let vbc1 = _mm256_set1_ps(bc1);
    let vbc2 = _mm256_set1_ps(bc2);
    let vlr = _mm256_set1_ps(lr);
    let veps = _mm256_set1_ps(eps);
    let mut j = 0;
    while j + 8 <= n {
        let vg = _mm256_loadu_ps(grads.as_ptr().add(j));
        let vm = _mm256_add_ps(
            _mm256_mul_ps(vb1, _mm256_loadu_ps(m.as_ptr().add(j))),
            _mm256_mul_ps(vo1, vg),
        );
        _mm256_storeu_ps(m.as_mut_ptr().add(j), vm);
        let vv = _mm256_add_ps(
            _mm256_mul_ps(vb2, _mm256_loadu_ps(v.as_ptr().add(j))),
            _mm256_mul_ps(_mm256_mul_ps(vo2, vg), vg),
        );
        _mm256_storeu_ps(v.as_mut_ptr().add(j), vv);
        let mhat = _mm256_div_ps(vm, vbc1);
        let vhat = _mm256_div_ps(vv, vbc2);
        let upd = _mm256_div_ps(_mm256_mul_ps(vlr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), veps));
        let vp = _mm256_sub_ps(_mm256_loadu_ps(params.as_ptr().add(j)), upd);
        _mm256_storeu_ps(params.as_mut_ptr().add(j), vp);
        j += 8;
    }
    if j < n {
        adam_step_scalar(
            &mut params[j..],
            &grads[j..],
            &mut m[j..],
            &mut v[j..],
            lr,
            bc1,
            bc2,
            b1,
            b2,
            eps,
        );
    }
}

/// AVX-512 Adam step — the 512-bit form of [`adam_step_avx2`].
///
/// # Safety
///
/// The CPU must support AVX-512F; all slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn adam_step_avx512(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    b1: f32,
    b2: f32,
    eps: f32,
) {
    use std::arch::x86_64::*;
    let n = params.len();
    let vb1 = _mm512_set1_ps(b1);
    let vo1 = _mm512_set1_ps(1.0 - b1);
    let vb2 = _mm512_set1_ps(b2);
    let vo2 = _mm512_set1_ps(1.0 - b2);
    let vbc1 = _mm512_set1_ps(bc1);
    let vbc2 = _mm512_set1_ps(bc2);
    let vlr = _mm512_set1_ps(lr);
    let veps = _mm512_set1_ps(eps);
    let mut j = 0;
    while j + 16 <= n {
        let vg = _mm512_loadu_ps(grads.as_ptr().add(j));
        let vm = _mm512_add_ps(
            _mm512_mul_ps(vb1, _mm512_loadu_ps(m.as_ptr().add(j))),
            _mm512_mul_ps(vo1, vg),
        );
        _mm512_storeu_ps(m.as_mut_ptr().add(j), vm);
        let vv = _mm512_add_ps(
            _mm512_mul_ps(vb2, _mm512_loadu_ps(v.as_ptr().add(j))),
            _mm512_mul_ps(_mm512_mul_ps(vo2, vg), vg),
        );
        _mm512_storeu_ps(v.as_mut_ptr().add(j), vv);
        let mhat = _mm512_div_ps(vm, vbc1);
        let vhat = _mm512_div_ps(vv, vbc2);
        let upd = _mm512_div_ps(_mm512_mul_ps(vlr, mhat), _mm512_add_ps(_mm512_sqrt_ps(vhat), veps));
        let vp = _mm512_sub_ps(_mm512_loadu_ps(params.as_ptr().add(j)), upd);
        _mm512_storeu_ps(params.as_mut_ptr().add(j), vp);
        j += 16;
    }
    if j < n {
        adam_step_scalar(
            &mut params[j..],
            &grads[j..],
            &mut m[j..],
            &mut v[j..],
            lr,
            bc1,
            bc2,
            b1,
            b2,
            eps,
        );
    }
}

/// AVX2 [`quantize_static`]: 8 lanes per step, the tail through masked
/// loads and stores; the round and clamp follow the module docs'
/// bit-identity contract.
///
/// # Safety
///
/// The CPU must support AVX2 and the slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_static_avx2(out: &mut [f32], a: &[f32], scale: f32, lo: f32, hi: f32) {
    use std::arch::x86_64::*;
    let n = out.len();
    let vscale = _mm256_set1_ps(scale);
    let (vlo, vhi) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi));
    let sign = _mm256_set1_ps(-0.0);
    let (half, one) = (_mm256_set1_ps(0.5), _mm256_set1_ps(1.0));
    let quantize = |v: __m256| {
        let x = _mm256_div_ps(v, vscale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let up = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, _mm256_sub_ps(x, t)), half);
        // Blend rather than add a masked step: `-0.0 + 0.0` would lose
        // the sign of a truncated negative fraction.
        let step = _mm256_or_ps(_mm256_and_ps(x, sign), one);
        let r = _mm256_blendv_ps(t, _mm256_add_ps(t, step), up);
        _mm256_mul_ps(_mm256_min_ps(vhi, _mm256_max_ps(vlo, r)), vscale)
    };
    let mut j = 0;
    while j + 8 <= n {
        let q = quantize(_mm256_loadu_ps(a.as_ptr().add(j)));
        _mm256_storeu_ps(out.as_mut_ptr().add(j), q);
        j += 8;
    }
    if j < n {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j) as i32), lane);
        let q = quantize(_mm256_maskload_ps(a.as_ptr().add(j), live));
        _mm256_maskstore_ps(out.as_mut_ptr().add(j), live, q);
    }
}

/// AVX-512 [`quantize_static`]: 16 lanes per step, one masked step for
/// the tail; same operation sequence as [`quantize_static_avx2`].
///
/// # Safety
///
/// The CPU must support AVX-512F and the slices must have equal length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_static_avx512(out: &mut [f32], a: &[f32], scale: f32, lo: f32, hi: f32) {
    use std::arch::x86_64::*;
    let n = out.len();
    let vscale = _mm512_set1_ps(scale);
    let (vlo, vhi) = (_mm512_set1_ps(lo), _mm512_set1_ps(hi));
    let sign = _mm512_set1_epi32(i32::MIN);
    let (half, one) = (_mm512_set1_ps(0.5), _mm512_set1_epi32(1.0f32.to_bits() as i32));
    let quantize = |v: __m512| {
        let x = _mm512_div_ps(v, vscale);
        let t = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let up = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_abs_ps(_mm512_sub_ps(x, t)), half);
        let step = _mm512_castsi512_ps(_mm512_or_si512(_mm512_and_si512(_mm512_castps_si512(x), sign), one));
        let r = _mm512_mask_add_ps(t, up, t, step);
        _mm512_mul_ps(_mm512_min_ps(vhi, _mm512_max_ps(vlo, r)), vscale)
    };
    let mut j = 0;
    while j + 16 <= n {
        let q = quantize(_mm512_loadu_ps(a.as_ptr().add(j)));
        _mm512_storeu_ps(out.as_mut_ptr().add(j), q);
        j += 16;
    }
    if j < n {
        let live: __mmask16 = (1u16 << (n - j)) - 1;
        let q = quantize(_mm512_maskz_loadu_ps(live, a.as_ptr().add(j)));
        _mm512_mask_storeu_ps(out.as_mut_ptr().add(j), live, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // ~20 % exact zeros (±0 sign behavior matters for
                // bit-identity) plus a wide magnitude spread.
                if rng.gen_bool(0.2) {
                    if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        -0.0
                    }
                } else {
                    rng.gen_range(-1e4f32..=1e4)
                }
            })
            .collect()
    }

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Bitwise equality, except that any NaN equals any NaN: LLVM may
    /// commute `fadd`/`fmul` operands, so which of two NaN operands'
    /// payload survives is not part of the contract.
    fn bits_eq_nan(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Every dispatch level this host can run, weakest first.
    fn host_levels() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(SimdLevel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(SimdLevel::Avx512);
            }
        }
        levels
    }

    /// A `rows × width` batch from `random_vec`, with every third row
    /// (from row 1) all `±0.0` — an input row ReLU masked entirely.
    fn tile_rows(rows: usize, width: usize, seed: u64) -> Vec<f32> {
        let mut x = random_vec(rows * width, seed);
        for (r, row) in x.chunks_exact_mut(width.max(1)).enumerate() {
            if r % 3 == 1 {
                for (i, v) in row.iter_mut().enumerate() {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        x
    }

    /// `random_vec` with ±∞ and NaN sprinkled in every 7th slot.
    fn with_non_finite(mut w: Vec<f32>) -> Vec<f32> {
        const ODD: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for (i, v) in w.iter_mut().enumerate().filter(|(i, _)| i % 7 == 3) {
            *v = ODD[i % 3];
        }
        w
    }

    /// The tile forward at each host level against per-row
    /// [`layer_forward`] calls at that level and at the scalar level.
    fn check_forward_rows(rows: usize, ins: usize, outs: usize, seed: u64) -> Result<(), String> {
        let wt = random_vec(ins * outs, seed ^ 0x71);
        let x = tile_rows(rows, ins, seed ^ 0x72);
        let bias = random_vec(outs, seed ^ 0x73);
        let per_row = |lv| {
            let mut out = vec![0.0f32; rows * outs];
            for (o, xr) in out.chunks_exact_mut(outs).zip(x.chunks_exact(ins)) {
                layer_forward_at(lv, o, &wt, xr, &bias);
            }
            out
        };
        let scalar = per_row(SimdLevel::Scalar);
        for lv in host_levels() {
            let mut tile = vec![f32::NAN; rows * outs];
            layer_forward_rows_at(lv, &mut tile, &wt, &x, &bias);
            if !bits_eq(&tile, &per_row(lv)) || !bits_eq(&tile, &scalar) {
                return Err(format!("{lv:?} {rows} rows {ins}->{outs}: tile forward drifted"));
            }
        }
        Ok(())
    }

    /// The tile backward at each host level against per-row
    /// [`layer_backward`] calls at that level and at the scalar level,
    /// with non-finite weights next to exact-zero deltas and non-zero
    /// starting `wg` / `d_in`.
    fn check_backward_rows(rows: usize, cols: usize, outs: usize, seed: u64) -> Result<(), String> {
        let w = with_non_finite(random_vec(outs * cols, seed ^ 0x81));
        let input = tile_rows(rows, cols, seed ^ 0x82);
        let delta = random_vec(rows * outs, seed ^ 0x83);
        let wg0 = random_vec(outs * cols, seed ^ 0x84);
        let din0 = random_vec(rows * cols, seed ^ 0x85);
        let per_row = |lv| {
            let (mut wg, mut d_in) = (wg0.clone(), din0.clone());
            for r in 0..rows {
                let rc = r * cols..(r + 1) * cols;
                layer_backward_at(lv, &mut d_in[rc.clone()], &w, &mut wg, &delta[r * outs..][..outs], &input[rc]);
            }
            (wg, d_in)
        };
        let (wg_s, din_s) = per_row(SimdLevel::Scalar);
        for lv in host_levels() {
            let (mut wg, mut d_in) = (wg0.clone(), din0.clone());
            layer_backward_rows_at(lv, &mut d_in, &w, &mut wg, &delta, &input, rows);
            let (wg_r, din_r) = per_row(lv);
            let shape = format!("{lv:?} {rows} rows {outs}x{cols}");
            if !bits_eq_nan(&wg, &wg_r) || !bits_eq_nan(&wg, &wg_s) {
                return Err(format!("{shape}: tile weight grads drifted"));
            }
            if !bits_eq_nan(&d_in, &din_r) || !bits_eq_nan(&d_in, &din_s) {
                return Err(format!("{shape}: tile input grads drifted"));
            }
        }
        Ok(())
    }

    /// [`add_rows`] at each host level against the per-row
    /// [`add_assign`] loop it replaces and against its scalar twin, with
    /// ±0, ±∞ and NaN in both the rows and the starting sums.
    fn check_add_rows(rows: usize, width: usize, seed: u64) -> Result<(), String> {
        let deltas = with_non_finite(random_vec(rows * width, seed ^ 0x91));
        let base = with_non_finite(random_vec(width, seed ^ 0x92));
        let mut per_row = base.clone();
        for row in deltas.chunks_exact(width) {
            add_assign(&mut per_row, row);
        }
        let mut scalar = base.clone();
        add_rows_scalar(&mut scalar, &deltas);
        for lv in host_levels() {
            let mut out = base.clone();
            add_rows_at(lv, &mut out, &deltas);
            if !bits_eq_nan(&out, &per_row) || !bits_eq_nan(&out, &scalar) {
                return Err(format!("{lv:?} {rows} rows of width {width}: row sum drifted"));
            }
        }
        Ok(())
    }

    #[test]
    fn row_kernels_match_per_row_calls_over_every_tail_and_block_width() {
        // Row counts 0–17 cover 0, 1 and 2 whole tiles with every ragged
        // tail; the widths hit the 16-lane mask boundaries and the fig20a
        // layer widths 4, 16 and 32.
        for rows in 0..=17 {
            for (k, &a) in [1usize, 4, 15, 16, 17, 32, 33, 40].iter().enumerate() {
                for &b in &[1usize, 4, 16, 31, 32] {
                    let seed = (rows * 64 + k * 8 + b) as u64;
                    check_forward_rows(rows, a, b, seed).unwrap();
                    check_forward_rows(rows, b, a, seed).unwrap();
                    check_backward_rows(rows, a, b, seed).unwrap();
                    check_backward_rows(rows, b, a, seed).unwrap();
                }
            }
        }
    }

    #[test]
    fn per_row_forward_masks_every_narrow_output_width_at_every_level() {
        // Widths 1–15 end in the masked remainder block, alone or after a
        // whole 8-lane AVX2 block; non-finite weights put ∞ and NaN next to
        // masked-off lanes, and a guard region past `outs` checks that no
        // masked-off lane is stored.
        const GUARD: f32 = 12345.0;
        for outs in 1..=15 {
            for ins in [1usize, 3, 16, 32] {
                let seed = (outs * 64 + ins) as u64;
                let x = random_vec(ins, seed ^ 0x5);
                let bias = random_vec(outs, seed ^ 0x6);
                for wt in [random_vec(ins * outs, seed), with_non_finite(random_vec(ins * outs, seed))] {
                    let mut want = vec![0.0f32; outs];
                    layer_forward_scalar(&mut want, &wt, &x, &bias);
                    for lv in host_levels() {
                        let mut got = vec![GUARD; outs + 16];
                        layer_forward_at(lv, &mut got[..outs], &wt, &x, &bias);
                        assert!(bits_eq_nan(&got[..outs], &want), "{lv:?} {ins}->{outs}: {got:?} vs {want:?}");
                        assert!(got[outs..].iter().all(|&v| v == GUARD), "{lv:?} {ins}->{outs}: store past the end");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_backward_masks_the_zero_delta_skip_instead_of_dropping_it() {
        // δ = 0 against an infinite weight: an unmasked add would put
        // 0 · ∞ = NaN into the input gradient; the per-row kernels skip it.
        let (rows, cols, outs) = (TILE_ROWS, 16, 2);
        let mut w = vec![0.5f32; outs * cols];
        w[3] = f32::INFINITY;
        w[cols + 5] = f32::NAN;
        let delta: Vec<f32> = (0..rows).flat_map(|r| [0.0, if r % 2 == 0 { -0.0 } else { 0.25 }]).collect();
        let input = vec![1.0f32; rows * cols];
        for lv in host_levels() {
            let mut wg = vec![0.0f32; outs * cols];
            let mut d_in = vec![-0.0f32; rows * cols];
            layer_backward_rows_at(lv, &mut d_in, &w, &mut wg, &delta, &input, rows);
            for (r, row) in d_in.chunks_exact(cols).enumerate() {
                if r % 2 == 0 {
                    assert!(row.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()), "{lv:?} row {r}: {row:?}");
                } else {
                    assert!(row[5].is_nan() && row[3] == 0.125, "{lv:?} row {r}: {row:?}");
                }
            }
        }
    }

    /// Adam on a zero state (zero gradient, zero moments) changes no bit
    /// at any level, for any parameter, `−0.0`, subnormals and ±∞
    /// included: `m = β₁·(+0) + (1−β₁)·(+0) = +0`, likewise `v`, and the
    /// step is `lr·(+0/bc₁) / (√(+0/bc₂) + ε) = +0`, so `p − (+0) = p`.
    /// Training relies on it to skip Adam on the entries of a dense level
    /// that no lookup reaches.
    #[test]
    fn adam_step_on_a_zero_state_changes_no_bit() {
        let mut p0 = random_vec(45, 0xADA);
        p0.extend([0.0, -0.0, 1e-45, -1e-45, f32::MIN_POSITIVE, f32::INFINITY, f32::NEG_INFINITY, f32::MAX]);
        let zeros = vec![0.0f32; p0.len()];
        for lv in host_levels() {
            for t in [1, 2, 700] {
                let (b1, b2, eps, lr) = (0.9f32, 0.99f32, 1e-8f32, 1e-2f32);
                let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
                let (mut p, mut m, mut v) = (p0.clone(), zeros.clone(), zeros.clone());
                adam_step_at(lv, &mut p, &zeros, &mut m, &mut v, lr, bc1, bc2, b1, b2, eps);
                assert!(bits_eq(&p, &p0), "{lv:?} t={t}: params moved");
                assert!(bits_eq(&m, &zeros) && bits_eq(&v, &zeros), "{lv:?} t={t}: moments moved");
            }
        }
    }

    #[test]
    fn level_is_cached_and_reportable() {
        let first = level();
        assert_eq!(first, level(), "decision must be stable");
        assert!(!active().is_empty());
    }

    #[test]
    fn level_order_reflects_capability() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
    }

    #[test]
    fn force_scalar_pins_and_releases() {
        let detected = level();
        force_scalar(true);
        assert_eq!(level(), SimdLevel::Scalar);
        force_scalar(false);
        assert_eq!(level(), detected, "re-detection must restore the CPU decision");
        // In the same test: the level is process-global.
        for cap in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            cap_level(cap);
            assert_eq!(level(), cap.min(detected), "a cap never raises the dispatch");
        }
        force_scalar(false);
        assert_eq!(level(), detected);
    }

    /// Quantizer steps: exact powers of two (so `(k + 0.5) · scale`
    /// divides back to an exact half), arbitrary steps, and tiny, subnormal
    /// and huge ones that push the quotient to 0 or ±∞.
    const QUANT_SCALES: [f32; 12] =
        [0.0078125, 0.125, 0.5, 1.0, 4.0, 1048576.0, 0.0117, 0.3, 7.3e12, 1e-38, 1e-45, 3e38];

    /// The INT4 / INT8 / INT16 clamp ranges.
    const QUANT_RANGES: [(f32, f32); 3] = [(-8.0, 7.0), (-128.0, 127.0), (-32768.0, 32767.0)];

    /// The expression the quantizer kernels replace.
    fn quantize_reference(v: f32, scale: f32, lo: f32, hi: f32) -> f32 {
        (v / scale).round().clamp(lo, hi) * scale
    }

    #[test]
    fn quantize_static_matches_f32_round_over_a_bit_pattern_sweep() {
        // Every 65 521st bit pattern: both zeros, subnormals, every
        // exponent, both infinities and NaNs of many payloads.
        let a: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
        let mut fast = vec![0.0f32; a.len()];
        let mut slow = vec![0.0f32; a.len()];
        for scale in QUANT_SCALES {
            for (lo, hi) in QUANT_RANGES {
                quantize_static(&mut fast, &a, scale, lo, hi);
                quantize_static_scalar(&mut slow, &a, scale, lo, hi);
                for ((&v, f), s) in a.iter().zip(&fast).zip(&slow) {
                    let want = quantize_reference(v, scale, lo, hi).to_bits();
                    assert_eq!(s.to_bits(), want, "scalar twin: v={v:e} scale={scale:e}");
                    assert_eq!(f.to_bits(), want, "dispatched: v={v:e} scale={scale:e}");
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Activations that stress the quantizer once divided by `scale`:
        /// ±0, exact halves inside and beyond `[lo, hi]`, the 2²³
        /// boundary and its neighbours, ±∞, NaN, subnormals, arbitrary
        /// bit patterns and plain values.
        fn quant_inputs(n: usize, scale: f32, seed: u64) -> Vec<f32> {
            const EDGES: [f32; 14] = [
                0.0, -0.0, 8388608.0, -8388608.0, 8388607.5, -8388607.5, 8388609.0, -8388609.0,
                16777216.0, 4194303.5, 0.49999997, -0.49999997, 1.5, -2.5,
            ];
            const RAW: [f32; 10] = [
                f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, 1e-45, -1e-45,
                f32::MIN_POSITIVE, -1e-40, f32::MAX, f32::MIN,
            ];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..n)
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => (rng.gen_range(-40_000i32..40_000) as f32 + 0.5) * scale,
                    1 => EDGES[rng.gen_range(0..EDGES.len())] * scale,
                    2 => RAW[rng.gen_range(0..RAW.len())],
                    3 => f32::from_bits(rng.gen_range(0..=u32::MAX)),
                    _ => rng.gen_range(-40_000.0f32..40_000.0) * scale,
                })
                .collect()
        }

        /// Random packed-layer shapes: (ins, outs) with widths crossing
        /// the 8- and 16-lane boundaries.
        fn layer_case(seed: u64, ins: usize, outs: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let wt = random_vec(ins * outs, seed ^ 0x11);
            let x = random_vec(ins, seed ^ 0x12);
            let bias = random_vec(outs, seed ^ 0x13);
            (wt, x, bias)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The dispatched axpy is bit-identical to the scalar twin for
            /// every length — below the vector width, exact multiples of
            /// it, and remainder tails.
            #[test]
            fn prop_axpy_bitwise_matches_scalar_twin(
                n in 0usize..70,
                a_seed in 0u64..1000,
            ) {
                let a = random_vec(1, a_seed ^ 0x51)[0];
                let b = random_vec(n, a_seed ^ 0x52);
                let base = random_vec(n, a_seed ^ 0x53);
                let mut fast = base.clone();
                let mut slow = base;
                axpy(&mut fast, a, &b);
                axpy_scalar(&mut slow, a, &b);
                prop_assert!(bits_eq(&fast, &slow), "n={n}: {fast:?} vs {slow:?}");
            }

            /// Same for the add_assign merge kernel.
            #[test]
            fn prop_add_assign_bitwise_matches_scalar_twin(
                n in 0usize..70,
                seed in 0u64..1000,
            ) {
                let b = random_vec(n, seed ^ 0x61);
                let base = random_vec(n, seed ^ 0x62);
                let mut fast = base.clone();
                let mut slow = base;
                add_assign(&mut fast, &b);
                add_assign_scalar(&mut slow, &b);
                prop_assert!(bits_eq(&fast, &slow), "n={n}: {fast:?} vs {slow:?}");
            }

            /// Repeated accumulation through the vector kernel (the GEMM
            /// usage pattern: many axpys into one stripe) stays bitwise
            /// equal to repeated scalar accumulation.
            #[test]
            fn prop_repeated_axpy_accumulation_matches(
                n in 1usize..40,
                rounds in 1usize..6,
                seed in 0u64..500,
            ) {
                let mut fast = vec![0.0f32; n];
                let mut slow = vec![0.0f32; n];
                for r in 0..rounds as u64 {
                    let a = random_vec(1, seed ^ (r * 31 + 1))[0];
                    let b = random_vec(n, seed ^ (r * 31 + 2));
                    axpy(&mut fast, a, &b);
                    axpy_scalar(&mut slow, a, &b);
                }
                prop_assert!(bits_eq(&fast, &slow));
            }

            /// The dispatched whole-layer forward is bit-identical to its
            /// scalar twin across widths straddling every tile size
            /// (1/8/16/32-lane boundaries on both axes).
            #[test]
            fn prop_layer_forward_bitwise_matches_scalar_twin(
                ins in 1usize..36,
                outs in 1usize..70,
                seed in 0u64..500,
            ) {
                let (wt, x, bias) = layer_case(seed, ins, outs);
                let mut fast = vec![0.0f32; outs];
                let mut slow = vec![0.0f32; outs];
                layer_forward(&mut fast, &wt, &x, &bias);
                layer_forward_scalar(&mut slow, &wt, &x, &bias);
                prop_assert!(bits_eq(&fast, &slow), "{ins}x{outs}: {fast:?} vs {slow:?}");
            }

            /// Output widths 1–15, whose last outputs run the masked
            /// remainder block, match the scalar twin at every host level.
            #[test]
            fn prop_layer_forward_narrow_outputs_match_at_every_level(
                ins in 1usize..40,
                outs in 1usize..16,
                seed in 0u64..500,
            ) {
                let (wt, x, bias) = layer_case(seed, ins, outs);
                let mut slow = vec![0.0f32; outs];
                layer_forward_scalar(&mut slow, &wt, &x, &bias);
                for lv in host_levels() {
                    let mut fast = vec![0.0f32; outs];
                    layer_forward_at(lv, &mut fast, &wt, &x, &bias);
                    prop_assert!(bits_eq(&fast, &slow), "{lv:?} {ins}x{outs}: {fast:?} vs {slow:?}");
                }
            }

            /// The dispatched whole-layer backward accumulates weight
            /// gradients and the input gradient bit-identically to the
            /// scalar twin — including ReLU-masked (exact zero) deltas,
            /// whose propagation skip both paths share.
            #[test]
            fn prop_layer_backward_bitwise_matches_scalar_twin(
                cols in 1usize..40,
                rows in 1usize..20,
                seed in 0u64..500,
            ) {
                let w = random_vec(rows * cols, seed ^ 0x21);
                let input = random_vec(cols, seed ^ 0x22);
                // random_vec already yields ~20 % exact zeros for delta.
                let delta = random_vec(rows, seed ^ 0x23);
                let wg0 = random_vec(rows * cols, seed ^ 0x24);
                let din0 = random_vec(cols, seed ^ 0x25);
                let (mut wg_f, mut wg_s) = (wg0.clone(), wg0);
                let (mut din_f, mut din_s) = (din0.clone(), din0);
                layer_backward(&mut din_f, &w, &mut wg_f, &delta, &input);
                layer_backward_scalar(&mut din_s, &w, &mut wg_s, &delta, &input);
                prop_assert!(bits_eq(&wg_f, &wg_s), "{rows}x{cols}: weight grads drifted");
                prop_assert!(bits_eq(&din_f, &din_s), "{rows}x{cols}: input grads drifted");
            }

            /// The sample-tile forward matches per-row calls at every
            /// host level over random row counts and widths.
            #[test]
            fn prop_layer_forward_rows_matches_per_row_calls(
                rows in 0usize..18,
                ins in 1usize..41,
                outs in 1usize..41,
                seed in 0u64..500,
            ) {
                let checked = check_forward_rows(rows, ins, outs, seed);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }

            /// The bias row sum matches the per-row add loop at every host
            /// level, NaN and signed zeros included.
            #[test]
            fn prop_add_rows_matches_the_per_row_loop(
                rows in 0usize..41,
                width in 1usize..41,
                seed in 0u64..500,
            ) {
                let checked = check_add_rows(rows, width, seed);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }

            /// The sample-tile backward matches per-row calls at every
            /// host level, non-finite weights and exact-zero deltas
            /// included.
            #[test]
            fn prop_layer_backward_rows_matches_per_row_calls(
                rows in 0usize..18,
                cols in 1usize..41,
                outs in 1usize..41,
                seed in 0u64..500,
            ) {
                let checked = check_backward_rows(rows, cols, outs, seed);
                prop_assert!(checked.is_ok(), "{checked:?}");
            }

            /// The dispatched Adam step updates params/m/v bit-identically
            /// to the scalar twin (correctly-rounded vector div/sqrt).
            #[test]
            fn prop_adam_step_bitwise_matches_scalar_twin(
                n in 0usize..70,
                t in 1i32..50,
                seed in 0u64..500,
            ) {
                let g: Vec<f32> =
                    random_vec(n, seed ^ 0x31).iter().map(|v| v * 1e-3).collect();
                let p0 = random_vec(n, seed ^ 0x32);
                let m0: Vec<f32> =
                    random_vec(n, seed ^ 0x33).iter().map(|v| v * 1e-3).collect();
                let v0: Vec<f32> =
                    random_vec(n, seed ^ 0x34).iter().map(|v| (v * 1e-3).abs()).collect();
                let (b1, b2, eps, lr) = (0.9f32, 0.99f32, 1e-8f32, 6e-3f32);
                let bc1 = 1.0 - b1.powi(t);
                let bc2 = 1.0 - b2.powi(t);
                let (mut pf, mut ps) = (p0.clone(), p0);
                let (mut mf, mut ms) = (m0.clone(), m0);
                let (mut vf, mut vs) = (v0.clone(), v0);
                adam_step(&mut pf, &g, &mut mf, &mut vf, lr, bc1, bc2, b1, b2, eps);
                adam_step_scalar(&mut ps, &g, &mut ms, &mut vs, lr, bc1, bc2, b1, b2, eps);
                prop_assert!(bits_eq(&pf, &ps), "params drifted at n={n}");
                prop_assert!(bits_eq(&mf, &ms), "m drifted at n={n}");
                prop_assert!(bits_eq(&vf, &vs), "v drifted at n={n}");
            }

            /// The dispatched quantizer and each ISA kernel match the scalar
            /// twin bit for bit, and the twin matches the `(v / scale)
            /// .round().clamp(lo, hi) * scale` expression it replaced —
            /// over every tail length 0–17 (prefixes of each case) and
            /// whole multi-vector lengths.
            #[test]
            fn prop_quantize_static_bitwise_matches_scalar_twin(
                n in 0usize..50,
                si in 0usize..12,
                ri in 0usize..3,
                seed in 0u64..1000,
            ) {
                let scale = QUANT_SCALES[si];
                let (lo, hi) = QUANT_RANGES[ri];
                let input = quant_inputs(n, scale, seed);
                for len in (0..=n.min(17)).chain([n]) {
                    let a = &input[..len];
                    let mut slow = vec![0.0f32; len];
                    quantize_static_scalar(&mut slow, a, scale, lo, hi);
                    for (&v, s) in a.iter().zip(&slow) {
                        let want = quantize_reference(v, scale, lo, hi);
                        prop_assert!(s.to_bits() == want.to_bits(), "twin: v={v:e} {s:e} vs {want:e}");
                    }
                    let mut fast = vec![0.0f32; len];
                    quantize_static(&mut fast, a, scale, lo, hi);
                    prop_assert!(bits_eq(&fast, &slow), "dispatched, len {len}: {fast:?} vs {slow:?}");
                    #[cfg(target_arch = "x86_64")]
                    {
                        if std::arch::is_x86_feature_detected!("avx2") {
                            let mut fast = vec![0.0f32; len];
                            // SAFETY: AVX2 detected above; equal lengths.
                            unsafe { quantize_static_avx2(&mut fast, a, scale, lo, hi) };
                            prop_assert!(bits_eq(&fast, &slow), "avx2, len {len}: {fast:?} vs {slow:?}");
                        }
                        if std::arch::is_x86_feature_detected!("avx512f") {
                            let mut fast = vec![0.0f32; len];
                            // SAFETY: AVX-512F detected above; equal lengths.
                            unsafe { quantize_static_avx512(&mut fast, a, scale, lo, hi) };
                            prop_assert!(bits_eq(&fast, &slow), "avx512, len {len}: {fast:?} vs {slow:?}");
                        }
                    }
                }
            }

            /// Direct ISA coverage: on CPUs with both families, the AVX2
            /// *and* AVX-512 kernels each match the scalar twin — the
            /// dispatcher only ever exercises the strongest one, so this
            /// drives the others explicitly.
            #[test]
            fn prop_every_available_isa_kernel_matches_scalar(
                ins in 1usize..20,
                outs in 1usize..40,
                seed in 0u64..300,
            ) {
                #[cfg(target_arch = "x86_64")]
                {
                    let (wt, x, bias) = layer_case(seed, ins, outs);
                    let mut slow = vec![0.0f32; outs];
                    layer_forward_scalar(&mut slow, &wt, &x, &bias);
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let mut fast = vec![0.0f32; outs];
                        // SAFETY: AVX2 detected above.
                        unsafe { layer_forward_avx2(&mut fast, &wt, &x, &bias) };
                        prop_assert!(bits_eq(&fast, &slow), "avx2 layer_forward drifted");
                        let base = random_vec(outs, seed ^ 0x41);
                        let mut f2 = base.clone();
                        let mut s2 = base;
                        unsafe { axpy_avx2(&mut f2, x[0], &bias) };
                        axpy_scalar(&mut s2, x[0], &bias);
                        prop_assert!(bits_eq(&f2, &s2), "avx2 axpy drifted");
                    }
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        let mut fast = vec![0.0f32; outs];
                        // SAFETY: AVX-512F detected above.
                        unsafe { layer_forward_avx512(&mut fast, &wt, &x, &bias) };
                        prop_assert!(bits_eq(&fast, &slow), "avx512 layer_forward drifted");
                        let base = random_vec(outs, seed ^ 0x42);
                        let mut f2 = base.clone();
                        let mut s2 = base;
                        unsafe { axpy_avx512(&mut f2, x[0], &bias) };
                        axpy_scalar(&mut s2, x[0], &bias);
                        prop_assert!(bits_eq(&f2, &s2), "avx512 axpy drifted");
                    }
                }
            }
        }
    }
}
