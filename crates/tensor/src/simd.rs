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
//! exact per-element addition sequence of the stripe loop.
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

/// One dense layer forward through a transposed (`in × out` row-major)
/// weight slice: `out[j] = (Σ_i x[i] · wt[i][j]) + bias[j]`, products
/// added in ascending `i` and the bias joined last — the exact addition
/// sequence of [`layer_forward_scalar`], which the whole-layer vector
/// kernels reproduce while keeping the output tile in registers.
///
/// `wt.len()` must equal `x.len() * out.len()` (row stride `out.len()`).
#[inline]
pub fn layer_forward(out: &mut [f32], wt: &[f32], x: &[f32], bias: &[f32]) {
    debug_assert_eq!(wt.len(), x.len() * out.len(), "packed weight shape mismatch");
    debug_assert_eq!(bias.len(), out.len(), "bias width mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        let lv = level();
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
    debug_assert_eq!(d_in.len(), input.len(), "input width mismatch");
    debug_assert_eq!(w.len(), delta.len() * input.len(), "weight shape mismatch");
    debug_assert_eq!(w.len(), wg.len(), "weight grad shape mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        let lv = level();
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
    debug_assert_eq!(params.len(), grads.len(), "grad length mismatch");
    debug_assert_eq!(params.len(), m.len(), "m length mismatch");
    debug_assert_eq!(params.len(), v.len(), "v length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        let lv = level();
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

/// AVX2 whole-layer forward: output tiles of 4/2/1 × 256-bit held in
/// registers across the input loop, per-element addition order identical
/// to [`layer_forward_scalar`].
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
    while j < n {
        let mut acc = 0.0f32;
        for (i, &xi) in x.iter().enumerate() {
            acc += xi * *wp.add(i * n + j);
        }
        *op.add(j) = acc + *bp.add(j);
        j += 1;
    }
}

/// AVX-512 whole-layer forward: 512-bit register tiles, same addition
/// order as [`layer_forward_scalar`].
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
    if j + 8 <= n {
        let mut a0 = _mm256_setzero_ps();
        for (i, &xi) in x.iter().enumerate() {
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(xi), _mm256_loadu_ps(wp.add(i * n + j))));
        }
        _mm256_storeu_ps(op.add(j), _mm256_add_ps(a0, _mm256_loadu_ps(bp.add(j))));
        j += 8;
    }
    while j < n {
        let mut acc = 0.0f32;
        for (i, &xi) in x.iter().enumerate() {
            acc += xi * *wp.add(i * n + j);
        }
        *op.add(j) = acc + *bp.add(j);
        j += 1;
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
