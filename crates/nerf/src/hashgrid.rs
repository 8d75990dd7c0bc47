//! Multi-resolution hash encoding (Instant-NGP, Müller et al. 2022) —
//! the structure FlexNeRFer's Hash Encoding Engine accelerates (§5.2.2).
//!
//! Each level `l` overlays a virtual grid of resolution `N_l = ⌊N_min ·
//! b^l⌋`; a 3-D point is trilinearly interpolated from the feature vectors
//! of its 8 surrounding corners, looked up either *directly* (when the
//! level's grid fits the table — the "coalescing" low-resolution case) or
//! through the spatial XOR hash (the high-resolution "subgrid" case).

use crate::vec3::Vec3;

/// The three spatial hash primes of Instant-NGP.
const PRIMES: [u64; 3] = [1, 2_654_435_761, 805_459_861];

/// Configuration of a multi-resolution hash grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashGridConfig {
    /// Number of resolution levels `L`.
    pub levels: usize,
    /// log2 of the table size `T` per level.
    pub log2_table_size: usize,
    /// Features per level `F`.
    pub features: usize,
    /// Coarsest resolution `N_min`.
    pub base_resolution: usize,
    /// Per-level growth factor `b`.
    pub growth: f32,
}

impl HashGridConfig {
    /// A small configuration suitable for the in-repo experiments
    /// (8 levels × 2 features, 2^13 entries, 16 → ~256 resolution).
    pub fn small() -> Self {
        HashGridConfig {
            levels: 8,
            log2_table_size: 13,
            features: 2,
            base_resolution: 16,
            growth: 1.45,
        }
    }

    /// Resolution of level `l`.
    pub fn resolution(&self, l: usize) -> usize {
        (self.base_resolution as f32 * self.growth.powi(l as i32)).floor() as usize
    }

    /// Output feature width (`levels × features`).
    pub fn output_dims(&self) -> usize {
        self.levels * self.features
    }

    /// Whether level `l` fits the table without hashing (dense indexing —
    /// the case the HEE's coalescing units serve): every entry its corners
    /// can reach, `(max(N_l, 1) + 1)³` of them, lies inside the `T`-entry
    /// table. A resolution-0 level still has corners at coordinate 1.
    pub fn is_dense_level(&self, l: usize) -> bool {
        self.dense_reach(l) <= 1 << self.log2_table_size
    }

    /// Table entries a lookup at level `l` can reach. A dense level
    /// indexes `(c₀n + c₁)n + c₂` with `n = N_l + 1` and every corner
    /// coordinate `cᵈ ≤ max(N_l, 1)`, so entries at or beyond `(max(N_l,
    /// 1) + 1)³` are never read or written; a hashed level reaches all
    /// `T`.
    pub fn live_entries(&self, l: usize) -> usize {
        if self.is_dense_level(l) {
            self.dense_reach(l)
        } else {
            1 << self.log2_table_size
        }
    }

    /// `(max(N_l, 1) + 1)³`: the entries dense indexing at level `l`
    /// reaches.
    fn dense_reach(&self, l: usize) -> usize {
        (self.resolution(l).max(1) + 1).pow(3)
    }
}

/// The trainable multi-resolution hash grid.
#[derive(Debug, Clone)]
pub struct HashGrid {
    config: HashGridConfig,
    /// All feature tables in one flat allocation, one level after another:
    /// `tables[l * level_stride + entry * F + f]`. The flat layout lets the
    /// optimizer split the grid into per-level slices
    /// ([`HashGrid::level_table`]), each the table one [`LevelEncoder`]
    /// gathers from.
    tables: Vec<f32>,
    /// `entries × F` — the span of one level inside [`HashGrid::tables`].
    level_stride: usize,
    /// Each level's lookup constants. Resolution and dense/hashed mode are
    /// functions of the (immutable) config, but recomputing them through
    /// `powi` on every corner lookup dominated the scalar encode cost.
    encoders: Vec<LevelEncoder>,
}

/// The 8 corner contributions of one level lookup: `(table index, weight)`.
pub type CornerLookups = [(usize, f32); 8];

/// Precomputed corner lookups of one point across every level — the hash
/// and trilinear-weight arithmetic computed **once** per sample and shared
/// by the forward encode ([`HashGrid::encode_planned`]) and the backward
/// scatter ([`HashGrid::accumulate_grad_planned`]) of the same point.
/// Buffers are reused across samples via [`HashGrid::plan_into`]. This is
/// the sample-major view of the lookups; training computes the level-major
/// one instead, many samples at a time ([`LevelEncoder::encode`]).
///
/// Layout is corner-major (`slot = ci * levels + l`): one corner's
/// per-level entries are contiguous.
#[derive(Debug, Clone, Default)]
pub struct EncodePlan {
    /// Absolute f32 element index into [`HashGrid::tables`] of corner
    /// `ci`'s feature 0 at level `l`: `l·level_stride + entry·F`.
    idx: Vec<i32>,
    /// Trilinear weight of that corner.
    w: Vec<f32>,
    /// Level count the plan was built for.
    levels: usize,
    /// That grid's [`HashGrid::level_stride`].
    level_stride: usize,
}

/// One level's lookup constants, detached from the [`HashGrid`] so that a
/// level task can encode with them while it holds that level's table
/// mutably (its Adam step runs just before). From
/// [`HashGrid::level_encoder`].
///
/// [`LevelEncoder::encode`] runs entirely on the calling thread. In
/// training that is the pool thread running the level's task; in
/// rendering it is the thread that owns the render tile being flushed: a
/// serving worker rendering its band, or the pool thread that took a pixel
/// row of a whole frame.
#[derive(Debug, Clone, Copy)]
pub struct LevelEncoder {
    /// Grid resolution `N_l`.
    res: usize,
    /// Dense indexing (`(c₀n + c₁)n + c₂`, `n = N_l + 1`) or the XOR hash.
    dense: bool,
    /// `T − 1`.
    table_mask: usize,
    /// Features per entry `F`.
    features: usize,
    /// The level's table length, `T · F`.
    table_len: usize,
}

impl LevelEncoder {
    /// A level of resolution `res` of a grid with `config`, indexed
    /// densely or through the hash.
    fn new(config: &HashGridConfig, res: usize, dense: bool) -> Self {
        let entries = 1 << config.log2_table_size;
        let features = config.features;
        LevelEncoder { res, dense, table_mask: entries - 1, features, table_len: entries * features }
    }

    /// Table entry of an integer corner — dense indexing for coarse
    /// levels, XOR-of-primes hash for fine levels.
    fn corner_index(&self, c: [usize; 3]) -> usize {
        if self.dense {
            let n = self.res + 1;
            (c[0] * n + c[1]) * n + c[2]
        } else {
            let mut h = 0u64;
            for (i, &ci) in c.iter().enumerate() {
                h ^= (ci as u64).wrapping_mul(PRIMES[i]);
            }
            (h as usize) & self.table_mask
        }
    }

    /// The 8 corner `(entry, trilinear weight)` pairs of `p`, clamped to
    /// the unit cube: the one scalar definition every lookup path matches.
    fn corner_lookups(&self, p: Vec3) -> CornerLookups {
        let n = self.res;
        let clamp01 = |v: f32| v.clamp(0.0, 1.0);
        let scaled = [clamp01(p.x) * n as f32, clamp01(p.y) * n as f32, clamp01(p.z) * n as f32];
        let base = scaled.map(|v| (v.floor() as usize).min(n.saturating_sub(1)));
        let frac = [scaled[0] - base[0] as f32, scaled[1] - base[1] as f32, scaled[2] - base[2] as f32];
        let mut out = [(0usize, 0.0f32); 8];
        for (ci, slot) in out.iter_mut().enumerate() {
            let offs = [ci & 1, (ci >> 1) & 1, (ci >> 2) & 1];
            let corner = [base[0] + offs[0], base[1] + offs[1], base[2] + offs[2]];
            let mut w = 1.0f32;
            for d in 0..3 {
                w *= if offs[d] == 1 { frac[d] } else { 1.0 - frac[d] };
            }
            *slot = (self.corner_index(corner), w);
        }
        out
    }

    /// The per-axis corner multipliers and the entry mask of the vector
    /// kernels. A corner's table entry is `t₀ ⊕ t₁ ⊕ t₂` with per-axis
    /// terms `tᵈ = cᵈ · mulᵈ` (wrapping `i32`), where `⊕` is `+` on dense
    /// levels (`mul = ((N+1)², N+1, 1)`, so the sum is `(c₀(N+1) + c₁)(N+1)
    /// + c₂`, and the mask is all ones) and XOR on hashed levels (`mul` =
    /// the primes' low 32 bits, then `& (T−1)`). Both equal
    /// [`LevelEncoder::corner_index`] modulo 2³².
    fn index_lanes(&self) -> ([i32; 3], i32) {
        let n1 = (self.res + 1) as u32;
        if self.dense {
            ([n1.wrapping_mul(n1) as i32, n1 as i32, 1], -1)
        } else {
            (PRIMES.map(|p| p as u32 as i32), self.table_mask as i32)
        }
    }

    /// Plans and encodes `n` samples at this level, lane = sample: the
    /// level-major counterpart of [`HashGrid::plan_into`] +
    /// [`HashGrid::encode_planned`]. Sample `j` sits at `(xyz[0][j],
    /// xyz[1][j], xyz[2][j])`; `table` is the level's table
    /// ([`HashGrid::level_table`]). Writes, structure-of-arrays:
    ///
    /// - `enc[f · n + j]`: feature `f` of sample `j`'s encoding at this
    ///   level (the level's `F` encoding columns);
    /// - `idx[ci · n + j]` and `w[ci · n + j]`: corner `ci`'s
    ///   level-relative element index (`entry · F`) and trilinear weight,
    ///   what [`accumulate_grad_level`] scatters from.
    ///
    /// Bit-identical at every SIMD level to the plan and encode of each
    /// sample on its own: 16 samples per AVX-512 register, 8 per AVX2
    /// register, masked lanes for a final partial register, and a scalar
    /// twin. With `F == 2` the vector kernels fetch each corner's feature
    /// pair with one 64-bit gather (per 8 samples on AVX-512, per 4 on
    /// AVX2) and deinterleave it, instead of one 32-bit gather per
    /// feature. Per lane the kernels clamp as `f32::clamp` does (compare and
    /// blend, so NaN and `−0.0` pass through, as no vector min/max would
    /// let them), then scale, floor, cap and weigh as
    /// [`HashGrid::corner_lookups`] does. Each encoding value is `+0.0`
    /// plus the 8 `w · feature` products in corner order, multiplied then
    /// added, as in [`HashGrid::encode_planned`].
    ///
    /// # Panics
    ///
    /// Panics if the coordinate slices differ in length, `enc` does not
    /// hold `F · n` values, `idx` or `w` not `8 · n`, or `table` is not
    /// this level's table length (or a dense level's corners could reach
    /// past it).
    pub fn encode(&self, table: &[f32], xyz: [&[f32]; 3], enc: &mut [f32], idx: &mut [u32], w: &mut [f32]) {
        self.encode_at(fnr_tensor::simd::level(), table, xyz, enc, idx, w);
    }

    /// [`LevelEncoder::encode`] at dispatch level `lv` (which the host
    /// must support).
    fn encode_at(
        &self,
        lv: fnr_tensor::simd::SimdLevel,
        table: &[f32],
        xyz: [&[f32]; 3],
        enc: &mut [f32],
        idx: &mut [u32],
        w: &mut [f32],
    ) {
        let n = xyz[0].len();
        assert!(xyz[1].len() == n && xyz[2].len() == n, "one coordinate per sample and axis");
        assert_eq!(enc.len(), self.features * n, "F encoding values per sample");
        assert!(idx.len() == 8 * n && w.len() == 8 * n, "8 corners per sample");
        assert_eq!(table.len(), self.table_len, "the level's table");
        // Every corner a dense level can index lies below `(max(N, 1) +
        // 1)³`; the vector kernels gather without bounds checks.
        let reach = if self.dense { (self.res.max(1) + 1).pow(3) } else { self.table_mask + 1 };
        assert!(reach * self.features <= table.len(), "a dense level's corners outgrow its table");
        #[cfg(target_arch = "x86_64")]
        {
            use fnr_tensor::simd::SimdLevel;
            // SAFETY: the matching CPU features were runtime-detected (the
            // dispatch level never exceeds the host's); the lengths are
            // checked above, and every gathered index is below `reach · F`.
            match lv {
                SimdLevel::Avx512 => return unsafe { self.encode_avx512(table, xyz, enc, idx, w) },
                SimdLevel::Avx2 => return unsafe { self.encode_avx2(table, xyz, enc, idx, w) },
                SimdLevel::Scalar => {}
            }
        }
        let _ = lv;
        let f = self.features;
        for j in 0..n {
            let lookups = self.corner_lookups(Vec3::new(xyz[0][j], xyz[1][j], xyz[2][j]));
            for (ci, &(entry, wc)) in lookups.iter().enumerate() {
                idx[ci * n + j] = (entry * f) as u32;
                w[ci * n + j] = wc;
            }
            for fi in 0..f {
                let mut acc = 0.0f32;
                for &(entry, wc) in &lookups {
                    acc += wc * table[entry * f + fi];
                }
                enc[fi * n + j] = acc;
            }
        }
    }

    /// The AVX-512 form of [`LevelEncoder::encode`]: 16 samples per
    /// register. Each corner's indices and weights go to `idx`/`w`. With
    /// `F == 2` the corner's feature pairs are fetched right away, one
    /// 64-bit gather per 8 samples, deinterleaved into the two features
    /// and added in; otherwise, per feature, the 8 corners are gathered
    /// back in order and summed.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F; the slices must have the lengths
    /// [`LevelEncoder::encode_at`] checks, and every corner index must lie
    /// inside `table`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn encode_avx512(&self, table: &[f32], xyz: [&[f32]; 3], enc: &mut [f32], idx: &mut [u32], w: &mut [f32]) {
        use std::arch::x86_64::*;
        let (n, f) = (xyz[0].len(), self.features);
        let (mul, mask) = self.index_lanes();
        let res = _mm512_set1_ps(self.res as f32);
        let max_base = _mm512_set1_epi32(self.res.saturating_sub(1) as i32);
        let (zero, one) = (_mm512_setzero_ps(), _mm512_set1_ps(1.0));
        let (izero, ione) = (_mm512_setzero_si512(), _mm512_set1_epi32(1));
        let features = _mm512_set1_epi32(f as i32);
        let (idx_p, w_p, enc_p) = (idx.as_mut_ptr() as *mut i32, w.as_mut_ptr(), enc.as_mut_ptr());
        let pairs_p = table.as_ptr() as *const i64;
        // Lane k of the pair registers (lo | hi) holds sample k/2's
        // feature k mod 2: the even lanes are feature 0, the odd ones 1.
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_add_epi32(even, ione);
        for j0 in (0..n).step_by(16) {
            let live: __mmask16 = if n - j0 >= 16 { !0 } else { (1 << (n - j0)) - 1 };
            let mut term = [[izero; 2]; 3];
            let mut weight = [[zero; 2]; 3];
            for d in 0..3 {
                // Dead lanes load 0.0, whose corners are in bounds.
                let v = _mm512_maskz_loadu_ps(live, xyz[d].as_ptr().add(j0));
                let below = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, zero);
                let above = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, one);
                let clamped = _mm512_mask_blend_ps(above, _mm512_mask_blend_ps(below, v, zero), one);
                let scaled = _mm512_mul_ps(clamped, res);
                let floor = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(scaled);
                // A NaN converts to i32::MIN; `max(0)` maps it to 0 as the
                // saturating `as usize` cast does.
                let base = _mm512_min_epi32(_mm512_max_epi32(_mm512_cvttps_epi32(floor), izero), max_base);
                let frac = _mm512_sub_ps(scaled, _mm512_cvtepi32_ps(base));
                let m = _mm512_set1_epi32(mul[d]);
                term[d] = [_mm512_mullo_epi32(base, m), _mm512_mullo_epi32(_mm512_add_epi32(base, ione), m)];
                weight[d] = [_mm512_sub_ps(one, frac), frac];
            }
            let mut pair_acc = [zero; 2];
            for ci in 0..8 {
                let (ox, oy, oz) = (ci & 1, (ci >> 1) & 1, ci >> 2);
                let wc = _mm512_mul_ps(_mm512_mul_ps(weight[0][ox], weight[1][oy]), weight[2][oz]);
                let (tx, ty, tz) = (term[0][ox], term[1][oy], term[2][oz]);
                let entry = if self.dense {
                    _mm512_add_epi32(_mm512_add_epi32(tx, ty), tz)
                } else {
                    _mm512_and_si512(_mm512_xor_si512(_mm512_xor_si512(tx, ty), tz), _mm512_set1_epi32(mask))
                };
                let elem = _mm512_mullo_epi32(entry, features);
                _mm512_mask_storeu_epi32(idx_p.add(ci * n + j0), live, elem);
                _mm512_mask_storeu_ps(w_p.add(ci * n + j0), live, wc);
                if f == 2 {
                    // `elem` is even, so each pair is one aligned i64.
                    let lo = _mm512_i32gather_epi64::<4>(_mm512_castsi512_si256(elem), pairs_p);
                    let hi = _mm512_i32gather_epi64::<4>(_mm512_extracti64x4_epi64::<1>(elem), pairs_p);
                    let (lo, hi) = (_mm512_castsi512_ps(lo), _mm512_castsi512_ps(hi));
                    for (acc, pick) in pair_acc.iter_mut().zip([even, odd]) {
                        let feat = _mm512_permutex2var_ps(lo, pick, hi);
                        // mul then add, never fused — the simd module's contract.
                        *acc = _mm512_add_ps(*acc, _mm512_mul_ps(wc, feat));
                    }
                }
            }
            if f == 2 {
                _mm512_mask_storeu_ps(enc_p.add(j0), live, pair_acc[0]);
                _mm512_mask_storeu_ps(enc_p.add(n + j0), live, pair_acc[1]);
                continue;
            }
            for fi in 0..f {
                let off = _mm512_set1_epi32(fi as i32);
                let mut acc = zero;
                for ci in 0..8 {
                    let elem = _mm512_maskz_loadu_epi32(live, idx_p.add(ci * n + j0));
                    let wc = _mm512_maskz_loadu_ps(live, w_p.add(ci * n + j0));
                    let feat = _mm512_i32gather_ps::<4>(_mm512_add_epi32(elem, off), table.as_ptr());
                    // mul then add, never fused — the simd module's contract.
                    acc = _mm512_add_ps(acc, _mm512_mul_ps(wc, feat));
                }
                _mm512_mask_storeu_ps(enc_p.add(fi * n + j0), live, acc);
            }
        }
    }

    /// The AVX2 form of [`LevelEncoder::encode`]: 8 samples per register,
    /// otherwise step for step [`LevelEncoder::encode_avx512`] (with
    /// `F == 2`, one 64-bit gather per 4 samples and corner).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; the slices must have the lengths
    /// [`LevelEncoder::encode_at`] checks, and every corner index must lie
    /// inside `table`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn encode_avx2(&self, table: &[f32], xyz: [&[f32]; 3], enc: &mut [f32], idx: &mut [u32], w: &mut [f32]) {
        use std::arch::x86_64::*;
        let (n, f) = (xyz[0].len(), self.features);
        let (mul, mask) = self.index_lanes();
        let res = _mm256_set1_ps(self.res as f32);
        let max_base = _mm256_set1_epi32(self.res.saturating_sub(1) as i32);
        let (zero, one) = (_mm256_setzero_ps(), _mm256_set1_ps(1.0));
        let (izero, ione) = (_mm256_setzero_si256(), _mm256_set1_epi32(1));
        let features = _mm256_set1_epi32(f as i32);
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let (idx_p, w_p, enc_p) = (idx.as_mut_ptr() as *mut i32, w.as_mut_ptr(), enc.as_mut_ptr());
        let pairs_p = table.as_ptr() as *const i64;
        for j0 in (0..n).step_by(8) {
            let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - j0).min(8) as i32), lane);
            let mut term = [[izero; 2]; 3];
            let mut weight = [[zero; 2]; 3];
            for d in 0..3 {
                // Dead lanes load 0.0, whose corners are in bounds.
                let v = _mm256_maskload_ps(xyz[d].as_ptr().add(j0), live);
                let below = _mm256_cmp_ps::<_CMP_LT_OQ>(v, zero);
                let above = _mm256_cmp_ps::<_CMP_GT_OQ>(v, one);
                let clamped = _mm256_blendv_ps(_mm256_blendv_ps(v, zero, below), one, above);
                let scaled = _mm256_mul_ps(clamped, res);
                let floor = _mm256_round_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(scaled);
                let base = _mm256_min_epi32(_mm256_max_epi32(_mm256_cvttps_epi32(floor), izero), max_base);
                let frac = _mm256_sub_ps(scaled, _mm256_cvtepi32_ps(base));
                let m = _mm256_set1_epi32(mul[d]);
                term[d] = [_mm256_mullo_epi32(base, m), _mm256_mullo_epi32(_mm256_add_epi32(base, ione), m)];
                weight[d] = [_mm256_sub_ps(one, frac), frac];
            }
            let mut pair_acc = [zero; 2];
            for ci in 0..8 {
                let (ox, oy, oz) = (ci & 1, (ci >> 1) & 1, ci >> 2);
                let wc = _mm256_mul_ps(_mm256_mul_ps(weight[0][ox], weight[1][oy]), weight[2][oz]);
                let (tx, ty, tz) = (term[0][ox], term[1][oy], term[2][oz]);
                let entry = if self.dense {
                    _mm256_add_epi32(_mm256_add_epi32(tx, ty), tz)
                } else {
                    _mm256_and_si256(_mm256_xor_si256(_mm256_xor_si256(tx, ty), tz), _mm256_set1_epi32(mask))
                };
                let elem = _mm256_mullo_epi32(entry, features);
                _mm256_maskstore_epi32(idx_p.add(ci * n + j0), live, elem);
                _mm256_maskstore_ps(w_p.add(ci * n + j0), live, wc);
                if f == 2 {
                    let lo = _mm256_i32gather_epi64::<4>(pairs_p, _mm256_castsi256_si128(elem));
                    let hi = _mm256_i32gather_epi64::<4>(pairs_p, _mm256_extracti128_si256::<1>(elem));
                    let (lo, hi) = (_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi));
                    // Per 128-bit half, the even (odd) floats of lo then
                    // hi: samples (0 1 4 5 | 2 3 6 7); the 64-bit permute
                    // puts them in order.
                    let feats = [
                        _mm256_shuffle_ps::<0b10_00_10_00>(lo, hi),
                        _mm256_shuffle_ps::<0b11_01_11_01>(lo, hi),
                    ];
                    for (acc, feat) in pair_acc.iter_mut().zip(feats) {
                        let feat = _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(feat)));
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(wc, feat));
                    }
                }
            }
            if f == 2 {
                _mm256_maskstore_ps(enc_p.add(j0), live, pair_acc[0]);
                _mm256_maskstore_ps(enc_p.add(n + j0), live, pair_acc[1]);
                continue;
            }
            for fi in 0..f {
                let off = _mm256_set1_epi32(fi as i32);
                let mut acc = zero;
                for ci in 0..8 {
                    let elem = _mm256_maskload_epi32(idx_p.add(ci * n + j0), live);
                    let wc = _mm256_maskload_ps(w_p.add(ci * n + j0), live);
                    let feat = _mm256_i32gather_ps::<4>(table.as_ptr(), _mm256_add_epi32(elem, off));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(wc, feat));
                }
                _mm256_maskstore_ps(enc_p.add(fi * n + j0), live, acc);
            }
        }
    }
}

/// Scatters one level's records into that level's gradient span, in
/// sample → corner → feature order: for each `(k, j)` in `kept` order,
/// adds `w · d[k · F + f]` to feature `f` of each of sample `j`'s 8
/// corners. `idx`/`w` are one level's corner columns of `n = idx.len() /
/// 8` samples, as [`LevelEncoder::encode`] writes them; `kept` holds
/// sample indices below `n`; `d` holds `F` values of ∂L/∂encoding at this
/// level per kept sample. Every table entry belongs to exactly one level
/// and receives the same products in the same order as in the whole-grid
/// scatter ([`HashGrid::accumulate_grad_planned`]) of the same samples,
/// so scattering each level in turn — on any thread — reproduces it bit
/// for bit. The scatter is scalar: two corners of one lookup can share an
/// entry, and their updates must apply in turn.
///
/// # Panics
///
/// Panics if `idx` and `w` differ in length, `d` does not hold `F` values
/// per kept sample, or a kept sample or a corner's features fall outside
/// the columns or `grad_level`.
pub fn accumulate_grad_level(
    idx: &[u32],
    w: &[f32],
    kept: &[usize],
    d: &[f32],
    features: usize,
    grad_level: &mut [f32],
) {
    assert_eq!(idx.len(), w.len(), "one weight per corner index");
    assert_eq!(d.len(), kept.len() * features, "F gradient values per kept sample");
    let n = idx.len() / 8;
    let corners = |j: usize| {
        assert!(j < n, "kept sample {j} of {n}");
        (0..8).map(move |ci| (idx[ci * n + j] as usize, w[ci * n + j]))
    };
    if features == 2 {
        // F == 2, the configuration every experiment trains.
        for (&j, d) in kept.iter().zip(d.chunks_exact(2)) {
            for (e, wc) in corners(j) {
                let g = &mut grad_level[e..][..2];
                g[0] += wc * d[0];
                g[1] += wc * d[1];
            }
        }
        return;
    }
    for (&j, d) in kept.iter().zip(d.chunks_exact(features.max(1))) {
        for (e, wc) in corners(j) {
            for (g, &dv) in grad_level[e..][..features].iter_mut().zip(d) {
                *g += wc * dv;
            }
        }
    }
}

/// Reusable buffers of [`HashGrid::encode_rows`]: one level's encoding
/// and corner columns of a batch, as [`LevelEncoder::encode`] writes them.
#[derive(Debug, Clone, Default)]
pub struct LevelColumns {
    enc: Vec<f32>,
    idx: Vec<u32>,
    w: Vec<f32>,
}

impl LevelColumns {
    /// Empties the columns and makes room for `n` samples of `features`
    /// features each.
    pub(crate) fn reserve(&mut self, n: usize, features: usize) {
        self.enc.clear();
        self.idx.clear();
        self.w.clear();
        self.enc.reserve(n * features);
        self.idx.reserve(8 * n);
        self.w.reserve(8 * n);
    }
}

impl HashGrid {
    /// Creates a grid with features initialized uniformly in `[-a, a]`
    /// from the given seed.
    pub fn new(config: HashGridConfig, init_amplitude: f32, seed: u64) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let entries = 1usize << config.log2_table_size;
        let level_stride = entries * config.features;
        // One flat draw sequence — identical values, in the same order, as
        // the per-level tables this layout replaced.
        let tables = (0..config.levels * level_stride)
            .map(|_| rng.gen_range(-init_amplitude..=init_amplitude))
            .collect();
        let encoders = (0..config.levels)
            .map(|l| LevelEncoder::new(&config, config.resolution(l), config.is_dense_level(l)))
            .collect();
        HashGrid { config, tables, level_stride, encoders }
    }

    /// Grid configuration.
    pub fn config(&self) -> &HashGridConfig {
        &self.config
    }

    /// All feature tables as one flat slice (levels concatenated; see
    /// [`HashGrid::level_stride`] for the per-level span).
    pub fn tables(&self) -> &[f32] {
        &self.tables
    }

    /// Mutable flat feature tables (for the optimizer).
    pub fn tables_mut(&mut self) -> &mut [f32] {
        &mut self.tables
    }

    /// Span of one level inside [`HashGrid::tables`] (`entries × F`).
    pub fn level_stride(&self) -> usize {
        self.level_stride
    }

    /// The feature table of level `l`: `table[entry * F + f]`.
    pub fn level_table(&self, l: usize) -> &[f32] {
        &self.tables[l * self.level_stride..(l + 1) * self.level_stride]
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.tables.len()
    }

    /// Level `l`'s lookup constants, for encoding many samples at that
    /// level ([`LevelEncoder::encode`]) while its table is borrowed
    /// elsewhere.
    pub fn level_encoder(&self, l: usize) -> LevelEncoder {
        self.encoders[l]
    }

    /// Computes the 8 corner `(index, trilinear weight)` pairs for point
    /// `p` at level `l` (positions clamped to the unit cube).
    pub fn corner_lookups(&self, l: usize, p: Vec3) -> CornerLookups {
        self.encoders[l].corner_lookups(p)
    }

    /// Encodes `n` points, given as coordinate columns `xyz`, into
    /// row-major `rows`: row `j`, `rows[j · D..(j + 1) · D]` with `D` =
    /// [`HashGridConfig::output_dims`], receives point `j`'s encoding. Each
    /// level in turn encodes every point through [`LevelEncoder::encode`]
    /// into `cols`, then its `F` columns are written into the rows. This
    /// is the batch encode of every render tile and of the cold batch
    /// callers; bit-identical to [`HashGrid::encode_into`] of each point.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate columns differ in length or `rows` does
    /// not hold `n · D` values.
    pub fn encode_rows(&self, xyz: [&[f32]; 3], rows: &mut [f32], cols: &mut LevelColumns) {
        let n = xyz[0].len();
        let (f, dims) = (self.config.features, self.config.output_dims());
        assert_eq!(rows.len(), n * dims, "one row of output_dims values per point");
        let LevelColumns { enc, idx, w } = cols;
        enc.resize(f * n, 0.0);
        idx.resize(8 * n, 0);
        w.resize(8 * n, 0.0);
        for (l, encoder) in self.encoders.iter().enumerate() {
            encoder.encode(self.level_table(l), xyz, enc, idx, w);
            for (fi, column) in enc.chunks_exact(n.max(1)).enumerate() {
                for (row, &v) in rows.chunks_exact_mut(dims).zip(column) {
                    row[l * f + fi] = v;
                }
            }
        }
    }

    /// Encodes a point: concatenated interpolated features of every level.
    pub fn encode(&self, p: Vec3) -> Vec<f32> {
        let mut out = vec![0.0f32; self.config.output_dims()];
        self.encode_into(p, &mut out);
        out
    }

    /// Encodes a point into a caller-provided buffer of length
    /// [`HashGridConfig::output_dims`]: per level, `+0.0` plus the 8 `w ·
    /// feature` products in corner order, multiplied then added. This
    /// per-point scalar loop is the reference the batch encodes
    /// ([`LevelEncoder::encode`], [`HashGrid::encode_rows`]) are tested
    /// against; no render or training path calls it.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn encode_into(&self, p: Vec3, out: &mut [f32]) {
        let f = self.config.features;
        assert_eq!(out.len(), self.config.output_dims(), "encoding width mismatch");
        out.fill(0.0);
        for l in 0..self.config.levels {
            let table = self.level_table(l);
            for (idx, w) in self.corner_lookups(l, p) {
                for fi in 0..f {
                    out[l * f + fi] += w * table[idx * f + fi];
                }
            }
        }
    }

    /// Fills `plan` with the corner lookups of `p` across every level,
    /// reusing its buffers (no steady-state allocation). The plan holds
    /// exactly the lookups [`HashGrid::encode_into`] and
    /// [`HashGrid::accumulate_grad`] would each recompute. A per-point
    /// scalar loop, like `encode_into`: the reference of the level-major
    /// plan that [`LevelEncoder::encode`] writes as corner columns.
    pub fn plan_into(&self, p: Vec3, plan: &mut EncodePlan) {
        let levels = self.config.levels;
        let f = self.config.features;
        plan.levels = levels;
        plan.level_stride = self.level_stride;
        plan.idx.resize(levels * 8, 0);
        plan.w.resize(levels * 8, 0.0);
        for l in 0..levels {
            let elem_base = l * self.level_stride;
            for (ci, (index, w)) in self.corner_lookups(l, p).into_iter().enumerate() {
                plan.idx[ci * levels + l] = (elem_base + index * f) as i32;
                plan.w[ci * levels + l] = w;
            }
        }
    }

    /// [`HashGrid::encode_into`] driven by a prebuilt [`EncodePlan`] —
    /// bit-identical to the unplanned encode of the plan's point.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length or the plan's shape does not
    /// match this grid.
    pub fn encode_planned(&self, plan: &EncodePlan, out: &mut [f32]) {
        let f = self.config.features;
        let levels = self.config.levels;
        assert_eq!(plan.levels, levels, "plan level mismatch");
        assert_eq!(plan.idx.len(), levels * 8, "plan shape mismatch");
        assert_eq!(out.len(), self.config.output_dims(), "encoding width mismatch");
        out.fill(0.0);
        for l in 0..levels {
            for ci in 0..8 {
                let slot = ci * levels + l;
                let idx = plan.idx[slot] as usize;
                let w = plan.w[slot];
                for fi in 0..f {
                    out[l * f + fi] += w * self.tables[idx + fi];
                }
            }
        }
    }

    /// [`HashGrid::accumulate_grad`] driven by a prebuilt [`EncodePlan`]
    /// — bit-identical to the unplanned scatter of the plan's point. The
    /// scatter stays scalar at every SIMD level: distinct corners of one
    /// level can hash to the same table entry, so the updates must apply
    /// sequentially (a vector scatter would lose colliding contributions).
    pub fn accumulate_grad_planned(&self, plan: &EncodePlan, d_out: &[f32], grad: &mut [f32]) {
        let f = self.config.features;
        let levels = self.config.levels;
        assert_eq!(plan.levels, levels, "plan level mismatch");
        debug_assert_eq!(d_out.len(), self.config.output_dims());
        debug_assert_eq!(grad.len(), self.tables.len());
        for l in 0..levels {
            for ci in 0..8 {
                let slot = ci * levels + l;
                let idx = plan.idx[slot] as usize;
                let w = plan.w[slot];
                for fi in 0..f {
                    grad[idx + fi] += w * d_out[l * f + fi];
                }
            }
        }
    }

    /// Accumulates the gradient of a point's encoding into `grad` (flat,
    /// same layout as [`HashGrid::tables`]): given `d_out` = ∂L/∂encoding,
    /// adds `w · d_out` to each contributing corner feature.
    pub fn accumulate_grad(&self, p: Vec3, d_out: &[f32], grad: &mut [f32]) {
        let f = self.config.features;
        debug_assert_eq!(d_out.len(), self.config.output_dims());
        debug_assert_eq!(grad.len(), self.tables.len());
        for l in 0..self.config.levels {
            let g = &mut grad[l * self.level_stride..(l + 1) * self.level_stride];
            for (idx, w) in self.corner_lookups(l, p) {
                for fi in 0..f {
                    g[idx * f + fi] += w * d_out[l * f + fi];
                }
            }
        }
    }

    /// A fresh zeroed flat gradient buffer matching this grid's layout.
    pub fn zero_grad(&self) -> Vec<f32> {
        vec![0.0; self.tables.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> HashGrid {
        HashGrid::new(HashGridConfig::small(), 0.1, 7)
    }

    #[test]
    fn resolutions_grow_geometrically() {
        let c = HashGridConfig::small();
        assert_eq!(c.resolution(0), 16);
        assert!(c.resolution(7) > 200);
        assert!(c.is_dense_level(0), "16³ < 2^13? (17³ = 4913 ≤ 8192)");
        assert!(!c.is_dense_level(7), "fine levels must hash");
    }

    #[test]
    fn trilinear_weights_sum_to_one() {
        let g = grid();
        for p in [Vec3::splat(0.31), Vec3::new(0.9, 0.2, 0.55), Vec3::ZERO, Vec3::splat(1.0)] {
            for l in 0..g.config().levels {
                let w_sum: f32 = g.corner_lookups(l, p).iter().map(|&(_, w)| w).sum();
                assert!((w_sum - 1.0).abs() < 1e-5, "level {l} at {p:?}: {w_sum}");
            }
        }
    }

    #[test]
    fn encoding_is_continuous() {
        let g = grid();
        let a = g.encode(Vec3::splat(0.500));
        let b = g.encode(Vec3::splat(0.5001));
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff < 0.05, "tiny move must produce tiny change: {diff}");
    }

    #[test]
    fn encoding_at_exact_corner_returns_corner_features() {
        let g = grid();
        // Level 0 resolution 16: p = (0,0,0) is exactly corner [0,0,0],
        // corner 0 of the lookup, with all the weight; level 0 is dense,
        // so that corner is entry 0.
        let enc = g.encode(Vec3::ZERO);
        let (idx, w) = g.corner_lookups(0, Vec3::ZERO)[0];
        assert_eq!((idx, w), (0, 1.0));
        assert!((enc[0] - g.level_table(0)[idx * 2]).abs() < 1e-6);
    }

    /// The per-point encode is bitwise equal to an explicit level-major
    /// sum over `corner_lookups`.
    #[test]
    fn encode_matches_scalar_reference_bitwise() {
        let g = grid();
        let f = g.config().features;
        for (i, p) in [
            Vec3::ZERO,
            Vec3::splat(1.0),
            Vec3::new(0.37, 0.62, 0.18),
            Vec3::new(0.999, 0.001, 0.5),
            Vec3::new(-0.3, 1.7, 0.25), // clamped
        ]
        .into_iter()
        .enumerate()
        {
            let enc = g.encode(p);
            let mut reference = vec![0.0f32; g.config().output_dims()];
            for l in 0..g.config().levels {
                let table = g.level_table(l);
                for (idx, w) in g.corner_lookups(l, p) {
                    for fi in 0..f {
                        reference[l * f + fi] += w * table[idx * f + fi];
                    }
                }
            }
            assert!(
                enc.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                "point {i}: {enc:?} vs {reference:?}"
            );
        }
    }

    /// The plan-driven encode and gradient scatter reproduce their
    /// unplanned twins bit for bit — the property the training loop
    /// depends on when it shares one plan between forward and backward.
    #[test]
    fn planned_encode_and_grad_match_unplanned_bitwise() {
        let g = grid();
        let mut plan = EncodePlan::default();
        let mut planned = vec![0.0f32; g.config().output_dims()];
        for (i, p) in [
            Vec3::ZERO,
            Vec3::splat(1.0),
            Vec3::new(0.37, 0.62, 0.18),
            Vec3::new(0.999, 0.001, 0.5),
            Vec3::new(-0.3, 1.7, 0.25), // clamped
        ]
        .into_iter()
        .enumerate()
        {
            g.plan_into(p, &mut plan);
            let direct = g.encode(p);
            g.encode_planned(&plan, &mut planned);
            assert!(
                direct.iter().zip(&planned).all(|(a, b)| a.to_bits() == b.to_bits()),
                "point {i}: encode drifted: {direct:?} vs {planned:?}"
            );
            let mut d_out = vec![0.0f32; g.config().output_dims()];
            for (j, d) in d_out.iter_mut().enumerate() {
                *d = (j as f32 + 1.0) * 0.17 - 1.3;
            }
            let mut grad_direct = g.zero_grad();
            let mut grad_planned = g.zero_grad();
            g.accumulate_grad(p, &d_out, &mut grad_direct);
            g.accumulate_grad_planned(&plan, &d_out, &mut grad_planned);
            assert!(
                grad_direct.iter().zip(&grad_planned).all(|(a, b)| a.to_bits() == b.to_bits()),
                "point {i}: gradient scatter drifted"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut g = grid();
        let p = Vec3::new(0.37, 0.62, 0.18);
        // d(enc[0])/d(table[l][e]) via accumulate_grad vs finite diff.
        let mut d_out = vec![0.0; g.config().output_dims()];
        d_out[0] = 1.0; // gradient of first output component
        let mut grads = g.zero_grad();
        g.accumulate_grad(p, &d_out, &mut grads);
        // Pick a corner that received gradient.
        let (l, e) = (0usize, {
            let (idx, _) = g.corner_lookups(0, p)[3];
            idx
        });
        let stride = g.level_stride();
        let analytic = grads[l * stride + e * 2];
        let eps = 1e-3;
        let base = g.encode(p)[0];
        g.tables_mut()[l * stride + e * 2] += eps;
        let bumped = g.encode(p)[0];
        let numeric = (bumped - base) / eps;
        assert!((analytic - numeric).abs() < 1e-3, "{analytic} vs {numeric}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        /// Level counts from 1 to 16.
        const LEVELS: [usize; 7] = [1, 3, 4, 5, 8, 12, 16];

        fn bits_eq(a: &[f32], b: &[f32]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }

        /// Points inside and outside `[0, 1]³`, including exact faces and
        /// a NaN coordinate.
        fn points(seed: u64) -> Vec<Vec3> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut coord = move || match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => 1.0,
                2 => -0.0,
                _ => rng.gen_range(-0.5f32..1.5),
            };
            let mut pts: Vec<Vec3> = (0..24).map(|_| Vec3::new(coord(), coord(), coord())).collect();
            pts.push(Vec3::new(f32::NAN, 0.3, 0.7));
            pts
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The planned encode and gradient scatter equal their
            /// unplanned twins bit for bit, on grids mixing dense and
            /// hashed levels, with F from 1 to 3 and points inside, on
            /// and outside the cube (a NaN coordinate included).
            #[test]
            fn prop_planned_encode_and_scatter_match_the_unplanned_ones_bitwise(
                li in 0usize..7,
                log2 in 9usize..15,
                features in 1usize..4,
                base in 2usize..20,
                seed in 0u64..1000,
            ) {
                let growth = 1.2 + (seed % 7) as f32 * 0.1;
                let config = HashGridConfig {
                    levels: LEVELS[li],
                    log2_table_size: log2,
                    features,
                    base_resolution: base,
                    growth,
                };
                let g = HashGrid::new(config, 0.1, seed);
                let pts = points(seed);
                let (dims, mut plan) = (config.output_dims(), EncodePlan::default());
                let (mut direct, mut planned) = (vec![0.0f32; dims], vec![0.0f32; dims]);
                let d_out: Vec<f32> = (0..dims).map(|j| (j as f32 + 1.0) * 0.17 - 1.3).collect();
                for &p in &pts {
                    g.plan_into(p, &mut plan);
                    g.encode_into(p, &mut direct);
                    g.encode_planned(&plan, &mut planned);
                    prop_assert!(bits_eq(&direct, &planned), "{p:?}: encode_planned drifted");
                    let mut grad_direct = g.zero_grad();
                    let mut grad_planned = g.zero_grad();
                    g.accumulate_grad(p, &d_out, &mut grad_direct);
                    g.accumulate_grad_planned(&plan, &d_out, &mut grad_planned);
                    prop_assert!(bits_eq(&grad_direct, &grad_planned), "{p:?}: gradient scatter drifted");
                }
            }

            /// The level scatter reproduces the whole-grid planned scatter
            /// of the kept points on its own level and leaves every other
            /// level alone, on grids mixing dense and hashed levels, with F
            /// from 1 to 3, small tables (so hashed corners collide) and
            /// every point scattered twice.
            #[test]
            fn prop_level_scatter_matches_the_whole_grid_scatter(
                li in 0usize..7,
                log2 in 6usize..14,
                features in 1usize..4,
                base in 2usize..20,
                seed in 0u64..1000,
            ) {
                let growth = 1.2 + (seed % 7) as f32 * 0.1;
                let config = HashGridConfig {
                    levels: LEVELS[li],
                    log2_table_size: log2,
                    features,
                    base_resolution: base,
                    growth,
                };
                let g = HashGrid::new(config, 0.1, seed);
                let mut pts = points(seed);
                pts.extend_from_within(..);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
                let d_outs: Vec<Vec<f32>> = pts
                    .iter()
                    .map(|_| (0..config.output_dims()).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                    .collect();
                let init: Vec<f32> = (0..g.param_count()).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                check_level_scatter(&g, &pts, &d_outs, &init);
            }

            /// The level-major encode equals `plan_into` + `encode_planned`
            /// of each sample on its own, bit for bit (corner indices,
            /// weights and encoded values), at every SIMD level the host
            /// has: levels 1–16 mixing dense and hashed ones, F from 1 to
            /// 3, and sample counts that leave every lane tail of the 16-
            /// and 8-lane kernels, with NaN, ±0, negative, exactly 1 and
            /// above-1 coordinates. Every corner also stays inside its
            /// level's `live_entries`. Each case runs a second time at
            /// F = 2 (the paired-gather kernels) with a sample count that
            /// is no multiple of 4, so the paired gathers always end in a
            /// partial register.
            #[test]
            fn prop_level_encode_matches_the_planned_encode_bitwise(
                levels in 1usize..17,
                log2 in 6usize..14,
                features in 1usize..4,
                n in 0usize..41,
                tail in 1usize..4,
                seed in 0u64..1000,
            ) {
                let config = |features| HashGridConfig {
                    levels,
                    log2_table_size: log2,
                    features,
                    base_resolution: 2 + (seed % 18) as usize,
                    growth: 1.2 + (seed % 7) as f32 * 0.1,
                };
                check_level_encode(config(features), n, seed);
                check_level_encode(config(2), 4 * (n / 4) + tail, seed);
            }
        }
    }

    /// Checks [`LevelEncoder::encode_at`] on `n` edge points of a grid
    /// with `config` against `plan_into` + `encode_planned` of each point
    /// on its own, bit for bit, at every level and every SIMD level the
    /// host has, and checks every corner against `live_entries`.
    fn check_level_encode(config: HashGridConfig, n: usize, seed: u64) {
        let g = HashGrid::new(config, 0.1, seed);
        let pts = edge_points(seed, n);
        let xyz: [Vec<f32>; 3] =
            [pts.iter().map(|p| p.x).collect(), pts.iter().map(|p| p.y).collect(), pts.iter().map(|p| p.z).collect()];
        let planned: Vec<(EncodePlan, Vec<f32>)> = pts
            .iter()
            .map(|&p| {
                let mut plan = EncodePlan::default();
                g.plan_into(p, &mut plan);
                let mut enc = vec![0.0f32; config.output_dims()];
                g.encode_planned(&plan, &mut enc);
                (plan, enc)
            })
            .collect();
        let (levels, f, stride) = (config.levels, config.features, g.level_stride());
        for lv in host_levels() {
            for l in 0..levels {
                let (mut enc, mut idx, mut w) = (vec![0.0f32; f * n], vec![0u32; 8 * n], vec![0.0f32; 8 * n]);
                let xyz = [&xyz[0][..], &xyz[1][..], &xyz[2][..]];
                g.level_encoder(l).encode_at(lv, g.level_table(l), xyz, &mut enc, &mut idx, &mut w);
                let live = (config.live_entries(l) * f) as u32;
                for (j, (plan, want)) in planned.iter().enumerate() {
                    let at = format!("{lv:?} F={f} n={n} {:?} level {l}", pts[j]);
                    for ci in 0..8 {
                        let (slot, k) = (ci * levels + l, ci * n + j);
                        let want_idx = (plan.idx[slot] as usize - l * stride) as u32;
                        assert_eq!(idx[k], want_idx, "{at} corner {ci}");
                        assert!(idx[k] < live, "{at} corner {ci}: past live_entries");
                        assert_eq!(w[k].to_bits(), plan.w[slot].to_bits(), "{at} corner {ci}");
                    }
                    for fi in 0..f {
                        let (got, want) = (enc[fi * n + j], want[l * f + fi]);
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}: {got} vs {want}");
                    }
                }
            }
        }
    }

    /// The dispatch levels this host can run, scalar first.
    fn host_levels() -> Vec<fnr_tensor::simd::SimdLevel> {
        let mut levels = vec![fnr_tensor::simd::SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(fnr_tensor::simd::SimdLevel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(fnr_tensor::simd::SimdLevel::Avx512);
            }
        }
        levels
    }

    /// `n` points: first the edge cases (NaN, ±0, negative, exactly 1
    /// and above-1 coordinates), then seeded ones in and around the cube.
    fn edge_points(seed: u64, n: usize) -> Vec<Vec3> {
        use rand::{Rng, SeedableRng};
        let edges = [
            Vec3::new(f32::NAN, 0.3, 0.7),
            Vec3::new(-0.0, 1.0, 0.0),
            Vec3::splat(1.0),
            Vec3::new(-0.25, 1.5, 0.5),
            Vec3::new(0.0, -0.0, 2.0),
            Vec3::new(0.999, f32::NAN, -1.0),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xED6E);
        let mut coord = move || match rng.gen_range(0..8u32) {
            0 => 1.0,
            1 => -0.0,
            _ => rng.gen_range(-0.5f32..1.5),
        };
        edges.into_iter().chain(std::iter::repeat_with(|| Vec3::new(coord(), coord(), coord()))).take(n).collect()
    }

    /// Scatters `d_outs` at the kept points (every index not ≡ 1 mod 3)
    /// of `pts` into a copy of `init`, whole-grid and then level by level
    /// from the level encode's corner columns, and checks the level
    /// scatter bit for bit: its own level's range must equal the
    /// whole-grid scatter's, and every other range must still hold
    /// `init`. Returns how many kept level lookups had two corners on one
    /// table entry.
    fn check_level_scatter(g: &HashGrid, pts: &[Vec3], d_outs: &[Vec<f32>], init: &[f32]) -> usize {
        let (levels, f, stride, n) = (g.config().levels, g.config().features, g.level_stride(), pts.len());
        let kept: Vec<usize> = (0..n).filter(|j| j % 3 != 1).collect();
        let mut plan = EncodePlan::default();
        let mut whole = init.to_vec();
        for &j in &kept {
            g.plan_into(pts[j], &mut plan);
            g.accumulate_grad_planned(&plan, &d_outs[j], &mut whole);
        }
        let xyz: [Vec<f32>; 3] =
            [pts.iter().map(|p| p.x).collect(), pts.iter().map(|p| p.y).collect(), pts.iter().map(|p| p.z).collect()];
        let (mut enc, mut idx, mut w) = (vec![0.0f32; f * n], vec![0u32; 8 * n], vec![0.0f32; 8 * n]);
        let mut collisions = 0;
        for l in 0..levels {
            g.level_encoder(l).encode(g.level_table(l), [&xyz[0], &xyz[1], &xyz[2]], &mut enc, &mut idx, &mut w);
            let d: Vec<f32> = kept.iter().flat_map(|&j| d_outs[j][l * f..(l + 1) * f].iter().copied()).collect();
            for &j in &kept {
                let mut corners: Vec<u32> = (0..8).map(|ci| idx[ci * n + j]).collect();
                corners.sort_unstable();
                corners.dedup();
                collisions += usize::from(corners.len() < 8);
            }
            let mut by_level = init.to_vec();
            accumulate_grad_level(&idx, &w, &kept, &d, f, &mut by_level[l * stride..(l + 1) * stride]);
            for (i, (a, b)) in whole.iter().zip(&by_level).enumerate() {
                let expect = if i / stride == l { a } else { &init[i] };
                assert_eq!(b.to_bits(), expect.to_bits(), "level {l}, element {i}: {b} vs {expect}");
            }
        }
        collisions
    }

    /// Corners of one hashed lookup that land on the same table entry
    /// must both be added, in corner order, as in the whole-grid scatter.
    #[test]
    fn level_scatter_adds_colliding_corners_in_order() {
        // 16 entries per level: every level hashes, and 8 corners in 16
        // entries collide for most points.
        let config = HashGridConfig { levels: 3, log2_table_size: 4, features: 2, base_resolution: 5, growth: 1.5 };
        let g = HashGrid::new(config, 0.1, 3);
        assert!((0..3).all(|l| !config.is_dense_level(l)));
        let pts: Vec<Vec3> = (0..12).map(|i| Vec3::new(0.07 * i as f32, 0.31, 0.9 - 0.05 * i as f32)).collect();
        let d_outs: Vec<Vec<f32>> =
            (0..pts.len()).map(|i| (0..6).map(|j| (i * 6 + j) as f32 * 0.13 - 2.0).collect()).collect();
        let init: Vec<f32> = (0..g.param_count()).map(|i| i as f32 * 0.01).collect();
        assert!(check_level_scatter(&g, &pts, &d_outs, &init) > 0, "no lookup collided");
    }

    /// A resolution-0 level's corners sit at coordinates 0 and 1, so they
    /// reach 8 entries, and with a 2-entry table the level must hash. The
    /// per-point encodes, and the level encode at every SIMD level the
    /// host has, scalar included, agree with `corner_lookups` bit for bit,
    /// and the model built on such a grid renders the same frames and
    /// bands at every SIMD level.
    #[test]
    fn resolution_zero_levels_encode_and_render_at_every_simd_level() {
        use crate::camera::Camera;
        use crate::render::{BatchView, NgpModel};
        for features in 1..=3 {
            let config = HashGridConfig { levels: 3, log2_table_size: 1, features, base_resolution: 0, growth: 1.5 };
            assert!((0..3).all(|l| config.resolution(l) == 0 && !config.is_dense_level(l)));
            assert!((0..3).all(|l| config.live_entries(l) == 2));
            let g = HashGrid::new(config, 0.1, 5);
            let (f, dims) = (features, config.output_dims());
            let pts = edge_points(7, 21);
            let reference: Vec<Vec<f32>> = pts
                .iter()
                .map(|&p| {
                    let mut enc = vec![0.0f32; dims];
                    for l in 0..3 {
                        for (e, w) in g.corner_lookups(l, p) {
                            for fi in 0..f {
                                enc[l * f + fi] += w * g.level_table(l)[e * f + fi];
                            }
                        }
                    }
                    enc
                })
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut plan = EncodePlan::default();
            let mut planned = vec![0.0f32; dims];
            for (&p, want) in pts.iter().zip(&reference) {
                g.plan_into(p, &mut plan);
                g.encode_planned(&plan, &mut planned);
                assert_eq!(bits(&g.encode(p)), bits(want), "F={f} {p:?}: encode");
                assert_eq!(bits(&planned), bits(want), "F={f} {p:?}: planned encode");
            }
            let model = NgpModel::new(config, 8, 3);
            let prepared = model.prepare_quantized(fnr_tensor::Precision::Int8);
            let cam = Camera::orbit(0.8, 1.6, 0.9);
            let view = BatchView { camera: cam, width: 5, height: 4, spp: 6 };
            let mut renders = Vec::new();
            for lv in host_levels() {
                fnr_tensor::simd::cap_level(lv);
                let n = pts.len();
                let xyz: [Vec<f32>; 3] = [
                    pts.iter().map(|p| p.x).collect(),
                    pts.iter().map(|p| p.y).collect(),
                    pts.iter().map(|p| p.z).collect(),
                ];
                for l in 0..3 {
                    let (mut enc, mut idx, mut w) = (vec![0.0f32; f * n], vec![0u32; 8 * n], vec![0.0f32; 8 * n]);
                    let cols = [&xyz[0][..], &xyz[1][..], &xyz[2][..]];
                    g.level_encoder(l).encode_at(lv, g.level_table(l), cols, &mut enc, &mut idx, &mut w);
                    for (j, &p) in pts.iter().enumerate() {
                        for (ci, (e, wc)) in g.corner_lookups(l, p).into_iter().enumerate() {
                            assert_eq!(idx[ci * n + j] as usize, e * f, "{lv:?} F={f} level {l} {p:?}");
                            assert_eq!(w[ci * n + j].to_bits(), wc.to_bits(), "{lv:?} F={f} level {l} {p:?}");
                        }
                        for fi in 0..f {
                            let (got, want) = (enc[fi * n + j], reference[j][l * f + fi]);
                            assert_eq!(got.to_bits(), want.to_bits(), "{lv:?} F={f} level {l} {p:?}");
                        }
                    }
                }
                renders.push([
                    model.render(&cam, 5, 4, 6, None),
                    model.render_rows(&cam, 5, 4, 6, None, 1, 2),
                    prepared.render_batch(std::slice::from_ref(&view)).remove(0),
                    prepared.render_rows(&view, 1, 2),
                ]);
            }
            fnr_tensor::simd::force_scalar(false);
            for (lv, r) in host_levels().iter().zip(&renders) {
                assert!(r.iter().all(|img| img.pixels().iter().flatten().all(|c| c.is_finite())));
                assert!(r == &renders[0], "{lv:?} F={f}: renders drifted from the scalar level");
            }
        }
    }

    /// The batch encode's rows equal the per-point encode bit for bit at
    /// every SIMD level the host has, for batch sizes around the 16- and
    /// 8-lane registers (empty and a 128-row render tile included), edge
    /// points (NaN, ±0, outside the cube) and F from 1 to 3.
    #[test]
    fn encode_rows_match_the_per_point_encode_bitwise() {
        for features in 1..=3 {
            let config = HashGridConfig { features, ..HashGridConfig::small() };
            let g = HashGrid::new(config, 0.1, 11);
            let dims = config.output_dims();
            let mut cols = LevelColumns::default();
            for n in [0usize, 1, 15, 16, 17, 128] {
                let pts = edge_points(n as u64, n);
                let want: Vec<u32> = pts.iter().flat_map(|&p| g.encode(p)).map(f32::to_bits).collect();
                let xyz: [Vec<f32>; 3] = [
                    pts.iter().map(|p| p.x).collect(),
                    pts.iter().map(|p| p.y).collect(),
                    pts.iter().map(|p| p.z).collect(),
                ];
                for lv in host_levels() {
                    fnr_tensor::simd::cap_level(lv);
                    let mut rows = vec![f32::NAN; n * dims];
                    g.encode_rows([&xyz[0], &xyz[1], &xyz[2]], &mut rows, &mut cols);
                    let got: Vec<u32> = rows.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{lv:?} F={features} n={n}");
                }
            }
        }
        fnr_tensor::simd::force_scalar(false);
    }

    #[test]
    fn hash_indices_stay_in_table() {
        let g = grid();
        let t = 1usize << g.config().log2_table_size;
        for l in 0..g.config().levels {
            for p in [Vec3::splat(0.01), Vec3::splat(0.5), Vec3::splat(0.99)] {
                for (idx, _) in g.corner_lookups(l, p) {
                    assert!(idx < t, "index {idx} out of table at level {l}");
                }
            }
        }
    }
}
