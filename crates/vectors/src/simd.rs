//! Explicit SIMD distance kernels with one-time runtime dispatch.
//!
//! Query cost in every index of this workspace is dominated by the four hot
//! distance shapes — f32 `squared_l2`, f32 `dot`, the SQ8 asymmetric l2 and
//! dot kernels — plus the IVFPQ ADC accumulation. This module provides
//! explicit `std::arch` implementations of those shapes (SSE2 and AVX2 on
//! x86-64, NEON on aarch64) behind a [`KernelTable`] of plain function
//! pointers, resolved **once per process** by [`kernels`] (honoring the
//! `NSG_SIMD` env override) and cached per query in
//! [`QueryScratch`](crate::store::QueryScratch) by `prepare_query`. The
//! per-candidate `dist_to` loop only ever calls through the already-resolved
//! pointers: no CPU-feature detection, no `OnceLock` access, no branch on
//! the level inside any hot path (rule R8 of the lint gate enforces this).
//!
//! # Bit-exactness contract
//!
//! Every ISA path produces **bitwise identical** results to the scalar
//! fallback, which doubles as the portable correctness oracle. That is not
//! free with SIMD — reassociating the reduction or contracting into FMA
//! changes rounding — so all kernels share one fixed dataflow:
//!
//! * the input is consumed in chunks of [`LANES`] *virtual lanes*; element
//!   `l` of each chunk is accumulated into virtual accumulator `l` with a
//!   multiply followed by a separate add (never FMA),
//! * the accumulators are reduced in a single fixed order ([`reduce`]),
//! * the sub-chunk remainder runs through one shared sequential tail.
//!
//! An ISA path is just a different register layout of the same virtual
//! lanes (AVX2: two 8-wide registers; SSE2/NEON: four 4-wide), so scalar
//! agreement is exact — the SIMD-vs-scalar proptests assert `==`, well
//! inside the documented 4-ULP budget.
//!
//! # Adding an ISA
//!
//! 1. Add a [`SimdLevel`] variant and a `cfg(target_arch)`-gated module with
//!    the five kernels, keeping the virtual-lane dataflow above.
//! 2. Build a `KernelTable` static for it; if the ISA is not a baseline
//!    feature of its target, expose the kernels as `unsafe fn` with
//!    `#[target_feature]` and wrap them in safe fns whose `// SAFETY:`
//!    comment cites the runtime detection in [`table_for`].
//! 3. Add the variant to [`table_for`] (gated on runtime detection),
//!    [`detected_level`], the `NSG_SIMD` parser, and [`SimdLevel::ALL`].
//!
//! The agreement proptests and the `simd-smoke` CI step then cover it on
//! any runner that supports it.

use std::fmt;
use std::sync::OnceLock;

/// Number of virtual accumulator lanes the f32 and SQ8 kernels use per
/// chunk. Chosen so AVX2 runs two independent 8-wide accumulators (enough
/// instruction-level parallelism to hide the add latency) while SSE2/NEON
/// run four 4-wide ones over the exact same virtual lanes.
pub const LANES: usize = 16;

/// Virtual lanes of the ADC kernel (one gather of 8 table entries on AVX2).
pub const ADC_LANES: usize = 8;

/// f32 kernel shape: `(a, b) -> scalar` over equal-length slices.
pub type F32Kernel = fn(&[f32], &[f32]) -> f32;
/// SQ8 asymmetric-l2 shape: `(prepared t, scale, codes) -> scalar`.
pub type Sq8L2Kernel = fn(&[f32], &[f32], &[u8]) -> f32;
/// SQ8 asymmetric-dot shape: `(prepared w, codes) -> scalar`.
pub type Sq8DotKernel = fn(&[f32], &[u8]) -> f32;
/// ADC accumulation shape: `(flat tables, width, codes) -> scalar`.
pub type AdcKernel = fn(&[f32], usize, &[u8]) -> f32;

/// Which instruction set a [`KernelTable`]'s entries are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable fallback (and the correctness oracle every other level is
    /// proptested against). Still auto-vectorizable by LLVM.
    Scalar,
    /// 128-bit x86-64 baseline: available on every x86-64 CPU.
    Sse2,
    /// 256-bit x86-64 (requires runtime `avx2` + `fma` detection; the
    /// kernels deliberately avoid FMA contraction to stay bit-equal to
    /// scalar, but the level gates on the pair the deployment targets ship
    /// together).
    Avx2,
    /// 128-bit aarch64 baseline.
    Neon,
}

impl SimdLevel {
    /// Every level, in fallback order (used to enumerate the tables the
    /// running CPU supports).
    pub const ALL: [SimdLevel; 4] =
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon];

    /// The lowercase name `NSG_SIMD` accepts for this level.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The five hot-shape kernels for one instruction set, as plain function
/// pointers so the per-candidate loop is a direct call with no trait object
/// and no feature branch.
///
/// # Panics
/// The f32 and SQ8 entries panic when their slice arguments differ in
/// length (one check per call, before any load), so no safe call can read
/// out of bounds.
#[derive(Clone, Copy)]
pub struct KernelTable {
    /// Instruction set the entries are compiled for.
    pub level: SimdLevel,
    /// `Σ (aᵢ - bᵢ)²`.
    pub squared_l2: F32Kernel,
    /// `Σ aᵢ·bᵢ`.
    pub dot: F32Kernel,
    /// `Σ (tᵢ - scaleᵢ·cᵢ)²` over a prepared SQ8 query.
    pub sq8_asym_l2: Sq8L2Kernel,
    /// `Σ wᵢ·cᵢ` over a prepared SQ8 query.
    pub sq8_asym_dot: Sq8DotKernel,
    /// `Σₛ tables[s·width + codes[s]]` (IVFPQ ADC scoring).
    pub adc_accumulate: AdcKernel,
}

impl fmt::Debug for KernelTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelTable").field("level", &self.level).finish()
    }
}

// ---------------------------------------------------------------------------
// Shared helpers — the fixed dataflow every level must reproduce exactly.
// ---------------------------------------------------------------------------

/// Reduces the virtual accumulators in one fixed (sequential) order. Every
/// level stores its registers back into virtual-lane order and folds here,
/// so the rounding of the final sum is identical across levels.
#[inline(always)]
fn reduce(acc: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for &x in acc {
        sum += x;
    }
    sum
}

/// The length check every f32 and SQ8 kernel makes once per call, before its
/// lane loop: inputs of unequal length panic here instead of letting the
/// unchecked vector loads read past the shorter slice (or the scalar tail
/// silently truncate the sum).
#[inline(always)]
#[track_caller]
fn same_len(a: usize, b: usize) {
    assert!(a == b, "kernel inputs differ in length ({a} vs {b})");
}

/// Shared sequential tail of the squared-l2 kernels.
#[inline(always)]
fn l2_tail(mut sum: f32, a: &[f32], b: &[f32]) -> f32 {
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Shared sequential tail of the dot kernels.
#[inline(always)]
fn dot_tail(mut sum: f32, a: &[f32], b: &[f32]) -> f32 {
    for (&x, &y) in a.iter().zip(b) {
        sum += x * y;
    }
    sum
}

/// Shared sequential tail of the SQ8 asymmetric-l2 kernels.
#[inline(always)]
fn sq8_l2_tail(mut sum: f32, t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    for ((&x, &s), &c) in t.iter().zip(scale).zip(codes) {
        let d = x - s * f32::from(c);
        sum += d * d;
    }
    sum
}

/// Shared sequential tail of the SQ8 asymmetric-dot kernels.
#[inline(always)]
fn sq8_dot_tail(mut sum: f32, w: &[f32], codes: &[u8]) -> f32 {
    for (&x, &c) in w.iter().zip(codes) {
        sum += x * f32::from(c);
    }
    sum
}

/// Shared sequential tail of the ADC kernels, over subspaces `start..`.
#[inline(always)]
fn adc_tail(mut sum: f32, tables: &[f32], width: usize, codes: &[u8], start: usize) -> f32 {
    for (s, &code) in codes.iter().enumerate().skip(start) {
        sum += tables[s * width + code as usize];
    }
    sum
}

// ---------------------------------------------------------------------------
// Scalar fallback — the portable implementation and the oracle.
// ---------------------------------------------------------------------------

/// Portable kernels: the virtual-lane dataflow written as plain Rust. LLVM
/// auto-vectorizes these on any target; the explicit ISA modules below beat
/// them by using wider registers and packed `u8 → f32` conversion.
mod scalar {
    use super::{
        adc_tail, dot_tail, l2_tail, reduce, same_len, sq8_dot_tail, sq8_l2_tail, ADC_LANES, LANES,
    };

    // lint:hot-path
    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut acc = [0.0f32; LANES];
        for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for ((slot, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
                let d = x - y;
                *slot += d * d;
            }
        }
        l2_tail(reduce(&acc), &a[split..], &b[split..])
    }

    // lint:hot-path
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut acc = [0.0f32; LANES];
        for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for ((slot, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
                *slot += x * y;
            }
        }
        dot_tail(reduce(&acc), &a[split..], &b[split..])
    }

    // lint:hot-path
    pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        same_len(t.len(), codes.len());
        same_len(t.len(), scale.len());
        let split = (t.len() / LANES) * LANES;
        let mut acc = [0.0f32; LANES];
        for ((ct, cs), cc) in t[..split]
            .chunks_exact(LANES)
            .zip(scale[..split].chunks_exact(LANES))
            .zip(codes[..split].chunks_exact(LANES))
        {
            // Widen the code bytes as a separate pass so LLVM emits packed
            // u8→f32 conversions instead of interleaved scalar ones.
            let mut cf = [0.0f32; LANES];
            for (f, &c) in cf.iter_mut().zip(cc) {
                *f = f32::from(c);
            }
            for (((slot, &x), &s), &c) in acc.iter_mut().zip(ct).zip(cs).zip(&cf) {
                let d = x - s * c;
                *slot += d * d;
            }
        }
        sq8_l2_tail(reduce(&acc), &t[split..], &scale[split..], &codes[split..])
    }

    // lint:hot-path
    pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        same_len(w.len(), codes.len());
        let split = (w.len() / LANES) * LANES;
        let mut acc = [0.0f32; LANES];
        for (cw, cc) in w[..split].chunks_exact(LANES).zip(codes[..split].chunks_exact(LANES)) {
            let mut cf = [0.0f32; LANES];
            for (f, &c) in cf.iter_mut().zip(cc) {
                *f = f32::from(c);
            }
            for ((slot, &x), &c) in acc.iter_mut().zip(cw).zip(&cf) {
                *slot += x * c;
            }
        }
        sq8_dot_tail(reduce(&acc), &w[split..], &codes[split..])
    }

    // lint:hot-path
    pub fn adc_accumulate(tables: &[f32], width: usize, codes: &[u8]) -> f32 {
        debug_assert_eq!(tables.len(), width * codes.len());
        let split = (codes.len() / ADC_LANES) * ADC_LANES;
        let mut acc = [0.0f32; ADC_LANES];
        let mut s = 0;
        while s < split {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let sub = s + lane;
                *slot += tables[sub * width + codes[sub] as usize];
            }
            s += ADC_LANES;
        }
        adc_tail(reduce(&acc), tables, width, codes, split)
    }
}

// ---------------------------------------------------------------------------
// SSE2 — x86-64 baseline. The kernels are safe `#[target_feature]` fns (the
// attribute lets them call the arithmetic intrinsics without `unsafe`; only
// raw-pointer loads/stores need `unsafe` blocks). Table entries go through
// the `sse2_entry` wrappers because `#[target_feature]` fns cannot coerce
// to safe fn pointers.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{dot_tail, l2_tail, reduce, same_len, sq8_dot_tail, sq8_l2_tail, LANES};
    use core::arch::x86_64::{
        __m128, __m128i, _mm_add_ps, _mm_cvtepi32_ps, _mm_loadu_ps, _mm_loadu_si128, _mm_mul_ps,
        _mm_setzero_ps, _mm_setzero_si128, _mm_storeu_ps, _mm_sub_ps, _mm_unpackhi_epi16,
        _mm_unpackhi_epi8, _mm_unpacklo_epi16, _mm_unpacklo_epi8,
    };

    /// Stores the four 4-wide accumulators back into virtual-lane order and
    /// reduces them exactly like the scalar kernel.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn reduce4x4(acc: [__m128; 4]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for (r, &v) in acc.iter().enumerate() {
            // SAFETY: `lanes` holds 16 f32; each 4-wide store writes the
            // disjoint in-bounds span `lanes[4r..4r + 4]` (r < 4).
            unsafe { _mm_storeu_ps(lanes.as_mut_ptr().add(4 * r), v) };
        }
        reduce(&lanes)
    }

    /// Widens 16 code bytes at `p` to four 4-wide f32 vectors in virtual-lane
    /// order (zero-extend u8 → u16 → i32, then exact i32 → f32 conversion).
    ///
    /// # Safety
    /// `p` must point to at least 16 readable bytes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn widen16(p: *const u8) -> [__m128; 4] {
        // SAFETY: the caller guarantees 16 readable bytes at `p`.
        let raw = unsafe { _mm_loadu_si128(p as *const __m128i) };
        let zero = _mm_setzero_si128();
        let lo16 = _mm_unpacklo_epi8(raw, zero);
        let hi16 = _mm_unpackhi_epi8(raw, zero);
        [
            _mm_cvtepi32_ps(_mm_unpacklo_epi16(lo16, zero)),
            _mm_cvtepi32_ps(_mm_unpackhi_epi16(lo16, zero)),
            _mm_cvtepi32_ps(_mm_unpacklo_epi16(hi16, zero)),
            _mm_cvtepi32_ps(_mm_unpackhi_epi16(hi16, zero)),
        ]
    }

    // lint:hot-path
    #[target_feature(enable = "sse2")]
    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut acc = [_mm_setzero_ps(); 4];
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < split {
            for (r, slot) in acc.iter_mut().enumerate() {
                // SAFETY: `i + 16 <= split <= a.len() == b.len()`, so the
                // 4-wide loads at `i + 4r` (r < 4) are in bounds of both.
                let (va, vb) =
                    unsafe { (_mm_loadu_ps(pa.add(i + 4 * r)), _mm_loadu_ps(pb.add(i + 4 * r))) };
                let d = _mm_sub_ps(va, vb);
                *slot = _mm_add_ps(*slot, _mm_mul_ps(d, d));
            }
            i += LANES;
        }
        l2_tail(reduce4x4(acc), &a[split..], &b[split..])
    }

    // lint:hot-path
    #[target_feature(enable = "sse2")]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut acc = [_mm_setzero_ps(); 4];
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < split {
            for (r, slot) in acc.iter_mut().enumerate() {
                // SAFETY: `i + 16 <= split <= a.len() == b.len()`, so the
                // 4-wide loads at `i + 4r` (r < 4) are in bounds of both.
                let (va, vb) =
                    unsafe { (_mm_loadu_ps(pa.add(i + 4 * r)), _mm_loadu_ps(pb.add(i + 4 * r))) };
                *slot = _mm_add_ps(*slot, _mm_mul_ps(va, vb));
            }
            i += LANES;
        }
        dot_tail(reduce4x4(acc), &a[split..], &b[split..])
    }

    // lint:hot-path
    #[target_feature(enable = "sse2")]
    pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        same_len(t.len(), codes.len());
        same_len(t.len(), scale.len());
        let split = (t.len() / LANES) * LANES;
        let mut acc = [_mm_setzero_ps(); 4];
        let (pt, ps, pc) = (t.as_ptr(), scale.as_ptr(), codes.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split <= codes.len()`: 16 code bytes at `i`
            // are in bounds.
            let cf = unsafe { widen16(pc.add(i)) };
            for (r, &c) in cf.iter().enumerate() {
                // SAFETY: `i + 16 <= split <= t.len() == scale.len()`, so the
                // 4-wide loads at `i + 4r` (r < 4) are in bounds of both.
                let (vt, vs) =
                    unsafe { (_mm_loadu_ps(pt.add(i + 4 * r)), _mm_loadu_ps(ps.add(i + 4 * r))) };
                let d = _mm_sub_ps(vt, _mm_mul_ps(vs, c));
                acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(d, d));
            }
            i += LANES;
        }
        sq8_l2_tail(reduce4x4(acc), &t[split..], &scale[split..], &codes[split..])
    }

    // lint:hot-path
    #[target_feature(enable = "sse2")]
    pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        same_len(w.len(), codes.len());
        let split = (w.len() / LANES) * LANES;
        let mut acc = [_mm_setzero_ps(); 4];
        let (pw, pc) = (w.as_ptr(), codes.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split <= codes.len()`: 16 code bytes at `i`
            // are in bounds.
            let cf = unsafe { widen16(pc.add(i)) };
            for (r, &c) in cf.iter().enumerate() {
                // SAFETY: `i + 16 <= split <= w.len()`: the 4-wide load at
                // `i + 4r` (r < 4) is in bounds.
                let vw = unsafe { _mm_loadu_ps(pw.add(i + 4 * r)) };
                acc[r] = _mm_add_ps(acc[r], _mm_mul_ps(vw, c));
            }
            i += LANES;
        }
        sq8_dot_tail(reduce4x4(acc), &w[split..], &codes[split..])
    }

}

// Plain-fn wrappers for the SSE2 table: `#[target_feature]` fns cannot
// coerce to safe fn pointers, so each table entry is an ordinary fn whose
// single unsafe call is justified by SSE2 being part of the x86-64 baseline.
#[cfg(target_arch = "x86_64")]
mod sse2_entry {
    use super::{scalar, sse2};

    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: SSE2 is a baseline feature of the x86-64 target, enabled
        // in every build that compiles this module.
        unsafe { sse2::squared_l2(a, b) }
    }

    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: SSE2 is a baseline feature of the x86-64 target, enabled
        // in every build that compiles this module.
        unsafe { sse2::dot(a, b) }
    }

    pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        // SAFETY: SSE2 is a baseline feature of the x86-64 target, enabled
        // in every build that compiles this module.
        unsafe { sse2::sq8_asym_l2(t, scale, codes) }
    }

    pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        // SAFETY: SSE2 is a baseline feature of the x86-64 target, enabled
        // in every build that compiles this module.
        unsafe { sse2::sq8_asym_dot(w, codes) }
    }

    /// ADC has no profitable 128-bit form (no gather below AVX2), so the
    /// SSE2 table reuses the scalar loop.
    pub use scalar::adc_accumulate;
}

// ---------------------------------------------------------------------------
// AVX2 — requires runtime detection, so the kernels are `unsafe fn` with
// `#[target_feature]` and are only reachable through the safe wrappers the
// detection table installs.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        adc_tail, dot_tail, l2_tail, reduce, same_len, sq8_dot_tail, sq8_l2_tail, ADC_LANES, LANES,
    };
    use core::arch::x86_64::{
        __m128i, __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepu8_epi32,
        _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_loadl_epi64,
    };

    /// Stores the two 8-wide accumulators back into virtual-lane order and
    /// reduces them exactly like the scalar kernel.
    #[inline(always)]
    fn reduce2x8(lo: __m256, hi: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        // SAFETY: `lanes` holds 16 f32; the two 8-wide stores write the
        // disjoint in-bounds spans `lanes[0..8]` and `lanes[8..16]`.
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), lo);
            _mm256_storeu_ps(lanes.as_mut_ptr().add(8), hi);
        }
        reduce(&lanes)
    }

    /// `Σ (aᵢ - bᵢ)²` on two 8-wide accumulators.
    ///
    /// # Safety
    /// The CPU must support AVX2 (the kernel table only installs this after
    /// runtime detection).
    #[target_feature(enable = "avx2")]
    pub unsafe fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split <= a.len() == b.len()`, so the 8-wide
            // loads at `i` and `i + 8` are in bounds of both slices.
            let (a0, a1, b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(pa.add(i)),
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                )
            };
            let d0 = _mm256_sub_ps(a0, b0);
            let d1 = _mm256_sub_ps(a1, b1);
            lo = _mm256_add_ps(lo, _mm256_mul_ps(d0, d0));
            hi = _mm256_add_ps(hi, _mm256_mul_ps(d1, d1));
            i += LANES;
        }
        l2_tail(reduce2x8(lo, hi), &a[split..], &b[split..])
    }

    /// `Σ aᵢ·bᵢ` on two 8-wide accumulators.
    ///
    /// # Safety
    /// The CPU must support AVX2 (the kernel table only installs this after
    /// runtime detection).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split <= a.len() == b.len()`, so the 8-wide
            // loads at `i` and `i + 8` are in bounds of both slices.
            let (a0, a1, b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(pa.add(i)),
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                )
            };
            lo = _mm256_add_ps(lo, _mm256_mul_ps(a0, b0));
            hi = _mm256_add_ps(hi, _mm256_mul_ps(a1, b1));
            i += LANES;
        }
        dot_tail(reduce2x8(lo, hi), &a[split..], &b[split..])
    }

    /// `Σ (tᵢ - scaleᵢ·cᵢ)²` with packed `u8 → i32 → f32` widening
    /// (`vpmovzxbd` + `vcvtdq2ps`, 8 codes per conversion).
    ///
    /// # Safety
    /// The CPU must support AVX2 (the kernel table only installs this after
    /// runtime detection).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        same_len(t.len(), codes.len());
        same_len(t.len(), scale.len());
        let split = (t.len() / LANES) * LANES;
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let (pt, ps, pc) = (t.as_ptr(), scale.as_ptr(), codes.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split` bounds every access: two 8-byte code
            // loads at `i` and `i + 8`, and 8-wide f32 loads at the same
            // offsets into `t` and `scale` (all three slices are `len`-equal).
            let (c0, c1, t0, t1, s0, s1) = unsafe {
                (
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(pc.add(i) as *const __m128i)),
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(pc.add(i + 8) as *const __m128i)),
                    _mm256_loadu_ps(pt.add(i)),
                    _mm256_loadu_ps(pt.add(i + 8)),
                    _mm256_loadu_ps(ps.add(i)),
                    _mm256_loadu_ps(ps.add(i + 8)),
                )
            };
            let f0 = core::arch::x86_64::_mm256_cvtepi32_ps(c0);
            let f1 = core::arch::x86_64::_mm256_cvtepi32_ps(c1);
            let d0 = _mm256_sub_ps(t0, _mm256_mul_ps(s0, f0));
            let d1 = _mm256_sub_ps(t1, _mm256_mul_ps(s1, f1));
            lo = _mm256_add_ps(lo, _mm256_mul_ps(d0, d0));
            hi = _mm256_add_ps(hi, _mm256_mul_ps(d1, d1));
            i += LANES;
        }
        sq8_l2_tail(reduce2x8(lo, hi), &t[split..], &scale[split..], &codes[split..])
    }

    /// `Σ wᵢ·cᵢ` with packed `u8 → f32` widening.
    ///
    /// # Safety
    /// The CPU must support AVX2 (the kernel table only installs this after
    /// runtime detection).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        same_len(w.len(), codes.len());
        let split = (w.len() / LANES) * LANES;
        let mut lo = _mm256_setzero_ps();
        let mut hi = _mm256_setzero_ps();
        let (pw, pc) = (w.as_ptr(), codes.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split` bounds the two 8-byte code loads and
            // the two 8-wide f32 loads (`w.len() == codes.len()`).
            let (c0, c1, w0, w1) = unsafe {
                (
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(pc.add(i) as *const __m128i)),
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(pc.add(i + 8) as *const __m128i)),
                    _mm256_loadu_ps(pw.add(i)),
                    _mm256_loadu_ps(pw.add(i + 8)),
                )
            };
            let f0 = core::arch::x86_64::_mm256_cvtepi32_ps(c0);
            let f1 = core::arch::x86_64::_mm256_cvtepi32_ps(c1);
            lo = _mm256_add_ps(lo, _mm256_mul_ps(w0, f0));
            hi = _mm256_add_ps(hi, _mm256_mul_ps(w1, f1));
            i += LANES;
        }
        sq8_dot_tail(reduce2x8(lo, hi), &w[split..], &codes[split..])
    }

    /// ADC scoring with one 8-wide gather per chunk of subspaces.
    ///
    /// # Safety
    /// The CPU must support AVX2, and every gathered index must be in
    /// bounds: callers must ensure `tables.len() == width · codes.len()`,
    /// `width >= 256` (any `u8` code in range) and `tables.len() <= i32::MAX`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn adc_gather(tables: &[f32], width: usize, codes: &[u8]) -> f32 {
        debug_assert_eq!(tables.len(), width * codes.len());
        debug_assert!(width >= 256 && tables.len() <= i32::MAX as usize);
        let split = (codes.len() / ADC_LANES) * ADC_LANES;
        let w = width as i32;
        let mut acc = _mm256_setzero_ps();
        // Row offsets of the 8 subspaces of a chunk, advanced by 8·width
        // per iteration.
        let mut offs = _mm256_setr_epi32(0, w, 2 * w, 3 * w, 4 * w, 5 * w, 6 * w, 7 * w);
        let step = _mm256_set1_epi32(w * ADC_LANES as i32);
        let (ptab, pc) = (tables.as_ptr(), codes.as_ptr());
        let mut s = 0;
        while s < split {
            // SAFETY: `s + 8 <= split <= codes.len()`: the 8-byte code load
            // is in bounds. Each gathered index is `sub·width + code` with
            // `sub < codes.len()` and `code < 256 <= width`, hence
            // `< width·codes.len() == tables.len()` and representable in i32.
            let vals = unsafe {
                let c = _mm256_cvtepu8_epi32(_mm_loadl_epi64(pc.add(s) as *const __m128i));
                _mm256_i32gather_ps::<4>(ptab, _mm256_add_epi32(offs, c))
            };
            acc = _mm256_add_ps(acc, vals);
            offs = _mm256_add_epi32(offs, step);
            s += ADC_LANES;
        }
        let mut lanes = [0.0f32; ADC_LANES];
        // SAFETY: `lanes` holds 8 f32, exactly one 8-wide store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        adc_tail(reduce(&lanes), tables, width, codes, split)
    }
}

// Safe wrappers the AVX2 table installs: each is the *only* route to its
// `#[target_feature]` kernel, and the table is only handed out by
// `table_for` after runtime detection (rule R8 keeps detection out of the
// hot paths, and `target_feature` confined to this module).
#[cfg(target_arch = "x86_64")]
mod avx2_entry {
    use super::{avx2, scalar};

    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: installed only in the AVX2 table, which `table_for` hands
        // out only after `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::squared_l2(a, b) }
    }

    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: installed only in the AVX2 table, which `table_for` hands
        // out only after `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::dot(a, b) }
    }

    pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        // SAFETY: installed only in the AVX2 table, which `table_for` hands
        // out only after `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::sq8_asym_l2(t, scale, codes) }
    }

    pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        // SAFETY: installed only in the AVX2 table, which `table_for` hands
        // out only after `is_x86_feature_detected!("avx2")` succeeded.
        unsafe { avx2::sq8_asym_dot(w, codes) }
    }

    pub fn adc_accumulate(tables: &[f32], width: usize, codes: &[u8]) -> f32 {
        // The gather form needs every index provably in bounds; IVFPQ's
        // standard 256-entry codebooks satisfy `width >= 256` (any u8 code
        // is then in range). Anything else — including inconsistent inputs
        // the scalar loop would catch with a bounds panic — stays scalar.
        if width >= 256 && tables.len() == width * codes.len() && tables.len() <= i32::MAX as usize
        {
            // SAFETY: AVX2 detected (table installation invariant, as
            // above); the guard just established the index-bounds
            // precondition of `adc_gather`.
            unsafe { avx2::adc_gather(tables, width, codes) }
        } else {
            scalar::adc_accumulate(tables, width, codes)
        }
    }
}

// ---------------------------------------------------------------------------
// NEON — aarch64 baseline, so safe fns with unsafe loads, like SSE2.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{dot_tail, l2_tail, reduce, same_len, sq8_dot_tail, sq8_l2_tail, LANES};
    use core::arch::aarch64::{
        float32x4_t, vaddq_f32, vcvtq_f32_u32, vdupq_n_f32, vget_high_u16, vget_high_u8,
        vget_low_u16, vget_low_u8, vld1q_f32, vld1q_u8, vmovl_u16, vmovl_u8, vmulq_f32, vst1q_f32,
        vsubq_f32,
    };

    /// Stores the four 4-wide accumulators back into virtual-lane order and
    /// reduces them exactly like the scalar kernel.
    #[inline]
    #[target_feature(enable = "neon")]
    fn reduce4x4(acc: [float32x4_t; 4]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for (r, &v) in acc.iter().enumerate() {
            // SAFETY: `lanes` holds 16 f32; each 4-wide store writes the
            // disjoint in-bounds span `lanes[4r..4r + 4]` (r < 4).
            unsafe { vst1q_f32(lanes.as_mut_ptr().add(4 * r), v) };
        }
        reduce(&lanes)
    }

    /// Widens 16 code bytes at `p` to four 4-wide f32 vectors in virtual-lane
    /// order (zero-extend u8 → u16 → u32, then exact u32 → f32 conversion).
    ///
    /// # Safety
    /// `p` must point to at least 16 readable bytes.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn widen16(p: *const u8) -> [float32x4_t; 4] {
        // SAFETY: the caller guarantees 16 readable bytes at `p`.
        let raw = unsafe { vld1q_u8(p) };
        let lo = vmovl_u8(vget_low_u8(raw));
        let hi = vmovl_u8(vget_high_u8(raw));
        [
            vcvtq_f32_u32(vmovl_u16(vget_low_u16(lo))),
            vcvtq_f32_u32(vmovl_u16(vget_high_u16(lo))),
            vcvtq_f32_u32(vmovl_u16(vget_low_u16(hi))),
            vcvtq_f32_u32(vmovl_u16(vget_high_u16(hi))),
        ]
    }

    // lint:hot-path
    #[target_feature(enable = "neon")]
    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut acc = [vdupq_n_f32(0.0); 4];
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < split {
            for (r, slot) in acc.iter_mut().enumerate() {
                // SAFETY: `i + 16 <= split <= a.len() == b.len()`, so the
                // 4-wide loads at `i + 4r` (r < 4) are in bounds of both.
                let (va, vb) = unsafe { (vld1q_f32(pa.add(i + 4 * r)), vld1q_f32(pb.add(i + 4 * r))) };
                let d = vsubq_f32(va, vb);
                // Separate mul + add (no vfmaq) to stay bit-equal to scalar.
                *slot = vaddq_f32(*slot, vmulq_f32(d, d));
            }
            i += LANES;
        }
        l2_tail(reduce4x4(acc), &a[split..], &b[split..])
    }

    // lint:hot-path
    #[target_feature(enable = "neon")]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        same_len(a.len(), b.len());
        let split = (a.len() / LANES) * LANES;
        let mut acc = [vdupq_n_f32(0.0); 4];
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < split {
            for (r, slot) in acc.iter_mut().enumerate() {
                // SAFETY: `i + 16 <= split <= a.len() == b.len()`, so the
                // 4-wide loads at `i + 4r` (r < 4) are in bounds of both.
                let (va, vb) = unsafe { (vld1q_f32(pa.add(i + 4 * r)), vld1q_f32(pb.add(i + 4 * r))) };
                *slot = vaddq_f32(*slot, vmulq_f32(va, vb));
            }
            i += LANES;
        }
        dot_tail(reduce4x4(acc), &a[split..], &b[split..])
    }

    // lint:hot-path
    #[target_feature(enable = "neon")]
    pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        same_len(t.len(), codes.len());
        same_len(t.len(), scale.len());
        let split = (t.len() / LANES) * LANES;
        let mut acc = [vdupq_n_f32(0.0); 4];
        let (pt, ps, pc) = (t.as_ptr(), scale.as_ptr(), codes.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split <= codes.len()`: 16 code bytes at `i`
            // are in bounds.
            let cf = unsafe { widen16(pc.add(i)) };
            for (r, &c) in cf.iter().enumerate() {
                // SAFETY: `i + 16 <= split <= t.len() == scale.len()`, so the
                // 4-wide loads at `i + 4r` (r < 4) are in bounds of both.
                let (vt, vs) = unsafe { (vld1q_f32(pt.add(i + 4 * r)), vld1q_f32(ps.add(i + 4 * r))) };
                let d = vsubq_f32(vt, vmulq_f32(vs, c));
                acc[r] = vaddq_f32(acc[r], vmulq_f32(d, d));
            }
            i += LANES;
        }
        sq8_l2_tail(reduce4x4(acc), &t[split..], &scale[split..], &codes[split..])
    }

    // lint:hot-path
    #[target_feature(enable = "neon")]
    pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        same_len(w.len(), codes.len());
        let split = (w.len() / LANES) * LANES;
        let mut acc = [vdupq_n_f32(0.0); 4];
        let (pw, pc) = (w.as_ptr(), codes.as_ptr());
        let mut i = 0;
        while i < split {
            // SAFETY: `i + 16 <= split <= codes.len()`: 16 code bytes at `i`
            // are in bounds.
            let cf = unsafe { widen16(pc.add(i)) };
            for (r, &c) in cf.iter().enumerate() {
                // SAFETY: `i + 16 <= split <= w.len()`: the 4-wide load at
                // `i + 4r` (r < 4) is in bounds.
                let vw = unsafe { vld1q_f32(pw.add(i + 4 * r)) };
                acc[r] = vaddq_f32(acc[r], vmulq_f32(vw, c));
            }
            i += LANES;
        }
        sq8_dot_tail(reduce4x4(acc), &w[split..], &codes[split..])
    }

}

// Plain-fn wrappers for the NEON table, mirroring `sse2_entry`: NEON is a
// baseline feature of aarch64, so the single unsafe call per wrapper is
// always sound there.
#[cfg(target_arch = "aarch64")]
mod neon_entry {
    use super::{neon, scalar};

    pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: NEON is a baseline feature of the aarch64 target, enabled
        // in every build that compiles this module.
        unsafe { neon::squared_l2(a, b) }
    }

    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: NEON is a baseline feature of the aarch64 target, enabled
        // in every build that compiles this module.
        unsafe { neon::dot(a, b) }
    }

    pub fn sq8_asym_l2(t: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        // SAFETY: NEON is a baseline feature of the aarch64 target, enabled
        // in every build that compiles this module.
        unsafe { neon::sq8_asym_l2(t, scale, codes) }
    }

    pub fn sq8_asym_dot(w: &[f32], codes: &[u8]) -> f32 {
        // SAFETY: NEON is a baseline feature of the aarch64 target, enabled
        // in every build that compiles this module.
        unsafe { neon::sq8_asym_dot(w, codes) }
    }

    /// No gather on NEON: the NEON table reuses the scalar ADC loop.
    pub use scalar::adc_accumulate;
}

// ---------------------------------------------------------------------------
// The tables and their one-time resolution.
// ---------------------------------------------------------------------------

static SCALAR_TABLE: KernelTable = KernelTable {
    level: SimdLevel::Scalar,
    squared_l2: scalar::squared_l2,
    dot: scalar::dot,
    sq8_asym_l2: scalar::sq8_asym_l2,
    sq8_asym_dot: scalar::sq8_asym_dot,
    adc_accumulate: scalar::adc_accumulate,
};

#[cfg(target_arch = "x86_64")]
static SSE2_TABLE: KernelTable = KernelTable {
    level: SimdLevel::Sse2,
    squared_l2: sse2_entry::squared_l2,
    dot: sse2_entry::dot,
    sq8_asym_l2: sse2_entry::sq8_asym_l2,
    sq8_asym_dot: sse2_entry::sq8_asym_dot,
    adc_accumulate: sse2_entry::adc_accumulate,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    level: SimdLevel::Avx2,
    squared_l2: avx2_entry::squared_l2,
    dot: avx2_entry::dot,
    sq8_asym_l2: avx2_entry::sq8_asym_l2,
    sq8_asym_dot: avx2_entry::sq8_asym_dot,
    adc_accumulate: avx2_entry::adc_accumulate,
};

#[cfg(target_arch = "aarch64")]
static NEON_TABLE: KernelTable = KernelTable {
    level: SimdLevel::Neon,
    squared_l2: neon_entry::squared_l2,
    dot: neon_entry::dot,
    sq8_asym_l2: neon_entry::sq8_asym_l2,
    sq8_asym_dot: neon_entry::sq8_asym_dot,
    adc_accumulate: neon_entry::adc_accumulate,
};

/// The portable fallback table — also the oracle the agreement proptests
/// compare every enabled level against.
pub fn scalar_table() -> &'static KernelTable {
    &SCALAR_TABLE
}

/// The table for `level` if this build *and* this CPU support it, `None`
/// otherwise. This is the only place a `#[target_feature]` kernel becomes
/// reachable: levels above the target baseline gate on runtime detection.
pub fn table_for(level: SimdLevel) -> Option<&'static KernelTable> {
    match level {
        SimdLevel::Scalar => Some(&SCALAR_TABLE),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => Some(&SSE2_TABLE),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            (std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            .then_some(&AVX2_TABLE)
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => Some(&NEON_TABLE),
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64", not(target_arch = "x86_64")))]
        _ => None,
    }
}

/// Every table the running CPU supports, scalar first (setup-path helper
/// for the agreement tests and the kernel bench).
pub fn enabled_tables() -> Vec<&'static KernelTable> {
    SimdLevel::ALL.iter().filter_map(|&l| table_for(l)).collect()
}

/// The best level the running CPU supports.
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

fn resolve() -> &'static KernelTable {
    let level = match std::env::var("NSG_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => detected_level(),
            "scalar" => SimdLevel::Scalar,
            "sse2" => SimdLevel::Sse2,
            "avx2" => SimdLevel::Avx2,
            "neon" => SimdLevel::Neon,
            other => {
                eprintln!(
                    "NSG_SIMD: unknown level `{other}` (expected auto|scalar|sse2|avx2|neon); using auto"
                );
                detected_level()
            }
        },
        Err(_) => detected_level(),
    };
    table_for(level).unwrap_or_else(|| {
        eprintln!("NSG_SIMD: level `{level}` is unsupported on this CPU/build; falling back to scalar");
        &SCALAR_TABLE
    })
}

/// The process-wide kernel table: CPU-feature detection (and the `NSG_SIMD`
/// override) resolved exactly once, then cached. `prepare_query` re-reads
/// this per query via [`QueryScratch::reset`](crate::store::QueryScratch) —
/// the per-candidate `dist_to` loop never does.
pub fn kernels() -> &'static KernelTable {
    static RESOLVED: OnceLock<&'static KernelTable> = OnceLock::new();
    RESOLVED.get_or_init(resolve)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lengths covering empty, single, sub-lane tails, exact lane multiples
    /// and off-by-one around them.
    const LENGTHS: [usize; 12] = [0, 1, 3, 7, 8, 15, 16, 17, 31, 33, 96, 131];

    fn f32_inputs(len: usize, salt: u32) -> (Vec<f32>, Vec<f32>) {
        let a = (0..len).map(|i| ((i as f32) * 0.37 + salt as f32).sin() * 12.5).collect();
        let b = (0..len).map(|i| ((i as f32) * 0.91 - salt as f32).cos() * 7.25).collect();
        (a, b)
    }

    fn sq8_inputs(len: usize, salt: u32) -> (Vec<f32>, Vec<f32>, Vec<u8>) {
        let t = (0..len).map(|i| ((i as f32) + salt as f32).sin() * 3.0).collect();
        let s = (0..len).map(|i| 0.01 + (i as f32 % 7.0) * 0.003).collect();
        let c = (0..len).map(|i| (i * 37 + salt as usize) as u8).collect();
        (t, s, c)
    }

    #[test]
    fn every_enabled_level_is_bit_identical_to_scalar() {
        let oracle = scalar_table();
        for table in enabled_tables() {
            for &len in &LENGTHS {
                let (a, b) = f32_inputs(len, 5);
                assert_eq!(
                    (table.squared_l2)(&a, &b).to_bits(),
                    (oracle.squared_l2)(&a, &b).to_bits(),
                    "squared_l2 level {} len {len}",
                    table.level
                );
                assert_eq!(
                    (table.dot)(&a, &b).to_bits(),
                    (oracle.dot)(&a, &b).to_bits(),
                    "dot level {} len {len}",
                    table.level
                );
                let (t, s, c) = sq8_inputs(len, 9);
                assert_eq!(
                    (table.sq8_asym_l2)(&t, &s, &c).to_bits(),
                    (oracle.sq8_asym_l2)(&t, &s, &c).to_bits(),
                    "sq8_asym_l2 level {} len {len}",
                    table.level
                );
                assert_eq!(
                    (table.sq8_asym_dot)(&t, &c).to_bits(),
                    (oracle.sq8_asym_dot)(&t, &c).to_bits(),
                    "sq8_asym_dot level {} len {len}",
                    table.level
                );
            }
        }
    }

    #[test]
    fn adc_matches_scalar_for_narrow_and_gather_widths() {
        for table in enabled_tables() {
            // width < 256 exercises the scalar fallback branch, width = 256
            // the gather (on AVX2).
            for (width, n) in [(16usize, 4usize), (16, 20), (256, 9), (256, 32), (256, 0)] {
                let codes: Vec<u8> = (0..n).map(|i| ((i * 53) % width.min(256)) as u8).collect();
                let tables: Vec<f32> =
                    (0..width * n).map(|i| ((i % 1013) as f32) * 0.25 - 60.0).collect();
                assert_eq!(
                    (table.adc_accumulate)(&tables, width, &codes).to_bits(),
                    (scalar_table().adc_accumulate)(&tables, width, &codes).to_bits(),
                    "adc level {} width {width} n {n}",
                    table.level
                );
            }
        }
    }

    #[test]
    fn scalar_kernels_match_naive_reference() {
        for &len in &LENGTHS {
            let (a, b) = f32_inputs(len, 3);
            let naive_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got_l2 = (scalar_table().squared_l2)(&a, &b);
            let got_dot = (scalar_table().dot)(&a, &b);
            assert!((got_l2 - naive_l2).abs() <= 1e-3 * naive_l2.abs().max(1.0), "len {len}");
            assert!((got_dot - naive_dot).abs() <= 1e-3 * naive_dot.abs().max(1.0), "len {len}");
        }
    }

    #[test]
    fn detection_and_tables_are_consistent() {
        // The detected level must have a table, and `kernels()` must return
        // one of the enabled tables.
        assert!(table_for(detected_level()).is_some());
        let resolved = kernels();
        assert!(enabled_tables().iter().any(|t| t.level == resolved.level));
        // Scalar is always available and always first in the enumeration.
        assert_eq!(enabled_tables()[0].level, SimdLevel::Scalar);
        assert_eq!(scalar_table().level, SimdLevel::Scalar);
    }

    #[test]
    fn level_names_round_trip() {
        for level in SimdLevel::ALL {
            assert_eq!(format!("{level}"), level.as_str());
        }
    }
}
