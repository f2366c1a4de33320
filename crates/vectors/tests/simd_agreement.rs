//! Property tests asserting every enabled SIMD kernel table agrees with the
//! scalar reference kernels.
//!
//! The kernels in `nsg_vectors::simd` are written against a shared
//! "virtual lane" dataflow (same accumulator count, same mul-then-add order,
//! same reduction sequence), so agreement here is *bitwise*, which is well
//! inside the ≤ 4 ULP budget the kernels advertise. Lengths are drawn from
//! `0..200`, covering the empty input, single element, sub-lane tails, and
//! multi-block bodies.
//!
//! Inputs of unequal length must panic on every table (one length check
//! per call, before any vector load) rather than read out of bounds.
//!
//! The `NSG_SIMD=scalar` override is asserted separately: when CI sets that
//! variable, `kernels()` must resolve to the scalar table.

use nsg_vectors::distance::{dot, squared_l2};
use nsg_vectors::simd::{self, scalar_table, F32Kernel, KernelTable};
use proptest::collection::vec;
use proptest::prelude::*;

/// Absolute difference in ULPs between two finite f32 values, treating the
/// bit patterns as sign-magnitude integers. Identical bits → 0.
fn ulp_diff(a: f32, b: f32) -> u64 {
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits) as i64
        } else {
            bits as i64
        }
    }
    (key(a) - key(b)).unsigned_abs()
}

const MAX_ULPS: u64 = 4;

fn enabled_non_scalar() -> Vec<&'static KernelTable> {
    simd::enabled_tables()
        .into_iter()
        .filter(|t| t.level != simd::SimdLevel::Scalar)
        .collect()
}

/// Two equal-length f32 vectors with a shared random length in `0..200`.
fn f32_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0usize..200).prop_flat_map(|len| {
        (
            vec(-100.0f32..100.0, len),
            vec(-100.0f32..100.0, len),
        )
    })
}

/// Prepared query values, per-dimension scales, and a u8 code row, all of one
/// random length in `0..200`.
fn sq8_triple() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<u8>)> {
    (0usize..200).prop_flat_map(|len| {
        (
            vec(-100.0f32..100.0, len),
            vec(0.001f32..2.0, len),
            vec(0u8..255, len),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn squared_l2_matches_scalar(pair in f32_pair()) {
        let (a, b) = pair;
        let want = (scalar_table().squared_l2)(&a, &b);
        for t in enabled_non_scalar() {
            let got = (t.squared_l2)(&a, &b);
            prop_assert!(
                ulp_diff(got, want) <= MAX_ULPS,
                "{} squared_l2 diverged: {got} vs scalar {want} (len {})",
                t.level, a.len()
            );
        }
    }

    #[test]
    fn dot_matches_scalar(pair in f32_pair()) {
        let (a, b) = pair;
        let want = (scalar_table().dot)(&a, &b);
        for t in enabled_non_scalar() {
            let got = (t.dot)(&a, &b);
            prop_assert!(
                ulp_diff(got, want) <= MAX_ULPS,
                "{} dot diverged: {got} vs scalar {want} (len {})",
                t.level, a.len()
            );
        }
    }

    #[test]
    fn sq8_asym_l2_matches_scalar(triple in sq8_triple()) {
        let (prepared, scale, code) = triple;
        let want = (scalar_table().sq8_asym_l2)(&prepared, &scale, &code);
        for t in enabled_non_scalar() {
            let got = (t.sq8_asym_l2)(&prepared, &scale, &code);
            // The u8→f32 widening is exact on every ISA, so the integer
            // portion of the kernel cannot diverge; the float accumulation
            // is bit-identical by construction.
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "{} sq8_asym_l2 diverged: {} vs scalar {} (len {})",
                t.level, got, want, code.len()
            );
        }
    }

    #[test]
    fn sq8_asym_dot_matches_scalar(triple in sq8_triple()) {
        let (prepared, scale, code) = triple;
        // For the dot kernel the per-dimension scale is folded into the
        // prepared weights ahead of time, so `scale` only feeds the l2 test.
        let _ = scale;
        let want = (scalar_table().sq8_asym_dot)(&prepared, &code);
        for t in enabled_non_scalar() {
            let got = (t.sq8_asym_dot)(&prepared, &code);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "{} sq8_asym_dot diverged: {} vs scalar {} (len {})",
                t.level, got, want, code.len()
            );
        }
    }
}

/// Two f32 vectors of lengths `len + 17·d` with `d ∈ {0, 1, 2}` drawn per
/// input: equal in a third of the draws, otherwise differing by one or two
/// lane chunks plus a tail, in either direction.
fn f32_any_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0usize..100, 0usize..3, 0usize..3).prop_flat_map(|(len, da, db)| {
        (
            vec(-100.0f32..100.0, len + 17 * da),
            vec(-100.0f32..100.0, len + 17 * db),
        )
    })
}

/// A prepared SQ8 query, scales and codes, skewed like [`f32_any_pair`].
fn sq8_any_triple() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<u8>)> {
    (0usize..100, 0usize..3, 0usize..3).prop_flat_map(|(len, ds, dc)| {
        (
            vec(-100.0f32..100.0, len),
            vec(0.001f32..2.0, len + 17 * ds),
            vec(0u8..255, len + 17 * dc),
        )
    })
}

/// `Some(result)` if `f` returned, `None` if it panicked.
fn result_or_panic(f: impl FnOnce() -> f32) -> Option<f32> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Every enabled table, plus the one `NSG_SIMD` resolved (the CI step runs
/// this suite under both `scalar` and `auto`).
fn tables_under_test() -> Vec<&'static KernelTable> {
    let mut tables = simd::enabled_tables();
    tables.push(simd::kernels());
    tables
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary length pairs: equal lengths give a result, unequal lengths
    /// a panic — never a read past the shorter slice or a truncated sum.
    #[test]
    fn f32_kernels_reject_mismatched_lengths(pair in f32_any_pair()) {
        let (a, b) = pair;
        let equal = a.len() == b.len();
        for t in tables_under_test() {
            for (name, kernel) in [("squared_l2", t.squared_l2), ("dot", t.dot)] {
                prop_assert_eq!(
                    result_or_panic(|| kernel(&a, &b)).is_some(), equal,
                    "{} {} on lengths {} and {}", t.level, name, a.len(), b.len()
                );
            }
        }
        let free_fns: [(&str, F32Kernel); 2] = [("squared_l2", squared_l2), ("dot", dot)];
        for (name, f) in free_fns {
            prop_assert_eq!(
                result_or_panic(|| f(&a, &b)).is_some(), equal,
                "distance::{} on lengths {} and {}", name, a.len(), b.len()
            );
        }
    }

    #[test]
    fn sq8_kernels_reject_mismatched_lengths(triple in sq8_any_triple()) {
        let (prepared, scale, code) = triple;
        let l2_ok = prepared.len() == scale.len() && prepared.len() == code.len();
        let dot_ok = prepared.len() == code.len();
        for t in tables_under_test() {
            prop_assert_eq!(
                result_or_panic(|| (t.sq8_asym_l2)(&prepared, &scale, &code)).is_some(), l2_ok,
                "{} sq8_asym_l2 on lengths {}/{}/{}", t.level, prepared.len(), scale.len(), code.len()
            );
            prop_assert_eq!(
                result_or_panic(|| (t.sq8_asym_dot)(&prepared, &code)).is_some(), dot_ok,
                "{} sq8_asym_dot on lengths {}/{}", t.level, prepared.len(), code.len()
            );
        }
    }
}

/// The out-of-bounds shape that used to reach the SIMD loads: a row far
/// longer than the query. Every table must panic before its first load.
#[test]
fn long_row_against_short_query_panics_on_every_table() {
    let long = vec![1.0f32; 1 << 20];
    let short = [0.0f32; 16];
    for t in tables_under_test() {
        let level = t.level;
        assert!(result_or_panic(|| (t.squared_l2)(&long, &short)).is_none(), "{level}");
        assert!(result_or_panic(|| (t.dot)(&short, &long)).is_none(), "{level}");
    }
}

/// ADC accumulation over LUT rows: exercised at a narrow width (16, below the
/// AVX2 gather threshold) and at the gather width (256) so both the guarded
/// fallback and the gather path are compared against scalar.
#[test]
fn adc_accumulate_matches_scalar_at_narrow_and_gather_widths() {
    let mut rng_state = 0x9E37_79B9u64;
    let mut next = move || {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng_state >> 33) as u32
    };
    for &width in &[16usize, 256] {
        for &n in &[0usize, 1, 7, 8, 9, 40] {
            let tables: Vec<f32> = (0..width * n)
                .map(|_| (next() % 1000) as f32 / 250.0 - 2.0)
                .collect();
            let codes: Vec<u8> = (0..n).map(|_| (next() % width as u32) as u8).collect();
            let want = (scalar_table().adc_accumulate)(&tables, width, &codes);
            for t in enabled_non_scalar() {
                let got = (t.adc_accumulate)(&tables, width, &codes);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} adc_accumulate diverged at width {width}, n {n}: {got} vs {want}",
                    t.level
                );
            }
        }
    }
}

/// When the `NSG_SIMD=scalar` override is set (as the CI simd-smoke step
/// does), the resolved table must be the scalar fallback regardless of what
/// the CPU supports. Under any other setting the resolved table must be one
/// of the enabled tables.
#[test]
fn nsg_simd_override_is_honored() {
    let resolved = simd::kernels();
    match std::env::var("NSG_SIMD").as_deref() {
        Ok("scalar") => assert_eq!(resolved.level, simd::SimdLevel::Scalar),
        _ => assert!(simd::enabled_tables()
            .iter()
            .any(|t| t.level == resolved.level)),
    }
}
