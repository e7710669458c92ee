//! Runtime-dispatched AVX2 form of the lane transpose.
//!
//! The lane view in [`crate::lanes`] packs one bit of 64 independent
//! simulations per `u64`; moving values in and out of that layout
//! ([`crate::lanes::deposit`]/[`crate::lanes::extract`]) is a 64×64
//! block-swap bit transpose, whose masked row exchanges are natural
//! 256-bit vector ops. This module holds the `std::arch` AVX2 form of
//! that transpose behind **runtime feature detection**
//! (`is_x86_feature_detected!`): both paths are always compiled, the
//! portable scalar network stays the fallback on non-AVX2 hosts, and
//! the AVX2 kernel is bit-for-bit identical to it — dispatch may never
//! change an observable result, only its cost.
//!
//! Dispatch is observable and forceable: the `USIM_FORCE_SWAR`
//! environment variable (read once) pins the portable path so a
//! suspect AVX2 codepath can be ruled out in the field,
//! [`ForceSwarGuard`] scopes the same pin for native-vs-portable
//! tests, and [`detected_simd_level`]/[`active_simd_level`] report the
//! host capability and the path actually taken (recorded into bench
//! artifacts so numbers from different hosts are comparable).
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsic calls live behind a safe wrapper that returns `false`
//! whenever AVX2 is unavailable or forced off, so the caller keeps its
//! scalar loop as the one true fallback.
//!
//! Not everything that *could* be vectorized is: a Kogge–Stone AVX2
//! carry network for [`crate::lanes::add`] measured ~0.3× of the
//! scalar ripple on an AVX2 host (its per-round load/store traffic
//! loses to four inlined scalar ops per plane), and planewise vector
//! ALU/compare forms lost to their inlined scalar twins on call
//! overhead alone. Both were rejected on that measurement.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Set while a [`ForceSwarGuard`] pins the portable path.
static GUARD_FORCED: AtomicBool = AtomicBool::new(false);

/// Cached dispatch decision: 0 = uninitialised, 1 = SWAR, 2 = AVX2.
/// Invalidated (back to 0) whenever a guard is taken or dropped.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// `USIM_FORCE_SWAR` environment escape hatch, read once per process:
/// any non-empty value other than `"0"` forces the portable path.
fn env_forces_swar() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var_os("USIM_FORCE_SWAR").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

/// Does the host CPU support AVX2 (ignoring any force-SWAR pin)?
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The host's detected SIMD capability, ignoring overrides: `"avx2"`
/// or `"swar"`. Recorded into bench artifacts next to
/// [`active_simd_level`].
pub fn detected_simd_level() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "swar"
    }
}

/// The SIMD level dispatch will actually use right now (detection
/// combined with any force-SWAR pin): `"avx2"` or `"swar"`.
pub fn active_simd_level() -> &'static str {
    if avx2_active() {
        "avx2"
    } else {
        "swar"
    }
}

/// RAII pin of the portable path: [`ForceSwarGuard::force`] pins SWAR
/// dispatch, dropping the guard restores whatever pin was in effect
/// before (guards nest). Used by the native-vs-forced byte-identity
/// tests.
#[derive(Debug)]
pub struct ForceSwarGuard {
    prev: bool,
}

impl ForceSwarGuard {
    /// Pin the portable SWAR path until the guard drops.
    pub fn force() -> Self {
        let prev = GUARD_FORCED.swap(true, Ordering::Relaxed);
        ACTIVE.store(0, Ordering::Relaxed);
        ForceSwarGuard { prev }
    }
}

impl Drop for ForceSwarGuard {
    fn drop(&mut self) {
        GUARD_FORCED.store(self.prev, Ordering::Relaxed);
        ACTIVE.store(0, Ordering::Relaxed);
    }
}

/// Hot-path dispatch check: one relaxed atomic load once initialised.
#[inline]
fn avx2_active() -> bool {
    match ACTIVE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_active(),
    }
}

#[cold]
fn init_active() -> bool {
    let forced = GUARD_FORCED.load(Ordering::Relaxed) || env_forces_swar();
    let active = avx2_detected() && !forced;
    ACTIVE.store(if active { 2 } else { 1 }, Ordering::Relaxed);
    active
}

/// AVX2 form of the lane-parallel 64×64 bit transpose, returning
/// `false` (matrix untouched) when dispatch is off.
#[inline]
pub(crate) fn transpose64_avx2(a: &mut [u64; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: AVX2 availability checked.
        unsafe { x86::transpose64(a) };
        return true;
    }
    let _ = a;
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// AVX2 64×64 bit transpose. Levels `j ≥ 4` exchange 4-row runs
    /// with plain vector loads; levels 2 and 1 pair rows inside one
    /// 256-bit register via lane permutes.
    #[target_feature(enable = "avx2")]
    pub(super) fn transpose64(a: &mut [u64; 64]) {
        // SAFETY: all loads/stores stay inside the 64-row array; the
        // index walks mirror the scalar block-swap exactly.
        unsafe {
            let p = a.as_mut_ptr();
            let mut j = 32usize;
            let mut m: u64 = 0x0000_0000_FFFF_FFFF;
            while j >= 4 {
                let mv = _mm256_set1_epi64x(m as i64);
                let jc = _mm_cvtsi64_si128(j as i64);
                let mut k = 0usize;
                while k < 64 {
                    let lo = _mm256_loadu_si256(p.add(k).cast());
                    let hi = _mm256_loadu_si256(p.add(k + j).cast());
                    let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srl_epi64(lo, jc), hi), mv);
                    _mm256_storeu_si256(
                        p.add(k).cast(),
                        _mm256_xor_si256(lo, _mm256_sll_epi64(t, jc)),
                    );
                    _mm256_storeu_si256(p.add(k + j).cast(), _mm256_xor_si256(hi, t));
                    k = ((k | j) + 4) & !j;
                }
                j >>= 1;
                m ^= m << j.max(1);
            }
            // j = 2: pairs (k, k+2) inside each 4-row register.
            let m2 = _mm256_set1_epi64x(0x3333_3333_3333_3333u64 as i64);
            for k in (0..64).step_by(4) {
                let v = _mm256_loadu_si256(p.add(k).cast());
                let w = _mm256_permute4x64_epi64::<0x4E>(v); // [a2, a3, a0, a1]
                let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<2>(v), w), m2);
                let t2 = _mm256_permute4x64_epi64::<0x44>(t); // [t0, t1, t0, t1]
                let delta = _mm256_blend_epi32::<0xF0>(_mm256_slli_epi64::<2>(t2), t2);
                _mm256_storeu_si256(p.add(k).cast(), _mm256_xor_si256(v, delta));
            }
            // j = 1: pairs (k, k+1) inside each 4-row register.
            let m1 = _mm256_set1_epi64x(0x5555_5555_5555_5555u64 as i64);
            for k in (0..64).step_by(4) {
                let v = _mm256_loadu_si256(p.add(k).cast());
                let w = _mm256_permute4x64_epi64::<0xB1>(v); // [a1, a0, a3, a2]
                let t = _mm256_and_si256(_mm256_xor_si256(_mm256_srli_epi64::<1>(v), w), m1);
                let t2 = _mm256_permute4x64_epi64::<0xA0>(t); // [t0, t0, t2, t2]
                let delta = _mm256_blend_epi32::<0xCC>(_mm256_slli_epi64::<1>(t2), t2);
                _mm256_storeu_si256(p.add(k).cast(), _mm256_xor_si256(v, delta));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_consistent() {
        // Whatever the host, the reported levels come from the fixed
        // vocabulary and forcing SWAR drops the active level.
        assert!(["avx2", "swar"].contains(&detected_simd_level()));
        let unpinned = active_simd_level();
        assert!(unpinned == "swar" || detected_simd_level() == "avx2");
        {
            let _guard = ForceSwarGuard::force();
            assert_eq!(active_simd_level(), "swar");
            {
                let _inner = ForceSwarGuard::force();
                assert_eq!(active_simd_level(), "swar");
            }
            // Dropping the inner guard restores the outer pin.
            assert_eq!(active_simd_level(), "swar");
        }
        assert_eq!(active_simd_level(), unpinned);
    }
}
