//! Host SIMD capability, as recorded into bench artifacts.
//!
//! The lane kernels in [`crate::lanes`] are portable code on every
//! host: an AVX2 form of the lane transpose won only 7 of 10 paired
//! `sweep_lanes` runs, by a median gap below the portable runs'
//! interquartile range, so it did not pay for itself. The two levels
//! are still reported so that numbers from different hosts stay
//! comparable.

/// The host's detected SIMD capability: `"avx2"` or `"swar"`. Recorded
/// into bench artifacts next to [`active_simd_level`].
pub fn detected_simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "swar"
}

/// The SIMD level the lane kernels actually use: always `"swar"`, the
/// portable network.
pub fn active_simd_level() -> &'static str {
    "swar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_consistent() {
        // Whatever the host, the reported levels come from the fixed
        // vocabulary, and the portable path is the one taken.
        assert!(["avx2", "swar"].contains(&detected_simd_level()));
        assert_eq!(active_simd_level(), "swar");
    }
}
