//! Deterministic counter-based noise.
//!
//! All per-PE variation in the simulator comes from hashing the tuple
//! `(seed, region, pe, stream)` with SplitMix64. This keeps runs perfectly
//! reproducible under any parallel schedule — a requirement for the
//! cross-backend equality tests (interpreter vs SQL) and for benchmarks
//! that must measure the same workload on every pass.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a tuple of values into a single u64.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ splitmix64(b)))
}

/// Uniform value in `[0, 1)` from a hash.
#[inline]
pub fn unit(h: u64) -> f64 {
    // 53 random mantissa bits.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform value in `[-1, 1)` derived from `(seed, region, pe, stream)`.
#[inline]
pub fn signed_noise(seed: u64, region: u64, pe: u64, stream: u64) -> f64 {
    2.0 * unit(hash3(
        seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407),
        region,
        pe,
    )) - 1.0
}

/// Approximately standard-normal value (sum of 4 uniforms, Irwin–Hall),
/// deterministic in its inputs. Adequate for workload perturbations.
#[inline]
pub fn gaussian_noise(seed: u64, region: u64, pe: u64, stream: u64) -> f64 {
    let mut acc = 0.0;
    for i in 0..4 {
        acc += signed_noise(seed, region, pe, stream.wrapping_add(i * 0x9E37));
    }
    // Var of one U(-1,1) is 1/3; of the sum of 4 it is 4/3.
    acc / (4.0f64 / 3.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }

    #[test]
    fn unit_range() {
        for i in 0..1000 {
            let u = unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn signed_noise_range_and_balance() {
        let mut sum = 0.0;
        let n = 10_000;
        for pe in 0..n {
            let v = signed_noise(7, 3, pe, 1);
            assert!((-1.0..1.0).contains(&v));
            sum += v;
        }
        // Mean should be near zero.
        assert!((sum / n as f64).abs() < 0.02, "mean {}", sum / n as f64);
    }

    #[test]
    fn gaussian_noise_moments() {
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for pe in 0..n {
            let v = gaussian_noise(11, 5, pe, 2);
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(signed_noise(1, 2, 3, 0), signed_noise(1, 2, 3, 1),);
    }
}
