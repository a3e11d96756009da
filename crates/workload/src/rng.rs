//! Seeded, forkable random number generation.
//!
//! Every stochastic decision in the workload generator flows through a
//! [`SimRng`], so a single 64-bit seed plus the scale factor determines a run
//! exactly. Forking by label lets independent subsystems (e.g. the follow
//! graph and the labeler ecosystem) consume randomness without perturbing
//! each other when one of them changes.
//!
//! The generator is fully self-contained: the core stream is xoshiro256++
//! (seeded through SplitMix64), and the Poisson / log-normal / Zipf samplers
//! are implemented directly (Knuth + normal approximation, Box–Muller, and
//! rejection-inversion respectively), so the crate has no external
//! dependencies and the streams are stable across toolchains.

/// Types that can be drawn uniformly from a half-open `lo..hi` range.
pub trait UniformSample: Copy {
    /// Draw a uniform sample in `[lo, hi)`. Panics if the range is empty.
    fn sample_uniform(rng: &mut SimRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($ty:ty),*) => {$(
        impl UniformSample for $ty {
            fn sample_uniform(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128;
                let value = rng.next_bounded(span as u64) as i128;
                (lo as i128 + value) as $ty
            }
        }
    )*};
}

impl_uniform_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl UniformSample for f64 {
    fn sample_uniform(rng: &mut SimRng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range");
        // The product can round up to exactly `hi` for narrow ranges; clamp
        // to keep the documented half-open [lo, hi) contract.
        (lo + rng.unit() * (hi - lo)).min(hi.next_down())
    }
}

/// A deterministic random number generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state, seed }
    }

    /// Derive an independent generator for a named subsystem. The derived
    /// seed depends only on the parent seed and the label.
    pub(crate) fn fork(&self, label: &str) -> SimRng {
        let mut derived = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for byte in label.bytes() {
            derived = derived
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(byte as u64);
            derived ^= derived >> 29;
        }
        SimRng::new(derived)
    }

    /// Derive an independent generator from a numeric label. Equivalent in
    /// spirit to [`SimRng::fork`] but allocation-free, for hot paths that
    /// derive one stream per (entity, day, purpose) tuple.
    pub(crate) fn fork_u64(&self, label: u64) -> SimRng {
        let mut mix = self.seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Two splitmix rounds decorrelate adjacent labels.
        let a = splitmix64(&mut mix);
        let b = splitmix64(&mut mix);
        SimRng::new(a ^ b.rotate_left(32))
    }

    /// Raw 64-bit output (for deriving sub-seeds).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform integer in `[0, bound)` via rejection sampling (unbiased).
    fn next_bounded(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Accept only draws below the largest multiple of `bound` that fits
        // in 64 bits, so the modulo is unbiased.
        let overhang = (u64::MAX % bound + 1) % bound;
        loop {
            let value = self.next_u64();
            if overhang == 0 || value <= u64::MAX - overhang {
                return value % bound;
            }
        }
    }

    /// Uniform sample from a half-open range `lo..hi`.
    pub fn range<T: UniformSample>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_uniform(self, range.start, range.end)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// A uniform f64 in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A standard normal sample (Box–Muller; the spare value is discarded to
    /// keep the stream a pure function of the draw count).
    fn standard_normal(&mut self) -> f64 {
        loop {
            let u1 = self.unit();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.unit();
            let r = (-2.0 * u1.ln()).sqrt();
            return r * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }

    /// Poisson sample with the given mean (returns 0 for non-positive means).
    pub(crate) fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        // Guard against numerically extreme means.
        let mean = mean.min(1e7);
        if mean < 30.0 {
            // Knuth's product-of-uniforms method (exact for small means).
            let limit = (-mean).exp();
            let mut product = 1.0;
            let mut count = 0u64;
            loop {
                product *= self.unit();
                if product <= limit {
                    return count;
                }
                count += 1;
            }
        }
        // Normal approximation for large means.
        let sample = mean + mean.sqrt() * self.standard_normal();
        sample.round().max(0.0) as u64
    }

    /// Log-normal sample parameterised by the *median* and sigma of the
    /// underlying normal. Used for reaction-time and activity-level models.
    pub(crate) fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        let mu = median.max(1e-9).ln();
        (mu + sigma.max(1e-9) * self.standard_normal()).exp()
    }

    /// Zipf-distributed rank sample in `[1, n]` with exponent `s`, via
    /// rejection-inversion (Hörmann & Derflinger).
    pub(crate) fn zipf(&mut self, n: u64, s: f64) -> u64 {
        if n <= 1 {
            return 1;
        }
        let a = s.max(1e-6);
        let h_integral = |x: f64| -> f64 {
            let log_x = x.ln();
            if (a - 1.0).abs() < 1e-12 {
                log_x
            } else {
                ((1.0 - a) * log_x).exp_m1() / (1.0 - a)
            }
        };
        let h_integral_inverse = |x: f64| -> f64 {
            if (a - 1.0).abs() < 1e-12 {
                x.exp()
            } else {
                let t = (x * (1.0 - a)).max(-1.0);
                (t.ln_1p() / (1.0 - a)).exp()
            }
        };
        let h = |x: f64| -> f64 { (-a * x.ln()).exp() };
        let h_x1 = h_integral(1.5) - 1.0;
        let h_n = h_integral(n as f64 + 0.5);
        let threshold = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
        loop {
            let u = h_n + self.unit() * (h_x1 - h_n);
            let x = h_integral_inverse(u);
            let k = x.round().clamp(1.0, n as f64);
            if k - x <= threshold || u >= h_integral(k + 0.5) - h(k) {
                return k as u64;
            }
        }
    }

    /// Pick one element of a slice (panics on empty slices).
    pub(crate) fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.next_bounded(items.len() as u64) as usize]
    }

    /// Pick an index according to a weight vector. Returns `None` when the
    /// total weight is not positive.
    pub(crate) fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                target -= w;
                if target <= 0.0 {
                    return Some(i);
                }
            }
        }
        Some(weights.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let root = SimRng::new(7);
        let mut f1 = root.fork("labelers");
        let mut f1_again = root.fork("labelers");
        let mut f2 = root.fork("feedgens");
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn numeric_forks_are_deterministic_and_decorrelated() {
        let root = SimRng::new(7);
        let mut a = root.fork_u64(42);
        let mut a_again = root.fork_u64(42);
        assert_eq!(a.next_u64(), a_again.next_u64());
        // Adjacent labels produce different streams, and the numeric fork
        // space does not collide with the string fork space in practice.
        let mut b = root.fork_u64(43);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
        // Different parents give different children for the same label.
        let mut c = SimRng::new(8).fork_u64(42);
        let mut d = SimRng::new(7).fork_u64(42);
        let same = (0..64).filter(|_| c.next_u64() == d.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(2.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((1_800..3_200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn range_covers_and_stays_in_bounds() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
        for _ in 0..1_000 {
            let v = rng.range(-5..5i64);
            assert!((-5..5).contains(&v));
        }
        let f = rng.range(0.25..0.75f64);
        assert!((0.25..0.75).contains(&f));
    }

    #[test]
    fn zipf_is_heavy_tailed() {
        let mut rng = SimRng::new(11);
        let samples: Vec<u64> = (0..20_000).map(|_| rng.zipf(1_000, 1.1)).collect();
        let ones = samples.iter().filter(|&&v| v == 1).count();
        let big = samples.iter().filter(|&&v| v > 500).count();
        assert!(
            ones > big,
            "rank 1 ({ones}) should dominate the tail ({big})"
        );
        assert!(samples.iter().all(|&v| (1..=1_000).contains(&v)));
        assert_eq!(rng.zipf(1, 1.1), 1);
        assert_eq!(rng.zipf(0, 1.1), 1);
    }

    #[test]
    fn poisson_mean_is_respected() {
        let mut rng = SimRng::new(13);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.poisson(3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((2.8..3.2).contains(&mean), "mean {mean}");
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-1.0), 0);
        // The large-mean path stays near its mean too.
        let total: f64 = (0..2_000).map(|_| rng.poisson(400.0) as f64).sum();
        let mean = total / 2_000.0;
        assert!((390.0..410.0).contains(&mean), "large mean {mean}");
    }

    #[test]
    fn log_normal_median_is_respected() {
        let mut rng = SimRng::new(17);
        let mut samples: Vec<f64> = (0..10_001).map(|_| rng.log_normal(10.0, 1.0)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((7.0..14.0).contains(&median), "median {median}");
        assert!(samples.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn weighted_pick_follows_weights() {
        let mut rng = SimRng::new(19);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5);
        assert!(rng.pick_weighted(&[]).is_none());
        assert!(rng.pick_weighted(&[0.0, 0.0]).is_none());
        assert!(rng.pick_weighted(&[f64::NAN, 1.0]).is_some());
    }

    #[test]
    fn pick_and_shuffle() {
        let mut rng = SimRng::new(23);
        let items = [1, 2, 3, 4, 5];
        for _ in 0..50 {
            assert!(items.contains(rng.pick(&items)));
        }
    }
}
