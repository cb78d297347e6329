//! Seeded randomness and the distribution toolbox used by workload models.
//!
//! All stochastic behaviour in the simulator flows through [`SimRng`], a
//! self-contained xoshiro256++ generator that can only be constructed from
//! an explicit seed — the build must work without any crate registry, so no
//! external RNG crate is used. Workload models additionally need a few
//! heavy-tailed distributions (flow sizes in the paper span five orders of
//! magnitude); those are implemented here directly.

/// Deterministic simulation RNG (xoshiro256++ with SplitMix64 seeding).
/// Construct with [`SimRng::seed`]; derive stream-independent children with
/// [`SimRng::fork`] so that adding a random draw in one component never
/// perturbs another component's stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create an RNG from a 64-bit seed. The four words of xoshiro state
    /// are successive SplitMix64 outputs, as the xoshiro authors recommend.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64_mix(sm)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The raw 64-bit draw every other method is built on.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A 32-bit draw (upper half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Derive an independent child RNG identified by `stream`. Children with
    /// distinct stream ids are decorrelated; the parent is not advanced.
    pub fn fork(&self, stream: u64) -> Self {
        // SplitMix64 over (initial-seed-derived state ⊕ stream id). We
        // intentionally do not advance `self`: forks depend only on the
        // parent's seed identity, captured here via a stable hash of a
        // cloned-parent draw.
        let mut probe = self.clone();
        let base = probe.next_u64();
        SimRng::seed(splitmix64(
            base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Uniform draw in `[0, 1)` using the top 53 bits of one draw.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`, unbiased via 128-bit widening
    /// multiplication with rejection (Lemire). Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            // Accept unless the draw lands in the biased low fringe.
            if (m as u64) >= span.wrapping_neg() % span {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal draw (Box–Muller; uses two uniforms per call).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Lognormal draw with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.std_normal()).exp()
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Bounded Pareto draw on `[lo, hi]` with shape `alpha` — the classic
    /// heavy-tailed flow-size model.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Draw an index `0..weights.len()` proportionally to `weights`.
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// One SplitMix64 step: advance `x` by the golden-ratio increment and mix.
/// Public so seed-derivation schemes elsewhere (the parallel flow engine's
/// per-flow seeds) share one well-tested mixer.
pub fn splitmix64(x: u64) -> u64 {
    splitmix64_mix(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An empirical distribution: samples uniformly among weighted buckets, then
/// uniformly within the bucket's `[lo, hi)` value range. Used to reproduce
/// published CDFs such as the initial-receive-window distribution (Fig. 6).
#[derive(Debug, Clone)]
pub struct EmpiricalDist {
    buckets: Vec<(f64, f64, f64)>, // (weight, lo, hi)
    total: f64,
}

impl EmpiricalDist {
    /// Build from `(weight, lo, hi)` buckets. Weights need not be normalized.
    /// Panics if empty, if any weight is negative, or if all weights are zero.
    pub fn new(buckets: Vec<(f64, f64, f64)>) -> Self {
        assert!(!buckets.is_empty());
        let total: f64 = buckets.iter().map(|b| b.0).sum();
        assert!(total > 0.0 && buckets.iter().all(|b| b.0 >= 0.0 && b.2 >= b.1));
        EmpiricalDist { buckets, total }
    }

    /// Draw one value.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let mut x = rng.f64() * self.total;
        for &(w, lo, hi) in &self.buckets {
            if x < w {
                return if hi > lo {
                    lo + rng.f64() * (hi - lo)
                } else {
                    lo
                };
            }
            x -= w;
        }
        let &(_, lo, hi) = self.buckets.last().expect("non-empty");
        if hi > lo {
            lo + rng.f64() * (hi - lo)
        } else {
            lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_decorrelated_and_deterministic() {
        let parent = SimRng::seed(1);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let mut c1b = parent.fork(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn lognormal_median_close() {
        let mut rng = SimRng::seed(11);
        let n = 20_000;
        let mut v: Vec<f64> = (0..n).map(|_| rng.lognormal(100.0f64.ln(), 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[n / 2];
        assert!((median - 100.0).abs() < 5.0, "median {median}");
    }

    #[test]
    fn bounded_pareto_in_range() {
        let mut rng = SimRng::seed(5);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(1.2, 10.0, 1e6);
            assert!((10.0..=1e6).contains(&x), "{x}");
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed(9);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed(13);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[rng.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn empirical_dist_samples_within_buckets() {
        let d = EmpiricalDist::new(vec![(0.5, 2.0, 2.0), (0.5, 10.0, 20.0)]);
        let mut rng = SimRng::seed(17);
        for _ in 0..5_000 {
            let x = d.sample(&mut rng);
            assert!(x == 2.0 || (10.0..20.0).contains(&x), "{x}");
        }
    }
}
