//! Reproducible random-number streams.
//!
//! Every stochastic component of the simulator (each traffic source, in
//! practice) owns its own [`SimRng`] stream, derived from a single master
//! seed with [`SeedSeq`]. Per-component streams mean that adding or removing
//! one source does not perturb the random sequence seen by any other source
//! — essential for controlled experiments ("same cross traffic, different
//! tagged session") and for the paper's firewall-property demonstrations.

use crate::time::Duration;

/// The `n`-th output (1-based) of the SplitMix64 stream seeded with
/// `seed` (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014), without stepping through the ones before
/// it: how child streams, replicas, fuzz cases and generated topologies
/// derive independent seeds.
#[inline]
pub fn splitmix64_at(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(n));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives independent child seeds from one master seed.
#[derive(Clone, Debug)]
pub struct SeedSeq {
    master: u64,
    drawn: u64,
}

impl SeedSeq {
    /// Start a sequence from `master`.
    pub fn new(master: u64) -> Self {
        SeedSeq { master, drawn: 0 }
    }

    /// The next child seed. Consecutive calls yield decorrelated values
    /// even for adjacent master seeds.
    pub fn next_seed(&mut self) -> u64 {
        self.drawn += 1;
        splitmix64_at(self.master, self.drawn)
    }

    /// A ready-to-use RNG stream seeded with the next child seed.
    pub fn next_rng(&mut self) -> SimRng {
        SimRng::seed_from(self.next_seed())
    }
}

/// The xoshiro256++ core (Blackman & Vigna, "Scrambled Linear
/// Pseudorandom Number Generators", 2019): 256 bits of state, top-tier
/// statistical quality, and a few shifts/rotates per draw. Implemented
/// in-repo so the kernel has zero external dependencies; the stream for a
/// given seed is fixed forever (platform-independent integer ops only).
#[derive(Clone, Debug)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expand a 64-bit seed into the 256-bit state with SplitMix64, as the
    /// xoshiro authors recommend (avoids correlated low-entropy states and
    /// can never produce the forbidden all-zero state).
    fn from_seed(seed: u64) -> Self {
        Xoshiro256pp {
            s: [1, 2, 3, 4].map(|n| splitmix64_at(seed, n)),
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
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
}

/// A seeded random stream with the distribution helpers the traffic models
/// need. Wraps an in-repo xoshiro256++ core, reproducible for a fixed seed
/// across platforms and toolchains.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: Xoshiro256pp,
}

impl SimRng {
    /// Deterministically seed a stream.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::from_seed(seed),
        }
    }

    /// A uniform draw in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniform draw in `[0, n)`, debiased by Lemire's widening-multiply
    /// rejection method. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// An exponentially distributed span with the given mean, by inverse
    /// transform: `-mean · ln(1 - U)`.
    ///
    /// Both the paper's Poisson interarrival times and the ON/OFF sojourn
    /// times are exponential. `1 - U` (not `U`) keeps the argument of `ln`
    /// strictly positive since `U ∈ [0, 1)`.
    #[expect(
        clippy::disallowed_methods,
        reason = "exponential sampling is float by nature; one rounding at the draw boundary, fail-loud on overflow"
    )]
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        let u = self.unit_f64();
        let x = -(1.0 - u).ln() * mean.as_secs_f64();
        Duration::from_secs_f64(x)
    }

    /// A geometrically distributed count with the given mean, on support
    /// `{1, 2, 3, …}` (at least one trial).
    ///
    /// The paper approximates the number of packets per ON burst by a
    /// geometric with mean `a_ON / T`. With success probability
    /// `p = 1/mean`, we invert the CDF: `N = ⌈ln(1-U)/ln(1-p)⌉`.
    /// For `mean <= 1` this degenerates to the constant 1.
    pub fn geometric_min1(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let u = self.unit_f64();
        let n = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
        if n < 1.0 {
            1
        } else if n > u64::MAX as f64 {
            u64::MAX
        } else {
            n as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_seq_is_deterministic_and_decorrelated() {
        let mut a = SeedSeq::new(42);
        let mut b = SeedSeq::new(42);
        let s1 = a.next_seed();
        assert_eq!(s1, b.next_seed());
        let s2 = a.next_seed();
        assert_ne!(s1, s2);
        // adjacent masters give unrelated first children
        let c = SeedSeq::new(43).next_seed();
        assert_ne!(s1, c);
    }

    #[test]
    fn rng_reproducible() {
        let mut r1 = SimRng::seed_from(7);
        let mut r2 = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(1);
        let mean = Duration::from_ms(10);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let avg_ms = total / n as f64 * 1e3;
        assert!((avg_ms - 10.0).abs() < 0.15, "avg={avg_ms}ms");
    }

    #[test]
    fn geometric_mean_is_close_and_min_one() {
        let mut rng = SimRng::seed_from(2);
        let n = 200_000;
        let mut total = 0u64;
        for _ in 0..n {
            let v = rng.geometric_min1(26.566); // a_ON/T from the paper
            assert!(v >= 1);
            total += v;
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 26.566).abs() < 0.5, "avg={avg}");
        // degenerate case
        assert_eq!(rng.geometric_min1(0.5), 1);
    }

    #[test]
    fn below_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = SimRng::seed_from(4);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.25)).count();
        let rate = hits as f64 / 1e5;
        assert!((rate - 0.25).abs() < 0.01, "rate={rate}");
    }
}
