//! Deterministic, allocation-free pseudo-random number generation.
//!
//! The procedural workload generators need billions of cheap random draws
//! that are reproducible across runs and platforms, so we use SplitMix64
//! (Steele et al.) plus a stateless mixing function for "random function of
//! (seed, index)" queries such as procedural graph adjacency.

/// SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use vm_types::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The raw internal state (for serialising a generator mid-stream;
    /// restore with [`SplitMix64::from_state`]).
    #[inline]
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a previously captured [`SplitMix64::state`].
    /// Identical to [`SplitMix64::new`] — SplitMix64's whole state is its
    /// counter — but named so intent survives at call sites.
    #[inline]
    pub const fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Discards the next `n` draws in O(1): each [`SplitMix64::next_u64`]
    /// adds the same odd constant to the state, so `n` of them add `n`
    /// times it (mod 2^64).
    #[inline]
    pub fn skip_draws(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform draw in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses the widening-multiply technique; the tiny modulo bias is
    /// irrelevant for workload generation.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws from a truncated power-law-ish distribution in `[1, max]` with
    /// exponent ~2.1, used for graph degree sequences.
    #[inline]
    pub fn power_law(&mut self, max: u64) -> u64 {
        let u = self.next_f64().max(1e-12);
        // Inverse-CDF of p(x) ~ x^-2.1 truncated at max.
        let x = (1.0 / u.powf(1.0 / 1.1)).min(max as f64);
        x as u64
    }
}

/// SplitMix64's state increment (the golden-ratio "gamma").
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Default seed used throughout the reproduction for determinism.
pub const DEFAULT_SEED: u64 = 0x5afa_7151_c0de_2023;

/// Stateless 64-bit mixer: a high-quality hash of the input, suitable for
/// procedural "random function" evaluation (e.g. the i-th neighbour of
/// vertex v is `mix64(seed ^ v ^ (i << 32)) % V`).
#[inline]
pub const fn mix64(x: u64) -> u64 {
    mix(x.wrapping_add(GAMMA))
}

#[inline]
const fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines two values into one hash, for keyed procedural functions.
#[inline]
pub const fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ b.rotate_left(32).wrapping_mul(GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let mut b = SplitMix64::new(7);
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn skip_draws_equals_repeated_next_u64() {
        // GAMMA is ~0.62 * 2^64, so the state wraps past u64::MAX every
        // couple of draws; the second seed wraps on the very first one.
        for n in [0u64, 1, 64, 1_000_000] {
            for seed in [9u64, u64::MAX] {
                let mut jumped = SplitMix64::new(seed);
                let mut stepped = SplitMix64::new(seed);
                jumped.skip_draws(n);
                for _ in 0..n {
                    stepped.next_u64();
                }
                assert_eq!(jumped, stepped, "n={n} seed={seed:#x}");
                assert_eq!(jumped.next_u64(), stepped.next_u64());
            }
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(2);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SplitMix64::new(3);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((20_000..30_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn power_law_in_range_and_skewed() {
        let mut r = SplitMix64::new(4);
        let draws: Vec<u64> = (0..10_000).map(|_| r.power_law(1000)).collect();
        assert!(draws.iter().all(|&d| (1..=1000).contains(&d)));
        let ones = draws.iter().filter(|&&d| d <= 2).count();
        assert!(ones > draws.len() / 4, "power law should be head-heavy");
    }

    #[test]
    fn mix64_spreads_bits() {
        // Consecutive inputs should produce wildly different outputs.
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn mix2_is_order_sensitive() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }
}
