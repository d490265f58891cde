//! The benchmark's own random numbers. Kept here, not taken from the
//! repository's `rand` stand-in, so that no later change to that crate can
//! alter the inputs a seed produces.

/// splitmix64: one `u64` of state, full period, good enough for key choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for a named sub-stream of `seed` (dataset, op stream, …),
    /// so that streams of one run do not overlap.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks in `0..n` with exponent `theta` (Gray et al.,
/// "Quickly generating billion-record synthetic databases"), then spread
/// over the key space so that hot keys are not neighbours.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2.min(n)) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    /// Rank 0 is the most frequent.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// A key in `0..n`: the rank, multiplied by a prime that `n` does not
    /// divide, modulo `n`. For the `n` used here (no factor 2654435761) this
    /// is a bijection.
    pub fn key(&self, rng: &mut Rng) -> i64 {
        ((self.rank(rng) as u128 * 2_654_435_761u128) % self.n as u128) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::stream(42, "ops");
        let mut b = Rng::stream(42, "ops");
        let mut c = Rng::stream(42, "data");
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..100).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_deterministic_skewed_and_in_range() {
        let z = Zipf::new(22_000, 0.99);
        let draw = |seed| {
            let mut r = Rng::stream(seed, "ops");
            (0..20_000).map(|_| z.key(&mut r)).collect::<Vec<i64>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same keys");
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|k| (0..22_000).contains(k)));
        // Rank 0 maps to key 0; with theta 0.99 it draws about a tenth.
        let hot = a.iter().filter(|&&k| k == 0).count();
        assert!(
            (1_000..4_000).contains(&hot),
            "hot key drawn {hot} times of 20000"
        );
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert!(distinct.len() > 2_000, "the tail is still visited");
    }
}
