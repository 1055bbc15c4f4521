//! Inputs from the workload seed: every random choice the benchmark
//! makes flows from `--seed` through these two helpers.

/// SplitMix64 finaliser of `seed` and `i`: an independent 64-bit value
/// per `(seed, i)`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`. The seed is scrambled into the starting
    /// state, so that neighbouring seeds do not give one stream shifted
    /// by a draw.
    pub fn new(seed: u64) -> Self {
        Self(mix(seed, 0x5eed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn neighbouring_seeds_share_no_draw() {
        let draws = |seed| {
            let mut r = Rng::new(seed);
            (0..4096).map(|_| r.next_u64()).collect::<HashSet<_>>()
        };
        for seed in 1..10 {
            assert!(
                draws(seed).is_disjoint(&draws(seed + 1)),
                "seeds {seed} and {}",
                seed + 1
            );
        }
    }
}
