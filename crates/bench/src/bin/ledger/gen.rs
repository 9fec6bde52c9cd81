//! Seeded input generators: splitmix64, zipf(1.0) by inverse CDF, shuffles
//! and draws without replacement, plus the FNV-1a hash each run prints over
//! the inputs it generated. The seed lives here and nowhere else — the
//! daemon and the engines only ever see the generated requests.

/// splitmix64 (Steele, Lea, Flood 2014): one u64 of state, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below 2^-50).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` items of `pool` drawn without replacement, in draw order.
    pub fn draw<T>(&mut self, mut pool: Vec<T>, n: usize) -> Vec<T> {
        assert!(n <= pool.len(), "cannot draw {n} of {}", pool.len());
        for i in 0..n {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(n);
        pool
    }
}

/// zipf(s = 1.0) over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Inverse-CDF sample: the first rank whose cumulative mass covers `u`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a over everything a run generated from its seed, so two runs on one
/// seed provably issued the same inputs.
pub struct ScheduleHash(u64);

impl ScheduleHash {
    pub fn new() -> Self {
        ScheduleHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the reference implementation for seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_draws_and_zipf_is_head_heavy() {
        let zipf = Zipf::new(56);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..4000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 56));
        let head = ranks.iter().filter(|&&r| r == 0).count() as f64 / 4000.0;
        // 1 / H_56 = 0.2168.
        assert!((head - 0.2168).abs() < 0.03, "rank-0 share {head}");
    }

    #[test]
    fn draw_is_without_replacement() {
        let mut rng = SplitMix64::new(3);
        let mut drawn = rng.draw((0..100).collect(), 40);
        drawn.sort_unstable();
        drawn.dedup();
        assert_eq!(drawn.len(), 40);
    }
}
