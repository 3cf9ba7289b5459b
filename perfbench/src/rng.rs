//! The workload generator's randomness: a SplitMix64 stream and a Zipf
//! sampler. The repository's `rand` is a vendored shim the benchmark does
//! not depend on, so the generator lives here; every input a workload
//! feeds the program is a function of `--seed` alone.

/// A SplitMix64 stream. Distinct `stream` tags give independent streams
/// for one seed, so adding draws to one input never shifts another.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Removes and returns `k` uniformly chosen elements of `pool`.
    pub fn take<T>(&mut self, pool: &mut Vec<T>, k: usize) -> Vec<T> {
        (0..k.min(pool.len()))
            .map(|_| {
                let i = self.below(pool.len());
                pool.swap_remove(i)
            })
            .collect()
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `i` has weight `1 / (i + 1)`.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|i| {
                total += 1.0 / (i + 1) as f64;
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_tags() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn zipf_rank_zero_dominates_and_stays_in_range() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(3, 0);
        let mut hits = [0usize; 2];
        for _ in 0..20_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            if r < 2 {
                hits[r] += 1;
            }
        }
        // Weights 1 and 1/2 over H(1000) ~ 7.49: about 13.4% and 6.7%.
        assert!(hits[0] > 2400 && hits[0] < 3000, "{hits:?}");
        assert!(hits[1] > 1100 && hits[1] < 1600, "{hits:?}");
    }
}
