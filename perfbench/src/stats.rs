//! Order statistics over timing samples, and the seeded generator the workloads draw from.

use std::time::Duration;

/// A growing set of samples (durations are stored in microseconds).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.values.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        // folded from +0.0: an empty `sum()` of floats is -0.0
        self.values.iter().fold(0.0, |a, b| a + b)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The smallest sample, or 0.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The samples, comma-separated with 4 significant digits (for the run metadata).
    pub fn list(&self) -> String {
        let v: Vec<String> = self.values.iter().map(|v| format!("{v:.4}")).collect();
        v.join(",")
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The highest nearest-rank percentile up to `p` with at least `beyond` samples above
    /// it, so a tail figure never rests on a handful of samples.
    pub fn percentile_with_tail(&self, p: f64, beyond: usize) -> f64 {
        let n = self.values.len() as f64;
        self.percentile(p.min(100.0 * (1.0 - beyond as f64 / n)).max(0.0))
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Position by position, the smallest sample of `sets` (as long as the shortest set).
    pub fn elementwise_min<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Samples {
        let mut out: Option<Vec<f64>> = None;
        for set in sets {
            out = Some(match out {
                None => set.values.clone(),
                Some(mut acc) => {
                    acc.truncate(set.values.len());
                    for (a, v) in acc.iter_mut().zip(&set.values) {
                        *a = a.min(*v);
                    }
                    acc
                }
            });
        }
        Samples {
            values: out.unwrap_or_default(),
        }
    }

    pub fn median(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so a seed names the same inputs on
/// every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.max(), 100.0);
        // 100 samples leave 10 beyond p90; 1,000 leave 50 beyond p95
        assert_eq!(s.percentile_with_tail(95.0, 10), 90.0);
        for v in 101..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile_with_tail(95.0, 10), 950.0);
    }

    #[test]
    fn elementwise_min_takes_each_position_fastest() {
        let set = |v: &[f64]| {
            let mut s = Samples::default();
            v.iter().for_each(|&x| s.push(x));
            s
        };
        let (a, b) = (set(&[3.0, 1.0, 5.0]), set(&[2.0, 4.0, 6.0, 0.5]));
        let m = Samples::elementwise_min([&a, &b]);
        assert_eq!(m.list(), "2.0000,1.0000,5.0000");
        assert!(Samples::elementwise_min([]).is_empty());
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            let v = a.range(-3, 3);
            assert_eq!(v, b.range(-3, 3));
            assert!((-3..=3).contains(&v));
        }
    }
}
