//! A log-bucketed histogram with bounded memory and a provable quantile error bound.
//!
//! Values are `u64` (the crate records durations as nanoseconds). Buckets follow the
//! HdrHistogram layout: values below [`SUB`] get exact unit buckets; above that, each
//! power-of-two range is subdivided into [`SUB`] linear sub-buckets, so every bucket's
//! width is at most `1/SUB` of its lower bound. [`Histogram::value_at_quantile`] returns
//! the *upper* bound of the bucket holding the rank-`⌈q·n⌉` sample (clamped to the
//! recorded maximum), which yields the guarantee the property tests assert:
//!
//! ```text
//! true_quantile ≤ estimate ≤ true_quantile · (1 + 1/SUB)
//! ```
//!
//! [`Histogram::merge`] adds bucket counts element-wise with saturating arithmetic, which
//! makes it exactly associative and commutative — per-thread or per-shard histograms can
//! be combined in any grouping, the same contract `WorkTrace::merge` and
//! `FopOpStats::merge` already follow in `flex-mgl`.

/// log2 of the number of linear sub-buckets per power-of-two range.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two range; the relative bucket width (and therefore the
/// quantile error) is bounded by `1/SUB`.
pub const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: `SUB` exact unit buckets plus `SUB`
/// sub-buckets for each of the 60 power-of-two ranges above them (msb 4..=63 → shift
/// 0..=59 → groups 1..=60).
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Bucket index of a value (total over `u64`, monotone in the value).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB - 1);
        (shift as usize + 1) * SUB + sub
    }
}

/// Inclusive `(lo, hi)` value range of a bucket (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, index as u64)
    } else {
        let shift = (index / SUB - 1) as u32;
        let sub = (index % SUB) as u64;
        let lo = (SUB as u64 + sub) << shift;
        // parenthesized: `lo + 2^shift` alone wraps for the topmost bucket
        (lo, lo + ((1u64 << shift) - 1))
    }
}

/// A mergeable log-bucketed histogram. See the module docs for the layout and bounds.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty, so `merge` is a plain `min`.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (~7.6 KiB of buckets, allocated once).
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] = self.counts[bucket_index(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration as nanoseconds (saturating past ~584 years).
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Fold another histogram into this one. Exactly associative and commutative
    /// (saturating element-wise adds, `min`/`max` folds), so any merge tree over the same
    /// multiset of records produces the same histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (exact, not bucket-approximated).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 while empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper bound of the bucket holding the
    /// rank-`⌈q·n⌉` smallest sample, clamped to the recorded maximum. Satisfies
    /// `true ≤ estimate ≤ true·(1 + 1/SUB)`; 0 while empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Iterator over the non-empty buckets as `(inclusive upper bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).1, c))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("p50", &self.value_at_quantile(0.50))
            .field("p99", &self.value_at_quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_invert_it() {
        let mut prev = 0usize;
        let probes: Vec<u64> = (0..200)
            .map(|i| i as u64)
            .chain((1..60).flat_map(|s| {
                let base = 1u64 << s;
                [base - 1, base, base + base / 3, base + base / 2]
            }))
            .chain([u64::MAX / 2, u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for v in sorted {
            let i = bucket_index(v);
            assert!(i >= prev, "index must be monotone at {v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo},{hi}]");
            assert!(i < NUM_BUCKETS);
        }
    }

    #[test]
    fn bucket_width_is_bounded_relative_to_lo() {
        for i in SUB..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = hi - lo + 1;
            assert!(
                width <= lo / SUB as u64,
                "bucket {i}: width {width} lo {lo}"
            );
        }
    }

    #[test]
    fn exact_below_sub() {
        let mut h = Histogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), SUB as u64 - 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB as u64 - 1);
        assert_eq!(h.sum(), (0..SUB as u64).sum::<u64>());
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let est = h.value_at_quantile(q);
            assert!(est >= expect, "q{q}: {est} < {expect}");
            assert!(
                est as f64 <= expect as f64 * (1.0 + 1.0 / SUB as f64) + 1.0,
                "q{q}: {est} too far above {expect}"
            );
        }
        assert_eq!(h.value_at_quantile(1.0), 10_000);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let values_a = [0u64, 3, 17, 17, 900, 1 << 40];
        let values_b = [5u64, 17, 1_000_000, u64::MAX];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in values_a {
            a.record(v);
            all.record(v);
        }
        for v in values_b {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
