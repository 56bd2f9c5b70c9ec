//! Latency histogram with percentile queries.
//!
//! The paper reports average and p99 (tail) latencies for the network
//! workloads (Figs. 4, 6, 7, 8, 12, 14a). A log-bucketed histogram keeps
//! recording O(1) and memory bounded while giving ~2.4 % worst-case relative
//! error on percentiles — ample for reproducing figure *shapes*.

use serde::{Deserialize, JsonWriter, Serialize, Value};

/// Sub-buckets per power of two (higher = finer percentile resolution).
const SUBBUCKETS: usize = 32;
/// Number of power-of-two ranges covered (values up to 2^40 ns ≈ 18 min).
const RANGES: usize = 40;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use a4_model::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p99 = h.percentile(0.99);
/// assert!((960..=1024).contains(&p99), "p99 was {p99}");
/// assert!((h.mean() - 500.5).abs() < 20.0);
/// ```
///
/// Its encoding leaves out the trailing run of empty buckets, which is
/// most of them for any one latency kind; decoding pads the buckets back
/// to their fixed count and refuses more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Serialize for Histogram {
    fn serialize(&self, w: &mut JsonWriter) {
        let Histogram {
            buckets,
            count,
            sum,
            max,
            min,
        } = self;
        let used = buckets.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
        w.open('{');
        w.field("buckets", &buckets[..used]);
        w.field("count", count);
        w.field("sum", sum);
        w.field("max", max);
        w.field("min", min);
        w.close('}');
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name| v.get_field(name);
        let mut buckets = Vec::<u64>::from_value(field("buckets")?)?;
        if buckets.len() > SUBBUCKETS * RANGES {
            return Err(serde::Error::new(format!(
                "histogram has {} buckets, more than its {}",
                buckets.len(),
                SUBBUCKETS * RANGES
            )));
        }
        buckets.resize(SUBBUCKETS * RANGES, 0);
        Ok(Histogram {
            buckets,
            count: Deserialize::from_value(field("count")?)?,
            sum: Deserialize::from_value(field("sum")?)?,
            max: Deserialize::from_value(field("max")?)?,
            min: Deserialize::from_value(field("min")?)?,
        })
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; SUBBUCKETS * RANGES],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUBBUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as usize;
        let shift = msb - SUBBUCKETS.trailing_zeros() as usize;
        let range = shift + 1;
        let sub = ((value >> shift) as usize) - SUBBUCKETS;
        let idx = range * SUBBUCKETS + sub;
        idx.min(SUBBUCKETS * RANGES - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        let range = index / SUBBUCKETS;
        let sub = index % SUBBUCKETS;
        if range == 0 {
            sub as u64
        } else {
            let shift = range - 1;
            ((SUBBUCKETS + sub) as u64) << shift
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of all samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample; `0` when empty.
    #[inline]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample; `0` when empty.
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. `0.99` for p99).
    ///
    /// Returns the representative value of the bucket containing the
    /// requested rank; `0` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(0.5), h.percentile(0.99));
        let p50 = h.percentile(0.5);
        assert!((1234..=1280).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(500, 10);
        for _ in 0..10 {
            b.record(500);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.percentile(0.9), b.percentile(0.9));
        a.record_n(1, 0);
        assert_eq!(a.count(), 10);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_bad_quantile() {
        Histogram::new().percentile(1.5);
    }

    #[test]
    fn encoding_drops_trailing_empty_buckets_and_decodes_to_the_same_histogram() {
        let empty = Histogram::new();
        let json = serde_json::to_string(&empty).unwrap();
        assert!(json.starts_with(r#"{"buckets":[],"#), "{json}");
        assert_eq!(serde_json::from_str::<Histogram>(&json).unwrap(), empty);

        let mut h = Histogram::new();
        h.record(3);
        h.record_n(1_000, 5);
        h.record(u64::MAX);
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // The last bucket is in use, so nothing is dropped, and one more
        // bucket is refused.
        let full = json.replace(r#"],"count""#, r#",0],"count""#);
        assert_ne!(full, json);
        assert!(serde_json::from_str::<Histogram>(&full).is_err());
    }

    proptest! {
        #[test]
        fn percentile_error_is_bounded(values in prop::collection::vec(1u64..1_000_000_000, 1..500)) {
            let mut h = Histogram::new();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &v in &values {
                h.record(v);
            }
            for &q in &[0.5, 0.9, 0.99, 1.0] {
                let exact_rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[exact_rank] as f64;
                let approx = h.percentile(q) as f64;
                // Log-bucket relative error bound: one sub-bucket ≈ 1/32.
                prop_assert!(
                    (approx - exact).abs() <= exact / 16.0 + 1.0,
                    "q={q} approx={approx} exact={exact}"
                );
            }
        }

        #[test]
        fn percentiles_are_monotone(values in prop::collection::vec(0u64..u32::MAX as u64, 1..200)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut last = 0;
            for i in 0..=20 {
                let p = h.percentile(i as f64 / 20.0);
                prop_assert!(p >= last);
                last = p;
            }
        }

        #[test]
        fn bucket_value_is_le_inputs_in_bucket(v in 0u64..u64::MAX / 2) {
            let idx = Histogram::bucket_index(v);
            prop_assert!(Histogram::bucket_value(idx) <= v);
        }
    }
}
