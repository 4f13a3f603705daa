//! Order statistics, the geometric mean and the seeded shuffle.

use serde_json::{json, Value};

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` — the one the benchmark contract
/// computes spreads with — so a spread printed here is the spread the
/// driver sees. A single value is all three of its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    quartiles_of_sorted(&sorted(values))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    data
}

fn quartiles_of_sorted(data: &[f64]) -> (f64, f64, f64) {
    assert!(!data.is_empty(), "quartiles of no samples");
    let n = data.len();
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // `delta` may leave 0..=4 when `j` was clamped: the rule then
        // extrapolates from the two end points, as Python's does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Geometric mean; every value must be positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What is reported for a timing: median, quartiles, extremes, count, and
/// the highest percentile that still has ten samples beyond it (none
/// below twenty samples).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)`.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn from_samples(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        let (q1, median, q3) = quartiles_of_sorted(&sorted);
        let n = sorted.len();
        let tail = (n >= 20).then(|| {
            // Ten samples lie at or above index n-10.
            let pct = ((n - 10) * 100 / n) as u32;
            (pct, sorted[n - 11])
        });
        Summary {
            n,
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[n - 1],
            tail,
        }
    }

    /// Distance between the quartiles as a share of the median. Below four
    /// samples the quartile rule extrapolates past the data, so there the
    /// distance is the one between the extremes.
    pub fn spread(&self) -> f64 {
        if self.n >= 4 {
            (self.q3 - self.q1) / self.median
        } else {
            (self.max - self.min) / self.median
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "n": self.n,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "min": self.min,
            "max": self.max,
            "tail_pct": self.tail.map(|t| t.0),
            "tail_value": self.tail.map(|t| t.1),
        })
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Summary> {
        let f = |key: &str| v.get(key)?.as_f64();
        Some(Summary {
            n: v.get("n")?.as_u64()? as usize,
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            tail: v
                .get("tail_pct")
                .and_then(Value::as_u64)
                .zip(f("tail_value"))
                .map(|(p, t)| (p as u32, t)),
        })
    }
}

/// SplitMix64: the benchmark's own generator for the pass order, so
/// gb-perf needs no `rand`.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates shuffle whose result depends on `seed` and `stream` only.
pub fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_weights_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        // Halving the small value moves the score as much as halving the
        // large one would.
        let a = geomean(&[0.5, 100.0]);
        let b = geomean(&[1.0, 50.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_a_tail_only_with_ten_samples_beyond_it() {
        let few = Summary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!((few.n, few.min, few.max, few.tail), (3, 1.0, 3.0, None));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::from_samples(&hundred);
        assert_eq!(s.tail, Some((90, 90.0)));
        assert_eq!(hundred.iter().filter(|&&v| v > 90.0).count(), 10);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
        assert_eq!(Summary::from_json(&few.to_json()), Some(few));
    }

    #[test]
    fn spread_is_between_quartiles_or_below_four_samples_between_extremes() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::from_samples(&ten).spread(), 5.5 / 5.5);
        // Two warm invocations, 24 % apart: the quartile rule would
        // extrapolate to 36 %.
        let two = Summary::from_samples(&[1.0, 1.24]);
        assert!((two.spread() - 0.24 / 1.12).abs() < 1e-12);
        assert_eq!(Summary::from_samples(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_seed_and_stream() {
        let order = |seed, stream| {
            let mut v: Vec<u32> = (0..12).collect();
            shuffle(&mut v, seed, stream);
            v
        };
        assert_eq!(order(7, 3), order(7, 3));
        assert_ne!(order(7, 3), order(7, 4));
        assert_ne!(order(7, 3), order(8, 3));
        let mut sorted = order(7, 3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
    }
}
