//! Quantiles from raw samples — never from histogram buckets.

/// A set of raw measurements.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Adds every measurement of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// How many measurements were taken.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `q`-quantile, `q` in `[0, 1]`, by linear interpolation between
    /// the two nearest ranks of the sorted samples (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// How many samples lie strictly above the `q`-quantile.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|&&v| v > cut).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.beyond(0.5), 2);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let mut s = Samples::new();
        for v in 0..1001 {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.99), 990.0);
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(Samples::new().median(), 0.0);
    }
}
